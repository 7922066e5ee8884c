// Per-thread execution timelines.
//
// OVATION (paper §5) presents "object method calls ... in a sequence chart
// with respect to time progressing, along with their corresponding runtime
// execution entities (thread, process, and host)" -- but without causality
// it cannot relate the intervals.  This module derives the same view from
// the DSCG, where every interval additionally knows its causal chain: for
// each call with skeleton records, the server-side execution window
// [P2.end, P3.start] on its (process, thread), in that domain's local time.
//
// Within one (process, thread) lane the windows of a latency-mode run nest
// or sequence cleanly; timestamps are never compared across processes.
#pragma once

#include <string>
#include <vector>

#include "analysis/dscg.h"

namespace causeway::analysis {

struct TimelineEntry {
  std::string_view process;
  std::uint64_t thread{0};
  std::string_view interface_name;
  std::string_view function_name;
  Nanos start{0};  // P2.end   (domain-local)
  Nanos end{0};    // P3.start (domain-local)
  Uuid chain;
  monitor::CallKind kind{monitor::CallKind::kSync};

  Nanos span() const { return end - start; }
};

// Total order over every rendered field.  Being total (no ties) is what
// makes the rendering independent of gather order: equal keys render equal
// lines, so relative order of duplicates never shows.
struct TimelineOrder {
  bool operator()(const TimelineEntry& a, const TimelineEntry& b) const {
    if (a.process != b.process) return a.process < b.process;
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.start != b.start) return a.start < b.start;
    if (a.end != b.end) return a.end < b.end;
    if (a.interface_name != b.interface_name) {
      return a.interface_name < b.interface_name;
    }
    if (a.function_name != b.function_name) {
      return a.function_name < b.function_name;
    }
    if (a.chain != b.chain) return a.chain < b.chain;
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  }
};

// Appends one top-level tree's entries (crossing into spawned chains),
// unsorted.
void gather_timeline(const ChainTree& tree, std::vector<TimelineEntry>& out);

// Entries in TimelineOrder (lane by process/thread, then time).  Only calls
// whose skeleton pair was captured in latency mode appear (CPU-mode values
// are not timestamps).
std::vector<TimelineEntry> build_timeline(const Dscg& dscg);

// Lane-per-thread rendering:
//   == procB / thread 2 ==
//   [     1200 ..     3400]  PPS::Parser::parse (chain 1a2b..)
std::string timeline_to_text(const std::vector<TimelineEntry>& entries);

// One row per entry: process,thread,interface,function,kind,start,end,chain
std::string timeline_to_csv(const std::vector<TimelineEntry>& entries);

}  // namespace causeway::analysis
