// Decoded trace columns -- the zero-assembly handoff between the v4 segment
// codec and sharded synthesis, in both directions.
//
// A v4 segment is columnar on the wire (analysis/trace_io.h); ColumnBundle
// is the same shape in memory: one contiguous vector per record field, runs
// of consecutive same-chain records carrying their chain UUID once, string
// ids still unresolved against the segment's deduplicated table.  The
// batch varint column calls (common/wire.h) decode straight into these
// vectors, and LogDatabase::ingest(const ColumnBundle&) scatters them
// straight into the per-shard synthesis state -- no intermediate 168-byte
// TraceRecord staging array is ever built on the pipeline path.  The write side is symmetric:
// encode_trace_columns() turns a bundle back into segment bytes through the
// same column calls (relays re-pack without ever assembling records), and
// the result is byte-identical to encoding the assembled record stream.  The record-major
// CollectedLogs form still exists for v2/v3 segments and for callers that
// want assembled records (decode_trace_segments); both ingest paths produce
// byte-identical databases.
//
// A bundle is self-contained: table views point into the bundle-owned
// string pool (shared, so assembling a CollectedLogs from a bundle shares
// rather than copies), and the flag columns are copied out of the input
// bytes -- a bundle may outlive the mmap it was decoded from, cross
// threads, and be ingested later in epoch order.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "monitor/collector.h"

namespace causeway::analysis {

struct ColumnBundle {
  std::vector<monitor::CollectedLogs::DomainEntry> domains;

  // Which drain produced the segment (0 = offline collect) and the probe
  // ring-overflow count it reported.  v4 segments carry no transport-tier
  // counters, so ingest treats those as zero -- exactly as the assembled
  // CollectedLogs form does.
  std::uint64_t epoch{0};
  std::uint64_t dropped{0};

  // The segment's deduplicated string table; every id column below indexes
  // it, and decode has already validated every id (so ingest can index
  // without re-checking).  Views point into `strings`.
  std::vector<std::string_view> table;

  // Maximal spans of consecutive same-chain records, arrival order
  // preserved.  `spawn_base` is the number of spawned-chain entries before
  // this run -- a shard handed a run indexes `spawned` from there, walking
  // its own flag bits, without any cross-run scan.
  struct Run {
    Uuid chain;
    std::uint64_t length{0};
    std::uint32_t spawn_base{0};
  };
  std::vector<Run> runs;

  std::size_t count{0};                // total records across all runs

  // One entry per record, arrival order (runs are contiguous).
  std::vector<std::uint64_t> seq;      // absolute (deltas already summed)
  std::vector<std::uint8_t> flags1;    // event | kind<<3 | outcome<<5
  std::vector<std::uint8_t> flags2;    // mode | spawn-bit 4 | rate_index<<3
  std::vector<std::uint32_t> iface, func, process, node, type;  // table ids
  std::vector<std::uint64_t> object_key;
  std::vector<std::uint64_t> thread_ordinal;
  std::vector<std::int64_t> value_start;  // absolute
  std::vector<std::int64_t> value_end;    // absolute

  // Dense spawned-chain UUIDs for just the records whose flags2 bit 2 is
  // set (oneway stub-starts -- sparse).
  std::vector<Uuid> spawned;

  // Backing storage for `table` (and shareable with any CollectedLogs
  // assembled from this bundle).
  std::shared_ptr<std::deque<std::string>> strings =
      std::make_shared<std::deque<std::string>>();

  std::string_view own_string(std::string_view s) {
    strings->emplace_back(s);
    return strings->back();
  }
};

}  // namespace causeway::analysis
