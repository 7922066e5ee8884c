// The characterization report: the analyzer's human-facing summary.
//
// Renders, per run, what paper Sec. 3 computes: the reconstruction summary,
// per-function behaviour (latency or CPU depending on the run's probe mode,
// plus failure counts from semantics capture), where work executed (per
// process / processor type), the cross-process invocation matrix (the
// "dynamic system topology in terms of interface method invocation"), the
// slowest end-to-end calls, and any abnormal-transition findings.
//
// The Report class is an online accumulator over per-root imprints, exactly
// mirroring the CCSG: update() subtracts the previous contribution of every
// top-level tree in the scope and re-folds the current one, so per-epoch
// cost scales with the affected trees.  All aggregation is exact (integer
// nanoseconds, counts, multisets); doubles appear only at render time,
// which is what keeps incremental and offline output byte-identical.
//
// A fold allocates no strings.  Rows and labels are keyed by views into
// the database's intern pool (so the report must not outlive its
// database), ordered like the label they print as, and the label is built
// only at render.  Latency multisets are sorted vectors with add/remove
// logs, settled when order statistics are needed.  The slowest-calls table
// is an index of trees by their slowest call, merged at render; the
// critical-path section indexes each tree's slowest transaction and
// renders the head's path from the DSCG, which is why render() takes the
// graph the report was updated from.  Rendering is cached per section -- a
// section re-renders only when the accumulators feeding it changed since
// the last render.
//
// The free functions are the offline (one-epoch degenerate) form, and are
// thin wrappers over the same machinery.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/database.h"
#include "analysis/dscg.h"
#include "analysis/incremental.h"

namespace causeway::analysis {

struct ReportOptions {
  std::size_t top_slowest{8};    // rows in the slowest-calls table
  std::size_t max_anomalies{8};  // anomaly lines before eliding
};

class Report {
 public:
  Report();
  ~Report();
  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;
  Report(Report&&) noexcept;
  Report& operator=(Report&&) noexcept;

  // Folds the scope's top-level trees into the accumulators (subtracting
  // what each tree contributed before).  Expects latency / CPU annotation
  // for the database's probe mode to have run on the affected trees.
  void update(const Dscg& dscg, const LogDatabase& db,
              const UpdateScope& scope);

  // The full characterization report.  Dirty sections re-render; clean ones
  // come from the cache.  Non-const because it refreshes the caches.
  std::string render(const Dscg& dscg, const LogDatabase& db,
                     const ReportOptions& options = {});

  // Machine-readable headline metrics as a single JSON object.
  std::string summary(const Dscg& dscg, const LogDatabase& db);

  // Implementation types (defined in report.cpp; public so the fold/apply
  // helpers there can name them).
  struct Imprint;  // one tree's folded contribution
  struct Acc;      // the merged accumulators

 private:
  std::unique_ptr<Acc> acc_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Imprint>> imprints_;

  // Section caches, each stamped with the accumulator revision (and render
  // options) it was built from.
  std::uint64_t data_rev_{1};  // bumped by every applied imprint
  std::uint64_t cpu_rev_{1};   // ... that carried CPU-by-type entries
  std::uint64_t edge_rev_{1};  // ... that carried cross-process edges
  struct Cached {
    std::string text;
    std::uint64_t rev{0};  // 0 = never rendered
  };
  Cached topology_cache_, functions_cache_, process_cache_, cpu_cache_,
      edges_cache_, slow_cache_, critical_cache_, anomalies_cache_,
      summary_cache_;
  ReportOptions last_options_{};
  bool have_options_{false};
  // Mode the function table was last formatted for; a flip reformats every
  // row even when the cells themselves did not change.
  monitor::ProbeMode functions_mode_{monitor::ProbeMode::kLatency};
};

// Offline forms.  Run latency/CPU annotation for the database's primary
// probe mode, fold every top-level tree once, render.
std::string characterization_report(Dscg& dscg, const LogDatabase& db,
                                    const ReportOptions& options = {});
std::string summary_json(Dscg& dscg, const LogDatabase& db);

}  // namespace causeway::analysis
