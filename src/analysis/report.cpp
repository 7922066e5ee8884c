#include "analysis/report.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <set>
#include <utility>

#include "analysis/cpu.h"
#include "analysis/critical_path.h"
#include "analysis/latency.h"
#include "analysis/stats.h"
#include "analysis/topology.h"
#include "common/strings.h"

namespace causeway::analysis {
namespace {

using monitor::ProbeMode;

std::string sv(std::string_view s) { return std::string(s); }

// Report keys hold views into the database's intern pool and are split
// into pieces; a label is built only when a row renders.
template <std::size_t N>
std::string join(const std::array<std::string_view, N>& pieces) {
  std::string out;
  for (std::string_view piece : pieces) out += piece;
  return out;
}

// Three-way comparison of join(a) and join(b) without building either, so
// keys sort exactly like the labels they print as.
template <std::size_t N>
int compare_joined(const std::array<std::string_view, N>& a,
                   const std::array<std::string_view, N>& b) {
  std::size_t i = 0, j = 0;
  std::string_view x = a[0], y = b[0];
  for (;;) {
    while (x.empty() && ++i < N) x = a[i];
    while (y.empty() && ++j < N) y = b[j];
    if (x.empty() || y.empty()) {
      return static_cast<int>(!x.empty()) - static_cast<int>(!y.empty());
    }
    const std::size_t n = std::min(x.size(), y.size());
    if (const int c = x.substr(0, n).compare(y.substr(0, n))) return c;
    x.remove_prefix(n);
    y.remove_prefix(n);
  }
}

// --- accumulator cells -------------------------------------------------
// All exact: integer nanoseconds, counts, multisets keyed on exact values.
// Doubles appear only in the render functions below.

// An exact multiset of latencies: a sorted vector plus unsorted add and
// remove logs, folded in (sort, merge, set_difference) only when order
// statistics are needed, or when the logs outgrow twice the settled part
// (which bounds their memory at an amortized O(log n) per value).
struct LatencyBag {
  std::vector<Nanos> sorted, added, removed;

  void log(Nanos ns, bool add) {
    (add ? added : removed).push_back(ns);
    if (added.size() + removed.size() > 2 * sorted.size() + 4096) settle();
  }
  const std::vector<Nanos>& settle() {
    if (!added.empty()) {
      std::sort(added.begin(), added.end());
      std::vector<Nanos> merged(sorted.size() + added.size());
      std::merge(sorted.begin(), sorted.end(), added.begin(), added.end(),
                 merged.begin());
      sorted.swap(merged);
      added.clear();
    }
    if (!removed.empty()) {
      std::sort(removed.begin(), removed.end());
      std::vector<Nanos> kept;
      kept.reserve(sorted.size() - removed.size());
      std::set_difference(sorted.begin(), sorted.end(), removed.begin(),
                          removed.end(), std::back_inserter(kept));
      sorted.swap(kept);
      removed.clear();
    }
    return sorted;
  }
};

// A function row's key, ordered as the string "iface::func" it prints as.
struct FnKey {
  std::string_view iface, func;
  std::array<std::string_view, 3> joined() const {
    return {iface, "::", func};
  }
  bool operator<(const FnKey& o) const {
    return compare_joined(joined(), o.joined()) < 0;
  }
};

struct FnCell {
  std::size_t calls{0};
  std::size_t failures{0};
  LatencyBag latency;  // per-call latencies
  Nanos self_cpu{0};
  Nanos desc_cpu{0};

  // Render cache: the row's formatted line, recomputed only when the cell
  // changed -- the function table stays cheap when one epoch touches a few
  // functions out of hundreds.
  std::string rendered_row;
  bool row_dirty{true};
};

struct EdgeCell {
  std::size_t calls{0};
  Nanos latency_sum{0};
  std::size_t latency_count{0};
};

struct CpuTypeCell {
  Nanos ns{0};
  std::size_t n{0};  // contributing nodes, so zero sums survive subtraction
};

// Slowest-calls table key: latency descending, then the label
// "iface::func @process" ascending -- the canonical tie-break that makes
// the table independent of fold order.
struct SlowKey {
  Nanos latency{0};
  std::string_view iface, func, process;
  std::array<std::string_view, 5> joined() const {
    return {iface, "::", func, " @", process};
  }
  bool operator<(const SlowKey& o) const {
    if (latency != o.latency) return latency > o.latency;
    return compare_joined(joined(), o.joined()) < 0;
  }
};

// One call's contribution, kept so the tree's imprint can be subtracted.
struct CallFact {
  SlowKey slow;             // latency (when timed), function, server process
  std::string_view caller;  // stub-side process of a cross-process call
  std::uint64_t object_key{0};
  Nanos self_cpu{0};
  Nanos desc_cpu{0};
  bool timed{false};
  bool top_level{false};
  bool failed{false};
  bool cross_process{false};
};

// A tree in the slowest-calls index, keyed by its own slowest call; ties go
// to the lowest root ordinal.
struct SlowHead {
  SlowKey worst;
  std::uint64_t ordinal{0};
  bool operator<(const SlowHead& o) const {
    if (worst < o.worst) return true;
    if (o.worst < worst) return false;
    return ordinal < o.ordinal;
  }
};

// Critical-path index key: worst transaction first; ties go to the lowest
// root ordinal so the pick is independent of fold order.
struct CriticalKey {
  Nanos total{0};
  std::uint64_t ordinal{0};
  bool operator<(const CriticalKey& o) const {
    if (total != o.total) return total > o.total;
    return ordinal < o.ordinal;
  }
};

}  // namespace

// One top-level tree's folded contribution to every accumulator.
struct Report::Imprint {
  std::vector<CallFact> calls;  // timed calls first, slowest first
  std::size_t timed{0};
  std::vector<std::pair<std::string_view, Nanos>> cpu_by_type;  // per node
  std::size_t failures{0};

  // Topology contribution.  Depth/fanout maxima are per-tree, folded into
  // the accumulator's multiset of per-tree maxima.
  std::size_t depth_sum{0};
  std::size_t max_depth{0};
  std::size_t fanout_sum{0};
  std::size_t non_leaf{0};
  std::size_t max_fanout{0};
  std::size_t sync_calls{0};
  std::size_t oneway_calls{0};
  std::size_t collocated_calls{0};
  std::size_t cross_process{0};
  std::size_t cross_thread{0};
  std::size_t cross_processor{0};
  Nanos total_self_cpu{0};

  // The tree's slowest transaction, whose critical path the report renders
  // from the DSCG when this tree heads the index.
  bool has_critical{false};
  Nanos critical_total{0};
};

struct Report::Acc {
  std::map<FnKey, FnCell> functions;
  std::map<std::string_view, std::size_t> process_calls;
  std::map<std::pair<std::string_view, std::string_view>, EdgeCell> edges;
  std::map<std::string_view, CpuTypeCell> cpu_by_type;
  // Trees with timed calls, by their slowest call; the values point into
  // the owning Imprints (stable: an entry is removed before its imprint).
  std::map<SlowHead, const Imprint*> slow;
  std::size_t failures{0};

  std::size_t calls{0};
  std::size_t depth_sum{0};
  std::size_t fanout_sum{0};
  std::size_t non_leaf{0};
  std::map<std::size_t, std::size_t> root_max_depth;   // per-tree maxima
  std::map<std::size_t, std::size_t> root_max_fanout;  // per-tree maxima
  std::size_t sync_calls{0};
  std::size_t oneway_calls{0};
  std::size_t collocated_calls{0};
  std::size_t cross_process{0};
  std::size_t cross_thread{0};
  std::size_t cross_processor{0};
  std::map<std::string_view, std::size_t> interfaces;
  std::map<std::pair<std::string_view, std::string_view>, std::size_t>
      function_ids;
  std::map<std::pair<std::string_view, std::uint64_t>, std::size_t> objects;

  LatencyBag top_latency;  // depth-0 transaction latencies
  Nanos total_self_cpu{0};

  // Worst-first index over every root's slowest transaction.
  std::set<CriticalKey> critical;

  // Pre-rendered anomaly lines per chain ordinal, refreshed for exactly the
  // chains a scope rebuilt; only chains that *have* anomalies appear.
  std::map<std::uint64_t, std::vector<std::string>> anomaly_lines;

  std::vector<CallFact> scratch;  // fold buffer, so imprints size exactly
};

namespace {

// The tree's slowest timed top-level call (the earliest on ties), or null.
const CallNode* critical_top(const ChainTree& tree) {
  const CallNode* best = nullptr;
  for (const auto& top : tree.root->children) {
    if (top->latency && (!best || *top->latency > *best->latency)) {
      best = top.get();
    }
  }
  return best;
}

Report::Imprint fold_tree(const ChainTree& tree,
                          std::vector<CallFact>& scratch) {
  Report::Imprint imp;
  scratch.clear();
  Dscg::visit_tree(tree, [&](const CallNode& node, int depth) {
    const auto& stub = node.record(monitor::EventKind::kStubStart);
    const auto& skel = node.record(monitor::EventKind::kSkelStart);
    CallFact& call = scratch.emplace_back();
    call.slow = {node.latency.value_or(0), node.interface_name,
                 node.function_name, node.server_process()};
    call.object_key = node.object_key;
    call.self_cpu = node.self_cpu.total();
    call.desc_cpu = node.descendant_cpu.total();
    call.timed = node.latency.has_value();
    call.top_level = depth == 0;
    call.failed = node.failed();
    call.cross_process =
        stub && skel && stub->process_name != skel->process_name;
    if (call.cross_process) call.caller = stub->process_name;
    imp.timed += call.timed;
    imp.failures += call.failed;
    imp.total_self_cpu += call.self_cpu;
    for (const auto& [type, ns] : node.self_cpu.by_type) {
      imp.cpu_by_type.emplace_back(type, ns);
    }

    // Topology.
    const auto d = static_cast<std::size_t>(depth) + 1;
    imp.depth_sum += d;
    imp.max_depth = std::max(imp.max_depth, d);
    const std::size_t fanout = node.children.size() + node.spawned.size();
    imp.max_fanout = std::max(imp.max_fanout, fanout);
    if (fanout > 0) {
      imp.fanout_sum += fanout;
      ++imp.non_leaf;
    }
    switch (node.kind) {
      case monitor::CallKind::kSync: ++imp.sync_calls; break;
      case monitor::CallKind::kOneway:
        if (stub) ++imp.oneway_calls;
        break;
      case monitor::CallKind::kCollocated: ++imp.collocated_calls; break;
    }
    if (stub && skel) {
      if (call.cross_process) ++imp.cross_process;
      if (stub->thread_ordinal != skel->thread_ordinal) ++imp.cross_thread;
      if (stub->processor_type != skel->processor_type) ++imp.cross_processor;
    }
  });
  std::sort(scratch.begin(), scratch.end(),
            [](const CallFact& a, const CallFact& b) {
              if (a.timed != b.timed) return a.timed;
              return a.timed && a.slow < b.slow;
            });
  imp.calls = scratch;

  if (const CallNode* top = critical_top(tree)) {
    imp.has_critical = true;
    imp.critical_total = *top->latency;
  }
  return imp;
}

// summarize() over the exact sorted multiset: count, mean from the integer
// sum, nearest-rank interpolated percentiles.
Summary summarize_sorted(const std::vector<Nanos>& v) {
  Summary s;
  const std::size_t n = v.size();
  s.count = n;
  if (n == 0) return s;
  Nanos total = 0;
  for (Nanos ns : v) total += ns;
  const auto at = [&](std::size_t idx) {
    return static_cast<double>(v[idx]) / 1e3;
  };
  s.min = at(0);
  s.max = at(n - 1);
  s.mean = static_cast<double>(total) / 1e3 / static_cast<double>(n);
  const auto pct = [&](double p) {
    const double rank = p * static_cast<double>(n - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = rank - static_cast<double>(lo);
    return at(lo) * (1.0 - frac) + at(hi) * frac;
  };
  s.p50 = pct(0.50);
  s.p90 = pct(0.90);
  s.p99 = pct(0.99);
  return s;
}

// The key's cell: created when adding, found when subtracting (a subtracted
// imprint was added before, so the cell exists).
template <typename Map, typename Key>
typename Map::iterator cell(Map& map, const Key& key, bool add) {
  return add ? map.try_emplace(key).first : map.find(key);
}

// Adds one to a key's count, or subtracts one and erases it at zero.
template <typename Map, typename Key>
void count(Map& map, const Key& key, bool add) {
  const auto it = cell(map, key, add);
  if (add) {
    ++it->second;
  } else if (--it->second == 0) {
    map.erase(it);
  }
}

void apply(Report::Acc& acc, const Report::Imprint& imp, std::uint64_t ordinal,
           bool add) {
  const auto flip = [add](auto& into, auto amount) {
    if (add) {
      into += amount;
    } else {
      into -= amount;
    }
  };
  for (const CallFact& call : imp.calls) {
    const auto row_it =
        cell(acc.functions, FnKey{call.slow.iface, call.slow.func}, add);
    FnCell& row = row_it->second;
    flip(row.calls, std::size_t{1});
    flip(row.failures, std::size_t{call.failed});
    flip(row.self_cpu, call.self_cpu);
    flip(row.desc_cpu, call.desc_cpu);
    if (call.timed) row.latency.log(call.slow.latency, add);
    row.row_dirty = true;
    if (row.calls == 0) acc.functions.erase(row_it);

    if (call.timed && call.top_level) {
      acc.top_latency.log(call.slow.latency, add);
    }
    if (!call.slow.process.empty()) {
      count(acc.process_calls, call.slow.process, add);
    }
    if (call.cross_process) {
      const auto edge_it =
          cell(acc.edges, std::pair{call.caller, call.slow.process}, add);
      EdgeCell& edge = edge_it->second;
      flip(edge.calls, std::size_t{1});
      if (call.timed) {
        flip(edge.latency_sum, call.slow.latency);
        flip(edge.latency_count, std::size_t{1});
      }
      if (edge.calls == 0) acc.edges.erase(edge_it);
    }
    count(acc.interfaces, call.slow.iface, add);
    count(acc.function_ids, std::pair{call.slow.iface, call.slow.func}, add);
    count(acc.objects, std::pair{call.slow.iface, call.object_key}, add);
  }
  for (const auto& [type, ns] : imp.cpu_by_type) {
    const auto it = cell(acc.cpu_by_type, type, add);
    flip(it->second.ns, ns);
    flip(it->second.n, std::size_t{1});
    if (it->second.n == 0) acc.cpu_by_type.erase(it);
  }
  if (imp.timed > 0) {
    const SlowHead head{imp.calls.front().slow, ordinal};
    if (add) {
      acc.slow.emplace(head, &imp);
    } else {
      acc.slow.erase(head);
    }
  }
  if (imp.has_critical) {
    const CriticalKey key{imp.critical_total, ordinal};
    if (add) {
      acc.critical.insert(key);
    } else {
      acc.critical.erase(key);
    }
  }

  flip(acc.failures, imp.failures);
  flip(acc.calls, imp.calls.size());
  flip(acc.depth_sum, imp.depth_sum);
  flip(acc.fanout_sum, imp.fanout_sum);
  flip(acc.non_leaf, imp.non_leaf);
  flip(acc.sync_calls, imp.sync_calls);
  flip(acc.oneway_calls, imp.oneway_calls);
  flip(acc.collocated_calls, imp.collocated_calls);
  flip(acc.cross_process, imp.cross_process);
  flip(acc.cross_thread, imp.cross_thread);
  flip(acc.cross_processor, imp.cross_processor);
  flip(acc.total_self_cpu, imp.total_self_cpu);
  if (!imp.calls.empty()) {
    count(acc.root_max_depth, imp.max_depth, add);
    count(acc.root_max_fanout, imp.max_fanout, add);
  }
}

TopologyStats topology_from(const Report::Acc& acc, std::size_t chains) {
  TopologyStats topo;
  topo.calls = acc.calls;
  topo.chains = chains;
  topo.max_depth =
      acc.root_max_depth.empty() ? 0 : acc.root_max_depth.rbegin()->first;
  topo.max_fanout =
      acc.root_max_fanout.empty() ? 0 : acc.root_max_fanout.rbegin()->first;
  if (acc.calls > 0) {
    topo.mean_depth = static_cast<double>(acc.depth_sum) /
                      static_cast<double>(acc.calls);
  }
  if (acc.non_leaf > 0) {
    topo.mean_fanout = static_cast<double>(acc.fanout_sum) /
                       static_cast<double>(acc.non_leaf);
  }
  topo.sync_calls = acc.sync_calls;
  topo.oneway_calls = acc.oneway_calls;
  topo.collocated_calls = acc.collocated_calls;
  topo.cross_process = acc.cross_process;
  topo.cross_thread = acc.cross_thread;
  topo.cross_processor = acc.cross_processor;
  topo.interfaces = acc.interfaces.size();
  topo.functions = acc.function_ids.size();
  topo.objects = acc.objects.size();
  return topo;
}

}  // namespace

Report::Report() : acc_(std::make_unique<Acc>()) {}
Report::~Report() = default;
Report::Report(Report&&) noexcept = default;
Report& Report::operator=(Report&&) noexcept = default;

void Report::update(const Dscg& dscg, const LogDatabase& db,
                    const UpdateScope& scope) {
  (void)db;
  bool changed = !scope.rebuilt_chains.empty();
  bool cpu_changed = false;
  bool edges_changed = false;
  auto subtract = [&](std::uint64_t ordinal) {
    auto it = imprints_.find(ordinal);
    if (it == imprints_.end()) return;
    cpu_changed |= !it->second->cpu_by_type.empty();
    edges_changed |= it->second->cross_process > 0;
    apply(*acc_, *it->second, ordinal, false);
    imprints_.erase(it);
    changed = true;
  };
  for (std::uint64_t ordinal : scope.removed_roots) subtract(ordinal);
  for (std::uint64_t ordinal : scope.affected_roots) subtract(ordinal);
  for (std::uint64_t ordinal : scope.affected_roots) {
    auto imprint = std::make_unique<Imprint>(
        fold_tree(*dscg.chains()[ordinal], acc_->scratch));
    cpu_changed |= !imprint->cpu_by_type.empty();
    edges_changed |= imprint->cross_process > 0;
    apply(*acc_, *imprint, ordinal, true);
    imprints_.emplace(ordinal, std::move(imprint));
    changed = true;
  }

  // Refresh the pre-rendered anomaly lines of exactly the rebuilt chains
  // (anomalies are a parse artifact: they only change on rebuild).
  for (const Uuid& id : scope.rebuilt_chains) {
    const ChainTree* tree = dscg.find_chain(id);
    if (!tree) continue;
    if (tree->anomalies.empty()) {
      acc_->anomaly_lines.erase(tree->ordinal);
      continue;
    }
    auto& lines = acc_->anomaly_lines[tree->ordinal];
    lines.clear();
    lines.reserve(tree->anomalies.size());
    for (const auto& a : tree->anomalies) {
      lines.push_back(strf("chain %s seq %llu: %s\n",
                           tree->chain.to_string().c_str(),
                           static_cast<unsigned long long>(a.seq),
                           a.reason.c_str()));
    }
  }

  if (changed) ++data_rev_;
  if (cpu_changed) ++cpu_rev_;
  if (edges_changed) ++edge_rev_;
}

std::string Report::render(const Dscg& dscg, const LogDatabase& db,
                           const ReportOptions& options) {
  if (!have_options_ ||
      options.top_slowest != last_options_.top_slowest ||
      options.max_anomalies != last_options_.max_anomalies) {
    slow_cache_.rev = 0;
    anomalies_cache_.rev = 0;
    last_options_ = options;
    have_options_ = true;
  }
  const ProbeMode mode = db.primary_mode();
  const Acc& acc = *acc_;

  // Header: a handful of O(1) counters, re-rendered every time.
  std::string out;
  out += "==================== characterization report ====================\n";
  out += strf("records: %zu   chains: %zu   calls: %zu   anomalies: %zu   "
              "failures: %zu\n",
              db.size(), dscg.chains().size(), dscg.call_count(),
              dscg.anomaly_count(), acc.failures);
  out += strf("probe mode: %s   processor types: %zu   domains: %zu\n",
              sv(to_string(mode)).c_str(), db.processor_types().size(),
              db.domains().size());

  if (topology_cache_.rev != data_rev_) {
    const TopologyStats topo = topology_from(acc, dscg.chains().size());
    topology_cache_.text = strf(
        "topology: depth max/mean %zu/%.1f   fanout max/mean %zu/%.1f\n"
        "          sync %zu, oneway %zu, collocated %zu; cross-process %zu, "
        "cross-thread %zu, cross-processor %zu\n"
        "          %zu interfaces, %zu functions, %zu objects\n\n",
        topo.max_depth, topo.mean_depth, topo.max_fanout, topo.mean_fanout,
        topo.sync_calls, topo.oneway_calls, topo.collocated_calls,
        topo.cross_process, topo.cross_thread, topo.cross_processor,
        topo.interfaces, topo.functions, topo.objects);
    topology_cache_.rev = data_rev_;
  }
  out += topology_cache_.text;

  if (functions_cache_.rev != data_rev_ || mode != functions_mode_) {
    // Rows render from their per-cell cache; only cells an imprint touched
    // since the last render recompute.  A mode change reformats every row.
    const bool reformat = mode != functions_mode_;
    std::string& text = functions_cache_.text;
    text.clear();
    text += "--- per function ---\n";
    if (mode == ProbeMode::kCpu) {
      text += strf("%-40s %8s %6s %14s %14s\n", "function", "calls", "fail",
                   "self cpu us", "desc cpu us");
      for (auto& [fn, row] : acc_->functions) {
        if (row.row_dirty || reformat) {
          row.rendered_row =
              strf("%-40s %8zu %6zu %14.1f %14.1f\n", join(fn.joined()).c_str(),
                   row.calls,
                   row.failures, static_cast<double>(row.self_cpu) / 1e3,
                   static_cast<double>(row.desc_cpu) / 1e3);
          row.row_dirty = false;
        }
        text += row.rendered_row;
      }
    } else {
      text += strf("%-40s %8s %6s %10s %10s %10s\n", "function", "calls",
                   "fail", "mean us", "p50 us", "p90 us");
      for (auto& [fn, row] : acc_->functions) {
        if (row.row_dirty || reformat) {
          const Summary s = summarize_sorted(row.latency.settle());
          row.rendered_row =
              strf("%-40s %8zu %6zu %10.1f %10.1f %10.1f\n",
                   join(fn.joined()).c_str(),
                   row.calls, row.failures, s.mean, s.p50, s.p90);
          row.row_dirty = false;
        }
        text += row.rendered_row;
      }
    }
    functions_cache_.rev = data_rev_;
    functions_mode_ = mode;
  }
  out += functions_cache_.text;

  if (process_cache_.rev != data_rev_) {
    std::string& text = process_cache_.text;
    text.clear();
    text += "\n--- calls served per process ---\n";
    for (const auto& [process, calls] : acc.process_calls) {
      text += strf("%-24s %8zu\n", sv(process).c_str(), calls);
    }
    process_cache_.rev = data_rev_;
  }
  out += process_cache_.text;

  if (cpu_cache_.rev != cpu_rev_) {
    std::string& text = cpu_cache_.text;
    text.clear();
    if (mode == ProbeMode::kCpu && !acc.cpu_by_type.empty()) {
      text += "\n--- self CPU per processor type (the <C1..CM> axes) ---\n";
      for (const auto& [type, cell] : acc.cpu_by_type) {
        text += strf("%-24s %12.1f us\n", sv(type).c_str(),
                     static_cast<double>(cell.ns) / 1e3);
      }
    }
    cpu_cache_.rev = cpu_rev_;
  }
  out += cpu_cache_.text;

  if (edges_cache_.rev != edge_rev_) {
    std::string& text = edges_cache_.text;
    text.clear();
    if (!acc.edges.empty()) {
      text += "\n--- cross-process invocations (caller -> callee) ---\n";
      for (const auto& [edge, row] : acc.edges) {
        text += strf("%-20s -> %-20s %8zu", sv(edge.first).c_str(),
                     sv(edge.second).c_str(), row.calls);
        if (row.latency_count > 0) {
          text += strf("   mean %10.1f us",
                       static_cast<double>(row.latency_sum) / 1e3 /
                           static_cast<double>(row.latency_count));
        }
        text += "\n";
      }
    }
    edges_cache_.rev = edge_rev_;
  }
  out += edges_cache_.text;

  if (slow_cache_.rev != data_rev_) {
    std::string& text = slow_cache_.text;
    text.clear();
    if (!acc.slow.empty() && options.top_slowest > 0) {
      text += "\n--- slowest calls (end-to-end, overhead-corrected) ---\n";
      // Merge the trees' sorted calls, worst tree first, until the next
      // tree's slowest call could no longer make the table.  Equal keys
      // print equal lines, so which of them is kept never shows.
      const std::size_t n = options.top_slowest;
      std::vector<SlowKey> top;
      for (const auto& [head, imp] : acc.slow) {
        if (top.size() == n && !(head.worst < top.back())) break;
        for (std::size_t i = 0; i < imp->timed; ++i) {
          const SlowKey& key = imp->calls[i].slow;
          if (top.size() == n && !(key < top.back())) break;
          top.insert(std::upper_bound(top.begin(), top.end(), key), key);
          if (top.size() > n) top.pop_back();
        }
      }
      for (const SlowKey& key : top) {
        text += strf("%10.1f us  %s\n", static_cast<double>(key.latency) / 1e3,
                     join(key.joined()).c_str());
      }
    }
    slow_cache_.rev = data_rev_;
  }
  out += slow_cache_.text;

  if (critical_cache_.rev != data_rev_) {
    std::string& text = critical_cache_.text;
    text.clear();
    if (mode == ProbeMode::kLatency && !acc.critical.empty()) {
      // The head tree is unchanged since it was folded (any change re-folds
      // it), so its slowest transaction is still the one the index holds.
      text += "\n--- critical path of the slowest transaction ---\n";
      const ChainTree& tree = *dscg.chains()[acc.critical.begin()->ordinal];
      const CriticalPath path = critical_path(*critical_top(tree));
      text += path.to_string();
      if (const CriticalStep* hot = path.dominant()) {
        text += strf("dominant frame: %s::%s (%.1f us exclusive of %.1f us "
                     "end-to-end)\n",
                     sv(hot->node->interface_name).c_str(),
                     sv(hot->node->function_name).c_str(),
                     static_cast<double>(hot->exclusive) / 1e3,
                     static_cast<double>(path.total()) / 1e3);
      }
    }
    critical_cache_.rev = data_rev_;
  }
  out += critical_cache_.text;

  if (anomalies_cache_.rev != data_rev_) {
    std::string& text = anomalies_cache_.text;
    text.clear();
    std::size_t anomaly_lines = 0;
    for (const auto& [ordinal, lines] : acc.anomaly_lines) {
      for (const auto& line : lines) {
        if (anomaly_lines == 0) text += "\n--- anomalies ---\n";
        if (anomaly_lines++ >= options.max_anomalies) break;
        text += line;
      }
      if (anomaly_lines > options.max_anomalies) break;
    }
    if (anomaly_lines > options.max_anomalies) {
      text += strf("... (%zu anomalies total)\n", dscg.anomaly_count());
    }
    anomalies_cache_.rev = data_rev_;
  }
  out += anomalies_cache_.text;

  if (db.sampling_active()) {
    // Rendered fresh each time (the inputs are O(shards) counters).  The
    // section exists only when sampling left a trace -- a weight > 1 or a
    // reported suppression -- so a run at 1-in-1 with no directives renders
    // byte-identical to a build that predates sampling entirely.
    out += "\n--- sampling renormalization ---\n";
    out += strf("observed: %zu records, %zu chains; suppressed at probe: "
                "%llu records\n",
                db.size(), db.chains().size(),
                static_cast<unsigned long long>(db.sampled_out()));
    out += strf("weighted estimate: %llu records, %llu chains\n",
                static_cast<unsigned long long>(db.weighted_records()),
                static_cast<unsigned long long>(db.weighted_chains()));
    out += strf("accounting: observed + suppressed = %llu probe-kept-or-"
                "sampled activations\n",
                static_cast<unsigned long long>(db.size() + db.sampled_out()));
  }

  return out;
}

std::string Report::summary(const Dscg& dscg, const LogDatabase& db) {
  if (summary_cache_.rev == data_rev_) return summary_cache_.text;
  const Acc& acc = *acc_;
  const TopologyStats topo = topology_from(acc, dscg.chains().size());
  const Summary latency = summarize_sorted(acc_->top_latency.settle());

  std::string out = "{";
  out += strf("\"records\":%zu,\"chains\":%zu,\"calls\":%zu,", db.size(),
              dscg.chains().size(), dscg.call_count());
  out += strf("\"anomalies\":%zu,\"failures\":%zu,", dscg.anomaly_count(),
              acc.failures);
  out += strf("\"mode\":\"%s\",", sv(to_string(db.primary_mode())).c_str());
  out += strf(
      "\"topology\":{\"max_depth\":%zu,\"mean_depth\":%.3f,"
      "\"max_fanout\":%zu,\"sync\":%zu,\"oneway\":%zu,\"collocated\":%zu,"
      "\"cross_process\":%zu,\"cross_thread\":%zu,\"interfaces\":%zu,"
      "\"functions\":%zu,\"objects\":%zu},",
      topo.max_depth, topo.mean_depth, topo.max_fanout, topo.sync_calls,
      topo.oneway_calls, topo.collocated_calls, topo.cross_process,
      topo.cross_thread, topo.interfaces, topo.functions, topo.objects);
  out += strf(
      "\"transaction_latency_us\":{\"count\":%zu,\"mean\":%.3f,"
      "\"p50\":%.3f,\"p90\":%.3f,\"p99\":%.3f},",
      latency.count, latency.mean, latency.p50, latency.p90, latency.p99);
  out += strf("\"total_self_cpu_us\":%.3f",
              static_cast<double>(acc.total_self_cpu) / 1e3);
  out += "}";
  summary_cache_.text = out;
  summary_cache_.rev = data_rev_;
  return out;
}

namespace {

void annotate_for_mode(Dscg& dscg, const LogDatabase& db) {
  const ProbeMode mode = db.primary_mode();
  if (mode == ProbeMode::kLatency) {
    annotate_latency(dscg);
  } else if (mode == ProbeMode::kCpu) {
    annotate_cpu(dscg);
  }
}

std::vector<std::uint64_t> all_roots(const Dscg& dscg) {
  std::vector<std::uint64_t> ordinals;
  ordinals.reserve(dscg.roots().size());
  for (const ChainTree* tree : dscg.roots()) ordinals.push_back(tree->ordinal);
  return ordinals;
}

std::vector<Uuid> all_chains(const Dscg& dscg) {
  std::vector<Uuid> ids;
  ids.reserve(dscg.chains().size());
  for (const auto& tree : dscg.chains()) ids.push_back(tree->chain);
  return ids;
}

}  // namespace

std::string characterization_report(Dscg& dscg, const LogDatabase& db,
                                    const ReportOptions& options) {
  annotate_for_mode(dscg, db);
  Report report;
  report.update(dscg, db, UpdateScope{all_roots(dscg), {}, all_chains(dscg)});
  return report.render(dscg, db, options);
}

std::string summary_json(Dscg& dscg, const LogDatabase& db) {
  annotate_for_mode(dscg, db);
  Report report;
  report.update(dscg, db, UpdateScope{all_roots(dscg), {}, all_chains(dscg)});
  return report.summary(dscg, db);
}

}  // namespace causeway::analysis
