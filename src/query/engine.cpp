#include "query/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>

#include "analysis/trace_io.h"
#include "common/worker_pool.h"
#include "monitor/record.h"
#include "store/store.h"

namespace causeway::query {

namespace {

using analysis::ColumnBundle;
using analysis::TraceIoError;
using monitor::CallKind;
using monitor::CallOutcome;
using monitor::EventKind;
using monitor::ProbeMode;

// One call event in the executor's row array.  The string ids index the
// segment's own table until the serial pass remaps them into the query's
// single name table.  No default member initializers: the array is
// allocated uninitialized and every row a query reads is written first.
struct Row {
  std::uint64_t seq;
  std::int64_t vstart, vend;
  std::uint64_t object_key;
  std::uint32_t iface, func, process, node, type;
  std::uint8_t flags1;  // event | kind<<3 | outcome<<5
  std::uint8_t flags2;  // mode in the low two bits
};

CallKind kind_of(const Row& r) {
  return static_cast<CallKind>((r.flags1 >> 3) & 3);
}
ProbeMode mode_of(const Row& r) { return static_cast<ProbeMode>(r.flags2 & 3); }

// A completed call -- the query row.  Strings resolve through the name
// table the span's ids index.
struct Span {
  const Uuid* chain{nullptr};
  const Row* open{nullptr};  // carries the span's identity and open_ts
  CallOutcome outcome{};     // the closing record's
  std::int64_t close_ts{0};  // closing record's value_start
  // close.value_start - open.value_end (latency.cpp's raw latency), only
  // when both paired records sampled in latency mode.
  std::optional<std::int64_t> latency;
};

// The chain == UUID a matching span *must* carry, if the expression forces
// one: a predicate under `or` or `not` forces nothing, under `and` any
// branch's requirement holds for the whole conjunction.
std::optional<Uuid> required_chain(const Expr* e) {
  if (e == nullptr) return std::nullopt;
  switch (e->kind) {
    case Expr::Kind::kPred:
      if (e->pred.field == Field::kChain && e->pred.op == Op::kEq) {
        return e->pred.chain;
      }
      return std::nullopt;
    case Expr::Kind::kAnd:
      for (const auto& arg : e->args) {
        if (const auto chain = required_chain(arg.get())) return chain;
      }
      return std::nullopt;
    case Expr::Kind::kOr:
    case Expr::Kind::kNot:
      return std::nullopt;
  }
  return std::nullopt;
}

bool compare_i64(std::int64_t lhs, Op op, std::int64_t rhs) {
  switch (op) {
    case Op::kEq: return lhs == rhs;
    case Op::kNe: return lhs != rhs;
    case Op::kLt: return lhs < rhs;
    case Op::kLe: return lhs <= rhs;
    case Op::kGt: return lhs > rhs;
    case Op::kGe: return lhs >= rhs;
    case Op::kMatch: return false;  // parser rejects
  }
  return false;
}

bool compare_text(std::string_view lhs, Op op, std::string_view rhs) {
  switch (op) {
    case Op::kEq: return lhs == rhs;
    case Op::kNe: return lhs != rhs;
    case Op::kMatch: return lhs.find(rhs) != std::string_view::npos;
    default: return false;  // parser rejects
  }
}

bool eval_pred(const Predicate& p, const Span& s,
               const std::vector<std::string_view>& names) {
  const Row& o = *s.open;
  switch (p.field) {
    case Field::kIface: return compare_text(names[o.iface], p.op, p.text);
    case Field::kFunc: return compare_text(names[o.func], p.op, p.text);
    case Field::kProcess: return compare_text(names[o.process], p.op, p.text);
    case Field::kNode: return compare_text(names[o.node], p.op, p.text);
    case Field::kType: return compare_text(names[o.type], p.op, p.text);
    case Field::kOutcome:
      return compare_text(monitor::to_string(s.outcome), p.op, p.text);
    case Field::kKind:
      return compare_text(monitor::to_string(kind_of(o)), p.op, p.text);
    case Field::kObject:
      return compare_i64(static_cast<std::int64_t>(o.object_key), p.op,
                         p.number);
    case Field::kChain:
      return p.op == Op::kEq ? *s.chain == p.chain : !(*s.chain == p.chain);
    case Field::kTs: return compare_i64(o.vstart, p.op, p.number);
    case Field::kLatency:
      // A span without a latency sample (causality-only mode, or an
      // unpaired probe) matches no latency predicate.
      return s.latency && compare_i64(*s.latency, p.op, p.number);
  }
  return false;
}

bool eval_expr(const Expr* e, const Span& s,
               const std::vector<std::string_view>& names) {
  if (e == nullptr) return true;
  switch (e->kind) {
    case Expr::Kind::kPred: return eval_pred(e->pred, s, names);
    case Expr::Kind::kAnd:
      for (const auto& arg : e->args) {
        if (!eval_expr(arg.get(), s, names)) return false;
      }
      return true;
    case Expr::Kind::kOr:
      for (const auto& arg : e->args) {
        if (eval_expr(arg.get(), s, names)) return true;
      }
      return false;
    case Expr::Kind::kNot: return !eval_expr(e->args[0].get(), s, names);
  }
  return false;
}

// ---------------------------------------------------------------------------
// Segment decode

// One segment of an opened file: its bytes, its slice of the row array
// and, once decoded, what the serial pass needs -- the string table (kept
// alive by its pool) and the chain runs whose rows were filled.
struct Segment {
  std::span<const std::uint8_t> bytes;
  std::size_t first_row{0};
  std::uint64_t count{0};  // from the header, bounded before allocation
  std::vector<std::string_view> table;
  std::shared_ptr<std::deque<std::string>> pool;
  struct Run {
    Uuid chain;
    std::size_t first{0}, length{0};  // rows in the row array
  };
  std::vector<Run> runs;
};

// Below this many rows (eight full segments) a query decodes inline: on a
// shared 4-vCPU host a parallel two-segment lookup's p95 moved between 2 and
// 11 ms from run to run with the cores its helpers got; inline it held ~3 ms.
constexpr std::size_t kParallelDecodeMinRows = 64 * 1024;

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw TraceIoError("cannot open trace file '" + path + "'");
  const std::streamoff size = in.tellg();
  if (size < 0) throw TraceIoError("read error on '" + path + "'");
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw TraceIoError("read error on '" + path + "'");
  return bytes;
}

// Decodes one segment into its slice of `rows`.  With `need` set, only that
// chain's runs are filled.  Runs on a pool helper: touches nothing but
// `seg` and its slice.
void decode_segment(Segment& seg, Row* rows, const std::optional<Uuid>& need) {
  const std::uint32_t version = static_cast<std::uint32_t>(seg.bytes[4]) |
                                static_cast<std::uint32_t>(seg.bytes[5]) << 8 |
                                static_cast<std::uint32_t>(seg.bytes[6]) << 16 |
                                static_cast<std::uint32_t>(seg.bytes[7]) << 24;
  // v2/v3 have no column form: decode record-major and transcode, so one
  // fill loop serves every version.
  ColumnBundle cols =
      version >= analysis::kTraceFormatV4
          ? analysis::decode_trace_segment_columns(seg.bytes)
          : analysis::decode_trace_segment_columns(analysis::encode_trace(
                analysis::decode_trace_segment(seg.bytes),
                analysis::kTraceFormatV4));
  // The slice was sized from the header: never write past it.
  if (cols.count != seg.count) {
    throw TraceIoError("corrupt trace segment: header claims " +
                       std::to_string(seg.count) + " records, body holds " +
                       std::to_string(cols.count));
  }
  std::size_t i = 0;
  for (const auto& run : cols.runs) {
    const std::size_t end = i + static_cast<std::size_t>(run.length);
    if (!need || run.chain == *need) {
      seg.runs.push_back({run.chain, seg.first_row + i, end - i});
      for (Row* out = rows + seg.first_row; i < end; ++i) {
        out[i] = Row{cols.seq[i], cols.value_start[i], cols.value_end[i],
                     cols.object_key[i], cols.iface[i], cols.func[i],
                     cols.process[i], cols.node[i], cols.type[i],
                     cols.flags1[i], cols.flags2[i]};
      }
    }
    i = end;
  }
  seg.table = std::move(cols.table);
  seg.pool = std::move(cols.strings);
}

// ---------------------------------------------------------------------------
// Span pairing (call_tree.cpp's ChainParser, minus the tree)

Span make_span(const Uuid& chain, const Row& open, const Row* skel_open,
               const Row* skel_close, const Row* close) {
  Span s;
  s.chain = &chain;
  s.open = &open;
  const Row& last = close ? *close : *skel_close;
  s.outcome = static_cast<CallOutcome>((last.flags1 >> 5) & 3);
  s.close_ts = last.vstart;
  // Which record pair bounds the latency window mirrors latency.cpp: the
  // stub pair for sync and stub-side oneway, the skeleton pair for
  // collocated calls and skeleton-rooted (spawned-side) frames.
  const Row* first = &open;
  const Row* second = &last;
  if (kind_of(open) == CallKind::kCollocated && close) {
    if (skel_open && skel_close) {
      first = skel_open;
      second = skel_close;
    } else {
      first = nullptr;  // collocated call with no skeleton pair: no latency
    }
  }
  if (first != nullptr && mode_of(*first) == ProbeMode::kLatency &&
      mode_of(*second) == ProbeMode::kLatency) {
    s.latency = second->vstart - first->vend;
  }
  return s;
}

// Stack-pairs one chain's rows, already in event-number order, handing
// each completed span to `emit`.
template <typename Emit>
void pair_chain(const Uuid& chain, const Row* rows,
                std::span<const std::size_t> order, Emit&& emit) {
  struct Frame {
    const Row* open;  // stub_start, or skel_start for a skeleton-rooted frame
    bool has_stub;
    const Row* skel_open;
    const Row* skel_close;
  };
  std::vector<Frame> stack;
  auto matches = [&](const Row& ev) {
    return !stack.empty() && stack.back().open->iface == ev.iface &&
           stack.back().open->func == ev.func;
  };
  for (const std::size_t index : order) {
    const Row& ev = rows[index];
    switch (static_cast<EventKind>(ev.flags1 & 7)) {
      case EventKind::kStubStart:
        stack.push_back(Frame{&ev, true, nullptr, nullptr});
        break;
      case EventKind::kSkelStart:
        if (stack.empty()) {
          // Skeleton-rooted: spawned side of a oneway, or an
          // uninstrumented caller.
          stack.push_back(Frame{&ev, false, &ev, nullptr});
        } else if (!stack.back().skel_open && matches(ev)) {
          stack.back().skel_open = &ev;
        }
        // else: anomalous record; the DSCG reports those, a query skips.
        break;
      case EventKind::kSkelEnd:
        if (!stack.empty() && stack.back().skel_open &&
            !stack.back().skel_close && matches(ev)) {
          stack.back().skel_close = &ev;
          if (!stack.back().has_stub) {
            const Frame f = stack.back();
            stack.pop_back();
            emit(make_span(chain, *f.open, f.skel_open, f.skel_close,
                           nullptr));
          }
        }
        break;
      case EventKind::kStubEnd:
        if (!stack.empty() && stack.back().has_stub && matches(ev)) {
          const Frame f = stack.back();
          stack.pop_back();
          emit(make_span(chain, *f.open, f.skel_open, f.skel_close, &ev));
        }
        break;
    }
  }
  // Frames still open (chain cut at a file tail) produce no spans.
}

// ---------------------------------------------------------------------------
// Aggregation

struct GroupAcc {
  std::uint64_t count{0};
  std::vector<std::int64_t> latencies;
};

// The span's group as an id: a name-table id for string fields, the enum
// value for outcome/kind.
std::uint32_t group_id(const Query& q, const Span& s) {
  if (!q.group_by) return 0;
  switch (*q.group_by) {
    case Field::kIface: return s.open->iface;
    case Field::kFunc: return s.open->func;
    case Field::kProcess: return s.open->process;
    case Field::kNode: return s.open->node;
    case Field::kType: return s.open->type;
    case Field::kOutcome: return static_cast<std::uint32_t>(s.outcome);
    case Field::kKind: return static_cast<std::uint32_t>(kind_of(*s.open));
    default: return 0;  // parser only admits the above
  }
}

std::string group_name(const Query& q, std::uint32_t id,
                       const std::vector<std::string_view>& names) {
  if (!q.group_by) return {};
  switch (*q.group_by) {
    case Field::kOutcome:
      return std::string(monitor::to_string(static_cast<CallOutcome>(id)));
    case Field::kKind:
      return std::string(monitor::to_string(static_cast<CallKind>(id)));
    default: return std::string(names[id]);
  }
}

// Nearest-rank percentile over a sorted vector.
std::int64_t percentile(const std::vector<std::int64_t>& sorted, int pct) {
  const std::size_t n = sorted.size();
  std::size_t rank = (n * static_cast<std::size_t>(pct) + 99) / 100;
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

std::optional<double> aggregate(AggFunc f, const GroupAcc& acc,
                                const std::vector<std::int64_t>& sorted) {
  if (f == AggFunc::kCount) return static_cast<double>(acc.count);
  if (sorted.empty()) return std::nullopt;
  switch (f) {
    case AggFunc::kSum: {
      double sum = 0;
      for (const std::int64_t v : sorted) sum += static_cast<double>(v);
      return sum;
    }
    case AggFunc::kAvg: {
      double sum = 0;
      for (const std::int64_t v : sorted) sum += static_cast<double>(v);
      return sum / static_cast<double>(sorted.size());
    }
    case AggFunc::kMin: return static_cast<double>(sorted.front());
    case AggFunc::kMax: return static_cast<double>(sorted.back());
    case AggFunc::kP50: return static_cast<double>(percentile(sorted, 50));
    case AggFunc::kP95: return static_cast<double>(percentile(sorted, 95));
    case AggFunc::kP99: return static_cast<double>(percentile(sorted, 99));
    case AggFunc::kCount: break;  // handled above
  }
  return std::nullopt;
}

std::string format_value(const std::optional<double>& v) {
  if (!v) return "-";
  const double d = *v;
  if (d == std::floor(d) && std::abs(d) < 9.2e18) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", d);
  return buf;
}

}  // namespace

QueryResult run_query(const Query& q,
                      const std::vector<std::string>& inputs) {
  QueryResult result;
  const std::optional<Uuid> need_chain = required_chain(q.where.get());
  const std::int64_t since =
      q.since.value_or(std::numeric_limits<std::int64_t>::min());
  const std::int64_t until =
      q.until.value_or(std::numeric_limits<std::int64_t>::max());
  const bool windowed = q.since.has_value() || q.until.has_value();

  // Plan: the catalog prunes, every surviving file is read in one go, and
  // its segments claim consecutive slices of the row array, sized by their
  // header record counts.
  std::vector<std::vector<std::uint8_t>> files;  // moves keep each buffer
  std::vector<Segment> segments;
  std::size_t total_rows = 0;
  auto open_file = [&](const std::string& path) {
    const std::span<const std::uint8_t> bytes =
        files.emplace_back(read_file(path));
    for (std::size_t at = 0, length = 0; at < bytes.size(); at += length) {
      bool is_segment = false;
      if (!analysis::probe_trace_block(bytes.subspan(at), length,
                                       is_segment)) {
        throw TraceIoError("incomplete segment in '" + path +
                           "' (run causeway-analyze --reindex)");
      }
      if (!is_segment) continue;
      const auto segment = bytes.subspan(at, length);
      const std::uint64_t count = analysis::trace_segment_record_count(segment);
      segments.push_back({segment, total_rows, count});
      total_rows += static_cast<std::size_t>(count);
    }
    result.stats.files_opened += 1;
  };
  for (const std::string& input : inputs) {
    if (store::is_store_directory(input)) {
      const store::StoreView view = store::open_store(input);
      for (const auto& file : view.files) {
        result.stats.files_total += 1;
        if (file.indexed) {
          bool pruned = !file.entry.has_records();
          if (windowed && !file.entry.overlaps_time(since, until)) {
            pruned = true;
          }
          if (need_chain && !file.entry.may_contain_chain(*need_chain)) {
            pruned = true;
          }
          if (pruned) {
            result.stats.files_pruned += 1;
            continue;
          }
        }
        open_file(file.path);
      }
    } else {
      result.stats.files_total += 1;
      open_file(input);
    }
  }

  // Decode every segment into one row array, allocated here on the calling
  // thread: in parallel, unless the query is small enough that its latency
  // should not hinge on a second core being free.
  const std::unique_ptr<Row[]> row_array(new Row[total_rows]);
  Row* const rows = row_array.get();
  if (total_rows < kParallelDecodeMinRows) {
    for (Segment& seg : segments) decode_segment(seg, rows, need_chain);
  } else {
    WorkerPool::shared().parallel_for(segments.size(), [&](std::size_t i) {
      decode_segment(segments[i], rows, need_chain);
    });
  }
  result.stats.segments_decoded = segments.size();
  result.stats.records_scanned = total_rows;

  // Serial pass: intern the segment tables into one name table, remap the
  // filled rows into it, and group row indices per chain -- chains in
  // first-seen order, each chain's rows in arrival order.
  std::vector<std::string_view> names;
  std::unordered_map<std::string_view, std::uint32_t> name_ids;
  std::unordered_map<Uuid, std::size_t> chain_index;
  std::vector<std::pair<const Uuid*, std::vector<std::size_t>>> chains;
  std::vector<std::uint32_t> remap;
  for (const Segment& seg : segments) {
    remap.clear();
    for (const std::string_view name : seg.table) {
      const auto [it, fresh] =
          name_ids.emplace(name, static_cast<std::uint32_t>(names.size()));
      if (fresh) names.push_back(name);
      remap.push_back(it->second);
    }
    for (const auto& run : seg.runs) {
      const auto [it, fresh] = chain_index.emplace(run.chain, chains.size());
      if (fresh) chains.emplace_back(&run.chain, std::vector<std::size_t>{});
      for (std::size_t i = run.first; i < run.first + run.length; ++i) {
        Row& r = rows[i];
        r.iface = remap[r.iface];
        r.func = remap[r.func];
        r.process = remap[r.process];
        r.node = remap[r.node];
        r.type = remap[r.type];
        chains[it->second].second.push_back(i);
      }
    }
  }

  // Pair each chain in event-number order and fold every span straight
  // into its group.
  std::vector<GroupAcc> groups;
  auto by_seq = [rows](std::size_t a, std::size_t b) {
    return rows[a].seq < rows[b].seq;
  };
  for (auto& [chain, events] : chains) {
    if (!std::is_sorted(events.begin(), events.end(), by_seq)) {
      std::stable_sort(events.begin(), events.end(), by_seq);
    }
    pair_chain(*chain, rows, events, [&](const Span& s) {
      result.stats.spans_total += 1;
      // The window clauses bound the whole span: it opens at or after
      // `since` and closes at or before `until` -- the invariant that makes
      // both catalog prune directions exact, not approximate.
      if (s.open->vstart < since || s.close_ts > until) return;
      if (!eval_expr(q.where.get(), s, names)) return;
      result.stats.spans_matched += 1;
      const std::uint32_t id = group_id(q, s);
      if (id >= groups.size()) groups.resize(id + 1);
      groups[id].count += 1;
      if (s.latency) groups[id].latencies.push_back(*s.latency);
    });
  }

  if (q.group_by) {
    result.columns.push_back(std::string(to_string(*q.group_by)));
  }
  for (const AggFunc f : q.aggs) {
    result.columns.push_back(std::string(to_string(f)));
  }
  std::vector<std::pair<std::string, GroupAcc*>> keyed;
  for (std::uint32_t id = 0; id < groups.size(); ++id) {
    if (groups[id].count == 0) continue;
    keyed.emplace_back(group_name(q, id, names), &groups[id]);
  }
  // A global (ungrouped) query always yields one row, even over nothing.
  GroupAcc none;
  if (!q.group_by && keyed.empty()) keyed.emplace_back("", &none);
  std::sort(keyed.begin(), keyed.end());  // keys are unique
  for (auto& [key, acc] : keyed) {
    std::sort(acc->latencies.begin(), acc->latencies.end());
    QueryResult::Row row;
    row.group = key;
    for (const AggFunc f : q.aggs) {
      row.values.push_back(aggregate(f, *acc, acc->latencies));
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

std::string render_text(const QueryResult& r) {
  // Column widths sized to content so the table reads aligned.
  std::vector<std::size_t> widths(r.columns.size());
  for (std::size_t c = 0; c < r.columns.size(); ++c) {
    widths[c] = r.columns[c].size();
  }
  std::vector<std::vector<std::string>> cells;
  for (const auto& row : r.rows) {
    std::vector<std::string> line;
    if (r.columns.size() == row.values.size() + 1) {
      line.push_back(row.group);
    }
    for (const auto& v : row.values) line.push_back(format_value(v));
    for (std::size_t c = 0; c < line.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], line[c].size());
    }
    cells.push_back(std::move(line));
  }
  std::string out;
  for (std::size_t c = 0; c < r.columns.size(); ++c) {
    if (c) out += "  ";
    out += r.columns[c];
    out.append(widths[c] - r.columns[c].size(), ' ');
  }
  out += '\n';
  for (const auto& line : cells) {
    for (std::size_t c = 0; c < line.size(); ++c) {
      if (c) out += "  ";
      out += line[c];
      if (c + 1 < line.size()) out.append(widths[c] - line[c].size(), ' ');
    }
    out += '\n';
  }
  return out;
}

std::string render_csv(const QueryResult& r) {
  auto escape = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string quoted = "\"";
    for (const char c : s) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    quoted += '"';
    return quoted;
  };
  std::string out;
  for (std::size_t c = 0; c < r.columns.size(); ++c) {
    if (c) out += ',';
    out += escape(r.columns[c]);
  }
  out += '\n';
  for (const auto& row : r.rows) {
    std::vector<std::string> line;
    if (r.columns.size() == row.values.size() + 1) {
      line.push_back(row.group);
    }
    for (const auto& v : row.values) line.push_back(format_value(v));
    for (std::size_t c = 0; c < line.size(); ++c) {
      if (c) out += ',';
      out += escape(line[c]);
    }
    out += '\n';
  }
  return out;
}

}  // namespace causeway::query
