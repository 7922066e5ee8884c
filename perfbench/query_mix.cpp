// query-mix: the reader side.
//
// Set-up synthesizes an E2-shape stream, shifts each ~8192-record epoch onto
// its own timestamp plateau and writes it through StoreWriter twice: a
// --compress (v5) store rotated into ~16 sealed files, and a v4 copy that
// only the gates read.  One client then runs a seeded closed-loop mix of
// four classes, about a quarter each: scan (aggregate group by a field),
// window (the same, limited to one file's catalog range), chain (count for
// one chain, present or absent half the time each) and filter (and/or/not
// predicates, no window).  Neither the monitor nor the analysis pipeline
// runs here.
//
// The store holds kCalls calls, sized so that a run of the benchmark's
// length completes at least the 100 queries its p90 needs (ten beyond it).
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "harness.h"

namespace perfbench {
namespace {

constexpr std::size_t kCalls = 65'000;
constexpr std::size_t kFiles = 16;

struct Inputs {
  std::string v5_dir, v4_dir;
  std::uint64_t spans{0};
  std::uint64_t records{0};
  std::vector<cw::Uuid> chains;
  std::vector<std::string> interfaces, functions;
};

void write_store(const std::string& dir, const E2Stream& stream,
                 std::uint32_t format) {
  cw::store::StoreOptions options;
  options.trace_format = format;
  options.rotate_segments =
      std::max<std::size_t>(1, stream.epochs.size() / kFiles);
  cw::store::StoreWriter writer(dir, options);
  for (const auto& epoch : stream.epochs) writer.append(epoch);
  writer.close();
}

Inputs set_up(const Options& options) {
  Inputs in;
  const E2Stream stream = synthesize_e2(options.seed, kCalls, true);
  in.spans = stream.spans;
  in.records = stream.records;
  in.v5_dir = fresh_dir(options, "query/v5");
  in.v4_dir = fresh_dir(options, "query/v4");
  write_store(in.v5_dir, stream, cw::analysis::kTraceFormatV5);
  write_store(in.v4_dir, stream, cw::analysis::kTraceFormatV4);
  const auto& chains = stream.db->chains();
  cw::SplitMix64 rng{mix_seed(options.seed, 0xC5)};
  for (int i = 0; i < 64; ++i) in.chains.push_back(chains[rng.next() % chains.size()]);
  collect_names(stream.db->records(), in.interfaces, in.functions);
  return in;
}

struct Phase {
  std::vector<QuerySample> samples;
  std::vector<QuerySample> plain;  // traced phases: untraced twins
  double wall_s{0};
  double cpu_s{0};
  std::uint64_t threw{0};
};

// Closed loop: the next query starts when the previous one answered.  Runs
// for `seconds`, and on past that only until the p90 is supported.  With
// an enabled tracer every drawn query runs twice, traced and untraced in
// alternating order, so the two sides see the same mix and warmth.
Phase run_phase(const Options& options, const Inputs& in,
                const std::vector<QueryCase>& cases, double seconds,
                Tracer& tracer) {
  Phase phase;
  Tracer off(false);
  QueryDraw draw(options.seed, cases);
  const std::size_t min_samples = min_samples_for(900);
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t deadline = t0 + static_cast<std::int64_t>((4 * seconds + 30) * 1e9);
  while (now_ns() < end || phase.samples.size() < min_samples) {
    if (now_ns() > deadline) throw Stall("query mix reaching its sample count");
    const std::size_t i = draw.next();
    try {
      const std::uint64_t id = phase.samples.size() + 1;
      if (tracer.enabled() && id % 2 == 0) {
        phase.plain.push_back(run_one_query(cases, i, in.v5_dir, off, id));
      }
      phase.samples.push_back(run_one_query(cases, i, in.v5_dir, tracer, id));
      if (tracer.enabled() && id % 2 == 1) {
        phase.plain.push_back(run_one_query(cases, i, in.v5_dir, off, id));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: query '%s' threw: %s\n",
                   cases[i].texts.front().c_str(), e.what());
      ++phase.threw;
    }
  }
  phase.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  phase.cpu_s = process_cpu_s() - cpu0;
  return phase;
}

// Every answer of one query text must be the same, and the same again on
// the uncompressed v4 copy.
void check_phase(const Phase& phase, const Inputs& in,
                 const std::vector<QueryCase>& cases, Result& result) {
  Tracer off(false);
  result.attempted(phase.samples.size() + phase.threw);
  result.failed(phase.threw, "queries threw");
  std::map<std::size_t, std::string> answers;
  std::vector<QuerySample> all = phase.samples;
  all.insert(all.end(), phase.plain.begin(), phase.plain.end());
  for (const QuerySample& s : all) {
    auto [it, fresh] = answers.emplace(s.case_index, s.csv);
    result.gate(fresh || it->second == s.csv,
                "query answered differently on a repeat: " + cases[s.case_index].texts.front());
  }
  for (const auto& [index, csv] : answers) {
    const QuerySample v4 = run_one_query(cases, index, in.v4_dir, off, 0);
    result.gate(v4.csv == csv, "v4 and v5 stores disagree on: " + cases[index].texts.front());
  }
}

// The reader's lag: how long a reader waits to find one chain it knows is
// stored -- a single `chain ==` lookup, planned, pruned by the catalog and
// answered from the files it cannot rule out.  512 lookups, cycling over
// the present chains.
std::vector<double> lookup_latencies_ns(const std::string& dir,
                                        const std::vector<cw::Uuid>& chains) {
  std::vector<QueryCase> cases;
  for (const cw::Uuid& chain : chains) {
    cases.push_back({QueryClass::kChain, {"count where chain == " + chain.to_string()}});
  }
  Tracer off(false);
  std::vector<double> out;
  for (std::size_t i = 0; i < 512; ++i) {
    out.push_back(run_one_query(cases, i % cases.size(), dir, off, 0).total_ns);
  }
  return out;
}

}  // namespace

void query_mix(const Options& options, Result& result) {
  std::vector<double> setups;
  Inputs in;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t = now_ns();
    in = set_up(options);
    setups.push_back(static_cast<double>(now_ns() - t) * 1e-9);
  }
  const std::vector<QueryCase> cases = build_query_cases(
      options.seed, in.v5_dir, in.chains, in.interfaces, in.functions);
  Tracer off(false);
  Tracer tracer(true);

  reset_peak_rss();
  const Phase phase =
      run_phase(options, in, cases, options.seconds, options.trace ? tracer : off);
  const double peak_mb = peak_rss_mb();

  check_phase(phase, in, cases, result);
  const QuerySample all =
      run_one_query({{QueryClass::kScan, {"count"}}}, 0, in.v5_dir, off, 0);
  result.gate(all.csv == "count\n" + std::to_string(in.spans) + "\n",
              "store count " + all.csv + " != synthesized spans " +
                  std::to_string(in.spans));

  if (!options.trace) {
    // A reader's transaction is a session of four consecutive queries: one
    // query alone is a scan or a lookup, two latency modes whose median
    // flips between them, while a session's median sits in the middle.
    std::vector<double> session_ns;
    double scanned = 0;
    for (std::size_t i = 0; i < phase.samples.size(); ++i) {
      const QuerySample& s = phase.samples[i];
      if (i % 4 == 0) session_ns.push_back(0);
      session_ns.back() += s.total_ns;
      scanned += static_cast<double>(s.records_scanned);
    }
    if (phase.samples.size() % 4 != 0) session_ns.pop_back();
    const std::vector<double> lookup_ns = lookup_latencies_ns(in.v5_dir, in.chains);
    result.metric("setup_s", median_setup_s(setups), "s");
    result.metric("txn_p50_us", percentile(session_ns, 500).value / 1e3, "us");
    result.metric("txn_p95_us", percentile(session_ns, 950).value / 1e3, "us");
    result.metric("ingest_lag_p50_ms", percentile(lookup_ns, 500).value / 1e6, "ms");
    result.metric("ingest_lag_p95_ms", percentile(lookup_ns, 950).value / 1e6, "ms");
    result.metric("cpu_ns_per_record", phase.cpu_s * 1e9 / scanned, "ns");
    result.metric("ingest_records_per_s", scanned / phase.wall_s, "rec/s");
    result.metric("peak_rss_mb", peak_mb, "MB");
    result.metric("store_bytes_per_record",
                  static_cast<double>(directory_bytes(in.v5_dir)) /
                      static_cast<double>(in.records),
                  "B");
    report_query_metrics(cases, phase.samples, result);
    return;
  }

  const std::vector<Span> spans = tracer.spans();
  std::map<std::string, double> m;
  m["store.open_ms_p50"] = percentile(durations(spans, "store.open"), 500).value / 1e6;
  m["query.parse_us_p50"] = percentile(durations(spans, "query.parse"), 500).value / 1e3;
  m["query.render_us_p50"] = percentile(durations(spans, "query.render"), 500).value / 1e3;
  std::vector<double> window_files, present_files, absent_files, scan_run;
  double scanned[4] = {0, 0, 0, 0}, matched[4] = {0, 0, 0, 0};
  for (const QuerySample& s : phase.samples) {
    const QueryCase& c = cases[s.case_index];
    const auto k = static_cast<std::size_t>(c.cls);
    scanned[k] += static_cast<double>(s.records_scanned);
    matched[k] += static_cast<double>(s.spans_matched);
    for (std::size_t q = 0; q < s.files_opened.size(); ++q) {
      const auto files = static_cast<double>(s.files_opened[q]);
      if (c.cls == QueryClass::kWindow) window_files.push_back(files);
      if (c.cls == QueryClass::kChain) {
        (q < kChainLookups / 2 ? present_files : absent_files).push_back(files);
      }
    }
    if (c.cls == QueryClass::kScan) scan_run.push_back(s.run_ns);
  }
  m["query.files_opened_window"] = percentile(window_files, 500).value;
  m["query.files_opened_chain_present"] = percentile(present_files, 500).value;
  m["query.files_opened_chain_absent"] = percentile(absent_files, 500).value;
  m["query.records_scanned_per_match_scan"] = scanned[0] / std::max(1.0, matched[0]);
  m["query.records_scanned_per_match_filter"] = scanned[3] / std::max(1.0, matched[3]);

  // Decode alone, segment by segment, over every file a scan opens.
  double decode_ns = 0;
  for (const cw::store::StoreFile& file : cw::store::open_store(in.v5_dir).files) {
    std::ifstream f(file.path, std::ios::binary);
    const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                                          std::istreambuf_iterator<char>());
    const std::int64_t t = now_ns();
    std::size_t off = 0;
    while (off < bytes.size()) {
      std::size_t length = 0;
      bool is_segment = false;
      const std::span<const std::uint8_t> rest(bytes.data() + off, bytes.size() - off);
      if (!cw::analysis::probe_trace_block(rest, length, is_segment)) break;
      if (is_segment) {
        (void)cw::analysis::decode_trace_segment_columns(rest.subspan(0, length));
      }
      off += length;
    }
    decode_ns += static_cast<double>(now_ns() - t);
  }
  const double scan_p50 = percentile(scan_run, 500).value;
  m["query.non_decode_share_scan_pct"] = 100.0 * (scan_p50 - decode_ns) / scan_p50;
  m["trace_io.query_decode_ns_per_record"] = decode_ns / static_cast<double>(in.records);

  double plain = 0, with = 0;
  for (const QuerySample& s : phase.samples) with += s.total_ns;
  for (const QuerySample& s : phase.plain) plain += s.total_ns;
  m["trace.overhead_pct"] = 100.0 * (with - plain) / plain;
  const std::vector<std::int64_t> self = self_times(spans);
  double root_total = 0, root_self = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "query.total") continue;
    root_total += static_cast<double>(spans[i].duration());
    root_self += static_cast<double>(self[i]);
  }
  m["ledger.unaccounted_pct"] = 100.0 * root_self / root_total;
  report_per_layer(m, result);
  write_spans(options.spans_out, spans);
}

}  // namespace perfbench
