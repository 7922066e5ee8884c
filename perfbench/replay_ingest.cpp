// replay-ingest: the daemon side at capacity.
//
// A logsynth stream in the paper's E2 shape (195,000 calls, ~780k records)
// is encoded once at set-up into ~8192-record v4 segments.  Each pass, one
// feeder deals them round-robin to three Uplinks over tcp:127.0.0.1 into a
// CollectorDaemon whose sink ingests into a live AnalysisPipeline and a
// store rotated every 16 segments -- `causeway-collectd --store
// --rotate-segments=16 --report`.  The feeder is closed-loop: a connection
// gets its next segment only while fewer than kWindow of its own are still
// un-ingested, which keeps every segment inside the uplink's 4 MiB bound
// (nothing is dropped) while the single daemon thread stays saturated.
// Passes repeat until the run's time is up; each pass's report must equal
// an offline single-epoch rebuild from the same segments.
#include <malloc.h>

#include <cstdio>

#include "common/rng.h"
#include "harness.h"
#include "query/engine.h"
#include "query/parser.h"
#include "transport/ingest_sink.h"
#include "transport/uplink.h"

namespace perfbench {
namespace {

constexpr std::size_t kCalls = 195'000;
constexpr std::size_t kPeers = 3;
constexpr std::uint64_t kWindow = 8;
constexpr double kStageSeconds = 60;
constexpr std::uint64_t kFlushMs = 5000;
const std::vector<std::string> kPeerNames = {"replay-0", "replay-1",
                                             "replay-2"};

struct Inputs {
  std::vector<std::vector<std::uint8_t>> segments;
  std::vector<std::uint64_t> records;
  std::uint64_t total_records{0};
  std::uint64_t spans{0};
  std::vector<cw::Uuid> chains;  // a seeded sample, for chain queries
  std::vector<std::string> interfaces, functions;
};

Inputs set_up(std::uint64_t seed) {
  E2Stream stream = synthesize_e2(seed, kCalls, false);
  Inputs in;
  in.spans = stream.spans;
  in.total_records = stream.records;
  for (const auto& epoch : stream.epochs) {
    in.segments.push_back(
        cw::analysis::encode_trace(epoch, cw::analysis::kTraceFormatV4));
    in.records.push_back(epoch.records.size());
  }
  const auto& chains = stream.db->chains();
  cw::SplitMix64 rng{mix_seed(seed, 0xC5)};
  for (int i = 0; i < 64; ++i) in.chains.push_back(chains[rng.next() % chains.size()]);
  collect_names(stream.db->records(), in.interfaces, in.functions);
  return in;
}

struct Pass {
  double wall_s{0};
  double cpu_s{0};
  double daemon_cpu_s{0};
  std::uint64_t records{0};
  std::uint64_t segments{0};
  std::uint64_t wire_bytes{0};
  std::uint64_t store_bytes{0};
  std::size_t files_sealed{0};
  std::size_t shards{0};
  std::size_t chains{0};
  bool flushed{true};
  std::string report;
  std::vector<double> offer_ns, late_ns, service_ns, offer_to_sink_ns;
  double window_wait_ns{0};
  double callback_cpu_ns{0};
  cw::transport::Uplink::Stats uplinks;
  cw::transport::CollectorDaemon::Stats daemon;
};

Pass run_pass(const Inputs& in, bool traced,
              Tracer& tracer, const std::string& store_dir) {
  Pass pass;
  cw::analysis::AnalysisPipeline pipeline;
  cw::store::StoreOptions store_options;
  store_options.rotate_segments = 16;
  std::unique_ptr<cw::transport::IngestSink> ingest;
  std::unique_ptr<ShimSink> shim;
  cw::transport::DaemonSink* inner = nullptr;
  if (traced) {
    shim = std::make_unique<ShimSink>(pipeline, store_dir, store_options, tracer);
    inner = shim.get();
  } else {
    cw::transport::IngestSink::Options sink_options;
    sink_options.pipeline = &pipeline;
    sink_options.store_dir = store_dir;
    sink_options.store_options = store_options;
    ingest = std::make_unique<cw::transport::IngestSink>(std::move(sink_options));
    inner = ingest.get();
  }
  Forwarder forwarder(*inner, kPeerNames);
  cw::transport::CollectorDaemon daemon({{"tcp:127.0.0.1:0"}}, forwarder);
  daemon.start();
  const std::string address = daemon.listen_addresses().at(0).to_string();
  std::vector<std::unique_ptr<cw::transport::Uplink>> uplinks;
  for (const std::string& name : kPeerNames) {
    cw::transport::UplinkConfig config;
    config.address = address;
    config.process_name = name;
    config.trace_format = cw::analysis::kTraceFormatV4;
    uplinks.push_back(std::make_unique<cw::transport::Uplink>(
        config, [](const cw::transport::ControlDirective&) {}));
    uplinks.back()->start();
  }
  wait_until(
      [&] {
        for (const auto& u : uplinks) {
          if (!u->connected()) return false;
        }
        return true;
      },
      10, "replay uplinks connecting");

  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  std::vector<std::uint64_t> offered(kPeers, 0);
  for (std::size_t i = 0; i < in.segments.size(); ++i) {
    const std::size_t c = i % kPeers;
    const std::int64_t w0 = now_ns();
    forwarder.wait_window(c, offered[c], kWindow, kStageSeconds);
    const std::int64_t w1 = now_ns();
    pass.window_wait_ns += static_cast<double>(w1 - w0);
    std::vector<std::uint8_t> bytes = in.segments[i];
    const std::int64_t o0 = now_ns();
    forwarder.note_offer(c, o0);
    uplinks[c]->offer_segment(std::move(bytes), in.records[i]);
    const std::int64_t o1 = now_ns();
    pass.offer_ns.push_back(static_cast<double>(o1 - o0));
    pass.late_ns.push_back(static_cast<double>(o1 - w1));
    pass.wire_bytes += in.segments[i].size();
    ++offered[c];
  }
  wait_until([&] { return forwarder.total_segments() == in.segments.size(); },
             kStageSeconds, "daemon ingesting replayed segments");
  if (forwarder.saw_daemon_thread()) {
    pass.daemon_cpu_s = thread_cpu_s(forwarder.daemon_thread());
  }
  for (auto& u : uplinks) pass.flushed = u->finish(kFlushMs) && pass.flushed;
  pass.daemon = daemon.stats();
  daemon.stop();
  if (shim) {
    shim->finalize();
    pass.files_sealed = shim->files_sealed();
  } else {
    pass.files_sealed = ingest->finalize().store_files_sealed;
  }
  pass.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  pass.cpu_s = process_cpu_s() - cpu0;

  for (const auto& u : uplinks) {
    const auto s = u->stats();
    pass.uplinks.dropped_segments += s.dropped_segments;
    pass.uplinks.dropped_records += s.dropped_records;
    pass.uplinks.reconnects += s.reconnects;
  }
  pass.records = forwarder.total_records();
  pass.segments = forwarder.total_segments();
  pass.service_ns = forwarder.service_ns();
  pass.callback_cpu_ns = forwarder.callback_cpu_ns();
  pass.offer_to_sink_ns = forwarder.offer_to_sink_ns();
  pass.shards = pipeline.database().shard_count();
  pass.chains = pipeline.database().chains().size();
  pass.store_bytes = directory_bytes(store_dir);
  pass.report = pipeline.report();
  return pass;
}

// Passes until `seconds` have gone by (at least one).  Traced, they
// alternate untraced and traced, so both sides see the same warm process
// and `plain` gives the tracing overhead's base.
void run_passes(const Options& options, const Inputs& in, Tracer& tracer,
                double seconds, const std::string& store_dir,
                std::vector<Pass>& plain, std::vector<Pass>& traced) {
  Tracer off(false);
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    // Each pass starts from the same heap: the previous pass's freed
    // pipeline goes back to the kernel, so the peak is one pass's own.
    malloc_trim(0);
    fresh_dir(options, "replay/store");
    plain.push_back(run_pass(in, false, off, store_dir));
    if (options.trace) {
      malloc_trim(0);
      fresh_dir(options, "replay/store");
      traced.push_back(run_pass(in, true, tracer, store_dir));
    }
  } while (now_ns() < end);
}

// Gates every pass: all segments ingested, nothing dropped, and the live
// report byte-identical to the offline single-epoch reference.
void check_passes(const std::vector<Pass>& passes, const Inputs& in,
                  const std::string& reference, Result& result) {
  for (const Pass& p : passes) {
    result.attempted(in.segments.size());
    result.failed(in.segments.size() - std::min<std::uint64_t>(
                                           p.segments - p.uplinks.dropped_segments,
                                           in.segments.size()),
                  "replayed segments never ingested");
    result.gate(p.records == in.total_records,
                "replay ingested " + std::to_string(p.records) + " of " +
                    std::to_string(in.total_records) + " records");
    result.gate(p.uplinks.dropped_segments == 0, "replay uplinks dropped segments");
    result.gate(p.flushed, "replay uplink finish did not flush");
    result.gate(p.daemon.protocol_errors == 0, "replay protocol errors");
    result.gate(p.report == reference,
                "replay report differs from the offline reference");
  }
}

std::string offline_reference(const Inputs& in) {
  cw::analysis::AnalysisPipeline pipeline;
  for (const auto& segment : in.segments) {
    cw::analysis::decode_trace(segment, pipeline.database());
  }
  pipeline.refresh();
  return pipeline.report();
}

template <typename F>
std::vector<double> gather(const std::vector<Pass>& passes, F field) {
  std::vector<double> out;
  for (const Pass& p : passes) {
    const std::vector<double>& v = p.*field;
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

double records_of(const std::vector<Pass>& passes) {
  double n = 0;
  for (const Pass& p : passes) n += static_cast<double>(p.records);
  return n;
}

double wall_of(const std::vector<Pass>& passes) {
  double s = 0;
  for (const Pass& p : passes) s += p.wall_s;
  return s;
}

}  // namespace

void replay_ingest(const Options& options, Result& result) {
  std::vector<double> setups;
  Inputs in;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t = now_ns();
    in = set_up(options.seed);
    setups.push_back(static_cast<double>(now_ns() - t) * 1e-9);
  }
  const std::string store_dir = fresh_dir(options, "replay/store");

  // One untimed pass first: the allocator and page cache warm up once,
  // not inside whichever pass happens to run first.
  Tracer off(false);
  Tracer tracer(true);
  {
    fresh_dir(options, "replay/store");
    const Pass warm = run_pass(in, false, off, store_dir);
    (void)warm;
  }
  malloc_trim(0);
  reset_peak_rss();
  std::vector<Pass> passes, traced;
  run_passes(options, in, tracer, options.seconds, store_dir, passes, traced);
  const double peak_mb = peak_rss_mb();

  const std::string reference = offline_reference(in);
  check_passes(passes, in, reference, result);
  check_passes(traced, in, reference, result);

  // The store the last pass wrote, queried the way causeway-query would.
  const std::vector<QueryCase> cases = build_query_cases(
      options.seed, store_dir, in.chains, in.interfaces, in.functions);
  const std::vector<QuerySample> queries =
      query_rounds(cases, options.seed, 4, 12, store_dir, off);
  const QuerySample all =
      run_one_query({{QueryClass::kScan, {"count"}}}, 0, store_dir, off, 0);
  result.gate(all.csv == "count\n" + std::to_string(in.spans) + "\n",
              "replay store count " + all.csv + " != synthesized spans " +
                  std::to_string(in.spans));

  if (!options.trace) {
    // Rates, CPU and medians are taken per pass and the median pass is
    // reported, so a pass the host slowed does not move the run; the tails
    // pool every pass, since one pass has too few segments for its own.
    std::vector<double> rate, cpu, service_p50, sojourn_p50;
    double bytes = 0;
    for (const Pass& p : passes) {
      const auto records = static_cast<double>(p.records);
      rate.push_back(records / p.wall_s);
      cpu.push_back(p.cpu_s * 1e9 / records);
      service_p50.push_back(percentile(p.service_ns, 500).value);
      sojourn_p50.push_back(percentile(p.offer_to_sink_ns, 500).value);
      bytes += static_cast<double>(p.store_bytes) / records;
    }
    const auto service = gather(passes, &Pass::service_ns);
    const auto sojourn = gather(passes, &Pass::offer_to_sink_ns);
    result.metric("setup_s", median_setup_s(setups), "s");
    result.metric("txn_p50_us", percentile(service_p50, 500).value / 1e3, "us");
    result.metric("txn_p95_us", percentile(service, 950).value / 1e3, "us");
    result.metric("ingest_lag_p50_ms", percentile(sojourn_p50, 500).value / 1e6, "ms");
    result.metric("ingest_lag_p95_ms", percentile(sojourn, 950).value / 1e6, "ms");
    result.metric("cpu_ns_per_record", percentile(cpu, 500).value, "ns");
    result.metric("ingest_records_per_s", percentile(rate, 500).value, "rec/s");
    result.metric("peak_rss_mb", peak_mb, "MB");
    result.metric("store_bytes_per_record",
                  bytes / static_cast<double>(passes.size()), "B");
    report_query_metrics(cases, queries, result);
    return;
  }

  const std::vector<Span> spans = tracer.spans();
  const double records = records_of(traced);
  const double wall = wall_of(traced);
  std::map<std::string, double> m;
  double wire = 0, window_wait = 0, daemon_cpu = 0, callback_cpu = 0;
  cw::transport::Uplink::Stats up;
  cw::transport::CollectorDaemon::Stats dm;
  for (const Pass& p : traced) {
    wire += static_cast<double>(p.wire_bytes);
    window_wait += p.window_wait_ns;
    daemon_cpu += p.daemon_cpu_s * 1e9;
    callback_cpu += p.callback_cpu_ns;
    up.dropped_segments += p.uplinks.dropped_segments;
    up.dropped_records += p.uplinks.dropped_records;
    up.reconnects += p.uplinks.reconnects;
    dm.partial_tail_bytes += p.daemon.partial_tail_bytes;
    dm.protocol_errors += p.daemon.protocol_errors;
  }
  const double decode = total(durations(spans, "trace_io.decode"));
  const double ingest = total(durations(spans, "analysis.db_ingest"));
  const std::vector<double> passes_ns = durations(spans, "analysis.passes");
  std::vector<double> seals = durations(spans, "store.append_seal");
  const double append = total(durations(spans, "store.append")) + total(seals);
  for (double close : durations(spans, "store.close")) seals.push_back(close);
  const auto offer_to_sink = gather(traced, &Pass::offer_to_sink_ns);
  m["trace_io.wire_bytes_per_record"] = wire / records;
  m["trace_io.decode_ns_per_record"] = decode / records;
  m["transport.offer_us_p50"] =
      percentile(gather(traced, &Pass::offer_ns), 500).value / 1e3;
  m["transport.offer_to_sink_ms_p50"] = percentile(offer_to_sink, 500).value / 1e6;
  m["transport.offer_to_sink_ms_p99"] = percentile(offer_to_sink, 990).value / 1e6;
  m["transport.dropped_segments"] = static_cast<double>(up.dropped_segments);
  m["transport.dropped_records"] = static_cast<double>(up.dropped_records);
  m["transport.reconnects"] = static_cast<double>(up.reconnects);
  m["transport.partial_tail_bytes"] = static_cast<double>(dm.partial_tail_bytes);
  m["transport.protocol_errors"] = static_cast<double>(dm.protocol_errors);
  m["analysis.db_ingest_ns_per_record"] = ingest / records;
  m["analysis.passes_ns_per_record"] = total(passes_ns) / records;
  m["analysis.passes_ms_p99"] = percentile(passes_ns, 990).value / 1e6;
  m["analysis.sink_busy_pct"] =
      100.0 * total(gather(traced, &Pass::service_ns)) / (wall * 1e9);
  m["analysis.ingest_shards"] = static_cast<double>(traced.back().shards);
  m["analysis.chains"] = static_cast<double>(traced.back().chains);
  m["store.append_ns_per_record"] = append / records;
  m["store.seal_ms_p50"] = percentile(seals, 500).value / 1e6;
  m["store.files_sealed"] = static_cast<double>(traced.back().files_sealed);
  m["gen.late_us_p99"] = percentile(gather(traced, &Pass::late_ns), 990).value / 1e3;
  m["gen.window_wait_pct"] = 100.0 * window_wait / (wall * 1e9);
  // Tracing cost: wall time per record, traced passes against untraced.
  const double untraced_ns = wall_of(passes) * 1e9 / records_of(passes);
  m["trace.overhead_pct"] = 100.0 * (wall * 1e9 / records - untraced_ns) / untraced_ns;
  const double covered = decode + ingest + total(passes_ns) + append;
  m["ledger.unaccounted_pct"] = unaccounted_pct(
      daemon_cpu, callback_cpu, total(gather(traced, &Pass::service_ns)), covered);
  report_per_layer(m, result);
  write_spans(options.spans_out, spans);
}

}  // namespace perfbench
