// live-app: a monitored application and its collector, live.
//
// One SyntheticSystem runs as the monitored process: a client domain and
// one server domain, every child call in that server domain, no oneway
// calls, no simulated CPU work and thread-per-connection dispatch.  That
// shape makes probe and collection cost, not ORB thread hand-offs, the
// bulk of a transaction, and without oneway calls every record of a
// transaction is appended before it returns.  (Thread-pool dispatch varied
// twice over from run to run, so it is not used.)  One generator thread
// drives it open-loop at a fixed rate.  Its Collector feeds a default
// EpochPublisher (50 ms adaptive cadence, v4) over one unix: connection
// into a CollectorDaemon whose IngestSink runs the pipeline and a
// default-option store -- `causeway-record --publish` into
// `causeway-collectd --store --report`.
//
// It is the only workload that exercises probes, rings, drain and encode,
// and it measures what the monitored application pays for them.
//
// The application's threads and the generator are confined to one CPU;
// the publisher's threads and the collector daemon with its worker pool
// share the others.  Left to the scheduler, the application's cross-thread
// hand-offs landed on the same or on different CPUs from run to run, and
// the median transaction latency moved threefold with them; with the drain
// on the application's CPU, every drain stalled the transactions behind it
// and the p99 moved with the host's speed many times over.
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "common/worker_pool.h"
#include "harness.h"
#include "transport/ingest_sink.h"
#include "transport/publisher.h"
#include "transport/uplink.h"
#include "workload/synthetic.h"

namespace perfbench {
namespace {

constexpr double kStageSeconds = 30;
constexpr std::uint64_t kFlushMs = 5000;
constexpr std::uint64_t kBaseIntervalMs = 50;
constexpr std::size_t kWarmupTransactions = 1000;
constexpr std::int64_t kWindowNs = 1'000'000'000;
const std::string kPeerName = "live-app";

// CPU sets for the two sides.  Threads inherit the creating thread's set,
// so the main thread switches sets before it creates each side's threads.
struct Placement {
  cpu_set_t app;
  cpu_set_t collector;
};

// Device interrupts each CPU has taken so far (/proc/interrupts, the
// numbered rows only: timer and IPI rows hit every CPU alike).
std::vector<std::uint64_t> device_interrupts() {
  std::vector<std::uint64_t> counts;
  std::ifstream in("/proc/interrupts");
  std::string line;
  std::getline(in, line);  // CPU0 CPU1 ...
  for (std::size_t at = line.find("CPU"); at != std::string::npos;
       at = line.find("CPU", at + 3)) {
    counts.push_back(0);
  }
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string label;
    row >> label;
    if (label.empty() || !std::isdigit(static_cast<unsigned char>(label[0]))) continue;
    for (std::uint64_t& c : counts) {
      std::uint64_t n = 0;
      if (!(row >> n)) break;
      c += n;
    }
  }
  return counts;
}

// The application gets the allowed CPU that takes the fewest device
// interrupts -- the store's disk completions land on one CPU, and on the
// application's they show as transaction tails -- and the collector the
// rest.
Placement make_placement() {
  Placement p;
  cpu_set_t all;
  CPU_ZERO(&all);
  sched_getaffinity(0, sizeof all, &all);
  p.app = all;
  p.collector = all;
  if (CPU_COUNT(&all) < 2) return p;
  const std::vector<std::uint64_t> irqs = device_interrupts();
  auto count = [&](int cpu) {
    const auto i = static_cast<std::size_t>(cpu);
    return i < irqs.size() ? irqs[i] : 0;
  };
  int quiet = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all) && (quiet < 0 || count(cpu) < count(quiet))) quiet = cpu;
  }
  CPU_ZERO(&p.app);
  CPU_SET(quiet, &p.app);
  CPU_CLR(quiet, &p.collector);
  return p;
}

void pin_self(const cpu_set_t& set) {
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

cw::workload::SyntheticConfig app_config(bool instrumented) {
  cw::workload::SyntheticConfig c;
  // The application is the system under test, so its shape is fixed; the
  // run's seed only seeds the chain UUIDs and the query draws.
  c.seed = 42;
  c.domains = 1;
  c.components = 12;
  c.interfaces = 6;
  c.methods_per_interface = 4;
  c.levels = 4;
  c.max_children = 4;
  c.oneway_fraction = 0;
  c.same_domain_fraction = 1.0;
  c.cpu_per_call = 0;
  c.policy = cw::orb::PolicyKind::kThreadPerConnection;
  c.instrumented = instrumented;
  return c;
}

// Records one transaction appends: the plan is fixed, so this is a
// constant, read once from an offline copy of the application.
std::uint64_t records_per_transaction() {
  cw::orb::Fabric fabric;
  cw::workload::SyntheticSystem app(fabric, app_config(true));
  app.run_transaction();
  return app.collect().records.size();
}

// The publisher half of the traced run: the same public calls
// EpochPublisher makes, on the same adaptive cadence, each in a span --
// Collector::drain -> encode_trace -> Uplink::offer_status/offer_segment.
class TracedPublisher {
 public:
  TracedPublisher(cw::monitor::Collector& collector, const std::string& address,
                  Tracer& tracer, Forwarder& forwarder)
      : collector_(collector),
        tracer_(tracer),
        forwarder_(forwarder),
        uplink_(uplink_config(address),
                [](const cw::transport::ControlDirective&) {}) {}
  ~TracedPublisher() { finish(); }
  TracedPublisher(const TracedPublisher&) = delete;
  TracedPublisher& operator=(const TracedPublisher&) = delete;

  void start() {
    uplink_.start();
    worker_ = std::thread([this] { run(); });
  }
  bool connected() const { return uplink_.connected(); }

  bool finish() {
    if (finished_) return flushed_;
    finished_ = true;
    {
      std::lock_guard lk(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (worker_.joinable()) worker_.join();
    flushed_ = uplink_.finish(kFlushMs);
    return flushed_;
  }

  cw::transport::Uplink::Stats uplink_stats() const { return uplink_.stats(); }

  // Read after finish().
  std::vector<double> drain_ns, interval_ms, epoch_records, offer_ns;
  double max_utilization{0};
  std::uint64_t ring_dropped{0}, sampled_out{0}, records{0}, wire_bytes{0};
  std::uint64_t segments{0};

 private:
  static cw::transport::UplinkConfig uplink_config(const std::string& address) {
    cw::transport::UplinkConfig c;
    c.address = address;
    c.process_name = kPeerName;
    c.trace_format = cw::analysis::kTraceFormatV4;
    return c;
  }

  void run() {
    std::uint64_t interval = kBaseIntervalMs;
    std::int64_t last_drain = 0;
    std::int64_t next = now_ns() + static_cast<std::int64_t>(interval) * 1'000'000;
    for (;;) {
      std::unique_lock lk(mutex_);
      cv_.wait_until(lk, std::chrono::steady_clock::time_point(
                             std::chrono::nanoseconds(next)),
                     [&] { return stop_; });
      if (stop_) break;
      lk.unlock();
      const std::int64_t t = now_ns();
      if (last_drain != 0) interval_ms.push_back(static_cast<double>(t - last_drain) / 1e6);
      last_drain = t;
      const cw::monitor::CollectedLogs logs = drain_once(false);
      interval = cw::monitor::adaptive_interval_ms(interval, kBaseIntervalMs,
                                                   logs.dropped, logs.ring_utilization);
      next = now_ns() + static_cast<std::int64_t>(interval) * 1'000'000;
    }
    drain_once(true);  // the final epoch always ships
  }

  cw::monitor::CollectedLogs drain_once(bool final_drain) {
    const std::uint64_t epoch = collector_.epoch() + 1;
    Tracer::Scope root(tracer_, "publisher.epoch", -1, epoch);
    cw::monitor::CollectedLogs logs;
    {
      Tracer::Scope s(tracer_, "monitor.drain", root.index(), epoch);
      const std::int64_t t = now_ns();
      logs = collector_.drain();
      drain_ns.push_back(static_cast<double>(now_ns() - t));
    }
    max_utilization = std::max(max_utilization, logs.ring_utilization);
    ring_dropped += logs.dropped;
    sampled_out += logs.sampled_out;
    epoch_records.push_back(static_cast<double>(logs.records.size()));
    const std::uint8_t mode =
        logs.domains.empty() ? 0 : static_cast<std::uint8_t>(logs.domains[0].mode);
    uplink_.offer_status(0, logs.sampled_out, 0, mode);
    if (!final_drain && logs.records.empty() && logs.dropped == 0) return logs;
    std::vector<std::uint8_t> bytes;
    {
      Tracer::Scope s(tracer_, "trace_io.encode", root.index(), epoch);
      bytes = cw::analysis::encode_trace(logs, cw::analysis::kTraceFormatV4);
    }
    records += logs.records.size();
    wire_bytes += bytes.size();
    ++segments;
    const std::int64_t t = now_ns();
    forwarder_.note_offer(0, t);
    {
      Tracer::Scope s(tracer_, "transport.offer", root.index(), epoch);
      uplink_.offer_segment(std::move(bytes), logs.records.size());
    }
    offer_ns.push_back(static_cast<double>(now_ns() - t));
    return logs;
  }

  cw::monitor::Collector& collector_;
  Tracer& tracer_;
  Forwarder& forwarder_;
  cw::transport::Uplink uplink_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_{false};
  bool finished_{false};
  bool flushed_{false};
  std::thread worker_;
};

// One monitored process wired to one collector daemon.  Members are
// declared in dependency order, so destruction tears the publisher down
// before the daemon, the daemon before its sinks, and all of them before
// the application whose runtimes the collector reads.
struct Rig {
  cw::orb::Fabric fabric;
  std::unique_ptr<cw::workload::SyntheticSystem> app;
  cw::monitor::Collector collector;
  cw::analysis::AnalysisPipeline pipeline;
  std::unique_ptr<cw::transport::IngestSink> ingest;
  std::unique_ptr<ShimSink> shim;
  std::unique_ptr<Forwarder> forwarder;
  std::unique_ptr<cw::transport::CollectorDaemon> daemon;
  std::unique_ptr<cw::transport::EpochPublisher> publisher;
  std::unique_ptr<TracedPublisher> traced;
  std::string store_dir;
  std::uint64_t transactions{0};  // run so far, warm-up included
  bool finished{false};

  bool connected() const {
    return publisher ? publisher->connected() : traced->connected();
  }
  std::uint64_t segments_sent() const {
    return publisher ? publisher->stats().segments_sent : traced->segments;
  }
};

std::unique_ptr<Rig> make_rig(const Options& options, bool traced,
                              Tracer& tracer, const Placement& placement) {
  auto rig = std::make_unique<Rig>();
  pin_self(placement.collector);
  rig->store_dir = fresh_dir(options, "live/store");
  if (traced) {
    rig->shim = std::make_unique<ShimSink>(rig->pipeline, rig->store_dir,
                                           cw::store::StoreOptions{}, tracer);
    rig->forwarder = std::make_unique<Forwarder>(
        *rig->shim, std::vector<std::string>{kPeerName});
  } else {
    cw::transport::IngestSink::Options sink;
    sink.pipeline = &rig->pipeline;
    sink.store_dir = rig->store_dir;
    rig->ingest = std::make_unique<cw::transport::IngestSink>(std::move(sink));
    rig->forwarder = std::make_unique<Forwarder>(
        *rig->ingest, std::vector<std::string>{kPeerName});
  }
  const std::string address = "unix:" + options.work_dir + "/live-" +
                              std::to_string(::getpid()) + ".sock";
  rig->daemon = std::make_unique<cw::transport::CollectorDaemon>(
      cw::transport::CollectorDaemon::Options{{address}}, *rig->forwarder);
  rig->daemon->start();
  // The application's threads share one CPU; the publisher's drain and
  // uplink threads run beside the collector, and the generator (this
  // thread) joins the application.
  pin_self(placement.app);
  rig->app = std::make_unique<cw::workload::SyntheticSystem>(rig->fabric,
                                                             app_config(true));
  rig->app->attach_collector(rig->collector);
  pin_self(placement.collector);
  if (traced) {
    rig->traced = std::make_unique<TracedPublisher>(rig->collector, address,
                                                    tracer, *rig->forwarder);
    rig->traced->start();
  } else {
    cw::transport::PublisherConfig config;
    config.address = address;
    config.process_name = kPeerName;
    rig->publisher =
        std::make_unique<cw::transport::EpochPublisher>(rig->collector, config);
    rig->publisher->start();
  }
  pin_self(placement.app);
  wait_until([&] { return rig->connected(); }, 10, "live publisher connecting");
  for (std::size_t i = 0; i < kWarmupTransactions; ++i) rig->app->run_transaction();
  rig->transactions = kWarmupTransactions;
  return rig;
}

// Shuts down the way the tools do: the publisher's final drain and bounded
// flush, then the daemon once it ingested every segment sent, then the
// store seal.  Returns whether the publisher flushed cleanly.
bool finish_rig(Rig& rig) {
  const bool flushed = rig.publisher ? rig.publisher->finish() : rig.traced->finish();
  wait_until([&] { return rig.forwarder->total_segments() >= rig.segments_sent(); },
             kStageSeconds, "daemon ingesting live segments");
  return flushed;
}

void close_rig(Rig& rig) {
  rig.daemon->stop();
  if (rig.shim) rig.shim->finalize();
  if (rig.ingest) rig.ingest->finalize();
}

struct Loop {
  std::vector<OpenLoopSample> samples;
  double wait_ns{0};      // generator time spent waiting for due times
  double wall_ns{0};
  double idle_cpu_ns{0};  // generator CPU outside transactions
  // Per one-second window: the system's CPU (process CPU less the
  // generator's idle spin) over the records its transactions appended.
  std::vector<double> window_cpu_ns_per_record;
};

// One generator thread, open loop: transaction i is due at t0 + i / rate
// whatever happened to the ones before it.  The generator spins to each
// due time instead of sleeping: a sleeping CPU of a virtual machine woke
// milliseconds late in some runs and not in others, which made the tail
// the host's, not the system's.  The spin's CPU is the generator's own and
// is reported, so the caller can leave it out of the system's CPU.
Loop open_loop(cw::workload::SyntheticSystem& app, double rate, double seconds,
               std::uint64_t per_txn) {
  Loop loop;
  const OpenLoopSchedule schedule{now_ns() + 1'000'000, 1e9 / rate};
  const auto n = static_cast<std::size_t>(seconds * rate);
  loop.samples.reserve(n);
  const double cpu_begin = this_thread_cpu_ns();
  double txn_cpu = 0;
  std::int64_t window_end = schedule.t0_ns + kWindowNs;
  double window_cpu = process_cpu_s() * 1e9;
  double window_idle = 0;
  std::size_t window_txns = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t due = schedule.due(i);
    if (due >= window_end && per_txn > 0) {
      const double cpu = process_cpu_s() * 1e9;
      const double idle = this_thread_cpu_ns() - cpu_begin - txn_cpu;
      loop.window_cpu_ns_per_record.push_back(
          (cpu - window_cpu - (idle - window_idle)) /
          static_cast<double>(window_txns * per_txn));
      window_cpu = cpu;
      window_idle = idle;
      window_txns = 0;
      window_end += kWindowNs;
    }
    ++window_txns;
    const std::int64_t wait_from = now_ns();
    while (now_ns() < due) {
    }
    const double cpu0 = this_thread_cpu_ns();
    const std::int64_t start = now_ns();
    loop.wait_ns += static_cast<double>(start - wait_from);
    app.run_transaction();
    const std::int64_t end = now_ns();
    txn_cpu += this_thread_cpu_ns() - cpu0;
    loop.samples.push_back({due, start, end});
  }
  loop.wall_ns = static_cast<double>(now_ns() - schedule.t0_ns);
  loop.idle_cpu_ns = this_thread_cpu_ns() - cpu_begin - txn_cpu;
  return loop;
}

struct Phase {
  Loop loop;
  double wall_s{0};   // first due time until the last segment is ingested
  double cpu_s{0};
  std::uint64_t activations{0};
  std::uint64_t ingested{0};        // warm-up included
  std::uint64_t timed_records{0};   // appended by the timed transactions
  std::vector<double> lag_ns;
  std::vector<std::int64_t> lag_at_ns;  // when each lagged transaction returned
  std::uint64_t unmatched{0};
  std::string report;
  std::size_t shards{0}, chains{0};
  std::vector<cw::Uuid> chain_sample;
  std::vector<std::string> interfaces, functions;
  std::vector<double> service_ns, offer_to_sink_ns;
  double callback_cpu_ns{0};
  double daemon_cpu_s{0};
  cw::transport::CollectorDaemon::Stats daemon;
  std::uint64_t store_bytes{0};
  double peak_mb{0};
};

// Drives one rig for `seconds`, shuts it down and gates it.
Phase run_phase(const Options& options, Rig& rig, std::uint64_t per_txn,
                double seconds, Result& result) {
  Phase phase;
  reset_peak_rss();
  const double cpu0 = process_cpu_s();
  phase.loop = open_loop(*rig.app, options.live_rate, seconds, per_txn);
  rig.transactions += phase.loop.samples.size();
  const bool flushed = finish_rig(rig);
  phase.wall_s = static_cast<double>(now_ns() - phase.loop.samples.front().due_ns) * 1e-9;
  phase.cpu_s = process_cpu_s() - cpu0 - phase.loop.idle_cpu_ns * 1e-9;
  phase.peak_mb = peak_rss_mb();
  if (rig.forwarder->saw_daemon_thread()) {
    phase.daemon_cpu_s = thread_cpu_s(rig.forwarder->daemon_thread());
  }
  phase.daemon = rig.daemon->stats();
  close_rig(rig);

  // Lag: transaction k is covered once the peer has accounted for every
  // record appended up to its return (warm-up records came first).
  std::vector<LagMark> marks;
  std::uint64_t cumulative = kWarmupTransactions * per_txn;
  for (const OpenLoopSample& s : phase.loop.samples) {
    cumulative += per_txn;
    marks.push_back({s.end_ns, cumulative});
  }
  const std::vector<std::int64_t> lags = match_lag(marks, rig.forwarder->coverage(0));
  for (std::size_t i = 0; i < lags.size(); ++i) {
    if (lags[i] < 0) {
      ++phase.unmatched;
    } else {
      phase.lag_ns.push_back(static_cast<double>(lags[i]));
      phase.lag_at_ns.push_back(marks[i].end_ns);
    }
  }
  phase.service_ns = rig.forwarder->service_ns();
  phase.callback_cpu_ns = rig.forwarder->callback_cpu_ns();
  phase.offer_to_sink_ns = rig.forwarder->offer_to_sink_ns();

  const cw::analysis::LogDatabase& db = rig.pipeline.database();
  phase.activations = rig.transactions * per_txn;
  phase.ingested = db.size();
  phase.timed_records = phase.loop.samples.size() * per_txn;
  phase.shards = db.shard_count();
  phase.chains = db.chains().size();
  cw::SplitMix64 rng{mix_seed(options.seed, 0xC5)};
  for (int i = 0; i < 64 && !db.chains().empty(); ++i) {
    phase.chain_sample.push_back(db.chains()[rng.next() % db.chains().size()]);
  }
  collect_names(db.records(), phase.interfaces, phase.functions);
  phase.report = rig.pipeline.report();
  phase.store_bytes = directory_bytes(rig.store_dir);

  const std::uint64_t lost = db.overflow_dropped() + db.publish_dropped();
  result.attempted(phase.activations);
  result.failed(lost, "live records lost (ring + publish drops)");
  result.gate(phase.activations == phase.ingested + db.overflow_dropped() +
                                       db.publish_dropped() + db.sampled_out(),
              "live conservation: activations " + std::to_string(phase.activations) +
                  " != ingested " + std::to_string(phase.ingested) + " + dropped " +
                  std::to_string(lost) + " + sampled out " +
                  std::to_string(db.sampled_out()));
  result.gate(flushed, "live publisher finish did not flush");
  result.gate(phase.unmatched == 0,
              std::to_string(phase.unmatched) + " transactions never covered by a segment");
  result.gate(phase.daemon.protocol_errors == 0, "live protocol errors");
  return phase;
}

// The live report must equal a fresh pipeline's report over the store's
// files.  Runs after the live pipeline is gone, so the two never coexist.
void check_store_report(const std::string& store_dir, const std::string& report,
                        Result& result) {
  cw::analysis::AnalysisPipeline fresh;
  for (const cw::store::StoreFile& file : cw::store::open_store(store_dir).files) {
    cw::analysis::read_trace_file(file.path, fresh.database());
  }
  fresh.refresh();
  result.gate(fresh.report() == report,
              "live report differs from the report over the store's files");
}

std::vector<double> latencies_ns(const Loop& loop) {
  return open_loop_times(loop.samples).latency_ns;
}

// Probes off: the same application, uninstrumented, at the same rate,
// with nothing to collect.
Loop probes_off(const Options& options, double seconds,
               const Placement& placement) {
  pin_self(placement.app);
  cw::orb::Fabric fabric;
  cw::workload::SyntheticSystem app(fabric, app_config(false));
  for (std::size_t i = 0; i < kWarmupTransactions; ++i) app.run_transaction();
  return open_loop(app, options.live_rate, seconds, 0);
}

}  // namespace

void live_app(const Options& options, Result& result) {
  cw::set_uuid_seed(mix_seed(options.seed, 0x11FE));
  const std::uint64_t per_txn = records_per_transaction();
  const Placement placement = make_placement();
  pin_self(placement.collector);
  cw::WorkerPool::shared();  // its helpers start on the collector's CPUs
  Tracer off(false);
  Tracer tracer(true);

  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (rig) {
      finish_rig(*rig);
      close_rig(*rig);
      rig.reset();
    }
    const std::int64_t t = now_ns();
    rig = make_rig(options, false, off, placement);
    setups.push_back(static_cast<double>(now_ns() - t) * 1e-9);
  }
  // Traced runs split their time four ways: untraced, traced, untraced
  // again (the overhead's base brackets the traced phase) and probes off.
  const double seconds = options.trace ? options.seconds / 4.0 : options.seconds;
  Phase phase = run_phase(options, *rig, per_txn, seconds, result);
  const std::string store_dir = rig->store_dir;
  rig.reset();
  check_store_report(store_dir, phase.report, result);
  phase.report.clear();

  if (!options.trace) {
    // The run ends at a queryable answer: query what was just collected.
    const std::vector<QueryCase> cases = build_query_cases(
        options.seed, store_dir, phase.chain_sample, phase.interfaces,
        phase.functions);
    const std::vector<QuerySample> queries =
        query_rounds(cases, options.seed, 2, 0, store_dir, off);
    const std::vector<double> txn = latencies_ns(phase.loop);
    std::vector<std::int64_t> due;
    for (const OpenLoopSample& s : phase.loop.samples) due.push_back(s.due_ns);
    const auto ingested = static_cast<double>(phase.ingested);
    // Every timing is the median over one-second windows of that window's
    // figure (1,500 transactions, 75 beyond the p95): a second in which the
    // host stalled moves one window, not the run.  Tails are p95s: the p99
    // of a 50 us transaction on a shared virtual CPU moved by a third
    // between runs of the same code.
    result.metric("setup_s", median_setup_s(setups), "s");
    result.metric("txn_p50_us", windowed_percentile(due, txn, kWindowNs, 500) / 1e3, "us");
    result.metric("txn_p95_us", windowed_percentile(due, txn, kWindowNs, 950) / 1e3, "us");
    result.metric("ingest_lag_p50_ms",
                  windowed_percentile(phase.lag_at_ns, phase.lag_ns, kWindowNs, 500) / 1e6,
                  "ms");
    result.metric("ingest_lag_p95_ms",
                  windowed_percentile(phase.lag_at_ns, phase.lag_ns, kWindowNs, 950) / 1e6,
                  "ms");
    result.metric("cpu_ns_per_record",
                  percentile(phase.loop.window_cpu_ns_per_record, 500).value, "ns");
    result.metric("ingest_records_per_s",
                  static_cast<double>(phase.timed_records) / phase.wall_s, "rec/s");
    result.metric("peak_rss_mb", phase.peak_mb, "MB");
    result.metric("store_bytes_per_record",
                  static_cast<double>(phase.store_bytes) / ingested, "B");
    report_query_metrics(cases, queries, result);
    return;
  }

  // Traced: the same rig with the benchmark's own publisher loop and sink
  // shim, then a second untraced phase and the probes-off phase.
  rig = make_rig(options, true, tracer, placement);
  TracedPublisher& pub = *rig->traced;
  Phase traced = run_phase(options, *rig, per_txn, seconds, result);
  const std::string traced_dir = rig->store_dir;
  const cw::transport::Uplink::Stats up = pub.uplink_stats();
  std::map<std::string, double> m;
  const auto records = static_cast<double>(traced.ingested);
  m["monitor.activations"] = static_cast<double>(traced.activations);
  m["monitor.ring_dropped"] = static_cast<double>(pub.ring_dropped);
  m["monitor.sampled_out"] = static_cast<double>(pub.sampled_out);
  m["monitor.ring_utilization_max"] = pub.max_utilization;
  m["monitor.drain_us_p50"] = percentile(pub.drain_ns, 500).value / 1e3;
  m["monitor.drain_us_p99"] = percentile(pub.drain_ns, 990).value / 1e3;
  m["monitor.epoch_interval_ms_p50"] = percentile(pub.interval_ms, 500).value;
  m["monitor.records_per_epoch_p50"] = percentile(pub.epoch_records, 500).value;
  const std::vector<Span> spans = tracer.spans();
  const double decode = total(durations(spans, "trace_io.decode"));
  const double ingest = total(durations(spans, "analysis.db_ingest"));
  const std::vector<double> passes_ns = durations(spans, "analysis.passes");
  std::vector<double> seals = durations(spans, "store.append_seal");
  for (double close : durations(spans, "store.close")) seals.push_back(close);
  const double append = total(durations(spans, "store.append")) +
                        total(durations(spans, "store.append_seal"));
  m["trace_io.encode_ns_per_record"] = total(durations(spans, "trace_io.encode")) / records;
  m["trace_io.wire_bytes_per_record"] = static_cast<double>(pub.wire_bytes) / records;
  m["trace_io.decode_ns_per_record"] = decode / records;
  m["transport.offer_us_p50"] = percentile(pub.offer_ns, 500).value / 1e3;
  m["transport.offer_to_sink_ms_p50"] = percentile(traced.offer_to_sink_ns, 500).value / 1e6;
  m["transport.offer_to_sink_ms_p99"] = percentile(traced.offer_to_sink_ns, 990).value / 1e6;
  m["transport.dropped_segments"] = static_cast<double>(up.dropped_segments);
  m["transport.dropped_records"] = static_cast<double>(up.dropped_records);
  m["transport.reconnects"] = static_cast<double>(up.reconnects);
  m["transport.partial_tail_bytes"] = static_cast<double>(traced.daemon.partial_tail_bytes);
  m["transport.protocol_errors"] = static_cast<double>(traced.daemon.protocol_errors);
  m["analysis.db_ingest_ns_per_record"] = ingest / records;
  m["analysis.passes_ns_per_record"] = total(passes_ns) / records;
  m["analysis.passes_ms_p99"] = percentile(passes_ns, 990).value / 1e6;
  m["analysis.sink_busy_pct"] = 100.0 * total(traced.service_ns) / (traced.wall_s * 1e9);
  m["analysis.ingest_shards"] = static_cast<double>(traced.shards);
  m["analysis.chains"] = static_cast<double>(traced.chains);
  m["store.append_ns_per_record"] = append / records;
  m["store.seal_ms_p50"] = percentile(seals, 500).value / 1e6;
  m["store.files_sealed"] = static_cast<double>(
      cw::store::open_store(traced_dir).files.size());
  m["gen.late_us_p99"] =
      percentile(open_loop_times(traced.loop.samples).late_ns, 990).value / 1e3;
  m["gen.window_wait_pct"] = 100.0 * traced.loop.wait_ns / traced.loop.wall_ns;
  const double daemon_ns = traced.daemon_cpu_s * 1e9;
  m["ledger.unaccounted_pct"] =
      unaccounted_pct(daemon_ns, traced.callback_cpu_ns, total(traced.service_ns),
                      decode + ingest + total(passes_ns) + append);
  rig.reset();
  check_store_report(traced_dir, traced.report, result);
  traced.report.clear();

  rig = make_rig(options, false, off, placement);
  Phase again = run_phase(options, *rig, per_txn, seconds, result);
  const std::string again_dir = rig->store_dir;
  rig.reset();
  check_store_report(again_dir, again.report, result);
  const double plain = (phase.cpu_s + again.cpu_s) /
                       static_cast<double>(phase.timed_records + again.timed_records);
  const double with = traced.cpu_s / static_cast<double>(traced.timed_records);
  m["trace.overhead_pct"] = 100.0 * (with - plain) / plain;
  std::vector<double> on = latencies_ns(phase.loop);
  for (double v : latencies_ns(again.loop)) on.push_back(v);
  const Loop off_loop = probes_off(options, seconds, placement);
  m["monitor.probe_overhead_us_p50"] =
      (percentile(on, 500).value - percentile(latencies_ns(off_loop), 500).value) / 1e3;
  report_per_layer(m, result);
  write_spans(options.spans_out, spans);
}

}  // namespace perfbench
