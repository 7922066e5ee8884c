#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/rng.h"
#include "query/engine.h"
#include "query/parser.h"
#include "workload/logsynth.h"

namespace perfbench {

namespace fs = std::filesystem;

// --- result -------------------------------------------------------------

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    gate(false, "metric " + name + " is not a finite number");
    value = 0;
  }
  for (auto& [n, v] : metrics_) {
    if (n == name) {
      v = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Result::gate(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  ++failed_;
  std::fprintf(stderr, "perfbench: gate failed: %s\n", what.c_str());
}

void Result::failed(std::uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed_ += n;
  std::fprintf(stderr, "perfbench: %" PRIu64 " failed: %s\n", n, why.c_str());
}

std::string Result::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v.first);
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << v.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

// --- waits and resources ---------------------------------------------------

void wait_until(const std::function<bool()>& done, double seconds,
                const std::string& stage) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (!done()) {
    if (now_ns() > deadline) throw Stall(stage);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double thread_cpu_s(pthread_t thread) {
  clockid_t clock{};
  if (pthread_getcpuclockid(thread, &clock) != 0) return 0;
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double this_thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

void reset_peak_rss() {
  // "5" resets the peak resident set size (Linux >= 4.0).
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::string fresh_dir(const Options& options, const std::string& name) {
  const fs::path dir = fs::path(options.work_dir) / name;
  fs::remove_all(dir);
  fs::create_directories(dir.parent_path());
  return dir.string();
}

double median_setup_s(std::vector<double> seconds) {
  return percentile(std::move(seconds), 500).value;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  cw::SplitMix64 rng{seed * 0x9e3779b97f4a7c15ull + salt};
  return rng.next();
}

// --- seeded inputs ---------------------------------------------------------

E2Stream synthesize_e2(std::uint64_t seed, std::size_t calls, bool plateaus) {
  E2Stream out;
  out.db = std::make_unique<cw::analysis::LogDatabase>(1);
  cw::workload::LogSynthConfig config;  // defaults are the E2 shape
  config.total_calls = calls;
  cw::set_uuid_seed(mix_seed(seed, 0xC4A1));
  const cw::workload::LogSynthStats stats =
      cw::workload::synthesize_logs(config, *out.db);
  out.calls = stats.calls;
  const auto& records = out.db->records();
  out.records = records.size();
  for (const auto& r : records) {
    using cw::monitor::CallKind;
    using cw::monitor::EventKind;
    if (r.event == EventKind::kStubStart ||
        (r.event == EventKind::kSkelStart && r.kind == CallKind::kOneway)) {
      ++out.spans;
    }
  }
  for (std::size_t off = 0; off < records.size(); off += kEpochRecords) {
    cw::monitor::CollectedLogs epoch;
    epoch.epoch = out.epochs.size() + 1;
    const std::size_t n = std::min(kEpochRecords, records.size() - off);
    epoch.records.assign(records.begin() + static_cast<long>(off),
                         records.begin() + static_cast<long>(off + n));
    if (plateaus) {
      const std::int64_t base = static_cast<std::int64_t>(epoch.epoch) << 40;
      for (auto& r : epoch.records) {
        r.value_start += base;
        r.value_end += base;
      }
    }
    out.epochs.push_back(std::move(epoch));
  }
  return out;
}

// --- daemon side -----------------------------------------------------------

ShimSink::ShimSink(cw::analysis::AnalysisPipeline& pipeline,
                   const std::string& dir, cw::store::StoreOptions options,
                   Tracer& tracer)
    : pipeline_(pipeline),
      tracer_(tracer),
      store_(std::make_unique<cw::store::StoreWriter>(dir, options)) {}

void ShimSink::on_segment(const cw::transport::PeerInfo&,
                          std::span<const std::uint8_t> segment) {
  Tracer::Scope root(tracer_, "daemon.on_segment", -1, ++next_id_);
  cw::analysis::ColumnBundle cols;
  {
    Tracer::Scope s(tracer_, "trace_io.decode", root.index(), next_id_);
    cols = cw::analysis::decode_trace_segment_columns(segment);
  }
  {
    Tracer::Scope s(tracer_, "analysis.db_ingest", root.index(), next_id_);
    pipeline_.database().ingest(cols);
  }
  {
    Tracer::Scope s(tracer_, "analysis.passes", root.index(), next_id_);
    pipeline_.refresh();
  }
  const std::size_t sealed_before = store_->files_sealed();
  {
    Tracer::Scope s(tracer_, "store.append", root.index(), next_id_);
    store_->append_encoded(segment);
    // An append that rotated also sealed the full file.
    if (store_->files_sealed() != sealed_before) {
      tracer_.rename(s.index(), "store.append_seal");
    }
  }
}

void ShimSink::on_drop_notice(const cw::transport::PeerInfo&,
                              const cw::transport::DropNotice& notice) {
  cw::monitor::CollectedLogs loss;
  loss.publish_dropped = notice.records;
  pipeline_.ingest(loss);
}

void ShimSink::on_status(const cw::transport::PeerInfo&,
                         const cw::transport::ControlStatus& status) {
  if (status.sampled_out == 0) return;
  cw::monitor::CollectedLogs suppressed;
  suppressed.sampled_out = status.sampled_out;
  pipeline_.ingest(suppressed);
}

void ShimSink::finalize() {
  if (!store_) return;
  {
    Tracer::Scope s(tracer_, "store.close");
    store_->close();
  }
  files_sealed_ = store_->files_sealed();
  store_.reset();
}

Forwarder::Forwarder(cw::transport::DaemonSink& inner,
                     std::vector<std::string> peers)
    : inner_(inner), names_(std::move(peers)), peers_(names_.size()) {}

std::size_t Forwarder::index_of(const cw::transport::PeerInfo& peer) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == peer.process_name) return i;
  }
  throw std::runtime_error("unexpected peer " + peer.process_name);
}

void Forwarder::on_connect(const cw::transport::PeerInfo& peer) {
  inner_.on_connect(peer);
}

void Forwarder::on_segment(const cw::transport::PeerInfo& peer,
                           std::span<const std::uint8_t> segment) {
  if (!saw_thread_.load(std::memory_order_relaxed)) {
    daemon_thread_ = pthread_self();
    saw_thread_.store(true, std::memory_order_release);
  }
  const double cpu0 = this_thread_cpu_ns();
  const std::int64_t start = now_ns();
  inner_.on_segment(peer, segment);
  const std::int64_t end = now_ns();
  const double cpu = this_thread_cpu_ns() - cpu0;
  const std::uint64_t records =
      cw::analysis::trace_segment_record_count(segment);
  const std::size_t i = index_of(peer);
  {
    std::lock_guard lk(mutex_);
    Peer& p = peers_[i];
    ++p.segments;
    p.records += records;
    p.accounted += records;
    p.coverage.push_back({end, p.accounted});
    if (p.next_offer < p.offers.size()) {
      offer_to_sink_.push_back(
          static_cast<double>(end - p.offers[p.next_offer++]));
    }
    service_ns_.push_back(static_cast<double>(end - start));
    callback_cpu_ns_ += cpu;
  }
  cv_.notify_all();
}

void Forwarder::on_drop_notice(const cw::transport::PeerInfo& peer,
                               const cw::transport::DropNotice& notice) {
  inner_.on_drop_notice(peer, notice);
  const std::int64_t end = now_ns();
  const std::size_t i = index_of(peer);
  {
    std::lock_guard lk(mutex_);
    Peer& p = peers_[i];
    p.accounted += notice.records;
    p.coverage.push_back({end, p.accounted});
    // Dropped segments never reach the sink; their offers are skipped so
    // later offers still pair with their own arrivals.
    p.next_offer = std::min(p.offers.size(), p.next_offer + notice.segments);
    p.segments += notice.segments;
  }
  cv_.notify_all();
}

void Forwarder::on_status(const cw::transport::PeerInfo& peer,
                          const cw::transport::ControlStatus& status) {
  inner_.on_status(peer, status);
}

void Forwarder::on_disconnect(const cw::transport::PeerInfo& peer,
                              bool clean) {
  inner_.on_disconnect(peer, clean);
}

void Forwarder::note_offer(std::size_t peer, std::int64_t at_ns) {
  std::lock_guard lk(mutex_);
  peers_[peer].offers.push_back(at_ns);
}

std::uint64_t Forwarder::total_segments() const {
  std::lock_guard lk(mutex_);
  std::uint64_t n = 0;
  for (const Peer& p : peers_) n += p.segments;
  return n;
}

std::uint64_t Forwarder::total_records() const {
  std::lock_guard lk(mutex_);
  std::uint64_t n = 0;
  for (const Peer& p : peers_) n += p.records;
  return n;
}

std::vector<Coverage> Forwarder::coverage(std::size_t peer) const {
  std::lock_guard lk(mutex_);
  return peers_[peer].coverage;
}

std::vector<double> Forwarder::service_ns() const {
  std::lock_guard lk(mutex_);
  return service_ns_;
}

double Forwarder::callback_cpu_ns() const {
  std::lock_guard lk(mutex_);
  return callback_cpu_ns_;
}

std::vector<double> Forwarder::offer_to_sink_ns() const {
  std::lock_guard lk(mutex_);
  return offer_to_sink_;
}

void Forwarder::wait_window(std::size_t peer, std::uint64_t offered,
                            std::uint64_t window, double seconds) {
  std::unique_lock lk(mutex_);
  const bool ok = cv_.wait_for(
      lk, std::chrono::duration<double>(seconds),
      [&] { return offered - peers_[peer].segments < window; });
  if (!ok) throw Stall("replay window on " + names_[peer]);
}

// --- query mix -------------------------------------------------------------

namespace {

std::string quoted(const std::string& s) { return "'" + s + "'"; }

const char* kScanAggs = "count, avg(latency), p99(latency)";
const char* kGroupFields[] = {"iface", "func", "process", "node"};

}  // namespace

std::vector<QueryCase> build_query_cases(
    std::uint64_t seed, const std::string& store_dir,
    const std::vector<cw::Uuid>& present,
    const std::vector<std::string>& interfaces,
    const std::vector<std::string>& functions) {
  std::vector<QueryCase> cases;
  cw::SplitMix64 rng{mix_seed(seed, 0x51)};
  auto pick = [&](const auto& v) -> const auto& {
    return v[rng.next() % v.size()];
  };
  for (const char* field : kGroupFields) {
    cases.push_back({QueryClass::kScan,
                     {std::string(kScanAggs) + " group by " + field}});
  }
  const cw::store::StoreView view = cw::store::open_store(store_dir);
  for (const cw::store::StoreFile& file : view.files) {
    if (!file.indexed || !file.entry.has_records()) continue;
    cases.push_back({QueryClass::kWindow,
                     {std::string(kScanAggs) + " group by iface since " +
                      std::to_string(file.entry.min_ts) + " until " +
                      std::to_string(file.entry.max_ts)}});
  }
  const std::set<cw::Uuid> known(present.begin(), present.end());
  // Sixteen distinct batches: how many files a lookup opens depends on the
  // seed's bloom bits, and a class median over few batches follows them.
  for (int i = 0; i < 16; ++i) {
    QueryCase c{QueryClass::kChain, {}};
    for (std::size_t k = 0; k < kChainLookups / 2; ++k) {
      c.texts.push_back("count where chain == " + pick(present).to_string());
    }
    for (std::size_t k = 0; k < kChainLookups / 2; ++k) {
      cw::Uuid absent{rng.next(), rng.next()};
      while (known.count(absent)) absent.lo = rng.next();
      c.texts.push_back("count where chain == " + absent.to_string());
    }
    cases.push_back(std::move(c));
  }
  for (int i = 0; i < 2; ++i) {
    const std::string a = quoted(pick(interfaces));
    const std::string b = quoted(pick(interfaces));
    const std::string f = quoted(pick(functions));
    cases.push_back({QueryClass::kFilter,
                     {"count, avg(latency) where iface == " + a +
                         " and latency > 20us"}});
    cases.push_back({QueryClass::kFilter,
                     {"count, p99(latency) where (iface == " + a +
                         " or iface == " + b + ") and not func == " + f}});
    cases.push_back({QueryClass::kFilter,
                     {"count where not (latency < 50us) or func == " + f}});
    cases.push_back({QueryClass::kFilter,
                     {"count, avg(latency) where not iface == " + b +
                         " and (latency >= 1us or func == " + f + ")"}});
  }
  return cases;
}

QueryDraw::QueryDraw(std::uint64_t seed, const std::vector<QueryCase>& cases)
    : rng_{mix_seed(seed, 0xD7A)}, by_class_(4), cursor_(4) {
  for (std::size_t i = 0; i < cases.size(); ++i) {
    by_class_[static_cast<std::size_t>(cases[i].cls)].push_back(i);
  }
  for (std::size_t c = 0; c < 4; ++c) cursor_[c] = rng_.next();
}

std::size_t QueryDraw::next() {
  if (block_.empty()) {
    block_ = {0, 1, 2, 3};
    for (std::size_t i = 3; i > 0; --i) {
      std::swap(block_[i], block_[rng_.next() % (i + 1)]);
    }
  }
  const std::size_t cls = block_.back();
  block_.pop_back();
  const auto& pool = by_class_[cls];
  return pool[cursor_[cls]++ % pool.size()];
}

namespace {

struct OneQuery {
  double parse_ns{0}, run_ns{0}, render_ns{0};
  cw::query::QueryStats stats;
  std::string csv;
};

OneQuery run_text(const std::string& text, const std::string& store_dir,
                  Tracer& tracer, int parent, std::uint64_t query_id) {
  OneQuery q;
  const std::int64_t t0 = now_ns();
  cw::query::Query parsed;
  {
    Tracer::Scope span(tracer, "query.parse", parent, query_id);
    parsed = cw::query::parse_query(text);
  }
  const std::int64_t t1 = now_ns();
  {
    Tracer::Scope span(tracer, "store.open", parent, query_id);
    const cw::store::StoreView view = cw::store::open_store(store_dir);
    (void)view;
  }
  const std::int64_t t2 = now_ns();
  cw::query::QueryResult result;
  {
    Tracer::Scope span(tracer, "query.run", parent, query_id);
    result = cw::query::run_query(parsed, {store_dir});
  }
  const std::int64_t t3 = now_ns();
  {
    Tracer::Scope span(tracer, "query.render", parent, query_id);
    q.csv = cw::query::render_csv(result);
  }
  const std::int64_t t4 = now_ns();
  q.parse_ns = static_cast<double>(t1 - t0);
  q.run_ns = static_cast<double>(t3 - t2);
  q.render_ns = static_cast<double>(t4 - t3);
  q.stats = result.stats;
  return q;
}

}  // namespace

QuerySample run_one_query(const std::vector<QueryCase>& cases,
                          std::size_t index, const std::string& store_dir,
                          Tracer& tracer, std::uint64_t query_id) {
  QuerySample s;
  s.case_index = index;
  Tracer::Scope root(tracer, "query.total", -1, query_id);
  auto add = [&](const OneQuery& q) {
    s.run_ns += q.run_ns;
    s.total_ns += q.parse_ns + q.run_ns + q.render_ns;
    s.records_scanned += q.stats.records_scanned;
    s.spans_matched += q.stats.spans_matched;
    s.csv += q.csv;
  };
  for (const std::string& text : cases[index].texts) {
    const OneQuery q = run_text(text, store_dir, tracer, root.index(), query_id);
    add(q);
    s.files_opened.push_back(q.stats.files_opened);
  }
  return s;
}

void report_query_metrics(const std::vector<QueryCase>& cases,
                          const std::vector<QuerySample>& samples,
                          Result& result) {
  std::vector<std::vector<double>> by_class(4);
  std::vector<double> all;
  for (const QuerySample& s : samples) {
    by_class[static_cast<std::size_t>(cases[s.case_index].cls)].push_back(
        s.total_ns / 1e6);
    all.push_back(s.total_ns / 1e6);
  }
  for (std::size_t c = 0; c < 4; ++c) {
    result.gate(!by_class[c].empty(),
                std::string("no ") + kClassNames[c] + " query ran");
    result.metric(std::string("query_") + kClassNames[c] + "_p50_ms",
                  percentile(by_class[c], 500).value, "ms");
  }
  result.metric("query_p90_ms", percentile(all, 900).value, "ms");
}

std::vector<QuerySample> query_rounds(const std::vector<QueryCase>& cases,
                                      std::uint64_t seed, int rounds,
                                      int extra_chains,
                                      const std::string& store_dir,
                                      Tracer& tracer) {
  QueryDraw draw(seed, cases);
  std::vector<QuerySample> samples;
  for (int i = 0; i < 4 * rounds; ++i) {
    samples.push_back(
        run_one_query(cases, draw.next(), store_dir, tracer, samples.size() + 1));
  }
  for (std::size_t i = 0; i < cases.size() && extra_chains > 0; ++i) {
    if (cases[i].cls != QueryClass::kChain) continue;
    samples.push_back(run_one_query(cases, i, store_dir, tracer, samples.size() + 1));
    --extra_chains;
  }
  return samples;
}

void collect_names(const std::vector<cw::monitor::TraceRecord>& records,
                   std::vector<std::string>& interfaces,
                   std::vector<std::string>& functions) {
  std::set<std::string> ifaces, funcs;
  for (const auto& r : records) {
    ifaces.emplace(r.interface_name);
    funcs.emplace(r.function_name);
  }
  interfaces.assign(ifaces.begin(), ifaces.end());
  functions.assign(funcs.begin(), funcs.end());
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans) {
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"id\": " << s.id << "}\n";
  }
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"monitor.activations", "count"},
      {"monitor.ring_dropped", "count"},
      {"monitor.sampled_out", "count"},
      {"monitor.ring_utilization_max", "ratio"},
      {"monitor.drain_us_p50", "us"},
      {"monitor.drain_us_p99", "us"},
      {"monitor.epoch_interval_ms_p50", "ms"},
      {"monitor.records_per_epoch_p50", "count"},
      {"monitor.probe_overhead_us_p50", "us"},
      {"trace_io.encode_ns_per_record", "ns"},
      {"trace_io.wire_bytes_per_record", "B"},
      {"trace_io.decode_ns_per_record", "ns"},
      {"trace_io.query_decode_ns_per_record", "ns"},
      {"transport.offer_us_p50", "us"},
      {"transport.offer_to_sink_ms_p50", "ms"},
      {"transport.offer_to_sink_ms_p99", "ms"},
      {"transport.dropped_segments", "count"},
      {"transport.dropped_records", "count"},
      {"transport.reconnects", "count"},
      {"transport.partial_tail_bytes", "B"},
      {"transport.protocol_errors", "count"},
      {"analysis.db_ingest_ns_per_record", "ns"},
      {"analysis.passes_ns_per_record", "ns"},
      {"analysis.passes_ms_p99", "ms"},
      {"analysis.sink_busy_pct", "%"},
      {"analysis.ingest_shards", "count"},
      {"analysis.chains", "count"},
      {"store.append_ns_per_record", "ns"},
      {"store.seal_ms_p50", "ms"},
      {"store.files_sealed", "count"},
      {"store.open_ms_p50", "ms"},
      {"query.parse_us_p50", "us"},
      {"query.render_us_p50", "us"},
      {"query.files_opened_window", "count"},
      {"query.files_opened_chain_present", "count"},
      {"query.files_opened_chain_absent", "count"},
      {"query.records_scanned_per_match_scan", "ratio"},
      {"query.records_scanned_per_match_filter", "ratio"},
      {"query.non_decode_share_scan_pct", "%"},
      {"gen.late_us_p99", "us"},
      {"gen.window_wait_pct", "%"},
      {"trace.overhead_pct", "%"},
      {"ledger.unaccounted_pct", "%"},
  };
  return kMetrics;
}

double unaccounted_pct(double daemon_cpu_ns, double callback_cpu_ns,
                       double callback_wall_ns, double covered_ns) {
  const double busy = callback_wall_ns + (daemon_cpu_ns - callback_cpu_ns);
  return 100.0 * (busy - covered_ns) / busy;
}

void report_per_layer(const std::map<std::string, double>& values,
                      Result& result) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = values.find(name);
    result.metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& m : per_layer_metrics()) known = known || m.first == name;
    result.gate(known, "unlisted per-layer metric " + name);
  }
}

}  // namespace perfbench
