// Plumbing shared by the three workloads: options, the result line,
// deadlines, process resource readings, the seeded E2-shape stream, the
// daemon-side sinks and the query mix.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/pipeline.h"
#include "analysis/trace_io.h"
#include "common/ids.h"
#include "common/rng.h"
#include "ledger.h"
#include "store/store.h"
#include "transport/subscriber.h"

namespace perfbench {

namespace cw = causeway;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  int seconds{10};
  bool trace{false};
  double live_rate{1500};    // live-app transactions per second
  std::string work_dir;      // scratch space inside the checkout
  std::string spans_out;     // where a traced run writes its spans
  std::string commit;        // source identity recorded in the metadata
};

// The last stdout line: correctness, operation counts and named metrics.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // A failed gate makes the run incorrect and counts one failed operation.
  void gate(bool ok, const std::string& what);
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n, const std::string& why);
  std::string json() const;

 private:
  bool correct_{true};
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// A wait that outlived its deadline: the run fails and names the stage.
class Stall : public std::runtime_error {
 public:
  explicit Stall(const std::string& stage)
      : std::runtime_error("stalled: " + stage) {}
};

// Polls `done` until it holds; throws Stall(stage) after `seconds`.
void wait_until(const std::function<bool()>& done, double seconds,
                const std::string& stage);

double process_cpu_s();          // user + system CPU of this process
double thread_cpu_s(pthread_t);  // CPU of one thread of this process
double this_thread_cpu_ns();     // CPU of the calling thread
void reset_peak_rss();           // restarts the kernel's high-water mark
double peak_rss_mb();            // VmHWM since the last reset
std::uint64_t directory_bytes(const std::string& dir);
std::string fresh_dir(const Options& options, const std::string& name);

// Median of repeated set-ups, in seconds.
double median_setup_s(std::vector<double> seconds);
inline constexpr int kSetupRepeats = 3;

// --- seeded inputs ----------------------------------------------------

// logsynth in the paper's E2 shape: 801 methods, 155 interfaces, 176
// components, 32 threads, 4 processes.  The call structure is logsynth's
// default stream, the same in every run, so runs compare like with like;
// the run's seed draws every chain UUID (the global generator is reseeded
// from it first), which fixes shard partitioning, bloom bits and the
// chains that queries look up.
struct E2Stream {
  std::unique_ptr<cw::analysis::LogDatabase> db;  // owns the strings
  std::vector<cw::monitor::CollectedLogs> epochs;  // ~kEpochRecords each
  std::uint64_t calls{0};
  std::uint64_t records{0};
  // Spans the stream holds: one per call, plus the callee side of every
  // oneway call, which opens in the spawned chain.
  std::uint64_t spans{0};
};
inline constexpr std::size_t kEpochRecords = 8192;
// `plateaus` shifts epoch e onto timestamps [e << 40, ...), so files that
// hold different epochs cover disjoint time ranges.
E2Stream synthesize_e2(std::uint64_t seed, std::size_t calls, bool plateaus);

// --- daemon side ------------------------------------------------------

// What IngestSink::on_segment does for a v4 stream into a pipeline and a
// v4 store, as separate public calls so each one can carry its own span:
// decode_trace_segment_columns -> database().ingest -> refresh ->
// StoreWriter::append_encoded.
class ShimSink : public cw::transport::DaemonSink {
 public:
  ShimSink(cw::analysis::AnalysisPipeline& pipeline, const std::string& dir,
           cw::store::StoreOptions options, Tracer& tracer);
  void on_segment(const cw::transport::PeerInfo& peer,
                  std::span<const std::uint8_t> segment) override;
  void on_drop_notice(const cw::transport::PeerInfo& peer,
                      const cw::transport::DropNotice& notice) override;
  void on_status(const cw::transport::PeerInfo& peer,
                 const cw::transport::ControlStatus& status) override;
  // Seals the live store file.  Call after the daemon stopped.
  void finalize();

  std::size_t files_sealed() const { return files_sealed_; }

 private:
  cw::analysis::AnalysisPipeline& pipeline_;
  Tracer& tracer_;
  std::unique_ptr<cw::store::StoreWriter> store_;
  std::uint64_t next_id_{0};
  std::size_t files_sealed_{0};
};

// Sits between the daemon and the real sink.  After each callback returns
// it records, per peer, how many segments and records are now accounted
// for and when -- the feed for the lag matcher, for the replay window and
// for the offer-to-sink times.  Peers are known by handshake name.
class Forwarder : public cw::transport::DaemonSink {
 public:
  Forwarder(cw::transport::DaemonSink& inner, std::vector<std::string> peers);

  void on_connect(const cw::transport::PeerInfo& peer) override;
  void on_segment(const cw::transport::PeerInfo& peer,
                  std::span<const std::uint8_t> segment) override;
  void on_drop_notice(const cw::transport::PeerInfo& peer,
                      const cw::transport::DropNotice& notice) override;
  void on_status(const cw::transport::PeerInfo& peer,
                 const cw::transport::ControlStatus& status) override;
  void on_disconnect(const cw::transport::PeerInfo& peer, bool clean) override;

  // Producer side: segment `records` was offered on `peer` at `at_ns`.
  void note_offer(std::size_t peer, std::int64_t at_ns);

  std::uint64_t total_segments() const;
  std::uint64_t total_records() const;   // ingested, all peers
  std::vector<Coverage> coverage(std::size_t peer) const;
  std::vector<double> offer_to_sink_ns() const;
  // Time each on_segment spent inside the wrapped sink.
  std::vector<double> service_ns() const;
  // Daemon-thread CPU spent inside those callbacks, in total.
  double callback_cpu_ns() const;
  pthread_t daemon_thread() const { return daemon_thread_; }
  bool saw_daemon_thread() const { return saw_thread_; }
  // Blocks (with a deadline) until `peer` has fewer than `window`
  // segments offered but not yet ingested.
  void wait_window(std::size_t peer, std::uint64_t offered,
                   std::uint64_t window, double seconds);

 private:
  struct Peer {
    std::uint64_t segments{0};
    std::uint64_t records{0};
    std::uint64_t accounted{0};   // records + reported drops
    std::vector<Coverage> coverage;
    std::vector<std::int64_t> offers;  // FIFO of offer times
    std::size_t next_offer{0};
  };
  std::size_t index_of(const cw::transport::PeerInfo& peer) const;

  cw::transport::DaemonSink& inner_;
  std::vector<std::string> names_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Peer> peers_;
  std::vector<double> offer_to_sink_;
  std::vector<double> service_ns_;
  double callback_cpu_ns_{0};
  pthread_t daemon_thread_{};
  std::atomic<bool> saw_thread_{false};
};

// --- query mix --------------------------------------------------------

enum class QueryClass { kScan = 0, kWindow = 1, kChain = 2, kFilter = 3 };
inline constexpr const char* kClassNames[] = {"scan", "window", "chain",
                                              "filter"};

// One sample of the mix: one query, except that a chain sample is a batch
// of kChainLookups lookups, the first half for chains that are present and
// the second half for absent ones.  One lookup costs a whole number of file
// decodes -- how many depends on bloom false positives -- so a median over
// single lookups jumps between those numbers; over batches it does not.
inline constexpr std::size_t kChainLookups = 8;
struct QueryCase {
  QueryClass cls{QueryClass::kScan};
  std::vector<std::string> texts;
};

// The distinct samples a mix draws from, built from the store's catalog
// (window ranges), chains known to be present, and identity names seen in
// the data.  Absent chains are seeded draws checked against `present`.
std::vector<QueryCase> build_query_cases(
    std::uint64_t seed, const std::string& store_dir,
    const std::vector<cw::Uuid>& present,
    const std::vector<std::string>& interfaces,
    const std::vector<std::string>& functions);

// Seeded closed-loop order in blocks of four: every block holds one sample
// of each class, in a seeded order, and each class walks its samples
// round-robin from a seeded start.  The mix is a quarter of each class in
// every run, and four consecutive samples form one reader session.
class QueryDraw {
 public:
  QueryDraw(std::uint64_t seed, const std::vector<QueryCase>& cases);
  std::size_t next();  // index into the cases

 private:
  cw::SplitMix64 rng_;
  std::vector<std::vector<std::size_t>> by_class_;
  std::vector<std::size_t> cursor_;
  std::vector<std::size_t> block_;
};

struct QuerySample {
  std::size_t case_index{0};
  double total_ns{0};  // parse + run_query + render, every query of the sample
  double run_ns{0};    // run_query alone
  std::vector<std::size_t> files_opened;  // per query of the sample
  std::uint64_t records_scanned{0};
  std::uint64_t spans_matched{0};
  std::string csv;
};

// One sample end to end, the way causeway-query runs a query, with the
// store opened first on its own (the read view's cost) and spans when
// traced.
QuerySample run_one_query(const std::vector<QueryCase>& cases,
                          std::size_t index, const std::string& store_dir,
                          Tracer& tracer, std::uint64_t query_id);

// Per-class medians and the whole-mix p90, as end-to-end metrics.
void report_query_metrics(const std::vector<QueryCase>& cases,
                          const std::vector<QuerySample>& samples,
                          Result& result);

// Fixed post-run blocks over the store an ingest workload just wrote: its
// run-to-answer end.  `extra_chains` more chain samples follow, where
// lookups are cheap enough to take the class median over more of them:
// how many files a lookup opens depends on bloom false positives, so a few
// samples are not enough.
std::vector<QuerySample> query_rounds(const std::vector<QueryCase>& cases,
                                      std::uint64_t seed, int rounds,
                                      int extra_chains,
                                      const std::string& store_dir,
                                      Tracer& tracer);

// Identity names (interfaces, functions) seen in a record range.
void collect_names(const std::vector<cw::monitor::TraceRecord>& records,
                   std::vector<std::string>& interfaces,
                   std::vector<std::string>& functions);

void write_spans(const std::string& path, const std::vector<Span>& spans);

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// Every per-layer metric name, with its unit; a traced run reports all of
// them and leaves at 0 those of layers its workload does not exercise.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
void report_per_layer(const std::map<std::string, double>& values,
                      Result& result);

// ledger.unaccounted_pct: the share of the daemon thread's busy time that
// no layer span covers.  Busy time is the wall time of its sink callbacks
// plus the CPU it spent outside them (framing, polling, socket reads),
// which never blocks; layer spans are wall time, because shard ingest
// waits on worker threads.
double unaccounted_pct(double daemon_cpu_ns, double callback_cpu_ns,
                       double callback_wall_ns, double covered_ns);

}  // namespace perfbench

namespace perfbench {

// The workloads.  Untraced runs fill the end-to-end metrics, traced runs
// the per-layer ones; both run the same correctness gates.
void live_app(const Options& options, Result& result);
void replay_ingest(const Options& options, Result& result);
void query_mix(const Options& options, Result& result);

}  // namespace perfbench
