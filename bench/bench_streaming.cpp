// Streaming collection bench: probe append latency while epoch drains run
// concurrently, for the previous mutex+chunk store (reconstructed below as
// the baseline) and the per-thread SPSC ring store that replaced it.
//
// Acceptance shape: the ring store's append p99 must not regress against
// the baseline while a drainer loops at ~1 ms -- the whole point of the
// refactor is that the collector's cadence no longer couples into probe
// latency through a shared lock.  Every append must be either drained or
// counted as dropped (the bench aborts otherwise), and the verdict passes
// only when each variant's loss is zero or declared: the ring is
// drop-not-block by design, so producers that outrun the drainer lose
// records to a full ring instead of stalling -- the drop rate is printed
// and emitted next to the latencies, never hidden behind them.
//
// Emits BENCH_streaming.json (machine-readable) next to the stdout summary;
// override the path with --json=PATH.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "monitor/log_store.h"

namespace {

using namespace causeway;
using Clock = std::chrono::steady_clock;

// The pre-refactor store shape: one mutex over chunked vectors.  Every
// probe append takes the lock, so a concurrent drain stalls the hot path.
class MutexChunkStore {
 public:
  void append(const monitor::TraceRecord& record) {
    std::lock_guard lock(mu_);
    if (chunks_.empty() || chunks_.back().size() == kChunkSize) {
      chunks_.emplace_back();
      chunks_.back().reserve(kChunkSize);
    }
    chunks_.back().push_back(record);
  }

  std::vector<monitor::TraceRecord> drain() {
    std::vector<std::vector<monitor::TraceRecord>> taken;
    {
      std::lock_guard lock(mu_);
      taken.swap(chunks_);
    }
    std::size_t total = 0;
    for (const auto& chunk : taken) total += chunk.size();
    std::vector<monitor::TraceRecord> out;
    out.reserve(total);
    for (auto& chunk : taken) {
      out.insert(out.end(), chunk.begin(), chunk.end());
    }
    return out;
  }

  std::uint64_t dropped() const { return 0; }  // blocks instead of dropping

 private:
  static constexpr std::size_t kChunkSize = 4096;
  std::mutex mu_;
  std::vector<std::vector<monitor::TraceRecord>> chunks_;
};

constexpr unsigned kThreads = 4;
constexpr std::uint64_t kPerThread = 250'000;
constexpr auto kDrainInterval = std::chrono::milliseconds(1);

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

struct Stats {
  double p50{0};
  double p99{0};
  double mean{0};
  double max{0};
};

Stats summarize(std::vector<std::uint64_t>& ns) {
  Stats s;
  if (ns.empty()) return s;
  std::sort(ns.begin(), ns.end());
  double sum = 0;
  for (auto v : ns) sum += static_cast<double>(v);
  s.p50 = static_cast<double>(ns[ns.size() / 2]);
  s.p99 = static_cast<double>(ns[std::min(ns.size() - 1, ns.size() * 99 / 100)]);
  s.mean = sum / static_cast<double>(ns.size());
  s.max = static_cast<double>(ns.back());
  return s;
}

struct VariantResult {
  std::string name;
  // Why this store may lose appends, or empty when it must not: a variant
  // with an empty declaration and a nonzero drop count fails the verdict.
  std::string declared_loss;
  Stats append;
  Stats drain;
  std::size_t drains{0};
  std::uint64_t drained_records{0};
  std::uint64_t dropped{0};
  double drop_rate() const {
    return static_cast<double>(dropped) /
           static_cast<double>(std::uint64_t{kThreads} * kPerThread);
  }
  bool loss_ok() const { return dropped == 0 || !declared_loss.empty(); }
};

monitor::TraceRecord make_record(unsigned thread, std::uint64_t i) {
  monitor::TraceRecord r;
  r.chain = Uuid{thread + 1, i + 1};
  r.seq = i + 1;
  r.event = monitor::EventKind::kStubStart;
  r.interface_name = "Bench::Stream";
  r.function_name = "probe";
  r.object_key = (static_cast<std::uint64_t>(thread) << 32) | i;
  r.process_name = "bench";
  r.node_name = "local";
  r.processor_type = "x86";
  r.thread_ordinal = thread;
  return r;
}

// N producer threads hammer the store while one drainer loops; every append
// and every drain is timed individually so we get real percentiles, not
// gbench's per-iteration mean.
template <typename Store>
VariantResult run_variant(std::string name, std::string declared_loss,
                          Store& store) {
  VariantResult result;
  result.name = std::move(name);
  result.declared_loss = std::move(declared_loss);

  std::vector<std::vector<std::uint64_t>> samples(kThreads);
  std::vector<std::uint64_t> drain_ns;
  std::atomic<unsigned> finished{0};
  std::uint64_t drained = 0;

  std::thread drainer([&] {
    while (finished.load(std::memory_order_acquire) < kThreads) {
      const auto t0 = Clock::now();
      const auto batch = store.drain();
      const auto t1 = Clock::now();
      drain_ns.push_back(ns_between(t0, t1));
      drained += batch.size();
      std::this_thread::sleep_for(kDrainInterval);
    }
  });

  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      auto& mine = samples[t];
      mine.reserve(kPerThread);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const auto rec = make_record(t, i);
        const auto t0 = Clock::now();
        store.append(rec);
        const auto t1 = Clock::now();
        mine.push_back(ns_between(t0, t1));
      }
      finished.fetch_add(1, std::memory_order_release);
    });
  }
  for (auto& p : producers) p.join();
  drainer.join();
  drained += store.drain().size();  // final epoch: whatever is left

  std::vector<std::uint64_t> all;
  all.reserve(static_cast<std::size_t>(kThreads) * kPerThread);
  for (auto& s : samples) all.insert(all.end(), s.begin(), s.end());
  result.append = summarize(all);
  result.drains = drain_ns.size();
  result.drain = summarize(drain_ns);
  result.drained_records = drained;
  result.dropped = store.dropped();
  const std::uint64_t appended = std::uint64_t{kThreads} * kPerThread;
  if (result.drained_records + result.dropped != appended) {
    std::fprintf(stderr,
                 "FATAL: %s drained %llu + dropped %llu of %llu appends\n",
                 result.name.c_str(),
                 static_cast<unsigned long long>(result.drained_records),
                 static_cast<unsigned long long>(result.dropped),
                 static_cast<unsigned long long>(appended));
    std::exit(1);
  }
  return result;
}

void write_stats(std::ofstream& out, const char* key, const Stats& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "      \"%s\": {\"p50\": %.1f, \"p99\": %.1f, "
                "\"mean\": %.1f, \"max\": %.1f}",
                key, s.p50, s.p99, s.mean, s.max);
  out << buf;
}

void write_json(const std::string& path,
                const std::vector<VariantResult>& variants,
                bool no_regression, bool loss_ok) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n"
      << "  \"bench\": \"bench_streaming\",\n"
      << "  \"threads\": " << kThreads << ",\n"
      << "  \"appends_per_thread\": " << kPerThread << ",\n"
      << "  \"drain_interval_us\": "
      << std::chrono::duration_cast<std::chrono::microseconds>(kDrainInterval)
             .count()
      << ",\n"
      << "  \"variants\": [\n";
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto& v = variants[i];
    out << "    {\n      \"store\": \"" << v.name << "\",\n";
    write_stats(out, "append_ns", v.append);
    out << ",\n";
    write_stats(out, "drain_ns", v.drain);
    out << ",\n      \"drains\": " << v.drains
        << ",\n      \"drained_records\": " << v.drained_records
        << ",\n      \"dropped\": " << v.dropped;
    char rate[64];
    std::snprintf(rate, sizeof rate, "%.4f", v.drop_rate());
    out << ",\n      \"drop_rate\": " << rate
        << ",\n      \"declared_loss\": \"" << v.declared_loss << "\"\n    }"
        << (i + 1 < variants.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"ring_append_p99_no_regression\": "
      << (no_regression ? "true" : "false") << ",\n"
      << "  \"loss_zero_or_declared\": " << (loss_ok ? "true" : "false")
      << ",\n"
      << "  \"verdict_pass\": "
      << (no_regression && loss_ok ? "true" : "false") << "\n}\n";
}

void print_variant(const VariantResult& v) {
  std::printf(
      "%-12s append p50 %6.0f ns  p99 %7.0f ns  mean %6.1f ns | "
      "%4zu drains, drain p99 %9.0f ns | drained %llu dropped %llu "
      "(%.1f%%%s)\n",
      v.name.c_str(), v.append.p50, v.append.p99, v.append.mean, v.drains,
      v.drain.p99, static_cast<unsigned long long>(v.drained_records),
      static_cast<unsigned long long>(v.dropped), 100.0 * v.drop_rate(),
      v.dropped == 0              ? ""
      : v.declared_loss.empty() ? ", UNDECLARED LOSS"
                                  : ", declared");
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_streaming.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  std::printf(
      "=== streaming collection: probe append under concurrent epoch drains "
      "===\n%u threads x %llu appends, drainer every %lld us\n\n",
      kThreads, static_cast<unsigned long long>(kPerThread),
      static_cast<long long>(
          std::chrono::duration_cast<std::chrono::microseconds>(kDrainInterval)
              .count()));

  std::vector<VariantResult> variants;
  {
    MutexChunkStore baseline;
    variants.push_back(run_variant("mutex_chunk", "", baseline));
  }
  {
    monitor::ProcessLogStore ring;
    variants.push_back(run_variant(
        "spsc_ring",
        "drop-not-block: a full per-thread ring drops and counts the record "
        "rather than stall the probe",
        ring));
  }
  for (const auto& v : variants) print_variant(v);

  // Acceptance: the ring's tail latency must not regress vs the lock-based
  // seed store while drains run (10% slack absorbs scheduler noise), and
  // no variant may lose appends it has not declared it may lose.
  const bool p99_ok = variants[1].append.p99 <= variants[0].append.p99 * 1.10;
  bool loss_ok = true;
  for (const auto& v : variants) loss_ok = loss_ok && v.loss_ok();
  std::printf("\nring append p99 vs mutex baseline: %s (%.0f ns vs %.0f ns)\n",
              p99_ok ? "no regression" : "REGRESSION", variants[1].append.p99,
              variants[0].append.p99);
  std::printf("loss: %s; verdict %s\n",
              loss_ok ? "zero or declared" : "UNDECLARED",
              p99_ok && loss_ok ? "PASS" : "FAIL");

  write_json(json_path, variants, p99_ok, loss_ok);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
