// Control-plane bench: what adaptive monitoring costs when it acts and
// when it doesn't.
//
// Two families:
//
//   reconfig    -- latency of one control-plane turn at the monitor tier:
//                  stage_control() on the collector plus the drain-boundary
//                  apply.  "stage" times the staging half alone (what the
//                  publisher's reader thread pays mid-epoch); "stage+apply"
//                  times the full epoch-boundary turnaround.
//
//   steady      -- per-call probe cost of a complete sync call (all four
//                  probes, fresh chain) at 1:1, 1-in-10 and 1-in-100 chain
//                  sampling.  Sampling suppresses at the probe, so deeper
//                  sampling should cost *less* per call -- this bench pins
//                  that the throttle actually relieves the monitored
//                  process rather than just thinning the wire.  Calls
//                  run in batches that fit the probe rings, drained off
//                  the clock, and every activation must be accounted for:
//                  kept + sampled out + dropped == 4 x calls, with nothing
//                  dropped.
//
// Emits BENCH_control.json next to the stdout summary; override with
// --json=PATH, shrink with --calls=N / --reconfigs=N.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "monitor/collector.h"
#include "monitor/probes.h"
#include "monitor/tss.h"

namespace {

using namespace causeway;
using Clock = std::chrono::steady_clock;

struct RunResult {
  std::string name;
  double seconds{0};
  std::size_t ops{0};
  std::size_t records_kept{0};
  std::size_t records_suppressed{0};
  std::size_t records_dropped{0};
  double ns_per_op() const {
    return seconds * 1e9 / static_cast<double>(ops);
  }
};

monitor::MonitorRuntime make_runtime(const char* process) {
  monitor::MonitorConfig config;
  config.enabled = true;
  config.mode = monitor::ProbeMode::kCausalityOnly;
  return monitor::MonitorRuntime(
      monitor::DomainIdentity{process, "node0", "x86"}, config,
      ClockDomain{});
}

constexpr monitor::CallIdentity kCall{"Bench::Iface", "f", 3};

// One complete sync call between two runtimes on a fresh chain -- the same
// four-probe shape the ORB's instrumented stubs and skeletons run.
inline void sync_call(monitor::MonitorRuntime& client,
                      monitor::MonitorRuntime& server) {
  monitor::tss_clear();
  monitor::StubProbes stub(&client, kCall, monitor::CallKind::kSync);
  const monitor::Ftl wire = stub.on_stub_start();
  monitor::SkelProbes skel(&server, kCall, monitor::CallKind::kSync);
  skel.on_skel_start(wire);
  const monitor::Ftl reply = skel.on_skel_end(monitor::CallOutcome::kOk);
  stub.on_stub_end(reply, monitor::CallOutcome::kOk);
}

// Latency of staging a control update and applying it at a drain boundary.
RunResult bench_reconfig(bool apply, std::size_t reconfigs) {
  auto client = make_runtime("procA");
  auto server = make_runtime("procB");
  monitor::Collector collector;
  collector.attach(&client);
  collector.attach(&server);

  RunResult r;
  r.name = apply ? "reconfig stage+apply" : "reconfig stage";
  r.ops = reconfigs;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < reconfigs; ++i) {
    monitor::ControlUpdate update;
    // Alternate so every apply is a real change, never a no-op.
    update.sample_rate_index =
        (i & 1) ? monitor::sample_rate_index_for(10) : std::uint8_t{0};
    collector.stage_control(update);
    if (apply) (void)collector.drain();
  }
  const auto t1 = Clock::now();
  if (!apply) (void)collector.drain();  // retire the backlog off the clock
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

// Per-call probe cost at a fixed sampling depth.
RunResult bench_steady(std::uint64_t rate, std::size_t calls) {
  auto client = make_runtime("procA");
  auto server = make_runtime("procB");
  monitor::Collector collector;
  collector.attach(&client);
  collector.attach(&server);
  monitor::ControlUpdate update;
  update.sample_rate_index = monitor::sample_rate_index_for(rate);
  collector.stage_control(update);
  (void)collector.drain();

  // Warm the stores (first ring growth off the clock).
  for (std::size_t i = 0; i < 64; ++i) sync_call(client, server);
  (void)collector.drain();

  RunResult r;
  char name[32];
  std::snprintf(name, sizeof name, "steady 1-in-%llu",
                static_cast<unsigned long long>(rate));
  r.name = name;
  r.ops = calls;
  // Each call logs two records per runtime; a batch of kDrainBatch calls
  // stays far inside the default per-thread ring, and the drain between
  // batches runs off the clock.
  constexpr std::size_t kDrainBatch = 8192;
  for (std::size_t done = 0; done < calls;) {
    const std::size_t batch = std::min(kDrainBatch, calls - done);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) sync_call(client, server);
    const auto t1 = Clock::now();
    r.seconds += std::chrono::duration<double>(t1 - t0).count();
    done += batch;
    const monitor::CollectedLogs logs = collector.drain();
    r.records_kept += logs.records.size();
    r.records_suppressed += logs.sampled_out;
    r.records_dropped += logs.dropped;
  }
  const std::size_t accounted =
      r.records_kept + r.records_suppressed + r.records_dropped;
  if (accounted != calls * 4 || r.records_dropped != 0) {
    std::fprintf(stderr,
                 "FATAL: %s accounted %zu of %zu activations "
                 "(%zu dropped)\n",
                 r.name.c_str(), accounted, calls * 4, r.records_dropped);
    std::exit(1);
  }
  return r;
}

void print_result(const RunResult& r) {
  std::printf("%-22s %9zu ops | %7.3f s | %9.1f ns/op | kept %zu, "
              "suppressed %zu, dropped %zu\n",
              r.name.c_str(), r.ops, r.seconds, r.ns_per_op(),
              r.records_kept, r.records_suppressed, r.records_dropped);
}

void write_json(const std::string& path, std::size_t cores,
                const std::vector<RunResult>& runs) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n"
      << "  \"bench\": \"bench_control\",\n"
      << "  \"hardware_concurrency\": " << cores << ",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"seconds\": %.4f, "
                  "\"ops\": %zu, \"ns_per_op\": %.1f, "
                  "\"records_kept\": %zu, \"records_suppressed\": %zu, "
                  "\"records_dropped\": %zu}%s\n",
                  r.name.c_str(), r.seconds, r.ops, r.ns_per_op(),
                  r.records_kept, r.records_suppressed, r.records_dropped,
                  i + 1 < runs.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_control.json";
  std::size_t calls = 200'000;
  std::size_t reconfigs = 100'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--calls=", 8) == 0) {
      calls = static_cast<std::size_t>(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--reconfigs=", 12) == 0) {
      reconfigs = static_cast<std::size_t>(std::atoll(argv[i] + 12));
    }
  }
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::printf("=== adaptive control plane: %zu reconfigs, %zu calls/depth, "
              "%zu cores ===\n\n",
              reconfigs, calls, cores);

  std::vector<RunResult> runs;
  runs.push_back(bench_reconfig(/*apply=*/false, reconfigs));
  print_result(runs.back());
  runs.push_back(bench_reconfig(/*apply=*/true, reconfigs));
  print_result(runs.back());
  for (const std::uint64_t rate : {1ull, 10ull, 100ull}) {
    runs.push_back(bench_steady(rate, calls));
    print_result(runs.back());
  }

  write_json(json_path, cores, runs);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
