// perfbench: Causeway's whole-path benchmark.
//
//   perfbench --workload live-app|replay-ingest|query-mix --seed N
//             --seconds S --trace 0|1 [--live-rate TXN_PER_S]
//             [--work-dir DIR] [--spans-out FILE] [--commit ID]
//
// Prints one `meta {...}` line describing the host and build, then, as the
// last line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when untraced, the per-layer ledger when traced.  A stage that
// misses its deadline fails the run with exit code 1 and names the stage.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "analysis/pipeline.h"
#include "common/compress.h"
#include "common/wire.h"
#include "harness.h"

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_meta(const Options& options) {
  const cw::analysis::AnalysisPipeline pipeline;
  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"live_rate\": %g, \"nproc\": %u, \"cpu_model\": "
      "\"%s\", \"build_type\": \"%s\", \"varint_kernel\": \"%s\", \"zlib\": "
      "%s, \"ingest_shards\": %zu, \"commit\": \"%s\"}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, options.live_rate,
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      PERFBENCH_BUILD_TYPE,
      std::string(cw::to_string(cw::active_varint_kernel())).c_str(),
      cw::compression_available() ? "true" : "false",
      pipeline.database().shard_count(), json_escape(options.commit).c_str());
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::stoull(value);
    else if (key == "--seconds") o.seconds = std::stoi(value);
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--live-rate") o.live_rate = std::stod(value);
    else if (key == "--work-dir") o.work_dir = value;
    else if (key == "--spans-out") o.spans_out = value;
    else if (key == "--commit") o.commit = value;
    else return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0 &&
         o.live_rate > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.work_dir = ".bench_build/work";
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload live-app|replay-ingest|query-mix "
                 "--seed N --seconds S --trace 0|1 [--live-rate R] "
                 "[--work-dir DIR] [--spans-out FILE] [--commit ID]\n");
    return 2;
  }
  void (*run)(const Options&, Result&) = nullptr;
  if (options.workload == "live-app") run = live_app;
  if (options.workload == "replay-ingest") run = replay_ingest;
  if (options.workload == "query-mix") run = query_mix;
  if (!run) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  print_meta(options);
  std::fflush(stdout);
  Result result;
  try {
    run(options, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  std::printf("%s\n", result.json().c_str());
  return 0;
}
