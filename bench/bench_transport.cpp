// Transport bench: loopback throughput of the cross-process collection
// stream -- a publisher-side client streams handshake + pre-encoded v4
// segments into a real CollectorDaemon, and we measure how fast the
// daemon's poll loop frames them back out of the byte stream.  Each sink
// variant runs over both endpoint kinds: a Unix-domain socket and TCP
// loopback, so the cost of the cross-host fabric is visible next to the
// same-host baseline.
//
// Two sink variants separate the costs: "frame" counts segments as the
// demux hands them over (pure framing: poll, reads, probe_trace_block),
// "frame+decode" additionally decodes every segment into a bundle -- the
// work causeway-collectd does per segment before ingest.  Segment encode
// and database ingest are excluded; bench_trace_io and bench_ingest own
// those.
//
// Emits BENCH_transport.json next to the stdout summary; override with
// --json=PATH, shrink with --calls=N, change segmentation with
// --segments=N.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "analysis/trace_io.h"
#include "common/wire_io.h"
#include "transport/endpoint.h"
#include "transport/protocol.h"
#include "transport/subscriber.h"
#include "workload/logsynth.h"

namespace {

using namespace causeway;
using Clock = std::chrono::steady_clock;

// How long one pass may wait for the daemon to frame every segment it was
// sent; a pass that loses segments fails here instead of spinning forever.
constexpr std::chrono::seconds kFramingDeadline{60};

struct CountingSink final : transport::DaemonSink {
  explicit CountingSink(bool decode) : decode_(decode) {}
  void on_segment(const transport::PeerInfo&,
                  std::span<const std::uint8_t> segment) override {
    bytes.fetch_add(segment.size(), std::memory_order_relaxed);
    if (decode_) {
      records.fetch_add(analysis::decode_trace_segment(segment).records.size(),
                        std::memory_order_relaxed);
    }
    segments.fetch_add(1, std::memory_order_relaxed);
  }
  void on_drop_notice(const transport::PeerInfo&,
                      const transport::DropNotice&) override {}
  std::atomic<std::size_t> segments{0};
  std::atomic<std::size_t> bytes{0};
  std::atomic<std::size_t> records{0};

 private:
  bool decode_;
};

struct RunResult {
  std::string name;
  double seconds{0};
  std::size_t wire_bytes{0};
  std::size_t records{0};
  double mb_per_sec() const {
    return static_cast<double>(wire_bytes) / 1e6 / seconds;
  }
  double records_per_sec() const {
    return static_cast<double>(records) / seconds;
  }
};

// One timed pass: fresh connection, handshake, stream every segment, wait
// for the daemon to finish framing them.  Best of `reps`.
RunResult run(std::string name, const std::string& listen_spec, bool decode,
              const std::vector<std::vector<std::uint8_t>>& segments,
              std::size_t total_records, std::size_t wire_bytes, int reps) {
  RunResult r;
  r.name = std::move(name);
  r.wire_bytes = wire_bytes;
  r.records = total_records;

  CountingSink sink(decode);
  transport::CollectorDaemon daemon({{listen_spec}}, sink);
  daemon.start();
  // Resolve the bound address once (TCP listens on an ephemeral port).
  const transport::EndpointAddress address = daemon.listen_addresses().front();

  transport::Handshake hello;
  hello.pid = static_cast<std::uint64_t>(::getpid());
  hello.process_name = "bench-publisher";
  hello.trace_format = analysis::kTraceFormatDefault;
  const auto handshake = transport::encode_handshake(hello);

  double best = 1e100;
  std::size_t done = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    transport::StreamEndpoint endpoint =
        transport::connect_endpoint(address, 1000);
    if (!endpoint.valid()) {
      std::fprintf(stderr, "FATAL: connect %s failed\n",
                   address.to_string().c_str());
      std::exit(1);
    }
    endpoint.set_blocking(true);
    bool ok = io_write_full(endpoint.fd(), handshake.data(), handshake.size());
    for (const auto& segment : segments) {
      if (!ok) break;
      ok = io_write_full(endpoint.fd(), segment.data(), segment.size());
    }
    // Half-close and wait for the daemon's EOF: the client never reads the
    // daemon's CWCT hello, and a bare close over it would reset the
    // connection and lose the segments the daemon has not read yet.
    endpoint.close_gracefully(
        std::chrono::milliseconds(kFramingDeadline).count());
    if (!ok) {
      std::fprintf(stderr, "FATAL: socket write failed\n");
      std::exit(1);
    }
    done += segments.size();
    const auto deadline = Clock::now() + kFramingDeadline;
    while (sink.segments.load(std::memory_order_relaxed) < done) {
      if (Clock::now() > deadline) {
        std::fprintf(stderr,
                     "FATAL: %s rep %d: daemon framed %zu of %zu segments "
                     "within %lld s\n",
                     r.name.c_str(), rep, sink.segments.load(), done,
                     static_cast<long long>(kFramingDeadline.count()));
        std::exit(1);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const auto t1 = Clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  daemon.stop();
  if (decode && sink.records.load() !=
                    total_records * static_cast<std::size_t>(reps)) {
    std::fprintf(stderr, "FATAL: %s decoded %zu of %zu records\n",
                 r.name.c_str(), sink.records.load(),
                 total_records * static_cast<std::size_t>(reps));
    std::exit(1);
  }
  r.seconds = best;
  return r;
}

void print_result(const RunResult& r) {
  std::printf("%-18s %10zu B | %7.3f s | %8.1f MB/s | %9.0f rec/s\n",
              r.name.c_str(), r.wire_bytes, r.seconds, r.mb_per_sec(),
              r.records_per_sec());
}

void write_json(const std::string& path, std::size_t cores,
                std::size_t records, std::size_t segments,
                std::size_t wire_bytes, const std::vector<RunResult>& runs) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n"
      << "  \"bench\": \"bench_transport\",\n"
      << "  \"hardware_concurrency\": " << cores << ",\n"
      << "  \"records\": " << records << ",\n"
      << "  \"segments\": " << segments << ",\n"
      << "  \"wire_bytes\": " << wire_bytes << ",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"seconds\": %.4f, "
                  "\"mb_per_sec\": %.1f, \"records_per_sec\": %.0f}%s\n",
                  runs[i].name.c_str(), runs[i].seconds, runs[i].mb_per_sec(),
                  runs[i].records_per_sec(),
                  i + 1 < runs.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_transport.json";
  std::size_t calls = 100'000;
  std::size_t segments = 64;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--calls=", 8) == 0) {
      calls = static_cast<std::size_t>(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--segments=", 11) == 0) {
      segments = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::atoll(argv[i] + 11)));
    }
  }

  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  // Synthesize once, chunk into epoch-sized bundles, pre-encode every
  // segment -- the publisher side is free so the daemon is the bottleneck.
  std::printf("synthesizing %zu calls...\n", calls);
  analysis::LogDatabase source(1);
  workload::LogSynthConfig config;
  config.total_calls = calls;
  workload::synthesize_logs(config, source);
  const auto& records = source.records();
  const std::size_t per_segment =
      std::max<std::size_t>(1, (records.size() + segments - 1) / segments);
  std::vector<std::vector<std::uint8_t>> encoded;
  std::size_t wire_bytes = 0;
  for (std::size_t off = 0; off < records.size(); off += per_segment) {
    monitor::CollectedLogs bundle;
    bundle.epoch = encoded.size() + 1;
    const std::size_t n = std::min(per_segment, records.size() - off);
    bundle.records.assign(records.begin() + static_cast<long>(off),
                          records.begin() + static_cast<long>(off + n));
    encoded.push_back(analysis::encode_trace(bundle));
    wire_bytes += encoded.back().size();
  }
  const std::string unix_spec =
      "unix:" + (std::filesystem::temp_directory_path() /
                 ("bench_transport_" + std::to_string(::getpid()) + ".sock"))
                    .string();
  std::printf(
      "=== collection stream: %zu records in %zu segments (%zu B), "
      "%zu cores ===\n\n",
      records.size(), encoded.size(), wire_bytes, cores);

  const int reps = 3;
  std::vector<RunResult> results;
  const struct {
    const char* label;
    std::string spec;
  } transports[] = {
      {"unix", unix_spec},
      {"tcp", "tcp:127.0.0.1:0"},
  };
  for (const auto& transport : transports) {
    results.push_back(run(std::string("frame/") + transport.label,
                          transport.spec, /*decode=*/false, encoded,
                          records.size(), wire_bytes, reps));
    print_result(results.back());
    results.push_back(run(std::string("frame+decode/") + transport.label,
                          transport.spec, /*decode=*/true, encoded,
                          records.size(), wire_bytes, reps));
    print_result(results.back());
  }

  write_json(json_path, cores, records.size(), encoded.size(), wire_bytes,
             results);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
