// Trace-codec bench: encode/decode throughput and wire size, v3 (fixed
// 96-byte records) vs v4 (columnar delta/varint), on the E2 synthesizer's
// record stream chunked into epoch-sized segments like a streamed trace.
//
// Decode is timed on bytes written through TraceWriter -- so the v4 path
// exercises the directory trailer exactly as a real file read does.  Each
// row is timed on its own, best + median of reps, with throughput in
// records/s and wire GB/s.  The rows:
//
//   v3        encode_trace + decode_trace_segments, fixed-width records
//   v4rec     encode_trace_recmajor -- the frozen record-major writer
//             (byte-at-a-time varint loops), the baseline the 3x columnar
//             encode target is measured against; decode_trace_segments
//   v4        the columnar writer + decode_trace_segments (record-major
//             decode) -- kept so the long-running v4-vs-v3 trajectory stays
//             comparable, and the baseline for the column-decode speedup
//   v4col     the column-native pair: encode_trace_columns from decoded
//             ColumnBundles and decode_trace_columns -- what the
//             publisher/collectd pipeline path runs
//
// Every v4 encode row is byte-compared against the record-major reference
// before timing: a writer change that altered the wire bytes aborts the
// bench rather than reporting a meaningless speedup.
// Database ingest is excluded: it would dilute the codec comparison.
//
// Acceptance shape: v4 wire size >= 35% smaller than v3, v4 decode >= 2x
// v3 (multi-core only -- the 2x rides on the trailer fanning segments out
// across the WorkerPool), and v4 columnar encode >= 3x v4rec encode
// (single-threaded: column-gather gains, no parallelism involved).  The
// v4col-vs-v4 decode speedup is reported without a target.
// Emits BENCH_trace_io.json in the working directory (CI invokes every
// bench from the repo root, so artifacts land at a stable repo-root path);
// override with --json=PATH, shrink with --calls=N, change the segment
// count with --segments=N.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "analysis/trace_io.h"
#include "common/wire.h"
#include "workload/logsynth.h"

namespace {

using namespace causeway;
using Clock = std::chrono::steady_clock;

struct CodecResult {
  std::string name;
  std::size_t wire_bytes{0};
  double encode_seconds{0};         // best of reps
  double encode_seconds_median{0};  // median of reps
  double decode_seconds{0};         // best of reps
  double decode_seconds_median{0};  // median of reps
  std::size_t records{0};
  double encode_records_per_sec() const {
    return static_cast<double>(records) / encode_seconds;
  }
  double encode_mb_per_sec() const {
    return static_cast<double>(wire_bytes) / 1e6 / encode_seconds;
  }
  double encode_gb_per_sec() const { return encode_mb_per_sec() / 1e3; }
  double decode_records_per_sec() const {
    return static_cast<double>(records) / decode_seconds;
  }
  double decode_mb_per_sec() const {
    return static_cast<double>(wire_bytes) / 1e6 / decode_seconds;
  }
  double decode_gb_per_sec() const { return decode_mb_per_sec() / 1e3; }
};

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

enum class DecodePath { kRecords, kColumns };

// Times the decode of `bytes` (best + median of reps), filling r.decode_*.
void time_decode(CodecResult& r, const std::vector<std::uint8_t>& bytes,
                 std::size_t records, int reps, DecodePath path) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    std::size_t decoded = 0;
    const auto t0 = Clock::now();
    if (path == DecodePath::kColumns) {
      const auto staged = analysis::decode_trace_columns(bytes);
      for (const auto& cols : staged) decoded += cols.count;
    } else {
      const auto staged = analysis::decode_trace_segments(bytes);
      for (const auto& bundle : staged) decoded += bundle.records.size();
    }
    const auto t1 = Clock::now();
    times.push_back(std::chrono::duration<double>(t1 - t0).count());
    if (decoded != records) {
      std::fprintf(stderr, "FATAL: %s decoded %zu of %zu records\n",
                   r.name.c_str(), decoded, records);
      std::exit(1);
    }
  }
  std::sort(times.begin(), times.end());
  r.decode_seconds = times.front();
  r.decode_seconds_median = times[times.size() / 2];
}

// Times `encode_all` (which returns total bytes produced), best + median of
// reps, filling r.encode_*.
template <typename EncodeAll>
void time_encode(CodecResult& r, int reps, EncodeAll&& encode_all) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    const std::size_t produced = encode_all();
    const auto t1 = Clock::now();
    times.push_back(std::chrono::duration<double>(t1 - t0).count());
    if (produced == 0) std::exit(1);
  }
  std::sort(times.begin(), times.end());
  r.encode_seconds = times.front();
  r.encode_seconds_median = times[times.size() / 2];
}

// Materializes the on-disk byte stream once (untimed): TraceWriter output
// (directory trailer included), or -- with legacy_layout -- plain
// concatenated segments with no trailer, the shape every pre-v4 writer
// produced, so the v3 measurement exercises the sequential skim fallback a
// real legacy artifact forces on the reader.
std::vector<std::uint8_t> materialize_stream(
    const std::string& name, std::uint32_t version,
    const std::vector<monitor::CollectedLogs>& bundles, bool legacy_layout) {
  if (legacy_layout) {
    std::vector<std::uint8_t> bytes;
    for (const auto& bundle : bundles) {
      const auto segment = analysis::encode_trace(bundle, version);
      bytes.insert(bytes.end(), segment.begin(), segment.end());
    }
    return bytes;
  }
  const auto path = (std::filesystem::temp_directory_path() /
                     ("bench_trace_io_" + name + ".cwt"))
                        .string();
  {
    analysis::TraceWriter writer(path, version);
    for (const auto& bundle : bundles) writer.append(bundle);
    writer.close();
  }
  auto bytes = slurp(path);
  std::filesystem::remove(path);
  return bytes;
}

void print_result(const CodecResult& r) {
  std::printf(
      "%-8s %10zu B (%5.1f B/rec) | encode %7.3f s (med %7.3f) %9.0f rec/s "
      "%6.2f GB/s | decode %7.3f s (med %7.3f) %9.0f rec/s %6.2f GB/s\n",
      r.name.c_str(), r.wire_bytes,
      static_cast<double>(r.wire_bytes) / static_cast<double>(r.records),
      r.encode_seconds, r.encode_seconds_median, r.encode_records_per_sec(),
      r.encode_gb_per_sec(), r.decode_seconds, r.decode_seconds_median,
      r.decode_records_per_sec(), r.decode_gb_per_sec());
}

void write_json(const std::string& path, std::size_t cores,
                std::size_t records, std::size_t segments,
                const std::vector<CodecResult>& runs,
                double size_reduction_pct, double decode_speedup,
                double column_speedup, double encode_speedup, bool meets_size,
                bool meets_decode, bool decode_applicable, bool meets_encode) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  auto emit = [&](const CodecResult& r, const char* trailing) {
    char buf[768];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"wire_bytes\": %zu, "
                  "\"bytes_per_record\": %.2f, \"encode_seconds\": %.4f, "
                  "\"encode_seconds_median\": %.4f, "
                  "\"encode_records_per_sec\": %.0f, "
                  "\"encode_mb_per_sec\": %.1f, "
                  "\"encode_gb_per_sec\": %.3f, "
                  "\"decode_seconds\": %.4f, "
                  "\"decode_seconds_median\": %.4f, "
                  "\"decode_records_per_sec\": %.0f, "
                  "\"decode_mb_per_sec\": %.1f, "
                  "\"decode_gb_per_sec\": %.3f}%s\n",
                  r.name.c_str(), r.wire_bytes,
                  static_cast<double>(r.wire_bytes) /
                      static_cast<double>(r.records),
                  r.encode_seconds, r.encode_seconds_median,
                  r.encode_records_per_sec(), r.encode_mb_per_sec(),
                  r.encode_gb_per_sec(), r.decode_seconds,
                  r.decode_seconds_median, r.decode_records_per_sec(),
                  r.decode_mb_per_sec(), r.decode_gb_per_sec(), trailing);
    out << buf;
  };
  out << "{\n"
      << "  \"bench\": \"bench_trace_io\",\n"
      << "  \"hardware_concurrency\": " << cores << ",\n"
      << "  \"varint_kernel\": \""
      << to_string(active_varint_kernel()) << "\",\n"
      << "  \"records\": " << records << ",\n"
      << "  \"segments\": " << segments << ",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    emit(runs[i], i + 1 < runs.size() ? "," : "");
  }
  char tail[640];
  std::snprintf(tail, sizeof tail,
                "  ],\n  \"v4_size_reduction_pct\": %.1f,\n"
                "  \"v4_decode_speedup\": %.2f,\n"
                "  \"v4_column_decode_speedup_vs_record_major\": %.2f,\n"
                "  \"v4_column_encode_speedup_vs_recmajor\": %.2f,\n"
                "  \"meets_35pct_size_target\": %s,\n"
                "  \"target_2x_decode_applicable\": %s,\n"
                "  \"meets_2x_decode_target\": %s,\n"
                "  \"meets_3x_column_encode_target\": %s\n}\n",
                size_reduction_pct, decode_speedup, column_speedup,
                encode_speedup, meets_size ? "true" : "false",
                decode_applicable ? "true" : "false",
                meets_decode ? "true" : "false",
                meets_encode ? "true" : "false");
  out << tail;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_trace_io.json";
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

  // Synthesize the stream once (the source database owns the interned
  // strings), then chunk it into epoch-sized bundles like a streamed run.
  std::printf("synthesizing %zu calls...\n", calls);
  analysis::LogDatabase source(1);
  workload::LogSynthConfig config;
  config.total_calls = calls;
  workload::synthesize_logs(config, source);
  const auto& records = source.records();
  const std::size_t per_segment =
      std::max<std::size_t>(1, (records.size() + segments - 1) / segments);
  std::vector<monitor::CollectedLogs> bundles;
  for (std::size_t off = 0; off < records.size(); off += per_segment) {
    monitor::CollectedLogs bundle;
    bundle.epoch = bundles.size() + 1;
    const std::size_t n = std::min(per_segment, records.size() - off);
    bundle.records.assign(records.begin() + static_cast<long>(off),
                          records.begin() + static_cast<long>(off + n));
    bundles.push_back(std::move(bundle));
  }
  std::printf(
      "=== trace codec: %zu records in %zu segments, %zu cores ===\n\n",
      records.size(), bundles.size(), cores);

  const int reps = 5;
  std::vector<CodecResult> runs(4);

  // Per-segment encoders as timing closures (each re-encodes the full
  // stream serially, so encode rows compare codec work, not parallelism).
  auto encode_v3_all = [&] {
    std::size_t produced = 0;
    for (const auto& b : bundles) {
      produced += analysis::encode_trace(b, analysis::kTraceFormatV3).size();
    }
    return produced;
  };
  auto encode_recmajor_all = [&] {
    std::size_t produced = 0;
    for (const auto& b : bundles) {
      produced +=
          analysis::encode_trace_recmajor(b, analysis::kTraceFormatV4).size();
    }
    return produced;
  };
  auto encode_columnar_all = [&] {
    std::size_t produced = 0;
    for (const auto& b : bundles) {
      produced += analysis::encode_trace(b, analysis::kTraceFormatV4).size();
    }
    return produced;
  };

  CodecResult& v3 = runs[0];
  v3.name = "v3";
  v3.records = records.size();
  const auto v3_bytes = materialize_stream("v3", analysis::kTraceFormatV3,
                                           bundles, /*legacy_layout=*/true);
  v3.wire_bytes = v3_bytes.size();
  time_encode(v3, reps, encode_v3_all);
  time_decode(v3, v3_bytes, records.size(), reps, DecodePath::kRecords);
  print_result(v3);

  const auto v4_bytes = materialize_stream("v4", analysis::kTraceFormatV4,
                                           bundles, /*legacy_layout=*/false);

  // Byte-identity gate: the columnar writer and the frozen record-major
  // reference must agree on every segment before any speedup is reported.
  for (const auto& bundle : bundles) {
    if (analysis::encode_trace(bundle, analysis::kTraceFormatV4) !=
        analysis::encode_trace_recmajor(bundle, analysis::kTraceFormatV4)) {
      std::fprintf(stderr,
                   "FATAL: columnar v4 encode diverged from the record-major "
                   "reference\n");
      return 1;
    }
  }

  CodecResult& v4rec = runs[1];
  v4rec.name = "v4rec";
  v4rec.records = records.size();
  v4rec.wire_bytes = v4_bytes.size();
  time_encode(v4rec, reps, encode_recmajor_all);
  time_decode(v4rec, v4_bytes, records.size(), reps, DecodePath::kRecords);
  print_result(v4rec);

  CodecResult& v4 = runs[2];
  v4.name = "v4";
  v4.records = records.size();
  v4.wire_bytes = v4_bytes.size();
  time_encode(v4, reps, encode_columnar_all);
  time_decode(v4, v4_bytes, records.size(), reps, DecodePath::kRecords);
  print_result(v4);

  // The column-native pair: encode straight from decoded ColumnBundles
  // (the publisher/collectd path -- no record-major gather at all).
  CodecResult& v4col = runs[3];
  v4col.name = "v4col";
  v4col.records = records.size();
  v4col.wire_bytes = v4_bytes.size();
  const std::vector<analysis::ColumnBundle> column_bundles =
      analysis::decode_trace_columns(v4_bytes);
  time_encode(v4col, reps, [&] {
    std::size_t produced = 0;
    for (const auto& cols : column_bundles) {
      produced += analysis::encode_trace_columns(cols).size();
    }
    return produced;
  });
  time_decode(v4col, v4_bytes, records.size(), reps, DecodePath::kColumns);
  print_result(v4col);

  const double reduction =
      100.0 * (1.0 - static_cast<double>(v4.wire_bytes) /
                         static_cast<double>(v3.wire_bytes));
  const double speedup = v3.decode_seconds / v4.decode_seconds;
  const double column_speedup = v4.decode_seconds / v4col.decode_seconds;
  const double encode_speedup = v4rec.encode_seconds / v4.encode_seconds;
  const bool meets_size = reduction >= 35.0;
  const bool meets_decode = speedup >= 2.0;
  const bool meets_encode = encode_speedup >= 3.0;
  // The 2x claim is about the directory trailer fanning segment decode out
  // across cores; a single-threaded host cannot express it (see header).
  // The 3x encode claim is single-threaded by construction.
  const bool decode_applicable = cores >= 2;
  std::printf("\nv4 vs v3: %.1f%% smaller (35%% target %s), decode %.2fx "
              "(2x target %s%s)\n",
              reduction, meets_size ? "MET" : "NOT met", speedup,
              meets_decode ? "MET" : "NOT met",
              decode_applicable ? "" : "; n/a on 1 hardware thread");
  std::printf("v4col vs v4 record-major: decode %.2fx, %.2f GB/s\n",
              column_speedup, v4col.decode_gb_per_sec());
  std::printf("v4 columnar encode vs v4rec record-major: %.2fx "
              "(3x target %s), %.2f GB/s\n",
              encode_speedup, meets_encode ? "MET" : "NOT met",
              v4.encode_gb_per_sec());

  write_json(json_path, cores, records.size(), bundles.size(), runs,
             reduction, speedup, column_speedup, encode_speedup, meets_size,
             meets_decode, decode_applicable, meets_encode);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
