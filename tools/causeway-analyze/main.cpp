// causeway-analyze -- the stand-alone analyzer.
//
// Reads one or more trace files (from causeway-record or any embedding of
// analysis::write_trace_file) through the epoch-driven AnalysisPipeline and
// renders the requested artifact.  With --follow it tails a growing trace
// segment-by-segment instead: each complete segment becomes one pipeline
// epoch, a live summary line goes to stderr, anomaly events stream to the
// chosen sink, and the final render (identical to an offline run over the
// same bytes) is emitted when the tail goes quiet.
//
// Usage:
//   causeway-analyze <trace.cwt> [more.cwt ...]
//                    [--report | --summary | --text | --dot | --json |
//                     --ccsg | --html | --timeline | --timeline-csv | --diff]
//                    [--follow] [--poll-ms=N] [--idle-exit-ms=N]
//                    [--anomalies=stderr|jsonl:PATH|none]
//                    [--max-nodes=N] [--ingest-shards=N] [-o <file>]
//                    [--reindex]
//
// --ingest-shards pins the database's parallel-ingest shard count (default:
// CAUSEWAY_INGEST_SHARDS or hardware concurrency).  Output is byte-identical
// for every shard count -- the ctest suite enforces it.
//
// --reindex is a maintenance mode, not an analysis: each input trace that
// lacks a directory trailer (its writer crashed or never closed) is
// rewritten in place -- an incomplete trailing segment is truncated away and
// a proper trailer is appended -- so every future open gets the O(segments)
// footer path instead of the sequential skim.  Traces that already end in a
// valid trailer are left untouched.
//
// --reencode=PATH is a second maintenance mode: the (single, v4) input
// trace is decoded to column bundles and re-encoded segment-by-segment
// through the columnar writer into PATH.  The output is byte-identical to
// the input for any well-formed closed v4 trace -- ctest compares the files
// (tool_reencode_roundtrip_identical) to pin the writer's canonical bytes.
// --reencode-serial forces the serial per-segment loop (no WorkerPool), so
// the same comparison also pins worker-count invariance.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/anomaly.h"
#include "analysis/diff.h"
#include "analysis/dscg.h"
#include "analysis/export.h"
#include "analysis/pipeline.h"
#include "analysis/trace_io.h"
#include "common/version.h"
#include "store/store.h"

using namespace causeway;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: causeway-analyze <trace.cwt> [more.cwt ...]\n"
               "           [--report|--summary|--text|--dot|--json|--ccsg|"
               "--html|\n"
               "            --timeline|--timeline-csv|--diff]\n"
               "           [--follow] [--poll-ms=N] [--idle-exit-ms=N]\n"
               "           [--anomalies=stderr|jsonl:PATH|none]\n"
               "           [--max-nodes=N] [--ingest-shards=N] [-o <file>]\n"
               "           [--reindex] [--reencode=PATH [--reencode-serial]]"
               "\n");
  return 2;
}

std::string render(analysis::AnalysisPipeline& pipeline,
                   const std::string& format,
                   const analysis::ExportOptions& options) {
  if (format == "text") return pipeline.export_text(options);
  if (format == "dot") return pipeline.export_dot(options);
  if (format == "json") return pipeline.export_json(options);
  if (format == "ccsg") return pipeline.ccsg_xml();
  if (format == "html") return pipeline.export_html(options);
  if (format == "summary") return pipeline.summary() + "\n";
  if (format == "timeline") return pipeline.timeline_text();
  if (format == "timeline-csv") return pipeline.timeline_csv();
  return pipeline.report();
}

int emit(const std::string& rendered, const std::string& output) {
  if (output.empty()) {
    std::fputs(rendered.c_str(), stdout);
    return 0;
  }
  std::ofstream out(output);
  out << rendered;
  if (!out) {
    std::fprintf(stderr, "causeway-analyze: cannot write '%s'\n",
                 output.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu bytes to %s\n", rendered.size(),
               output.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string format = "report";
  std::string output;
  std::string anomalies = "none";
  std::size_t max_nodes = 0;
  std::size_t ingest_shards = 0;  // 0 = auto
  bool follow = false;
  bool reindex = false;
  std::string reencode;
  bool reencode_serial = false;
  std::uint64_t poll_ms = 200;
  std::uint64_t idle_exit_ms = 0;  // 0 = follow forever

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--report" || arg == "--text" || arg == "--dot" ||
        arg == "--json" || arg == "--ccsg" || arg == "--html" ||
        arg == "--summary" || arg == "--diff" || arg == "--timeline" ||
        arg == "--timeline-csv") {
      format = arg.substr(2);
    } else if (arg == "--follow") {
      follow = true;
    } else if (arg == "--version") {
      std::fputs(version_banner("causeway-analyze").c_str(), stdout);
      return 0;
    } else if (arg == "--reindex") {
      reindex = true;
    } else if (arg.rfind("--reencode=", 0) == 0) {
      reencode = arg.substr(11);
    } else if (arg == "--reencode-serial") {
      reencode_serial = true;
    } else if (arg.rfind("--poll-ms=", 0) == 0) {
      poll_ms = static_cast<std::uint64_t>(std::atoll(arg.c_str() + 10));
    } else if (arg.rfind("--idle-exit-ms=", 0) == 0) {
      idle_exit_ms = static_cast<std::uint64_t>(std::atoll(arg.c_str() + 15));
    } else if (arg.rfind("--anomalies=", 0) == 0) {
      anomalies = arg.substr(12);
    } else if (arg.rfind("--max-nodes=", 0) == 0) {
      max_nodes = static_cast<std::size_t>(std::atoll(arg.c_str() + 12));
    } else if (arg.rfind("--ingest-shards=", 0) == 0) {
      ingest_shards = static_cast<std::size_t>(std::atoll(arg.c_str() + 16));
    } else if (arg == "-o") {
      if (++i >= argc) return usage();
      output = argv[i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return usage();

  try {
    if (reindex) {
      int rc = 0;
      for (const auto& path : inputs) {
        try {
          if (store::is_store_directory(path)) {
            // A store directory: repair every trace file in it, seal a
            // leftover live file, and rebuild the catalog.
            const store::StoreReindexResult r = store::reindex_store(path);
            std::printf(
                "%s: store reindexed: %zu files indexed (%zu repaired%s%s), "
                "%llu tail bytes truncated, %zu stale catalog entries "
                "dropped%s\n",
                path.c_str(), r.files_indexed, r.files_repaired,
                r.sealed_current ? ", live file sealed" : "",
                r.used_checkpoint ? ", resumed from checkpoint" : "",
                static_cast<unsigned long long>(r.truncated_bytes),
                r.dropped_entries,
                r.catalog_rewritten ? "" : " -- catalog already consistent");
            continue;
          }
          const analysis::ReindexResult r =
              analysis::reindex_trace_file(path);
          if (r.rewritten) {
            std::printf(
                "%s: reindexed %zu segments (%llu incomplete tail bytes "
                "truncated%s)\n",
                path.c_str(), r.segments,
                static_cast<unsigned long long>(r.truncated_bytes),
                r.used_checkpoint ? ", resumed from checkpoint" : "");
          } else {
            std::printf("%s: already indexed (%zu segments), unchanged\n",
                        path.c_str(), r.segments);
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "causeway-analyze: %s: %s\n", path.c_str(),
                       e.what());
          rc = 1;
        }
      }
      return rc;
    }

    if (!reencode.empty()) {
      if (inputs.size() != 1) {
        std::fprintf(stderr,
                     "causeway-analyze --reencode wants exactly one trace\n");
        return 2;
      }
      std::ifstream in(inputs[0], std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "causeway-analyze: cannot open '%s'\n",
                     inputs[0].c_str());
        return 1;
      }
      const std::vector<std::uint8_t> bytes(
          (std::istreambuf_iterator<char>(in)),
          std::istreambuf_iterator<char>());
      const std::vector<analysis::ColumnBundle> bundles =
          analysis::decode_trace_columns(bytes);
      analysis::TraceWriter writer(reencode, analysis::kTraceFormatV4);
      if (reencode_serial) {
        // One column-native append per segment: the serial path the
        // parallel stream encode must byte-match.
        for (const analysis::ColumnBundle& cols : bundles) {
          writer.append(cols);
        }
      } else {
        const auto segments = analysis::encode_trace_columns_stream(bundles);
        for (const auto& segment : segments) {
          writer.append_encoded(segment);
        }
      }
      writer.close();
      std::size_t records = 0;
      for (const auto& cols : bundles) records += cols.count;
      std::fprintf(stderr, "%s: re-encoded %zu segments (%zu records) to %s\n",
                   inputs[0].c_str(), writer.segments(), records,
                   reencode.c_str());
      return 0;
    }

    if (format == "diff") {
      // --diff <baseline.cwt> <current.cwt>
      if (inputs.size() != 2) {
        std::fprintf(stderr,
                     "causeway-analyze --diff needs exactly two traces "
                     "(baseline, current)\n");
        return 2;
      }
      analysis::LogDatabase base_db(ingest_shards), cur_db(ingest_shards);
      analysis::read_trace_file(inputs[0], base_db);
      analysis::read_trace_file(inputs[1], cur_db);
      auto base = analysis::Dscg::build(base_db);
      auto cur = analysis::Dscg::build(cur_db);
      const auto diff = analysis::diff_runs(base, base_db, cur, cur_db);
      std::fputs(diff.to_string().c_str(), stdout);
      return diff.clean() ? 0 : 3;  // CI-friendly: nonzero on regression
    }

    analysis::AnalysisPipeline pipeline(ingest_shards);

    std::unique_ptr<analysis::AnomalySink> sink;
    if (anomalies == "stderr") {
      sink = std::make_unique<analysis::StderrAnomalySink>();
    } else if (anomalies.rfind("jsonl:", 0) == 0) {
      auto jsonl =
          std::make_unique<analysis::JsonlAnomalySink>(anomalies.substr(6));
      if (!jsonl->ok()) {
        std::fprintf(stderr, "causeway-analyze: cannot write '%s'\n",
                     anomalies.c_str() + 6);
        return 1;
      }
      sink = std::move(jsonl);
    } else if (anomalies != "none") {
      return usage();
    }
    if (sink) pipeline.add_sink(sink.get());

    analysis::ExportOptions options;
    options.max_nodes = max_nodes;

    if (follow) {
      if (inputs.size() != 1) {
        std::fprintf(stderr,
                     "causeway-analyze --follow tails exactly one trace\n");
        return 2;
      }
      analysis::TraceTail tail(inputs[0]);
      std::uint64_t idle_ms = 0;
      // First poll immediately; afterwards sleep poll_ms between polls.
      for (;;) {
        // poll(pipeline) hands each decoded segment straight to the
        // pipeline as one epoch -- no staging copy, no separate refresh.
        const std::size_t n = tail.poll(pipeline);
        if (n > 0) {
          idle_ms = 0;
          std::fprintf(stderr, "[follow] %s (segments=%zu, pending=%zu B)\n",
                       pipeline.live_summary().c_str(), tail.segments(),
                       tail.pending_bytes());
        } else {
          idle_ms += poll_ms;
          if (idle_exit_ms > 0 && idle_ms >= idle_exit_ms) break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
      }
      std::fprintf(stderr,
                   "[follow] idle for %llu ms, rendering final %s "
                   "(%zu segments, %llu bytes, %zu anomalies)\n",
                   static_cast<unsigned long long>(idle_ms), format.c_str(),
                   tail.segments(),
                   static_cast<unsigned long long>(tail.bytes_consumed()),
                   pipeline.anomaly_events());
      return emit(render(pipeline, format, options), output);
    }

    for (const auto& path : inputs) {
      const std::size_t n =
          analysis::read_trace_file(path, pipeline.database());
      std::fprintf(stderr, "loaded %zu records from %s\n", n, path.c_str());
      // One epoch per input file: exercises the incremental passes exactly
      // the way --follow does, and renders identically to a single batch.
      pipeline.refresh();
    }
    return emit(render(pipeline, format, options), output);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "causeway-analyze: %s\n", e.what());
    return 1;
  }
  return 0;
}
