// The characterization report's ordering and fold contracts, checked
// against oracles built from plain strings: function rows sort like the
// string "iface::func", slowest-call rows like (latency descending, label
// "iface::func @process" ascending), and a report fed in epochs -- with
// trees re-folded as later epochs extend their chains -- equals the
// offline report.
#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/latency.h"
#include "analysis/pipeline.h"
#include "analysis/report.h"
#include "analysis_test_util.h"
#include "common/strings.h"

namespace causeway::analysis {
namespace {

using monitor::TraceRecord;
using testutil::Scribe;

// One top-level leaf call with zero probe cost, so L = latency exactly.
void call(Scribe& s, std::string_view iface, std::string_view fn, Nanos start,
          Nanos latency, std::string_view server = "procB") {
  const Nanos e = start + latency;
  const Nanos t[8] = {start, start, start, start, e, e, e, e};
  s.leaf_sync(iface, fn, t, "procA", server);
}

std::vector<TraceRecord> concat(std::vector<Scribe*> scribes) {
  std::vector<TraceRecord> out;
  for (Scribe* s : scribes) {
    out.insert(out.end(), s->records().begin(), s->records().end());
  }
  return out;
}

struct Offline {
  std::string report, summary;
};

Offline offline(std::span<const TraceRecord> records,
                const ReportOptions& options = {}) {
  LogDatabase db;
  db.ingest_records(records);
  Dscg dscg = Dscg::build(db);
  return {characterization_report(dscg, db, options), summary_json(dscg, db)};
}

// The text between `header` and the next section (or the end).
std::string section(const std::string& report, const std::string& header) {
  const auto begin = report.find(header);
  if (begin == std::string::npos) return {};
  const auto end = report.find("\n---", begin + header.size());
  return report.substr(begin, end == std::string::npos ? end : end - begin);
}

const std::string kSlowHeader =
    "\n--- slowest calls (end-to-end, overhead-corrected) ---\n";

// The slowest-calls section from every timed call, by plain string sort.
std::string expected_slowest(std::span<const TraceRecord> records,
                             std::size_t n) {
  LogDatabase db;
  db.ingest_records(records);
  Dscg dscg = Dscg::build(db);
  annotate_latency(dscg);
  std::vector<std::pair<Nanos, std::string>> calls;
  dscg.visit([&](const CallNode& node, int) {
    if (!node.latency) return;
    calls.emplace_back(*node.latency, std::string(node.interface_name) + "::" +
                                          std::string(node.function_name) +
                                          " @" +
                                          std::string(node.server_process()));
  });
  std::sort(calls.begin(), calls.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  if (n == 0 || calls.empty()) return {};
  std::string out = kSlowHeader;
  for (std::size_t i = 0; i < std::min(n, calls.size()); ++i) {
    out += strf("%10.1f us  %s\n", static_cast<double>(calls[i].first) / 1e3,
                calls[i].second.c_str());
  }
  return out;
}

// Names in the function table, in printed order.
std::vector<std::string> function_rows(const std::string& report) {
  const std::string table = section(report, "--- per function ---\n");
  std::vector<std::string> names;
  std::size_t line = table.find('\n', table.find('\n') + 1);  // skip headers
  while (line != std::string::npos && line + 1 < table.size()) {
    const std::size_t end = table.find(' ', line + 1);
    names.push_back(table.substr(line + 1, end - line - 1));
    line = table.find('\n', line + 1);
  }
  return names;
}

// "I1" sorts before "I" once "::" is appended ('1' < ':'), which a
// (iface, func) tuple order would get backwards; equal latencies fall back
// to the label, so the serving process breaks the tie.
TEST(ReportOrder, RowsSortLikeTheirPrintedLabels) {
  Scribe a, b, c;
  call(a, "I", "f", 0, 5000, "procC");
  call(a, "I1", "f", 10000, 7000);
  call(b, "I", "f", 0, 5000, "procB");
  call(b, "I", "f2", 10000, 5000);
  call(c, "I1", "g", 0, 5000);
  call(c, "I", "f", 10000, 5000, "procC");
  const auto records = concat({&a, &b, &c});

  const std::string report = offline(records).report;
  const std::vector<std::string> rows = function_rows(report);
  const std::vector<std::string> want = {"I1::f", "I1::g", "I::f", "I::f2"};
  EXPECT_EQ(rows, want);
  const std::set<std::string> sorted(rows.begin(), rows.end());
  EXPECT_TRUE(std::equal(rows.begin(), rows.end(), sorted.begin()));

  EXPECT_EQ(section(report, kSlowHeader), expected_slowest(records, 8));
  EXPECT_NE(report.find("       5.0 us  I1::g @procB\n"
                        "       5.0 us  I::f @procB\n"
                        "       5.0 us  I::f @procC\n"
                        "       5.0 us  I::f @procC\n"
                        "       5.0 us  I::f2 @procB\n"),
            std::string::npos);

  AnalysisPipeline pipeline;
  pipeline.ingest_records(a.records());
  pipeline.ingest_records(b.records());
  pipeline.ingest_records(c.records());
  EXPECT_EQ(pipeline.report(), report);
}

TEST(ReportSlowest, TiesAcrossTreesAndEveryTableSize) {
  // Four trees of two calls each; several latencies repeat across trees,
  // and one tree holds the two slowest calls.
  Scribe t1, t2, t3, t4;
  call(t1, "A", "x", 0, 9000);
  call(t1, "A", "y", 20000, 8000);
  call(t2, "A", "x", 0, 4000);
  call(t2, "B", "x", 10000, 8000);
  call(t3, "A", "y", 0, 8000);
  call(t3, "A", "x", 10000, 4000);
  call(t4, "C", "z", 0, 1000);
  call(t4, "A", "x", 10000, 4000, "procD");
  const auto records = concat({&t1, &t2, &t3, &t4});

  for (std::size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 9, 100}) {
    ReportOptions options;
    options.top_slowest = n;
    const std::string report = offline(records, options).report;
    EXPECT_EQ(section(report, kSlowHeader), expected_slowest(records, n))
        << "top_slowest=" << n;

    AnalysisPipeline pipeline;
    for (Scribe* s : {&t3, &t1, &t4, &t2}) {
      pipeline.ingest_records(s->records());
      (void)pipeline.report(options);
    }
    EXPECT_EQ(pipeline.report(options), report) << "top_slowest=" << n;
  }
}

// Later epochs extend chains that were already folded, including the one
// holding the slowest transaction: each extension subtracts that tree's
// root and re-folds it, and the critical path, slowest calls and summary
// must follow.
TEST(ReportRefold, ExtendedChainsMatchOffline) {
  Scribe slow, other, late;
  call(slow, "S", "first", 0, 9000);
  call(other, "O", "op", 0, 2000);
  call(other, "O", "op", 5000, 3000);
  call(slow, "S", "second", 20000, 12000);  // new slowest, same tree
  call(late, "L", "run", 0, 1000);
  call(other, "O", "big", 10000, 15000);  // the other tree takes the lead
  call(slow, "S", "third", 40000, 500);

  // Epochs cut mid-call and mid-chain, in emission order per chain.
  const std::vector<std::vector<TraceRecord>> epochs = {
      {slow.records().begin(), slow.records().begin() + 4},
      {other.records().begin(), other.records().begin() + 6},
      {slow.records().begin() + 4, slow.records().begin() + 6},
      {slow.records().begin() + 6, slow.records().begin() + 8},
      {other.records().begin() + 6, other.records().end()},
      {late.records().begin(), late.records().end()},
      {slow.records().begin() + 8, slow.records().end()},
  };
  AnalysisPipeline pipeline;
  std::vector<TraceRecord> seen;
  for (const auto& epoch : epochs) {
    pipeline.ingest_records(epoch);
    seen.insert(seen.end(), epoch.begin(), epoch.end());
    const Offline want = offline(seen);
    EXPECT_EQ(pipeline.report(), want.report);
    EXPECT_EQ(pipeline.summary(), want.summary);
  }
  const std::string report = pipeline.report();
  EXPECT_NE(report.find("--- critical path of the slowest transaction ---\n"
                        "O::big  total=15.0us"),
            std::string::npos);
  EXPECT_EQ(section(report, kSlowHeader), expected_slowest(seen, 8));
}

}  // namespace
}  // namespace causeway::analysis
