// Self-tests for the benchmark's own arithmetic (ledger.h): nearest-rank
// percentiles and the ten-beyond rule, open-loop lateness accounting, the
// cumulative-count lag matcher, and span self time.  Exit code 0 when
// every check holds.
#include <cstdio>

#include "ledger.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentiles() {
  using perfbench::percentile;
  check(percentile(one_to(100), 900).value == 90, "p90 of 1..100 is 90");
  check(percentile(one_to(100), 900).beyond == 10, "p90 of 100 has 10 beyond");
  check(percentile(one_to(100), 500).value == 50, "p50 of 1..100 is 50");
  check(percentile(one_to(10), 990).value == 10, "p99 of 10 samples is the max");
  check(percentile(one_to(1000), 990).value == 990, "p99 of 1..1000 is 990");
  check(percentile(one_to(7), 500).value == 4, "p50 of 1..7 is 4");
  check(percentile(one_to(1), 500).value == 1, "p50 of one sample");
  check(percentile({}, 500).samples == 0, "empty input reports no samples");
  check(percentile(one_to(37), 500).samples == 37, "sample count is reported");
  check(perfbench::nearest_rank(900, 101) == 91, "rank of p90 in 101 rounds up");
  check(perfbench::supported(900, 100), "p90 of 100 samples is supported");
  check(!perfbench::supported(900, 99), "p90 of 99 samples is not");
  check(perfbench::min_samples_for(900) == 100, "p90 needs 100 samples");
  check(perfbench::min_samples_for(990) == 1000, "p99 needs 1000 samples");
  check(perfbench::min_samples_for(500) == 20, "p50 needs 20 samples");
}

void windowed() {
  // Three one-second windows of 100 samples each; the middle one is bad.
  std::vector<std::int64_t> at;
  std::vector<double> v;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 100; ++i) {
      at.push_back(w * 1'000'000'000LL + i * 1'000'000LL);
      v.push_back(w == 1 ? 1000.0 * i : i);
    }
  }
  check(perfbench::windowed_percentile(at, v, 1'000'000'000LL, 900) == 90,
        "median of window p90s ignores the one bad window");
  // A window too short for its p90 is left out.
  at.push_back(3'500'000'000LL);
  v.push_back(1e9);
  check(perfbench::windowed_percentile(at, v, 1'000'000'000LL, 900) == 90,
        "a window without ten samples beyond is left out");
  check(perfbench::windowed_percentile({}, {}, 1'000'000'000LL, 990) == 0,
        "no samples, no windows");
}

void lateness() {
  const perfbench::OpenLoopSchedule s{1000, 250.0};
  check(s.due(0) == 1000 && s.due(4) == 2000, "due times step by the interval");
  // Request 0 stalls for 700 ns; requests 1 and 2 queue behind it.  Request
  // 3 finds the system idle but the generator starts it 100 ns late.
  const std::vector<perfbench::OpenLoopSample> run = {
      {s.due(0), 1000, 1700}, {s.due(1), 1700, 1750}, {s.due(2), 1750, 1800},
      {s.due(4), 2100, 2150}};
  const auto t = perfbench::open_loop_times(run);
  check(t.latency_ns[0] == 700 && t.late_ns[0] == 0, "on-time stall");
  check(t.latency_ns[1] == 500, "a request behind a stall is charged the wait");
  check(t.late_ns[1] == 0, "waiting behind the system is not generator lateness");
  check(t.latency_ns[2] == 300, "so is the next one");
  check(t.latency_ns[3] == 50, "the generator's own lateness is not latency");
  check(t.late_ns[3] == 100, "it is reported as lateness");
}

void lag() {
  using perfbench::Coverage;
  using perfbench::LagMark;
  // Transactions of 10 records each; segments cover 25, 40 and 60.
  const std::vector<LagMark> marks = {{100, 10}, {200, 20}, {300, 30},
                                      {400, 40}, {500, 50}, {600, 60}};
  const std::vector<Coverage> cov = {{250, 25}, {450, 40}, {900, 60}};
  const auto lag = perfbench::match_lag(marks, cov);
  check(lag[0] == 150 && lag[1] == 50, "both early transactions ride segment 1");
  check(lag[2] == 150 && lag[3] == 50, "exact reach counts as covered");
  check(lag[4] == 400 && lag[5] == 300, "last segment covers the tail");
  // A drop notice adds its records to the count without a segment: the
  // transactions it lost are covered by the notice's arrival.
  const std::vector<Coverage> with_drop = {{250, 25}, {300, 45}, {900, 60}};
  const auto dropped = perfbench::match_lag(marks, with_drop);
  check(dropped[3] == -100, "coverage arriving before the mark is negative lag");
  check(dropped[4] == 400, "after a drop notice later records still match");
  const auto short_cov = perfbench::match_lag(marks, {{250, 25}});
  check(short_cov[2] == -1 && short_cov[5] == -1, "uncovered marks are -1");
}

void spans() {
  using perfbench::Span;
  const std::vector<Span> s = {{"root", 0, 100, -1, 1},
                               {"a", 10, 40, 0, 1},
                               {"b", 40, 90, 0, 1},
                               {"b.inner", 50, 60, 2, 1}};
  const auto self = perfbench::self_times(s);
  check(self[0] == 20, "root self time excludes its children");
  check(self[2] == 40, "child self time excludes grandchildren");
  check(self[3] == 10, "leaf self time is its duration");
  perfbench::Tracer off(false);
  check(off.begin("x", -1, 0) == -1 && off.spans().empty(), "disabled tracer records nothing");
  perfbench::Tracer on(true);
  {
    perfbench::Tracer::Scope root(on, "root", -1, 7);
    perfbench::Tracer::Scope child(on, "child", root.index(), 7);
  }
  const auto got = on.spans();
  check(got.size() == 2 && got[1].parent == 0 && got[1].id == 7, "scopes nest");
  check(got[0].end_ns >= got[1].end_ns, "parent closes after child");
}

}  // namespace

int main() {
  percentiles();
  windowed();
  lateness();
  lag();
  spans();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
