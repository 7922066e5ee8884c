// The benchmark's own arithmetic: nearest-rank percentiles, open-loop
// lateness, the cumulative-count lag matcher and the span ledger.  Pure
// and header-only, so perfbench_selftest checks it without linking the
// system under test.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- percentiles ------------------------------------------------------

// 1-based nearest rank of percentile `tenths`/10 among n samples:
// ceil(p * n / 100), clamped to [1, n].  Integer arithmetic, so p90 of 100
// samples is rank 90 exactly (0.9 * 100 in floating point is not 90).
inline std::size_t nearest_rank(unsigned tenths, std::size_t n) {
  if (n == 0) return 0;
  const std::size_t rank = (static_cast<std::size_t>(tenths) * n + 999) / 1000;
  return std::clamp<std::size_t>(rank, 1, n);
}

struct Percentile {
  double value{0};
  std::size_t samples{0};
  std::size_t beyond{0};  // samples strictly above the chosen rank
};

// `tenths` is the percentile times ten (p50 = 500, p99 = 990).
inline Percentile percentile(std::vector<double> samples, unsigned tenths) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  const std::size_t rank = nearest_rank(tenths, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  return out;
}

// A percentile is reported only when at least this many samples lie
// beyond it; below that it is the maximum in disguise.
inline constexpr std::size_t kMinBeyond = 10;

inline bool supported(unsigned tenths, std::size_t n) {
  return n >= nearest_rank(tenths, n) + kMinBeyond;
}

// Smallest sample count at which percentile `tenths` is supported.
inline std::size_t min_samples_for(unsigned tenths) {
  std::size_t n = 1;
  while (!supported(tenths, n)) ++n;
  return n;
}

// A tail percentile that one bad second cannot move: samples are cut into
// consecutive windows by timestamp, each window with enough samples for the
// percentile (ten beyond it) yields its own, and the median of those is
// reported.  `at_ns` orders the samples; windows short of samples are left
// out.  Returns 0 when no window qualifies.
inline double windowed_percentile(const std::vector<std::int64_t>& at_ns,
                                  const std::vector<double>& values,
                                  std::int64_t window_ns, unsigned tenths) {
  std::vector<double> per_window;
  std::vector<double> current;
  std::int64_t window_end = 0;
  auto close = [&] {
    if (supported(tenths, current.size())) {
      per_window.push_back(percentile(current, tenths).value);
    }
    current.clear();
  };
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i == 0) window_end = at_ns[0] + window_ns;
    while (at_ns[i] >= window_end) {
      close();
      window_end += window_ns;
    }
    current.push_back(values[i]);
  }
  close();
  return percentile(per_window, 500).value;
}

// --- open-loop generator accounting ----------------------------------

// An open-loop generator owes request i at t0 + i * interval, whatever
// happened to request i - 1.  With one generator thread, request i is
// ready at max(due, end of request i - 1): until then the system itself
// held it up.  Its latency is that imposed wait plus its own service time,
// so a stall is charged to every request queued behind it; the rest of any
// delay, start - ready, is the generator's own lateness, reported apart.
struct OpenLoopSchedule {
  std::int64_t t0_ns{0};
  double interval_ns{0};
  std::int64_t due(std::size_t i) const {
    return t0_ns + static_cast<std::int64_t>(static_cast<double>(i) *
                                             interval_ns);
  }
};

struct OpenLoopSample {
  std::int64_t due_ns{0};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
};

struct OpenLoopTimes {
  std::vector<double> latency_ns;  // (ready - due) + (end - start)
  std::vector<double> late_ns;     // start - ready
};

inline OpenLoopTimes open_loop_times(const std::vector<OpenLoopSample>& run) {
  OpenLoopTimes out;
  std::int64_t previous_end = 0;
  for (const OpenLoopSample& s : run) {
    const std::int64_t ready = std::max(s.due_ns, previous_end);
    out.latency_ns.push_back(static_cast<double>((ready - s.due_ns) + (s.end_ns - s.start_ns)));
    out.late_ns.push_back(static_cast<double>(std::max<std::int64_t>(0, s.start_ns - ready)));
    previous_end = s.end_ns;
  }
  return out;
}

// --- ingest-lag matcher ----------------------------------------------

// A transaction's mark: when it returned, and how many records the
// monitored process had appended in total by then.
struct LagMark {
  std::int64_t end_ns{0};
  std::uint64_t cumulative{0};
};

// The collector side: after each sink callback, when it returned and how
// many records that peer has accounted for so far -- segment records plus
// records a drop notice reported lost.  Non-decreasing in both fields.
struct Coverage {
  std::int64_t at_ns{0};
  std::uint64_t cumulative{0};
};

// Lag per mark: time from the mark until the first coverage whose
// cumulative count reaches the mark's (-1 when none does).  Both inputs are
// in order, so one merge pass suffices.
inline std::vector<std::int64_t> match_lag(const std::vector<LagMark>& marks,
                                           const std::vector<Coverage>& cov) {
  std::vector<std::int64_t> lag(marks.size(), -1);
  std::size_t c = 0;
  for (std::size_t i = 0; i < marks.size(); ++i) {
    while (c < cov.size() && cov[c].cumulative < marks[i].cumulative) ++c;
    if (c == cov.size()) break;
    lag[i] = cov[c].at_ns - marks[i].end_ns;
  }
  return lag;
}

// --- spans ------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  int parent{-1};          // index into the span list, -1 for a root
  std::uint64_t id{0};     // segment or query id the span works for
  std::int64_t duration() const { return end_ns - start_ns; }
};

// Spans are kept in memory and written out once, after the run.  Several
// threads record (the daemon thread, the drain loop, the query client), so
// every access takes the lock; the cost is a few per segment or query.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int begin(std::string name, int parent, std::uint64_t id) {
    if (!enabled_) return -1;
    const std::int64_t t = now_ns();
    std::lock_guard lk(mutex_);
    spans_.push_back({std::move(name), t, t, parent, id});
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int index) {
    if (index < 0) return;
    const std::int64_t t = now_ns();
    std::lock_guard lk(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = t;
  }
  void rename(int index, std::string name) {
    if (index < 0) return;
    std::lock_guard lk(mutex_);
    spans_[static_cast<std::size_t>(index)].name = std::move(name);
  }
  std::vector<Span> spans() const {
    std::lock_guard lk(mutex_);
    return spans_;
  }

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, int parent = -1,
          std::uint64_t id = 0)
        : tracer_(tracer), index_(tracer.begin(std::move(name), parent, id)) {}
    ~Scope() { tracer_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int index() const { return index_; }

   private:
    Tracer& tracer_;
    int index_;
  };

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Self time of every span: its duration minus the time its direct
// children cover.  Children of one parent run on the parent's thread, one
// after another, so their durations add without overlap.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].duration();
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.duration();
  }
  return self;
}

// Durations of every span called `name`, in nanoseconds.
inline std::vector<double> durations(const std::vector<Span>& spans,
                                     const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(static_cast<double>(s.duration()));
  }
  return out;
}

inline double total(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

}  // namespace perfbench
