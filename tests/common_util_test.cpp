#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "common/clock.h"
#include "common/cpu.h"
#include "common/queue.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/work.h"
#include "common/worker_pool.h"

namespace causeway {
namespace {

TEST(Clock, SteadyIsMonotonic) {
  Nanos last = steady_now_ns();
  for (int i = 0; i < 1000; ++i) {
    const Nanos now = steady_now_ns();
    EXPECT_GE(now, last);
    last = now;
  }
}

TEST(Clock, DomainAppliesSkew) {
  const ClockDomain base;
  const ClockDomain skewed(3600 * kNanosPerSecond, 0.0);
  const Nanos a = base.now();
  const Nanos b = skewed.now();
  EXPECT_GT(b - a, 3599 * kNanosPerSecond);
}

TEST(Clock, DomainDriftScalesElapsedTime) {
  // Two readings through a heavily drifting domain grow faster than through
  // an undrifting one.
  const ClockDomain fast(0, 100000.0);  // +10%
  const Nanos w0 = steady_now_ns();
  const Nanos f0 = fast.now();
  idle_for(20 * kNanosPerMilli);
  const Nanos w1 = steady_now_ns();
  const Nanos f1 = fast.now();
  const double ratio =
      static_cast<double>(f1 - f0) / static_cast<double>(w1 - w0);
  EXPECT_GT(ratio, 1.05);
  EXPECT_LT(ratio, 1.15);
}

TEST(Cpu, ThreadCpuIsMonotonic) {
  Nanos last = thread_cpu_now_ns();
  for (int i = 0; i < 100; ++i) {
    churn(static_cast<std::uint64_t>(i), 1000);
    const Nanos now = thread_cpu_now_ns();
    EXPECT_GE(now, last);
    last = now;
  }
}

TEST(Cpu, SleepBurnsNoCpu) {
  const Nanos c0 = thread_cpu_now_ns();
  idle_for(30 * kNanosPerMilli);
  const Nanos c1 = thread_cpu_now_ns();
  EXPECT_LT(c1 - c0, 10 * kNanosPerMilli);
}

TEST(Work, BurnCpuConsumesRequestedAmount) {
  const Nanos want = 5 * kNanosPerMilli;
  const Nanos c0 = thread_cpu_now_ns();
  burn_cpu(want);
  const Nanos got = thread_cpu_now_ns() - c0;
  EXPECT_GE(got, want);
  EXPECT_LT(got, want * 3);  // loose: scheduling noise on a busy host
}

TEST(Work, BurnCpuZeroOrNegativeIsNoop) {
  const Nanos c0 = thread_cpu_now_ns();
  burn_cpu(0);
  burn_cpu(-100);
  EXPECT_LT(thread_cpu_now_ns() - c0, kNanosPerMilli);
}

TEST(Work, ChurnIsDeterministic) {
  EXPECT_EQ(churn(1, 100), churn(1, 100));
  EXPECT_NE(churn(1, 100), churn(2, 100));
  EXPECT_NE(churn(1, 100), churn(1, 101));
}

TEST(Queue, FifoOrder) {
  BlockingQueue<int> q;
  for (int i = 0; i < 100; ++i) q.push(i);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(q.pop(), i);
}

TEST(Queue, CloseDrainsThenReturnsNull) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(Queue, PopBlocksUntilPush) {
  BlockingQueue<int> q;
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    EXPECT_EQ(q.pop(), 42);
    got = true;
  });
  idle_for(5 * kNanosPerMilli);
  EXPECT_FALSE(got.load());
  q.push(42);
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(Queue, ManyProducersManyConsumers) {
  BlockingQueue<int> q;
  constexpr int kProducers = 4, kPerProducer = 500;
  std::atomic<long> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; ++i) {
    consumers.emplace_back([&] {
      while (auto v = q.pop()) {
        sum += *v;
        ++count;
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  const long n = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(WorkerPool, BackToBackSmallJobsRunEveryIndexOnce) {
  // Two items, three helpers: most helpers wake after the job is done.  A
  // late waker must skip the job, never run a stale `fn` -- each call's
  // function object lives on this frame only for that call, so a stale
  // call would show up as a use-after-scope under ASan.
  WorkerPool pool(3);
  for (int call = 0; call < 10'000; ++call) {
    std::atomic<int> hits[2] = {0, 0};
    pool.parallel_for(2, [&hits](std::size_t i) { hits[i].fetch_add(1); });
    ASSERT_EQ(hits[0].load(), 1) << "call " << call;
    ASSERT_EQ(hits[1].load(), 1) << "call " << call;
  }
}

TEST(WorkerPool, RethrowsTheItemException) {
  WorkerPool pool(3);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(64, [&ran](std::size_t i) {
      ran.fetch_add(1);
      if (i == 17) throw std::runtime_error("item 17");
    });
    FAIL() << "the item's exception must reach the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "item 17");
  }
  EXPECT_EQ(ran.load(), 64);  // the other items still ran
  // When several items throw, exactly one exception is rethrown, and the
  // pool stays usable afterwards.
  EXPECT_THROW(pool.parallel_for(
                   8, [](std::size_t) { throw std::runtime_error("all"); }),
               std::runtime_error);
  std::atomic<int> after{0};
  pool.parallel_for(8, [&after](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(WorkerPool, SingleAndEmptyJobsRunInline) {
  WorkerPool pool(3);
  std::thread::id ran_on;
  std::size_t index = 99;
  pool.parallel_for(1, [&](std::size_t i) {
    ran_on = std::this_thread::get_id();
    index = i;
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(index, 0u);
  bool called = false;
  pool.parallel_for(0, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Rng, Deterministic) {
  Xoshiro256 a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  bool differs = false;
  Xoshiro256 a2(7);
  for (int i = 0; i < 100; ++i) differs |= (a2.next() != c.next());
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const auto v = rng.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.real01();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Xoshiro256 rng(11);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Strings, Strf) {
  EXPECT_EQ(strf("x=%d y=%s", 5, "abc"), "x=5 y=abc");
  EXPECT_EQ(strf("%s", ""), "");
  EXPECT_EQ(strf("%08x", 0x1au), "0000001a");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"a"}, ","), "a");
  EXPECT_EQ(join({"a", "b", "c"}, "::"), "a::b::c");
}

TEST(Strings, XmlEscape) {
  EXPECT_EQ(xml_escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
  EXPECT_EQ(xml_escape("plain"), "plain");
}

TEST(Strings, JsonEscape) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

}  // namespace
}  // namespace causeway
