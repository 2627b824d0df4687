#include "dataflow/stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "drive.h"

namespace qnn {
namespace {

TEST(Stream, FifoOrderSingleThread) {
  Stream s(16, 8, "t");
  for (std::int32_t i = 0; i < 10; ++i) testutil::push(s, i);
  s.close();
  std::int32_t v;
  for (std::int32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(testutil::pop(s, v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(testutil::pop(s, v));
}

TEST(Stream, CloseWithPendingValuesDrains) {
  Stream s(8, 8, "t");
  testutil::push(s, 1);
  testutil::push(s, 2);
  s.close();
  std::int32_t v;
  EXPECT_TRUE(testutil::pop(s, v));
  EXPECT_TRUE(testutil::pop(s, v));
  EXPECT_FALSE(testutil::pop(s, v));
  EXPECT_FALSE(testutil::pop(s, v));  // stays closed
}

TEST(Stream, ProducerConsumerLargeVolume) {
  Stream s(64, 16, "pc");
  const std::int64_t n = 200000;
  std::int64_t consumer_sum = 0;
  std::thread consumer([&] {
    std::int32_t v;
    std::int32_t expect = 0;
    while (testutil::pop(s, v)) {
      ASSERT_EQ(v, expect++);  // order preserved under contention
      consumer_sum += v;
    }
  });
  for (std::int32_t i = 0; i < n; ++i) testutil::push(s, i);
  s.close();
  consumer.join();
  EXPECT_EQ(consumer_sum, n * (n - 1) / 2);
  EXPECT_EQ(s.pushed(), static_cast<std::uint64_t>(n));
}

TEST(Stream, BackpressureBlocksProducerUntilPopped) {
  Stream s(2, 8, "bp");
  testutil::push(s, 1);
  testutil::push(s, 2);
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    testutil::push(s, 3);  // must block until a pop frees space
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());
  std::int32_t v;
  ASSERT_TRUE(testutil::pop(s, v));
  producer.join();
  EXPECT_TRUE(third_pushed.load());
}

TEST(Stream, MetadataAccessors) {
  Stream s(10, 16, "meta");
  EXPECT_EQ(s.bits(), 16);
  EXPECT_EQ(s.name(), "meta");
  EXPECT_FALSE(s.closed());
  s.close();
  EXPECT_TRUE(s.closed());
}

TEST(Stream, RejectsBadConfig) {
  EXPECT_THROW(Stream(0, 8, "x"), Error);
  EXPECT_THROW(Stream(4, 0, "x"), Error);
  EXPECT_THROW(Stream(4, 64, "x"), Error);
}

TEST(Stream, ResetReArmsAfterAbandonedRun) {
  // Regression: reset() used to QNN_CHECK(head_ == tail_), so a stream
  // holding values from an aborted run poisoned the engine permanently.
  Stream s(8, 8, "reset");
  testutil::push(s, 1);
  testutil::push(s, 2);
  s.close();
  s.reset();
  EXPECT_FALSE(s.closed());
  EXPECT_EQ(s.pushed(), 0u);
  EXPECT_EQ(s.transactions(), 0u);
  EXPECT_EQ(s.push_stalls(), 0u);
  testutil::push(s, 7);
  s.close();
  std::int32_t v = 0;
  EXPECT_TRUE(testutil::pop(s, v));
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(testutil::pop(s, v));
}

TEST(StreamBurst, BurstRoundTripKeepsOrder) {
  Stream s(64, 8, "burst");
  std::vector<std::int32_t> in(40);
  std::iota(in.begin(), in.end(), 100);
  testutil::push(s, in);
  s.close();
  std::vector<std::int32_t> out(64);
  const std::size_t n = testutil::pop(s, out);
  EXPECT_EQ(n, in.size());
  EXPECT_TRUE(std::equal(in.begin(), in.end(), out.begin()));
  EXPECT_EQ(testutil::pop(s, out), 0u);  // closed and drained
}

TEST(StreamBurst, TransactionsCountRingTransfersNotValues) {
  Stream s(64, 8, "tx");
  std::vector<std::int32_t> vs(10);
  std::iota(vs.begin(), vs.end(), 0);
  testutil::push(s, vs);  // fits entirely: one ring transaction
  EXPECT_EQ(s.pushed(), 10u);
  EXPECT_EQ(s.transactions(), 1u);
  testutil::push(s, 42);  // scalar = degenerate burst of one
  EXPECT_EQ(s.pushed(), 11u);
  EXPECT_EQ(s.transactions(), 2u);
}

TEST(StreamBurst, TryPushRespectsCapacityAndReportsPartial) {
  Stream s(8, 8, "cap");
  std::vector<std::int32_t> vs(12);
  std::iota(vs.begin(), vs.end(), 0);
  EXPECT_EQ(s.try_push_burst(vs), 8u);  // capacity honored exactly
  EXPECT_EQ(s.try_push_burst(std::span<const std::int32_t>(vs).subspan(8)),
            0u);
  std::vector<std::int32_t> out(3);
  EXPECT_EQ(s.try_pop_burst(out), 3u);
  EXPECT_EQ(out, (std::vector<std::int32_t>{0, 1, 2}));
  EXPECT_EQ(s.try_push_burst(std::span<const std::int32_t>(vs).subspan(8)),
            3u);  // freed space, wrap-around segment
}

// Property test: any interleaving of scalar and burst push/pop of random
// sizes is FIFO across capacities, including tiny rings that wrap
// thousands of times.
TEST(StreamBurst, InterleavedScalarAndBurstPreserveFifoOrder) {
  std::mt19937 rng(0xB0057u);
  for (const std::size_t cap : {1u, 2u, 3u, 5u, 8u, 17u, 64u}) {
    Stream s(cap, 8, "prop");
    const std::int32_t total = 4000;
    std::int32_t next_in = 0;   // next value to produce
    std::int32_t next_out = 0;  // next value expected by the consumer
    std::vector<std::int32_t> chunk;
    std::vector<std::int32_t> out(2 * cap + 8);
    while (next_out < total) {
      const std::size_t used = static_cast<std::size_t>(next_in - next_out);
      // Producer action: scalar push when there is room, else a burst of
      // random size (possibly exceeding free space — partial transfer).
      if (next_in < total) {
        if (rng() % 3 == 0 && used < cap) {
          testutil::push(s, next_in++);
        } else {
          chunk.clear();
          const std::size_t want = rng() % 7;
          for (std::size_t i = 0;
               i < want && next_in + static_cast<std::int32_t>(i) < total;
               ++i) {
            chunk.push_back(next_in + static_cast<std::int32_t>(i));
          }
          next_in +=
              static_cast<std::int32_t>(s.try_push_burst(chunk));
        }
      }
      // Consumer action: scalar pop when a value is ready, else a burst.
      if (rng() % 3 == 0 && next_in > next_out) {
        std::int32_t v = -1;
        ASSERT_TRUE(testutil::pop(s, v));
        ASSERT_EQ(v, next_out++) << "cap " << cap;
      } else {
        const std::size_t want = rng() % (out.size() - 1) + 1;
        const std::size_t n =
            s.try_pop_burst(std::span<std::int32_t>(out).first(want));
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], next_out++) << "cap " << cap;
        }
      }
    }
    EXPECT_EQ(s.pushed(), static_cast<std::uint64_t>(total));
    EXPECT_LE(s.transactions(), s.pushed());
  }
}

// Two-thread stress: producer and consumer move bursts of varying size
// through a small ring concurrently. Run under -DQNN_SANITIZE=thread this
// validates the acquire/release pairing of the burst fast path.
TEST(StreamBurst, TwoThreadBurstStressKeepsSequence) {
  Stream s(37, 16, "stress");
  const std::int32_t total = 200000;
  std::thread consumer([&] {
    std::vector<std::int32_t> buf(61);
    std::int32_t expect = 0;
    std::size_t want = 1;
    for (;;) {
      const std::size_t n =
          testutil::pop(s, std::span<std::int32_t>(buf).first(want));
      if (n == 0) break;  // closed and drained
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(buf[i], expect++);
      }
      want = want % buf.size() + 1;
    }
    EXPECT_EQ(expect, total);
  });
  std::vector<std::int32_t> vs(total);
  std::iota(vs.begin(), vs.end(), 0);
  std::span<const std::int32_t> rest(vs);
  std::size_t len = 1;
  while (!rest.empty()) {
    const std::size_t n = std::min(len, rest.size());
    testutil::push(s, rest.first(n));
    rest = rest.subspan(n);
    len = len % 97 + 1;
  }
  s.close();
  consumer.join();
  EXPECT_EQ(s.pushed(), static_cast<std::uint64_t>(total));
  EXPECT_LT(s.transactions(), s.pushed());  // bursts actually coalesced
}

// Satellite regression: reset() must return the *counters* to the
// freshly constructed state too, so RunStats of a rerun after cancel()
// never report the aborted run's traffic.
TEST(Stream, ResetClearsTrafficAndStallCounters) {
  Stream s(4, 8, "counters");
  std::int32_t buf[4] = {};
  const std::int32_t vs[] = {1, 2, 3};
  ASSERT_EQ(s.try_push_burst(vs), 3u);
  ASSERT_EQ(s.try_pop_burst({buf, 2}), 2u);
  s.note_push_stall();
  s.note_pop_stall();
  ASSERT_GT(s.pushed(), 0u);
  ASSERT_GT(s.transactions(), 0u);

  s.reset();
  EXPECT_EQ(s.pushed(), 0u);
  EXPECT_EQ(s.transactions(), 0u);
  EXPECT_EQ(s.push_stalls(), 0u);
  EXPECT_EQ(s.pop_stalls(), 0u);
  EXPECT_FALSE(s.closed());
}

// ---- readiness seam (ReadyHook) -----------------------------------------

/// Records every wake; readiness-protocol semantics (spurious tolerance,
/// per-transaction firing) are documented on ReadyHook in stream.h.
class RecordingHook final : public ReadyHook {
 public:
  void wake(int task) override { wakes_.push_back(task); }
  [[nodiscard]] const std::vector<int>& wakes() const { return wakes_; }
  void clear() { wakes_.clear(); }

 private:
  std::vector<int> wakes_;
};

TEST(StreamReadiness, PushWakesConsumerPopWakesProducer) {
  Stream s(8, 8, "ready");
  RecordingHook hook;
  s.bind_consumer(&hook, 7);
  s.bind_producer(&hook, 3);

  // Every successful push transaction wakes the consumer — level-based,
  // not just the empty->nonempty edge (see ReadyHook's lost-wakeup note).
  const std::int32_t two[] = {1, 2};
  const std::int32_t one[] = {3};
  ASSERT_EQ(s.try_push_burst(two), 2u);
  ASSERT_EQ(s.try_push_burst(one), 1u);
  EXPECT_EQ(hook.wakes(), (std::vector<int>{7, 7}));

  hook.clear();
  std::int32_t buf[4] = {};
  ASSERT_EQ(s.try_pop_burst({buf, 2}), 2u);
  EXPECT_EQ(hook.wakes(), (std::vector<int>{3}));
}

TEST(StreamReadiness, FailedTransactionsDoNotWake) {
  Stream s(2, 8, "ready_fail");
  RecordingHook hook;
  s.bind_consumer(&hook, 1);
  s.bind_producer(&hook, 2);

  const std::int32_t two[] = {1, 2};
  const std::int32_t one[] = {3};
  ASSERT_EQ(s.try_push_burst(two), 2u);  // fills the ring
  hook.clear();
  ASSERT_EQ(s.try_push_burst(one), 0u);  // full: no transaction, no wake
  std::int32_t buf[1];
  ASSERT_EQ(s.try_pop_burst({buf, 1}), 1u);
  ASSERT_EQ(s.try_pop_burst({buf, 1}), 1u);
  hook.clear();
  ASSERT_EQ(s.try_pop_burst({buf, 1}), 0u);  // empty: no wake either
  EXPECT_TRUE(hook.wakes().empty());
}

TEST(StreamReadiness, CloseWakesConsumerSoDrainedIsObserved) {
  Stream s(4, 8, "ready_close");
  RecordingHook hook;
  s.bind_consumer(&hook, 5);
  s.close();
  // A consumer blocked on an empty stream learns about end-of-stream only
  // through this wake: no further push will ever arrive.
  EXPECT_EQ(hook.wakes(), (std::vector<int>{5}));
}

TEST(StreamReadiness, UnbindSilencesTheSeam) {
  Stream s(4, 8, "ready_unbind");
  RecordingHook hook;
  s.bind_consumer(&hook, 1);
  s.bind_producer(&hook, 2);
  s.bind_consumer(nullptr, -1);
  s.bind_producer(nullptr, -1);
  const std::int32_t one[] = {1};
  ASSERT_EQ(s.try_push_burst(one), 1u);
  std::int32_t v = 0;
  ASSERT_EQ(s.try_pop_burst({&v, 1}), 1u);
  s.close();
  EXPECT_TRUE(hook.wakes().empty());
}

// Satellite regression: the engine resets every stream between runs while
// the ready-queue executor's hook bindings are still in place (bound once
// before workers start, cleared after they join). reset() must neither
// drop the binding nor leave the ring in a state where the next run's
// first transaction fails to fire the wake — either defect turns the rerun
// after cancel() into a lost wakeup against a parked worker.
TEST(StreamReadiness, ResetKeepsHookBindingsAndWakeContractArmed) {
  Stream s(4, 8, "reset_hooked");
  RecordingHook hook;
  s.bind_consumer(&hook, 7);
  s.bind_producer(&hook, 3);

  // Abandoned run: values stranded in flight, stream closed.
  const std::int32_t vs[] = {1, 2, 3};
  ASSERT_EQ(s.try_push_burst(vs), 3u);
  s.close();
  hook.clear();

  s.reset();
  EXPECT_FALSE(s.closed());
  EXPECT_TRUE(hook.wakes().empty());  // reset itself is not a transaction

  // Next run: the very first push still wakes the consumer task...
  testutil::push(s, 42);
  EXPECT_EQ(hook.wakes(), (std::vector<int>{7}));
  hook.clear();
  // ...the stale values are gone (FIFO re-armed, not merely reopened)...
  std::int32_t v = 0;
  ASSERT_TRUE(testutil::pop(s, v));
  EXPECT_EQ(v, 42);
  // ...and the pop woke the producer side, close wakes the consumer.
  EXPECT_EQ(hook.wakes(), (std::vector<int>{3}));
  hook.clear();
  s.close();
  EXPECT_EQ(hook.wakes(), (std::vector<int>{7}));
}

}  // namespace
}  // namespace qnn
