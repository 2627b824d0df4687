// Scheduler-level tests of the ready-queue work-stealing executor: deep
// chains across thread counts (including a request above the core count),
// cancel/reset under stealing, error propagation, and the rescue-sweep liveness backstop for
// kernels that bind no streams. All of these run under TSan via the
// `sanitize` label — the readiness protocol's happens-before chain
// (state CASes + deque mutexes) is exactly what TSan checks.
#include "dataflow/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "dataflow/engine.h"
#include "nn/reference.h"
#include "test_util.h"

namespace qnn {
namespace {

/// A straight pipeline of `convs` (conv + bnact) pairs: 2*convs + 1 nodes,
/// so convs >= 25 exceeds the 50-kernel depth where a round-robin sweep
/// wastes whole passes on the few runnable tasks.
NetworkSpec deep_chain(int convs) {
  NetworkSpec spec;
  spec.name = "deep_chain_" + std::to_string(convs);
  spec.input = Shape{8, 8, 2};
  for (int i = 0; i < convs; ++i) spec.conv(2, 3, 1, 1);
  spec.dense(3, false);
  return spec;
}

TEST(ReadyQueue, DeepChainBitExactAcrossThreadCounts) {
  const NetworkSpec spec = deep_chain(26);  // 53 kernels + feeder/collector
  const Pipeline p = expand(spec);
  ASSERT_GE(p.size(), 50);
  const NetworkParams params = NetworkParams::random(p, 41);
  const ReferenceExecutor ref(p, params);
  Rng rng(42);
  std::vector<IntTensor> batch;
  for (int i = 0; i < 2; ++i) {
    batch.push_back(testutil::random_codes(spec.input, spec.input_bits, rng));
  }
  std::vector<IntTensor> want;
  for (const IntTensor& img : batch) want.push_back(ref.run(img));

  // 8 exceeds the core count of most CI hosts: the executor clamps the
  // pool to the cores and must stay bit-exact doing so.
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    EngineOptions opt;
    opt.pool_threads = threads;
    StreamEngine engine(p, params, opt);
    const auto got = engine.run(batch);
    ASSERT_EQ(got.size(), want.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "threads=" << threads << " image " << i;
    }
  }
}

// Cancelling a deep multi-worker run lands the abort while tasks are
// mid-steal and mid-notify; the engine must recover to a pristine,
// bit-exact state — including the readiness bindings, which are torn
// down even when run() throws.
TEST(ReadyQueue, CancelUnderStealRecovers) {
  const NetworkSpec spec = deep_chain(26);
  const Pipeline p = expand(spec);
  const NetworkParams params = NetworkParams::random(p, 45);
  EngineOptions opt;
  opt.pool_threads = 4;
  StreamEngine engine(p, params, opt);
  Rng rng(46);
  const IntTensor img =
      testutil::random_codes(spec.input, spec.input_bits, rng);
  const IntTensor good = engine.run_one(img);

  for (int round = 0; round < 3; ++round) {
    std::vector<IntTensor> batch;
    for (int i = 0; i < 32; ++i) batch.push_back(img);
    std::atomic<bool> stop{false};
    std::thread canceller([&] {
      while (!stop.load()) {
        engine.cancel();
        std::this_thread::yield();
      }
    });
    EXPECT_THROW((void)engine.run(batch), Error);
    stop.store(true);
    canceller.join();
    EXPECT_EQ(engine.run_one(img), good) << "round " << round;
  }
}

// ---- direct Executor tests with synthetic tasks -------------------------

/// Counts steps and finishes after `limit`; binds no streams, so it only
/// runs when queued (seed or rescue sweep).
class CountingTask final : public Kernel {
 public:
  CountingTask(std::string name, int limit)
      : Kernel(std::move(name)), limit_(limit) {}

  StepResult step() override {
    return ++steps_ >= limit_ ? StepResult::kDone : StepResult::kProgress;
  }

  [[nodiscard]] int steps() const { return steps_; }

 private:
  int limit_;
  int steps_ = 0;
};

/// Blocked until a shared flag rises — and nothing ever wakes it, because
/// it binds no streams. Only the executor's rescue sweep can revive it.
class GatedTask final : public Kernel {
 public:
  GatedTask(std::string name, std::atomic<bool>& gate)
      : Kernel(std::move(name)), gate_(gate) {}

  StepResult step() override {
    return gate_.load(std::memory_order_acquire) ? StepResult::kDone
                                                 : StepResult::kBlocked;
  }

 private:
  std::atomic<bool>& gate_;
};

class ThrowingTask final : public Kernel {
 public:
  ThrowingTask(std::string name, int after)
      : Kernel(std::move(name)), after_(after) {}

  StepResult step() override {
    if (++steps_ >= after_) throw Error("synthetic task failure");
    return StepResult::kProgress;
  }

 private:
  int after_;
  int steps_ = 0;
};

/// Raises the gate after `limit` steps; models a producer whose effect is
/// invisible to the stream-wake seam.
class GateRaiserTask final : public Kernel {
 public:
  GateRaiserTask(std::string name, int limit, std::atomic<bool>& gate)
      : Kernel(std::move(name)), limit_(limit), gate_(gate) {}

  StepResult step() override {
    if (++steps_ >= limit_) {
      gate_.store(true, std::memory_order_release);
      return StepResult::kDone;
    }
    return StepResult::kProgress;
  }

 private:
  int limit_;
  std::atomic<bool>& gate_;
  int steps_ = 0;
};

TEST(ReadyQueue, UnboundKernelsAreRescuedWithoutWakes) {
  std::atomic<bool> gate{false};
  GatedTask consumer("gated", gate);
  GateRaiserTask producer("raiser", 100, gate);
  std::vector<Kernel*> tasks{&consumer, &producer};
  std::atomic<bool> abort{false};
  auto ex = make_ready_queue_executor(2);
  // Terminates only if the rescue sweep re-queues the gated task after
  // its (un-woken) kIdle parking; a lost task would hang here forever.
  ex->run(tasks, abort);
  EXPECT_TRUE(gate.load());
}

TEST(ReadyQueue, ManyTasksCompleteAcrossStealing) {
  std::vector<std::unique_ptr<CountingTask>> owned;
  std::vector<Kernel*> tasks;
  for (int i = 0; i < 64; ++i) {
    owned.push_back(std::make_unique<CountingTask>(
        "count_" + std::to_string(i), 50 + i));
    tasks.push_back(owned.back().get());
  }
  std::atomic<bool> abort{false};
  auto ex = make_ready_queue_executor(4);
  ex->run(tasks, abort);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(owned[i]->steps(), 50 + i);
}

TEST(ReadyQueue, TaskExceptionAbortsBlockedPeers) {
  std::atomic<bool> never{false};
  GatedTask stuck_a("stuck_a", never);
  GatedTask stuck_b("stuck_b", never);
  ThrowingTask thrower("thrower", 10);
  std::vector<Kernel*> tasks{&stuck_a, &thrower, &stuck_b};
  std::atomic<bool> abort{false};
  auto ex = make_ready_queue_executor(3);
  // The exception must abort the run (not hang on the stuck tasks) and
  // surface to the caller after all workers joined.
  EXPECT_THROW(ex->run(tasks, abort), Error);
  EXPECT_TRUE(abort.load());
}

TEST(ReadyQueue, ExternalAbortUnblocksParkedWorkers) {
  std::atomic<bool> never{false};
  GatedTask stuck("stuck", never);
  std::vector<Kernel*> tasks{&stuck};
  std::atomic<bool> abort{false};
  auto ex = make_ready_queue_executor(2);
  std::thread aborter([&abort] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    abort.store(true, std::memory_order_relaxed);
  });
  EXPECT_THROW(ex->run(tasks, abort), Error);  // "dataflow run aborted"
  aborter.join();
}

TEST(ReadyQueue, ZeroTasksIsANoOp) {
  std::atomic<bool> abort{false};
  auto ex = make_ready_queue_executor(2);
  ex->run({}, abort);
}

}  // namespace
}  // namespace qnn
