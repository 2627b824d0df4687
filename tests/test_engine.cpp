#include "dataflow/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "models/zoo.h"
#include "nn/reference.h"
#include "test_util.h"

namespace qnn {
namespace {

/// The central correctness claim: the streaming engine is bit-exact
/// against the golden layer-by-layer reference executor — under every
/// burst size.
void expect_engine_matches_reference(const NetworkSpec& spec,
                                     std::uint64_t seed, int images,
                                     EngineOptions opt = {}) {
  const Pipeline p = expand(spec);
  const NetworkParams params = NetworkParams::random(p, seed);
  const ReferenceExecutor ref(p, params);
  StreamEngine engine(p, params, opt);
  Rng rng(seed ^ 0xabcdef);
  std::vector<IntTensor> batch;
  batch.reserve(static_cast<std::size_t>(images));
  for (int i = 0; i < images; ++i) {
    batch.push_back(
        testutil::random_codes(spec.input, spec.input_bits, rng));
  }
  const auto outs = engine.run(batch);
  ASSERT_EQ(outs.size(), batch.size());
  for (int i = 0; i < images; ++i) {
    EXPECT_EQ(outs[static_cast<std::size_t>(i)],
              ref.run(batch[static_cast<std::size_t>(i)]))
        << spec.name << " image " << i;
  }
}

TEST(Engine, SingleConvMatchesReference) {
  NetworkSpec spec;
  spec.name = "conv_only";
  spec.input = Shape{6, 6, 3};
  spec.conv(4, 3, 1, 1, false);
  expect_engine_matches_reference(spec, 11, 3);
}

TEST(Engine, ConvBnActPoolChain) {
  NetworkSpec spec;
  spec.name = "chain";
  spec.input = Shape{8, 8, 3};
  spec.conv(8, 3, 1, 1).max_pool(2, 2).conv(4, 3, 1, 0).dense(5, false);
  expect_engine_matches_reference(spec, 12, 3);
}

TEST(Engine, StridedAndUnpaddedConvs) {
  NetworkSpec spec;
  spec.name = "strided";
  spec.input = Shape{11, 11, 2};
  spec.conv(6, 5, 2, 0).conv(4, 3, 1, 1).dense(3, false);
  expect_engine_matches_reference(spec, 13, 2);
}

TEST(Engine, ResidualIdentity) {
  NetworkSpec spec;
  spec.name = "res_id";
  spec.input = Shape{8, 8, 3};
  spec.conv(4, 3, 1, 1);
  spec.residual(4, 1);
  spec.avg_pool_global();
  spec.dense(3, false);
  expect_engine_matches_reference(spec, 14, 3);
}

TEST(Engine, ResidualDownsampleProjection) {
  NetworkSpec spec;
  spec.name = "res_down";
  spec.input = Shape{12, 12, 3};
  spec.conv(4, 3, 1, 1);
  spec.residual(8, 2);
  spec.residual(8, 1);
  spec.avg_pool_global();
  spec.dense(4, false);
  expect_engine_matches_reference(spec, 15, 2);
}

TEST(Engine, TinyModelEndToEnd) {
  expect_engine_matches_reference(models::tiny(12, 4, 2), 16, 4);
}

TEST(Engine, TinyModelOneBitActivations) {
  expect_engine_matches_reference(models::tiny(12, 4, 1), 17, 2);
}

TEST(Engine, TinyModelThreeBitActivations) {
  expect_engine_matches_reference(models::tiny(12, 4, 3), 18, 2);
}

TEST(Engine, VggLike16MatchesReference) {
  expect_engine_matches_reference(models::vgg_like(16, 10, 2), 19, 2);
}

TEST(Engine, RunOneReturnsSameAsBatch) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline p = expand(spec);
  const NetworkParams params = NetworkParams::random(p, 20);
  StreamEngine engine(p, params);
  Rng rng(21);
  const IntTensor img = testutil::random_image(12, 12, 3, rng);
  const IntTensor a = engine.run_one(img);
  const IntTensor b = engine.run_one(img);  // engine is reusable
  EXPECT_EQ(a, b);
}

TEST(Engine, StreamTrafficAccountsEveryEdge) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline p = expand(spec);
  const NetworkParams params = NetworkParams::random(p, 22);
  StreamEngine engine(p, params);
  Rng rng(23);
  (void)engine.run_one(testutil::random_image(12, 12, 3, rng));
  std::uint64_t total = 0;
  for (const auto& [name, pushed] : engine.stream_traffic()) {
    total += pushed;
  }
  // At minimum the input and output streams carried a full map each.
  EXPECT_GT(total, static_cast<std::uint64_t>(p.input.elems()));
}

TEST(Engine, RunStatsReportWallClockThroughput) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const NetworkParams params = NetworkParams::random(p, 26);
  StreamEngine engine(p, params);
  Rng rng(27);
  std::vector<IntTensor> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(testutil::random_image(12, 12, 3, rng));
  }
  StreamEngine::RunStats stats;
  const auto out = engine.run(batch, &stats);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.images_per_second, 0.0);
  EXPECT_NEAR(stats.images_per_second * stats.wall_seconds, 4.0, 1e-6);
  // values_streamed mirrors the sum over stream_traffic() so the serving
  // metrics can report pipeline utilization without re-walking streams.
  std::uint64_t traffic = 0;
  for (const auto& [name, pushed] : engine.stream_traffic()) {
    traffic += pushed;
  }
  EXPECT_EQ(stats.values_streamed, traffic);
  EXPECT_GT(stats.values_streamed,
            static_cast<std::uint64_t>(4 * p.input.elems()));
}

TEST(Engine, FinnCnvUnpaddedTopologyMatchesReference) {
  expect_engine_matches_reference(models::finn_cnv(10, 2), 28, 1);
}

TEST(Engine, RejectsWrongImageShape) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline p = expand(spec);
  const NetworkParams params = NetworkParams::random(p, 24);
  StreamEngine engine(p, params);
  EXPECT_THROW((void)engine.run_one(IntTensor(Shape{8, 8, 3})), Error);
}

// Every zoo-style topology must be bit-exact at both ends of the burst
// spectrum (1 = scalar transport).
TEST(EngineExecutors, BitExactAcrossExecutorAndBurstMatrix) {
  NetworkSpec res;
  res.name = "res_matrix";
  res.input = Shape{12, 12, 3};
  res.conv(4, 3, 1, 1);
  res.residual(8, 2);
  res.residual(8, 1);
  res.avg_pool_global();
  res.dense(4, false);

  const NetworkSpec specs[] = {models::tiny(12, 4, 2), res,
                               models::vgg_like(16, 10, 2),
                               models::finn_cnv(10, 2)};
  std::uint64_t seed = 31;
  for (const NetworkSpec& spec : specs) {
    for (const std::size_t burst : {std::size_t{1}, std::size_t{256}}) {
      EngineOptions opt;
      opt.burst = burst;
      SCOPED_TRACE(spec.name + " burst=" + std::to_string(burst));
      expect_engine_matches_reference(spec, seed++, 2, opt);
    }
  }
}

// Adaptive per-edge burst sizing is a transport decision, never a
// numerical one: the same zoo topologies must produce identical outputs
// with row-sized per-edge bursts and with uniform scalar transport
// (burst = 1, adaptive off).
TEST(EngineExecutors, AdaptiveBurstsBitExactWithScalarTransport) {
  NetworkSpec res;
  res.name = "res_adaptive";
  res.input = Shape{12, 12, 3};
  res.conv(4, 3, 1, 1);
  res.residual(8, 2);
  res.residual(8, 1);
  res.avg_pool_global();
  res.dense(4, false);

  const NetworkSpec specs[] = {models::tiny(12, 4, 2), res,
                               models::vgg_like(16, 10, 2),
                               models::finn_cnv(10, 2)};
  std::uint64_t seed = 71;
  for (const NetworkSpec& spec : specs) {
    const Pipeline p = expand(spec);
    const NetworkParams params = NetworkParams::random(p, seed);
    Rng rng(seed ^ 0xfeed);
    ++seed;
    std::vector<IntTensor> batch;
    for (int i = 0; i < 2; ++i) {
      batch.push_back(
          testutil::random_codes(spec.input, spec.input_bits, rng));
    }

    EngineOptions adaptive;  // defaults: adaptive per-edge bursts
    StreamEngine baseline(p, params, adaptive);
    const auto want = baseline.run(batch);

    EngineOptions scalar;
    scalar.burst = 1;
    scalar.adaptive_burst = false;
    StreamEngine engine(p, params, scalar);
    const auto got = engine.run(batch);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << spec.name << " image " << i;
    }
  }
}

// Regression for the reset-poisoning bug: a run that aborts (here via
// cancel(), which makes the feeder-side task throw) must leave the engine
// fully reusable — the next run starts from pristine streams and kernels
// and stays bit-exact.
TEST(EngineRecovery, RecoversAfterCancelledRunInEveryMode) {
  NetworkSpec res;
  res.name = "res_recover";
  res.input = Shape{12, 12, 3};
  res.conv(4, 3, 1, 1);
  res.residual(8, 2);
  res.avg_pool_global();
  res.dense(4, false);
  const NetworkSpec specs[] = {models::tiny(12, 4, 2), res};
  for (const NetworkSpec& spec : specs) {
    const Pipeline p = expand(spec);
    const NetworkParams params = NetworkParams::random(p, 29);
    for (const std::size_t burst : {std::size_t{1}, std::size_t{256}}) {
      SCOPED_TRACE(spec.name + " burst=" + std::to_string(burst));
      EngineOptions opt;
      opt.burst = burst;
      StreamEngine engine(p, params, opt);
      Rng rng(30);
      const IntTensor img = testutil::random_image(12, 12, 3, rng);
      const IntTensor good = engine.run_one(img);

      const std::vector<IntTensor> batch(64, img);
      std::atomic<bool> stop{false};
      // Hammer cancel() so the abort lands inside the run with certainty.
      std::thread canceller([&] {
        while (!stop.load()) {
          engine.cancel();
          std::this_thread::yield();
        }
      });
      EXPECT_THROW((void)engine.run(batch), Error);
      stop.store(true);
      canceller.join();

      EXPECT_EQ(engine.run_one(img), good);
    }
  }
}

// Satellite regression for stale stats across re-arm: RunStats of a rerun
// after cancel() must match a clean run exactly — Stream::reset() clears
// the pushed/transactions/stall counters along with the ring, so an
// aborted run's traffic never inflates the next run's numbers.
TEST(EngineRecovery, RunStatsPristineAfterCancelledRun) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const NetworkParams params = NetworkParams::random(p, 33);
  Rng rng(34);
  const IntTensor img = testutil::random_image(12, 12, 3, rng);

  // Clean engine: the expected per-run traffic.
  StreamEngine clean(p, params);
  StreamEngine::RunStats want;
  (void)clean.run(std::span<const IntTensor>(&img, 1), &want);

  StreamEngine engine(p, params);
  std::vector<IntTensor> batch;
  for (int i = 0; i < 64; ++i) batch.push_back(img);
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

  StreamEngine::RunStats got;
  const auto outs = engine.run(std::span<const IntTensor>(&img, 1), &got);
  ASSERT_EQ(outs.size(), 1u);
  // Deterministic counters must match a clean run exactly; the stall
  // counts are scheduling-dependent and only checked for sanity.
  EXPECT_EQ(got.values_streamed, want.values_streamed);
  EXPECT_EQ(got.faults_injected, 0u);
  EXPECT_GT(got.stream_transactions, 0u);
  EXPECT_LE(got.stream_transactions, got.values_streamed);
}

// Satellite regression: cancel() landing while ready-queue workers are
// PARKED. A tiny pipeline keeps few kernels runnable at once, so most of
// a pool as wide as the machine sits on the parking lot with ReadyHook
// bindings armed on the streams their tasks last blocked on; only RUNNING
// tasks poll the abort flag, so cancellation correctness rests on the
// executor's quiescence path waking every parker. The staggered delays
// land the cancel in different protocol states (feeder active, pipe
// draining, workers mostly parked); whichever state it hits, the run must
// either complete or throw — never hang — and the engine must re-arm
// bit-exactly.
TEST(EngineRecovery, CancelWakesParkedReadyQueueWorkers) {
  EngineOptions opt;
  opt.pool_threads = 8;  // clamped to the core count
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const NetworkParams params = NetworkParams::random(p, 41);
  StreamEngine engine(p, params, opt);
  Rng rng(42);
  const IntTensor img = testutil::random_image(12, 12, 3, rng);
  const IntTensor good = engine.run_one(img);

  const std::vector<IntTensor> batch(16, img);
  for (const int delay_us : {0, 50, 200, 800}) {
    std::thread canceller([&engine, delay_us] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      engine.cancel();
    });
    // A late cancel may miss the run entirely (it completes first); the
    // next run() clears the stale flag on entry. Both outcomes are legal —
    // the assertion is the rerun below.
    try {
      (void)engine.run(batch);
    } catch (const Error&) {
    }
    canceller.join();
    EXPECT_EQ(engine.run_one(img), good) << "delay " << delay_us << "us";
  }
}

TEST(Engine, KernelAndStreamCountsMatchTopology) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const NetworkParams params = NetworkParams::random(p, 25);
  StreamEngine engine(p, params);
  // One kernel per node plus one fork per fan-out point.
  int forks = 0;
  for (int i = 0; i < p.size(); ++i) {
    if (p.consumers(i).size() > 1) ++forks;
  }
  EXPECT_EQ(engine.kernel_count(), p.size() + forks);
}

}  // namespace
}  // namespace qnn
