// Unit tests of the individual dataflow kernels, driven through raw
// streams (no engine), including protocol-violation failure injection.
#include "dataflow/kernels.h"

#include <gtest/gtest.h>

#include <optional>
#include <thread>

#include "core/simd/vec_ops.h"
#include "drive.h"
#include "nn/reference.h"
#include "test_util.h"

namespace qnn {
namespace {

Node conv_node(Shape in, int out_c, int k, int stride, int pad,
               int in_bits) {
  Node n;
  n.kind = NodeKind::Conv;
  n.name = "conv_t";
  n.in = in;
  n.out = conv_out_shape(in, out_c, k, stride, pad);
  n.in_bits = in_bits;
  n.out_bits = preact_bits(static_cast<std::int64_t>(k) * k * in.c, in_bits);
  n.k = k;
  n.stride = stride;
  n.pad = pad;
  n.param = 0;
  return n;
}

/// Push a whole tensor depth-first, then optionally close.
void feed(Stream& s, const IntTensor& t, bool close) {
  testutil::push(s, t.flat());
  if (close) s.close();
}

std::vector<std::int32_t> drain(Stream& s) {
  std::vector<std::int32_t> out;
  std::int32_t v;
  while (testutil::pop(s, v)) out.push_back(v);
  return out;
}

TEST(ConvKernelTest, AllPlusOneFilterComputesWindowSums) {
  const Shape in{4, 4, 1};
  const Node n = conv_node(in, 1, 2, 1, 0, 4);
  WeightTensor w(FilterShape{1, 2, 1});
  for (auto& x : w.raw()) x = 1.0f;
  const FilterBank fb = FilterBank::binarize(w);

  Stream sin(64, 4, "in");
  Stream sout(64, 16, "out");
  ConvKernel kernel(n, fb, sin, sout);

  IntTensor img(in);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) img.at(y, x, 0) = y * 4 + x;
  }
  std::thread feeder([&] { feed(sin, img, true); });
  testutil::drive(kernel);
  feeder.join();
  const auto out = drain(sout);
  ASSERT_EQ(out.size(), 9u);  // 3x3 output positions
  EXPECT_EQ(out[0], 0 + 1 + 4 + 5);
  EXPECT_EQ(out[4], 5 + 6 + 9 + 10);
  EXPECT_EQ(out[8], 10 + 11 + 14 + 15);
}

TEST(ConvKernelTest, EmitsAllFiltersPerPosition) {
  const Shape in{2, 2, 2};
  const Node n = conv_node(in, 3, 2, 1, 0, 2);
  Rng rng(5);
  const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
  Stream sin(32, 2, "in");
  Stream sout(32, 8, "out");
  ConvKernel kernel(n, fb, sin, sout);
  IntTensor img = testutil::random_codes(in, 2, rng);
  std::thread feeder([&] { feed(sin, img, true); });
  testutil::drive(kernel);
  feeder.join();
  const auto out = drain(sout);
  ASSERT_EQ(out.size(), 3u);  // one position, three filters
  for (int o = 0; o < 3; ++o) {
    std::int32_t expect = 0;
    for (int dy = 0; dy < 2; ++dy) {
      for (int dx = 0; dx < 2; ++dx) {
        for (int ci = 0; ci < 2; ++ci) {
          expect += fb.signed_weight(o, dy, dx, ci) * img.at(dy, dx, ci);
        }
      }
    }
    EXPECT_EQ(out[static_cast<std::size_t>(o)], expect) << "filter " << o;
  }
}

TEST(ConvKernelTest, ProcessesMultipleImagesBackToBack) {
  const Shape in{3, 3, 1};
  const Node n = conv_node(in, 1, 3, 1, 0, 4);
  WeightTensor w(FilterShape{1, 3, 1});
  for (auto& x : w.raw()) x = 1.0f;
  const FilterBank fb = FilterBank::binarize(w);
  Stream sin(64, 4, "in");
  Stream sout(64, 16, "out");
  ConvKernel kernel(n, fb, sin, sout);
  IntTensor a(in, 1);  // all ones: window sum = 9
  IntTensor b(in, 2);  // all twos: window sum = 18
  std::thread feeder([&] {
    feed(sin, a, false);
    feed(sin, b, true);
  });
  testutil::drive(kernel);
  feeder.join();
  const auto out = drain(sout);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(out[1], 18);
}

TEST(ConvKernelTest, ClosedMidImageIsProtocolError) {
  const Shape in{3, 3, 1};
  const Node n = conv_node(in, 1, 3, 1, 0, 4);
  Rng rng(6);
  const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
  Stream sin(64, 4, "in");
  Stream sout(64, 16, "out");
  ConvKernel kernel(n, fb, sin, sout);
  std::thread feeder([&] {
    for (int i = 0; i < 4; ++i) testutil::push(sin, 1);  // 4 of 9 values
    sin.close();
  });
  EXPECT_THROW(testutil::drive(kernel), Error);
  feeder.join();
}

TEST(PoolKernelTest, MaxAndSumReductions) {
  Node n;
  n.kind = NodeKind::MaxPool;
  n.name = "pool_t";
  n.in = Shape{2, 2, 2};
  n.out = Shape{1, 1, 2};
  n.in_bits = n.out_bits = 4;
  n.k = 2;
  n.stride = 2;
  n.pad = 0;

  Stream sin(32, 4, "in");
  Stream sout(32, 4, "out");
  PoolKernel kernel(n, sin, sout);
  IntTensor img(n.in);
  img.at(0, 0, 0) = 3;
  img.at(0, 1, 0) = 7;
  img.at(1, 0, 0) = 1;
  img.at(1, 1, 0) = 5;
  img.at(0, 0, 1) = 2;
  img.at(0, 1, 1) = 2;
  img.at(1, 0, 1) = 9;
  img.at(1, 1, 1) = 4;
  std::thread feeder([&] { feed(sin, img, true); });
  testutil::drive(kernel);
  feeder.join();
  const auto out = drain(sout);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[1], 9);

  // Same geometry as an average (window-sum) pool.
  n.kind = NodeKind::AvgPool;
  n.out_bits = 6;
  Stream sin2(32, 4, "in2");
  Stream sout2(32, 6, "out2");
  PoolKernel sum_kernel(n, sin2, sout2);
  std::thread feeder2([&] { feed(sin2, img, true); });
  testutil::drive(sum_kernel);
  feeder2.join();
  const auto sums = drain(sout2);
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_EQ(sums[0], 3 + 7 + 1 + 5);
  EXPECT_EQ(sums[1], 2 + 2 + 9 + 4);
}

TEST(PoolKernelTest, AsymmetricPaddingRegression) {
  // k=2, stride=2, pad=1 on a 3x3 map: every window sees a different
  // amount of padding (3 pad values at the top-left corner, 2 on edges,
  // 0 at the interior position). Pins the channel-contiguous reduction to
  // a plain per-window reference, bit-exactly, for max and sum pooling.
  Node n;
  n.kind = NodeKind::MaxPool;
  n.name = "pool_asym";
  n.in = Shape{3, 3, 2};
  n.out = Shape{2, 2, 2};
  n.in_bits = n.out_bits = 6;
  n.k = 2;
  n.stride = 2;
  n.pad = 1;

  IntTensor img(n.in);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) {
      for (int c = 0; c < 2; ++c) img.at(y, x, c) = y * 16 + x * 4 + c + 1;
    }
  }
  // Reference: reduce each (possibly padded) window directly.
  std::vector<std::int32_t> expect_max;
  std::vector<std::int32_t> expect_sum;
  for (int oy = 0; oy < 2; ++oy) {
    for (int ox = 0; ox < 2; ++ox) {
      for (int c = 0; c < 2; ++c) {
        std::int32_t best = 0;
        std::int32_t sum = 0;
        for (int dy = 0; dy < 2; ++dy) {
          for (int dx = 0; dx < 2; ++dx) {
            const int y = oy * 2 + dy - 1;
            const int x = ox * 2 + dx - 1;
            const std::int32_t v =
                (y >= 0 && y < 3 && x >= 0 && x < 3) ? img.at(y, x, c) : 0;
            best = std::max(best, v);
            sum += v;
          }
        }
        expect_max.push_back(best);
        expect_sum.push_back(sum);
      }
    }
  }

  Stream sin(64, 6, "in");
  Stream sout(64, 6, "out");
  PoolKernel max_kernel(n, sin, sout);
  std::thread feeder([&] { feed(sin, img, true); });
  testutil::drive(max_kernel);
  feeder.join();
  EXPECT_EQ(drain(sout), expect_max);

  n.kind = NodeKind::AvgPool;
  n.out_bits = 8;
  Stream sin2(64, 6, "in2");
  Stream sout2(64, 8, "out2");
  PoolKernel sum_kernel(n, sin2, sout2);
  std::thread feeder2([&] { feed(sin2, img, true); });
  testutil::drive(sum_kernel);
  feeder2.join();
  EXPECT_EQ(drain(sout2), expect_sum);
}

/// One pooling layer as expand() lowers it from a PoolBlockSpec.
Pipeline pool_pipeline(Shape in, int bits, const PoolBlockSpec& block) {
  NetworkSpec spec;
  spec.name = "pool_eq";
  spec.input = in;
  spec.input_bits = bits;
  spec.blocks.push_back(block);
  return expand(spec);
}

/// Stream `images` back to back through a PoolKernel on one thread,
/// handing it exactly `burst` values at a time (the chunks run across
/// image boundaries whenever `burst` does not divide the image) and
/// stepping it until it has consumed each chunk.
std::vector<std::int32_t> run_pool(const Node& n,
                                   const std::vector<IntTensor>& images,
                                   std::size_t burst) {
  std::vector<std::int32_t> flat;
  for (const IntTensor& img : images) {
    flat.insert(flat.end(), img.flat().begin(), img.flat().end());
  }
  Stream sin(std::max<std::size_t>(burst, 64), n.in_bits, "in");
  Stream sout(1 << 16, n.out_bits, "out");
  PoolKernel kernel(n, sin, sout);
  std::vector<std::int32_t> out;
  std::vector<std::int32_t> sink(4096);
  std::size_t fed = 0;
  for (;;) {
    if (fed < flat.size()) {
      const auto chunk = std::span<const std::int32_t>(flat).subspan(
          fed, std::min(burst, flat.size() - fed));
      EXPECT_EQ(sin.try_push_burst(chunk), chunk.size());
      fed += chunk.size();
      if (fed == flat.size()) sin.close();
    }
    StepResult r = StepResult::kProgress;
    while (r == StepResult::kProgress) {
      r = kernel.step_checked();
      for (std::size_t got; (got = sout.try_pop_burst(sink)) > 0;) {
        out.insert(out.end(), sink.begin(),
                   sink.begin() + static_cast<std::ptrdiff_t>(got));
      }
    }
    if (r == StepResult::kDone) return out;
  }
}

/// Restores the process-wide SIMD selector after each test.
class PoolEqualityTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::set_level(std::nullopt); }
};

TEST_F(PoolEqualityTest, MatchesReferenceOnEveryGeometryBurstAndLevel) {
  struct Case {
    const char* name;
    Shape in;
    PoolBlockSpec block;
  };
  const PoolKind kinds[] = {PoolKind::Max, PoolKind::Avg};
  std::vector<Case> cases;
  for (const PoolKind kind : kinds) {
    for (const int c : {3, 17}) {
      cases.push_back({"resnet 3x3 s2 p1", {13, 12, c}, {kind, 3, 2, 1}});
      cases.push_back({"alexnet 3x3 s2 p0", {13, 11, c}, {kind, 3, 2, 0}});
      cases.push_back({"2x2 s2", {8, 10, c}, {kind, 2, 2, 0}});
      cases.push_back({"stride > k", {11, 10, c}, {kind, 2, 3, 0}});
      cases.push_back({"k = 1", {5, 6, c}, {kind, 1, 1, 0}});
      cases.push_back({"k = 1 s2 p1", {5, 6, c}, {kind, 1, 2, 1}});
      cases.push_back({"pad > k - 1", {6, 7, c}, {kind, 2, 1, 2}});
    }
  }
  cases.push_back({"avgpool_46 (global 7x7x512)",
                   {7, 7, 512},
                   {PoolKind::Avg, 0, 1, 0, true}});
  cases.push_back(
      {"resnet 3x3 s2 p1, C = 64", {9, 9, 64}, {PoolKind::Max, 3, 2, 1}});

  Rng rng(77);
  for (const Case& tc : cases) {
    const int bits = 8;
    const Pipeline p = pool_pipeline(tc.in, bits, tc.block);
    ASSERT_EQ(p.size(), 1);
    const Node& n = p.node(0);
    const NetworkParams params = NetworkParams::random(p, 1);
    const ReferenceExecutor ref(p, params);
    std::vector<IntTensor> images;
    std::vector<std::int32_t> want;
    for (int i = 0; i < 3; ++i) {
      images.push_back(testutil::random_codes(tc.in, bits, rng));
      const IntTensor o = ref.run(images.back());
      want.insert(want.end(), o.flat().begin(), o.flat().end());
    }
    const auto row = static_cast<std::size_t>(tc.in.w) *
                     static_cast<std::size_t>(tc.in.c);
    for (const simd::Level level : simd::available_levels()) {
      simd::set_level(level);
      for (const std::size_t burst : {std::size_t{1}, std::size_t{37}, row}) {
        EXPECT_EQ(run_pool(n, images, burst), want)
            << tc.name << (tc.block.kind == PoolKind::Max ? " max" : " avg")
            << ", C = " << tc.in.c << ", burst " << burst << ", "
            << simd::level_name(level);
      }
    }
  }
}

TEST(BnActKernelTest, PerChannelThresholdsInDepthFirstOrder) {
  Node n;
  n.kind = NodeKind::BnAct;
  n.name = "bnact_t";
  n.in = n.out = Shape{1, 2, 2};
  n.in_bits = 8;
  n.out_bits = 2;
  n.param = 0;

  // Channel 0: identity BatchNorm, d=2 (codes 0..3 at 2,4,6).
  // Channel 1: negated BatchNorm.
  BnLayerParams bn(2);
  bn.at(1).gamma = -1.0f;
  const ActQuantizer q(2, 2.0);
  const ThresholdLayer thresholds = ThresholdLayer::fold(bn, q);

  Stream sin(32, 8, "in");
  Stream sout(32, 2, "out");
  BnActKernel kernel(n, thresholds, sin, sout);
  std::thread feeder([&] {
    // (x=0: c0=5, c1=-5), (x=1: c0=1, c1=-7)
    testutil::push(sin, 5);
    testutil::push(sin, -5);
    testutil::push(sin, 1);
    testutil::push(sin, -7);
    sin.close();
  });
  testutil::drive(kernel);
  feeder.join();
  const auto out = drain(sout);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 2);  // 5 in [4,6)
  EXPECT_EQ(out[1], 2);  // -(-5)=5
  EXPECT_EQ(out[2], 0);  // 1 < 2
  EXPECT_EQ(out[3], 3);  // 7 >= 6
}

TEST(BnActKernelTest, PhaseCarriesAcrossBurstBoundaries) {
  // Each burst is mapped with one threshold_codes call starting at the
  // channel phase the previous burst left behind. Burst sizes around the
  // 8- and 16-lane blocks, on channel counts below and above one vector,
  // with positive, negative and zero (constant) slopes and preactivations
  // past the folded thresholds: every value must match the per-channel
  // binary search at every SIMD level.
  for (const int channels : {3, 64}) {
    BnLayerParams bn(channels);
    Rng rng(static_cast<std::uint64_t>(channels));
    for (int c = 0; c < channels; ++c) {
      BnParams& p = bn.at(c);
      const float mag = 0.05f + 0.5f * rng.next_float();
      p.gamma = c % 4 == 2 ? 0.0f : (c % 2 == 1 ? -mag : mag);
      p.beta = 3.0f * rng.next_float();
      p.mu = 40.0f * (rng.next_float() - 0.5f);
    }
    const ThresholdLayer thresholds =
        ThresholdLayer::fold(bn, ActQuantizer(2, 1.0));
    Node n;
    n.kind = NodeKind::BnAct;
    n.name = "bnact_phase";
    n.in = n.out = Shape{1, 37, channels};
    n.in_bits = 16;
    n.out_bits = 2;
    n.param = 0;
    std::vector<std::int32_t> in;
    std::vector<std::int32_t> expect;
    for (int x = 0; x < n.in.w; ++x) {
      for (int c = 0; c < channels; ++c) {
        const auto a = static_cast<std::int32_t>(
            x % 9 == 4 ? (x % 2 == 0 ? 100000 : -100000)
                       : rng.next_int(-60, 60));
        in.push_back(a);
        expect.push_back(thresholds.at(c).eval_binary_search(a));
      }
    }
    for (const simd::Level level : simd::available_levels()) {
      simd::set_level(level);
      for (const std::size_t burst :
           {std::size_t{1}, std::size_t{7}, std::size_t{16}, std::size_t{17},
            std::size_t{256}}) {
        // Stage the whole input first so every pop returns a full burst.
        Stream sin(in.size(), 32, "in");
        Stream sout(in.size(), 2, "out");
        for (const std::int32_t a : in) testutil::push(sin, a);
        sin.close();
        BnActKernel kernel(n, thresholds, sin, sout, burst);
        testutil::drive(kernel);
        EXPECT_EQ(drain(sout), expect)
            << simd::level_name(level) << " C=" << channels
            << " burst=" << burst;
      }
    }
    simd::set_level(std::nullopt);
  }
}

TEST(AddKernelTest, SumsAndPropagatesClose) {
  Node n;
  n.kind = NodeKind::Add;
  n.name = "add_t";
  n.in = n.out = Shape{1, 1, 3};
  n.in_bits = n.out_bits = 16;
  n.main_from = 0;
  n.skip_from = 1;

  Stream main(8, 16, "main");
  Stream skip(8, 16, "skip");
  Stream out(8, 16, "out");
  AddKernel kernel(n, main, skip, out);
  std::thread feeder([&] {
    for (std::int32_t v : {1, 2, 3}) testutil::push(main, v);
    for (std::int32_t v : {10, 20, 30}) testutil::push(skip, v);
    main.close();
    skip.close();
  });
  testutil::drive(kernel);
  feeder.join();
  const auto sums = drain(out);
  EXPECT_EQ(sums, (std::vector<std::int32_t>{11, 22, 33}));
  EXPECT_TRUE(out.closed());
}

TEST(AddKernelTest, SkipShorterThanMainIsError) {
  Node n;
  n.kind = NodeKind::Add;
  n.name = "add_t";
  n.in = n.out = Shape{1, 1, 2};
  n.in_bits = n.out_bits = 16;
  n.skip_from = 0;
  Stream main(8, 16, "main");
  Stream skip(8, 16, "skip");
  Stream out(8, 16, "out");
  AddKernel kernel(n, main, skip, out);
  std::thread feeder([&] {
    testutil::push(main, 1);
    testutil::push(main, 2);
    main.close();
    testutil::push(skip, 1);
    skip.close();  // one value short
  });
  EXPECT_THROW(testutil::drive(kernel), Error);
  feeder.join();
}

TEST(AddKernelTest, MainShorterThanSkipIsError) {
  Node n;
  n.kind = NodeKind::Add;
  n.name = "add_t";
  n.in = n.out = Shape{1, 1, 2};
  n.in_bits = n.out_bits = 16;
  n.skip_from = 0;
  Stream main(8, 16, "main");
  Stream skip(8, 16, "skip");
  Stream out(8, 16, "out");
  AddKernel kernel(n, main, skip, out);
  std::thread feeder([&] {
    testutil::push(main, 1);
    main.close();
    testutil::push(skip, 1);
    testutil::push(skip, 2);  // leftover
    skip.close();
  });
  EXPECT_THROW(testutil::drive(kernel), Error);
  feeder.join();
}

TEST(ForkKernelTest, DuplicatesToAllBranches) {
  Stream in(8, 4, "in");
  Stream a(8, 4, "a");
  Stream b(8, 4, "b");
  Stream c(8, 4, "c");
  ForkKernel kernel("fork_t", in, {&a, &b, &c});
  std::thread feeder([&] {
    for (std::int32_t v : {4, 5, 6}) testutil::push(in, v);
    in.close();
  });
  testutil::drive(kernel);
  feeder.join();
  const std::vector<std::int32_t> expect{4, 5, 6};
  EXPECT_EQ(drain(a), expect);
  EXPECT_EQ(drain(b), expect);
  EXPECT_EQ(drain(c), expect);
  EXPECT_TRUE(a.closed());
  EXPECT_TRUE(c.closed());
}

TEST(ForkKernelTest, RequiresAtLeastTwoBranches) {
  Stream in(8, 4, "in");
  Stream a(8, 4, "a");
  EXPECT_THROW(ForkKernel("fork_t", in, {&a}), Error);
}

TEST(ConvKernelTest, RejectsMismatchedWeightBank) {
  const Node n = conv_node(Shape{4, 4, 2}, 3, 3, 1, 1, 2);
  Rng rng(8);
  const FilterBank wrong = FilterBank::random(FilterShape{3, 3, 4}, rng);
  Stream sin(8, 2, "in");
  Stream sout(8, 8, "out");
  EXPECT_THROW(ConvKernel(n, wrong, sin, sout), Error);
}

}  // namespace
}  // namespace qnn
