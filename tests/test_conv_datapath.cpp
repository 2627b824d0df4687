// Randomized property suite pinning the word-packed incremental conv
// datapath (bit-plane line buffers + splice window assembly + vec_ops SIMD
// sweep) to the plain integer reference reference_pm1_dot, across
// activation widths 1..8, window lengths chosen to straddle word
// boundaries (63/64/65/127/129), all-padding windows, strides, filter
// counts that fill or overhang the dot's 8-filter groups, the paper
// networks' first layers, multi-image streams, and every SIMD dispatch
// level available on the host.
#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "core/bitplanes.h"
#include "core/simd/vec_ops.h"
#include "dataflow/kernels.h"
#include "drive.h"
#include "test_util.h"

namespace qnn {
namespace {

Node conv_node(Shape in, int out_c, int k, int stride, int pad, int in_bits) {
  Node n;
  n.kind = NodeKind::Conv;
  n.name = "conv_dp";
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

/// Plain integer convolution via reference_pm1_dot per output position:
/// gather the (dy, dx, ci) window with zero padding, dot against the
/// filter's +-1 weights. No bit packing anywhere.
std::vector<std::int32_t> reference_conv(const Node& n, const FilterBank& fb,
                                         const IntTensor& img) {
  const auto win =
      static_cast<std::size_t>(n.k) * static_cast<std::size_t>(n.k) *
      static_cast<std::size_t>(n.in.c);
  std::vector<std::int32_t> out;
  std::vector<std::int32_t> codes(win);
  std::vector<std::int8_t> w_pm1(win);
  for (int oy = 0; oy < n.out.h; ++oy) {
    for (int ox = 0; ox < n.out.w; ++ox) {
      std::size_t i = 0;
      for (int dy = 0; dy < n.k; ++dy) {
        for (int dx = 0; dx < n.k; ++dx) {
          const int y = oy * n.stride + dy - n.pad;
          const int x = ox * n.stride + dx - n.pad;
          const bool in_map =
              y >= 0 && y < n.in.h && x >= 0 && x < n.in.w;
          for (int ci = 0; ci < n.in.c; ++ci) {
            codes[i++] = in_map ? img.at(y, x, ci) : 0;
          }
        }
      }
      for (int o = 0; o < n.out.c; ++o) {
        i = 0;
        for (int dy = 0; dy < n.k; ++dy) {
          for (int dx = 0; dx < n.k; ++dx) {
            for (int ci = 0; ci < n.in.c; ++ci) {
              w_pm1[i++] =
                  static_cast<std::int8_t>(fb.signed_weight(o, dy, dx, ci));
            }
          }
        }
        out.push_back(reference_pm1_dot(w_pm1, codes));
      }
    }
  }
  return out;
}

/// Run a ConvKernel over `images` streamed back to back and collect every
/// output value. The output is drained while the kernel runs, so an image
/// may produce more values than the output FIFO holds.
std::vector<std::int32_t> run_conv(const Node& n, const FilterBank& fb,
                                   const std::vector<IntTensor>& images) {
  Stream sin(256, 16, "in");
  Stream sout(256, 32, "out");
  ConvKernel kernel(n, fb, sin, sout);
  std::vector<std::int32_t> out;
  std::thread drainer([&] {
    std::int32_t v = 0;
    while (testutil::pop(sout, v)) out.push_back(v);
  });
  std::thread feeder([&] {
    for (const auto& img : images) {
      testutil::push(sin, img.flat());
    }
    sin.close();
  });
  testutil::drive(kernel);
  feeder.join();
  drainer.join();
  return out;
}

/// Restores the process-wide SIMD selector after each test.
class ConvDatapathTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::set_level(std::nullopt); }
};

struct Geometry {
  Shape in;
  int out_c;
  int k;
  int stride;
  int pad;
};

// Channel counts 63/64/65 with k=1 put the per-plane window length exactly
// at/around one word; 3*3*c geometries put it around 2 words (127/129 via
// c=14 is not integral, so use k=1 c=127/129 directly). k=2 pad=2 makes
// entire windows (corners) pure padding; stride 2 exercises row-phase
// recycling; k=h=w is the dense/global case (window == whole padded map).
const Geometry kGeometries[] = {
    {{4, 5, 3}, 3, 3, 1, 1},    // classic 3x3 same-pad
    {{3, 4, 63}, 2, 1, 1, 0},   // 63-bit planes (sub-word tail)
    {{3, 3, 64}, 2, 1, 1, 0},   // exactly one word per plane
    {{2, 3, 65}, 2, 1, 1, 0},   // word + 1-bit straddle
    {{2, 2, 127}, 2, 1, 1, 0},  // two words minus one
    {{2, 2, 129}, 2, 1, 1, 0},  // two words plus one
    {{4, 4, 4}, 2, 2, 1, 2},    // pad 2 > k-1: all-padding windows exist
    {{5, 5, 3}, 2, 3, 2, 1},    // strided scan
    {{6, 5, 2}, 3, 2, 2, 0},    // strided, even k, no pad
    {{3, 3, 5}, 2, 3, 1, 0},    // dense: window == whole map
    // Filter counts around the dot's 8-filter groups: one full group, a
    // full group plus a 1-lane tail, two groups plus a tail, eight groups.
    {{4, 5, 3}, 8, 3, 1, 1},
    {{3, 4, 65}, 9, 1, 1, 0},
    {{5, 4, 6}, 17, 3, 2, 1},
    {{4, 4, 16}, 64, 3, 1, 1},
};

// The paper networks' first layers on small maps, at their 8-bit input:
// ResNet-18's 7x7 s2 p3 with 64 filters (3 words per plane) and AlexNet's
// 11x11 s4 p2 with 96 filters (6 words per plane).
const Geometry kFirstLayers[] = {
    {{12, 10, 3}, 64, 7, 2, 3},
    {{19, 15, 3}, 96, 11, 4, 2},
};

TEST_F(ConvDatapathTest, PackedMatchesReferenceAcrossBitsAndGeometries) {
  Rng rng(0xdada);
  for (int bits = 1; bits <= 8; ++bits) {
    for (const auto& g : kGeometries) {
      const Node n = conv_node(g.in, g.out_c, g.k, g.stride, g.pad, bits);
      const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
      const IntTensor img = testutil::random_codes(g.in, bits, rng);
      ASSERT_EQ(run_conv(n, fb, {img}), reference_conv(n, fb, img))
          << "bits=" << bits << " in=" << g.in.h << "x" << g.in.w << "x"
          << g.in.c << " k=" << g.k << " s=" << g.stride << " p=" << g.pad;
    }
  }
}

TEST_F(ConvDatapathTest, PackedMatchesReferenceAtEveryDispatchLevel) {
  struct Case {
    Geometry g;
    int bits;
  };
  std::vector<Case> cases;
  for (const auto& g : kGeometries) {
    cases.push_back({g, 2});
    cases.push_back({g, 8});
  }
  for (const auto& g : kFirstLayers) cases.push_back({g, 8});
  Rng rng(0xdadc);
  for (const auto& [g, bits] : cases) {
    const Node n = conv_node(g.in, g.out_c, g.k, g.stride, g.pad, bits);
    const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
    const IntTensor img = testutil::random_codes(g.in, bits, rng);
    const auto expect = reference_conv(n, fb, img);
    for (const simd::Level level : simd::available_levels()) {
      simd::set_level(level);
      ASSERT_EQ(run_conv(n, fb, {img}), expect)
          << "level=" << simd::level_name(level) << " bits=" << bits
          << " in=" << g.in.h << "x" << g.in.w << "x" << g.in.c
          << " out_c=" << g.out_c << " k=" << g.k << " s=" << g.stride
          << " p=" << g.pad;
    }
  }
}

TEST_F(ConvDatapathTest, PackedHandlesMultipleImagesBackToBack) {
  Rng rng(0xdadd);
  const Node n = conv_node({3, 4, 5}, 2, 2, 1, 1, 3);
  const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
  std::vector<IntTensor> images;
  std::vector<std::int32_t> expect;
  for (int i = 0; i < 3; ++i) {
    images.push_back(testutil::random_codes(n.in, 3, rng));
    const auto one = reference_conv(n, fb, images.back());
    expect.insert(expect.end(), one.begin(), one.end());
  }
  EXPECT_EQ(run_conv(n, fb, images), expect);
}

TEST_F(ConvDatapathTest, PackedMatchesReferenceOnAllPaddingWindows) {
  // pad = 2 with k = 2: the four corner windows contain no real value at
  // all, so the line buffer rows they read were never written by an
  // ingest — only recycled (zero-cleared). Two images back to back, so
  // the second image's corners read rows the first one left behind.
  Rng rng(0xdade);
  const Node n = conv_node({4, 4, 7}, 2, 2, 1, 2, 2);
  const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
  const IntTensor a = testutil::random_codes(n.in, 2, rng);
  const IntTensor b = testutil::random_codes(n.in, 2, rng);
  std::vector<std::int32_t> expect = reference_conv(n, fb, a);
  const auto second = reference_conv(n, fb, b);
  expect.insert(expect.end(), second.begin(), second.end());
  for (const simd::Level level : simd::available_levels()) {
    simd::set_level(level);
    EXPECT_EQ(run_conv(n, fb, {a, b}), expect)
        << "level=" << simd::level_name(level);
  }
}

}  // namespace
}  // namespace qnn
