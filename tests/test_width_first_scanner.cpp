#include "dataflow/width_first_scanner.h"

#include <gtest/gtest.h>

#include "dataflow/window_scanner.h"
#include "test_util.h"

namespace qnn {
namespace {

struct Result {
  std::vector<WidthFirstScanner::Completed> positions;
  std::vector<std::vector<std::int32_t>> windows;
};

/// Drive a width-first scanner with a tensor's channel-major padded walk.
Result scan_width_first_padded(WidthFirstScanner& s, const IntTensor& in,
                               int pad) {
  Result r;
  const Shape& shape = in.shape();
  const int hp = shape.h + 2 * pad;
  const int wp = shape.w + 2 * pad;
  for (int c = 0; c < shape.c; ++c) {
    for (int y = 0; y < hp; ++y) {
      for (int x = 0; x < wp; ++x) {
        const bool padding = y < pad || y >= pad + shape.h || x < pad ||
                             x >= pad + shape.w;
        EXPECT_EQ(s.next_is_padding(), padding);
        const std::int32_t v =
            padding ? 0 : in.at(y - pad, x - pad, c);
        const auto completed = s.advance(v);
        if (completed) {
          std::vector<std::int32_t> w(
              static_cast<std::size_t>(s.window_values()));
          s.window(*completed, w);
          r.positions.push_back(*completed);
          r.windows.push_back(std::move(w));
        }
      }
    }
  }
  EXPECT_TRUE(s.done());
  return r;
}

struct Geometry {
  int h, w, c, k, stride, pad;
};

class WidthFirstSweep : public ::testing::TestWithParam<Geometry> {};

TEST_P(WidthFirstSweep, ProducesSameWindowsAsDepthFirst) {
  const Geometry g = GetParam();
  const Shape in_shape{g.h, g.w, g.c};
  Rng rng(2000 + static_cast<std::uint64_t>(g.h * 7 + g.c));
  const IntTensor in = testutil::random_codes(in_shape, 4, rng);

  // Depth-first baseline: each window gathered from the padded tensor in
  // the depth-first (dy, dx, ci) layout, in raster order of positions.
  std::vector<std::vector<std::int32_t>> df_windows;
  const int oh = conv_out_extent(g.h, g.k, g.stride, g.pad);
  const int ow = conv_out_extent(g.w, g.k, g.stride, g.pad);
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      std::vector<std::int32_t> w;
      for (int dy = 0; dy < g.k; ++dy) {
        for (int dx = 0; dx < g.k; ++dx) {
          const int iy = oy * g.stride + dy - g.pad;
          const int ix = ox * g.stride + dx - g.pad;
          const bool in_map = iy >= 0 && iy < g.h && ix >= 0 && ix < g.w;
          for (int ci = 0; ci < g.c; ++ci) {
            w.push_back(in_map ? in.at(iy, ix, ci) : 0);
          }
        }
      }
      df_windows.push_back(std::move(w));
    }
  }

  WidthFirstScanner wf(in_shape, g.k, g.stride, g.pad);
  const Result r = scan_width_first_padded(wf, in, g.pad);
  ASSERT_EQ(r.windows.size(), df_windows.size());
  // Both emit windows in raster order of output positions.
  for (std::size_t i = 0; i < r.windows.size(); ++i) {
    EXPECT_EQ(r.windows[i], df_windows[i]) << "window " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, WidthFirstSweep,
    ::testing::Values(Geometry{5, 5, 3, 3, 1, 0},
                      Geometry{6, 6, 2, 3, 1, 1},
                      Geometry{8, 8, 4, 3, 2, 1},
                      Geometry{7, 9, 2, 2, 2, 0},
                      Geometry{6, 6, 1, 3, 1, 1},   // single channel
                      Geometry{10, 10, 3, 5, 2, 2}));

TEST(WidthFirst, BufferFormulaMatchesPaper) {
  // H_p*W_p*(I-1) + W_p*(K-1) + K on the padded map (§III-B1b).
  WidthFirstScanner s(Shape{56, 56, 64}, 3, 1, 1);
  EXPECT_EQ(s.buffer_values(), 58LL * 58 * 63 + 58 * 2 + 3);
  WindowScanner df(Shape{56, 56, 64}, 3, 1, 1);
  // The depth-first buffer is well over an order of magnitude smaller.
  EXPECT_GT(s.buffer_values(), 25 * df.paper_buffer_values());
}

TEST(WidthFirst, ResetAllowsReuse) {
  const Shape in{5, 5, 2};
  Rng rng(3);
  const IntTensor img = testutil::random_codes(in, 4, rng);
  WidthFirstScanner s(in, 3, 1, 0);
  const Result a = scan_width_first_padded(s, img, 0);
  s.reset();
  const Result b = scan_width_first_padded(s, img, 0);
  EXPECT_EQ(a.windows, b.windows);
}

TEST(WidthFirst, RejectsOversizedWindow) {
  EXPECT_THROW(WidthFirstScanner(Shape{4, 4, 2}, 7, 1, 0), Error);
}

}  // namespace
}  // namespace qnn
