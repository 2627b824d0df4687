#include "dataflow/window_scanner.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/rng.h"
#include "test_util.h"

namespace qnn {
namespace {

/// Every window the scanner reported over one image, plus what the runs
/// consumed and injected.
struct ScanResult {
  std::vector<WindowScanner::Completed> windows;
  std::int64_t pad_injections = 0;
  std::int64_t real_values = 0;
};

/// Drive a scanner over one image with the run API. Real runs take a size
/// drawn from {1, odd, real_run()} when `rng` is given (whole real runs
/// otherwise); padding runs are always taken whole, as the kernel does.
ScanResult scan(WindowScanner& s, Rng* rng = nullptr) {
  ScanResult r;
  auto record = [&r](const WindowScanner::Completed& at) {
    r.windows.push_back(at);
  };
  while (!s.done()) {
    if (s.next_is_padding()) {
      const std::int64_t pad = s.padding_run();
      EXPECT_GT(pad, 0);
      EXPECT_EQ(s.real_run(), 0);
      r.pad_injections += pad;
      EXPECT_EQ(s.advance_run(1, record), 0);
      // A padding run is taken whole: up to the next real value or the end.
      EXPECT_TRUE(s.done() || !s.next_is_padding());
      continue;
    }
    EXPECT_EQ(s.padding_run(), 0);
    const std::int64_t avail = s.real_run();
    std::int64_t n = avail;
    if (rng != nullptr) {
      switch (rng->next_below(3)) {
        case 0:
          n = 1;
          break;
        case 1:
          n = 1 + 2 * static_cast<std::int64_t>(rng->next_below(8));
          break;
        default:
          break;
      }
    }
    const std::int64_t took = s.advance_run(n, record);
    EXPECT_EQ(took, std::min(n, avail));
    r.real_values += took;
  }
  return r;
}

/// Brute-force per-position replay of the depth-first scan: walk every
/// padded position (y, x, c), count the real ones, and record a window on
/// the last channel of every bottom-right corner pixel.
std::vector<WindowScanner::Completed> replay(Shape in, int k, int stride,
                                             int pad) {
  const int oh = conv_out_extent(in.h, k, stride, pad);
  const int ow = conv_out_extent(in.w, k, stride, pad);
  std::vector<WindowScanner::Completed> out;
  std::int64_t consumed = 0;
  for (int y = 0; y < in.h + 2 * pad; ++y) {
    for (int x = 0; x < in.w + 2 * pad; ++x) {
      for (int c = 0; c < in.c; ++c) {
        const bool real =
            y >= pad && y < pad + in.h && x >= pad && x < pad + in.w;
        if (real) ++consumed;
        const int ry = y - (k - 1);
        const int rx = x - (k - 1);
        if (c == in.c - 1 && ry >= 0 && rx >= 0 && ry % stride == 0 &&
            rx % stride == 0 && ry / stride < oh && rx / stride < ow) {
          out.push_back({ry / stride, rx / stride, consumed});
        }
      }
    }
  }
  return out;
}

void expect_same(const std::vector<WindowScanner::Completed>& got,
                 const std::vector<WindowScanner::Completed>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].oy, want[i].oy) << "window " << i;
    EXPECT_EQ(got[i].ox, want[i].ox) << "window " << i;
    EXPECT_EQ(got[i].consumed, want[i].consumed) << "window " << i;
  }
}

/// Parameterized sweep over (H, W, C, K, stride, pad) geometries. The
/// scanner holds no data (the kernels keep their own line buffers, and
/// tests/test_kernels.cpp checks the pooled windows against the reference
/// executor), so this pins positions and timing: every output position
/// completes once, in raster order, at the same real-input count as the
/// brute-force per-position replay, however the real runs are split.
struct Geometry {
  int h, w, c, k, stride, pad;
};

class WindowScannerSweep : public ::testing::TestWithParam<Geometry> {};

TEST_P(WindowScannerSweep, WindowsMatchDirectGather) {
  const Geometry g = GetParam();
  const Shape in_shape{g.h, g.w, g.c};
  const auto want = replay(in_shape, g.k, g.stride, g.pad);
  const int oh = conv_out_extent(g.h, g.k, g.stride, g.pad);
  const int ow = conv_out_extent(g.w, g.k, g.stride, g.pad);
  ASSERT_EQ(static_cast<int>(want.size()), oh * ow);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].oy * ow + want[i].ox, static_cast<int>(i));
  }

  WindowScanner s(in_shape, g.k, g.stride, g.pad);
  const ScanResult whole = scan(s);
  expect_same(whole.windows, want);
  EXPECT_EQ(whole.real_values, in_shape.elems());

  Rng rng(1000 + static_cast<std::uint64_t>(g.h * 31 + g.k));
  for (int trial = 0; trial < 4; ++trial) {
    s.reset();
    const ScanResult split = scan(s, &rng);
    expect_same(split.windows, want);
    EXPECT_EQ(split.real_values, in_shape.elems());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, WindowScannerSweep,
    ::testing::Values(Geometry{5, 5, 1, 3, 1, 0},   // plain valid conv
                      Geometry{6, 6, 2, 3, 1, 1},   // same-padded
                      Geometry{8, 8, 3, 3, 2, 1},   // strided + padded
                      Geometry{9, 7, 2, 2, 2, 0},   // non-square, even k
                      Geometry{11, 11, 1, 11, 1, 0},// window == input (FC)
                      Geometry{7, 7, 4, 1, 1, 0},   // 1x1 conv
                      Geometry{12, 12, 2, 3, 4, 0}, // stride > k
                      Geometry{10, 10, 1, 7, 2, 3}, // big window, big pad
                      Geometry{4, 4, 2, 2, 2, 1})); // pad with even k

TEST(WindowScanner, PaddingOnlyWindowsCompleteWithoutInput) {
  // pad > k - 1: the first and last output rows and columns see nothing
  // but padding, so their windows complete inside padding runs.
  const Shape in{3, 4, 2};
  WindowScanner s(in, 1, 1, 2);
  const auto want = replay(in, 1, 1, 2);
  const ScanResult r = scan(s);
  expect_same(r.windows, want);
  ASSERT_EQ(r.windows.size(), 7u * 8u);
  EXPECT_EQ(r.windows.front().consumed, 0);
  EXPECT_EQ(r.windows.back().consumed, in.elems());
}

TEST(WindowScanner, PadInjectionCountMatchesFormula) {
  const Shape in{6, 5, 3};
  WindowScanner s(in, 3, 1, 2);
  const ScanResult r = scan(s);
  EXPECT_EQ(r.pad_injections, s.padding_values());
  EXPECT_EQ(r.real_values + r.pad_injections, s.padded_values());
  EXPECT_EQ(s.padding_values(), (10 * 9 - 6 * 5) * 3);
}

TEST(WindowScanner, PaperBufferFormula) {
  // I * (W_padded * (K-1) + K) values (§III-B1b).
  WindowScanner s(Shape{56, 56, 64}, 3, 1, 1);
  EXPECT_EQ(s.paper_buffer_values(), 64 * (58 * 2 + 3));
}

TEST(WindowScanner, ResetAllowsReuseAcrossImages) {
  const Shape in{5, 5, 2};
  WindowScanner s(in, 3, 1, 0);
  const ScanResult a = scan(s);
  s.reset();
  const ScanResult b = scan(s);
  expect_same(b.windows, a.windows);
  // A reset mid-image (an aborted run) restarts the scan from the top.
  s.reset();
  Rng rng(2);
  EXPECT_EQ(s.advance_run(7, [](const WindowScanner::Completed&) {}), 7);
  s.reset();
  EXPECT_EQ(s.cur_row(), 0);
  EXPECT_EQ(s.row_value_pos(), 0);
  expect_same(scan(s, &rng).windows, a.windows);
}

TEST(WindowScanner, RejectsOversizedWindow) {
  EXPECT_THROW(WindowScanner(Shape{4, 4, 1}, 7, 1, 0), Error);
}

}  // namespace
}  // namespace qnn
