// Width-first (channel-major) window extraction — the alternative scan
// order of Figure 4b, implemented for the §III-B1b ablation.
//
// The input arrives one channel plane at a time (channel varies slowest):
// all padded positions of channel 0, then channel 1, and so on. A window
// for output position (oy, ox) completes only when the *last* channel's
// bottom-right corner value arrives, so the scanner must retain the full
// planes of every earlier channel plus the sliding rows of the current
// one:
//
//     buffer = H_p * W_p * (I - 1)  +  W_p * (K - 1) + K   values,
//
// versus the depth-first scanner's I * (W_p*(K-1) + K). Since W >> K this
// is an order of magnitude more storage — the reason "all images should be
// streamed to the FPGA pixel by pixel and not channel by channel."
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/shape.h"

namespace qnn {

class WidthFirstScanner {
 public:
  WidthFirstScanner(Shape in, int k, int stride, int pad,
                    std::int32_t pad_value = 0)
      : in_(in),
        k_(k),
        stride_(stride),
        pad_(pad),
        pad_value_(pad_value),
        hp_(in.h + 2 * pad),
        wp_(in.w + 2 * pad),
        out_h_(conv_out_extent(in.h, k, stride, pad)),
        out_w_(conv_out_extent(in.w, k, stride, pad)),
        full_planes_(static_cast<std::size_t>(in.c - 1) * hp_ * wp_),
        rows_(static_cast<std::size_t>(k) * wp_) {
    QNN_CHECK(in.valid() && k >= 1 && stride >= 1 && pad >= 0,
              "invalid scanner geometry");
    QNN_CHECK(hp_ >= k && wp_ >= k, "window larger than padded input");
  }

  [[nodiscard]] bool done() const { return c_ >= in_.c; }

  [[nodiscard]] bool next_is_padding() const {
    QNN_DCHECK(!done(), "scanner exhausted");
    return y_ < pad_ || y_ >= pad_ + in_.h || x_ < pad_ ||
           x_ >= pad_ + in_.w;
  }

  struct Completed {
    int oy;
    int ox;
  };

  /// Consecutive positions from the cursor that take real stream values
  /// (one value per position in this channel-major order); 0 when the next
  /// position is padding or the scan is done. Mirrors
  /// WindowScanner::real_run() so both scan orders support burst ingest at
  /// the edge's planned granularity (plan/fifo_plan.h — the per-edge burst
  /// the CompiledPlan freezes).
  [[nodiscard]] std::int64_t real_run() const {
    if (done() || next_is_padding()) return 0;
    return pad_ + in_.w - x_;
  }

  /// Advance by one value of the channel-major stream.
  std::optional<Completed> advance(std::int32_t v) {
    QNN_DCHECK(!done(), "advance past end of scan");
    const std::int32_t stored = next_is_padding() ? pad_value_ : v;
    if (c_ < in_.c - 1) {
      full_planes_[plane_index(c_, y_, x_)] = stored;
    } else {
      rows_[row_index(y_, x_)] = stored;
    }

    std::optional<Completed> completed;
    if (c_ == in_.c - 1) {
      const int ry = y_ - (k_ - 1);
      const int rx = x_ - (k_ - 1);
      if (ry >= 0 && rx >= 0 && ry % stride_ == 0 && rx % stride_ == 0 &&
          ry / stride_ < out_h_ && rx / stride_ < out_w_) {
        completed = Completed{ry / stride_, rx / stride_};
      }
    }
    if (++x_ == wp_) {
      x_ = 0;
      if (++y_ == hp_) {
        y_ = 0;
        ++c_;
      }
    }
    return completed;
  }

  /// Extract the completed window in the depth-first (dy, dx, ci) layout
  /// of the window kernels' weights, so the two scan orders are directly
  /// comparable.
  void window(const Completed& at, std::span<std::int32_t> out) const {
    QNN_DCHECK(static_cast<std::int64_t>(out.size()) == window_values(),
               "window span size mismatch");
    std::size_t w = 0;
    for (int dy = 0; dy < k_; ++dy) {
      const int py = at.oy * stride_ + dy;
      for (int dx = 0; dx < k_; ++dx) {
        const int px = at.ox * stride_ + dx;
        for (int ci = 0; ci < in_.c; ++ci) {
          out[w++] = ci < in_.c - 1 ? full_planes_[plane_index(ci, py, px)]
                                    : rows_[row_index(py, px)];
        }
      }
    }
  }

  [[nodiscard]] std::int64_t window_values() const {
    return static_cast<std::int64_t>(k_) * k_ * in_.c;
  }

  /// Values this implementation actually retains (the paper's width-first
  /// buffer formula on the padded map).
  [[nodiscard]] std::int64_t buffer_values() const {
    return static_cast<std::int64_t>(in_.c - 1) * hp_ * wp_ +
           static_cast<std::int64_t>(wp_) * (k_ - 1) + k_;
  }

  void reset() { y_ = x_ = c_ = 0; }

 private:
  [[nodiscard]] std::size_t plane_index(int c, int y, int x) const {
    return static_cast<std::size_t>(
        (static_cast<std::int64_t>(c) * hp_ + y) * wp_ + x);
  }
  [[nodiscard]] std::size_t row_index(int y, int x) const {
    return static_cast<std::size_t>((y % k_) * wp_ + x);
  }

  Shape in_;
  int k_;
  int stride_;
  int pad_;
  std::int32_t pad_value_;
  int hp_;
  int wp_;
  int out_h_;
  int out_w_;
  std::vector<std::int32_t> full_planes_;  // channels 0 .. I-2, whole maps
  std::vector<std::int32_t> rows_;         // last channel, K sliding rows
  int y_ = 0;
  int x_ = 0;
  int c_ = 0;
};

}  // namespace qnn
