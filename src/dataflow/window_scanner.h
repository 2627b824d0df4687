// Depth-first window cursor over a padded pixel stream.
//
// Implements the input side of the window kernels in Figure 3: pixels
// arrive one channel value per transaction in depth-first order (channel
// fastest, then x, then y); padding positions are injected locally by the
// kernel ("the kernel stops the input stream and inputs padding values into
// the buffer instead", §III-B1). As soon as the bottom-right value of a
// window is present, the window is complete and an output position can be
// computed.
//
// The scanner holds no data: it walks the padded map a run at a time (a
// row segment of real values, or the whole padding run at the cursor) and
// reports the windows each run completes, computed arithmetically from
// the corner at padded row oy·S + K − 1, column ox·S + K − 1. The K-row
// buffer of the depth-first scan of §III-B1b, I * (W_padded * (K - 1) + K)
// values (versus Theta(I*W_padded + K) per *width* unit for a width-first
// scan, see fpga/resource_model.h for the accounting used in Fig 6), lives
// in the kernels, recycled mod K keyed on cur_row(): the pool kernel's
// int32 line buffer and conv's BitPlaneLineBuffer (core/packed_planes.h).
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/shape.h"

namespace qnn {

class WindowScanner {
 public:
  WindowScanner(Shape in, int k, int stride, int pad)
      : in_(in),
        k_(k),
        stride_(stride),
        pad_(pad),
        hp_(in.h + 2 * pad),
        wp_(in.w + 2 * pad),
        out_h_(conv_out_extent(in.h, k, stride, pad)),
        out_w_(conv_out_extent(in.w, k, stride, pad)),
        row_values_(static_cast<std::int64_t>(wp_) * in.c) {
    QNN_CHECK(in.valid() && k >= 1 && stride >= 1 && pad >= 0,
              "invalid scanner geometry");
    QNN_CHECK(hp_ >= k && wp_ >= k, "window larger than padded input");
  }

  /// All padded positions consumed and no further windows will complete.
  [[nodiscard]] bool done() const { return y_ >= hp_; }

  /// True when the next value to enter the buffer is a padding value the
  /// kernel must inject itself (the input stream is halted meanwhile).
  [[nodiscard]] bool next_is_padding() const {
    QNN_DCHECK(!done(), "scanner exhausted");
    const int x = cur_x();
    return !interior_row(y_) || x < pad_ || x >= pad_ + in_.w;
  }

  /// A window whose bottom-right value just entered: output position
  /// (oy, ox), and the REAL input values of this image consumed at that
  /// moment (padding consumes none, so a window whose corner is a padding
  /// position completes at a count already reached).
  struct Completed {
    int oy;
    int ox;
    std::int64_t consumed;
  };

  /// Number of consecutive scan positions starting at the cursor that take
  /// REAL stream values (no padding until at least the end of the current
  /// row's interior); 0 when the next position is a padding injection or
  /// the scan is done. The segment size a kernel asks for is the edge's
  /// PLANNED burst (plan/fifo_plan.h, row-sized under adaptive mode), so
  /// ingest granularity is decided at plan time, not here.
  [[nodiscard]] std::int64_t real_run() const {
    if (done() || next_is_padding()) return 0;
    return static_cast<std::int64_t>(pad_ + in_.w) * in_.c - pos_;
  }

  /// Number of consecutive padding positions starting at the cursor: up to
  /// the next real position, or to the end of the scan. 0 when the next
  /// position is real or the scan is done.
  [[nodiscard]] std::int64_t padding_run() const {
    if (done() || !next_is_padding()) return 0;
    const std::int64_t here = y_ * row_values_ + pos_;
    const std::int64_t end = hp_ * row_values_;
    const std::int64_t left_pad = static_cast<std::int64_t>(pad_) * in_.c;
    std::int64_t next_real = end;  // bottom pad rows run to the end
    if (y_ < pad_) {
      next_real = pad_ * row_values_ + left_pad;
    } else if (interior_row(y_)) {
      if (cur_x() < pad_) {
        next_real = y_ * row_values_ + left_pad;
      } else if (interior_row(y_ + 1)) {
        next_real = (y_ + 1) * row_values_ + left_pad;
      }
    }
    return next_real - here;
  }

  /// Advance the cursor by one run: the whole padding run at the cursor
  /// when next_is_padding() (injected locally, consuming no input), else
  /// the next min(n, real_run()) real values. Calls on_window(Completed)
  /// for each window the run completes, in raster order. Returns the
  /// number of real values consumed.
  template <class OnWindow>
  std::int64_t advance_run(std::int64_t n, OnWindow&& on_window) {
    QNN_DCHECK(!done(), "advance past end of scan");
    if (next_is_padding()) {
      walk(padding_run(), /*real=*/false, on_window);
      return 0;
    }
    const std::int64_t m = std::min(n, real_run());
    QNN_DCHECK(m >= 1, "empty real run");
    walk(m, /*real=*/true, on_window);
    return m;
  }

  [[nodiscard]] std::int64_t window_values() const {
    return static_cast<std::int64_t>(k_) * k_ * in_.c;
  }
  [[nodiscard]] int out_h() const { return out_h_; }
  [[nodiscard]] int out_w() const { return out_w_; }
  [[nodiscard]] int padded_w() const { return wp_; }

  /// Padded row the cursor is currently on (0 <= cur_row < hp while the
  /// scan is live). A kernel's line buffer recycles rows mod K keyed on
  /// this value.
  [[nodiscard]] int cur_row() const { return y_; }

  /// Cursor position within the current padded row, in values:
  /// (x * channels + c) over the padded width. This is the line-buffer
  /// offset for the run about to be ingested via real_run().
  [[nodiscard]] std::int64_t row_value_pos() const { return pos_; }

  /// Total padded positions scanned per image (pad injections included).
  [[nodiscard]] std::int64_t padded_values() const {
    return static_cast<std::int64_t>(hp_) * row_values_;
  }
  /// Padding values injected locally per image.
  [[nodiscard]] std::int64_t padding_values() const {
    return padded_values() - in_.elems();
  }

  /// The paper's depth-first buffer size (§III-B1b) on the padded map:
  /// I*(W_p*(K-1) + K) values retained.
  [[nodiscard]] std::int64_t paper_buffer_values() const {
    return static_cast<std::int64_t>(in_.c) *
           (static_cast<std::int64_t>(wp_) * (k_ - 1) + k_);
  }

  /// Reset for the next image.
  void reset() {
    y_ = 0;
    pos_ = 0;
    real_ = 0;
  }

 private:
  [[nodiscard]] bool interior_row(int y) const {
    return y >= pad_ && y < pad_ + in_.h;
  }
  [[nodiscard]] int cur_x() const {
    return static_cast<int>(pos_ / in_.c);
  }

  /// Move the cursor `len` values forward, a row segment [p0, p1) at a
  /// time, reporting the windows whose corner pixel completes on the way:
  /// on a corner row, the pixels x with p0/C <= x < p1/C whose column is
  /// ox*S + K - 1.
  template <class OnWindow>
  void walk(std::int64_t len, bool real, OnWindow& on_window) {
    while (len > 0) {
      const std::int64_t p0 = pos_;
      const std::int64_t p1 = std::min(row_values_, p0 + len);
      const int ry = y_ - (k_ - 1);
      if (ry >= 0 && ry % stride_ == 0 && ry / stride_ < out_h_) {
        const int rx = static_cast<int>(p0 / in_.c) - (k_ - 1);
        const auto xb = static_cast<int>(p1 / in_.c);
        for (int ox = rx <= 0 ? 0 : (rx + stride_ - 1) / stride_;
             ox < out_w_ && ox * stride_ + k_ - 1 < xb; ++ox) {
          const std::int64_t corner_end =
              static_cast<std::int64_t>(ox * stride_ + k_) * in_.c;
          on_window(Completed{ry / stride_, ox,
                              real ? real_ + corner_end - p0 : real_});
        }
      }
      len -= p1 - p0;
      if (real) real_ += p1 - p0;
      pos_ = p1;
      if (pos_ == row_values_) {
        pos_ = 0;
        ++y_;
      }
    }
  }

  Shape in_;
  int k_;
  int stride_;
  int pad_;
  int hp_;
  int wp_;
  int out_h_;
  int out_w_;
  std::int64_t row_values_;  // values per padded row: W_p * C
  int y_ = 0;                // padded row of the cursor
  std::int64_t pos_ = 0;     // value position within the padded row
  std::int64_t real_ = 0;    // real values consumed this image
};

}  // namespace qnn
