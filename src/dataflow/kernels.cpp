#include "dataflow/kernels.h"

#include <algorithm>

namespace qnn {
namespace {

/// Input bursts consumed per step() before reporting kProgress: bounds the
/// work of one cooperative slice so no kernel starves its siblings on a
/// shared worker, while keeping per-step overhead amortized.
constexpr int kRoundsPerStep = 4;

/// Burst capacity for a window kernel: at least one full padded input row
/// (the §III-B1b line granularity), so the kernel ingests rows at a time.
std::size_t window_burst(const Node& node, std::size_t burst) {
  const auto row =
      static_cast<std::size_t>(node.in.w) * static_cast<std::size_t>(node.in.c);
  return std::max<std::size_t>({burst, row, 1});
}

}  // namespace

// -------------------------------------------------------------- WindowKernel

WindowKernel::WindowKernel(const Node& node, Stream& in, Stream& out,
                           std::size_t burst)
    : Kernel(node.name),
      node_(node),
      in_(in),
      out_(out),
      scanner_(node.in, node.k, node.stride, node.pad),
      in_burst_(window_burst(node, burst)) {}

void WindowKernel::advance_padding() {
  if (scanner_.done() || !scanner_.next_is_padding()) return;
  (void)scanner_.advance_run(
      0, [this](const WindowScanner::Completed& at) { emit(at); });
}

void WindowKernel::reset() {
  scanner_.reset();
  in_burst_.clear();
  stage_.clear();
  image_open_ = false;
  rearm_image();
}

void WindowKernel::bind_ready(ReadyHook* hook, int task) {
  in_.bind_consumer(hook, task);
  out_.bind_producer(hook, task);
}

StepResult WindowKernel::step() {
  if (!stage_.flush(out_)) return StepResult::kBlocked;
  bool progressed = false;
  for (int round = 0; round < kRoundsPerStep; ++round) {
    // Padding positions (including whole trailing pad rows) consume no
    // input: "the kernel stops the input stream and inputs padding values
    // into the buffer instead" (§III-B1). Only once the image has begun,
    // though — pre-feeding a not-yet-started image's leading pad rows
    // would, for pad >= k, complete (and emit) windows of an image that
    // may never arrive.
    if (image_open_) advance_padding();
    if (scanner_.done()) {
      scanner_.reset();  // image complete; re-arm for the next one
      rearm_image();
      image_open_ = false;
      progressed = true;
      if (!stage_.flush(out_)) return StepResult::kBlocked;
      continue;
    }
    if (in_burst_.refill(in_) == 0) {
      if (in_.drained()) {
        // End of stream is only legal at an image boundary.
        QNN_CHECK(!image_open_,
                  name() + ": input stream closed mid-image");
        if (!stage_.flush(out_)) return StepResult::kBlocked;
        out_.close();
        return StepResult::kDone;
      }
      return progressed ? StepResult::kProgress : StepResult::kBlocked;
    }
    image_open_ = true;
    while (in_burst_.available() > 0) {
      advance_padding();
      if (scanner_.done()) break;  // burst spans an image boundary
      // Ingest the row segment up to the next padding interruption as one
      // run: the subclass copies it into its line buffer (scanner cursor
      // still at the run's first value), then the cursor advances over the
      // whole run and the windows it completes are emitted in order.
      const auto run = static_cast<std::size_t>(std::min<std::int64_t>(
          scanner_.real_run(),
          static_cast<std::int64_t>(in_burst_.available())));
      ingest_run(in_burst_.take(run));
      (void)scanner_.advance_run(
          static_cast<std::int64_t>(run),
          [this](const WindowScanner::Completed& at) { emit(at); });
    }
    progressed = true;
    if (!stage_.flush(out_)) return StepResult::kBlocked;
  }
  return StepResult::kProgress;
}

// ---------------------------------------------------------------- ConvKernel

ConvKernel::ConvKernel(const Node& node, const FilterBank& weights,
                       Stream& in, Stream& out, std::size_t burst)
    : WindowKernel(node, in, out, burst),
      packed_weights_(scanner().window_values(), node.out.c),
      lines_(node.in_bits, node.k,
             static_cast<std::int64_t>(scanner().padded_w()) * node.in.c),
      window_(scanner().window_values(), node.in_bits),
      acc_(packed_weights_.groups() * simd::kFilterLanes, 0) {
  QNN_CHECK(node.kind == NodeKind::Conv, "ConvKernel needs a Conv node");
  QNN_CHECK(weights.shape() == node.filter_shape(),
            "weight bank does not match node geometry");
  for (int o = 0; o < node.out.c; ++o) {
    packed_weights_.set(o, weights.filter(o));
  }
}

void ConvKernel::rearm_image() { packed_row_ = -1; }

void ConvKernel::ensure_row(int y) {
  const int k = node().k;
  for (int r = std::max(packed_row_ + 1, y - k + 1); r <= y; ++r) {
    lines_.clear_row(r % k);
  }
  packed_row_ = std::max(packed_row_, y);
}

void ConvKernel::ingest_run(std::span<const std::int32_t> vals) {
  const int y = scanner().cur_row();
  ensure_row(y);
  lines_.pack_run(y % node().k, scanner().row_value_pos(), vals);
}

void ConvKernel::emit(const WindowScanner::Completed& at) {
  const int o_count = node().out.c;
  // Every activation was bit-plane-packed exactly once at ingest; a window
  // is K contiguous bit-range splices per plane out of the line buffer
  // (rows recycled mod K, keyed on the scanner's row), then one
  // filter-parallel dot over all planes and all O filters.
  const int k = node().k;
  const int stride = node().stride;
  const std::int64_t chans = node().in.c;
  // All-padding rows (top/bottom pad) never see an ingest_run; enter them
  // into the ring here so their bits read as zero (= pad code 0).
  ensure_row(at.oy * stride + k - 1);
  const std::int64_t seg = static_cast<std::int64_t>(k) * chans;
  const std::int64_t src_bit =
      static_cast<std::int64_t>(at.ox) * stride * chans;
  for (int p = 0; p < lines_.planes(); ++p) {
    for (int dy = 0; dy < k; ++dy) {
      window_.splice(lines_, p, (at.oy * stride + dy) % k, src_bit,
                     static_cast<std::int64_t>(dy) * seg, seg);
    }
  }
  window_.finalize();
  // "One output pixel per clock cycle, until all the filters are applied
  // at this position" (§III-B1): emit all O responses.
  simd::vec_ops().dot_window(
      window_.data(), window_.planes(),
      static_cast<std::size_t>(window_.plane_words()), packed_weights_.data(),
      packed_weights_.groups(), acc_.data());
  stage().append(std::span<const std::int32_t>(acc_).first(
      static_cast<std::size_t>(o_count)));
}

// ---------------------------------------------------------------- PoolKernel

namespace {

/// dst[i] = op(dst[i], src[i]) over n contiguous values, in fixed blocks
/// of 8: a block's constant trip count lets the compiler vectorize it at
/// -O2, which it does not do for a loop of unknown length.
template <class Op>
void combine_with(Op op, std::int32_t* __restrict dst,
                  const std::int32_t* __restrict src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t j = i; j < i + 8; ++j) dst[j] = op(dst[j], src[j]);
  }
  for (; i < n; ++i) dst[i] = op(dst[i], src[i]);
}

/// Max or sum of two rows of codes; the decision is hoisted out of the
/// loop.
void combine(bool is_max, std::int32_t* dst, const std::int32_t* src,
             std::size_t n) {
  if (is_max) {
    combine_with([](std::int32_t a, std::int32_t b) { return std::max(a, b); },
                 dst, src, n);
  } else {
    combine_with([](std::int32_t a, std::int32_t b) { return a + b; }, dst,
                 src, n);
  }
}

}  // namespace

PoolKernel::PoolKernel(const Node& node, Stream& in, Stream& out,
                       std::size_t burst)
    : WindowKernel(node, in, out, burst),
      is_max_(node.kind == NodeKind::MaxPool),
      row_values_(static_cast<std::int64_t>(scanner().padded_w()) *
                  node.in.c),
      lines_(static_cast<std::size_t>(node.k * row_values_), 0),
      cols_(static_cast<std::size_t>(row_values_), 0) {
  QNN_CHECK(node.kind == NodeKind::MaxPool || node.kind == NodeKind::AvgPool,
            "PoolKernel needs a pooling node");
}

void PoolKernel::rearm_image() { cols_oy_ = -1; }

void PoolKernel::ingest_run(std::span<const std::int32_t> vals) {
  const auto at = static_cast<std::size_t>(
      (scanner().cur_row() % node().k) * row_values_ +
      scanner().row_value_pos());
  std::copy(vals.begin(), vals.end(), lines_.data() + at);
}

void PoolKernel::emit(const WindowScanner::Completed& at) {
  const Node& n = node();
  const int k = n.k;
  const auto c = static_cast<std::size_t>(n.in.c);
  // Padding holds code 0, the identity of max and sum over unsigned codes:
  // only the interior rows and columns of the window take part, and the
  // padding columns of cols_ stay 0.
  if (at.oy != cols_oy_) {
    cols_oy_ = at.oy;
    cols_end_ = 0;
  }
  const int x0 = at.ox * n.stride;
  const int from = std::max({cols_end_, x0, n.pad});
  const int to = std::min(x0 + k, n.pad + n.in.w);
  if (from < to) {
    // Vertical partials of the columns this window adds: the window's
    // interior rows, all resident in the K-row line buffer.
    const int y0 = std::max(at.oy * n.stride, n.pad);
    const int y1 = std::min(at.oy * n.stride + k, n.pad + n.in.h);
    std::int32_t* dst = cols_.data() + static_cast<std::size_t>(from) * c;
    const auto len = static_cast<std::size_t>(to - from) * c;
    auto row = [&](int y) {
      return lines_.data() + static_cast<std::size_t>((y % k) * row_values_) +
             static_cast<std::size_t>(from) * c;
    };
    if (y0 >= y1) {
      std::fill(dst, dst + len, 0);
    } else {
      std::copy(row(y0), row(y0) + len, dst);
      for (int y = y0 + 1; y < y1; ++y) combine(is_max_, dst, row(y), len);
    }
  }
  cols_end_ = std::max(cols_end_, x0 + k);
  // Horizontal: reduce the window's K column partials into the stage.
  const std::int32_t* col = cols_.data() + static_cast<std::size_t>(x0) * c;
  const auto out = stage().extend(c);
  std::copy(col, col + c, out.begin());
  for (int dx = 1; dx < k; ++dx) {
    combine(is_max_, out.data(), col + static_cast<std::size_t>(dx) * c, c);
  }
}

// --------------------------------------------------------------- BnActKernel

BnActKernel::BnActKernel(const Node& node, const ThresholdLayer& thresholds,
                         Stream& in, Stream& out, std::size_t burst)
    : Kernel(node.name),
      node_(node),
      table_(thresholds),
      in_(in),
      out_(out),
      in_burst_(burst) {
  QNN_CHECK(node.kind == NodeKind::BnAct, "BnActKernel needs a BnAct node");
  QNN_CHECK(thresholds.channels() == node.in.c,
            "threshold bank channel count mismatch");
}

void BnActKernel::reset() {
  in_burst_.clear();
  stage_.clear();
  ch_ = 0;
}

void BnActKernel::bind_ready(ReadyHook* hook, int task) {
  in_.bind_consumer(hook, task);
  out_.bind_producer(hook, task);
}

StepResult BnActKernel::step() {
  if (!stage_.flush(out_)) return StepResult::kBlocked;
  bool progressed = false;
  for (int round = 0; round < kRoundsPerStep; ++round) {
    const std::size_t n = in_burst_.refill(in_);
    if (n == 0) {
      if (in_.drained()) {
        out_.close();
        return StepResult::kDone;
      }
      return progressed ? StepResult::kProgress : StepResult::kBlocked;
    }
    // Map the whole burst through the threshold unit in one call, carrying
    // the channel phase across burst boundaries.
    simd::vec_ops().threshold_codes(table_.rows(), in_burst_.take(n).data(),
                                    n, ch_, stage_.extend(n).data());
    ch_ = (ch_ + n) % static_cast<std::size_t>(node_.in.c);
    progressed = true;
    if (!stage_.flush(out_)) return StepResult::kBlocked;
  }
  return StepResult::kProgress;
}

// ----------------------------------------------------------------- AddKernel

AddKernel::AddKernel(const Node& node, Stream& in_main, Stream& in_skip,
                     Stream& out, std::size_t burst_main,
                     std::size_t burst_skip)
    : Kernel(node.name),
      node_(node),
      main_(in_main),
      skip_(in_skip),
      out_(out),
      main_burst_(burst_main),
      skip_burst_(burst_skip) {
  QNN_CHECK(node.kind == NodeKind::Add, "AddKernel needs an Add node");
}

void AddKernel::reset() {
  main_burst_.clear();
  skip_burst_.clear();
  stage_.clear();
}

void AddKernel::bind_ready(ReadyHook* hook, int task) {
  main_.bind_consumer(hook, task);
  skip_.bind_consumer(hook, task);
  out_.bind_producer(hook, task);
}

StepResult AddKernel::step() {
  if (!stage_.flush(out_)) return StepResult::kBlocked;
  bool progressed = false;
  for (int round = 0; round < kRoundsPerStep; ++round) {
    const std::size_t na = main_burst_.refill(main_);
    const std::size_t nb = skip_burst_.refill(skip_);
    if (na == 0 && main_.drained()) {
      // Both paths must end together: a leftover skip value is a protocol
      // bug, but an as-yet-unclosed skip just means we wait for its close.
      QNN_CHECK(nb == 0, name() + ": main stream ended before skip");
      if (!skip_.drained()) {
        return progressed ? StepResult::kProgress : StepResult::kBlocked;
      }
      out_.close();
      return StepResult::kDone;
    }
    QNN_CHECK(!(na > 0 && nb == 0 && skip_.drained()),
              name() + ": skip stream ended before main");
    const std::size_t n = std::min(na, nb);
    if (n == 0) return progressed ? StepResult::kProgress : StepResult::kBlocked;
    const auto regular = main_burst_.take(n);
    const auto skip = skip_burst_.take(n);
    const auto sum = stage_.extend(n);
    for (std::size_t i = 0; i < n; ++i) sum[i] = regular[i] + skip[i];
    progressed = true;
    if (!stage_.flush(out_)) return StepResult::kBlocked;
  }
  return StepResult::kProgress;
}

// ---------------------------------------------------------------- ForkKernel

ForkKernel::ForkKernel(std::string name, Stream& in, std::vector<Stream*> outs,
                       std::size_t burst)
    : Kernel(std::move(name)),
      in_(in),
      outs_(std::move(outs)),
      buf_(std::max<std::size_t>(burst, 1)),
      branch_pos_(outs_.size(), 0),
      stall_noted_(outs_.size(), false) {
  QNN_CHECK(outs_.size() >= 2, "fork needs at least two consumers");
}

void ForkKernel::reset() {
  len_ = 0;
  std::fill(branch_pos_.begin(), branch_pos_.end(), 0);
  std::fill(stall_noted_.begin(), stall_noted_.end(), false);
  in_stall_noted_ = false;
}

void ForkKernel::bind_ready(ReadyHook* hook, int task) {
  in_.bind_consumer(hook, task);
  for (Stream* out : outs_) out->bind_producer(hook, task);
}

bool ForkKernel::flush_branches() {
  bool all = true;
  for (std::size_t b = 0; b < outs_.size(); ++b) {
    std::size_t& pos = branch_pos_[b];
    if (pos < len_) {
      pos += outs_[b]->try_push_burst(
          std::span<const std::int32_t>(buf_).subspan(pos, len_ - pos));
    }
    if (pos < len_) {
      if (!stall_noted_[b]) {
        stall_noted_[b] = true;
        outs_[b]->note_push_stall();
      }
      all = false;
    } else {
      stall_noted_[b] = false;
    }
  }
  return all;
}

StepResult ForkKernel::step() {
  if (!flush_branches()) return StepResult::kBlocked;
  bool progressed = false;
  for (int round = 0; round < kRoundsPerStep; ++round) {
    len_ = in_.try_pop_burst(buf_);
    std::fill(branch_pos_.begin(), branch_pos_.end(), 0);
    if (len_ == 0) {
      if (in_.drained()) {
        for (Stream* out : outs_) out->close();
        return StepResult::kDone;
      }
      if (!in_stall_noted_) {
        in_stall_noted_ = true;
        in_.note_pop_stall();
      }
      return progressed ? StepResult::kProgress : StepResult::kBlocked;
    }
    in_stall_noted_ = false;
    progressed = true;
    if (!flush_branches()) return StepResult::kBlocked;
  }
  return StepResult::kProgress;
}

}  // namespace qnn
