#include "sim/cycle_model.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <memory>
#include <queue>

#include "core/rng.h"

namespace qnn {
namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

class Scheduler;
class KernelSim;

struct SimFifo {
  std::string name;
  std::size_t cap = 0;
  std::size_t occ = 0;
  std::size_t max_occ = 0;
  std::uint64_t total = 0;
  KernelSim* producer = nullptr;
  KernelSim* consumer = nullptr;
  Scheduler* sched = nullptr;

  [[nodiscard]] bool full() const { return occ >= cap; }
  [[nodiscard]] bool empty() const { return occ == 0; }
  void push();
  void pop();
};

/// What a kernel's step did, as far as its next steps are concerned.
struct Step {
  enum Kind : std::uint8_t {
    kActive,     // state moved: step again on the next cycle
    kStallIn,    // starved; every step repeats this until a FIFO changes
    kStallOut,   // blocked; every step repeats this until a FIFO changes
    kWait,       // nothing to do and nothing counted, until a FIFO changes
    kCountdown,  // fixed busy clocks that touch no FIFO, until `until`
    kDone,       // finished for the run
  };
  Kind kind = kActive;
  /// kCountdown: the cycle of the next step that needs running. Stalls and
  /// waits: the cycle the outcome changes even if no FIFO does (a link
  /// outage boundary), kNever when only a FIFO change can alter it.
  std::uint64_t until = kNever;
};

/// Positional (data-free) replica of WindowScanner's cursor.
class PosScanner {
 public:
  PosScanner(Shape in, int k, int stride, int pad)
      : in_(in),
        k_(k),
        stride_(stride),
        pad_(pad),
        hp_(in.h + 2 * pad),
        wp_(in.w + 2 * pad),
        out_h_(conv_out_extent(in.h, k, stride, pad)),
        out_w_(conv_out_extent(in.w, k, stride, pad)) {}

  [[nodiscard]] bool done() const { return y_ >= hp_; }
  [[nodiscard]] bool is_padding() const {
    return y_ < pad_ || y_ >= pad_ + in_.h || x_ < pad_ ||
           x_ >= pad_ + in_.w;
  }
  /// True when the current pixel (y, x) is the bottom-right corner of a
  /// valid window (per-channel completions happen throughout this pixel).
  [[nodiscard]] bool at_corner_pixel() const {
    const int ry = y_ - (k_ - 1);
    const int rx = x_ - (k_ - 1);
    return ry >= 0 && rx >= 0 && ry % stride_ == 0 && rx % stride_ == 0 &&
           ry / stride_ < out_h_ && rx / stride_ < out_w_;
  }

  /// Advance one pixel; true when the full window completed (the current
  /// pixel was the bottom-right corner of a valid window).
  bool advance() {
    const bool window = at_corner_pixel();
    if (++x_ == wp_) {
      x_ = 0;
      ++y_;
    }
    return window;
  }

  void reset() { y_ = x_ = 0; }

 private:
  Shape in_;
  int k_;
  int stride_;
  int pad_;
  int hp_;
  int wp_;
  int out_h_;
  int out_w_;
  int y_ = 0;
  int x_ = 0;
};

class KernelSim {
 public:
  explicit KernelSim(std::string name) { st_.name = std::move(name); }
  virtual ~KernelSim() = default;
  /// Advance one fabric clock; `now` is the global cycle counter (used by
  /// the sink for completion timestamps and by links for outage windows).
  virtual Step step(std::uint64_t now) = 0;
  /// Account `cycles` skipped steps that would each have repeated `kind`.
  void skip(Step::Kind kind, std::uint64_t cycles) {
    switch (kind) {
      case Step::kStallIn:
        st_.stall_in += cycles;
        break;
      case Step::kStallOut:
        st_.stall_out += cycles;
        break;
      case Step::kCountdown:
        count_down(cycles);
        st_.busy += cycles;
        break;
      case Step::kActive:
      case Step::kWait:
      case Step::kDone:
        break;
    }
  }
  [[nodiscard]] const KernelStats& stats() const { return st_; }
  /// Position in the step order (set once the kernels are ordered).
  int order = -1;

 protected:
  /// Kernels that report kCountdown advance their countdown by `cycles`.
  virtual void count_down(std::uint64_t /*cycles*/) {
    QNN_DCHECK(false, "kernel has no countdown");
  }
  void reads(SimFifo& f) { f.consumer = this; }
  void writes(SimFifo& f) { f.producer = this; }

  KernelStats st_;
};

/// Event-driven stepping. A kernel's step depends only on its own state,
/// the occupancy of its adjacent FIFOs and (for a link) the cycle number,
/// so a kernel that stalled sleeps until a neighbour pushes to or pops
/// from one of its FIFOs, and one in a fixed busy countdown sleeps on a
/// timer. The stall or busy cycles it slept through are added in bulk when
/// it wakes (or when the run ends), so every counter matches stepping all
/// kernels on every clock.
class Scheduler {
 public:
  /// A FIFO adjacent to `k` changed during the step of kernel `stepping_`.
  /// A sleeper later in the step order sees the change on this cycle, an
  /// earlier one (already past its step) on the next.
  void touched(const KernelSim* k) {
    if (k == nullptr) return;
    const auto i = static_cast<std::size_t>(k->order);
    if (slots_[i].state != kAsleep) return;
    wake(i, k->order > stepping_ ? now_ : now_ + 1);
  }

  /// Step `kernels` in order, cycle 1, 2, ... until `finished()` holds
  /// after a cycle; returns that cycle. Throws the deadlock `Error`, with
  /// `dump()` of the counters, when the budget is spent or as soon as no
  /// kernel can ever move again.
  template <class Finished, class Dump>
  std::uint64_t run(const std::vector<std::unique_ptr<KernelSim>>& kernels,
                    Finished finished, std::uint64_t budget, Dump dump) {
    kernels_ = &kernels;
    const std::size_t n = kernels.size();
    slots_.assign(n, Slot{});
    const std::size_t words = (n + 63) / 64;
    cur_.assign(words, 0);
    next_.assign(words, 0);
    for (std::size_t i = 0; i < n; ++i) {
      kernels[i]->order = static_cast<int>(i);
      next_[i / 64] |= std::uint64_t{1} << (i % 64);
    }
    now_ = 0;
    for (;;) {
      const bool next_cycle = std::any_of(
          next_.begin(), next_.end(), [](std::uint64_t w) { return w != 0; });
      std::uint64_t t = now_ + 1;
      if (!next_cycle) {
        while (!timers_.empty() &&
               slots_[timers_.top().second].timer != timers_.top().first) {
          timers_.pop();
        }
        if (timers_.empty()) {  // every kernel waits on a FIFO: stuck
          settle_all(now_);
          throw Error("cycle simulation exceeded budget (deadlock?): no "
                      "kernel can move after cycle " +
                      std::to_string(now_) + "\n" + dump());
        }
        t = timers_.top().first;
      }
      if (t > budget) {
        settle_all(budget);
        throw Error("cycle simulation exceeded budget (deadlock?): " +
                    std::to_string(budget) + " cycles\n" + dump());
      }
      now_ = t;
      std::swap(cur_, next_);
      while (!timers_.empty() && timers_.top().first == now_) {
        const std::size_t i = timers_.top().second;
        timers_.pop();
        if (slots_[i].timer == now_) wake(i, now_);
      }
      for (std::size_t w = 0; w < words; ++w) {
        while (cur_[w] != 0) {
          const std::size_t i =
              w * 64 + static_cast<std::size_t>(std::countr_zero(cur_[w]));
          cur_[w] &= cur_[w] - 1;
          stepping_ = static_cast<int>(i);
          settle(i, kernels[i]->step(now_));
        }
      }
      if (finished()) break;
    }
    settle_all(now_);
    return now_;
  }

 private:
  enum State : std::uint8_t {
    kRunning,   // in the current or next cycle's set
    kAsleep,    // stalled or waiting: a FIFO change (or its timer) wakes it
    kCounting,  // fixed countdown: only its timer wakes it
    kFinished,
  };
  struct Slot {
    State state = kRunning;
    Step::Kind kind = Step::kActive;  // what each skipped step repeats
    std::uint64_t since = 0;          // last cycle accounted for
    std::uint64_t timer = kNever;     // armed wake-up cycle
  };

  void schedule_next(std::size_t i) {
    slots_[i].state = kRunning;
    next_[i / 64] |= std::uint64_t{1} << (i % 64);
  }

  /// Account the skipped steps up to `cycle - 1` and step `i` at `cycle`.
  void wake(std::size_t i, std::uint64_t cycle) {
    Slot& s = slots_[i];
    (*kernels_)[i]->skip(s.kind, cycle - 1 - s.since);
    s.state = kRunning;
    s.timer = kNever;
    auto& set = cycle == now_ ? cur_ : next_;
    set[i / 64] |= std::uint64_t{1} << (i % 64);
  }

  void settle(std::size_t i, Step r) {
    Slot& s = slots_[i];
    switch (r.kind) {
      case Step::kActive:
        schedule_next(i);
        return;
      case Step::kDone:
        s.state = kFinished;
        return;
      case Step::kCountdown:
        QNN_DCHECK(r.until > now_, "countdown must end in the future");
        if (r.until == now_ + 1) {
          schedule_next(i);
          return;
        }
        s.state = kCounting;
        break;
      case Step::kStallIn:
      case Step::kStallOut:
      case Step::kWait:
        s.state = kAsleep;
        break;
    }
    s.kind = r.kind;
    s.since = now_;
    s.timer = r.until;
    if (r.until != kNever) timers_.emplace(r.until, i);
  }

  /// Account every sleeper's skipped steps up to and including `cycle`.
  void settle_all(std::uint64_t cycle) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (s.state != kAsleep && s.state != kCounting) continue;
      (*kernels_)[i]->skip(s.kind, cycle - s.since);
      s.since = cycle;
    }
  }

  const std::vector<std::unique_ptr<KernelSim>>* kernels_ = nullptr;
  std::vector<Slot> slots_;
  std::vector<std::uint64_t> cur_;   // bitset: kernels to step this cycle
  std::vector<std::uint64_t> next_;  // bitset: kernels to step next cycle
  std::priority_queue<std::pair<std::uint64_t, std::size_t>,
                      std::vector<std::pair<std::uint64_t, std::size_t>>,
                      std::greater<>>
      timers_;
  std::uint64_t now_ = 0;
  int stepping_ = -1;
};

void SimFifo::push() {
  ++occ;
  max_occ = std::max(max_occ, occ);
  ++total;
  sched->touched(consumer);
}

void SimFifo::pop() {
  QNN_DCHECK(occ > 0, "pop from empty sim fifo");
  --occ;
  sched->touched(producer);
}

class SourceSim final : public KernelSim {
 public:
  SourceSim(SimFifo& out, std::int64_t values_per_image, int images)
      : KernelSim("source"), out_(out),
        remaining_(values_per_image * images) {
    writes(out_);
  }

  Step step(std::uint64_t /*now*/) override {
    if (remaining_ == 0) return {Step::kDone};
    if (out_.full()) {
      ++st_.stall_out;
      return {Step::kStallOut};
    }
    out_.push();
    ++st_.busy;
    ++st_.outputs;
    --remaining_;
    return {};
  }

 private:
  SimFifo& out_;
  std::int64_t remaining_;
};

class SinkSim final : public KernelSim {
 public:
  SinkSim(SimFifo& in, std::int64_t values_per_image, int images)
      : KernelSim("sink"), in_(in), per_image_(values_per_image),
        images_(images) {
    reads(in_);
  }

  Step step(std::uint64_t now) override {
    if (done()) return {Step::kDone};
    if (in_.empty()) {
      ++st_.stall_in;
      return {Step::kStallIn};
    }
    in_.pop();
    ++st_.busy;
    if (++got_ == per_image_) {
      got_ = 0;
      completions_.push_back(now);
    }
    return {};
  }

  [[nodiscard]] bool done() const {
    return static_cast<int>(completions_.size()) >= images_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& completions() const {
    return completions_;
  }

 private:
  SimFifo& in_;
  std::int64_t per_image_;
  int images_;
  std::int64_t got_ = 0;
  std::vector<std::uint64_t> completions_;
};

class ConvSim final : public KernelSim {
 public:
  ConvSim(const Node& n, const SimConfig& cfg, SimFifo& in, SimFifo& out,
          int images)
      : KernelSim(n.name), in_(in), out_(out),
        scan_(n.in, n.k, n.stride, n.pad),
        emit_cycles_(static_cast<std::uint64_t>(n.out.c) *
                     cfg.cycles_per_output(n)),
        images_left_(images) {
    reads(in_);
    writes(out_);
    const std::int64_t weight_bits = n.filter_shape().total_weights();
    if (weight_bits > cfg.weight_cache_capacity_bits) {
      ws_per_image_ = static_cast<std::uint64_t>(
          (weight_bits + cfg.weight_stream_bits_per_cycle - 1) /
          cfg.weight_stream_bits_per_cycle);
    }
    ws_left_ = ws_per_image_;
  }

  Step step(std::uint64_t now) override {
    if (ws_left_ > 0) {  // host-streaming this image's weight bank
      --ws_left_;
      ++st_.busy;
      return next(now);
    }
    if (emit_left_ > 0) {  // input halted: all O filters at this position
      if (emit_left_ > 1) {
        --emit_left_;
        ++st_.busy;
        return next(now);
      }
      // Final emission cycle: the completed output pixel enters the stream.
      if (out_.full()) {
        ++st_.stall_out;
        return {Step::kStallOut};
      }
      out_.push();
      ++st_.busy;
      ++st_.outputs;
      emit_left_ = 0;
      maybe_finish_image();
      return next(now);
    }
    if (scan_.done()) return {Step::kDone};
    if (scan_.is_padding()) {
      consumed();
      return next(now);
    }
    if (in_.empty()) {
      ++st_.stall_in;
      return {Step::kStallIn};
    }
    in_.pop();
    consumed();
    return next(now);
  }

 protected:
  void count_down(std::uint64_t cycles) override {
    if (ws_left_ > 0) {
      QNN_DCHECK(cycles <= ws_left_, "weight-stream countdown overrun");
      ws_left_ -= cycles;
    } else {
      QNN_DCHECK(cycles < emit_left_, "emission countdown overrun");
      emit_left_ -= cycles;
    }
  }

 private:
  /// The scanner took one (input or padding) pixel.
  void consumed() {
    const bool window = scan_.advance();
    ++st_.busy;
    if (window) {
      emit_left_ = emit_cycles_;
    } else {
      maybe_finish_image();
    }
  }

  /// Weight streaming and every emission clock but the final (pushing) one
  /// are fixed busy countdowns.
  [[nodiscard]] Step next(std::uint64_t now) const {
    if (ws_left_ > 0) return {Step::kCountdown, now + ws_left_ + 1};
    if (emit_left_ > 1) return {Step::kCountdown, now + emit_left_};
    return {};
  }

  void maybe_finish_image() {
    if (!scan_.done() || emit_left_ > 0) return;
    if (--images_left_ > 0) {
      scan_.reset();
      ws_left_ = ws_per_image_;
    }
  }

  SimFifo& in_;
  SimFifo& out_;
  PosScanner scan_;
  std::uint64_t emit_cycles_;  // clocks spent per completed window
  int images_left_;
  std::uint64_t ws_per_image_ = 0;
  std::uint64_t ws_left_ = 0;
  std::uint64_t emit_left_ = 0;
};

class PoolSim final : public KernelSim {
 public:
  PoolSim(const Node& n, SimFifo& in, SimFifo& out, int images)
      : KernelSim(n.name), in_(in), out_(out),
        scan_(n.in, n.k, n.stride, n.pad), images_left_(images) {
    reads(in_);
    writes(out_);
  }

  Step step(std::uint64_t /*now*/) override {
    if (scan_.done()) return {Step::kDone};
    // Pooling emits on the same clock as the completing input (§III-B2):
    // at a corner pixel every consumed channel value yields one output.
    const bool emits = scan_.at_corner_pixel();
    if (emits && out_.full()) {
      ++st_.stall_out;
      return {Step::kStallOut};
    }
    if (scan_.is_padding()) {
      scan_.advance();
    } else {
      if (in_.empty()) {
        ++st_.stall_in;
        return {Step::kStallIn};
      }
      in_.pop();
      scan_.advance();
    }
    ++st_.busy;
    if (emits) {
      out_.push();
      ++st_.outputs;
    }
    if (scan_.done() && --images_left_ > 0) scan_.reset();
    return {};
  }

 private:
  SimFifo& in_;
  SimFifo& out_;
  PosScanner scan_;
  int images_left_;
};

/// One-value-per-clock flow-through (BnAct and forks).
class PassSim final : public KernelSim {
 public:
  PassSim(std::string name, SimFifo& in, std::vector<SimFifo*> outs)
      : KernelSim(std::move(name)), in_(in), outs_(std::move(outs)) {
    reads(in_);
    for (SimFifo* out : outs_) writes(*out);
  }

  Step step(std::uint64_t /*now*/) override {
    if (in_.empty()) {
      ++st_.stall_in;
      return {Step::kStallIn};
    }
    for (SimFifo* out : outs_) {
      if (out->full()) {
        ++st_.stall_out;
        return {Step::kStallOut};
      }
    }
    in_.pop();
    for (SimFifo* out : outs_) out->push();
    ++st_.busy;
    ++st_.outputs;
    return {};
  }

 private:
  SimFifo& in_;
  std::vector<SimFifo*> outs_;
};

/// MaxRing serializer (§III-B6): a stream crossing to the next DFE is
/// shipped in frames of up to `frame_pixels` pixels (the planned burst
/// carried across the cut; 1 without a plan). A frame of m pixels costs
/// ceil(m * pixel_bits / link_bits_per_cycle) clocks, so a planned burst
/// pays the link-word rounding once per frame where per-pixel framing
/// pays it on every pixel. An injected LinkFault adds outage windows
/// (nothing moves) and CRC-style corruption: a corrupted frame is
/// re-serialized once before delivery.
class LinkSim final : public KernelSim {
 public:
  LinkSim(std::string name, SimFifo& in, SimFifo& out, int frame_pixels,
          std::int64_t pixel_bits, int link_bits,
          SimConfig::LinkFault fault = {})
      : KernelSim(std::move(name)), in_(in), out_(out),
        frame_pixels_(frame_pixels), pixel_bits_(pixel_bits),
        link_bits_(link_bits), fault_(fault), rng_(fault.seed) {
    QNN_CHECK(frame_pixels_ >= 1, "link frame must hold >= 1 pixel");
    QNN_CHECK(pixel_bits_ >= 1 && link_bits_ >= 1,
              "link serialization needs positive widths");
    reads(in_);
    writes(out_);
    if (fault_.down_cycles > 0 && fault_.down_from_cycle != kNever) {
      down_end_ = fault_.down_cycles > kNever - fault_.down_from_cycle
                      ? kNever
                      : fault_.down_from_cycle + fault_.down_cycles;
    }
  }

  Step step(std::uint64_t now) override {
    if (now >= fault_.down_from_cycle && now < down_end_) {
      // Outage window: the link moves nothing this cycle.
      if (holding_ > 0 || !in_.empty()) {
        ++st_.stall_out;
        return {Step::kStallOut, down_end_};
      }
      return {Step::kWait, down_end_};
    }
    if (holding_ > 0) {
      if (remaining_ > 0) {
        --remaining_;
        ++st_.busy;
        return remaining_ == 0 ? finish_serialization(now) : serializing(now);
      }
      return deliver(now);
    }
    if (in_.empty()) {
      ++st_.stall_in;
      return {Step::kStallIn, next_outage(now)};
    }
    // Open a frame from whatever is available (up to the planned burst):
    // waiting for a full frame at a stream tail would deadlock.
    int taken = 0;
    while (taken < frame_pixels_ && !in_.empty()) {
      in_.pop();
      ++taken;
    }
    holding_ = taken;
    remaining_ = serialize_cycles(taken) - 1;
    ++st_.busy;
    return remaining_ == 0 ? finish_serialization(now) : serializing(now);
  }

 protected:
  void count_down(std::uint64_t cycles) override {
    QNN_DCHECK(cycles < static_cast<std::uint64_t>(remaining_),
               "serialization countdown overrun");
    remaining_ -= static_cast<int>(cycles);
  }

 private:
  [[nodiscard]] int serialize_cycles(int pixels) const {
    const std::int64_t bits = pixel_bits_ * pixels;
    return static_cast<int>((bits + link_bits_ - 1) / link_bits_);
  }

  /// Start of the next outage window after `now` (kNever if none).
  [[nodiscard]] std::uint64_t next_outage(std::uint64_t now) const {
    return now < fault_.down_from_cycle && down_end_ != 0
               ? fault_.down_from_cycle
               : kNever;
  }

  /// Serializing the held frame: every clock until the last one is a
  /// fixed busy countdown, cut short by an outage.
  [[nodiscard]] Step serializing(std::uint64_t now) const {
    return {Step::kCountdown,
            std::min(now + static_cast<std::uint64_t>(remaining_),
                     next_outage(now))};
  }

  /// Serialization of the held frame is complete: draw the corruption
  /// fault (once per frame — a corrupted frame re-serializes exactly
  /// once), then start landing its pixels.
  Step finish_serialization(std::uint64_t now) {
    if (fault_.corrupt_per_million > 0 && !retransmitted_ &&
        rng_.next_below(1'000'000) < fault_.corrupt_per_million) {
      retransmitted_ = true;
      ++st_.retransmits;
      remaining_ = serialize_cycles(holding_);
      return serializing(now);
    }
    return deliver(now);
  }

  /// Land the held frame's pixels as the far FIFO accepts them; a full
  /// far FIFO stalls the link without drawing the fault again.
  Step deliver(std::uint64_t now) {
    bool moved = false;
    while (holding_ > 0) {
      if (out_.full()) {
        ++st_.stall_out;
        if (moved) return {};
        return {Step::kStallOut, next_outage(now)};
      }
      out_.push();
      ++st_.outputs;
      --holding_;
      moved = true;
    }
    retransmitted_ = false;
    return {};
  }

  SimFifo& in_;
  SimFifo& out_;
  int frame_pixels_;
  std::int64_t pixel_bits_;
  int link_bits_;
  SimConfig::LinkFault fault_;
  std::uint64_t down_end_ = 0;  // first cycle after the outage window
  Rng rng_;
  int remaining_ = 0;
  int holding_ = 0;  // pixels of the open frame not yet delivered
  bool retransmitted_ = false;
};

class AddSim final : public KernelSim {
 public:
  AddSim(const Node& n, SimFifo& main, SimFifo& skip, SimFifo& out)
      : KernelSim(n.name), main_(main), skip_(skip), out_(out) {
    reads(main_);
    reads(skip_);
    writes(out_);
  }

  Step step(std::uint64_t /*now*/) override {
    if (main_.empty() || skip_.empty()) {
      ++st_.stall_in;
      return {Step::kStallIn};
    }
    if (out_.full()) {
      ++st_.stall_out;
      return {Step::kStallOut};
    }
    main_.pop();
    skip_.pop();
    out_.push();
    ++st_.busy;
    ++st_.outputs;
    return {};
  }

 private:
  SimFifo& main_;
  SimFifo& skip_;
  SimFifo& out_;
};

/// Every SimConfig field the clock model divides by must be positive.
void check_divisors(const SimConfig& config) {
  QNN_CHECK(config.datapath_bits > 0, "SimConfig::datapath_bits must be > 0");
  QNN_CHECK(config.link_bits_per_cycle > 0,
            "SimConfig::link_bits_per_cycle must be > 0");
  QNN_CHECK(config.weight_stream_bits_per_cycle > 0,
            "SimConfig::weight_stream_bits_per_cycle must be > 0");
  QNN_CHECK(config.clock_hz > 0.0, "SimConfig::clock_hz must be > 0");
}

}  // namespace

SimResult simulate(const Pipeline& pipeline, const SimConfig& config,
                   int images) {
  check_divisors(config);
  pipeline.validate();
  QNN_CHECK(images >= 2, "need >= 2 images to observe the steady interval");
  for (const SimConfig::LinkFault& f : config.link_faults) {
    QNN_CHECK(f.corrupt_per_million <= 250'000,
              "link corruption rate above 25% is not a working link");
  }
  // Merge the faults targeting one link ordinal (earliest outage wins,
  // corruption rates take the max) so each LinkSim carries one record.
  auto fault_for = [&](int link) {
    SimConfig::LinkFault merged;
    merged.link = link;
    for (const SimConfig::LinkFault& f : config.link_faults) {
      if (f.link != link) continue;
      if (f.down_cycles > 0 && f.down_from_cycle < merged.down_from_cycle) {
        merged.down_from_cycle = f.down_from_cycle;
        merged.down_cycles = f.down_cycles;
      }
      merged.corrupt_per_million =
          std::max(merged.corrupt_per_million, f.corrupt_per_million);
      if (f.seed != 0) merged.seed = f.seed;
    }
    return merged;
  };

  Scheduler sched;
  std::vector<std::unique_ptr<SimFifo>> fifos;
  auto make_fifo = [&](std::size_t cap, std::string name) -> SimFifo& {
    auto f = std::make_unique<SimFifo>();
    f->sched = &sched;
    f->cap = cap;
    f->name = std::move(name);
    fifos.push_back(std::move(f));
    return *fifos.back();
  };

  std::vector<SimFifo*> main_in(static_cast<std::size_t>(pipeline.size()),
                                nullptr);
  std::vector<SimFifo*> skip_in(static_cast<std::size_t>(pipeline.size()),
                                nullptr);
  std::vector<std::unique_ptr<KernelSim>> kernels;

  // Mirror the threaded engine's wiring: direct edge, or fork on fan-out.
  // Skip FIFOs get capacity for a full map: the simulator *measures* the
  // occupancy they actually need, which tests compare against the paper's
  // buffer-size formula (§III-B5). Edges crossing a configured DFE cut get
  // a MaxRing serializer in between.
  int links_made = 0;
  auto crosses_cut = [&](int p, int c) {
    for (int cut : config.cut_after_nodes) {
      if (p <= cut && c > cut) return true;
    }
    return false;
  };
  auto wire = [&](int p, const Shape& shape, SimFifo*& produced) {
    std::vector<int> consumers;
    for (int j = 0; j < pipeline.size(); ++j) {
      if (pipeline.node(j).main_from == p) consumers.push_back(j);
      if (p >= 0 && pipeline.node(j).skip_from == p) consumers.push_back(j);
    }
    const std::string pname = p < 0 ? "input" : pipeline.node(p).name;
    auto capacity_for = [&](int consumer) -> std::size_t {
      const Node& n = pipeline.node(consumer);
      if (n.kind == NodeKind::Add && n.skip_from == p && n.main_from != p) {
        return static_cast<std::size_t>(shape.h) * shape.w + 64;
      }
      return config.fifo_depth;
    };
    auto attach = [&](int consumer, SimFifo& upstream) {
      const Node& n = pipeline.node(consumer);
      const bool is_main =
          n.main_from == p &&
          main_in[static_cast<std::size_t>(consumer)] == nullptr;
      SimFifo* f = &upstream;
      if (p >= 0 && crosses_cut(p, consumer)) {
        // Serialize this stream over the MaxRing in frames of the planned
        // burst (one pixel when no plan was carried across the cut).
        const Node& producer = pipeline.node(p);
        const std::int64_t pixel_bits =
            static_cast<std::int64_t>(producer.out.c) * producer.out_bits;
        const std::size_t burst_values =
            config.link_burst_values(consumer, /*to_skip_port=*/!is_main);
        const int frame_pixels = std::max<int>(
            1, static_cast<int>(
                   static_cast<std::int64_t>(burst_values) /
                   std::max<std::int64_t>(1, producer.out.c)));
        SimFifo& landed =
            make_fifo(upstream.cap, pname + "~link~" + n.name);
        kernels.push_back(std::make_unique<LinkSim>(
            "link_" + pname + "_" + std::to_string(links_made), upstream,
            landed, frame_pixels, pixel_bits, config.link_bits_per_cycle,
            fault_for(links_made)));
        ++links_made;
        f = &landed;
      }
      if (is_main) {
        main_in[static_cast<std::size_t>(consumer)] = f;
      } else {
        skip_in[static_cast<std::size_t>(consumer)] = f;
      }
    };
    if (consumers.empty()) {
      produced = &make_fifo(config.fifo_depth, pname + "->sink");
      return;
    }
    if (consumers.size() == 1) {
      SimFifo& f = make_fifo(capacity_for(consumers[0]),
                             pname + "->" +
                                 pipeline.node(consumers[0]).name);
      attach(consumers[0], f);
      produced = &f;
      return;
    }
    SimFifo& trunk = make_fifo(config.fifo_depth, pname + "->fork");
    std::vector<SimFifo*> branches;
    for (int consumer : consumers) {
      SimFifo& f = make_fifo(capacity_for(consumer),
                             pname + "=>" + pipeline.node(consumer).name);
      attach(consumer, f);
      branches.push_back(&f);
    }
    kernels.push_back(std::make_unique<PassSim>("fork_" + pname, trunk,
                                                std::move(branches)));
    produced = &trunk;
  };

  SimFifo* input_fifo = nullptr;
  wire(-1, pipeline.input, input_fifo);
  std::vector<SimFifo*> node_out(static_cast<std::size_t>(pipeline.size()),
                                 nullptr);
  for (int i = 0; i < pipeline.size(); ++i) {
    wire(i, pipeline.node(i).out, node_out[static_cast<std::size_t>(i)]);
  }

  // Forks were appended during wiring; prepend the source, then the node
  // kernels in topological order, then the sink. Step order is topological
  // so a value can traverse flow-through kernels within one cycle, which
  // models combinational chaining without inflating the interval.
  std::vector<std::unique_ptr<KernelSim>> forks = std::move(kernels);
  kernels.clear();
  kernels.push_back(std::make_unique<SourceSim>(
      *input_fifo,
      static_cast<std::int64_t>(pipeline.input.h) * pipeline.input.w,
      images));
  std::size_t fork_cursor = 0;
  // Forks were created in wire() call order: input first, then node 0..n.
  // Re-interleave them right after their producing stage.
  auto take_forks_for = [&](const std::string& pname) {
    while (fork_cursor < forks.size()) {
      const std::string& name = forks[fork_cursor]->stats().name;
      const bool is_fork = name == "fork_" + pname;
      const bool is_link = name.rfind("link_" + pname + "_", 0) == 0;
      if (!is_fork && !is_link) break;
      kernels.push_back(std::move(forks[fork_cursor]));
      ++fork_cursor;
    }
  };
  take_forks_for("input");
  for (int i = 0; i < pipeline.size(); ++i) {
    const Node& n = pipeline.node(i);
    SimFifo* in = main_in[static_cast<std::size_t>(i)];
    SimFifo* out = node_out[static_cast<std::size_t>(i)];
    QNN_CHECK(in != nullptr && out != nullptr, "sim wiring incomplete");
    switch (n.kind) {
      case NodeKind::Conv:
        kernels.push_back(
            std::make_unique<ConvSim>(n, config, *in, *out, images));
        break;
      case NodeKind::MaxPool:
      case NodeKind::AvgPool:
        kernels.push_back(std::make_unique<PoolSim>(n, *in, *out, images));
        break;
      case NodeKind::BnAct:
        kernels.push_back(std::make_unique<PassSim>(
            n.name, *in, std::vector<SimFifo*>{out}));
        break;
      case NodeKind::Add: {
        SimFifo* skip = skip_in[static_cast<std::size_t>(i)];
        QNN_CHECK(skip != nullptr, "sim add without skip fifo");
        kernels.push_back(std::make_unique<AddSim>(n, *in, *skip, *out));
        break;
      }
    }
    take_forks_for(n.name);
  }
  QNN_CHECK(fork_cursor == forks.size(), "fork interleaving failed");

  const Shape out_shape = pipeline.output_shape();
  auto sink = std::make_unique<SinkSim>(
      *node_out[static_cast<std::size_t>(pipeline.size() - 1)],
      static_cast<std::int64_t>(out_shape.h) * out_shape.w, images);
  SinkSim* sink_ptr = sink.get();
  kernels.push_back(std::move(sink));

  // Generous bound: every kernel's busy work plus slack; a stalled pipeline
  // beyond this is a wiring bug, not a slow network.
  std::uint64_t budget = 1024;
  for (const auto& [name, cycles] : analytic_busy_cycles(pipeline, config)) {
    budget += cycles * static_cast<std::uint64_t>(images) * 4;
  }
  // Cut-crossing streams serialize over the link; include their cycles.
  for (int c = 0; c < pipeline.size(); ++c) {
    const Node& n = pipeline.node(c);
    for (int src : {n.main_from, n.skip_from}) {
      if (src < 0 || !crosses_cut(src, c)) continue;
      const Node& producer = pipeline.node(src);
      const std::int64_t pixel_bits =
          static_cast<std::int64_t>(producer.out.c) * producer.out_bits;
      const auto cpp = static_cast<std::uint64_t>(
          (pixel_bits + config.link_bits_per_cycle - 1) /
          config.link_bits_per_cycle);
      budget += static_cast<std::uint64_t>(producer.out.h) *
                producer.out.w * cpp * static_cast<std::uint64_t>(images) *
                4;
    }
  }
  // Injected link faults legitimately slow the run: extend the deadlock
  // budget by each outage window and by the worst-case retransmission
  // overhead (rate is capped at 25%, so <= budget/2 extra).
  for (const SimConfig::LinkFault& f : config.link_faults) {
    budget += f.down_cycles * 2;
    if (f.corrupt_per_million > 0) budget += budget / 2;
  }

  const std::uint64_t cycle = sched.run(
      kernels, [&] { return sink_ptr->done(); }, budget, [&] {
        std::string msg;
        for (const auto& k : kernels) {
          const auto& s = k->stats();
          msg += "  kernel " + s.name + ": busy=" + std::to_string(s.busy) +
                 " in_stall=" + std::to_string(s.stall_in) +
                 " out_stall=" + std::to_string(s.stall_out) +
                 " outputs=" + std::to_string(s.outputs) + "\n";
        }
        for (const auto& f : fifos) {
          msg += "  fifo " + f->name + ": occ=" + std::to_string(f->occ) +
                 "/" + std::to_string(f->cap) + "\n";
        }
        return msg;
      });

  SimResult result;
  result.images = images;
  result.total_cycles = cycle;
  const auto& done = sink_ptr->completions();
  result.first_image_cycles = done.front();
  result.steady_interval =
      images >= 2 ? done[done.size() - 1] - done[done.size() - 2]
                  : done.front();
  for (const auto& k : kernels) result.kernels.push_back(k->stats());
  for (const auto& f : fifos) {
    result.fifos.push_back(FifoStats{f->name, f->cap, f->max_occ, f->total});
  }
  return result;
}

std::vector<std::pair<std::string, std::uint64_t>> analytic_busy_cycles(
    const Pipeline& pipeline, const SimConfig& config) {
  check_divisors(config);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (int i = 0; i < pipeline.size(); ++i) {
    const Node& n = pipeline.node(i);
    std::uint64_t cycles = 0;
    switch (n.kind) {
      case NodeKind::Conv: {
        const auto padded =
            static_cast<std::uint64_t>(n.in.h + 2 * n.pad) *
            (n.in.w + 2 * n.pad);
        const auto emits =
            static_cast<std::uint64_t>(n.out.h) * n.out.w * n.out.c *
            static_cast<std::uint64_t>(config.cycles_per_output(n));
        const std::int64_t weight_bits = n.filter_shape().total_weights();
        const std::uint64_t ws =
            weight_bits > config.weight_cache_capacity_bits
                ? static_cast<std::uint64_t>(
                      (weight_bits + config.weight_stream_bits_per_cycle -
                       1) /
                      config.weight_stream_bits_per_cycle)
                : 0;
        cycles = padded + emits + ws;
        break;
      }
      case NodeKind::MaxPool:
      case NodeKind::AvgPool:
        cycles = static_cast<std::uint64_t>(n.in.h + 2 * n.pad) *
                 (n.in.w + 2 * n.pad);
        break;
      case NodeKind::BnAct:
      case NodeKind::Add:
        cycles = static_cast<std::uint64_t>(n.in.h) * n.in.w;
        break;
    }
    out.emplace_back(n.name, cycles);
  }
  return out;
}

std::uint64_t analytic_bottleneck_cycles(const Pipeline& pipeline,
                                         const SimConfig& config) {
  std::uint64_t best = 0;
  for (const auto& [name, cycles] : analytic_busy_cycles(pipeline, config)) {
    best = std::max(best, cycles);
  }
  return best;
}

}  // namespace qnn
