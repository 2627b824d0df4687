// Streaming kernels: the functional decomposition units of §III-B.
//
// Each kernel corresponds to one pipeline Node and is connected to its
// neighbours only through Streams; it is triggered by input availability
// and output buffer space (dataflow firing rule, §II-B). Forks are inserted
// by the engine wherever a stream fans out (residual skip connections).
//
// Kernels are *resumable tasks*, not threads: the unit of execution is
// step(), which performs a bounded amount of work using only the streams'
// non-blocking burst API and reports whether it progressed, is blocked on
// a neighbour, or has finished. The ready-queue executor (executor.h)
// steps whichever kernels the streams have woken on a pool no larger than
// the core count, so a 70-kernel pipeline never oversubscribes the host.
//
// Data moves in bursts end to end: a kernel pops a burst of input values,
// transforms it (BnAct maps the whole burst through the threshold unit in
// one SIMD call; Add sums a burst pair in one loop; Conv/Pool copy each
// row segment once into their own K-row line buffer and advance a
// data-free window cursor a run at a time, never a value at a time; Conv
// emits all O filter responses per completed window through the packed
// XNOR-popcount datapath, Pool reduces its window rows channel-
// contiguously), stages the results, and flushes them with one ring
// transaction. Blocked-episode accounting (Stream::note_*_stall) fires
// once per continuous blocked period, so the stall counters keep their
// pre-burst meaning.
//
// All kernels process an unbounded sequence of images and terminate when
// their input stream is closed at an image boundary.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/packed_planes.h"
#include "core/simd/vec_ops.h"
#include "dataflow/stream.h"
#include "fault/fault.h"
#include "dataflow/window_scanner.h"
#include "nn/params.h"
#include "nn/pipeline.h"

namespace qnn {

/// Outcome of one cooperative step.
enum class StepResult {
  kProgress,  // did work; call again
  kBlocked,   // no input available / no output space; retry later
  kDone,      // input drained at an image boundary; output closed
};

/// Default cap on the burst size (values) kernels move per stream
/// transaction. With adaptive per-edge sizing (EngineOptions::
/// adaptive_burst) each edge defaults to one row of the map it carries,
/// clamped to this cap; without it every edge moves exactly this many.
inline constexpr std::size_t kDefaultBurst = 256;

// ------------------------------------------------------------------ helpers

/// Staged kernel output awaiting FIFO space: results are appended as they
/// are computed and flushed with one try_push_burst per step, surviving
/// partial flushes across Blocked returns.
class OutStage {
 public:
  void append(std::int32_t v) { buf_.push_back(v); }
  void append(std::span<const std::int32_t> vals) {
    buf_.insert(buf_.end(), vals.begin(), vals.end());
  }
  /// Stage `n` values written in place: the returned span is the new tail
  /// of the stage, for a kernel to fill with a whole burst at once.
  [[nodiscard]] std::span<std::int32_t> extend(std::size_t n) {
    buf_.resize(buf_.size() + n);
    return std::span<std::int32_t>(buf_).last(n);
  }
  [[nodiscard]] bool empty() const { return pos_ == buf_.size(); }

  /// Move everything possible into `out`; true when fully flushed. Notes
  /// one push-stall episode per continuous blocked period.
  bool flush(Stream& out) {
    if (pos_ < buf_.size()) {
      pos_ += out.try_push_burst(
          std::span<const std::int32_t>(buf_).subspan(pos_));
    }
    if (pos_ < buf_.size()) {
      if (!stall_noted_) {
        stall_noted_ = true;
        out.note_push_stall();
      }
      return false;
    }
    buf_.clear();
    pos_ = 0;
    stall_noted_ = false;
    return true;
  }

  /// Discard staged values (between engine runs / after an aborted run).
  void clear() {
    buf_.clear();
    pos_ = 0;
    stall_noted_ = false;
  }

 private:
  std::vector<std::int32_t> buf_;
  std::size_t pos_ = 0;
  bool stall_noted_ = false;
};

/// One input burst, consumed a run at a time; refilled from the stream
/// when empty. Notes one pop-stall episode per continuous starved period.
class InBurst {
 public:
  explicit InBurst(std::size_t burst) : buf_(burst == 0 ? 1 : burst) {}

  /// Values currently available without touching the stream.
  [[nodiscard]] std::size_t available() const { return len_ - pos_; }

  /// Ensure values are buffered; returns how many are now available
  /// (0: stream empty — check in.drained() to tell starvation from end).
  std::size_t refill(Stream& in) {
    if (pos_ < len_) return len_ - pos_;
    pos_ = 0;
    len_ = in.try_pop_burst(buf_);
    if (len_ == 0) {
      if (!in.drained() && !stall_noted_) {
        stall_noted_ = true;
        in.note_pop_stall();
      }
    } else {
      stall_noted_ = false;
    }
    return len_;
  }

  /// Consume the next `n` buffered values at once (n <= available()); the
  /// span stays valid until the next refill.
  [[nodiscard]] std::span<const std::int32_t> take(std::size_t n) {
    QNN_DCHECK(n <= len_ - pos_, "burst take overrun");
    const auto run = std::span<const std::int32_t>(buf_).subspan(pos_, n);
    pos_ += n;
    return run;
  }

  /// Discard buffered values (between engine runs / after an aborted run).
  void clear() {
    pos_ = 0;
    len_ = 0;
    stall_noted_ = false;
  }

 private:
  std::vector<std::int32_t> buf_;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  bool stall_noted_ = false;
};

// ------------------------------------------------------------------- Kernel

class Kernel {
 public:
  explicit Kernel(std::string name) : name_(std::move(name)) {}
  virtual ~Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Perform a bounded amount of work without blocking. Must be called by
  /// one thread at a time (the executor serializes steps of one kernel);
  /// steps of different kernels may run concurrently.
  virtual StepResult step() = 0;

  /// Attach a fault-injection site (nullptr = none), armed per run by the
  /// engine's FaultInjector.
  void set_fault(KernelFaultSite* site) { fault_ = site; }

  /// step() gated by the fault site: an armed hang reports kBlocked until
  /// the engine aborts, an armed exception throws. Executors drive this
  /// entry point so every kernel inherits the seam.
  StepResult step_checked() {
    if (fault_ != nullptr && fault_->check()) return StepResult::kBlocked;
    return step();
  }

  /// Readiness wiring for the executor: register `task` (this
  /// kernel's slot in the executor's task table) as the consumer of every
  /// input stream and the producer of every output stream, so the streams
  /// wake it when the edge it blocked on becomes serviceable again. Called
  /// with nullptr after the run to unbind. The default binds nothing — a
  /// kernel without streams (or a test stub) then relies on the executor's
  /// rescue sweep for re-scheduling.
  virtual void bind_ready(ReadyHook* /*hook*/, int /*task*/) {}

  /// Discard all in-flight per-run state (partial bursts, staged outputs,
  /// scan cursors). The engine calls this alongside Stream::reset between
  /// runs, so an aborted run never poisons the next one.
  virtual void reset() {}

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
  KernelFaultSite* fault_ = nullptr;
};

/// Common machinery of the window-ingesting kernels (Conv, Pool): a
/// data-free depth-first window cursor advanced a run at a time (a row
/// segment of real values, or a whole padding run injected locally), burst
/// input, and an output stage. Subclasses keep their own K-row line buffer
/// (ingest_run) and emit responses for each completed window.
class WindowKernel : public Kernel {
 public:
  WindowKernel(const Node& node, Stream& in, Stream& out, std::size_t burst);
  StepResult step() final;
  void reset() override;
  void bind_ready(ReadyHook* hook, int task) override;

 protected:
  /// Emit all outputs of the window at `at` into stage().
  virtual void emit(const WindowScanner::Completed& at) = 0;

  /// Called once per contiguous run of REAL input values, just before the
  /// scanner advances over them — the cursor (cur_row/row_value_pos) still
  /// points at the run's first value. The run lies within one padded row;
  /// the kernel copies it into its line buffer here, so every window the
  /// run completes finds its values in place.
  virtual void ingest_run(std::span<const std::int32_t> vals) = 0;

  /// Called whenever the scan re-arms for a new image (end of image and
  /// reset()); subclasses recycle per-image state (e.g. line-buffer rows).
  virtual void rearm_image() {}

  [[nodiscard]] const Node& node() const { return node_; }
  [[nodiscard]] WindowScanner& scanner() { return scanner_; }
  [[nodiscard]] OutStage& stage() { return stage_; }

 private:
  /// Inject the padding run at the cursor, if any: afterwards the next
  /// position is real or the scan is done.
  void advance_padding();

  const Node& node_;
  Stream& in_;
  Stream& out_;
  WindowScanner scanner_;
  InBurst in_burst_;
  OutStage stage_;
  bool image_open_ = false;
};

/// XNOR-popcount convolution kernel (Figure 3). Consumes depth-first
/// activation codes in row-segment bursts, injects padding locally, and on
/// each completed window emits all O filter responses for that position.
/// Weights live in the kernel as packed sign bits — the on-chip weight
/// cache of §III-B1a — packed once at construction into groups of
/// simd::kFilterLanes word-interleaved filters for the SIMD inner loop.
/// Activations are decomposed into bit-plane line buffers once as rows
/// stream in, each window is assembled by word splices, and one
/// vec_ops dot_window call per window computes all O filters, one SIMD
/// lane per filter.
class ConvKernel final : public WindowKernel {
 public:
  ConvKernel(const Node& node, const FilterBank& weights, Stream& in,
             Stream& out, std::size_t burst = kDefaultBurst);

 private:
  void emit(const WindowScanner::Completed& at) override;
  void ingest_run(std::span<const std::int32_t> vals) override;
  void rearm_image() override;

  /// Make line-buffer rows (.., y] valid: rows entered since the last
  /// ensure are zero-cleared (all-padding rows never see an ingest_run, so
  /// this is the only place they get recycled).
  void ensure_row(int y);

  PackedFilters packed_weights_;
  BitPlaneLineBuffer lines_;
  PackedWindow window_;
  std::vector<std::int32_t> acc_;  // groups * kFilterLanes window responses
  int packed_row_ = -1;  // highest padded row already entered into lines_
};

/// Max / average (window-sum) pooling kernel. Parameterless; emits each
/// output as soon as its window completes (§III-B2). Each real row
/// segment is copied once into a K-row int32 line buffer (rows recycled
/// mod K — the §III-B1b buffer). A completed window's row is reduced
/// separably, as FINN streams max-pool after its sliding-window unit:
/// first a vertical max (or sum) over the K rows into column partials,
/// computed once per column of the output row, then a K-wide horizontal
/// reduction of the window's columns straight into the output stage. Every
/// loop runs over channel-contiguous values. Padding rows and columns are
/// never stored: codes are unsigned and padding holds code 0, the identity
/// of max and sum, so they are skipped.
class PoolKernel final : public WindowKernel {
 public:
  PoolKernel(const Node& node, Stream& in, Stream& out,
             std::size_t burst = kDefaultBurst);

 private:
  void emit(const WindowScanner::Completed& at) override;
  void ingest_run(std::span<const std::int32_t> vals) override;
  void rearm_image() override;

  bool is_max_;
  std::int64_t row_values_;          // values per padded row: W_p * C
  std::vector<std::int32_t> lines_;  // K padded rows, recycled mod K
  std::vector<std::int32_t> cols_;   // vertical partials of one output row
  int cols_oy_ = -1;  // output row the partials in cols_ belong to
  int cols_end_ = 0;  // padded columns [0, cols_end_) are computed
};

/// Folded BatchNorm + n-bit activation kernel (§III-B3): maps each input
/// burst through the per-channel threshold staircase with one
/// VecOps::threshold_codes call, carrying the channel phase across bursts.
/// The thresholds are laid out once, at construction, as a
/// channel-transposed ThresholdTable, so the host threshold unit is the
/// paper's parallel comparator bank — one compare per level per value,
/// counted with no data-dependent branch.
class BnActKernel final : public Kernel {
 public:
  BnActKernel(const Node& node, const ThresholdLayer& thresholds, Stream& in,
              Stream& out, std::size_t burst = kDefaultBurst);
  StepResult step() override;
  void reset() override;
  void bind_ready(ReadyHook* hook, int task) override;

 private:
  const Node& node_;
  const ThresholdTable table_;
  Stream& in_;
  Stream& out_;
  InBurst in_burst_;
  OutStage stage_;
  std::size_t ch_ = 0;  // channel of the next input value
};

/// Skip-connection adder (§III-B5, Figure 2): sums the regular path with
/// the buffered 16-bit skip path, pairwise by burst. The skip stream's
/// FIFO capacity plays the role of the delay-compensation buffer.
class AddKernel final : public Kernel {
 public:
  /// `burst_main` / `burst_skip` size the two input-side burst buffers
  /// independently (the regular and skip edges can carry very different
  /// row lengths under adaptive per-edge sizing); consumption stays
  /// pairwise regardless.
  AddKernel(const Node& node, Stream& in_main, Stream& in_skip, Stream& out,
            std::size_t burst_main = kDefaultBurst,
            std::size_t burst_skip = kDefaultBurst);
  StepResult step() override;
  void reset() override;
  void bind_ready(ReadyHook* hook, int task) override;

 private:
  const Node& node_;
  Stream& main_;
  Stream& skip_;
  Stream& out_;
  InBurst main_burst_;
  InBurst skip_burst_;
  OutStage stage_;
};

/// Stream fan-out: replicates one stream to several consumers, a burst at
/// a time with independent per-branch progress. Inserted by the engine
/// where a node output feeds both the regular and skip paths.
class ForkKernel final : public Kernel {
 public:
  ForkKernel(std::string name, Stream& in, std::vector<Stream*> outs,
             std::size_t burst = kDefaultBurst);
  StepResult step() override;
  void reset() override;
  void bind_ready(ReadyHook* hook, int task) override;

 private:
  /// Push the pending burst tail to every branch; true when all caught up.
  bool flush_branches();

  Stream& in_;
  std::vector<Stream*> outs_;
  std::vector<std::int32_t> buf_;
  std::size_t len_ = 0;
  std::vector<std::size_t> branch_pos_;
  std::vector<bool> stall_noted_;
  bool in_stall_noted_ = false;
};

}  // namespace qnn
