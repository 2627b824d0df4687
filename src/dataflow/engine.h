// Streaming engine: the software analog of the DFE manager.
//
// Builds one Kernel per pipeline node, wires them with bounded Streams,
// inserts forks where a stream fans out (skip connections), feeds images
// in depth-first pixel order and collects the output stream. All layers
// compute concurrently once the pipeline fills — the paper's
// computation-overlap property (§III-B) realized on the host.
//
// Transport is burst-mode end to end (see stream.h): the feeder pushes
// whole row segments, kernels move the per-edge burst planned by
// plan_fifos (one row of the carried map by default, capped by
// EngineOptions::burst) per ring transaction, and the collector pops
// directly into the output tensors. The kernels run on the event-driven
// ready-queue executor (executor.h), which the streams wake through the
// ReadyHook seam, on at most EngineOptions::pool_threads host workers.
//
// FIFO capacities default to the paper's depth-first line-buffer formula
// I*(W_p*(K-1) + K) (§III-B1b) per edge feeding a window kernel; the
// skip-path FIFO holds a full feature map plus slack, which subsumes the
// delay-compensation buffer of §III-B5 for any consumer lag.
//
// The engine is the *functional* model (bit-exact against the reference
// executor); timing comes from the cycle simulator in sim/.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "core/tensor.h"
#include "dataflow/executor.h"
#include "dataflow/kernels.h"
#include "fault/fault.h"

namespace qnn {

struct CompiledPlan;  // plan/compiled_plan.h

struct EngineOptions {
  /// FIFO capacity (values) of regular kernel-to-kernel streams.
  /// 0 = auto-size each edge from the §III-B1b line-buffer formula.
  std::size_t fifo_capacity = 0;
  /// Extra slack added to skip-connection FIFOs beyond the full feature
  /// map they may need to hold while the regular path lags.
  std::size_t skip_slack = 64;
  /// Cap on the values kernels move per stream transaction. With
  /// adaptive_burst each edge defaults to one row of the map it carries,
  /// clamped to this cap; without it every edge moves exactly this many
  /// (1 = scalar transport).
  std::size_t burst = kDefaultBurst;
  /// Derive per-edge burst sizes from producer row lengths in plan_fifos
  /// (FifoPlan::streams[i].burst) instead of using `burst` uniformly.
  bool adaptive_burst = true;
  /// Executor worker count; 0 = hardware_concurrency. Clamped to the
  /// core count and to the number of tasks.
  unsigned pool_threads = 0;
  /// Run the static analyzer (verify/graph_check.h) during construction
  /// and refuse to build a graph with any error-severity finding. The
  /// software analog of the Maxeler compile-time graph checks; off only
  /// for tests that need to instantiate deliberately broken graphs.
  bool verify = true;
  /// Deterministic fault schedule this engine executes (see fault/fault.h).
  /// Empty = no injection seam is armed (zero overhead on the fast paths
  /// beyond one null check).
  FaultPlan faults;
  /// Replica identity matched against FaultEvent::replica; DfeServer sets
  /// this to the replica index so one plan can target one replica of many.
  int fault_replica = 0;
  /// Pre-built compile-time plan (plan/compiled_plan.h). When set, the
  /// engine wires the plan's FIFO streams verbatim instead of re-deriving
  /// them, and the analyzer proves those SAME streams (after a QNN-D305
  /// fingerprint check against the pipeline). Non-owning: the pointee must
  /// outlive engine construction — SessionConfig::plan holds it by
  /// shared_ptr and DfeSession::compile points this at it. The engine does
  /// not keep the pointer after its constructor returns.
  const CompiledPlan* plan = nullptr;
};

class StreamEngine {
 public:
  StreamEngine(const Pipeline& pipeline, const NetworkParams& params,
               EngineOptions options = {});
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Host-side statistics of a run() call: wall clock plus the aggregate
  /// stream activity of the pipeline, so callers (e.g. the serving metrics
  /// layer) can report utilization without re-walking stream_traffic().
  struct RunStats {
    double wall_seconds = 0.0;
    double images_per_second = 0.0;
    /// Sum over all FIFOs of the values they carried during the run.
    std::uint64_t values_streamed = 0;
    /// Sum over all FIFOs of producer-side ring transfers; values_streamed
    /// / stream_transactions is the pipeline's mean burst occupancy.
    std::uint64_t stream_transactions = 0;
    /// Producer-side blocking episodes (a push found its FIFO full),
    /// summed over all FIFOs — backpressure inside the pipeline.
    std::uint64_t push_stalls = 0;
    /// Consumer-side blocking episodes (a pop found its FIFO empty),
    /// summed over all FIFOs — starvation inside the pipeline.
    std::uint64_t pop_stalls = 0;
    /// Fault events from EngineOptions::faults that fired during this run.
    std::uint64_t faults_injected = 0;
    /// Backends that *model* timing instead of measuring it (the cycle-
    /// simulator backend) report the modeled batch duration here at the
    /// simulated fabric clock; 0.0 for live engine runs.
    double simulated_seconds = 0.0;
    /// MaxRing link activity (LinkedEngine runs only; all zero for a
    /// single-segment engine). `links` is the *physical* link count of the
    /// original partition cut — a failed-over run keeps reporting the dead
    /// link at health 0.0 so the serving metrics can show it.
    std::uint64_t link_frames = 0;       // frames delivered across all links
    std::uint64_t link_retransmits = 0;  // timeout/nack-driven resends
    std::uint64_t link_failovers = 0;    // degraded-plan recompiles this run
    int links = 0;
    std::array<double, 8> link_health{};
  };

  /// Stream a batch of images through the pipeline; returns one output
  /// tensor per image. Kernels run concurrently for the whole batch.
  /// Optionally reports wall-clock throughput of the software engine.
  [[nodiscard]] std::vector<IntTensor> run(std::span<const IntTensor> images,
                                           RunStats* stats = nullptr);

  [[nodiscard]] IntTensor run_one(const IntTensor& image);

  /// Abort the in-flight run() from another thread: every kernel unwinds
  /// and run() throws. The engine stays reusable — the next run() starts
  /// from pristine streams and kernels. No effect when no run is active.
  void cancel() { abort_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] int kernel_count() const {
    return static_cast<int>(kernels_.size());
  }
  [[nodiscard]] int stream_count() const {
    return static_cast<int>(streams_.size());
  }
  /// Values carried by every stream during the last run() (name, count).
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  stream_traffic() const;

 private:
  Stream& make_stream(std::size_t capacity, int bits, std::string name);

  // The engine never mutates the pipeline or parameters it was built from
  // (const references all the way down to the kernels), so any number of
  // engines may be constructed from — and run concurrently against — one
  // Pipeline/NetworkParams pair. DfeServer relies on this for replica pools.
  const Pipeline& pipeline_;
  const NetworkParams& params_;
  const EngineOptions options_;
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<std::unique_ptr<Kernel>> kernels_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<FaultInjector> injector_;
  Stream* input_stream_ = nullptr;
  Stream* output_stream_ = nullptr;
  std::atomic<bool> abort_{false};
};

}  // namespace qnn
