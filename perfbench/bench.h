// End-to-end and per-layer benchmark of the paper networks on the live
// engine. Shared by the benchmark binary (main.cpp) and its self-tests
// (selftest.cpp). Everything here lives in the benchmark's own files: the
// traced run times calls into each module's public functions from the
// outside, so the program under test carries no instrumentation.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/tensor.h"
#include "nn/params.h"
#include "nn/pipeline.h"

namespace qnn::bench {

using Clock = std::chrono::steady_clock;

// ---- statistics -------------------------------------------------------------

/// Exact nearest-rank percentile of `values` (p in (0, 100]): the value at
/// rank ceil(p/100 * n) of the sorted sample. std::nullopt when fewer than
/// `min_beyond` samples lie strictly above that rank, so no percentile is
/// ever reported from a handful of tail samples.
[[nodiscard]] std::optional<double> nearest_rank(std::vector<double> values,
                                                 double p,
                                                 std::size_t min_beyond = 10);

/// Median (nearest-rank p50, no tail requirement); requires a sample.
[[nodiscard]] double median(std::vector<double> values);

// ---- tracing ----------------------------------------------------------------

/// In-memory span recorder written out as Chrome trace-event JSON. When
/// disabled every call is one branch, so untraced runs measure the program
/// alone.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  // since the tracer was created
    std::int64_t end_ns = 0;
    int parent = -1;  // index of the parent span, -1 = root
    int track = 0;    // trace-viewer row
    std::string args;  // JSON object body, may be empty
  };

  /// RAII span around one call; nests under the innermost open scope.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::string args);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_ = -1;
    int saved_parent_ = -1;
  };

  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] Scope scope(std::string name, std::string args = {}) {
    return Scope(enabled_ ? this : nullptr, std::move(name), std::move(args));
  }
  /// Record a span measured elsewhere (e.g. reconstructed from a server
  /// result); returns its id, -1 when disabled.
  int record(std::string name, Clock::time_point start, Clock::time_point end,
             int parent, int track, std::string args = {});
  [[nodiscard]] int current_parent() const { return open_; }
  [[nodiscard]] std::size_t size() const;
  /// Write every span as "ph":"X" events; returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  int open_ = -1;  // innermost open Scope (spans are opened on one thread)
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- inputs -----------------------------------------------------------------

/// `n` uniformly random 8-bit images of the network's input shape.
[[nodiscard]] std::vector<IntTensor> make_images(const Pipeline& pipeline,
                                                 int n, std::uint64_t seed);
/// Seeded network parameters (distinct stream from the images).
[[nodiscard]] NetworkParams make_params(const Pipeline& pipeline,
                                        std::uint64_t seed);

// ---- chain segments -----------------------------------------------------------

/// Inclusive node range [first, last] of a pipeline.
struct NodeRange {
  int first = 0;
  int last = 0;
};

/// The finest split of `pipeline` into chain segments that extract_segment
/// accepts: a cut after node c is taken whenever node c's output is the
/// only stream crossing it. Pure chains split into single kernels; a
/// residual block (fork ... add) stays whole.
[[nodiscard]] std::vector<NodeRange> chain_segments(const Pipeline& pipeline);

/// Each segment run alone on its own StreamEngine, fed the previous
/// segment's outputs, so the chain reproduces the whole network.
struct SegmentTiming {
  NodeRange range;
  std::string name;     // name of the segment's last node
  bool has_conv = false;
  double ms_per_img = 0.0;
  bool exact = false;   // image 0's output == ReferenceExecutor at `last`
};

struct SegmentRun {
  std::vector<SegmentTiming> segments;
  std::vector<IntTensor> outputs;  // chain output per image
};

/// Run `ranges` of `pipeline` in isolation over `images`, each on a fresh
/// StreamEngine with `workers` threads, timing one warm run per segment.
/// `reference_nodes` is ReferenceExecutor::run_all(images[0]).
[[nodiscard]] SegmentRun run_segments(
    const Pipeline& pipeline, const NetworkParams& params,
    const std::vector<NodeRange>& ranges, const std::vector<IntTensor>& images,
    const std::vector<IntTensor>& reference_nodes, unsigned workers,
    Tracer& tracer);

// ---- workloads ----------------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_file;  // Chrome trace output of a traced run
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Outcome of one benchmark run. `metrics` is printed as the result line;
/// `detail` holds non-gated facts (refusal counts, bottleneck names)
/// printed on the line before it. `engines` x `workers_per_engine` is the
/// engine thread budget the workload actually used.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int engines = 0;
  unsigned workers_per_engine = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> detail;  // name -> JSON value
};

/// Run one workload; throws qnn::Error on a setup or gate failure.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

}  // namespace qnn::bench
