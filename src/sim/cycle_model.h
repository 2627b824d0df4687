// Cycle-level simulator of the streaming DFE pipeline.
//
// Reproduces the paper's timing methodology: the authors validate a
// theoretical clocks-per-picture estimate (~1.85e6 for ResNet-18) against
// measurements at a 105 MHz fabric clock (§IV-B4). This module simulates
// the same kernel pipeline cycle by cycle and reports latency, steady-state
// initiation interval, per-kernel busy/stall breakdowns and FIFO occupancy.
// Timing is data-independent (the dataflow is input-static), so no weights
// or images are needed.
//
// Stepping is event-driven, and still exact to the clock. Kernels step in
// topological order within a cycle. A step depends only on the kernel's
// own state, the occupancy of its adjacent FIFOs and the cycle number
// (links read it for outage windows). So a kernel that stalled repeats
// that stall until a neighbour pushes to or pops from one of its FIFOs. It
// sleeps until then, waking on the same cycle when the neighbour comes
// earlier in the step order and on the next cycle otherwise. A stalled
// link also wakes at its next outage boundary. A kernel in a fixed busy
// countdown sleeps on a timer: conv emission, host weight streaming and
// link serialization touch no FIFO until the countdown's last clock. The
// stall and busy cycles a kernel slept through are added when it wakes and
// when the run ends, so every counter equals what stepping every kernel on
// every clock gives, and idle stretches such as a long link outage cost
// nothing. A run where no kernel can ever move again fails at once.
//
// Kernel clock model (§III-B1, calibrated against the paper's published
// runtimes — see DESIGN.md and EXPERIMENTS.md for the fit):
//  * On-chip streams carry one *pixel* (all channels of one spatial
//    position) per clock. The narrow serialized case is the DFE-to-DFE
//    link, which carries one 2-bit value per clock (the paper's 210 Mbps);
//    that is modeled by the partitioner, not here.
//  * A convolution kernel consumes one pixel per clock into its shift
//    register; padding pixels are injected locally (input halted). When a
//    window completes, the input halts and the kernel computes all O
//    filter responses, one output pixel per clock scaled by the datapath
//    fold factor below.
//  * The XNOR-popcount datapath processes `datapath_bits` weight-activation
//    bit-products per clock; one output of a layer with window K*K*I and
//    b-bit inputs therefore needs ceil(K*K*I*b / datapath_bits) clocks.
//    At the default width, every ResNet-18 body stage lands within 2% of
//    200k clocks/image — the balance a streaming design aims for — and the
//    8-bit first layer of a 7x7 conv costs 2 clocks per output.
//  * Pooling never halts: outputs appear on the same clock as the
//    completing input pixel (§III-B2). BnAct, Add and forks are
//    1-pixel/clock flow-through.
//  * Weight banks larger than `weight_cache_capacity_bits` cannot stay
//    resident in FMem and are re-streamed from the host once per image at
//    one 32-bit word per fabric clock ("all the weights received by the
//    FPGA are represented as 32-bit floating point numbers", §III-B1a).
//    See DESIGN.md: the paper's AlexNet FC weights (58.7 Mbit) exceed its
//    reported total BRAM (34.6 Mbit), so its largest FC bank cannot have
//    been fully resident.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/pipeline.h"

namespace qnn {

struct SimConfig {
  /// XNOR-popcount bit-products evaluated per clock by one conv kernel.
  int datapath_bits = 1152;
  /// Depth (pixels) of regular inter-kernel FIFOs.
  std::size_t fifo_depth = 512;
  /// Per-layer FMem weight-cache capacity; larger banks are host-streamed.
  std::int64_t weight_cache_capacity_bits = 16'000'000;
  /// Host link width for streamed weight banks (bits per fabric clock).
  int weight_stream_bits_per_cycle = 32;
  /// Fabric clock (the paper's systems run at 105 MHz).
  double clock_hz = 105e6;

  /// Multi-DFE simulation (§III-B6): node indices after which the pipeline
  /// is cut onto the next DFE. Streams crossing a cut are serialized over
  /// the MaxRing at `link_bits_per_cycle` (4 Gbps at 105 MHz ~ 38 bits per
  /// fabric clock); a pixel of C channels x b bits therefore needs
  /// ceil(C*b / link_bits_per_cycle) clocks to cross.
  std::vector<int> cut_after_nodes;
  int link_bits_per_cycle = 38;

  /// Planned per-edge bursts carried across the cut (filled from the
  /// plan/ FIFO plan — PlannedStream::burst — via CompiledPlan::apply_sim).
  /// The MaxRing serializer frames up to `values` stream values per
  /// transaction instead of shipping pixel by pixel, so the ceil() waste
  /// of narrow elements against the link word is paid once per frame. An
  /// edge without an entry (or with values == 0) keeps the legacy
  /// one-pixel framing.
  struct EdgeBurst {
    int consumer = -1;          // node index of the edge's consumer
    bool to_skip_port = false;  // Add-node skip port vs main port
    std::size_t values = 0;     // planned burst, in stream values
  };
  std::vector<EdgeBurst> link_bursts;

  /// Planned burst (values) of the edge into `consumer`'s main or skip
  /// port; 0 when no plan was carried for it.
  [[nodiscard]] std::size_t link_burst_values(int consumer,
                                              bool to_skip_port) const {
    for (const EdgeBurst& e : link_bursts) {
      if (e.consumer == consumer && e.to_skip_port == to_skip_port) {
        return e.values;
      }
    }
    return 0;
  }

  /// MaxRing link fault to replay during simulation (see fault/apply.h for
  /// the FaultPlan adapter). `link` is the serializer ordinal in cut order
  /// (0 = the link after the first cut).
  struct LinkFault {
    int link = 0;
    /// Outage window: the link transfers nothing for `down_cycles` starting
    /// at `down_from_cycle` (kFaultNever start = no outage).
    std::uint64_t down_from_cycle = ~0ULL;
    std::uint64_t down_cycles = 0;
    /// Corruption: each delivered frame is independently corrupted with
    /// probability corrupt_per_million / 1e6 and retransmitted once (the
    /// MaxRing CRC-and-resend cost model). Capped at 250'000 (25%).
    std::uint32_t corrupt_per_million = 0;
    /// Seed of the per-link corruption draw (deterministic replay).
    std::uint64_t seed = 0;
  };
  std::vector<LinkFault> link_faults;

  /// Clocks needed per output value of a conv node (datapath fold factor).
  [[nodiscard]] int cycles_per_output(const Node& n) const {
    const std::int64_t bit_products =
        static_cast<std::int64_t>(n.k) * n.k * n.in.c * n.in_bits;
    return static_cast<int>((bit_products + datapath_bits - 1) /
                            datapath_bits);
  }
};

struct KernelStats {
  std::string name;
  std::uint64_t busy = 0;       // cycles doing useful work
  std::uint64_t stall_in = 0;   // starved: waiting for input
  std::uint64_t stall_out = 0;  // blocked: waiting for output space
  std::uint64_t outputs = 0;    // output transactions (pixels) emitted
  /// Link kernels only: frames re-serialized after an injected corruption
  /// (a frame is one pixel unless a planned burst widens it).
  std::uint64_t retransmits = 0;
};

struct FifoStats {
  std::string name;
  std::size_t capacity = 0;       // pixels
  std::size_t max_occupancy = 0;  // pixels
  std::uint64_t total_values = 0; // pixels carried over the run
};

struct SimResult {
  std::uint64_t total_cycles = 0;        // until the last image drains
  std::uint64_t first_image_cycles = 0;  // pipeline latency + first image
  std::uint64_t steady_interval = 0;     // cycles between consecutive images
  int images = 0;
  std::vector<KernelStats> kernels;
  std::vector<FifoStats> fifos;

  [[nodiscard]] double ms_per_image(const SimConfig& cfg) const {
    return 1e3 * static_cast<double>(steady_interval) / cfg.clock_hz;
  }
  [[nodiscard]] double images_per_second(const SimConfig& cfg) const {
    return cfg.clock_hz / static_cast<double>(steady_interval);
  }
};

/// Simulate `images` back-to-back inferences (>= 2 so the steady-state
/// interval is observable).
[[nodiscard]] SimResult simulate(const Pipeline& pipeline,
                                 const SimConfig& config = {},
                                 int images = 3);

/// Closed-form busy cycles of each kernel for one image — the analytic
/// counterpart the paper computes by hand (§IV-B4). The pipeline's
/// steady-state interval is bounded below by the maximum entry.
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
analytic_busy_cycles(const Pipeline& pipeline, const SimConfig& config = {});

/// max over analytic_busy_cycles — the theoretical clocks-per-picture.
[[nodiscard]] std::uint64_t analytic_bottleneck_cycles(
    const Pipeline& pipeline, const SimConfig& config = {});

}  // namespace qnn
