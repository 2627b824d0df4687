// End-to-end DFE estimate: runtime (cycle simulator), DFE count
// (partitioner), board power and per-image energy — the FPGA side of
// Figs 5, 7 and 8 and Tables III/IV.
//
// Board power follows the measurement-anchored envelope of the MAX4 board:
// P = idle + utilization * (max - idle) per DFE, summed over the DFEs the
// partitioner allocates. The paper reports 12 W for the VGG-like design on
// one DFE (Table IVa) and notes that AlexNet's power rises because three
// DFEs are needed (§IV-B1).
#pragma once

#include "partition/partitioner.h"
#include "sim/cycle_model.h"

namespace qnn {

struct FpgaRunEstimate {
  int num_dfes = 0;
  double seconds_per_image = 0.0;
  double images_per_second = 0.0;
  double power_w = 0.0;            // whole multi-DFE system
  double energy_per_image_j = 0.0;
  std::uint64_t clocks_per_image = 0;
  PartitionResult partition;
};

/// Board power of one DFE at the given fabric utilization.
[[nodiscard]] double dfe_power_w(const DfeBoard& board, double utilization);

/// Full estimate: clocks per image are the steady interval of a two-image
/// cycle simulation.
[[nodiscard]] FpgaRunEstimate estimate_fpga(
    const Pipeline& pipeline, const SimConfig& sim_config = {},
    const PartitionConfig& partition_config = {},
    const DfeBoard& board = max4_maia());

}  // namespace qnn
