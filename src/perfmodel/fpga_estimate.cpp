#include "perfmodel/fpga_estimate.h"

#include <algorithm>

namespace qnn {

double dfe_power_w(const DfeBoard& board, double utilization) {
  const double u = std::clamp(utilization, 0.0, 1.0);
  return board.idle_power_w +
         u * (board.max_power_w - board.idle_power_w);
}

FpgaRunEstimate estimate_fpga(const Pipeline& pipeline,
                              const SimConfig& sim_config,
                              const PartitionConfig& partition_config,
                              const DfeBoard& board) {
  FpgaRunEstimate est;
  est.partition = partition_optimal(pipeline, partition_config);
  est.num_dfes = est.partition.num_dfes();

  est.clocks_per_image = simulate(pipeline, sim_config, 2).steady_interval;
  // Link serialization never throttles the paper's workloads, but the
  // partitioner reports a slowdown factor if a cut were oversubscribed.
  est.seconds_per_image = static_cast<double>(est.clocks_per_image) /
                          sim_config.clock_hz * est.partition.link_slowdown;
  est.images_per_second = 1.0 / est.seconds_per_image;

  est.power_w = 0.0;
  for (const auto& dfe : est.partition.dfes) {
    est.power_w += dfe_power_w(board, dfe.utilization);
  }
  est.energy_per_image_j = est.power_w * est.seconds_per_image;
  return est;
}

}  // namespace qnn
