#include <gtest/gtest.h>

#include "models/zoo.h"
#include "perfmodel/fpga_estimate.h"
#include "perfmodel/gpu_model.h"

namespace qnn {
namespace {

TEST(GpuSpecs, MatchTableIIa) {
  const GpuSpec p100 = tesla_p100();
  EXPECT_EQ(p100.cuda_cores, 3584);
  EXPECT_NEAR(p100.core_clock_ghz, 1.480, 1e-9);
  const GpuSpec g1080 = gtx1080();
  EXPECT_EQ(g1080.cuda_cores, 2560);
  EXPECT_NEAR(g1080.core_clock_ghz, 1.733, 1e-9);
}

TEST(GpuModel, EfficiencyRisesWithBatch) {
  const GpuSpec g = tesla_p100();
  EXPECT_NEAR(g.efficiency(1), g.batch1_efficiency, 1e-12);
  EXPECT_LT(g.efficiency(1), g.efficiency(16));
  EXPECT_LT(g.efficiency(16), g.efficiency(256));
  EXPECT_LE(g.efficiency(1 << 20), g.peak_efficiency);
}

TEST(GpuModel, LayerSequentialSum) {
  const Pipeline p = expand(models::vgg_like(32, 10, 2));
  const GpuRunEstimate est = estimate_gpu(p, tesla_p100());
  double sum = 0.0;
  for (const auto& l : est.layers) sum += l.seconds;
  EXPECT_NEAR(est.seconds_per_image, sum, 1e-12);
  // One launch per conv/pool layer; BnAct and Add are folded.
  int window_ops = 0;
  for (const auto& n : p.nodes) window_ops += n.is_window_op();
  EXPECT_EQ(est.launches, window_ops);
}

TEST(GpuModel, DepthPenaltyMatchesSectionIVB2) {
  // "twice as many layers would take twice more time, even if GPU
  // resources are not fully utilized": ResNet-18 costs ~42.5% more than
  // AlexNet on the GPU, far above the DFE's premium.
  const auto res = estimate_gpu(expand(models::resnet18(224, 1000, 2)),
                                tesla_p100());
  const auto alex = estimate_gpu(expand(models::alexnet(224, 1000, 2)),
                                 tesla_p100());
  const double ratio = res.seconds_per_image / alex.seconds_per_image;
  EXPECT_GT(ratio, 1.25);
  EXPECT_LT(ratio, 1.60);  // the paper measured 1.425
}

TEST(GpuModel, BatchingAmortizesLaunchAndWeights) {
  const Pipeline p = expand(models::resnet18(224, 1000, 2));
  const GpuSpec gpu = tesla_p100();
  const double t1 = estimate_gpu(p, gpu, 1).seconds_per_image;
  const double t128 = estimate_gpu(p, gpu, 128).seconds_per_image;
  // "Modern GPUs can process at least 128-256 inputs with very small
  // inference time degradation" — large throughput gain per image.
  EXPECT_GT(t1 / t128, 3.0);
  EXPECT_LT(t1 / t128, 12.0);
}

TEST(GpuModel, FcLayersAreMemoryBound) {
  const Pipeline p = expand(models::alexnet(224, 1000, 2));
  const GpuRunEstimate est = estimate_gpu(p, tesla_p100());
  bool found_fc = false;
  for (const auto& l : est.layers) {
    if (l.flops > 0.0 && l.bytes > 100e6) {  // fc6: 151 MB of weights
      EXPECT_EQ(static_cast<int>(l.bound),
                static_cast<int>(GpuBound::Memory));
      found_fc = true;
    }
  }
  EXPECT_TRUE(found_fc);
}

TEST(DfePower, AnchoredToTableIVa) {
  // Table IVa reports ~12 W for the VGG-like design on one DFE.
  const auto est = estimate_fpga(expand(models::vgg_like(32, 10, 2)));
  EXPECT_EQ(est.num_dfes, 1);
  EXPECT_NEAR(est.power_w, 12.0, 1.5);
}

TEST(DfePower, MonotoneInUtilization) {
  const DfeBoard board = max4_maia();
  EXPECT_LT(dfe_power_w(board, 0.2), dfe_power_w(board, 0.8));
  EXPECT_NEAR(dfe_power_w(board, 0.0), board.idle_power_w, 1e-12);
  EXPECT_NEAR(dfe_power_w(board, 1.0), board.max_power_w, 1e-12);
  EXPECT_NEAR(dfe_power_w(board, 5.0), board.max_power_w, 1e-12);  // clamps
}

TEST(DfePower, AlexNetRisesWithMultipleDfes) {
  // §IV-B1: "For AlexNet the power consumption of the DFE increases,
  // since three DFEs are needed to fit the network."
  const auto vgg = estimate_fpga(expand(models::vgg_like(32, 10, 2)));
  const auto alex = estimate_fpga(expand(models::alexnet(224, 1000, 2)));
  EXPECT_GT(alex.num_dfes, vgg.num_dfes);
  EXPECT_GT(alex.power_w, 1.8 * vgg.power_w);
}

// --------------------------------------------------------------- Figure 5

TEST(Fig5, DfeBeatsGpuAt32x32) {
  // "for an input size of 32x32, our network is 12% faster than the same
  // network running on a GPU" (kernel-invocation overhead dominates).
  const Pipeline p = expand(models::vgg_like(32, 10, 2));
  const auto dfe = estimate_fpga(p);
  for (const auto& gpu : {tesla_p100(), gtx1080()}) {
    EXPECT_LT(dfe.seconds_per_image,
              estimate_gpu(p, gpu).seconds_per_image)
        << gpu.name;
  }
}

TEST(Fig5, GpuWinsAtLargeInputs) {
  for (int size : {96, 144}) {
    const Pipeline p = expand(models::vgg_like(size, 10, 2));
    const auto dfe = estimate_fpga(p);
    EXPECT_GT(dfe.seconds_per_image,
              estimate_gpu(p, tesla_p100()).seconds_per_image)
        << size;
  }
}

TEST(Fig5, ResNetDfeRoughlyFourTimesSlowerThanGpu) {
  // §I: "4x slower for ImageNet, when compared to the same NN on the
  // latest Nvidia GPUs."
  const Pipeline p = expand(models::resnet18(224, 1000, 2));
  const double ratio = estimate_fpga(p).seconds_per_image /
                       estimate_gpu(p, tesla_p100()).seconds_per_image;
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 6.5);
}

// --------------------------------------------------------------- Figure 7

TEST(Fig7, DfePowerAtLeastFifteenTimesLowerForVgg) {
  // "power consumption of the DFE is significantly lower (at least 15x)
  // for VGG-like networks."
  for (int size : {32, 96, 144}) {
    const auto dfe = estimate_fpga(expand(models::vgg_like(size, 10, 2)));
    EXPECT_GT(tesla_p100().inference_power_w() / dfe.power_w, 14.0) << size;
    EXPECT_GT(gtx1080().inference_power_w() / dfe.power_w, 10.0) << size;
  }
}

TEST(Fig7, ResNetPowerRatioNearFive) {
  // §I: ResNet-18 "consumes 5x less power ... when compared to the same
  // NN on the latest Nvidia GPUs."
  const auto dfe = estimate_fpga(expand(models::resnet18(224, 1000, 2)));
  const double ratio = tesla_p100().inference_power_w() / dfe.power_w;
  EXPECT_GT(ratio, 3.5);
  EXPECT_LT(ratio, 6.5);
}

// --------------------------------------------------------------- Figure 8

TEST(Fig8, EnergyUpToTwentyTimesBetterOnSingleDfe) {
  // "The energy consumption of a single-picture inference ... is up to
  // 20x better for FPGAs."
  const Pipeline p = expand(models::vgg_like(32, 10, 2));
  const auto dfe = estimate_fpga(p);
  const auto gpu = estimate_gpu(p, tesla_p100());
  const double ratio = gpu.energy_per_image_j / dfe.energy_per_image_j;
  EXPECT_GT(ratio, 15.0);
  EXPECT_LT(ratio, 30.0);
}

TEST(Fig8, MultiDfeAlexNetStillBeatsGpuEnergy) {
  // "even when more than one FPGA is used, the energy consumption was at
  // least 50% less compared to GPUs" — our model preserves the ordering
  // for AlexNet (the margin is smaller; see EXPERIMENTS.md on the paper's
  // internal inconsistency between its power and runtime ratios).
  const Pipeline p = expand(models::alexnet(224, 1000, 2));
  const auto dfe = estimate_fpga(p);
  const auto gpu = estimate_gpu(p, tesla_p100());
  EXPECT_LT(dfe.energy_per_image_j, gpu.energy_per_image_j);
}

TEST(FpgaEstimate, AnalyticFastPathAgreesWithCycleSim) {
  // The closed-form bottleneck (what the partitioner and verifier price
  // placements with) stays within a few percent of the simulated interval.
  const Pipeline p = expand(models::vgg_like(96, 10, 2));
  const auto analytic =
      static_cast<double>(analytic_bottleneck_cycles(p, SimConfig{}));
  const auto simulated =
      static_cast<double>(simulate(p, SimConfig{}, 2).steady_interval);
  EXPECT_NEAR(analytic / simulated, 1.0, 0.05);
}

TEST(FpgaEstimate, EnergyIsPowerTimesTime) {
  const auto est = estimate_fpga(expand(models::vgg_like(32, 10, 2)));
  EXPECT_NEAR(est.energy_per_image_j,
              est.power_w * est.seconds_per_image, 1e-12);
  EXPECT_NEAR(est.images_per_second * est.seconds_per_image, 1.0, 1e-9);
}

}  // namespace
}  // namespace qnn
