// Multi-DFE cycle simulation (§III-B6): cutting the pipeline across DFEs
// and serializing the crossing streams over the MaxRing must not change
// throughput at realistic link rates — validated here inside the cycle
// simulator, not just by the partitioner's bandwidth arithmetic.
#include <gtest/gtest.h>

#include "models/zoo.h"
#include "partition/partitioner.h"
#include "sim/cycle_model.h"

namespace qnn {
namespace {

TEST(SimMultiDfe, PartitionedResNetKeepsItsInterval) {
  const Pipeline p = expand(models::resnet18(224, 1000, 2));
  const SimConfig base;
  const std::uint64_t solo = simulate(p, base, 2).steady_interval;

  // Cut exactly where the optimal partitioner cuts, with the MaxRing's
  // real per-clock budget (4 Gbps / 105 MHz ~ 38 bits).
  const PartitionResult plan = partition_optimal(p);
  ASSERT_EQ(plan.num_dfes(), 3);
  SimConfig cut = base;
  for (const auto& c : plan.cuts) cut.cut_after_nodes.push_back(c.after_node);
  const SimResult r = simulate(p, cut, 2);
  EXPECT_EQ(r.steady_interval, solo)
      << "the paper's 'almost without a performance drop'";
}

TEST(SimMultiDfe, LinkKernelsAppearAndCarryTraffic) {
  const Pipeline p = expand(models::vgg_like(16, 10, 2));
  SimConfig cfg;
  cfg.cut_after_nodes = {3};
  const SimResult r = simulate(p, cfg, 2);
  int links = 0;
  for (const auto& k : r.kernels) {
    if (k.name.rfind("link_", 0) == 0) {
      ++links;
      EXPECT_GT(k.outputs, 0u) << k.name;
    }
  }
  EXPECT_EQ(links, 1);  // one stream crosses a chain cut
}

TEST(SimMultiDfe, SkipAndMainBothSerializeAcrossResidualCut) {
  NetworkSpec spec;
  spec.input = Shape{12, 12, 3};
  spec.conv(4, 3, 1, 1);
  spec.residual(4, 1);
  spec.dense(3, false);
  const Pipeline p = expand(spec);
  // Find the Add and cut between its two conv stages: both the regular
  // stream and the 16-bit skip stream must cross.
  int add_idx = -1;
  for (int i = 0; i < p.size(); ++i) {
    if (p.node(i).kind == NodeKind::Add) add_idx = i;
  }
  ASSERT_GT(add_idx, 0);
  SimConfig cfg;
  cfg.cut_after_nodes = {add_idx - 2};
  const SimResult r = simulate(p, cfg, 2);
  int links = 0;
  for (const auto& k : r.kernels) links += k.name.rfind("link_", 0) == 0;
  EXPECT_EQ(links, 2);
}

TEST(SimMultiDfe, StarvedLinkThrottlesThroughput) {
  // A deliberately narrow 1-bit/clock link must slow the pipeline: the
  // bottleneck becomes pixel_bits cycles per crossing pixel.
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const std::uint64_t solo = simulate(p, {}, 2).steady_interval;
  SimConfig narrow;
  narrow.cut_after_nodes = {1};  // after the first bnact (2-bit codes)
  narrow.link_bits_per_cycle = 1;
  const SimResult r = simulate(p, narrow, 2);
  EXPECT_GT(r.steady_interval, solo);
  // The crossing stream is 8 channels x 2 bits = 16 cycles per pixel over
  // a 12x12 map: at least 16 * 144 cycles per image at the link alone.
  EXPECT_GE(r.steady_interval, 16u * 12 * 12);
}

TEST(SimMultiDfe, PlannedBurstAmortizesLinkWordRounding) {
  // tiny cut after node 0: the crossing pixel is 8 ch x 14 bits = 112
  // bits. Over a 12-bit link, per-pixel framing costs ceil(112/12) = 10
  // clocks per pixel (1440/image — the bottleneck); a 16-pixel frame
  // costs ceil(1792/12) = 150 clocks (9.375/pixel), so carrying the
  // planned burst must strictly shorten the interval.
  const Pipeline p = expand(models::tiny(12, 4, 2));
  SimConfig narrow;
  narrow.cut_after_nodes = {0};
  narrow.link_bits_per_cycle = 12;
  const std::uint64_t legacy = simulate(p, narrow, 2).steady_interval;
  EXPECT_GE(legacy, 10u * 12 * 12);  // link-bound under per-pixel framing

  SimConfig framed = narrow;
  framed.link_bursts = {{/*consumer=*/1, /*to_skip_port=*/false,
                         /*values=*/128}};  // 16 pixels of 8 channels
  const std::uint64_t burst = simulate(p, framed, 2).steady_interval;
  EXPECT_LT(burst, legacy);

  // A one-pixel burst entry is the cycle-exact legacy framing.
  SimConfig onepix = narrow;
  onepix.link_bursts = {{1, false, 8}};
  EXPECT_EQ(simulate(p, onepix, 2).steady_interval, legacy);
}

TEST(SimMultiDfe, WideLinkIsTransparentOnTiny) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const std::uint64_t solo = simulate(p, {}, 2).steady_interval;
  SimConfig cfg;
  cfg.cut_after_nodes = {1, 3};
  cfg.link_bits_per_cycle = 1024;  // wider than any pixel
  const SimResult r = simulate(p, cfg, 2);
  // Pixel-per-clock links add latency but cannot change the interval.
  EXPECT_EQ(r.steady_interval, solo);
}

TEST(SimMultiDfe, LongLinkOutageIsSkippedNotStepped) {
  // A 10^9-cycle MaxRing outage: the run jumps across the window instead
  // of stepping every kernel through it, and the link's blocked cycles
  // are still counted.
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const std::uint64_t down = 1'000'000'000;
  SimConfig cfg;
  cfg.cut_after_nodes = {1};
  cfg.link_faults = {{/*link=*/0, /*down_from_cycle=*/100, down, 0, 0}};
  const SimResult r = simulate(p, cfg, 2);
  EXPECT_GT(r.total_cycles, down);
  EXPECT_GT(r.first_image_cycles, down);
  for (const KernelStats& k : r.kernels) {
    if (k.name.rfind("link_", 0) == 0) {
      EXPECT_GT(k.stall_out, down - 1000) << k.name;
    }
  }
}

}  // namespace
}  // namespace qnn
