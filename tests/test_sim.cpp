#include "sim/cycle_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "models/zoo.h"

namespace qnn {
namespace {

std::uint64_t busy_of(const Pipeline& p, const SimConfig& cfg,
                      const std::string& name) {
  for (const auto& [n, c] : analytic_busy_cycles(p, cfg)) {
    if (n == name) return c;
  }
  throw Error("kernel not found: " + name);
}

TEST(SimConfig_, CyclesPerOutputFoldsDatapath) {
  SimConfig cfg;
  cfg.datapath_bits = 1152;
  Node n;
  n.kind = NodeKind::Conv;
  n.k = 3;
  n.in = Shape{8, 8, 64};
  n.in_bits = 2;  // 3*3*64*2 = 1152 bit-products: exactly one clock
  EXPECT_EQ(cfg.cycles_per_output(n), 1);
  n.in = Shape{8, 8, 128};  // 2304 -> 2 clocks
  EXPECT_EQ(cfg.cycles_per_output(n), 2);
  n.k = 7;
  n.in = Shape{8, 8, 3};
  n.in_bits = 8;  // first layer: 7*7*3*8 = 1176 -> 2 clocks
  EXPECT_EQ(cfg.cycles_per_output(n), 2);
}

TEST(Analytic, ConvBusyFormula) {
  NetworkSpec spec;
  spec.input = Shape{8, 8, 3};
  spec.conv(4, 3, 1, 1, false);
  const Pipeline p = expand(spec);
  const SimConfig cfg;
  // padded positions 10*10 plus 8*8 output positions * 4 filters * 1 cpo.
  EXPECT_EQ(busy_of(p, cfg, p.node(0).name), 100u + 64u * 4u);
}

TEST(Analytic, PoolNeverHaltsSoBusyIsInputPositions) {
  NetworkSpec spec;
  spec.input = Shape{8, 8, 3};
  spec.max_pool(2, 2);
  const Pipeline p = expand(spec);
  EXPECT_EQ(busy_of(p, SimConfig{}, p.node(0).name), 64u);
}

TEST(Analytic, WeightStreamingAddsHostCycles) {
  NetworkSpec spec;
  spec.input = Shape{8, 8, 32};
  spec.input_bits = 2;
  spec.dense(64, false);  // 8*8*32*64 = 131072 weight bits
  const Pipeline p = expand(spec);
  SimConfig cached;
  cached.weight_cache_capacity_bits = 1 << 20;
  SimConfig streamed;
  streamed.weight_cache_capacity_bits = 1000;
  const std::uint64_t base = busy_of(p, cached, p.node(0).name);
  const std::uint64_t with_ws = busy_of(p, streamed, p.node(0).name);
  EXPECT_EQ(with_ws - base, 131072u / 32u);
}

TEST(Sim, IntervalNeverBelowAnalyticBottleneck) {
  for (const auto& spec :
       {models::tiny(12, 4, 2), models::vgg_like(16, 10, 2)}) {
    const Pipeline p = expand(spec);
    const SimConfig cfg;
    const SimResult r = simulate(p, cfg, 3);
    EXPECT_GE(r.steady_interval, analytic_bottleneck_cycles(p, cfg))
        << spec.name;
    // And for these balanced pipelines it should be close.
    EXPECT_LE(static_cast<double>(r.steady_interval),
              1.25 * static_cast<double>(analytic_bottleneck_cycles(p, cfg)))
        << spec.name;
  }
}

TEST(Sim, LatencyExceedsInterval) {
  const Pipeline p = expand(models::vgg_like(32, 10, 2));
  const SimResult r = simulate(p, {}, 3);
  EXPECT_GT(r.first_image_cycles, r.steady_interval);
}

TEST(Sim, TotalCyclesDecomposeIntoFillPlusIntervals) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const SimResult r = simulate(p, {}, 5);
  const std::uint64_t expect =
      r.first_image_cycles + 4 * r.steady_interval;
  EXPECT_NEAR(static_cast<double>(r.total_cycles),
              static_cast<double>(expect),
              0.1 * static_cast<double>(expect));
}

TEST(Sim, MoreImagesSameInterval) {
  const Pipeline p = expand(models::vgg_like(16, 10, 2));
  const SimResult a = simulate(p, {}, 2);
  const SimResult b = simulate(p, {}, 4);
  EXPECT_EQ(a.steady_interval, b.steady_interval);
}

// ------------------------------------------------------------------ §IV-B4

TEST(SimPaper, ResNet18ClocksPerPictureNearPaperEstimate) {
  // "Our theoretical estimation of the number of clocks per picture for
  // ResNet-18 ... is approximately 1.85e6. This estimation matches the
  // measured time on a real system with a clock frequency of 105 MHz."
  const Pipeline p = expand(models::resnet18(224, 1000, 2));
  const SimConfig cfg;
  const SimResult r = simulate(p, cfg, 2);
  EXPECT_GE(r.steady_interval, 1'400'000u);
  EXPECT_LE(r.steady_interval, 2'100'000u);
  // 16.1 ms reported; our model must land in the same regime.
  EXPECT_GE(r.ms_per_image(cfg), 13.0);
  EXPECT_LE(r.ms_per_image(cfg), 19.0);
}

TEST(SimPaper, ResNetVsAlexNetOrderingMatchesTableIII) {
  // Table III: ResNet-18 takes 16.1 ms vs AlexNet 13.7 ms (+17.5%); the
  // streaming architecture absorbs the extra depth cheaply.
  const SimConfig cfg;
  const SimResult res =
      simulate(expand(models::resnet18(224, 1000, 2)), cfg, 2);
  const SimResult alex =
      simulate(expand(models::alexnet(224, 1000, 2)), cfg, 2);
  EXPECT_GT(res.steady_interval, alex.steady_interval);
  const double ratio = static_cast<double>(res.steady_interval) /
                       static_cast<double>(alex.steady_interval);
  EXPECT_LT(ratio, 1.6) << "depth penalty must stay far below the GPU's";
}

TEST(SimPaper, StreamingAbsorbsResNet34DepthEntirely) {
  // The strongest form of the §IV-B2 argument: nearly doubling the depth
  // (ResNet-18 -> ResNet-34) leaves the steady-state interval unchanged,
  // because the first convolution remains the bottleneck stage and every
  // added layer only deepens the (overlapped) pipeline.
  const SimConfig cfg;
  const auto r18 =
      simulate(expand(models::resnet18(224, 1000, 2)), cfg, 2);
  const auto r34 =
      simulate(expand(models::resnet34(224, 1000, 2)), cfg, 2);
  EXPECT_EQ(r34.steady_interval, r18.steady_interval);
  // Latency (pipeline fill) does grow with depth.
  EXPECT_GT(r34.first_image_cycles, r18.first_image_cycles);
  // A layer-sequential platform would pay roughly 2x instead.
}

TEST(SimPaper, AllWorkloadsExceed60Fps) {
  // Conclusion (§V): "achieving more than 60 fps for all types of inputs."
  const SimConfig cfg;
  for (const auto& spec :
       {models::vgg_like(32, 10, 2), models::vgg_like(96, 10, 2),
        models::vgg_like(144, 10, 2), models::alexnet(224, 1000, 2),
        models::resnet18(224, 1000, 2)}) {
    const SimResult r = simulate(expand(spec), cfg, 2);
    EXPECT_GT(r.images_per_second(cfg), 60.0) << spec.name;
  }
}

TEST(SimPaper, Stratix10ProjectionHitsThreeToFourMs) {
  // §IV-B4: a 5x clock would give 3-4 ms per image for the same ResNet.
  SimConfig s10;
  s10.clock_hz = 105e6 * 5;
  const SimResult r = simulate(expand(models::resnet18(224, 1000, 2)), s10, 2);
  EXPECT_GE(r.ms_per_image(s10), 2.5);
  EXPECT_LE(r.ms_per_image(s10), 4.0);
}

TEST(SimPaper, VggIntervalGrowsWithInputSize) {
  const SimConfig cfg;
  std::uint64_t prev = 0;
  for (int size : {32, 64, 96, 144}) {
    const SimResult r =
        simulate(expand(models::vgg_like(size, 10, 2)), cfg, 2);
    EXPECT_GT(r.steady_interval, prev) << size;
    prev = r.steady_interval;
  }
}

TEST(SimPaper, VggScalesRoughlyQuadraticallyWithInputSide) {
  const SimConfig cfg;
  const auto t32 =
      simulate(expand(models::vgg_like(32, 10, 2)), cfg, 2).steady_interval;
  const auto t96 =
      simulate(expand(models::vgg_like(96, 10, 2)), cfg, 2).steady_interval;
  const double ratio =
      static_cast<double>(t96) / static_cast<double>(t32);
  EXPECT_GT(ratio, 6.0);
  EXPECT_LT(ratio, 12.0);  // ~ (96/32)^2 = 9
}

// ------------------------------------------------------------------ §III-B5

TEST(SimPaper, SkipBufferOccupancyMatchesOneConvLineBuffer) {
  // "The required buffer is exactly same size as the buffer in a
  // convolutional layer. This is not accidental." For each Add, the skip
  // FIFO's measured peak occupancy (pixels) must not exceed the one-conv
  // line-buffer size (K-1 padded rows plus K pixels) plus jitter slack.
  const Pipeline p = expand(models::resnet18(224, 1000, 2));
  const SimResult r = simulate(p, {}, 2);
  int checked = 0;
  for (int i = 0; i < p.size(); ++i) {
    const Node& n = p.node(i);
    if (n.kind != NodeKind::Add) continue;
    // The skip fifo's name is <skip producer> -> / => <this add>.
    const std::string& producer = p.node(n.skip_from).name;
    for (const auto& f : r.fifos) {
      if (f.name != producer + "->" + n.name &&
          f.name != producer + "=>" + n.name) {
        continue;
      }
      const std::size_t line_buffer_pixels =
          static_cast<std::size_t>(n.in.w + 2) * 2 + 3;  // (K-1)*W_p + K
      EXPECT_LE(f.max_occupancy, line_buffer_pixels + 16) << f.name;
      EXPECT_GE(f.max_occupancy, line_buffer_pixels / 2) << f.name;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 8);  // every residual block's skip buffer was verified
}

TEST(SimPaper, SkipInfrastructureNeverCreatesDelays) {
  // "The skip buffer ... never creates delays by itself" — adds, forks and
  // pools must show zero output stalls on the full ResNet-18 run.
  const SimResult r = simulate(expand(models::resnet18(224, 1000, 2)), {}, 2);
  for (const auto& k : r.kernels) {
    if (k.name.find("add") == 0 || k.name.find("fork") == 0 ||
        k.name.find("pool") != std::string::npos) {
      EXPECT_EQ(k.stall_out, 0u) << k.name;
    }
  }
}

TEST(Sim, SimulatedBusyCyclesEqualAnalyticExactly) {
  // The discrete-event simulation and the closed-form §IV-B4 analysis are
  // independent implementations of the same clock model; per kernel and
  // per image they must agree to the cycle.
  for (const auto& spec :
       {models::tiny(12, 4, 2), models::vgg_like(16, 10, 2)}) {
    const Pipeline p = expand(spec);
    const SimConfig cfg;
    const int images = 3;
    const SimResult r = simulate(p, cfg, images);
    for (const auto& [name, cycles] : analytic_busy_cycles(p, cfg)) {
      bool found = false;
      for (const auto& k : r.kernels) {
        if (k.name != name) continue;
        found = true;
        EXPECT_EQ(k.busy, cycles * static_cast<std::uint64_t>(images))
            << spec.name << " kernel " << name;
      }
      EXPECT_TRUE(found) << name;
    }
  }
}

TEST(Sim, RejectsSingleImageRun) {
  EXPECT_THROW((void)simulate(expand(models::tiny(12, 4, 2)), {}, 1), Error);
}

TEST(SimConfig_, RejectsNonPositiveDivisors) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const std::vector<std::pair<std::string, void (*)(SimConfig&)>> broken = {
      {"datapath_bits", [](SimConfig& c) { c.datapath_bits = 0; }},
      {"link_bits_per_cycle", [](SimConfig& c) { c.link_bits_per_cycle = 0; }},
      {"weight_stream_bits_per_cycle",
       [](SimConfig& c) { c.weight_stream_bits_per_cycle = -32; }},
      {"clock_hz", [](SimConfig& c) { c.clock_hz = 0.0; }},
  };
  for (const auto& [field, apply] : broken) {
    SimConfig cfg;
    apply(cfg);
    EXPECT_THROW((void)simulate(p, cfg, 2), Error) << field;
    EXPECT_THROW((void)analytic_busy_cycles(p, cfg), Error) << field;
  }
}

TEST(Sim, DeadlockFailsAsSoonAsNothingCanMove) {
  // Zero-depth FIFOs can never pass a value. The run must fail once no
  // kernel can move, with every counter accounted up to that cycle,
  // instead of spinning through the whole cycle budget first.
  const Pipeline p = expand(models::resnet18(224, 1000, 2));
  SimConfig cfg;
  cfg.fifo_depth = 0;
  const auto start = std::chrono::steady_clock::now();
  std::string what;
  try {
    (void)simulate(p, cfg, 2);
  } catch (const Error& e) {
    what = e.what();
  }
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(took.count(), 0.5);
  ASSERT_NE(what.find("exceeded budget (deadlock?)"), std::string::npos)
      << what;
  const std::string tag = "after cycle ";
  const std::size_t at = what.find(tag);
  ASSERT_NE(at, std::string::npos) << what;
  const std::uint64_t cycle = std::stoull(what.substr(at + tag.size()));
  EXPECT_GT(cycle, 0u);
  // The source could never push: it stalled on every cycle of the run.
  EXPECT_NE(what.find("kernel source: busy=0 in_stall=0 out_stall=" +
                      std::to_string(cycle) + " "),
            std::string::npos)
      << what;
}

}  // namespace
}  // namespace qnn
