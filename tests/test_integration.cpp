// Cross-module integration tests: full flows through spec -> pipeline ->
// parameters -> {reference executor, streaming engine, cycle simulator,
// resource model, partitioner, performance models}, plus the trained-model
// deployment path.
#include <gtest/gtest.h>

#include <cstdio>

#include "dataflow/engine.h"
#include "io/ppm.h"
#include "io/synthetic.h"
#include "models/zoo.h"
#include "nn/reference.h"
#include "perfmodel/fpga_estimate.h"
#include "perfmodel/gpu_model.h"
#include "train/qat.h"

namespace qnn {
namespace {

TEST(Integration, FullStackAgreementOnVgg) {
  // One network, four viewpoints: float-path reference, threshold-path
  // reference, threaded streaming engine — all bit-identical outputs.
  const Pipeline p = expand(models::vgg_like(16, 10, 2));
  const NetworkParams params = NetworkParams::random(p, 404);
  const ReferenceExecutor hw(p, params, BnActMode::Threshold);
  const ReferenceExecutor fl(p, params, BnActMode::FloatPath);
  StreamEngine engine(p, params);
  const auto batch = synthetic_batch(3, 16, 16, 3, 11);
  const auto streamed = engine.run(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const IntTensor a = hw.run(batch[i]);
    EXPECT_EQ(a, fl.run(batch[i])) << i;
    EXPECT_EQ(a, streamed[i]) << i;
  }
}

TEST(Integration, AlexNetSmallStreamsBitExact) {
  // Exercises the dense chain (full-spatial convolutions) end to end.
  const Pipeline p = expand(models::alexnet(63, 20, 2));
  const NetworkParams params = NetworkParams::random(p, 405);
  StreamEngine engine(p, params);
  const ReferenceExecutor ref(p, params);
  Rng rng(12);
  const IntTensor img = synthetic_image(63, 63, 3, rng);
  EXPECT_EQ(engine.run_one(img), ref.run(img));
}

TEST(Integration, EstimatesAreMutuallyConsistent) {
  const Pipeline p = expand(models::resnet18(224, 1000, 2));
  const auto fpga = estimate_fpga(p);
  const auto resources = estimate_resources(p);
  // The partitioner can never beat the resource lower bound.
  EXPECT_GE(fpga.num_dfes, resources.devices_needed(stratix_v_5sgsd8()));
  // Throughput identities.
  EXPECT_NEAR(fpga.images_per_second * fpga.seconds_per_image, 1.0, 1e-9);
  EXPECT_NEAR(fpga.energy_per_image_j,
              fpga.power_w * fpga.seconds_per_image, 1e-12);
  // Partition segments carry exactly the total resources.
  double luts = 0.0;
  for (const auto& d : fpga.partition.dfes) luts += d.luts;
  EXPECT_NEAR(luts, resources.luts, 1.0);
}

TEST(Integration, TrainedModelSurvivesWholeToolchain) {
  const auto all = make_cluster_task(3, 8, 60, 12.0, 33);
  const auto [train, test] = split_dataset(all, 0.75);
  QatConfig cfg;
  cfg.epochs = 30;
  cfg.seed = 3;
  QatMlp mlp(train.dim, train.classes, cfg);
  mlp.fit(train);
  const auto [pipeline, params] = mlp.export_network();

  // It partitions (trivially), simulates, and streams.
  const auto est = estimate_fpga(pipeline);
  EXPECT_EQ(est.num_dfes, 1);
  EXPECT_GT(est.images_per_second, 60.0);

  StreamEngine engine(pipeline, params);
  const ReferenceExecutor ref(pipeline, params);
  int agree = 0;
  for (int i = 0; i < 20; ++i) {
    const IntTensor& img = test.images[static_cast<std::size_t>(i)];
    agree += engine.run_one(img) == ref.run(img);
  }
  EXPECT_EQ(agree, 20);
}

TEST(Integration, PpmRoundTripPreservesClassification) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const NetworkParams params = NetworkParams::random(p, 77);
  const ReferenceExecutor ref(p, params);
  Rng rng(14);
  const IntTensor img = synthetic_image(12, 12, 3, rng);
  const std::string path = "/tmp/qnn_integration.ppm";
  write_ppm(path, img);
  const IntTensor back = read_ppm(path);
  std::remove(path.c_str());
  EXPECT_EQ(ref.run(back), ref.run(img));
}

TEST(Integration, GpuAndFpgaModelsCoverAllPaperWorkloads) {
  // Fig 5/7/8 harness precondition: every paper workload must be
  // expandable, partitionable and estimable on both platforms.
  for (const auto& spec :
       {models::vgg_like(32, 10, 2), models::vgg_like(96, 10, 2),
        models::vgg_like(144, 10, 2), models::alexnet(224, 1000, 2),
        models::resnet18(224, 1000, 2)}) {
    const Pipeline p = expand(spec);
    const auto fpga = estimate_fpga(p);
    EXPECT_GT(fpga.images_per_second, 0.0) << spec.name;
    for (const auto& gpu : {tesla_p100(), gtx1080()}) {
      const auto est = estimate_gpu(p, gpu);
      EXPECT_GT(est.seconds_per_image, 0.0) << spec.name << " " << gpu.name;
      EXPECT_GT(est.energy_per_image_j, 0.0);
    }
  }
}

TEST(Integration, SimulatorTracksEngineWorkloadExactly) {
  // The cycle simulator and the threaded engine must agree on the number
  // of output transactions each kernel produces (same dataflow, two
  // implementations).
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const NetworkParams params = NetworkParams::random(p, 55);
  StreamEngine engine(p, params);
  Rng rng(16);
  (void)engine.run_one(synthetic_image(12, 12, 3, rng));

  const SimResult sim = simulate(p, {}, 2);
  // Engine traffic counts values; sim counts pixels. Compare per node.
  for (int i = 0; i < p.size(); ++i) {
    const Node& n = p.node(i);
    const auto out_pixels =
        static_cast<std::uint64_t>(n.out.h) * n.out.w;
    for (const auto& k : sim.kernels) {
      if (k.name != n.name) continue;
      EXPECT_EQ(k.outputs, out_pixels * 2) << n.name;  // 2 simulated images
    }
    const auto out_values = static_cast<std::uint64_t>(n.out.elems());
    for (const auto& [stream, pushed] : engine.stream_traffic()) {
      if (stream.rfind(n.name + "->", 0) == 0 ||
          stream.rfind(n.name + "=>", 0) == 0) {
        EXPECT_EQ(pushed, out_values) << stream;  // 1 streamed image
        break;
      }
    }
  }
}

}  // namespace
}  // namespace qnn
