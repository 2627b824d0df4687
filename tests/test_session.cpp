#include "host/session.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

#include "io/synthetic.h"
#include "models/zoo.h"
#include "nn/reference.h"
#include "nn/serialize.h"
#include "test_util.h"

namespace qnn {
namespace {

DfeSession tiny_session(std::uint64_t seed = 50) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline p = expand(spec);
  return DfeSession::compile(spec, NetworkParams::random(p, seed));
}

TEST(Session, CompileInferMatchesReference) {
  DfeSession session = tiny_session();
  const ReferenceExecutor ref(session.pipeline(), session.params());
  Rng rng(51);
  for (int i = 0; i < 3; ++i) {
    const IntTensor img = testutil::random_image(12, 12, 3, rng);
    EXPECT_EQ(session.infer(img), ref.run(img)) << i;
    EXPECT_EQ(session.classify(img),
              ReferenceExecutor::argmax(ref.run(img)));
  }
}

TEST(Session, BatchInference) {
  DfeSession session = tiny_session();
  const auto batch = synthetic_batch(3, 12, 12, 3, 52);
  const auto out = session.infer_batch(batch);
  ASSERT_EQ(out.size(), 3u);
  const ReferenceExecutor ref(session.pipeline(), session.params());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(out[i], ref.run(batch[i]));
  }
}

TEST(Session, EstimateAndPlacementExposed) {
  DfeSession session = tiny_session();
  EXPECT_EQ(session.estimate().num_dfes, 1);
  EXPECT_GT(session.estimate().images_per_second, 60.0);
  EXPECT_EQ(session.placement().num_dfes(), 1);
  EXPECT_EQ(session.spec().name, "tiny_12");
}

TEST(Session, ReportMentionsEverything) {
  DfeSession session = tiny_session();
  const std::string r = session.report();
  EXPECT_NE(r.find("placement: 1 DFE(s)"), std::string::npos);
  EXPECT_NE(r.find("timing:"), std::string::npos);
  EXPECT_NE(r.find("power:"), std::string::npos);
  EXPECT_NE(r.find("conv_0"), std::string::npos);
}

TEST(Session, LoadFromDiskMatchesCompiled) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline p = expand(spec);
  NetworkParams params = NetworkParams::random(p, 53);
  const std::string path = "/tmp/qnn_session.qnn";
  save_network(path, spec, params);
  DfeSession compiled = DfeSession::compile(spec, std::move(params));
  DfeSession loaded = DfeSession::load(path);
  std::remove(path.c_str());
  Rng rng(54);
  const IntTensor img = testutil::random_image(12, 12, 3, rng);
  EXPECT_EQ(loaded.infer(img), compiled.infer(img));
}

TEST(Session, MultiDfePlacementForResNet) {
  const NetworkSpec spec = models::resnet18(224, 1000, 2);
  const Pipeline p = expand(spec);
  DfeSession session = DfeSession::compile(spec, NetworkParams::random(p, 55));
  EXPECT_EQ(session.estimate().num_dfes, 3);
  EXPECT_EQ(static_cast<int>(session.placement().cuts.size()), 2);
}

TEST(Session, SessionIsMovable) {
  DfeSession a = tiny_session();
  Rng rng(56);
  const IntTensor img = testutil::random_image(12, 12, 3, rng);
  const IntTensor before = a.infer(img);
  DfeSession b = std::move(a);
  EXPECT_EQ(b.infer(img), before);  // engine references stay valid
}

// Replica pools (serve/server.h) compile N sessions from one
// NetworkSpec/NetworkParams pair: compile() must not retain mutable state
// shared between sessions, so independently constructed replicas agree
// with each other and can run concurrently.
TEST(Session, ReplicasFromOneNetworkAreIndependent) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline p = expand(spec);
  const NetworkParams params = NetworkParams::random(p, 57);
  DfeSession a = DfeSession::compile(spec, params);
  DfeSession b = DfeSession::compile(spec, params);
  const ReferenceExecutor ref(p, params);
  const auto batch = synthetic_batch(4, 12, 12, 3, 58);
  std::vector<IntTensor> out_a;
  std::vector<IntTensor> out_b;
  std::thread ta([&] { out_a = a.infer_batch(batch); });
  std::thread tb([&] { out_b = b.infer_batch(batch); });
  ta.join();
  tb.join();
  ASSERT_EQ(out_a.size(), 4u);
  ASSERT_EQ(out_b.size(), 4u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(out_a[i], ref.run(batch[i]));
    EXPECT_EQ(out_b[i], ref.run(batch[i]));
  }
}

TEST(Session, CompileRejectsMismatchedParams) {
  EXPECT_THROW((void)DfeSession::compile(models::tiny(12, 4, 2),
                                         NetworkParams{}),
               Error);
}

}  // namespace
}  // namespace qnn
