// Backend seam tests: registry behavior, the QNN-D5xx capability checks,
// and the conformance suite — every registered backend must produce
// bit-exact results against the scalar reference on the topology zoo.
#include "backend/backend.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "backend/builtin.h"
#include "io/synthetic.h"
#include "models/zoo.h"
#include "nn/reference.h"
#include "verify/backend_check.h"
#include "verify/report.h"
#include "test_util.h"

namespace qnn {
namespace {

// ---- registry ----------------------------------------------------------

TEST(BackendRegistry, BuiltinsRegisterOnFirstUse) {
  BackendRegistry& reg = backend_registry();
  EXPECT_GE(reg.size(), 3);
  ASSERT_NE(reg.find("engine"), nullptr);
  ASSERT_NE(reg.find("simulator"), nullptr);
  ASSERT_NE(reg.find("reference"), nullptr);
  EXPECT_EQ(reg.find("engine")->tier(), BackendTier::kFast);
  EXPECT_EQ(reg.find("simulator")->tier(), BackendTier::kShadow);
  EXPECT_EQ(reg.find("reference")->tier(), BackendTier::kSlow);
  EXPECT_EQ(reg.find("no-such-backend"), nullptr);
}

TEST(BackendRegistry, AtThrowsListingNames) {
  try {
    (void)backend_registry().at("bogus");
    FAIL() << "at() must throw for unknown backends";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("engine"), std::string::npos);
  }
}

TEST(BackendRegistry, AtSuggestsTheNearMissForPlausibleTypos) {
  // A one- or two-edit typo (case-insensitive) gets a concrete suggestion
  // alongside the registered-names list.
  try {
    (void)backend_registry().at("enigne");
    FAIL() << "at() must throw for unknown backends";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("did you mean \"engine\"?"), std::string::npos)
        << what;
  }
  try {
    (void)backend_registry().at("Simulator");
    FAIL() << "at() is case-sensitive and must throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("did you mean \"simulator\"?"), std::string::npos)
        << what;
  }
  // Nothing plausible: list the names, suggest nothing.
  try {
    (void)backend_registry().at("bogus");
    FAIL() << "at() must throw for unknown backends";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos);
  }
}

TEST(BackendRegistry, FirstOfTierFindsBuiltins) {
  BackendRegistry& reg = backend_registry();
  ASSERT_NE(reg.first_of_tier(BackendTier::kFast), nullptr);
  ASSERT_NE(reg.first_of_tier(BackendTier::kShadow), nullptr);
  ASSERT_NE(reg.first_of_tier(BackendTier::kSlow), nullptr);
  EXPECT_EQ(reg.first_of_tier(BackendTier::kFast)->name(), "engine");
}

TEST(BackendRegistry, DuplicateNameRejected) {
  EXPECT_THROW(backend_registry().register_backend(make_engine_backend()),
               Error);
}

TEST(BackendRegistry, InfoDescribesCostAndDevices) {
  for (Backend* b : backend_registry().all()) {
    EXPECT_FALSE(b->info().name.empty());
    EXPECT_GT(b->info().relative_cost, 0.0);
    EXPECT_GE(b->info().max_devices, 1);
    EXPECT_GE(b->device_count(), 0);
  }
}

// ---- QNN-D5xx capability checks ---------------------------------------

/// A backend with no devices and no supported ops, for the D5xx paths.
class BrokenBackend final : public Backend {
 public:
  [[nodiscard]] const BackendInfo& info() const override {
    static const BackendInfo kInfo{"broken", BackendTier::kSlow,
                                   "test-only: supports nothing", 1.0, 0};
    return kInfo;
  }
  [[nodiscard]] int device_count() const override { return 0; }
  [[nodiscard]] bool supports_op(const Node&) const override {
    return false;
  }
  [[nodiscard]] std::unique_ptr<BackendSession> compile(
      const Pipeline&, NetworkParams,
      const EngineOptions&) const override {
    throw Error("broken backend cannot compile");
  }
};

TEST(BackendCheck, NoDevicesIsD502) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const BrokenBackend broken;
  const Report r = verify_backend(p, broken);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(diag::kBackendNoDevices));
}

TEST(BackendCheck, UnsupportedOpIsD501PerNode) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const BrokenBackend broken;
  const Report r = verify_backend(p, broken);
  EXPECT_EQ(r.count(diag::kBackendUnsupportedOp), p.size());  // every node
}

TEST(BackendCheck, BuiltinsSupportTheZoo) {
  for (const NetworkSpec& spec :
       {models::tiny(12, 4, 2), models::vgg_like(32, 10, 2)}) {
    const Pipeline p = expand(spec);
    for (Backend* b : backend_registry().all()) {
      if (b->name() != "engine" && b->name() != "simulator" &&
          b->name() != "reference") {
        continue;  // test-registered backends may support nothing
      }
      EXPECT_TRUE(verify_backend(p, *b).ok())
          << b->name() << " rejects " << p.name;
    }
  }
}

TEST(BackendCheck, EngineRejectsWideConvInputs) {
  // The engine's XNOR datapath decomposes conv inputs into bit-planes;
  // beyond 16 bits it refuses (mirrors the D105 shape check).
  Node conv;
  conv.kind = NodeKind::Conv;
  conv.in_bits = 20;
  conv.out_bits = 2;
  EXPECT_FALSE(backend_registry().at("engine").supports_op(conv));
  EXPECT_TRUE(backend_registry().at("reference").supports_op(conv));
}

// ---- conformance: every backend bit-exact vs the scalar reference ------

class BackendConformance
    : public ::testing::TestWithParam<const char*> {};

TEST_P(BackendConformance, BitExactOnTopologyZoo) {
  Backend& backend = backend_registry().at(GetParam());
  for (const NetworkSpec& spec :
       {models::tiny(12, 4, 2), models::tiny(16, 6, 4),
        models::vgg_like(32, 10, 2)}) {
    const Pipeline p = expand(spec);
    NetworkParams params = NetworkParams::random(p, 91);
    const ReferenceExecutor ref(p, params);
    const std::unique_ptr<BackendSession> session =
        backend.compile(p, params);
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(&session->backend(), &backend);
    const auto batch =
        synthetic_batch(2, p.input.h, p.input.w, p.input.c, 92);
    StreamEngine::RunStats stats;
    const std::vector<IntTensor> out =
        session->infer_batch(batch, &stats);
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(out[i], ref.run(batch[i]))
          << backend.name() << " diverges on " << p.name << " image " << i;
    }
    // classify() agrees with the reference argmax.
    EXPECT_EQ(session->classify(batch[0]),
              ReferenceExecutor::argmax(ref.run(batch[0])));
  }
}

INSTANTIATE_TEST_SUITE_P(Builtins, BackendConformance,
                         ::testing::Values("engine", "simulator",
                                           "reference"));

// ---- backend-specific behavior ----------------------------------------

TEST(SimBackend, FillsSimulatedSeconds) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  NetworkParams params = NetworkParams::random(p, 93);
  const auto session =
      backend_registry().at("simulator").compile(p, std::move(params));
  StreamEngine::RunStats stats;
  (void)session->infer_batch(synthetic_batch(3, 12, 12, 3, 94), &stats);
  EXPECT_GT(stats.simulated_seconds, 0.0);
  // Modeled time scales with the batch: 3 images cost more than 1.
  StreamEngine::RunStats one;
  (void)session->infer_batch(synthetic_batch(1, 12, 12, 3, 94), &one);
  EXPECT_GT(stats.simulated_seconds, one.simulated_seconds);
  EXPECT_NE(session->report().find("simulated timing"), std::string::npos);
}

TEST(EngineBackend, LiveRunsReportZeroSimulatedSeconds) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  NetworkParams params = NetworkParams::random(p, 95);
  const auto session =
      backend_registry().at("engine").compile(p, std::move(params));
  StreamEngine::RunStats stats;
  (void)session->infer_batch(synthetic_batch(1, 12, 12, 3, 96), &stats);
  EXPECT_EQ(stats.simulated_seconds, 0.0);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

TEST(ReferenceBackend, PacesToItsFloor) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  NetworkParams params = NetworkParams::random(p, 97);
  // Standalone instance with a measurable floor (registry copy uses the
  // default); not registered, so no name clash.
  const std::unique_ptr<Backend> slow = make_reference_backend(5000);
  const auto session = slow->compile(p, std::move(params));
  StreamEngine::RunStats stats;
  (void)session->infer_batch(synthetic_batch(2, 12, 12, 3, 98), &stats);
  EXPECT_GE(stats.wall_seconds, 2 * 5000 * 1e-6 * 0.9);
}

TEST(BackendSession, ReportNamesItsBackend) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  NetworkParams params = NetworkParams::random(p, 99);
  for (const char* name : {"engine", "simulator", "reference"}) {
    const auto session = backend_registry().at(name).compile(p, params);
    const std::string r = session->report();
    EXPECT_NE(r.find(std::string("backend: ") + name), std::string::npos);
  }
}

TEST(BackendSession, CancelAbortsAndSessionRecovers) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  NetworkParams params = NetworkParams::random(p, 100);
  const std::unique_ptr<Backend> slow = make_reference_backend(200'000);
  const auto session = slow->compile(p, std::move(params));
  std::atomic<bool> returned{false};
  std::thread canceller([&] {
    // The session re-arms its abort flag at run start, so a cancel that
    // lands before the run begins is lost: keep cancelling every
    // millisecond until infer_batch has returned.
    while (!returned.load()) {
      session->cancel();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const auto batch = synthetic_batch(1, 12, 12, 3, 101);
  EXPECT_THROW((void)session->infer_batch(batch), Error);
  returned.store(true);
  canceller.join();
  // The session re-arms: a fresh (fast) run succeeds after the abort.
  const std::unique_ptr<Backend> quick = make_reference_backend(1);
  const auto ok = quick->compile(p, NetworkParams::random(p, 100));
  EXPECT_EQ(ok->infer_batch(batch).size(), 1u);
}

}  // namespace
}  // namespace qnn
