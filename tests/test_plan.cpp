// Plan artifact tests: CompiledPlan serialization round-trips, fingerprint
// stability, the PlanCache hit/miss/corrupt-file contract, the autotuner's
// verify-before-run invariant, and end-to-end bit-exactness of tuned plans
// (including a server cold start that loads one from a warm cache).
#include "plan/compiled_plan.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "host/session.h"
#include "models/zoo.h"
#include "nn/params.h"
#include "nn/reference.h"
#include "plan/autotune.h"
#include "plan/cache.h"
#include "plan/json.h"
#include "plan/pool_shape.h"
#include "serve/server.h"
#include "test_util.h"
#include "verify/graph_check.h"

namespace qnn {
namespace {

namespace fs = std::filesystem;

struct TinyNet {
  NetworkSpec spec = models::tiny(12, 4, 2);
  Pipeline pipeline = expand(spec);
  NetworkParams params = NetworkParams::random(pipeline, 60);
  SessionConfig session_config;

  [[nodiscard]] std::vector<IntTensor> batch(int n, std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<IntTensor> images;
    images.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      images.push_back(testutil::random_image(12, 12, 3, rng));
    }
    return images;
  }
};

/// Scratch directory under the test's working directory (the build tree);
/// wiped on construction so reruns start clean.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name) : path(name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

// ---- serialization --------------------------------------------------------

TEST(PlanJson, RoundTripIsByteIdentical) {
  const TinyNet net;
  EngineOptions opts;
  opts.burst = 128;
  opts.adaptive_burst = false;
  opts.fifo_capacity = 4096;
  opts.pool_threads = 3;
  const CompiledPlan plan =
      compile_plan(net.pipeline, opts, /*slo_us=*/1500, "engine");

  const std::string text = to_json(plan);
  const CompiledPlan reparsed = plan_from_json(text);
  // The contract plan/json.h documents: serialize(parse(serialize(p)))
  // is byte-identical, so cached files never churn on rewrite.
  EXPECT_EQ(to_json(reparsed), text);

  EXPECT_EQ(reparsed.key, plan.key);
  EXPECT_EQ(reparsed.model, plan.model);
  EXPECT_EQ(reparsed.burst, plan.burst);
  EXPECT_EQ(reparsed.adaptive_burst, plan.adaptive_burst);
  EXPECT_EQ(reparsed.fifo_capacity, plan.fifo_capacity);
  EXPECT_EQ(reparsed.pool_threads, plan.pool_threads);
  EXPECT_EQ(reparsed.backend, plan.backend);
  EXPECT_EQ(reparsed.fifos.streams.size(), plan.fifos.streams.size());
  EXPECT_EQ(reparsed.link_bursts.size(), plan.link_bursts.size());
}

TEST(PlanJson, RejectsMalformedAndWrongVersion) {
  const TinyNet net;
  CompiledPlan plan = compile_plan(net.pipeline);
  EXPECT_THROW((void)plan_from_json("not json at all"), Error);
  plan.version = kPlanFormatVersion + 1;
  EXPECT_THROW((void)plan_from_json(to_json(plan)), Error);
}

// ---- fingerprint ----------------------------------------------------------

TEST(PlanKeyTest, StableAcrossRunsAndLoweringCalls) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const PlanKey a = plan_key(expand(spec), /*slo_us=*/0);
  const PlanKey b = plan_key(expand(spec), /*slo_us=*/0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(a.machine, machine_signature());
}

TEST(PlanKeyTest, ChangesOnModelEditButNotOnRename) {
  const Pipeline base = expand(models::tiny(12, 4, 2));
  // Any structural edit — input size, class count — orphans a tuned plan.
  EXPECT_NE(model_hash(base), model_hash(expand(models::tiny(16, 4, 2))));
  EXPECT_NE(model_hash(base), model_hash(expand(models::tiny(12, 8, 2))));
  // A pure rename does not: node names are excluded from the hash.
  Pipeline renamed = base;
  renamed.nodes.front().name = "totally_different_name";
  EXPECT_EQ(model_hash(base), model_hash(renamed));
  // The SLO is part of the fingerprint string: a latency-tuned plan never
  // shadows a throughput-tuned one.
  EXPECT_NE(plan_key(base, 0).str(), plan_key(base, 2000).str());
}

// ---- cache ----------------------------------------------------------------

TEST(PlanCacheTest, StoreThenLoadHitsBitIdentically) {
  const TinyNet net;
  const ScratchDir dir("test_plan_cache.store");
  EngineOptions opts;
  opts.burst = 256;
  const CompiledPlan plan = compile_plan(net.pipeline, opts);

  const PlanCache cache(dir.path.string());
  ASSERT_TRUE(cache.enabled());
  ASSERT_TRUE(cache.store(plan));
  const auto loaded = cache.load(plan.key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(to_json(*loaded), to_json(plan));
}

TEST(PlanCacheTest, MissesOnUnknownKeyCorruptFileAndDisabledCache) {
  const TinyNet net;
  const ScratchDir dir("test_plan_cache.miss");
  const CompiledPlan plan = compile_plan(net.pipeline);
  const PlanCache cache(dir.path.string());
  ASSERT_TRUE(cache.store(plan));

  // Unknown key: never tuned this (model, slo) pair.
  EXPECT_FALSE(cache.load(plan_key(net.pipeline, /*slo_us=*/999)).has_value());

  // Corrupt file: a truncated or garbage entry is a MISS, never an error —
  // a broken cache must not break a cold start.
  {
    std::ofstream out(cache.path_for(plan.key), std::ios::trunc);
    out << "{\"version\": garbage";
  }
  EXPECT_FALSE(cache.load(plan.key).has_value());

  // Disabled cache (empty dir): lookups miss, stores are no-ops.
  const PlanCache disabled{std::string()};
  EXPECT_FALSE(disabled.enabled());
  EXPECT_FALSE(disabled.store(plan));
  EXPECT_FALSE(disabled.load(plan.key).has_value());
}

// ---- autotuner ------------------------------------------------------------

TEST(Autotune, EveryCandidateIsVerifyCleanBeforeItMayRun) {
  const TinyNet net;
  AutotuneConfig config;
  config.live_calibration = false;  // oracle-only: fast and deterministic
  config.bursts = {64, 128};
  config.fifo_capacities = {0};
  const AutotuneResult result = autotune(net.pipeline, net.params, config);

  ASSERT_FALSE(result.candidates.empty());
  EXPECT_TRUE(result.candidates.front().verified);  // the default plan
  int verified = 0;
  for (const AutotuneCandidate& c : result.candidates) {
    if (!c.verified) continue;  // pruned by the analyzer, never executed
    ++verified;
    // Re-prove the invariant: the exact plan the candidate would run
    // passes verify/ with the plan attached (the QNN-D305 path included).
    EngineOptions opts;
    c.plan.apply_engine(opts);
    opts.plan = &c.plan;
    const Report report = verify_graph(net.pipeline, &net.params, opts);
    EXPECT_TRUE(report.ok()) << c.plan.fingerprint();
  }
  EXPECT_EQ(verified, result.evaluated);
  EXPECT_EQ(static_cast<int>(result.candidates.size()) - verified,
            result.pruned);
  // The winner never loses to the default on the deciding metric.
  EXPECT_GE(result.best_ips, result.default_ips);
  EXPECT_TRUE(result.best.matches(net.pipeline));
}

TEST(Autotune, TunedPlanIsBitExactAgainstDefaultOnTheZooModel) {
  const TinyNet net;
  AutotuneConfig config;
  config.live_calibration = false;
  config.bursts = {64, 256};
  config.fifo_capacities = {0, 4096};
  const AutotuneResult result = autotune(net.pipeline, net.params, config);

  SessionConfig default_cfg = net.session_config;
  default_cfg.plan = std::make_shared<const CompiledPlan>(
      result.candidates.front().plan);
  SessionConfig tuned_cfg = net.session_config;
  tuned_cfg.plan = std::make_shared<const CompiledPlan>(result.best);

  DfeSession default_session =
      DfeSession::compile(net.spec, net.params, default_cfg);
  DfeSession tuned_session =
      DfeSession::compile(net.spec, net.params, tuned_cfg);
  const ReferenceExecutor ref(net.pipeline, net.params);

  const std::vector<IntTensor> images = net.batch(6, 61);
  const std::vector<IntTensor> a = default_session.infer_batch(images);
  const std::vector<IntTensor> b = tuned_session.infer_batch(images);
  ASSERT_EQ(a.size(), images.size());
  ASSERT_EQ(b.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << i;
    EXPECT_EQ(a[i], ref.run(images[i])) << i;  // and both match golden
  }
}

// ---- server cold start ----------------------------------------------------

TEST(PlanCacheTest, ServerColdStartLoadsCachedPlanBitExactly) {
  const TinyNet net;
  const ScratchDir dir("test_plan_cache.coldstart");
  // Persist a deliberately non-default plan, as qnn_tune would.
  EngineOptions opts;
  opts.burst = 64;
  opts.adaptive_burst = false;
  opts.fifo_capacity = 4096;
  opts.pool_threads = 2;
  const CompiledPlan tuned = compile_plan(net.pipeline, opts);
  ASSERT_TRUE(PlanCache(dir.path.string()).store(tuned));

  SessionConfig warm = net.session_config;
  warm.plan_cache_dir = dir.path.string();
  ServerConfig server_cfg;
  server_cfg.max_batch = 4;
  server_cfg.batch_timeout_us = 200;

  DfeServer warm_server(net.spec, net.params, server_cfg, warm);
  DfeServer cold_server(net.spec, net.params, server_cfg,
                        net.session_config);

  // The hit is observable: one kPlanCacheHit event carrying the
  // fingerprint, logged before any replica compiles.
  bool hit = false;
  for (const std::string& event : warm_server.metrics().events()) {
    if (event.find(kPlanCacheHit) != std::string::npos) {
      EXPECT_NE(event.find(tuned.fingerprint()), std::string::npos) << event;
      hit = true;
    }
  }
  EXPECT_TRUE(hit) << "cold start with a warm cache must log "
                   << kPlanCacheHit;
  for (const std::string& event : cold_server.metrics().events()) {
    EXPECT_EQ(event.find(kPlanCacheHit), std::string::npos) << event;
  }

  // And the loaded plan changes nothing observable: bit-exact vs the
  // default-plan server and the golden reference.
  const ReferenceExecutor ref(net.pipeline, net.params);
  for (const IntTensor& image : net.batch(5, 62)) {
    const InferenceResult a = warm_server.submit(image);
    const InferenceResult b = cold_server.submit(image);
    ASSERT_EQ(a.status, ServerStatus::kOk) << to_string(a.status);
    ASSERT_EQ(b.status, ServerStatus::kOk) << to_string(b.status);
    EXPECT_EQ(a.logits, b.logits);
    EXPECT_EQ(a.logits, ref.run(image));
  }
}

TEST(PlanCacheTest, ColdStartRejectsCachedPlanThatFailsTheLint) {
  const TinyNet net;
  const ScratchDir dir("test_plan_cache.reject");
  // A plan that parses and carries the RIGHT fingerprint, but whose stream
  // table was skewed after tuning (burst above its own FIFO): the cache
  // layer cannot see this — only the verify/plan_check.h lint can.
  CompiledPlan skewed = compile_plan(net.pipeline);
  skewed.fifos.streams[0].burst = skewed.fifos.streams[0].capacity + 1;
  ASSERT_TRUE(PlanCache(dir.path.string()).store(skewed));

  // A session cold start treats the rejected plan as a MISS and derives a
  // fresh plan — it must not throw and must stay bit-exact.
  SessionConfig warm = net.session_config;
  warm.plan_cache_dir = dir.path.string();
  DfeSession session = DfeSession::compile(net.spec, net.params, warm);
  const ReferenceExecutor ref(net.pipeline, net.params);
  for (const IntTensor& image : net.batch(3, 64)) {
    EXPECT_EQ(session.infer(image), ref.run(image));
  }

  // A server cold start does the same, and the rejection is observable:
  // one plan-cache-rejected event (with the lint verdict), no cache-hit
  // event, and inference still works.
  DfeServer server(net.spec, net.params, ServerConfig{}, warm);
  bool rejected = false;
  for (const std::string& event : server.metrics().events()) {
    EXPECT_EQ(event.find(kPlanCacheHit), std::string::npos) << event;
    if (event.find("plan-cache-rejected") != std::string::npos) {
      EXPECT_NE(event.find(skewed.fingerprint()), std::string::npos) << event;
      rejected = true;
    }
  }
  EXPECT_TRUE(rejected) << "the lint rejection must be logged";
  const IntTensor image = net.batch(1, 65).front();
  const InferenceResult res = server.submit(image);
  ASSERT_EQ(res.status, ServerStatus::kOk) << to_string(res.status);
  EXPECT_EQ(res.logits, ref.run(image));
}

// A plan file in format version 1 — byte for byte as that version wrote
// it, with the executor and core-pinning keys version 2 dropped — is a
// cache MISS on a cold start: no error, no cache-hit event, a freshly
// derived plan, bit-exact inference.
TEST(PlanCacheTest, VersionOnePlanIsAColdStartMissNotAnError) {
  const TinyNet net;
  const ScratchDir dir("test_plan_cache.v1");
  EngineOptions opts;
  opts.burst = 64;
  opts.pool_threads = 2;
  const CompiledPlan plan = compile_plan(net.pipeline, opts);
  std::string v1 = to_json(plan);
  const auto rewrite = [&v1](const std::string& from, const std::string& to) {
    const std::size_t at = v1.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    v1.replace(at, from.size(), to);
  };
  rewrite("  \"version\": " + std::to_string(kPlanFormatVersion) + ",\n",
          "  \"version\": 1,\n");
  rewrite("  \"pool_threads\": 2,\n",
          "  \"executor\": \"pooled\",\n"
          "  \"pool_threads\": 2,\n"
          "  \"pin_threads\": true,\n"
          "  \"pin_offset\": 1,\n");
  const PlanCache cache(dir.path.string());
  {
    std::ofstream out(cache.path_for(plan.key), std::ios::trunc);
    out << v1;
  }
  EXPECT_FALSE(cache.load(plan.key).has_value());

  SessionConfig warm = net.session_config;
  warm.plan_cache_dir = dir.path.string();
  DfeServer server(net.spec, net.params, ServerConfig{}, warm);
  for (const std::string& event : server.metrics().events()) {
    EXPECT_EQ(event.find(kPlanCacheHit), std::string::npos) << event;
  }
  const ReferenceExecutor ref(net.pipeline, net.params);
  for (const IntTensor& image : net.batch(3, 66)) {
    const InferenceResult res = server.submit(image);
    ASSERT_EQ(res.status, ServerStatus::kOk) << to_string(res.status);
    EXPECT_EQ(res.logits, ref.run(image));
  }
}

// ---- pool shaping ---------------------------------------------------------

TEST(PoolShape, DerivesFastSlicesAndOneShadow) {
  PoolShapeConfig config;
  config.target_qps = 1000.0;
  config.tight_fraction = 0.5;
  config.replica_qps = 400.0;
  config.want_shadow = true;
  const std::vector<PoolSlice> pool =
      shape_pool(config, backend_registry());
  ASSERT_FALSE(pool.empty());
  EXPECT_EQ(backend_registry().at(pool.front().backend).tier(),
            BackendTier::kFast);
  int shadows = 0;
  int total = 0;
  for (const PoolSlice& slice : pool) {
    EXPECT_GE(slice.count, 1) << slice.backend;
    total += slice.count;
    shadows += backend_registry().at(slice.backend).tier() ==
               BackendTier::kShadow;
  }
  EXPECT_EQ(shadows, 1);
  EXPECT_LE(total, config.max_replicas + 1);  // +1 for the shadow replica

  PoolShapeConfig infeasible = config;
  infeasible.replica_qps = 0.0;
  EXPECT_THROW((void)shape_pool(infeasible, backend_registry()), Error);
}

}  // namespace
}  // namespace qnn
