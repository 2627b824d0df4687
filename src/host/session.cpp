#include "host/session.h"

#include <sstream>

#include "io/table.h"
#include "nn/serialize.h"
#include "nn/summary.h"
#include "plan/cache.h"
#include "verify/graph_check.h"
#include "verify/plan_check.h"

namespace qnn {

struct DfeSession::State {
  SessionConfig config;
  NetworkSpec spec;
  Pipeline pipeline;
  NetworkParams params;
  FpgaRunEstimate estimate;
  std::unique_ptr<BackendSession> session;  // owns its pipeline/params copy
};

DfeSession::DfeSession(std::unique_ptr<State> state)
    : state_(std::move(state)) {}
DfeSession::DfeSession(DfeSession&&) noexcept = default;
DfeSession& DfeSession::operator=(DfeSession&&) noexcept = default;
DfeSession::~DfeSession() = default;

DfeSession DfeSession::compile(const NetworkSpec& spec, NetworkParams params,
                               SessionConfig config) {
  auto state = std::make_unique<State>();
  state->spec = spec;
  state->pipeline = expand(spec);
  state->params = std::move(params);
  const std::string context =
      "DfeSession::compile(" + state->pipeline.name + ")";
  // Plan resolution: an explicit SessionConfig::plan wins; otherwise the
  // plan cache is consulted (keyed by model hash + machine + SLO), and a
  // miss means the engine derives everything from the options as before.
  if (config.plan == nullptr) {
    const PlanCache cache(config.plan_cache_dir.empty()
                              ? PlanCache::default_dir()
                              : config.plan_cache_dir);
    if (cache.enabled()) {
      if (auto cached = cache.load(plan_key(state->pipeline, config.slo_us))) {
        // Re-verify before arming (verify/plan_check.h): a cached file that
        // parses but carries a stale hash, corrupt streams or burst/FIFO
        // skew is a MISS, not a fatal error — the cache contract says a
        // corrupt entry must never break a cold start.
        Report lint;
        lint_plan(state->pipeline, *cached, lint);
        if (lint.ok()) {
          config.plan =
              std::make_shared<const CompiledPlan>(*std::move(cached));
        }
      }
    }
  }
  if (config.plan != nullptr) {
    // The plan's frozen knobs override the ad-hoc engine options, and the
    // engine is pointed at the plan itself (non-owning; the shared_ptr in
    // the stored config keeps the pointee alive across recompiles).
    config.plan->apply_engine(config.engine);
    config.engine.plan = config.plan.get();
  }
  state->config = config;
  if (config.engine.verify) {
    // Static verification with structured QNN-Dxxx codes before anything
    // else touches the graph: structure, shapes/bit widths, parameter
    // banks and FIFO capacities (verify/graph_check.h).
    enforce(verify_graph(state->pipeline, &state->params, config.engine),
            context);
  }
  QNN_CHECK(static_cast<int>(state->params.convs.size()) ==
                state->pipeline.num_conv_params,
            "parameters do not match the network (conv banks)");
  QNN_CHECK(static_cast<int>(state->params.bnacts.size()) ==
                state->pipeline.num_bnact_params,
            "parameters do not match the network (bnact banks)");
  // Carry the compile-time plan's per-edge bursts (and cut, when it has
  // one) into both link models so the sim's MaxRing serializer and the
  // partitioner's wire pricing see the same transaction granularity the
  // engine will actually use. Explicit user-provided bursts win — the
  // apply helpers only fill empty fields.
  if (config.sim.link_bursts.empty() ||
      config.partition.link_bursts.empty()) {
    if (config.plan != nullptr) {
      config.plan->apply_sim(config.sim);
      config.plan->apply_partition(config.partition);
    } else {
      const CompiledPlan derived = compile_plan(
          state->pipeline, config.engine, config.slo_us, config.backend);
      derived.apply_sim(config.sim);
      derived.apply_partition(config.partition);
    }
    state->config = config;
  }
  state->estimate = estimate_fpga(state->pipeline, config.sim,
                                  config.partition, config.board);
  if (config.engine.verify) {
    // The estimator chose a placement; prove it feasible (MaxRing link
    // rates and per-DFE resource totals) before the backend compiles.
    Report placement_report;
    check_partition(state->pipeline, state->estimate.partition,
                    config.partition, placement_report);
    enforce(placement_report, context);
  }
  Backend& backend = backend_registry().at(config.backend);
  state->session =
      backend.compile(state->pipeline, state->params, config.engine);
  return DfeSession(std::move(state));
}

DfeSession DfeSession::load(const std::string& path, SessionConfig config) {
  LoadedNetwork net = load_network(path);
  return compile(net.spec, std::move(net.params), config);
}

IntTensor DfeSession::infer(const IntTensor& image) {
  return state_->session->infer(image);
}

std::vector<IntTensor> DfeSession::infer_batch(
    std::span<const IntTensor> images, StreamEngine::RunStats* stats) {
  return state_->session->infer_batch(images, stats);
}

void DfeSession::cancel() { state_->session->cancel(); }

int DfeSession::classify(const IntTensor& image) {
  return state_->session->classify(image);
}

const NetworkSpec& DfeSession::spec() const { return state_->spec; }
const Pipeline& DfeSession::pipeline() const { return state_->pipeline; }
const NetworkParams& DfeSession::params() const { return state_->params; }
const PartitionResult& DfeSession::placement() const {
  return state_->estimate.partition;
}
const FpgaRunEstimate& DfeSession::estimate() const {
  return state_->estimate;
}
BackendSession& DfeSession::session() { return *state_->session; }
const Backend& DfeSession::backend() const {
  return state_->session->backend();
}

std::string DfeSession::report() const {
  const State& s = *state_;
  std::ostringstream os;
  os << summarize(s.pipeline) << "\n";
  os << "backend: " << s.session->backend().name() << " (tier "
     << to_string(s.session->backend().tier()) << ")\n";
  os << "placement: " << s.estimate.num_dfes << " DFE(s) on "
     << s.config.board.name << "\n";
  Table t({"DFE", "kernels", "utilization"});
  for (std::size_t k = 0; k < s.estimate.partition.dfes.size(); ++k) {
    const auto& d = s.estimate.partition.dfes[k];
    t.add_row({Table::integer(static_cast<std::int64_t>(k)),
               s.pipeline.node(d.first_node).name + " .. " +
                   s.pipeline.node(d.last_node).name,
               Table::num(d.utilization, 2)});
  }
  t.print(os);
  for (const auto& cut : s.estimate.partition.cuts) {
    os << "  link after " << s.pipeline.node(cut.after_node).name << ": "
       << Table::num(cut.required_mbps, 1) << " Mbps\n";
  }
  os << "timing: " << s.estimate.clocks_per_image << " clocks/image, "
     << Table::num(1e3 * s.estimate.seconds_per_image, 2) << " ms ("
     << Table::num(s.estimate.images_per_second, 1) << " fps @ "
     << Table::num(s.config.sim.clock_hz / 1e6, 0) << " MHz)\n";
  os << "power:  " << Table::num(s.estimate.power_w, 1) << " W, energy "
     << Table::num(1e3 * s.estimate.energy_per_image_j, 1)
     << " mJ per image\n";
  return os.str();
}

}  // namespace qnn
