#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <thread>

#include "core/error.h"
#include "dataflow/engine.h"
#include "dataflow/linked_engine.h"
#include "host/session.h"
#include "io/synthetic.h"
#include "models/zoo.h"
#include "nn/reference.h"
#include "partition/partitioner.h"
#include "plan/fifo_plan.h"
#include "serve/load_generator.h"
#include "serve/server.h"
#include "sim/cycle_model.h"
#include "verify/graph_check.h"

namespace qnn::bench {

namespace {

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string quoted(const std::string& s) { return "\"" + json_escape(s) + "\""; }

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

// ---- statistics -------------------------------------------------------------

std::optional<double> nearest_rank(std::vector<double> values, double p,
                                   std::size_t min_beyond) {
  QNN_CHECK(p > 0.0 && p <= 100.0, "percentile must lie in (0, 100]");
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // ceil(p/100 * n) with a tolerance so 99% of 1000 is rank 990, not 991.
  const double exact = p / 100.0 * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  return values[rank - 1];
}

double median(std::vector<double> values) {
  QNN_CHECK(!values.empty(), "median of an empty sample");
  return *nearest_rank(std::move(values), 50.0, 0);
}

// ---- tracing ----------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Tracer::Scope::Scope(Tracer* tracer, std::string name, std::string args)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  const auto now = Clock::now();
  id_ = tracer_->record(std::move(name), now, now, tracer_->open_, 0,
                        std::move(args));
  saved_parent_ = tracer_->open_;
  tracer_->open_ = id_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const std::int64_t end =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           tracer_->origin_)
          .count();
  {
    const std::lock_guard<std::mutex> lock(tracer_->mu_);
    tracer_->spans_[static_cast<std::size_t>(id_)].end_ns = end;
  }
  tracer_->open_ = saved_parent_;
}

int Tracer::record(std::string name, Clock::time_point start,
                   Clock::time_point end, int parent, int track,
                   std::string args) {
  if (!enabled_) return -1;
  auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  const std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      Span{std::move(name), ns(start), ns(end), parent, track, std::move(args)});
  return id;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":" << quoted(s.name) << ",\"ph\":\"X\",\"pid\":1"
        << ",\"tid\":" << s.track << ",\"ts\":" << num(1e-3 * double(s.start_ns))
        << ",\"dur\":" << num(1e-3 * double(s.end_ns - s.start_ns))
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << (s.args.empty() ? "" : ",") << s.args << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out.flush());
}

// ---- inputs -----------------------------------------------------------------

std::vector<IntTensor> make_images(const Pipeline& pipeline, int n,
                                   std::uint64_t seed) {
  return synthetic_batch(n, pipeline.input.h, pipeline.input.w,
                         pipeline.input.c, seed);
}

NetworkParams make_params(const Pipeline& pipeline, std::uint64_t seed) {
  return NetworkParams::random(pipeline, seed ^ 0x5eedba5e5eedba5eULL);
}

// ---- chain segments -----------------------------------------------------------

std::vector<NodeRange> chain_segments(const Pipeline& pipeline) {
  std::vector<NodeRange> out;
  const int n = pipeline.size();
  int first = 0;
  for (int c = 0; c < n; ++c) {
    bool cut = true;
    for (int j = c + 1; j < n && cut; ++j) {
      const Node& node = pipeline.node(j);
      if (node.main_from < c) cut = false;
      if (node.skip_from >= 0 && node.skip_from <= c) cut = false;
    }
    if (cut) {
      out.push_back(NodeRange{first, c});
      first = c + 1;
    }
  }
  return out;
}

SegmentRun run_segments(const Pipeline& pipeline, const NetworkParams& params,
                        const std::vector<NodeRange>& ranges,
                        const std::vector<IntTensor>& images,
                        const std::vector<IntTensor>& reference_nodes,
                        unsigned workers, Tracer& tracer) {
  SegmentRun run;
  std::vector<IntTensor> current = images;
  for (const NodeRange& r : ranges) {
    SegmentTiming t;
    t.range = r;
    t.name = pipeline.node(r.last).name;
    for (int i = r.first; i <= r.last; ++i) {
      t.has_conv = t.has_conv || pipeline.node(i).kind == NodeKind::Conv;
    }
    const auto span = tracer.scope(
        "dataflow.segment", "\"node\":" + quoted(t.name) +
                                ",\"first\":" + std::to_string(r.first) +
                                ",\"last\":" + std::to_string(r.last));
    const PipelineSegment seg =
        extract_segment(pipeline, params, r.first, r.last);
    EngineOptions options;
    options.pool_threads = workers;
    StreamEngine engine(seg.pipeline, seg.params, options);
    (void)engine.run_one(current.front());  // warm the streams
    const auto t0 = Clock::now();
    std::vector<IntTensor> out = engine.run(current);
    t.ms_per_img = 1e3 * seconds_since(t0) / double(current.size());
    t.exact = out.front() ==
              reference_nodes[static_cast<std::size_t>(r.last)];
    current = std::move(out);
    run.segments.push_back(std::move(t));
  }
  run.outputs = std::move(current);
  return run;
}

// ---- workloads ----------------------------------------------------------------

namespace {

/// `wanted` engine worker threads per engine, cut so that the sum over
/// `engines` engines stays within min(4, nproc). Each workload asks for
/// the count whose throughput held steadiest under competing CPU load:
/// a pipeline spread over every vCPU stalls whenever the host takes one.
unsigned workers_per_engine(int engines, unsigned wanted) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned budget = std::min(4u, hw) / static_cast<unsigned>(engines);
  return std::max(1u, std::min(wanted, budget));
}

constexpr int kBatch = 8;
constexpr int kServeSetupHalf = 10;

struct Network {
  NetworkSpec spec;
  Pipeline pipeline;
  NetworkParams params;
};

Network make_network(NetworkSpec spec, std::uint64_t seed) {
  Network net{std::move(spec), {}, {}};
  net.pipeline = expand(net.spec);
  net.params = make_params(net.pipeline, seed);
  return net;
}

/// Cold builds of one workload. `cpu_s` is what setup_s reports: the
/// process CPU time of each build. Set-up runs on the calling thread, so
/// on a quiet host it equals the wall time (`wall_s`, kept for the detail
/// line), but unlike wall time it does not count the moments the vCPU
/// runs something else, which under competing load doubled wall time.
struct SetupTimes {
  std::vector<double> cpu_s;
  std::vector<double> wall_s;
};

/// Appends the times of `repeats` cold builds (`build`, from the
/// NetworkSpec); `reset` releases the previous instance untimed first.
/// Untraced runs time half their builds before the timed phase and half
/// after it, so the reported median spans two moments of the run.
void time_setup(int repeats, const std::function<void()>& reset,
                const std::function<void()>& build, SetupTimes& times) {
  for (int k = 0; k < repeats; ++k) {
    reset();
    const std::clock_t c0 = std::clock();
    const auto t0 = Clock::now();
    build();
    times.wall_s.push_back(seconds_since(t0));
    times.cpu_s.push_back(double(std::clock() - c0) / CLOCKS_PER_SEC);
  }
}

void report_setup(const SetupTimes& times, RunResult& result) {
  result.metrics["setup_s"] = Metric{median(times.cpu_s), "s"};
  result.detail["setup_wall_s"] = num(median(times.wall_s));
  result.detail["setup_builds"] = std::to_string(times.cpu_s.size());
}

std::span<const IntTensor> batch_of(const std::vector<IntTensor>& pool,
                                    std::size_t b) {
  const std::size_t batches = pool.size() / kBatch;
  return std::span<const IntTensor>(pool).subspan((b % batches) * kBatch,
                                                  kBatch);
}

/// Counts one timed batch against the logits each image gave on its first
/// run; returns the number of images whose output differs.
std::uint64_t count_mismatches(const std::vector<IntTensor>& out,
                               const std::vector<IntTensor>& first_logits,
                               std::size_t b) {
  const std::size_t batches = first_logits.size() / kBatch;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!(out[i] == first_logits[(b % batches) * kBatch + i])) ++bad;
  }
  return bad;
}

double median_ms(int repeats, const std::function<void()>& call) {
  std::vector<double> v;
  for (int k = 0; k < repeats; ++k) {
    const auto t0 = Clock::now();
    call();
    v.push_back(1e3 * seconds_since(t0));
  }
  return median(std::move(v));
}

/// "first..last" node names of a segment, or the one node's name.
std::string segment_label(const Pipeline& pipeline, const SegmentTiming& s) {
  return s.range.first == s.range.last
             ? s.name
             : pipeline.node(s.range.first).name + ".." + s.name;
}

/// Reference oracle of image 0: every node's output (traced runs need them
/// for the segment checks) or just the logits.
std::vector<IntTensor> reference_nodes(const Network& net,
                                       const IntTensor& image, bool all,
                                       Tracer& tracer) {
  const auto span = tracer.scope("nn.reference");
  const ReferenceExecutor ref(net.pipeline, net.params);
  if (all) return ref.run_all(image);
  return {ref.run(image)};
}

/// Closed-loop timing of batches of 8 through `run_batch` for `seconds`.
struct ClosedLoop {
  std::uint64_t images = 0;
  std::uint64_t failed = 0;
  double window_s = 0.0;
  std::vector<double> batch_s;  // wall time of each batch
  std::uint64_t link_retransmits = 0;
  std::uint64_t link_failovers = 0;

  /// Correct images per second at the median batch time. Batches run back
  /// to back, so this is the window's rate without the few batches a host
  /// stall stretched.
  [[nodiscard]] double ips() const {
    const double correct = double(images - failed) / double(images);
    return correct * double(kBatch) / median(batch_s);
  }
};

ClosedLoop closed_loop(
    double seconds, const std::vector<IntTensor>& pool,
    const std::vector<IntTensor>& first_logits,
    const std::function<std::vector<IntTensor>(std::span<const IntTensor>,
                                               StreamEngine::RunStats*)>&
        run_batch,
    Tracer& tracer) {
  ClosedLoop loop;
  const auto start = Clock::now();
  const auto until = start + std::chrono::duration<double>(seconds);
  for (std::size_t b = 0; Clock::now() < until; ++b) {
    const auto span = tracer.scope("batch", "\"batch\":" + std::to_string(b));
    StreamEngine::RunStats stats;
    loop.images += kBatch;
    const auto t0 = Clock::now();
    try {
      const std::vector<IntTensor> out = run_batch(batch_of(pool, b), &stats);
      // A failover replays the batch on a degraded plan: its logits are
      // still exact, but it no longer runs the workload it claims to.
      loop.failed += stats.link_failovers > 0
                         ? kBatch
                         : count_mismatches(out, first_logits, b);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "batch %zu failed: %s\n", b, e.what());
      loop.failed += kBatch;
    }
    loop.batch_s.push_back(seconds_since(t0));
    loop.link_retransmits += stats.link_retransmits;
    loop.link_failovers += stats.link_failovers;
  }
  loop.window_s = seconds_since(start);
  return loop;
}

// ---- per-layer probes of one network (traced runs) -----------------------------

/// Times each module's public entry points on `net` and runs the chain
/// segments in isolation. Fills the network-level per-layer metrics.
void probe_layers(const Network& net, const std::vector<IntTensor>& batch,
                  const std::vector<IntTensor>& batch_logits,
                  const std::vector<IntTensor>& ref_nodes, unsigned workers,
                  Tracer& tracer, RunResult& result) {
  auto put = [&](const std::string& name, double v, const char* unit) {
    result.metrics[name] = Metric{v, unit};
  };
  EngineOptions options;
  options.pool_threads = workers;

  const SimConfig sim_config;
  {
    const auto span = tracer.scope("sim.simulate");
    put("sim.simulate_ms",
        median_ms(1, [&] { (void)simulate(net.pipeline, sim_config, 2); }),
        "ms");
  }
  {
    const auto span = tracer.scope("verify.verify_graph");
    put("verify.verify_graph_ms", median_ms(3, [&] {
          (void)verify_graph(net.pipeline, &net.params, options);
        }),
        "ms");
  }
  {
    const auto span = tracer.scope("plan.plan_fifos");
    put("plan.plan_fifos_ms",
        median_ms(3, [&] { (void)plan_fifos(net.pipeline, options); }), "ms");
  }
  {
    const auto span = tracer.scope("partition.partition_optimal");
    put("partition.partition_ms",
        median_ms(3, [&] { (void)partition_optimal(net.pipeline); }), "ms");
  }

  // Whole pipeline on one engine: steady per-image time and fill/drain.
  double ms_per_img = 0.0;
  {
    const auto span = tracer.scope("dataflow.StreamEngine");
    StreamEngine engine(net.pipeline, net.params, options);
    (void)engine.run(batch);  // warm
    StreamEngine::RunStats stats;
    std::vector<double> batch_ms;
    for (int k = 0; k < 3; ++k) {
      const auto run_span = tracer.scope("dataflow.StreamEngine::run");
      ++result.attempted;
      if (engine.run(batch, &stats) != batch_logits) {
        result.correct = false;
        ++result.failed;
      }
      batch_ms.push_back(1e3 * stats.wall_seconds);
    }
    ms_per_img = median(batch_ms) / double(batch.size());
    const auto one_span = tracer.scope("dataflow.StreamEngine::run_one");
    const double one_ms =
        median_ms(5, [&] { (void)engine.run_one(batch.front()); });
    put("dataflow.ms_per_img", ms_per_img, "ms");
    put("dataflow.fill_drain_ms", one_ms - ms_per_img, "ms");
    put("dataflow.burst_occupancy",
        double(stats.values_streamed) /
            double(std::max<std::uint64_t>(1, stats.stream_transactions)),
        "values/txn");
    put("dataflow.push_stalls_per_img",
        double(stats.push_stalls) / double(batch.size()), "count");
    put("dataflow.pop_stalls_per_img",
        double(stats.pop_stalls) / double(batch.size()), "count");
  }

  // Each chain segment alone: the slowest one is the host's bottleneck
  // stage, and their sum over the pipelined time is the overlap.
  const auto seg_span = tracer.scope("dataflow.chain_segments");
  const SegmentRun segs =
      run_segments(net.pipeline, net.params, chain_segments(net.pipeline),
                   batch, ref_nodes, workers, tracer);
  ++result.attempted;
  bool exact = segs.outputs == batch_logits;
  const SegmentTiming* slowest = &segs.segments.front();
  double sum_ms = 0.0;
  double conv_ms = 0.0;
  for (const SegmentTiming& s : segs.segments) {
    exact = exact && s.exact;
    sum_ms += s.ms_per_img;
    if (s.has_conv) conv_ms += s.ms_per_img;
    if (s.ms_per_img > slowest->ms_per_img) slowest = &s;
  }
  if (!exact) {
    result.correct = false;
    ++result.failed;
  }
  // Bit operations per image from the pipeline shapes: every output value
  // of a conv costs K*K*I*b weight x activation-bit products.
  double bitops = 0.0;
  for (const Node& n : net.pipeline.nodes) {
    if (n.kind != NodeKind::Conv) continue;
    bitops += double(n.out.h) * n.out.w * n.out.c * n.k * n.k * n.in.c *
              n.in_bits;
  }
  const double model_ms = 1e3 *
                          double(analytic_bottleneck_cycles(net.pipeline,
                                                            sim_config)) /
                          sim_config.clock_hz;
  put("dataflow.bottleneck_ms", slowest->ms_per_img, "ms");
  put("dataflow.bottleneck_share", slowest->ms_per_img / ms_per_img, "ratio");
  put("dataflow.overlap", sum_ms / ms_per_img, "ratio");
  put("dataflow.model_ratio", slowest->ms_per_img / model_ms, "ratio");
  put("core.simd_gops", bitops / (conv_ms * 1e-3) / 1e9, "Gop/s");
  result.detail["bottleneck_node"] = quoted(segment_label(net.pipeline, *slowest));
  result.detail["segments"] = std::to_string(segs.segments.size());
  result.detail["segments_bit_exact"] = exact ? "true" : "false";
}

// ---- closed-loop batch workloads ---------------------------------------------

/// Shared runner of resnet18_batch and alexnet_linked: setup, reference
/// gate, warm first run, then the timed closed loop (halved into an
/// untraced and a traced half when tracing).
struct BatchTarget {
  std::function<void()> reset;
  std::function<void()> build;
  std::function<std::vector<IntTensor>(std::span<const IntTensor>,
                                       StreamEngine::RunStats*)>
      run_batch;
};

RunResult run_batch_workload(const RunOptions& opt, const Network& net,
                             int setup_half, unsigned workers,
                             BatchTarget& target, Tracer& tracer,
                             const std::function<void(
                                 const std::vector<IntTensor>&,
                                 const std::vector<IntTensor>&,
                                 const std::vector<IntTensor>&, RunResult&)>&
                                 probe_extra) {
  RunResult result;
  const std::vector<IntTensor> pool = make_images(net.pipeline, 2 * kBatch,
                                                  opt.seed);
  SetupTimes setup;
  {
    const auto span = tracer.scope("setup");
    time_setup(setup_half, target.reset, target.build, setup);
  }
  const std::vector<IntTensor> ref =
      reference_nodes(net, pool.front(), opt.trace, tracer);

  // First run of every pool image doubles as the warm-up.
  std::vector<IntTensor> first_logits;
  {
    const auto span = tracer.scope("warmup");
    for (std::size_t b = 0; b < pool.size() / kBatch; ++b) {
      for (IntTensor& t : target.run_batch(batch_of(pool, b), nullptr)) {
        first_logits.push_back(std::move(t));
      }
    }
  }
  if (!(first_logits.front() == ref.back())) result.correct = false;

  if (!opt.trace) {
    const ClosedLoop loop = closed_loop(opt.seconds, pool, first_logits,
                                        target.run_batch, tracer);
    result.attempted = loop.images;
    result.failed = loop.failed;
    if (loop.failed > 0) result.correct = false;
    result.metrics["throughput_ips"] = Metric{loop.ips(), "img/s"};
    time_setup(setup_half, target.reset, target.build, setup);
    report_setup(setup, result);
    result.detail["batches"] = std::to_string(loop.batch_s.size());
    result.detail["window_ips"] =
        num(double(loop.images - loop.failed) / loop.window_s);
    result.detail["link_retransmits"] = std::to_string(loop.link_retransmits);
    result.detail["link_failovers"] = std::to_string(loop.link_failovers);
    return result;
  }

  const std::vector<IntTensor> batch(pool.begin(), pool.begin() + kBatch);
  const std::vector<IntTensor> batch_logits(first_logits.begin(),
                                            first_logits.begin() + kBatch);
  probe_layers(net, batch, batch_logits, ref, workers, tracer, result);
  probe_extra(batch, batch_logits, ref, result);

  Tracer off(false);
  const ClosedLoop plain = closed_loop(opt.seconds / 2, pool, first_logits,
                                       target.run_batch, off);
  const ClosedLoop traced = closed_loop(opt.seconds / 2, pool, first_logits,
                                        target.run_batch, tracer);
  result.attempted += plain.images + traced.images;
  result.failed += plain.failed + traced.failed;
  if (plain.failed + traced.failed > 0) result.correct = false;
  result.metrics["trace.overhead"] =
      Metric{plain.ips() / traced.ips(), "ratio"};
  if (result.metrics.count("dataflow.link_retransmits") != 0) {
    result.metrics["dataflow.link_retransmits"].value +=
        double(plain.link_retransmits + traced.link_retransmits);
  }
  return result;
}

RunResult resnet18_batch(const RunOptions& opt, Tracer& tracer) {
  const Network net = make_network(models::resnet18(224, 1000, 2), opt.seed);
  SessionConfig config;
  config.engine.pool_threads = workers_per_engine(1, 2);
  std::optional<DfeSession> session;
  BatchTarget target{
      [&] { session.reset(); },
      [&] { session.emplace(DfeSession::compile(net.spec, net.params, config)); },
      [&](std::span<const IntTensor> images, StreamEngine::RunStats* stats) {
        return session->infer_batch(images, stats);
      }};
  RunResult result = run_batch_workload(
      opt, net, 4, config.engine.pool_threads, target, tracer,
      [](const auto&, const auto&, const auto&, RunResult&) {});
  result.engines = 1;
  result.workers_per_engine = config.engine.pool_threads;
  return result;
}

RunResult alexnet_linked(const RunOptions& opt, Tracer& tracer) {
  const Network net = make_network(models::alexnet(224, 1000, 2), opt.seed);
  LinkedEngineOptions options;
  options.engine.pool_threads = workers_per_engine(2, 2);
  std::unique_ptr<Pipeline> pipeline;
  std::unique_ptr<LinkedEngine> engine;
  BatchTarget target{
      [&] {
        engine.reset();
        pipeline.reset();
      },
      [&] {
        pipeline = std::make_unique<Pipeline>(expand(net.spec));
        engine = std::make_unique<LinkedEngine>(*pipeline, net.params, options);
      },
      [&](std::span<const IntTensor> images, StreamEngine::RunStats* stats) {
        std::vector<IntTensor> out = engine->run(images, stats);
        // The run must still cross every link of the cut it was armed
        // with; a failover would have merged segments.
        QNN_CHECK(engine->links() >= 1 &&
                      engine->segments() == engine->links() + 1 &&
                      engine->plan_failovers() == 0,
                  "linked engine left its armed cut");
        return out;
      }};
  auto link_probe = [&](const std::vector<IntTensor>& batch,
                        const std::vector<IntTensor>& batch_logits,
                        const std::vector<IntTensor>& ref, RunResult& result) {
    const auto span = tracer.scope("dataflow.LinkedEngine");
    StreamEngine::RunStats stats;
    std::vector<double> batch_ms;
    for (int k = 0; k < 3; ++k) {
      const auto run_span = tracer.scope("dataflow.LinkedEngine::run");
      ++result.attempted;
      if (target.run_batch(batch, &stats) != batch_logits ||
          stats.link_failovers > 0) {
        result.correct = false;
        ++result.failed;
      }
      batch_ms.push_back(1e3 * stats.wall_seconds);
    }
    const double chain_ms = median(batch_ms) / double(batch.size());
    std::vector<NodeRange> cuts;
    int first = 0;
    for (const int c : engine->cut_after_nodes()) {
      cuts.push_back(NodeRange{first, c});
      first = c + 1;
    }
    cuts.push_back(NodeRange{first, net.pipeline.size() - 1});
    const SegmentRun segs =
        run_segments(net.pipeline, net.params, cuts, batch, ref,
                     options.engine.pool_threads, tracer);
    ++result.attempted;
    bool exact = segs.outputs == batch_logits;
    double slowest = 0.0;
    std::string slowest_name;
    for (const SegmentTiming& s : segs.segments) {
      exact = exact && s.exact;
      if (s.ms_per_img > slowest) {
        slowest = s.ms_per_img;
        slowest_name = segment_label(net.pipeline, s);
      }
    }
    if (!exact) {
      result.correct = false;
      ++result.failed;
    }
    result.metrics["dataflow.link_frames_per_img"] =
        Metric{double(stats.link_frames) / double(batch.size()), "count"};
    result.metrics["dataflow.link_retransmits"] =
        Metric{double(stats.link_retransmits), "count"};
    result.metrics["dataflow.link_chain_overhead"] =
        Metric{chain_ms / slowest, "ratio"};
    result.detail["slowest_cut_segment"] = quoted(slowest_name);
  };
  RunResult result = run_batch_workload(
      opt, net, 10, options.engine.pool_threads, target, tracer, link_probe);
  result.engines = engine->segments();
  result.workers_per_engine = options.engine.pool_threads;
  return result;
}

// ---- open-loop serving workload ------------------------------------------------

/// vgg32_overload: a seeded Poisson open loop at about twice the capacity
/// of two one-worker replicas (about 100 img/s), each request due within
/// 200 ms of its scheduled send time. The admission queue holds about
/// 40 ms of work, so excess load is refused at admission rather than left
/// to expire in the queue (see README.md for why the default 256-request
/// queue is not gated).
constexpr double kOverloadQps = 200.0;
constexpr std::int64_t kDeadlineUs = 200'000;
constexpr std::size_t kQueueCapacity = 4;
constexpr int kReplicas = 2;

struct OpenLoop {
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;  // kError / kShutdown / wrong logits
  std::uint64_t refused_overload = 0;
  std::uint64_t refused_deadline = 0;
  std::uint64_t good = 0;  // kOk, correct, within the deadline
  double schedule_s = 0.0;
  std::vector<double> lag_ms;  // generator lateness per request
  std::vector<double> queue_ms, form_ms, engine_ms;  // kOk requests
  MetricsSnapshot before, after;

  /// Requests served bit-exact within their deadline per second of
  /// schedule: the SLO goodput.
  [[nodiscard]] double goodput() const { return double(good) / schedule_s; }
};

/// Sends `n` requests on the seeded Poisson schedule, timing each from
/// its scheduled send time to its future resolving (admission lag +
/// the server's own admission-to-fulfilment time).
OpenLoop open_loop(DfeServer& server, int n, std::uint64_t seed,
                   const std::vector<IntTensor>& pool,
                   const std::vector<IntTensor>& first_logits,
                   Tracer& tracer) {
  OpenLoop loop;
  const std::vector<double> arrivals = poisson_arrivals_us(kOverloadQps, n, seed);
  loop.schedule_s = arrivals.back() * 1e-6;
  loop.before = server.metrics().snapshot();
  std::vector<std::future<InferenceResult>> futures;
  std::vector<Clock::time_point> due, admitted;
  futures.reserve(arrivals.size());
  due.reserve(arrivals.size());
  admitted.reserve(arrivals.size());
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    due.push_back(t0 + std::chrono::microseconds(
                           static_cast<std::int64_t>(arrivals[i])));
    std::this_thread::sleep_until(due.back());
    admitted.push_back(Clock::now());
    futures.push_back(server.submit_async(pool[i % pool.size()], kDeadlineUs));
  }
  loop.sent = arrivals.size();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const InferenceResult r = futures[i].get();
    const double lag = ms_between(due[i], admitted[i]);
    const double latency = lag + r.total_us * 1e-3;
    loop.lag_ms.push_back(lag);
    bool ok = false;
    switch (r.status) {
      case ServerStatus::kOk:
        ok = r.logits == first_logits[i % pool.size()];
        break;
      case ServerStatus::kOverloaded:
        ++loop.refused_overload;
        break;
      case ServerStatus::kDeadlineExceeded:
        ++loop.refused_deadline;
        break;
      case ServerStatus::kShutdown:
      case ServerStatus::kError:
        break;
    }
    const bool refused = r.status == ServerStatus::kOverloaded ||
                         r.status == ServerStatus::kDeadlineExceeded;
    if (!ok && !refused) ++loop.failed;
    if (!ok) continue;
    if (latency <= double(kDeadlineUs) * 1e-3) ++loop.good;
    const double engine = (r.total_us - r.queue_wait_us - r.batch_form_us);
    loop.queue_ms.push_back(r.queue_wait_us * 1e-3);
    loop.form_ms.push_back(r.batch_form_us * 1e-3);
    loop.engine_ms.push_back(engine * 1e-3);
    if (tracer.enabled()) {
      const std::string args = "\"request\":" + std::to_string(i);
      const int track = 100 + r.replica;
      const auto us = [](double v) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::micro>(v));
      };
      const auto a = admitted[i];
      const auto q = a + us(r.queue_wait_us);
      const auto f = q + us(r.batch_form_us);
      const int root = tracer.record("serve.request", due[i], a + us(r.total_us),
                                     tracer.current_parent(), track, args);
      tracer.record("serve.gen_lag", due[i], a, root, track, args);
      tracer.record("serve.queue", a, q, root, track, args);
      tracer.record("serve.batch_form", q, f, root, track, args);
      tracer.record("serve.engine", f, a + us(r.total_us), root, track, args);
    }
  }
  loop.after = server.metrics().snapshot();
  return loop;
}

double required(std::optional<double> v, const char* what) {
  QNN_CHECK(v.has_value(), std::string(what) +
                               ": fewer than 10 samples beyond the "
                               "percentile (run longer)");
  return *v;
}

RunResult vgg32_overload(const RunOptions& opt, Tracer& tracer) {
  RunResult result;
  const Network net = make_network(models::vgg_like(32, 10, 2), opt.seed);
  ServerConfig server_config;
  server_config.replicas = kReplicas;
  server_config.max_batch = kBatch;
  server_config.batch_timeout_us = 2000;
  server_config.queue_capacity = kQueueCapacity;
  SessionConfig session_config;
  session_config.engine.pool_threads = workers_per_engine(kReplicas, 1);
  result.engines = kReplicas;
  result.workers_per_engine = session_config.engine.pool_threads;

  std::unique_ptr<DfeServer> server;
  const auto reset = [&] { server.reset(); };
  const auto build = [&] {
    server = std::make_unique<DfeServer>(net.spec, net.params, server_config,
                                         session_config);
  };
  SetupTimes setup;
  {
    const auto span = tracer.scope("setup");
    time_setup(kServeSetupHalf, reset, build, setup);
  }
  const std::vector<IntTensor> pool = make_images(net.pipeline, 64, opt.seed);
  const std::vector<IntTensor> ref =
      reference_nodes(net, pool.front(), opt.trace, tracer);

  // First run of every pool image from two synchronous clients, so both
  // replicas warm while at most two requests are ever queued.
  std::vector<IntTensor> first_logits(pool.size());
  {
    const auto span = tracer.scope("warmup");
    auto warm = [&](std::size_t first) {
      for (std::size_t j = first; j < pool.size(); j += 2) {
        InferenceResult r = server->submit(pool[j], 0);
        QNN_CHECK(r.ok(), std::string("warm-up request failed: ") +
                              to_string(r.status) + " " + r.error);
        first_logits[j] = std::move(r.logits);
      }
    };
    auto other = std::async(std::launch::async, warm, std::size_t{1});
    warm(0);
    other.get();
  }
  if (!(first_logits.front() == ref.back())) result.correct = false;

  const int n = static_cast<int>(std::lround(kOverloadQps * opt.seconds));
  auto account = [&](const OpenLoop& loop) {
    result.attempted += loop.sent;
    result.failed += loop.failed;
    if (loop.failed > 0) result.correct = false;
  };
  auto refusal_detail = [&](const OpenLoop& loop) {
    result.detail["sent"] = std::to_string(loop.sent);
    result.detail["refused_overload"] = std::to_string(loop.refused_overload);
    result.detail["refused_deadline"] = std::to_string(loop.refused_deadline);
    result.detail["in_deadline_ok"] = std::to_string(loop.good);
    result.detail["gen_lag_max_ms"] = num(
        *std::max_element(loop.lag_ms.begin(), loop.lag_ms.end()));
  };

  if (!opt.trace) {
    const OpenLoop loop =
        open_loop(*server, n, opt.seed, pool, first_logits, tracer);
    account(loop);
    refusal_detail(loop);
    result.metrics["throughput_ips"] = Metric{loop.goodput(), "img/s"};
    time_setup(kServeSetupHalf, reset, build, setup);
    report_setup(setup, result);
    return result;
  }

  std::vector<IntTensor> batch(pool.begin(), pool.begin() + kBatch);
  std::vector<IntTensor> batch_logits(first_logits.begin(),
                                      first_logits.begin() + kBatch);
  probe_layers(net, batch, batch_logits, ref,
               session_config.engine.pool_threads, tracer, result);

  // Untraced then traced half of the schedule; the difference in goodput
  // is the tracing overhead.
  Tracer off(false);
  const OpenLoop plain =
      open_loop(*server, n / 2, opt.seed, pool, first_logits, off);
  OpenLoop traced;
  {
    const auto span = tracer.scope("serve.open_loop");
    traced = open_loop(*server, n / 2, opt.seed + 1, pool, first_logits, tracer);
  }
  account(plain);
  account(traced);
  refusal_detail(traced);
  result.metrics["trace.overhead"] =
      Metric{plain.goodput() / traced.goodput(), "ratio"};
  std::vector<double> lag = plain.lag_ms;
  lag.insert(lag.end(), traced.lag_ms.begin(), traced.lag_ms.end());
  const auto& a = traced.after;
  const auto& b = traced.before;
  const double dispatched = double(a.batched_requests - b.batched_requests);
  const double batches = double(a.batches - b.batches);
  auto put = [&](const std::string& name, double v, const char* unit) {
    result.metrics[name] = Metric{v, unit};
  };
  put("serve.queue_wait_p50_ms",
      required(nearest_rank(traced.queue_ms, 50), "queue p50"), "ms");
  put("serve.batch_form_p50_ms",
      required(nearest_rank(traced.form_ms, 50), "batch-form p50"), "ms");
  put("serve.engine_p50_ms",
      required(nearest_rank(traced.engine_ms, 50), "engine p50"), "ms");
  put("serve.mean_batch", batches > 0 ? dispatched / batches : 0.0, "count");
  put("serve.useful_ratio",
      dispatched > 0 ? double(traced.good) / dispatched : 0.0, "ratio");
  put("serve.refused_ratio",
      double(traced.refused_overload + traced.refused_deadline) /
          double(traced.sent),
      "ratio");
  put("serve.deadline_cancels_per_s",
      double(a.watchdog_deadline_cancels - b.watchdog_deadline_cancels) /
          traced.schedule_s,
      "1/s");
  put("serve.gen_lag_p99_ms", required(nearest_rank(lag, 99), "lag p99"),
      "ms");
  return result;
}

/// Per-layer metrics of the layers a workload does not run (the link on
/// single-DFE workloads, the server on closed-loop ones). Each is reported
/// as 0 and its name listed in detail.absent_layers.
const std::pair<const char*, const char*> kLayerOnlyMetrics[] = {
    {"dataflow.link_frames_per_img", "count"},
    {"dataflow.link_retransmits", "count"},
    {"dataflow.link_chain_overhead", "ratio"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.batch_form_p50_ms", "ms"},
    {"serve.engine_p50_ms", "ms"},
    {"serve.mean_batch", "count"},
    {"serve.useful_ratio", "ratio"},
    {"serve.refused_ratio", "ratio"},
    {"serve.deadline_cancels_per_s", "1/s"},
    {"serve.gen_lag_p99_ms", "ms"},
};

void report_absent_layers(RunResult& result) {
  std::string absent;
  for (const auto& [name, unit] : kLayerOnlyMetrics) {
    if (result.metrics.count(name) != 0) continue;
    result.metrics[name] = Metric{0.0, unit};
    absent += (absent.empty() ? "" : ",") + quoted(name);
  }
  result.detail["absent_layers"] = "[" + absent + "]";
}

}  // namespace

RunResult run_workload(const RunOptions& options) {
  Tracer tracer(options.trace);
  RunResult result;
  {
    const auto span = tracer.scope("workload." + options.workload);
    if (options.workload == "resnet18_batch") {
      result = resnet18_batch(options, tracer);
    } else if (options.workload == "alexnet_linked") {
      result = alexnet_linked(options, tracer);
    } else if (options.workload == "vgg32_overload") {
      result = vgg32_overload(options, tracer);
    } else {
      throw Error("unknown workload '" + options.workload + "'");
    }
  }
  if (options.trace) report_absent_layers(result);
  if (options.trace && !options.trace_file.empty()) {
    QNN_CHECK(tracer.write_chrome_json(options.trace_file),
              "cannot write trace file " + options.trace_file);
    result.detail["trace_spans"] = std::to_string(tracer.size());
    result.detail["trace_file"] = quoted(options.trace_file);
  }
  return result;
}

}  // namespace qnn::bench
