#include "dataflow/linked_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "plan/compiled_plan.h"
#include "verify/graph_check.h"
#include "verify/link_check.h"

namespace qnn {

namespace {

using Clock = std::chrono::steady_clock;

void accumulate(StreamEngine::RunStats& agg,
                const StreamEngine::RunStats& one) {
  agg.values_streamed += one.values_streamed;
  agg.stream_transactions += one.stream_transactions;
  agg.push_stalls += one.push_stalls;
  agg.pop_stalls += one.pop_stalls;
  agg.faults_injected += one.faults_injected;
  agg.simulated_seconds += one.simulated_seconds;
}

/// Reassemble one boundary tensor from in-order link frames.
IntTensor recv_tensor(MaxRingLink& link, const Shape& shape) {
  IntTensor t(shape);
  const std::span<std::int32_t> flat = t.flat();
  std::size_t pos = 0;
  std::vector<std::int32_t> buf;
  while (pos < flat.size()) {
    const bool more = link.recv(buf);
    QNN_CHECK(more, "MaxRing link '" + link.name() +
                        "' closed mid-tensor (protocol error)");
    QNN_CHECK(pos + buf.size() <= flat.size(),
              "MaxRing link '" + link.name() + "' frame overruns the tensor");
    std::copy(buf.begin(), buf.end(), flat.begin() + pos);
    pos += buf.size();
  }
  return t;
}

/// Ship one boundary tensor as frames of at most `frame_values` values.
void send_tensor(MaxRingLink& link, const IntTensor& t,
                 std::size_t frame_values) {
  const std::span<const std::int32_t> flat = t.flat();
  for (std::size_t pos = 0; pos < flat.size(); pos += frame_values) {
    link.send(flat.subspan(pos, std::min(frame_values, flat.size() - pos)));
  }
}

}  // namespace

PipelineSegment extract_segment(const Pipeline& pipeline,
                                const NetworkParams& params, int first,
                                int last) {
  QNN_CHECK(first >= 0 && last >= first && last < pipeline.size(),
            "extract_segment: node range out of bounds");
  PipelineSegment seg;
  seg.pipeline.name = pipeline.name + "/seg[" + std::to_string(first) + ".." +
                      std::to_string(last) + "]";
  seg.pipeline.act_bits = pipeline.act_bits;
  if (first == 0) {
    seg.pipeline.input = pipeline.input;
    seg.pipeline.input_bits = pipeline.input_bits;
  } else {
    const Node& boundary = pipeline.node(first - 1);
    seg.pipeline.input = boundary.out;
    seg.pipeline.input_bits = boundary.out_bits;
  }
  for (int i = first; i <= last; ++i) {
    Node n = pipeline.node(i);
    QNN_CHECK(n.main_from >= first - 1,
              "extract_segment: main edge into '" + n.name +
                  "' crosses the cut (not a chain cut)");
    QNN_CHECK(n.skip_from < 0 || n.skip_from >= first,
              "extract_segment: skip edge into '" + n.name +
                  "' crosses the cut");
    n.main_from -= first;  // first-1 becomes -1: the segment input
    if (n.skip_from >= 0) n.skip_from -= first;
    if (n.param >= 0) {
      if (n.kind == NodeKind::Conv) {
        seg.params.convs.push_back(
            params.convs[static_cast<std::size_t>(n.param)]);
        n.param = static_cast<int>(seg.params.convs.size()) - 1;
      } else if (n.kind == NodeKind::BnAct) {
        seg.params.bnacts.push_back(
            params.bnacts[static_cast<std::size_t>(n.param)]);
        n.param = static_cast<int>(seg.params.bnacts.size()) - 1;
      }
    }
    seg.pipeline.nodes.push_back(std::move(n));
  }
  seg.pipeline.num_conv_params = static_cast<int>(seg.params.convs.size());
  seg.pipeline.num_bnact_params = static_cast<int>(seg.params.bnacts.size());
  seg.pipeline.validate();
  return seg;
}

struct LinkedEngine::Impl {
  const Pipeline& pipeline;
  const NetworkParams& params;
  LinkedEngineOptions options;

  std::vector<int> original_cuts;  // physical links, fixed for the lifetime
  std::vector<int> current_cuts;   // possibly degraded
  std::vector<double> link_health;  // by physical link ordinal
  std::unique_ptr<FaultInjector> injector;
  std::vector<LinkFaultSite*> sites;  // by physical link ordinal

  struct Segment {
    PipelineSegment def;
    EngineOptions opts;
    std::unique_ptr<StreamEngine> engine;
  };
  std::vector<std::unique_ptr<Segment>> segs;

  std::mutex run_mu;          // serializes run()
  mutable std::mutex rt_mu;   // guards segs / current_cuts / live_links
  std::vector<MaxRingLink*> live_links;  // borrowed, for cancel()
  std::atomic<bool> abort{false};
  std::atomic<std::uint64_t> failovers_total{0};

  Impl(const Pipeline& p, const NetworkParams& prm, LinkedEngineOptions o)
      : pipeline(p), params(prm), options(std::move(o)) {}

  void event(const std::string& what) {
    if (options.on_event) options.on_event(what);
  }

  /// Frame sizing of the link after `after`: the planned burst of the
  /// crossing stream, the configured override, or a 256-value default.
  void link_frame(int after, std::size_t& frame_values, int& bits) const {
    const std::vector<CrossingStream> crossing =
        crossing_streams(pipeline, after, &options.partition.link_bursts);
    bits = crossing.empty() ? 32 : crossing[0].bits;
    frame_values = options.frame_values;
    if (frame_values == 0 && !crossing.empty() && crossing[0].burst > 0) {
      frame_values = crossing[0].burst;
    }
    if (frame_values == 0) frame_values = 256;
  }

  /// Tear down the current segments and build the chain for `cuts`.
  void rebuild(const std::vector<int>& cuts) {
    std::vector<std::unique_ptr<Segment>> next;
    int first = 0;
    const int n = pipeline.size();
    for (std::size_t s = 0; s <= cuts.size(); ++s) {
      const int last = s < cuts.size() ? cuts[s] : n - 1;
      auto seg = std::make_unique<Segment>();
      seg->def = extract_segment(pipeline, params, first, last);
      seg->opts = options.engine;
      // The compile-time plan's FIFO tables index the unsplit pipeline;
      // each segment engine re-derives its own FIFO sizing instead.
      seg->opts.plan = nullptr;
      seg->engine = std::make_unique<StreamEngine>(seg->def.pipeline,
                                                   seg->def.params, seg->opts);
      next.push_back(std::move(seg));
      first = last + 1;
    }
    const std::lock_guard<std::mutex> lock(rt_mu);
    segs = std::move(next);
    current_cuts = cuts;
  }

  /// D42x proof gate for a candidate (possibly degraded) cut list.
  [[nodiscard]] bool proved(const std::vector<int>& cuts,
                            const PartitionConfig& cfg) {
    Report report;
    check_link_plan(pipeline, cuts, cfg, options.target_fps,
                    options.retransmit_headroom, report);
    if (!report.ok()) {
      event("failover: candidate plan refused: " + report.summary());
    }
    return report.ok();
  }

  /// The failover ladder: derate the dead link, then try (1) an optimal
  /// repartition under the derated health, (2) the prefix of the current
  /// cuts that avoids the dead link, (3) the single-DFE plan.
  void failover(int dead) {
    PartitionConfig cfg = options.partition;
    if (cfg.link_health.size() < link_health.size()) {
      cfg.link_health.resize(link_health.size(), 1.0);
    }
    for (std::size_t k = 0; k < link_health.size(); ++k) {
      cfg.link_health[k] = std::min(cfg.link_health[k], link_health[k]);
    }
    std::vector<int> cuts;
    const PartitionResult res = partition_optimal(pipeline, cfg);
    if (res.feasible() && !res.cuts.empty()) {
      for (const CutInfo& c : res.cuts) cuts.push_back(c.after_node);
    }
    if (!cuts.empty() && proved(cuts, cfg)) {
      rebuild(cuts);
      event("failover: repartitioned to " + std::to_string(cuts.size() + 1) +
            " segment(s)");
      return;
    }
    cuts.assign(current_cuts.begin(),
                current_cuts.begin() +
                    std::min<std::size_t>(static_cast<std::size_t>(dead),
                                          current_cuts.size()));
    if (!cuts.empty() && proved(cuts, cfg)) {
      rebuild(cuts);
      event("failover: degraded to the healthy prefix (" +
            std::to_string(cuts.size() + 1) + " segment(s))");
      return;
    }
    rebuild({});
    event("failover: single-DFE fallback plan armed");
  }

  /// One execution attempt over the not-yet-done images. Returns the
  /// physical ordinal of the link that died (failover required) and sets
  /// `dead_reason` to the trigger its watchdog reported, or returns -1
  /// when every pending image completed. Throws on cancellation and on
  /// non-link errors.
  int run_attempt(const std::vector<std::size_t>& pending,
                  std::span<const IntTensor> images,
                  std::vector<IntTensor>& outputs, std::vector<char>& done,
                  StreamEngine::RunStats& agg, std::uint64_t& frames,
                  std::uint64_t& retrans, std::string& dead_reason) {
    std::vector<StreamEngine*> engines;
    std::vector<Impl::Segment*> seg_ptrs;
    std::vector<std::unique_ptr<MaxRingLink>> links;
    std::vector<std::size_t> frame_values;
    {
      const std::lock_guard<std::mutex> lock(rt_mu);
      for (auto& s : segs) {
        engines.push_back(s->engine.get());
        seg_ptrs.push_back(s.get());
      }
      for (std::size_t k = 0; k + 1 < segs.size(); ++k) {
        std::size_t fv = 0;
        int bits = 32;
        link_frame(current_cuts[k], fv, bits);
        LinkConfig lc;
        lc.name = "link" + std::to_string(k);
        lc.bits = bits;
        lc.link_bits_per_cycle = options.partition.link_bits_per_cycle;
        lc.clock_hz = options.partition.clock_hz;
        lc.pace = options.pace_links;
        lc.ack_timeout_us = options.ack_timeout_us;
        lc.max_retransmits = options.max_retransmits;
        lc.retransmit_backoff_us = options.retransmit_backoff_us;
        lc.backoff_seed = options.link_seed + k * 0x9e3779b97f4a7c15ULL;
        auto link = std::make_unique<MaxRingLink>(lc);
        if (k < sites.size()) link->set_fault(sites[k]);
        links.push_back(std::move(link));
        frame_values.push_back(fv);
      }
      live_links.clear();
      for (auto& l : links) live_links.push_back(l.get());
    }
    const std::size_t S = engines.size();
    if (S == 1) {
      for (const std::size_t idx : pending) {
        if (abort.load(std::memory_order_relaxed)) {
          throw Error("LinkedEngine: run cancelled");
        }
        StreamEngine::RunStats st;
        std::vector<IntTensor> out =
            engines[0]->run(std::span<const IntTensor>(&images[idx], 1), &st);
        accumulate(agg, st);
        outputs[idx] = std::move(out[0]);
        done[idx] = 1;
      }
      return -1;
    }

    std::vector<std::exception_ptr> errors(S);
    std::atomic<int> first_error{-1};
    std::atomic<bool> attempt_abort{false};
    std::mutex agg_mu;
    const auto fail_fast = [&](int s) {
      int expected = -1;
      first_error.compare_exchange_strong(expected, s);
      attempt_abort.store(true, std::memory_order_relaxed);
      for (StreamEngine* e : engines) e->cancel();
      for (auto& l : links) l->abort();
    };
    std::vector<std::thread> threads;
    threads.reserve(S);
    for (std::size_t s = 0; s < S; ++s) {
      threads.emplace_back([&, s] {
        StreamEngine::RunStats local;
        try {
          for (const std::size_t idx : pending) {
            if (attempt_abort.load(std::memory_order_relaxed) ||
                abort.load(std::memory_order_relaxed)) {
              break;
            }
            IntTensor in = s == 0 ? images[idx]
                                  : recv_tensor(*links[s - 1],
                                                seg_ptrs[s]->def.pipeline.input);
            StreamEngine::RunStats st;
            std::vector<IntTensor> out = engines[s]->run(
                std::span<const IntTensor>(&in, 1), &st);
            accumulate(local, st);
            if (s + 1 == S) {
              outputs[idx] = std::move(out[0]);
              done[idx] = 1;
            } else {
              send_tensor(*links[s], out[0], frame_values[s]);
            }
          }
        } catch (...) {
          errors[s] = std::current_exception();
          fail_fast(static_cast<int>(s));
        }
        const std::lock_guard<std::mutex> lock(agg_mu);
        accumulate(agg, local);
      });
    }
    for (std::thread& t : threads) t.join();

    int dead = -1;
    for (std::size_t k = 0; k < links.size(); ++k) {
      const LinkStats st = links[k]->stats();
      frames += st.frames_delivered;
      retrans += st.retransmits;
      if (dead < 0 && st.dead) {
        dead = static_cast<int>(k);
        dead_reason = links[k]->dead_reason();
      }
    }
    {
      const std::lock_guard<std::mutex> lock(rt_mu);
      live_links.clear();
    }
    if (abort.load(std::memory_order_relaxed)) {
      throw Error("LinkedEngine: run cancelled");
    }
    if (dead >= 0) return dead;
    const int first = first_error.load();
    if (first >= 0 && errors[static_cast<std::size_t>(first)]) {
      std::rethrow_exception(errors[static_cast<std::size_t>(first)]);
    }
    return -1;
  }
};

LinkedEngine::LinkedEngine(const Pipeline& pipeline,
                           const NetworkParams& params,
                           LinkedEngineOptions options)
    : impl_(std::make_unique<Impl>(pipeline, params, std::move(options))) {
  Impl& im = *impl_;
  std::vector<int> cuts = im.options.cut_after_nodes;
  if (cuts.empty() && im.options.engine.plan != nullptr &&
      !im.options.engine.plan->cut_after_nodes.empty()) {
    cuts = im.options.engine.plan->cut_after_nodes;
  }
  if (cuts.empty()) {
    const PartitionResult res = partition_optimal(pipeline, im.options.partition);
    if (res.feasible()) {
      for (const CutInfo& c : res.cuts) cuts.push_back(c.after_node);
    }
  }
  // Prove the plan before arming it (D420 dead links, D421 retransmit
  // headroom, D422 chain-only cuts).
  Report report;
  check_link_plan(pipeline, cuts, im.options.partition, im.options.target_fps,
                  im.options.retransmit_headroom, report);
  enforce(report, "LinkedEngine(" + pipeline.name + ")");
  im.original_cuts = cuts;
  im.link_health.assign(cuts.size(), 1.0);
  if (!im.options.engine.faults.empty()) {
    im.injector = std::make_unique<FaultInjector>(
        im.options.engine.faults, im.options.engine.fault_replica);
    for (std::size_t k = 0; k < cuts.size(); ++k) {
      im.sites.push_back(
          im.injector->register_link("link" + std::to_string(k)));
    }
  }
  im.rebuild(cuts);
}

LinkedEngine::~LinkedEngine() = default;

std::vector<IntTensor> LinkedEngine::run(std::span<const IntTensor> images,
                                         StreamEngine::RunStats* stats) {
  Impl& im = *impl_;
  const std::lock_guard<std::mutex> run_lock(im.run_mu);
  im.abort.store(false, std::memory_order_relaxed);
  const auto t0 = Clock::now();
  std::uint64_t link_faults_before = 0;
  if (im.injector) {
    link_faults_before = im.injector->fired();
    im.injector->begin_run();
    if (im.injector->crash_now()) {
      throw Error("injected fault: linked replica crash (run " +
                  std::to_string(im.injector->runs_begun() - 1) + ")");
    }
  }
  const std::size_t n = images.size();
  std::vector<IntTensor> outputs(n);
  std::vector<char> done(n, 0);
  StreamEngine::RunStats agg;
  std::uint64_t frames = 0;
  std::uint64_t retrans = 0;
  std::uint64_t failovers_this_run = 0;
  for (;;) {
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i) {
      if (done[i] == 0) pending.push_back(i);
    }
    if (pending.empty()) break;
    std::string why;
    const int dead = im.run_attempt(pending, images, outputs, done, agg,
                                    frames, retrans, why);
    if (dead < 0) continue;  // attempt completed; loop exits via pending
    // Permanent link death: derate, recompile a degraded plan, and replay
    // the images this attempt did not finish — zero lost work.
    im.link_health[static_cast<std::size_t>(dead)] = 0.0;
    ++failovers_this_run;
    im.failovers_total.fetch_add(1, std::memory_order_relaxed);
    im.event("link" + std::to_string(dead) + " escalated to dead (" + why +
             "); failing over");
    im.failover(dead);
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - t0).count();
  if (stats != nullptr) {
    *stats = agg;
    stats->wall_seconds = wall;
    stats->images_per_second =
        wall > 0.0 ? static_cast<double>(n) / wall : 0.0;
    stats->link_frames = frames;
    stats->link_retransmits = retrans;
    stats->link_failovers = failovers_this_run;
    stats->links = static_cast<int>(im.original_cuts.size());
    const std::size_t shown =
        std::min<std::size_t>(im.link_health.size(), stats->link_health.size());
    for (std::size_t k = 0; k < shown; ++k) {
      stats->link_health[k] = im.link_health[k];
    }
    if (im.injector) {
      stats->faults_injected += im.injector->fired() - link_faults_before;
    }
  }
  return outputs;
}

IntTensor LinkedEngine::run_one(const IntTensor& image) {
  std::vector<IntTensor> out =
      run(std::span<const IntTensor>(&image, 1), nullptr);
  return std::move(out[0]);
}

void LinkedEngine::cancel() {
  Impl& im = *impl_;
  im.abort.store(true, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(im.rt_mu);
  for (auto& s : im.segs) s->engine->cancel();
  for (MaxRingLink* l : im.live_links) l->abort();
}

int LinkedEngine::segments() const {
  const std::lock_guard<std::mutex> lock(impl_->rt_mu);
  return static_cast<int>(impl_->segs.size());
}

int LinkedEngine::links() const {
  return static_cast<int>(impl_->original_cuts.size());
}

const std::vector<int>& LinkedEngine::cut_after_nodes() const {
  return impl_->current_cuts;
}

bool LinkedEngine::link_healthy(int link) const {
  const std::lock_guard<std::mutex> lock(impl_->rt_mu);
  return link >= 0 &&
         static_cast<std::size_t>(link) < impl_->link_health.size() &&
         impl_->link_health[static_cast<std::size_t>(link)] > 0.0;
}

std::uint64_t LinkedEngine::plan_failovers() const {
  return impl_->failovers_total.load(std::memory_order_relaxed);
}

}  // namespace qnn
