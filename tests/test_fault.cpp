// Deterministic fault injection (fault/) and the serving stack's healing
// response (serve/): every failure mode the paper's platform meets as a
// flaky outage — wedged FIFO, crashed board, corrupted MaxRing — becomes
// a seeded, replayable test here.
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "dataflow/engine.h"
#include "dataflow/link.h"
#include "dataflow/linked_engine.h"
#include "fault/apply.h"
#include "models/zoo.h"
#include "nn/reference.h"
#include "partition/partitioner.h"
#include "serve/server.h"
#include "sim/cycle_model.h"
#include "test_util.h"
#include "verify/graph_check.h"

namespace qnn {
namespace {

struct TinyNet {
  NetworkSpec spec = models::tiny(12, 4, 2);
  Pipeline pipeline = expand(spec);
  NetworkParams params = NetworkParams::random(pipeline, 60);
  SessionConfig session_config;

  [[nodiscard]] std::string output_stream() const {
    return pipeline.node(pipeline.size() - 1).name + "->output";
  }
  [[nodiscard]] std::vector<IntTensor> batch(int n, std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<IntTensor> images;
    images.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      images.push_back(testutil::random_image(12, 12, 3, rng));
    }
    return images;
  }
  [[nodiscard]] ReferenceExecutor reference() const {
    return ReferenceExecutor(pipeline, params);
  }
};

// ---- the fault plan itself ------------------------------------------------

TEST(Fault, ChaosPlansAreSeedDeterministic) {
  FaultPlan::ChaosOptions opts;
  opts.replicas = 4;
  opts.runs = 32;
  opts.events = 12;
  const FaultPlan a = FaultPlan::chaos(7, opts);
  const FaultPlan b = FaultPlan::chaos(7, opts);
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_EQ(a.events.size(), 12u);
  bool any_difference_from_reseed = false;
  const FaultPlan c = FaultPlan::chaos(8, opts);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << i;
    EXPECT_EQ(a.events[i].target_index, b.events[i].target_index) << i;
    EXPECT_EQ(a.events[i].replica, b.events[i].replica) << i;
    EXPECT_EQ(a.events[i].first_run, b.events[i].first_run) << i;
    EXPECT_EQ(a.events[i].after_steps, b.events[i].after_steps) << i;
    EXPECT_EQ(a.events[i].after_values, b.events[i].after_values) << i;
    if (a.events[i].kind != c.events[i].kind ||
        a.events[i].target_index != c.events[i].target_index ||
        a.events[i].first_run != c.events[i].first_run) {
      any_difference_from_reseed = true;
    }
    // Default chaos draws only *detectable* kinds, so soak tests can
    // assert bit-exactness of every run that completed.
    EXPECT_NE(a.events[i].kind, FaultKind::kStreamBitFlip) << i;
  }
  EXPECT_TRUE(any_difference_from_reseed);
}

TEST(Fault, EventRunWindowAndReplicaFilter) {
  FaultEvent e = FaultPlan::replica_crash(2, 3, 5);
  EXPECT_TRUE(e.matches(2, 3));
  EXPECT_TRUE(e.matches(2, 5));
  EXPECT_FALSE(e.matches(2, 6));
  EXPECT_FALSE(e.matches(1, 4));
  e.replica = -1;  // wildcard matches every replica
  EXPECT_TRUE(e.matches(7, 4));
}

// ---- engine-level injection ----------------------------------------------

TEST(Fault, StreamBitFlipCorruptsExactlyOneRunDeterministically) {
  const TinyNet net;
  const ReferenceExecutor ref = net.reference();
  const std::vector<IntTensor> batch = net.batch(3, 70);

  EngineOptions opt;
  opt.faults.add(FaultPlan::bit_flip(net.output_stream(), /*run=*/0,
                                     /*value_index=*/5, /*mask=*/1));
  StreamEngine engine(net.pipeline, net.params, opt);
  StreamEngine::RunStats stats;
  const std::vector<IntTensor> faulted = engine.run(batch, &stats);
  EXPECT_EQ(stats.faults_injected, 1u);

  // Silent corruption: the run completes but the logits differ from the
  // golden reference in exactly the flipped value.
  int mismatched_values = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const IntTensor golden = ref.run(batch[i]);
    for (std::int64_t v = 0; v < golden.size(); ++v) {
      mismatched_values += faulted[i][v] != golden[v];
    }
  }
  EXPECT_EQ(mismatched_values, 1);

  // Same plan, fresh engine: the identical corrupted output (determinism).
  StreamEngine replay(net.pipeline, net.params, opt);
  EXPECT_EQ(replay.run(batch), faulted);

  // Run 1 is outside the event window: the engine heals to bit-exact.
  const std::vector<IntTensor> clean = engine.run(batch, &stats);
  EXPECT_EQ(stats.faults_injected, 0u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(clean[i], ref.run(batch[i])) << i;
  }
}

TEST(Fault, StreamStallDelaysButDoesNotCorrupt) {
  const TinyNet net;
  const ReferenceExecutor ref = net.reference();
  const std::vector<IntTensor> batch = net.batch(2, 71);
  EngineOptions opt;
  opt.faults.add(FaultPlan::stall(net.output_stream(), /*run=*/0,
                                  /*value_index=*/2, /*attempts=*/300));
  StreamEngine engine(net.pipeline, net.params, opt);
  StreamEngine::RunStats stats;
  const std::vector<IntTensor> outs = engine.run(batch, &stats);
  EXPECT_EQ(stats.faults_injected, 1u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(outs[i], ref.run(batch[i])) << i;  // backpressure only
  }
}

TEST(Fault, KernelExceptionAbortsRunAndEngineStaysReusable) {
  const TinyNet net;
  const ReferenceExecutor ref = net.reference();
  const std::vector<IntTensor> batch = net.batch(2, 72);
  EngineOptions opt;
  FaultEvent e = FaultPlan::kernel_throw("", /*run=*/0, /*step=*/0);
  e.target_index = 0;  // first registered kernel, whatever its name
  opt.faults.add(e);
  StreamEngine engine(net.pipeline, net.params, opt);
  try {
    (void)engine.run(batch);
    FAIL() << "run with an armed kernel exception must throw";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("injected"), std::string::npos)
        << err.what();
  }
  // The fault window has passed: the same engine heals completely.
  const std::vector<IntTensor> clean = engine.run(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(clean[i], ref.run(batch[i])) << i;
  }
}

TEST(Fault, KernelHangIsUnwedgedByCancel) {
  const TinyNet net;
  const ReferenceExecutor ref = net.reference();
  const std::vector<IntTensor> batch = net.batch(2, 73);
  EngineOptions opt;
  FaultEvent e = FaultPlan::kernel_hang("", /*run=*/0, /*step=*/0);
  e.target_index = 0;
  opt.faults.add(e);
  StreamEngine engine(net.pipeline, net.params, opt);
  std::thread watchdog([&engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    engine.cancel();
  });
  EXPECT_THROW((void)engine.run(batch), Error);
  watchdog.join();
  const std::vector<IntTensor> clean = engine.run(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(clean[i], ref.run(batch[i])) << i;
  }
}

TEST(Fault, ReplicaCrashTargetsOnlyItsReplicaIdentity) {
  const TinyNet net;
  const std::vector<IntTensor> batch = net.batch(1, 74);
  FaultPlan plan;
  plan.add(FaultPlan::replica_crash(/*replica=*/1, /*first_run=*/0,
                                    /*last_run=*/1));
  EngineOptions healthy;
  healthy.faults = plan;
  healthy.fault_replica = 0;
  StreamEngine engine0(net.pipeline, net.params, healthy);
  EXPECT_NO_THROW((void)engine0.run(batch));

  EngineOptions doomed = healthy;
  doomed.fault_replica = 1;
  StreamEngine engine1(net.pipeline, net.params, doomed);
  EXPECT_THROW((void)engine1.run(batch), Error);  // run 0
  EXPECT_THROW((void)engine1.run(batch), Error);  // run 1
  EXPECT_NO_THROW((void)engine1.run(batch));      // past the window
}

// ---- timing-model link faults --------------------------------------------

TEST(Fault, SimLinkOutageStallsThePartitionedPipeline) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  SimConfig base;
  base.cut_after_nodes = {1};
  const SimResult healthy = simulate(p, base, 2);

  SimConfig faulty = base;
  FaultPlan plan;
  plan.add(FaultPlan::link_drop(/*link=*/0, /*down_from_cycle=*/100,
                                /*down_cycles=*/5000));
  apply_link_faults(plan, faulty, /*seed=*/7);
  ASSERT_EQ(faulty.link_faults.size(), 1u);
  const SimResult r = simulate(p, faulty, 2);
  EXPECT_GT(r.total_cycles, healthy.total_cycles)
      << "a 5000-cycle MaxRing outage cannot be free";
}

TEST(Fault, SimLinkCorruptionRetransmitsDeterministically) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  SimConfig cfg;
  cfg.cut_after_nodes = {1};
  FaultPlan plan;
  plan.add(FaultPlan::link_corrupt(/*link=*/0, /*per_million=*/200'000));
  apply_link_faults(plan, cfg, /*seed=*/42);
  const SimResult r1 = simulate(p, cfg, 2);
  const SimResult r2 = simulate(p, cfg, 2);
  std::uint64_t retransmits = 0;
  for (const KernelStats& k : r1.kernels) retransmits += k.retransmits;
  EXPECT_GT(retransmits, 0u);
  EXPECT_EQ(r1.total_cycles, r2.total_cycles);  // seeded replay
  std::uint64_t retransmits2 = 0;
  for (const KernelStats& k : r2.kernels) retransmits2 += k.retransmits;
  EXPECT_EQ(retransmits, retransmits2);
}

TEST(Fault, SimLinkCorruptionDrawIsOncePerFrame) {
  // VGG-32 cut after its first bnact: one-pixel frames over a 1-clock
  // link, 2048 frames for two images. The downstream convs are slower
  // than the link, so a 4-deep far FIFO keeps filling and frames wait for
  // room. Waiting must not draw the corruption fault again: the retransmit
  // count cannot depend on the FIFO depth.
  const Pipeline p = expand(models::vgg_like(32, 10, 2));
  FaultPlan plan;
  plan.add(FaultPlan::link_corrupt(/*link=*/0, /*per_million=*/200'000));
  std::vector<std::uint64_t> retransmits;
  std::uint64_t shallow_stalls = 0;
  for (const std::size_t depth : {512, 64, 4}) {
    SimConfig cfg;
    cfg.cut_after_nodes = {1};
    cfg.fifo_depth = depth;
    apply_link_faults(plan, cfg, /*seed=*/42);
    const SimResult r = simulate(p, cfg, 2);
    std::uint64_t count = 0;
    std::uint64_t frames = 0;
    for (const KernelStats& k : r.kernels) {
      count += k.retransmits;
      if (k.name.rfind("link_", 0) == 0) {
        frames += k.outputs;
        shallow_stalls = k.stall_out;
      }
    }
    EXPECT_EQ(frames, 2048u) << "depth " << depth;
    retransmits.push_back(count);
  }
  EXPECT_GT(shallow_stalls, 1000u) << "the 4-deep far FIFO must fill";
  EXPECT_GT(retransmits[0], 0u);
  EXPECT_EQ(retransmits[1], retransmits[0]) << "depth 64 vs 512";
  EXPECT_EQ(retransmits[2], retransmits[0]) << "depth 4 vs 512";
}

TEST(Fault, ApplyDeratesPartitionLinkCapacity) {
  FaultPlan plan;
  plan.add(FaultPlan::link_drop(/*link=*/1, /*down_from_cycle=*/0,
                                /*down_cycles=*/10));
  plan.add(FaultPlan::link_corrupt(/*link=*/0, /*per_million=*/100'000));
  PartitionConfig cfg;
  apply_link_faults(plan, cfg);
  EXPECT_EQ(cfg.link_capacity_mbps(1), 0.0);  // dead link
  // A 10% corruption rate re-serializes 10% of traffic: 1/1.1 capacity.
  EXPECT_NEAR(cfg.link_capacity_mbps(0), 4000.0 / 1.1, 1.0);
  EXPECT_EQ(cfg.link_capacity_mbps(5), 4000.0);  // untouched links
}

TEST(Fault, DeadLinkMakesThePartitionInfeasible) {
  const Pipeline p = expand(models::resnet18(224, 1000, 2));
  const PartitionResult healthy = partition_optimal(p);
  ASSERT_GT(healthy.num_dfes(), 1);
  PartitionConfig cfg;
  cfg.link_health = {0.0};  // first MaxRing hop is down
  const PartitionResult r = partition_optimal(p, cfg);
  EXPECT_FALSE(r.feasible());
  EXPECT_TRUE(std::isinf(r.link_slowdown));
}

// ---- live link fault kinds ------------------------------------------------

TEST(FaultLink, ChaosEmitsLinkKindsOnlyWhenAsked) {
  // The default draw must stay byte-identical to what existing soaks
  // replay: no link kinds unless include_link_faults is set.
  const FaultPlan plain = FaultPlan::chaos(404);
  for (const FaultEvent& e : plain.events) {
    EXPECT_NE(e.kind, FaultKind::kLinkOutage);
    EXPECT_NE(e.kind, FaultKind::kLinkFrameCorrupt);
    EXPECT_NE(e.kind, FaultKind::kLinkDeath);
  }

  FaultPlan::ChaosOptions opts;
  opts.events = 24;
  opts.include_link_faults = true;
  opts.links = 3;
  const FaultPlan linky = FaultPlan::chaos(404, opts);
  int link_events = 0;
  for (const FaultEvent& e : linky.events) {
    if (e.kind == FaultKind::kLinkOutage ||
        e.kind == FaultKind::kLinkFrameCorrupt ||
        e.kind == FaultKind::kLinkDeath) {
      ++link_events;
      EXPECT_GE(e.link, 0);
      EXPECT_LT(e.link, opts.links);
    }
  }
  EXPECT_GT(link_events, 0) << "24 draws over 7 kinds must hit a link kind";

  // Seeded replay: the linky plan is reproduced event for event.
  const FaultPlan again = FaultPlan::chaos(404, opts);
  ASSERT_EQ(linky.events.size(), again.events.size());
  for (std::size_t i = 0; i < linky.events.size(); ++i) {
    EXPECT_EQ(linky.events[i].kind, again.events[i].kind);
    EXPECT_EQ(linky.events[i].link, again.events[i].link);
    EXPECT_EQ(linky.events[i].first_run, again.events[i].first_run);
    EXPECT_EQ(linky.events[i].after_values, again.events[i].after_values);
    EXPECT_EQ(linky.events[i].outage_us, again.events[i].outage_us);
  }
}

TEST(FaultLink, ApplyDeratesPartitionForLiveLinkKinds) {
  FaultPlan plan;
  plan.add(FaultPlan::link_death(/*link=*/1, /*run=*/0, /*after_frames=*/8));
  plan.add(FaultPlan::link_frame_corrupt(/*link=*/0, /*per_million=*/100'000));
  plan.add(FaultPlan::link_outage(/*link=*/2, /*run=*/0, /*after_frames=*/0,
                                  /*outage_us=*/2'000));
  PartitionConfig cfg;
  apply_link_faults(plan, cfg);
  EXPECT_EQ(cfg.link_capacity_mbps(1), 0.0);  // death: planner sees it gone
  EXPECT_NEAR(cfg.link_capacity_mbps(0), 4000.0 / 1.1, 1.0);
  EXPECT_EQ(cfg.link_capacity_mbps(2), 0.0);  // outage derates like a drop
  EXPECT_EQ(cfg.link_capacity_mbps(5), 4000.0);
}

TEST(FaultLink, DeadLinkFlipsCheckPartitionInfeasible) {
  const Pipeline p = expand(models::resnet18(224, 1000, 2));
  const PartitionConfig healthy_cfg;
  const PartitionResult placement = partition_optimal(p, healthy_cfg);
  ASSERT_TRUE(placement.feasible());
  ASSERT_GT(placement.num_dfes(), 1);
  Report before;
  check_partition(p, placement, healthy_cfg, before);
  EXPECT_TRUE(before.ok()) << before.str();

  // Kill the first MaxRing hop: the same placement must now fail the
  // wire-rate proof with the exact oversubscription code.
  PartitionConfig derated = healthy_cfg;
  FaultPlan plan;
  plan.add(FaultPlan::link_death(/*link=*/0, /*run=*/0, /*after_frames=*/0));
  apply_link_faults(plan, derated);
  Report after;
  check_partition(p, placement, derated, after);
  EXPECT_FALSE(after.ok());
  EXPECT_TRUE(after.has(diag::kLinkOversubscribed)) << after.str();
}

TEST(FaultLink, LinkCapacityClampsOutOfRangeHealth) {
  PartitionConfig cfg;
  cfg.link_health = {-0.5, 1.7};
  EXPECT_EQ(cfg.link_capacity_mbps(0), 0.0);      // clamped up from negative
  EXPECT_EQ(cfg.link_capacity_mbps(1), 4000.0);   // clamped down to 1.0
  EXPECT_EQ(cfg.link_capacity_mbps(2), 4000.0);   // beyond the vector = 1.0
}

// ---- MaxRing link transport ------------------------------------------------

namespace {

/// Drive `frames` payload frames (plus close) through `link` from a sender
/// thread while the caller receives; returns the received payloads.
std::vector<std::vector<std::int32_t>> pump_link(MaxRingLink& link,
                                                 int frames) {
  std::thread sender([&] {
    try {
      for (int i = 0; i < frames; ++i) {
        std::vector<std::int32_t> payload(16, i + 1);
        payload[0] = i;  // distinguishable first word
        link.send(payload);
      }
      link.close();
    } catch (const LinkDeadError&) {
      // The receiver-side assertions decide whether death was expected.
    }
  });
  std::vector<std::vector<std::int32_t>> got;
  try {
    std::vector<std::int32_t> frame;
    while (link.recv(frame)) got.push_back(frame);
  } catch (const LinkDeadError&) {
  }
  sender.join();
  return got;
}

}  // namespace

TEST(FaultLink, MaxRingDeliversInOrderWithoutRetransmits) {
  LinkConfig cfg;
  cfg.pace = false;
  MaxRingLink link(cfg);
  const auto got = pump_link(link, 12);
  ASSERT_EQ(got.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)][0], i);
  }
  const LinkStats s = link.stats();
  EXPECT_EQ(s.frames_sent, 13u);  // 12 payloads + close
  EXPECT_EQ(s.frames_delivered, 13u);
  EXPECT_EQ(s.retransmits, 0u);
  EXPECT_FALSE(s.dead);
}

TEST(FaultLink, MaxRingHealsSeededCorruptionBitExact) {
  LinkConfig cfg;
  cfg.pace = false;
  MaxRingLink link(cfg);
  LinkFaultSite site;
  site.corrupt_per_million = 300'000;  // ~30% of transmissions arrive broken
  site.rng = Rng(99);
  site.armed = true;
  link.set_fault(&site);
  const auto got = pump_link(link, 24);
  ASSERT_EQ(got.size(), 24u);
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)][0], i) << "payload healed";
    EXPECT_EQ(got[static_cast<std::size_t>(i)][8], i + 1);
  }
  const LinkStats s = link.stats();
  EXPECT_GT(s.checksum_drops, 0u) << "the corruption rate must have fired";
  EXPECT_GT(s.retransmits, 0u);
  EXPECT_FALSE(s.dead);
}

TEST(FaultLink, MaxRingRidesOutATransientOutage) {
  LinkConfig cfg;
  cfg.pace = false;
  cfg.ack_timeout_us = 2'000;
  cfg.retransmit_backoff_us = 500;
  MaxRingLink link(cfg);
  LinkFaultSite site;
  site.outage_from = 3;      // wire goes dark at the 4th transmission...
  site.outage_us = 4'000;    // ...for 4ms — inside the retransmit budget
  site.armed = true;
  link.set_fault(&site);
  const auto got = pump_link(link, 8);
  ASSERT_EQ(got.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)][0], i);
  }
  const LinkStats s = link.stats();
  EXPECT_GT(s.outage_drops, 0u);
  EXPECT_GT(s.retransmits, 0u);
  EXPECT_FALSE(s.dead) << "a transient outage must not escalate";
}

TEST(FaultLink, MaxRingEscalatesPermanentDeathOnBothSides) {
  LinkConfig cfg;
  cfg.pace = false;
  cfg.ack_timeout_us = 1'000;
  cfg.max_retransmits = 2;
  cfg.retransmit_backoff_us = 100;
  cfg.recv_patience_us = 200'000;
  MaxRingLink link(cfg);
  LinkFaultSite site;
  site.death_from = 4;  // the 5th transmission and everything after is lost
  site.armed = true;
  link.set_fault(&site);
  const auto got = pump_link(link, 10);
  EXPECT_EQ(got.size(), 4u) << "frames before the death still delivered";
  const LinkStats s = link.stats();
  EXPECT_TRUE(s.dead);
  EXPECT_TRUE(link.dead());
  EXPECT_GE(s.retransmits, 2u) << "the full budget is spent before escalating";
}

TEST(FaultLink, LinkedEngineHealsSeededLinkChaosMidRunBitExact) {
  // The partitioned soak in miniature: a two-segment chain whose only
  // MaxRing link suffers a seeded outage window AND a seeded corruption
  // rate mid-run. Every output must stay bit-exact against the scalar
  // reference with no failover — transient faults heal inside the link.
  const TinyNet net;
  LinkedEngineOptions opts;
  opts.cut_after_nodes = {1};
  opts.ack_timeout_us = 10'000;
  opts.retransmit_backoff_us = 300;
  opts.engine.faults.add(FaultPlan::link_outage(
      /*link=*/0, /*run=*/1, /*after_frames=*/4, /*outage_us=*/3'000));
  opts.engine.faults.add(
      FaultPlan::link_frame_corrupt(/*link=*/0, /*per_million=*/150'000));
  LinkedEngine engine(net.pipeline, net.params, opts);
  ASSERT_EQ(engine.links(), 1);

  const ReferenceExecutor ref = net.reference();
  const std::vector<IntTensor> images = net.batch(4, 17);
  StreamEngine::RunStats total{};
  for (int run = 0; run < 3; ++run) {
    StreamEngine::RunStats stats;
    const std::vector<IntTensor> out =
        engine.run(std::span<const IntTensor>(images), &stats);
    ASSERT_EQ(out.size(), images.size());
    for (std::size_t i = 0; i < images.size(); ++i) {
      EXPECT_EQ(out[i], ref.run(images[i])) << "run " << run << " image " << i;
    }
    total.link_frames += stats.link_frames;
    total.link_retransmits += stats.link_retransmits;
    total.link_failovers += stats.link_failovers;
  }
  EXPECT_GT(total.link_frames, 0u);
  EXPECT_GT(total.link_retransmits, 0u)
      << "the corruption rate and outage must exercise the retransmit path";
  EXPECT_EQ(total.link_failovers, 0u);
  EXPECT_TRUE(engine.link_healthy(0));
}

TEST(FaultLink, UpstreamStallPastAckTimeoutDoesNotFailOver) {
  // A slow upstream segment is not a broken wire. Stall segment 0's
  // output stream (the one feeding the MaxRing link) for far longer than
  // the ack timeout but well inside the receiver's patience: acks are
  // taken at arrival, so no watchdog may fire, no failover may happen, and
  // every output stays bit-exact.
  const TinyNet net;
  const std::string upstream_out = net.pipeline.node(1).name + "->output";
  LinkedEngineOptions opts;
  opts.cut_after_nodes = {1};
  opts.ack_timeout_us = 1'000;
  opts.engine.faults.add(FaultPlan::stall(upstream_out, /*run=*/0,
                                          /*value_index=*/2,
                                          /*attempts=*/100));
  std::vector<std::string> timeline;
  opts.on_event = [&timeline](const std::string& what) {
    timeline.push_back(what);
  };
  LinkedEngine engine(net.pipeline, net.params, opts);
  ASSERT_EQ(engine.links(), 1);

  const ReferenceExecutor ref = net.reference();
  const std::vector<IntTensor> images = net.batch(3, 23);
  const auto t0 = std::chrono::steady_clock::now();
  StreamEngine::RunStats stats;
  const std::vector<IntTensor> out =
      engine.run(std::span<const IntTensor>(images), &stats);
  const auto stalled_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(stats.faults_injected, 1u) << "the stall must have fired";
  EXPECT_GT(stalled_us, 10 * opts.ack_timeout_us)
      << "the stall must outlast the ack timeout many times over";
  EXPECT_LT(stalled_us, LinkConfig{}.recv_patience_us)
      << "the stall must stay inside the receiver's patience";
  ASSERT_EQ(out.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_EQ(out[i], ref.run(images[i])) << "image " << i;
  }
  EXPECT_EQ(stats.link_failovers, 0u);
  EXPECT_EQ(stats.link_retransmits, 0u);
  EXPECT_EQ(engine.plan_failovers(), 0u);
  EXPECT_TRUE(engine.link_healthy(0));
  EXPECT_TRUE(timeline.empty()) << timeline.front();
}

// ---- serving-layer healing -----------------------------------------------

TEST(FaultServe, BatchIsolationSavesTheInnocentRequests) {
  const TinyNet net;
  SessionConfig sc = net.session_config;
  FaultEvent e = FaultPlan::kernel_throw("", /*run=*/0, /*step=*/0);
  e.target_index = 0;
  sc.engine.faults.add(e);
  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 4;
  cfg.batch_timeout_us = 100'000;  // generous: the burst must coalesce
  DfeServer server(net.spec, net.params, cfg, sc);
  const ReferenceExecutor ref = net.reference();
  const std::vector<IntTensor> images = net.batch(4, 80);
  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(images.size());
  for (const IntTensor& img : images) {
    futures.push_back(server.submit_async(img));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const InferenceResult res = futures[i].get();
    ASSERT_EQ(res.status, ServerStatus::kOk) << to_string(res.status);
    EXPECT_EQ(res.logits, ref.run(images[i])) << i;
  }
  const MetricsSnapshot s = server.metrics().snapshot();
  EXPECT_EQ(s.errors, 0u);
  EXPECT_EQ(s.isolation_reruns, 4u);  // whole batch re-ran solo
  EXPECT_EQ(s.retries, 0u);           // isolation, not requeue, healed it
}

TEST(FaultServe, WatchdogBudgetCancelsHungReplicaAndRetriesElsewhere) {
  const TinyNet net;
  SessionConfig sc = net.session_config;
  FaultEvent hang = FaultPlan::kernel_hang("", /*run=*/0, /*step=*/0);
  hang.target_index = 0;
  hang.replica = 0;
  hang.last_run = 1'000'000;  // replica 0 is permanently wedged
  sc.engine.faults.add(hang);
  ServerConfig cfg;
  cfg.replicas = 2;
  cfg.max_batch = 2;
  cfg.batch_timeout_us = 200;
  cfg.run_budget_us = 60'000;
  cfg.watchdog_period_us = 1'000;
  // Replica 1 drains the queue while replica 0 sits in its first 60 ms
  // budget window, so a wedged replica gets exactly one observable
  // failure here — quarantine on it.
  cfg.quarantine_after = 1;
  cfg.retry_backoff_us = 100;
  DfeServer server(net.spec, net.params, cfg, sc);
  const ReferenceExecutor ref = net.reference();
  const std::vector<IntTensor> images = net.batch(8, 81);
  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(images.size());
  for (const IntTensor& img : images) {
    futures.push_back(server.submit_async(img));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const InferenceResult res = futures[i].get();
    ASSERT_EQ(res.status, ServerStatus::kOk) << to_string(res.status);
    EXPECT_EQ(res.logits, ref.run(images[i])) << i;
    EXPECT_EQ(res.replica, 1) << "only replica 1 can complete a run";
  }
  server.stop();
  const MetricsSnapshot s = server.metrics().snapshot();
  EXPECT_GE(s.watchdog_budget_cancels, 1u);
  EXPECT_GE(s.retries, 1u);
  EXPECT_GE(s.quarantines, 1u);
  EXPECT_EQ(server.replica_health(0), ReplicaHealth::kQuarantined);
  EXPECT_EQ(server.replica_health(1), ReplicaHealth::kHealthy);
}

TEST(FaultServe, MidRunDeadlineIsEnforcedByTheWatchdog) {
  const TinyNet net;
  SessionConfig sc = net.session_config;
  FaultEvent hang = FaultPlan::kernel_hang("", /*run=*/0, /*step=*/0);
  hang.target_index = 0;
  sc.engine.faults.add(hang);  // only run 0 wedges
  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 1;
  cfg.batch_timeout_us = 0;
  cfg.run_budget_us = 0;  // no budget: only the deadline can cancel
  cfg.watchdog_period_us = 1'000;
  DfeServer server(net.spec, net.params, cfg, sc);
  const std::vector<IntTensor> images = net.batch(2, 82);
  const InferenceResult stuck =
      server.submit(images[0], /*deadline_us=*/30'000);
  EXPECT_EQ(stuck.status, ServerStatus::kDeadlineExceeded)
      << to_string(stuck.status);
  EXPECT_GE(server.metrics().snapshot().watchdog_deadline_cancels, 1u);
  // The hang window has passed: the same replica serves again.
  const InferenceResult healed = server.submit(images[1]);
  EXPECT_EQ(healed.status, ServerStatus::kOk) << healed.error;
}

TEST(FaultServe, QuarantineProbesAndReadmitsAFlakyReplica) {
  const TinyNet net;
  SessionConfig sc = net.session_config;
  // Runs 0..2 throw; everything after (including probes) is clean.
  FaultEvent e = FaultPlan::kernel_throw("", /*run=*/0, /*step=*/0);
  e.target_index = 0;
  e.last_run = 2;
  sc.engine.faults.add(e);
  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 1;
  cfg.batch_timeout_us = 0;
  cfg.max_retries = 2;
  cfg.retry_backoff_us = 100;
  cfg.quarantine_after = 3;
  cfg.probation_probes = 2;
  cfg.probe_period_us = 1'000;
  DfeServer server(net.spec, net.params, cfg, sc);
  const ReferenceExecutor ref = net.reference();
  const std::vector<IntTensor> images = net.batch(2, 83);

  // 1 + 2 retries all land in the faulty run window: the request errors
  // and the third consecutive failure quarantines the replica.
  const InferenceResult doomed = server.submit(images[0]);
  EXPECT_EQ(doomed.status, ServerStatus::kError) << to_string(doomed.status);
  EXPECT_EQ(doomed.retries, 2);
  EXPECT_NE(doomed.error.find("injected"), std::string::npos) << doomed.error;

  // Probes run clean now: quarantined -> probation -> readmitted.
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
  while (server.replica_health(0) != ReplicaHealth::kHealthy &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.replica_health(0), ReplicaHealth::kHealthy);

  const InferenceResult healed = server.submit(images[1]);
  ASSERT_EQ(healed.status, ServerStatus::kOk) << healed.error;
  EXPECT_EQ(healed.logits, ref.run(images[1]));
  server.stop();
  const MetricsSnapshot s = server.metrics().snapshot();
  EXPECT_GE(s.quarantines, 1u);
  EXPECT_GE(s.probes, 2u);
  EXPECT_GE(s.readmissions, 1u);
  // Brownout tracked the quarantine window: entered with it, cleared by
  // the readmission.
  EXPECT_GE(s.brownout_entries, 1u);
  EXPECT_FALSE(s.brownout_active);
  EXPECT_FALSE(server.metrics().events().empty());
}

// The acceptance gate of the chaos subsystem: a seeded storm of
// detectable faults across a 4-replica farm, and still every future
// resolves, nothing is lost or double-answered, and every kOk result is
// bit-exact against the fault-free reference.
TEST(FaultServe, ChaosSoakLosesNothingAndStaysBitExact) {
  const TinyNet net;
  FaultPlan::ChaosOptions copts;
  copts.replicas = 4;
  copts.runs = 10;
  copts.events = 6;
  SessionConfig sc = net.session_config;
  sc.engine.faults = FaultPlan::chaos(2026, copts);
  ServerConfig cfg;
  cfg.replicas = 4;
  cfg.max_batch = 4;
  cfg.batch_timeout_us = 300;
  cfg.run_budget_us = 150'000;  // rescue hangs even under sanitizers
  cfg.watchdog_period_us = 1'000;
  cfg.max_retries = 3;
  cfg.retry_backoff_us = 100;
  cfg.quarantine_after = 2;
  cfg.probation_probes = 1;
  cfg.probe_period_us = 1'000;
  DfeServer server(net.spec, net.params, cfg, sc);
  const ReferenceExecutor ref = net.reference();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 18;
  std::vector<std::vector<IntTensor>> images(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    images[static_cast<std::size_t>(t)] =
        net.batch(kPerThread, 90 + static_cast<std::uint64_t>(t));
  }
  std::vector<std::vector<std::future<InferenceResult>>> futures(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kPerThread; ++r) {
        futures[static_cast<std::size_t>(t)].push_back(server.submit_async(
            images[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)]));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  int ok = 0;
  int errors = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kPerThread; ++r) {
      InferenceResult res =
          futures[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)]
              .get();  // every future must resolve: nothing lost
      if (res.status == ServerStatus::kOk) {
        ++ok;
        // Chaos draws only detectable faults, so completed results carry
        // no silent corruption.
        EXPECT_EQ(res.logits,
                  ref.run(images[static_cast<std::size_t>(t)]
                                [static_cast<std::size_t>(r)]))
            << "thread " << t << " request " << r;
      } else {
        ASSERT_EQ(res.status, ServerStatus::kError) << to_string(res.status);
        ++errors;
      }
    }
  }
  server.stop();
  const MetricsSnapshot s = server.metrics().snapshot();
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads * kPerThread);
  EXPECT_EQ(s.submitted, kTotal);
  EXPECT_EQ(static_cast<std::uint64_t>(ok + errors), kTotal);
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(s.errors, static_cast<std::uint64_t>(errors));
  EXPECT_GT(ok, kThreads * kPerThread / 2)
      << "healing should complete most of the load";
}

}  // namespace
}  // namespace qnn
