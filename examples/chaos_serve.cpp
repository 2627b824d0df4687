// Chaos-serving a DFE farm: the same replica pool as serve_farm, but one
// board is wedged mid-load by a seeded fault plan. Watch the healing
// timeline: the watchdog budget-cancels the hung run, the victims retry
// onto live replicas, the wedged board is quarantined (and the farm
// brownouts), probes fail while it stays wedged, and once the fault
// window closes a clean probe readmits it.
//
//   fault plan -> replica 0 hangs -> watchdog cancel -> retry elsewhere
//              -> quarantine -> brownout -> probe -> readmit -> healthy
//
// Everything is deterministic under the plan's seed: the same binary
// replays the same outage.
//
// Build & run:  ./chaos_serve
#include <chrono>
#include <iostream>
#include <thread>

#include "fault/fault.h"
#include "io/synthetic.h"
#include "models/zoo.h"
#include "serve/load_generator.h"
#include "serve/server.h"

int main() {
  using namespace qnn;

  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline pipeline = expand(spec);
  const NetworkParams params = NetworkParams::random(pipeline, 1);
  SessionConfig session_config;

  // The outage: replica 0's first registered kernel hangs at step 0 on
  // every run in the window [0, 3] — roughly its first few batches plus
  // the first quarantine probes — then the board "recovers".
  FaultEvent hang = FaultPlan::kernel_hang("", /*run=*/0, /*step=*/0);
  hang.target_index = 0;
  hang.replica = 0;
  hang.last_run = 3;
  session_config.engine.faults.add(hang);

  ServerConfig cfg;
  cfg.replicas = 4;
  cfg.max_batch = 8;
  cfg.batch_timeout_us = 1000;
  cfg.queue_capacity = 256;
  cfg.run_budget_us = 20'000;   // watchdog cancels any run over 20 ms
  cfg.watchdog_period_us = 500;
  cfg.quarantine_after = 1;     // one budget cancel parks the board
  cfg.probation_probes = 2;     // two clean probes readmit it
  cfg.probe_period_us = 5'000;
  cfg.max_retries = 3;
  cfg.retry_backoff_us = 200;

  std::cout << "compiling " << cfg.replicas << " replicas of " << spec.name
            << " (replica 0 wedged by a seeded fault plan)...\n\n";
  DfeServer server(spec, params, cfg, session_config);

  const auto images = synthetic_batch(16, 12, 12, 3, 2);
  LoadGenerator gen(server, images);
  std::cout << "driving closed-loop load through the outage...\n";
  const LoadResult during = gen.closed_loop(/*clients=*/16,
                                            /*requests_per_client=*/8);
  std::cout << "  " << during.str() << "\n";

  // Give the probe loop time to readmit the recovered board, then show
  // that it serves again.
  for (int i = 0; i < 200; ++i) {
    if (server.replica_health(0) == ReplicaHealth::kHealthy) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::cout << "\nreplica 0 after the fault window: "
            << to_string(server.replica_health(0)) << "\n";
  const LoadResult after = gen.closed_loop(/*clients=*/8,
                                           /*requests_per_client=*/4);
  std::cout << "post-recovery load: " << after.str() << "\n\n";

  server.stop();
  std::cout << server.metrics_report() << "\nhealing timeline:\n";
  for (const std::string& event : server.metrics().events()) {
    std::cout << "  " << event << "\n";
  }
  return 0;
}
