// Serving a DFE farm: compile one network into a MIXED pool of replicas —
// fast engine boards, a deliberately slow scalar-reference tier for
// best-effort overflow, and a cycle-simulator shadow replica that mirrors
// a fraction of live traffic for bit-exact comparison — then put the
// admission-controlled micro-batching server in front of it and drive it
// with an open-loop Poisson workload.
//
//   admission queue -> deadline-class router -> mixed replica pool
//                                            -> shadow mirror -> metrics
//
// Tight requests (deadline <= tight_deadline_us) only ever run on the
// fast tier; best-effort work may overflow onto the slow tier; the shadow
// replica never answers a client.
//
// Build & run:  ./serve_farm
//               ./serve_farm --auto-pool   # derive the pool shape from
//                                          # backend costs + the traffic
//                                          # model (plan/pool_shape.h)
#include <cstring>
#include <iostream>

#include "backend/backend.h"
#include "io/synthetic.h"
#include "models/zoo.h"
#include "plan/pool_shape.h"
#include "serve/load_generator.h"
#include "serve/server.h"

int main(int argc, char** argv) {
  using namespace qnn;
  bool auto_pool = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--auto-pool") == 0) auto_pool = true;
  }

  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline pipeline = expand(spec);
  const NetworkParams params = NetworkParams::random(pipeline, 1);
  SessionConfig session_config;

  ServerConfig cfg;
  if (auto_pool) {
    // Cost-aware sizing: derive {backend, count} from each backend's
    // relative per-image cost and the traffic model below, instead of
    // hand-picking the slice counts.
    PoolShapeConfig shape;
    shape.target_qps = 2000.0;   // the Poisson rate driven further down
    shape.tight_fraction = 0.3;  // rough share of tight-deadline traffic
    shape.replica_qps = 1500.0;  // one engine replica on this tiny model
    std::cout << "auto pool (target " << shape.target_qps << " qps):\n";
    for (const PoolSlice& s : shape_pool(shape, backend_registry())) {
      std::cout << "  " << s.count << " x " << s.backend << "\n";
      cfg.pool.push_back({s.backend, s.count});
    }
  } else {
    cfg.pool = {{"engine", 2},      // two fast modeled DFE boards
                {"reference", 1},   // one slow scalar tier (best-effort)
                {"simulator", 1}};  // one shadow replica (mirror-only)
  }
  cfg.max_batch = 8;            // micro-batch closes at 8 requests...
  cfg.batch_timeout_us = 1000;  // ...or 1 ms after it opens
  cfg.queue_capacity = 64;  // bounded admission: reject, don't queue forever
  cfg.default_deadline_us = 100000;  // 100 ms per-request deadline
  cfg.tight_deadline_us = 20000;     // <= 20 ms means fast-tier-only
  cfg.shadow_fraction = 0.25;        // mirror 1 in 4 served requests

  std::cout << "compiling a mixed pool of " << spec.name << " replicas...\n";
  DfeServer server(spec, params, cfg, session_config);
  for (int i = 0; i < server.replicas(); ++i) {
    const Backend& b = server.replica(i).backend();
    std::cout << "  replica " << i << ": " << b.name() << " ("
              << to_string(b.tier()) << " tier) — " << b.info().description
              << "\n";
  }
  std::cout << "\n" << server.replica(0).report() << "\n";

  // One synchronous request end to end.
  const auto images = synthetic_batch(8, 12, 12, 3, 2);
  const InferenceResult one = server.submit(images.front());
  std::cout << "single request: " << to_string(one.status) << ", class "
            << [&] {
                 int best = 0;
                 for (std::int64_t i = 1; i < one.logits.size(); ++i) {
                   if (one.logits[i] > one.logits[best]) {
                     best = static_cast<int>(i);
                   }
                 }
                 return best;
               }()
            << ", " << one.total_us << " us end to end, served by replica "
            << one.replica << " ["
            << server.replica(one.replica).backend().name() << "]\n\n";

  // A tight request: the router will only consider the fast tier.
  const InferenceResult tight =
      server.submit(images.front(), /*deadline_us=*/10000);
  std::cout << "tight request (10 ms deadline): " << to_string(tight.status)
            << ", served by replica " << tight.replica << " ["
            << server.replica(tight.replica).backend().name() << "/"
            << to_string(server.replica(tight.replica).backend().tier())
            << "]\n\n";

  // Open-loop Poisson traffic: arrivals do not wait for completions, so
  // this measures the farm at a fixed offered rate.
  LoadGenerator gen(server, images);
  std::cout << "driving 2000 qps of Poisson traffic (600 requests)...\n";
  const LoadResult burst = gen.open_loop(2000.0, 600, /*seed=*/3);
  std::cout << "  " << burst.str() << "\n\n";

  server.stop();  // drains the queue and the shadow mirror
  std::cout << server.metrics_report();
  return 0;
}
