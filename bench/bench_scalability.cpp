// §IV-B4 scalability analysis:
//  * theoretical clocks-per-picture vs the cycle simulation (the paper's
//    ResNet-18 estimate is ~1.85e6 clocks, matching 16.1 ms @105 MHz);
//  * the Stratix 10 projection (5x clock -> 3-4 ms per image);
//  * frames-per-second for every workload (§V claims >60 fps everywhere);
//  * host StreamEngine transport ablation: scalar (burst 1) vs burst 256
//    stream transactions on the ready-queue executor, written to
//    BENCH_dataflow.json. Acceptance bar: burst 256 reaches >= 2x scalar
//    transport.
#include <chrono>
#include <iostream>
#include <sstream>

#include "bench_util.h"
#include "dataflow/engine.h"
#include "fpga/resource_model.h"
#include "io/synthetic.h"
#include "perfmodel/fpga_estimate.h"
#include "sim/cycle_model.h"

int main() {
  using namespace qnn;
  bench::heading("Scalability — clocks per picture and fps (§IV-B4, §V)",
                 "Analytic bottleneck vs cycle simulation; fps at the "
                 "105 MHz Stratix V clock.");

  Table t({"workload", "analytic clocks", "simulated clocks", "ms @105MHz",
           "fps", ">60fps"});
  for (const auto& w : bench::paper_workloads()) {
    const Pipeline p = expand(w.spec);
    const SimConfig cfg;
    const auto analytic = analytic_bottleneck_cycles(p, cfg);
    const SimResult sim = simulate(p, cfg, 2);
    t.add_row({w.label, Table::integer(static_cast<std::int64_t>(analytic)),
               Table::integer(static_cast<std::int64_t>(sim.steady_interval)),
               Table::num(sim.ms_per_image(cfg)),
               Table::num(sim.images_per_second(cfg), 1),
               sim.images_per_second(cfg) > 60.0 ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "\npaper: ResNet-18 ~1.85e6 clocks/picture, 16.1 ms "
               "measured @105 MHz.\n";

  bench::heading("Stratix 10 projection (§IV-B4)",
                 "5x fabric clock; the projection must also 'fit even "
                 "bigger networks onto a single FPGA' — shown with "
                 "ResNet-34.");
  Table s({"network", "device", "ms/img", "fps", "devices needed"});
  for (const auto& spec : {models::resnet18(224, 1000, 2),
                           models::resnet34(224, 1000, 2)}) {
    const Pipeline p = expand(spec);
    const auto r = estimate_resources(p);
    for (const FpgaDevice& dev :
         {stratix_v_5sgsd8(), stratix_10_projection()}) {
      SimConfig cfg;
      cfg.clock_hz = dev.clock_hz;
      const SimResult sim = simulate(p, cfg, 2);
      s.add_row({spec.name, dev.name, Table::num(sim.ms_per_image(cfg)),
                 Table::num(sim.images_per_second(cfg), 1),
                 Table::integer(r.devices_needed(dev))});
    }
  }
  s.print(std::cout);
  std::cout << "\npaper: Stratix 10 would reach 3-4 ms per image and fit "
               "bigger networks on one FPGA.\n";

  bench::heading("Interval growth with input size (VGG-like)",
                 "Streaming throughput scales with the pixel count.");
  Table g({"input", "clocks/img", "ms", "ratio vs 32"});
  std::uint64_t base = 0;
  for (int size : {32, 64, 96, 144, 224}) {
    const SimConfig cfg;
    const SimResult sim =
        simulate(expand(models::vgg_like(size, 10, 2)), cfg, 2);
    if (base == 0) base = sim.steady_interval;
    g.add_row({std::to_string(size),
               Table::integer(static_cast<std::int64_t>(sim.steady_interval)),
               Table::num(sim.ms_per_image(cfg)),
               Table::num(static_cast<double>(sim.steady_interval) /
                              static_cast<double>(base),
                          2)});
  }
  g.print(std::cout);

  bench::heading("Host dataflow engine — transport ablation",
                 "per-image (serving-style) images/s of the software "
                 "StreamEngine on the ready-queue executor: one value per "
                 "ring transaction (burst 1) vs bursts of up to 256 values. "
                 "Each run() carries one image, as in the inference server. "
                 "Acceptance bar: burst 256 >= 2x burst 1.");

  const NetworkSpec dspec = models::tiny(8, 4, 2);
  const Pipeline dp = expand(dspec);
  const NetworkParams dparams = NetworkParams::random(dp, 91);
  // Pre-split into single-image batches so the timed loop measures only
  // run() itself — the same request shape bench_serving drives.
  std::vector<std::vector<IntTensor>> drequests;
  for (const IntTensor& img : synthetic_batch(8, 8, 8, 3, 92)) {
    drequests.push_back({img});
  }
  constexpr int kReps = 8;

  struct EngineConfig {
    const char* label;
    std::size_t burst;
  };
  // FIFOs are auto-sized (§III-B1b line buffers) in both: the transport
  // granularity is the only variable.
  const EngineConfig configs[] = {
      {"burst 1 (scalar transport, baseline)", 1},
      {"burst 256", 256},
  };
  Table d({"configuration", "images/s", "speedup", "values/txn",
           "push stalls", "pop stalls"});
  std::ostringstream dj;
  dj << "{\n  \"workload\": \"" << dspec.name << "\",\n  \"images\": "
     << drequests.size() * kReps << ",\n  \"configs\": [\n";
  double baseline_ips = 0.0;
  double burst_ips = 0.0;
  for (std::size_t i = 0; i < std::size(configs); ++i) {
    const EngineConfig& cfg = configs[i];
    EngineOptions opt;
    opt.burst = cfg.burst;
    StreamEngine engine(dp, dparams, opt);
    (void)engine.run(drequests.front());  // warm-up, untimed
    std::uint64_t values = 0;
    std::uint64_t txns = 0;
    std::uint64_t push_stalls = 0;
    std::uint64_t pop_stalls = 0;
    int images = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      for (const auto& request : drequests) {
        StreamEngine::RunStats st;
        (void)engine.run(request, &st);
        values += st.values_streamed;
        txns += st.stream_transactions;
        push_stalls += st.push_stalls;
        pop_stalls += st.pop_stalls;
        ++images;
      }
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    const double ips = images / elapsed.count();
    if (i == 0) baseline_ips = ips;
    if (cfg.burst > 1) burst_ips = ips;
    const double speedup = baseline_ips > 0.0 ? ips / baseline_ips : 0.0;
    const double occupancy =
        txns > 0 ? static_cast<double>(values) / static_cast<double>(txns)
                 : 0.0;
    d.add_row({cfg.label, Table::num(ips, 2), Table::num(speedup, 2),
               Table::num(occupancy, 1),
               Table::integer(static_cast<std::int64_t>(push_stalls)),
               Table::integer(static_cast<std::int64_t>(pop_stalls))});
    dj << "    {\"label\": \"" << cfg.label << "\""
       << ", \"burst\": " << cfg.burst << ", \"images_per_second\": " << ips
       << ", \"speedup\": " << speedup
       << ", \"mean_burst_occupancy\": " << occupancy
       << ", \"push_stalls\": " << push_stalls
       << ", \"pop_stalls\": " << pop_stalls << "}"
       << (i + 1 < std::size(configs) ? "," : "") << "\n";
  }
  bench::emit(d, "bench_dataflow");
  const double bar = baseline_ips > 0.0 ? burst_ips / baseline_ips : 0.0;
  dj << "  ],\n  \"burst_speedup\": " << bar << "\n}\n";
  std::cout << "\nburst 256 speedup vs burst 1: "
            << Table::num(bar, 2) << "x (acceptance bar: >= 2x)\n\n"
            << dj.str();
  bench::write_json("BENCH_dataflow.json", dj.str());
  return bar >= 2.0 ? 0 : 1;
}
