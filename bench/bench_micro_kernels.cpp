// Microbenchmarks (google-benchmark) of the hot computational primitives:
// the XNOR-popcount datapath vs a scalar reference, the folded threshold
// activation vs the float BatchNorm + quantizer path, the window scanner,
// the SPSC stream, and a small end-to-end streaming inference.
//
// After the google-benchmark suite, main() runs the host-executor
// ablation: round-robin pooled vs ready-queue vs ready-queue + pinned
// workers at equal thread counts, on a shallow (8-kernel) and a deep
// (>= 50-kernel) chain. Results land in BENCH_executor.json (in
// $QNN_CSV_DIR, else the bench's build directory, like the other benches)
// and the exit code enforces the acceptance bars, so `PERF=1
// tools/check.sh` can gate on it. Pass `--benchmark_filter=__none__` to
// skip the microbenchmarks and run the ablation alone.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/bitplanes.h"
#include "core/simd/vec_ops.h"
#include "dataflow/engine.h"
#include "dataflow/kernels.h"
#include "dataflow/window_scanner.h"
#include "models/zoo.h"
#include "nn/reference.h"
#include "quant/threshold.h"

namespace qnn {
namespace {

void BM_Pm1DotPacked(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  Rng rng(1);
  BitVector a(n);
  BitVector b(n);
  for (std::int64_t i = 0; i < n; ++i) {
    a.set(i, rng.next_bool());
    b.set(i, rng.next_bool());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.pm1_dot(b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Pm1DotPacked)->Arg(576)->Arg(4608)->Arg(9216);

void BM_Pm1DotScalarReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<std::int8_t> w(n);
  std::vector<std::int32_t> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = rng.next_bool() ? 1 : -1;
    x[i] = static_cast<std::int32_t>(rng.next_below(4));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference_pm1_dot(w, x));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Pm1DotScalarReference)->Arg(576)->Arg(4608)->Arg(9216);

void BM_BitPlaneDot2Bit(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  Rng rng(2);
  BitVector w(n);
  BitPlaneWindow win(n, 2);
  for (std::int64_t i = 0; i < n; ++i) {
    w.set(i, rng.next_bool());
    win.set(i, static_cast<std::uint32_t>(rng.next_below(4)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(win.dot(w));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BitPlaneDot2Bit)->Arg(576)->Arg(4608)->Arg(9216);

void BM_ThresholdEval(benchmark::State& state) {
  BnParams bn;
  bn.gamma = 1.2f;
  bn.mu = 40.0f;
  bn.inv_sigma = 0.01f;
  bn.beta = 2.0f;
  const ActQuantizer q(static_cast<int>(state.range(0)), 1.0);
  const auto t = ThresholdActivation::fold(bn, q);
  std::int32_t a = -5000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.eval_binary_search(a));
    a = a < 5000 ? a + 7 : -5000;
  }
}
BENCHMARK(BM_ThresholdEval)->Arg(1)->Arg(2)->Arg(4);

void BM_FloatBnActPath(benchmark::State& state) {
  BnParams bn;
  bn.gamma = 1.2f;
  bn.mu = 40.0f;
  bn.inv_sigma = 0.01f;
  bn.beta = 2.0f;
  const ActQuantizer q(static_cast<int>(state.range(0)), 1.0);
  std::int32_t a = -5000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.code(bn.apply(a)));
    a = a < 5000 ? a + 7 : -5000;
  }
}
BENCHMARK(BM_FloatBnActPath)->Arg(1)->Arg(2)->Arg(4);

void BM_WindowScanner(benchmark::State& state) {
  const Shape in{32, 32, 64};
  Rng rng(3);
  IntTensor img(in);
  for (std::int64_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<std::int32_t>(rng.next_below(4));
  }
  std::vector<std::int32_t> window(
      static_cast<std::size_t>(3 * 3 * in.c));
  for (auto _ : state) {
    WindowScanner s(in, 3, 1, 1);
    std::int64_t next = 0;
    while (!s.done()) {
      const std::int32_t v = s.next_is_padding() ? 0 : img[next++];
      const auto completed = s.advance(v);
      if (completed) {
        s.window(*completed, window);
        benchmark::DoNotOptimize(window.data());
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * img.size());
}
BENCHMARK(BM_WindowScanner);

void BM_StreamThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Stream s(1024, 16, "bench");
    const std::int64_t n = 1 << 18;
    state.ResumeTiming();
    std::thread consumer([&] {
      std::int32_t v;
      while (s.pop(v)) benchmark::DoNotOptimize(v);
    });
    for (std::int32_t i = 0; i < n; ++i) s.push(i);
    s.close();
    consumer.join();
    state.SetItemsProcessed(state.items_processed() + n);
  }
}
BENCHMARK(BM_StreamThroughput)->Unit(benchmark::kMillisecond);

void BM_StreamingEngineTiny(benchmark::State& state) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const NetworkParams params = NetworkParams::random(p, 99);
  StreamEngine engine(p, params);
  Rng rng(4);
  IntTensor img(p.input);
  for (std::int64_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<std::int32_t>(rng.next_below(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_one(img));
  }
}
BENCHMARK(BM_StreamingEngineTiny)->Unit(benchmark::kMillisecond);

void BM_ReferenceExecutorTiny(benchmark::State& state) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  const NetworkParams params = NetworkParams::random(p, 99);
  const ReferenceExecutor exec(p, params);
  Rng rng(4);
  IntTensor img(p.input);
  for (std::int64_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<std::int32_t>(rng.next_below(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.run(img));
  }
}
BENCHMARK(BM_ReferenceExecutorTiny)->Unit(benchmark::kMillisecond);

}  // namespace

// ---- executor ablation --------------------------------------------------

namespace {

/// A straight chain of `convs` (conv + bnact) pairs plus a dense head:
/// 2*convs + 1 + (bn_act ? 1 : 0) kernels once expanded. convs=3 with a
/// bn-act head gives the shallow 8-kernel chain; convs=26 without gives
/// the deep 53-kernel chain where a round-robin sweep wastes whole passes
/// stepping blocked tasks.
NetworkSpec ablation_chain(const char* name, int convs, bool dense_bn) {
  NetworkSpec spec;
  spec.name = name;
  spec.input = Shape{8, 8, 2};
  for (int i = 0; i < convs; ++i) spec.conv(2, 3, 1, 1);
  spec.dense(3, dense_bn);
  return spec;
}

struct AblationConfig {
  const char* label;
  ExecutorKind kind;
  bool pin;
};

/// Images/second for one (chain, executor) cell. Every config sees the
/// same requests, the same thread count, and the same (adaptive) burst
/// plan — the executor is the only variable.
double ablation_ips(const Pipeline& p, const NetworkParams& params,
                    const AblationConfig& cfg, unsigned threads,
                    const std::vector<std::vector<IntTensor>>& requests,
                    int reps) {
  EngineOptions opt;
  opt.executor = cfg.kind;
  opt.pool_threads = threads;
  opt.pin_threads = cfg.pin;
  StreamEngine engine(p, params, opt);
  (void)engine.run(requests.front());  // warm-up, untimed
  int images = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    for (const auto& request : requests) {
      (void)engine.run(request);
      images += static_cast<int>(request.size());
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  return images / elapsed.count();
}

}  // namespace

int run_executor_ablation() {
  constexpr int kReps = 6;
  const AblationConfig configs[] = {
      {"pooled round-robin", ExecutorKind::kPooled, false},
      {"ready-queue", ExecutorKind::kReadyQueue, false},
      {"ready-queue + pinned", ExecutorKind::kReadyQueue, true},
  };
  struct Chain {
    const char* name;
    NetworkSpec spec;
  };
  const Chain chains[] = {
      {"shallow", ablation_chain("shallow_chain", 3, true)},
      {"deep", ablation_chain("deep_chain", 26, false)},
  };

  std::ostringstream js;
  js << "{\n  \"chains\": [\n";
  double shallow_ratio = 0.0;
  double deep_ratio = 0.0;
  std::cout << "\nexecutor ablation (thread-per-kernel pools, adaptive "
               "bursts)\n";
  for (std::size_t c = 0; c < std::size(chains); ++c) {
    const Chain& chain = chains[c];
    const Pipeline p = expand(chain.spec);
    const NetworkParams params = NetworkParams::random(p, 7);
    // Pool size = task count (kernels + feeder + collector): the natural
    // host configuration for a dataflow graph, and the one the pre-burst
    // engine shipped with (thread-per-kernel). Both executors get the
    // same count.
    const unsigned threads = static_cast<unsigned>(p.size()) + 2;
    Rng rng(11);
    // Serving-shaped requests: one image per run() call, as the serve/
    // replicas issue them. This exposes the per-run host overhead (the
    // pooled sweep re-spawns its workers every run; the ready-queue
    // executor parks a persistent pool) on top of steady-state
    // scheduling.
    std::vector<std::vector<IntTensor>> requests;
    for (int i = 0; i < 4; ++i) {
      IntTensor img(p.input);
      for (std::int64_t j = 0; j < img.size(); ++j) {
        img[j] = static_cast<std::int32_t>(
            rng.next_below(1u << chain.spec.input_bits));
      }
      requests.push_back({std::move(img)});
    }
    js << "    {\"chain\": \"" << chain.name
       << "\", \"kernels\": " << p.size() << ", \"threads\": " << threads
       << ", \"configs\": [\n";
    double pooled_ips = 0.0;
    double ready_ips = 0.0;
    for (std::size_t i = 0; i < std::size(configs); ++i) {
      const AblationConfig& cfg = configs[i];
      const double ips =
          ablation_ips(p, params, cfg, threads, requests, kReps);
      if (cfg.kind == ExecutorKind::kPooled) pooled_ips = ips;
      if (cfg.kind == ExecutorKind::kReadyQueue && !cfg.pin) {
        ready_ips = ips;
      }
      const double speedup = pooled_ips > 0.0 ? ips / pooled_ips : 0.0;
      std::cout << "  " << chain.name << " (" << p.size() << " kernels, "
                << threads << " threads), " << cfg.label << ": " << ips
                << " images/s (" << speedup << "x vs pooled)\n";
      js << "      {\"label\": \"" << cfg.label << "\", \"pinned\": "
         << (cfg.pin ? "true" : "false")
         << ", \"images_per_second\": " << ips
         << ", \"speedup_vs_pooled\": " << speedup << "}"
         << (i + 1 < std::size(configs) ? "," : "") << "\n";
    }
    js << "    ]}" << (c + 1 < std::size(chains) ? "," : "") << "\n";
    const double ratio = pooled_ips > 0.0 ? ready_ips / pooled_ips : 0.0;
    if (c == 0) {
      shallow_ratio = ratio;
    } else {
      deep_ratio = ratio;
    }
  }
  js << "  ],\n  \"shallow_ready_vs_pooled\": " << shallow_ratio
     << ",\n  \"deep_ready_vs_pooled\": " << deep_ratio << "\n}\n";
  std::cout << "ready-queue vs pooled: shallow " << shallow_ratio
            << "x (bar: >= 0.95), deep " << deep_ratio
            << "x (bar: >= 1.5)\n"
            << js.str();
  bench::write_json("BENCH_executor.json", js.str());
  return shallow_ratio >= 0.95 && deep_ratio >= 1.5 ? 0 : 1;
}

// ---- conv datapath ablation ---------------------------------------------

namespace {

/// Images/second through a single ConvKernel driven cooperatively on one
/// thread (push burst / step / drain), so the measurement isolates the conv
/// inner datapath with no executor or thread-scheduling noise.
double conv_datapath_ips(const Node& n, const FilterBank& fb,
                         const std::vector<std::int32_t>& img, int images) {
  Stream sin(8192, 16, "abl_in");
  Stream sout(8192, 32, "abl_out");
  ConvKernel kernel(n, fb, sin, sout);
  const std::int64_t out_per_image = n.out.elems();
  std::vector<std::int32_t> sink(4096);
  const auto t0 = std::chrono::steady_clock::now();
  int fed_images = 0;
  std::size_t fed_pos = 0;
  std::int64_t got = 0;
  while (got < out_per_image * images) {
    if (fed_images < images) {
      fed_pos += sin.try_push_burst(
          std::span<const std::int32_t>(img).subspan(fed_pos));
      if (fed_pos == img.size()) {
        fed_pos = 0;
        if (++fed_images == images) sin.close();
      }
    }
    (void)kernel.step_checked();
    got += static_cast<std::int64_t>(sout.try_pop_burst(sink));
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  return images / elapsed.count();
}

/// Conv node of the ablation cells.
Node ablation_conv(Shape in, int out_c, int k, int stride, int pad,
                   int bits) {
  Node n;
  n.kind = NodeKind::Conv;
  n.name = "abl_conv";
  n.in = in;
  n.out = conv_out_shape(in, out_c, k, stride, pad);
  n.in_bits = bits;
  n.out_bits = preact_bits(static_cast<std::int64_t>(k) * k * in.c, bits);
  n.k = k;
  n.stride = stride;
  n.pad = pad;
  n.param = 0;
  return n;
}

/// Images/second of one conv node through each datapath arm: scalar-pack,
/// packed (scalar dot), packed + widest SIMD.
using CellIps = std::array<double, 3>;

CellIps measure_cell(const Node& n, std::uint64_t seed, int warmup,
                     int images, simd::Level best, const std::string& label) {
  Rng rng(seed);
  const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
  std::vector<std::int32_t> img(static_cast<std::size_t>(n.in.elems()));
  for (auto& v : img) {
    v = static_cast<std::int32_t>(
        rng.next_below(std::uint64_t{1} << n.in_bits));
  }
  struct Arm {
    const char* label;
    ConvDatapath dp;
    simd::Level level;
  };
  const Arm arms[] = {
      {"scalar-pack", ConvDatapath::kScalarPack, simd::Level::kScalar},
      {"packed", ConvDatapath::kPacked, simd::Level::kScalar},
      {"packed+simd", ConvDatapath::kPacked, best},
  };
  CellIps ips{};
  for (std::size_t a = 0; a < std::size(arms); ++a) {
    set_conv_datapath(arms[a].dp);
    simd::set_level(arms[a].level);
    (void)conv_datapath_ips(n, fb, img, warmup);  // untimed
    ips[a] = conv_datapath_ips(n, fb, img, images);
    std::cout << "  " << label << ", " << arms[a].label << ": " << ips[a]
              << " images/s\n";
  }
  set_conv_datapath(ConvDatapath::kPacked);
  simd::set_level(std::nullopt);
  return ips;
}

void write_cell_ips(std::ostream& js, const CellIps& ips) {
  js << "\"scalar_pack_ips\": " << ips[0]
     << ", \"packed_scalar_ips\": " << ips[1]
     << ", \"packed_simd_ips\": " << ips[2]
     << ", \"packed_vs_scalarpack\": " << ips[1] / ips[0]
     << ", \"simd_vs_scalarpack\": " << ips[2] / ips[0];
}

}  // namespace

/// Three-arm ablation of the conv inner datapath — scalar per-window
/// re-pack vs packed incremental line buffers (scalar word loop) vs packed
/// + widest SIMD. The gated cells are one mid-network conv per activation
/// width; the acceptance bar applies to their geomean packed+SIMD speedup.
/// The paper networks' first layers follow as ungated cells. Writes
/// BENCH_kernels.json.
int run_conv_datapath_ablation() {
  constexpr int kImages = 8;
  // A mid-network conv at paper scale: 3x3x64 -> 64 puts 576 bits (9
  // words) in each bit-plane window, enough for the word-granular inner
  // loop to matter. Tiny-channel layers are covered by the test suite.
  const Shape in{16, 16, 64};
  const int out_c = 64;
  const int bits_list[] = {1, 2, 8};
  // The first convs of ResNet-18@224 and AlexNet@224 at their 8-bit input:
  // few words per plane, many windows. They set the pace of those networks
  // on the live engine, so their speed is reported, but not gated.
  struct FirstLayer {
    const char* name;
    Node node;
  };
  const FirstLayer first_layers[] = {
      {"resnet18_conv_0", ablation_conv({224, 224, 3}, 64, 7, 2, 3, 8)},
      {"alexnet_conv_0", ablation_conv({224, 224, 3}, 96, 11, 4, 2, 8)},
  };

  const simd::Level best = simd::available_levels().back();
  // >= 3x with AVX2-or-wider popcount hardware; >= 2x from packing alone.
  const double bar = best >= simd::Level::kAvx2 ? 3.0 : 2.0;

  std::cout << "\nconv datapath ablation (single kernel, cooperative "
               "single-thread drive; host best simd: "
            << simd::level_name(best) << ")\n";
  std::ostringstream js;
  js << "{\n  \"host_best_simd\": \"" << simd::level_name(best)
     << "\",\n  \"bar\": " << bar << ",\n  \"cells\": [\n";
  double log_sum = 0.0;
  for (std::size_t b = 0; b < std::size(bits_list); ++b) {
    const int bits = bits_list[b];
    const CellIps c =
        measure_cell(ablation_conv(in, out_c, 3, 1, 1, bits),
                     21 + static_cast<std::uint64_t>(bits), 2, kImages, best,
                     "in_bits=" + std::to_string(bits));
    log_sum += std::log(c[2] / c[0]);
    js << "    {\"in_bits\": " << bits << ", ";
    write_cell_ips(js, c);
    js << "}" << (b + 1 < std::size(bits_list) ? "," : "") << "\n";
  }
  const double geomean =
      std::exp(log_sum / static_cast<double>(std::size(bits_list)));
  const bool pass = geomean >= bar;
  js << "  ],\n  \"geomean_simd_vs_scalarpack\": " << geomean
     << ",\n  \"pass\": " << (pass ? "true" : "false")
     << ",\n  \"first_layer_cells\": [\n";
  for (std::size_t i = 0; i < std::size(first_layers); ++i) {
    const FirstLayer& fl = first_layers[i];
    const CellIps c = measure_cell(fl.node, 31 + i, 1, 2, best, fl.name);
    js << "    {\"name\": \"" << fl.name << "\", \"in_bits\": "
       << fl.node.in_bits << ", ";
    write_cell_ips(js, c);
    js << "}" << (i + 1 < std::size(first_layers) ? "," : "") << "\n";
  }
  js << "  ]\n}\n";
  std::cout << "packed+simd vs scalar-pack geomean: " << geomean
            << "x (bar: >= " << bar << ")\n"
            << js.str();
  bench::write_json("BENCH_kernels.json", js.str());
  return pass ? 0 : 1;
}

}  // namespace qnn

int main(int argc, char** argv) {
  // --conv-datapath-only: skip the microbenchmarks and the executor
  // ablation, run just the conv datapath ablation (PERF=1 tools/check.sh
  // replays its committed BENCH_kernels.json baseline against this).
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--conv-datapath-only") == 0) {
      return qnn::run_conv_datapath_ablation();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return qnn::run_executor_ablation();
}
