// Microbenchmarks (google-benchmark) of the hot computational primitives:
// the XNOR-popcount datapath vs a scalar reference, the folded threshold
// activation vs the float BatchNorm + quantizer path, the window scanner,
// the SPSC stream, and a small end-to-end streaming inference.
//
// After the google-benchmark suite, main() measures the executor on a
// shallow (8-kernel) and a deep (>= 50-kernel) chain: the median of
// several in-process repeats of serving-shaped runs. Results land in
// BENCH_executor.json (in $QNN_CSV_DIR, else the bench's build directory,
// like the other benches); tools/bench_gate.py holds them to absolute
// floors under `PERF=1 tools/check.sh`. Pass `--benchmark_filter=__none__`
// to skip the microbenchmarks and run the executor measurement alone;
// `--conv-datapath-only` runs the conv datapath measurement
// (BENCH_kernels.json) alone.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/bitplanes.h"
#include "core/bitvector.h"
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
    // One value per transaction on each side, retrying while the ring is
    // full or empty: the SPSC handoff cost itself.
    std::thread consumer([&] {
      std::int32_t v = 0;
      for (;;) {
        if (s.try_pop_burst({&v, 1}) == 1) {
          benchmark::DoNotOptimize(v);
        } else if (s.drained()) {
          break;
        } else {
          std::this_thread::yield();
        }
      }
    });
    for (std::int32_t i = 0; i < n; ++i) {
      while (s.try_push_burst({&i, 1}) == 0) std::this_thread::yield();
    }
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

// ---- executor measurement ------------------------------------------------

namespace {

/// A straight chain of `convs` (conv + bnact) pairs plus a dense head:
/// 2*convs + 1 + (bn_act ? 1 : 0) kernels once expanded. convs=3 with a
/// bn-act head gives the shallow 8-kernel chain; convs=26 without gives
/// the deep 53-kernel chain, where only a few kernels are runnable at once.
NetworkSpec ablation_chain(const char* name, int convs, bool dense_bn) {
  NetworkSpec spec;
  spec.name = name;
  spec.input = Shape{8, 8, 2};
  for (int i = 0; i < convs; ++i) spec.conv(2, 3, 1, 1);
  spec.dense(3, dense_bn);
  return spec;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

void write_list(std::ostream& js, const std::vector<double>& xs) {
  js << "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    js << (i == 0 ? "" : ", ") << xs[i];
  }
  js << "]";
}

/// Images/second of `repeats` timed windows on one engine (default
/// options: a pool as wide as the machine, adaptive bursts), each window
/// `reps` passes over the requests.
std::vector<double> executor_ips(
    const Pipeline& p, const NetworkParams& params,
    const std::vector<std::vector<IntTensor>>& requests, int reps,
    int repeats) {
  StreamEngine engine(p, params);
  (void)engine.run(requests.front());  // warm-up, untimed
  std::vector<double> ips;
  for (int r = 0; r < repeats; ++r) {
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
    ips.push_back(images / elapsed.count());
  }
  return ips;
}

}  // namespace

int run_executor_measurement() {
  constexpr int kReps = 25;     // 100 single-image runs per window
  constexpr int kRepeats = 7;   // windows per chain; the median is gated
  struct Chain {
    const char* name;
    NetworkSpec spec;
  };
  const Chain chains[] = {
      {"shallow", ablation_chain("shallow_chain", 3, true)},
      {"deep", ablation_chain("deep_chain", 26, false)},
  };

  const unsigned workers = std::max(1u, std::thread::hardware_concurrency());
  std::ostringstream js;
  js << "{\n  \"repeats\": " << kRepeats << ",\n  \"chains\": [\n";
  std::cout << "\nexecutor (ready queue, adaptive bursts, median of "
            << kRepeats << " windows)\n";
  for (std::size_t c = 0; c < std::size(chains); ++c) {
    const Chain& chain = chains[c];
    const Pipeline p = expand(chain.spec);
    const NetworkParams params = NetworkParams::random(p, 7);
    Rng rng(11);
    // Serving-shaped requests: one image per run() call, as the serve/
    // replicas issue them. This exposes the per-run host overhead (waking
    // the parked pool, binding the readiness seam) on top of steady-state
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
    const std::vector<double> ips =
        executor_ips(p, params, requests, kReps, kRepeats);
    const double med = median(ips);
    // The executor clamps its pool to the cores and to the task count
    // (kernels + feeder + collector).
    const std::size_t pool =
        std::min<std::size_t>(workers, static_cast<std::size_t>(p.size()) + 2);
    std::cout << "  " << chain.name << " (" << p.size() << " kernels, "
              << pool << " workers): median " << med << " images/s\n";
    js << "    {\"chain\": \"" << chain.name
       << "\", \"kernels\": " << p.size() << ", \"workers\": " << pool
       << ", \"median_images_per_second\": " << med
       << ", \"images_per_second\": ";
    write_list(js, ips);
    js << "}" << (c + 1 < std::size(chains) ? "," : "") << "\n";
  }
  js << "  ]\n}\n";
  std::cout << js.str();
  bench::write_json("BENCH_executor.json", js.str());
  return 0;
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

/// Median images/second of one conv node at each dispatch arm: the
/// packed datapath with the scalar word loop, and with the widest SIMD.
using CellIps = std::array<double, 2>;

CellIps measure_cell(const Node& n, std::uint64_t seed, int warmup,
                     int images, int repeats, simd::Level best,
                     const std::string& label) {
  Rng rng(seed);
  const FilterBank fb = FilterBank::random(n.filter_shape(), rng);
  std::vector<std::int32_t> img(static_cast<std::size_t>(n.in.elems()));
  for (auto& v : img) {
    v = static_cast<std::int32_t>(
        rng.next_below(std::uint64_t{1} << n.in_bits));
  }
  struct Arm {
    const char* label;
    simd::Level level;
  };
  const Arm arms[] = {
      {"packed", simd::Level::kScalar},
      {"packed+simd", best},
  };
  CellIps ips{};
  for (std::size_t a = 0; a < std::size(arms); ++a) {
    simd::set_level(arms[a].level);
    (void)conv_datapath_ips(n, fb, img, warmup);  // untimed
    std::vector<double> runs;
    for (int r = 0; r < repeats; ++r) {
      runs.push_back(conv_datapath_ips(n, fb, img, images));
    }
    ips[a] = median(runs);
    std::cout << "  " << label << ", " << arms[a].label << ": " << ips[a]
              << " images/s\n";
  }
  simd::set_level(std::nullopt);
  return ips;
}

void write_cell_ips(std::ostream& js, const CellIps& ips) {
  js << "\"packed_scalar_ips\": " << ips[0]
     << ", \"packed_simd_ips\": " << ips[1]
     << ", \"simd_vs_scalar\": " << ips[1] / ips[0];
}

}  // namespace

/// The conv inner datapath at two dispatch levels — packed incremental
/// line buffers with the scalar word loop vs the widest SIMD — on one
/// mid-network conv per activation width and on the paper networks' first
/// layers. Each arm is the median of several timed repeats.
/// tools/bench_gate.py holds packed+SIMD to an absolute floor per cell and
/// the geomean SIMD/scalar ratio of the mid-network cells to a bar.
/// Writes BENCH_kernels.json.
int run_conv_datapath_ablation() {
  constexpr int kImages = 8;
  constexpr int kRepeats = 5;
  // A mid-network conv at paper scale: 3x3x64 -> 64 puts 576 bits (9
  // words) in each bit-plane window, enough for the word-granular inner
  // loop to matter. Tiny-channel layers are covered by the test suite.
  const Shape in{16, 16, 64};
  const int out_c = 64;
  const int bits_list[] = {1, 2, 8};
  // The first convs of ResNet-18@224 and AlexNet@224 at their 8-bit input:
  // few words per plane, many windows. They set the pace of those networks
  // on the live engine.
  struct FirstLayer {
    const char* name;
    Node node;
  };
  const FirstLayer first_layers[] = {
      {"resnet18_conv_0", ablation_conv({224, 224, 3}, 64, 7, 2, 3, 8)},
      {"alexnet_conv_0", ablation_conv({224, 224, 3}, 96, 11, 4, 2, 8)},
  };

  const simd::Level best = simd::available_levels().back();
  std::cout << "\nconv datapath (single kernel, cooperative single-thread "
               "drive, median of "
            << kRepeats << " repeats; host best simd: "
            << simd::level_name(best) << ")\n";
  std::ostringstream js;
  js << "{\n  \"host_best_simd\": \"" << simd::level_name(best)
     << "\",\n  \"repeats\": " << kRepeats << ",\n  \"cells\": [\n";
  double log_sum = 0.0;
  for (std::size_t b = 0; b < std::size(bits_list); ++b) {
    const int bits = bits_list[b];
    const CellIps c = measure_cell(
        ablation_conv(in, out_c, 3, 1, 1, bits),
        21 + static_cast<std::uint64_t>(bits), 2, kImages, kRepeats, best,
        "in_bits=" + std::to_string(bits));
    log_sum += std::log(c[1] / c[0]);
    js << "    {\"name\": \"in_bits_" << bits << "\", \"in_bits\": " << bits
       << ", ";
    write_cell_ips(js, c);
    js << "},\n";
  }
  for (std::size_t i = 0; i < std::size(first_layers); ++i) {
    const FirstLayer& fl = first_layers[i];
    const CellIps c =
        measure_cell(fl.node, 31 + i, 1, 2, kRepeats, best, fl.name);
    js << "    {\"name\": \"" << fl.name << "\", \"in_bits\": "
       << fl.node.in_bits << ", ";
    write_cell_ips(js, c);
    js << "}" << (i + 1 < std::size(first_layers) ? "," : "") << "\n";
  }
  const double geomean =
      std::exp(log_sum / static_cast<double>(std::size(bits_list)));
  js << "  ],\n  \"geomean_simd_vs_scalar\": " << geomean << "\n}\n";
  std::cout << "packed+simd vs packed (scalar dispatch) geomean: " << geomean
            << "x\n"
            << js.str();
  bench::write_json("BENCH_kernels.json", js.str());
  return 0;
}

}  // namespace qnn

int main(int argc, char** argv) {
  // --conv-datapath-only: skip the microbenchmarks and the executor
  // measurement, run just the conv datapath measurement (PERF=1
  // tools/check.sh gates its BENCH_kernels.json with tools/bench_gate.py).
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--conv-datapath-only") == 0) {
      return qnn::run_conv_datapath_ablation();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return qnn::run_executor_measurement();
}
