// Benchmark entry point: one workload, one seed, one result line.
//
//   qnn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--git-rev <rev>] [--trace-file <path>]
//
// Prints a run header line, a detail line and, last, the result object
// {"correct", "attempted", "failed", "metrics"}. Exits non-zero without a
// result line when the run cannot be made as specified.
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/simd/vec_ops.h"

namespace {

constexpr const char* kUsage =
    "usage: qnn_perfbench --workload <name> --seed <n> --seconds <s> "
    "--trace <0|1> [--git-rev <rev>] [--trace-file <path>]\n";

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

/// Median wall time, in ms, of five runs of a fixed integer loop that
/// calls nothing in the library: the host's single-core speed at that
/// moment, so runs made at different times can be compared. The shared
/// hosts this benchmark runs on change speed by up to 30% over minutes.
double host_probe_ms() {
  std::vector<double> ms;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint64_t acc = 0;
    for (int i = 0; i < 2'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<std::uint64_t>(std::popcount(x));
    }
    volatile std::uint64_t sink = acc;
    (void)sink;
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  return qnn::bench::median(std::move(ms));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qnn::bench;
  RunOptions opt;
  std::string git_rev = "unknown";
  bool have_workload = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = value == "1";
      } else if (key == "--git-rev") {
        git_rev = value;
      } else if (key == "--trace-file") {
        opt.trace_file = value;
      } else {
        std::fputs(kUsage, stderr);
        return 2;
      }
    }
  } catch (const std::exception&) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (argc % 2 == 0 || !have_workload || !(opt.seconds > 0.0)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (!kOptimized) {
    std::fputs("refusing to run: the benchmark was built without "
               "optimization\n", stderr);
    return 2;
  }
  if (std::getenv("QNN_PLAN_CACHE") != nullptr) {
    std::fputs("refusing to run: QNN_PLAN_CACHE is set, so setup_s would "
               "not be a cold compile\n", stderr);
    return 2;
  }

  const double probe_start_ms = host_probe_ms();
  RunResult result;
  try {
    result = run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }

  std::printf(
      "{\"header\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%.17g,"
      "\"trace\":%d,\"nproc\":%u,\"simd\":\"%s\",\"optimized\":%s,"
      "\"ndebug\":%s,\"build_type\":\"%s\",\"git_rev\":\"%s\","
      "\"engines\":%d,\"workers_per_engine\":%u,\"engine_workers\":%u,"
      "\"host_probe_ms\":[%.4f,%.4f]}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0,
      std::thread::hardware_concurrency(), qnn::simd::vec_ops().name,
      kOptimized ? "true" : "false", kNdebug ? "true" : "false",
      QNN_BENCH_BUILD_TYPE, git_rev.c_str(), result.engines,
      result.workers_per_engine,
      result.workers_per_engine * static_cast<unsigned>(result.engines),
      probe_start_ms, host_probe_ms());

  std::string detail = "{\"detail\":{";
  for (const auto& [name, value] : result.detail) {
    if (detail.back() != '{') detail += ',';
    detail += "\"" + name + "\":" + value;
  }
  std::printf("%s}}\n", detail.c_str());

  std::string metrics;
  for (const auto& [name, m] : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "benchmark failed: metric %s is not finite\n",
                   name.c_str());
      return 1;
    }
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (!metrics.empty()) metrics += ',';
    metrics += "\"" + name + "\":{\"value\":" + value + ",\"unit\":\"" +
               m.unit + "\"}";
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
