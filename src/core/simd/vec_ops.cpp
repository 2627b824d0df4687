// Scalar reference implementation + runtime dispatch for the vec_ops seam.
#include "core/simd/vec_ops.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/error.h"
#include "core/simd/vec_ops_impl.h"

namespace qnn::simd {
namespace {

// ------------------------------------------------------------------ scalar

std::uint64_t popcount_scalar(const Word* a, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::uint64_t>(qnn::popcount(a[i]));
  }
  return total;
}

/// The reference: one filter lane at a time, the formula as written.
void dot_window_scalar(const Word* planes, int plane_count, std::size_t n,
                       const Word* w, std::size_t groups, std::int32_t* out) {
  QNN_DCHECK(plane_count >= 1 && plane_count <= kMaxPlanes,
             "dot_window plane count out of range");
  std::int64_t pops[kMaxPlanes] = {};
  for (int p = 0; p < plane_count; ++p) {
    pops[p] = static_cast<std::int64_t>(
        popcount_scalar(planes + static_cast<std::size_t>(p) * n, n));
  }
  for (std::size_t g = 0; g < groups; ++g) {
    const Word* wg = w + g * n * kFilterLanes;
    for (std::size_t lane = 0; lane < kFilterLanes; ++lane) {
      std::int64_t dot = 0;
      for (int p = 0; p < plane_count; ++p) {
        const Word* a = planes + static_cast<std::size_t>(p) * n;
        std::int64_t on = 0;
        for (std::size_t i = 0; i < n; ++i) {
          on += qnn::popcount(wg[i * kFilterLanes + lane] & a[i]);
        }
        dot += (2 * on - pops[p]) << p;
      }
      out[g * kFilterLanes + lane] = static_cast<std::int32_t>(dot);
    }
  }
}

/// The reference: one value at a time, every comparison counted.
void threshold_codes_scalar(const ThresholdRows& table, const std::int32_t* in,
                            std::size_t n, std::size_t phase,
                            std::int32_t* out) {
  QNN_DCHECK(phase < table.channels, "threshold phase out of range");
  const std::size_t stride = table.stride();
  std::size_t c = phase;
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(table.sign[c]) *
        static_cast<std::uint32_t>(in[i]));
    std::int32_t code = 0;
    for (std::size_t a = 0; a < table.levels; ++a) {
      code += v >= table.t[a * stride + c] ? 1 : 0;
    }
    out[i] = code;
    c = c + 1 == table.channels ? 0 : c + 1;
  }
}

constexpr VecOps kScalarOps{Level::kScalar, "scalar", popcount_scalar,
                            dot_window_scalar, threshold_codes_scalar};

// ---------------------------------------------------------------- dispatch

/// Table slot per level; nullptr = compiled out or CPU-unsupported.
const VecOps* level_table(Level level) {
  switch (level) {
    case Level::kScalar:
      return &kScalarOps;
    case Level::kAvx2:
      return detail::cpu_has_avx2() ? detail::avx2_ops() : nullptr;
    case Level::kAvx512:
      return detail::cpu_has_avx512_popcnt() ? detail::avx512_ops() : nullptr;
  }
  return nullptr;
}

/// Widest available level <= `want`.
const VecOps* clamp_down(Level want) {
  for (int l = static_cast<int>(want); l >= 0; --l) {
    if (const VecOps* ops = level_table(static_cast<Level>(l))) return ops;
  }
  return &kScalarOps;  // unreachable: kScalar is always present
}

/// Resolve the QNN_SIMD environment request (nullptr/"auto" = widest).
const VecOps* env_dispatch() {
  const char* env = std::getenv("QNN_SIMD");
  Level want = Level::kAvx512;  // auto: widest compiled+supported
  if (env != nullptr && *env != '\0' && std::strcmp(env, "auto") != 0) {
    if (std::strcmp(env, "scalar") == 0) {
      want = Level::kScalar;
    } else if (std::strcmp(env, "avx2") == 0) {
      want = Level::kAvx2;
    } else if (std::strcmp(env, "avx512") == 0) {
      want = Level::kAvx512;
    } else {
      std::fprintf(stderr,
                   "qnn: unknown QNN_SIMD=%s (want auto|avx512|avx2|scalar); "
                   "using auto\n",
                   env);
    }
    const VecOps* got = clamp_down(want);
    if (got->level != want) {
      std::fprintf(stderr,
                   "qnn: QNN_SIMD=%s unavailable on this host/build; "
                   "using %s\n",
                   env, got->name);
    }
    return got;
  }
  return clamp_down(want);
}

/// Explicit override (tests/bench); nullptr = follow env/auto.
std::atomic<const VecOps*> g_override{nullptr};

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "?";
}

std::vector<Level> available_levels() {
  std::vector<Level> out;
  for (const Level l : {Level::kScalar, Level::kAvx2, Level::kAvx512}) {
    if (level_table(l) != nullptr) out.push_back(l);
  }
  return out;
}

const VecOps& vec_ops() {
  if (const VecOps* forced = g_override.load(std::memory_order_acquire)) {
    return *forced;
  }
  // The env/CPUID resolution is stable for the process; cache it.
  static const VecOps* const resolved = env_dispatch();
  return *resolved;
}

const VecOps& vec_ops_at(Level level) {
  const VecOps* ops = level_table(level);
  QNN_CHECK(ops != nullptr,
            std::string("SIMD level '") + level_name(level) +
                "' is not available on this host/build");
  return *ops;
}

void set_level(std::optional<Level> level) {
  g_override.store(level ? &vec_ops_at(*level) : nullptr,
                   std::memory_order_release);
}

}  // namespace qnn::simd
