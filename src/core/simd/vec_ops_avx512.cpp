// AVX-512 path: vpopcntdq counts 64 bits per lane in one instruction —
// popcount bandwidth is the whole game for binary conv, per FINN/XNORBIN.
// dot_window gives each of the 8 lanes of a zmm its own filter, so a group
// of 8 filters is one load per weight word and no horizontal sum is ever
// needed; threshold_codes gives each of 16 lanes its own value. The
// popcount tail uses a masked load; its horizontal sum avoids
// _mm512_reduce_add_epi64, whose gcc-12 header trips -Wuninitialized under
// -Werror.
#include "core/simd/vec_ops_impl.h"

#if defined(__x86_64__) && defined(QNN_SIMD_AVX512)

#include <immintrin.h>

#include <array>
#include <utility>

#include "core/error.h"

namespace qnn::simd::detail {
namespace {

#define QNN_AVX512_TARGET target("avx512f,avx512vpopcntdq")

__attribute__((QNN_AVX512_TARGET)) inline std::uint64_t hsum_epi64(
    __m512i v) {
  Word lanes[8];
  _mm512_storeu_si512(lanes, v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] + lanes[5] +
         lanes[6] + lanes[7];
}

__attribute__((QNN_AVX512_TARGET)) std::uint64_t popcount_avx512(
    const Word* a, std::size_t n) {
  __m512i total = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    total = _mm512_add_epi64(total,
                             _mm512_popcnt_epi64(_mm512_loadu_si512(a + i)));
  }
  if (i < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    total = _mm512_add_epi64(
        total, _mm512_popcnt_epi64(_mm512_maskz_loadu_epi64(tail, a + i)));
  }
  return hsum_epi64(total);
}

/// dot_window for a fixed plane count P, so the P per-plane popcount
/// accumulators of a filter group stay in registers across the word loop.
template <int P>
__attribute__((QNN_AVX512_TARGET)) void dot_window_avx512_p(
    const Word* planes, std::size_t n, const Word* w, std::size_t groups,
    std::int32_t* out) {
  // sum_p popcount(plane_p) << p is the same for every filter.
  std::int64_t bias = 0;
  for (int p = 0; p < P; ++p) {
    bias += static_cast<std::int64_t>(
                popcount_avx512(planes + static_cast<std::size_t>(p) * n, n))
            << p;
  }
  const __m512i vbias = _mm512_set1_epi64(bias);
  for (std::size_t g = 0; g < groups; ++g) {
    const Word* wg = w + g * n * kFilterLanes;
    __m512i on[P];
#pragma GCC unroll 16
    for (int p = 0; p < P; ++p) on[p] = _mm512_setzero_si512();
    for (std::size_t i = 0; i < n; ++i) {
      const __m512i wv = _mm512_loadu_si512(wg + i * kFilterLanes);
#pragma GCC unroll 16
      for (int p = 0; p < P; ++p) {
        const __m512i a = _mm512_set1_epi64(static_cast<long long>(
            planes[static_cast<std::size_t>(p) * n + i]));
        on[p] = _mm512_add_epi64(
            on[p], _mm512_popcnt_epi64(_mm512_and_si512(wv, a)));
      }
    }
    // 2 * sum_p on_p << p by Horner from the top plane, then the bias.
    __m512i dot = _mm512_setzero_si512();
#pragma GCC unroll 16
    for (int p = P - 1; p >= 0; --p) {
      dot = _mm512_add_epi64(_mm512_add_epi64(dot, dot), on[p]);
    }
    dot = _mm512_sub_epi64(_mm512_add_epi64(dot, dot), vbias);
    _mm512_mask_cvtepi64_storeu_epi32(out + g * kFilterLanes, 0xff, dot);
  }
}

using DotWindowP = void (*)(const Word*, std::size_t, const Word*,
                            std::size_t, std::int32_t*);

template <std::size_t... I>
constexpr std::array<DotWindowP, sizeof...(I)> dot_window_table(
    std::index_sequence<I...> /*unused*/) {
  return {&dot_window_avx512_p<static_cast<int>(I) + 1>...};
}

constexpr auto kDotWindowByPlanes =
    dot_window_table(std::make_index_sequence<kMaxPlanes>{});

void dot_window_avx512(const Word* planes, int plane_count, std::size_t n,
                       const Word* w, std::size_t groups, std::int32_t* out) {
  QNN_DCHECK(plane_count >= 1 && plane_count <= kMaxPlanes,
             "dot_window plane count out of range");
  kDotWindowByPlanes[static_cast<std::size_t>(plane_count - 1)](planes, n, w,
                                                                groups, out);
}

/// threshold_codes, 16 values per zmm: the block's channel phase picks one
/// contiguous 16-entry span of every table row, so each comparison level
/// is a load, a compare into a mask and a masked increment. The tail block
/// is the same code under a lane mask.
__attribute__((QNN_AVX512_TARGET)) void threshold_codes_avx512(
    const ThresholdRows& table, const std::int32_t* in, std::size_t n,
    std::size_t phase, std::int32_t* out) {
  QNN_DCHECK(phase < table.channels, "threshold phase out of range");
  const std::size_t stride = table.stride();
  const std::size_t step = kThresholdLanes % table.channels;
  const __m512i one = _mm512_set1_epi32(1);
  std::size_t c = phase;
  for (std::size_t i = 0; i < n; i += kThresholdLanes) {
    const __mmask16 live =
        n - i >= kThresholdLanes
            ? static_cast<__mmask16>(0xffff)
            : static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512i v =
        _mm512_mullo_epi32(_mm512_loadu_si512(table.sign + c),
                           _mm512_maskz_loadu_epi32(live, in + i));
    __m512i code = _mm512_setzero_si512();
    const std::int32_t* t = table.t + c;
    for (std::size_t a = 0; a < table.levels; ++a, t += stride) {
      code = _mm512_mask_add_epi32(
          code, _mm512_cmpge_epi32_mask(v, _mm512_loadu_si512(t)), code, one);
    }
    _mm512_mask_storeu_epi32(out + i, live, code);
    c += step;
    if (c >= table.channels) c -= table.channels;
  }
}

#undef QNN_AVX512_TARGET

constexpr VecOps kAvx512Ops{Level::kAvx512, "avx512", popcount_avx512,
                            dot_window_avx512, threshold_codes_avx512};

}  // namespace

const VecOps* avx512_ops() { return &kAvx512Ops; }

bool cpu_has_avx512_popcnt() {
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512vpopcntdq") != 0;
}

}  // namespace qnn::simd::detail

#else  // compiled out

namespace qnn::simd::detail {
const VecOps* avx512_ops() { return nullptr; }
bool cpu_has_avx512_popcnt() { return false; }
}  // namespace qnn::simd::detail

#endif
