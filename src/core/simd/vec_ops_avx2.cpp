// AVX2 path: vpshufb nibble-LUT popcount (the classic Mula kernel) summed
// per 64-bit lane with vpsadbw. Built with a per-function target attribute
// so the TU compiles under the generic -march; the dispatcher only hands
// these functions out after a CPUID check.
#include "core/simd/vec_ops_impl.h"

#if defined(__x86_64__) && defined(QNN_SIMD_AVX2)

#include <immintrin.h>

#include <array>
#include <utility>

#include "core/error.h"

namespace qnn::simd::detail {
namespace {

__attribute__((target("avx2"))) inline __m256i popcount_bytes(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

__attribute__((target("avx2"))) inline std::uint64_t hsum_epi64(__m256i v) {
  Word lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

__attribute__((target("avx2"))) std::uint64_t popcount_avx2(const Word* a,
                                                            std::size_t n) {
  __m256i total = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    total = _mm256_add_epi64(
        total, _mm256_sad_epu8(popcount_bytes(v), _mm256_setzero_si256()));
  }
  std::uint64_t t = hsum_epi64(total);
  for (; i < n; ++i) {
    t += static_cast<std::uint64_t>(qnn::popcount(a[i]));
  }
  return t;
}

/// dot_window for a fixed plane count P. A group of 8 filters is two ymm
/// of 4 filter lanes each; vpsadbw leaves each 64-bit lane's popcount in
/// that lane, so the per-plane accumulators are per-filter with no
/// horizontal sum.
template <int P>
__attribute__((target("avx2"))) void dot_window_avx2_p(const Word* planes,
                                                        std::size_t n,
                                                        const Word* w,
                                                        std::size_t groups,
                                                        std::int32_t* out) {
  // sum_p popcount(plane_p) << p is the same for every filter.
  std::int64_t bias = 0;
  for (int p = 0; p < P; ++p) {
    bias += static_cast<std::int64_t>(
                popcount_avx2(planes + static_cast<std::size_t>(p) * n, n))
            << p;
  }
  const __m256i vbias = _mm256_set1_epi64x(bias);
  const __m256i zero = _mm256_setzero_si256();
  // Picks the low 32 bits of each 64-bit lane into the low 128 bits.
  const __m256i narrow = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  for (std::size_t g = 0; g < groups; ++g) {
    const Word* wg = w + g * n * kFilterLanes;
    __m256i lo[P];
    __m256i hi[P];
#pragma GCC unroll 16
    for (int p = 0; p < P; ++p) lo[p] = hi[p] = zero;
    for (std::size_t i = 0; i < n; ++i) {
      const Word* wi = wg + i * kFilterLanes;
      const __m256i w0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wi));
      const __m256i w1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wi + 4));
#pragma GCC unroll 16
      for (int p = 0; p < P; ++p) {
        const __m256i a = _mm256_set1_epi64x(static_cast<long long>(
            planes[static_cast<std::size_t>(p) * n + i]));
        lo[p] = _mm256_add_epi64(
            lo[p], _mm256_sad_epu8(popcount_bytes(_mm256_and_si256(w0, a)),
                                   zero));
        hi[p] = _mm256_add_epi64(
            hi[p], _mm256_sad_epu8(popcount_bytes(_mm256_and_si256(w1, a)),
                                   zero));
      }
    }
    // 2 * sum_p on_p << p by Horner from the top plane, then the bias.
    __m256i dot_lo = zero;
    __m256i dot_hi = zero;
#pragma GCC unroll 16
    for (int p = P - 1; p >= 0; --p) {
      dot_lo = _mm256_add_epi64(_mm256_add_epi64(dot_lo, dot_lo), lo[p]);
      dot_hi = _mm256_add_epi64(_mm256_add_epi64(dot_hi, dot_hi), hi[p]);
    }
    dot_lo = _mm256_sub_epi64(_mm256_add_epi64(dot_lo, dot_lo), vbias);
    dot_hi = _mm256_sub_epi64(_mm256_add_epi64(dot_hi, dot_hi), vbias);
    std::int32_t* o = out + g * kFilterLanes;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o),
                     _mm256_castsi256_si128(
                         _mm256_permutevar8x32_epi32(dot_lo, narrow)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o + 4),
                     _mm256_castsi256_si128(
                         _mm256_permutevar8x32_epi32(dot_hi, narrow)));
  }
}

using DotWindowP = void (*)(const Word*, std::size_t, const Word*,
                            std::size_t, std::int32_t*);

template <std::size_t... I>
constexpr std::array<DotWindowP, sizeof...(I)> dot_window_table(
    std::index_sequence<I...> /*unused*/) {
  return {&dot_window_avx2_p<static_cast<int>(I) + 1>...};
}

constexpr auto kDotWindowByPlanes =
    dot_window_table(std::make_index_sequence<kMaxPlanes>{});

void dot_window_avx2(const Word* planes, int plane_count, std::size_t n,
                     const Word* w, std::size_t groups, std::int32_t* out) {
  QNN_DCHECK(plane_count >= 1 && plane_count <= kMaxPlanes,
             "dot_window plane count out of range");
  kDotWindowByPlanes[static_cast<std::size_t>(plane_count - 1)](planes, n, w,
                                                                groups, out);
}

/// Codes of 8 values whose first lane sits at channel phase c: vpsignd
/// applies the {+1, -1, 0} channel multiplier, and each level adds its
/// compare mask (-1 where the threshold lies above the value), so levels
/// plus the sum is #{t <= v}.
__attribute__((target("avx2"))) inline __m256i threshold_block(
    const ThresholdRows& table, __m256i in, std::size_t c) {
  const __m256i v = _mm256_sign_epi32(
      in, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(table.sign + c)));
  __m256i above = _mm256_setzero_si256();
  const std::int32_t* t = table.t + c;
  for (std::size_t a = 0; a < table.levels; ++a, t += table.stride()) {
    above = _mm256_add_epi32(
        above, _mm256_cmpgt_epi32(
                   _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t)), v));
  }
  return _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<std::int32_t>(table.levels)), above);
}

/// threshold_codes, 8 values per ymm; the tail block loads and stores
/// under a lane mask.
__attribute__((target("avx2"))) void threshold_codes_avx2(
    const ThresholdRows& table, const std::int32_t* in, std::size_t n,
    std::size_t phase, std::int32_t* out) {
  QNN_DCHECK(phase < table.channels, "threshold phase out of range");
  constexpr std::size_t kLanes = 8;
  const std::size_t step = kLanes % table.channels;
  std::size_t c = phase;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        threshold_block(table,
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(in + i)),
                        c));
    c += step;
    if (c >= table.channels) c -= table.channels;
  }
  if (i < n) {
    const __m256i live = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<std::int32_t>(n - i)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    _mm256_maskstore_epi32(
        out + i, live,
        threshold_block(table, _mm256_maskload_epi32(in + i, live), c));
  }
}

constexpr VecOps kAvx2Ops{Level::kAvx2, "avx2", popcount_avx2,
                          dot_window_avx2, threshold_codes_avx2};

}  // namespace

const VecOps* avx2_ops() { return &kAvx2Ops; }

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }

}  // namespace qnn::simd::detail

#else  // compiled out

namespace qnn::simd::detail {
const VecOps* avx2_ops() { return nullptr; }
bool cpu_has_avx2() { return false; }
}  // namespace qnn::simd::detail

#endif
