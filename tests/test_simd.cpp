// vec_ops seam: every compiled+supported SIMD level must agree bit-exactly
// with the scalar reference on random word buffers, including lengths that
// exercise every tail-handling path (0, sub-block, block-multiple, and
// block+tail) and filter counts that leave the last filter group partly
// padded. Also pins the dispatch contract: kScalar is always present,
// and set_level overrides whatever auto/env dispatch picked.
#include "core/simd/vec_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/bitops.h"
#include "core/bitvector.h"
#include "core/packed_planes.h"
#include "core/rng.h"

namespace qnn {
namespace {

std::vector<Word> random_words(std::size_t n, Rng& rng) {
  std::vector<Word> v(n);
  for (auto& w : v) w = rng.next_u64();
  return v;
}

TEST(VecOps, ScalarAlwaysAvailable) {
  const auto levels = simd::available_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::Level::kScalar);
  EXPECT_STREQ(simd::vec_ops_at(simd::Level::kScalar).name, "scalar");
  // The dispatched table is one of the available levels.
  const auto& ops = simd::vec_ops();
  EXPECT_TRUE(std::find(levels.begin(), levels.end(), ops.level) !=
              levels.end());
}

TEST(VecOps, LevelNames) {
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx512), "avx512");
}

TEST(VecOps, SetLevelOverridesDispatch) {
  for (const simd::Level level : simd::available_levels()) {
    simd::set_level(level);
    EXPECT_EQ(simd::vec_ops().level, level);
  }
  simd::set_level(std::nullopt);
  const auto levels = simd::available_levels();
  EXPECT_TRUE(std::find(levels.begin(), levels.end(),
                        simd::vec_ops().level) != levels.end());
}

// Lengths covering empty, scalar tails, exact SIMD blocks (4 words for
// AVX2, 8 for AVX-512), and block+tail combinations.
constexpr std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31};

TEST(VecOps, PopcountMatchesScalarAtEveryLevel) {
  const auto& scalar = simd::vec_ops_at(simd::Level::kScalar);
  Rng rng(0xabc1);
  for (const simd::Level level : simd::available_levels()) {
    const auto& ops = simd::vec_ops_at(level);
    for (const std::size_t n : kLengths) {
      for (int trial = 0; trial < 8; ++trial) {
        const auto a = random_words(n, rng);
        EXPECT_EQ(ops.popcount(a.data(), n), scalar.popcount(a.data(), n))
            << simd::level_name(level) << " n=" << n;
      }
    }
  }
}

/// `filters` random sign-bit vectors of n full words each, grouped the way
/// dot_window reads them (tail group zero-padded by PackedFilters).
PackedFilters random_filters(std::size_t n, int filters, Rng& rng,
                             std::vector<BitVector>& bank) {
  PackedFilters packed(static_cast<std::int64_t>(n) * kWordBits, filters);
  bank.assign(static_cast<std::size_t>(filters),
              BitVector(static_cast<std::int64_t>(n) * kWordBits));
  for (int f = 0; f < filters; ++f) {
    auto& bits = bank[static_cast<std::size_t>(f)];
    for (std::size_t i = 0; i < n; ++i) {
      bits.word(static_cast<std::int64_t>(i)) = rng.next_u64();
    }
    packed.set(f, bits);
  }
  return packed;
}

TEST(VecOps, DotWindowMatchesScalarAtEveryLevel) {
  const auto& scalar = simd::vec_ops_at(simd::Level::kScalar);
  Rng rng(0xabc3);
  std::vector<std::size_t> lengths(std::begin(kLengths), std::end(kLengths));
  lengths.push_back(72);   // 3x3x512 window: 72 words per plane
  lengths.push_back(144);  // AlexNet's dense layers: 144 words per plane
  std::vector<BitVector> bank;
  for (const int planes : {1, 2, 8, 16}) {
    for (const std::size_t n : lengths) {
      if (n == 0) continue;  // a window holds at least one value
      const auto a = random_words(static_cast<std::size_t>(planes) * n, rng);
      for (const int filters : {1, 7, 8, 9, 64, 96}) {
        const PackedFilters w = random_filters(n, filters, rng, bank);
        const std::size_t outs = w.groups() * simd::kFilterLanes;
        std::vector<std::int32_t> expect(outs);
        scalar.dot_window(a.data(), planes, n, w.data(), w.groups(),
                          expect.data());
        // The scalar lanes are the per-filter bit-plane dot itself.
        for (int f = 0; f < filters; ++f) {
          std::int64_t dot = 0;
          for (int p = 0; p < planes; ++p) {
            const Word* ap = a.data() + static_cast<std::size_t>(p) * n;
            std::int64_t on = 0;
            std::int64_t pop_a = 0;
            for (std::size_t i = 0; i < n; ++i) {
              on += popcount(bank[static_cast<std::size_t>(f)].word(
                                 static_cast<std::int64_t>(i)) &
                             ap[i]);
              pop_a += popcount(ap[i]);
            }
            dot += (2 * on - pop_a) << p;
          }
          ASSERT_EQ(expect[static_cast<std::size_t>(f)],
                    static_cast<std::int32_t>(dot))
              << "planes=" << planes << " n=" << n << " f=" << f;
        }
        for (const simd::Level level : simd::available_levels()) {
          std::vector<std::int32_t> got(outs, 1000);
          simd::vec_ops_at(level).dot_window(a.data(), planes, n, w.data(),
                                             w.groups(), got.data());
          ASSERT_EQ(got, expect)
              << simd::level_name(level) << " planes=" << planes
              << " n=" << n << " filters=" << filters;
        }
      }
    }
  }
}

TEST(VecOps, DotWindowImplementsPm1PlaneSum) {
  // out[f] = sum_p (2*popcount(w_f & plane_p) - popcount(plane_p)) << p,
  // the XNOR-popcount dot over bit-planes (§III-B1), one lane per filter.
  const std::vector<Word> planes = {0b1011, 0, 0b0001, 0};  // 2 planes x 2
  std::vector<Word> w(2 * simd::kFilterLanes, 0);
  w[0] = 0b0011;  // f0 word 0
  w[1] = ~Word{0};  // f1 word 0
  w[simd::kFilterLanes + 1] = ~Word{0};  // f1 word 1
  for (const simd::Level level : simd::available_levels()) {
    std::vector<std::int32_t> out(simd::kFilterLanes);
    simd::vec_ops_at(level).dot_window(planes.data(), 2, 2, w.data(), 1,
                                       out.data());
    // f0: plane 0 on=2, pop=3 -> 1; plane 1 on=1, pop=1 -> (2-1)<<1 = 2.
    EXPECT_EQ(out[0], 3) << simd::level_name(level);
    // f1: plane 0 on=3 -> 3; plane 1 on=1 -> 2.
    EXPECT_EQ(out[1], 5) << simd::level_name(level);
    // An all-zero lane (every weight -1, as in a padded group):
    // -(3 + (1 << 1)).
    EXPECT_EQ(out[2], -5) << simd::level_name(level);
  }
}

}  // namespace
}  // namespace qnn
