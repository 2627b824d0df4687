// vec_ops seam: every compiled+supported SIMD level must agree bit-exactly
// with the scalar reference on random word buffers, including lengths that
// exercise every tail-handling path (0, sub-block, block-multiple, and
// block+tail) and filter counts that leave the last filter group partly
// padded. The threshold unit is pinned the same way, and its scalar path
// against the hardware binary search (eval_binary_search). Also pins the
// dispatch contract: kScalar is always present, and set_level overrides
// whatever auto/env dispatch picked.
#include "core/simd/vec_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/bitops.h"
#include "core/bitvector.h"
#include "core/packed_planes.h"
#include "core/rng.h"
#include "quant/threshold.h"

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

/// A layer of `channels` random staircases over preactivations in
/// +-2^(in_bits-1): positive, negative and zero (constant) slopes mixed.
ThresholdLayer random_threshold_layer(int channels, int bits, int in_bits,
                                      Rng& rng) {
  const int levels = (1 << bits) - 1;
  const double span = std::ldexp(1.0, in_bits - 1);
  BnLayerParams bn(channels);
  for (int c = 0; c < channels; ++c) {
    BnParams& p = bn.at(c);
    const int kind = c % 5;  // 0,3: positive, 1,4: negative, 2: constant
    const double mag = (0.25 + 2.0 * rng.next_double()) * levels / span;
    p.gamma = kind == 2 ? 0.0f
                        : static_cast<float>((kind % 3 == 1) ? -mag : mag);
    p.beta = static_cast<float>((rng.next_double() - 0.25) * levels);
    p.mu = static_cast<float>((rng.next_double() - 0.5) * span * 0.5);
  }
  return ThresholdLayer::fold(bn, ActQuantizer(bits, 1.0));
}

/// Preactivations for the threshold tests: the domain edges, values on and
/// next to every threshold of the channel each position lands on, and
/// random fill.
std::vector<std::int32_t> threshold_inputs(const ThresholdLayer& layer,
                                           std::size_t n, std::size_t phase,
                                           int in_bits, Rng& rng) {
  const auto edge = static_cast<std::int32_t>(1) << (in_bits - 1);
  const auto channels = static_cast<std::size_t>(layer.channels());
  std::vector<std::int32_t> in(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ThresholdActivation& ch =
        layer.at(static_cast<int>((phase + i) % channels));
    switch (rng.next_below(4)) {
      case 0: {
        const std::int32_t edges[] = {-edge, -edge + 1, 0, edge - 1, edge};
        in[i] = edges[rng.next_below(5)];
        break;
      }
      case 1:
        if (!ch.is_constant()) {
          const auto& t = ch.thresholds();
          const std::int64_t v = t[rng.next_below(t.size())] +
                                 rng.next_int(-1, 1);
          in[i] = static_cast<std::int32_t>(
              std::clamp<std::int64_t>(ch.sign() > 0 ? v : -v, -edge, edge));
          break;
        }
        [[fallthrough]];
      default:
        in[i] = static_cast<std::int32_t>(rng.next_int(-edge, edge));
    }
  }
  return in;
}

TEST(VecOps, ThresholdCodesMatchScalarAtEveryLevel) {
  const auto& scalar = simd::vec_ops_at(simd::Level::kScalar);
  Rng rng(0xabc5);
  constexpr int kInBits = 16;
  for (const int bits : {1, 2, 3, 8}) {
    std::vector<bool> seen(std::size_t{1} << bits, false);
    for (const int channels : {1, 3, 16, 17, 64, 4096}) {
      const ThresholdLayer layer =
          random_threshold_layer(channels, bits, kInBits, rng);
      const ThresholdTable table(layer);
      const auto c = static_cast<std::size_t>(channels);
      std::vector<std::size_t> phases;
      if (c <= 17) {
        for (std::size_t p = 0; p < c; ++p) phases.push_back(p);
      } else {
        phases = {0, 1, 15, c / 2, c - 1};
      }
      // Lengths around the 8- and 16-lane blocks, plus one that wraps the
      // channel period more than once.
      for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{15},
                                  std::size_t{23}, std::size_t{41},
                                  2 * c + 13}) {
        for (const std::size_t phase : phases) {
          const auto in = threshold_inputs(layer, n, phase, kInBits, rng);
          std::vector<std::int32_t> expect(n, -1);
          scalar.threshold_codes(table.rows(), in.data(), n, phase,
                                 expect.data());
          for (std::size_t i = 0; i < n; ++i) {
            seen[static_cast<std::size_t>(expect[i])] = true;
            ASSERT_EQ(expect[i],
                      layer.at(static_cast<int>((phase + i) % c))
                          .eval_binary_search(in[i]))
                << "bits=" << bits << " C=" << channels << " phase=" << phase
                << " i=" << i << " in=" << in[i];
          }
          for (const simd::Level level : simd::available_levels()) {
            // One guard value past the end: the tail must not write it.
            std::vector<std::int32_t> got(n + 1, -7);
            simd::vec_ops_at(level).threshold_codes(table.rows(), in.data(),
                                                    n, phase, got.data());
            ASSERT_EQ(got.back(), -7) << simd::level_name(level);
            got.pop_back();
            ASSERT_EQ(got, expect)
                << simd::level_name(level) << " bits=" << bits
                << " C=" << channels << " phase=" << phase << " n=" << n;
          }
        }
      }
    }
    // The inputs reach every step of the staircase.
    EXPECT_EQ(std::count(seen.begin(), seen.end(), false), 0) << bits;
  }
}

TEST(VecOps, ThresholdTableEncodesSignsAndConstants) {
  // Channel 0: identity BatchNorm; channel 1: negated slope; channel 2:
  // zero slope, so a constant code (beta = 2.5 with d = 1 -> code 2).
  BnLayerParams bn(3);
  bn.at(1).gamma = -1.0f;
  bn.at(2).gamma = 0.0f;
  bn.at(2).beta = 2.5f;
  const ThresholdLayer layer = ThresholdLayer::fold(bn, ActQuantizer(2, 1.0));
  ASSERT_TRUE(layer.at(2).is_constant());
  ASSERT_EQ(layer.at(2).constant_code(), 2);
  const ThresholdTable table(layer);
  const simd::ThresholdRows rows = table.rows();
  ASSERT_EQ(rows.levels, 3u);
  ASSERT_EQ(rows.stride(), 3u + simd::kThresholdLanes - 1);
  // Rows repeat the channel period across the padded stride.
  constexpr std::int32_t kSigns[] = {1, -1, 0};
  for (std::size_t k = 0; k < rows.stride(); ++k) {
    EXPECT_EQ(rows.sign[k], kSigns[k % 3]) << k;
  }
  EXPECT_EQ(rows.t[2], std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(rows.t[rows.stride() + 2],
            std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(rows.t[2 * rows.stride() + 2],
            std::numeric_limits<std::int32_t>::max());
  const std::vector<std::int32_t> in = {2, -2, 1000, -3, 3, -1000};
  for (const simd::Level level : simd::available_levels()) {
    std::vector<std::int32_t> out(in.size());
    simd::vec_ops_at(level).threshold_codes(rows, in.data(), in.size(), 0,
                                            out.data());
    // 2 >= thresholds {1, 2}: code 2; -(-2) = 2: code 2; constant: 2;
    // -3 < 1: code 0; -3 again for the negated channel: 0; constant: 2.
    EXPECT_EQ(out, (std::vector<std::int32_t>{2, 2, 2, 0, 0, 2}))
        << simd::level_name(level);
  }
}

}  // namespace
}  // namespace qnn
