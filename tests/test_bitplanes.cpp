// The packed bit-plane dot — BitPlaneLineBuffer packing, PackedWindow
// splices, PackedFilters lanes and VecOps::dot_window — against the plain
// integer definition reference_pm1_dot, at every SIMD level on the host.
#include "core/bitplanes.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/packed_planes.h"
#include "core/rng.h"
#include "core/simd/vec_ops.h"

namespace qnn {
namespace {

/// dot(w, codes) through the conv kernel's packed path: pack the codes
/// into a one-row line buffer, splice them into a window, and run one
/// filter lane of dot_window at `level`.
std::int32_t packed_dot(const BitVector& w,
                        const std::vector<std::int32_t>& codes, int bits,
                        simd::Level level) {
  const auto n = static_cast<std::int64_t>(codes.size());
  BitPlaneLineBuffer lines(bits, 1, n);
  lines.pack_run(0, 0, codes);
  PackedWindow window(n, bits);
  for (int p = 0; p < bits; ++p) window.splice(lines, p, 0, 0, 0, n);
  window.finalize();
  PackedFilters filters(n, 1);
  filters.set(0, w);
  std::vector<std::int32_t> acc(filters.groups() * simd::kFilterLanes);
  simd::vec_ops_at(level).dot_window(
      window.data(), window.planes(),
      static_cast<std::size_t>(window.plane_words()), filters.data(),
      filters.groups(), acc.data());
  return acc[0];
}

/// Property: the packed bit-plane dot equals the scalar signed dot for
/// random weights and codes, across bit widths (the 2-bit activations of
/// the paper and the 8-bit first layer alike).
class BitPlaneDotProperty : public ::testing::TestWithParam<int> {};

TEST_P(BitPlaneDotProperty, MatchesScalarReference) {
  const int bits = GetParam();
  Rng rng(1234 + static_cast<std::uint64_t>(bits));
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.next_below(200));
    BitVector w(n);
    std::vector<std::int8_t> w_pm1(static_cast<std::size_t>(n));
    std::vector<std::int32_t> codes(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      const bool bit = rng.next_bool();
      w.set(i, bit);
      w_pm1[static_cast<std::size_t>(i)] = bit ? 1 : -1;
      codes[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(
          rng.next_below(std::uint64_t{1} << bits));
    }
    const std::int32_t want = reference_pm1_dot(w_pm1, codes);
    for (const simd::Level level : simd::available_levels()) {
      EXPECT_EQ(packed_dot(w, codes, bits, level), want)
          << "bits=" << bits << " n=" << n
          << " level=" << simd::level_name(level);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitPlaneDotProperty,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(PackedPlaneDot, AllZeroCodesGiveZeroDot) {
  BitVector weights(64);
  for (std::int64_t i = 0; i < 64; ++i) weights.set(i, i % 2 == 0);
  const std::vector<std::int32_t> zeros(64, 0);
  for (const simd::Level level : simd::available_levels()) {
    // Code 0 contributes nothing: the padding rule.
    EXPECT_EQ(packed_dot(weights, zeros, 2, level), 0)
        << simd::level_name(level);
  }
}

TEST(PackedPlaneDot, MaxCodesAllPlusWeights) {
  const std::int64_t n = 30;
  BitVector weights(n);
  for (std::int64_t i = 0; i < n; ++i) weights.set(i, true);
  const std::vector<std::int32_t> codes(static_cast<std::size_t>(n), 3);
  for (const simd::Level level : simd::available_levels()) {
    EXPECT_EQ(packed_dot(weights, codes, 2, level), 3 * n)
        << simd::level_name(level);
  }
}

}  // namespace
}  // namespace qnn
