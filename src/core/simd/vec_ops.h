// Runtime-dispatched vector primitives behind the packed conv datapath and
// the BnAct threshold unit.
//
// The layering follows the vec_ops/vec_dot split used by ggml's QNN NPU
// device code: a scalar implementation defines the semantics and stays the
// bit-exact reference, and the wider paths (AVX2 nibble-LUT popcount,
// AVX-512 `vpopcntdq`) are pinned against it by tests at every compiled
// level. All paths are built with per-function target attributes, so the
// binary itself is portable; dispatch picks an implementation at runtime:
//
//   1. explicit override (set_level — tests and bench ablations),
//   2. the QNN_SIMD environment variable (auto|avx512|avx2|scalar),
//   3. CPUID auto-detection (the widest compiled level the host supports).
//
// A level is only ever selected when it is both compiled in (the QNN_SIMD
// CMake knob) and supported by the running CPU, so an AVX-512-enabled build
// never emits illegal instructions on an older host — an unavailable
// request clamps down to the widest available level with a one-time note.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/bitops.h"

namespace qnn::simd {

enum class Level { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Filters per group in the dot_window weight layout: one AVX-512 register
/// of 64-bit words (two AVX2 registers).
inline constexpr std::size_t kFilterLanes = 8;

/// Widest activation dot_window accepts, in bit-planes.
inline constexpr int kMaxPlanes = 16;

/// Values per threshold_codes vector step: one AVX-512 register of int32.
inline constexpr std::size_t kThresholdLanes = 16;

/// A channel-transposed threshold table as threshold_codes reads it. Each
/// row is channel-periodic and `channels + kThresholdLanes - 1` entries
/// long (entry k holds channel k mod channels), so kThresholdLanes values
/// starting at any channel phase read one contiguous span of every row.
struct ThresholdRows {
  const std::int32_t* t;     // [levels][stride]: ascending per channel
  const std::int32_t* sign;  // [stride]: +1, -1, or 0 (constant channel)
  std::size_t channels;
  std::size_t levels;        // 2^n - 1 comparisons per value

  [[nodiscard]] std::size_t stride() const {
    return channels + kThresholdLanes - 1;
  }
};

[[nodiscard]] const char* level_name(Level level);

/// One implementation of the vector kernels. The word kernels (popcount,
/// dot_window) treat their operands as plain arrays of `n` 64-bit words;
/// tail masking is the caller's job (operands keep the BitVector
/// tail-bits-zero invariant). threshold_codes masks its own tail.
struct VecOps {
  Level level;
  const char* name;

  /// Total set bits over a[0..n).
  std::uint64_t (*popcount)(const Word* a, std::size_t n);

  /// The conv inner loop, filter-parallel: one vector lane per filter, as
  /// FINN maps one processing element per output neuron. `planes` holds
  /// one window's `plane_count` (1..kMaxPlanes) bit-planes of `n` words
  /// each, plane-major. `w` holds `groups` groups of kFilterLanes filters,
  /// word-interleaved: word i of filter g*kFilterLanes + l is
  /// w[(g*n + i)*kFilterLanes + l]. For every filter f < groups*kFilterLanes
  ///   out[f] = sum_p (2*popcount(w_f & plane_p) - popcount(plane_p)) << p
  /// i.e. the +-1-weighted bit-plane dot of core/bitplanes.h, truncated to
  /// 32 bits. Each weight word is loaded once per window for all planes and
  /// nothing is summed across lanes.
  void (*dot_window)(const Word* planes, int plane_count, std::size_t n,
                     const Word* w, std::size_t groups, std::int32_t* out);

  /// The threshold unit of §III-B3, one vector lane per value: for every
  /// i < n, with c = (phase + i) mod table.channels,
  ///   out[i] = #{alpha < levels : sign[c]*in[i] >= t[alpha*stride + c]}
  /// (the product wraps in 32 bits). The count equals the binary search
  /// over the ascending thresholds, computed with no data-dependent
  /// branch. Requires phase < channels; handles any n, tail included.
  void (*threshold_codes)(const ThresholdRows& table, const std::int32_t* in,
                          std::size_t n, std::size_t phase,
                          std::int32_t* out);
};

/// Levels compiled into this binary AND usable on this CPU, ascending.
/// Always contains kScalar.
[[nodiscard]] std::vector<Level> available_levels();

/// The dispatched implementation (override > QNN_SIMD env > CPUID auto).
[[nodiscard]] const VecOps& vec_ops();

/// The implementation of one specific level; throws when that level is not
/// compiled in or not supported by this CPU (use available_levels()).
[[nodiscard]] const VecOps& vec_ops_at(Level level);

/// Process-wide dispatch override used by tests and the bench ablation;
/// std::nullopt restores env/auto dispatch. Takes effect for kernels
/// constructed afterwards — set it between engine runs, not during one.
void set_level(std::optional<Level> level);

}  // namespace qnn::simd
