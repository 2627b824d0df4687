// Bit-plane decomposition of unsigned n-bit activation codes.
//
// The paper uses 2-bit activations (§III-B); the first layer consumes 8-bit
// image pixels. Both run through the same XNOR-popcount datapath by
// decomposing each unsigned code a into bit planes a = sum_p 2^p * a_p and
// evaluating, for +-1 weights w packed as sign bits wb (w = 2*wb - 1):
//
//   dot(w, a) = sum_p 2^p * sum_i w_i * a_{p,i}
//             = sum_p 2^p * (2*popcount(wb & a_p) - popcount(a_p))
//
// The conv kernel evaluates this on persistently packed planes
// (core/packed_planes.h, VecOps::dot_window). This header keeps the plain
// integer definition those paths are tested against.
#pragma once

#include <cstdint>
#include <span>

#include "core/error.h"

namespace qnn {

/// Plain integer reference of the bit-plane dot product, used by tests to
/// pin the packed datapath to the mathematical definition.
[[nodiscard]] inline std::int32_t reference_pm1_dot(
    std::span<const std::int8_t> weights_pm1,
    std::span<const std::int32_t> codes) {
  QNN_CHECK(weights_pm1.size() == codes.size(), "length mismatch");
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    acc += static_cast<std::int64_t>(weights_pm1[i]) * codes[i];
  }
  return static_cast<std::int32_t>(acc);
}

}  // namespace qnn
