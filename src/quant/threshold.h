// Folded BatchNorm + n-bit activation: the threshold unit of §III-B3.
//
// Following FINN's observation extended to multi-bit activations, the
// composition  code = Quantize(BatchNorm(a))  over integer pre-activations a
// is a monotone staircase. It is fully determined by two per-channel
// parameters — tau_k = mu_k - B_k/(gamma_k * i_k) (the zero crossing) and
// Delta_k = d / (gamma_k * i_k) (the pre-activation step between adjacent
// endpoints) — from which the 2^n - 1 integer comparison thresholds
// T_alpha = tau + alpha * Delta are derived. The hardware evaluates the code
// with an n-deep binary search (an n-input comparator + 2^n -> 1 mux).
//
// This module performs the folding, provides the bit-exact scalar
// evaluation the golden reference executor uses, and lays a layer's
// thresholds out once as the table the dataflow kernel's SIMD
// compare-count path reads (ThresholdTable); tests pin the two together.
#pragma once

#include <cstdint>
#include <vector>

#include "core/simd/vec_ops.h"
#include "quant/batchnorm.h"
#include "quant/quantizer.h"

namespace qnn {

/// The paper's two-parameter hardware representation (stored per channel as
/// a single 64-bit word: two 32-bit fixed-point values, §III-B1a).
struct TwoParamForm {
  double tau = 0.0;    // pre-activation value where BatchNorm output is 0
  double delta = 0.0;  // pre-activation step between adjacent endpoints

  friend bool operator==(const TwoParamForm&, const TwoParamForm&) = default;
};

/// Per-channel folded threshold activation over integer pre-activations.
class ThresholdActivation {
 public:
  ThresholdActivation() = default;

  /// Fold BatchNorm parameters and a uniform quantizer into thresholds.
  static ThresholdActivation fold(const BnParams& bn, const ActQuantizer& q);

  /// Rebuild from the two-parameter hardware form (sign of the BatchNorm
  /// slope must be supplied as it is implicit in Delta's sign).
  static ThresholdActivation from_two_param(const TwoParamForm& tp, int bits);

  /// Evaluate the folded staircase on an integer pre-activation.
  [[nodiscard]] std::int32_t eval(std::int32_t a) const;

  /// Evaluate via explicit binary search over the threshold array — the
  /// literal hardware algorithm (§III-B3). Bit-identical to eval().
  [[nodiscard]] std::int32_t eval_binary_search(std::int32_t a) const;

  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] bool is_constant() const { return sign_ == 0; }
  [[nodiscard]] std::int32_t constant_code() const { return constant_code_; }
  /// Ascending thresholds in the (sign-adjusted) comparison domain.
  [[nodiscard]] const std::vector<std::int32_t>& thresholds() const {
    return thresholds_;
  }
  [[nodiscard]] int sign() const { return sign_; }

  /// Export the two-parameter form (tau, Delta) the hardware would store.
  [[nodiscard]] TwoParamForm two_param() const { return two_param_; }

  friend bool operator==(const ThresholdActivation&,
                         const ThresholdActivation&) = default;

 private:
  int bits_ = 2;
  // sign = +1: code = #{alpha : a >= T_alpha}
  // sign = -1: same with a replaced by -a (negative BatchNorm slope)
  // sign =  0: code is constant (degenerate zero slope)
  int sign_ = 0;
  std::int32_t constant_code_ = 0;
  std::vector<std::int32_t> thresholds_;  // ascending, size 2^bits - 1
  TwoParamForm two_param_;
};

/// Folded thresholds for every output channel of one layer.
class ThresholdLayer {
 public:
  ThresholdLayer() = default;
  static ThresholdLayer fold(const BnLayerParams& bn, const ActQuantizer& q);

  [[nodiscard]] int channels() const {
    return static_cast<int>(per_channel_.size());
  }
  [[nodiscard]] const ThresholdActivation& at(int c) const {
    QNN_DCHECK(c >= 0 && c < channels(), "channel out of range");
    return per_channel_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] int bits() const {
    return per_channel_.empty() ? 0 : per_channel_.front().bits();
  }

  void push_back(ThresholdActivation t) {
    per_channel_.push_back(std::move(t));
  }

 private:
  std::vector<ThresholdActivation> per_channel_;
};

/// A layer's thresholds laid out once for VecOps::threshold_codes: rows of
/// the 2^n - 1 comparison levels, channel-transposed and channel-periodic
/// (simd::ThresholdRows), with the BatchNorm slope's sign folded into a
/// per-channel multiplier. A constant channel gets multiplier 0 and
/// sentinel thresholds — INT32_MIN below its code, INT32_MAX from it on —
/// so #{alpha : 0 >= T_alpha} is exactly constant_code().
class ThresholdTable {
 public:
  explicit ThresholdTable(const ThresholdLayer& layer);

  [[nodiscard]] simd::ThresholdRows rows() const {
    return {t_.data(), sign_.data(), channels_, levels_};
  }

 private:
  std::size_t channels_;
  std::size_t levels_;
  std::vector<std::int32_t> t_;     // [levels][channels + lanes - 1]
  std::vector<std::int32_t> sign_;  // [channels + lanes - 1]
};

}  // namespace qnn
