#include "quant/threshold.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace qnn {
namespace {

/// Saturating ceil(x) -> int32. Pre-activations of any layer we build are
/// bounded by K*K*I * max_code (< 2^21), so saturation only normalizes
/// pathological BatchNorm parameters in property tests.
std::int32_t ceil_to_i32(double x) {
  const double c = std::ceil(x);
  if (c >= static_cast<double>(std::numeric_limits<std::int32_t>::max())) {
    return std::numeric_limits<std::int32_t>::max();
  }
  if (c <= static_cast<double>(std::numeric_limits<std::int32_t>::min())) {
    return std::numeric_limits<std::int32_t>::min();
  }
  return static_cast<std::int32_t>(c);
}

}  // namespace

ThresholdActivation ThresholdActivation::fold(const BnParams& bn,
                                              const ActQuantizer& q) {
  ThresholdActivation t;
  t.bits_ = q.bits();
  const double s = bn.slope();
  const double c = bn.intercept();
  const double d = q.range_size();
  const int m = q.max_code();  // number of endpoints = 2^n - 1

  if (s == 0.0) {
    t.sign_ = 0;
    t.constant_code_ = q.code(c);
    t.two_param_ = TwoParamForm{0.0, 0.0};
    return t;
  }

  t.two_param_ = TwoParamForm{-c / s, d / s};
  t.sign_ = s > 0.0 ? +1 : -1;
  t.thresholds_.reserve(static_cast<std::size_t>(m));
  for (int alpha = 1; alpha <= m; ++alpha) {
    // Endpoint in the pre-activation domain: t_alpha = tau + alpha*Delta.
    const double x = (alpha * d - c) / s;
    // code counts satisfied comparisons:
    //   s > 0:  y >= alpha*d  <=>  a >= ceil(x)
    //   s < 0:  y >= alpha*d  <=>  a <= x  <=>  (-a) >= ceil(-x)
    t.thresholds_.push_back(t.sign_ > 0 ? ceil_to_i32(x) : ceil_to_i32(-x));
  }
  // Floating-point rounding can only produce ties, never inversions, but we
  // normalize defensively: the staircase must be monotone.
  std::sort(t.thresholds_.begin(), t.thresholds_.end());
  return t;
}

ThresholdActivation ThresholdActivation::from_two_param(
    const TwoParamForm& tp, int bits) {
  QNN_CHECK(tp.delta != 0.0,
            "degenerate two-parameter form (zero Delta) is not invertible");
  ThresholdActivation t;
  t.bits_ = bits;
  t.two_param_ = tp;
  t.sign_ = tp.delta > 0.0 ? +1 : -1;
  const int m = (1 << bits) - 1;
  t.thresholds_.reserve(static_cast<std::size_t>(m));
  for (int alpha = 1; alpha <= m; ++alpha) {
    const double x = tp.tau + alpha * tp.delta;
    t.thresholds_.push_back(t.sign_ > 0 ? ceil_to_i32(x) : ceil_to_i32(-x));
  }
  std::sort(t.thresholds_.begin(), t.thresholds_.end());
  return t;
}

std::int32_t ThresholdActivation::eval(std::int32_t a) const {
  if (sign_ == 0) return constant_code_;
  const std::int32_t v = sign_ > 0 ? a : -a;
  const auto it =
      std::upper_bound(thresholds_.begin(), thresholds_.end(), v);
  return static_cast<std::int32_t>(it - thresholds_.begin());
}

std::int32_t ThresholdActivation::eval_binary_search(std::int32_t a) const {
  if (sign_ == 0) return constant_code_;
  const std::int32_t v = sign_ > 0 ? a : -a;
  // The hardware form: n comparison levels narrowing 2^n ranges to one.
  int lo = 0;
  int hi = static_cast<int>(thresholds_.size());
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (v >= thresholds_[static_cast<std::size_t>(mid)]) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

ThresholdLayer ThresholdLayer::fold(const BnLayerParams& bn,
                                    const ActQuantizer& q) {
  ThresholdLayer layer;
  for (int c = 0; c < bn.channels(); ++c) {
    layer.push_back(ThresholdActivation::fold(bn.at(c), q));
  }
  return layer;
}

ThresholdTable::ThresholdTable(const ThresholdLayer& layer)
    : channels_(static_cast<std::size_t>(layer.channels())),
      levels_((std::size_t{1} << layer.bits()) - 1) {
  QNN_CHECK(channels_ >= 1, "threshold table needs at least one channel");
  const std::size_t stride = channels_ + simd::kThresholdLanes - 1;
  t_.resize(levels_ * stride);
  sign_.resize(stride);
  for (std::size_t k = 0; k < stride; ++k) {
    const ThresholdActivation& ch = layer.at(static_cast<int>(k % channels_));
    QNN_CHECK(ch.bits() == layer.bits(),
              "threshold layer mixes activation widths");
    QNN_CHECK(ch.is_constant() || ch.thresholds().size() == levels_,
              "threshold count does not match the activation width");
    sign_[k] = ch.sign();
    for (std::size_t a = 0; a < levels_; ++a) {
      std::int32_t& t = t_[a * stride + k];
      if (!ch.is_constant()) {
        t = ch.thresholds()[a];
      } else if (static_cast<std::int32_t>(a) < ch.constant_code()) {
        t = std::numeric_limits<std::int32_t>::min();
      } else {
        t = std::numeric_limits<std::int32_t>::max();
      }
    }
  }
}

}  // namespace qnn
