#include "signal/resample.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/check.h"

namespace neuroprint::signal {
namespace {

constexpr double kPi = std::numbers::pi;
constexpr int kLanczosA = 4;

double Sinc(double x) {
  if (x == 0.0) return 1.0;
  const double px = kPi * x;
  return std::sin(px) / px;
}

double LanczosKernel(double x) {
  if (std::fabs(x) >= kLanczosA) return 0.0;
  return Sinc(x) * Sinc(x / kLanczosA);
}

std::size_t ClampIndex(std::ptrdiff_t i, std::size_t n) {
  return static_cast<std::size_t>(
      std::clamp<std::ptrdiff_t>(i, 0, static_cast<std::ptrdiff_t>(n) - 1));
}

}  // namespace

InterpOperator::InterpOperator(std::size_t input_length,
                               const std::vector<double>& times,
                               InterpKind kind)
    : input_length_(input_length),
      kind_(kind),
      taps_(kind == InterpKind::kLinear ? 2 : 2 * kLanczosA),
      index_(times.size() * taps_),
      weight_(times.size() * taps_),
      norm_(times.size(), 0.0) {
  NP_CHECK_GT(input_length, 0u) << "InterpOperator: empty input";
  const double n_minus_1 = static_cast<double>(input_length - 1);
  for (std::size_t i = 0; i < times.size(); ++i) {
    NP_CHECK(std::isfinite(times[i])) << "InterpOperator: non-finite time";
    const double tc = std::clamp(times[i], 0.0, n_minus_1);
    const auto floor_t = std::floor(tc);
    const auto center = static_cast<std::ptrdiff_t>(floor_t);
    std::size_t* index = &index_[i * taps_];
    double* weight = &weight_[i * taps_];
    if (kind == InterpKind::kLinear) {
      const double frac = tc - floor_t;
      index[0] = ClampIndex(center, input_length);
      index[1] = ClampIndex(center + 1, input_length);
      weight[0] = 1.0 - frac;
      weight[1] = frac;
      continue;
    }
    double weight_sum = 0.0;
    for (std::size_t k = 0; k < taps_; ++k) {
      const std::ptrdiff_t tap =
          center - kLanczosA + 1 + static_cast<std::ptrdiff_t>(k);
      index[k] = ClampIndex(tap, input_length);
      weight[k] = LanczosKernel(tc - static_cast<double>(tap));
      weight_sum += weight[k];
    }
    // Renormalizes near boundaries where the kernel is truncated.
    norm_[i] = weight_sum;
  }
}

InterpOperator InterpOperator::Shift(std::size_t length, double shift,
                                     InterpKind kind) {
  std::vector<double> times(length);
  for (std::size_t i = 0; i < length; ++i) {
    times[i] = static_cast<double>(i) + shift;
  }
  return InterpOperator(length, times, kind);
}

template <typename T>
void InterpOperator::ApplyAt(std::size_t i, const T* in, std::size_t stride,
                             std::size_t lanes, double* out) const {
  const std::size_t* index = &index_[i * taps_];
  const double* weight = &weight_[i * taps_];
  if (kind_ == InterpKind::kLinear) {
    // Two products summed directly: seeding the sum with 0.0 would turn a
    // -0.0 result into +0.0.
    const T* x0 = in + index[0] * stride;
    const T* x1 = in + index[1] * stride;
    for (std::size_t l = 0; l < lanes; ++l) {
      out[l] = weight[0] * static_cast<double>(x0[l]) +
               weight[1] * static_cast<double>(x1[l]);
    }
    return;
  }
  std::fill(out, out + lanes, 0.0);
  for (std::size_t k = 0; k < taps_; ++k) {
    const T* xk = in + index[k] * stride;
    const double w = weight[k];
    for (std::size_t l = 0; l < lanes; ++l) {
      out[l] += w * static_cast<double>(xk[l]);
    }
  }
  const double norm = norm_[i];
  if (norm == 0.0) return;
  for (std::size_t l = 0; l < lanes; ++l) out[l] /= norm;
}

template void InterpOperator::ApplyAt<float>(std::size_t, const float*,
                                             std::size_t, std::size_t,
                                             double*) const;
template void InterpOperator::ApplyAt<double>(std::size_t, const double*,
                                              std::size_t, std::size_t,
                                              double*) const;

std::vector<double> InterpOperator::Apply(const std::vector<double>& x) const {
  NP_CHECK_EQ(x.size(), input_length_) << "InterpOperator: length mismatch";
  std::vector<double> out(output_length());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ApplyAt(i, x.data(), 1, 1, &out[i]);
  }
  return out;
}

Result<std::vector<double>> ShiftSeries(const std::vector<double>& x,
                                        double shift, InterpKind kind) {
  if (x.empty()) return Status::InvalidArgument("ShiftSeries: empty input");
  if (!std::isfinite(shift)) {
    return Status::InvalidArgument("ShiftSeries: non-finite shift");
  }
  return InterpOperator::Shift(x.size(), shift, kind).Apply(x);
}

Result<std::vector<double>> ResampleSeries(const std::vector<double>& x,
                                           double tr_in, double tr_out,
                                           InterpKind kind) {
  if (x.empty()) return Status::InvalidArgument("ResampleSeries: empty input");
  if (!(tr_in > 0.0 && tr_out > 0.0) || !std::isfinite(tr_in) ||
      !std::isfinite(tr_out)) {
    return Status::InvalidArgument(
        "ResampleSeries: intervals must be positive and finite");
  }
  const double span = tr_in * static_cast<double>(x.size() - 1);
  const std::size_t n_out =
      1 + static_cast<std::size_t>(std::floor(span / tr_out + 1e-9));
  std::vector<double> times(n_out);
  for (std::size_t i = 0; i < n_out; ++i) {
    times[i] = static_cast<double>(i) * tr_out / tr_in;
  }
  return InterpOperator(x.size(), times, kind).Apply(x);
}

}  // namespace neuroprint::signal
