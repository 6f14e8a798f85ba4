// Temporal resampling of one series onto shifted sample times — the
// primitive behind slice-time correction (each axial slice of an fMRI
// volume is acquired at a slightly different moment within the TR; slice
// timing shifts every slice's series onto a common time grid).

#ifndef NEUROPRINT_SIGNAL_RESAMPLE_H_
#define NEUROPRINT_SIGNAL_RESAMPLE_H_

#include <cstddef>
#include <vector>

#include "util/status.h"

namespace neuroprint::signal {

/// Interpolation kernels for ShiftSeries.
enum class InterpKind {
  kLinear,        ///< Piecewise-linear; cheap, slight high-frequency loss.
  kWindowedSinc,  ///< Lanczos-windowed sinc (a = 4); near-ideal for smooth series.
};

/// Interpolation as a linear operator: output sample i is a fixed
/// weighted sum of clamped input samples. The taps (clamped indices,
/// kernel weights and the boundary normaliser) depend only on the
/// evaluation times, so one operator serves every series sampled on the
/// same time axis — slice timing builds one per slice and applies it to
/// the whole x-y plane. Every interpolation in this module goes through
/// it, so the kernel is defined once.
class InterpOperator {
 public:
  /// Taps evaluating a series of `input_length` samples at each of
  /// `times` (in samples, clamped to [0, input_length - 1]). Requires
  /// input_length > 0 and finite times.
  InterpOperator(std::size_t input_length, const std::vector<double>& times,
                 InterpKind kind);

  /// Taps evaluating a series of `length` samples at i + shift for every
  /// index i. Requires length > 0 and a finite shift.
  static InterpOperator Shift(std::size_t length, double shift,
                              InterpKind kind);

  std::size_t output_length() const { return norm_.size(); }

  /// Output sample i of `lanes` series at once: lane l of input sample j
  /// (j < input_length) is in[j * stride + l], and out[l] receives lane
  /// l's output. Each lane runs exactly the single-series arithmetic, so
  /// the lane count never changes a bit of the result. Instantiated for
  /// float and double.
  template <typename T>
  void ApplyAt(std::size_t i, const T* in, std::size_t stride,
               std::size_t lanes, double* out) const;

  /// The whole output for one series of input_length samples.
  std::vector<double> Apply(const std::vector<double>& x) const;

 private:
  std::size_t input_length_;
  InterpKind kind_;
  std::size_t taps_;                 ///< Per output sample: 2 or 2a.
  std::vector<std::size_t> index_;   ///< output_length x taps_, clamped.
  std::vector<double> weight_;       ///< output_length x taps_.
  std::vector<double> norm_;         ///< Windowed sinc: Σ weights (0 = none).
};

/// Evaluates the series at t = i + shift (in samples) for every index i,
/// clamping at the boundaries. `shift` in (-1, 1) covers slice timing.
Result<std::vector<double>> ShiftSeries(const std::vector<double>& x,
                                        double shift, InterpKind kind);

/// Resamples `x` (sampled at interval tr_in) onto a grid with interval
/// tr_out, covering the same time span.
Result<std::vector<double>> ResampleSeries(const std::vector<double>& x,
                                           double tr_in, double tr_out,
                                           InterpKind kind);

}  // namespace neuroprint::signal

#endif  // NEUROPRINT_SIGNAL_RESAMPLE_H_
