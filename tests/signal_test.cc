// Tests for the FFT, temporal filters, detrending, regression, and
// resampling — including parameterized sweeps over transform sizes.

#include <cmath>
#include <limits>
#include <numbers>

#include <gtest/gtest.h>

#include "signal/fft.h"
#include "signal/filters.h"
#include "signal/resample.h"
#include "util/random.h"

namespace neuroprint::signal {
namespace {

constexpr double kPi = std::numbers::pi;

std::vector<double> RandomSeries(std::size_t n, Rng& rng) {
  std::vector<double> x(n);
  for (double& v : x) v = rng.Gaussian();
  return x;
}

std::vector<double> Sine(std::size_t n, double freq_hz, double tr,
                         double amplitude = 1.0, double phase = 0.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amplitude *
           std::sin(2.0 * kPi * freq_hz * static_cast<double>(i) * tr + phase);
  }
  return x;
}

// ---------------------------------------------------------------------------
// FFT

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, RoundTripRecoversSignal) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  const std::vector<double> x = RandomSeries(n, rng);
  ComplexVector data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = Complex(x[i], 0.0);
  Fft(data);
  Ifft(data);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(data[i].real(), x[i], 1e-9) << "size " << n << " index " << i;
    EXPECT_NEAR(data[i].imag(), 0.0, 1e-9);
  }
}

TEST_P(FftSizeTest, ParsevalHolds) {
  const std::size_t n = GetParam();
  Rng rng(200 + n);
  const std::vector<double> x = RandomSeries(n, rng);
  const ComplexVector spectrum = RealFft(x);
  double time_energy = 0.0;
  for (double v : x) time_energy += v * v;
  double freq_energy = 0.0;
  for (const Complex& c : spectrum) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-8 * std::max(1.0, time_energy));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 31, 64,
                                           100, 128, 176, 255, 300, 405, 512,
                                           1000, 1200));

TEST(FftTest, MatchesNaiveDftSmall) {
  Rng rng(3);
  const std::size_t n = 13;
  const std::vector<double> x = RandomSeries(n, rng);
  const ComplexVector fast = RealFft(x);
  for (std::size_t k = 0; k < n; ++k) {
    Complex slow(0, 0);
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * kPi * static_cast<double>(k * t) /
                           static_cast<double>(n);
      slow += x[t] * Complex(std::cos(angle), std::sin(angle));
    }
    EXPECT_NEAR(fast[k].real(), slow.real(), 1e-9);
    EXPECT_NEAR(fast[k].imag(), slow.imag(), 1e-9);
  }
}

TEST(FftTest, PureToneLandsInOneBin) {
  const std::size_t n = 64;
  const double tr = 1.0;
  const std::vector<double> x = Sine(n, 4.0 / 64.0, tr);
  const ComplexVector spectrum = RealFft(x);
  // Energy concentrated at bins 4 and 60 (conjugate).
  for (std::size_t k = 0; k < n; ++k) {
    const double mag = std::abs(spectrum[k]);
    if (k == 4 || k == n - 4) {
      EXPECT_GT(mag, 10.0);
    } else {
      EXPECT_LT(mag, 1e-9);
    }
  }
}

TEST(FftTest, PowerOfTwoHelpers) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(48));
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(65), 128u);
}

TEST(FftTest, CircularConvolutionMatchesDirect) {
  Rng rng(5);
  const std::size_t n = 12;
  const std::vector<double> a = RandomSeries(n, rng);
  const std::vector<double> b = RandomSeries(n, rng);
  const std::vector<double> fast = CircularConvolve(a, b);
  for (std::size_t k = 0; k < n; ++k) {
    double slow = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      slow += a[t] * b[(k + n - t) % n];
    }
    EXPECT_NEAR(fast[k], slow, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Filters

TEST(BandPassTest, PassesInBandTone) {
  const double tr = 0.72;
  const std::size_t n = 1200;
  const std::vector<double> x = Sine(n, 0.05, tr);  // Mid-band.
  BandPassConfig config;
  config.tr_seconds = tr;
  const auto y = BandPassFilter(x, config);
  ASSERT_TRUE(y.ok());
  const double in = BandPower(x, 0.04, 0.06, tr);
  const double out = BandPower(*y, 0.04, 0.06, tr);
  EXPECT_GT(out, 0.9 * in);
}

TEST(BandPassTest, RejectsOutOfBandTones) {
  const double tr = 0.72;
  const std::size_t n = 1200;
  // Slow drift at 0.002 Hz plus fast noise at 0.3 Hz.
  std::vector<double> x = Sine(n, 0.002, tr, 5.0);
  const std::vector<double> fast = Sine(n, 0.3, tr, 5.0);
  for (std::size_t i = 0; i < n; ++i) x[i] += fast[i];
  BandPassConfig config;
  config.tr_seconds = tr;
  const auto y = BandPassFilter(x, config);
  ASSERT_TRUE(y.ok());
  EXPECT_LT(BandPower(*y, 0.0, 0.004, tr), 0.01 * BandPower(x, 0.0, 0.004, tr));
  EXPECT_LT(BandPower(*y, 0.25, 0.35, tr), 0.01 * BandPower(x, 0.25, 0.35, tr));
}

TEST(BandPassTest, RemovesDcComponent) {
  std::vector<double> x(200, 7.0);
  const std::vector<double> tone = Sine(200, 0.05, 0.72, 1.0);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += tone[i];
  BandPassConfig config;
  const auto y = BandPassFilter(x, config);
  ASSERT_TRUE(y.ok());
  double mean = 0.0;
  for (double v : *y) mean += v;
  EXPECT_NEAR(mean / 200.0, 0.0, 1e-10);
}

TEST(BandPassTest, RejectsBadInputs) {
  BandPassConfig config;
  EXPECT_FALSE(BandPassFilter({}, config).ok());
  EXPECT_FALSE(
      BandPassFilter({1.0, std::nan("")}, config).ok());
  BandPassConfig above_nyquist;
  above_nyquist.tr_seconds = 3.0;  // Nyquist ~0.167 Hz < 0.1? no: 0.167>0.1.
  above_nyquist.tr_seconds = 10.0;  // Nyquist 0.05 Hz < 0.1 Hz cutoff.
  EXPECT_FALSE(BandPassFilter({1, 2, 3}, above_nyquist).ok());
  BandPassConfig inverted;
  inverted.low_cutoff_hz = 0.2;
  inverted.high_cutoff_hz = 0.1;
  inverted.tr_seconds = 0.72;
  EXPECT_FALSE(BandPassFilter({1, 2, 3}, inverted).ok());
}

TEST(HighPassTest, RemovesSlowDriftKeepsSignal) {
  const double tr = 0.72;
  const std::size_t n = 800;
  std::vector<double> signal = Sine(n, 0.08, tr, 1.0);
  std::vector<double> x = signal;
  const std::vector<double> drift = Sine(n, 0.001, tr, 10.0);
  for (std::size_t i = 0; i < n; ++i) x[i] += drift[i];
  const auto y = HighPassFilter(x, 1.0 / 200.0, tr);
  ASSERT_TRUE(y.ok());
  // Drift gone, signal preserved.
  EXPECT_LT(BandPower(*y, 0.0, 0.002, tr), 0.05 * BandPower(x, 0.0, 0.002, tr));
  EXPECT_GT(BandPower(*y, 0.07, 0.09, tr), 0.8 * BandPower(signal, 0.07, 0.09, tr));
}

TEST(DetrendTest, RemovesLinearTrendExactly) {
  std::vector<double> x(100);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 3.0 + 0.5 * static_cast<double>(i);
  }
  const auto y = DetrendLinear(x);
  ASSERT_TRUE(y.ok());
  for (double v : *y) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(DetrendTest, DegreeZeroIsDemean) {
  const auto y = DetrendPolynomial({1, 2, 3, 4}, 0);
  ASSERT_TRUE(y.ok());
  EXPECT_NEAR((*y)[0], -1.5, 1e-12);
  EXPECT_NEAR((*y)[3], 1.5, 1e-12);
}

TEST(DetrendTest, QuadraticRemovedByDegreeTwo) {
  std::vector<double> x(50);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = static_cast<double>(i);
    x[i] = 1.0 + 2.0 * t - 0.05 * t * t;
  }
  const auto y = DetrendPolynomial(x, 2);
  ASSERT_TRUE(y.ok());
  for (double v : *y) EXPECT_NEAR(v, 0.0, 1e-7);
}

TEST(DetrendTest, RejectsBadDegree) {
  EXPECT_FALSE(DetrendPolynomial({1, 2, 3}, -1).ok());
  EXPECT_FALSE(DetrendPolynomial({1, 2, 3}, 3).ok());
  EXPECT_FALSE(DetrendPolynomial({}, 1).ok());
}

TEST(RegressOutTest, RemovesConfoundComponent) {
  Rng rng(21);
  const std::size_t n = 200;
  const std::vector<double> confound = RandomSeries(n, rng);
  std::vector<double> signal = RandomSeries(n, rng);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = signal[i] + 3.0 * confound[i];
  const auto y = RegressOut(x, confound);
  ASSERT_TRUE(y.ok());
  // Residual orthogonal to the confound.
  double dot = 0.0;
  for (std::size_t i = 0; i < n; ++i) dot += (*y)[i] * confound[i];
  EXPECT_NEAR(dot, 0.0, 1e-8);
}

TEST(RegressOutTest, DegenerateConfoundFallsBackToDemean) {
  const std::vector<double> constant(10, 0.0);
  const auto y = RegressOut({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, constant);
  ASSERT_TRUE(y.ok());
  double mean = 0.0;
  for (double v : *y) mean += v;
  EXPECT_NEAR(mean, 0.0, 1e-10);
}

TEST(RegressOutTest, RejectsLengthMismatch) {
  EXPECT_FALSE(RegressOut({1, 2, 3}, {1, 2}).ok());
}

// ---------------------------------------------------------------------------
// Resampling

TEST(ShiftSeriesTest, ZeroShiftIsIdentity) {
  Rng rng(31);
  const std::vector<double> x = RandomSeries(30, rng);
  for (const InterpKind kind :
       {InterpKind::kLinear, InterpKind::kWindowedSinc}) {
    const auto y = ShiftSeries(x, 0.0, kind);
    ASSERT_TRUE(y.ok());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR((*y)[i], x[i], 1e-9);
    }
  }
}

TEST(ShiftSeriesTest, LinearInterpExactOnLinearSeries) {
  std::vector<double> x(20);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 2.0 * static_cast<double>(i);
  const auto y = ShiftSeries(x, 0.25, InterpKind::kLinear);
  ASSERT_TRUE(y.ok());
  for (std::size_t i = 1; i + 1 < x.size(); ++i) {
    EXPECT_NEAR((*y)[i], 2.0 * (static_cast<double>(i) + 0.25), 1e-10);
  }
}

TEST(ShiftSeriesTest, SincRecoversSmoothShiftAccurately) {
  const double tr = 1.0;
  const std::size_t n = 128;
  const double shift = 0.37;
  const std::vector<double> x = Sine(n, 0.05, tr);
  const std::vector<double> expected = Sine(n, 0.05, tr, 1.0,
                                            2.0 * kPi * 0.05 * shift);
  const auto y = ShiftSeries(x, shift, InterpKind::kWindowedSinc);
  ASSERT_TRUE(y.ok());
  // Interior samples match the analytically shifted sine closely.
  for (std::size_t i = 8; i + 8 < n; ++i) {
    EXPECT_NEAR((*y)[i], expected[i], 5e-3);
  }
}

TEST(ResampleSeriesTest, IdentityRateKeepsSeries) {
  Rng rng(41);
  const std::vector<double> x = RandomSeries(25, rng);
  const auto y = ResampleSeries(x, 0.72, 0.72, InterpKind::kLinear);
  ASSERT_TRUE(y.ok());
  ASSERT_EQ(y->size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR((*y)[i], x[i], 1e-9);
  }
}

TEST(ResampleSeriesTest, UpsamplingDoublesLength) {
  const std::vector<double> x{0, 1, 2, 3};
  const auto y = ResampleSeries(x, 1.0, 0.5, InterpKind::kLinear);
  ASSERT_TRUE(y.ok());
  ASSERT_EQ(y->size(), 7u);
  EXPECT_NEAR((*y)[1], 0.5, 1e-12);
  EXPECT_NEAR((*y)[6], 3.0, 1e-12);
}

TEST(ResampleSeriesTest, RejectsBadInputs) {
  EXPECT_FALSE(ResampleSeries({}, 1.0, 1.0, InterpKind::kLinear).ok());
  EXPECT_FALSE(ResampleSeries({1, 2}, 0.0, 1.0, InterpKind::kLinear).ok());
  EXPECT_FALSE(ResampleSeries({1, 2}, 1.0, -1.0, InterpKind::kLinear).ok());
  // Non-finite intervals used to reach a size_t conversion of NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ResampleSeries({1, 2}, nan, 1.0, InterpKind::kLinear).ok());
  EXPECT_FALSE(ResampleSeries({1, 2}, 1.0, nan, InterpKind::kLinear).ok());
  EXPECT_FALSE(ResampleSeries({1, 2}, inf, 1.0, InterpKind::kLinear).ok());
}

}  // namespace
}  // namespace neuroprint::signal
