// NEON (aarch64) kernels. Two float64x2_t registers emulate the four
// canonical lanes (lo = lanes 0,1; hi = lanes 2,3); lane-local adds and
// separate vmulq/vaddq (never vfmaq) keep every kernel bitwise-identical
// to kernels_scalar.cc. The TU compiles with -ffp-contract=off so the
// compiler cannot contract the scalar tails into fmadd either.
//
// This file is the only place (with kernels_avx2.cc) allowed to include
// <arm_neon.h> or name NEON intrinsics (lint: simd-confinement).

#include "linalg/simd/kernels.h"
#include "linalg/simd/simd.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstddef>

namespace neuroprint::linalg::simd {
namespace {

void GemmMicroNeon(const double* ap, const double* bp, std::size_t kc,
                   double* acc) {
  float64x2_t a0lo = vdupq_n_f64(0.0), a0hi = vdupq_n_f64(0.0);
  float64x2_t a1lo = vdupq_n_f64(0.0), a1hi = vdupq_n_f64(0.0);
  float64x2_t a2lo = vdupq_n_f64(0.0), a2hi = vdupq_n_f64(0.0);
  float64x2_t a3lo = vdupq_n_f64(0.0), a3hi = vdupq_n_f64(0.0);
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const double* av = ap + kk * kGemmMr;
    const double* bv = bp + kk * kGemmNr;
    const float64x2_t blo = vld1q_f64(bv);
    const float64x2_t bhi = vld1q_f64(bv + 2);
    const float64x2_t r0 = vdupq_n_f64(av[0]);
    const float64x2_t r1 = vdupq_n_f64(av[1]);
    const float64x2_t r2 = vdupq_n_f64(av[2]);
    const float64x2_t r3 = vdupq_n_f64(av[3]);
    a0lo = vaddq_f64(a0lo, vmulq_f64(r0, blo));
    a0hi = vaddq_f64(a0hi, vmulq_f64(r0, bhi));
    a1lo = vaddq_f64(a1lo, vmulq_f64(r1, blo));
    a1hi = vaddq_f64(a1hi, vmulq_f64(r1, bhi));
    a2lo = vaddq_f64(a2lo, vmulq_f64(r2, blo));
    a2hi = vaddq_f64(a2hi, vmulq_f64(r2, bhi));
    a3lo = vaddq_f64(a3lo, vmulq_f64(r3, blo));
    a3hi = vaddq_f64(a3hi, vmulq_f64(r3, bhi));
  }
  vst1q_f64(acc + 0 * kGemmNr, a0lo);
  vst1q_f64(acc + 0 * kGemmNr + 2, a0hi);
  vst1q_f64(acc + 1 * kGemmNr, a1lo);
  vst1q_f64(acc + 1 * kGemmNr + 2, a1hi);
  vst1q_f64(acc + 2 * kGemmNr, a2lo);
  vst1q_f64(acc + 2 * kGemmNr + 2, a2hi);
  vst1q_f64(acc + 3 * kGemmNr, a3lo);
  vst1q_f64(acc + 3 * kGemmNr + 2, a3hi);
}

inline double FoldLanes(const double lanes[kLanes]) {
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

inline void StoreLanes(double lanes[kLanes], float64x2_t lo, float64x2_t hi) {
  vst1q_f64(lanes, lo);
  vst1q_f64(lanes + 2, hi);
}

double DotNeon(const double* x, const double* y, std::size_t n) {
  float64x2_t lo = vdupq_n_f64(0.0);
  float64x2_t hi = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    lo = vaddq_f64(lo, vmulq_f64(vld1q_f64(x + i), vld1q_f64(y + i)));
    hi = vaddq_f64(hi, vmulq_f64(vld1q_f64(x + i + 2), vld1q_f64(y + i + 2)));
  }
  double lanes[kLanes];
  StoreLanes(lanes, lo, hi);
  for (std::size_t l = 0; i < n; ++i, ++l) lanes[l] += x[i] * y[i];
  return FoldLanes(lanes);
}

double SumNeon(const double* x, std::size_t n) {
  float64x2_t lo = vdupq_n_f64(0.0);
  float64x2_t hi = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    lo = vaddq_f64(lo, vld1q_f64(x + i));
    hi = vaddq_f64(hi, vld1q_f64(x + i + 2));
  }
  double lanes[kLanes];
  StoreLanes(lanes, lo, hi);
  for (std::size_t l = 0; i < n; ++i, ++l) lanes[l] += x[i];
  return FoldLanes(lanes);
}

double Nrm2SqNeon(const double* x, std::size_t n) {
  float64x2_t lo = vdupq_n_f64(0.0);
  float64x2_t hi = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const float64x2_t vlo = vld1q_f64(x + i);
    const float64x2_t vhi = vld1q_f64(x + i + 2);
    lo = vaddq_f64(lo, vmulq_f64(vlo, vlo));
    hi = vaddq_f64(hi, vmulq_f64(vhi, vhi));
  }
  double lanes[kLanes];
  StoreLanes(lanes, lo, hi);
  for (std::size_t l = 0; i < n; ++i, ++l) lanes[l] += x[i] * x[i];
  return FoldLanes(lanes);
}

double CssNeon(const double* x, std::size_t n, double mean) {
  const float64x2_t mu = vdupq_n_f64(mean);
  float64x2_t lo = vdupq_n_f64(0.0);
  float64x2_t hi = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const float64x2_t dlo = vsubq_f64(vld1q_f64(x + i), mu);
    const float64x2_t dhi = vsubq_f64(vld1q_f64(x + i + 2), mu);
    lo = vaddq_f64(lo, vmulq_f64(dlo, dlo));
    hi = vaddq_f64(hi, vmulq_f64(dhi, dhi));
  }
  double lanes[kLanes];
  StoreLanes(lanes, lo, hi);
  for (std::size_t l = 0; i < n; ++i, ++l) {
    const double d = x[i] - mean;
    lanes[l] += d * d;
  }
  return FoldLanes(lanes);
}

double CenterNrm2SqNeon(double* x, std::size_t n, double mean) {
  const float64x2_t mu = vdupq_n_f64(mean);
  float64x2_t lo = vdupq_n_f64(0.0);
  float64x2_t hi = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const float64x2_t dlo = vsubq_f64(vld1q_f64(x + i), mu);
    const float64x2_t dhi = vsubq_f64(vld1q_f64(x + i + 2), mu);
    vst1q_f64(x + i, dlo);
    vst1q_f64(x + i + 2, dhi);
    lo = vaddq_f64(lo, vmulq_f64(dlo, dlo));
    hi = vaddq_f64(hi, vmulq_f64(dhi, dhi));
  }
  double lanes[kLanes];
  StoreLanes(lanes, lo, hi);
  for (std::size_t l = 0; i < n; ++i, ++l) {
    const double d = x[i] - mean;
    x[i] = d;
    lanes[l] += d * d;
  }
  return FoldLanes(lanes);
}

void CorrMomentsNeon(const double* x, const double* y, std::size_t n,
                     double mean_x, double mean_y, double* sxy, double* sxx,
                     double* syy) {
  const float64x2_t mx = vdupq_n_f64(mean_x);
  const float64x2_t my = vdupq_n_f64(mean_y);
  float64x2_t xy_lo = vdupq_n_f64(0.0), xy_hi = vdupq_n_f64(0.0);
  float64x2_t xx_lo = vdupq_n_f64(0.0), xx_hi = vdupq_n_f64(0.0);
  float64x2_t yy_lo = vdupq_n_f64(0.0), yy_hi = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const float64x2_t dx_lo = vsubq_f64(vld1q_f64(x + i), mx);
    const float64x2_t dx_hi = vsubq_f64(vld1q_f64(x + i + 2), mx);
    const float64x2_t dy_lo = vsubq_f64(vld1q_f64(y + i), my);
    const float64x2_t dy_hi = vsubq_f64(vld1q_f64(y + i + 2), my);
    xy_lo = vaddq_f64(xy_lo, vmulq_f64(dx_lo, dy_lo));
    xy_hi = vaddq_f64(xy_hi, vmulq_f64(dx_hi, dy_hi));
    xx_lo = vaddq_f64(xx_lo, vmulq_f64(dx_lo, dx_lo));
    xx_hi = vaddq_f64(xx_hi, vmulq_f64(dx_hi, dx_hi));
    yy_lo = vaddq_f64(yy_lo, vmulq_f64(dy_lo, dy_lo));
    yy_hi = vaddq_f64(yy_hi, vmulq_f64(dy_hi, dy_hi));
  }
  double lxy[kLanes];
  double lxx[kLanes];
  double lyy[kLanes];
  StoreLanes(lxy, xy_lo, xy_hi);
  StoreLanes(lxx, xx_lo, xx_hi);
  StoreLanes(lyy, yy_lo, yy_hi);
  for (std::size_t l = 0; i < n; ++i, ++l) {
    const double dx = x[i] - mean_x;
    const double dy = y[i] - mean_y;
    lxy[l] += dx * dy;
    lxx[l] += dx * dx;
    lyy[l] += dy * dy;
  }
  *sxy = FoldLanes(lxy);
  *sxx = FoldLanes(lxx);
  *syy = FoldLanes(lyy);
}

void AxpyNeon(double a, const double* x, double* y, std::size_t n) {
  const float64x2_t av = vdupq_n_f64(a);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const float64x2_t plo = vmulq_f64(av, vld1q_f64(x + i));
    const float64x2_t phi = vmulq_f64(av, vld1q_f64(x + i + 2));
    vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i), plo));
    vst1q_f64(y + i + 2, vaddq_f64(vld1q_f64(y + i + 2), phi));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void CenterScaleNeon(double* x, std::size_t n, double mean,
                     double inv_scale) {
  const float64x2_t mu = vdupq_n_f64(mean);
  const float64x2_t inv = vdupq_n_f64(inv_scale);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    vst1q_f64(x + i, vmulq_f64(vsubq_f64(vld1q_f64(x + i), mu), inv));
    vst1q_f64(x + i + 2,
              vmulq_f64(vsubq_f64(vld1q_f64(x + i + 2), mu), inv));
  }
  for (; i < n; ++i) x[i] = (x[i] - mean) * inv_scale;
}

inline float64x2_t ClampNeon(float64x2_t v, float64x2_t one,
                             float64x2_t neg_one) {
  // bsl(select_mask, a, b) with ordered compares reproduces the scalar
  // ternaries exactly, including NaN pass-through.
  v = vbslq_f64(vcgtq_f64(v, one), one, v);
  v = vbslq_f64(vcltq_f64(v, neg_one), neg_one, v);
  return v;
}

void ScaleClampNeon(double* row, const double* denoms, std::size_t n,
                    double scale) {
  const float64x2_t sv = vdupq_n_f64(scale);
  const float64x2_t one = vdupq_n_f64(1.0);
  const float64x2_t neg_one = vdupq_n_f64(-1.0);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const float64x2_t dlo = vmulq_f64(sv, vld1q_f64(denoms + j));
    const float64x2_t dhi = vmulq_f64(sv, vld1q_f64(denoms + j + 2));
    const float64x2_t vlo =
        ClampNeon(vdivq_f64(vld1q_f64(row + j), dlo), one, neg_one);
    const float64x2_t vhi =
        ClampNeon(vdivq_f64(vld1q_f64(row + j + 2), dhi), one, neg_one);
    vst1q_f64(row + j, vlo);
    vst1q_f64(row + j + 2, vhi);
  }
  for (; j < n; ++j) {
    double v = row[j] / (scale * denoms[j]);
    v = v > 1.0 ? 1.0 : v;
    v = v < -1.0 ? -1.0 : v;
    row[j] = v;
  }
}

constexpr Ops kNeonOps = {
    Isa::kNeon,       GemmMicroNeon,   DotNeon,
    SumNeon,          Nrm2SqNeon,      CssNeon,
    CenterNrm2SqNeon, CorrMomentsNeon, AxpyNeon,
    CenterScaleNeon,  ScaleClampNeon,  TrilinearSsdScalar,
};

}  // namespace

const Ops* GetNeonOps() { return &kNeonOps; }

}  // namespace neuroprint::linalg::simd

#else  // !aarch64

namespace neuroprint::linalg::simd {

const Ops* GetNeonOps() { return nullptr; }

}  // namespace neuroprint::linalg::simd

#endif
