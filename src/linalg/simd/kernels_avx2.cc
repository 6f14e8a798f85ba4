// AVX2 kernels. Bitwise-identical to kernels_scalar.cc by construction:
// one __m256d holds the four canonical lane accumulators, lane-local adds
// mirror the scalar lane updates, ragged tails fall back to the same
// scalar statements, and every element sees exactly one multiply and one
// add (FMA is available at this TU's -mfma but deliberately unused; the
// TU also compiles with -ffp-contract=off so the compiler cannot fuse
// behind our back — see CMakeLists.txt). The registration cost computes
// four samples per vector and then adds their squares to one serial sum,
// lane 0 first, as the scalar kernel does (see simd.h).
//
// This file is the only place (with kernels_neon.cc) allowed to include
// <immintrin.h> or name _mm* intrinsics (lint: simd-confinement).

#include "linalg/simd/kernels.h"
#include "linalg/simd/simd.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace neuroprint::linalg::simd {
namespace {

void GemmMicroAvx2(const double* ap, const double* bp, std::size_t kc,
                   double* acc) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const double* av = ap + kk * kGemmMr;
    const __m256d bv = _mm256_loadu_pd(bp + kk * kGemmNr);
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_set1_pd(av[0]), bv));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_set1_pd(av[1]), bv));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_set1_pd(av[2]), bv));
    acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(_mm256_set1_pd(av[3]), bv));
  }
  _mm256_storeu_pd(acc + 0 * kGemmNr, acc0);
  _mm256_storeu_pd(acc + 1 * kGemmNr, acc1);
  _mm256_storeu_pd(acc + 2 * kGemmNr, acc2);
  _mm256_storeu_pd(acc + 3 * kGemmNr, acc3);
}

inline double FoldLanes(const double lanes[kLanes]) {
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

double DotAvx2(const double* x, const double* y, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  double lanes[kLanes];
  _mm256_storeu_pd(lanes, acc);
  for (std::size_t l = 0; i < n; ++i, ++l) lanes[l] += x[i] * y[i];
  return FoldLanes(lanes);
}

double SumAvx2(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  double lanes[kLanes];
  _mm256_storeu_pd(lanes, acc);
  for (std::size_t l = 0; i < n; ++i, ++l) lanes[l] += x[i];
  return FoldLanes(lanes);
}

double Nrm2SqAvx2(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  double lanes[kLanes];
  _mm256_storeu_pd(lanes, acc);
  for (std::size_t l = 0; i < n; ++i, ++l) lanes[l] += x[i] * x[i];
  return FoldLanes(lanes);
}

double CssAvx2(const double* x, std::size_t n, double mean) {
  const __m256d mu = _mm256_set1_pd(mean);
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + i), mu);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double lanes[kLanes];
  _mm256_storeu_pd(lanes, acc);
  for (std::size_t l = 0; i < n; ++i, ++l) {
    const double d = x[i] - mean;
    lanes[l] += d * d;
  }
  return FoldLanes(lanes);
}

double CenterNrm2SqAvx2(double* x, std::size_t n, double mean) {
  const __m256d mu = _mm256_set1_pd(mean);
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + i), mu);
    _mm256_storeu_pd(x + i, d);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double lanes[kLanes];
  _mm256_storeu_pd(lanes, acc);
  for (std::size_t l = 0; i < n; ++i, ++l) {
    const double d = x[i] - mean;
    x[i] = d;
    lanes[l] += d * d;
  }
  return FoldLanes(lanes);
}

void CorrMomentsAvx2(const double* x, const double* y, std::size_t n,
                     double mean_x, double mean_y, double* sxy, double* sxx,
                     double* syy) {
  const __m256d mx = _mm256_set1_pd(mean_x);
  const __m256d my = _mm256_set1_pd(mean_y);
  __m256d axy = _mm256_setzero_pd();
  __m256d axx = _mm256_setzero_pd();
  __m256d ayy = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(x + i), mx);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(y + i), my);
    axy = _mm256_add_pd(axy, _mm256_mul_pd(dx, dy));
    axx = _mm256_add_pd(axx, _mm256_mul_pd(dx, dx));
    ayy = _mm256_add_pd(ayy, _mm256_mul_pd(dy, dy));
  }
  double lxy[kLanes];
  double lxx[kLanes];
  double lyy[kLanes];
  _mm256_storeu_pd(lxy, axy);
  _mm256_storeu_pd(lxx, axx);
  _mm256_storeu_pd(lyy, ayy);
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

void AxpyAvx2(double a, const double* x, double* y, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d prod = _mm256_mul_pd(av, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void CenterScaleAvx2(double* x, std::size_t n, double mean,
                     double inv_scale) {
  const __m256d mu = _mm256_set1_pd(mean);
  const __m256d inv = _mm256_set1_pd(inv_scale);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + i), mu);
    _mm256_storeu_pd(x + i, _mm256_mul_pd(d, inv));
  }
  for (; i < n; ++i) x[i] = (x[i] - mean) * inv_scale;
}

void ScaleClampAvx2(double* row, const double* denoms, std::size_t n,
                    double scale) {
  const __m256d sv = _mm256_set1_pd(scale);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d neg_one = _mm256_set1_pd(-1.0);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const __m256d denom = _mm256_mul_pd(sv, _mm256_loadu_pd(denoms + j));
    __m256d v = _mm256_div_pd(_mm256_loadu_pd(row + j), denom);
    // Ordered, quiet compares + blends reproduce the scalar ternaries
    // exactly, including NaN pass-through (_mm256_min/max_pd would not).
    v = _mm256_blendv_pd(v, one, _mm256_cmp_pd(v, one, _CMP_GT_OQ));
    v = _mm256_blendv_pd(v, neg_one, _mm256_cmp_pd(v, neg_one, _CMP_LT_OQ));
    _mm256_storeu_pd(row + j, v);
  }
  for (; j < n; ++j) {
    double v = row[j] / (scale * denoms[j]);
    v = v > 1.0 ? 1.0 : v;
    v = v < -1.0 ? -1.0 : v;
    row[j] = v;
  }
}

// One 3x4 affine row: a*(x,y,z,1) for the four x lanes, with the y and z
// products hoisted per row — the scalar kernel's association order.
struct AffineRow {
  __m256d ax;      // a[0], broadcast
  __m256d y_part;  // a[1]*y
  __m256d z_part;  // a[2]*z
  __m256d offset;  // a[3]

  __m256d At(__m256d xd) const {
    return _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(ax, xd), y_part), z_part),
        offset);
  }
};

// Squared differences for four x lanes of one grid row. `valid` masks the
// lanes that exist (the row tail); invalid and outside lanes sample 0.0,
// and invalid lanes are never summed by the caller.
class TrilinearSsdBlock {
 public:
  TrilinearSsdBlock(const float* moving, std::size_t nx, std::size_t ny,
                    std::size_t nz)
      : moving_(moving),
        max_x_(_mm256_set1_pd(static_cast<double>(nx) - 1.0)),
        max_y_(_mm256_set1_pd(static_cast<double>(ny) - 1.0)),
        max_z_(_mm256_set1_pd(static_cast<double>(nz) - 1.0)),
        last_x_(_mm_set1_epi32(static_cast<std::int32_t>(nx - 1))),
        last_y_(_mm_set1_epi32(static_cast<std::int32_t>(ny - 1))),
        last_z_(_mm_set1_epi32(static_cast<std::int32_t>(nz - 1))),
        row_(_mm_set1_epi32(static_cast<std::int32_t>(nx))),
        plane_(_mm_set1_epi32(static_cast<std::int32_t>(nx * ny))) {}

  __m256d Squares(__m256d sx, __m256d sy, __m256d sz, __m256d valid,
                  __m256d ref) const {
    const __m256d zero = _mm256_setzero_pd();
    // Ordered compares are false on NaN, so NaN lanes fall outside, as in
    // the scalar `!(s >= 0 && s <= max)` test.
    __m256d inside = _mm256_and_pd(valid, InRange(sx, max_x_));
    inside = _mm256_and_pd(inside, InRange(sy, max_y_));
    inside = _mm256_and_pd(inside, InRange(sz, max_z_));
    // Outside lanes sample at the origin so every gather index is safe.
    sx = _mm256_blendv_pd(zero, sx, inside);
    sy = _mm256_blendv_pd(zero, sy, inside);
    sz = _mm256_blendv_pd(zero, sz, inside);
    // Truncation is floor here: every lane is now >= 0 (or -0.0).
    const __m128i x0 = _mm256_cvttpd_epi32(sx);
    const __m128i y0 = _mm256_cvttpd_epi32(sy);
    const __m128i z0 = _mm256_cvttpd_epi32(sz);
    const __m128i one = _mm_set1_epi32(1);
    const __m128i x1 = _mm_min_epi32(_mm_add_epi32(x0, one), last_x_);
    const __m128i y1 = _mm_min_epi32(_mm_add_epi32(y0, one), last_y_);
    const __m128i z1 = _mm_min_epi32(_mm_add_epi32(z0, one), last_z_);
    // f = s - double(floor index): the index round-trip maps -0.0 to +0.0
    // exactly as the scalar size_t cast does.
    const __m256d fx = _mm256_sub_pd(sx, _mm256_cvtepi32_pd(x0));
    const __m256d fy = _mm256_sub_pd(sy, _mm256_cvtepi32_pd(y0));
    const __m256d fz = _mm256_sub_pd(sz, _mm256_cvtepi32_pd(z0));

    const __m128i r0 = _mm_mullo_epi32(y0, row_);
    const __m128i r1 = _mm_mullo_epi32(y1, row_);
    const __m128i p0 = _mm_mullo_epi32(z0, plane_);
    const __m128i p1 = _mm_mullo_epi32(z1, plane_);
    const __m128i b00 = _mm_add_epi32(r0, p0);
    const __m128i b10 = _mm_add_epi32(r1, p0);
    const __m128i b01 = _mm_add_epi32(r0, p1);
    const __m128i b11 = _mm_add_epi32(r1, p1);

    const __m256d c00 = LerpX(b00, x0, x1, fx);
    const __m256d c10 = LerpX(b10, x0, x1, fx);
    const __m256d c01 = LerpX(b01, x0, x1, fx);
    const __m256d c11 = LerpX(b11, x0, x1, fx);
    const __m256d c0 = Lerp(c00, c10, fy);
    const __m256d c1 = Lerp(c01, c11, fy);
    const __m256d sample = _mm256_blendv_pd(zero, Lerp(c0, c1, fz), inside);
    const __m256d diff = _mm256_sub_pd(sample, ref);
    return _mm256_mul_pd(diff, diff);
  }

 private:
  static __m256d InRange(__m256d s, __m256d max) {
    return _mm256_and_pd(_mm256_cmp_pd(s, _mm256_setzero_pd(), _CMP_GE_OQ),
                         _mm256_cmp_pd(s, max, _CMP_LE_OQ));
  }

  // c*(1-f) + c'*f, two multiplies and two adds like the scalar lerp.
  static __m256d Lerp(__m256d c, __m256d c_next, __m256d f) {
    const __m256d one_minus_f = _mm256_sub_pd(_mm256_set1_pd(1.0), f);
    return _mm256_add_pd(_mm256_mul_pd(c, one_minus_f),
                         _mm256_mul_pd(c_next, f));
  }

  __m256d Gather(__m128i index) const {
    return _mm256_cvtps_pd(_mm_i32gather_ps(moving_, index, 4));
  }

  __m256d LerpX(__m128i base, __m128i x0, __m128i x1, __m256d fx) const {
    return Lerp(Gather(_mm_add_epi32(base, x0)),
                Gather(_mm_add_epi32(base, x1)), fx);
  }

  const float* moving_;
  __m256d max_x_, max_y_, max_z_;
  __m128i last_x_, last_y_, last_z_;
  __m128i row_, plane_;
};

// Adds the first `lanes` squares to `sum` one at a time, lane 0 first —
// the scalar kernel's serial grid order.
inline double AddSerially(double sum, __m256d squares, std::size_t lanes) {
  double sq[kLanes];
  _mm256_storeu_pd(sq, squares);
  for (std::size_t l = 0; l < lanes; ++l) sum += sq[l];
  return sum;
}

double TrilinearSsdAvx2(const double* affine, const float* moving,
                        const float* reference, std::size_t nx,
                        std::size_t ny, std::size_t nz, std::size_t stride) {
  // Gathers take 32-bit indices; beyond that the scalar kernel computes
  // the same bits.
  if (nx * ny * nz > static_cast<std::size_t>(INT32_MAX)) {
    return TrilinearSsdScalar(affine, moving, reference, nx, ny, nz, stride);
  }
  const TrilinearSsdBlock block(moving, nx, ny, nz);
  const double step = static_cast<double>(stride);
  const __m256d lane_x = _mm256_set_pd(3.0 * step, 2.0 * step, step, 0.0);
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const std::size_t block_span = kLanes * stride;
  double sum = 0.0;
  for (std::size_t z = 0; z < nz; z += stride) {
    const __m256d zd = _mm256_set1_pd(static_cast<double>(z));
    for (std::size_t y = 0; y < ny; y += stride) {
      const __m256d yd = _mm256_set1_pd(static_cast<double>(y));
      AffineRow rows[3];
      for (std::size_t r = 0; r < 3; ++r) {
        const double* a = affine + 4 * r;
        rows[r] = {_mm256_set1_pd(a[0]),
                   _mm256_mul_pd(_mm256_set1_pd(a[1]), yd),
                   _mm256_mul_pd(_mm256_set1_pd(a[2]), zd),
                   _mm256_set1_pd(a[3])};
      }
      const float* ref_row = reference + nx * (y + ny * z);
      std::size_t x = 0;
      for (; x + (kLanes - 1) * stride < nx; x += block_span) {
        const __m256d xd = _mm256_add_pd(
            _mm256_set1_pd(static_cast<double>(x)), lane_x);
        const __m256d ref =
            stride == 1
                ? _mm256_cvtps_pd(_mm_loadu_ps(ref_row + x))
                : _mm256_set_pd(ref_row[x + 3 * stride],
                                ref_row[x + 2 * stride], ref_row[x + stride],
                                ref_row[x]);
        sum = AddSerially(sum,
                          block.Squares(rows[0].At(xd), rows[1].At(xd),
                                        rows[2].At(xd), all, ref),
                          kLanes);
      }
      if (x < nx) {
        // Row tail: 1..3 samples remain.
        const std::size_t lanes = (nx - x + stride - 1) / stride;
        double ref_lanes[kLanes] = {0.0, 0.0, 0.0, 0.0};
        for (std::size_t l = 0; l < lanes; ++l) {
          ref_lanes[l] = ref_row[x + l * stride];
        }
        const __m256d xd = _mm256_add_pd(
            _mm256_set1_pd(static_cast<double>(x)), lane_x);
        const __m256d valid =
            _mm256_cmp_pd(_mm256_set_pd(3.0, 2.0, 1.0, 0.0),
                          _mm256_set1_pd(static_cast<double>(lanes)),
                          _CMP_LT_OQ);
        sum = AddSerially(sum,
                          block.Squares(rows[0].At(xd), rows[1].At(xd),
                                        rows[2].At(xd), valid,
                                        _mm256_loadu_pd(ref_lanes)),
                          lanes);
      }
    }
  }
  return sum;
}

constexpr Ops kAvx2Ops = {
    Isa::kAvx2,       GemmMicroAvx2,   DotAvx2,
    SumAvx2,          Nrm2SqAvx2,      CssAvx2,
    CenterNrm2SqAvx2, CorrMomentsAvx2, AxpyAvx2,
    CenterScaleAvx2,  ScaleClampAvx2,  TrilinearSsdAvx2,
};

}  // namespace

const Ops* GetAvx2Ops() { return &kAvx2Ops; }

}  // namespace neuroprint::linalg::simd

#else  // !x86-64

namespace neuroprint::linalg::simd {

const Ops* GetAvx2Ops() { return nullptr; }

}  // namespace neuroprint::linalg::simd

#endif
