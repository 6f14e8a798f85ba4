// Portable reference kernels. These definitions ARE the numeric contract:
// every vector ISA must reproduce them bit for bit.
//
// Reductions use the canonical lane-split order: kLanes (4) interleaved
// accumulators, lane l taking elements with index i % 4 == l in ascending
// i, folded left-to-right at the end:
//
//   result = ((acc0 + acc1) + acc2) + acc3
//
// A 4-wide vector register holding {acc0..acc3} performs exactly these
// lane-local additions, so AVX2 (one register) and NEON (two registers)
// match this code bitwise for any n, including ragged tails. Elementwise
// kernels and the GEMM micro-kernel use one multiply and one add per
// element — never a fused multiply-add — which vector ISAs reproduce
// exactly (their TUs compile with -ffp-contract=off so the compiler
// cannot contract either).
//
// TrilinearSsdScalar is the one entry that sums serially instead (see
// simd.h); its per-sample arithmetic is that of image::SampleTrilinear.

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "linalg/simd/kernels.h"
#include "linalg/simd/simd.h"

namespace neuroprint::linalg::simd {
namespace {

void GemmMicroScalar(const double* ap, const double* bp, std::size_t kc,
                     double* acc) {
  for (std::size_t i = 0; i < kGemmMr * kGemmNr; ++i) acc[i] = 0.0;
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const double* av = ap + kk * kGemmMr;
    const double* bv = bp + kk * kGemmNr;
    for (std::size_t r = 0; r < kGemmMr; ++r) {
      for (std::size_t c = 0; c < kGemmNr; ++c) {
        acc[r * kGemmNr + c] += av[r] * bv[c];
      }
    }
  }
}

// Folds the four lane accumulators in the canonical left-to-right order.
inline double FoldLanes(const double acc[kLanes]) {
  return ((acc[0] + acc[1]) + acc[2]) + acc[3];
}

double DotScalar(const double* x, const double* y, std::size_t n) {
  double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    acc[0] += x[i] * y[i];
    acc[1] += x[i + 1] * y[i + 1];
    acc[2] += x[i + 2] * y[i + 2];
    acc[3] += x[i + 3] * y[i + 3];
  }
  for (std::size_t l = 0; i < n; ++i, ++l) acc[l] += x[i] * y[i];
  return FoldLanes(acc);
}

double SumScalar(const double* x, std::size_t n) {
  double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    acc[0] += x[i];
    acc[1] += x[i + 1];
    acc[2] += x[i + 2];
    acc[3] += x[i + 3];
  }
  for (std::size_t l = 0; i < n; ++i, ++l) acc[l] += x[i];
  return FoldLanes(acc);
}

double Nrm2SqScalar(const double* x, std::size_t n) {
  double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    acc[0] += x[i] * x[i];
    acc[1] += x[i + 1] * x[i + 1];
    acc[2] += x[i + 2] * x[i + 2];
    acc[3] += x[i + 3] * x[i + 3];
  }
  for (std::size_t l = 0; i < n; ++i, ++l) acc[l] += x[i] * x[i];
  return FoldLanes(acc);
}

double CssScalar(const double* x, std::size_t n, double mean) {
  double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const double d0 = x[i] - mean;
    const double d1 = x[i + 1] - mean;
    const double d2 = x[i + 2] - mean;
    const double d3 = x[i + 3] - mean;
    acc[0] += d0 * d0;
    acc[1] += d1 * d1;
    acc[2] += d2 * d2;
    acc[3] += d3 * d3;
  }
  for (std::size_t l = 0; i < n; ++i, ++l) {
    const double d = x[i] - mean;
    acc[l] += d * d;
  }
  return FoldLanes(acc);
}

double CenterNrm2SqScalar(double* x, std::size_t n, double mean) {
  double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const double d0 = x[i] - mean;
    const double d1 = x[i + 1] - mean;
    const double d2 = x[i + 2] - mean;
    const double d3 = x[i + 3] - mean;
    x[i] = d0;
    x[i + 1] = d1;
    x[i + 2] = d2;
    x[i + 3] = d3;
    acc[0] += d0 * d0;
    acc[1] += d1 * d1;
    acc[2] += d2 * d2;
    acc[3] += d3 * d3;
  }
  for (std::size_t l = 0; i < n; ++i, ++l) {
    const double d = x[i] - mean;
    x[i] = d;
    acc[l] += d * d;
  }
  return FoldLanes(acc);
}

void CorrMomentsScalar(const double* x, const double* y, std::size_t n,
                       double mean_x, double mean_y, double* sxy, double* sxx,
                       double* syy) {
  double axy[kLanes] = {0.0, 0.0, 0.0, 0.0};
  double axx[kLanes] = {0.0, 0.0, 0.0, 0.0};
  double ayy[kLanes] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double dx = x[i + l] - mean_x;
      const double dy = y[i + l] - mean_y;
      axy[l] += dx * dy;
      axx[l] += dx * dx;
      ayy[l] += dy * dy;
    }
  }
  for (std::size_t l = 0; i < n; ++i, ++l) {
    const double dx = x[i] - mean_x;
    const double dy = y[i] - mean_y;
    axy[l] += dx * dy;
    axx[l] += dx * dx;
    ayy[l] += dy * dy;
  }
  *sxy = FoldLanes(axy);
  *sxx = FoldLanes(axx);
  *syy = FoldLanes(ayy);
}

void AxpyScalar(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void CenterScaleScalar(double* x, std::size_t n, double mean,
                       double inv_scale) {
  for (std::size_t i = 0; i < n; ++i) x[i] = (x[i] - mean) * inv_scale;
}

void ScaleClampScalar(double* row, const double* denoms, std::size_t n,
                      double scale) {
  for (std::size_t j = 0; j < n; ++j) {
    double v = row[j] / (scale * denoms[j]);
    v = v > 1.0 ? 1.0 : v;
    v = v < -1.0 ? -1.0 : v;
    row[j] = v;
  }
}

constexpr Ops kScalarOps = {
    Isa::kScalar,       GemmMicroScalar,    DotScalar,
    SumScalar,          Nrm2SqScalar,       CssScalar,
    CenterNrm2SqScalar, CorrMomentsScalar,  AxpyScalar,
    CenterScaleScalar,  ScaleClampScalar,   TrilinearSsdScalar,
};

// floor(s) as an index for an in-range coordinate: truncation equals floor
// for s >= 0 (and -0.0), and the signed conversion is one instruction
// where std::floor is a libm call at the baseline x86-64 ISA.
inline std::size_t FloorIndex(double s) {
  return static_cast<std::size_t>(static_cast<std::int64_t>(s));
}

}  // namespace

double TrilinearSsdScalar(const double* affine, const float* moving,
                          const float* reference, std::size_t nx,
                          std::size_t ny, std::size_t nz, std::size_t stride) {
  const double max_x = static_cast<double>(nx) - 1.0;
  const double max_y = static_cast<double>(ny) - 1.0;
  const double max_z = static_cast<double>(nz) - 1.0;
  const std::size_t plane = nx * ny;
  double sum = 0.0;
  for (std::size_t z = 0; z < nz; z += stride) {
    const double zd = static_cast<double>(z);
    const double z_x = affine[2] * zd;
    const double z_y = affine[6] * zd;
    const double z_z = affine[10] * zd;
    for (std::size_t y = 0; y < ny; y += stride) {
      const double yd = static_cast<double>(y);
      const double y_x = affine[1] * yd;
      const double y_y = affine[5] * yd;
      const double y_z = affine[9] * yd;
      const float* ref_row = reference + nx * (y + ny * z);
      for (std::size_t x = 0; x < nx; x += stride) {
        const double xd = static_cast<double>(x);
        const double sx = affine[0] * xd + y_x + z_x + affine[3];
        const double sy = affine[4] * xd + y_y + z_y + affine[7];
        const double sz = affine[8] * xd + y_z + z_z + affine[11];
        double sample = 0.0;
        if (sx >= 0.0 && sx <= max_x && sy >= 0.0 && sy <= max_y &&
            sz >= 0.0 && sz <= max_z) {
          const std::size_t x0 = FloorIndex(sx);
          const std::size_t y0 = FloorIndex(sy);
          const std::size_t z0 = FloorIndex(sz);
          const std::size_t x1 = std::min(x0 + 1, nx - 1);
          const std::size_t y1 = std::min(y0 + 1, ny - 1);
          const std::size_t z1 = std::min(z0 + 1, nz - 1);
          const double fx = sx - static_cast<double>(x0);
          const double fy = sy - static_cast<double>(y0);
          const double fz = sz - static_cast<double>(z0);
          const float* p00 = moving + nx * y0 + plane * z0;
          const float* p10 = moving + nx * y1 + plane * z0;
          const float* p01 = moving + nx * y0 + plane * z1;
          const float* p11 = moving + nx * y1 + plane * z1;
          const double c000 = p00[x0], c100 = p00[x1];
          const double c010 = p10[x0], c110 = p10[x1];
          const double c001 = p01[x0], c101 = p01[x1];
          const double c011 = p11[x0], c111 = p11[x1];
          const double c00 = c000 * (1 - fx) + c100 * fx;
          const double c10 = c010 * (1 - fx) + c110 * fx;
          const double c01 = c001 * (1 - fx) + c101 * fx;
          const double c11 = c011 * (1 - fx) + c111 * fx;
          const double c0 = c00 * (1 - fy) + c10 * fy;
          const double c1 = c01 * (1 - fy) + c11 * fy;
          sample = c0 * (1 - fz) + c1 * fz;
        }
        const double diff = sample - static_cast<double>(ref_row[x]);
        sum += diff * diff;
      }
    }
  }
  return sum;
}

const Ops* GetScalarOps() { return &kScalarOps; }

}  // namespace neuroprint::linalg::simd
