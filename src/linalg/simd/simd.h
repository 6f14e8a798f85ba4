// Runtime-dispatched SIMD micro-kernels for the dense hot loops.
//
// One dispatch table (`Ops`) holds function pointers for the level-1
// reductions, elementwise transforms, and the 4x4 GEMM micro-kernel that
// `gemm_kernel.cc` tiles over. The table is resolved once, on first use,
// from CPU capabilities (`__builtin_cpu_supports` on x86-64, baseline NEON
// on aarch64) and the `NEUROPRINT_ISA` environment variable:
//
//   NEUROPRINT_ISA=scalar   force the portable reference kernels
//   NEUROPRINT_ISA=avx2     require AVX2 (falls back to scalar with a
//                           warning when the CPU lacks it)
//   NEUROPRINT_ISA=neon     require NEON (aarch64 only; same fallback)
//   NEUROPRINT_ISA=native   pick the best supported ISA (the default)
//
// Determinism contract (see ANALYSIS.md "SIMD kernels"): every entry in
// every table computes bit-identical results for the same inputs,
// regardless of ISA. Elementwise kernels and the GEMM micro-kernel keep
// the exact per-element operation sequence of the scalar code, so
// vectorizing across independent output lanes cannot change bits (FMA
// contraction is never used; all SIMD translation units compile with
// -ffp-contract=off). Reductions use a fixed "lane-split" order — kLanes
// interleaved partial sums folded left-to-right — that the scalar kernels
// implement with the same arithmetic, making scalar the bitwise oracle
// for the vector paths at any input length.
//
// One entry is the exception: `trilinear_ssd`, the registration cost of
// image/registration.cc, sums serially in grid-visit order rather than
// lane-split. Its sum predates the kernel, and every motion estimate
// (hence the pinned voxel-pipeline goldens) depends on those exact bits;
// reordering the sum would move them. It still vectorizes, because each
// sample's coordinates and trilinear lerps are an independent output
// lane; only the final `sum += diff * diff` is serial.
//
// Only files under src/linalg/simd/ may include <immintrin.h> or
// <arm_neon.h> or name ISA-specific intrinsics (lint: simd-confinement).

#ifndef NEUROPRINT_LINALG_SIMD_SIMD_H_
#define NEUROPRINT_LINALG_SIMD_SIMD_H_

#include <cstddef>

namespace neuroprint::linalg::simd {

// Lane count of the canonical lane-split reduction order. Fixed at 4
// (one AVX2 register of doubles; two NEON registers) on every platform so
// results are identical across ISAs, including scalar.
inline constexpr std::size_t kLanes = 4;

// Register-tile shape of the GEMM micro-kernel. `gemm_kernel.cc` packs
// panels in groups of this size; the micro-kernel contracts one packed
// A-panel row-group against one packed B-panel column-group.
inline constexpr std::size_t kGemmMr = 4;
inline constexpr std::size_t kGemmNr = 4;

enum class Isa { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// Human-readable ISA name ("scalar", "avx2", "neon").
const char* IsaName(Isa isa);

/// True when the running CPU can execute kernels for `isa`.
bool IsaSupported(Isa isa);

/// The fastest ISA supported by the running CPU.
Isa BestSupportedIsa();

// Dispatch table. All pointers are always non-null.
struct Ops {
  Isa isa;

  // acc (row-major kGemmMr x kGemmNr) := sum over kk < kc of
  // ap[kk*kGemmMr + r] * bp[kk*kGemmNr + c], accumulated in ascending kk
  // with one multiply and one add per element (no FMA).
  void (*gemm_4x4)(const double* ap, const double* bp, std::size_t kc,
                   double* acc);

  // Lane-split reductions (canonical order; see file comment).
  double (*dot)(const double* x, const double* y, std::size_t n);
  double (*sum)(const double* x, std::size_t n);
  double (*nrm2sq)(const double* x, std::size_t n);
  // Centered sum of squares: sum of (x[i]-mean)^2; does not modify x.
  double (*css)(const double* x, std::size_t n, double mean);
  // In-place centering that also returns the centered sum of squares:
  // x[i] -= mean, then accumulates x[i]*x[i] post-subtraction.
  double (*center_nrm2sq)(double* x, std::size_t n, double mean);
  // Pearson moments in one pass: dx=x[i]-mean_x, dy=y[i]-mean_y,
  // *sxy=sum dx*dy, *sxx=sum dx*dx, *syy=sum dy*dy (each lane-split).
  void (*corr_moments)(const double* x, const double* y, std::size_t n,
                       double mean_x, double mean_y, double* sxy, double* sxx,
                       double* syy);

  // Elementwise transforms (exact scalar op sequence per element).
  void (*axpy)(double a, const double* x, double* y, std::size_t n);
  // x[i] = (x[i] - mean) * inv_scale.
  void (*center_scale)(double* x, std::size_t n, double mean,
                       double inv_scale);
  // row[j] = clamp(row[j] / (scale * denoms[j]), -1, 1) with the exact
  // ternary semantics `v > 1 ? 1 : v; v < -1 ? -1 : v` (NaN passes
  // through unchanged on every ISA). Callers must ensure the products
  // scale*denoms[j] are positive and finite (see ColumnCrossCorrelation).
  void (*scale_clamp)(double* row, const double* denoms, std::size_t n,
                      double scale);

  // Registration cost over a whole grid: the sum of squared differences
  // between `reference` and `moving` trilinearly resampled under a 3x4
  // affine (row-major `affine[12]`, the top three rows of a 4x4).
  // Both volumes are nx*ny*nz floats stored x-fastest. The visited grid
  // points are those whose x, y and z are all multiples of `stride`
  // (>= 1), taken z-y-x with x fastest. For each one:
  //
  //   sx = a[0]*x + a[1]*y + a[2]*z + a[3]   (left to right, no FMA;
  //   sy, sz likewise from rows 1 and 2)      products may be hoisted)
  //   sample = trilinear(moving, sx, sy, sz): 0.0 unless
  //            0 <= s <= n-1 on every axis (NaN counts as outside);
  //            corners floor(s) and min(floor(s)+1, n-1); seven lerps
  //            c*(1-f) + c'*f along x, then y, then z
  //   diff = sample - reference[x, y, z];  sum += diff*diff  (serially)
  //
  // The AVX2 kernel gathers with 32-bit indices and defers to the scalar
  // kernel when nx*ny*nz exceeds INT32_MAX. NEON uses the scalar kernel.
  double (*trilinear_ssd)(const double* affine, const float* moving,
                          const float* reference, std::size_t nx,
                          std::size_t ny, std::size_t nz, std::size_t stride);
};

/// The active dispatch table. Resolved once on first call (reading
/// NEUROPRINT_ISA and probing the CPU); afterwards a single relaxed
/// atomic load, safe to call from pool workers.
const Ops& ActiveOps();

/// ISA of the active table (== ActiveOps().isa).
Isa ActiveIsa();

/// Raw NEUROPRINT_ISA value latched at first dispatch ("" when unset).
/// Recorded in bench JSON so perf records are attributable to an ISA.
const char* IsaOverrideEnv();

// Swaps the active table for the lifetime of the object — for tests and
// benches that compare ISAs within one process (e.g. scalar-vs-AVX2
// bitwise parity). Falls back to scalar when `isa` is unsupported. Not
// safe to construct while parallel kernels are in flight on other
// threads; test and bench harnesses are serial at override points.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa);
  ~ScopedIsa();
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  const Ops* previous_;
};

}  // namespace neuroprint::linalg::simd

#endif  // NEUROPRINT_LINALG_SIMD_SIMD_H_
