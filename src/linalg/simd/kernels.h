// Internal: per-ISA kernel table accessors for the dispatch layer.
// GetAvx2Ops()/GetNeonOps() return nullptr on hosts whose toolchain did
// not build that ISA's translation unit (the files themselves compile
// everywhere; the bodies are preprocessor-gated on the target arch).

#ifndef NEUROPRINT_LINALG_SIMD_KERNELS_H_
#define NEUROPRINT_LINALG_SIMD_KERNELS_H_

#include <cstddef>

#include "linalg/simd/simd.h"

namespace neuroprint::linalg::simd {

const Ops* GetScalarOps();  // never nullptr
const Ops* GetAvx2Ops();    // nullptr unless built for x86-64
const Ops* GetNeonOps();    // nullptr unless built for aarch64

// The scalar registration-cost kernel, shared by every table: NEON points
// at it directly and AVX2 defers to it for grids past 32-bit indices.
double TrilinearSsdScalar(const double* affine, const float* moving,
                          const float* reference, std::size_t nx,
                          std::size_t ny, std::size_t nz, std::size_t stride);

}  // namespace neuroprint::linalg::simd

#endif  // NEUROPRINT_LINALG_SIMD_KERNELS_H_
