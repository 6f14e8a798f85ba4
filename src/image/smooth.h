// Separable Gaussian spatial smoothing, parameterized by FWHM in
// millimetres as is conventional in fMRI pipelines.

#ifndef NEUROPRINT_IMAGE_SMOOTH_H_
#define NEUROPRINT_IMAGE_SMOOTH_H_

#include "image/volume.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace neuroprint::image {

/// Largest kernel radius, in voxels, GaussianSmooth accepts: the longest
/// axis a NIfTI-1 header can describe. A wider kernel is a units mistake,
/// not a smoothing request, and would only burn time and memory.
inline constexpr int kMaxSmoothingRadius = 32767;

/// Smooths `v` with an isotropic Gaussian of the given full-width at half
/// maximum (millimetres; converted per-axis using the voxel spacing).
/// FWHM 0 returns the input unchanged. A negative or non-finite FWHM, or
/// one whose kernel radius (3 sigma) exceeds kMaxSmoothingRadius voxels on
/// some axis, is InvalidArgument.
Result<Volume3D> GaussianSmooth(const Volume3D& v, double fwhm_mm);

/// Smooths every volume of a 4-D run, frames in parallel. Frames are
/// independent, so the output is bitwise-identical at any thread count.
Result<Volume4D> GaussianSmooth4D(const Volume4D& v, double fwhm_mm,
                                  const ParallelContext& parallel = {});

/// Converts FWHM to the Gaussian sigma (FWHM = 2 sqrt(2 ln 2) sigma).
double FwhmToSigma(double fwhm);

}  // namespace neuroprint::image

#endif  // NEUROPRINT_IMAGE_SMOOTH_H_
