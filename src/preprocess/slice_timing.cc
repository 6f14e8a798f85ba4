#include "preprocess/slice_timing.h"

namespace neuroprint::preprocess {

std::vector<double> SliceAcquisitionFractions(std::size_t nz,
                                              SliceOrder order) {
  std::vector<double> fractions(nz, 0.0);
  if (nz == 0) return fractions;
  const double step = 1.0 / static_cast<double>(nz);
  switch (order) {
    case SliceOrder::kSequentialAscending:
      for (std::size_t z = 0; z < nz; ++z) {
        fractions[z] = static_cast<double>(z) * step;
      }
      break;
    case SliceOrder::kSequentialDescending:
      for (std::size_t z = 0; z < nz; ++z) {
        fractions[z] = static_cast<double>(nz - 1 - z) * step;
      }
      break;
    case SliceOrder::kInterleavedOdd: {
      std::size_t position = 0;
      for (std::size_t z = 0; z < nz; z += 2) {
        fractions[z] = static_cast<double>(position++) * step;
      }
      for (std::size_t z = 1; z < nz; z += 2) {
        fractions[z] = static_cast<double>(position++) * step;
      }
      break;
    }
  }
  return fractions;
}

Result<image::Volume4D> SliceTimeCorrect(const image::Volume4D& run,
                                         SliceOrder order,
                                         std::size_t reference_slice,
                                         signal::InterpKind interp,
                                         const ParallelContext& parallel) {
  if (run.empty()) {
    return Status::InvalidArgument("SliceTimeCorrect: empty run");
  }
  if (reference_slice >= run.nz()) {
    return Status::InvalidArgument(
        "SliceTimeCorrect: reference slice out of range");
  }
  const std::vector<double> fractions =
      SliceAcquisitionFractions(run.nz(), order);
  const std::size_t plane = run.nx() * run.ny();
  const std::size_t frame_stride = run.voxels_per_volume();

  image::Volume4D out = run;
  // Slice z reads and writes only its own plane of every frame.
  ParallelFor(parallel, 0, run.nz(), 1, [&](std::size_t z_lo,
                                            std::size_t z_hi) {
    std::vector<double> shifted(plane);
    for (std::size_t z = z_lo; z < z_hi; ++z) {
      // A slice acquired `delta` TRs later than the reference holds sample
      // s(t + delta) at index t; the value aligned to the reference's time
      // grid is s(t), i.e. the series evaluated at index t - delta.
      const double delta = fractions[z] - fractions[reference_slice];
      if (delta == 0.0) continue;
      const signal::InterpOperator shift =
          signal::InterpOperator::Shift(run.nt(), -delta, interp);
      const float* slice = run.data() + z * plane;
      for (std::size_t t = 0; t < run.nt(); ++t) {
        shift.ApplyAt(t, slice, frame_stride, plane, shifted.data());
        float* dst = out.VolumePtr(t) + z * plane;
        for (std::size_t p = 0; p < plane; ++p) {
          dst[p] = static_cast<float>(shifted[p]);
        }
      }
    }
  });
  return out;
}

}  // namespace neuroprint::preprocess
