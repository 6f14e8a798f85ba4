// Spatial interpolation of Volume3D at continuous voxel coordinates.

#ifndef NEUROPRINT_IMAGE_INTERPOLATE_H_
#define NEUROPRINT_IMAGE_INTERPOLATE_H_

#include "image/volume.h"

namespace neuroprint::image {

/// Trilinear interpolation at (x, y, z) in voxel coordinates. Coordinates
/// outside the volume, and NaN coordinates, return `outside_value`
/// (default 0, the background of a skull-stripped image).
double SampleTrilinear(const Volume3D& v, double x, double y, double z,
                       double outside_value = 0.0);

/// Nearest-neighbour sampling (used for label volumes, where averaging
/// labels would be meaningless).
double SampleNearest(const Volume3D& v, double x, double y, double z,
                     double outside_value = 0.0);

}  // namespace neuroprint::image

#endif  // NEUROPRINT_IMAGE_INTERPOLATE_H_
