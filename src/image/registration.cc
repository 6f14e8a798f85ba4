#include "image/registration.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "image/resample.h"
#include "linalg/simd/simd.h"
#include "util/fault.h"
#include "util/metrics.h"

namespace neuroprint::image {

double RegistrationCost(const Volume3D& reference, const Volume3D& moving,
                        const RigidTransform& t, std::size_t sample_stride) {
  NP_CHECK(reference.nx() == moving.nx() && reference.ny() == moving.ny() &&
           reference.nz() == moving.nz())
      << "RegistrationCost: dimension mismatch";
  const std::size_t stride = std::max<std::size_t>(1, sample_stride);
  const double cx = 0.5 * (static_cast<double>(moving.nx()) - 1.0);
  const double cy = 0.5 * (static_cast<double>(moving.ny()) - 1.0);
  const double cz = 0.5 * (static_cast<double>(moving.nz()) - 1.0);
  // The cost evaluates moving at T^{-1}(p); build the inverse once.
  const linalg::Matrix forward = RigidToAffine(t, cx, cy, cz);
  auto inverse = InvertAffine(forward);
  if (!inverse.ok()) return std::numeric_limits<double>::infinity();

  auto samples = [stride](std::size_t n) { return (n + stride - 1) / stride; };
  const std::size_t count = samples(reference.nx()) *
                            samples(reference.ny()) * samples(reference.nz());
  if (count == 0) return 0.0;
  double affine[12];
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) affine[4 * r + c] = (*inverse)(r, c);
  }
  const double sum = linalg::simd::ActiveOps().trilinear_ssd(
      affine, moving.data(), reference.data(), reference.nx(), reference.ny(),
      reference.nz(), stride);
  return sum / static_cast<double>(count);
}

Result<RegistrationResult> RegisterRigid(const Volume3D& reference,
                                         const Volume3D& moving,
                                         const RegistrationOptions& options) {
  if (reference.empty() || moving.empty()) {
    return Status::InvalidArgument("RegisterRigid: empty volume");
  }
  if (reference.nx() != moving.nx() || reference.ny() != moving.ny() ||
      reference.nz() != moving.nz()) {
    return Status::InvalidArgument("RegisterRigid: dimension mismatch");
  }
  if (!reference.AllFinite() || !moving.AllFinite()) {
    return Status::InvalidArgument("RegisterRigid: non-finite voxels");
  }
  // A NaN step never improves the cost, so the search would report the
  // identity as a converged fit; reject it instead.
  for (const double step :
       {options.initial_translation_step, options.initial_rotation_step}) {
    if (!std::isfinite(step) || step < 0.0) {
      return Status::InvalidArgument(
          "RegisterRigid: search steps must be finite and non-negative");
    }
  }

  std::array<double, 6> params = {0, 0, 0, 0, 0, 0};
  std::array<double, 6> steps = {
      options.initial_translation_step, options.initial_translation_step,
      options.initial_translation_step, options.initial_rotation_step,
      options.initial_rotation_step,    options.initial_rotation_step};

  auto cost_at = [&](const std::array<double, 6>& p) {
    return RegistrationCost(reference, moving, RigidTransform::FromArray(p),
                            options.sample_stride);
  };
  double best_cost = cost_at(params);

  // Steepest coordinate descent: per pass evaluate a +/- step on every
  // parameter and apply only the single best improving move. First-
  // improvement greedy walks can trade rotation against translation and
  // run far from the optimum; taking the globally best move per pass
  // cannot.
  for (int level = 0; level < options.refinement_levels; ++level) {
    const int max_moves = options.passes_per_level * 12;
    for (int move = 0; move < max_moves; ++move) {
      double best_trial_cost = best_cost;
      std::array<double, 6> best_trial = params;
      for (std::size_t dim = 0; dim < 6; ++dim) {
        for (const double direction : {+1.0, -1.0}) {
          std::array<double, 6> trial = params;
          trial[dim] += direction * steps[dim];
          const double c = cost_at(trial);
          if (c < best_trial_cost - 1e-15) {
            best_trial_cost = c;
            best_trial = trial;
          }
        }
      }
      if (best_trial_cost >= best_cost - 1e-15) break;
      best_cost = best_trial_cost;
      params = best_trial;
    }
    for (double& s : steps) s *= 0.5;
  }

  RegistrationResult result;
  result.transform = RigidTransform::FromArray(params);
  result.final_cost = best_cost;
  return result;
}

namespace {

// Registers frame t of `run` to `reference` and writes its transform, its
// resampled voxels and its degraded flag — frame t's slots only.
Status CorrectFrame(const Volume4D& run, const Volume3D& reference,
                    std::size_t t, const RegistrationOptions& options,
                    RigidTransform* motion, float* corrected,
                    char* degraded) {
  const Volume3D frame = run.ExtractVolume(t);
  // A fault injected at this point behaves exactly like the frame's
  // registration failing, so it exercises the fallback path too.
  Status injected = Status::OK();
  if (fault::Enabled()) {
    injected = fault::InjectedError("pipeline.motion_correct", t);
  }
  Result<RegistrationResult> reg =
      injected.ok() ? RegisterRigid(reference, frame, options)
                    : Result<RegistrationResult>(injected);
  if (!reg.ok()) {
    if (!options.identity_fallback_on_failure) return reg.status();
    // Degrade instead of failing: the frame stays unregistered under the
    // identity transform (its motion and voxels already hold that).
    *degraded = 1;
    return Status::OK();
  }
  *motion = reg->transform;
  if (!reg->transform.IsApproxIdentity(1e-9)) {
    auto resampled = ResampleRigid(frame, reg->transform);
    if (!resampled.ok()) return resampled.status();
    std::copy(resampled->flat().begin(), resampled->flat().end(), corrected);
  }
  return Status::OK();
}

}  // namespace

Result<MotionCorrectionResult> MotionCorrect(
    const Volume4D& run, const RegistrationOptions& options,
    const ParallelContext& parallel) {
  if (run.empty()) return Status::InvalidArgument("MotionCorrect: empty run");
  MotionCorrectionResult out;
  out.corrected = run;
  out.motion.resize(run.nt());
  std::vector<char> degraded(run.nt(), 0);

  const Volume3D reference = run.ExtractVolume(0);
  // Grain 1: each chunk is the single frame [t, t + 1).
  NP_RETURN_IF_ERROR(ParallelForStatus(
      parallel, 1, run.nt(), 1, [&](std::size_t t, std::size_t) -> Status {
        return CorrectFrame(run, reference, t, options, &out.motion[t],
                            out.corrected.VolumePtr(t), &degraded[t]);
      }));
  for (std::size_t t = 1; t < run.nt(); ++t) {
    if (degraded[t]) out.degraded_frames.push_back(t);
  }
  if (!out.degraded_frames.empty()) {
    metrics::Count("pipeline.frames_degraded", out.degraded_frames.size());
    metrics::Count("pipeline.scans_degraded", 1);
  }
  return out;
}

}  // namespace neuroprint::image
