// Pinned-seed end-to-end regression test: the full simulate -> fit ->
// identify workflow with a fixed seed must keep producing exactly the
// outputs checked in below — the identification accuracy, the predicted
// assignment, and the top selected leverage features down to the bit.
//
// These goldens pin the composed numeric behavior of the cohort
// simulator, preprocessing-free group-matrix path, leverage-score
// feature selection, and correlation matcher. Any change that moves them
// is either a bug or an intentional numeric change; in the latter case
// regenerate the constants (the test's failure output prints the new
// bits) and explain the change in the commit message. The 50% accuracy
// is not a quality claim — this cohort is deliberately tiny (8 subjects,
// 16 regions, 60 frames) to keep the tier fast.

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "atlas/synthetic_atlas.h"
#include "connectome/matrix_store.h"
#include "core/attack.h"
#include "image/registration.h"
#include "preprocess/pipeline.h"
#include "sim/cohort.h"
#include "sim/voxel_render.h"
#include "util/random.h"

namespace neuroprint {
namespace {

struct GoldenFeature {
  std::size_t index;
  std::uint64_t leverage_bits;
};

// Generated from the pinned run below at 1 thread; the thread count must
// not matter (see parallel_invariance_test).
//
// Leverage bits re-pinned when the level-1 reductions (Dot / Mean /
// Variance and friends) adopted the SIMD layer's canonical lane-split
// order — four interleaved partial sums folded left to right — which is
// bit-identical across scalar/AVX2/NEON kernels but differs from the old
// single-accumulator serial order by a few ULPs (see
// linalg/simd/simd.h). Accuracy, the predicted assignment, and the
// feature ranking were unaffected.
constexpr std::uint64_t kGoldenAccuracyBits = 0x3fe0000000000000ull;  // 0.5
constexpr std::size_t kGoldenPredictedIndex[] = {0, 5, 4, 4, 4, 5, 5, 7};
constexpr GoldenFeature kGoldenTopFeatures[] = {
    {35, 0x3fc4599afc621866ull},  // 0.15898454020879454
    {80, 0x3fc25c4f96a4e71bull},  // 0.14344210487052397
    {76, 0x3fc1cc4b49fb8bbbull},  // 0.13904706108504947
    {48, 0x3fc13391370aac94ull},  // 0.1343862074621468
    {77, 0x3fc113851180bdb8ull},  // 0.13340819697030581
    {55, 0x3fc105767e69c4a2ull},  // 0.13297921345250524
    {25, 0x3fc02f8404e24c11ull},  // 0.12645006407237294
    {11, 0x3fbfef7d3d6e057cull},  // 0.12474806546926759
};

TEST(RegressionGoldenTest, PinnedSeedAttackMatchesGoldens) {
  sim::CohortConfig config = sim::HcpLikeConfig(909);
  config.num_subjects = 8;
  config.num_regions = 16;
  config.frames_override = 60;
  config.parallel.num_threads = 1;
  const auto sim = sim::CohortSimulator::Create(config);
  ASSERT_TRUE(sim.ok());
  const auto known =
      sim->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kLeftRight);
  const auto anonymous =
      sim->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kRightLeft);
  ASSERT_TRUE(known.ok() && anonymous.ok());

  core::AttackOptions options;
  options.num_features = 40;
  options.parallel.num_threads = 1;
  const auto attack = core::DeanonymizationAttack::Fit(*known, options);
  ASSERT_TRUE(attack.ok());
  const auto result = attack->Identify(*anonymous);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(std::bit_cast<std::uint64_t>(result->accuracy),
            kGoldenAccuracyBits)
      << "accuracy moved to " << result->accuracy;

  const std::vector<std::size_t> expected_index(
      std::begin(kGoldenPredictedIndex), std::end(kGoldenPredictedIndex));
  EXPECT_EQ(result->predicted_index, expected_index);

  const std::vector<std::size_t>& selected = attack->selected_features();
  const linalg::Vector& leverage = attack->leverage_scores();
  ASSERT_EQ(selected.size(), options.num_features);
  for (std::size_t i = 0; i < std::size(kGoldenTopFeatures); ++i) {
    const GoldenFeature& golden = kGoldenTopFeatures[i];
    ASSERT_EQ(selected[i], golden.index) << "rank " << i;
    const double score = leverage[selected[i]];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(score), golden.leverage_bits)
        << "leverage for feature " << selected[i] << " moved to " << std::hex
        << std::bit_cast<std::uint64_t>(score) << " (" << score << ")";
  }
}

TEST(RegressionGoldenTest, StreamedAttackMatchesTheSameGoldens) {
  // The out-of-core path is pinned to the same constants: file-backed or
  // not, windowed or not, the attack must land on these exact bits.
  sim::CohortConfig config = sim::HcpLikeConfig(909);
  config.num_subjects = 8;
  config.num_regions = 16;
  config.frames_override = 60;
  config.parallel.num_threads = 1;
  const auto sim = sim::CohortSimulator::Create(config);
  ASSERT_TRUE(sim.ok());
  const auto known =
      sim->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kLeftRight);
  const auto anonymous =
      sim->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kRightLeft);
  ASSERT_TRUE(known.ok() && anonymous.ok());

  core::AttackOptions options;
  options.num_features = 40;
  options.parallel.num_threads = 1;
  const connectome::InMemoryMatrixStore known_store(*known);
  const connectome::InMemoryMatrixStore anon_store(*anonymous);
  connectome::StreamOptions stream;
  stream.window_cols = 3;  // Deliberately awkward: 8 subjects, ragged tail.
  const auto attack = core::DeanonymizationAttack::FitStreamed(
      known_store, options, stream);
  ASSERT_TRUE(attack.ok()) << attack.status();
  const auto result = attack->IdentifyStreamed(anon_store, stream);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(std::bit_cast<std::uint64_t>(result->accuracy),
            kGoldenAccuracyBits)
      << "streamed accuracy moved to " << result->accuracy;
  const std::vector<std::size_t> expected_index(
      std::begin(kGoldenPredictedIndex), std::end(kGoldenPredictedIndex));
  EXPECT_EQ(result->predicted_index, expected_index);

  const std::vector<std::size_t>& selected = attack->selected_features();
  const linalg::Vector& leverage = attack->leverage_scores();
  ASSERT_EQ(selected.size(), options.num_features);
  for (std::size_t i = 0; i < std::size(kGoldenTopFeatures); ++i) {
    const GoldenFeature& golden = kGoldenTopFeatures[i];
    ASSERT_EQ(selected[i], golden.index) << "rank " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(leverage[selected[i]]),
              golden.leverage_bits)
        << "streamed leverage for feature " << selected[i];
  }
}

// ---------------------------------------------------------------------------
// Voxel-pipeline goldens: checksums of motion correction (per-frame rigid
// parameters and the resampled run) and of the full Figure-4 pipeline's
// region series on a fixed rendered run with planted head motion and
// slice-timing offsets. They pin the registration cost's arithmetic —
// sample coordinates, trilinear lerps and the serial z-y-x sum — so any
// kernel behind it must reproduce today's bits on every ISA.

// FNV-1a over the bytes of each value, in order.
class Fnv1a {
 public:
  template <typename T>
  void Add(T value) {
    const auto bytes = std::bit_cast<std::array<unsigned char, sizeof(T)>>(
        value);
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

constexpr std::uint64_t kGoldenMotionParamsHash = 0x7d3a5d3cc9b4f388ull;
constexpr std::uint64_t kGoldenCorrectedRunHash = 0x76c0c0d087241992ull;
constexpr std::uint64_t kGoldenRegionSeriesHash = 0xb871502976e11295ull;
constexpr std::uint64_t kGoldenFinalCostsHash = 0x608b997c176b98c5ull;

class VoxelPipelineGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    atlas::SyntheticAtlasConfig atlas_config;
    atlas_config.nx = 18;
    atlas_config.ny = 18;
    atlas_config.nz = 10;
    atlas_config.num_regions = 10;
    atlas_config.seed = 31;
    auto atlas = atlas::GenerateSyntheticAtlas(atlas_config);
    ASSERT_TRUE(atlas.ok()) << atlas.status();
    atlas_ = std::move(atlas).value();

    sim::CohortConfig cohort_config;
    cohort_config.num_subjects = 2;
    cohort_config.num_regions = atlas_config.num_regions;
    cohort_config.frames_override = 48;
    cohort_config.seed = 909;
    const auto cohort = sim::CohortSimulator::Create(cohort_config);
    ASSERT_TRUE(cohort.ok()) << cohort.status();
    const auto series = cohort->SimulateRegionSeries(
        0, sim::TaskType::kRest, sim::Encoding::kLeftRight);
    ASSERT_TRUE(series.ok()) << series.status();

    sim::VoxelRenderConfig render;
    render.motion_step = 0.12;
    render.plant_slice_timing = true;
    Rng rng(4242);
    auto run = sim::RenderVoxelRun(atlas_, *series, render, rng);
    ASSERT_TRUE(run.ok()) << run.status();
    run_ = std::move(run).value();

    config_ = preprocess::RestingStateConfig();
    config_.registration.sample_stride = 2;  // As the CLI runs it.
    config_.parallel.num_threads = 1;
  }

  atlas::Atlas atlas_;
  image::Volume4D run_;
  preprocess::PipelineConfig config_;
};

TEST_F(VoxelPipelineGoldenTest, MotionCorrectionMatchesGoldens) {
  const auto mc = image::MotionCorrect(run_, config_.registration,
                                       config_.parallel);
  ASSERT_TRUE(mc.ok()) << mc.status();
  ASSERT_TRUE(mc->degraded_frames.empty());
  Fnv1a params;
  std::size_t moved_frames = 0;
  for (const image::RigidTransform& m : mc->motion) {
    for (const double p : m.AsArray()) params.Add(p);
    if (!m.IsApproxIdentity(1e-6)) ++moved_frames;
  }
  // The planted motion is really estimated, not left at identity.
  EXPECT_GT(moved_frames, run_.nt() / 2);
  Fnv1a corrected;
  for (const float v : mc->corrected.flat()) corrected.Add(v);
  EXPECT_EQ(params.value(), kGoldenMotionParamsHash)
      << "motion parameters moved: 0x" << std::hex << params.value();
  EXPECT_EQ(corrected.value(), kGoldenCorrectedRunHash)
      << "corrected run moved: 0x" << std::hex << corrected.value();

  // The cost at every estimate, bit for bit: a cost that moved by one ULP
  // rarely changes a search decision, so the hashes above would miss it.
  const image::Volume3D reference = run_.ExtractVolume(0);
  Fnv1a costs;
  for (std::size_t t = 0; t < run_.nt(); ++t) {
    costs.Add(image::RegistrationCost(reference, run_.ExtractVolume(t),
                                      mc->motion[t],
                                      config_.registration.sample_stride));
  }
  EXPECT_EQ(costs.value(), kGoldenFinalCostsHash)
      << "registration costs moved: 0x" << std::hex << costs.value();
}

TEST_F(VoxelPipelineGoldenTest, RunPipelineMatchesGoldens) {
  const auto out = preprocess::RunPipeline(run_, atlas_, config_);
  ASSERT_TRUE(out.ok()) << out.status();
  Fnv1a series;
  for (std::size_t i = 0; i < out->region_series.size(); ++i) {
    series.Add(out->region_series.data()[i]);
  }
  EXPECT_EQ(series.value(), kGoldenRegionSeriesHash)
      << "region series moved: 0x" << std::hex << series.value();
}

}  // namespace
}  // namespace neuroprint
