// Thread-count-invariance golden tests: every parallelized stage of the
// attack pipeline must produce bitwise-identical output for 1, 2, and 8
// threads (the determinism contract of util/thread_pool.h). Floating-point
// addition is non-associative, so these tests fail loudly if any kernel's
// chunking or accumulation order ever depends on the thread count.

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "atlas/synthetic_atlas.h"
#include "connectome/connectome.h"
#include "connectome/matrix_store.h"
#include "core/attack.h"
#include "core/knn.h"
#include "core/matcher.h"
#include "core/tsne.h"
#include "image/interpolate.h"
#include "image/registration.h"
#include "image/resample.h"
#include "image/smooth.h"
#include "linalg/bidiag.h"
#include "linalg/gemm_kernel.h"
#include "linalg/matrix.h"
#include "linalg/simd/simd.h"
#include "linalg/stats.h"
#include "linalg/svd.h"
#include "linalg/vector_ops.h"
#include "preprocess/pipeline.h"
#include "service/identification_index.h"
#include "service/synthetic_gallery.h"
#include "sim/cohort.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace neuroprint {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

// Bitwise equality: EXPECT_EQ on doubles would accept 0.0 == -0.0 and
// reject NaN == NaN; comparing the bit patterns accepts exactly "the same
// bytes came out".
void ExpectBitwiseEqual(const linalg::Matrix& a, const linalg::Matrix& b,
                        const char* stage) {
  ASSERT_EQ(a.rows(), b.rows()) << stage;
  ASSERT_EQ(a.cols(), b.cols()) << stage;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.data()[i]),
              std::bit_cast<std::uint64_t>(b.data()[i]))
        << stage << ": element " << i << " differs (" << a.data()[i] << " vs "
        << b.data()[i] << ")";
  }
}

void ExpectBitwiseEqual(const linalg::Vector& a, const linalg::Vector& b,
                        const char* stage) {
  ASSERT_EQ(a.size(), b.size()) << stage;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << stage << ": element " << i;
  }
}

linalg::Matrix RandomMatrix(std::size_t rows, std::size_t cols,
                            std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.Gaussian();
  }
  // A few exact zeros probe the kernels' sign-of-zero handling.
  m(0, 0) = 0.0;
  m(rows / 2, cols / 2) = 0.0;
  return m;
}

TEST(ParallelInvarianceTest, GemmKernels) {
  const linalg::Matrix a = RandomMatrix(67, 33, 11);
  const linalg::Matrix b = RandomMatrix(33, 41, 12);
  const linalg::Matrix c = RandomMatrix(67, 33, 13);
  const linalg::Vector x = RandomMatrix(33, 1, 14).ColCopy(0);
  const linalg::Matrix mul1 = linalg::MatMul(a, b, ParallelContext{1});
  const linalg::Matrix tmul1 = linalg::MatTMul(a, c, ParallelContext{1});
  const linalg::Matrix mult1 = linalg::MatMulT(a, c, ParallelContext{1});
  const linalg::Matrix gram1 = linalg::Gram(a, ParallelContext{1});
  const linalg::Vector vec1 = linalg::MatVec(a, x, ParallelContext{1});
  for (const std::size_t threads : kThreadCounts) {
    const ParallelContext ctx{threads};
    ExpectBitwiseEqual(mul1, linalg::MatMul(a, b, ctx), "MatMul");
    ExpectBitwiseEqual(tmul1, linalg::MatTMul(a, c, ctx), "MatTMul");
    ExpectBitwiseEqual(mult1, linalg::MatMulT(a, c, ctx), "MatMulT");
    ExpectBitwiseEqual(gram1, linalg::Gram(a, ctx), "Gram");
    ExpectBitwiseEqual(vec1, linalg::MatVec(a, x, ctx), "MatVec");
  }
}

TEST(ParallelInvarianceTest, TiledGemmMatchesReferenceBitwise) {
  // Shapes chosen to cross every blocking boundary of the tiled kernel:
  // the K panel (kGemmPanelK = 256), the M row block (64), the 4x4
  // micro-tile, and the small-problem cutover — all must agree with the
  // canonical-order reference kernel bit for bit, at every thread count.
  struct Shape {
    std::size_t m, k, n;
  };
  const Shape shapes[] = {{3, 5, 2},      {64, 256, 64},  {65, 257, 33},
                          {130, 520, 48}, {31, 700, 100}, {300, 90, 70}};
  for (const auto& [m, k, n] : shapes) {
    const linalg::Matrix a = RandomMatrix(m, k, 101 + m);
    const linalg::Matrix b = RandomMatrix(k, n, 102 + n);
    const linalg::Matrix at = RandomMatrix(k, m, 103 + m);
    const linalg::Matrix bt = RandomMatrix(n, k, 104 + n);

    linalg::Matrix ref(m, n);
    linalg::ReferenceGemm(a, false, b, false, &ref);
    linalg::Matrix ref_ta(m, n);
    linalg::ReferenceGemm(at, true, b, false, &ref_ta);
    linalg::Matrix ref_tb(m, n);
    linalg::ReferenceGemm(a, false, bt, true, &ref_tb);

    for (const std::size_t threads : kThreadCounts) {
      const ParallelContext ctx{threads};
      linalg::Matrix c(m, n);
      linalg::TiledGemm(a, false, b, false, &c, ctx);
      ExpectBitwiseEqual(ref, c, "TiledGemm(N,N)");
      linalg::TiledGemm(at, true, b, false, &c, ctx);
      ExpectBitwiseEqual(ref_ta, c, "TiledGemm(T,N)");
      linalg::TiledGemm(a, false, bt, true, &c, ctx);
      ExpectBitwiseEqual(ref_tb, c, "TiledGemm(N,T)");
    }
  }
}

TEST(ParallelInvarianceTest, TiledGramMatchesGemmBitwise) {
  // Gram computes the upper triangle and mirrors; the mirrored bits must
  // equal the full A^T A product exactly (products commute bitwise).
  for (const std::size_t rows : {40u, 300u, 530u}) {
    const linalg::Matrix a = RandomMatrix(rows, 37, 200 + rows);
    linalg::Matrix full(37, 37);
    linalg::TiledGemm(a, true, a, false, &full, ParallelContext{1});
    for (const std::size_t threads : kThreadCounts) {
      linalg::Matrix g(37, 37);
      linalg::TiledGram(a, &g, ParallelContext{threads});
      ExpectBitwiseEqual(full, g, "TiledGram");
    }
  }
}

TEST(ParallelInvarianceTest, GemmStableUnderOversubscription) {
  // Thread counts far beyond the hardware force the work-stealing pool
  // into constant steals between oversubscribed runners; the output must
  // not move by a bit. The K dimension spans many packing panels so the
  // panel-parallel path has enough chunks to steal.
  const linalg::Matrix a = RandomMatrix(3000, 64, 301);
  const linalg::Matrix b = RandomMatrix(3000, 64, 302);
  const linalg::Matrix tmul1 = linalg::MatTMul(a, b, ParallelContext{1});
  const linalg::Matrix gram1 = linalg::Gram(a, ParallelContext{1});
  for (const std::size_t threads : {16u, 32u, 64u}) {
    const ParallelContext ctx{threads};
    ExpectBitwiseEqual(tmul1, linalg::MatTMul(a, b, ctx),
                       "MatTMul oversubscribed");
    ExpectBitwiseEqual(gram1, linalg::Gram(a, ctx), "Gram oversubscribed");
  }
}

TEST(ParallelInvarianceTest, CorrelationAndZScore) {
  const linalg::Matrix series = RandomMatrix(48, 90, 21);
  const linalg::Matrix other = RandomMatrix(48, 17, 22);
  const linalg::Matrix corr1 = linalg::RowCorrelation(series, ParallelContext{1});
  const linalg::Matrix cross1 =
      linalg::ColumnCrossCorrelation(series, other, ParallelContext{1});
  linalg::Matrix z1 = series;
  linalg::ZScoreRowsInPlace(z1, ParallelContext{1});
  for (const std::size_t threads : kThreadCounts) {
    const ParallelContext ctx{threads};
    ExpectBitwiseEqual(corr1, linalg::RowCorrelation(series, ctx),
                       "RowCorrelation");
    ExpectBitwiseEqual(cross1,
                       linalg::ColumnCrossCorrelation(series, other, ctx),
                       "ColumnCrossCorrelation");
    linalg::Matrix z = series;
    linalg::ZScoreRowsInPlace(z, ctx);
    ExpectBitwiseEqual(z1, z, "ZScoreRowsInPlace");
  }
}

TEST(ParallelInvarianceTest, ConnectomeBuild) {
  const linalg::Matrix series = RandomMatrix(30, 120, 31);
  const auto conn1 = connectome::BuildConnectome(series, ParallelContext{1});
  ASSERT_TRUE(conn1.ok());
  for (const std::size_t threads : kThreadCounts) {
    const auto conn = connectome::BuildConnectome(series,
                                                  ParallelContext{threads});
    ASSERT_TRUE(conn.ok());
    ExpectBitwiseEqual(*conn1, *conn, "BuildConnectome");
  }
}

linalg::Matrix CleanedSeries(const linalg::Matrix& raw, std::size_t threads) {
  preprocess::PipelineConfig config = preprocess::RestingStateConfig();
  config.parallel.num_threads = threads;
  linalg::Matrix series = raw;
  const Status status =
      preprocess::CleanRegionSeries(series, config, /*tr_seconds=*/0.72);
  EXPECT_TRUE(status.ok()) << status.message();
  return series;
}

TEST(ParallelInvarianceTest, TemporalCleanup) {
  const linalg::Matrix raw = RandomMatrix(25, 200, 41);
  const linalg::Matrix clean1 = CleanedSeries(raw, 1);
  for (const std::size_t threads : kThreadCounts) {
    ExpectBitwiseEqual(clean1, CleanedSeries(raw, threads),
                       "CleanRegionSeries");
  }
}

void ExpectBitwiseEqual(const image::Volume4D& a, const image::Volume4D& b,
                        const char* stage) {
  ASSERT_EQ(a.size(), b.size()) << stage;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a.flat()[i]),
              std::bit_cast<std::uint32_t>(b.flat()[i]))
        << stage << ": voxel " << i << " differs";
  }
}

// A smooth blob that drifts and rotates a little from frame to frame, plus
// noise: every frame registers to a distinct non-identity transform.
image::Volume4D MovingBlobRun(std::size_t n, std::size_t nt) {
  image::Volume3D blob(n, n, n);
  const double c = 0.5 * static_cast<double>(n - 1);
  for (std::size_t z = 0; z < n; ++z) {
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) {
        const double dx = static_cast<double>(x) - c;
        const double dy = 0.7 * (static_cast<double>(y) - c);
        const double dz = static_cast<double>(z) - c;
        blob.at(x, y, z) = static_cast<float>(
            1000.0 * std::exp(-(dx * dx + dy * dy + dz * dz) / 12.0));
      }
    }
  }
  image::Volume4D run(n, n, n, nt);
  Rng rng(61);
  for (std::size_t t = 0; t < nt; ++t) {
    image::RigidTransform motion;
    motion.translate_x = 0.3 * static_cast<double>(t);
    motion.translate_y = -0.2 * static_cast<double>(t % 3);
    motion.rotate_z = 0.02 * static_cast<double>(t % 2);
    auto moved = image::ResampleRigid(blob, motion);
    EXPECT_TRUE(moved.ok());
    for (float& v : moved->flat()) {
      v += static_cast<float>(5.0 * rng.Gaussian());
    }
    run.SetVolume(t, *moved);
  }
  return run;
}

TEST(ParallelInvarianceTest, MotionCorrection) {
  const image::Volume4D run = MovingBlobRun(12, 9);
  image::RegistrationOptions options;
  options.sample_stride = 2;
  // The scalar kernels are the reference; the best ISA's registration cost
  // must reproduce them, at every thread count below.
  Result<image::MotionCorrectionResult> mc1 = Status::Internal("unset");
  {
    linalg::simd::ScopedIsa scalar(linalg::simd::Isa::kScalar);
    mc1 = image::MotionCorrect(run, options, ParallelContext{1});
  }
  ASSERT_TRUE(mc1.ok());
  // Frames really move, so each one is resampled, not just copied.
  for (std::size_t t = 1; t < run.nt(); ++t) {
    EXPECT_FALSE(mc1->motion[t].IsApproxIdentity(1e-6)) << "frame " << t;
  }
  for (const std::size_t threads : kThreadCounts) {
    const auto mc =
        image::MotionCorrect(run, options, ParallelContext{threads});
    ASSERT_TRUE(mc.ok());
    ExpectBitwiseEqual(mc1->corrected, mc->corrected, "MotionCorrect");
    ASSERT_EQ(mc1->motion.size(), mc->motion.size());
    for (std::size_t t = 0; t < mc->motion.size(); ++t) {
      const auto a = mc1->motion[t].AsArray();
      const auto b = mc->motion[t].AsArray();
      for (std::size_t k = 0; k < a.size(); ++k) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a[k]),
                  std::bit_cast<std::uint64_t>(b[k]))
            << "frame " << t << " parameter " << k;
      }
    }
    EXPECT_EQ(mc1->degraded_frames, mc->degraded_frames);
  }
}

TEST(ParallelInvarianceTest, SliceTimeCorrection) {
  image::Volume4D run(7, 5, 9, 30);
  Rng rng(71);
  for (float& v : run.flat()) {
    v = static_cast<float>(500.0 + 100.0 * rng.Gaussian());
  }
  for (const preprocess::SliceOrder order :
       {preprocess::SliceOrder::kSequentialAscending,
        preprocess::SliceOrder::kSequentialDescending,
        preprocess::SliceOrder::kInterleavedOdd}) {
    for (const signal::InterpKind kind :
         {signal::InterpKind::kLinear, signal::InterpKind::kWindowedSinc}) {
      const auto st1 =
          preprocess::SliceTimeCorrect(run, order, 4, kind, ParallelContext{1});
      ASSERT_TRUE(st1.ok());
      for (const std::size_t threads : kThreadCounts) {
        const auto st = preprocess::SliceTimeCorrect(run, order, 4, kind,
                                                     ParallelContext{threads});
        ASSERT_TRUE(st.ok());
        ExpectBitwiseEqual(*st1, *st, "SliceTimeCorrect");
      }
    }
  }
}

TEST(ParallelInvarianceTest, Smoothing) {
  const image::Volume4D run = MovingBlobRun(10, 7);
  const auto sm1 = image::GaussianSmooth4D(run, 5.0, ParallelContext{1});
  ASSERT_TRUE(sm1.ok());
  for (const std::size_t threads : kThreadCounts) {
    const auto sm = image::GaussianSmooth4D(run, 5.0, ParallelContext{threads});
    ASSERT_TRUE(sm.ok());
    ExpectBitwiseEqual(*sm1, *sm, "GaussianSmooth4D");
  }
}

Result<preprocess::PipelineOutput> RunSmallPipeline(
    const image::Volume4D& run, const atlas::Atlas& atlas,
    std::size_t threads) {
  preprocess::PipelineConfig config = preprocess::RestingStateConfig();
  config.registration.sample_stride = 2;
  config.parallel.num_threads = threads;
  return preprocess::RunPipeline(run, atlas, config);
}

TEST(ParallelInvarianceTest, VoxelPipeline) {
  atlas::SyntheticAtlasConfig atlas_config;
  atlas_config.nx = 10;
  atlas_config.ny = 10;
  atlas_config.nz = 6;
  atlas_config.num_regions = 8;
  atlas_config.seed = 7;
  const auto atlas = atlas::GenerateSyntheticAtlas(atlas_config);
  ASSERT_TRUE(atlas.ok());

  image::Volume4D run(10, 10, 6, 40);
  Rng rng(51);
  for (float& v : run.flat()) {
    v = static_cast<float>(500.0 + 100.0 * rng.Gaussian());
  }

  const auto out1 = RunSmallPipeline(run, *atlas, 1);
  ASSERT_TRUE(out1.ok());
  for (const std::size_t threads : kThreadCounts) {
    const auto out = RunSmallPipeline(run, *atlas, threads);
    ASSERT_TRUE(out.ok());
    ExpectBitwiseEqual(out1->region_series, out->region_series, "RunPipeline");
    EXPECT_EQ(out->motion.size(), run.nt());  // Motion correction ran.
  }
}

// A batch runs its scans one after another, each on every thread: the
// outputs equal per-scan RunPipeline at 1 thread for both overloads, any
// window and any thread count.
TEST(ParallelInvarianceTest, VoxelPipelineBatch) {
  atlas::SyntheticAtlasConfig atlas_config;
  atlas_config.nx = 10;
  atlas_config.ny = 10;
  atlas_config.nz = 6;
  atlas_config.num_regions = 8;
  atlas_config.seed = 7;
  const auto atlas = atlas::GenerateSyntheticAtlas(atlas_config);
  ASSERT_TRUE(atlas.ok());
  std::vector<image::Volume4D> runs;
  Rng rng(53);
  for (const std::size_t nt : {40, 30, 36}) {
    image::Volume4D run(10, 10, 6, nt);
    for (float& v : run.flat()) {
      v = static_cast<float>(500.0 + 100.0 * rng.Gaussian());
    }
    runs.push_back(std::move(run));
  }

  std::vector<linalg::Matrix> want;
  for (const image::Volume4D& run : runs) {
    const auto out = RunSmallPipeline(run, *atlas, 1);
    ASSERT_TRUE(out.ok());
    want.push_back(out->region_series);
  }
  const preprocess::RunSource source =
      [&runs](std::size_t i) -> Result<image::Volume4D> { return runs[i]; };
  for (const std::size_t threads : kThreadCounts) {
    preprocess::PipelineConfig config = preprocess::RestingStateConfig();
    config.registration.sample_stride = 2;
    config.parallel.num_threads = threads;
    const auto batch = preprocess::RunPipelineBatch(runs, {}, *atlas, config);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->outputs.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      ExpectBitwiseEqual(want[i], batch->outputs[i].region_series,
                         "RunPipelineBatch");
    }
    config.max_in_flight = 2;
    const auto bounded =
        preprocess::RunPipelineBatch(source, runs.size(), {}, *atlas, config);
    ASSERT_TRUE(bounded.ok());
    ASSERT_EQ(bounded->outputs.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      ExpectBitwiseEqual(want[i], bounded->outputs[i].region_series,
                         "RunPipelineBatch (bounded)");
    }
  }
}

sim::CohortConfig SmallCohort(std::size_t threads) {
  sim::CohortConfig config = sim::HcpLikeConfig(909);
  config.num_subjects = 8;
  config.num_regions = 16;
  config.frames_override = 60;
  config.parallel.num_threads = threads;
  return config;
}

TEST(ParallelInvarianceTest, CohortGroupMatrix) {
  const auto sim1 = sim::CohortSimulator::Create(SmallCohort(1));
  ASSERT_TRUE(sim1.ok());
  const auto group1 =
      sim1->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kLeftRight);
  ASSERT_TRUE(group1.ok());
  for (const std::size_t threads : kThreadCounts) {
    const auto sim = sim::CohortSimulator::Create(SmallCohort(threads));
    ASSERT_TRUE(sim.ok());
    const auto group =
        sim->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kLeftRight);
    ASSERT_TRUE(group.ok());
    ExpectBitwiseEqual(group1->data(), group->data(), "BuildGroupMatrix");
  }
}

TEST(ParallelInvarianceTest, EndToEndAttack) {
  // Fit on the LR session, identify the RL session — the whole Figure 3
  // workflow — with the thread count varied through AttackOptions.
  const auto sim = sim::CohortSimulator::Create(SmallCohort(0));
  ASSERT_TRUE(sim.ok());
  const auto known =
      sim->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kLeftRight);
  const auto anonymous =
      sim->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kRightLeft);
  ASSERT_TRUE(known.ok() && anonymous.ok());

  core::AttackOptions options1;
  options1.num_features = 40;
  options1.parallel.num_threads = 1;
  const auto attack1 = core::DeanonymizationAttack::Fit(*known, options1);
  ASSERT_TRUE(attack1.ok());
  const auto result1 = attack1->Identify(*anonymous);
  ASSERT_TRUE(result1.ok());

  for (const std::size_t threads : kThreadCounts) {
    core::AttackOptions options = options1;
    options.parallel.num_threads = threads;
    const auto attack = core::DeanonymizationAttack::Fit(*known, options);
    ASSERT_TRUE(attack.ok());
    const auto result = attack->Identify(*anonymous);
    ASSERT_TRUE(result.ok());
    ExpectBitwiseEqual(result1->similarity, result->similarity,
                       "Identify similarity");
    EXPECT_EQ(result1->predicted_index, result->predicted_index);
    EXPECT_EQ(result1->predicted_ids, result->predicted_ids);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result1->accuracy),
              std::bit_cast<std::uint64_t>(result->accuracy));
  }
}

TEST(ParallelInvarianceTest, EndToEndAttackWithTracingEnabled) {
  // Observability must be free of side effects: running the same attack
  // with span/metric collection on cannot perturb a single output bit,
  // and the collection itself must be race-free (the tsan tier runs
  // this).
  const auto sim = sim::CohortSimulator::Create(SmallCohort(0));
  ASSERT_TRUE(sim.ok());
  const auto known =
      sim->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kLeftRight);
  const auto anonymous =
      sim->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kRightLeft);
  ASSERT_TRUE(known.ok() && anonymous.ok());

  core::AttackOptions plain;
  plain.num_features = 40;
  plain.parallel.num_threads = 1;
  const auto attack1 = core::DeanonymizationAttack::Fit(*known, plain);
  ASSERT_TRUE(attack1.ok());
  const auto result1 = attack1->Identify(*anonymous);
  ASSERT_TRUE(result1.ok());

  for (const std::size_t threads : kThreadCounts) {
    core::AttackOptions traced = plain;
    traced.parallel.num_threads = threads;
    traced.trace.enabled = true;
    const auto attack = core::DeanonymizationAttack::Fit(*known, traced);
    ASSERT_TRUE(attack.ok());
    const auto result = attack->Identify(*anonymous);
    ASSERT_TRUE(result.ok());
    ExpectBitwiseEqual(result1->similarity, result->similarity,
                       "Identify similarity (traced)");
    EXPECT_EQ(result1->predicted_index, result->predicted_index);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result1->accuracy),
              std::bit_cast<std::uint64_t>(result->accuracy));
  }
  // The traced runs actually recorded spans.
  EXPECT_GT(trace::EventCount(), 0u);
  trace::ClearEvents();
}

TEST(ParallelInvarianceTest, EndToEndAttackStreamed) {
  // The out-of-core fit/identify path must honor the same contract: the
  // (window size x thread count) grid is one bitwise equivalence class,
  // anchored to the 1-thread in-RAM run.
  const auto sim = sim::CohortSimulator::Create(SmallCohort(0));
  ASSERT_TRUE(sim.ok());
  const auto known =
      sim->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kLeftRight);
  const auto anonymous =
      sim->BuildGroupMatrix(sim::TaskType::kRest, sim::Encoding::kRightLeft);
  ASSERT_TRUE(known.ok() && anonymous.ok());

  core::AttackOptions options1;
  options1.num_features = 40;
  options1.parallel.num_threads = 1;
  const auto attack1 = core::DeanonymizationAttack::Fit(*known, options1);
  ASSERT_TRUE(attack1.ok());
  const auto result1 = attack1->Identify(*anonymous);
  ASSERT_TRUE(result1.ok());

  const connectome::InMemoryMatrixStore known_store(*known);
  const connectome::InMemoryMatrixStore anon_store(*anonymous);
  for (const std::size_t window : {std::size_t{1}, std::size_t{3}}) {
    for (const std::size_t threads : kThreadCounts) {
      core::AttackOptions options = options1;
      options.parallel.num_threads = threads;
      connectome::StreamOptions stream;
      stream.window_cols = window;
      const auto attack = core::DeanonymizationAttack::FitStreamed(
          known_store, options, stream);
      ASSERT_TRUE(attack.ok()) << attack.status();
      ExpectBitwiseEqual(attack1->leverage_scores(),
                         attack->leverage_scores(),
                         "FitStreamed leverage scores");
      EXPECT_EQ(attack1->selected_features(), attack->selected_features());
      const auto result = attack->IdentifyStreamed(anon_store, stream);
      ASSERT_TRUE(result.ok()) << result.status();
      ExpectBitwiseEqual(result1->similarity, result->similarity,
                         "IdentifyStreamed similarity");
      EXPECT_EQ(result1->predicted_index, result->predicted_index);
      EXPECT_EQ(result1->predicted_ids, result->predicted_ids);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result1->accuracy),
                std::bit_cast<std::uint64_t>(result->accuracy));
    }
  }
}

TEST(ParallelInvarianceTest, TsneEmbedding) {
  const linalg::Matrix points = RandomMatrix(24, 12, 61);
  core::TsneOptions options;
  options.perplexity = 5.0;
  options.max_iterations = 60;

  ScopedDefaultThreadCount baseline(1);
  const auto embed1 = core::TsneEmbed(points, options);
  ASSERT_TRUE(embed1.ok());
  for (const std::size_t threads : kThreadCounts) {
    ScopedDefaultThreadCount scoped(threads);
    const auto embed = core::TsneEmbed(points, options);
    ASSERT_TRUE(embed.ok());
    ExpectBitwiseEqual(embed1->embedding, embed->embedding, "TsneEmbed");
    EXPECT_EQ(std::bit_cast<std::uint64_t>(embed1->kl_divergence),
              std::bit_cast<std::uint64_t>(embed->kl_divergence));
  }
}

TEST(ParallelInvarianceTest, KnnClassification) {
  const linalg::Matrix train = RandomMatrix(60, 5, 71);
  const linalg::Matrix queries = RandomMatrix(23, 5, 72);
  std::vector<int> labels(60);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 4);
  }
  const auto pred1 =
      core::KnnClassify(train, labels, queries, 3, ParallelContext{1});
  ASSERT_TRUE(pred1.ok());
  for (const std::size_t threads : kThreadCounts) {
    const auto pred = core::KnnClassify(train, labels, queries, 3,
                                        ParallelContext{threads});
    ASSERT_TRUE(pred.ok());
    EXPECT_EQ(*pred1, *pred);
  }
}

void ExpectBitwiseEqualBatch(const service::BatchIdentifyResult& base,
                             const service::BatchIdentifyResult& got,
                             std::size_t threads, const char* stage) {
  ASSERT_EQ(base.matches.size(), got.matches.size()) << stage;
  EXPECT_EQ(base.probe_ids, got.probe_ids) << stage;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(base.accuracy),
            std::bit_cast<std::uint64_t>(got.accuracy))
      << stage;
  for (std::size_t p = 0; p < base.matches.size(); ++p) {
    EXPECT_EQ(base.matches[p].subject_id, got.matches[p].subject_id)
        << stage << ": " << threads << " threads, probe " << p;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(base.matches[p].similarity),
              std::bit_cast<std::uint64_t>(got.matches[p].similarity))
        << stage << ": " << threads << " threads, probe " << p;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(base.matches[p].margin),
              std::bit_cast<std::uint64_t>(got.matches[p].margin))
        << stage << ": " << threads << " threads, probe " << p;
    EXPECT_EQ(base.matches[p].candidates_scanned,
              got.matches[p].candidates_scanned)
        << stage << ": " << threads << " threads, probe " << p;
  }
}

TEST(ParallelInvarianceTest, ServiceIdentifyBatchAcrossShardedProbes) {
  // The identification service fans (probe x shard) work items onto the
  // pool and merges per-shard candidates in shard order: enrollment,
  // cluster builds, the pruned batch search, and the brute-force oracle
  // must all be bitwise-identical at 1, 2, and 8 threads.
  service::SyntheticGalleryConfig gallery;
  gallery.num_subjects = 200;
  gallery.num_features = 96;
  gallery.seed = 0x1234babeULL;

  struct Run {
    std::string state;
    service::BatchIdentifyResult pruned;
    service::BatchIdentifyResult brute;
  };
  auto build_and_identify = [&](std::size_t threads) {
    Run run;
    service::IndexOptions options;
    options.num_features = 48;
    options.num_shards = 4;
    options.min_cluster_shard_size = 8;  // Clustering active per shard.
    options.parallel.num_threads = threads;
    auto reference = service::MakeSyntheticGallerySlice(gallery, 0, 0, 64);
    EXPECT_TRUE(reference.ok());
    auto index = service::IdentificationIndex::Create(*reference, options);
    EXPECT_TRUE(index.ok()) << index.status();
    auto rest = service::MakeSyntheticGallerySlice(gallery, 0, 64, 200);
    EXPECT_TRUE(rest.ok());
    EXPECT_TRUE(index->EnrollBatch(*rest).ok());
    auto probes = service::MakeSyntheticGallery(gallery, 1);
    EXPECT_TRUE(probes.ok());
    auto pruned = index->IdentifyBatch(*probes);
    EXPECT_TRUE(pruned.ok()) << pruned.status();
    auto brute = index->IdentifyBatchBruteForce(*probes);
    EXPECT_TRUE(brute.ok()) << brute.status();
    run.state = index->DebugStateString();
    run.pruned = std::move(*pruned);
    run.brute = std::move(*brute);
    return run;
  };

  const Run base = build_and_identify(1);
  for (const std::size_t threads : kThreadCounts) {
    const Run got = build_and_identify(threads);
    EXPECT_EQ(base.state, got.state) << threads << " threads";
    ExpectBitwiseEqualBatch(base.pruned, got.pruned, threads,
                            "IdentifyBatch");
    ExpectBitwiseEqualBatch(base.brute, got.brute, threads,
                            "IdentifyBatchBruteForce");
  }
}

// ---------------------------------------------------------------------------
// Scalar vs SIMD kernel parity. The runtime-dispatched vector kernels
// (linalg/simd/) share one canonical accumulation order with the scalar
// reference, so every ISA must produce the same bits on every shape —
// in particular on remainder tails (n % 4 != 0), single-row inputs, the
// kGemmPanelK boundary (255/256/257), and empty inputs. Combined with
// the thread sweep this pins the full contract: same bits for any
// (ISA, thread count) pair.

// Runs `fn` under the scalar kernels and again under the best supported
// vector ISA (a no-op comparison on hosts where scalar is the best).
template <typename Fn>
void ForBothIsas(const Fn& fn) {
  {
    linalg::simd::ScopedIsa scoped(linalg::simd::Isa::kScalar);
    fn(/*scalar=*/true);
  }
  {
    linalg::simd::ScopedIsa scoped(linalg::simd::BestSupportedIsa());
    fn(/*scalar=*/false);
  }
}

void ExpectBitwiseEqualScalar(double a, double b, const char* stage,
                              std::size_t n) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << stage << " at length " << n << ": " << a << " vs " << b;
}

TEST(SimdParityTest, VectorReductionsEveryTailLength) {
  // 0..9 covers every lane-tail remainder twice; the larger sizes cover
  // multi-iteration main loops on both sides of a power of two.
  for (const std::size_t n : {0ul, 1ul, 2ul, 3ul, 4ul, 5ul, 6ul, 7ul, 8ul,
                              9ul, 31ul, 255ul, 256ul, 257ul}) {
    Rng rng(1000 + n);
    linalg::Vector x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.Gaussian();
      y[i] = rng.Gaussian();
    }
    struct Results {
      double dot, norm2sq, mean, variance, pearson;
    } scalar{}, simd{};
    ForBothIsas([&](bool is_scalar) {
      Results& r = is_scalar ? scalar : simd;
      r.dot = linalg::Dot(x, y);
      r.norm2sq = linalg::Norm2Squared(x);
      r.mean = linalg::Mean(x);
      r.variance = linalg::Variance(x);
      r.pearson = linalg::PearsonCorrelation(x, y);
    });
    ExpectBitwiseEqualScalar(scalar.dot, simd.dot, "Dot", n);
    ExpectBitwiseEqualScalar(scalar.norm2sq, simd.norm2sq, "Norm2Squared", n);
    ExpectBitwiseEqualScalar(scalar.mean, simd.mean, "Mean", n);
    ExpectBitwiseEqualScalar(scalar.variance, simd.variance, "Variance", n);
    ExpectBitwiseEqualScalar(scalar.pearson, simd.pearson, "Pearson", n);
  }
}

TEST(SimdParityTest, AxpyTailLengths) {
  for (const std::size_t n : {0ul, 1ul, 3ul, 4ul, 5ul, 8ul, 13ul, 257ul}) {
    Rng rng(2000 + n);
    linalg::Vector x(n), y0(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.Gaussian();
      y0[i] = rng.Gaussian();
    }
    linalg::Vector scalar_y, simd_y;
    ForBothIsas([&](bool is_scalar) {
      linalg::Vector y = y0;
      linalg::Axpy(0.7331, x, y);
      (is_scalar ? scalar_y : simd_y) = std::move(y);
    });
    ExpectBitwiseEqual(scalar_y, simd_y, "Axpy");
  }
}

TEST(SimdParityTest, GemmKernelsAwkwardShapes) {
  struct Shape {
    std::size_t m, k, n;
  };
  // Remainder register tiles (m % 4, n % 4 != 0), a 1-row input, and K
  // straddling the kGemmPanelK = 256 canonical panel boundary.
  constexpr Shape kShapes[] = {{1, 1, 1},   {1, 17, 40},  {4, 4, 4},
                               {5, 3, 7},   {65, 33, 41}, {8, 255, 6},
                               {8, 256, 6}, {8, 257, 6},  {63, 129, 30}};
  for (const Shape& shape : kShapes) {
    const linalg::Matrix a = RandomMatrix(shape.m, shape.k, 31 + shape.m);
    const linalg::Matrix b = RandomMatrix(shape.k, shape.n, 32 + shape.n);
    const linalg::Matrix at = a.Transposed();
    for (const std::size_t threads : kThreadCounts) {
      const ParallelContext ctx{threads};
      linalg::Matrix scalar_mul, simd_mul, scalar_gram, simd_gram;
      ForBothIsas([&](bool is_scalar) {
        (is_scalar ? scalar_mul : simd_mul) = linalg::MatMul(a, b, ctx);
        (is_scalar ? scalar_gram : simd_gram) = linalg::Gram(a, ctx);
      });
      ExpectBitwiseEqual(scalar_mul, simd_mul, "MatMul scalar-vs-simd");
      ExpectBitwiseEqual(scalar_gram, simd_gram, "Gram scalar-vs-simd");
      // Both must still equal the canonical reference order.
      linalg::Matrix ref(shape.m, shape.n);
      linalg::ReferenceGemm(a, false, b, false, &ref);
      ExpectBitwiseEqual(ref, simd_mul, "MatMul vs ReferenceGemm");
      linalg::Matrix gram_ref(shape.k, shape.k);
      linalg::ReferenceGemm(at, false, a, false, &gram_ref);
      ExpectBitwiseEqual(gram_ref, simd_gram, "Gram vs ReferenceGemm");
    }
  }
}

TEST(SimdParityTest, StatsKernels) {
  struct Shape {
    std::size_t rows, cols;
  };
  constexpr Shape kShapes[] = {{1, 7}, {3, 1}, {17, 33}, {5, 257}, {8, 64}};
  for (const Shape& shape : kShapes) {
    linalg::Matrix m = RandomMatrix(shape.rows, shape.cols, 77 + shape.rows);
    // A constant row exercises the degenerate-spread branch next to the
    // vectorized fast path.
    for (std::size_t j = 0; j < shape.cols; ++j) m(0, j) = 2.5;
    const linalg::Matrix probes =
        RandomMatrix(shape.rows, 5, 78 + shape.cols);
    for (const std::size_t threads : kThreadCounts) {
      const ParallelContext ctx{threads};
      linalg::Matrix scalar_z, simd_z, scalar_corr, simd_corr, scalar_xc,
          simd_xc;
      linalg::Vector scalar_norms, simd_norms;
      ForBothIsas([&](bool is_scalar) {
        linalg::Matrix z = m;
        linalg::ZScoreRowsInPlace(z, ctx);
        (is_scalar ? scalar_z : simd_z) = std::move(z);
        (is_scalar ? scalar_corr : simd_corr) = linalg::RowCorrelation(m, ctx);
        (is_scalar ? scalar_xc : simd_xc) =
            linalg::ColumnCrossCorrelation(m, probes, ctx);
        (is_scalar ? scalar_norms : simd_norms) = linalg::RowNormsSquared(m);
      });
      ExpectBitwiseEqual(scalar_z, simd_z, "ZScoreRowsInPlace");
      ExpectBitwiseEqual(scalar_corr, simd_corr, "RowCorrelation");
      ExpectBitwiseEqual(scalar_xc, simd_xc, "ColumnCrossCorrelation");
      ExpectBitwiseEqual(scalar_norms, simd_norms, "RowNormsSquared");
    }
  }
}

TEST(SimdParityTest, DegenerateNormsTakeTheSameBranchOnEveryIsa) {
  // Subnormal-scale and huge-scale columns force the ColumnCrossCorrelation
  // slow path (norm products could underflow/overflow); the branch is a
  // pure function of the norms, so scalar and SIMD must still agree.
  linalg::Matrix a = RandomMatrix(6, 4, 91);
  linalg::Matrix b = RandomMatrix(6, 4, 92);
  for (std::size_t i = 0; i < 6; ++i) {
    a(i, 1) = a(i, 1) * 1e-160;  // norm below the safe window
    b(i, 2) = b(i, 2) * 1e160;   // norm above the safe window
  }
  linalg::Matrix scalar_xc, simd_xc;
  ForBothIsas([&](bool is_scalar) {
    (is_scalar ? scalar_xc : simd_xc) =
        linalg::ColumnCrossCorrelation(a, b, ParallelContext{1});
  });
  ExpectBitwiseEqual(scalar_xc, simd_xc, "ColumnCrossCorrelation degenerate");
}

// The registration cost kernel sums serially rather than lane-split, but
// its per-sample arithmetic is lane-parallel on AVX2: every ISA must still
// give the same bits, and those bits must be the per-sample SampleTrilinear
// loop's.
double TrilinearSsdOracle(const std::array<double, 12>& a,
                          const image::Volume3D& moving,
                          const image::Volume3D& reference,
                          std::size_t stride) {
  double sum = 0.0;
  for (std::size_t z = 0; z < reference.nz(); z += stride) {
    for (std::size_t y = 0; y < reference.ny(); y += stride) {
      for (std::size_t x = 0; x < reference.nx(); x += stride) {
        const double xd = static_cast<double>(x);
        const double yd = static_cast<double>(y);
        const double zd = static_cast<double>(z);
        const double sx = a[0] * xd + a[1] * yd + a[2] * zd + a[3];
        const double sy = a[4] * xd + a[5] * yd + a[6] * zd + a[7];
        const double sz = a[8] * xd + a[9] * yd + a[10] * zd + a[11];
        const double diff = image::SampleTrilinear(moving, sx, sy, sz) -
                            static_cast<double>(reference.at(x, y, z));
        sum += diff * diff;
      }
    }
  }
  return sum;
}

void ExpectTrilinearSsdParity(const std::array<double, 12>& affine,
                              const image::Volume3D& moving,
                              const image::Volume3D& reference,
                              std::size_t stride, const char* label) {
  double scalar = 0.0;
  double simd = 0.0;
  ForBothIsas([&](bool is_scalar) {
    (is_scalar ? scalar : simd) = linalg::simd::ActiveOps().trilinear_ssd(
        affine.data(), moving.data(), reference.data(), reference.nx(),
        reference.ny(), reference.nz(), stride);
  });
  const double oracle = TrilinearSsdOracle(affine, moving, reference, stride);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(scalar),
            std::bit_cast<std::uint64_t>(simd))
      << label << " " << reference.nx() << "x" << reference.ny() << "x"
      << reference.nz() << " stride " << stride << ": " << scalar << " vs "
      << simd;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(scalar),
            std::bit_cast<std::uint64_t>(oracle))
      << label << " vs SampleTrilinear oracle, stride " << stride;
}

image::Volume3D RandomVolume(std::size_t nx, std::size_t ny, std::size_t nz,
                             Rng& rng) {
  image::Volume3D v(nx, ny, nz);
  for (float& value : v.flat()) {
    value = static_cast<float>(100.0 * rng.Gaussian());
  }
  return v;
}

TEST(SimdParityTest, TrilinearSsdRowTailsFacesAndStrides) {
  struct Dims {
    std::size_t nx, ny, nz;
  };
  // Row lengths that are not multiples of 4 * stride (tails of 1..3
  // lanes), the 1x1x1 volume and one-voxel-thick slabs along each axis.
  constexpr Dims kDims[] = {{1, 1, 1},  {2, 3, 1},  {1, 5, 4},  {7, 1, 3},
                            {5, 4, 1},  {9, 6, 5},  {13, 7, 4}, {16, 5, 3},
                            {17, 3, 3}, {25, 4, 2}};
  Rng rng(4321);
  for (const Dims& d : kDims) {
    const image::Volume3D reference = RandomVolume(d.nx, d.ny, d.nz, rng);
    const image::Volume3D moving = RandomVolume(d.nx, d.ny, d.nz, rng);
    for (const std::size_t stride : {1ul, 2ul, 3ul}) {
      // The identity lands every sample exactly on a voxel, including the
      // upper faces (the x1/y1/z1 clamp); whole-voxel shifts push whole
      // lanes past the lower and upper face of each axis.
      ExpectTrilinearSsdParity({1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0}, moving,
                               reference, stride, "identity");
      for (int axis = 0; axis < 3; ++axis) {
        for (const double shift : {-2.0, -1.0, 1.0, 2.0}) {
          std::array<double, 12> a = {1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0};
          a[4 * static_cast<std::size_t>(axis) + 3] = shift;
          ExpectTrilinearSsdParity(a, moving, reference, stride, "face shift");
        }
      }
      // Random near-rigid affines with translations of up to a few voxels.
      for (int i = 0; i < 40; ++i) {
        std::array<double, 12> a{};
        for (std::size_t r = 0; r < 3; ++r) {
          for (std::size_t c = 0; c < 3; ++c) {
            a[4 * r + c] = (r == c ? 1.0 : 0.0) + rng.Uniform(-0.3, 0.3);
          }
          a[4 * r + 3] = rng.Uniform(-4.0, 4.0);
        }
        ExpectTrilinearSsdParity(a, moving, reference, stride, "random");
      }
    }
  }
}

TEST(SimdParityTest, TrilinearSsdNanCoordinatesSampleOutside) {
  Rng rng(99);
  const image::Volume3D reference = RandomVolume(11, 5, 4, rng);
  const image::Volume3D moving = RandomVolume(11, 5, 4, rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t stride : {1ul, 2ul, 3ul}) {
    for (std::size_t axis = 0; axis < 3; ++axis) {
      // A NaN offset makes every coordinate on that axis NaN.
      std::array<double, 12> a = {1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0};
      a[4 * axis + 3] = nan;
      ExpectTrilinearSsdParity(a, moving, reference, stride, "NaN offset");
      // inf * 0 is NaN only in the x == 0 lane; the other lanes are +inf.
      a = {1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0};
      a[4 * axis] = inf;
      ExpectTrilinearSsdParity(a, moving, reference, stride, "inf slope");
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked bidiagonalization: the panel reduction, its level-3 trailing
// updates, and the parallel Givens sweeps of the diagonalization must
// all be thread-count-invariant.

TEST(ParallelInvarianceTest, BlockedBidiagonalization) {
  const linalg::Matrix a = RandomMatrix(90, 70, 21);
  auto run = [&](std::size_t threads) {
    linalg::BidiagOptions options;
    options.parallel.num_threads = threads;
    return linalg::BlockedBidiagonalize(a, options);
  };
  const auto base = run(1);
  ASSERT_TRUE(base.ok()) << base.status();
  for (const std::size_t threads : kThreadCounts) {
    const auto got = run(threads);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectBitwiseEqual(base->u, got->u, "bidiag U");
    ExpectBitwiseEqual(base->v, got->v, "bidiag V");
    ExpectBitwiseEqual(base->d, got->d, "bidiag d");
    ExpectBitwiseEqual(base->e, got->e, "bidiag e");
  }
}

TEST(ParallelInvarianceTest, BlockedSvd) {
  const linalg::Matrix a = RandomMatrix(96, 80, 22);
  auto run = [&](std::size_t threads) {
    linalg::SvdOptions options;
    options.parallel.num_threads = threads;
    return linalg::Svd(a, options);
  };
  const auto base = run(1);
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_TRUE(base->blocked_bidiag);
  for (const std::size_t threads : kThreadCounts) {
    const auto got = run(threads);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectBitwiseEqual(base->u, got->u, "svd U");
    ExpectBitwiseEqual(base->v, got->v, "svd V");
    ExpectBitwiseEqual(base->s, got->s, "svd s");
  }
}

}  // namespace
}  // namespace neuroprint
