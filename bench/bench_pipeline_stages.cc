// Figure 4 (the preprocessing pipeline): per-stage wall-clock cost of the
// full voxel-level pipeline on a rendered synthetic run with planted
// artifacts. The paper presents the pipeline as a diagram; this bench
// realizes it and reports where the time goes.
//
// Threading: `--threads=N` (default: NEUROPRINT_THREADS / hardware) sets
// the worker count for the parallelized stages. The pipeline runs several
// passes at 1 thread (the baseline) and at N, alternating, and each
// stage's seconds are the median over its passes, so one descheduled pass
// cannot move a ratio; the per-stage speedup compares the two medians.
// Outputs are bitwise-identical across thread counts (see
// util/thread_pool.h), so only the times differ.
// `--json=PATH` additionally emits the per-stage records as JSON.
// `--trace=PATH` / `--metrics=PATH` enable the observability layer
// (util/trace.h, util/metrics.h) and write the chrome://tracing span
// dump / metrics JSON; with `--json` the metrics also ride along as
// "metric/..." records.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "atlas/synthetic_atlas.h"
#include "bench/bench_util.h"
#include "connectome/connectome.h"
#include "preprocess/pipeline.h"
#include "sim/cohort.h"
#include "sim/voxel_render.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace neuroprint;

namespace {

// Stage name -> seconds for one full pipeline pass (plus the connectome
// build on the resulting region series, which the attack always runs
// next and which is parallelized the same way).
std::vector<std::pair<std::string, double>> TimeStages(
    const image::Volume4D& run, const atlas::Atlas& atlas,
    preprocess::PipelineConfig config, std::size_t threads) {
  config.parallel.num_threads = threads;
  auto output = preprocess::RunPipeline(run, atlas, config);
  NP_CHECK(output.ok()) << output.status().ToString();
  std::vector<std::pair<std::string, double>> stages =
      std::move(output->stage_seconds);
  Stopwatch clock;
  auto conn =
      connectome::BuildConnectome(output->region_series, config.parallel);
  NP_CHECK(conn.ok()) << conn.status().ToString();
  stages.emplace_back("connectome_build", clock.ElapsedSeconds());
  return stages;
}

// Per-stage medians over `passes` runs at 1 thread and at `threads`,
// interleaved so that host drift hits both sides alike.
using StageTimes = std::vector<std::pair<std::string, double>>;
std::pair<StageTimes, StageTimes> MedianStages(
    const image::Volume4D& run, const atlas::Atlas& atlas,
    const preprocess::PipelineConfig& config, std::size_t threads,
    std::size_t passes) {
  std::vector<StageTimes> baseline;
  std::vector<StageTimes> threaded;
  for (std::size_t p = 0; p < passes; ++p) {
    baseline.push_back(TimeStages(run, atlas, config, 1));
    threaded.push_back(TimeStages(run, atlas, config, threads));
  }
  const auto median = [](const std::vector<StageTimes>& all) {
    StageTimes out = all.front();
    for (std::size_t i = 0; i < out.size(); ++i) {
      std::vector<double> seconds;
      for (const StageTimes& pass : all) {
        NP_CHECK(pass.size() == out.size() && pass[i].first == out[i].first);
        seconds.push_back(pass[i].second);
      }
      std::sort(seconds.begin(), seconds.end());
      out[i].second = seconds[seconds.size() / 2];
    }
    return out;
  };
  return {median(baseline), median(threaded)};
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t flag_threads = bench::ParseThreadsFlag(&argc, argv);
  const std::string json_path = bench::ParseJsonFlag(&argc, argv);
  const std::string trace_path = bench::ParseTraceFlag(&argc, argv);
  const std::string metrics_path = bench::ParseMetricsFlag(&argc, argv);
  const std::size_t threads = ResolveThreadCount(
      ParallelContext{flag_threads});

  bench::PrintHeader("Figure 4", "preprocessing pipeline stage costs");

  // A Glasser-like atlas on the default grid, one resting scan rendered
  // to voxels with motion + drift planted.
  atlas::SyntheticAtlasConfig atlas_config;
  if (bench::FastMode()) {
    atlas_config.nx = 20;
    atlas_config.ny = 24;
    atlas_config.nz = 20;
    atlas_config.num_regions = 60;
  }
  auto atlas = atlas::GenerateSyntheticAtlas(atlas_config);
  NP_CHECK(atlas.ok());

  sim::CohortConfig cohort_config = sim::HcpLikeConfig();
  cohort_config.num_subjects = 2;
  cohort_config.num_regions = atlas->num_regions();
  cohort_config.frames_override = bench::FastMode() ? 40 : 120;
  auto cohort = sim::CohortSimulator::Create(cohort_config);
  NP_CHECK(cohort.ok());
  auto series = cohort->SimulateRegionSeries(0, sim::TaskType::kRest,
                                             sim::Encoding::kLeftRight);
  NP_CHECK(series.ok());

  Rng rng(2024);
  sim::VoxelRenderConfig render;
  render.motion_step = 0.05;
  render.drift_amplitude = 15.0;
  Stopwatch clock;
  auto run = sim::RenderVoxelRun(*atlas, *series, render, rng);
  NP_CHECK(run.ok());
  std::printf("rendered %zux%zux%zux%zu run in %.1fs\n", run->nx(), run->ny(),
              run->nz(), run->nt(), clock.ElapsedSeconds());

  preprocess::PipelineConfig config = preprocess::RestingStateConfig();
  config.registration.sample_stride = 2;

  // An odd pass count makes the median one measured pass.
  const std::size_t passes = bench::FastMode() ? 7 : 3;
  const auto [baseline, threaded] =
      MedianStages(*run, *atlas, config, threads, passes);
  NP_CHECK_EQ(baseline.size(), threaded.size());

  double total_1t = 0.0;
  double total_nt = 0.0;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    total_1t += baseline[i].second;
    total_nt += threaded[i].second;
  }

  CsvWriter csv;
  bench::JsonReporter json;
  csv.SetHeader({"stage", "seconds_1thread",
                 StrFormat("seconds_%zuthreads", threads), "speedup",
                 "percent_of_total"});
  std::printf("\nthreads: %zu (baseline: 1), median of %zu passes each\n",
              threads, passes);
  std::printf("%-26s %12s %12s %8s %8s\n", "stage", "sec @1t",
              StrFormat("sec @%zut", threads).c_str(), "speedup", "share");
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    const std::string& stage = baseline[i].first;
    const double sec_1t = baseline[i].second;
    const double sec_nt = threaded[i].second;
    const double speedup = sec_nt > 0.0 ? sec_1t / sec_nt : 0.0;
    std::printf("%-26s %12.3f %12.3f %7.2fx %7.1f%%\n", stage.c_str(), sec_1t,
                sec_nt, speedup, 100.0 * sec_nt / total_nt);
    csv.AddRow({stage, StrFormat("%.4f", sec_1t), StrFormat("%.4f", sec_nt),
                StrFormat("%.2f", speedup),
                StrFormat("%.1f", 100.0 * sec_nt / total_nt)});
    json.BeginRecord(stage);
    json.AddField("threads", static_cast<double>(threads));
    json.AddField("passes", static_cast<double>(passes));
    json.AddField("seconds_1thread", sec_1t);
    json.AddField("seconds_nthreads", sec_nt);
    json.AddField("speedup", speedup);
  }
  std::printf("%-26s %12.3f %12.3f %7.2fx %7s\n", "TOTAL", total_1t, total_nt,
              total_nt > 0.0 ? total_1t / total_nt : 0.0, "100%");
  if (!trace_path.empty() || !metrics_path.empty()) {
    bench::AppendMetricsRecords(json);
  }
  bench::WriteCsvOrDie(csv, "fig4_pipeline_stages.csv");
  bench::WriteJsonOrDie(json, json_path);
  bench::WriteTraceOrDie(trace_path);
  bench::WriteMetricsOrDie(metrics_path);
  return 0;
}
