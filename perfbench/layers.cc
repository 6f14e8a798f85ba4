#include "layers.h"

#include <filesystem>
#include <utility>

#include "atlas/atlas_io.h"
#include "connectome/connectome.h"
#include "connectome/group_matrix_io.h"
#include "nifti/nifti_io.h"
#include "span.h"

namespace perfbench {
namespace {

// Adds the pipeline's own per-stage timing log and frame counts to `span`
// (summed over the runs when one span covers several).
void AddStageArgs(const preprocess::PipelineOutput& output, Span& span) {
  for (const auto& [stage, seconds] : output.stage_seconds) {
    span.Arg((stage + "_s").c_str(), seconds);
  }
  span.Arg("frames", static_cast<double>(output.region_series.cols()));
  span.Arg("degraded_frames",
           static_cast<double>(output.degraded_frames.size()));
}

// Journal growth and compactions caused by one mutation.
void AddJournalArgs(std::uint64_t before, std::uint64_t after, Span& span) {
  if (after >= before) {
    span.Arg("journal_bytes", static_cast<double>(after - before));
  } else {
    span.Arg("compactions", 1.0);
  }
}

}  // namespace

// --- nifti ---------------------------------------------------------------

Result<image::Volume4D> ReadScan(const std::string& path) {
  Span span("nifti.read");
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  span.Arg("bytes", ec ? 0.0 : static_cast<double>(bytes));
  auto image = neuroprint::nifti::ReadNifti(path);
  if (!image.ok()) return image.status();
  return std::move(image->data);
}

Status WriteScan(const std::string& path, const image::Volume4D& volume) {
  Span span("nifti.write");
  return neuroprint::nifti::WriteNifti(path, volume);
}

// --- atlas ---------------------------------------------------------------

Result<atlas::Atlas> GenerateAtlas(const atlas::SyntheticAtlasConfig& config) {
  Span span("atlas.generate");
  return atlas::GenerateSyntheticAtlas(config);
}

Status WriteAtlas(const std::string& path, const atlas::Atlas& atlas) {
  Span span("atlas.write");
  return atlas::WriteAtlasNifti(path, atlas);
}

Result<atlas::Atlas> ReadAtlas(const std::string& path) {
  Span span("atlas.read");
  return atlas::ReadAtlasNifti(path);
}

// --- preprocess ----------------------------------------------------------

Result<preprocess::PipelineBatchOutput> PreprocessBatch(
    const preprocess::RunSource& source, std::size_t num_runs,
    const std::vector<std::string>& ids, const atlas::Atlas& atlas,
    const preprocess::PipelineConfig& config) {
  Span span("preprocess.batch");
  auto batch =
      preprocess::RunPipelineBatch(source, num_runs, ids, atlas, config);
  if (batch.ok()) {
    for (const auto& output : batch->outputs) AddStageArgs(output, span);
  }
  return batch;
}

Result<preprocess::PipelineOutput> PreprocessRun(
    const image::Volume4D& raw, const atlas::Atlas& atlas,
    const preprocess::PipelineConfig& config) {
  Span span("preprocess.run");
  auto output = preprocess::RunPipeline(raw, atlas, config);
  if (output.ok()) AddStageArgs(*output, span);
  return output;
}

// --- connectome ----------------------------------------------------------

Result<linalg::Vector> ConnectomeFeatures(const linalg::Matrix& region_series) {
  Span span("connectome.build");
  auto matrix = connectome::BuildConnectome(region_series);
  if (!matrix.ok()) return matrix.status();
  return connectome::VectorizeUpperTriangle(*matrix);
}

Result<connectome::GroupMatrix> GroupFromColumns(
    const std::vector<linalg::Vector>& columns, std::vector<std::string> ids) {
  Span span("connectome.group");
  return connectome::GroupMatrix::FromFeatureColumns(columns, std::move(ids));
}

Status WriteGroup(const std::string& path,
                  const connectome::GroupMatrix& group) {
  Span span("connectome.write");
  return connectome::WriteGroupMatrix(path, group);
}

Result<std::unique_ptr<connectome::FileMatrixStore>> OpenStore(
    const std::string& path) {
  Span span("connectome.store_open");
  return connectome::FileMatrixStore::Open(path);
}

// --- core ----------------------------------------------------------------

Result<core::DeanonymizationAttack> Fit(const connectome::GroupMatrix& known,
                                        const core::AttackOptions& options) {
  Span span("core.fit");
  return core::DeanonymizationAttack::Fit(known, options);
}

Result<core::AttackResult> Identify(const core::DeanonymizationAttack& attack,
                                    const connectome::GroupMatrix& anonymous) {
  Span span("core.identify");
  return attack.Identify(anonymous);
}

Result<core::AttackResult> IdentifyStreamed(
    const core::DeanonymizationAttack& attack,
    const connectome::MatrixStore& anonymous,
    const connectome::StreamOptions& stream) {
  Span span("core.identify_streamed");
  return attack.IdentifyStreamed(anonymous, stream);
}

// --- service -------------------------------------------------------------

Result<service::IdentificationIndex> CreateIndex(
    const connectome::GroupMatrix& reference,
    const service::DurabilityOptions& durability,
    const service::IndexOptions& options) {
  Span span("service.create");
  return service::IdentificationIndex::CreateDurable(reference, durability,
                                                     options);
}

Result<service::IdentificationIndex> OpenIndex(
    const service::DurabilityOptions& durability,
    const service::IndexOptions& options) {
  Span span("durability.open");
  return service::IdentificationIndex::OpenDurable(durability, options);
}

Status EnrollBatch(service::IdentificationIndex& index,
                   const connectome::GroupMatrix& subjects) {
  Span span("service.enroll_batch");
  const std::uint64_t before = index.journal_size_bytes();
  Status status = index.EnrollBatch(subjects);
  AddJournalArgs(before, index.journal_size_bytes(), span);
  return status;
}

Status Enroll(service::IdentificationIndex& index, const std::string& id,
              const linalg::Vector& column) {
  Span span("service.enroll");
  const std::uint64_t before = index.journal_size_bytes();
  Status status = index.Enroll(id, column);
  AddJournalArgs(before, index.journal_size_bytes(), span);
  return status;
}

Status Remove(service::IdentificationIndex& index, const std::string& id) {
  Span span("service.remove");
  const std::uint64_t before = index.journal_size_bytes();
  Status status = index.Remove(id);
  AddJournalArgs(before, index.journal_size_bytes(), span);
  return status;
}

Result<service::IdentifyMatch> IdentifyProbe(
    service::IdentificationIndex& index, const linalg::Vector& probe) {
  Span span("service.identify");
  span.Arg("gallery", static_cast<double>(index.size()));
  auto match = index.Identify(probe);
  if (match.ok()) {
    span.Arg("scanned", static_cast<double>(match->candidates_scanned));
  }
  return match;
}

Result<service::BatchIdentifyResult> IdentifyBruteForce(
    service::IdentificationIndex& index,
    const connectome::GroupMatrix& probes) {
  Span span("service.brute_force");
  return index.IdentifyBatchBruteForce(probes);
}

std::string IndexState(service::IdentificationIndex& index) {
  Span span("service.debug_state");
  return index.DebugStateString();
}

// --- sim -----------------------------------------------------------------

Result<sim::CohortSimulator> CreateCohort(const sim::CohortConfig& config) {
  Span span("sim.cohort");
  return sim::CohortSimulator::Create(config);
}

Result<linalg::Matrix> SimulateSeries(const sim::CohortSimulator& cohort,
                                      std::size_t subject, sim::TaskType task,
                                      sim::Encoding encoding) {
  Span span("sim.cohort");
  return cohort.SimulateRegionSeries(subject, task, encoding);
}

Result<image::Volume4D> RenderRun(const atlas::Atlas& atlas,
                                  const linalg::Matrix& region_series,
                                  const sim::VoxelRenderConfig& config,
                                  neuroprint::Rng& rng) {
  Span span("sim.cohort");
  return sim::RenderVoxelRun(atlas, region_series, config, rng);
}

Result<connectome::GroupMatrix> SimulateGroup(
    const sim::CohortSimulator& cohort, sim::TaskType task,
    sim::Encoding encoding) {
  Span span("sim.cohort");
  return cohort.BuildGroupMatrix(task, encoding);
}

Result<connectome::GroupMatrix> MakeGallery(
    const service::SyntheticGalleryConfig& config, std::uint64_t session,
    std::size_t begin, std::size_t end) {
  Span span("sim.gallery");
  return service::MakeSyntheticGallerySlice(config, session, begin, end);
}

}  // namespace perfbench
