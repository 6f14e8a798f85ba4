// The harness's only call sites into the neuroprint library: one small
// function per library entry point, grouped by module. Each one opens a
// span named "<module>.<call>" (see span.h) around exactly one library
// call and attaches the counts its layer metric needs, so a later change
// to a module's API touches one function here.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "atlas/atlas.h"
#include "atlas/synthetic_atlas.h"
#include "connectome/group_matrix.h"
#include "connectome/matrix_store.h"
#include "core/attack.h"
#include "image/volume.h"
#include "linalg/matrix.h"
#include "preprocess/pipeline.h"
#include "service/identification_index.h"
#include "service/synthetic_gallery.h"
#include "sim/cohort.h"
#include "sim/voxel_render.h"
#include "util/random.h"
#include "util/status.h"

namespace perfbench {

using neuroprint::Result;
using neuroprint::Status;
namespace atlas = neuroprint::atlas;
namespace connectome = neuroprint::connectome;
namespace core = neuroprint::core;
namespace image = neuroprint::image;
namespace linalg = neuroprint::linalg;
namespace preprocess = neuroprint::preprocess;
namespace service = neuroprint::service;
namespace sim = neuroprint::sim;

// --- nifti ---------------------------------------------------------------
Result<image::Volume4D> ReadScan(const std::string& path);
Status WriteScan(const std::string& path, const image::Volume4D& volume);

// --- atlas ---------------------------------------------------------------
Result<atlas::Atlas> GenerateAtlas(const atlas::SyntheticAtlasConfig& config);
Status WriteAtlas(const std::string& path, const atlas::Atlas& atlas);
Result<atlas::Atlas> ReadAtlas(const std::string& path);

// --- preprocess ----------------------------------------------------------
Result<preprocess::PipelineBatchOutput> PreprocessBatch(
    const preprocess::RunSource& source, std::size_t num_runs,
    const std::vector<std::string>& ids, const atlas::Atlas& atlas,
    const preprocess::PipelineConfig& config);
Result<preprocess::PipelineOutput> PreprocessRun(
    const image::Volume4D& raw, const atlas::Atlas& atlas,
    const preprocess::PipelineConfig& config);

// --- connectome ----------------------------------------------------------
/// BuildConnectome then VectorizeUpperTriangle: one subject's features.
Result<linalg::Vector> ConnectomeFeatures(const linalg::Matrix& region_series);
Result<connectome::GroupMatrix> GroupFromColumns(
    const std::vector<linalg::Vector>& columns, std::vector<std::string> ids);
Status WriteGroup(const std::string& path,
                  const connectome::GroupMatrix& group);
Result<std::unique_ptr<connectome::FileMatrixStore>> OpenStore(
    const std::string& path);

// --- core ----------------------------------------------------------------
Result<core::DeanonymizationAttack> Fit(const connectome::GroupMatrix& known,
                                        const core::AttackOptions& options);
Result<core::AttackResult> Identify(const core::DeanonymizationAttack& attack,
                                    const connectome::GroupMatrix& anonymous);
Result<core::AttackResult> IdentifyStreamed(
    const core::DeanonymizationAttack& attack,
    const connectome::MatrixStore& anonymous,
    const connectome::StreamOptions& stream);

// --- service (durability counts ride on the mutation spans) -------------
Result<service::IdentificationIndex> CreateIndex(
    const connectome::GroupMatrix& reference,
    const service::DurabilityOptions& durability,
    const service::IndexOptions& options);
Result<service::IdentificationIndex> OpenIndex(
    const service::DurabilityOptions& durability,
    const service::IndexOptions& options);
Status EnrollBatch(service::IdentificationIndex& index,
                   const connectome::GroupMatrix& subjects);
Status Enroll(service::IdentificationIndex& index, const std::string& id,
              const linalg::Vector& column);
Status Remove(service::IdentificationIndex& index, const std::string& id);
Result<service::IdentifyMatch> IdentifyProbe(
    service::IdentificationIndex& index, const linalg::Vector& probe);
Result<service::BatchIdentifyResult> IdentifyBruteForce(
    service::IdentificationIndex& index,
    const connectome::GroupMatrix& probes);
std::string IndexState(service::IdentificationIndex& index);

// --- sim -----------------------------------------------------------------
Result<sim::CohortSimulator> CreateCohort(const sim::CohortConfig& config);
Result<linalg::Matrix> SimulateSeries(const sim::CohortSimulator& cohort,
                                      std::size_t subject, sim::TaskType task,
                                      sim::Encoding encoding);
Result<image::Volume4D> RenderRun(const atlas::Atlas& atlas,
                                  const linalg::Matrix& region_series,
                                  const sim::VoxelRenderConfig& config,
                                  neuroprint::Rng& rng);
Result<connectome::GroupMatrix> SimulateGroup(
    const sim::CohortSimulator& cohort, sim::TaskType task,
    sim::Encoding encoding);
Result<connectome::GroupMatrix> MakeGallery(
    const service::SyntheticGalleryConfig& config, std::uint64_t session,
    std::size_t begin, std::size_t end);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
