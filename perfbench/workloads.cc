#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <utility>

#include "layers.h"
#include "span.h"
#include "util/string_util.h"

namespace perfbench {

namespace fs = std::filesystem;
using neuroprint::Rng;
using neuroprint::StrFormat;

namespace {

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double MillisSince(double wall0) { return (WallNow() - wall0) * 1e3; }

// splitmix64: derives independent component seeds from the run seed.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Status ResetDirectory(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  return Status::OK();
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The cross_task parity contract: the streamed path returns exactly the
// in-RAM result, bit for bit.
Status CompareResults(const core::AttackResult& ram,
                      const core::AttackResult& streamed) {
  const linalg::Matrix& a = ram.similarity;
  const linalg::Matrix& b = streamed.similarity;
  if (a.rows() != b.rows() || a.cols() != b.cols() ||
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    return Status::Internal("streamed similarity differs from in-RAM");
  }
  if (ram.predicted_index != streamed.predicted_index ||
      ram.predicted_ids != streamed.predicted_ids ||
      !SameBits(ram.accuracy, streamed.accuracy)) {
    return Status::Internal("streamed predictions differ from in-RAM");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// scan_attack: disk-to-identity over a seeded NIfTI cohort.

class ScanAttack final : public Workload {
 public:
  explicit ScanAttack(const RunSettings& settings) : settings_(settings) {
    // The ROADMAP baseline shape. Smaller grids or fewer regions and
    // frames lose identifications, so tiny only drops subjects. The known
    // session spans two batch windows at 4 threads, so one expensive scan
    // does not set phase (a)'s time alone; the first `probes_` subjects
    // also have an anonymous scan.
    subjects_ = settings.tiny ? 3 : 8;
    probes_ = std::min<std::size_t>(subjects_, 4);
    regions_ = 32;
    frames_ = 120;
    grid_ = {24, 24, 16};
  }

  Status Setup() override {
    NP_RETURN_IF_ERROR(ResetDirectory(settings_.data_dir + "/known"));
    NP_RETURN_IF_ERROR(ResetDirectory(settings_.data_dir + "/anonymous"));
    atlas::SyntheticAtlasConfig atlas_config;
    atlas_config.nx = grid_[0];
    atlas_config.ny = grid_[1];
    atlas_config.nz = grid_[2];
    atlas_config.num_regions = regions_;
    atlas_config.seed = Mix(settings_.seed, 1);
    auto generated = GenerateAtlas(atlas_config);
    if (!generated.ok()) return generated.status();
    const std::string atlas_path = settings_.data_dir + "/atlas.nii.gz";
    NP_RETURN_IF_ERROR(WriteAtlas(atlas_path, *generated));

    // The neuroprint_simulate recipe, with a stronger identity signature
    // (1.4 there) so that every probe of every seed is identified and the
    // per-probe ground-truth check can be strict.
    sim::CohortConfig cohort_config = sim::HcpLikeConfig(Mix(settings_.seed, 2));
    cohort_config.num_subjects = subjects_;
    cohort_config.num_regions = regions_;
    cohort_config.frames_override = frames_;
    cohort_config.signature_scale = 2.5;
    auto cohort = CreateCohort(cohort_config);
    if (!cohort.ok()) return cohort.status();
    Rng render_rng(Mix(settings_.seed, 3));
    sim::VoxelRenderConfig render;
    render.motion_step = 0.02;
    render.drift_amplitude = 12.0;
    render.plant_slice_timing = true;

    known_paths_.clear();
    anonymous_paths_.clear();
    ids_.clear();
    for (std::size_t s = 0; s < subjects_; ++s) {
      ids_.push_back(StrFormat("sub%04zu", s + 1));
      for (sim::Encoding encoding :
           {sim::Encoding::kLeftRight, sim::Encoding::kRightLeft}) {
        const bool known = encoding == sim::Encoding::kLeftRight;
        if (!known && s >= probes_) continue;
        auto series = SimulateSeries(*cohort, s, sim::TaskType::kRest, encoding);
        if (!series.ok()) return series.status();
        auto run = RenderRun(*generated, *series, render, render_rng);
        if (!run.ok()) return run.status();
        const std::string path =
            StrFormat("%s/%s/%s.nii.gz", settings_.data_dir.c_str(),
                      known ? "known" : "anonymous", ids_.back().c_str());
        NP_RETURN_IF_ERROR(WriteScan(path, *run));
        (known ? known_paths_ : anonymous_paths_).push_back(path);
      }
    }
    auto atlas = ReadAtlas(atlas_path);
    if (!atlas.ok()) return atlas.status();
    atlas_ = std::move(atlas).value();
    return Status::OK();
  }

  void Pass(Meter& meter, PassRecord& record) override {
    // The CLI's configuration (see tools/neuroprint_attack.cc).
    preprocess::PipelineConfig config = preprocess::RestingStateConfig();
    config.temporal_filter = preprocess::TemporalFilter::kNone;
    config.registration.sample_stride = 2;
    config.parallel.num_threads = settings_.threads;
    config.max_in_flight = settings_.threads;
    core::AttackOptions options;
    options.num_features = 150;
    options.parallel.num_threads = settings_.threads;

    // Phase (a): the known session as one batch, then Fit.
    const double build0 = WallNow();
    const preprocess::RunSource source = [&](std::size_t i) {
      return ReadScan(known_paths_[i]);
    };
    auto batch = PreprocessBatch(source, subjects_, ids_, atlas_, config);
    std::vector<linalg::Vector> columns;
    std::vector<std::string> column_ids;
    if (batch.ok()) {
      for (std::size_t k = 0; k < batch->outputs.size(); ++k) {
        auto features = ConnectomeFeatures(batch->outputs[k].region_series);
        if (record.Check(features.status(), "known connectome")) {
          columns.push_back(std::move(features).value());
          column_ids.push_back(ids_[batch->indices[k]]);
        }
      }
    }
    // Scans the batch did not return (all of them when it failed).
    for (std::size_t i = batch.ok() ? batch->outputs.size() : 0;
         i < subjects_; ++i) {
      record.Check(batch.ok() ? Status::Internal("known scan dropped")
                              : batch.status(),
                   "known batch");
    }
    Result<core::DeanonymizationAttack> attack =
        Status::FailedPrecondition("no known group");
    auto known = GroupFromColumns(columns, column_ids);
    if (known.ok()) attack = Fit(*known, options);
    record.known_build_s = WallNow() - build0;
    if (!record.Check(attack.status(), "fit")) return;
    record.ops += columns.size() + 1;

    // Phase (b): anonymous scans one at a time, closed loop, one caller.
    auto identify = [&](std::size_t i) -> Result<core::AttackResult> {
      auto raw = ReadScan(anonymous_paths_[i]);
      if (!raw.ok()) return raw.status();
      auto output = PreprocessRun(*raw, atlas_, config);
      if (!output.ok()) return output.status();
      auto features = ConnectomeFeatures(output->region_series);
      if (!features.ok()) return features.status();
      auto probe = GroupFromColumns({*features}, {ids_[i]});
      if (!probe.ok()) return probe.status();
      return Identify(*attack, *probe);
    };
    for (std::size_t i = 0; i < probes_; ++i) {
      const double probe0 = WallNow();
      Result<core::AttackResult> result = identify(i);
      record.samples_ms["probe"].push_back(MillisSince(probe0));
      Meter::Pause pause(meter);
      // Ground truth is the file stem, which is the id the known scan of
      // the same subject carries.
      Status check = result.status();
      if (result.ok() && result->predicted_ids.at(0) != ids_[i]) {
        check = Status::Internal(StrFormat(
            "%s identified as %s", ids_[i].c_str(),
            result->predicted_ids.at(0).c_str()));
      }
      if (record.Check(check, "probe")) {
        ++record.ops;
        record.hits += 1.0;
      }
      record.trials += 1.0;
    }
  }

  std::map<std::string, double> Dimensions() const override {
    return {{"subjects", static_cast<double>(subjects_)},
            {"probes", static_cast<double>(probes_)},
            {"regions", static_cast<double>(regions_)},
            {"frames", static_cast<double>(frames_)},
            {"grid_x", static_cast<double>(grid_[0])},
            {"grid_y", static_cast<double>(grid_[1])},
            {"grid_z", static_cast<double>(grid_[2])},
            {"attack_features", 150.0}};
  }

 private:
  RunSettings settings_;
  std::size_t subjects_ = 0;  ///< Known session.
  std::size_t probes_ = 0;    ///< Anonymous session: subjects [0, probes_).
  std::size_t regions_ = 0;
  std::size_t frames_ = 0;
  std::vector<std::size_t> grid_;
  std::vector<std::string> ids_;
  std::vector<std::string> known_paths_;
  std::vector<std::string> anonymous_paths_;
  atlas::Atlas atlas_;
};

// ---------------------------------------------------------------------------
// cross_task: the Figure-5 cross-task matrix at the paper's feature shape.

class CrossTask final : public Workload {
 public:
  explicit CrossTask(const RunSettings& settings) : settings_(settings) {
    subjects_ = settings.tiny ? 8 : 24;
    regions_ = settings.tiny ? 24 : 360;
  }

  Status Setup() override {
    NP_RETURN_IF_ERROR(ResetDirectory(settings_.data_dir));
    known_.clear();
    anonymous_.clear();
    anonymous_paths_.clear();
    sim::CohortConfig config = sim::HcpLikeConfig(Mix(settings_.seed, 4));
    config.num_subjects = subjects_;
    config.num_regions = regions_;
    config.parallel.num_threads = settings_.threads;
    auto cohort = CreateCohort(config);
    if (!cohort.ok()) return cohort.status();
    for (sim::TaskType task : sim::kAllTasks) {
      auto lr = SimulateGroup(*cohort, task, sim::Encoding::kLeftRight);
      if (!lr.ok()) return lr.status();
      auto rl = SimulateGroup(*cohort, task, sim::Encoding::kRightLeft);
      if (!rl.ok()) return rl.status();
      const std::string path =
          StrFormat("%s/%s_RL.npgm", settings_.data_dir.c_str(),
                    sim::TaskName(task));
      NP_RETURN_IF_ERROR(WriteGroup(path, *rl));
      known_.push_back(std::move(lr).value());
      anonymous_.push_back(std::move(rl).value());
      anonymous_paths_.push_back(path);
    }
    return Status::OK();
  }

  void Pass(Meter& meter, PassRecord& record) override {
    core::AttackOptions options;
    options.num_features = 100;
    options.parallel.num_threads = settings_.threads;
    connectome::StreamOptions stream;
    stream.parallel.num_threads = settings_.threads;

    std::vector<std::unique_ptr<connectome::FileMatrixStore>> stores;
    for (const std::string& path : anonymous_paths_) {
      auto store = OpenStore(path);
      if (!record.Check(store.status(), "open " + path)) return;
      stores.push_back(std::move(store).value());
    }
    for (const connectome::GroupMatrix& known : known_) {
      const double fit0 = WallNow();
      auto attack = Fit(known, options);
      record.known_build_s += WallNow() - fit0;
      if (!record.Check(attack.status(), "fit")) continue;
      ++record.ops;
      for (std::size_t c = 0; c < anonymous_.size(); ++c) {
        const double probe0 = WallNow();
        auto ram = Identify(*attack, anonymous_[c]);
        auto streamed = IdentifyStreamed(*attack, *stores[c], stream);
        record.samples_ms["probe"].push_back(MillisSince(probe0));
        Meter::Pause pause(meter);
        Status check = ram.status();
        if (check.ok()) check = streamed.status();
        if (check.ok()) check = CompareResults(*ram, *streamed);
        if (record.Check(check, "identify pair")) {
          ++record.ops;
          record.hits += ram->accuracy;
        }
        record.trials += 1.0;
      }
    }
  }

  std::map<std::string, double> Dimensions() const override {
    const double features =
        static_cast<double>(regions_ * (regions_ - 1) / 2);
    return {{"subjects", static_cast<double>(subjects_)},
            {"regions", static_cast<double>(regions_)},
            {"features", features},
            {"conditions", static_cast<double>(sim::kAllTasks.size())},
            {"encodings", 2.0},
            {"attack_features", 100.0}};
  }

 private:
  RunSettings settings_;
  std::size_t subjects_ = 0;
  std::size_t regions_ = 0;
  std::vector<connectome::GroupMatrix> known_;
  std::vector<connectome::GroupMatrix> anonymous_;
  std::vector<std::string> anonymous_paths_;
};

// ---------------------------------------------------------------------------
// serve_mixed: a durable identification index under a read-mostly mix.

class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(const RunSettings& settings) : settings_(settings) {
    gallery_subjects_ = settings.tiny ? 200 : 2000;
    gallery_.num_features = settings.tiny ? 128 : 512;
    gallery_.num_communities = settings.tiny ? 4 : 16;
    gallery_.parallel.num_threads = settings.threads;
    reference_subjects_ = settings.tiny ? 32 : 128;
    ops_per_pass_ = settings.tiny ? 300 : 2500;
    options_.num_features = settings.tiny ? 32 : 100;
    options_.parallel.num_threads = settings.threads;
    durability_.sync_every = 1;
  }

  Status Setup() override {
    NP_RETURN_IF_ERROR(ResetDirectory(settings_.data_dir));
    pristine_dir_ = settings_.data_dir + "/pristine";
    durability_.data_dir = settings_.data_dir + "/live";
    gallery_.seed = Mix(settings_.seed, 5);
    MakeOps();
    // Subjects enrolled during the passes extend the same gallery.
    const std::size_t population = gallery_subjects_ + new_subjects_;
    gallery_.num_subjects = population;
    auto enrolled = MakeGallery(gallery_, 0, 0, population);
    if (!enrolled.ok()) return enrolled.status();
    auto probes = MakeGallery(gallery_, 1, 0, population);
    if (!probes.ok()) return probes.status();
    ids_ = enrolled->subject_ids();
    enroll_columns_.clear();
    probe_columns_.clear();
    for (std::size_t j = 0; j < population; ++j) {
      enroll_columns_.push_back(enrolled->SubjectColumn(j));
      probe_columns_.push_back(probes->SubjectColumn(j));
    }

    // Subjects [0, reference) fit the index; [reference, gallery) enroll.
    auto column = [&](std::size_t j) {
      return enroll_columns_.begin() + static_cast<std::ptrdiff_t>(j);
    };
    auto id = [&](std::size_t j) {
      return ids_.begin() + static_cast<std::ptrdiff_t>(j);
    };
    auto reference = GroupFromColumns({column(0), column(reference_subjects_)},
                                      {id(0), id(reference_subjects_)});
    if (!reference.ok()) return reference.status();
    auto rest = GroupFromColumns(
        {column(reference_subjects_), column(gallery_subjects_)},
        {id(reference_subjects_), id(gallery_subjects_)});
    if (!rest.ok()) return rest.status();

    service::DurabilityOptions pristine = durability_;
    pristine.data_dir = pristine_dir_;
    auto index = CreateIndex(*reference, pristine, options_);
    if (!index.ok()) return index.status();
    return EnrollBatch(*index, *rest);
  }

  std::size_t MinPasses() const override {
    // At least 1000 mutations per run, so ten lie beyond their p99.
    return settings_.tiny ? 1 : (1000 + mutations_ - 1) / mutations_;
  }

  void Pass(Meter& meter, PassRecord& record) override {
    Result<service::IdentificationIndex> index =
        Status::FailedPrecondition("index not opened");
    {
      // Every pass starts from the state set-up left on disk.
      Meter::Pause pause(meter);
      std::error_code ec;
      fs::remove_all(durability_.data_dir, ec);
      fs::copy(pristine_dir_, durability_.data_dir, ec);
      index = ec ? Status::IOError("copy: " + ec.message())
                 : OpenIndex(durability_, options_);
    }
    if (!record.Check(index.status(), "open")) return;

    std::size_t identifies = 0;
    for (const Op& op : ops_) {
      const double op0 = WallNow();
      const std::string& id = ids_[op.subject];
      if (op.kind == Op::kIdentify) {
        auto match = IdentifyProbe(*index, probe_columns_[op.subject]);
        record.samples_ms["probe"].push_back(MillisSince(op0));
        if (!record.Check(match.status(), "identify " + id)) continue;
        ++record.ops;
        record.trials += 1.0;
        if (match->subject_id == id) record.hits += 1.0;
        if (identifies++ % kBruteForceEvery == 0) {
          Meter::Pause pause(meter);
          CheckAgainstBruteForce(*index, op.subject, match->subject_id,
                                 record);
        }
        continue;
      }
      Status status =
          op.kind == Op::kEnroll
              ? Enroll(*index, id, enroll_columns_[op.subject])
              : Remove(*index, id);
      record.samples_ms["mutate"].push_back(MillisSince(op0));
      if (record.Check(status, "mutate " + id)) ++record.ops;
    }

    std::string live_state;
    {
      Meter::Pause pause(meter);
      live_state = IndexState(*index);
    }
    const double reopen0 = WallNow();
    index = Status::FailedPrecondition("index dropped");  // Closes it.
    auto reopened = OpenIndex(durability_, options_);
    record.known_build_s = WallNow() - reopen0;
    Meter::Pause pause(meter);
    Status check = reopened.status();
    if (check.ok() && IndexState(*reopened) != live_state) {
      check = Status::Internal("reopened index state differs from live");
    }
    record.Check(check, "reopen");
  }

  std::map<std::string, double> Dimensions() const override {
    return {{"gallery_subjects", static_cast<double>(gallery_subjects_)},
            {"gallery_features", static_cast<double>(gallery_.num_features)},
            {"communities", static_cast<double>(gallery_.num_communities)},
            {"reference_subjects", static_cast<double>(reference_subjects_)},
            {"index_features", static_cast<double>(options_.num_features)},
            {"ops_per_pass", static_cast<double>(ops_per_pass_)},
            {"mutations_per_pass", static_cast<double>(mutations_)},
            {"sync_every", static_cast<double>(durability_.sync_every)}};
  }

 private:
  struct Op {
    enum Kind { kIdentify, kEnroll, kRemove } kind = kIdentify;
    std::size_t subject = 0;  ///< Column of the gallery population.
  };
  static constexpr std::size_t kBruteForceEvery = 64;

  // The seeded 90/8/2 identify/enroll/remove sequence every pass replays.
  // Identify and remove draw from the subjects enrolled at that point;
  // enroll adds the next subject beyond the set-up gallery.
  void MakeOps() {
    Rng rng(Mix(settings_.seed, 6));
    std::vector<std::size_t> enrolled(gallery_subjects_);
    for (std::size_t j = 0; j < enrolled.size(); ++j) enrolled[j] = j;
    ops_.clear();
    new_subjects_ = 0;
    mutations_ = 0;
    for (std::size_t i = 0; i < ops_per_pass_; ++i) {
      const std::uint64_t roll = rng.UniformInt(100);
      Op op;
      if (roll < 90) {
        op.subject = enrolled[rng.UniformInt(enrolled.size())];
      } else if (roll < 98) {
        op.kind = Op::kEnroll;
        op.subject = gallery_subjects_ + new_subjects_++;
        enrolled.push_back(op.subject);
      } else {
        op.kind = Op::kRemove;
        const std::size_t k = rng.UniformInt(enrolled.size());
        op.subject = enrolled[k];
        enrolled[k] = enrolled.back();
        enrolled.pop_back();
      }
      mutations_ += op.kind == Op::kIdentify ? 0 : 1;
      ops_.push_back(op);
    }
  }

  void CheckAgainstBruteForce(service::IdentificationIndex& index,
                              std::size_t subject, const std::string& pruned,
                              PassRecord& record) {
    Status check = Status::OK();
    auto probe = GroupFromColumns({probe_columns_[subject]}, {ids_[subject]});
    if (!probe.ok()) {
      check = probe.status();
    } else {
      auto exact = IdentifyBruteForce(index, *probe);
      if (!exact.ok()) {
        check = exact.status();
      } else if (exact->matches.at(0).subject_id != pruned) {
        check = Status::Internal("pruned top-1 " + pruned +
                                 " != brute force " +
                                 exact->matches.at(0).subject_id);
      }
    }
    // Part of the identify it checks, which was already counted.
    if (!check.ok()) {
      ++record.failed;
      if (record.failures.size() < 8) {
        record.failures.push_back("brute-force parity: " + check.ToString());
      }
    }
  }

  RunSettings settings_;
  service::SyntheticGalleryConfig gallery_;
  service::IndexOptions options_;
  service::DurabilityOptions durability_;
  std::size_t gallery_subjects_ = 0;  ///< Enrolled by set-up.
  std::size_t reference_subjects_ = 0;
  std::size_t ops_per_pass_ = 0;
  std::size_t new_subjects_ = 0;
  std::size_t mutations_ = 1;
  std::vector<Op> ops_;
  std::string pristine_dir_;
  std::vector<std::string> ids_;  ///< Every subject of the population.
  std::vector<linalg::Vector> enroll_columns_;  ///< Session 0.
  std::vector<linalg::Vector> probe_columns_;   ///< Session 1.
};

}  // namespace

// ---------------------------------------------------------------------------

Meter::Meter() : wall0_(WallNow()), cpu0_(CpuNow()) {}

double Meter::wall_s() const { return WallNow() - wall0_ - paused_wall_; }

double Meter::cpu_s() const { return CpuNow() - cpu0_ - paused_cpu_; }

Meter::Pause::Pause(Meter& meter)
    : meter_(meter), wall0_(WallNow()), cpu0_(CpuNow()),
      category_(SpanCategory()) {
  SetSpanCategory("check");
}

Meter::Pause::~Pause() {
  SetSpanCategory(category_);
  meter_.paused_wall_ += WallNow() - wall0_;
  meter_.paused_cpu_ += CpuNow() - cpu0_;
}

bool PassRecord::Check(const Status& status, const std::string& what) {
  ++attempted;
  if (status.ok()) return true;
  ++failed;
  if (failures.size() < 8) failures.push_back(what + ": " + status.ToString());
  return false;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunSettings& settings) {
  if (name == "scan_attack") return std::make_unique<ScanAttack>(settings);
  if (name == "cross_task") return std::make_unique<CrossTask>(settings);
  if (name == "serve_mixed") return std::make_unique<ServeMixed>(settings);
  return nullptr;
}

}  // namespace perfbench
