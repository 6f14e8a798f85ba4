#include "core/attack.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "util/metrics.h"
#include "util/string_util.h"

namespace neuroprint::core {
namespace {

// Turns per-subject finite flags into the surviving column indices,
// records each unusable subject in `report` (stage = `stage`) and
// resolves the batch against `policy`: fail-fast errors on the
// lowest-index bad subject, skip/quorum keep the survivors.
Result<std::vector<std::size_t>> ResolveScreen(
    const std::vector<unsigned char>& finite,
    const std::vector<std::string>& ids, const FailurePolicy& policy,
    const char* stage, BatchReport* report) {
  BatchReport local_report;
  if (report == nullptr) report = &local_report;
  report->Clear();
  report->attempted = finite.size();
  std::vector<std::size_t> survivors;
  survivors.reserve(finite.size());
  for (std::size_t j = 0; j < finite.size(); ++j) {
    if (finite[j]) {
      survivors.push_back(j);
      continue;
    }
    BatchItemReport item;
    item.index = j;
    item.id = ids[j];
    item.stage = stage;
    item.status = Status::CorruptData(StrFormat(
        "subject %s has non-finite feature values", item.id.c_str()));
    report->failed.push_back(std::move(item));
  }
  NP_RETURN_IF_ERROR(ResolveBatch(policy, *report));
  if (!report->failed.empty()) {
    metrics::Count("batch.subjects_skipped", report->failed.size());
  }
  return survivors;
}

// Screens a group matrix for unusable subjects (any non-finite value in
// the feature column) in one row-order sweep; see ResolveScreen.
Result<std::vector<std::size_t>> ScreenSubjects(
    const connectome::GroupMatrix& matrix, const FailurePolicy& policy,
    const char* stage, BatchReport* report) {
  std::vector<unsigned char> finite(matrix.num_subjects(), 1);
  for (std::size_t i = 0; i < matrix.num_features(); ++i) {
    const double* row = matrix.data().RowPtr(i);
    for (std::size_t j = 0; j < finite.size(); ++j) {
      finite[j] &= std::isfinite(row[j]);
    }
  }
  return ResolveScreen(finite, matrix.subject_ids(), policy, stage, report);
}

// One pass over `store`, one contiguous column at a time, so one column
// is resident whatever the window. Per subject it records whether the
// feature column is all finite (the ScreenSubjects test) and copies out
// the values at feature `rows`. Store read errors propagate.
struct ColumnScan {
  std::vector<unsigned char> finite;
  std::vector<linalg::Vector> gathered;
};

Result<ColumnScan> ScanColumns(const connectome::MatrixStore& store,
                               const std::vector<std::size_t>& rows) {
  const std::size_t n = store.num_subjects();
  ColumnScan scan;
  scan.finite.resize(n);
  scan.gathered.assign(n, linalg::Vector(rows.size()));
  linalg::Matrix column;
  for (std::size_t j = 0; j < n; ++j) {
    NP_RETURN_IF_ERROR(store.ReadColumns(j, 1, &column));
    const double* values = column.data();
    scan.finite[j] = std::all_of(values, values + column.size(),
                                 [](double x) { return std::isfinite(x); });
    for (std::size_t i = 0; i < rows.size(); ++i) {
      scan.gathered[j][i] = values[rows[i]];
    }
  }
  return scan;
}

}  // namespace

Result<DeanonymizationAttack> DeanonymizationAttack::Fit(
    const connectome::GroupMatrix& known, const AttackOptions& options,
    BatchReport* report) {
  trace::ScopedEnable trace_enable(options.trace.enabled);
  fault::ScopedSchedule fault_schedule(options.fault.schedule);
  NP_RETURN_IF_ERROR(fault_schedule.status());
  NP_TRACE_SCOPE("attack.fit");
  NP_FAULT_POINT("attack.fit");
  if (options.num_features == 0) {
    return Status::InvalidArgument("AttackOptions: num_features must be > 0");
  }
  if (known.num_subjects() < 2) {
    return Status::InvalidArgument(
        "DeanonymizationAttack: need at least 2 known subjects");
  }
  std::vector<std::size_t> survivors;
  {
    NP_TRACE_SCOPE("attack.fit.screen");
    NP_ASSIGN_OR_RETURN(survivors,
                        ScreenSubjects(known, options.failure_policy,
                                       "fit_screen", report));
  }
  connectome::GroupMatrix screened_known;
  const connectome::GroupMatrix* fit_known = &known;
  if (survivors.size() < known.num_subjects()) {
    if (survivors.size() < 2) {
      return Status::FailedPrecondition(
          "DeanonymizationAttack: fewer than 2 usable known subjects");
    }
    NP_ASSIGN_OR_RETURN(screened_known, known.RestrictToSubjects(survivors));
    fit_known = &screened_known;
  }
  // The leverage stage inherits the attack-wide thread knob unless its own
  // is set (AttackOptions{.leverage = {.sketch = true}} runs the whole fit
  // on the randomized sketch).
  LeverageOptions leverage = options.leverage;
  if (leverage.parallel.num_threads == 0) {
    leverage.parallel = options.parallel;
  }
  auto scores = ComputeLeverageScores(fit_known->data(), leverage);
  if (!scores.ok()) return scores.status();

  DeanonymizationAttack attack;
  attack.leverage_scores_ = std::move(scores).value();
  attack.selected_features_ =
      TopKIndices(attack.leverage_scores_, options.num_features);
  if (attack.selected_features_.size() < 2) {
    return Status::FailedPrecondition(
        "DeanonymizationAttack: fewer than 2 usable features");
  }
  NP_TRACE_SCOPE("attack.fit.restrict");
  auto reduced = fit_known->RestrictToFeatures(attack.selected_features_);
  if (!reduced.ok()) return reduced.status();
  attack.reduced_known_ = std::move(reduced).value();
  attack.full_feature_count_ = known.num_features();
  attack.parallel_ = options.parallel;
  attack.trace_ = options.trace;
  attack.failure_policy_ = options.failure_policy;
  attack.fault_ = options.fault;
  metrics::Count("attack.fits", 1);
  metrics::SetGauge("attack.selected_features",
                    static_cast<double>(attack.selected_features_.size()));
  return attack;
}

Result<DeanonymizationAttack> DeanonymizationAttack::FitStreamed(
    const connectome::MatrixStore& known, const AttackOptions& options,
    const connectome::StreamOptions& stream, BatchReport* report) {
  trace::ScopedEnable trace_enable(options.trace.enabled);
  fault::ScopedSchedule fault_schedule(options.fault.schedule);
  NP_RETURN_IF_ERROR(fault_schedule.status());
  NP_TRACE_SCOPE("attack.fit");
  NP_FAULT_POINT("attack.fit");
  if (options.num_features == 0) {
    return Status::InvalidArgument("AttackOptions: num_features must be > 0");
  }
  if (known.num_subjects() < 2) {
    return Status::InvalidArgument(
        "DeanonymizationAttack: need at least 2 known subjects");
  }
  std::vector<std::size_t> survivors;
  {
    NP_TRACE_SCOPE("attack.fit.screen");
    ColumnScan scan;
    NP_ASSIGN_OR_RETURN(scan, ScanColumns(known, {}));
    NP_ASSIGN_OR_RETURN(survivors,
                        ResolveScreen(scan.finite, known.subject_ids(),
                                      options.failure_policy, "fit_screen",
                                      report));
  }
  std::optional<connectome::SubsetColumnsStore> screened_known;
  const connectome::MatrixStore* fit_known = &known;
  if (survivors.size() < known.num_subjects()) {
    if (survivors.size() < 2) {
      return Status::FailedPrecondition(
          "DeanonymizationAttack: fewer than 2 usable known subjects");
    }
    auto subset = connectome::SubsetColumnsStore::Create(known, survivors);
    if (!subset.ok()) return subset.status();
    screened_known = std::move(subset).value();
    fit_known = &*screened_known;
  }
  LeverageOptions leverage = options.leverage;
  if (leverage.parallel.num_threads == 0) {
    leverage.parallel = options.parallel;
  }
  auto scores = ComputeLeverageScoresStreamed(*fit_known, leverage, stream);
  if (!scores.ok()) return scores.status();

  DeanonymizationAttack attack;
  attack.leverage_scores_ = std::move(scores).value();
  attack.selected_features_ =
      TopKIndices(attack.leverage_scores_, options.num_features);
  if (attack.selected_features_.size() < 2) {
    return Status::FailedPrecondition(
        "DeanonymizationAttack: fewer than 2 usable features");
  }
  NP_TRACE_SCOPE("attack.fit.restrict");
  ColumnScan scan;
  NP_ASSIGN_OR_RETURN(scan, ScanColumns(*fit_known, attack.selected_features_));
  NP_ASSIGN_OR_RETURN(attack.reduced_known_,
                      connectome::GroupMatrix::FromFeatureColumns(
                          scan.gathered, fit_known->subject_ids()));
  attack.full_feature_count_ = known.num_features();
  attack.parallel_ = options.parallel;
  attack.trace_ = options.trace;
  attack.failure_policy_ = options.failure_policy;
  attack.fault_ = options.fault;
  metrics::Count("attack.fits", 1);
  metrics::SetGauge("attack.selected_features",
                    static_cast<double>(attack.selected_features_.size()));
  return attack;
}

Result<AttackResult> DeanonymizationAttack::Identify(
    const connectome::GroupMatrix& anonymous, BatchReport* report) const {
  trace::ScopedEnable trace_enable(trace_.enabled);
  fault::ScopedSchedule fault_schedule(fault_.schedule);
  NP_RETURN_IF_ERROR(fault_schedule.status());
  NP_TRACE_SCOPE("attack.identify");
  NP_FAULT_POINT("attack.identify");
  if (anonymous.num_subjects() == 0) {
    return Status::InvalidArgument(
        "Identify: anonymous dataset has no subjects");
  }
  if (anonymous.num_features() != full_feature_count_) {
    return Status::InvalidArgument(StrFormat(
        "Identify: anonymous dataset has %zu features, attack was fitted "
        "on %zu — datasets must share a parcellation",
        anonymous.num_features(), full_feature_count_));
  }
  std::vector<std::size_t> survivors;
  {
    NP_TRACE_SCOPE("attack.identify.screen");
    NP_ASSIGN_OR_RETURN(survivors, ScreenSubjects(anonymous, failure_policy_,
                                                  "identify_screen", report));
  }
  connectome::GroupMatrix screened;
  const connectome::GroupMatrix* target = &anonymous;
  if (survivors.size() < anonymous.num_subjects()) {
    NP_ASSIGN_OR_RETURN(screened, anonymous.RestrictToSubjects(survivors));
    target = &screened;
  }
  auto reduced = target->RestrictToFeatures(selected_features_);
  if (!reduced.ok()) return reduced.status();
  return IdentifyReduced(*reduced);
}

Result<AttackResult> DeanonymizationAttack::IdentifyStreamed(
    const connectome::MatrixStore& anonymous,
    const connectome::StreamOptions& /*stream*/, BatchReport* report) const {
  trace::ScopedEnable trace_enable(trace_.enabled);
  fault::ScopedSchedule fault_schedule(fault_.schedule);
  NP_RETURN_IF_ERROR(fault_schedule.status());
  NP_TRACE_SCOPE("attack.identify");
  NP_FAULT_POINT("attack.identify");
  if (anonymous.num_subjects() == 0) {
    return Status::InvalidArgument(
        "Identify: anonymous dataset has no subjects");
  }
  if (anonymous.num_features() != full_feature_count_) {
    return Status::InvalidArgument(StrFormat(
        "Identify: anonymous dataset has %zu features, attack was fitted "
        "on %zu — datasets must share a parcellation",
        anonymous.num_features(), full_feature_count_));
  }
  ColumnScan scan;
  std::vector<std::size_t> survivors;
  {
    NP_TRACE_SCOPE("attack.identify.screen");
    NP_ASSIGN_OR_RETURN(scan, ScanColumns(anonymous, selected_features_));
    NP_ASSIGN_OR_RETURN(survivors,
                        ResolveScreen(scan.finite, anonymous.subject_ids(),
                                      failure_policy_, "identify_screen",
                                      report));
  }
  std::vector<linalg::Vector> columns;
  std::vector<std::string> ids;
  for (std::size_t j : survivors) {
    columns.push_back(std::move(scan.gathered[j]));
    ids.push_back(anonymous.subject_ids()[j]);
  }
  connectome::GroupMatrix reduced;
  NP_ASSIGN_OR_RETURN(reduced, connectome::GroupMatrix::FromFeatureColumns(
                                   columns, std::move(ids)));
  return IdentifyReduced(reduced);
}

Result<AttackResult> DeanonymizationAttack::IdentifyReduced(
    const connectome::GroupMatrix& reduced_target) const {
  metrics::Count("attack.identifies", 1);
  metrics::SetGauge("attack.identify_subjects",
                    static_cast<double>(reduced_target.num_subjects()));

  AttackResult result;
  {
    NP_TRACE_SCOPE("attack.identify.similarity");
    auto similarity =
        SimilarityMatrix(reduced_known_, reduced_target, parallel_);
    if (!similarity.ok()) return similarity.status();
    result.similarity = std::move(similarity).value();
  }
  {
    NP_TRACE_SCOPE("attack.identify.argmax");
    result.predicted_index = ArgmaxMatch(result.similarity, parallel_);
  }

  result.predicted_ids.reserve(result.predicted_index.size());
  for (std::size_t idx : result.predicted_index) {
    result.predicted_ids.push_back(reduced_known_.subject_ids()[idx]);
  }
  auto accuracy =
      IdentificationAccuracy(result.predicted_index,
                             reduced_known_.subject_ids(),
                             reduced_target.subject_ids());
  if (!accuracy.ok()) return accuracy.status();
  result.accuracy = *accuracy;
  return result;
}

}  // namespace neuroprint::core
