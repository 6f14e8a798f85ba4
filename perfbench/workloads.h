// The three benchmark workloads. Each one builds its seeded inputs in
// Setup() (called several times per run, the last result is kept) and
// then repeats Pass(), one fixed unit of timed work, for the requested
// number of seconds. Why each workload exists is documented in README.md
// and BENCHMARK.json.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// Settings shared by every workload of one run.
struct RunSettings {
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  bool tiny = false;     ///< Smoke-test sizes: seconds instead of minutes.
  std::string data_dir;  ///< Scratch directory owned by the workload.
};

/// Wall and CPU clock over a pass, minus the intervals spent inside
/// Pause scopes (output checks and pass preparation, which are the
/// harness's own work and not the program's).
class Meter {
 public:
  Meter();
  double wall_s() const;
  double cpu_s() const;

  class Pause {
   public:
    explicit Pause(Meter& meter);
    ~Pause();
    Pause(const Pause&) = delete;
    Pause& operator=(const Pause&) = delete;

   private:
    Meter& meter_;
    double wall0_;
    double cpu0_;
    std::string category_;
  };

 private:
  double wall0_;
  double cpu0_;
  double paused_wall_ = 0.0;
  double paused_cpu_ = 0.0;
};

/// What one pass measured and checked.
struct PassRecord {
  double known_build_s = 0.0;
  std::size_t ops = 0;  ///< Operations completed (the ops_per_s numerator).
  std::map<std::string, std::vector<double>> samples_ms;  ///< Per op type.
  double hits = 0.0;   ///< Accuracy numerator...
  double trials = 0.0;  ///< ... and denominator.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< First few failure messages.

  /// Counts one attempted operation; a non-OK `status` counts it failed.
  bool Check(const neuroprint::Status& status, const std::string& what);
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// (Re)creates every input under settings.data_dir.
  virtual neuroprint::Status Setup() = 0;
  /// One unit of timed work. Output checks run under Meter::Pause.
  virtual void Pass(Meter& meter, PassRecord& record) = 0;
  /// Fewest passes a run makes, so that tail percentiles have enough
  /// samples (see README.md).
  virtual std::size_t MinPasses() const { return 1; }
  /// Cohort or gallery dimensions, for the run's environment record.
  virtual std::map<std::string, double> Dimensions() const = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunSettings& settings);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
