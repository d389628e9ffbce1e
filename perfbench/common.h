#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_
// Shared pieces of the benchmark runner: run arguments, the result line,
// timing and order statistics, host facts, and the reader for the program's
// ovs.run_report.v1 documents.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/training_data.h"
#include "data/dataset.h"
#include "od/patterns.h"
#include "od/tod_tensor.h"
#include "util/mat.h"
#include "json.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for reports, snapshots and server logs.
  std::string work_dir;
  /// Path of the ovs_served binary built next to the runner.
  std::string served;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload run: what the last stdout line reports.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;  ///< check failures; empty = correct
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Problem(const std::string& what) { problems.push_back(what); }
};

/// Prints the problems to stderr and the result object as one JSON line on
/// stdout.
void PrintResult(const RunResult& result);

/// Host facts printed before the result: nproc, ISA, pool size, build type.
void PrintHostFacts(const std::string& workload, int pool_size);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; NaN when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Peak resident set (VmHWM) of process `pid` ("self" = this one), in MB;
/// 0 when it cannot be read.
double PeakRssMb(const std::string& pid = "self");

/// Setup is repeated this many times per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// FNV-1a over raw bytes: the bitwise fingerprint of an output.
class Digest {
 public:
  void Add(const void* data, size_t bytes);
  void Add(const std::vector<double>& v) {
    Add(v.data(), v.size() * sizeof(double));
  }
  void Add(const ovs::DMat& m) {
    Add(m.data(), static_cast<size_t>(m.rows()) * m.cols() * sizeof(double));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Span totals of a run report's phase tree, summed over every node with a
/// given name (optionally only below nodes named `under`).
struct SpanTotal {
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  double mean_ms() const { return count > 0 ? total_s * 1e3 / count : 0.0; }
};

/// A parsed ovs.run_report.v1 file.
class RunReportView {
 public:
  [[nodiscard]] ovs::Status Load(const std::string& path);
  SpanTotal Span(const std::string& name, const std::string& under = "") const;
  double Counter(const std::string& name) const;
  double Pool(const std::string& name) const;

 private:
  Json doc_;
};

/// What a traced run measured, turned into the per-layer metrics by
/// AddLayerMetrics. `op_span` names the span around one timed operation;
/// nn and recover-epoch figures count only spans below it.
struct LayerFacts {
  const RunReportView* report = nullptr;
  std::string op_span;
  int64_t ops = 0;
  double pool_idle_share = 0.0;
  double parallel_fors = 0.0;
  double od_demand_ms = 0.0;
  double service_ms = 0.0;
  double protocol_us = 0.0;
  double queue_wait_ms = 0.0;
  double reload_ms = 0.0;
  double generator_late_ms = 0.0;
  double trace_overhead_share = 0.0;
};

/// Adds every per-layer metric, in BENCHMARK.json order. A layer that does
/// no work in a workload reads 0.
void AddLayerMetrics(const LayerFacts& facts, RunResult* result);

/// Idle share of the pool's resident workers over `wall_s`; 0 for a pool of
/// size 1, which has none.
double PoolIdleShare(uint64_t idle_ns, int pool_size, double wall_s);

/// Reads a whole file; empty string when missing.
std::string ReadFile(const std::string& path);

/// Pattern scaling of table8_synthetic: the paper's veh/min rates brought
/// to the city's demand level.
ovs::od::PatternConfig TablePatternConfig(const ovs::data::Dataset& ds);

/// The city's five Table VIII pattern tensors in paper order: the
/// benchmark's hidden test tensors, drawn with the seeds (555 + pattern) and
/// scaling table8_synthetic uses.
std::vector<ovs::od::TodTensor> TableTensors(const ovs::data::Dataset& ds);

/// Mean over `hidden` of the RMSE of a flat guess at the samples' mean TOD
/// cell: the error of an estimator that learns only the demand level.
double FlatGuessRmse(const std::vector<ovs::core::TrainingSample>& samples,
                     const std::vector<ovs::od::TodTensor>& hidden);

/// The od layer alone: mean ms of od::DemandGenerator::Generate over
/// `tods`, each call in a `perfbench.od.generate` span. 0 trips is a
/// failed check.
class Checker;
double TimeDemand(const ovs::data::Dataset& ds,
                  const std::vector<ovs::od::TodTensor>& tods,
                  Checker* checker);

/// Root-mean-square difference of two equally sized cell arrays, summed in
/// index order so it repeats bit for bit.
double Rmse(const double* a, const double* b, size_t n);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
