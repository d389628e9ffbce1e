#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_
// Output checks. Every bound here is computed by the benchmark from the
// inputs (network, TOD) or is a property the method must have; none is a
// copy of an earlier run's output.

#include <map>
#include <string>
#include <vector>

#include "core/training_data.h"
#include "serve/protocol.h"
#include "sim/roadnet.h"
#include "util/mat.h"

namespace perfbench {

/// Longest hop count of any shortest path between two intersections
/// (breadth-first search over the directed links).
int DiameterInLinks(const ovs::sim::RoadNet& net);

/// Highest speed limit of any link, m/s.
double MaxSpeedLimit(const ovs::sim::RoadNet& net);

/// Upper bound on a sample's summed link volume: every trip is at most
/// ceil(cell) vehicles per cell and enters each link of its route once, and
/// a route is at most `diameter` links long.
double TripVolumeBound(const ovs::DMat& tod, int diameter);

class Checker {
 public:
  /// Non-finite or negative cells.
  void FiniteNonNegative(const ovs::DMat& m, const std::string& what);
  /// One simulator triple: finite, non-negative, speed at most
  /// `max_speed`, summed volume within TripVolumeBound.
  void Sample(const ovs::core::TrainingSample& s, double max_speed,
              int diameter, const std::string& what);
  /// A recovered TOD: finite and within [0, tod_scale].
  void RecoveredTod(const ovs::DMat& tod, double tod_scale,
                    const std::string& what);
  /// A training loss curve must end below where it started.
  void LossFalls(const std::vector<double>& curve, const std::string& what);
  /// One `recover` response line: ok, re-parses, the right id and a
  /// [num_od x intervals] tod within [0, tod_scale]. Returns the tod's bytes
  /// as they appear on the line (empty when the line is rejected) and, when
  /// `parsed` is given, fills it from the line.
  std::string RecoverResponse(const std::string& line, const std::string& id,
                              int num_od, int intervals, double tod_scale,
                              ovs::serve::Response* parsed = nullptr);
  /// One `reload` response line: ok, right id, a snapshot version.
  void ReloadResponse(const std::string& line, const std::string& id);
  /// A request that repeats with the same seed and input must get the same
  /// tod bytes back every time, reloads of the unchanged snapshot included.
  void SameSeedSameTod(const std::string& key, const std::string& tod_bytes,
                       const std::string& what);

  /// Records a failed check found by the caller.
  void Fail(const std::string& what) { problems_.push_back(what); }

  const std::vector<std::string>& problems() const { return problems_; }
  bool ok() const { return problems_.empty(); }

 private:

  std::vector<std::string> problems_;
  std::map<std::string, std::string> first_tod_;
};

/// Feeds the checker one valid output of each kind and deliberately broken
/// copies of it; returns the number of broken outputs that were not caught
/// (or valid ones that were rejected), printing each to stderr.
int CheckerSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
