#include "core/training_data.h"

#include <algorithm>

#include "od/demand.h"
#include "od/patterns.h"
#include "util/thread_pool.h"

namespace ovs::core {

namespace {

/// Pattern scaling so the paper's veh/min rates land at the dataset's demand
/// level: mean pattern rate is ~10 veh/min, the dataset wants
/// `mean_trips_per_od_interval` per interval.
od::PatternConfig PatternConfigFor(const data::Dataset& dataset) {
  od::PatternConfig pc;
  pc.interval_minutes = dataset.config.interval_s / 60.0;
  const double paper_mean_per_interval = 10.0 * pc.interval_minutes;
  pc.rate_scale = dataset.config.mean_trips_per_od_interval *
                  dataset.config.training_demand_multiplier /
                  paper_mean_per_interval;
  return pc;
}

}  // namespace

TrainingSample SimulateTod(const data::Dataset& dataset,
                           const od::TodTensor& tod, uint64_t seed,
                           const std::vector<sim::RoadWork>& works) {
  Rng rng(seed);
  od::DemandGenerator demand(&dataset.net, &dataset.regions, &dataset.od_set,
                             dataset.config.interval_s);
  sim::SensorData sensors = sim::Simulate(
      dataset.net, dataset.engine_config, demand.Generate(tod, &rng), works);
  TrainingSample sample;
  sample.tod = tod;
  sample.volume = std::move(sensors.volume);
  sample.speed = std::move(sensors.speed);
  return sample;
}

TrainingSample SimulateGroundTruth(const data::Dataset& dataset, uint64_t seed) {
  return SimulateTod(dataset, dataset.ground_truth_tod, seed);
}

TrainingData GenerateTrainingData(const data::Dataset& dataset, int num_samples,
                                  uint64_t seed) {
  CHECK_GT(num_samples, 0);
  Rng rng(seed);
  const od::PatternConfig pc = PatternConfigFor(dataset);

  std::vector<od::TodTensor> tods = od::GenerateTrainingTods(
      num_samples, dataset.num_od(), dataset.num_intervals(), pc, &rng);

  // The samples are independent simulations: sample i has its own seed and
  // writes only its own slot, so running them side by side changes no bit
  // at any pool size. The simulator's per-step ParallelFors nested in a
  // sample run serially (ThreadPool's nested-region rule).
  TrainingData out;
  out.samples.resize(tods.size());
  const int64_t n = static_cast<int64_t>(tods.size());
  ParallelFor(0, n, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      out.samples[i] = SimulateTod(dataset, tods[i],
                                   seed + 1000 + static_cast<uint64_t>(i));
    }
  });
  double tod_max = 1.0, vol_max = 1.0, speed_max = 1.0;
  for (const TrainingSample& sample : out.samples) {
    tod_max = std::max(tod_max, sample.tod.mat().Max());
    vol_max = std::max(vol_max, sample.volume.Max());
    speed_max = std::max(speed_max, sample.speed.Max());
  }
  // Headroom so the sigmoid ceilings sit above every observed value.
  out.tod_scale = tod_max * 1.2;
  out.volume_norm = vol_max;
  out.speed_scale = speed_max * 1.05;
  return out;
}

}  // namespace ovs::core
