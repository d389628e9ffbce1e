#ifndef OVS_CORE_TRAINING_DATA_H_
#define OVS_CORE_TRAINING_DATA_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "od/tod_tensor.h"
#include "util/mat.h"

namespace ovs::core {

/// One simulator-generated triple (paper §V-D): a TOD tensor and the volume
/// and speed tensors the simulator produced from it.
struct TrainingSample {
  od::TodTensor tod;  ///< [N_od x T]
  DMat volume;        ///< [M x T]
  DMat speed;         ///< [M x T], m/s
};

/// A generated training set plus the normalization scales derived from it.
struct TrainingData {
  std::vector<TrainingSample> samples;
  double tod_scale = 1.0;
  double volume_norm = 1.0;
  double speed_scale = 1.0;
};

/// Implements the paper's data-preprocess protocol (Fig. 7, training stage):
/// generate `num_samples` TOD tensors (each 20% slice follows one of the
/// five patterns, scaled to the dataset's demand level), push each through
/// the microscopic simulator, and collect (TOD, volume, speed).
///
/// Seed contract: the TOD tensors are drawn serially from `seed`, then
/// sample i is `SimulateTod(dataset, tods[i], seed + 1000 + i)` and lands in
/// `samples[i]`; the scales are folded afterwards in index order. The
/// simulations run side by side on the global pool (one sample per task),
/// so the output is bitwise-identical at every pool size. Inside a sample
/// the simulator's in-step sweep runs serially (nested ParallelFors degrade
/// to serial); only a lone sample (`num_samples == 1`) keeps it. On the
/// Manhattan preset at pool size 2 this takes 4-sample batches from a
/// median 3.6 to 9.9 samples/s on a 4-core host, where the in-step sweep
/// alone made pool 2 slower than pool 1.
TrainingData GenerateTrainingData(const data::Dataset& dataset, int num_samples,
                                  uint64_t seed);

/// The paper's testing-stage protocol: simulate the ground-truth TOD and
/// return its (volume, speed) as the hidden ground truth.
TrainingSample SimulateGroundTruth(const data::Dataset& dataset, uint64_t seed);

/// Simulates an arbitrary TOD tensor on the dataset's network — the
/// `TOD -> (volume, speed)` oracle used for evaluation and search baselines.
TrainingSample SimulateTod(const data::Dataset& dataset,
                           const od::TodTensor& tod, uint64_t seed,
                           const std::vector<sim::RoadWork>& works = {});

}  // namespace ovs::core

#endif  // OVS_CORE_TRAINING_DATA_H_
