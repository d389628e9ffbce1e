// Determinism of the threaded hot paths: the results of training, recovery,
// and the underlying GEMMs must be bitwise-identical regardless of the
// global thread-pool size. Each scenario is run at 1 thread and at 4 threads
// from identical seeds and compared exactly (EXPECT_EQ on floats — no
// tolerance).

#include <tuple>
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/ovs_model.h"
#include "core/trainer.h"
#include "core/training_data.h"
#include "data/cities.h"
#include "nn/convert.h"
#include "nn/ops.h"
#include "sim/engine.h"
#include "sim/roadnet.h"
#include "sim/router.h"
#include "util/thread_pool.h"

namespace ovs {
namespace {

// Restores the global pool size on scope exit so test order does not matter.
struct ThreadGuard {
  explicit ThreadGuard(int threads) : before(GlobalThreadCount()) {
    SetGlobalThreads(threads);
  }
  ~ThreadGuard() { SetGlobalThreads(before); }
  int before;
};

// ------------------------------------------------------------------ GEMMs --

struct MatMulRun {
  nn::Tensor value;
  nn::Tensor grad_a;
  nn::Tensor grad_b;
};

MatMulRun RunMatMul(int threads, std::vector<int> a_shape,
                    std::vector<int> b_shape) {
  ThreadGuard guard(threads);
  Rng rng(99);
  nn::Variable a(nn::Tensor::RandomUniform(std::move(a_shape), -1, 1, &rng),
                 true);
  nn::Variable b(nn::Tensor::RandomUniform(std::move(b_shape), -1, 1, &rng),
                 true);
  a.ZeroGrad();
  b.ZeroGrad();
  nn::Variable c = nn::MatMul(a, b);
  nn::Sum(nn::Mul(c, c)).Backward();
  return {c.value(), a.grad(), b.grad()};
}

void ExpectTensorsIdentical(const nn::Tensor& x, const nn::Tensor& y,
                            const std::string& what) {
  ASSERT_EQ(x.numel(), y.numel()) << what;
  for (int i = 0; i < x.numel(); ++i) {
    ASSERT_EQ(x[i], y[i]) << what << " element " << i;
  }
}

TEST(ParallelDeterminismTest, MatMulForwardBackwardBitwiseIdentical) {
  // Non-square shapes so row/col/inner dims all differ; big enough that the
  // 4-thread run actually splits into multiple chunks.
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> shapes = {
      {{64, 96}, {96, 48}},   // wide inner dim
      {{1, 80}, {80, 33}},    // single output row
      {{130, 7}, {7, 130}},   // skinny inner dim
  };
  for (const auto& [a_shape, b_shape] : shapes) {
    MatMulRun serial = RunMatMul(1, a_shape, b_shape);
    MatMulRun threaded = RunMatMul(4, a_shape, b_shape);
    ExpectTensorsIdentical(serial.value, threaded.value, "forward");
    ExpectTensorsIdentical(serial.grad_a, threaded.grad_a, "grad a");
    ExpectTensorsIdentical(serial.grad_b, threaded.grad_b, "grad b");
  }
}

TEST(ParallelDeterminismTest, FixedMatMulBitwiseIdentical) {
  auto run = [](int threads) {
    ThreadGuard guard(threads);
    Rng rng(5);
    nn::Tensor a = nn::Tensor::RandomUniform({90, 40}, -1, 1, &rng);
    nn::Variable x(nn::Tensor::RandomUniform({40, 70}, -1, 1, &rng), true);
    x.ZeroGrad();
    nn::Variable y = nn::FixedMatMul(a, x);
    nn::Sum(nn::Mul(y, y)).Backward();
    return std::make_pair(y.value(), x.grad());
  };
  auto [v1, g1] = run(1);
  auto [v4, g4] = run(4);
  ExpectTensorsIdentical(v1, v4, "forward");
  ExpectTensorsIdentical(g1, g4, "grad x");
}

// --------------------------------------------------------------- Training --

struct TrainingRun {
  std::vector<double> stage1;
  std::vector<double> stage2;
  std::vector<std::pair<std::string, nn::Tensor>> params;
  DMat recovered;
  double recovery_loss = 0.0;
};

// Full pipeline from fixed seeds: stage-1, stage-2, then a 2-restart
// recovery. Everything downstream of the thread count must be identical.
TrainingRun RunPipeline(int threads) {
  ThreadGuard guard(threads);
  data::Dataset ds = data::BuildDataset(data::Synthetic3x3Config());
  core::TrainingData train = core::GenerateTrainingData(ds, 4, 42);

  Rng rng(3);
  core::OvsConfig config;
  config.lstm_hidden = 8;
  config.speed_head_hidden = 8;
  config.tod_scale = static_cast<float>(train.tod_scale);
  config.volume_norm = static_cast<float>(train.volume_norm);
  config.speed_scale = static_cast<float>(train.speed_scale);
  core::OvsModel model(ds.num_od(), ds.num_links(), ds.num_intervals(),
                       ds.incidence, config, &rng);
  core::TrainerConfig tc;
  tc.stage1_epochs = 12;
  tc.stage2_epochs = 12;
  tc.recovery_epochs = 20;
  tc.recovery_restarts = 2;
  core::OvsTrainer trainer(&model, tc);

  TrainingRun run;
  run.stage1 = trainer.TrainVolumeSpeed(train).value();
  run.stage2 = trainer.TrainTodVolume(train).value();
  core::TrainingSample gt = core::SimulateGroundTruth(ds, 4242);
  run.recovered = trainer.RecoverTod(gt.speed, nullptr, &rng).value().mat();
  run.recovery_loss = trainer.last_recovery_loss();
  for (const auto& [name, p] : model.NamedParameters()) {
    run.params.emplace_back(name, p.value());
  }
  return run;
}

TEST(ParallelDeterminismTest, TrainingAndRecoveryBitwiseIdentical) {
  TrainingRun serial = RunPipeline(1);
  TrainingRun threaded = RunPipeline(4);

  // Loss curves, element by element, exact.
  ASSERT_EQ(serial.stage1.size(), threaded.stage1.size());
  for (size_t i = 0; i < serial.stage1.size(); ++i) {
    ASSERT_EQ(serial.stage1[i], threaded.stage1[i]) << "stage1 epoch " << i;
  }
  ASSERT_EQ(serial.stage2.size(), threaded.stage2.size());
  for (size_t i = 0; i < serial.stage2.size(); ++i) {
    ASSERT_EQ(serial.stage2[i], threaded.stage2[i]) << "stage2 epoch " << i;
  }

  // Every named parameter of the full model, exact.
  ASSERT_EQ(serial.params.size(), threaded.params.size());
  for (size_t i = 0; i < serial.params.size(); ++i) {
    ASSERT_EQ(serial.params[i].first, threaded.params[i].first);
    ExpectTensorsIdentical(serial.params[i].second, threaded.params[i].second,
                           serial.params[i].first);
  }

  // The recovered TOD tensor and its final loss, exact.
  ASSERT_EQ(serial.recovery_loss, threaded.recovery_loss);
  ASSERT_EQ(serial.recovered.rows(), threaded.recovered.rows());
  ASSERT_EQ(serial.recovered.cols(), threaded.recovered.cols());
  for (int i = 0; i < serial.recovered.rows(); ++i) {
    for (int j = 0; j < serial.recovered.cols(); ++j) {
      ASSERT_EQ(serial.recovered.at(i, j), threaded.recovered.at(i, j))
          << "recovered TOD (" << i << "," << j << ")";
    }
  }
}

// A 1-restart recovery must also match: restart 0 reuses the generator's
// current seeds, so the concurrent-restart code path reproduces the original
// serial recovery exactly.
TEST(ParallelDeterminismTest, SingleRestartMatchesAcrossThreadCounts) {
  auto run = [](int threads) {
    ThreadGuard guard(threads);
    data::Dataset ds = data::BuildDataset(data::Synthetic3x3Config());
    core::TrainingData train = core::GenerateTrainingData(ds, 3, 7);
    Rng rng(11);
    core::OvsConfig config;
    config.lstm_hidden = 8;
    config.speed_head_hidden = 8;
    config.tod_scale = static_cast<float>(train.tod_scale);
    config.volume_norm = static_cast<float>(train.volume_norm);
    config.speed_scale = static_cast<float>(train.speed_scale);
    core::OvsModel model(ds.num_od(), ds.num_links(), ds.num_intervals(),
                         ds.incidence, config, &rng);
    core::TrainerConfig tc;
    tc.stage1_epochs = 8;
    tc.stage2_epochs = 8;
    tc.recovery_epochs = 15;
    tc.recovery_restarts = 1;
    core::OvsTrainer trainer(&model, tc);
    std::ignore = trainer.TrainVolumeSpeed(train);
    std::ignore = trainer.TrainTodVolume(train);
    core::TrainingSample gt = core::SimulateGroundTruth(ds, 4242);
    return trainer.RecoverTod(gt.speed, nullptr, &rng).value().mat();
  };
  DMat serial = run(1);
  DMat threaded = run(4);
  for (int i = 0; i < serial.rows(); ++i) {
    for (int j = 0; j < serial.cols(); ++j) {
      ASSERT_EQ(serial.at(i, j), threaded.at(i, j));
    }
  }
}

// -------------------------------------------------------------- Simulator --

// Direct Simulate() comparison: with the two-phase sweep, the sensor pair is
// bitwise-identical at 1 vs 4 threads (broader thread/scenario coverage
// lives in sim_determinism_test.cc; this is the pipeline-level smoke).
TEST(ParallelDeterminismTest, SimulateBitwiseIdenticalAcrossThreadCounts) {
  auto run = [](int threads, bool force_serial) {
    ThreadGuard guard(threads);
    sim::RoadNet net = sim::MakeGridNetwork(4, 4, 250.0, 2, 13.89);
    sim::Router router(&net);
    Rng rng(31);
    sim::EngineConfig config;
    config.duration_s = 900.0;
    config.interval_s = 300.0;
    config.force_serial_sweep = force_serial;
    std::vector<sim::TripRequest> trips;
    for (int i = 0; i < 300; ++i) {
      const int o = rng.UniformInt(0, net.num_intersections() - 1);
      const int d = rng.UniformInt(0, net.num_intersections() - 1);
      if (o == d) continue;
      trips.push_back({rng.Uniform(0.0, 600.0),
                       router.CachedRoute(o, d).value()});
    }
    return sim::Simulate(net, config, trips);
  };
  const sim::SensorData reference = run(1, /*force_serial=*/true);
  for (int threads : {1, 4}) {
    const sim::SensorData got = run(threads, /*force_serial=*/false);
    ASSERT_EQ(reference.volume.rows(), got.volume.rows());
    for (int l = 0; l < reference.volume.rows(); ++l) {
      for (int t = 0; t < reference.volume.cols(); ++t) {
        ASSERT_EQ(reference.volume.at(l, t), got.volume.at(l, t))
            << "volume (" << l << "," << t << ") @" << threads;
        ASSERT_EQ(reference.speed.at(l, t), got.speed.at(l, t))
            << "speed (" << l << "," << t << ") @" << threads;
      }
    }
    EXPECT_EQ(reference.spawned_trips, got.spawned_trips);
    EXPECT_EQ(reference.completed_trips, got.completed_trips);
    EXPECT_EQ(reference.mean_travel_time_s, got.mean_travel_time_s);
  }
}

void ExpectSamplesIdentical(const core::TrainingSample& a,
                            const core::TrainingSample& b,
                            const std::string& what) {
  const DMat* pairs[][2] = {{&a.tod.mat(), &b.tod.mat()},
                            {&a.volume, &b.volume},
                            {&a.speed, &b.speed}};
  for (const auto& [x, y] : pairs) {
    ASSERT_EQ(x->rows(), y->rows()) << what;
    ASSERT_EQ(x->cols(), y->cols()) << what;
    for (int r = 0; r < x->rows(); ++r) {
      for (int c = 0; c < x->cols(); ++c) {
        ASSERT_EQ(x->at(r, c), y->at(r, c)) << what << " (" << r << "," << c
                                            << ")";
      }
    }
  }
}

// GenerateTrainingData runs its samples side by side on the pool. Its seed
// contract -- sample i is SimulateTod(tods[i], seed + 1000 + i), scales
// folded in index order -- must make every pool size produce the same bits
// as a plain serial loop over SimulateTod.
TEST(ParallelDeterminismTest, GenerateTrainingDataBitwiseAcrossPoolSizes) {
  // A 30-minute horizon keeps the 45 simulations affordable under TSan.
  data::DatasetConfig config = data::Synthetic3x3Config();
  config.num_intervals = 3;
  const data::Dataset ds = data::BuildDataset(config);
  constexpr uint64_t kSeed = 61;
  for (int num_samples : {1, 3, 5}) {
    core::TrainingData reference;
    {
      ThreadGuard guard(1);
      reference = core::GenerateTrainingData(ds, num_samples, kSeed);
    }
    ASSERT_EQ(static_cast<int>(reference.samples.size()), num_samples);

    // The hand loop, fed the TOD tensors the batch drew.
    double tod_max = 1.0, vol_max = 1.0, speed_max = 1.0;
    for (int i = 0; i < num_samples; ++i) {
      const core::TrainingSample& got = reference.samples[i];
      const core::TrainingSample want =
          core::SimulateTod(ds, got.tod, kSeed + 1000 + i);
      ExpectSamplesIdentical(want, got, "hand loop sample " +
                                            std::to_string(i) + " of " +
                                            std::to_string(num_samples));
      tod_max = std::max(tod_max, want.tod.mat().Max());
      vol_max = std::max(vol_max, want.volume.Max());
      speed_max = std::max(speed_max, want.speed.Max());
    }
    EXPECT_EQ(reference.tod_scale, tod_max * 1.2);
    EXPECT_EQ(reference.volume_norm, vol_max);
    EXPECT_EQ(reference.speed_scale, speed_max * 1.05);

    for (int threads : {2, 3, 4}) {
      ThreadGuard guard(threads);
      const core::TrainingData got =
          core::GenerateTrainingData(ds, num_samples, kSeed);
      const std::string what = std::to_string(num_samples) + " samples @" +
                               std::to_string(threads) + " threads";
      ASSERT_EQ(got.samples.size(), reference.samples.size()) << what;
      for (size_t i = 0; i < got.samples.size(); ++i) {
        ExpectSamplesIdentical(reference.samples[i], got.samples[i],
                               what + " sample " + std::to_string(i));
      }
      EXPECT_EQ(got.tod_scale, reference.tod_scale) << what;
      EXPECT_EQ(got.volume_norm, reference.volume_norm) << what;
      EXPECT_EQ(got.speed_scale, reference.speed_scale) << what;
    }
  }
}

// End-to-end: simulator -> training data -> one stage-1 epoch. Proves the
// sim's determinism contract composes through the full training pipeline,
// not just per-step (the longer multi-stage pipeline is covered above; this
// one isolates the sim-fed front half at 1 vs 4 threads).
TEST(ParallelDeterminismTest, SimToStage1EpochBitwiseIdentical) {
  auto run = [](int threads) {
    ThreadGuard guard(threads);
    data::Dataset ds = data::BuildDataset(data::Synthetic3x3Config());
    core::TrainingData train = core::GenerateTrainingData(ds, 3, 97);
    Rng rng(13);
    core::OvsConfig config;
    config.lstm_hidden = 8;
    config.speed_head_hidden = 8;
    config.tod_scale = static_cast<float>(train.tod_scale);
    config.volume_norm = static_cast<float>(train.volume_norm);
    config.speed_scale = static_cast<float>(train.speed_scale);
    core::OvsModel model(ds.num_od(), ds.num_links(), ds.num_intervals(),
                         ds.incidence, config, &rng);
    core::TrainerConfig tc;
    tc.stage1_epochs = 1;
    core::OvsTrainer trainer(&model, tc);
    const std::vector<double> losses = trainer.TrainVolumeSpeed(train).value();
    return std::make_pair(train, losses);
  };
  auto [train1, losses1] = run(1);
  auto [train4, losses4] = run(4);

  // The simulated training tensors themselves, exact.
  ASSERT_EQ(train1.samples.size(), train4.samples.size());
  for (size_t s = 0; s < train1.samples.size(); ++s) {
    const core::TrainingSample& a = train1.samples[s];
    const core::TrainingSample& b = train4.samples[s];
    for (int l = 0; l < a.volume.rows(); ++l) {
      for (int t = 0; t < a.volume.cols(); ++t) {
        ASSERT_EQ(a.volume.at(l, t), b.volume.at(l, t)) << "sample " << s;
        ASSERT_EQ(a.speed.at(l, t), b.speed.at(l, t)) << "sample " << s;
      }
    }
  }
  ASSERT_EQ(train1.tod_scale, train4.tod_scale);
  ASSERT_EQ(train1.volume_norm, train4.volume_norm);
  ASSERT_EQ(train1.speed_scale, train4.speed_scale);

  // And the first training epoch on top of them.
  ASSERT_EQ(losses1.size(), losses4.size());
  for (size_t i = 0; i < losses1.size(); ++i) {
    ASSERT_EQ(losses1[i], losses4[i]) << "stage1 epoch " << i;
  }
}

}  // namespace
}  // namespace ovs
