// Tests for the data-pipeline front-end (trajectory recording, taxi TOD
// extraction, probe speeds) and the fundamental-diagram module.

#include <gtest/gtest.h>

#include <memory>

#include "data/cities.h"
#include "core/training_data.h"
#include "data/trajectories.h"
#include "nn/ops.h"
#include "od/demand.h"
#include "sim/fundamental_diagram.h"
#include "tests/gradcheck.h"

namespace ovs {
namespace {

/// Simulates the synthetic city, by default with trajectory recording on.
sim::SensorData SimulateWithTraces(const data::Dataset& ds,
                                   const od::TodTensor& tod, uint64_t seed,
                                   bool record = true) {
  Rng rng(seed);
  od::DemandGenerator gen(&ds.net, &ds.regions, &ds.od_set,
                          ds.config.interval_s);
  sim::EngineConfig config = ds.engine_config;
  config.record_trajectories = record;
  return sim::Simulate(ds.net, config, gen.Generate(tod, &rng));
}

class TrajectoryPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = std::make_unique<data::Dataset>(
        data::BuildDataset(data::Synthetic3x3Config()));
    // Light demand (40% of the benchmark level) so virtually all trips spawn
    // and finish: extraction accuracy is then limited only by stochastic
    // rounding and horizon truncation, not by entry-queue losses.
    light_tod_ = std::make_unique<od::TodTensor>(dataset_->ground_truth_tod);
    light_tod_->Scale(0.4);
    sensors_ = std::make_unique<sim::SensorData>(
        SimulateWithTraces(*dataset_, *light_tod_, 4242));
  }
  static void TearDownTestSuite() {
    sensors_.reset();
    light_tod_.reset();
    dataset_.reset();
  }
  static const data::Dataset& dataset() { return *dataset_; }
  static const od::TodTensor& light_tod() { return *light_tod_; }
  static const sim::SensorData& sensors() { return *sensors_; }

 private:
  static std::unique_ptr<data::Dataset> dataset_;
  static std::unique_ptr<od::TodTensor> light_tod_;
  static std::unique_ptr<sim::SensorData> sensors_;
};

std::unique_ptr<data::Dataset> TrajectoryPipelineTest::dataset_;
std::unique_ptr<od::TodTensor> TrajectoryPipelineTest::light_tod_;
std::unique_ptr<sim::SensorData> TrajectoryPipelineTest::sensors_;

TEST_F(TrajectoryPipelineTest, TracesRecordedForSpawnedVehicles) {
  int with_route = 0;
  for (const sim::VehicleTrace& trace : sensors().trajectories) {
    if (!trace.route.empty()) {
      ++with_route;
      ASSERT_EQ(trace.route.size(), trace.entry_times.size());
      // Entry times increase along the route.
      for (size_t i = 1; i < trace.entry_times.size(); ++i) {
        EXPECT_GE(trace.entry_times[i], trace.entry_times[i - 1]);
      }
      // Consecutive links connect.
      for (size_t i = 1; i < trace.route.size(); ++i) {
        EXPECT_EQ(dataset().net.link(trace.route[i - 1]).to,
                  dataset().net.link(trace.route[i]).from);
      }
    }
  }
  EXPECT_EQ(with_route, sensors().spawned_trips);
}

// Recording is bookkeeping only: the same trips with recording off give the
// same sensor bits, and no traces.
TEST_F(TrajectoryPipelineTest, RecordingLeavesSensorsUnchanged) {
  const sim::SensorData plain =
      SimulateWithTraces(dataset(), light_tod(), 4242, /*record=*/false);
  EXPECT_TRUE(plain.trajectories.empty());
  EXPECT_FALSE(sensors().trajectories.empty());
  ASSERT_EQ(plain.volume.rows(), sensors().volume.rows());
  ASSERT_EQ(plain.volume.cols(), sensors().volume.cols());
  for (int l = 0; l < plain.volume.rows(); ++l) {
    for (int t = 0; t < plain.volume.cols(); ++t) {
      ASSERT_EQ(plain.volume.at(l, t), sensors().volume.at(l, t));
      ASSERT_EQ(plain.speed.at(l, t), sensors().speed.at(l, t));
    }
  }
  EXPECT_EQ(plain.spawned_trips, sensors().spawned_trips);
  EXPECT_EQ(plain.completed_trips, sensors().completed_trips);
  EXPECT_EQ(plain.mean_travel_time_s, sensors().mean_travel_time_s);
}

TEST_F(TrajectoryPipelineTest, FinishTimesSetForCompletedTrips) {
  int finished = 0;
  for (const sim::VehicleTrace& trace : sensors().trajectories) {
    if (trace.finish_time_s >= 0.0) {
      ++finished;
      EXPECT_GE(trace.finish_time_s, trace.depart_time_s);
    }
  }
  EXPECT_EQ(finished, sensors().completed_trips);
}

TEST_F(TrajectoryPipelineTest, ExtractedTodApproximatesGroundTruth) {
  // With a 100% "taxi fleet" the extracted TOD equals the realized demand,
  // which matches the ground-truth tensor up to stochastic rounding.
  od::TodTensor extracted = data::ExtractTodFromTrajectories(
      sensors().trajectories, dataset().net, dataset().regions,
      dataset().od_set, dataset().config.interval_s,
      dataset().num_intervals());
  const od::TodTensor& truth = light_tod();
  EXPECT_NEAR(extracted.TotalTrips(), truth.TotalTrips(),
              truth.TotalTrips() * 0.06);
  // Cell-level agreement within rounding + horizon-truncation noise.
  EXPECT_LT(Rmse(extracted.mat(), truth.mat()), 4.0);
}

TEST_F(TrajectoryPipelineTest, TaxiSamplingKeepsRequestedFraction) {
  Rng rng(5);
  std::vector<sim::VehicleTrace> taxis =
      data::SampleTaxiFleet(sensors().trajectories, 0.25, &rng);
  const double expected = sensors().spawned_trips * 0.25;
  EXPECT_NEAR(static_cast<double>(taxis.size()), expected, expected * 0.25);
}

TEST_F(TrajectoryPipelineTest, ScaledTaxiTodUnbiased) {
  // Scale-up of a sampled fleet approximates the full TOD in expectation.
  Rng rng(6);
  std::vector<sim::VehicleTrace> taxis =
      data::SampleTaxiFleet(sensors().trajectories, 0.3, &rng);
  od::TodTensor taxi_tod = data::ExtractTodFromTrajectories(
      taxis, dataset().net, dataset().regions, dataset().od_set,
      dataset().config.interval_s, dataset().num_intervals());
  od::TodTensor scaled = data::ScaleTaxiTod(taxi_tod, 0.3);
  EXPECT_NEAR(scaled.TotalTrips(), light_tod().TotalTrips(),
              light_tod().TotalTrips() * 0.15);
}

TEST_F(TrajectoryPipelineTest, MatchTraceRejectsUnknownOd) {
  sim::VehicleTrace empty;
  EXPECT_EQ(data::MatchTraceToOd(empty, dataset().net, dataset().regions,
                                 dataset().od_set),
            -1);
}

TEST_F(TrajectoryPipelineTest, ProbeSpeedTracksSensorSpeed) {
  Rng rng(7);
  data::ProbeSpeedOptions options;
  options.probe_fraction = 1.0;  // every vehicle reports
  options.probe_noise_mps = 0.0;
  DMat probe = data::ProbeSpeedTensor(
      sensors().trajectories, dataset().net, dataset().config.interval_s,
      dataset().num_intervals(), options, &rng);
  EXPECT_TRUE(probe.SameShape(sensors().speed));
  // Probe speed is space-mean over traversals vs the sensor's time-mean;
  // they should correlate strongly on observed cells. Compare overall RMSE
  // against the spread of the sensor speed.
  EXPECT_LT(Rmse(probe, sensors().speed), 3.0);
}

TEST_F(TrajectoryPipelineTest, SparseProbesFallBackToFreeFlow) {
  Rng rng(8);
  data::ProbeSpeedOptions options;
  options.probe_fraction = 0.02;  // very sparse
  DMat probe = data::ProbeSpeedTensor(
      sensors().trajectories, dataset().net, dataset().config.interval_s,
      dataset().num_intervals(), options, &rng);
  // Cells never observed equal the link speed limit exactly.
  int fallback_cells = 0;
  for (int l = 0; l < probe.rows(); ++l) {
    for (int t = 0; t < probe.cols(); ++t) {
      if (probe.at(l, t) == dataset().net.link(l).speed_limit_mps) {
        ++fallback_cells;
      }
    }
  }
  EXPECT_GT(fallback_cells, probe.numel() / 4);
}

// ------------------------------------------------------ Fundamental diagram

TEST(FundamentalDiagramTest, GreenshieldsFreeFlowAtZeroFlow) {
  sim::GreenshieldsParams params;
  EXPECT_NEAR(sim::GreenshieldsSpeed(params, 0.0), params.free_flow_speed,
              1e-9);
}

TEST(FundamentalDiagramTest, GreenshieldsMonotoneDecreasing) {
  sim::GreenshieldsParams params;
  double prev = 1e9;
  for (double q = 0.0; q < params.Capacity(); q += params.Capacity() / 20.0) {
    const double v = sim::GreenshieldsSpeed(params, q);
    EXPECT_LE(v, prev + 1e-12);
    prev = v;
  }
}

TEST(FundamentalDiagramTest, GreenshieldsCapacitySpeedIsHalfFreeFlow) {
  sim::GreenshieldsParams params;
  EXPECT_NEAR(sim::GreenshieldsSpeed(params, params.Capacity()),
              params.free_flow_speed / 2.0, 1e-9);
}

TEST(FundamentalDiagramTest, GreenshieldsSpeedFlowInverses) {
  sim::GreenshieldsParams params;
  for (double q = 0.01; q < params.Capacity(); q += params.Capacity() / 7.0) {
    const double v = sim::GreenshieldsSpeed(params, q);
    EXPECT_NEAR(sim::GreenshieldsFlow(params, v), q, 1e-9);
  }
}

TEST(FundamentalDiagramTest, BprFreeFlowAtZeroAndMonotone) {
  sim::BprParams params;
  EXPECT_NEAR(sim::BprSpeed(params, 0.0), params.free_flow_speed, 1e-9);
  EXPECT_LT(sim::BprSpeed(params, params.capacity),
            params.free_flow_speed);
  EXPECT_LT(sim::BprSpeed(params, 2.0 * params.capacity),
            sim::BprSpeed(params, params.capacity));
}

TEST(FundamentalDiagramTest, CalibrationRecoversSyntheticCurve) {
  // Generate observations from a known BPR curve and check the calibration
  // reproduces its speeds.
  sim::BprParams truth;
  truth.free_flow_speed = 13.0;
  truth.capacity = 0.4;
  truth.alpha = 0.6;
  truth.beta = 4.0;
  const double interval_s = 600.0;
  const int t_count = 12;
  DMat volume(1, t_count), speed(1, t_count);
  for (int t = 0; t < t_count; ++t) {
    const double flow = 0.4 * t / (t_count - 1.0);
    volume.at(0, t) = flow * interval_s;
    speed.at(0, t) = sim::BprSpeed(truth, flow);
  }
  StatusOr<std::vector<sim::BprParams>> fits =
      sim::CalibrateBpr(volume, speed, interval_s);
  ASSERT_TRUE(fits.ok());
  EXPECT_LT(sim::BprFitRmse(fits.value(), volume, speed, interval_s), 0.7);
}

TEST(FundamentalDiagramTest, CalibrationFitsSimulatorData) {
  // The microscopic engine's emergent volume/speed should be describable by
  // a BPR curve far better than by a constant-speed model.
  data::Dataset ds = data::BuildDataset(data::Synthetic3x3Config());
  core::TrainingSample sample = core::SimulateGroundTruth(ds, 4242);
  StatusOr<std::vector<sim::BprParams>> fits =
      sim::CalibrateBpr(sample.volume, sample.speed, ds.config.interval_s);
  ASSERT_TRUE(fits.ok());
  const double fit_rmse =
      sim::BprFitRmse(fits.value(), sample.volume, sample.speed,
                      ds.config.interval_s);
  // Reference: one global constant speed (the network mean). A volume-aware
  // curve must beat it decisively. (A per-link constant is nearly optimal on
  // the many free-flow links, so it is not the fair reference for a
  // flow-response model.)
  const double global_mean = sample.speed.Mean();
  double const_err = 0.0;
  for (int l = 0; l < sample.speed.rows(); ++l) {
    for (int t = 0; t < sample.speed.cols(); ++t) {
      const double d = sample.speed.at(l, t) - global_mean;
      const_err += d * d;
    }
  }
  const double const_rmse = std::sqrt(const_err / sample.speed.numel());
  EXPECT_LT(fit_rmse, const_rmse * 0.7);
}

TEST(FundamentalDiagramTest, CalibrationRejectsBadInput) {
  DMat a(2, 3), b(3, 2);
  EXPECT_FALSE(sim::CalibrateBpr(a, b, 600.0).ok());
  DMat c(2, 3);
  EXPECT_FALSE(sim::CalibrateBpr(c, c, 0.0).ok());
}

// ---------------------------------------------------------------- Huber

TEST(HuberLossTest, MatchesMseWithinDelta) {
  nn::Variable pred(nn::Tensor({2}, {0.02f, -0.03f}), true);
  nn::Tensor target({2});
  const float huber = nn::HuberLoss(pred, target, 0.1f).value()[0];
  // 0.5 * mean(r^2)
  EXPECT_NEAR(huber, 0.5f * (0.02f * 0.02f + 0.03f * 0.03f) / 2.0f, 1e-8f);
}

TEST(HuberLossTest, LinearBeyondDelta) {
  nn::Variable pred(nn::Tensor({1}, {1.0f}), true);
  nn::Tensor target({1});
  const float delta = 0.1f;
  const float huber = nn::HuberLoss(pred, target, delta).value()[0];
  EXPECT_NEAR(huber, delta * (1.0f - 0.5f * delta), 1e-6f);
}

TEST(HuberLossTest, GradCheck) {
  Rng rng(31);
  nn::Variable pred(nn::Tensor::RandomUniform({6}, -0.5f, 0.5f, &rng), true);
  nn::Tensor target = nn::Tensor::RandomUniform({6}, -0.5f, 0.5f, &rng);
  nn::ExpectGradientsMatch(
      [&] { return nn::HuberLoss(pred, target, 0.15f); }, {pred});
}

TEST(HuberLossTest, OutlierContributesLessThanMse) {
  nn::Variable pred(nn::Tensor({2}, {0.05f, 2.0f}), true);  // one outlier
  nn::Tensor target({2});
  const float huber = nn::HuberLoss(pred, target, 0.1f).value()[0];
  const float mse = nn::MseLoss(pred, target).value()[0];
  EXPECT_LT(huber, mse * 0.2f);
}

}  // namespace
}  // namespace ovs
