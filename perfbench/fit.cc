// fit_synthetic3x3: closed loop at pool size 1, the Table VIII protocol.
// Setup generates the training set, the five hidden pattern tensors and
// their observed speeds; each operation is one full OVS fit at the fast
// Table VIII budget (stage 1, stage 2, RecoverTod) on one pattern, and a
// round fits all five.

#include <cstdio>
#include <optional>

#include "check.h"
#include "common.h"
#include "core/ovs_model.h"
#include "core/trainer.h"
#include "core/training_data.h"
#include "data/cities.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kPool = 1;
constexpr int kPatterns = 5;
// The fast Table VIII budget of eval::MakeMethodSuite and table8_synthetic:
// 12 training samples, 70 / 90 / 250 epochs, one restart. The seeds are
// the ones that bench passes (harness seed 1, training seed 1 + 1000,
// oracle seed 4242, pattern seeds 555 + pattern), so the inputs of every
// fit are fixed and tod_rmse repeats bit for bit.
constexpr int kTrainSamples = 12;
constexpr uint64_t kTrainSeed = 1001;
constexpr uint64_t kOracleSeed = 4242;
constexpr uint64_t kModelSeed = 1;

struct Setup {
  ovs::data::Dataset dataset;
  ovs::core::TrainingData train;
  std::vector<ovs::od::TodTensor> hidden;
  std::vector<ovs::DMat> observed;
};

void Build(Setup* s) {
  s->dataset = ovs::data::BuildDataset(ovs::data::Synthetic3x3Config());
  s->train =
      ovs::core::GenerateTrainingData(s->dataset, kTrainSamples, kTrainSeed);
  s->hidden = TableTensors(s->dataset);
  s->observed.clear();
  for (const ovs::od::TodTensor& h : s->hidden) {
    s->observed.push_back(
        ovs::core::SimulateTod(s->dataset, h, kOracleSeed).speed);
  }
}

uint64_t SetupDigest(const Setup& s) {
  Digest d;
  for (const ovs::core::TrainingSample& x : s.train.samples) {
    d.Add(x.volume);
    d.Add(x.speed);
  }
  for (const ovs::DMat& m : s.observed) d.Add(m);
  return d.value();
}

struct FitOutput {
  double ms = 0.0;
  double rmse = 0.0;
  uint64_t digest = 0;
};

/// One full OVS fit on pattern `p`, as baselines::OvsEstimator runs it.
FitOutput Fit(const Setup& s, int p, Checker* checker) {
  const ovs::data::Dataset& ds = s.dataset;
  const std::string what = "pattern " + std::to_string(p);
  FitOutput out;
  const Clock::time_point t0 = Clock::now();
  std::optional<ovs::StatusOr<std::vector<double>>> stage1, stage2;
  std::optional<ovs::StatusOr<ovs::od::TodTensor>> tod;
  {
    OVS_TRACE_SCOPE("perfbench.fit.op");
    ovs::Rng rng(kModelSeed * 2654435761u + 3);
    ovs::core::OvsConfig config;
    config.tod_scale = static_cast<float>(s.train.tod_scale);
    config.volume_norm = static_cast<float>(s.train.volume_norm);
    config.speed_scale = static_cast<float>(s.train.speed_scale);
    ovs::core::OvsModel model(ds.num_od(), ds.num_links(), ds.num_intervals(),
                              ds.incidence, config, &rng);
    ovs::core::TrainerConfig tc;
    tc.stage1_epochs = 70;
    tc.stage2_epochs = 90;
    tc.recovery_epochs = 250;
    tc.recovery_restarts = 1;
    ovs::core::OvsTrainer trainer(&model, tc);
    stage1.emplace(trainer.TrainVolumeSpeed(s.train));
    stage2.emplace(trainer.TrainTodVolume(s.train));
    tod.emplace(trainer.RecoverTod(s.observed[p], nullptr, &rng));
  }
  out.ms = SecondsSince(t0) * 1e3;
  if (!stage1->ok() || !stage2->ok() || !tod->ok()) {
    checker->Fail(what + ": fit failed");
    return out;
  }
  checker->LossFalls(**stage1, what + " stage 1");
  checker->LossFalls(**stage2, what + " stage 2");
  const ovs::DMat& m = (*tod)->mat();
  checker->RecoveredTod(m, s.train.tod_scale, what + " recovered tod");
  out.rmse = Rmse(m.data(), s.hidden[p].mat().data(), m.rows() * m.cols());
  Digest d;
  d.Add(**stage1);
  d.Add(**stage2);
  d.Add(m);
  out.digest = d.value();
  return out;
}

/// Whole rounds over the five patterns, each starting at the pattern the
/// run seed picks, until `seconds` pass (at least one round).
std::vector<FitOutput> RunRounds(const Setup& s, uint64_t run_seed,
                                 double seconds, Checker* checker) {
  std::vector<FitOutput> fits;
  const Clock::time_point start = Clock::now();
  const int first = static_cast<int>(run_seed % kPatterns);
  do {
    for (int k = 0; k < kPatterns; ++k) {
      fits.push_back(Fit(s, (first + k) % kPatterns, checker));
    }
  } while (SecondsSince(start) < seconds);
  return fits;
}

/// Mean RMSE over one round, summed in pattern order.
double RoundRmse(const std::vector<FitOutput>& fits, uint64_t run_seed) {
  const int first = static_cast<int>(run_seed % kPatterns);
  double by_pattern[kPatterns] = {};
  for (int k = 0; k < kPatterns; ++k) {
    by_pattern[(first + k) % kPatterns] = fits[k].rmse;
  }
  double sum = 0.0;
  for (double r : by_pattern) sum += r;
  return sum / kPatterns;
}

uint64_t FitsDigest(const std::vector<FitOutput>& fits) {
  Digest d;
  for (const FitOutput& f : fits) d.Add(&f.digest, sizeof(f.digest));
  return d.value();
}

std::vector<double> Latencies(const std::vector<FitOutput>& fits) {
  std::vector<double> ms;
  for (const FitOutput& f : fits) ms.push_back(f.ms);
  return ms;
}

}  // namespace

RunResult RunFit(const Args& args) {
  ovs::SetGlobalThreads(kPool);
  PrintHostFacts(args.workload, kPool);
  RunResult result;
  Checker checker;

  Setup s;
  std::vector<double> setup_s;
  uint64_t setup_digest = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    Build(&s);
    setup_s.push_back(SecondsSince(t0));
    const uint64_t d = SetupDigest(s);
    if (i > 0 && d != setup_digest) checker.Fail("setups differ");
    setup_digest = d;
  }
  for (const ovs::core::TrainingSample& x : s.train.samples) {
    checker.FiniteNonNegative(x.speed, "training speed");
  }
  std::printf("perfbench reference: flat guess at the training mean, "
              "tod_rmse %.4f trips\n",
              FlatGuessRmse(s.train.samples, s.hidden));

  if (!args.trace) {
    const Clock::time_point start = Clock::now();
    const std::vector<FitOutput> fits =
        RunRounds(s, args.seed, args.seconds, &checker);
    const double wall = SecondsSince(start);
    // Every round fits the same five inputs: each must repeat its bytes.
    for (size_t i = kPatterns; i < fits.size(); ++i) {
      if (fits[i].digest != fits[i % kPatterns].digest) {
        checker.Fail("fit " + std::to_string(i) + " differs from round 1");
      }
    }
    const std::vector<double> lat = Latencies(fits);
    result.attempted = static_cast<int64_t>(fits.size());
    result.Add("setup_s", Quantile(setup_s, 0.5), "s");
    result.Add("throughput_per_s", fits.size() / wall, "1/s");
    result.Add("latency_p50_ms", Quantile(lat, 0.5), "ms");
    result.Add("latency_p90_ms", Quantile(lat, 0.9), "ms");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    result.Add("tod_rmse", RoundRmse(fits, args.seed), "trips");
    result.problems = checker.problems();
    return result;
  }

  // Traced run: one untraced round, then setup and the same round inside a
  // traced session (so the simulator work of setup shows in the spans).
  const std::vector<FitOutput> plain = RunRounds(s, args.seed, 0, &checker);
  const std::string report_path = args.work_dir + "/fit.report.json";
  std::vector<FitOutput> traced;
  ovs::ThreadPool::Stats before, after;
  double demand_ms = 0.0;
  {
    ovs::obs::SessionOptions opts;
    opts.report_out = report_path;
    opts.binary_name = "perfbench_fit";
    ovs::obs::Session session(opts);
    Setup again;
    {
      OVS_TRACE_SCOPE("perfbench.fit.setup");
      Build(&again);
    }
    if (SetupDigest(again) != setup_digest) checker.Fail("setups differ");
    before = ovs::GlobalThreadPool()->stats();
    traced = RunRounds(again, args.seed, 0, &checker);
    after = ovs::GlobalThreadPool()->stats();
    demand_ms = TimeDemand(s.dataset, s.hidden, &checker);
    const ovs::Status st = session.Finish();
    if (!st.ok()) checker.Fail("run report: " + st.ToString());
  }
  if (FitsDigest(plain) != FitsDigest(traced)) {
    checker.Fail("traced outputs differ from untraced outputs");
  }
  RunReportView report;
  const ovs::Status loaded = report.Load(report_path);
  if (!loaded.ok()) checker.Fail(loaded.ToString());
  LayerFacts f;
  f.report = &report;
  f.op_span = "perfbench.fit.op";
  f.ops = static_cast<int64_t>(traced.size());
  f.parallel_fors =
      static_cast<double>(after.parallel_fors - before.parallel_fors);
  f.od_demand_ms = demand_ms;
  f.trace_overhead_share =
      Mean(Latencies(traced)) / Mean(Latencies(plain)) - 1.0;
  result.attempted = f.ops;
  AddLayerMetrics(f, &result);
  result.problems = checker.problems();
  return result;
}

}  // namespace perfbench
