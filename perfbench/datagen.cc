// datagen_manhattan: closed loop at pool size 2. Each operation is
// core::GenerateTrainingData on the Manhattan preset for a batch of kBatch
// samples with its own seed; the simulator does nearly all of the work.

#include <cstdio>

#include "check.h"
#include "common.h"
#include "core/training_data.h"
#include "data/cities.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kPool = 2;
constexpr int kBatch = 4;
/// Seed of the untimed warm-up batch: fixed, so tod_rmse repeats bit for
/// bit whatever --seed is.
constexpr uint64_t kWarmupSeed = 20211;

uint64_t OpSeed(uint64_t run_seed, int64_t op) {
  return run_seed * 1000003u + static_cast<uint64_t>(op) * 7919u + 1;
}

struct Setup {
  ovs::data::Dataset dataset;
  ovs::core::TrainingData warmup;
  double max_speed = 0.0;
  int diameter = 0;
};

void Build(Setup* s) {
  s->dataset = ovs::data::BuildDataset(ovs::data::ManhattanConfig());
  s->warmup = ovs::core::GenerateTrainingData(s->dataset, kBatch, kWarmupSeed);
}

uint64_t BatchDigest(const ovs::core::TrainingData& data) {
  Digest d;
  for (const ovs::core::TrainingSample& s : data.samples) {
    d.Add(s.tod.mat());
    d.Add(s.volume);
    d.Add(s.speed);
  }
  return d.value();
}

void CheckBatch(const Setup& s, const ovs::core::TrainingData& data,
                const std::string& what, Checker* checker) {
  if (static_cast<int>(data.samples.size()) != kBatch) {
    checker->Fail(what + ": wrong batch size");
    return;
  }
  for (size_t i = 0; i < data.samples.size(); ++i) {
    checker->Sample(data.samples[i], s.max_speed, s.diameter,
                    what + " sample " + std::to_string(i));
  }
}

/// Runs `count` operations (or, with count < 0, until `seconds` pass);
/// returns per-op latencies, folds each batch into `digest` and, when `tods`
/// is given, keeps the batches' TOD tensors.
std::vector<double> RunOps(const Setup& s, uint64_t run_seed, int64_t count,
                           double seconds, Checker* checker, Digest* digest,
                           std::vector<ovs::od::TodTensor>* tods = nullptr) {
  std::vector<double> latencies;
  const Clock::time_point start = Clock::now();
  for (int64_t op = 0;
       count >= 0 ? op < count : (op == 0 || SecondsSince(start) < seconds);
       ++op) {
    const Clock::time_point t0 = Clock::now();
    ovs::core::TrainingData data;
    {
      OVS_TRACE_SCOPE("perfbench.datagen.op");
      data = ovs::core::GenerateTrainingData(s.dataset, kBatch,
                                             OpSeed(run_seed, op));
    }
    latencies.push_back(SecondsSince(t0) * 1e3);
    CheckBatch(s, data, "op " + std::to_string(op), checker);
    const uint64_t h = BatchDigest(data);
    digest->Add(&h, sizeof(h));
    if (tods != nullptr) {
      for (const ovs::core::TrainingSample& x : data.samples) {
        tods->push_back(x.tod);
      }
    }
  }
  return latencies;
}

}  // namespace

RunResult RunDatagen(const Args& args) {
  ovs::SetGlobalThreads(kPool);
  PrintHostFacts(args.workload, kPool);
  RunResult result;
  Checker checker;

  Setup s;
  std::vector<double> setup_s;
  uint64_t warm_digest = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    Build(&s);
    setup_s.push_back(SecondsSince(t0));
    const uint64_t d = BatchDigest(s.warmup);
    if (i > 0 && d != warm_digest) {
      checker.Fail("warm-up batch differs between setups");
    }
    warm_digest = d;
  }
  s.max_speed = MaxSpeedLimit(s.dataset.net);
  s.diameter = DiameterInLinks(s.dataset.net);
  CheckBatch(s, s.warmup, "warm-up", &checker);

  if (!args.trace) {
    Digest digest;
    const Clock::time_point start = Clock::now();
    const std::vector<double> lat =
        RunOps(s, args.seed, -1, args.seconds, &checker, &digest);
    const double wall = SecondsSince(start);
    result.attempted = static_cast<int64_t>(lat.size());
    result.Add("setup_s", Quantile(setup_s, 0.5), "s");
    result.Add("throughput_per_s", lat.size() * kBatch / wall, "1/s");
    result.Add("latency_p50_ms", Quantile(lat, 0.5), "ms");
    result.Add("latency_p90_ms", Quantile(lat, 0.9), "ms");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    result.Add("tod_rmse",
               FlatGuessRmse(s.warmup.samples, TableTensors(s.dataset)),
               "trips");
    result.problems = checker.problems();
    return result;
  }

  // Traced run: an untraced pass, then the same operations traced; the two
  // must produce the same bytes.
  Digest plain, traced;
  const std::vector<double> plain_lat =
      RunOps(s, args.seed, -1, args.seconds / 2, &checker, &plain);
  const int64_t ops = static_cast<int64_t>(plain_lat.size());

  const std::string report_path = args.work_dir + "/datagen.report.json";
  ovs::ThreadPool::Stats before, after;
  std::vector<double> traced_lat;
  double traced_wall = 0.0, demand_ms = 0.0;
  {
    ovs::obs::SessionOptions opts;
    opts.report_out = report_path;
    opts.binary_name = "perfbench_datagen";
    ovs::obs::Session session(opts);
    std::vector<ovs::od::TodTensor> tods;
    before = ovs::GlobalThreadPool()->stats();
    const Clock::time_point t0 = Clock::now();
    traced_lat = RunOps(s, args.seed, ops, 0, &checker, &traced, &tods);
    traced_wall = SecondsSince(t0);
    after = ovs::GlobalThreadPool()->stats();
    demand_ms = TimeDemand(s.dataset, tods, &checker);
    const ovs::Status st = session.Finish();
    if (!st.ok()) checker.Fail("run report: " + st.ToString());
  }
  if (plain.value() != traced.value()) {
    checker.Fail("traced outputs differ from untraced outputs");
  }
  // Thread-count invariance: the first operation at pool size 1.
  {
    ovs::SetGlobalThreads(1);
    Digest serial, first;
    RunOps(s, args.seed, 1, 0, &checker, &serial);
    ovs::SetGlobalThreads(kPool);
    RunOps(s, args.seed, 1, 0, &checker, &first);
    if (serial.value() != first.value()) {
      checker.Fail("pool size 1 and 2 give different batches");
    }
  }

  RunReportView report;
  const ovs::Status loaded = report.Load(report_path);
  if (!loaded.ok()) checker.Fail(loaded.ToString());
  LayerFacts f;
  f.report = &report;
  f.op_span = "perfbench.datagen.op";
  f.ops = ops;
  f.pool_idle_share =
      PoolIdleShare(after.idle_ns - before.idle_ns, kPool, traced_wall);
  f.parallel_fors =
      static_cast<double>(after.parallel_fors - before.parallel_fors);
  f.od_demand_ms = demand_ms;
  f.trace_overhead_share = Mean(traced_lat) / Mean(plain_lat) - 1.0;
  result.attempted = ops;
  AddLayerMetrics(f, &result);
  result.problems = checker.problems();
  return result;
}

}  // namespace perfbench
