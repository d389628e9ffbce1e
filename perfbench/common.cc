#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "check.h"
#include "obs/trace.h"
#include "od/demand.h"

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

void SumSpans(const Json& node, const std::string& name,
              const std::string& under, bool inside, SpanTotal* out) {
  const Json* n = node.Find("name");
  const std::string node_name = n != nullptr ? n->string : "";
  if (node_name == name && inside) {
    out->count += static_cast<uint64_t>(node.Find("count")->number);
    out->total_s += node.Find("total_ns")->number / 1e9;
    out->self_s += node.Find("self_ns")->number / 1e9;
    return;  // nested spans of the same name are already in the total
  }
  const bool below = inside || node_name == under;
  const Json* children = node.Find("children");
  if (children == nullptr) return;
  for (const Json& c : children->array) {
    SumSpans(c, name, under, below, out);
  }
}

}  // namespace

void PrintResult(const RunResult& result) {
  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  std::string line = "{\"correct\": ";
  line += result.problems.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void PrintHostFacts(const std::string& workload, int pool_size) {
  std::string isa;
  auto flag = [&isa](const char* name, bool on) {
    if (!on) return;
    if (!isa.empty()) isa += ",";
    isa += name;
  };
  __builtin_cpu_init();
  flag("sse4.2", __builtin_cpu_supports("sse4.2"));
  flag("avx", __builtin_cpu_supports("avx"));
  flag("avx2", __builtin_cpu_supports("avx2"));
  flag("fma", __builtin_cpu_supports("fma"));
  flag("avx512f", __builtin_cpu_supports("avx512f"));
  std::string compiled = "x86-64";
#if defined(__AVX512F__)
  compiled = "avx512f";
#elif defined(__AVX2__)
  compiled = "avx2";
#elif defined(__AVX__)
  compiled = "avx";
#endif
  std::printf(
      "perfbench host: {\"workload\": \"%s\", \"nproc\": %ld, "
      "\"hardware_concurrency\": %u, \"cpu_isa\": \"%s\", "
      "\"compiled_isa\": \"%s\", \"pool_size\": %d, \"build_type\": \"%s\"}\n",
      workload.c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(), isa.c_str(), compiled.c_str(),
      pool_size, PERFBENCH_BUILD_TYPE);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb(const std::string& pid) {
  // VmHWM belongs to the current address space; getrusage's ru_maxrss would
  // also count the launching process's footprint, which survives exec.
  const std::string status = ReadFile("/proc/" + pid + "/status");
  const size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return 0.0;
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;
}

void Digest::Add(const void* data, size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

ovs::Status RunReportView::Load(const std::string& path) {
  const std::string text = ReadFile(path);
  if (text.empty()) return ovs::Status::NotFound("no run report at " + path);
  std::string error;
  if (!ParseJson(text, &doc_, &error)) {
    return ovs::Status::InvalidArgument(path + ": " + error);
  }
  const Json* schema = doc_.Find("schema");
  if (schema == nullptr || schema->string != "ovs.run_report.v1") {
    return ovs::Status::InvalidArgument("not an ovs.run_report.v1: " + path);
  }
  return ovs::Status::Ok();
}

SpanTotal RunReportView::Span(const std::string& name,
                              const std::string& under) const {
  SpanTotal out;
  const Json* phases = doc_.Find("phases");
  if (phases == nullptr) return out;
  for (const Json& root : phases->array) {
    SumSpans(root, name, under, under.empty(), &out);
  }
  return out;
}

double RunReportView::Counter(const std::string& name) const {
  const Json* counters = doc_.Find("counters");
  const Json* v =
      counters != nullptr ? counters->Find(name) : nullptr;
  return v != nullptr ? v->number : 0.0;
}

double RunReportView::Pool(const std::string& name) const {
  const Json* pool = doc_.Find("pool");
  const Json* v = pool != nullptr ? pool->Find(name) : nullptr;
  return v != nullptr ? v->number : 0.0;
}

void AddLayerMetrics(const LayerFacts& f, RunResult* r) {
  const RunReportView& rep = *f.report;
  const double ops = static_cast<double>(std::max<int64_t>(f.ops, 1));
  const SpanTotal sim = rep.Span("sim.run");
  const double steps = rep.Counter("sim.vehicle_steps");
  r->Add("sim.run_ms", sim.mean_ms(), "ms");
  r->Add("sim.vehicle_steps_per_s", sim.total_s > 0 ? steps / sim.total_s : 0,
         "1/s");
  r->Add("sim.vehicle_steps_per_op", steps / ops, "count");
  r->Add("od.demand_ms", f.od_demand_ms, "ms");
  r->Add("util.pool_idle_share", f.pool_idle_share, "share");
  r->Add("util.parallel_fors_per_op", f.parallel_fors / ops, "count");
  r->Add("core.stage1_epoch_ms", rep.Span("trainer.stage1.epoch").mean_ms(),
         "ms");
  r->Add("core.stage2_epoch_ms", rep.Span("trainer.stage2.epoch").mean_ms(),
         "ms");
  const SpanTotal recover =
      rep.Span("trainer.recover.batched_epoch", f.op_span);
  r->Add("core.recover_epoch_ms", recover.mean_ms(), "ms");
  r->Add("nn.v2s_forward_s",
         rep.Span("volume_speed.forward", f.op_span).total_s / ops, "s");
  r->Add("nn.backward_s", rep.Span("nn.backward", f.op_span).total_s / ops,
         "s");
  r->Add("nn.tod2v_forward_s",
         rep.Span("tod_volume.forward", f.op_span).total_s / ops, "s");
  const double epoch_self = rep.Span("trainer.stage1.epoch", f.op_span).self_s +
                            rep.Span("trainer.stage2.epoch", f.op_span).self_s +
                            recover.self_s;
  r->Add("nn.epoch_bookkeeping_s", epoch_self / ops, "s");
  r->Add("nn.gemm_gflop_per_op", rep.Counter("nn.gemm_flops") / 1e9 / ops,
         "GFLOP");
  r->Add("serve.service_ms", f.service_ms, "ms");
  r->Add("serve.protocol_us", f.protocol_us, "us");
  r->Add("serve.queue_wait_ms", f.queue_wait_ms, "ms");
  r->Add("serve.reload_ms", f.reload_ms, "ms");
  r->Add("serve.generator_late_ms", f.generator_late_ms, "ms");
  r->Add("obs.trace_overhead_share", f.trace_overhead_share, "share");
}

double PoolIdleShare(uint64_t idle_ns, int pool_size, double wall_s) {
  if (pool_size <= 1 || wall_s <= 0) return 0.0;
  return static_cast<double>(idle_ns) / 1e9 / (wall_s * (pool_size - 1));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

ovs::od::PatternConfig TablePatternConfig(const ovs::data::Dataset& ds) {
  ovs::od::PatternConfig pc;
  pc.interval_minutes = ds.config.interval_s / 60.0;
  pc.rate_scale =
      ds.config.mean_trips_per_od_interval / (10.0 * pc.interval_minutes);
  return pc;
}

std::vector<ovs::od::TodTensor> TableTensors(const ovs::data::Dataset& ds) {
  const ovs::od::PatternConfig pc = TablePatternConfig(ds);
  std::vector<ovs::od::TodTensor> out;
  for (ovs::od::TodPattern p : ovs::od::AllTodPatterns()) {
    ovs::Rng rng(555 + static_cast<int>(p));
    out.push_back(ovs::od::GenerateTodPattern(p, ds.num_od(),
                                              ds.num_intervals(), pc, &rng));
  }
  return out;
}

double FlatGuessRmse(const std::vector<ovs::core::TrainingSample>& samples,
                     const std::vector<ovs::od::TodTensor>& hidden) {
  double sum = 0.0;
  size_t cells = 0;
  for (const ovs::core::TrainingSample& x : samples) {
    sum += x.tod.mat().Sum();
    cells += x.tod.mat().rows() * x.tod.mat().cols();
  }
  const double mean = sum / static_cast<double>(cells);
  double total = 0.0;
  for (const ovs::od::TodTensor& h : hidden) {
    const ovs::DMat flat(h.num_od(), h.num_intervals(), mean);
    total += Rmse(flat.data(), h.mat().data(), h.num_od() * h.num_intervals());
  }
  return total / static_cast<double>(hidden.size());
}

double TimeDemand(const ovs::data::Dataset& ds,
                  const std::vector<ovs::od::TodTensor>& tods,
                  Checker* checker) {
  ovs::od::DemandGenerator demand(&ds.net, &ds.regions, &ds.od_set,
                                  ds.config.interval_s);
  std::vector<double> ms;
  for (size_t i = 0; i < tods.size(); ++i) {
    ovs::Rng rng(i + 1);
    OVS_TRACE_SCOPE("perfbench.od.generate");
    const Clock::time_point t0 = Clock::now();
    const size_t trips = demand.Generate(tods[i], &rng).size();
    ms.push_back(SecondsSince(t0) * 1e3);
    if (trips == 0) checker->Fail("demand generator produced no trips");
  }
  return Mean(ms);
}

double Rmse(const double* a, const double* b, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += (a[i] - b[i]) * (a[i] - b[i]);
  return n > 0 ? std::sqrt(sum / static_cast<double>(n)) : 0.0;
}

}  // namespace perfbench
