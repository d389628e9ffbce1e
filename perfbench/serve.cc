// serve_open_loop: the client path. ovs_served runs as a child process over
// a stdio pipe, holding the synthetic3x3 city with 2 shard workers at pool
// size 1. This process is the load generator: it sends `recover` requests
// on a fixed open-loop schedule plus a hot `reload` of the city's saved
// snapshot once per round, and times every answer from its due time.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>

#include "check.h"
#include "common.h"
#include "core/training_data.h"
#include "data/cities.h"
#include "serve/protocol.h"
#include "util/thread_pool.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

namespace {

constexpr int kServerPool = 1;
constexpr int kWorkers = 2;
/// A recover takes ~50 ms of one worker, so 20 requests/s keeps the two
/// workers about half busy.
constexpr double kRatePerS = 20.0;
/// Per round: the five fixed reference requests, three seeded requests per
/// pattern, and one reload after the tenth recover.
constexpr int kPatterns = 5;
constexpr int kSeededPerPattern = 3;
constexpr int kRecoversPerRound = kPatterns * (1 + kSeededPerPattern);
constexpr int kReloadAfter = 10;
constexpr uint64_t kOracleSeed = 4242;
constexpr uint32_t kReferenceRequestSeed = 1;
/// The server's city training (ovs_served defaults, passed explicitly).
constexpr int kServerTrainSamples = 6;
constexpr uint64_t kServerTrainSeed = 7;
constexpr const char* kCity = "synthetic3x3";

struct Line {
  Clock::time_point at;
  std::string text;
};

/// ovs_served as a child process on a pair of pipes. Destruction closes
/// its stdin and reaps it.
class Served {
 public:
  Served() = default;
  ~Served() { Stop(); }
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;

  ovs::Status Start(const std::string& binary,
                    const std::vector<std::string>& flags,
                    const std::string& log_path) {
    int in[2], out[2];
    if (pipe2(in, O_CLOEXEC) != 0 || pipe2(out, O_CLOEXEC) != 0) {
      return ovs::Status::Internal("pipe failed");
    }
    std::vector<std::string> argv_s = {binary};
    argv_s.insert(argv_s.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::vector<std::string> env_s = {"OVS_NUM_THREADS=" +
                                      std::to_string(kServerPool)};
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "OVS_NUM_THREADS=", 16) != 0) env_s.push_back(*e);
    }
    std::vector<char*> envp;
    for (std::string& e : env_s) envp.push_back(e.data());
    envp.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, in[0], 0);
    posix_spawn_file_actions_adddup2(&fa, out[1], 1);
    posix_spawn_file_actions_addopen(&fa, 2, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int rc =
        posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&fa);
    close(in[0]);
    close(out[1]);
    in_fd_ = in[1];
    if (rc != 0) {
      close(in_fd_);
      close(out[0]);
      in_fd_ = -1;
      pid_ = -1;
      return ovs::Status::Internal("cannot start " + binary);
    }
    reader_ = std::thread([this, fd = out[0]] { ReadLoop(fd); });
    return ovs::Status::Ok();
  }

  bool Send(const std::string& line) {
    const std::string buf = line + "\n";
    size_t done = 0;
    while (done < buf.size()) {
      const ssize_t n = write(in_fd_, buf.data() + done, buf.size() - done);
      if (n <= 0) return false;
      done += static_cast<size_t>(n);
    }
    return true;
  }

  /// Waits until `count` lines have arrived or `timeout_s` passes.
  std::vector<Line> WaitForLines(size_t count, double timeout_s) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                 [&] { return lines_.size() >= count || eof_; });
    return lines_;
  }

  /// Peak resident set of the running server, in MB.
  double PeakRss() const { return PeakRssMb(std::to_string(pid_)); }

  /// Closes stdin and reaps the server; true when it exited with code 0.
  bool Stop() {
    if (pid_ < 0) return false;
    close(in_fd_);
    in_fd_ = -1;
    int status = 0;
    pid_t got = 0;
    for (int i = 0; i < 600 && got == 0; ++i) {
      got = waitpid(pid_, &status, WNOHANG);
      if (got == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (got == 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    if (reader_.joinable()) reader_.join();
    return got > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  void ReadLoop(int fd) {
    std::string pending;
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      const Clock::time_point now = Clock::now();
      pending.append(buf, static_cast<size_t>(n));
      size_t nl;
      std::lock_guard<std::mutex> lock(mu_);
      while ((nl = pending.find('\n')) != std::string::npos) {
        lines_.push_back({now, pending.substr(0, nl)});
        pending.erase(0, nl + 1);
      }
      cv_.notify_all();
    }
    close(fd);
    std::lock_guard<std::mutex> lock(mu_);
    eof_ = true;
    cv_.notify_all();
  }

  pid_t pid_ = -1;
  int in_fd_ = -1;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Line> lines_;  // guarded by mu_
  bool eof_ = false;         // guarded by mu_
  std::thread reader_;
};

/// One scheduled line of the open loop.
struct Item {
  std::string id;
  double due_s = 0.0;  ///< offset from the start of the timed phase
  bool reload = false;
  int round = 0;
  int pattern = 0;
  bool reference = false;
  std::string key;  ///< same key = same seed and input
  const std::string* line = nullptr;
};

struct Inputs {
  ovs::data::Dataset dataset;
  std::vector<ovs::od::TodTensor> hidden;  ///< reference tensors
  std::vector<std::string> reference;      ///< request body per pattern
  std::vector<std::string> seeded;  ///< [pattern * kSeededPerPattern + j]
  std::string reload;
};

std::string RecoverLine(uint32_t seed, const ovs::DMat& speed) {
  std::string s = "{\"id\":\"@\",\"method\":\"recover\",\"city\":\"";
  s += kCity;
  s += "\",\"seed\":" + std::to_string(seed) + ",\"observed_speed\":[";
  for (int r = 0; r < speed.rows(); ++r) {
    s += r > 0 ? ",[" : "[";
    for (int c = 0; c < speed.cols(); ++c) {
      if (c > 0) s += ",";
      s += JsonNumber(speed.at(r, c));
    }
    s += "]";
  }
  return s + "]}";
}

/// Request bodies: the reference tensors are the Table VIII patterns with
/// fixed seeds; the seeded ones are drawn from the run seed.
void BuildInputs(uint64_t run_seed, const std::string& snapshot, Inputs* in) {
  in->dataset = ovs::data::BuildDataset(ovs::data::Synthetic3x3Config());
  const ovs::data::Dataset& ds = in->dataset;
  const ovs::od::PatternConfig pc = TablePatternConfig(ds);
  in->hidden = TableTensors(ds);
  in->reference.clear();
  in->seeded.clear();
  for (int p = 0; p < kPatterns; ++p) {
    in->reference.push_back(RecoverLine(
        kReferenceRequestSeed,
        ovs::core::SimulateTod(ds, in->hidden[p], kOracleSeed).speed));
    ovs::Rng rng(run_seed * 7919u + p);
    const ovs::od::TodTensor tod = ovs::od::GenerateTodPattern(
        static_cast<ovs::od::TodPattern>(p), ds.num_od(), ds.num_intervals(),
        pc, &rng);
    const ovs::DMat speed =
        ovs::core::SimulateTod(ds, tod, run_seed * 31u + p).speed;
    for (int j = 0; j < kSeededPerPattern; ++j) {
      in->seeded.push_back(RecoverLine(
          static_cast<uint32_t>(run_seed * 101u + p * kSeededPerPattern + j),
          speed));
    }
  }
  in->reload = std::string("{\"id\":\"@\",\"method\":\"reload\",\"city\":\"") +
               kCity + "\",\"path\":\"" + snapshot + "\"}";
}

/// "<prefix><a>.<b>", the request ids and same-input keys.
std::string Label(const char* prefix, int a, int b) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%d.%d", prefix, a, b);
  return buf;
}

std::vector<Item> Schedule(const Inputs& in, int rounds) {
  std::vector<Item> items;
  for (int r = 0; r < rounds; ++r) {
    int k = 0;
    for (int p = 0; p < kPatterns; ++p) {
      for (int j = -1; j < kSeededPerPattern; ++j, ++k) {
        if (k == kReloadAfter) {
          Item reload;
          reload.id = Label("l", r, k);
          reload.due_s = (r * kRecoversPerRound + k - 0.5) / kRatePerS;
          reload.reload = true;
          reload.line = &in.reload;
          items.push_back(reload);
        }
        Item it;
        it.id = Label("r", r, k);
        it.due_s = (r * kRecoversPerRound + k) / kRatePerS;
        it.round = r;
        it.pattern = p;
        it.reference = j < 0;
        it.key = Label("p", p, j);
        it.line = it.reference ? &in.reference[p]
                               : &in.seeded[p * kSeededPerPattern + j];
        items.push_back(it);
      }
    }
  }
  return items;
}

std::string WithId(const std::string& body, const std::string& id) {
  std::string s = body;
  s.replace(s.find('@'), 1, id);
  return s;
}

std::vector<std::string> ServerFlags(const std::string& work_dir) {
  return {"--cities=" + std::string(kCity),
          "--workers=" + std::to_string(kWorkers),
          "--queue_capacity=64",
          "--epochs=12",
          "--train_epochs=8",
          "--train_samples=" + std::to_string(kServerTrainSamples),
          "--snapshot_dir=" + work_dir};
}

/// Starts a server and waits for it to answer a health request.
ovs::Status StartReady(const Args& args, std::vector<std::string> flags,
                       const std::string& log, Served* server) {
  RETURN_IF_ERROR(server->Start(args.served, flags, log));
  if (!server->Send("{\"id\":\"ready\",\"method\":\"health\"}")) {
    return ovs::Status::Internal("cannot write to ovs_served");
  }
  if (server->WaitForLines(1, 120.0).empty()) {
    return ovs::Status::Internal("ovs_served did not start; see " + log);
  }
  return ovs::Status::Ok();
}

struct PassResult {
  std::vector<double> recover_ms;  ///< latency from due time
  std::vector<double> reload_ms;
  double late_ms = 0.0;            ///< worst send delay behind schedule
  double span_s = 0.0;             ///< first due time to last answer
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, std::string> tod_by_id;
  std::vector<ovs::serve::Response> responses;  ///< recovers, as parsed
  double tod_rmse = 0.0;
};

/// Runs the schedule against a ready server and checks every answer.
PassResult RunPass(const Inputs& in, const std::vector<Item>& items,
                   double tod_scale, Served* server, Checker* checker) {
  PassResult out;
  std::vector<std::string> lines;
  for (const Item& it : items) lines.push_back(WithId(*it.line, it.id));
  const size_t already = server->WaitForLines(0, 0).size();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (size_t i = 0; i < items.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(items[i].due_s));
    std::this_thread::sleep_until(due);
    out.late_ms =
        std::max(out.late_ms, std::chrono::duration<double, std::milli>(
                                  Clock::now() - due).count());
    if (!server->Send(lines[i])) break;
  }
  const std::vector<Line> got =
      server->WaitForLines(already + items.size(), 120.0);
  std::map<std::string, const Line*> by_id;
  for (size_t i = already; i < got.size(); ++i) {
    const std::string& t = got[i].text;
    const size_t key = t.find("\"id\":\"");
    const size_t end = key == std::string::npos ? key : t.find('"', key + 6);
    if (end == std::string::npos) continue;
    by_id[t.substr(key + 6, end - key - 6)] = &got[i];
  }
  const ovs::data::Dataset& ds = in.dataset;
  Clock::time_point last = start;
  double rmse_sum = 0.0;
  for (const Item& it : items) {
    ++out.attempted;
    auto f = by_id.find(it.id);
    if (f == by_id.end()) {
      ++out.failed;
      checker->Fail(it.id + ": no response");
      continue;
    }
    const Line& l = *f->second;
    const double ms =
        std::chrono::duration<double, std::milli>(l.at - start).count() -
        it.due_s * 1e3;
    const size_t before = checker->problems().size();
    if (it.reload) {
      checker->ReloadResponse(l.text, it.id);
      out.reload_ms.push_back(ms);
    } else {
      ovs::serve::Response parsed;
      const std::string tod =
          checker->RecoverResponse(l.text, it.id, ds.num_od(),
                                   ds.num_intervals(), tod_scale, &parsed);
      checker->SameSeedSameTod(it.key, tod, it.id);
      out.tod_by_id[it.id] = tod;
      out.recover_ms.push_back(ms);
      last = std::max(last, l.at);
      const ovs::DMat& h = in.hidden[it.pattern].mat();
      if (it.reference && it.round == 0 && parsed.tod.SameShape(h)) {
        rmse_sum += Rmse(parsed.tod.data(), h.data(), h.rows() * h.cols());
      }
      if (parsed.has_tod) out.responses.push_back(std::move(parsed));
    }
    if (checker->problems().size() != before) ++out.failed;
  }
  out.span_s = std::chrono::duration<double>(last - start).count();
  out.tod_rmse = rmse_sum / kPatterns;
  return out;
}

/// serve layer codec alone: ParseRequest on each request line plus
/// SerializeResponse on each recover answer; mean us per request.
double TimeProtocol(const std::vector<Item>& items,
                    const std::vector<ovs::serve::Response>& responses,
                    Checker* checker) {
  std::vector<std::string> requests;
  for (const Item& it : items) requests.push_back(WithId(*it.line, it.id));
  const Clock::time_point t0 = Clock::now();
  size_t bytes = 0;
  for (const std::string& line : requests) {
    ovs::StatusOr<ovs::serve::Request> req = ovs::serve::ParseRequest(line);
    if (!req.ok()) checker->Fail("request does not parse: " + line.substr(0, 80));
  }
  for (const ovs::serve::Response& r : responses) {
    bytes += ovs::serve::SerializeResponse(r).size();
  }
  const double us = SecondsSince(t0) * 1e6;
  if (bytes == 0) checker->Fail("no responses to serialize");
  return us / static_cast<double>(std::max<size_t>(requests.size(), 1));
}

}  // namespace

RunResult RunServe(const Args& args) {
  ovs::SetGlobalThreads(kServerPool);
  PrintHostFacts(args.workload, kServerPool);
  signal(SIGPIPE, SIG_IGN);
  RunResult result;
  Checker checker;
  const std::string snapshot = args.work_dir + "/" + kCity + ".ovsm";
  const int rounds = std::max(
      1, static_cast<int>(args.seconds * kRatePerS / kRecoversPerRound));

  // Setup: server start (dataset, training data, stage 1 and 2), readiness,
  // and the request inputs. Repeated; the last server is kept.
  Inputs in;
  std::vector<double> setup_s;
  auto server = std::make_unique<Served>();
  for (int i = 0; i < kSetupRepeats; ++i) {
    server = std::make_unique<Served>();
    const Clock::time_point t0 = Clock::now();
    const ovs::Status st = StartReady(args, ServerFlags(args.work_dir),
                                      args.work_dir + "/served.log",
                                      server.get());
    if (!st.ok()) {
      result.Problem(st.ToString());
      return result;
    }
    BuildInputs(args.seed, snapshot, &in);
    setup_s.push_back(SecondsSince(t0));
    if (i + 1 < kSetupRepeats && !server->Stop()) {
      checker.Fail("ovs_served did not exit cleanly");
    }
  }
  // The checks' bound: the server city's tod_scale, recomputed here from
  // the same training recipe.
  const double tod_scale =
      ovs::core::GenerateTrainingData(in.dataset, kServerTrainSamples,
                                      kServerTrainSeed)
          .tod_scale;

  if (!args.trace) {
    const std::vector<Item> items = Schedule(in, rounds);
    const PassResult pass =
        RunPass(in, items, tod_scale, server.get(), &checker);
    const double rss = server->PeakRss();
    if (!server->Stop()) checker.Fail("ovs_served did not exit cleanly");
    result.attempted = pass.attempted;
    result.failed = pass.failed;
    result.Add("setup_s", Quantile(setup_s, 0.5), "s");
    result.Add("throughput_per_s",
               pass.recover_ms.size() / std::max(pass.span_s, 1e-9), "1/s");
    result.Add("latency_p50_ms", Quantile(pass.recover_ms, 0.5), "ms");
    result.Add("latency_p90_ms", Quantile(pass.recover_ms, 0.9), "ms");
    result.Add("peak_rss_mb", rss, "MB");
    result.Add("tod_rmse", pass.tod_rmse, "trips");
    std::fprintf(stderr, "perfbench: generator ran at most %.3f ms late\n",
                 pass.late_ms);
    result.problems = checker.problems();
    return result;
  }

  // Traced run: half the rounds untraced on the kept server, then the same
  // rounds on a server that writes its run report.
  const std::vector<Item> items = Schedule(in, std::max(1, rounds / 2));
  const PassResult plain = RunPass(in, items, tod_scale, server.get(), &checker);
  if (!server->Stop()) checker.Fail("ovs_served did not exit cleanly");
  const std::string report_path = args.work_dir + "/serve.report.json";
  std::vector<std::string> flags = ServerFlags(args.work_dir);
  flags.push_back("--report_out=" + report_path);
  Served traced_server;
  const ovs::Status st = StartReady(args, flags,
                                    args.work_dir + "/served.traced.log",
                                    &traced_server);
  if (!st.ok()) {
    result.Problem(st.ToString());
    return result;
  }
  Checker traced_checker;
  const PassResult traced =
      RunPass(in, items, tod_scale, &traced_server, &traced_checker);
  if (!traced_server.Stop()) checker.Fail("traced ovs_served did not exit cleanly");
  for (const std::string& p : traced_checker.problems()) checker.Fail(p);
  if (plain.tod_by_id != traced.tod_by_id) {
    checker.Fail("traced server answered different tod bytes");
  }

  RunReportView report;
  const ovs::Status loaded = report.Load(report_path);
  if (!loaded.ok()) checker.Fail(loaded.ToString());
  const SpanTotal service = report.Span("serve.request");
  LayerFacts f;
  f.report = &report;
  f.op_span = "serve.request";
  f.ops = static_cast<int64_t>(traced.recover_ms.size());
  f.parallel_fors = report.Pool("threadpool.parallel_fors");
  f.od_demand_ms = TimeDemand(in.dataset, in.hidden, &checker);
  f.service_ms = service.mean_ms();
  f.protocol_us = TimeProtocol(items, traced.responses, &checker);
  // Time a request spends outside the worker's fit: queueing, the
  // connection thread's parsing and writing, and the pipes.
  f.queue_wait_ms = Mean(traced.recover_ms) - f.service_ms;
  f.reload_ms = Mean(traced.reload_ms);
  f.generator_late_ms = traced.late_ms;
  f.trace_overhead_share =
      Mean(traced.recover_ms) / Mean(plain.recover_ms) - 1.0;
  result.attempted = traced.attempted;
  result.failed = traced.failed;
  AddLayerMetrics(f, &result);
  result.problems = checker.problems();
  return result;
}

}  // namespace perfbench
