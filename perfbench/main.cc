// perfbench_runner: runs one benchmark workload in this process and prints
// the host facts and, as its last stdout line, the result object.
//
//   perfbench_runner --workload datagen_manhattan --seed 1 --seconds 20
//       --trace 0 --work_dir DIR --served PATH/ovs_served
//   perfbench_runner --workload selftest     # the output checker's self-test
//
// run.py builds this binary and is the entry point; see README.md.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "check.h"
#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing a build with assertions on\n");
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing build type '%s'; need Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work_dir") {
      args.work_dir = value;
    } else if (flag == "--served") {
      args.served = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.workload == "selftest") {
    const int misses = CheckerSelfTest();
    std::printf("perfbench selftest: %s (%d misses)\n",
                misses == 0 ? "ok" : "FAILED", misses);
    return misses == 0 ? 0 : 1;
  }
  if (args.work_dir.empty() || args.seconds <= 0) {
    std::fprintf(stderr, "perfbench: need --work_dir and --seconds > 0\n");
    return 2;
  }
  mkdir(args.work_dir.c_str(), 0755);

  RunResult result;
  if (args.workload == "datagen_manhattan") {
    result = RunDatagen(args);
  } else if (args.workload == "fit_synthetic3x3") {
    result = RunFit(args);
  } else if (args.workload == "serve_open_loop") {
    result = RunServe(args);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (result.metrics.empty()) {
    for (const std::string& p : result.problems) {
      std::fprintf(stderr, "perfbench: %s\n", p.c_str());
    }
    return 1;
  }
  PrintResult(result);
  return 0;
}
