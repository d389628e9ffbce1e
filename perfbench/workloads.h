#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Each workload sets its own pool size, prints the host facts, runs its
/// setup kSetupRepeats times, then measures. With args.trace it instead
/// runs an untraced pass and a traced pass of the same operations and
/// reports the per-layer metrics.
RunResult RunDatagen(const Args& args);
RunResult RunFit(const Args& args);
RunResult RunServe(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
