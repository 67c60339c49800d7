// The benchmark's workloads. Each generates its inputs from the run's seed,
// measures with tracing off (end-to-end metrics) or on (per-layer metrics),
// checks every result against the reference oracles, and returns what the
// run reports.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "bench_util.h"

namespace perfbench {

// Engines and the serve pool use three compute threads on every workload.
inline constexpr int kComputeThreads = 3;
// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

Outcome RunInmemPagerank(const RunOptions& opts);
Outcome RunOocWcc(const RunOptions& opts);
Outcome RunServeMixed(const RunOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
