// Shared plumbing of the benchmark program: clocks, order statistics, peak
// resident memory, and the result line the benchmark contract asks for.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.h"

namespace perfbench {

// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;      // length of the measured window
  bool trace = false;         // per-layer run with spans instead of end-to-end
  std::string workdir;        // scratch files (inside the checkout)
  std::string trace_path;     // Chrome-trace output of a traced run
};

// RMAT (Graph500 parameters, edge factor 16, both directions per edge) in a
// seeded random edge order, as the engine tests build their graphs. Vertex
// ids keep the generator's numbering, so the hubs sit at low ids in every
// seed and partition skew and WCC's propagation depth stay alike from seed
// to seed.
xstream::EdgeList PermutedRmat(uint32_t scale, uint64_t seed);

// Seconds on the steady clock (arbitrary epoch).
double NowSeconds();

double Median(std::vector<double> values);

// The highest percentile with at least ten samples beyond it. Below 21
// samples that percentile is not above the median, so the median is
// reported instead (percentile 50).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t beyond = 0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values);

// Peak resident set of this process. ResetPeakRss() restarts the high-water
// mark at the current RSS (Linux clear_refs), so inputs generated before it
// do not count; it returns false where the kernel refuses.
bool ResetPeakRss();
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports: the gate's tally and its metrics.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// Per-layer metrics of a traced run. Every workload reports all of them;
// a layer the workload does not run reads zero.
struct LayerMetrics {
  // core: phase runtime, stream stores, engine facades.
  double core_iteration_s = 0;       // median RunIteration time
  double core_edges_per_s = 0;       // edges streamed per second of iteration time
  double core_result_s = 0;          // median result extraction time
  double core_iterations = 0;        // per run
  double core_updates_generated = 0; // per run
  double core_wasted_edge_frac = 0;  // streamed edges that sent no update
  double core_absorbed_frac = 0;     // updates gathered without an update file
  // threads
  double threads_steals = 0;         // per run
  // storage (per run, device counters and RunStats)
  double storage_read_bytes = 0;
  double storage_write_bytes = 0;
  double storage_read_requests = 0;
  double storage_write_requests = 0;
  double storage_busy_s = 0;
  double storage_update_file_bytes = 0;
  double storage_peak_update_bytes = 0;
  double storage_spill_wait_s = 0;
  double storage_gather_wait_s = 0;
  double storage_async_spill_frac = 0;
  double storage_setup_write_bytes = 0;
  // scheduler (job-status JSON and SchedulerStats)
  double scheduler_queue_s = 0;
  double scheduler_job_run_s = 0;
  double scheduler_scan_share = 0;
  double scheduler_partition_scans = 0;
  double scheduler_rounds = 0;
  double scheduler_jobs_rejected = 0;
  // serve (client side, per route)
  double serve_submit_s = 0;
  double serve_poll_s = 0;
  double serve_result_s = 0;
  double serve_result_bytes = 0;
  double serve_completion_lag_s = 0;
  double serve_polls_per_query = 0;
  double serve_http_non2xx = 0;
  // the tracing itself
  double trace_overhead_frac = 0;    // traced median / untraced median - 1
};
void AddLayerMetrics(const LayerMetrics& m, Outcome* out);

// Prints every metric as a readable line, then the result as the last line
// of stdout: {"correct","attempted","failed","metrics"}.
void PrintOutcome(const Outcome& outcome);

// Workload properties later claims depend on, printed in every run.
void PrintProperty(const std::string& name, double value, const std::string& note = "");

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
