#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "graph/generators.h"

namespace perfbench {

xstream::EdgeList PermutedRmat(uint32_t scale, uint64_t seed) {
  xstream::RmatParams params;
  params.scale = scale;
  params.seed = seed;
  xstream::EdgeList edges = xstream::GenerateRmat(params);
  xstream::PermuteEdges(edges, seed + 1);
  return edges;
}

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) {
    return tail;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  if (n < 21) {
    tail.value = Median(values);
    tail.percentile = 50.0;
    tail.beyond = n / 2;
    return tail;
  }
  // values[n - 11] has exactly ten samples above it; it sits at the
  // 100 * (n - 10) / n percentile.
  tail.value = values[n - 11];
  tail.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  tail.beyond = 10;
  return tail;
}

bool ResetPeakRss() {
  std::ofstream refs("/proc/self/clear_refs");
  refs << "5";
  refs.flush();
  return static_cast<bool>(refs);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

void AddLayerMetrics(const LayerMetrics& m, Outcome* out) {
  out->Add("core.iteration_s", m.core_iteration_s, "s");
  out->Add("core.edges_per_s", m.core_edges_per_s, "1/s");
  out->Add("core.result_s", m.core_result_s, "s");
  out->Add("core.iterations", m.core_iterations, "count");
  out->Add("core.updates_generated", m.core_updates_generated, "count");
  out->Add("core.wasted_edge_frac", m.core_wasted_edge_frac, "fraction");
  out->Add("core.absorbed_frac", m.core_absorbed_frac, "fraction");
  out->Add("threads.steals", m.threads_steals, "count");
  out->Add("storage.read_bytes", m.storage_read_bytes, "bytes");
  out->Add("storage.write_bytes", m.storage_write_bytes, "bytes");
  out->Add("storage.read_requests", m.storage_read_requests, "count");
  out->Add("storage.write_requests", m.storage_write_requests, "count");
  out->Add("storage.busy_s", m.storage_busy_s, "s");
  out->Add("storage.update_file_bytes", m.storage_update_file_bytes, "bytes");
  out->Add("storage.peak_update_bytes", m.storage_peak_update_bytes, "bytes");
  out->Add("storage.spill_wait_s", m.storage_spill_wait_s, "s");
  out->Add("storage.gather_wait_s", m.storage_gather_wait_s, "s");
  out->Add("storage.async_spill_frac", m.storage_async_spill_frac, "fraction");
  out->Add("storage.setup_write_bytes", m.storage_setup_write_bytes, "bytes");
  out->Add("scheduler.queue_s", m.scheduler_queue_s, "s");
  out->Add("scheduler.job_run_s", m.scheduler_job_run_s, "s");
  out->Add("scheduler.scan_share", m.scheduler_scan_share, "fraction");
  out->Add("scheduler.partition_scans", m.scheduler_partition_scans, "count");
  out->Add("scheduler.rounds", m.scheduler_rounds, "count");
  out->Add("scheduler.jobs_rejected", m.scheduler_jobs_rejected, "count");
  out->Add("serve.submit_s", m.serve_submit_s, "s");
  out->Add("serve.poll_s", m.serve_poll_s, "s");
  out->Add("serve.result_s", m.serve_result_s, "s");
  out->Add("serve.result_bytes", m.serve_result_bytes, "bytes");
  out->Add("serve.completion_lag_s", m.serve_completion_lag_s, "s");
  out->Add("serve.polls_per_query", m.serve_polls_per_query, "count");
  out->Add("serve.http_non2xx", m.serve_http_non2xx, "count");
  out->Add("trace.overhead_frac", m.trace_overhead_frac, "fraction");
}

void PrintOutcome(const Outcome& outcome) {
  for (const Metric& m : outcome.metrics) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              outcome.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintProperty(const std::string& name, double value, const std::string& note) {
  std::printf("property %-28s %.6g%s%s\n", name.c_str(), value, note.empty() ? "" : "  ",
              note.c_str());
}

}  // namespace perfbench
