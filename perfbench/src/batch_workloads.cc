// The two batch workloads.
//
// inmem-pagerank: PageRank, 10 rank rounds, on the in-memory engine over an
// RMAT graph of scale 20 (1 M vertices, 33.6 M edge records), with
// automatic partition and fanout sizing. Every edge sends an update in
// every iteration, so scatter, shuffle, gather and the thread pool do
// nearly all the work and storage, scheduler and serve none.
//
// ooc-wcc: WCC on the out-of-core engine over an RMAT graph of scale 20,
// stored as an edge file on a PosixDevice in the run's work
// directory. The 8 MB streaming budget equals the vertex-state bytes, so
// vertex files, asynchronous update spills, local-update absorption and
// gather reads are all live. WCC sends one update per edge at first and
// almost none at the end: early iterations are write-heavy, late ones read
// edges and little else.
//
// A run: generate the graph, compute the oracle's answer, set the engine up
// kSetupRepeats times (setup_s is the median), then repeat whole runs —
// InitVertices, RunIteration until done, result extraction in original
// vertex order — until `seconds` of run time are spent. Every run's result
// goes through the gate. Traced runs alternate traced and untraced
// repetitions; the difference of their medians is the tracing overhead.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/pagerank.h"
#include "algorithms/wcc.h"
#include "bench_util.h"
#include "core/inmem_engine.h"
#include "core/ooc_engine.h"
#include "gate.h"
#include "graph/edge_io.h"
#include "graph/reference.h"
#include "spans.h"
#include "storage/posix_device.h"
#include "workloads.h"

namespace perfbench {

using xstream::EdgeList;

namespace {

constexpr uint32_t kPagerankScale = 20;
constexpr uint64_t kPagerankRounds = 10;
constexpr uint32_t kWccScale = 20;
constexpr uint64_t kWccBudgetBytes = 8ull << 20;
constexpr size_t kWccIoUnitBytes = 256 << 10;

// One repetition: what it took and what it produced.
template <typename Out>
struct Rep {
  double seconds = 0;
  double result_seconds = 0;
  std::vector<double> iteration_seconds;
  xstream::RunStats stats;
  xstream::DeviceStats io;  // device traffic of this repetition
  Out result;
};

// One whole run on an already set-up engine, timed from InitVertices until
// the result sits in a vector indexed by original vertex id. Mirrors the
// loop of StreamingPhaseDriver::Run, with a span around each call when
// `rec` is given.
template <typename Engine, typename Algo, typename Out, typename Extract>
Rep<Out> RunOnce(Engine& engine, Algo algo, uint64_t max_iterations, SpanRecorder* rec,
                 uint64_t parent, const xstream::StorageDevice* dev, Extract&& extract) {
  Rep<Out> rep;
  engine.ResetStats();
  xstream::DeviceStats io_before = dev != nullptr ? dev->stats() : xstream::DeviceStats{};
  SpanRecorder off(false);
  SpanRecorder& r = rec != nullptr ? *rec : off;
  double t0 = NowSeconds();
  uint64_t run_span = r.Begin("core.run", parent);
  {
    ScopedSpan s(r, "core.init", run_span);
    engine.InitVertices(algo);
  }
  while (engine.stats().iterations < max_iterations) {
    double it0 = NowSeconds();
    uint64_t it_span = r.Begin("core.iteration", run_span);
    xstream::IterationStats iter = engine.RunIteration(algo);
    r.End(it_span);
    rep.iteration_seconds.push_back(NowSeconds() - it0);
    if (iter.updates_generated == 0) {
      break;
    }
    if constexpr (xstream::HasDone<Algo>) {
      if (algo.Done(iter)) {
        break;
      }
    }
  }
  {
    ScopedSpan s(r, "core.finalize", run_span);
    engine.FinalizeStats();
  }
  double x0 = NowSeconds();
  {
    ScopedSpan s(r, "core.result", run_span);
    rep.result = extract(engine);
  }
  double t1 = NowSeconds();
  r.End(run_span);
  rep.seconds = t1 - t0;
  rep.result_seconds = t1 - x0;
  rep.stats = engine.stats();
  if (dev != nullptr) {
    xstream::DeviceStats after = dev->stats();
    rep.io.bytes_read = after.bytes_read - io_before.bytes_read;
    rep.io.bytes_written = after.bytes_written - io_before.bytes_written;
    rep.io.read_requests = after.read_requests - io_before.read_requests;
    rep.io.write_requests = after.write_requests - io_before.write_requests;
    rep.io.busy_seconds = after.busy_seconds - io_before.busy_seconds;
  }
  return rep;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Repeats RunOnce until `seconds` of run time are spent (at least one
// run), gating each result, and turns the repetitions into metrics.
// `setup_seconds` and `setup_write_bytes` come from the set-up loop.
template <typename Out, typename RunFn, typename CheckFn>
Outcome MeasureRuns(const RunOptions& opts, SpanRecorder& rec, uint64_t root_span,
                    const std::vector<double>& setup_seconds, double setup_write_bytes,
                    RunFn&& run_once, CheckFn&& check) {
  Outcome out;
  std::vector<Rep<Out>> traced;
  std::vector<double> run_s;        // untraced repetitions
  std::vector<double> traced_run_s;
  double spent = 0;
  for (int i = 0; spent < opts.seconds || run_s.empty() || (opts.trace && traced.empty());
       ++i) {
    // Traced runs alternate traced and untraced repetitions, starting
    // with an untraced one; one span covers each untraced repetition.
    bool traced_rep = opts.trace && i % 2 == 1;
    uint64_t untraced = traced_rep ? 0 : rec.Begin("bench.untraced_run", root_span);
    Rep<Out> rep = run_once(traced_rep ? &rec : nullptr);
    rec.End(untraced);
    spent += rep.seconds;
    ++out.attempted;
    GateResult gate;
    {
      ScopedSpan s(rec, "bench.check", root_span);
      gate = check(rep.result);
    }
    if (!gate.ok) {
      ++out.failed;
      std::fprintf(stderr, "gate: run %d: %s\n", i, gate.detail.c_str());
    }
    if (traced_rep) {
      traced_run_s.push_back(rep.seconds);
      rep.result = Out();
      traced.push_back(std::move(rep));
    } else {
      run_s.push_back(rep.seconds);
      if (i == 0) {
        PrintProperty("core.wasted_edge_frac",
                      Ratio(rep.stats.wasted_edges, rep.stats.edges_streamed));
      }
    }
  }
  double peak_rss_mb = PeakRssMb();
  std::printf("runs: %zu untraced, %zu traced, %.3f s of run time; untraced:", run_s.size(),
              traced.size(), spent);
  for (double s : run_s) {
    std::printf(" %.3f", s);
  }
  std::printf("\n");

  if (!opts.trace) {
    Tail tail = TailOf(run_s);
    double total = 0;
    for (double s : run_s) {
      total += s;
    }
    std::printf("query_tail_s is p%.1f of %zu runs (%zu beyond)\n", tail.percentile,
                tail.samples, tail.beyond);
    out.Add("setup_s", Median(setup_seconds), "s");
    out.Add("run_s", Median(run_s), "s");
    out.Add("peak_rss_mb", peak_rss_mb, "MB");
    out.Add("query_tail_s", tail.value, "s");
    out.Add("queries_per_s", static_cast<double>(run_s.size()) / total, "1/s");
    return out;
  }

  LayerMetrics m;
  std::vector<double> iteration_s, result_s, iterations, updates, steals;
  std::vector<double> rd, wr, rdq, wrq, busy, upd_bytes, peak_upd, spill_wait, gather_wait;
  double edges = 0, iter_time = 0, wasted = 0, generated = 0, absorbed = 0, async_bytes = 0;
  for (const Rep<Out>& rep : traced) {
    const xstream::RunStats& st = rep.stats;
    for (double s : rep.iteration_seconds) {
      iteration_s.push_back(s);
      iter_time += s;
    }
    result_s.push_back(rep.result_seconds);
    iterations.push_back(static_cast<double>(st.iterations));
    updates.push_back(static_cast<double>(st.updates_generated));
    steals.push_back(static_cast<double>(st.steals));
    rd.push_back(static_cast<double>(rep.io.bytes_read));
    wr.push_back(static_cast<double>(rep.io.bytes_written));
    rdq.push_back(static_cast<double>(rep.io.read_requests));
    wrq.push_back(static_cast<double>(rep.io.write_requests));
    busy.push_back(rep.io.busy_seconds);
    upd_bytes.push_back(static_cast<double>(st.update_file_bytes));
    peak_upd.push_back(static_cast<double>(st.peak_update_bytes));
    spill_wait.push_back(st.spill_wait_seconds);
    gather_wait.push_back(st.gather_wait_seconds);
    edges += static_cast<double>(st.edges_streamed);
    wasted += static_cast<double>(st.wasted_edges);
    generated += static_cast<double>(st.updates_generated);
    absorbed += static_cast<double>(st.updates_absorbed);
    async_bytes += static_cast<double>(st.async_spill_bytes);
  }
  double total_update_bytes = 0;
  for (double b : upd_bytes) {
    total_update_bytes += b;
  }
  m.core_iteration_s = Median(iteration_s);
  m.core_edges_per_s = Ratio(edges, iter_time);
  m.core_result_s = Median(result_s);
  m.core_iterations = Median(iterations);
  m.core_updates_generated = Median(updates);
  m.core_wasted_edge_frac = Ratio(wasted, edges);
  m.core_absorbed_frac = Ratio(absorbed, generated);
  m.threads_steals = Median(steals);
  m.storage_read_bytes = Median(rd);
  m.storage_write_bytes = Median(wr);
  m.storage_read_requests = Median(rdq);
  m.storage_write_requests = Median(wrq);
  m.storage_busy_s = Median(busy);
  m.storage_update_file_bytes = Median(upd_bytes);
  m.storage_peak_update_bytes = Median(peak_upd);
  m.storage_spill_wait_s = Median(spill_wait);
  m.storage_gather_wait_s = Median(gather_wait);
  m.storage_async_spill_frac = Ratio(async_bytes, total_update_bytes);
  m.storage_setup_write_bytes = setup_write_bytes;
  m.trace_overhead_frac = Ratio(Median(traced_run_s), Median(run_s)) - 1.0;
  std::printf("tracing overhead: traced run median %.4f s vs untraced %.4f s (%+.2f%%)\n",
              Median(traced_run_s), Median(run_s), 100.0 * m.trace_overhead_frac);
  AddLayerMetrics(m, &out);
  rec.End(root_span);
  rec.WriteChromeTrace(opts.trace_path, opts.workload, opts.seed, m.trace_overhead_frac);
  return out;
}

}  // namespace

Outcome RunInmemPagerank(const RunOptions& opts) {
  using Engine = xstream::InMemoryEngine<xstream::PageRankAlgorithm>;
  SpanRecorder rec(opts.trace);
  uint64_t root = rec.Begin("bench.inmem-pagerank");

  uint64_t gen = rec.Begin("bench.generate", root);
  EdgeList edges = PermutedRmat(kPagerankScale, opts.seed);
  xstream::GraphInfo info = xstream::ScanEdges(edges);
  rec.End(gen);
  std::vector<double> want;
  {
    ScopedSpan s(rec, "bench.reference", root);
    xstream::ReferenceGraph g(edges, info.num_vertices);
    want = xstream::ReferencePageRank(g, static_cast<int>(kPagerankRounds));
  }
  std::printf("graph: RMAT scale %u, %llu vertices, %llu edge records\n", kPagerankScale,
              static_cast<unsigned long long>(info.num_vertices),
              static_cast<unsigned long long>(info.num_edges));

  ResetPeakRss();
  xstream::InMemoryConfig config;
  config.threads = kComputeThreads;
  std::unique_ptr<Engine> engine;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    engine.reset();
    double t0 = NowSeconds();
    {
      ScopedSpan s(rec, "core.setup", root);
      engine = std::make_unique<Engine>(config, edges, info.num_vertices);
    }
    setup_s.push_back(NowSeconds() - t0);
  }
  std::printf("engine: in-memory, %u partitions, fanout %u, %d threads\n",
              engine->num_partitions(), engine->shuffle_fanout(), kComputeThreads);

  auto extract = [](Engine& e) {
    std::vector<float> ranks(e.num_vertices());
    e.VertexFold(0, [&ranks](int acc, xstream::VertexId v,
                             const xstream::PageRankAlgorithm::VertexState& s) {
      ranks[v] = s.rank;
      return acc;
    });
    return ranks;
  };
  Outcome out = MeasureRuns<std::vector<float>>(
      opts, rec, root, setup_s, 0.0,
      [&](SpanRecorder* r) {
        return RunOnce<Engine, xstream::PageRankAlgorithm, std::vector<float>>(
            *engine, xstream::PageRankAlgorithm(info.num_vertices, kPagerankRounds),
            kPagerankRounds + 1, r, root, nullptr, extract);
      },
      [&](const std::vector<float>& got) { return CheckPageRank(Widen(got), want); });
  return out;
}

Outcome RunOocWcc(const RunOptions& opts) {
  using Engine = xstream::OutOfCoreEngine<xstream::WccAlgorithm>;
  SpanRecorder rec(opts.trace);
  uint64_t root = rec.Begin("bench.ooc-wcc");

  uint64_t gen = rec.Begin("bench.generate", root);
  EdgeList edges = PermutedRmat(kWccScale, opts.seed);
  xstream::GraphInfo info = xstream::ScanEdges(edges);
  rec.End(gen);
  std::vector<xstream::VertexId> want;
  {
    ScopedSpan s(rec, "bench.reference", root);
    want = xstream::ReferenceWcc(edges, info.num_vertices);
  }
  xstream::PosixDevice disk("perfbench", opts.workdir);
  {
    ScopedSpan s(rec, "storage.write_input", root);
    xstream::WriteEdgeFile(disk, "input.edges", edges);
  }
  EdgeList().swap(edges);  // the engine reads the file, not the list
  std::printf("graph: RMAT scale %u, %llu vertices, %llu edge records, in %s\n", kWccScale,
              static_cast<unsigned long long>(info.num_vertices),
              static_cast<unsigned long long>(info.num_edges), opts.workdir.c_str());

  ResetPeakRss();
  xstream::OutOfCoreConfig config;
  config.threads = kComputeThreads;
  config.memory_budget_bytes = kWccBudgetBytes;
  config.io_unit_bytes = kWccIoUnitBytes;
  std::unique_ptr<Engine> engine;
  std::vector<double> setup_s;
  double setup_write_bytes = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    engine.reset();
    uint64_t written = disk.stats().bytes_written;
    double t0 = NowSeconds();
    {
      ScopedSpan s(rec, "core.setup", root);
      engine = std::make_unique<Engine>(config, disk, disk, disk, "input.edges", info);
    }
    setup_s.push_back(NowSeconds() - t0);
    setup_write_bytes = static_cast<double>(disk.stats().bytes_written - written);
  }
  double vertex_bytes =
      static_cast<double>(info.num_vertices * sizeof(xstream::WccAlgorithm::VertexState));
  std::printf("engine: out-of-core, %u partitions, vertices %s, budget %llu B, io unit %zu B\n",
              engine->num_partitions(), engine->vertices_in_memory() ? "in memory" : "on disk",
              static_cast<unsigned long long>(kWccBudgetBytes), kWccIoUnitBytes);
  PrintProperty("storage.vertex_budget_ratio", vertex_bytes / kWccBudgetBytes,
                "vertex-state bytes / streaming budget");

  auto extract = [](Engine& e) {
    std::vector<uint32_t> labels(e.num_vertices());
    e.VertexFold(0, [&labels](int acc, xstream::VertexId v,
                              const xstream::WccAlgorithm::VertexState& s) {
      labels[v] = s.label;  // the fold hands out original ids
      return acc;
    });
    return labels;
  };
  Outcome out = MeasureRuns<std::vector<uint32_t>>(
      opts, rec, root, setup_s, setup_write_bytes,
      [&](SpanRecorder* r) {
        return RunOnce<Engine, xstream::WccAlgorithm, std::vector<uint32_t>>(
            *engine, xstream::WccAlgorithm{}, UINT64_MAX, r, root, &disk, extract);
      },
      [&](const std::vector<uint32_t>& got) { return CheckExact(Widen(got), want); });
  return out;
}

}  // namespace perfbench
