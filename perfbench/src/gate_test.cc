// The correctness gate's own test: real engine outputs pass it, and each
// one corrupted in a single vertex fails it.
//
//   perfbench_gate_test     (exit 0 = every case behaved)
#include <cmath>
#include <cstdio>
#include <vector>

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "bench_util.h"
#include "core/inmem_engine.h"
#include "gate.h"
#include "graph/reference.h"

namespace {

int failures = 0;

void Expect(bool ok, bool want_ok, const char* what, const perfbench::GateResult& r) {
  if (ok != want_ok) {
    ++failures;
    std::printf("FAIL %s: gate said %s (%s)\n", what, ok ? "ok" : "mismatch", r.detail.c_str());
  } else {
    std::printf("ok   %s%s%s\n", what, r.detail.empty() ? "" : ": ", r.detail.c_str());
  }
}

template <typename Check, typename Want>
void PassThenCorrupt(const char* name, Check check, std::vector<double> got, const Want& want,
                     size_t victim, double bad) {
  perfbench::GateResult r = check(got, want);
  Expect(r.ok, true, name, r);
  got[victim] = bad;
  r = check(got, want);
  Expect(r.ok, false, (std::string(name) + ", one vertex corrupted").c_str(), r);
}

}  // namespace

int main() {
  using namespace xstream;
  EdgeList edges = perfbench::PermutedRmat(12, 5);
  GraphInfo info = ScanEdges(edges);
  ReferenceGraph g(edges, info.num_vertices);
  InMemoryConfig config;
  config.threads = 2;

  // Vertex 0's neighbours are reached from it, so its first out-edge's
  // target has a finite, nonzero BFS level and SSSP distance.
  VertexId root = 0;
  while (g.OutEdges(root).empty()) {
    ++root;
  }
  size_t near = g.OutEdges(root).front().first;

  {
    InMemoryEngine<PageRankAlgorithm> engine(config, edges, info.num_vertices);
    PageRankResult r = RunPageRank(engine, 5);
    std::vector<double> want = ReferencePageRank(g, 5);
    PassThenCorrupt("pagerank", perfbench::CheckPageRank, perfbench::Widen(r.ranks), want, near,
                    r.ranks[near] * 1.5);
  }
  {
    InMemoryEngine<WccAlgorithm> engine(config, edges, info.num_vertices);
    WccResult r = RunWcc(engine);
    PassThenCorrupt("wcc", perfbench::CheckExact, perfbench::Widen(r.labels),
                    ReferenceWcc(edges, info.num_vertices), near, r.labels[near] + 1.0);
  }
  {
    InMemoryEngine<BfsAlgorithm> engine(config, edges, info.num_vertices);
    BfsResult r = RunBfs(engine, root);
    PassThenCorrupt("bfs", perfbench::CheckExact, perfbench::Widen(r.levels),
                    ReferenceBfsLevels(g, root), near, r.levels[near] + 1.0);
  }
  {
    InMemoryEngine<SsspAlgorithm> engine(config, edges, info.num_vertices);
    SsspResult r = RunSssp(engine, root);
    std::vector<double> want = ReferenceSssp(g, root);
    PassThenCorrupt("sssp", perfbench::CheckSssp, perfbench::Widen(r.dist), want, near,
                    r.dist[near] + 0.01);
    // An unreached vertex that the engine claims to reach fails too.
    std::vector<double> reach = perfbench::Widen(r.dist);
    for (size_t v = 0; v < reach.size(); ++v) {
      if (std::isinf(want[v])) {
        reach[v] = 1.0;
        perfbench::GateResult res = perfbench::CheckSssp(reach, want);
        Expect(res.ok, false, "sssp, unreached vertex reported reached", res);
        break;
      }
    }
  }
  std::printf("%s\n", failures == 0 ? "gate test passed" : "gate test FAILED");
  return failures == 0 ? 0 : 1;
}
