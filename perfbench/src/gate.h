// Correctness gate: compares an engine's output with the sequential oracles
// of graph/reference.h. The benchmark runs it outside every timed window;
// a mismatch counts as a failed result and makes the run exit nonzero.
//
// Results come in as doubles, the form the serve API sends; engine outputs
// (float, uint32) widen to double without loss.
//
// WCC labels and BFS levels must match exactly. SSSP must reach exactly the
// oracle's vertices; distances differ only by float-versus-double rounding
// and must agree within the engine tests' 1e-3. PageRank must agree within
// the engine tests' tolerance, rescaled to the graph (see
// PageRankTolerance).
#ifndef PERFBENCH_GATE_H_
#define PERFBENCH_GATE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct GateResult {
  bool ok = true;
  std::string detail;  // the first mismatch, when !ok
};

// WCC labels or BFS levels (UINT32_MAX = unreached).
GateResult CheckExact(const std::vector<double>& got, const std::vector<uint32_t>& want);

// SSSP distances (+inf = unreached).
GateResult CheckSssp(const std::vector<double>& got, const std::vector<double>& want);

// PageRank ranks. The engine tests compare ranks of 1024-vertex graphs
// with an absolute 1e-4, a tenth of their mean rank 1/1024. The gate keeps
// that ratio to the mean rank 1/n, and allows hub vertices, whose float sums
// run over many more terms, the same share of their own rank.
GateResult CheckPageRank(const std::vector<double>& got, const std::vector<double>& want);

// Widens an engine output for the checks above.
template <typename T>
std::vector<double> Widen(const std::vector<T>& values) {
  return std::vector<double>(values.begin(), values.end());
}

}  // namespace perfbench

#endif  // PERFBENCH_GATE_H_
