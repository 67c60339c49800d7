#include "gate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

GateResult Mismatch(const char* what, uint64_t v, double got, double want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s mismatch at vertex %llu: got %.9g, want %.9g", what,
                static_cast<unsigned long long>(v), got, want);
  return {false, buf};
}

GateResult SizeMismatch(size_t got, size_t want) {
  return {false, "result has " + std::to_string(got) + " vertices, oracle has " +
                     std::to_string(want)};
}

double PageRankTolerance(uint64_t num_vertices, double rank) {
  double share = 1e-4 * 1024.0;  // tolerance / mean rank in the engine tests
  return share * std::max(1.0 / static_cast<double>(num_vertices), std::fabs(rank));
}

}  // namespace

GateResult CheckExact(const std::vector<double>& got, const std::vector<uint32_t>& want) {
  if (got.size() != want.size()) {
    return SizeMismatch(got.size(), want.size());
  }
  for (size_t v = 0; v < got.size(); ++v) {
    if (got[v] != static_cast<double>(want[v])) {
      return Mismatch("value", v, got[v], want[v]);
    }
  }
  return {};
}

GateResult CheckSssp(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return SizeMismatch(got.size(), want.size());
  }
  for (size_t v = 0; v < got.size(); ++v) {
    bool got_inf = std::isinf(got[v]);
    bool want_inf = std::isinf(want[v]);
    if (got_inf != want_inf || std::isnan(got[v]) ||
        (!want_inf && std::fabs(got[v] - want[v]) > 1e-3)) {
      return Mismatch("distance", v, got[v], want[v]);
    }
  }
  return {};
}

GateResult CheckPageRank(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return SizeMismatch(got.size(), want.size());
  }
  for (size_t v = 0; v < got.size(); ++v) {
    double diff = std::fabs(got[v] - want[v]);
    if (!(diff <= PageRankTolerance(want.size(), want[v]))) {  // NaN fails too
      return Mismatch("rank", v, got[v], want[v]);
    }
  }
  return {};
}

}  // namespace perfbench
