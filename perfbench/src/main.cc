// xstream_bench: runs one benchmark workload and prints its result.
//
//   xstream_bench --workload=NAME --seed=N --seconds=S --trace=0|1
//                 --workdir=DIR [--trace-out=FILE]
//
// Workloads: inmem-pagerank, ooc-wcc, serve-mixed (see workloads.h).
// The last line of stdout is one JSON object: correct, attempted, failed and
// metrics — the end-to-end metrics with --trace=0, the per-layer ones with
// --trace=1. Exits 1 when any result fails the correctness gate, 2 on a
// usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

bool Flag(const char* arg, const char* name, std::string* value) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') {
    return false;
  }
  *value = arg + n + 1;
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "xstream_bench: %s\nusage: xstream_bench --workload=NAME --seed=N "
               "--seconds=S --trace=0|1 --workdir=DIR [--trace-out=FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  std::string seed, seconds, trace;
  for (int i = 1; i < argc; ++i) {
    if (!Flag(argv[i], "--workload", &opts.workload) && !Flag(argv[i], "--seed", &seed) &&
        !Flag(argv[i], "--seconds", &seconds) && !Flag(argv[i], "--trace", &trace) &&
        !Flag(argv[i], "--workdir", &opts.workdir) &&
        !Flag(argv[i], "--trace-out", &opts.trace_path)) {
      return Usage((std::string("unknown argument ") + argv[i]).c_str());
    }
  }
  char* end = nullptr;
  opts.seed = std::strtoull(seed.c_str(), &end, 10);
  if (seed.empty() || *end != '\0') {
    return Usage("--seed must be a non-negative integer");
  }
  opts.seconds = std::strtod(seconds.c_str(), &end);
  if (seconds.empty() || *end != '\0' || !(opts.seconds > 0)) {
    return Usage("--seconds must be a positive number");
  }
  if (trace != "0" && trace != "1") {
    return Usage("--trace must be 0 or 1");
  }
  opts.trace = trace == "1";
  if (opts.workdir.empty() || (opts.trace && opts.trace_path.empty())) {
    return Usage("--workdir is required, and --trace-out with --trace=1");
  }
  xstream::SetLogThreshold(xstream::LogLevel::kWarning);

  std::printf("workload %s, seed %llu, %.3g s measured, trace %d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds, opts.trace ? 1 : 0);
  perfbench::Outcome outcome;
  if (opts.workload == "inmem-pagerank") {
    outcome = perfbench::RunInmemPagerank(opts);
  } else if (opts.workload == "ooc-wcc") {
    outcome = perfbench::RunOocWcc(opts);
  } else if (opts.workload == "serve-mixed") {
    outcome = perfbench::RunServeMixed(opts);
  } else {
    return Usage(("unknown workload " + opts.workload).c_str());
  }
  std::printf("seed %llu: %llu results attempted, %llu failed, error_rate %.6g\n",
              static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.attempted > 0
                  ? static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted)
                  : 1.0);
  perfbench::PrintOutcome(outcome);
  return outcome.failed == 0 && outcome.attempted > 0 ? 0 : 1;
}
