// Spans of a traced benchmark run.
//
// The benchmark records one span around each call it makes into a layer of
// the system (core, storage, scheduler, serve). A span has a name whose
// prefix before the first '.' is its layer, a start, an end, the span that
// caused it, and the query it belongs to: every span of one serve query
// shares that query's id. Spans stay in memory and are written out once, as
// Chrome-trace JSON, when the run ends.
//
// A disabled recorder records nothing, so untraced code paths stay the
// same as traced ones apart from the recording itself.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t query = 0;   // 0 = not part of a query
  double start = 0.0;   // seconds, steady clock
  double end = 0.0;
  uint64_t tid = 0;
  // True for spans placed from durations the system reports about itself
  // (the scheduler's queue and run seconds) rather than timed here.
  bool reported = false;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span and returns its id (0 when disabled).
  uint64_t Begin(const std::string& name, uint64_t parent = 0, uint64_t query = 0);
  void End(uint64_t id);

  // Adds a closed span with the given interval.
  void AddReported(const std::string& name, uint64_t parent, uint64_t query, double start,
                   double end);

  // Writes {"traceEvents":[...],"displayTimeUnit":"ms","perfbench":{...}}:
  // "X" events with ts/dur in microseconds, "cat" = layer, and the span,
  // parent and query ids under "args"; "perfbench" (which viewers ignore)
  // names the run and its measured tracing overhead. Prints where the
  // trace went.
  bool WriteChromeTrace(const std::string& path, const std::string& workload, uint64_t seed,
                        double overhead_frac) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;  // guards spans_ and next_id_
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name, uint64_t parent = 0,
             uint64_t query = 0)
      : rec_(rec), id_(rec.Begin(name, parent, query)) {}
  ~ScopedSpan() { rec_.End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
