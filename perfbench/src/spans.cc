#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

#include "bench_util.h"
#include "util/json.h"

namespace perfbench {
namespace {

uint64_t ThisThreadId() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
}

}  // namespace

uint64_t SpanRecorder::Begin(const std::string& name, uint64_t parent, uint64_t query) {
  if (!enabled_) {
    return 0;
  }
  double now = NowSeconds();
  std::lock_guard<std::mutex> lk(mu_);
  Span span;
  span.name = name;
  span.id = next_id_++;
  span.parent = parent;
  span.query = query;
  span.start = now;
  span.end = -1.0;
  span.tid = ThisThreadId();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id) {
  if (!enabled_ || id == 0) {
    return;
  }
  double now = NowSeconds();
  std::lock_guard<std::mutex> lk(mu_);
  // Ids are dense and spans_ is append-only, so id - 1 is the index.
  spans_[id - 1].end = now;
}

void SpanRecorder::AddReported(const std::string& name, uint64_t parent, uint64_t query,
                               double start, double end) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lk(mu_);
  Span span;
  span.name = name;
  span.id = next_id_++;
  span.parent = parent;
  span.query = query;
  span.start = start;
  span.end = end;
  span.tid = ThisThreadId();
  span.reported = true;
  spans_.push_back(std::move(span));
}

bool SpanRecorder::WriteChromeTrace(const std::string& path, const std::string& workload,
                                    uint64_t seed, double overhead_frac) const {
  std::lock_guard<std::mutex> lk(mu_);
  double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& s : spans_) {
    origin = std::min(origin, s.start);
  }
  xstream::JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  for (const Span& s : spans_) {
    if (s.end < s.start) {
      continue;  // never closed
    }
    w.BeginObject();
    w.Field("name", std::string_view(s.name));
    w.Field("cat", std::string_view(s.name.substr(0, s.name.find('.'))));
    w.Field("ph", "X");
    w.Field("ts", (s.start - origin) * 1e6);
    w.Field("dur", (s.end - s.start) * 1e6);
    w.Field("pid", 1);
    w.Field("tid", s.tid);
    w.Key("args").BeginObject();
    w.Field("id", s.id);
    w.Field("parent", s.parent);
    w.Field("query", s.query);
    if (s.reported) {
      w.Field("reported", true);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Field("displayTimeUnit", "ms");
  w.Key("perfbench").BeginObject();
  w.Field("workload", std::string_view(workload));
  w.Field("seed", seed);
  w.Field("overhead_frac", overhead_frac);
  w.EndObject();
  w.EndObject();
  if (!xstream::WriteJsonFile(path, w.TakeString())) {
    return false;
  }
  std::printf("trace: %zu spans written to %s\n", spans_.size(), path.c_str());
  return true;
}

}  // namespace perfbench
