// serve-mixed: a closed-loop query mix against an in-process GraphService.
//
// The service mounts an RMAT graph of scale 16 on the in-memory
// substrate and serves the /v1 REST API on an ephemeral 127.0.0.1 port.
// Three clients in this process, one connection per request, each run a
// closed loop: POST /v1/jobs, poll GET /v1/jobs/<id> every kPollInterval
// until the job is done, GET /v1/jobs/<id>/result, decode it, then send the
// next query. Each client cycles through ten queries: three BFS and two SSSP
// from seeded-random roots of nonzero degree, never repeated; three WCC and
// two PageRank (5 rounds), identical requests every time. The split puts
// the median query inside the WCC group rather than on a boundary between
// two algorithms' latencies, and the repeats are there so a result cache
// would have something to hit. Scale 16 keeps about 130 queries in a
// 20-second window, so the tail percentile has ten samples beyond it.
//
// This is the only workload that runs HTTP routing, result encoding,
// fair-share admission and scan sharing across concurrent jobs.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "gate.h"
#include "graph/reference.h"
#include "obs/http_exporter.h"
#include "serve/service.h"
#include "spans.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint32_t kServeScale = 16;
constexpr int kClients = 3;
constexpr uint64_t kServeRankRounds = 5;
constexpr double kPollInterval = 0.010;
constexpr double kQueryTimeout = 60.0;  // a query still running then fails
constexpr const char* kGraph = "rmat16";

struct HttpReply {
  int status = 0;
  std::string body;
};

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// One request on its own connection (the exporter closes after each
// response). Returns false on a transport error.
bool HttpCall(int port, const char* method, const std::string& path, const std::string& body,
              HttpReply* reply) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string request = std::string(method) + " " + path +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n";
  if (!body.empty()) {
    request += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n" + body;
  bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
            SendAll(fd, request);
  std::string raw;
  if (ok) {
    char buf[1 << 16];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      raw.append(buf, static_cast<size_t>(n));
    }
    ok = n == 0;
  }
  ::close(fd);
  size_t header_end = raw.find("\r\n\r\n");
  if (!ok || raw.rfind("HTTP/1.", 0) != 0 || header_end == std::string::npos) {
    return false;
  }
  reply->status = std::atoi(raw.c_str() + raw.find(' ') + 1);
  reply->body = raw.substr(header_end + 4);
  return true;
}

// Decodes the "values" array of a result body: numbers, or the strings
// "Infinity"/"-Infinity"/"NaN" for non-finite values.
bool DecodeValues(const std::string& body, std::vector<double>* values) {
  size_t pos = body.find("\"values\":[");
  if (pos == std::string::npos) {
    return false;
  }
  const char* p = body.c_str() + pos + 10;
  values->clear();
  while (*p != ']') {
    if (*p == '"') {
      double v = std::strncmp(p, "\"Infinity\"", 10) == 0    ? INFINITY
                 : std::strncmp(p, "\"-Infinity\"", 11) == 0 ? -INFINITY
                                                             : NAN;
      values->push_back(v);
      p = std::strchr(p + 1, '"');
      if (p == nullptr) {
        return false;
      }
      ++p;
    } else {
      char* end = nullptr;
      double v = std::strtod(p, &end);
      if (end == p) {
        return false;
      }
      values->push_back(v);
      p = end;
    }
    if (*p == ',') {
      ++p;
    } else if (*p != ']') {
      return false;
    }
  }
  return true;
}

struct Query {
  std::string algo;  // bfs | sssp | wcc | pagerank
  uint32_t root = 0;

  std::string Body() const {
    std::string b = "{\"graph\":\"" + std::string(kGraph) + "\",\"algo\":\"" + algo + "\"";
    if (algo == "bfs" || algo == "sssp") {
      b += ",\"params\":{\"root\":" + std::to_string(root) + "}";
    } else if (algo == "pagerank") {
      b += ",\"params\":{\"iters\":" + std::to_string(kServeRankRounds) + "}";
    }
    return b + "}";
  }
};

// One client's endless query sequence. Every client cycles through the
// same ten-query pattern, started three queries apart so the clients stay
// out of phase; the seed picks the graph and the BFS/SSSP roots.
class QueryPlan {
 public:
  QueryPlan(int client, const std::vector<uint32_t>* roots)
      : client_(client), next_(static_cast<size_t>(client) * 3), roots_(roots) {}

  Query Next() {
    static const char* const kCycle[] = {"bfs", "wcc", "sssp", "pagerank", "bfs",
                                         "wcc", "bfs", "wcc",  "sssp",     "pagerank"};
    Query q;
    q.algo = kCycle[next_++ % 10];
    if (q.algo == "bfs" || q.algo == "sssp") {
      // Clients take interleaved slots of one shuffled root list, so no
      // root is ever queried twice.
      q.root = (*roots_)[(static_cast<size_t>(next_root_++) * kClients + client_) %
                         roots_->size()];
    }
    return q;
  }

 private:
  int client_;
  size_t next_;
  const std::vector<uint32_t>* roots_;
  uint64_t next_root_ = 0;
};

// What one finished (or failed) query left behind.
struct QueryRecord {
  std::string algo;
  uint32_t root = 0;
  bool traced = false;
  bool ok = false;       // accepted, done, result fetched and decoded
  double latency = 0;    // submit sent -> full result body received
  double submit_s = 0;
  double result_s = 0;
  double queue_s = 0;    // as the job status reports it
  double run_s = 0;
  double lag_s = 0;      // scheduler finish -> client sees "done"
  int polls = 0;
  double result_bytes = 0;
  std::string stored;    // decoded BFS/SSSP values awaiting the gate
};

struct SharedCheck {
  std::vector<uint32_t> wcc;   // oracle labels
  std::vector<double> rank;    // oracle PageRank
  std::string workdir;
};

class Client {
 public:
  Client(int id, int port, const std::vector<uint32_t>* roots,
         const SharedCheck* check, SpanRecorder* rec, uint64_t bench_span,
         std::atomic<uint64_t>* query_ids)
      : id_(id), port_(port), plan_(id, roots), check_(check), rec_(rec),
        bench_span_(bench_span), query_ids_(query_ids) {}

  // Closed loop until `deadline`; the query in flight then still finishes.
  void Run(double deadline) {
    for (int n = 0; NowSeconds() < deadline; ++n) {
      // Traced runs trace every other query; one span covers each untraced
      // query so the trace still accounts for its time.
      bool traced = rec_->enabled() && n % 2 == 1;
      uint64_t untraced = traced ? 0 : rec_->Begin("bench.untraced_query", bench_span_);
      records_.push_back(RunQuery(plan_.Next(), traced, n));
      rec_->End(untraced);
    }
    finished_at_ = NowSeconds();
  }

  std::vector<QueryRecord>& records() { return records_; }
  const std::vector<double>& poll_seconds() const { return poll_s_; }
  uint64_t non2xx() const { return non2xx_; }
  double finished_at() const { return finished_at_; }

 private:
  bool Call(const char* method, const std::string& path, const std::string& body,
            HttpReply* reply) {
    if (!HttpCall(port_, method, path, body, reply)) {
      reply->status = 0;
    }
    if (reply->status < 200 || reply->status > 299) {
      ++non2xx_;
      return false;
    }
    return true;
  }

  QueryRecord RunQuery(const Query& q, bool traced, int n) {
    QueryRecord rec;
    rec.algo = q.algo;
    rec.root = q.root;
    rec.traced = traced;
    SpanRecorder off(false);
    SpanRecorder& spans = traced ? *rec_ : off;
    uint64_t qid = query_ids_->fetch_add(1) + 1;
    double t0 = NowSeconds();
    uint64_t root_span = spans.Begin("serve.query", bench_span_, qid);

    HttpReply reply;
    uint64_t s = spans.Begin("serve.submit", root_span, qid);
    bool ok = Call("POST", "/v1/jobs", q.Body(), &reply);
    spans.End(s);
    double t1 = NowSeconds();
    rec.submit_s = t1 - t0;
    xstream::JsonValue doc;
    if (!ok || !xstream::ParseJson(reply.body, &doc) || doc.Get("id") == nullptr) {
      spans.End(root_span);
      return rec;
    }
    std::string job = "/v1/jobs/" + std::to_string(doc.Get("id")->as_int());

    std::string state;
    double seen_done = 0;
    while (true) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kPollInterval));
      double p0 = NowSeconds();
      s = spans.Begin("serve.poll", root_span, qid);
      ok = Call("GET", job, "", &reply);
      spans.End(s);
      seen_done = NowSeconds();
      poll_s_.push_back(seen_done - p0);
      ++rec.polls;
      if (!ok || !xstream::ParseJson(reply.body, &doc) || doc.Get("state") == nullptr) {
        break;
      }
      state = doc.Get("state")->as_string();
      if ((state != "queued" && state != "running") || seen_done - t0 > kQueryTimeout) {
        break;
      }
    }
    if (state != "done") {
      spans.End(root_span);
      return rec;
    }
    rec.queue_s = doc.Get("queue_seconds")->as_double();
    rec.run_s = doc.Get("run_seconds")->as_double();
    rec.lag_s = seen_done - (t0 + rec.queue_s + rec.run_s);
    spans.AddReported("scheduler.queue", root_span, qid, t0, t0 + rec.queue_s);
    spans.AddReported("scheduler.run", root_span, qid, t0 + rec.queue_s,
                      t0 + rec.queue_s + rec.run_s);

    double r0 = NowSeconds();
    s = spans.Begin("serve.result", root_span, qid);
    ok = Call("GET", job + "/result", "", &reply);
    spans.End(s);
    double t2 = NowSeconds();
    spans.End(root_span);
    rec.result_s = t2 - r0;
    rec.latency = t2 - t0;
    rec.result_bytes = static_cast<double>(reply.body.size());
    if (!ok) {
      return rec;
    }

    ScopedSpan decode(spans, "bench.decode", bench_span_, qid);
    std::vector<double> values;
    if (!DecodeValues(reply.body, &values)) {
      return rec;
    }
    rec.ok = true;
    // WCC and PageRank have one oracle answer per run: check now. BFS and
    // SSSP have one per root; their values are parked in the work
    // directory and checked after the measured window.
    GateResult gate;
    if (q.algo == "wcc") {
      gate = CheckExact(values, check_->wcc);
    } else if (q.algo == "pagerank") {
      gate = CheckPageRank(values, check_->rank);
    } else {
      rec.stored = check_->workdir + "/c" + std::to_string(id_) + "-q" + std::to_string(n);
      std::ofstream out(rec.stored, std::ios::binary);
      out.write(reinterpret_cast<const char*>(values.data()),
                static_cast<std::streamsize>(values.size() * sizeof(double)));
      if (!out) {
        gate = {false, "cannot park result in " + rec.stored};
      }
    }
    if (!gate.ok) {
      rec.ok = false;
      std::fprintf(stderr, "gate: client %d %s: %s\n", id_, q.algo.c_str(), gate.detail.c_str());
    }
    return rec;
  }

  int id_;
  int port_;
  QueryPlan plan_;
  const SharedCheck* check_;
  SpanRecorder* rec_;
  uint64_t bench_span_;
  std::atomic<uint64_t>* query_ids_;
  std::vector<QueryRecord> records_;
  std::vector<double> poll_s_;
  uint64_t non2xx_ = 0;
  double finished_at_ = 0;
};

// Gates the parked BFS/SSSP results against per-root oracles on four
// threads, after the measured window; a mismatch clears the record's ok.
void CheckParked(const std::vector<QueryRecord*>& parked, const xstream::ReferenceGraph& g) {
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < parked.size(); i = next.fetch_add(1)) {
      QueryRecord& rec = *parked[i];
      std::vector<double> got(g.num_vertices());
      std::ifstream in(rec.stored, std::ios::binary);
      in.read(reinterpret_cast<char*>(got.data()),
              static_cast<std::streamsize>(got.size() * sizeof(double)));
      GateResult gate;
      if (!in) {
        gate = {false, "parked result " + rec.stored + " is short"};
      } else if (rec.algo == "bfs") {
        gate = CheckExact(got, xstream::ReferenceBfsLevels(g, rec.root));
      } else {
        gate = CheckSssp(got, xstream::ReferenceSssp(g, rec.root));
      }
      std::remove(rec.stored.c_str());
      if (!gate.ok) {
        rec.ok = false;
        std::fprintf(stderr, "gate: %s from %u: %s\n", rec.algo.c_str(), rec.root,
                     gate.detail.c_str());
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

}  // namespace

Outcome RunServeMixed(const RunOptions& opts) {
  SpanRecorder rec(opts.trace);
  uint64_t root = rec.Begin("bench.serve-mixed");

  uint64_t gen = rec.Begin("bench.generate", root);
  xstream::EdgeList edges = PermutedRmat(kServeScale, opts.seed);
  xstream::GraphInfo info = xstream::ScanEdges(edges);
  std::vector<uint32_t> degree(info.num_vertices, 0);
  for (const xstream::Edge& e : edges) {
    ++degree[e.src];
  }
  std::vector<uint32_t> roots;
  for (uint32_t v = 0; v < info.num_vertices; ++v) {
    if (degree[v] > 0) {
      roots.push_back(v);
    }
  }
  std::shuffle(roots.begin(), roots.end(), std::mt19937_64(opts.seed));
  rec.End(gen);

  SharedCheck check;
  check.workdir = opts.workdir;
  {
    ScopedSpan s(rec, "bench.reference", root);
    check.wcc = xstream::ReferenceWcc(edges, info.num_vertices);
    xstream::ReferenceGraph g(edges, info.num_vertices);
    check.rank = xstream::ReferencePageRank(g, static_cast<int>(kServeRankRounds));
  }
  std::printf("graph: RMAT scale %u, %llu vertices, %llu edge records, %zu roots\n",
              kServeScale, static_cast<unsigned long long>(info.num_vertices),
              static_cast<unsigned long long>(info.num_edges), roots.size());

  ResetPeakRss();
  xstream::obs::HttpExporter exporter;
  std::unique_ptr<xstream::serve::GraphService> service;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    xstream::serve::ServiceOptions sopts;
    sopts.threads = kComputeThreads;
    service = std::make_unique<xstream::serve::GraphService>(sopts);
    xstream::serve::GraphSpec spec{kGraph, edges};
    double t0 = NowSeconds();
    {
      ScopedSpan s(rec, "serve.mount", root);
      service->Mount(std::move(spec));
    }
    setup_s.push_back(NowSeconds() - t0);
  }
  if (!exporter.Start(0)) {
    std::fprintf(stderr, "serve-mixed: cannot start the HTTP endpoint\n");
    std::exit(1);
  }
  service->Start(exporter);
  std::printf("service: in-memory, %d threads, port %d, %d clients, poll every %.0f ms\n",
              kComputeThreads, exporter.port(), kClients, kPollInterval * 1e3);

  std::atomic<uint64_t> query_ids{0};
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(c, exporter.port(), &roots, &check,
                                               &rec, root, &query_ids));
  }
  double start = NowSeconds();
  double deadline = start + opts.seconds;
  {
    std::vector<std::thread> threads;
    for (auto& c : clients) {
      threads.emplace_back([&c, deadline] { c->Run(deadline); });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  double finish = start;
  for (auto& c : clients) {
    finish = std::max(finish, c->finished_at());
  }
  double peak_rss_mb = PeakRssMb();
  xstream::SchedulerStats sched = service->scheduler(kGraph)->stats();
  exporter.Stop();
  service->Stop();

  // Gate the parked results, then tally.
  Outcome out;
  uint64_t non2xx = 0;
  std::vector<QueryRecord*> parked;
  std::vector<QueryRecord*> all;
  for (auto& c : clients) {
    non2xx += c->non2xx();
    for (QueryRecord& r : c->records()) {
      all.push_back(&r);
      if (r.ok && !r.stored.empty()) {
        parked.push_back(&r);
      }
    }
  }
  {
    ScopedSpan s(rec, "bench.check", root);
    xstream::ReferenceGraph g(edges, info.num_vertices);
    CheckParked(parked, g);
  }
  std::map<std::string, uint64_t> seen;
  uint64_t repeats = 0;
  std::vector<double> latency;
  std::map<std::string, std::vector<double>> by_algo[2];  // [traced]
  std::vector<double> submit_s, result_s, result_bytes, queue_s, run_s, lag_s, polls;
  for (QueryRecord* r : all) {
    ++out.attempted;
    std::string key = r->algo == "bfs" || r->algo == "sssp"
                          ? r->algo + ":" + std::to_string(r->root)
                          : r->algo;
    repeats += seen[key]++ > 0 ? 1 : 0;
    if (!r->ok) {
      ++out.failed;
      continue;
    }
    latency.push_back(r->latency);
    by_algo[r->traced ? 1 : 0][r->algo].push_back(r->latency);
    submit_s.push_back(r->submit_s);
    result_s.push_back(r->result_s);
    result_bytes.push_back(r->result_bytes);
    queue_s.push_back(r->queue_s);
    run_s.push_back(r->run_s);
    lag_s.push_back(r->lag_s);
    polls.push_back(r->polls);
  }
  double elapsed = finish - start;
  PrintProperty("serve.repeat_frac",
                out.attempted > 0 ? static_cast<double>(repeats) / out.attempted : 0.0,
                "queries repeating an earlier algorithm and parameters");
  std::printf("queries: %llu attempted, %llu failed, %zu correct in %.3f s\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), latency.size(), elapsed);
  for (const auto& [algo, v] : by_algo[0]) {
    std::printf("  %-8s n=%-4zu median %.4f s\n", algo.c_str(), v.size(), Median(v));
  }

  if (!opts.trace) {
    Tail tail = TailOf(latency);
    std::printf("query_tail_s is p%.1f of %zu queries (%zu beyond)\n", tail.percentile,
                tail.samples, tail.beyond);
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("run_s", Median(latency), "s");
    out.Add("peak_rss_mb", peak_rss_mb, "MB");
    out.Add("query_tail_s", tail.value, "s");
    out.Add("queries_per_s", static_cast<double>(latency.size()) / elapsed, "1/s");
    return out;
  }

  // Tracing overhead: per algorithm, traced median over untraced median,
  // weighted by how many queries of each algorithm ran.
  double weighted = 0, weight = 0;
  for (const auto& [algo, traced] : by_algo[1]) {
    auto it = by_algo[0].find(algo);
    if (it == by_algo[0].end() || traced.empty()) {
      continue;
    }
    double n = static_cast<double>(traced.size() + it->second.size());
    weighted += n * (Median(traced) / Median(it->second) - 1.0);
    weight += n;
  }
  std::vector<double> all_polls;
  for (auto& c : clients) {
    all_polls.insert(all_polls.end(), c->poll_seconds().begin(), c->poll_seconds().end());
  }
  LayerMetrics m;
  double scans = static_cast<double>(sched.partition_scans + sched.scans_saved);
  m.scheduler_queue_s = Median(queue_s);
  m.scheduler_job_run_s = Median(run_s);
  m.scheduler_scan_share = scans > 0 ? static_cast<double>(sched.scans_saved) / scans : 0.0;
  m.scheduler_partition_scans = static_cast<double>(sched.partition_scans);
  m.scheduler_rounds = static_cast<double>(sched.rounds_completed);
  m.scheduler_jobs_rejected = static_cast<double>(sched.jobs_rejected);
  m.serve_submit_s = Median(submit_s);
  m.serve_poll_s = Median(all_polls);
  m.serve_result_s = Median(result_s);
  m.serve_result_bytes = Median(result_bytes);
  m.serve_completion_lag_s = Median(lag_s);
  m.serve_polls_per_query = Median(polls);
  m.serve_http_non2xx = static_cast<double>(non2xx);
  m.trace_overhead_frac = weight > 0 ? weighted / weight : 0.0;
  rec.End(root);
  std::printf("tracing overhead: %+.2f%% (traced vs untraced query medians per algorithm)\n",
              100.0 * m.trace_overhead_frac);
  AddLayerMetrics(m, &out);
  rec.WriteChromeTrace(opts.trace_path, opts.workload, opts.seed, m.trace_overhead_frac);
  return out;
}

}  // namespace perfbench
