// e2e_bench — wall-clock benchmark of the real-thread cluster stack.
//
// Builds client -> cjdbc::Controller -> ApuamaEngine (SVP dispatch,
// consistency barrier, composition) -> node engine::Database in one
// process (TPC-H SF 0.01, 4 nodes, default ApuamaOptions) and drives it
// from closed-loop client threads for a fixed time:
//
//   olap_streams   3 clients, seeded permutations of the paper's 8 queries
//   mixed_refresh  the same 3 readers + 1 writer looping RF1/RF2
//   point_lookup   4 clients, seeded primary-key lookups on 4 tables
//
//   e2e_bench --workload W --seed N --seconds S --trace 0|1
//             [--out DIR] [--commit SHA]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, replays sampled requests through each
// layer's entry points, writes the spans to DIR and prints the
// per-layer metrics. Every answer is checked; the last stdout line is
// one JSON object {correct, attempted, failed, metrics}. Exit status is
// non-zero on a wrong answer or a failed set-up check.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apuama/apuama_engine.h"
#include "apuama/result_composer.h"
#include "apuama/svp_rewriter.h"
#include "cjdbc/controller.h"
#include "obs/trace.h"
#include "requests.h"
#include "spans.h"
#include "sql/parser.h"
#include "stats.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/refresh.h"
#include "tpch/tpch_catalog.h"

namespace apuama::e2e {
namespace {

constexpr double kScaleFactor = 0.01;
constexpr int kNodes = 4;
// Set-up is repeated and its median reported: one set-up is too short
// and too noisy to compare across commits.
constexpr int kSetupReps = 3;
// Orders per RF1/RF2 loop: 4 statements each (order, lines, delete
// lines, delete order).
constexpr int64_t kRefreshOrders = 10;
// Refresh passes run with no reader: 800 statements, about 1 s.
constexpr uint64_t kSoloWriteLoops = 20;
// Traced run: replay every n-th request of a client.
constexpr uint64_t kOlapSampleEvery = 4;
constexpr uint64_t kLookupSampleEvery = 32;
// Probe of the classes a workload does not issue itself, so every
// per-layer metric is measured on every workload.
constexpr int kProbeOlapReps = 3;
constexpr int kProbeLookups = 256;
constexpr double kTolerance = 1e-6;

struct Options {
  Workload workload = Workload::kOlapStreams;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
};

double SecondsSince(int64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) / 1e9;
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// ---------------------------------------------------------------------------
// The cluster under test
// ---------------------------------------------------------------------------

struct Cluster {
  // Declaration order is destruction order reversed: the controller
  // goes first, the generated data last.
  std::unique_ptr<tpch::TpchData> data;
  std::unique_ptr<cjdbc::ReplicaSet> replicas;
  std::unique_ptr<ApuamaEngine> engine;
  std::unique_ptr<cjdbc::Controller> controller;
  int64_t refresh_first_key = 0;
  uint64_t seed = 0;
  LookupDomain domain;
  std::map<int, engine::QueryResult> reference;  // by TPC-H query number
};

struct SetupTimes {
  double total_s = 0;
  double gen_s = 0;
  double load_s = 0;
};

/// Each of the 8 queries once through the controller (plan cache,
/// column chunks).
Status WarmUp(Cluster* c) {
  for (int q : tpch::PaperQueryNumbers()) {
    auto r = c->controller->Execute(OlapRequest(q).sql);
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

/// dbgen, replica load, engine + controller, warm-up.
Result<SetupTimes> BuildCluster(uint64_t seed, Cluster* c) {
  SetupTimes t;
  const int64_t t0 = NowNs();
  c->data = std::make_unique<tpch::TpchData>(
      tpch::DbgenOptions{.scale_factor = kScaleFactor});
  t.gen_s = SecondsSince(t0);
  const int64_t t1 = NowNs();
  c->replicas = std::make_unique<cjdbc::ReplicaSet>(
      kNodes, cjdbc::ReplicaSet::NodeOptions{});
  APUAMA_RETURN_NOT_OK(c->data->LoadIntoReplicas(c->replicas.get()));
  t.load_s = SecondsSince(t1);
  // The partition domain ends exactly at the refresh stream's highest
  // key: a wider headroom shifts every interval right and leaves the
  // real keys to the first node.
  const int64_t first_key = c->data->max_orderkey() + 1;
  const int64_t headroom =
      tpch::RefreshStreamMaxKey(first_key, kRefreshOrders) -
      c->data->max_orderkey();
  c->engine = std::make_unique<ApuamaEngine>(
      c->replicas.get(), tpch::MakeTpchCatalog(*c->data, headroom),
      ApuamaOptions());
  c->controller = std::make_unique<cjdbc::Controller>(
      std::make_unique<ApuamaDriver>(c->engine.get()));
  APUAMA_RETURN_NOT_OK(WarmUp(c));
  t.total_s = SecondsSince(t0);
  c->refresh_first_key = first_key;
  c->seed = seed;
  c->domain.rows.clear();
  for (const LookupTable& lt : LookupTables()) {
    c->domain.rows.push_back(
        static_cast<int64_t>(c->data->table(lt.table).size()));
  }
  return t;
}

bool ValuesClose(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.type() == ValueType::kDouble || b.type() == ValueType::kDouble) {
    auto da = a.AsDouble();
    auto db = b.AsDouble();
    if (!da.ok() || !db.ok()) return false;
    const double scale = std::max({1.0, std::fabs(*da), std::fabs(*db)});
    return std::fabs(*da - *db) <= kTolerance * scale;
  }
  return a.Compare(b) == 0;
}

bool RowsClose(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ValuesClose(a[i], b[i])) return false;
  }
  return true;
}

/// Equal as multisets of rows up to floating-point tolerance (Q3 and
/// Q21 order by columns with ties).
bool SameResult(const engine::QueryResult& expected,
                const engine::QueryResult& actual) {
  if (expected.num_columns() != actual.num_columns() ||
      expected.num_rows() != actual.num_rows()) {
    return false;
  }
  auto cmp = [](const Row& x, const Row& y) {
    for (size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
      int c = x[i].Compare(y[i]);
      if (c != 0) return c < 0;
    }
    return x.size() < y.size();
  };
  std::vector<Row> e = expected.rows, a = actual.rows;
  std::sort(e.begin(), e.end(), cmp);
  std::sort(a.begin(), a.end(), cmp);
  for (size_t i = 0; i < e.size(); ++i) {
    if (!RowsClose(e[i], a[i])) return false;
  }
  return true;
}

/// Set-up checks, run once on the kept cluster: dense lookup keys, the
/// single-node reference answers, and the SVP-balance guard.
Status CheckCluster(Cluster* c) {
  for (const LookupTable& lt : LookupTables()) {
    const auto& rows = c->data->table(lt.table);
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].empty() || rows[i][0].type() != ValueType::kInt64 ||
          rows[i][0].int_val() != static_cast<int64_t>(i + 1)) {
        return Status::Internal(std::string("keys of ") + lt.table +
                                " are not dense 1..n");
      }
    }
  }
  // Reference: the same SQL on one replica, intra-query parallelism
  // bypassed.
  for (int q : tpch::PaperQueryNumbers()) {
    auto r = c->engine->processor(0)->Execute(OlapRequest(q).sql);
    if (!r.ok()) return r.status();
    c->reference[q] = std::move(r).value();
  }
  // SVP-balance guard: every sub-query of every query must scan tuples
  // (an interval holding no real keys turns SVP into one node's work).
  SvpRewriter rewriter(c->engine->data_catalog());
  for (int q : tpch::PaperQueryNumbers()) {
    auto parsed = sql::ParseSelect(OlapRequest(q).sql);
    if (!parsed.ok()) return parsed.status();
    auto plan = rewriter.Rewrite(**parsed);
    if (!plan.ok()) return plan.status();
    std::string scanned;
    auto intervals = plan->MakeIntervals(kNodes);
    for (size_t i = 0; i < intervals.size(); ++i) {
      auto r = c->engine->processor(static_cast<int>(i))
                   ->ExecuteSubquery(plan->SubquerySql(intervals[i].first,
                                                       intervals[i].second));
      if (!r.ok()) return r.status();
      scanned += " " + std::to_string(r->stats.tuples_scanned);
      if (r->stats.tuples_scanned == 0) {
        return Status::Internal(
            "SVP-balance guard: Q" + std::to_string(q) + " sub-query " +
            std::to_string(i) + " scans no tuples (interval [" +
            std::to_string(intervals[i].first) + ", " +
            std::to_string(intervals[i].second) + "))");
      }
    }
    std::fprintf(stderr, "svp guard Q%d: tuples scanned per sub-query%s\n",
                 q, scanned.c_str());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Answer checks
// ---------------------------------------------------------------------------

size_t ClassIndex(const Request& req) {
  const auto& qs = tpch::PaperQueryNumbers();
  if (req.query != 0) {
    return static_cast<size_t>(std::find(qs.begin(), qs.end(), req.query) -
                               qs.begin());
  }
  for (size_t i = 0; i < LookupTables().size(); ++i) {
    if (req.table == LookupTables()[i].table) return i;
  }
  return 0;
}

std::vector<std::string> ClassNames(bool olap) {
  std::vector<std::string> out;
  if (olap) {
    for (int q : tpch::PaperQueryNumbers()) out.push_back("Q" + std::to_string(q));
  } else {
    for (const LookupTable& lt : LookupTables()) out.push_back(lt.table);
  }
  return out;
}

/// True when `r` is the right answer to `req`. Reads racing the
/// refresh writer see refresh rows, so `exact` = false only checks the
/// answer's shape; the full check then runs after the writer stops.
bool CheckRead(const Cluster& c, const Request& req,
               const Result<engine::QueryResult>& r, bool exact) {
  if (!r.ok()) return false;
  if (req.query != 0) {
    const engine::QueryResult& ref = c.reference.at(req.query);
    if (!exact) return r->num_columns() == ref.num_columns();
    return SameResult(ref, *r);
  }
  if (r->num_rows() != 1) return false;
  const Row& expected =
      c.data->table(req.table)[static_cast<size_t>(req.key - 1)];
  return RowsClose(expected, r->rows[0]);
}

// ---------------------------------------------------------------------------
// Counters (cumulative program counters, read as deltas)
// ---------------------------------------------------------------------------

struct Counters {
  uint64_t plan_hits = 0, plan_misses = 0, svp_queries = 0,
           partial_rows = 0, svp_retries = 0, columnar_rebuilds = 0,
           columnar_chunks = 0, passthrough_reads = 0;
  uint64_t ctl_writes = 0, broadcast_statements = 0;
  uint64_t svp_waits = 0, writes_blocked = 0, logical_writes = 0;
  std::vector<uint64_t> node_statements;

  static Counters Read(Cluster& c) {
    Counters k;
    const ApuamaStats& s = c.engine->stats();
    k.plan_hits = s.plan_cache_hits;
    k.plan_misses = s.plan_cache_misses;
    k.svp_queries = s.svp_queries;
    k.partial_rows = s.partial_rows_total;
    k.svp_retries = s.svp_retries;
    k.columnar_rebuilds = s.columnar_rebuilds;
    k.columnar_chunks = s.columnar_chunks;
    k.passthrough_reads = s.passthrough_reads;
    k.ctl_writes = c.controller->stats().writes;
    k.broadcast_statements = c.controller->stats().broadcast_statements;
    k.svp_waits = c.engine->consistency()->svp_waits();
    k.writes_blocked = c.engine->consistency()->writes_blocked();
    k.logical_writes = c.engine->consistency()->logical_writes();
    for (int i = 0; i < kNodes; ++i) {
      k.node_statements.push_back(c.engine->processor(i)->statements_executed());
    }
    return k;
  }

  Counters Minus(const Counters& b) const {
    Counters d = *this;
    d.plan_hits -= b.plan_hits;
    d.plan_misses -= b.plan_misses;
    d.svp_queries -= b.svp_queries;
    d.partial_rows -= b.partial_rows;
    d.svp_retries -= b.svp_retries;
    d.columnar_rebuilds -= b.columnar_rebuilds;
    d.columnar_chunks -= b.columnar_chunks;
    d.passthrough_reads -= b.passthrough_reads;
    d.ctl_writes -= b.ctl_writes;
    d.broadcast_statements -= b.broadcast_statements;
    d.svp_waits -= b.svp_waits;
    d.writes_blocked -= b.writes_blocked;
    d.logical_writes -= b.logical_writes;
    for (size_t i = 0; i < d.node_statements.size(); ++i) {
      d.node_statements[i] -= b.node_statements[i];
    }
    return d;
  }
};

// ---------------------------------------------------------------------------
// Traced replay
// ---------------------------------------------------------------------------

/// Replays fresh requests of `req`'s class through the layers inside
/// Controller::Execute, from the outermost inward, recording one span
/// per call under the request's root span.
void ReplayLayers(Cluster& c, const Request& req, RequestStream* fresh,
                  SpanLog* log, uint64_t request, uint64_t root, int node) {
  const std::string& cls = req.cls;
  {
    Request r = fresh->FreshLike(req);
    const int64_t t = NowNs();
    auto parsed = sql::Parse(r.sql);
    log->Record("sql.parse", cls, root, request, t, NowNs());
  }
  uint64_t read_span = 0;
  {
    Request r = fresh->FreshLike(req);
    const int64_t t = NowNs();
    auto result = c.engine->ExecuteRead(node, r.sql);
    read_span = log->Record("apuama.read", cls, root, request, t, NowNs());
  }
  Request r = fresh->FreshLike(req);
  if (req.query == 0) {
    const int64_t t = NowNs();
    auto result = c.engine->processor(node)->Execute(r.sql);
    log->Record("engine.passthrough", cls, read_span, request, t, NowNs());
    return;
  }
  auto parsed = sql::ParseSelect(r.sql);
  if (!parsed.ok()) return;
  SvpRewriter rewriter(c.engine->data_catalog());
  int64_t t = NowNs();
  auto plan = rewriter.Rewrite(**parsed);
  // The plan cache serves the rewrite on the request path, so this
  // span sits beside ExecuteRead rather than inside it.
  log->Record("apuama.rewrite", cls, read_span, request, t, NowNs(),
              /*nested=*/false);
  if (!plan.ok()) return;
  auto intervals = plan->MakeIntervals(kNodes);
  std::vector<std::string> subs;
  for (const auto& [lo, hi] : intervals) subs.push_back(plan->SubquerySql(lo, hi));
  const size_t n = subs.size();
  std::vector<std::optional<Result<engine::QueryResult>>> partials(n);
  std::vector<int64_t> start(n, 0), end(n, 0);
  {
    std::vector<std::thread> workers;
    for (size_t i = 0; i < n; ++i) {
      workers.emplace_back([&, i] {
        start[i] = NowNs();
        partials[i] =
            c.engine->processor(static_cast<int>(i))->ExecuteSubquery(subs[i]);
        end[i] = NowNs();
      });
    }
    for (auto& w : workers) w.join();
  }
  for (size_t i = 0; i < n; ++i) {
    log->Record("engine.subquery", cls, read_span, request, start[i], end[i]);
  }
  t = NowNs();
  StreamingComposition sink(plan->merge_program(), plan->composition_sql());
  for (auto& p : partials) {
    if (p->ok()) (void)sink.Add(std::move(**p));
  }
  CompositionStats cstats;
  auto composed = sink.Finish(&cstats);
  log->Record("apuama.compose", cls, read_span, request, t, NowNs());
}

// ---------------------------------------------------------------------------
// Closed-loop read phase
// ---------------------------------------------------------------------------

struct ReadPhase {
  int64_t start_ns = 0;
  int64_t end_ns = 0;  // last reader done
  uint64_t reads = 0;
  uint64_t failed = 0;
  std::vector<std::vector<double>> lat_ms;  // by class index
  engine::ExecStats stats;                  // summed over reads
  std::vector<SpanRecord> spans;
  std::vector<std::string> errors;

  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
  double qps() const { return static_cast<double>(reads) / seconds(); }
};

struct TraceSetup {
  std::vector<RequestStream>* replay = nullptr;  // one per client
  uint64_t sample_every = 1;
};

/// Runs the readers for `seconds`: each client issues its next request
/// when the previous one has returned, until the deadline.
ReadPhase RunReaders(Cluster& c, std::vector<RequestStream>* streams,
                     size_t classes, double seconds, bool exact,
                     const TraceSetup* trace) {
  const size_t n = streams->size();
  std::vector<ReadPhase> out(n);  // one per client
  std::vector<SpanLog> logs;
  ReadPhase phase;
  phase.start_ns = NowNs();
  phase.lat_ms.resize(classes);
  const int64_t deadline =
      phase.start_ns + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0; i < n; ++i) {
    out[i].lat_ms.resize(classes);
    logs.emplace_back((static_cast<uint64_t>(i) + 1) << 40);
  }
  std::vector<std::thread> clients;
  for (size_t i = 0; i < n; ++i) {
    clients.emplace_back([&, i] {
      ReadPhase& o = out[i];
      SpanLog& log = logs[i];
      RequestStream& stream = (*streams)[i];
      uint64_t count = 0;
      while (NowNs() < deadline) {
        Request req = stream.Next();
        const bool traced = trace != nullptr && count % trace->sample_every == 0;
        const int64_t t0 = NowNs();
        auto r = c.controller->Execute(req.sql);
        const int64_t t1 = NowNs();
        if (traced) {
          const uint64_t request = log.NewRequest();
          const uint64_t root =
              log.Record("cjdbc.execute", req.cls, 0, request, t0, t1);
          const int node = static_cast<int>((i + count / trace->sample_every) %
                                            static_cast<uint64_t>(kNodes));
          ReplayLayers(c, req, &(*trace->replay)[i], &log, request, root,
                       node);
        }
        ++count;
        ++o.reads;
        o.lat_ms[ClassIndex(req)].push_back(NsToMs(t1 - t0));
        if (r.ok()) o.stats += r->stats;
        if (!CheckRead(c, req, r, exact)) {
          ++o.failed;
          if (o.errors.size() < 3) {
            o.errors.push_back(req.cls + ": " +
                               (r.ok() ? std::string("wrong answer")
                                       : r.status().ToString()));
          }
        }
      }
      o.end_ns = NowNs();
    });
  }
  for (auto& t : clients) t.join();
  for (size_t i = 0; i < n; ++i) {
    const ReadPhase& o = out[i];
    phase.end_ns = std::max(phase.end_ns, o.end_ns);
    phase.reads += o.reads;
    phase.failed += o.failed;
    phase.stats += o.stats;
    for (size_t k = 0; k < classes; ++k) {
      phase.lat_ms[k].insert(phase.lat_ms[k].end(), o.lat_ms[k].begin(),
                             o.lat_ms[k].end());
    }
    phase.spans.insert(phase.spans.end(), logs[i].spans().begin(),
                       logs[i].spans().end());
    phase.errors.insert(phase.errors.end(), o.errors.begin(), o.errors.end());
  }
  return phase;
}

// ---------------------------------------------------------------------------
// Refresh writes
// ---------------------------------------------------------------------------

struct WriteSample {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct WriteLog {
  std::vector<WriteSample> samples;
  uint64_t failed = 0;
  std::vector<std::string> errors;
};

/// Runs the `loop`-th insert-then-delete pass of the refresh stream
/// through the controller: the same keys every pass, rows from a
/// per-pass seed (write costs average over many orders, not over one
/// seed's ten). Every statement must change at least one row.
void RunRefreshLoop(Cluster& c, uint64_t loop, WriteLog* log) {
  for (const auto& stmt :
       tpch::MakeRefreshStream(c.refresh_first_key, kRefreshOrders,
                               RefreshLoopSeed(c.seed, loop))) {
    WriteSample s;
    s.start_ns = NowNs();
    auto r = c.controller->Execute(stmt.sql);
    s.end_ns = NowNs();
    log->samples.push_back(s);
    if (r.ok() && r->stats.rows_affected > 0) continue;
    ++log->failed;
    if (log->errors.size() < 3) {
      log->errors.push_back(r.ok() ? "refresh statement changed no rows: " +
                                         stmt.sql
                                   : r.status().ToString());
    }
  }
}

/// The mixed_refresh writer: loops the refresh stream until told to
/// stop, always finishing the pass it is in (so every inserted order is
/// deleted again).
class RefreshWriter {
 public:
  explicit RefreshWriter(Cluster* c) : c_(c) {
    thread_ = std::thread([this] {
      for (uint64_t loop = 0; !stop_; ++loop) RunRefreshLoop(*c_, loop, &log_);
    });
  }
  ~RefreshWriter() { StopAndJoin(); }
  RefreshWriter(const RefreshWriter&) = delete;
  RefreshWriter& operator=(const RefreshWriter&) = delete;

  void StopAndJoin() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after StopAndJoin().
  const WriteLog& log() const { return log_; }

 private:
  Cluster* c_;
  std::atomic<bool> stop_{false};
  WriteLog log_;
  std::thread thread_;  // last: starts after the members it uses
};

/// Refresh passes with no reader running.
WriteLog SoloWrites(Cluster& c) {
  WriteLog log;
  for (uint64_t loop = 0; loop < kSoloWriteLoops; ++loop) {
    RunRefreshLoop(c, loop, &log);
  }
  return log;
}

// ---------------------------------------------------------------------------
// Outcome of a run: checks and metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    errors.push_back(what);
  }
  void AddReads(const ReadPhase& p) {
    attempted += p.reads;
    failed += p.failed;
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
  }
  void AddWrites(const WriteLog& w) {
    attempted += w.samples.size();
    failed += w.failed;
    errors.insert(errors.end(), w.errors.begin(), w.errors.end());
  }
};

/// After the run: replicas must agree, the refresh rows must be gone,
/// and the 8 queries must again equal the single-node reference.
void FinalChecks(Cluster& c, Outcome* out) {
  out->Check(c.engine->ReplicasConsistent(), "replicas not consistent");
  for (const char* table : {"orders", "lineitem"}) {
    auto r = c.controller->Execute(std::string("select count(*) from ") + table);
    out->Check(r.ok() && r->num_rows() == 1 &&
                   r->rows[0][0].int_val() ==
                       static_cast<int64_t>(c.data->table(table).size()),
               std::string("refresh rows left in ") + table);
  }
  for (int q : tpch::PaperQueryNumbers()) {
    Request req = OlapRequest(q);
    out->Check(CheckRead(c, req, c.controller->Execute(req.sql), /*exact=*/true),
               "final " + req.cls + " differs from the reference");
  }
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

std::vector<double> LatenciesMs(const std::vector<WriteSample>& samples) {
  std::vector<double> out;
  for (const auto& s : samples) out.push_back(NsToMs(s.end_ns - s.start_ns));
  return out;
}

struct WriteStats {
  double tps = 0;
  double p50_ms = 0;
  double p95_ms = 0;
};

WriteStats SummarizeWrites(const std::vector<WriteSample>& samples,
                           double seconds) {
  std::vector<double> lat = LatenciesMs(samples);
  return {static_cast<double>(samples.size()) / seconds, Percentile(&lat, 50),
          Percentile(&lat, 95)};
}


/// Per-layer time metrics derived from one set of spans. Only metrics
/// with samples are set.
std::map<std::string, double> SpanMetrics(const std::vector<SpanRecord>& spans,
                                          double* unattributed_share) {
  std::map<std::string, double> m;
  std::map<std::string, std::vector<double>> by_name;
  std::map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::string key = s.name == "engine.subquery"
                                ? "engine.subquery_us." + s.cls
                                : s.name + "_us";
    by_name[key].push_back(NsToUs(s.duration_ns()));
    if (s.parent != 0) children[s.parent].push_back(i);
  }
  for (const auto& [name, v] : by_name) m[name] = Median(v);
  // Differences between a span and its children, per request.
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::vector<double> cjdbc_self, skew, overhead;
  double root_total = 0, root_self = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.name == "cjdbc.execute") {
      root_total += static_cast<double>(s.duration_ns());
      root_self += static_cast<double>(self[i]);
      for (size_t k : children[s.id]) {
        if (spans[k].name == "apuama.read") {
          cjdbc_self.push_back(NsToUs(s.duration_ns() - spans[k].duration_ns()));
        }
      }
    } else if (s.name == "apuama.read") {
      int64_t fastest = std::numeric_limits<int64_t>::max(), slowest = 0;
      int64_t compose = 0;
      for (size_t k : children[s.id]) {
        if (spans[k].name == "engine.subquery") {
          fastest = std::min(fastest, spans[k].duration_ns());
          slowest = std::max(slowest, spans[k].duration_ns());
        } else if (spans[k].name == "apuama.compose") {
          compose = spans[k].duration_ns();
        }
      }
      if (slowest > 0) {
        skew.push_back(static_cast<double>(slowest) /
                       static_cast<double>(std::max<int64_t>(fastest, 1)));
        overhead.push_back(NsToUs(s.duration_ns() - slowest - compose));
      }
    }
  }
  if (!cjdbc_self.empty()) m["cjdbc.self_us"] = Median(cjdbc_self);
  if (!skew.empty()) m["apuama.subquery_skew"] = Median(skew);
  if (!overhead.empty()) m["apuama.dispatch_overhead_us"] = Median(overhead);
  if (unattributed_share != nullptr) {
    *unattributed_share = root_total > 0 ? root_self / root_total : 0;
  }
  return m;
}

double BackendShareMax(const Counters& d) {
  uint64_t total = 0, max = 0;
  for (uint64_t v : d.node_statements) {
    total += v;
    max = std::max(max, v);
  }
  return Ratio(max, total);
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct RunContext {
  Options options;
  Cluster* cluster = nullptr;
  std::vector<double> setup_s, gen_s, load_s;  // one per set-up
  std::vector<WriteLog> solo;  // refresh stream alone, one per set-up
  uint64_t chunks_after_setup = 0;
  std::vector<RequestStream> streams;  // one per read client
  std::vector<RequestStream> replay;   // fresh requests for traced replays

  Workload workload() const { return options.workload; }
  bool olap() const { return IsOlap(options.workload); }
  bool writer() const { return HasWriter(options.workload); }
  size_t classes() const { return ClassNames(olap()).size(); }
};

/// --trace 0: the end-to-end metrics.
void RunTimed(RunContext& ctx, Outcome* out) {
  Cluster& c = *ctx.cluster;
  std::unique_ptr<RefreshWriter> writer;
  if (ctx.writer()) writer = std::make_unique<RefreshWriter>(&c);
  ReadPhase p = RunReaders(c, &ctx.streams, ctx.classes(),
                           ctx.options.seconds, /*exact=*/!ctx.writer(), nullptr);
  out->AddReads(p);
  WriteStats ws;
  size_t writes = 0;
  if (writer) {
    writer->StopAndJoin();  // finishes its insert-then-delete pass
    out->AddWrites(writer->log());
    // Write metrics cover the statements that ran beside the readers.
    std::vector<WriteSample> window;
    for (const auto& s : writer->log().samples) {
      if (s.end_ns <= p.end_ns) window.push_back(s);
    }
    ws = SummarizeWrites(window, p.seconds());
    writes = window.size();
  } else {
    // No writer in this workload: the refresh stream ran alone on each
    // set-up cluster (the cost of a write nobody waits for). Each metric
    // is the median over the clusters: one cluster's memory layout moves
    // solo write latency by about 10%.
    std::vector<double> tps, p50, p95;
    for (const WriteLog& log : ctx.solo) {
      out->AddWrites(log);
      const WriteStats w = SummarizeWrites(
          log.samples,
          NsToMs(log.samples.back().end_ns - log.samples.front().start_ns) / 1e3);
      tps.push_back(w.tps);
      p50.push_back(w.p50_ms);
      p95.push_back(w.p95_ms);
    }
    ws = {Median(tps), Median(p50), Median(p95)};
    writes = ctx.solo.front().samples.size();
  }
  FinalChecks(c, out);

  // Per-class means, not medians: a short query either runs at once or
  // queues behind a long query's sub-queries on the node mutex, so its
  // median flips between the two peaks from run to run.
  std::vector<double> class_means, reads;
  for (const auto& v : p.lat_ms) {
    if (!v.empty()) class_means.push_back(Mean(v));
    reads.insert(reads.end(), v.begin(), v.end());
  }
  out->metrics = {
      {"read_qps", p.qps(), "q/s"},
      {"read_p50_ms", Percentile(&reads, 50), "ms"},
      {"read_p95_ms", Percentile(&reads, 95), "ms"},
      {"read_geomean_ms", GeoMean(class_means), "ms"},
      {"write_tps", ws.tps, "stmt/s"},
      {"write_p50_ms", ws.p50_ms, "ms"},
      {"write_p95_ms", ws.p95_ms, "ms"},
      {"setup_s", Median(ctx.setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  std::printf("workload %s: %llu reads in %.3f s (%ld beyond p95), "
              "%zu writes (%ld beyond p95)%s\n",
              WorkloadName(ctx.workload()),
              static_cast<unsigned long long>(p.reads), p.seconds(),
              SamplesBeyond(static_cast<long>(reads.size()), 95), writes,
              SamplesBeyond(static_cast<long>(writes), 95),
              ctx.writer() ? ""
                           : " per set-up [refresh stream alone; write metrics "
                             "are medians over the set-ups]");
  const auto names = ClassNames(ctx.olap());
  for (size_t k = 0; k < names.size(); ++k) {
    std::printf("  class %-8s n=%zu median_ms=%s mean_ms=%s\n",
                names[k].c_str(), p.lat_ms[k].size(),
                FormatNumber(Median(p.lat_ms[k])).c_str(),
                FormatNumber(Mean(p.lat_ms[k])).c_str());
  }
}

/// --trace 1: the per-layer metrics. The first half of the run is
/// untraced (program counters, baseline throughput); in the second half
/// every n-th request of a client is replayed through the layers under
/// spans. Then, with no reader running, the refresh stream alone and
/// traced requests of the classes the workload does not issue, so every
/// per-layer metric is measured on every workload.
Status RunTraced(RunContext& ctx, Outcome* out) {
  Cluster& c = *ctx.cluster;
  const Options& o = ctx.options;
  const double half = o.seconds / 2;
  std::unique_ptr<RefreshWriter> writer;
  if (ctx.writer()) writer = std::make_unique<RefreshWriter>(&c);
  const Counters k0 = Counters::Read(c);
  ReadPhase a = RunReaders(c, &ctx.streams, ctx.classes(), half, !ctx.writer(),
                           nullptr);
  const Counters k1 = Counters::Read(c);
  TraceSetup ts{&ctx.replay, ctx.olap() ? kOlapSampleEvery : kLookupSampleEvery};
  ReadPhase b = RunReaders(c, &ctx.streams, ctx.classes(), half, !ctx.writer(),
                           &ts);
  if (writer) {
    writer->StopAndJoin();
    out->AddWrites(writer->log());
  }
  out->AddReads(a);
  out->AddReads(b);

  const Counters k2 = Counters::Read(c);
  WriteLog solo = SoloWrites(c);
  out->AddWrites(solo);
  const Counters k3 = Counters::Read(c);
  SpanLog probe_log(uint64_t{255} << 40);
  auto probe_stream = [&](uint64_t stream) {
    const uint64_t s = DeriveSeed(o.seed, stream);
    return ctx.olap() ? RequestStream::Lookup(c.domain, s) : RequestStream::Olap(s);
  };
  RequestStream probe_reqs = probe_stream(kProbeStream);
  RequestStream probe_fresh = probe_stream(kProbeStream + 1);
  const int probes =
      ctx.olap() ? kProbeLookups
                 : kProbeOlapReps * static_cast<int>(tpch::PaperQueryNumbers().size());
  for (int i = 0; i < probes; ++i) {
    Request req = probe_reqs.Next();
    const uint64_t request = probe_log.NewRequest();
    const int64_t t0 = NowNs();
    auto r = c.controller->Execute(req.sql);
    const uint64_t root =
        probe_log.Record("cjdbc.execute", req.cls, 0, request, t0, NowNs());
    ReplayLayers(c, req, &probe_fresh, &probe_log, request, root, i % kNodes);
    out->Check(CheckRead(c, req, r, /*exact=*/true), "probe " + req.cls + " wrong");
  }
  const Counters k4 = Counters::Read(c);
  FinalChecks(c, out);

  std::vector<SpanRecord> spans = b.spans;
  spans.insert(spans.end(), probe_log.spans().begin(), probe_log.spans().end());
  const std::string path = o.out_dir + "/spans-" + WorkloadName(o.workload) +
                           "-seed" + std::to_string(o.seed) + ".jsonl";
  if (!WriteSpans(path, spans, SelfTimesNs(spans))) {
    return Status::Internal("cannot write " + path);
  }
  std::printf("traced run %s: untraced %.3f q/s, traced %.3f q/s; %zu spans "
              "(%zu from the probe) written to %s\n",
              WorkloadName(o.workload), a.qps(), b.qps(), spans.size(),
              probe_log.spans().size(), path.c_str());

  double unattributed = 0;
  std::map<std::string, double> sm = SpanMetrics(b.spans, &unattributed);
  for (const auto& [name, v] : SpanMetrics(probe_log.spans(), nullptr)) {
    sm.emplace(name, v);  // only where the workload gave no sample
  }
  // Counter deltas come from the workload's untraced half (writes: the
  // whole run) unless the workload has none; then from the probe.
  const Counters da = k1.Minus(k0);
  const Counters dw = k2.Minus(k0);
  const Counters dp = k4.Minus(k3);
  const Counters& svp = da.svp_queries > 0 ? da : dp;
  const Counters& pass = da.passthrough_reads > 0 ? da : dp;
  const Counters& wr = dw.logical_writes > 0 ? dw : k3.Minus(k2);
  auto per_read = [&](uint64_t v) { return Ratio(v, a.reads); };
  std::vector<double> solo_us = LatenciesMs(solo.samples);
  for (double& v : solo_us) v *= 1e3;

  out->metrics = {
      {"sql.parse_us", sm["sql.parse_us"], "us"},
      {"cjdbc.execute_us", sm["cjdbc.execute_us"], "us"},
      {"cjdbc.self_us", sm["cjdbc.self_us"], "us"},
      {"cjdbc.backend_share_max", BackendShareMax(pass), "ratio"},
      {"cjdbc.write_fanout", Ratio(wr.broadcast_statements, wr.ctl_writes),
       "nodes/write"},
      {"cjdbc.write_solo_us", Median(solo_us), "us"},
      {"apuama.read_us", sm["apuama.read_us"], "us"},
      {"apuama.plan_cache_hit_ratio",
       Ratio(da.plan_hits, da.plan_hits + da.plan_misses), "ratio"},
      {"apuama.rewrite_us", sm["apuama.rewrite_us"], "us"},
      {"apuama.dispatch_overhead_us", sm["apuama.dispatch_overhead_us"], "us"},
      {"apuama.subquery_skew", sm["apuama.subquery_skew"], "ratio"},
      {"apuama.compose_us", sm["apuama.compose_us"], "us"},
      {"apuama.partial_rows_per_read", Ratio(svp.partial_rows, svp.svp_queries),
       "rows/read"},
      {"apuama.svp_waits_per_read", Ratio(svp.svp_waits, svp.svp_queries),
       "count/read"},
      {"apuama.writes_blocked_per_write",
       Ratio(wr.writes_blocked, wr.logical_writes), "count/write"},
      {"apuama.retries", static_cast<double>(k4.svp_retries), "count"},
  };
  for (int q : tpch::PaperQueryNumbers()) {
    const std::string name = "engine.subquery_us.Q" + std::to_string(q);
    out->metrics.push_back({name, sm[name], "us"});
  }
  const std::vector<Metric> rest = {
      {"engine.passthrough_us", sm["engine.passthrough_us"], "us"},
      {"engine.tuples_scanned", per_read(a.stats.tuples_scanned), "count/read"},
      {"engine.cpu_ops", per_read(a.stats.cpu_ops), "count/read"},
      {"engine.join_probe_rows", per_read(a.stats.join_probe_rows), "count/read"},
      {"engine.vectorized_rows", per_read(a.stats.vectorized_rows), "count/read"},
      {"engine.morsels", per_read(a.stats.morsels), "count/read"},
      {"storage.columnar_rebuilds_per_write",
       Ratio(wr.columnar_rebuilds, wr.logical_writes), "count/write"},
      {"storage.columnar_chunks_built",
       static_cast<double>(ctx.chunks_after_setup), "count"},
      {"tpch.gen_s", Median(ctx.gen_s), "s"},
      {"tpch.load_s", Median(ctx.load_s), "s"},
      {"trace.unattributed_share", unattributed, "ratio"},
      {"trace.traced_qps_ratio", b.qps() / a.qps(), "ratio"},
  };
  out->metrics.insert(out->metrics.end(), rest.begin(), rest.end());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* o) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      auto w = ParseWorkload(val);
      if (!w) return false;
      o->workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      o->seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      o->seconds = std::atof(val.c_str());
      have_seconds = o->seconds > 0;
    } else if (key == "--trace") {
      o->trace = val == "1";
    } else if (key == "--out") {
      o->out_dir = val;
    } else if (key == "--commit") {
      o->commit = val;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && argc % 2 == 1;
}

std::string ProvenanceJson(const Options& o) {
  const int writers = HasWriter(o.workload) ? 1 : 0;
  return "{\"provenance\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": \"" E2E_BUILD_TYPE "\", \"commit\": \"" + o.commit +
         "\", \"scale_factor\": " + FormatNumber(kScaleFactor) +
         ", \"nodes\": " + std::to_string(kNodes) + ", \"workload\": \"" +
         WorkloadName(o.workload) + "\", \"read_clients\": " +
         std::to_string(ReadClients(o.workload)) +
         ", \"write_clients\": " + std::to_string(writers) +
         ", \"seed\": " + std::to_string(o.seed) +
         ", \"seconds\": " + FormatNumber(o.seconds) +
         ", \"trace\": " + (o.trace ? "1" : "0") + "}}";
}

int Run(const Options& o) {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "e2e_bench: refusing to report timings from a build without "
               "optimisation (configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 2;
#endif
  if (obs::Tracer::Global().enabled()) {
    std::fprintf(stderr,
                 "e2e_bench: the program's tracer is on (APUAMA_TRACE is "
                 "set); unset it, timed runs must not pay for it\n");
    return 2;
  }
  RunContext ctx;
  ctx.options = o;
  // Set-up, kSetupReps times; the last cluster is kept.
  std::unique_ptr<Cluster> cluster;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cluster.reset();
    cluster = std::make_unique<Cluster>();
    auto t = BuildCluster(o.seed, cluster.get());
    if (!t.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", t.status().ToString().c_str());
      return 1;
    }
    ctx.setup_s.push_back(t->total_s);
    ctx.gen_s.push_back(t->gen_s);
    ctx.load_s.push_back(t->load_s);
    if (!o.trace && !HasWriter(o.workload)) {
      ctx.solo.push_back(SoloWrites(*cluster));
    }
  }
  // The refresh passes invalidated the column chunks; rebuild them before
  // anything is timed.
  if (Status s = WarmUp(cluster.get()); !s.ok()) {
    std::fprintf(stderr, "warm-up failed: %s\n", s.ToString().c_str());
    return 1;
  }
  ctx.cluster = cluster.get();
  if (Status s = CheckCluster(cluster.get()); !s.ok()) {
    std::fprintf(stderr, "set-up check failed: %s\n", s.ToString().c_str());
    return 1;
  }
  ctx.chunks_after_setup = cluster->engine->stats().columnar_chunks;
  for (uint64_t i = 0; i < static_cast<uint64_t>(ReadClients(o.workload)); ++i) {
    for (auto [list, stream] : {std::pair{&ctx.streams, kClientStream},
                                std::pair{&ctx.replay, kReplayStream}}) {
      const uint64_t s = DeriveSeed(o.seed, stream + i);
      list->push_back(ctx.olap() ? RequestStream::Olap(s)
                                 : RequestStream::Lookup(cluster->domain, s));
    }
  }

  Outcome out;
  if (!o.trace) {
    RunTimed(ctx, &out);
  } else if (Status s = RunTraced(ctx, &out); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("%s\n", ProvenanceJson(o).c_str());
  for (const Metric& m : out.metrics) {
    std::printf("  %-36s %22s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str());
  }
  std::printf("  %-36s %22s %s (%llu failed of %llu attempted)\n", "error_rate",
              FormatNumber(Ratio(out.failed, out.attempted)).c_str(), "ratio",
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (size_t i = 0; i < out.errors.size() && i < 10; ++i) {
    std::printf("  error: %s\n", out.errors[i].c_str());
  }
  std::string json;
  for (const Metric& m : out.metrics) {
    json += std::string(json.empty() ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + FormatNumber(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), json.c_str());
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace apuama::e2e

int main(int argc, char** argv) {
  apuama::e2e::Options o;
  if (!apuama::e2e::ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload olap_streams|mixed_refresh|"
                 "point_lookup --seed N --seconds S --trace 0|1 [--out DIR] "
                 "[--commit SHA]\n");
    return 2;
  }
  return apuama::e2e::Run(o);
}
