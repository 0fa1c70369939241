// The repository benchmark: drives the staged server's real front door
// (net::NetServer over loopback, reached through net::Client) with one of
// three workloads and prints one JSON result line.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--workdir DIR]
//             [--cpus N]
//   perfbench --selfcheck [--workdir DIR] [--cpus N]
//
// The whole process, server and clients, runs pinned to --cpus CPUs (default
// 1; 0 = all it may use). On a shared VM every cross-CPU hand-off between
// stage threads waits for the woken vCPU, so unpinned wall-clock figures
// follow the host's load; on one CPU they follow the program's CPU cost.
//
// --trace 0 measures the end-to-end metrics: the workload is set up five
// times and each set-up is driven by a closed loop of `connections()` client
// threads for S/5 seconds; the figures are medians over set-ups or over
// windows of about a second. --trace 1 runs one such closed loop for S
// seconds with a span around every client call, then replays the workload's
// statements in process through each layer's public entry points
// (StagedServer::Submit, Database::Execute, frontend::Normalize,
// parser::ParseStatement, optimizer::Planner::Plan, frontend::InstantiatePlan,
// Database::SubmitPlanned) and reads the counters the layers expose. The
// spans are written to DIR as CSV when the run ends.
//
// Every result is checked against the workload's own copy of the data; the
// tpcb_write ledger is checked again after reopening the database from its
// WAL. A wrong result makes "correct" false. See README.md.
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "engine/vacuum_stage.h"
#include "frontend/normalizer.h"
#include "frontend/plan_cache.h"
#include "net/client.h"
#include "net/net_server.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "server/database.h"
#include "server/server.h"
#include "spans.h"
#include "storage/buffer_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using stagedb::Status;
using stagedb::StatusCode;
using stagedb::StatusOr;
using stagedb::engine::StageRuntime;
using stagedb::net::Client;
using stagedb::net::NetServer;
using stagedb::server::Database;
using stagedb::server::QueryResult;

// An untraced run sets the workload up this many times (setup_s is the
// median) and measures each set-up for an equal share of the run.
constexpr int kInstances = 5;
// Each set-up's completions are cut into this many windows of equal count
// (but at least kMinWindowOps each); the other end-to-end figures are medians
// over all windows of the run, so a burst of outside load during a few of
// them, which this kind of shared host shows for seconds at a time, moves
// the figures little.
constexpr int kWindowsPerInstance = 6;
constexpr size_t kMinWindowOps = 20;
// Warm-up, before anything is timed: at least this many rounds per
// connection (every statement template once) and at least this long.
constexpr int kWarmupRounds = 2;
constexpr int64_t kWarmupNs = 500000000;
constexpr int kSampleMs = 10;  // CPU time and RSS sampling period
constexpr int64_t kClientTimeoutMs = 60000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string workdir = ".bench_build/perfbench-data";
  bool selfcheck = false;
  int cpus = 1;  // 0 = every CPU the process may use
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--workdir DIR] [--cpus N]\n"
               "       perfbench --selfcheck [--workdir DIR] [--cpus N]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selfcheck") {
      args.selfcheck = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--cpus") {
      args.cpus = std::atoi(value.c_str());
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!args.selfcheck &&
      (args.workload.empty() || args.seconds < 1 ||
       (args.trace != 0 && args.trace != 1))) {
    Usage("need --workload, --seconds >= 1 and --trace 0|1");
  }
  if (args.cpus < 0) Usage("--cpus must be 0 or more");
  return args;
}

/// Pins the process to the last `n` CPUs of its affinity mask (CPU 0 usually
/// takes the most interrupts), or leaves it on all of them if `n` is 0 or not
/// less than their number. Call before any thread starts: threads inherit the
/// mask. Returns the CPU counts before and after, or nproc 0 on failure.
Machine PinToCpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {0, 0};
  const int count = CPU_COUNT(&allowed);
  if (n == 0 || n >= count) return {count, count};
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (int cpu = CPU_SETSIZE - 1, left = n; cpu >= 0 && left > 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      --left;
    }
  }
  if (sched_setaffinity(0, sizeof(chosen), &chosen) != 0) return {0, 0};
  return {count, n};
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Current resident set size, from /proc/self/statm.
double RssMb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * (sysconf(_SC_PAGESIZE) / 1048576.0) : 0;
}

int64_t FileSize(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size) : 0;
}

/// Exact percentile (nearest rank) of `v`, which it reorders; 0 if empty.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(p / 100.0 * v.size());
  rank = std::min(rank, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + rank, v.end());
  return v[rank];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ------------------------------------------------------------------ set-up

/// One set-up: the database, its network front door and the connected,
/// prepared clients.
struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<NetServer> server;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::vector<uint64_t>> stmt_ids;  // per connection

  void Close() {
    clients.clear();
    if (server != nullptr) server->Stop();
    server.reset();
    db.reset();
  }
};

StatusOr<std::unique_ptr<Instance>> SetUp(Workload* w,
                                          const std::string& wal_path) {
  w->Reset();
  if (w->durable()) std::remove(wal_path.c_str());
  auto inst = std::make_unique<Instance>();
  auto db = Database::Open(w->Options(wal_path));
  if (!db.ok()) return db.status();
  inst->db = std::move(*db);
  for (const std::string& sql : w->SetupSql()) {
    auto r = inst->db->Execute(sql);
    if (!r.ok()) return r.status();
  }
  stagedb::net::NetServerOptions options;
  auto server = NetServer::Start(inst->db.get(), options);
  if (!server.ok()) return server.status();
  inst->server = std::move(*server);
  for (int c = 0; c < w->connections(); ++c) {
    auto client = Client::Connect("127.0.0.1", inst->server->port(),
                                  kClientTimeoutMs);
    if (!client.ok()) return client.status();
    std::vector<uint64_t> ids;
    for (const std::string& sql : w->PreparedSql()) {
      auto prepared = (*client)->Prepare(sql);
      if (!prepared.ok()) return prepared.status();
      ids.push_back(prepared->stmt_id);
    }
    inst->clients.push_back(std::move(*client));
    inst->stmt_ids.push_back(std::move(ids));
  }
  return inst;
}

// ------------------------------------------------------------- closed loop

/// What one client thread saw.
struct ConnResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
  int64_t aborted = 0;  // failed with kAborted (MVCC write-write conflict)
  std::vector<double> latency_us[kNumOpKinds];
  std::vector<std::pair<int64_t, double>> timeline;
  std::string first_error;

  void Fail(const std::string& what) {
    if (first_error.empty()) first_error = what;
  }
};

struct LoopResult {
  std::vector<ConnResult> conns;
  double seconds = 0;
  int64_t attempted = 0, failed = 0, wrong = 0, aborted = 0;
  std::vector<double> by_kind_us[kNumOpKinds];
  double peak_rss_mb = 0;  // highest resident set sampled while it ran
  int64_t start_ns = 0;
  /// (completion time in ns, latency in µs) of every completed statement,
  /// sorted by time.
  std::vector<std::pair<int64_t, double>> timeline;
  /// (time in ns, process CPU seconds), sampled every kSampleMs.
  std::vector<std::pair<int64_t, double>> cpu;
  std::string first_error;

  int64_t completed() const { return attempted - failed; }
};

/// The id shared by the spans of one statement: the phase (0 = wire loop,
/// 1 = in-process replay), the connection and the statement's sequence number.
int64_t RequestId(int phase, int conn, int64_t seq) {
  return (int64_t{phase} << 56) | (int64_t{conn} << 40) | seq;
}

/// Runs whole rounds of `conn`'s statements over its connection until at
/// least `min_rounds` rounds are done and `deadline_ns` has passed. Closed
/// loop: the next statement is sent only after the previous response.
void ClientLoop(Workload* w, Instance* inst, int conn, Rng rng,
                int64_t min_rounds, int64_t deadline_ns, SpanLog* spans,
                ConnResult* out) {
  Client* client = inst->clients[conn].get();
  const std::vector<uint64_t>& ids = inst->stmt_ids[conn];
  std::vector<Op> round;
  for (int64_t n = 0; n < min_rounds || NowNs() < deadline_ns; ++n) {
    round.clear();
    w->NextRound(conn, &rng, &round);
    for (const Op& op : round) {
      const int64_t request = RequestId(0, conn, out->attempted);
      const int32_t span =
          spans == nullptr ? -1 : spans->Begin("net.roundtrip", request);
      const int64_t start = NowNs();
      auto result = op.prepared >= 0
                        ? client->Execute(ids[op.prepared], op.params)
                        : client->Query(op.sql);
      const int64_t end = NowNs();
      if (spans != nullptr) spans->End(span);
      ++out->attempted;
      if (!result.ok()) {
        ++out->failed;
        if (result.status().code() == StatusCode::kAborted) ++out->aborted;
        out->Fail(op.sql + ": " + result.status().ToString());
        continue;
      }
      out->latency_us[static_cast<int>(op.kind)].push_back((end - start) /
                                                           1e3);
      out->timeline.push_back({end, (end - start) / 1e3});
      if (!w->Check(conn, op, *result)) {
        ++out->wrong;
        out->Fail("wrong result for " + op.sql + ": " + result->ToString());
      }
    }
  }
}

/// Runs every connection's ClientLoop on its own thread, sampling the
/// process's CPU time and resident set meanwhile.
LoopResult RunLoop(Workload* w, Instance* inst, const std::vector<Rng>& rngs,
                   int64_t min_rounds, int64_t deadline_ns,
                   std::vector<SpanLog>* spans) {
  LoopResult res;
  res.conns.resize(w->connections());
  const int64_t start = NowNs();
  res.start_ns = start;
  res.cpu.push_back({start, CpuSeconds()});
  res.peak_rss_mb = RssMb();
  std::atomic<int> running{w->connections()};
  std::vector<std::thread> threads;
  for (int c = 0; c < w->connections(); ++c) {
    SpanLog* log = spans == nullptr ? nullptr : &(*spans)[c];
    threads.emplace_back([&, c, log] {
      ClientLoop(w, inst, c, rngs[c], min_rounds, deadline_ns, log,
                 &res.conns[c]);
      --running;
    });
  }
  while (running.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kSampleMs));
    res.cpu.push_back({NowNs(), CpuSeconds()});
    res.peak_rss_mb = std::max(res.peak_rss_mb, RssMb());
  }
  for (std::thread& t : threads) t.join();
  res.seconds = (NowNs() - start) / 1e9;
  for (ConnResult& c : res.conns) {
    res.attempted += c.attempted;
    res.failed += c.failed;
    res.wrong += c.wrong;
    res.aborted += c.aborted;
    if (res.first_error.empty()) res.first_error = c.first_error;
    res.timeline.insert(res.timeline.end(), c.timeline.begin(),
                        c.timeline.end());
    for (int k = 0; k < kNumOpKinds; ++k) {
      res.by_kind_us[k].insert(res.by_kind_us[k].end(),
                               c.latency_us[k].begin(), c.latency_us[k].end());
    }
  }
  std::sort(res.timeline.begin(), res.timeline.end());
  return res;
}

/// Process CPU seconds at time `t`, interpolated between samples.
double CpuAt(const std::vector<std::pair<int64_t, double>>& samples,
             int64_t t) {
  auto hi = std::lower_bound(samples.begin(), samples.end(),
                             std::make_pair(t, -1.0));
  if (hi == samples.begin()) return samples.front().second;
  if (hi == samples.end()) return samples.back().second;
  auto lo = hi - 1;
  const double f = Ratio(t - lo->first, hi->first - lo->first);
  return lo->second + f * (hi->second - lo->second);
}

/// Per-window figures of one measured loop.
struct Windows {
  std::vector<double> throughput_ops_s, p50_us, cpu_us_per_op;
};

/// Cuts the loop's completions into consecutive windows of equal count and
/// appends each window's figures to `out`.
void AddWindows(const LoopResult& loop, Windows* out) {
  const auto& tl = loop.timeline;
  const size_t per_window =
      std::max(kMinWindowOps, tl.size() / kWindowsPerInstance);
  int64_t prev_t = loop.start_ns;
  for (size_t begin = 0; begin + per_window <= tl.size();
       begin += per_window) {
    const int64_t t = tl[begin + per_window - 1].first;
    std::vector<double> lat;
    for (size_t i = begin; i < begin + per_window; ++i) {
      lat.push_back(tl[i].second);
    }
    const double n = static_cast<double>(per_window);
    out->throughput_ops_s.push_back(Ratio(n, (t - prev_t) / 1e9));
    out->p50_us.push_back(Percentile(lat, 50));
    out->cpu_us_per_op.push_back(
        Ratio((CpuAt(loop.cpu, t) - CpuAt(loop.cpu, prev_t)) * 1e6, n));
    prev_t = t;
  }
}

/// Each connection's statement stream: a generator seeded from the run seed.
std::vector<Rng> StreamRngs(uint64_t seed, int conns, uint64_t phase) {
  std::vector<Rng> rngs;
  for (int c = 0; c < conns; ++c) {
    Rng mix(seed * 1000003 + phase * 101 + c);
    rngs.emplace_back(mix.Next());
  }
  return rngs;
}

// ------------------------------------------------------ in-process replay

/// Latencies (µs) of the replay's timed calls, one vector per call.
struct ReplayResult {
  int64_t ops = 0;
  int64_t wrong = 0;
  int64_t failed = 0;
  std::string first_error;
  std::map<std::string, std::vector<double>> us;
};

/// Replays `conn`'s statements through the layers' public entry points, each
/// statement three ways: through the staged server's lifecycle, through
/// Database::Execute, and decomposed into normalize / parse / plan / plan-
/// cache lookup / instantiate / engine execute. Every result is checked.
void ReplayLoop(Workload* w, Database* db, stagedb::server::StagedServer* srv,
                int conn, Rng rng, int64_t deadline_ns, SpanLog* log,
                ReplayResult* out) {
  stagedb::catalog::Catalog* catalog = db->catalog();
  auto check = [&](const Op& op, const StatusOr<QueryResult>& r,
                   const char* path) {
    if (!r.ok()) {
      ++out->failed;
      if (out->first_error.empty()) {
        out->first_error = std::string(path) + " " + op.sql + ": " +
                           r.status().ToString();
      }
    } else if (!w->Check(conn, op, *r)) {
      ++out->wrong;
      if (out->first_error.empty()) {
        out->first_error = std::string("wrong result via ") + path + " for " +
                           op.sql;
      }
    }
  };
  auto done = [&](const char* name, int32_t span) {
    out->us[name].push_back(log->EndAndGet(span) / 1e3);
  };

  std::vector<Op> round;
  while (NowNs() < deadline_ns) {
    round.clear();
    w->NextRound(conn, &rng, &round);
    for (const Op& op : round) {
      const int64_t request = RequestId(1, conn, out->ops);
      ++out->ops;

      int32_t span = log->Begin("server.submit_await", request, -1);
      StatusOr<QueryResult> lifecycle = srv->Submit(op.sql)->Await();
      done("server.submit_await", span);
      check(op, lifecycle, "StagedServer");

      span = log->Begin("server.db_execute", request, -1);
      StatusOr<QueryResult> direct = db->Execute(op.sql);
      done("server.db_execute", span);
      check(op, direct, "Database::Execute");

      const int32_t root = log->Begin("bench.statement", request, -1);
      span = log->Begin("frontend.normalize", request, root);
      auto norm = stagedb::frontend::Normalize(op.sql);
      done("frontend.normalize", span);

      span = log->Begin("parser.parse", request, root);
      auto stmt = stagedb::parser::ParseStatement(op.sql, catalog->symbols());
      done("parser.parse", span);
      if (stmt.ok()) {
        span = log->Begin("optimizer.plan", request, root);
        stagedb::optimizer::Planner planner(catalog, db->options().planner);
        auto plan = planner.Plan(**stmt);
        done("optimizer.plan", span);
        if (!plan.ok()) check(op, plan.status(), "Planner::Plan");
      } else {
        check(op, stmt.status(), "ParseStatement");
      }

      StatusOr<QueryResult> decomposed = Status::Internal("not executed");
      if (norm.ok()) {
        span = log->Begin("frontend.lookup", request, root);
        auto entry = db->GetOrPlanCached(*norm);
        done("frontend.lookup", span);
        if (entry.ok()) {
          span = log->Begin("frontend.instantiate", request, root);
          auto plan =
              stagedb::frontend::InstantiatePlan(*(*entry)->plan, norm->params);
          done("frontend.instantiate", span);
          if (plan.ok()) {
            span = log->Begin("engine.execute", request, root);
            auto pending = db->SubmitPlanned(plan->get());
            decomposed = pending.ok() ? (*pending)->Await() : pending.status();
            done("engine.execute", span);
          } else {
            decomposed = plan.status();
          }
        } else {
          decomposed = entry.status();
        }
      } else {
        decomposed = norm.status();
      }
      log->End(root);
      check(op, decomposed, "SubmitPlanned");
    }
  }
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Counters read from the layers at one point of the run; the traced run
/// reports the difference across its wire phase.
struct Counters {
  StageRuntime::StatsSnapshot engine;
  NetServer::Stats net;
  stagedb::frontend::PlanCacheStats cache;
  int64_t pool_hits = 0, pool_misses = 0;
  int64_t vacuum_passes = 0, vacuum_reclaimed = 0;
  int64_t wal_bytes = 0;

  static Counters Read(Instance* inst, const std::string& wal_path) {
    Counters c;
    Database* db = inst->db.get();
    c.engine = db->EngineStats();
    c.net = inst->server->GetStats();
    c.cache = db->CacheStats();
    c.pool_hits = db->buffer_pool()->hits();
    c.pool_misses = db->buffer_pool()->misses();
    if (db->vacuum_stage() != nullptr) {
      c.vacuum_passes = db->vacuum_stage()->passes();
      c.vacuum_reclaimed = db->vacuum_stage()->versions_reclaimed();
    }
    c.wal_bytes = db->durable() ? FileSize(wal_path) : 0;
    return c;
  }
};

/// Engine stage statistics merged by stage family ("fscan.t" -> "fscan").
std::map<std::string, StageRuntime::StageStats> ByFamily(
    const StageRuntime::StatsSnapshot& snap) {
  std::map<std::string, StageRuntime::StageStats> out;
  for (const auto& s : snap.stages) {
    const std::string family = s.name.substr(0, s.name.find('.'));
    auto& agg = out[family];
    agg.pops += s.pops;
    agg.parallel_packets += s.parallel_packets;
    agg.wait_micros.Merge(s.wait_micros);
    agg.service_micros.Merge(s.service_micros);
  }
  return out;
}

const char* const kEngineStages[] = {"fscan", "iscan", "qual",   "sort",
                                     "join",  "aggr",  "dml",    "commit",
                                     "vacuum"};
const char* const kServerStages[] = {"connect", "parse", "optimize", "execute",
                                     "disconnect"};

std::vector<Metric> OpMetrics(const LoopResult& loop, int64_t writes,
                              int64_t wal_bytes) {
  auto p = [&](OpKind k, double pct) {
    return Percentile(loop.by_kind_us[static_cast<int>(k)], pct);
  };
  return {
      {"point_p50_us", p(OpKind::kPoint, 50), "us"},
      {"point_p99_us", p(OpKind::kPoint, 99), "us"},
      {"range_p50_us", p(OpKind::kRange, 50), "us"},
      {"update_p50_us", p(OpKind::kUpdate, 50), "us"},
      {"update_p99_us", p(OpKind::kUpdate, 99), "us"},
      {"insert_p50_us", p(OpKind::kInsert, 50), "us"},
      {"query_p50_ms", p(OpKind::kQuery, 50) / 1e3, "ms"},
      {"query_p90_ms", p(OpKind::kQuery, 90) / 1e3, "ms"},
      {"wal_bytes_per_write", Ratio(wal_bytes, writes), "bytes"},
  };
}

std::vector<Metric> LayerMetrics(
    const LoopResult& loop, const Counters& before, const Counters& after,
    const ReplayResult& replay, const StageRuntime::StatsSnapshot& lifecycle,
    const std::map<std::string, int64_t>& self_ns) {
  const double ops = static_cast<double>(loop.completed());
  const int64_t writes =
      static_cast<int64_t>(loop.by_kind_us[int(OpKind::kUpdate)].size() +
                           loop.by_kind_us[int(OpKind::kInsert)].size());
  std::vector<Metric> m =
      OpMetrics(loop, writes, after.wal_bytes - before.wal_bytes);
  auto median = [&](const char* call) {
    auto it = replay.us.find(call);
    return it == replay.us.end() ? 0.0 : Percentile(it->second, 50);
  };
  std::vector<double> wire_us;
  for (const auto& [t, us] : loop.timeline) wire_us.push_back(us);
  const double wire_p50 = Percentile(wire_us, 50);
  const double submit_p50 = median("server.submit_await");
  const double execute_p50 = median("server.db_execute");

  m.push_back({"trace.throughput_ops_s", Ratio(ops, loop.seconds), "ops/s"});
  for (const char* layer :
       {"net", "server", "frontend", "parser", "optimizer", "engine"}) {
    auto it = self_ns.find(layer);
    const double ns = it == self_ns.end() ? 0.0 : it->second;
    const double per = std::string(layer) == "net" ? ops : replay.ops;
    m.push_back({std::string(layer) + ".self_us_per_op", Ratio(ns / 1e3, per),
                 "us"});
  }

  // net
  m.push_back({"net.overhead_p50_us", wire_p50 - submit_p50, "us"});
  m.push_back({"net.bytes_in_per_op",
               Ratio(after.net.bytes_in - before.net.bytes_in, ops), "bytes"});
  m.push_back({"net.bytes_out_per_op",
               Ratio(after.net.bytes_out - before.net.bytes_out, ops),
               "bytes"});
  m.push_back({"net.shed_queries",
               static_cast<double>(after.net.shed_queries -
                                   before.net.shed_queries),
               "count"});

  // server
  m.push_back({"server.lifecycle_p50_us", submit_p50 - execute_p50, "us"});
  std::map<std::string, const StageRuntime::StageStats*> lstages;
  for (const auto& s : lifecycle.stages) lstages[s.name] = &s;
  for (const char* stage : kServerStages) {
    auto it = lstages.find(stage);
    m.push_back({std::string("server.") + stage + ".wait_p50_us",
                 it == lstages.end() ? 0.0 : it->second->wait_micros.Median(),
                 "us"});
  }

  // frontend, parser, optimizer
  const double lookups =
      static_cast<double>((after.cache.hits + after.cache.misses +
                           after.cache.invalidations) -
                          (before.cache.hits + before.cache.misses +
                           before.cache.invalidations));
  m.push_back(
      {"frontend.normalize_p50_us", median("frontend.normalize"), "us"});
  m.push_back({"frontend.lookup_p50_us", median("frontend.lookup"), "us"});
  m.push_back(
      {"frontend.instantiate_p50_us", median("frontend.instantiate"), "us"});
  m.push_back({"frontend.plan_cache_hit_ratio",
               Ratio(after.cache.hits - before.cache.hits, lookups), "ratio"});
  m.push_back(
      {"frontend.plan_cache_lookups_per_op", Ratio(lookups, ops), "count/op"});
  m.push_back({"parser.parse_p50_us", median("parser.parse"), "us"});
  m.push_back({"optimizer.plan_p50_us", median("optimizer.plan"), "us"});

  // engine / exec
  m.push_back({"engine.execute_p50_us", median("engine.execute"), "us"});
  const auto fam_before = ByFamily(before.engine);
  const auto fam_after = ByFamily(after.engine);
  int64_t parallel_packets = 0;
  for (const char* stage : kEngineStages) {
    const auto a = fam_after.find(stage);
    const auto b = fam_before.find(stage);
    const bool has = a != fam_after.end();
    const bool had = b != fam_before.end();
    const int64_t pops =
        (has ? a->second.pops : 0) - (had ? b->second.pops : 0);
    parallel_packets += (has ? a->second.parallel_packets : 0) -
                        (had ? b->second.parallel_packets : 0);
    const std::string prefix = std::string("engine.") + stage;
    m.push_back({prefix + ".wait_p50_us",
                 has ? a->second.wait_micros.Median() : 0.0, "us"});
    m.push_back({prefix + ".service_p50_us",
                 has ? a->second.service_micros.Median() : 0.0, "us"});
    m.push_back({prefix + ".pops_per_op", Ratio(pops, ops), "count/op"});
  }
  m.push_back({"engine.parallel_packets_per_query",
               Ratio(parallel_packets, ops), "count/op"});

  // storage / catalog
  const int64_t hits = after.pool_hits - before.pool_hits;
  const int64_t misses = after.pool_misses - before.pool_misses;
  const auto& gc_a = after.engine.group_commit;
  const auto& gc_b = before.engine.group_commit;
  const int64_t updates = loop.by_kind_us[int(OpKind::kUpdate)].size();
  m.push_back({"storage.page_fetches_per_op", Ratio(hits + misses, ops),
               "count/op"});
  m.push_back({"storage.pool_hit_ratio", Ratio(hits, hits + misses), "ratio"});
  m.push_back({"storage.wal_syncs_per_commit",
               Ratio(gc_a.syncs - gc_b.syncs, gc_a.commits - gc_b.commits),
               "count"});
  m.push_back({"storage.commit_batch_p50", gc_a.batch_size.Median(), "count"});
  m.push_back({"storage.flush_p50_us", gc_a.flush_micros.Median(), "us"});
  m.push_back({"storage.vacuum_reclaimed_per_update",
               Ratio(after.vacuum_reclaimed - before.vacuum_reclaimed, updates),
               "count"});
  m.push_back({"storage.vacuum_passes",
               static_cast<double>(after.vacuum_passes - before.vacuum_passes),
               "count"});
  m.push_back({"storage.mvcc_aborts", static_cast<double>(loop.aborted),
               "count"});
  return m;
}

// -------------------------------------------------------------------- run

struct RunOutput {
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

const int64_t kProcessStart = NowNs();

void Log(const char* format, ...) __attribute__((format(printf, 1, 2)));
void Log(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::fprintf(stderr, "perfbench [%6.1fs]: ",
               (NowNs() - kProcessStart) / 1e9);
  std::vfprintf(stderr, format, args);
  std::fprintf(stderr, "\n");
  va_end(args);
}

/// End-of-run checks: the live database, then (durable workloads) the same
/// database reopened from its WAL alone. Closes `inst`.
bool FinalChecks(Workload* w, Instance* inst) {
  Status live = w->FinalCheck(inst->db.get());
  const auto options = inst->db->options();
  inst->Close();
  if (!live.ok()) {
    Log("final check failed: %s", live.ToString().c_str());
    return false;
  }
  if (!w->durable()) return true;
  auto reopened = Database::Open(options);
  if (!reopened.ok()) {
    Log("reopen from WAL failed: %s", reopened.status().ToString().c_str());
    return false;
  }
  Status recovered = w->FinalCheck(reopened->get());
  if (!recovered.ok()) {
    Log("check after reopening from the WAL failed: %s",
        recovered.ToString().c_str());
    return false;
  }
  return true;
}

/// One set-up of the workload, warmed up and measured.
struct Measured {
  std::unique_ptr<Instance> inst;
  double setup_s = 0;
  LoopResult loop;
  Counters before, after;
  bool correct = true;
};

/// Sets up, warms up, then runs the closed loop for `measure_ns`. Instance
/// `index` draws its own statement streams from the seed.
bool MeasureInstance(Workload* w, const Args& args, int index,
                     const std::string& wal_path, int64_t measure_ns,
                     std::vector<SpanLog>* spans, Measured* m) {
  const int conns = w->connections();
  const int64_t start = NowNs();
  auto inst = SetUp(w, wal_path);
  if (!inst.ok()) {
    Log("set-up failed: %s", inst.status().ToString().c_str());
    return false;
  }
  m->setup_s = (NowNs() - start) / 1e9;
  m->inst = std::move(*inst);
  if (index == 0) {
    Database* db = m->inst->db.get();
    Log("%s: %d connections; the database holds %lld pages, the buffer pool "
        "%zu", w->name(), conns, (long long)db->disk()->num_pages(),
        db->buffer_pool()->capacity());
  }

  // Warm-up: fill caches and finish lazy set-up before anything is timed.
  LoopResult warm = RunLoop(w, m->inst.get(),
                            StreamRngs(args.seed, conns, 10 * index + 1),
                            kWarmupRounds, NowNs() + kWarmupNs, nullptr);
  if (warm.wrong > 0 || warm.failed > 0) {
    Log("warm-up: %s", warm.first_error.c_str());
  }
  m->correct = warm.wrong == 0;
  m->before = Counters::Read(m->inst.get(), wal_path);
  m->loop = RunLoop(w, m->inst.get(),
                    StreamRngs(args.seed, conns, 10 * index + 2), 1,
                    NowNs() + measure_ns, spans);
  m->after = Counters::Read(m->inst.get(), wal_path);
  if (m->loop.wrong > 0 || m->loop.failed > 0) {
    Log("%lld wrong, %lld failed; first: %s", (long long)m->loop.wrong,
        (long long)m->loop.failed, m->loop.first_error.c_str());
  }
  m->correct = m->correct && m->loop.wrong == 0;
  return true;
}

/// The untraced run: kInstances set-ups, each measured for an equal share of
/// the run and checked. setup_s and peak_rss_mb are medians over the set-ups,
/// the other figures medians over all their windows.
bool RunUntraced(Workload* w, const Args& args, const std::string& wal_path,
                 RunOutput* out) {
  const int64_t measure_ns =
      std::max<int64_t>(1000000000, args.seconds * 1000000000LL / kInstances);
  std::vector<double> setup_s, rss;
  Windows win;
  bool correct = true;
  for (int i = 0; i < kInstances; ++i) {
    Measured m;
    if (!MeasureInstance(w, args, i, wal_path, measure_ns, nullptr, &m)) {
      return false;
    }
    out->attempted += m.loop.attempted;
    out->failed += m.loop.failed;
    Log("set-up %d: %.3f s to set up, %lld statements measured", i, m.setup_s,
        (long long)m.loop.attempted);
    setup_s.push_back(m.setup_s);
    rss.push_back(m.loop.peak_rss_mb);
    AddWindows(m.loop, &win);
    correct = FinalChecks(w, m.inst.get()) && m.correct && correct;
  }
  out->correct = correct;
  out->metrics = {
      {"setup_s", Percentile(setup_s, 50), "s"},
      {"throughput_ops_s", Percentile(win.throughput_ops_s, 50), "ops/s"},
      {"cpu_us_per_op", Percentile(win.cpu_us_per_op, 50), "us"},
      {"peak_rss_mb", Percentile(rss, 50), "MB"},
      {"latency_p50_us", Percentile(win.p50_us, 50), "us"},
  };
  return true;
}

/// The traced run: one set-up, the closed loop with a span around every
/// client call, then the in-process replay of the same workload's statements
/// (one thread per connection, through a StagedServer of its own over the
/// same database). Writes the spans and reports the per-layer metrics.
bool RunTraced(Workload* w, const Args& args, const std::string& wal_path,
               RunOutput* out) {
  const int conns = w->connections();
  const int64_t measure_ns = args.seconds * 1000000000LL;
  const int64_t origin = NowNs();
  std::vector<SpanLog> wire_spans(conns);
  Measured m;
  if (!MeasureInstance(w, args, 0, wal_path, measure_ns, &wire_spans, &m)) {
    return false;
  }
  out->attempted = m.loop.attempted;
  out->failed = m.loop.failed;

  ReplayResult total;
  StageRuntime::StatsSnapshot lifecycle;
  std::vector<SpanLog> replay_spans(conns);
  {
    stagedb::server::StagedServer srv(m.inst->db.get());
    std::vector<ReplayResult> replay(conns);
    std::vector<Rng> rngs = StreamRngs(args.seed, conns, 3);
    const int64_t deadline =
        NowNs() + std::max<int64_t>(measure_ns / 3, 1000000000);
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back(ReplayLoop, w, m.inst->db.get(), &srv, c, rngs[c],
                           deadline, &replay_spans[c], &replay[c]);
    }
    for (std::thread& t : threads) t.join();
    lifecycle = srv.runtime().Stats();
    srv.Shutdown(2000);
    for (ReplayResult& r : replay) {
      total.ops += r.ops;
      total.wrong += r.wrong;
      total.failed += r.failed;
      if (total.first_error.empty()) total.first_error = r.first_error;
      for (auto& [call, us] : r.us) {
        auto& dst = total.us[call];
        dst.insert(dst.end(), us.begin(), us.end());
      }
    }
  }
  bool correct = m.correct && total.wrong == 0 && total.failed == 0;
  if (total.wrong > 0 || total.failed > 0) {
    Log("replay: %lld wrong, %lld failed; first: %s", (long long)total.wrong,
        (long long)total.failed, total.first_error.c_str());
  }

  std::vector<const SpanLog*> logs;
  int64_t spans = 0;
  for (const SpanLog& l : wire_spans) logs.push_back(&l);
  for (const SpanLog& l : replay_spans) logs.push_back(&l);
  for (const SpanLog* l : logs) spans += l->spans().size();
  const std::string span_path = args.workdir + "/spans-" + args.workload +
                                "-seed" + std::to_string(args.seed) + ".csv";
  if (WriteSpans(span_path, logs, origin)) {
    Log("wrote %lld spans to %s", (long long)spans, span_path.c_str());
  } else {
    Log("could not write %s", span_path.c_str());
    correct = false;
  }
  out->metrics = LayerMetrics(m.loop, m.before, m.after, total, lifecycle,
                              SelfTimeByLayer(logs));
  out->correct = FinalChecks(w, m.inst.get()) && correct;
  return true;
}

bool Run(const Args& args, bool small, const Machine& machine,
         RunOutput* out) {
  std::unique_ptr<Workload> w =
      MakeWorkload(args.workload, args.seed, small, machine);
  if (w == nullptr) {
    Log("unknown workload '%s'", args.workload.c_str());
    return false;
  }
  const std::string wal_path = args.workdir + "/" + args.workload + "-" +
                               std::to_string(getpid()) + ".wal";
  const bool ran = args.trace ? RunTraced(w.get(), args, wal_path, out)
                              : RunUntraced(w.get(), args, wal_path, out);
  std::remove(wal_path.c_str());
  return ran;
}

int SelfCheck(const Args& args, const Machine& machine) {
  // Every workload, briefly, on small tables, with all of its checks, untraced
  // and traced. One JSON line per run, so run.py can compare metric names.
  bool ok = true;
  for (const std::string& name : WorkloadNames()) {
    for (int trace = 0; trace <= 1; ++trace) {
      Args a = args;
      a.workload = name;
      a.seed = 7;
      a.seconds = 1;
      a.trace = trace;
      RunOutput out;
      const bool ran = Run(a, /*small=*/true, machine, &out);
      const bool pass = ran && out.correct && out.failed == 0;
      Log("selfcheck %s trace=%d: %s (%lld ops)", name.c_str(), trace,
          pass ? "ok" : "FAILED", (long long)out.attempted);
      std::printf("%s %d ", name.c_str(), trace);
      PrintResult(out.correct, out.attempted, out.failed, out.metrics);
      ok = ok && pass;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::signal(SIGPIPE, SIG_IGN);
  const Args args = ParseArgs(argc, argv);
  const Machine machine = PinToCpus(args.cpus);
  if (machine.nproc == 0) {
    Log("cannot set the CPU affinity");
    return 1;
  }
  Log("running on %d of %d CPUs", machine.cpus, machine.nproc);
  for (size_t pos = 0; pos != std::string::npos;) {
    pos = args.workdir.find('/', pos + 1);
    const std::string dir = args.workdir.substr(0, pos);
    if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      Log("cannot create %s", dir.c_str());
      return 1;
    }
  }
  if (args.selfcheck) return SelfCheck(args, machine);
  RunOutput out;
  if (!Run(args, /*small=*/false, machine, &out)) return 1;
  for (const Metric& m : out.metrics) {
    Log("%-40s %14.3f %s", m.name.c_str(), m.value, m.unit.c_str());
  }
  Log("%s: attempted %lld, failed %lld, correct %s", args.workload.c_str(),
      (long long)out.attempted, (long long)out.failed,
      out.correct ? "true" : "false");
  PrintResult(out.correct, out.attempted, out.failed, out.metrics);
  return 0;
}
