// The benchmark's three workloads. Each one generates its tables and its
// statement stream from the run's seed, keeps its own copy of what the
// database should hold, and checks every result against that copy.
#ifndef STAGEDB_PERFBENCH_WORKLOADS_H_
#define STAGEDB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "common/status.h"
#include "server/database.h"

namespace perfbench {

/// SplitMix64: the benchmark's own generator, so inputs depend only on the
/// seed and on this file.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int64_t Uniform(int64_t n) { return static_cast<int64_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// Statement classes, each with its own latency distribution.
enum class OpKind { kPoint, kRange, kUpdate, kInsert, kQuery };
constexpr int kNumOpKinds = 5;

/// One statement of a workload's stream.
struct Op {
  OpKind kind = OpKind::kPoint;
  /// Index into Workload::PreparedSql() sent as EXECUTE, or -1 for QUERY.
  int prepared = -1;
  std::vector<stagedb::catalog::Value> params;
  /// The statement as literal SQL text: what QUERY sends, and what the
  /// in-process replay submits for every op.
  std::string sql;
  /// Operands the result check needs (key, range bounds, delta, template).
  int64_t a = 0, b = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Client connections (one client thread each) the workload asks for.
  virtual int connections() const = 0;
  virtual bool durable() const { return false; }
  /// Options for the database; `wal_path` is only used when durable().
  virtual stagedb::server::DatabaseOptions Options(
      const std::string& wal_path) const = 0;
  /// DDL and bulk INSERTs that build the tables, run through
  /// Database::Execute. Rendered once, before any set-up is timed.
  virtual const std::vector<std::string>& SetupSql() const = 0;
  /// Statements each connection prepares once connected.
  virtual std::vector<std::string> PreparedSql() const = 0;
  /// Forgets everything acknowledged so far (a fresh set-up begins).
  virtual void Reset() {}
  /// Appends one round of `conn`'s statements to `out`. A run always
  /// attempts whole rounds.
  virtual void NextRound(int conn, Rng* rng, std::vector<Op>* out) = 0;
  /// Checks one acknowledged result against the benchmark's own copy of the
  /// data, and folds a write into that copy. Called from `conn`'s thread.
  virtual bool Check(int conn, const Op& op,
                     const stagedb::server::QueryResult& result) = 0;
  /// End-of-run check of the whole database against the benchmark's copy.
  virtual stagedb::Status FinalCheck(stagedb::server::Database* db) {
    (void)db;
    return stagedb::Status::OK();
  }
};

/// The CPUs a run has.
struct Machine {
  /// CPUs the process could use when it started; caps the connections.
  int nproc = 1;
  /// CPUs the run is pinned to; sets the intra-query DOP.
  int cpus = 1;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool small, const Machine& m);

const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // STAGEDB_PERFBENCH_WORKLOADS_H_
