#include "workloads.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <numeric>

namespace perfbench {

using stagedb::Status;
using stagedb::catalog::TypeId;
using stagedb::catalog::Value;
using stagedb::server::ConcurrencyMode;
using stagedb::server::Database;
using stagedb::server::DatabaseOptions;
using stagedb::server::ExecutionMode;
using stagedb::server::QueryResult;

namespace {

constexpr int64_t kRowsPerInsert = 500;

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

DatabaseOptions BaseOptions() {
  DatabaseOptions options;
  options.mode = ExecutionMode::kStaged;
  options.concurrency = ConcurrencyMode::kSnapshot;
  return options;
}

/// Renders rows as multi-row INSERT statements of kRowsPerInsert rows each.
void AppendInserts(const std::string& table,
                   const std::vector<std::string>& rows,
                   std::vector<std::string>* out) {
  for (size_t i = 0; i < rows.size(); i += kRowsPerInsert) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    const size_t end = std::min(rows.size(), i + kRowsPerInsert);
    for (size_t j = i; j < end; ++j) {
      if (j > i) sql += ", ";
      sql += rows[j];
    }
    out->push_back(std::move(sql));
  }
}

bool IsInt(const Value& v, int64_t expected) {
  return v.type() == TypeId::kInt64 &&
         v.int_value() == expected;
}

/// SUM over integers may come back as an integer or a double.
bool IsSum(const Value& v, int64_t expected) {
  return (v.type() == TypeId::kInt64 ||
          v.type() == TypeId::kDouble) &&
         v.AsDouble() == static_cast<double>(expected);
}

/// A DML statement answers with one row holding the number of rows it
/// changed.
bool ChangedOneRow(const QueryResult& r) {
  return r.rows.size() == 1 && r.rows[0].size() == 1 && IsInt(r.rows[0][0], 1);
}

// ---------------------------------------------------------------- point_read

/// Indexed point and range reads over a table that fits in the buffer pool.
class PointRead : public Workload {
 public:
  PointRead(uint64_t seed, bool small, const Machine& m)
      : rows_(small ? 2000 : 50000), conns_(std::min(4, m.nproc)) {
    Rng rng(seed);
    grp_.resize(rows_);
    val_.resize(rows_);
    name_.resize(rows_);
    for (int64_t id = 0; id < rows_; ++id) {
      grp_[id] = rng.Uniform(100);
      val_[id] = rng.Uniform(1000000);
      std::string name(12, 'a');
      for (char& ch : name) ch = static_cast<char>('a' + rng.Uniform(26));
      name_[id] = std::move(name);
    }
    prefix_.assign(rows_ + 1, 0);
    for (int64_t id = 0; id < rows_; ++id) {
      prefix_[id + 1] = prefix_[id] + val_[id];
    }
    // Rows go into the heap in a shuffled order, so key order and heap order
    // differ and the index does the locating.
    std::vector<int64_t> order(rows_);
    std::iota(order.begin(), order.end(), 0);
    for (int64_t i = rows_ - 1; i > 0; --i) {
      std::swap(order[i], order[rng.Uniform(i + 1)]);
    }
    std::vector<std::string> values;
    values.reserve(rows_);
    for (int64_t id : order) {
      values.push_back(Fmt("(%lld, %lld, %lld, '%s')", (long long)id,
                           (long long)grp_[id], (long long)val_[id],
                           name_[id].c_str()));
    }
    setup_.push_back(
        "CREATE TABLE items (id INTEGER, grp INTEGER, val INTEGER, "
        "name VARCHAR(16))");
    AppendInserts("items", values, &setup_);
    setup_.push_back("CREATE INDEX items_id ON items (id)");
  }

  const char* name() const override { return "point_read"; }
  int connections() const override { return conns_; }
  DatabaseOptions Options(const std::string&) const override {
    return BaseOptions();
  }
  const std::vector<std::string>& SetupSql() const override { return setup_; }
  std::vector<std::string> PreparedSql() const override {
    return {"SELECT id, grp, val, name FROM items WHERE id = ?"};
  }

  void NextRound(int, Rng* rng, std::vector<Op>* out) override {
    for (int i = 0; i < 4; ++i) {
      Op op;
      op.kind = OpKind::kPoint;
      op.prepared = 0;
      op.a = rng->Uniform(rows_);
      op.params = {Value::Int(op.a)};
      op.sql = Fmt("SELECT id, grp, val, name FROM items WHERE id = %lld",
                   (long long)op.a);
      out->push_back(std::move(op));
    }
    Op op;
    op.kind = OpKind::kRange;
    op.a = rng->Uniform(rows_ - kRangeWidth);
    op.b = op.a + kRangeWidth;
    op.sql = Fmt(
        "SELECT COUNT(*), SUM(val) FROM items WHERE id >= %lld AND id < %lld",
        (long long)op.a, (long long)op.b);
    out->push_back(std::move(op));
  }

  bool Check(int, const Op& op, const QueryResult& r) override {
    if (op.kind == OpKind::kPoint) {
      const int64_t id = op.a;
      return r.rows.size() == 1 && r.rows[0].size() == 4 &&
             IsInt(r.rows[0][0], id) && IsInt(r.rows[0][1], grp_[id]) &&
             IsInt(r.rows[0][2], val_[id]) &&
             r.rows[0][3].type() == TypeId::kVarchar &&
             r.rows[0][3].varchar_value() == name_[id];
    }
    return r.rows.size() == 1 && r.rows[0].size() == 2 &&
           IsInt(r.rows[0][0], op.b - op.a) &&
           IsSum(r.rows[0][1], prefix_[op.b] - prefix_[op.a]);
  }

 private:
  static constexpr int64_t kRangeWidth = 100;
  const int64_t rows_;
  const int conns_;
  std::vector<int64_t> grp_, val_, prefix_;
  std::vector<std::string> name_;
  std::vector<std::string> setup_;
};

// ---------------------------------------------------------------- tpcb_write

/// TPC-B-like autocommit writes on a durable database. Connection c owns
/// the accounts whose id % connections == c, so writers never conflict and
/// each thread's shadow ledger entries are its own.
class TpcbWrite : public Workload {
 public:
  TpcbWrite(uint64_t seed, bool small, const Machine& m)
      : accounts_(small ? 400 : 10000), conns_(std::min(4, m.nproc)) {
    Rng rng(seed);
    initial_.resize(accounts_);
    std::vector<std::string> values;
    for (int64_t id = 0; id < accounts_; ++id) {
      initial_[id] = rng.Uniform(100000);
      values.push_back(Fmt("(%lld, %lld, %lld, '%s')", (long long)id,
                           (long long)(id % 10), (long long)initial_[id],
                           std::string(40, 'x').c_str()));
    }
    setup_.push_back(
        "CREATE TABLE accounts (id INTEGER, branch INTEGER, balance INTEGER, "
        "filler VARCHAR(40))");
    AppendInserts("accounts", values, &setup_);
    setup_.push_back("CREATE INDEX accounts_id ON accounts (id)");
    setup_.push_back(
        "CREATE TABLE history (conn INTEGER, seq INTEGER, aid INTEGER, "
        "delta INTEGER)");
    Reset();
  }

  const char* name() const override { return "tpcb_write"; }
  int connections() const override { return conns_; }
  bool durable() const override { return true; }
  DatabaseOptions Options(const std::string& wal_path) const override {
    DatabaseOptions options = BaseOptions();
    options.wal_path = wal_path;  // group commit at its defaults
    return options;
  }
  const std::vector<std::string>& SetupSql() const override { return setup_; }
  std::vector<std::string> PreparedSql() const override {
    return {"UPDATE accounts SET balance = balance + ? WHERE id = ?",
            "INSERT INTO history VALUES (?, ?, ?, ?)",
            "SELECT balance FROM accounts WHERE id = ?"};
  }

  void Reset() override {
    ledger_ = initial_;
    conn_state_.assign(conns_, ConnState{});
  }

  void NextRound(int conn, Rng* rng, std::vector<Op>* out) override {
    const int64_t per_conn = (accounts_ - conn + conns_ - 1) / conns_;
    const int64_t id = rng->Uniform(per_conn) * conns_ + conn;
    const int64_t delta = rng->Uniform(10001) - 5000;
    const int64_t seq = conn_state_[conn].next_seq++;

    Op update;
    update.kind = OpKind::kUpdate;
    update.prepared = 0;
    update.a = id;
    update.b = delta;
    update.params = {Value::Int(delta), Value::Int(id)};
    update.sql =
        Fmt("UPDATE accounts SET balance = balance + %lld WHERE id = %lld",
            (long long)delta, (long long)id);
    out->push_back(std::move(update));

    Op insert;
    insert.kind = OpKind::kInsert;
    insert.prepared = 1;
    insert.a = id;
    insert.b = delta;
    insert.params = {Value::Int(conn), Value::Int(seq), Value::Int(id),
                     Value::Int(delta)};
    insert.sql = Fmt("INSERT INTO history VALUES (%d, %lld, %lld, %lld)", conn,
                     (long long)seq, (long long)id, (long long)delta);
    out->push_back(std::move(insert));

    Op select;
    select.kind = OpKind::kPoint;
    select.prepared = 2;
    select.a = id;
    select.params = {Value::Int(id)};
    select.sql =
        Fmt("SELECT balance FROM accounts WHERE id = %lld", (long long)id);
    out->push_back(std::move(select));
  }

  bool Check(int conn, const Op& op, const QueryResult& r) override {
    switch (op.kind) {
      case OpKind::kUpdate:
        if (!ChangedOneRow(r)) return false;
        ledger_[op.a] += op.b;
        return true;
      case OpKind::kInsert:
        if (!ChangedOneRow(r)) return false;
        ++conn_state_[conn].inserts;
        conn_state_[conn].delta_sum += op.b;
        return true;
      default:
        return r.rows.size() == 1 && r.rows[0].size() == 1 &&
               IsInt(r.rows[0][0], ledger_[op.a]);
    }
  }

  Status FinalCheck(Database* db) override {
    auto balances = db->Execute("SELECT id, balance FROM accounts");
    if (!balances.ok()) return balances.status();
    if (static_cast<int64_t>(balances->rows.size()) != accounts_) {
      return Status::Corruption(Fmt("accounts holds %zu rows, expected %lld",
                                    balances->rows.size(),
                                    (long long)accounts_));
    }
    std::vector<bool> seen(accounts_, false);
    for (const auto& row : balances->rows) {
      const int64_t id = row[0].int_value();
      if (id < 0 || id >= accounts_ || seen[id] ||
          !IsInt(row[1], ledger_[id])) {
        return Status::Corruption(
            Fmt("account %lld: balance %s, ledger %lld", (long long)id,
                row[1].ToString().c_str(),
                (long long)(id >= 0 && id < accounts_ ? ledger_[id] : 0)));
      }
      seen[id] = true;
    }
    int64_t inserts = 0, delta_sum = 0;
    for (const ConnState& s : conn_state_) {
      inserts += s.inserts;
      delta_sum += s.delta_sum;
    }
    auto history = db->Execute("SELECT COUNT(*), SUM(delta) FROM history");
    if (!history.ok()) return history.status();
    if (history->rows.size() != 1 || !IsInt(history->rows[0][0], inserts) ||
        (inserts > 0 && !IsSum(history->rows[0][1], delta_sum))) {
      return Status::Corruption(
          Fmt("history holds %s rows, %lld inserts were acknowledged",
              history->rows.empty() ? "?"
                                    : history->rows[0][0].ToString().c_str(),
              (long long)inserts));
    }
    return Status::OK();
  }

 private:
  struct ConnState {
    int64_t next_seq = 0;
    int64_t inserts = 0;
    int64_t delta_sum = 0;
    char pad[40] = {};  // keep connections' counters off one cache line
  };
  const int64_t accounts_;
  const int conns_;
  std::vector<int64_t> initial_;
  std::vector<int64_t> ledger_;  // element id is written only by id's owner
  std::vector<ConnState> conn_state_;
  std::vector<std::string> setup_;
};

// ------------------------------------------------------------ wisconsin_olap

/// Wisconsin Workload-B joins and GROUP BY aggregations over two tables that
/// together exceed the buffer pool, with intra-query parallelism.
class WisconsinOlap : public Workload {
 public:
  WisconsinOlap(uint64_t seed, bool small, const Machine& m)
      : rows_(small ? 1000 : 10000),
        conns_(std::min(2, m.nproc)),
        dop_(m.cpus) {
    Rng rng(seed);
    a_unique1_ = Permutation(&rng);
    b_unique1_ = Permutation(&rng);
    a_prefix_.assign(rows_ + 1, 0);
    for (int64_t i = 0; i < rows_; ++i) {
      a_prefix_[i + 1] = a_prefix_[i] + a_unique1_[i];
    }
    b_pos_.resize(rows_);
    for (int64_t i = 0; i < rows_; ++i) b_pos_[b_unique1_[i]] = i;
    AddTable("wa", a_unique1_);
    AddTable("wb", b_unique1_);
  }

  const char* name() const override { return "wisconsin_olap"; }
  int connections() const override { return conns_; }
  DatabaseOptions Options(const std::string&) const override {
    DatabaseOptions options = BaseOptions();
    // Each table alone fits; the two together do not (README, "Sizes").
    options.buffer_pool_pages = kPoolPages;
    options.max_dop = dop_;
    options.stage_pools["join"] = {dop_, -1};
    options.stage_pools["aggr"] = {dop_, -1};
    return options;
  }
  const std::vector<std::string>& SetupSql() const override { return setup_; }
  std::vector<std::string> PreparedSql() const override { return {}; }

  void NextRound(int, Rng* rng, std::vector<Op>* out) override {
    Op join;
    join.kind = OpKind::kQuery;
    join.a = 0;
    join.b = 1 + rng->Uniform(rows_);
    join.sql = Fmt(
        "SELECT COUNT(*), SUM(wa.unique1) FROM wa JOIN wb ON wa.unique1 = "
        "wb.unique2 WHERE wa.unique2 < %lld",
        (long long)join.b);
    out->push_back(std::move(join));

    Op join_group;
    join_group.kind = OpKind::kQuery;
    join_group.a = 1;
    join_group.b = 1 + rng->Uniform(rows_);
    join_group.sql = Fmt(
        "SELECT wa.ten, COUNT(*) FROM wa JOIN wb ON wa.unique1 = wb.unique1 "
        "WHERE wb.unique2 < %lld GROUP BY wa.ten",
        (long long)join_group.b);
    out->push_back(std::move(join_group));

    Op group;
    group.kind = OpKind::kQuery;
    group.a = 2;
    group.b = 1 + rng->Uniform(rows_);
    group.sql = Fmt(
        "SELECT four, COUNT(*), SUM(unique2) FROM wb WHERE unique1 < %lld "
        "GROUP BY four",
        (long long)group.b);
    out->push_back(std::move(group));
  }

  bool Check(int, const Op& op, const QueryResult& r) override {
    const int64_t bound = op.b;
    if (op.a == 0) {
      // wb.unique2 is 0..rows-1, so every wa row joins exactly one wb row.
      return r.rows.size() == 1 && r.rows[0].size() == 2 &&
             IsInt(r.rows[0][0], bound) &&
             IsSum(r.rows[0][1], a_prefix_[bound]);
    }
    if (op.a == 1) {
      // wb rows with unique2 < bound join the wa row of equal unique1, whose
      // ten is unique1 % 10.
      std::map<int64_t, int64_t> expected;
      for (int64_t i = 0; i < bound; ++i) ++expected[b_unique1_[i] % 10];
      std::map<int64_t, int64_t> got;
      for (const auto& row : r.rows) {
        if (row.size() != 2 || row[0].type() != TypeId::kInt64 ||
            !got.emplace(row[0].int_value(), row[1].int_value()).second) {
          return false;
        }
      }
      return got == expected;
    }
    // wb rows with unique1 < bound sit at position b_pos_[unique1], which is
    // their unique2.
    std::map<int64_t, std::pair<int64_t, int64_t>> expected;
    for (int64_t u = 0; u < bound; ++u) {
      auto& [count, sum] = expected[u % 4];
      ++count;
      sum += b_pos_[u];
    }
    if (r.rows.size() != expected.size()) return false;
    for (const auto& row : r.rows) {
      if (row.size() != 3 || row[0].type() != TypeId::kInt64) {
        return false;
      }
      auto it = expected.find(row[0].int_value());
      if (it == expected.end() || !IsInt(row[1], it->second.first) ||
          !IsSum(row[2], it->second.second)) {
        return false;
      }
    }
    return true;
  }

 private:
  static constexpr size_t kPoolPages = 256;

  std::vector<int64_t> Permutation(Rng* rng) const {
    std::vector<int64_t> p(rows_);
    std::iota(p.begin(), p.end(), 0);
    for (int64_t i = rows_ - 1; i > 0; --i) {
      std::swap(p[i], p[rng->Uniform(i + 1)]);
    }
    return p;
  }

  /// The Wisconsin string pattern: 7 significant letters keyed by the
  /// number, padded with 'x' to 52 characters.
  static std::string WisconsinString(int64_t value) {
    std::string s(7, 'A');
    for (int i = 6; i >= 0 && value > 0; --i) {
      s[i] = static_cast<char>('A' + value % 26);
      value /= 26;
    }
    return s + std::string(45, 'x');
  }

  void AddTable(const std::string& table, const std::vector<int64_t>& unique1) {
    static const char* kString4[] = {"AAAA", "HHHH", "OOOO", "VVVV"};
    setup_.push_back(
        "CREATE TABLE " + table +
        " (unique1 INTEGER, unique2 INTEGER, two INTEGER, four INTEGER, "
        "ten INTEGER, twenty INTEGER, onepercent INTEGER, tenpercent INTEGER, "
        "fiftypercent INTEGER, stringu1 VARCHAR(52), stringu2 VARCHAR(52), "
        "string4 VARCHAR(52))");
    std::vector<std::string> values;
    values.reserve(rows_);
    for (int64_t i = 0; i < rows_; ++i) {
      const long long u = unique1[i];
      values.push_back(Fmt("(%lld, %lld, %lld, %lld, %lld, %lld, %lld, %lld, "
                           "%lld, '%s', '%s', '%s%s')",
                           u, (long long)i, u % 2, u % 4, u % 10, u % 20,
                           u % 100, u % 10, u % 2, WisconsinString(u).c_str(),
                           WisconsinString(i).c_str(), kString4[i % 4],
                           std::string(48, 'x').c_str()));
    }
    AppendInserts(table, values, &setup_);
  }

  const int64_t rows_;
  const int conns_;
  const int dop_;
  std::vector<int64_t> a_unique1_, b_unique1_, a_prefix_, b_pos_;
  std::vector<std::string> setup_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"point_read", "tpcb_write",
                                                 "wisconsin_olap"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool small, const Machine& m) {
  if (name == "point_read") return std::make_unique<PointRead>(seed, small, m);
  if (name == "tpcb_write") return std::make_unique<TpcbWrite>(seed, small, m);
  if (name == "wisconsin_olap") {
    return std::make_unique<WisconsinOlap>(seed, small, m);
  }
  return nullptr;
}

}  // namespace perfbench
