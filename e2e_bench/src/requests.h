// Seeded request generation for the wall-clock benchmark.
//
// Every input a run issues derives from the command-line seed: the
// per-client query permutations (olap_streams, mixed_refresh), the
// primary-key lookups (point_lookup), the replay requests of the traced
// run, and the refresh stream's seed. The same seed gives the same
// request sequence; the program under test only sees the generated SQL.
#ifndef APUAMA_E2E_BENCH_REQUESTS_H_
#define APUAMA_E2E_BENCH_REQUESTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"

namespace apuama::e2e {

enum class Workload { kOlapStreams, kMixedRefresh, kPointLookup };

std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload w);
/// Closed-loop read clients of the workload (3, 3, 4).
int ReadClients(Workload w);
/// True when the workload runs the refresh writer beside the readers.
bool HasWriter(Workload w);
/// True when the workload's reads are the paper's 8 OLAP queries
/// (false: primary-key lookups).
bool IsOlap(Workload w);

/// One client request. `cls` names its class: "Q5" for a TPC-H query,
/// the table name for a primary-key lookup.
struct Request {
  std::string cls;
  std::string sql;
  int query = 0;       // TPC-H query number (OLAP), else 0
  std::string table;   // looked-up table, else empty
  int64_t key = 0;     // looked-up key, else 0

  bool operator==(const Request& o) const {
    return cls == o.cls && sql == o.sql && query == o.query &&
           table == o.table && key == o.key;
  }
};

/// The four lookup tables with their dense key column.
struct LookupTable {
  const char* table;
  const char* key_column;
};
const std::vector<LookupTable>& LookupTables();

/// Row counts of the lookup tables (keys are dense, 1..n), in
/// LookupTables() order.
struct LookupDomain {
  std::vector<int64_t> rows;
};

/// Independent stream seed `stream` derived from the CLI seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Stream ids passed to DeriveSeed, so no two consumers share one.
inline constexpr uint64_t kClientStream = 1;      // + client index
inline constexpr uint64_t kReplayStream = 100;    // + client index
inline constexpr uint64_t kProbeStream = 200;
inline constexpr uint64_t kRefreshStream = 300;

/// Seed of the refresh stream's `loop`-th insert-then-delete pass.
uint64_t RefreshLoopSeed(uint64_t seed, uint64_t loop);

/// The endless request sequence of one client.
class RequestStream {
 public:
  /// Seeded permutations of the paper's 8 queries, one after another.
  static RequestStream Olap(uint64_t seed);
  /// Uniform primary-key lookups over the four tables.
  static RequestStream Lookup(LookupDomain domain, uint64_t seed);

  Request Next();
  /// A fresh request of `like`'s class: the same query for OLAP, a
  /// newly drawn key of the same table for a lookup (the traced replay
  /// uses one per layer call, so it never turns a plan-cache miss into
  /// a hit).
  Request FreshLike(const Request& like);

 private:
  RequestStream(bool olap, LookupDomain domain, uint64_t seed);

  Request MakeLookup(size_t table_index);

  bool olap_;
  LookupDomain domain_;
  Rng rng_;
  std::vector<int> perm_;
  size_t pos_ = 0;
};

/// OLAP request for TPC-H query `q`.
Request OlapRequest(int q);

}  // namespace apuama::e2e

#endif  // APUAMA_E2E_BENCH_REQUESTS_H_
