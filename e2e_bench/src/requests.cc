#include "requests.h"

#include <stdexcept>
#include <utility>

#include "common/string_util.h"
#include "tpch/queries.h"

namespace apuama::e2e {

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "olap_streams") return Workload::kOlapStreams;
  if (name == "mixed_refresh") return Workload::kMixedRefresh;
  if (name == "point_lookup") return Workload::kPointLookup;
  return std::nullopt;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kOlapStreams:
      return "olap_streams";
    case Workload::kMixedRefresh:
      return "mixed_refresh";
    case Workload::kPointLookup:
      return "point_lookup";
  }
  return "?";
}

int ReadClients(Workload w) { return w == Workload::kPointLookup ? 4 : 3; }
bool HasWriter(Workload w) { return w == Workload::kMixedRefresh; }
bool IsOlap(Workload w) { return w != Workload::kPointLookup; }

const std::vector<LookupTable>& LookupTables() {
  static const std::vector<LookupTable> tables = {
      {"customer", "c_custkey"},
      {"orders", "o_orderkey"},
      {"part", "p_partkey"},
      {"supplier", "s_suppkey"},
  };
  return tables;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream): nearby seeds and streams give
  // unrelated generator states.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t RefreshLoopSeed(uint64_t seed, uint64_t loop) {
  return DeriveSeed(DeriveSeed(seed, kRefreshStream), loop);
}

Request OlapRequest(int q) {
  auto sql = tpch::QuerySql(q);
  if (!sql.ok()) throw std::invalid_argument("unknown TPC-H query");
  Request r;
  r.cls = "Q" + std::to_string(q);
  r.sql = *sql;
  r.query = q;
  return r;
}

RequestStream::RequestStream(bool olap, LookupDomain domain, uint64_t seed)
    : olap_(olap), domain_(std::move(domain)), rng_(seed) {
  if (olap_) {
    perm_ = tpch::PaperQueryNumbers();
    pos_ = perm_.size();  // shuffle on first Next()
  } else if (domain_.rows.size() != LookupTables().size()) {
    throw std::invalid_argument("lookup domain needs one size per table");
  }
}

RequestStream RequestStream::Olap(uint64_t seed) {
  return RequestStream(true, LookupDomain{}, seed);
}

RequestStream RequestStream::Lookup(LookupDomain domain, uint64_t seed) {
  return RequestStream(false, std::move(domain), seed);
}

Request RequestStream::MakeLookup(size_t table_index) {
  const LookupTable& t = LookupTables()[table_index];
  Request r;
  r.cls = t.table;
  r.table = t.table;
  r.key = rng_.Uniform(1, domain_.rows[table_index]);
  r.sql = StrFormat("select * from %s where %s = %lld", t.table,
                    t.key_column, static_cast<long long>(r.key));
  return r;
}

Request RequestStream::Next() {
  if (!olap_) {
    return MakeLookup(static_cast<size_t>(
        rng_.Uniform(0, static_cast<int64_t>(LookupTables().size()) - 1)));
  }
  if (pos_ == perm_.size()) {
    rng_.Shuffle(&perm_);
    pos_ = 0;
  }
  return OlapRequest(perm_[pos_++]);
}

Request RequestStream::FreshLike(const Request& like) {
  if (like.query != 0) return OlapRequest(like.query);
  for (size_t i = 0; i < LookupTables().size(); ++i) {
    if (like.table == LookupTables()[i].table) return MakeLookup(i);
  }
  throw std::invalid_argument("request of unknown class");
}

}  // namespace apuama::e2e
