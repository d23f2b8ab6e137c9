// The benchmark's inputs are a pure function of the CLI seed: the same
// seed gives the same request sequences, another seed different ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "requests.h"
#include "tpch/refresh.h"

namespace apuama::e2e {
namespace {

// SF 0.01 row counts of customer, orders, part, supplier.
LookupDomain Domain() { return LookupDomain{{1500, 15000, 2000, 100}}; }

std::vector<Request> Take(RequestStream stream, int n) {
  std::vector<Request> out;
  for (int i = 0; i < n; ++i) out.push_back(stream.Next());
  return out;
}

std::vector<Request> OlapClient(uint64_t seed, uint64_t client) {
  return Take(RequestStream::Olap(DeriveSeed(seed, kClientStream + client)),
              64);
}

std::vector<Request> LookupClient(uint64_t seed, uint64_t client) {
  return Take(RequestStream::Lookup(Domain(),
                                    DeriveSeed(seed, kClientStream + client)),
              256);
}

std::vector<std::string> Refresh(uint64_t seed) {
  std::vector<std::string> out;
  for (uint64_t loop = 0; loop < 3; ++loop) {
    for (const auto& s :
         tpch::MakeRefreshStream(15001, 10, RefreshLoopSeed(seed, loop))) {
      out.push_back(s.sql);
    }
  }
  return out;
}

TEST(RequestStreamTest, SameSeedSameSequence) {
  for (uint64_t client = 0; client < 4; ++client) {
    EXPECT_EQ(OlapClient(7, client), OlapClient(7, client));
    EXPECT_EQ(LookupClient(7, client), LookupClient(7, client));
  }
  EXPECT_EQ(Refresh(7), Refresh(7));
}

TEST(RequestStreamTest, DifferentSeedDifferentSequence) {
  for (uint64_t client = 0; client < 4; ++client) {
    EXPECT_NE(OlapClient(7, client), OlapClient(8, client));
    EXPECT_NE(LookupClient(7, client), LookupClient(8, client));
  }
  EXPECT_NE(Refresh(7), Refresh(8));
}

TEST(RequestStreamTest, RefreshPassesOfOneSeedDiffer) {
  EXPECT_NE(RefreshLoopSeed(7, 0), RefreshLoopSeed(7, 1));
}

TEST(RequestStreamTest, ClientsOfOneSeedDiffer) {
  EXPECT_NE(OlapClient(7, 0), OlapClient(7, 1));
  EXPECT_NE(LookupClient(7, 0), LookupClient(7, 1));
}

TEST(RequestStreamTest, OlapIssuesPermutationsOfThePaperQueries) {
  std::vector<Request> seq = OlapClient(3, 0);
  for (size_t start = 0; start + 8 <= seq.size(); start += 8) {
    std::vector<int> qs;
    for (size_t i = start; i < start + 8; ++i) qs.push_back(seq[i].query);
    std::sort(qs.begin(), qs.end());
    EXPECT_EQ(qs, (std::vector<int>{1, 3, 4, 5, 6, 12, 14, 21}));
  }
}

TEST(RequestStreamTest, LookupKeysStayInTheirTable) {
  const LookupDomain d = Domain();
  for (const Request& r : LookupClient(5, 0)) {
    size_t t = 0;
    while (LookupTables()[t].table != r.table) ++t;
    EXPECT_GE(r.key, 1);
    EXPECT_LE(r.key, d.rows[t]);
    EXPECT_NE(r.sql.find(std::to_string(r.key)), std::string::npos);
  }
}

TEST(RequestStreamTest, FreshLikeKeepsTheClass) {
  RequestStream s = RequestStream::Lookup(Domain(), 11);
  Request r = s.Next();
  Request f = s.FreshLike(r);
  EXPECT_EQ(f.table, r.table);
  RequestStream o = RequestStream::Olap(11);
  Request q = o.Next();
  EXPECT_EQ(o.FreshLike(q), q);
}

}  // namespace
}  // namespace apuama::e2e
