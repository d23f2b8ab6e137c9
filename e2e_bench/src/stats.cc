#include "stats.h"

#include <algorithm>
#include <cmath>

namespace apuama::e2e {

namespace {

long NearestRank(long n, double p) {
  long rank = static_cast<long>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp(rank, 1L, n);
}

}  // namespace

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  return (*v)[static_cast<size_t>(NearestRank(static_cast<long>(v->size()), p) - 1)];
}

double Median(std::vector<double> v) { return Percentile(&v, 50); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

long SamplesBeyond(long n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

}  // namespace apuama::e2e
