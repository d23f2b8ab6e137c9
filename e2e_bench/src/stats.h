// Order statistics for latency samples.
#ifndef APUAMA_E2E_BENCH_STATS_H_
#define APUAMA_E2E_BENCH_STATS_H_

#include <vector>

namespace apuama::e2e {

/// Nearest-rank percentile (`p` in [0, 100]) of `v`; 0 when empty.
/// Sorts `v` in place.
double Percentile(std::vector<double>* v, double p);

/// Median of `v` (copies); 0 when empty.
double Median(std::vector<double> v);

/// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& v);

/// Geometric mean of positive values; 0 when empty.
double GeoMean(const std::vector<double>& v);

/// Samples strictly above the nearest-rank `p` percentile of `n`
/// samples (how many observations a p-th percentile leaves beyond it).
long SamplesBeyond(long n, double p);

}  // namespace apuama::e2e

#endif  // APUAMA_E2E_BENCH_STATS_H_
