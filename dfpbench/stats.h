// Order statistics for the benchmark's reported timings.
//
// Percentiles use the nearest-rank definition: the p-th percentile of n sorted values is the
// value at rank ceil(p/100 * n). With five equally weighted request classes that rank puts p50
// in the middle of the third-cheapest class and p90 in the middle of the most expensive one, so
// neither sits on a class boundary where a one-request shift would jump between modes.
#ifndef DFPBENCH_STATS_H_
#define DFPBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace dfpbench {

// 1-based rank of the p-th percentile among n values (0 when n is 0).
inline size_t PercentileRank(size_t n, double p) {
  if (n == 0) {
    return 0;
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

// Number of values strictly beyond the p-th percentile's rank.
inline size_t SamplesBeyond(size_t n, double p) { return n - PercentileRank(n, p); }

// Nearest-rank percentile; 0 for an empty input.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  const size_t rank = PercentileRank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

inline double Median(std::vector<double> values) { return Percentile(std::move(values), 50); }

// The highest of the percentiles 50, 90, 99 and 99.9 that has at least ten samples beyond it,
// or 0 when even the median has fewer: a tail figure drawn from a handful of samples is noise.
inline double HighestReportablePercentile(size_t n) {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (SamplesBeyond(n, p) >= 10) {
      best = p;
    }
  }
  return best;
}

}  // namespace dfpbench

#endif  // DFPBENCH_STATS_H_
