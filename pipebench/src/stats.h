// Order statistics for the benchmark's reported timings.
//
// Timings are reported as a median and a tail. The tail follows one rule:
// the highest percentile that still has at least ten samples beyond it,
// capped at the percentile the metric is named after (p99). With too few
// samples for any such percentile the tail is the maximum, and the
// reported percentile says so (100).

#ifndef PIPEBENCH_STATS_H_
#define PIPEBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace pipebench {

// Median (mean of the two middle values for even counts); 0 when empty.
double Median(std::vector<double> values);

// Nearest-rank position (1-based) of the highest percentile at or below
// `max_quantile` that leaves at least `min_beyond` of `n` samples above
// it. Returns n (the maximum) when no percentile qualifies, 0 when n == 0.
int64_t TailRank(int64_t n, double max_quantile, int64_t min_beyond = 10);

struct Tail {
  double value = 0.0;       // the sample at TailRank
  double percentile = 0.0;  // 100 * rank / n
  int64_t samples = 0;
};

// Tail of `values` by the rule above.
Tail TailOf(std::vector<double> values, double max_quantile = 0.99,
            int64_t min_beyond = 10);

}  // namespace pipebench

#endif  // PIPEBENCH_STATS_H_
