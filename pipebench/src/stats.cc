#include "stats.h"

#include <algorithm>
#include <cmath>

namespace pipebench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

int64_t TailRank(int64_t n, double max_quantile, int64_t min_beyond) {
  if (n <= 0) return 0;
  // Nearest rank of the capping percentile; the epsilon keeps exact
  // products such as 0.99 * 1000 from rounding up to the next rank.
  const int64_t capped = static_cast<int64_t>(
      std::ceil(max_quantile * static_cast<double>(n) - 1e-9));
  const int64_t rank = std::min(capped, n - min_beyond);
  return rank >= 1 ? rank : n;
}

Tail TailOf(std::vector<double> values, double max_quantile,
            int64_t min_beyond) {
  Tail tail;
  tail.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const int64_t rank = TailRank(tail.samples, max_quantile, min_beyond);
  tail.value = values[static_cast<size_t>(rank - 1)];
  tail.percentile =
      100.0 * static_cast<double>(rank) / static_cast<double>(tail.samples);
  return tail;
}

}  // namespace pipebench
