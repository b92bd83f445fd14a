// Timing and flag-parsing helpers shared by the micro benches.

#ifndef DBS_BENCH_BENCH_TIMING_H_
#define DBS_BENCH_BENCH_TIMING_H_

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

namespace dbs::bench {

// Runs `body` `reps` times and returns the fastest wall-clock seconds.
template <typename Body>
double TimeBest(int reps, Body&& body) {
  using Clock = std::chrono::steady_clock;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Clock::time_point start = Clock::now();
    body();
    double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (r == 0 || seconds < best) best = seconds;
  }
  return best;
}

// Parses a comma-separated list of decimal integers into `out`. False on
// an empty list, an empty or non-digit token, or a value below `min_value`
// or beyond what Int holds.
template <typename Int>
bool ParseIntList(const std::string& spec, Int min_value,
                  std::vector<Int>* out) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string token = spec.substr(pos, comma - pos);
    if (token.empty() || token.size() > 18) return false;
    for (char c : token) {
      if (c < '0' || c > '9') return false;
    }
    const long long value = std::strtoll(token.c_str(), nullptr, 10);
    if (value < static_cast<long long>(min_value) ||
        value > static_cast<long long>(std::numeric_limits<Int>::max())) {
      return false;
    }
    out->push_back(static_cast<Int>(value));
    pos = comma + 1;
  }
  return !out->empty();
}

}  // namespace dbs::bench

#endif  // DBS_BENCH_BENCH_TIMING_H_
