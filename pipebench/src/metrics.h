// Metric catalog and result reporting.
//
// Every run prints one JSON object as its last stdout line. An untraced
// run reports every end-to-end metric; a traced run reports every
// per-layer metric. The catalog below is the single list of names, units
// and directions in the program; BENCHMARK.json must declare the same set
// (tests/test_benchmark_json.py checks the two against each other through
// `pipebench --list-metrics`). A per-layer metric whose layer is not on a
// workload's path reports 0: the layer did no work there.

#ifndef PIPEBENCH_METRICS_H_
#define PIPEBENCH_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

struct MetricSpec {
  const char* name;
  const char* unit;
  bool higher_is_better;
};

const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

using MetricValues = std::map<std::string, double>;

// The result line: {"correct", "attempted", "failed", "metrics"} over the
// metrics of `specs`, unset ones reported as 0.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<MetricSpec>& specs,
                       const MetricValues& values);

// 64-bit FNV-1a over `size` bytes, continuing from `hash`.
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
uint64_t Fnv1a(const void* data, size_t size, uint64_t hash = kFnvOffset);

// Peak resident set size of this process, in MB (getrusage).
double PeakRssMb();

// Restarts the peak-RSS high-water mark (Linux /proc/self/clear_refs), so
// PeakRssMb covers only what runs afterwards. False when unsupported.
bool ResetPeakRss();

}  // namespace pipebench

#endif  // PIPEBENCH_METRICS_H_
