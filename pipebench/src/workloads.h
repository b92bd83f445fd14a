// The benchmark's workloads. Each one sets up its inputs from the seed
// (several times, reporting the median set-up time), measures for the
// requested number of seconds, checks its outputs, and fills a RunResult.
// README.md describes why each workload exists and what it should show.

#ifndef PIPEBENCH_WORKLOADS_H_
#define PIPEBENCH_WORKLOADS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "metrics.h"
#include "trace.h"

namespace pipebench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory for generated inputs, saved models and the span file.
  std::string work_dir;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricValues end_to_end;
  MetricValues per_layer;
  // Every span of the traced repetitions, written out when the run ends.
  std::vector<Span> spans;
};

// Marks the run incorrect and says why on stderr.
inline void Fail(RunResult* result, const std::string& what) {
  std::fprintf(stderr, "pipebench: FAIL: %s\n", what.c_str());
  result->correct = false;
}

RunResult RunSampleTwoPass2d(const RunConfig& config);
RunResult RunSampleOnePass5d(const RunConfig& config);
RunResult RunOutliersSharded3d(const RunConfig& config);
RunResult RunServeMixed(const RunConfig& config);

}  // namespace pipebench

#endif  // PIPEBENCH_WORKLOADS_H_
