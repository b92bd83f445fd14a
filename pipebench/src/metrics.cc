#include "metrics.h"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>

namespace pipebench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s", false},
      {"pts_per_s", "points/s", true},
      {"p50_ms", "ms", false},
      {"peak_rss_mb", "MB", false},
      {"quality", "fraction", true},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"data.scan_s", "s", false},
      {"data.read_s", "s", false},
      {"density.fit_s", "s", false},
      {"density.eval_pts_per_s", "points/s", true},
      {"core.normalizer_s", "s", false},
      {"core.sample_pass_s", "s", false},
      {"core.sample_size", "count", false},
      {"core.clamped", "count", false},
      {"cluster.agglomerate_s", "s", false},
      {"eval.clusters_found", "count", true},
      {"outlier.score_s", "s", false},
      {"outlier.verify_s", "s", false},
      {"outlier.candidates", "count", false},
      {"outlier.verified", "count", true},
      {"outlier.candidate_yield", "fraction", true},
      {"outlier.recall", "fraction", true},
      {"outlier.exact_s", "s", false},
      {"outlier.exact_pairwise", "count", false},
      {"outlier.exact_dense_pruned", "count", true},
      {"outlier.exact_sparse_pruned", "count", true},
      {"shard.fit_s", "s", false},
      {"shard.detect_s", "s", false},
      {"shard.skew", "ratio", false},
      {"parallel.efficiency", "fraction", true},
      {"serve.req_per_s", "req/s", true},
      {"serve.p99_ms", "ms", false},
      {"serve.tcp.p50_ms", "ms", false},
      {"serve.tcp.p99_ms", "ms", false},
      {"serve.shm.p50_ms", "ms", false},
      {"serve.shm.p99_ms", "ms", false},
      {"serve.small.p99_ms", "ms", false},
      {"serve.large.p99_ms", "ms", false},
      {"serve.outlier.p99_ms", "ms", false},
      {"serve.register.p99_ms", "ms", false},
      {"serve.server.density.p50_ms", "ms", false},
      {"serve.server.density.p99_ms", "ms", false},
      {"serve.wait_ms", "ms", false},
      {"serve.rejected", "count", false},
      {"trace.wall_s", "s", false},
      {"trace.self_sum_s", "s", false},
      {"trace.overhead_s", "s", false},
  };
  return kSpecs;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<MetricSpec>& specs,
                       const MetricValues& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char number[64];
  for (size_t i = 0; i < specs.size(); ++i) {
    auto it = values.find(specs[i].name);
    const double value = it == values.end() ? 0.0 : it->second;
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (i > 0) out += ", ";
    out += "\"" + std::string(specs[i].name) + "\": {\"value\": " + number +
           ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

}  // namespace pipebench
