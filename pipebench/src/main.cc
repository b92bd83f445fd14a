// pipebench — end-to-end pipeline and serving benchmark for dbs.
//
//   pipebench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//   pipebench --list-metrics
//
// Runs one workload (README.md lists them), prints a human-readable report
// on stderr and, as the last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and the spans of the traced repetitions are
// written to DIR/trace-NAME-N.json. Exits 0 only when every correctness
// check passed and no operation failed.

#include <malloc.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "metrics.h"
#include "workloads.h"

namespace {

using pipebench::RunConfig;
using pipebench::RunResult;

struct Workload {
  const char* name;
  RunResult (*run)(const RunConfig&);
};

constexpr Workload kWorkloads[] = {
    {"sample_twopass_2d", pipebench::RunSampleTwoPass2d},
    {"sample_onepass_5d", pipebench::RunSampleOnePass5d},
    {"outliers_sharded_3d", pipebench::RunOutliersSharded3d},
    {"serve_mixed", pipebench::RunServeMixed},
};

void ListMetrics() {
  for (const auto& spec : pipebench::EndToEndMetrics()) {
    std::printf("end_to_end %s %s %s\n", spec.name, spec.unit,
                spec.higher_is_better ? "higher" : "lower");
  }
  for (const auto& spec : pipebench::PerLayerMetrics()) {
    std::printf("per_layer %s %s %s\n", spec.name, spec.unit,
                spec.higher_is_better ? "higher" : "lower");
  }
  for (const auto& workload : kWorkloads) {
    std::printf("workload %s\n", workload.name);
  }
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "pipebench: %s\nusage: pipebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n"
               "       pipebench --list-metrics\n",
               why);
  return 2;
}

bool ParseUnsigned(const char* text, unsigned long long* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text, &end, 10);
  return errno == 0 && end != text && *end == '\0' && text[0] != '-';
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its default. Left dynamic, it rises when
  // set-up frees its inputs, and the freed heap the pipeline then reuses
  // decides peak_rss_mb (58 or 74 MB by seed on outliers_sharded_3d,
  // against 23-25 MB pinned).
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  RunConfig config;
  config.work_dir = ".bench_work";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      ListMetrics();
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    unsigned long long number = 0;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      config.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUnsigned(value, &number) &&
               number >= 1 && number <= 600) {
      config.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && (std::strcmp(value, "0") == 0 ||
                                     std::strcmp(value, "1") == 0)) {
      config.trace = value[0] == '1';
      have_trace = true;
    } else {
      return Usage(("bad flag " + flag + " " + value).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  const Workload* workload = nullptr;
  for (const auto& candidate : kWorkloads) {
    if (config.workload == candidate.name) workload = &candidate;
  }
  if (workload == nullptr) {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  if (::mkdir(config.work_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "pipebench: cannot create %s\n",
                 config.work_dir.c_str());
    return 1;
  }

  RunResult result = workload->run(config);
  result.end_to_end["peak_rss_mb"] = pipebench::PeakRssMb();
  if (config.trace) {
    const std::string path = config.work_dir + "/trace-" + config.workload +
                             "-" + std::to_string(config.seed) + ".json";
    if (!pipebench::WriteSpansJson(path, result.spans)) {
      pipebench::Fail(&result, "cannot write " + path);
    }
    std::fprintf(stderr, "pipebench: %zu spans written to %s\n",
                 result.spans.size(), path.c_str());
    std::fprintf(stderr, "pipebench: %-34s %6s %12s %12s\n", "span", "count",
                 "total_s", "self_s");
    for (const auto& [name, totals] :
         pipebench::SummarizeByName(result.spans)) {
      std::fprintf(stderr, "pipebench: %-34s %6lld %12.6f %12.6f\n",
                   name.c_str(), static_cast<long long>(totals.count),
                   totals.total_s, totals.self_s);
    }
  }
  const auto& specs = config.trace ? pipebench::PerLayerMetrics()
                                   : pipebench::EndToEndMetrics();
  const auto& values = config.trace ? result.per_layer : result.end_to_end;
  for (const auto& spec : specs) {
    auto it = values.find(spec.name);
    std::fprintf(stderr, "pipebench: %-30s %18.6f %s\n", spec.name,
                 it == values.end() ? 0.0 : it->second, spec.unit);
  }
  const bool ok = result.correct && result.failed == 0;
  std::printf("%s\n",
              pipebench::ResultJson(ok, result.attempted, result.failed,
                                    specs, values)
                  .c_str());
  return ok ? 0 : 1;
}
