// The measurement loop and helpers shared by the pipeline workloads.

#ifndef PIPEBENCH_PIPELINE_UTIL_H_
#define PIPEBENCH_PIPELINE_UTIL_H_

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/dataset_io.h"
#include "data/range_scan.h"
#include "density/kde.h"
#include "density/kde_partial.h"
#include "shard/coordinator.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace pipebench {

// Opens `path` the way the dbs_sample and dbs_outliers tools do: 8192-row
// batches with read-ahead.
inline dbs::shard::ShardCoordinator::ScanFactory FileScanFactory(
    const std::string& path) {
  return [path]() -> dbs::Result<std::unique_ptr<dbs::data::DataScan>> {
    auto scan = dbs::data::FileScan::Open(path, /*batch_rows=*/8192,
                                          /*double_buffered=*/true);
    if (!scan.ok()) return scan.status();
    return std::unique_ptr<dbs::data::DataScan>(std::move(*scan));
  };
}

// Calls `fn` inside a span named `name`.
template <typename Fn>
auto InSpan(SpanRecorder* recorder, const std::string& name, Fn&& fn) {
  ScopedSpan span(recorder, name);
  return fn();
}

// Opens a fresh scan from `factory` and runs `fn` on shard `s` of `shards`
// over its `rows` rows, the way ShardCoordinator does inside a shard task.
template <typename Fn>
auto OnShard(const dbs::shard::ShardCoordinator::ScanFactory& factory,
             int64_t rows, int64_t shards, int64_t s, Fn&& fn)
    -> decltype(fn(std::declval<dbs::data::DataScan&>(),
                   std::declval<const dbs::ShardInfo&>())) {
  DBS_ASSIGN_OR_RETURN(std::unique_ptr<dbs::data::DataScan> scan, factory());
  const dbs::RowRange range = dbs::ShardRowRange(rows, shards, s);
  dbs::data::RangeScan slice(scan.get(), range.begin, range.end);
  dbs::ShardInfo info;
  info.shard = s;
  info.num_shards = shards;
  info.total_rows = rows;
  return fn(slice, info);
}

// Name of the span of one shard's partial call.
inline std::string ShardSpan(const char* stage, int64_t s) {
  return std::string(stage) + ".shard" + std::to_string(s);
}

// Runs `partial` on every shard and merges the results in ascending shard
// order. The shards run one after another, each in its own span, or, when
// `concurrent`, on a thread each with no spans (a quick reference run).
template <typename Partial, typename PartialFn, typename MergeFn>
dbs::Result<Partial> EachShard(
    const dbs::shard::ShardCoordinator::ScanFactory& factory, int64_t rows,
    int64_t shards, SpanRecorder* rec, const char* stage, bool concurrent,
    PartialFn&& partial, MergeFn&& merge) {
  std::vector<std::optional<dbs::Result<Partial>>> parts(
      static_cast<size_t>(shards));
  auto run = [&](int64_t s) {
    parts[static_cast<size_t>(s)].emplace(
        OnShard(factory, rows, shards, s, partial));
  };
  if (concurrent) {
    std::vector<std::thread> threads;
    for (int64_t s = 0; s < shards; ++s) threads.emplace_back(run, s);
    for (std::thread& thread : threads) thread.join();
  } else {
    for (int64_t s = 0; s < shards; ++s) {
      ScopedSpan span(rec, ShardSpan(stage, s));
      run(s);
    }
  }
  std::optional<Partial> merged;
  for (std::optional<dbs::Result<Partial>>& part : parts) {
    if (!part->ok()) return part->status();
    if (!merged) {
      merged.emplace(std::move(**part));
    } else {
      DBS_ASSIGN_OR_RETURN(merged,
                           merge(std::move(*merged), std::move(**part)));
    }
  }
  return std::move(*merged);
}

// Kde fit by shard: FitPartial per shard (see EachShard), merged and
// finalized as ShardCoordinator::BuildKde does.
inline dbs::Result<dbs::density::Kde> FitByShard(
    const dbs::shard::ShardCoordinator::ScanFactory& factory, int64_t rows,
    int64_t shards, const dbs::density::KdeOptions& opts, SpanRecorder* rec,
    bool concurrent) {
  ScopedSpan fit(rec, "density.fit");
  DBS_ASSIGN_OR_RETURN(
      dbs::density::PartialKde merged,
      EachShard<dbs::density::PartialKde>(
          factory, rows, shards, rec, "density.fit_partial", concurrent,
          [&](dbs::data::DataScan& scan, const dbs::ShardInfo& info) {
            return dbs::density::Kde::FitPartial(scan, opts, info);
          },
          [](dbs::density::PartialKde a, dbs::density::PartialKde b) {
            return dbs::density::MergePartialKde(std::move(a), std::move(b));
          }));
  return InSpan(rec, "density.finalize", [&] {
    return dbs::density::FinalizeKde(std::move(merged), opts);
  });
}

// Runs the set-up `make` several times (stopping at the first error) and
// returns the last result; `median_s` gets the median time. Set-up runs
// at least kMinSetups times and repeats, up to kMaxSetups, while less than
// kSetupBudgetS has been spent. The peak-RSS mark is restarted afterwards,
// so peak_rss_mb measures the pipeline, not the benchmark's own set-up.
inline constexpr int kMinSetups = 3;
inline constexpr int kMaxSetups = 15;
inline constexpr double kSetupBudgetS = 4.0;

template <typename Make>
auto RepeatSetup(Make&& make, double* median_s) {
  using R = decltype(make());
  std::vector<double> times;
  std::optional<R> last;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(times.size()) < kMinSetups ||
         (static_cast<int>(times.size()) < kMaxSetups &&
          SecondsSince(start) < kSetupBudgetS)) {
    last.reset();
    const Clock::time_point begin = Clock::now();
    last.emplace(make());
    times.push_back(SecondsSince(begin));
    if (!last->ok()) break;
  }
  *median_s = Median(times);
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "pipebench: peak RSS includes set-up\n");
  }
  return std::move(*last);
}

// Per-repetition samples of per-layer metrics; reported as medians.
using LayerSamples = std::map<std::string, std::vector<double>>;

inline void ReportMedians(const LayerSamples& samples, MetricValues* out) {
  for (const auto& [name, values] : samples) (*out)[name] = Median(values);
}

// Records the span accounting of one traced repetition, and fails the run
// if the self times exceed the traced wall time.
inline void RecordTraceAccounting(const std::vector<Span>& spans,
                                  LayerSamples* layer, RunResult* result) {
  double self_sum = 0.0;
  double lanes = 0.0;
  SelfSumAndWall(spans, &self_sum, &lanes);
  if (self_sum > lanes * (1.0 + 1e-9) + 1e-12) {
    Fail(result, "span self times exceed the traced wall time");
  }
  (*layer)["trace.self_sum_s"].push_back(self_sum);
  (*layer)["trace.wall_s"].push_back(lanes);
}

// Layer probes of a traced repetition, into `rec`: one bare pass of the
// input file's scan and one whole read of it (file inputs only), then one
// EvaluateBatch of `kde` over the in-memory points (no scan, no RNG).
// `in_memory` is the input when it is not a file.
inline dbs::Status RunProbes(const std::string& path,
                             const dbs::data::PointSet* in_memory,
                             int64_t rows, const dbs::density::Kde& kde,
                             SpanRecorder* rec) {
  dbs::data::PointSet read;
  if (in_memory == nullptr) {
    {
      ScopedSpan span(rec, "data.scan");
      DBS_ASSIGN_OR_RETURN(std::unique_ptr<dbs::data::DataScan> scan,
                           FileScanFactory(path)());
      scan->Reset();
      dbs::data::ScanBatch batch;
      int64_t scanned = 0;
      while (scan->NextBatch(&batch)) scanned += batch.count;
      if (scanned != rows) {
        return dbs::Status::Internal("bare scan lost rows");
      }
    }
    ScopedSpan span(rec, "data.read");
    DBS_ASSIGN_OR_RETURN(read, dbs::data::ReadDatasetFile(path));
  }
  const dbs::data::PointSet& points = in_memory ? *in_memory : read;
  std::vector<double> densities(static_cast<size_t>(points.size()));
  ScopedSpan span(rec, "density.eval");
  return kde.EvaluateBatch(points.flat().data(), points.size(),
                           densities.data());
}

// Per-layer samples of the probes above.
inline void RecordProbeLayers(const std::vector<Span>& spans, int64_t rows,
                              bool from_file, LayerSamples* layer) {
  (*layer)["density.eval_pts_per_s"].push_back(
      static_cast<double>(rows) / TotalSeconds(spans, "density.eval"));
  if (from_file) {
    (*layer)["data.scan_s"].push_back(TotalSeconds(spans, "data.scan"));
    (*layer)["data.read_s"].push_back(TotalSeconds(spans, "data.read"));
  }
}

// One pipeline workload, as MeasurePipeline drives it. Every hook but the
// probes gets the repetition's seed.
template <typename Output>
struct PipelineHooks {
  // The pipeline as a user runs it; sets its wall time and may add
  // per-call samples to `layer`.
  std::function<dbs::Result<Output>(uint64_t seed, double* wall_s,
                                    LayerSamples* layer)>
      timed;
  // The same pipeline one layer call at a time, in a root span named
  // "pipeline" of `rec`. `concurrent` lets an untraced reference run its
  // shards at once.
  std::function<dbs::Result<Output>(uint64_t seed, SpanRecorder* rec,
                                    bool concurrent)>
      staged;
  // Layer probes run after a traced staged run, into the same recorder.
  std::function<dbs::Status(SpanRecorder* rec)> probes;
  // Per-layer samples from one traced repetition's spans.
  std::function<void(const std::vector<Span>& spans, LayerSamples* layer)>
      layers;
  // Give every repetition a seed of its own (the first keeps the run's
  // seed), so that what the outputs measure is averaged over seeds.
  bool reseed = false;
};

// Seed of repetition `rep` of a reseeding workload.
inline uint64_t RepetitionSeed(uint64_t seed, int64_t rep) {
  return seed + static_cast<uint64_t>(rep) * 0x9e3779b97f4a7c15ull;
}

// Measures a pipeline workload: the timed pipeline repeats for the run's
// measuring time (at least three times), and every output must equal the
// staged pipeline's output for the same seed. The reference is an
// untraced staged run with concurrent shards: one before timing starts
// (it also warms caches), and one more per repetition when reseeding. A
// traced run instead checks against a traced staged run per repetition,
// then runs the probes and an untraced staged run: the per-layer samples,
// and the tracing overhead as the difference of the two staged wall
// times. Returns the checked output of every repetition, or nothing when
// a check failed.
template <typename Output>
std::vector<Output> MeasurePipeline(const PipelineHooks<Output>& hooks,
                                    const RunConfig& config,
                                    std::vector<double>* walls,
                                    LayerSamples* layer, RunResult* result) {
  SpanRecorder untraced(false);
  std::optional<Output> reference;
  uint64_t reference_seed = config.seed;
  // Counts `got` as an operation; it must be ok and, unless `want` is
  // null, equal to it.
  auto check = [&](const dbs::Result<Output>& got, const Output* want,
                   const char* what) {
    ++result->attempted;
    if (got.ok() && (want == nullptr || *got == *want)) return true;
    ++result->failed;
    Fail(result, std::string(what) + ": " +
                     (got.ok() ? std::string("differs from the reference")
                               : got.status().ToString()));
    return false;
  };
  auto refresh = [&](uint64_t seed) {
    dbs::Result<Output> staged = hooks.staged(seed, &untraced, true);
    if (!check(staged, nullptr, "staged pipeline")) return false;
    reference.emplace(std::move(*staged));
    reference_seed = seed;
    return true;
  };
  if (!refresh(config.seed)) return {};

  std::vector<Output> outputs;
  const Clock::time_point start = Clock::now();
  for (int64_t rep = 0;
       result->correct && (rep < 3 || SecondsSince(start) < config.seconds);
       ++rep) {
    const uint64_t seed =
        hooks.reseed ? RepetitionSeed(config.seed, rep) : config.seed;
    if (!config.trace && seed != reference_seed && !refresh(seed)) break;
    double wall = 0.0;
    dbs::Result<Output> timed = hooks.timed(seed, &wall, layer);
    if (config.trace) {
      SpanRecorder rec(true);
      dbs::Result<Output> traced = hooks.staged(seed, &rec, false);
      if (!check(traced, seed == reference_seed ? &*reference : nullptr,
                 "traced staged pipeline")) {
        break;
      }
      reference.emplace(std::move(*traced));
      reference_seed = seed;
      const double traced_wall = TotalSeconds(rec.spans(), "pipeline");
      dbs::Status probed = hooks.probes(&rec);
      if (!probed.ok()) {
        Fail(result, "probes: " + probed.ToString());
        break;
      }
      const Clock::time_point plain_start = Clock::now();
      if (!check(hooks.staged(seed, &untraced, false), &*reference,
                 "untraced staged pipeline")) {
        break;
      }
      (*layer)["trace.overhead_s"].push_back(traced_wall -
                                             SecondsSince(plain_start));
      RecordTraceAccounting(rec.spans(), layer, result);
      hooks.layers(rec.spans(), layer);
      AppendSpans(rec.spans(), &result->spans);
    }
    if (!check(timed, &*reference, "timed pipeline")) break;
    walls->push_back(wall);
    outputs.push_back(*reference);
  }
  if (!walls->empty()) {
    std::fprintf(stderr, "pipebench: repetition walls (s):");
    for (double w : *walls) std::fprintf(stderr, " %.4f", w);
    std::fprintf(stderr, "\n");
  }
  if (!result->correct) return {};
  return outputs;
}

}  // namespace pipebench

#endif  // PIPEBENCH_PIPELINE_UTIL_H_
