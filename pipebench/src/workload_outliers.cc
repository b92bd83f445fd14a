// Outlier workload: KDE ball integrals -> DB(p,k) candidates -> exact
// verification (paper §3.2), sharded over four row ranges and four
// workers, against the exact cell-list detector as the baseline.
//
// Each repetition times the pipeline as a user runs it (dbs_outliers
// shards=4 workers=4): ShardCoordinator::BuildKde then DetectOutliers.
// The traced path calls the shard partials one after another on
// data::RangeScan slices, so both rounds are attributed per shard.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/dataset_io.h"
#include "density/kde.h"
#include "outlier/cell_list.h"
#include "outlier/kde_detector.h"
#include "parallel/batch_executor.h"
#include "pipeline_util.h"
#include "shard/coordinator.h"
#include "synth/generator.h"
#include "synth/outlier_planting.h"
#include "workloads.h"

namespace pipebench {
namespace {

using dbs::Result;
using dbs::Status;

constexpr int kDim = 3;
constexpr int kClusters = 8;
constexpr int64_t kClusterPoints = 1000000;
constexpr double kNoise = 0.02;
constexpr int kPlanted = 20;
constexpr int64_t kShards = 4;
constexpr int kWorkers = 4;

dbs::outlier::DbOutlierParams Params() {
  dbs::outlier::DbOutlierParams params;
  params.radius = 0.02;
  params.max_neighbors = 5;
  return params;
}

dbs::outlier::KdeDetectorOptions DetectorOptions() {
  dbs::outlier::KdeDetectorOptions opts;
  opts.candidate_slack = 5.0;
  return opts;
}

dbs::density::KdeOptions KdeOptionsFor(uint64_t seed) {
  dbs::density::KdeOptions opts;
  opts.num_kernels = 1000;
  opts.bandwidth_scale = 0.25;
  opts.seed = seed;
  return opts;
}

struct Inputs {
  std::string path;
  int64_t rows = 0;
  // The exact DB(p,k) report: neighbor count by row.
  std::unordered_map<int64_t, int64_t> exact;
  double exact_s = 0.0;
  dbs::outlier::CellListStats exact_stats;
};

Result<Inputs> Setup(const RunConfig& config) {
  dbs::synth::ClusteredDatasetOptions opts;
  opts.dim = kDim;
  opts.num_clusters = kClusters;
  opts.num_cluster_points = kClusterPoints;
  opts.noise_multiplier = kNoise;
  opts.seed = config.seed;
  DBS_ASSIGN_OR_RETURN(dbs::synth::ClusteredDataset dataset,
                       dbs::synth::MakeClusteredDataset(opts));
  dbs::synth::OutlierPlantingOptions plant;
  plant.count = kPlanted;
  plant.min_distance = 1.5 * Params().radius;
  plant.seed = config.seed;
  DBS_ASSIGN_OR_RETURN(
      std::vector<int64_t> planted,
      dbs::synth::PlantOutliers(dataset.points, plant));

  Inputs inputs;
  inputs.rows = dataset.points.size();
  inputs.path = config.work_dir + "/" + config.workload + "-" +
                std::to_string(config.seed) + ".dbsf";
  DBS_RETURN_IF_ERROR(
      dbs::data::WriteDatasetFile(inputs.path, dataset.points));

  dbs::outlier::CellListDetectorOptions exact_opts;
  exact_opts.stats = &inputs.exact_stats;
  const Clock::time_point start = Clock::now();
  DBS_ASSIGN_OR_RETURN(dbs::outlier::OutlierReport exact,
                       dbs::outlier::DetectOutliersCellList(
                           dataset.points, Params(), exact_opts));
  inputs.exact_s = SecondsSince(start);
  for (size_t i = 0; i < exact.outlier_indices.size(); ++i) {
    inputs.exact[exact.outlier_indices[i]] = exact.neighbor_counts[i];
  }
  // Planted points have no neighbor within 1.5 radii by construction.
  for (int64_t row : planted) {
    auto it = inputs.exact.find(row);
    if (it == inputs.exact.end() || it->second != 0) {
      return Status::Internal("planted outlier missing from exact report");
    }
  }
  return inputs;
}

struct PipelineOutput {
  std::vector<int64_t> rows;
  std::vector<int64_t> counts;
  int64_t candidates = 0;

  bool operator==(const PipelineOutput&) const = default;
};

PipelineOutput Summarize(dbs::outlier::OutlierReport report) {
  PipelineOutput out;
  out.rows = std::move(report.outlier_indices);
  out.counts = std::move(report.neighbor_counts);
  out.candidates = report.candidates_checked;
  return out;
}

// dbs_outliers mode=approx shards=4 workers=4.
Result<PipelineOutput> RunCoordinator(const Inputs& in, uint64_t seed,
                                      dbs::parallel::BatchExecutor* pool,
                                      double* fit_s, double* detect_s) {
  const Clock::time_point start = Clock::now();
  dbs::shard::ShardCoordinatorOptions coord_opts;
  coord_opts.shards = kShards;
  coord_opts.executor = pool;
  dbs::shard::ShardCoordinator coordinator(FileScanFactory(in.path),
                                           coord_opts);
  DBS_ASSIGN_OR_RETURN(dbs::density::Kde kde,
                       coordinator.BuildKde(KdeOptionsFor(seed)));
  const Clock::time_point fitted = Clock::now();
  DBS_ASSIGN_OR_RETURN(
      dbs::outlier::OutlierReport report,
      coordinator.DetectOutliers(kde, Params(), DetectorOptions()));
  *fit_s = std::chrono::duration<double>(fitted - start).count();
  *detect_s = SecondsSince(fitted);
  return Summarize(std::move(report));
}

// The same pipeline through the shard partials (see EachShard). The
// fitted estimator is handed back through `kde_out` for the probes.
Result<PipelineOutput> RunStaged(const Inputs& in, uint64_t seed,
                                 SpanRecorder* rec, bool concurrent,
                                 std::optional<dbs::density::Kde>* kde_out) {
  ScopedSpan pipeline(rec, "pipeline");
  const auto factory = FileScanFactory(in.path);
  const dbs::outlier::DbOutlierParams params = Params();
  const dbs::outlier::KdeDetectorOptions detector = DetectorOptions();
  DBS_ASSIGN_OR_RETURN(
      dbs::density::Kde kde,
      FitByShard(factory, in.rows, kShards, KdeOptionsFor(seed), rec,
                 concurrent));

  std::optional<dbs::outlier::OutlierCandidates> candidates;
  {
    ScopedSpan score(rec, "outlier.score");
    DBS_ASSIGN_OR_RETURN(
        dbs::outlier::PartialOutlierCandidates merged,
        EachShard<dbs::outlier::PartialOutlierCandidates>(
            factory, in.rows, kShards, rec, "outlier.score_partial",
            concurrent,
            [&](dbs::data::DataScan& scan, const dbs::ShardInfo& info) {
              return dbs::outlier::ScoreOutlierCandidatesPartial(
                  scan, kde, params, detector, info);
            },
            [&](dbs::outlier::PartialOutlierCandidates a,
                dbs::outlier::PartialOutlierCandidates b) {
              return dbs::outlier::MergeOutlierCandidates(
                  std::move(a), std::move(b), detector.max_candidates);
            }));
    DBS_ASSIGN_OR_RETURN(candidates,
                         InSpan(rec, "outlier.finalize_candidates", [&] {
                           return dbs::outlier::FinalizeOutlierCandidates(
                               std::move(merged));
                         }));
  }

  dbs::outlier::OutlierReport report;
  if (candidates->points.empty()) {
    report.passes = 1;
  } else {
    ScopedSpan verify(rec, "outlier.verify");
    DBS_ASSIGN_OR_RETURN(
        dbs::outlier::PartialNeighborCounts merged,
        EachShard<dbs::outlier::PartialNeighborCounts>(
            factory, in.rows, kShards, rec, "outlier.count_partial",
            concurrent,
            [&](dbs::data::DataScan& scan, const dbs::ShardInfo& info) {
              return dbs::outlier::CountCandidateNeighborsPartial(
                  scan, *candidates, params, info);
            },
            [](dbs::outlier::PartialNeighborCounts a,
               dbs::outlier::PartialNeighborCounts b) {
              return dbs::outlier::MergeNeighborCounts(std::move(a),
                                                       std::move(b));
            }));
    DBS_ASSIGN_OR_RETURN(report, InSpan(rec, "outlier.finalize_report", [&] {
                           return dbs::outlier::FinalizeOutlierReport(
                               *candidates, merged, params);
                         }));
  }
  if (kde_out != nullptr) kde_out->emplace(std::move(kde));
  return Summarize(std::move(report));
}

// Every verified outlier must be an exact outlier with the same neighbor
// count; returns how many are, or -1 on a mismatch.
int64_t CheckAgainstExact(const PipelineOutput& out, const Inputs& in,
                          RunResult* result) {
  int64_t hits = 0;
  for (size_t i = 0; i < out.rows.size(); ++i) {
    auto it = in.exact.find(out.rows[i]);
    if (it == in.exact.end() || it->second != out.counts[i]) {
      Fail(result, "verified outlier row " + std::to_string(out.rows[i]) +
                       " is not in the exact report with count " +
                       std::to_string(out.counts[i]));
      return -1;
    }
    ++hits;
  }
  return hits;
}

}  // namespace

RunResult RunOutliersSharded3d(const RunConfig& config) {
  RunResult result;
  double setup_s = 0.0;
  Result<Inputs> inputs =
      RepeatSetup([&] { return Setup(config); }, &setup_s);
  if (!inputs.ok()) {
    Fail(&result, "set-up: " + inputs.status().ToString());
    return result;
  }
  const Inputs& in = *inputs;
  dbs::parallel::BatchExecutorOptions pool_opts;
  pool_opts.num_workers = kWorkers;
  dbs::parallel::BatchExecutor pool(pool_opts);

  std::optional<dbs::density::Kde> traced_kde;
  PipelineHooks<PipelineOutput> hooks;
  hooks.timed = [&](uint64_t seed, double* wall_s, LayerSamples* layer) {
    double fit_s = 0.0;
    double detect_s = 0.0;
    Result<PipelineOutput> out =
        RunCoordinator(in, seed, &pool, &fit_s, &detect_s);
    *wall_s = fit_s + detect_s;
    (*layer)["shard.fit_s"].push_back(fit_s);
    (*layer)["shard.detect_s"].push_back(detect_s);
    return out;
  };
  hooks.staged = [&](uint64_t seed, SpanRecorder* rec, bool concurrent) {
    return RunStaged(in, seed, rec, concurrent,
                     rec->enabled() ? &traced_kde : nullptr);
  };
  hooks.probes = [&](SpanRecorder* rec) {
    return RunProbes(in.path, nullptr, in.rows, *traced_kde, rec);
  };
  hooks.layers = [&](const std::vector<Span>& spans, LayerSamples* layer) {
    (*layer)["density.fit_s"].push_back(TotalSeconds(spans, "density.fit"));
    (*layer)["outlier.score_s"].push_back(
        TotalSeconds(spans, "outlier.score"));
    (*layer)["outlier.verify_s"].push_back(
        TotalSeconds(spans, "outlier.verify"));
    RecordProbeLayers(spans, in.rows, /*from_file=*/true, layer);
    // Per-shard busy time over both detection rounds, against this
    // repetition's coordinator detection time.
    double busy_sum = 0.0;
    double busy_max = 0.0;
    for (int64_t s = 0; s < kShards; ++s) {
      const double busy =
          TotalSeconds(spans, ShardSpan("outlier.score_partial", s)) +
          TotalSeconds(spans, ShardSpan("outlier.count_partial", s));
      busy_sum += busy;
      busy_max = std::max(busy_max, busy);
    }
    (*layer)["shard.skew"].push_back(busy_max * kShards / busy_sum);
    (*layer)["parallel.efficiency"].push_back(
        busy_sum / (kWorkers * (*layer)["shard.detect_s"].back()));
  };
  std::vector<double> walls;
  LayerSamples layer;
  const std::vector<PipelineOutput> outputs =
      MeasurePipeline(hooks, config, &walls, &layer, &result);
  pool.Shutdown();
  if (outputs.empty()) return result;
  // One seed, so every repetition's output is the same.
  const PipelineOutput& expected = outputs.front();
  const int64_t hits = CheckAgainstExact(expected, in, &result);
  if (hits < 0) {
    ++result.failed;
    return result;
  }

  const double median_wall = Median(walls);
  const double recall =
      in.exact.empty() ? 1.0
                       : static_cast<double>(hits) /
                             static_cast<double>(in.exact.size());
  result.end_to_end["setup_s"] = setup_s;
  result.end_to_end["pts_per_s"] =
      static_cast<double>(in.rows) / median_wall;
  result.end_to_end["p50_ms"] = 1e3 * median_wall;
  result.end_to_end["quality"] = recall;
  ReportMedians(layer, &result.per_layer);
  const double candidates = static_cast<double>(expected.candidates);
  const double verified = static_cast<double>(expected.rows.size());
  result.per_layer["outlier.candidates"] = candidates;
  result.per_layer["outlier.verified"] = verified;
  result.per_layer["outlier.candidate_yield"] =
      candidates > 0 ? verified / candidates : 0.0;
  result.per_layer["outlier.recall"] = recall;
  result.per_layer["outlier.exact_s"] = in.exact_s;
  result.per_layer["outlier.exact_pairwise"] =
      static_cast<double>(in.exact_stats.pairwise_evaluated);
  result.per_layer["outlier.exact_dense_pruned"] =
      static_cast<double>(in.exact_stats.cells_dense_pruned);
  result.per_layer["outlier.exact_sparse_pruned"] =
      static_cast<double>(in.exact_stats.cells_sparse_pruned);
  std::fprintf(stderr,
               "pipebench: %s: %lld rows, %zu pipeline runs, median %.3f s "
               "(fit %.3f + detect %.3f); "
               "%lld candidates, %lld verified, %zu exact outliers "
               "(exact cell list %.3f s), recall %.4f\n",
               config.workload.c_str(), static_cast<long long>(in.rows),
               walls.size(), median_wall, Median(layer["shard.fit_s"]),
               Median(layer["shard.detect_s"]),
               static_cast<long long>(expected.candidates),
               static_cast<long long>(expected.rows.size()),
               in.exact.size(), in.exact_s, recall);
  return result;
}

}  // namespace pipebench
