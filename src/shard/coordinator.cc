#include "shard/coordinator.h"

#include <condition_variable>
#include <mutex>
#include <utility>
#include <vector>

#include "data/range_scan.h"

namespace dbs::shard {

ShardCoordinator::ShardCoordinator(ScanFactory factory,
                                   const ShardCoordinatorOptions& options)
    : factory_(std::move(factory)), options_(options) {}

Result<int64_t> ShardCoordinator::ResolveShards(int64_t* total_rows) const {
  DBS_ASSIGN_OR_RETURN(std::unique_ptr<data::DataScan> scan, factory_());
  *total_rows = scan->size();
  int64_t shards = options_.shards < 1 ? 1 : options_.shards;
  if (*total_rows > 0 && shards > *total_rows) shards = *total_rows;
  return shards;
}

parallel::BatchExecutor* ShardCoordinator::ShardExecutor(
    int64_t num_shards) const {
  return num_shards == 1 ? options_.executor : nullptr;
}

template <typename Partial>
Result<std::vector<Partial>> ShardCoordinator::RunShards(
    int64_t num_shards, int64_t total_rows,
    const ShardFn<Partial>& fn) const {
  std::vector<Partial> parts(static_cast<size_t>(num_shards));
  std::vector<Status> statuses(static_cast<size_t>(num_shards),
                               Status::Ok());
  auto run_one = [&](int64_t s) {
    auto scan_or = factory_();
    if (!scan_or.ok()) {
      statuses[static_cast<size_t>(s)] = scan_or.status();
      return;
    }
    std::unique_ptr<data::DataScan> scan = std::move(*scan_or);
    if (scan->size() != total_rows) {
      statuses[static_cast<size_t>(s)] = Status::InvalidArgument(
          "dataset size changed between sharded passes");
      return;
    }
    const RowRange range = ShardRowRange(total_rows, num_shards, s);
    data::RangeScan slice(scan.get(), range.begin, range.end);
    ShardInfo info;
    info.shard = s;
    info.num_shards = num_shards;
    info.total_rows = total_rows;
    auto part_or = fn(slice, info);
    if (!part_or.ok()) {
      statuses[static_cast<size_t>(s)] = part_or.status();
      return;
    }
    parts[static_cast<size_t>(s)] = std::move(*part_or);
  };

  bool ran_parallel = false;
  if (options_.executor != nullptr && num_shards > 1) {
    // Fan the shard tasks out as one all-or-nothing admission with our own
    // completion latch. ParallelFor is not used here: its min_shard floor
    // would collapse a small shard count into one task.
    std::mutex mu;
    std::condition_variable done;
    int64_t remaining = num_shards;
    std::vector<std::function<void()>> tasks;
    tasks.reserve(static_cast<size_t>(num_shards));
    for (int64_t s = 0; s < num_shards; ++s) {
      tasks.push_back([&, s] {
        run_one(s);
        // Notify while holding mu: once the waiter can observe
        // remaining == 0 it returns and destroys `done`, so a notify after
        // unlocking could touch a dead condition variable.
        std::lock_guard<std::mutex> lock(mu);
        --remaining;
        done.notify_one();
      });
    }
    if (options_.executor->TrySubmitAll(std::move(tasks)).ok()) {
      std::unique_lock<std::mutex> lock(mu);
      done.wait(lock, [&] { return remaining == 0; });
      ran_parallel = true;
    }
    // Backpressure (or shutdown): fall through to the sequential fan-out —
    // identical bytes, no failure surfaced to the caller.
  }
  if (!ran_parallel) {
    for (int64_t s = 0; s < num_shards; ++s) run_one(s);
  }

  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return parts;
}

template <typename Partial, typename MergeFn>
Result<Partial> ShardCoordinator::Round(int64_t num_shards, int64_t total_rows,
                                        const ShardFn<Partial>& fn,
                                        const MergeFn& merge) const {
  DBS_ASSIGN_OR_RETURN(std::vector<Partial> parts,
                       RunShards<Partial>(num_shards, total_rows, fn));
  return TreeReduce(std::move(parts), merge);
}

Result<density::Kde> ShardCoordinator::BuildKde(
    const density::KdeOptions& options) const {
  int64_t total_rows = 0;
  DBS_ASSIGN_OR_RETURN(int64_t num_shards, ResolveShards(&total_rows));
  DBS_ASSIGN_OR_RETURN(
      density::PartialKde merged,
      Round<density::PartialKde>(
          num_shards, total_rows,
          [&options](data::DataScan& scan, const ShardInfo& info) {
            return density::Kde::FitPartial(scan, options, info);
          },
          density::MergePartialKde));
  return density::FinalizeKde(std::move(merged), options);
}

Result<core::BiasedSample> ShardCoordinator::SampleTwoPass(
    const density::DensityEstimator& estimator,
    const core::BiasedSamplerOptions& options) const {
  int64_t total_rows = 0;
  DBS_ASSIGN_OR_RETURN(int64_t num_shards, ResolveShards(&total_rows));
  core::BiasedSamplerOptions shard_options = options;
  shard_options.executor = ShardExecutor(num_shards);
  const core::BiasedSampler sampler(shard_options);

  // Round 1: exact normalizer.
  DBS_ASSIGN_OR_RETURN(
      core::PartialNormalizer norm_merged,
      Round<core::PartialNormalizer>(
          num_shards, total_rows,
          [&](data::DataScan& scan, const ShardInfo& info) {
            return sampler.NormalizerPartial(scan, estimator, info);
          },
          core::MergePartialNormalizers));
  DBS_ASSIGN_OR_RETURN(double k_a, sampler.FinalizeNormalizer(norm_merged));

  // Round 2: Bernoulli sampling against the global normalizer, skipping
  // f(x) where round 1's per-block f^a bounds already reject the row.
  DBS_ASSIGN_OR_RETURN(
      core::PartialSample sample_merged,
      Round<core::PartialSample>(
          num_shards, total_rows,
          [&](data::DataScan& scan, const ShardInfo& info) {
            return sampler.SamplePartial(scan, estimator, k_a, info,
                                         &norm_merged);
          },
          core::MergePartialSamples));
  return sampler.FinalizeSample(std::move(sample_merged), k_a);
}

Result<core::BiasedSample> ShardCoordinator::SampleOnePass(
    const density::Kde& kde,
    const core::BiasedSamplerOptions& options) const {
  int64_t total_rows = 0;
  DBS_ASSIGN_OR_RETURN(int64_t num_shards, ResolveShards(&total_rows));
  core::BiasedSamplerOptions shard_options = options;
  shard_options.executor = ShardExecutor(num_shards);
  const core::BiasedSampler sampler(shard_options);

  // k_a from the kernel centers (no dataset pass), evaluated on the calling
  // thread, where the coordinator's executor is safe to use.
  DBS_ASSIGN_OR_RETURN(
      double k_a,
      sampler.EstimateNormalizer(kde, total_rows, options_.executor));
  DBS_ASSIGN_OR_RETURN(
      core::PartialSample sample_merged,
      Round<core::PartialSample>(
          num_shards, total_rows,
          [&](data::DataScan& scan, const ShardInfo& info) {
            return sampler.SamplePartial(scan, kde, k_a, info);
          },
          core::MergePartialSamples));
  return sampler.FinalizeSample(std::move(sample_merged), k_a);
}

Result<outlier::OutlierReport> ShardCoordinator::DetectOutliers(
    const density::DensityEstimator& estimator,
    const outlier::DbOutlierParams& params,
    const outlier::KdeDetectorOptions& options) const {
  int64_t total_rows = 0;
  DBS_ASSIGN_OR_RETURN(int64_t num_shards, ResolveShards(&total_rows));
  outlier::KdeDetectorOptions shard_options = options;
  shard_options.executor = ShardExecutor(num_shards);

  // Round 1: score rows, keep likely outliers under global row indices.
  // The merge enforces the global candidate cap, so it binds the option.
  DBS_ASSIGN_OR_RETURN(
      outlier::PartialOutlierCandidates cand_merged,
      Round<outlier::PartialOutlierCandidates>(
          num_shards, total_rows,
          [&](data::DataScan& scan, const ShardInfo& info) {
            return outlier::ScoreOutlierCandidatesPartial(
                scan, estimator, params, shard_options, info);
          },
          [&options](outlier::PartialOutlierCandidates x,
                     outlier::PartialOutlierCandidates y) {
            return outlier::MergeOutlierCandidates(
                std::move(x), std::move(y), options.max_candidates);
          }));
  DBS_ASSIGN_OR_RETURN(
      outlier::OutlierCandidates candidates,
      outlier::FinalizeOutlierCandidates(std::move(cand_merged)));
  if (candidates.points.empty()) {
    outlier::OutlierReport report;
    report.candidates_checked = 0;
    report.passes = 1;
    return report;
  }

  // Round 2: exact neighbor tallies of the merged candidate set.
  DBS_ASSIGN_OR_RETURN(
      outlier::PartialNeighborCounts count_merged,
      Round<outlier::PartialNeighborCounts>(
          num_shards, total_rows,
          [&](data::DataScan& scan, const ShardInfo& info) {
            return outlier::CountCandidateNeighborsPartial(scan, candidates,
                                                           params, info);
          },
          outlier::MergeNeighborCounts));
  return outlier::FinalizeOutlierReport(candidates, count_merged, params);
}

}  // namespace dbs::shard
