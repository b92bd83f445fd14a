// In-process sharded build coordinator (DESIGN.md §12).
//
// ShardCoordinator runs the full approximation pipeline — KDE fit, the
// sampler's two- or one-pass algorithms, DB(p,k)-outlier detection — as N
// independent shard builds over disjoint row ranges, then tree-reduces the
// mergeable partial states. Each public method is one or two fan-out
// rounds:
//
//   BuildKde        FitPartial per shard -> MergePartialKde -> FinalizeKde
//   SampleTwoPass   NormalizerPartial round, then SamplePartial round
//                   (bounded by the first round's per-block f^a range)
//   SampleOnePass   estimator-derived k_a, then one SamplePartial round
//   DetectOutliers  scoring round, then neighbor-counting round
//
// Every shard task opens its own scan through the caller's factory (so N
// file handles stream N disjoint slices concurrently) and runs its partial
// build sequentially; parallelism is ACROSS shards, fanned out over an
// optional parallel::BatchExecutor (a single shard instead shards its
// density batches over it). Determinism guarantees:
//
//   * shards=1 output is bitwise identical to the unsharded entry points
//     (Kde::Fit, BiasedSampler::Run/RunOnePass, DetectOutliersApproximate),
//     because those are implemented as the single-shard partial pipeline.
//   * For any shard count, results are bitwise independent of the worker
//     count and of merge order (the tree-reduce unions per-shard summaries;
//     all arithmetic happens once, in ascending shard order, at finalize).
//   * Outlier detection is additionally bitwise identical to the unsharded
//     detector at ANY shard count — both passes are RNG-free and row
//     ranges are contiguous, so candidate lists and integer tallies
//     recompose exactly.

#ifndef DBS_SHARD_COORDINATOR_H_
#define DBS_SHARD_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "core/biased_sampler.h"
#include "core/sample.h"
#include "data/dataset.h"
#include "density/kde.h"
#include "density/kde_partial.h"
#include "outlier/kde_detector.h"
#include "parallel/batch_executor.h"
#include "util/shard.h"
#include "util/status.h"

namespace dbs::shard {

struct ShardCoordinatorOptions {
  // Number of shards; clamped to [1, total_rows].
  int64_t shards = 1;
  // Optional pool the shard tasks are fanned out over (not owned; must
  // outlive the coordinator). Each shard's work runs sequentially inside
  // its task — nested executor use from a worker thread would deadlock the
  // pool — so per-shard estimator options must NOT carry an executor; the
  // coordinator strips any configured executor from the options it passes
  // down. With one shard there is no fan-out and the shard runs on the
  // calling thread, so the sampler and detector options get this pool
  // instead and their density batches fan out over it (same bytes: batch
  // evaluation is worker-invariant). Under queue backpressure the fan-out
  // falls back to running the shards sequentially on the calling thread:
  // same bytes, less overlap.
  parallel::BatchExecutor* executor = nullptr;
};

class ShardCoordinator {
 public:
  // Produces a fresh scan over the WHOLE dataset. Called once per shard
  // per pass (plus once up-front to learn the dataset size), possibly
  // concurrently from executor workers.
  using ScanFactory =
      std::function<Result<std::unique_ptr<data::DataScan>>()>;

  ShardCoordinator(ScanFactory factory,
                   const ShardCoordinatorOptions& options);

  // Sharded Kde::Fit.
  [[nodiscard]] Result<density::Kde> BuildKde(const density::KdeOptions& options) const;

  // Sharded BiasedSampler::Run (exact normalizer pass, then sampling pass).
  [[nodiscard]] Result<core::BiasedSample> SampleTwoPass(
      const density::DensityEstimator& estimator,
      const core::BiasedSamplerOptions& options) const;

  // Sharded BiasedSampler::RunOnePass (k_a estimated from kernel centers).
  [[nodiscard]] Result<core::BiasedSample> SampleOnePass(
      const density::Kde& kde,
      const core::BiasedSamplerOptions& options) const;

  // Sharded DetectOutliersApproximate.
  [[nodiscard]] Result<outlier::OutlierReport> DetectOutliers(
      const density::DensityEstimator& estimator,
      const outlier::DbOutlierParams& params,
      const outlier::KdeDetectorOptions& options) const;

 private:
  // One shard's partial build: receives its slice scan and shard identity.
  template <typename Partial>
  using ShardFn =
      std::function<Result<Partial>(data::DataScan&, const ShardInfo&)>;

  // The executor the per-shard sampler and detector options carry: the
  // coordinator's own when the single shard runs on the calling thread,
  // none when shards fan out over it.
  parallel::BatchExecutor* ShardExecutor(int64_t num_shards) const;

  // Opens the dataset once to learn its size; returns the clamped shard
  // count for it.
  [[nodiscard]] Result<int64_t> ResolveShards(int64_t* total_rows) const;

  template <typename Partial>
  [[nodiscard]] Result<std::vector<Partial>> RunShards(int64_t num_shards,
                                         int64_t total_rows,
                                         const ShardFn<Partial>& fn) const;

  // One fan-out round: RunShards, then TreeReduce of the parts with
  // `merge` — the only place the coordinator fans out and reduces.
  template <typename Partial, typename MergeFn>
  [[nodiscard]] Result<Partial> Round(int64_t num_shards, int64_t total_rows,
                                      const ShardFn<Partial>& fn,
                                      const MergeFn& merge) const;

  ScanFactory factory_;
  ShardCoordinatorOptions options_;
};

}  // namespace dbs::shard

#endif  // DBS_SHARD_COORDINATOR_H_
