// Density-biased sampling — the paper's primary contribution (Fig 1, §2.2).
//
// Given a density estimator f for a dataset D of n points and a tunable
// exponent `a`, each point x is included in the sample with probability
//
//   P(x) = min(1, (b / k_a) * f(x)^a),   k_a = sum_{x in D} f(x)^a,
//
// which satisfies the paper's two properties: inclusion probability is a
// function of local density only (Property 1) and the expected sample size
// is b (Property 2, exactly when nothing clamps at 1). The exponent selects
// the sampling regime:
//
//   a > 0    oversample dense regions (robust to noise; a = 1 samples
//            proportionally to the density itself),
//   a = 0    uniform sampling,
//   -1 < a < 0  oversample sparse regions while keeping relative densities
//            intact with high probability (Lemma 1) — finds small or sparse
//            clusters next to dominant ones,
//   a = -1   equal expected mass in equal volumes ("flattens" the density),
//   a < -1   inverts the density ordering (sparse regions dominate; the
//            regime outlier hunting would use).
//
// Two execution modes over a DataScan:
//   Run       two passes — an exact normalization pass for k_a, then the
//             sampling pass (this is the paper's Figure-1 algorithm). The
//             normalization pass also records the min and max of f^a over
//             every kBoundBlockRows-row block, and the sampling pass uses
//             them to skip f(x) for rows whose coin already rejects them:
//             when a batch's bounds put every p strictly inside (0, 1),
//             each row consumes exactly one uniform u, and a row with
//             u >= (b / k_a) * max f^a of its block is rejected unevaluated.
//             Only the survivors are evaluated, so the sampling pass costs
//             about b density evaluations instead of n, and the sample is
//             byte-identical to the full-evaluation pass (DESIGN.md §12,
//             "Bounded sample pass").
//   RunOnePass one pass — k_a is estimated as n * E[f^a] from the KDE's
//             kernel centers (which are themselves a uniform sample of D),
//             the integrated variant sketched at the end of §2.2. The
//             sample size then only approximates b. With no normalization
//             pass there are no bounds, so every row is evaluated.
//
// Zero-density points: a point can sit outside the support of every kernel
// (f(x) = 0), which would make f^a undefined for a <= 0. The sampler floors
// the density at density_floor_fraction * AverageDensity(), so such points
// get the MAXIMAL boost under negative `a` instead of being dropped, and
// that boost is bounded: with the default floor of 1e-3 of the average
// density, a fully isolated point weighs at most 1000^(-a) times an
// average-density point. Lower the floor to chase extreme isolation harder,
// raise it to damp the influence of empty space.

#ifndef DBS_CORE_BIASED_SAMPLER_H_
#define DBS_CORE_BIASED_SAMPLER_H_

#include <cstdint>

#include <vector>

#include "core/sample.h"
#include "data/dataset.h"
#include "density/density_estimator.h"
#include "density/kde.h"
#include "util/shard.h"
#include "util/status.h"

namespace dbs::core {

// Rows per f^a bound block of the normalization pass. Blocks are keyed by
// row offset within the shard (block j holds rows [1024 j, 1024 (j + 1))),
// not by scan batch, so the sampling pass can read them at any batch size.
inline constexpr int64_t kBoundBlockRows = 1024;

// One shard's contribution to the exact normalization pass: the sequential
// sum of f'(x) over the shard's rows, in scan order, and the min and max
// of f'(x) over every kBoundBlockRows-row block (the last block may be
// short). f'(x) is the floored f(x)^a. The sampling pass reads the block
// bounds only; merging and FinalizeNormalizer ignore them.
struct NormalizerShardPart {
  int64_t shard = 0;
  int64_t num_shards = 1;
  int64_t total_rows = 0;
  int64_t rows = 0;
  double k_a = 0.0;
  std::vector<double> block_pow_min;
  std::vector<double> block_pow_max;
};

// Mergeable partial state of the sampler's k_a pass (DESIGN.md §12). Merging
// is a disjoint union; the floating-point sum happens once, in ascending
// shard order, at FinalizeNormalizer time.
struct PartialNormalizer {
  std::vector<NormalizerShardPart> parts;
};

// One shard's contribution to the sampling pass: the rows the shard's
// Bernoulli sweep accepted, with their inclusion probabilities and density
// estimates, in scan order.
struct SampleShardPart {
  int64_t shard = 0;
  int64_t num_shards = 1;
  int64_t total_rows = 0;
  int64_t rows = 0;
  data::PointSet points;
  std::vector<double> inclusion_probs;
  std::vector<double> densities;
  int64_t clamped_count = 0;
  // Rows whose f(x) the sweep evaluated (all rows without bounds).
  int64_t density_evaluations = 0;
};

// Mergeable partial state of the sampling pass; FinalizeSample concatenates
// the complete set in ascending shard order.
struct PartialSample {
  std::vector<SampleShardPart> parts;
};

[[nodiscard]] Result<PartialNormalizer> MergePartialNormalizers(PartialNormalizer a,
                                                  PartialNormalizer b);
[[nodiscard]] Result<PartialSample> MergePartialSamples(PartialSample a, PartialSample b);

struct BiasedSamplerOptions {
  // The density exponent `a`.
  double a = 1.0;
  // Expected sample size b.
  int64_t target_size = 1000;
  // Density floor, as a fraction of the estimator's average density (see
  // header comment).
  double density_floor_fraction = 1e-3;
  uint64_t seed = 1;
  // Optional worker pool (not owned; must outlive the sampler run). When
  // set, each scan batch's densities are computed through the estimator's
  // sharded EvaluateBatch — the expensive, per-point-independent part —
  // while the Bernoulli draws stay one sequential RNG sweep over the
  // precomputed densities. Samples are therefore BITWISE IDENTICAL for a
  // fixed seed whether the pool has 1 or N workers, or is absent. A full
  // executor queue surfaces as kUnavailable from Run/RunOnePass.
  parallel::BatchExecutor* executor = nullptr;
};

// The sampler option check, shared with the streaming sampler:
// target_size > 0, a finite `a` and a finite density_floor_fraction >= 0
// (NaN fails every one). InvalidArgument otherwise.
[[nodiscard]] Status ValidateSamplerOptions(int64_t target_size, double a,
                                            double density_floor_fraction);

// Every Result-returning entry point of BiasedSampler runs the option check
// first (Run through NormalizerPartial, RunOnePass through
// EstimateNormalizer). A k_a that is not positive and finite — f^a under-
// or overflowing at a large |a| — is InvalidArgument as well, checked by
// FinalizeNormalizer (exact) and EstimateNormalizer (estimated).
class BiasedSampler {
 public:
  explicit BiasedSampler(const BiasedSamplerOptions& options);

  // Two-pass exact algorithm (paper Fig 1). `estimator` must have been
  // fitted on the same data. Any DensityEstimator works.
  [[nodiscard]] Result<BiasedSample> Run(data::DataScan& scan,
                           const density::DensityEstimator& estimator) const;

  [[nodiscard]] Result<BiasedSample> Run(const data::PointSet& points,
                           const density::DensityEstimator& estimator) const;

  // One-pass integrated variant; requires a Kde (the normalizer estimate
  // comes from its kernel centers).
  [[nodiscard]] Result<BiasedSample> RunOnePass(data::DataScan& scan,
                                  const density::Kde& kde) const;

  [[nodiscard]] Result<BiasedSample> RunOnePass(const data::PointSet& points,
                                  const density::Kde& kde) const;

  // The one-pass normalizer estimate k_a ~= total_rows * E[f^a] over the
  // kernel centers, shared by RunOnePass and the sharded one-pass sampler.
  // MeanDensityPow runs on `executor` (bitwise identical with or without
  // one), so a caller that fans shards out can still use its pool here.
  [[nodiscard]] Result<double> EstimateNormalizer(
      const density::Kde& kde, int64_t total_rows,
      parallel::BatchExecutor* executor) const;

  // The inclusion probability the sampler would assign to density value f
  // given normalizer k_a (exposed for analysis and tests).
  double InclusionProbability(double density, double normalizer) const;

  // Sharded partial pipeline (DESIGN.md §12). `scan` must cover exactly the
  // rows of ShardRowRange(info.total_rows, info.num_shards, info.shard);
  // wrap the full dataset in a data::RangeScan. Run is implemented as the
  // num_shards == 1 instance of these, which pins the shards=1 path bitwise
  // identical to the historical two-pass algorithm.
  [[nodiscard]] Result<PartialNormalizer> NormalizerPartial(
      data::DataScan& scan, const density::DensityEstimator& estimator,
      const ShardInfo& info) const;
  // Reduces a COMPLETE normalizer state to k_a (ascending shard order) and
  // checks it is positive and finite.
  [[nodiscard]] Result<double> FinalizeNormalizer(const PartialNormalizer& partial) const;
  // Sampling pass over one shard with the shard-seeded Bernoulli stream.
  // `bounds`, when given, must be normalization state this sampler (or one
  // with the same options) produced over the same estimator and rows; its
  // block bounds let the pass skip f(x) for rows the coin rejects anyway,
  // whatever `normalizer` is. The output is byte-identical with or without
  // it; only density_evaluations changes. A state with no part for
  // info.shard, or whose part does not match info.num_shards,
  // info.total_rows and the shard's row count, is ignored.
  [[nodiscard]] Result<PartialSample> SamplePartial(
      data::DataScan& scan, const density::DensityEstimator& estimator,
      double normalizer, const ShardInfo& info,
      const PartialNormalizer* bounds = nullptr) const;
  // Concatenates a COMPLETE sample state in ascending shard order.
  [[nodiscard]] Result<BiasedSample> FinalizeSample(PartialSample partial,
                                      double normalizer) const;

 private:
  [[nodiscard]] Status ValidateOptions() const;

  [[nodiscard]] Result<BiasedSample> SampleWithNormalizer(
      data::DataScan& scan, const density::DensityEstimator& estimator,
      double normalizer, const PartialNormalizer* bounds) const;

  double FlooredDensityPow(double f, double floor) const;

  BiasedSamplerOptions options_;
};

}  // namespace dbs::core

#endif  // DBS_CORE_BIASED_SAMPLER_H_
