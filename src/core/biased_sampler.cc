#include "core/biased_sampler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/math.h"
#include "util/rng.h"

namespace dbs::core {
namespace {

int64_t BoundBlocks(int64_t rows) {
  return (rows + kBoundBlockRows - 1) / kBoundBlockRows;
}

// The part of `bounds` that describes the shard `info` names, if it
// describes exactly that shard's `rows` rows; nullptr otherwise.
const NormalizerShardPart* MatchingBounds(const PartialNormalizer* bounds,
                                          const ShardInfo& info,
                                          int64_t rows) {
  if (bounds == nullptr) return nullptr;
  const size_t blocks = static_cast<size_t>(BoundBlocks(rows));
  for (const NormalizerShardPart& part : bounds->parts) {
    if (part.shard != info.shard) continue;
    const bool matches = part.num_shards == info.num_shards &&
                         part.total_rows == info.total_rows &&
                         part.rows == rows &&
                         part.block_pow_min.size() == blocks &&
                         part.block_pow_max.size() == blocks;
    return matches ? &part : nullptr;
  }
  return nullptr;
}

// A sample-pass row the bounds could not reject: its batch index and the
// uniform it drew.
struct Survivor {
  int64_t row;
  double u;
};

// k_a feeds p = (b / k_a) f^a; zero, negative, infinite or NaN (f^a
// underflowing or overflowing at a large |a|) leaves no valid probability.
[[nodiscard]] Result<double> CheckNormalizer(double k_a, const char* what) {
  if (!(k_a > 0) || !std::isfinite(k_a)) {
    return Status::InvalidArgument(std::string(what) +
                                   " k_a is not positive and finite");
  }
  return k_a;
}

}  // namespace

[[nodiscard]] Status ValidateSamplerOptions(int64_t target_size, double a,
                                            double density_floor_fraction) {
  if (target_size <= 0) {
    return Status::InvalidArgument("target_size must be positive");
  }
  if (!std::isfinite(a)) {
    return Status::InvalidArgument("exponent a must be finite");
  }
  if (!(density_floor_fraction >= 0) ||
      !std::isfinite(density_floor_fraction)) {
    return Status::InvalidArgument(
        "density_floor_fraction must be finite and non-negative");
  }
  return Status::Ok();
}

BiasedSampler::BiasedSampler(const BiasedSamplerOptions& options)
    : options_(options) {}

Status BiasedSampler::ValidateOptions() const {
  return ValidateSamplerOptions(options_.target_size, options_.a,
                                options_.density_floor_fraction);
}

double BiasedSampler::FlooredDensityPow(double f, double floor) const {
  return SafePow(std::max(f, floor), options_.a);
}

double BiasedSampler::InclusionProbability(double density,
                                           double normalizer) const {
  if (normalizer <= 0) return 0.0;
  double fa = SafePow(density, options_.a);
  return std::min(1.0, static_cast<double>(options_.target_size) /
                           normalizer * fa);
}

Result<BiasedSample> BiasedSampler::Run(
    data::DataScan& scan, const density::DensityEstimator& estimator) const {
  // The two-pass algorithm is the single-shard instance of the partial
  // pipeline (DESIGN.md §12): pass 1 is NormalizerPartial over the whole
  // range, pass 2 SampleWithNormalizer — so the sharded path at shards=1 is
  // this function, bitwise.
  ShardInfo info;
  info.total_rows = scan.size();
  DBS_ASSIGN_OR_RETURN(PartialNormalizer partial,
                       NormalizerPartial(scan, estimator, info));
  DBS_ASSIGN_OR_RETURN(double k_a, FinalizeNormalizer(partial));
  return SampleWithNormalizer(scan, estimator, k_a, &partial);
}

Result<PartialNormalizer> BiasedSampler::NormalizerPartial(
    data::DataScan& scan, const density::DensityEstimator& estimator,
    const ShardInfo& info) const {
  DBS_RETURN_IF_ERROR(ValidateOptions());
  if (scan.dim() != estimator.dim()) {
    return Status::InvalidArgument(
        "estimator dimensionality does not match the scan");
  }
  if (info.total_rows == 0) {
    return Status::InvalidArgument("cannot sample an empty dataset");
  }
  DBS_RETURN_IF_ERROR(ShardScanRange(info, scan.size()).status());

  // Shard slice of pass 1: k_a contribution = sum of f'(x) over the shard's
  // rows. Densities are computed batch-at-a-time (sharded when an executor
  // is configured); the accumulation stays one sequential sweep in scan
  // order, so each part is bitwise independent of the worker count. The
  // same sweep keeps each row block's f'(x) range for the sampling pass.
  NormalizerShardPart part;
  part.shard = info.shard;
  part.num_shards = info.num_shards;
  part.total_rows = info.total_rows;
  const size_t blocks = static_cast<size_t>(BoundBlocks(scan.size()));
  part.block_pow_min.assign(blocks, std::numeric_limits<double>::infinity());
  part.block_pow_max.assign(blocks, -std::numeric_limits<double>::infinity());
  const double floor =
      options_.density_floor_fraction * estimator.AverageDensity();
  std::vector<double> densities;
  scan.Reset();
  data::ScanBatch batch;
  while (scan.NextBatch(&batch)) {
    if (part.rows + batch.count > scan.size()) {
      return Status::Internal("scan delivered more rows than its size");
    }
    densities.resize(static_cast<size_t>(batch.count));
    DBS_RETURN_IF_ERROR(estimator.EvaluateBatch(
        batch.rows, batch.count, densities.data(), options_.executor));
    for (int64_t i = 0; i < batch.count; ++i) {
      const double fa =
          FlooredDensityPow(densities[static_cast<size_t>(i)], floor);
      part.k_a += fa;
      const size_t block =
          static_cast<size_t>((part.rows + i) / kBoundBlockRows);
      part.block_pow_min[block] = std::min(part.block_pow_min[block], fa);
      part.block_pow_max[block] = std::max(part.block_pow_max[block], fa);
    }
    part.rows += batch.count;
  }

  PartialNormalizer partial;
  partial.parts.push_back(part);
  return partial;
}

Result<double> BiasedSampler::FinalizeNormalizer(
    const PartialNormalizer& partial) const {
  DBS_RETURN_IF_ERROR(ValidateOptions());
  DBS_RETURN_IF_ERROR(
      CheckCompleteShards(partial.parts, "partial normalizer state"));
  double k_a = 0.0;
  for (const NormalizerShardPart& part : partial.parts) k_a += part.k_a;
  return CheckNormalizer(k_a, "normalizer");
}

[[nodiscard]] Result<PartialNormalizer> MergePartialNormalizers(PartialNormalizer a,
                                                  PartialNormalizer b) {
  DBS_RETURN_IF_ERROR(MergeShardParts(&a.parts, std::move(b.parts)));
  return a;
}

[[nodiscard]] Result<PartialSample> MergePartialSamples(PartialSample a, PartialSample b) {
  if (!a.parts.empty() && !b.parts.empty() &&
      a.parts.front().points.dim() != b.parts.front().points.dim()) {
    return Status::InvalidArgument(
        "cannot merge partial samples of different dimensionality");
  }
  DBS_RETURN_IF_ERROR(MergeShardParts(&a.parts, std::move(b.parts)));
  return a;
}

Result<BiasedSample> BiasedSampler::Run(
    const data::PointSet& points,
    const density::DensityEstimator& estimator) const {
  data::InMemoryScan scan(&points);
  return Run(scan, estimator);
}

Result<BiasedSample> BiasedSampler::RunOnePass(data::DataScan& scan,
                                               const density::Kde& kde) const {
  DBS_ASSIGN_OR_RETURN(
      double k_a, EstimateNormalizer(kde, scan.size(), options_.executor));
  return SampleWithNormalizer(scan, kde, k_a, nullptr);
}

Result<double> BiasedSampler::EstimateNormalizer(
    const density::Kde& kde, int64_t total_rows,
    parallel::BatchExecutor* executor) const {
  DBS_RETURN_IF_ERROR(ValidateOptions());
  if (total_rows == 0) {
    return Status::InvalidArgument("cannot sample an empty dataset");
  }
  // Kernel centers are a uniform sample of the data, so the sample mean of
  // f^a over them estimates E_D[f^a] and k_a ~= n * E_D[f^a]. No dataset
  // pass is spent on normalization.
  return CheckNormalizer(static_cast<double>(total_rows) *
                             kde.MeanDensityPow(options_.a, executor),
                         "estimated normalizer");
}

Result<BiasedSample> BiasedSampler::RunOnePass(const data::PointSet& points,
                                               const density::Kde& kde) const {
  data::InMemoryScan scan(&points);
  return RunOnePass(scan, kde);
}

Result<BiasedSample> BiasedSampler::SampleWithNormalizer(
    data::DataScan& scan, const density::DensityEstimator& estimator,
    double normalizer, const PartialNormalizer* bounds) const {
  ShardInfo info;
  info.total_rows = scan.size();
  DBS_ASSIGN_OR_RETURN(
      PartialSample partial,
      SamplePartial(scan, estimator, normalizer, info, bounds));
  return FinalizeSample(std::move(partial), normalizer);
}

Result<PartialSample> BiasedSampler::SamplePartial(
    data::DataScan& scan, const density::DensityEstimator& estimator,
    double normalizer, const ShardInfo& info,
    const PartialNormalizer* bounds) const {
  DBS_RETURN_IF_ERROR(ValidateOptions());
  if (scan.dim() != estimator.dim()) {
    return Status::InvalidArgument(
        "estimator dimensionality does not match the scan");
  }
  DBS_ASSIGN_OR_RETURN(const RowRange range,
                       ShardScanRange(info, scan.size()));
  const int dim = scan.dim();
  // p = scale * f'(x) is one multiply, so it is monotone in f'(x).
  const double scale =
      static_cast<double>(options_.target_size) / normalizer;
  const double floor =
      options_.density_floor_fraction * estimator.AverageDensity();
  const NormalizerShardPart* shard_bounds =
      MatchingBounds(bounds, info, range.size());

  SampleShardPart part;
  part.shard = info.shard;
  part.num_shards = info.num_shards;
  part.total_rows = info.total_rows;
  part.points = data::PointSet(dim);
  // Reserve the shard's expected share of the sample (plus slack).
  const int64_t expected =
      info.total_rows > 0
          ? options_.target_size * range.size() / info.total_rows
          : options_.target_size;
  part.points.Reserve(expected + expected / 4 + 16);

  // Densities for the whole scan batch first (parallel, pure per-point
  // arithmetic), then one sequential RNG sweep over the precomputed values
  // — the draw stream never depends on how the densities were computed, so
  // the sample is bitwise reproducible across worker counts. Each shard
  // draws from its own ShardSeed stream (shard 0 = the legacy stream).
  Rng rng(ShardSeed(options_.seed, info.shard));
  std::vector<double> densities;
  std::vector<Survivor> survivors;
  std::vector<double> survivor_rows;
  scan.Reset();
  data::ScanBatch batch;
  while (scan.NextBatch(&batch)) {
    if (shard_bounds != nullptr && batch.count > 0 &&
        part.rows + batch.count <= range.size()) {
      // Bounded sweep (DESIGN.md §12): when every row's p lies strictly
      // inside (0, 1), NextBernoulli(p) is exactly NextDouble() < p, so
      // the coins can be drawn before f is known. A coin at or above its
      // block's largest p rejects the row; only the rest are evaluated.
      const size_t first = static_cast<size_t>(part.rows / kBoundBlockRows);
      const size_t last = static_cast<size_t>(
          (part.rows + batch.count - 1) / kBoundBlockRows);
      double pow_min = shard_bounds->block_pow_min[first];
      double pow_max = shard_bounds->block_pow_max[first];
      for (size_t k = first + 1; k <= last; ++k) {
        pow_min = std::min(pow_min, shard_bounds->block_pow_min[k]);
        pow_max = std::max(pow_max, shard_bounds->block_pow_max[k]);
      }
      if (scale * pow_min > 0.0 && scale * pow_max < 1.0) {
        survivors.clear();
        for (int64_t i = 0; i < batch.count;) {
          const int64_t block = (part.rows + i) / kBoundBlockRows;
          const int64_t end = std::min(
              batch.count, (block + 1) * kBoundBlockRows - part.rows);
          const double p_max =
              scale * shard_bounds->block_pow_max[static_cast<size_t>(block)];
          for (; i < end; ++i) {
            const double u = rng.NextDouble();
            if (u < p_max) survivors.push_back({i, u});
          }
        }
        const int64_t evaluated = static_cast<int64_t>(survivors.size());
        survivor_rows.resize(static_cast<size_t>(evaluated * dim));
        double* gathered = survivor_rows.data();
        for (const Survivor& survivor : survivors) {
          const double* row = batch.rows + survivor.row * dim;
          gathered = std::copy(row, row + dim, gathered);
        }
        densities.resize(static_cast<size_t>(evaluated));
        DBS_RETURN_IF_ERROR(
            estimator.EvaluateBatch(survivor_rows.data(), evaluated,
                                    densities.data(), options_.executor));
        for (size_t j = 0; j < survivors.size(); ++j) {
          const double f = densities[j];
          const double p = scale * FlooredDensityPow(f, floor);
          if (survivors[j].u < p) {
            part.points.Append(batch.point(survivors[j].row, dim));
            part.inclusion_probs.push_back(p);
            part.densities.push_back(f);
          }
        }
        part.density_evaluations += evaluated;
        part.rows += batch.count;
        continue;
      }
    }
    densities.resize(static_cast<size_t>(batch.count));
    DBS_RETURN_IF_ERROR(estimator.EvaluateBatch(
        batch.rows, batch.count, densities.data(), options_.executor));
    for (int64_t i = 0; i < batch.count; ++i) {
      data::PointView x = batch.point(i, dim);
      double f = densities[static_cast<size_t>(i)];
      double p = scale * FlooredDensityPow(f, floor);
      if (p >= 1.0) {
        p = 1.0;
        ++part.clamped_count;
      }
      if (rng.NextBernoulli(p)) {
        part.points.Append(x);
        part.inclusion_probs.push_back(p);
        part.densities.push_back(f);
      }
    }
    part.density_evaluations += batch.count;
    part.rows += batch.count;
  }

  PartialSample partial;
  partial.parts.push_back(std::move(part));
  return partial;
}

Result<BiasedSample> BiasedSampler::FinalizeSample(PartialSample partial,
                                                   double normalizer) const {
  DBS_RETURN_IF_ERROR(ValidateOptions());
  DBS_RETURN_IF_ERROR(
      CheckCompleteShards(partial.parts, "partial sample state"));
  BiasedSample sample;
  sample.normalizer = normalizer;
  sample.dataset_size = partial.parts.front().total_rows;
  // Ascending shard order — per-shard accept lists concatenate in row order.
  sample.points = std::move(partial.parts.front().points);
  sample.inclusion_probs = std::move(partial.parts.front().inclusion_probs);
  sample.densities = std::move(partial.parts.front().densities);
  sample.clamped_count = partial.parts.front().clamped_count;
  sample.density_evaluations = partial.parts.front().density_evaluations;
  for (size_t i = 1; i < partial.parts.size(); ++i) {
    SampleShardPart& part = partial.parts[i];
    sample.points.AppendAll(part.points);
    sample.inclusion_probs.insert(sample.inclusion_probs.end(),
                                  part.inclusion_probs.begin(),
                                  part.inclusion_probs.end());
    sample.densities.insert(sample.densities.end(), part.densities.begin(),
                            part.densities.end());
    sample.clamped_count += part.clamped_count;
    sample.density_evaluations += part.density_evaluations;
  }
  return sample;
}

}  // namespace dbs::core
