#include "core/streaming_sampler.h"

#include <algorithm>
#include <cmath>

#include "core/biased_sampler.h"
#include "data/bounds.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/stats.h"

namespace dbs::core {
namespace {

// Incremental product-kernel density estimate over a center reservoir.
// Evaluation is brute force over at most `capacity` centers — the same
// asymptotic cost per point as the offline sampling pass.
class StreamingKde {
 public:
  StreamingKde(int dim, int64_t capacity, density::KernelType kernel,
               double bandwidth_scale, uint64_t seed)
      : dim_(dim),
        capacity_(capacity),
        kernel_(kernel),
        bandwidth_scale_(bandwidth_scale),
        centers_(dim),
        moments_(dim),
        rng_(seed) {}

  // Offers a point to the center reservoir, updates the moments and
  // refreshes the bandwidths from them.
  void Observe(data::PointView p) {
    bounds_.Extend(p);
    for (int j = 0; j < dim_; ++j) moments_[j].Add(p[j]);
    if (seen_ < capacity_) {
      centers_.Append(p);
    } else {
      int64_t slot = static_cast<int64_t>(
          rng_.NextBounded(static_cast<uint64_t>(seen_ + 1)));
      if (slot < capacity_) {
        double* dst = centers_.MutableRow(slot);
        for (int j = 0; j < dim_; ++j) dst[j] = p[j];
      }
    }
    ++seen_;
    RefreshBandwidths();
  }

  // UNIT-MASS density estimate (integrates to ~1 over the domain). The
  // mass-scaled estimate would grow with the number of points seen, which
  // would make the running normalizer systematically lag the scores of
  // later points; the unit-mass estimate is scale-stationary across the
  // stream, so the b/k_a * f^a expression stays consistent (any common
  // scale cancels between numerator and normalizer anyway).
  double Evaluate(data::PointView p) const {
    DBS_DCHECK(!centers_.empty());
    double sum = 0.0;
    for (int64_t i = 0; i < centers_.size(); ++i) {
      const double* c = centers_[i].data();
      double prod = 1.0;
      for (int j = 0; j < dim_; ++j) {
        double u = (p[j] - c[j]) * inv_h_[j];
        double k = density::KernelValue(kernel_, u);
        if (k == 0.0) {
          prod = 0.0;
          break;
        }
        prod *= k;
      }
      sum += prod;
    }
    return inv_h_prod_ * sum / static_cast<double>(centers_.size());
  }

  // Average unit-mass density of the domain seen so far (1 / volume).
  double AverageDensity() const {
    double volume = bounds_.Volume();
    return volume > 0 ? 1.0 / volume : 1.0;
  }

 private:
  void RefreshBandwidths() {
    std::vector<double> sigma(dim_);
    for (int j = 0; j < dim_; ++j) sigma[j] = moments_[j].sample_stddev();
    std::vector<double> h = density::ComputeBandwidths(
        density::BandwidthRule::kScott, kernel_, sigma,
        std::max<int64_t>(centers_.size(), 1), 0.0);
    inv_h_.resize(dim_);
    inv_h_prod_ = 1.0;
    for (int j = 0; j < dim_; ++j) {
      h[j] *= bandwidth_scale_;
      inv_h_[j] = 1.0 / h[j];
      inv_h_prod_ *= inv_h_[j];
    }
  }

  int dim_;
  int64_t capacity_;
  density::KernelType kernel_;
  double bandwidth_scale_;
  data::PointSet centers_;
  std::vector<OnlineMoments> moments_;
  data::BoundingBox bounds_;
  std::vector<double> inv_h_;
  double inv_h_prod_ = 1.0;
  int64_t seen_ = 0;
  Rng rng_;
};

}  // namespace

[[nodiscard]] Result<BiasedSample> StreamingBiasedSample(
    data::DataScan& scan, const StreamingSamplerOptions& options) {
  DBS_RETURN_IF_ERROR(ValidateSamplerOptions(
      options.target_size, options.a, options.density_floor_fraction));
  if (options.num_kernels <= 0) {
    return Status::InvalidArgument("num_kernels must be positive");
  }
  if (!(options.warmup_fraction >= 0 && options.warmup_fraction < 1)) {
    return Status::InvalidArgument("warmup_fraction must be in [0, 1)");
  }
  if (!(options.bandwidth_scale > 0) ||
      !std::isfinite(options.bandwidth_scale)) {
    return Status::InvalidArgument(
        "bandwidth_scale must be positive and finite");
  }
  const int dim = scan.dim();
  const int64_t n = scan.size();
  if (n == 0) {
    return Status::InvalidArgument("cannot sample an empty dataset");
  }

  const int64_t warmup = std::max<int64_t>(
      options.num_kernels,
      static_cast<int64_t>(options.warmup_fraction *
                           static_cast<double>(n)));
  const double b = static_cast<double>(options.target_size);
  const double uniform_rate = std::min(1.0, b / static_cast<double>(n));

  StreamingKde kde(dim, options.num_kernels, options.kernel,
                   options.bandwidth_scale, options.seed);
  Rng rng = Rng(options.seed).Fork(1);

  BiasedSample sample;
  sample.points = data::PointSet(dim);
  sample.dataset_size = n;
  sample.points.Reserve(options.target_size + options.target_size / 4);

  // Running mean of f^a over scored points -> normalizer k_a ~= n * mean.
  OnlineMoments fa_moments;

  scan.Reset();
  data::ScanBatch batch;
  int64_t row = 0;
  while (scan.NextBatch(&batch)) {
    for (int64_t i = 0; i < batch.count; ++i, ++row) {
      data::PointView x = batch.point(i, dim);
      if (row < warmup) {
        kde.Observe(x);
        // Uniform inclusion while the estimator matures.
        if (rng.NextBernoulli(uniform_rate)) {
          sample.points.Append(x);
          sample.inclusion_probs.push_back(uniform_rate);
          sample.densities.push_back(0.0);
        }
        continue;
      }
      // Score against the prefix estimator, then absorb the point.
      const double f_unit = kde.Evaluate(x);
      const double floor =
          options.density_floor_fraction * kde.AverageDensity();
      double fa = SafePow(std::max(f_unit, floor), options.a);
      if (!std::isfinite(fa)) {
        return Status::InvalidArgument(
            "f^a overflows: |a| is too large for these densities");
      }
      fa_moments.Add(fa);
      double k_a = static_cast<double>(n) * fa_moments.mean();
      double p = k_a > 0 ? b / k_a * fa : uniform_rate;
      if (p >= 1.0) {
        p = 1.0;
        ++sample.clamped_count;
      }
      if (rng.NextBernoulli(p)) {
        sample.points.Append(x);
        sample.inclusion_probs.push_back(p);
        // Report the mass-scaled density (points per unit volume).
        sample.densities.push_back(f_unit * static_cast<double>(n));
      }
      kde.Observe(x);
    }
  }
  sample.normalizer =
      fa_moments.count() > 0
          ? static_cast<double>(n) * fa_moments.mean()
          : static_cast<double>(n);
  return sample;
}

[[nodiscard]] Result<BiasedSample> StreamingBiasedSample(
    const data::PointSet& points, const StreamingSamplerOptions& options) {
  data::InMemoryScan scan(&points);
  return StreamingBiasedSample(scan, options);
}

}  // namespace dbs::core
