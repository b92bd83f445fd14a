// Fully-streaming density-biased sampling — one pass, no pre-fitted
// estimator (the §2.2 integration the paper defers to its full version:
// "it is possible to integrate both steps in one, thus deriving the biased
// sample in a single pass over the database; in this case however we only
// compute an approximation of the sampling probability").
//
// The sampler maintains, while scanning:
//   * a reservoir of kernel centers and running per-dimension moments,
//     from which the current KDE is derived (bandwidths refresh as the
//     moments evolve);
//   * a running estimate of E[f^a] over the points seen, giving the
//     normalizer estimate k_a ~= n * E[f^a] (n comes from scan metadata).
//
// Points seen during the warmup prefix are included uniformly at rate b/n
// (the estimator is too immature to bias with); after warmup each point is
// scored against the current estimator and included with the usual
// min(1, b/k_a * f^a). The recorded inclusion probabilities are the ones
// actually used, so Horvitz-Thompson weighting remains exactly valid even
// though the probabilities only approximate the offline sampler's.
//
// Accuracy/cost: exactly ONE pass (vs two or three for fit + normalize +
// sample); the sample size approximates b with error driven by the warmup
// fraction and the normalizer drift. tests/core_streaming_test.cc bounds
// both.
//
// ORDERING ASSUMPTION: the stream must be (approximately) exchangeable —
// arrival order independent of position in space. On a stream sorted by
// cluster, every point is scored while its own region is still
// under-represented in the prefix estimator, which deflates all scores
// relative to the running normalizer and shrinks the sample well below b
// (tests/core_streaming_test.cc demonstrates the effect). Shuffle such
// data, or fall back to the two-pass BiasedSampler.

#ifndef DBS_CORE_STREAMING_SAMPLER_H_
#define DBS_CORE_STREAMING_SAMPLER_H_

#include <cstdint>

#include "core/sample.h"
#include "data/dataset.h"
#include "density/bandwidth.h"
#include "density/kernel.h"
#include "util/status.h"

namespace dbs::core {

struct StreamingSamplerOptions {
  // The density exponent `a`.
  double a = 1.0;
  // Expected sample size b.
  int64_t target_size = 1000;
  // Kernel-center reservoir capacity.
  int64_t num_kernels = 1000;
  density::KernelType kernel = density::KernelType::kEpanechnikov;
  // Multiplier on the Scott-rule bandwidths (see density::KdeOptions).
  double bandwidth_scale = 1.0;
  // Warmup prefix: points sampled uniformly while the estimator matures,
  // as a fraction of the scan (at least num_kernels points).
  double warmup_fraction = 0.05;
  // Density floor, as a fraction of the running average density.
  double density_floor_fraction = 1e-3;
  uint64_t seed = 1;
};

// Draws the biased sample in a single pass over `scan`.
[[nodiscard]] Result<BiasedSample> StreamingBiasedSample(
    data::DataScan& scan, const StreamingSamplerOptions& options);

[[nodiscard]] Result<BiasedSample> StreamingBiasedSample(
    const data::PointSet& points, const StreamingSamplerOptions& options);

}  // namespace dbs::core

#endif  // DBS_CORE_STREAMING_SAMPLER_H_
