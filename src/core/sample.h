// The weighted-sample type produced by the biased samplers.
//
// Besides the sampled points, a BiasedSample records each point's inclusion
// probability and estimated local density. The inverse inclusion
// probabilities are the weights §3.1 prescribes when feeding the sample to
// algorithms that optimize per-point criteria (k-means/k-medoids): weighting
// by 1/p_i makes the weighted sample an unbiased (Horvitz–Thompson)
// estimator of dataset-level sums.

#ifndef DBS_CORE_SAMPLE_H_
#define DBS_CORE_SAMPLE_H_

#include <cstdint>
#include <vector>

#include "data/point_set.h"

namespace dbs::core {

struct BiasedSample {
  data::PointSet points;
  // Per sampled point: the probability with which it was included.
  std::vector<double> inclusion_probs;
  // Per sampled point: the density estimate f(x) that drove its inclusion.
  std::vector<double> densities;

  // The normalizer k_a = sum_x f'(x) actually used (exact for the two-pass
  // sampler, estimated for the one-pass variant).
  double normalizer = 0.0;
  // Size of the dataset the sample was drawn from.
  int64_t dataset_size = 0;
  // How many points had their inclusion probability clamped at 1. A large
  // fraction signals that target_size or |a| is too aggressive for the
  // density profile.
  int64_t clamped_count = 0;
  // How many rows BiasedSampler's sampling pass evaluated f(x) for: the
  // physical work beside the paper's logical pass count. Every row without
  // normalization-pass bounds, about b with them. Deterministic and
  // independent of the worker count; other samplers leave it 0.
  int64_t density_evaluations = 0;

  int64_t size() const { return points.size(); }

  // Horvitz–Thompson weights, 1 / inclusion_prob per point.
  std::vector<double> Weights() const;

  // Sum of weights; an unbiased estimate of the dataset size (useful as a
  // quick sanity check on the sample).
  double EstimatedDatasetSize() const;
};

}  // namespace dbs::core

#endif  // DBS_CORE_SAMPLE_H_
