// CURE-style hierarchical agglomerative clustering (paper §3.1, after Guha,
// Rastogi & Shim, SIGMOD 1998).
//
// Each cluster is summarized by up to `num_representatives` well-scattered
// points shrunk toward the cluster mean by `shrink_factor`; the distance
// between two clusters is the minimum distance between their representative
// sets, and the two closest clusters merge until `num_clusters` remain.
// Scattered representatives let the algorithm discover non-spherical
// clusters of very different sizes, which is why the paper picks it over
// K-means/K-medoids for evaluating sample quality; the §4.2 settings
// (shrink 0.3, 10 representatives, one partition) are the defaults here.
//
// The run time is quadratic in the sample size — exactly the cost profile
// that motivates running it on a small biased sample rather than the full
// dataset (paper Fig 2).

#ifndef DBS_CLUSTER_HIERARCHICAL_H_
#define DBS_CLUSTER_HIERARCHICAL_H_

#include <cstdint>

#include "cluster/clustering.h"
#include "data/point_set.h"
#include "util/status.h"

namespace dbs::cluster {

struct HierarchicalOptions {
  // Number of clusters to stop at.
  int num_clusters = 10;
  // Representative points kept per cluster (paper default 10).
  int num_representatives = 10;
  // Fraction of the way each representative moves toward the mean
  // (paper default 0.3). 0 keeps boundary points, 1 collapses to centroid.
  double shrink_factor = 0.3;

  // CURE's two-phase outlier elimination. Noise points merge slowly (their
  // neighbors are far), so clusters that are still tiny midway through the
  // agglomeration are noise; left in, they chain true clusters together.
  // Phase 1 fires once, when the live-cluster count first drops below
  // `phase1_trigger_fraction * n`, and removes clusters with at most
  // `phase1_max_size` members. Phase 2 fires when the count reaches
  // `phase2_trigger_multiple * num_clusters` and removes clusters with at
  // most `phase2_max_size` members. Eliminated points get label -1.
  // Phase 1 fires at 1/3 of the points (CURE's heuristic): early enough to
  // remove noise before it chains clusters together under heavy noise, at
  // the cost of shedding some cluster-fringe singletons — a good trade
  // when clusters are judged by their representative points.
  bool eliminate_outliers = true;
  double phase1_trigger_fraction = 1.0 / 3.0;
  int phase1_max_size = 2;
  double phase2_trigger_multiple = 2.0;
  int phase2_max_size = 5;
};

// Clusters `points` (typically a sample). Representative points in the
// result are the shrunk scattered points of each final cluster.
//
// Accelerated implementation: lazy-deletion min-heap for closest-pair
// selection, snapshot kd-tree over representative points for nearest-
// cluster repair, and a batched SoA distance kernel for the per-merge
// scoring pass (DESIGN.md §11). Output is bitwise identical to
// HierarchicalClusterReference.
[[nodiscard]] Result<ClusteringResult> HierarchicalCluster(const data::PointSet& points,
                                             const HierarchicalOptions& options);

// Frozen pre-acceleration implementation, kept as the equivalence oracle
// for tests and bench/micro_cluster. Quadratic scans. Do not use outside
// verification.
[[nodiscard]] Result<ClusteringResult> HierarchicalClusterReference(
    const data::PointSet& points, const HierarchicalOptions& options);

}  // namespace dbs::cluster

#endif  // DBS_CLUSTER_HIERARCHICAL_H_
