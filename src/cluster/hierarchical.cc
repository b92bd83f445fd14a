// Accelerated CURE agglomeration (DESIGN.md §11).
//
// Three structures replace the reference implementation's quadratic scans
// while keeping the merge sequence bitwise identical to
// HierarchicalClusterReference (hierarchical_reference.cc):
//
//  * a lazy-deletion min-heap of (closest_d2, cluster, stamp) entries, so
//    picking the globally closest pair is O(log n) instead of an O(n) scan
//    per merge. Entries are never updated in place: changing a cluster's
//    nearest pointer bumps its stamp and pushes a fresh entry, and stale
//    entries are discarded when popped. The comparator orders by
//    (d2, cluster id), which reproduces the reference scan's "strict <,
//    ascending index" tie-breaking exactly.
//
//  * a rep->cluster kd-tree snapshot (RepIndex), so repairing a cluster's
//    nearest pointer is a handful of pruned NearestExcludingGroup queries
//    instead of a scan over every live cluster. The snapshot is rebuilt on
//    a deterministic cadence; clusters whose representatives changed since
//    the last rebuild are "dirty" and scored directly, so staleness is
//    bounded and never observable in the results.
//
//  * a batched min-rep-distance kernel (MinRepDist2) that scores the merged
//    cluster against every live candidate in one flat pass over contiguous
//    representative rows — dimension-templated so the compiler unrolls and
//    vectorizes the inner loop. It runs on the calling thread: sharding
//    each merge's pass over an executor measured slower than sequential at
//    2 and 4 workers (DESIGN.md §11).
//
// Bitwise equivalence is enforced by the frozen goldens in
// tests/cluster_hierarchical_test.cc, the randomized oracle comparison in
// tests/cluster_agglo_equivalence_test.cc, and bench/micro_cluster, which
// exits nonzero on any label/representative mismatch.

#include "cluster/hierarchical.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "cluster/hierarchical_internal.h"
#include "data/distance.h"
#include "data/kd_tree.h"

namespace dbs::cluster {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Internal per-cluster state during agglomeration.
struct Node {
  bool alive = true;
  std::vector<int64_t> members;
  std::vector<double> centroid;      // weighted by member count
  data::PointSet scattered;          // unshrunk well-scattered points
  data::PointSet reps;               // scattered points shrunk toward mean
  int32_t closest = -1;              // nearest live cluster
  double closest_d2 = kInf;
  uint32_t stamp = 0;                // invalidates heap entries on change
};

// Minimum squared distance between two representative sets given as flat
// row-major buffers. The per-pair arithmetic matches data::SquaredL2
// exactly (ascending dimension, separate multiply and add, `a - b` operand
// order); the min reduction is order-insensitive over non-NaN values, so
// the result is bitwise identical to the reference's rep-by-rep loop.
template <int kDim>
double MinRepDist2(const double* a, int64_t na, const double* b,
                   int64_t nb) {
  double best = kInf;
  for (int64_t j = 0; j < nb; ++j) {
    const double* q = b + j * kDim;
    for (int64_t i = 0; i < na; ++i) {
      const double* p = a + i * kDim;
      double sum = 0.0;
      for (int d = 0; d < kDim; ++d) {
        double diff = p[d] - q[d];
        sum += diff * diff;
      }
      best = std::min(best, sum);
    }
  }
  return best;
}

double MinRepDist2Generic(const double* a, int64_t na, const double* b,
                          int64_t nb, int dim) {
  double best = kInf;
  for (int64_t j = 0; j < nb; ++j) {
    const double* q = b + j * dim;
    for (int64_t i = 0; i < na; ++i) {
      const double* p = a + i * dim;
      double sum = 0.0;
      for (int d = 0; d < dim; ++d) {
        double diff = p[d] - q[d];
        sum += diff * diff;
      }
      best = std::min(best, sum);
    }
  }
  return best;
}

double MinRepDist2Dyn(const double* a, int64_t na, const double* b,
                      int64_t nb, int dim) {
  switch (dim) {
    case 1:
      return MinRepDist2<1>(a, na, b, nb);
    case 2:
      return MinRepDist2<2>(a, na, b, nb);
    case 3:
      return MinRepDist2<3>(a, na, b, nb);
    case 4:
      return MinRepDist2<4>(a, na, b, nb);
    case 5:
      return MinRepDist2<5>(a, na, b, nb);
    default:
      return MinRepDist2Generic(a, na, b, nb, dim);
  }
}

// Cluster distance through the flat kernel.
double ClusterDistance2(const Node& a, const Node& b, int dim) {
  return MinRepDist2Dyn(a.reps.flat().data(), a.reps.size(),
                        b.reps.flat().data(), b.reps.size(), dim);
}

// Snapshot kd-tree over the representative points of live clusters, with
// bounded staleness. Between rebuilds a cluster is in exactly one state:
//
//   kFresh — alive, reps unchanged since the snapshot; served by the tree.
//   kDirty — alive, reps changed since the snapshot; scored directly.
//   kDead  — merged away or eliminated; filtered out of tree hits.
//
// A nearest-cluster query is therefore exact at all times: tree hits cover
// the fresh clusters, the dirty list covers the rest. Rebuild cadence is a
// pure function of algorithm state (dirty/dead counts vs live), so runs
// are deterministic.
class RepIndex {
 public:
  RepIndex(int64_t num_nodes, int dim)
      : dim_(dim),
        state_(static_cast<size_t>(num_nodes), kDead),
        fresh_(static_cast<size_t>(num_nodes), 0) {}

  // Marks `x`'s representatives as changed since the snapshot.
  void MarkDirty(int32_t x) {
    if (state_[static_cast<size_t>(x)] == kFresh) {
      state_[static_cast<size_t>(x)] = kDirty;
      fresh_[static_cast<size_t>(x)] = 0;
      dirty_.push_back(x);
    }
  }

  void MarkDead(int32_t x) {
    if (state_[static_cast<size_t>(x)] == kFresh) ++snapshot_deaths_;
    state_[static_cast<size_t>(x)] = kDead;
    fresh_[static_cast<size_t>(x)] = 0;
  }

  // Rebuilds the snapshot if it is missing, too dirty (every dirty cluster
  // is a direct-scoring candidate on every repair) or too dead (tree
  // traversal wades through filtered leaves).
  void EnsureFresh(const std::vector<Node>& nodes, int64_t live) {
    if (tree_ != nullptr && !TooStale(live)) return;
    snapshot_ = data::PointSet(dim_);
    owner_.clear();
    dirty_.clear();
    snapshot_deaths_ = 0;
    for (int32_t x = 0; x < static_cast<int32_t>(nodes.size()); ++x) {
      const Node& node = nodes[static_cast<size_t>(x)];
      if (!node.alive) {
        state_[static_cast<size_t>(x)] = kDead;
        continue;
      }
      state_[static_cast<size_t>(x)] = kFresh;
      fresh_[static_cast<size_t>(x)] = 1;
      for (int64_t r = 0; r < node.reps.size(); ++r) {
        snapshot_.Append(node.reps[r]);
        owner_.push_back(x);
      }
    }
    tree_ = std::make_unique<data::KdTree>(&snapshot_);
  }

  const data::KdTree& tree() const { return *tree_; }
  const std::vector<int32_t>& owner() const { return owner_; }
  const std::vector<uint8_t>& fresh() const { return fresh_; }
  const std::vector<int32_t>& dirty() const { return dirty_; }

  bool IsDirty(int32_t x) const {
    return state_[static_cast<size_t>(x)] == kDirty;
  }

 private:
  enum State : uint8_t { kFresh, kDirty, kDead };

  bool TooStale(int64_t live) const {
    int64_t dirty_live = 0;
    for (int32_t x : dirty_) {
      if (state_[static_cast<size_t>(x)] == kDirty) ++dirty_live;
    }
    return dirty_live >= std::max<int64_t>(8, live / 32) ||
           snapshot_deaths_ >= std::max<int64_t>(8, live / 4);
  }

  const int dim_;
  data::PointSet snapshot_;           // flat copy of fresh clusters' reps
  std::vector<int32_t> owner_;        // snapshot row -> cluster id
  std::unique_ptr<data::KdTree> tree_;
  std::vector<State> state_;
  std::vector<uint8_t> fresh_;        // state_ == kFresh, as the tree filter
  std::vector<int32_t> dirty_;        // clusters scored directly (may hold
                                      // since-dead ids; filtered on use)
  int64_t snapshot_deaths_ = 0;
};

}  // namespace

[[nodiscard]] Result<ClusteringResult> HierarchicalCluster(
    const data::PointSet& points, const HierarchicalOptions& options) {
  DBS_RETURN_IF_ERROR(internal::ValidateHierarchicalArgs(points, options));
  const int64_t n = points.size();
  const int dim = points.dim();

  // Initialize one singleton cluster per point.
  std::vector<Node> nodes(n);
  for (int64_t i = 0; i < n; ++i) {
    Node& node = nodes[i];
    node.members = {i};
    node.centroid = points[i].ToVector();
    node.scattered = data::PointSet(dim);
    node.scattered.Append(points[i]);
    node.reps = node.scattered;
  }

  // Lazy-deletion heap: the entry pushed at a node's latest stamp is its
  // live key; anything older (or belonging to a dead node) is discarded on
  // pop. Ordering by (d2, id) reproduces the reference's ascending-index
  // strict-< scan, so ties still go to the lowest cluster index.
  struct PairEntry {
    double d2;
    int32_t id;
    uint32_t stamp;
  };
  struct FarthestFirst {
    bool operator()(const PairEntry& a, const PairEntry& b) const {
      if (a.d2 != b.d2) return a.d2 > b.d2;
      return a.id > b.id;
    }
  };
  std::priority_queue<PairEntry, std::vector<PairEntry>, FarthestFirst> heap;

  // Flat per-cluster mirrors read by the batch prune pass (SoA layout so
  // the per-candidate test touches no Node struct): current centroid rows,
  // closest_d2, and an inflated sqrt(closest_d2). The 1e-12 inflation makes
  // the stored root a certified upper bound of the real one despite
  // rounding; prune margins lean on it below.
  std::vector<double> cent_flat(points.flat());
  std::vector<double> closest_d2_flat(static_cast<size_t>(n), kInf);
  std::vector<double> thr_sqrt(static_cast<size_t>(n), kInf);

  auto set_closest = [&](int32_t id, int32_t to, double d2) {
    Node& node = nodes[id];
    node.closest = to;
    node.closest_d2 = d2;
    closest_d2_flat[static_cast<size_t>(id)] = to >= 0 ? d2 : kInf;
    thr_sqrt[static_cast<size_t>(id)] =
        to >= 0 ? std::sqrt(d2) * (1.0 + 1e-12) : kInf;
    ++node.stamp;
    if (to >= 0) heap.push({d2, id, node.stamp});
  };

  // Initial nearest neighbors via a kd-tree over the points (singleton
  // clusters have a single representative = the point itself).
  {
    data::KdTree tree(&points);
    for (int64_t i = 0; i < n; ++i) {
      int64_t nn = tree.Nearest(points[i], /*exclude=*/i);
      if (nn >= 0) {
        set_closest(static_cast<int32_t>(i), static_cast<int32_t>(nn),
                    data::SquaredL2(points[i], points[nn]));
      }
    }
  }

  int64_t live = n;
  const int64_t target = std::min<int64_t>(options.num_clusters, n);
  RepIndex index(n, dim);

  // Certified prune bound for the batch pass: by the triangle inequality
  // MinRepDist2(a, x) >= (|c_a - c_x| - r_a - r_x)^2 where r is the
  // cluster's rep radius (max rep-to-centroid distance, inflated 1e-12 to
  // absorb its own rounding). The comparisons below deflate the bound by
  // 1e-9 relative, many orders beyond any accumulated rounding, so a
  // candidate is only skipped when even the under-estimate rules it out —
  // every strict-< comparison, and therefore every byte of output, stays
  // identical to the unpruned scan. Singletons start with radius 0.
  std::vector<double> rep_radius(static_cast<size_t>(n), 0.0);
  auto update_radius = [&](int32_t id) {
    const Node& node = nodes[id];
    data::PointView c(node.centroid.data(), dim);
    double worst = 0.0;
    for (int64_t r = 0; r < node.reps.size(); ++r) {
      worst = std::max(worst, data::SquaredL2(node.reps[r], c));
    }
    rep_radius[static_cast<size_t>(id)] = std::sqrt(worst) * (1.0 + 1e-12);
  };

  // Repairs node `id`'s nearest pointer: pruned kd queries over the fresh
  // snapshot plus direct kernel scores against the dirty clusters. Both
  // halves reduce with the lexicographic (d2, cluster) rule, which equals
  // the reference's full ascending scan.
  auto recompute_closest = [&](int32_t id) {
    index.EnsureFresh(nodes, live);
    Node& node = nodes[id];
    double best_d2 = kInf;
    int32_t best = -1;
    for (int64_t r = 0; r < node.reps.size(); ++r) {
      data::KdTree::GroupNearest hit = index.tree().NearestExcludingGroup(
          node.reps[r], index.owner(), id, index.fresh());
      if (hit.group >= 0 &&
          (hit.d2 < best_d2 || (hit.d2 == best_d2 && hit.group < best))) {
        best_d2 = hit.d2;
        best = hit.group;
      }
    }
    for (int32_t x : index.dirty()) {
      if (x == id || !index.IsDirty(x)) continue;
      double d2 = ClusterDistance2(node, nodes[x], dim);
      if (d2 < best_d2 || (d2 == best_d2 && x < best)) {
        best_d2 = d2;
        best = x;
      }
    }
    set_closest(id, best, best == -1 ? kInf : best_d2);
  };

  // Removes live clusters with at most `max_size` members (but never drops
  // below `target` live clusters: victims die smallest-first, index as the
  // tiebreak, so when the cap truncates elimination the largest small
  // clusters are the ones that survive).
  auto eliminate_small = [&](int max_size) {
    std::vector<int32_t> victims;
    for (int32_t x = 0; x < static_cast<int32_t>(nodes.size()); ++x) {
      if (nodes[x].alive &&
          static_cast<int>(nodes[x].members.size()) <= max_size) {
        victims.push_back(x);
      }
    }
    std::sort(victims.begin(), victims.end(), [&](int32_t a, int32_t b) {
      if (nodes[a].members.size() != nodes[b].members.size()) {
        return nodes[a].members.size() < nodes[b].members.size();
      }
      return a < b;
    });
    bool removed = false;
    for (int32_t v : victims) {
      if (live <= target) break;
      nodes[v].alive = false;
      nodes[v].members.clear();
      nodes[v].scattered.Clear();
      nodes[v].reps.Clear();
      --live;
      removed = true;
      index.MarkDead(v);
    }
    if (!removed) return;
    for (int32_t x = 0; x < static_cast<int32_t>(nodes.size()); ++x) {
      if (nodes[x].alive && nodes[x].closest >= 0 &&
          !nodes[nodes[x].closest].alive) {
        recompute_closest(x);
      }
    }
  };

  const int64_t phase1_at = static_cast<int64_t>(
      options.phase1_trigger_fraction * static_cast<double>(n));
  const int64_t phase2_at = static_cast<int64_t>(
      options.phase2_trigger_multiple * static_cast<double>(target));
  bool phase1_done = !options.eliminate_outliers;
  bool phase2_done = !options.eliminate_outliers;

  // Per-merge scratch, hoisted out of the loop.
  std::vector<int32_t> cands;
  std::vector<double> cand_d2;
  std::vector<uint8_t> pruned;
  cands.reserve(static_cast<size_t>(n));
  cand_d2.resize(static_cast<size_t>(n));
  pruned.resize(static_cast<size_t>(n));

  while (live > target) {
    if (!phase1_done && live <= phase1_at) {
      phase1_done = true;
      eliminate_small(options.phase1_max_size);
      if (live <= target) break;
    }
    if (!phase2_done && live <= phase2_at) {
      phase2_done = true;
      eliminate_small(options.phase2_max_size);
      if (live <= target) break;
    }
    // Globally closest pair (u, v): pop until the top entry is current.
    int32_t u = -1;
    while (!heap.empty()) {
      PairEntry e = heap.top();
      const Node& cand = nodes[e.id];
      if (!cand.alive || e.stamp != cand.stamp || cand.closest < 0) {
        heap.pop();
        continue;
      }
      u = e.id;
      heap.pop();
      break;
    }
    DBS_CHECK(u >= 0);
    int32_t v = nodes[u].closest;
    DBS_CHECK(v >= 0 && nodes[v].alive);

    // Merge v into u.
    Node& a = nodes[u];
    Node& b = nodes[v];
    double wa = static_cast<double>(a.members.size());
    double wb = static_cast<double>(b.members.size());
    for (int j = 0; j < dim; ++j) {
      a.centroid[j] = (a.centroid[j] * wa + b.centroid[j] * wb) / (wa + wb);
      cent_flat[static_cast<size_t>(u) * dim + j] = a.centroid[j];
    }
    a.members.insert(a.members.end(), b.members.begin(), b.members.end());

    // New scattered set from the union of both clusters' scattered points.
    data::PointSet pool = a.scattered;
    pool.AppendAll(b.scattered);
    a.scattered = internal::SelectScattered(pool, a.centroid,
                                            options.num_representatives);
    a.reps = internal::ShrinkToward(a.scattered, a.centroid,
                                    options.shrink_factor);
    update_radius(u);

    b.alive = false;
    b.members.clear();
    b.scattered.Clear();
    b.reps.Clear();
    --live;
    index.MarkDead(v);
    index.MarkDirty(u);

    // Refresh pointers. First repair every cluster whose closest referenced
    // u or v — their nearest cluster may have changed arbitrarily.
    for (int32_t x = 0; x < static_cast<int32_t>(nodes.size()); ++x) {
      if (!nodes[x].alive || x == u) continue;
      if (nodes[x].closest == u || nodes[x].closest == v) {
        recompute_closest(x);
      }
    }

    // Then score the merged cluster against every live candidate in one
    // batched kernel pass, and sweep the scores in ascending index order:
    // the sweep both selects u's new closest (strict <, so lowest index
    // wins ties) and pushes the new u-distances into candidates that u
    // moved closer to.
    cands.clear();
    for (int32_t x = 0; x < static_cast<int32_t>(nodes.size()); ++x) {
      if (nodes[x].alive && x != u) cands.push_back(x);
    }
    const double* a_flat = a.reps.flat().data();
    const int64_t a_count = a.reps.size();
    const double* a_cent = a.centroid.data();
    const double a_radius = rep_radius[static_cast<size_t>(u)];
    for (size_t t = 0; t < cands.size(); ++t) {
      int32_t xi = cands[t];
      // Sqrt-free certified prune: c2 >= (sqrt(thr) + r_a + r_x)^2
      // implies (with the stored inflated roots and the 1e-9 deflation)
      // that the exact kernel value strictly exceeds x's closest_d2, so
      // x provably cannot take a push-update and the kernel is skipped.
      // The stored weak bound (closest_d2 itself, which the exact value
      // strictly exceeds) lets the repair pass below restore u's own
      // nearest exactly.
      double c2 = 0.0;
      for (int d = 0; d < dim; ++d) {
        double diff = a_cent[d] - cent_flat[static_cast<size_t>(xi) * dim
                                            + d];
        c2 += diff * diff;
      }
      double rhs = thr_sqrt[static_cast<size_t>(xi)] + a_radius +
                   rep_radius[static_cast<size_t>(xi)];
      if (c2 * (1.0 - 1e-9) >= rhs * rhs) {
        cand_d2[t] = closest_d2_flat[static_cast<size_t>(xi)];
        pruned[t] = 1;
        continue;
      }
      pruned[t] = 0;
      const Node& x = nodes[xi];
      cand_d2[t] = MinRepDist2Dyn(a_flat, a_count, x.reps.flat().data(),
                                  x.reps.size(), dim);
    }
    int32_t a_closest = -1;
    double a_closest_d2 = kInf;
    for (size_t t = 0; t < cands.size(); ++t) {
      if (pruned[t]) continue;
      int32_t x = cands[t];
      double d2 = cand_d2[t];
      if (d2 < a_closest_d2) {
        a_closest_d2 = d2;
        a_closest = x;
      }
      if (d2 < nodes[x].closest_d2) {
        set_closest(x, u, d2);
      }
    }
    // Repair pass: pruning only certified that a skipped candidate cannot
    // take a push-update; it may still be (or tie for) u's nearest. A
    // pruned candidate's exact value strictly exceeds its weak bound, so
    // anything bounded above the provisional winner is out; the rest get a
    // sharper sqrt-based bound and, if still unresolved, the exact kernel,
    // with a full lexicographic compare — yielding the same (d2, index)
    // minimum as the unpruned ascending scan.
    for (size_t t = 0; t < cands.size(); ++t) {
      if (pruned[t] == 0 || cand_d2[t] > a_closest_d2) continue;
      int32_t x = cands[t];
      double c2 = 0.0;
      for (int d = 0; d < dim; ++d) {
        double diff =
            a_cent[d] - cent_flat[static_cast<size_t>(x) * dim + d];
        c2 += diff * diff;
      }
      double gap =
          std::sqrt(c2) - a_radius - rep_radius[static_cast<size_t>(x)];
      if (gap > 0.0 && gap * gap * (1.0 - 1e-9) > a_closest_d2) continue;
      double d2 =
          MinRepDist2Dyn(a_flat, a_count, nodes[x].reps.flat().data(),
                         nodes[x].reps.size(), dim);
      if (d2 < a_closest_d2 || (d2 == a_closest_d2 && x < a_closest)) {
        a_closest_d2 = d2;
        a_closest = x;
      }
    }
    set_closest(u, a_closest, a_closest == -1 ? kInf : a_closest_d2);
  }

  ClusteringResult result;
  result.labels.assign(static_cast<size_t>(n), -1);
  for (Node& node : nodes) {
    if (!node.alive) continue;
    Cluster cluster;
    cluster.members = std::move(node.members);
    cluster.centroid = std::move(node.centroid);
    cluster.representatives = std::move(node.reps);
    cluster.weight = static_cast<double>(cluster.members.size());
    int32_t label = static_cast<int32_t>(result.clusters.size());
    for (int64_t m : cluster.members) {
      result.labels[static_cast<size_t>(m)] = label;
    }
    result.clusters.push_back(std::move(cluster));
  }
  return result;
}

}  // namespace dbs::cluster
