// The kd-tree over a Kde's kernel centers: Kde's batch evaluator above 6
// dims, where the model has no grid index. Used only by density/kde.cc;
// see DESIGN.md §15.
//
// The tree splits the centers at the median of each node's widest
// dimension (leaves hold at most kLeafSize centers) and keeps a tight box
// per node. A batch of queries is cut the same way into spatial tiles of
// at most kQueryTile points; for each tile the tree is descended once,
// dropping every node whose box is farther than the kernel support from
// the tile's box in some dimension. The centers that survive are handed
// back in ASCENDING CENTER ORDER, and Kde sums each query of the tile
// against them through the frozen block loop (density/kernel_block.h).
//
// The prune is exact in floating point: a dimension drops a node only when
// KernelValue(gap * inv_h) is exactly 0.0 for the node-to-tile gap.
// Rounding is monotone and every kernel's computed value is non-increasing
// in |u|, so every pruned center's computed product is +0.0 for every
// query of the tile. The survivors are therefore a superset of the
// in-support centers in ascending order, and +0.0 terms are invisible in
// the block loop — the sum is bitwise the one Kde::EvaluateBrute computes
// over all m centers.
//
// The tree stores only its own structure (node boxes and a permutation of
// center indices); the centers, bandwidths and normalization stay in Kde.

#ifndef DBS_DENSITY_CENTER_TREE_H_
#define DBS_DENSITY_CENTER_TREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "data/point_set.h"
#include "density/kernel.h"

namespace dbs::density {

class CenterTree {
 public:
  // Maximum centers per leaf: smaller leaves prune finer, larger ones feed
  // the block loop longer runs.
  static constexpr int32_t kLeafSize = 32;
  // Maximum queries per spatial tile; each tile pays one descent and one
  // gather. Tiling is bitwise invisible (per-query sums are independent).
  static constexpr int64_t kQueryTile = 32;

  CenterTree() = default;
  // Builds over `centers` (at least one row); keeps no reference to them.
  explicit CenterTree(const data::PointSet& centers);

  // Receives one query tile: `queries` holds `count` row indices, and
  // `survivors` the ascending indices of every center not pruned for the
  // tile.
  using TileFn = std::function<void(const int64_t* queries, int64_t count,
                                    const std::vector<int32_t>& survivors)>;

  // Cuts rows [begin, end) of the row-major `rows` (one double per center
  // dimension each) into spatial tiles and calls `fn` once per tile.
  // `kernel` and `inv_bandwidths` (1/h_j per dimension) define the support
  // the prune tests against. Deterministic: the tiling and the survivor lists depend
  // only on the inputs.
  void ForEachTile(KernelType kernel, const double* inv_bandwidths,
                   const double* rows, int64_t begin, int64_t end,
                   const TileFn& fn) const;

  // --- Test hook ----------------------------------------------------------
  // Structural view for invariant checks (tests/density_property_test.cc):
  // leaves partition the permutation `leaf_items()` into ascending-index
  // runs, and every node's box contains its subtree's centers.
  struct NodeView {
    bool is_leaf = false;
    int32_t left = -1;  // node ids; -1 on leaves
    int32_t right = -1;
    int32_t begin = 0;  // range into leaf_items()
    int32_t end = 0;
    const double* lo = nullptr;  // one entry per dimension each
    const double* hi = nullptr;
  };
  int32_t root() const { return root_; }
  NodeView node(int32_t id) const;
  const std::vector<int32_t>& leaf_items() const { return items_; }

 private:
  struct Node {
    int32_t left = -1;  // -1 marks a leaf
    int32_t right = -1;
    int32_t begin = 0;  // range into items_
    int32_t end = 0;
  };
  struct Walk;

  int32_t BuildNode(const double* flat, int32_t begin, int32_t end);
  // Appends the items of every node whose box is within kernel support of
  // the walk's current tile box.
  void CollectSurvivors(int32_t id, Walk* walk) const;
  // Recursive median split of the queries idx[0, count) into tiles.
  void TileRecurse(int64_t* idx, int64_t count, Walk* walk) const;

  int dim_ = 0;
  // items_ is a permutation of [0, m) whose leaf ranges are each sorted
  // ascending. Node boxes are tight (computed from the member centers) and
  // live in node_lo_/node_hi_ at node_id * dim_.
  std::vector<Node> nodes_;
  int32_t root_ = -1;
  std::vector<double> node_lo_;
  std::vector<double> node_hi_;
  std::vector<int32_t> items_;
};

}  // namespace dbs::density

#endif  // DBS_DENSITY_CENTER_TREE_H_
