#include "density/center_tree.h"

#include <algorithm>

namespace dbs::density {

CenterTree::CenterTree(const data::PointSet& centers) : dim_(centers.dim()) {
  const int64_t m = centers.size();
  items_.resize(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    items_[static_cast<size_t>(i)] = static_cast<int32_t>(i);
  }
  nodes_.reserve(static_cast<size_t>(2 * (m / kLeafSize + 1)));
  root_ = BuildNode(centers.flat().data(), 0, static_cast<int32_t>(m));
}

int32_t CenterTree::BuildNode(const double* flat, int32_t begin,
                              int32_t end) {
  const int d = dim_;
  const int32_t id = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(Node{-1, -1, begin, end});
  node_lo_.resize(static_cast<size_t>(id + 1) * d);
  node_hi_.resize(static_cast<size_t>(id + 1) * d);
  double* lo = node_lo_.data() + static_cast<size_t>(id) * d;
  double* hi = node_hi_.data() + static_cast<size_t>(id) * d;

  // Tight box over the member centers (exact min/max of the raw
  // coordinates, so the prune's distance bounds are sound per dimension).
  const double* first =
      flat + static_cast<int64_t>(items_[static_cast<size_t>(begin)]) * d;
  std::copy(first, first + d, lo);
  std::copy(first, first + d, hi);
  for (int32_t t = begin + 1; t < end; ++t) {
    const double* c =
        flat + static_cast<int64_t>(items_[static_cast<size_t>(t)]) * d;
    for (int j = 0; j < d; ++j) {
      if (c[j] < lo[j]) lo[j] = c[j];
      if (c[j] > hi[j]) hi[j] = c[j];
    }
  }
  int axis = -1;
  double best_extent = 0.0;
  for (int j = 0; j < d; ++j) {
    if (hi[j] - lo[j] > best_extent) {
      best_extent = hi[j] - lo[j];
      axis = j;
    }
  }

  // Leaf: below the size cap, or a zero-extent box (all members identical,
  // so no axis can split it). Members are sorted ascending so every leaf
  // is an ascending run.
  if (end - begin <= kLeafSize || axis < 0) {
    std::sort(items_.begin() + begin, items_.begin() + end);
    return id;
  }

  // Median split on the widest dimension. The comparator totally orders
  // (coordinate, center index), so the partition — and with it the tree
  // shape and every node box — is the same on every standard library.
  const int32_t mid = begin + (end - begin) / 2;
  std::nth_element(items_.begin() + begin, items_.begin() + mid,
                   items_.begin() + end,
                   [flat, d, axis](int32_t a, int32_t b) {
                     const double ca = flat[static_cast<int64_t>(a) * d + axis];
                     const double cb = flat[static_cast<int64_t>(b) * d + axis];
                     if (ca != cb) return ca < cb;
                     return a < b;
                   });
  const int32_t left = BuildNode(flat, begin, mid);
  const int32_t right = BuildNode(flat, mid, end);
  nodes_[static_cast<size_t>(id)].left = left;
  nodes_[static_cast<size_t>(id)].right = right;
  return id;
}

CenterTree::NodeView CenterTree::node(int32_t id) const {
  const Node& n = nodes_[static_cast<size_t>(id)];
  NodeView view;
  view.is_leaf = n.left < 0;
  view.left = n.left;
  view.right = n.right;
  view.begin = n.begin;
  view.end = n.end;
  view.lo = node_lo_.data() + static_cast<size_t>(id) * dim_;
  view.hi = node_hi_.data() + static_cast<size_t>(id) * dim_;
  return view;
}

// One ForEachTile call's inputs and scratch: the current tile box and its
// survivor list are reused across tiles.
struct CenterTree::Walk {
  KernelType kernel;
  const double* inv_bandwidths;
  const double* rows;
  const TileFn* fn;
  std::vector<double> lo;
  std::vector<double> hi;
  std::vector<int32_t> survivors;
};

void CenterTree::CollectSurvivors(int32_t id, Walk* walk) const {
  const Node& node = nodes_[static_cast<size_t>(id)];
  const int d = dim_;
  const double* nlo = node_lo_.data() + static_cast<size_t>(id) * d;
  const double* nhi = node_hi_.data() + static_cast<size_t>(id) * d;
  for (int j = 0; j < d; ++j) {
    const double below = nlo[j] - walk->hi[static_cast<size_t>(j)];
    const double above = walk->lo[static_cast<size_t>(j)] - nhi[j];
    const double gap = below > above ? below : above;
    // Exact prune (see header): only a bitwise-zero kernel factor drops
    // the node.
    if (gap > 0.0 &&
        KernelValue(walk->kernel, gap * walk->inv_bandwidths[j]) == 0.0) {
      return;
    }
  }
  if (node.left < 0) {
    walk->survivors.insert(walk->survivors.end(), items_.begin() + node.begin,
                           items_.begin() + node.end);
    return;
  }
  CollectSurvivors(node.left, walk);
  CollectSurvivors(node.right, walk);
}

void CenterTree::TileRecurse(int64_t* idx, int64_t count, Walk* walk) const {
  const int d = dim_;
  const double* rows = walk->rows;
  double* lo = walk->lo.data();
  double* hi = walk->hi.data();
  const double* first = rows + idx[0] * d;
  std::copy(first, first + d, lo);
  std::copy(first, first + d, hi);
  for (int64_t k = 1; k < count; ++k) {
    const double* p = rows + idx[k] * d;
    for (int j = 0; j < d; ++j) {
      if (p[j] < lo[j]) lo[j] = p[j];
      if (p[j] > hi[j]) hi[j] = p[j];
    }
  }
  if (count > kQueryTile) {
    int axis = -1;
    double best_extent = 0.0;
    for (int j = 0; j < d; ++j) {
      if (hi[j] - lo[j] > best_extent) {
        best_extent = hi[j] - lo[j];
        axis = j;
      }
    }
    // axis < 0 means every query in the range is identical: splitting
    // cannot shrink the box, so the range is evaluated as one tile.
    if (axis >= 0) {
      const int64_t mid = count / 2;
      std::nth_element(idx, idx + mid, idx + count,
                       [rows, d, axis](int64_t a, int64_t b) {
                         const double qa = rows[a * d + axis];
                         const double qb = rows[b * d + axis];
                         if (qa != qb) return qa < qb;
                         return a < b;
                       });
      TileRecurse(idx, mid, walk);
      TileRecurse(idx + mid, count - mid, walk);
      return;
    }
  }
  walk->survivors.clear();
  CollectSurvivors(root_, walk);
  // Ascending center order: the summation order of Kde::EvaluateBrute.
  std::sort(walk->survivors.begin(), walk->survivors.end());
  (*walk->fn)(idx, count, walk->survivors);
}

void CenterTree::ForEachTile(KernelType kernel, const double* inv_bandwidths,
                             const double* rows, int64_t begin, int64_t end,
                             const TileFn& fn) const {
  const int64_t n = end - begin;
  if (n <= 0) return;
  std::vector<int64_t> idx(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) idx[static_cast<size_t>(i)] = begin + i;
  Walk walk{kernel,
            inv_bandwidths,
            rows,
            &fn,
            std::vector<double>(static_cast<size_t>(dim_)),
            std::vector<double>(static_cast<size_t>(dim_)),
            {}};
  TileRecurse(idx.data(), n, &walk);
}

}  // namespace dbs::density
