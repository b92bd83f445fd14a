// Equivalence harness for Kde's batch path above 6 dims: the dual
// traversal of spatial query tiles against the kd-tree over the kernel
// centers (density/center_tree.h, DESIGN.md §15).
//
// The contract under test: for a Kde without a grid index (dims above 6)
// every batch entry point is BITWISE identical to the scalar
// ascending-center paths, EvaluateBrute and EvaluateExcluding, at any
// executor worker count. The matrix runs that check at dims {7, 8} x
// kernel counts {1, 1000, 50000} x workers {0,1,4}. At dims {1,2,3,5},
// where Kde evaluates through its grid index instead, it drives the tree
// directly the way Kde does and checks its sums against the all-center
// block loop: the tree is dimension-generic, and low dimensions are where
// its prune cuts deepest. The degenerate shapes that break tree builds
// come on top: all centers identical (zero-extent boxes) and queries far
// outside the kernel support (all-pruned descents).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "data/point_set.h"
#include "density/center_tree.h"
#include "density/kde.h"
#include "density/kernel_block.h"
#include "parallel/batch_executor.h"
#include "synth/generator.h"
#include "util/check.h"
#include "util/rng.h"

namespace dbs::density {
namespace {

data::PointSet MakeData(int dim, int64_t points, uint64_t seed) {
  synth::ClusteredDatasetOptions opts;
  opts.dim = dim;
  opts.num_clusters = 5;
  opts.num_cluster_points = points;  // total across clusters, noise on top
  opts.noise_multiplier = 0.15;
  opts.shuffle = true;
  opts.seed = seed;
  auto ds = synth::MakeClusteredDataset(opts);
  DBS_CHECK(ds.ok());
  return std::move(ds)->points;
}

// Queries exercising every traversal branch: verbatim centers (exclusion
// hits), near-miss jitter, uniform box points, and far-outside points
// (fully pruned trees).
data::PointSet MakeQueries(const data::PointSet& data, int64_t count) {
  data::PointSet queries(data.dim());
  Rng rng(93);
  for (int64_t i = 0; i < count; ++i) {
    std::vector<double> q(static_cast<size_t>(data.dim()));
    data::PointView base = data[i % data.size()];
    switch (i % 4) {
      case 0:
        for (int j = 0; j < data.dim(); ++j) q[j] = base[j];
        break;
      case 1:
        for (int j = 0; j < data.dim(); ++j) {
          q[j] = base[j] + 0.01 * (rng.NextDouble() - 0.5);
        }
        break;
      case 2:
        for (int j = 0; j < data.dim(); ++j) q[j] = rng.NextDouble();
        break;
      default:
        for (int j = 0; j < data.dim(); ++j) q[j] = 10.0 + rng.NextDouble();
        break;
    }
    queries.Append(data::PointView(q.data(), data.dim()));
  }
  return queries;
}

void ExpectBitwiseEqual(const std::vector<double>& got,
                        const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << "index " << i << ": batch " << got[i] << " vs scalar "
        << want[i];
  }
}

// Full bitwise matrix for one unindexed model: all three batch entry
// points against the scalar ascending-center paths, at 0/1/4 workers.
void CheckExactEquivalence(const Kde& kde, const data::PointSet& queries) {
  const int64_t n = queries.size();
  const double* rows = queries.flat().data();

  data::PointSet selves(queries.dim());
  for (int64_t i = 0; i < n; ++i) selves.Append(queries[(i + 1) % n]);
  const double* selves_rows = selves.flat().data();

  // References: the scalar paths, which sum all m centers in ascending
  // order without a tree.
  std::vector<double> ref(static_cast<size_t>(n));
  std::vector<double> ref_excl(static_cast<size_t>(n));
  std::vector<double> ref_selves(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    ref[i] = kde.EvaluateBrute(queries[i]);
    ref_excl[i] = kde.EvaluateExcluding(queries[i], queries[i]);
    ref_selves[i] = kde.EvaluateExcluding(queries[i], selves[i]);
    const double scalar = kde.Evaluate(queries[i]);
    ASSERT_EQ(std::memcmp(&scalar, &ref[i], sizeof(double)), 0) << i;
  }

  std::vector<double> got(static_cast<size_t>(n));
  for (int workers : {0, 1, 4}) {
    SCOPED_TRACE(workers);
    parallel::BatchExecutorOptions pool;
    pool.num_workers = workers;
    pool.min_shard = 16;  // split even the small query sets into shards
    parallel::BatchExecutor* executor = nullptr;
    std::unique_ptr<parallel::BatchExecutor> owned;
    if (workers > 0) {
      owned = std::make_unique<parallel::BatchExecutor>(pool);
      executor = owned.get();
    }
    ASSERT_TRUE(kde.EvaluateBatch(rows, n, got.data(), executor).ok());
    ExpectBitwiseEqual(got, ref);
    ASSERT_TRUE(
        kde.EvaluateExcludingBatch(rows, n, got.data(), executor).ok());
    ExpectBitwiseEqual(got, ref_excl);
    ASSERT_TRUE(kde.EvaluateExcludingSelvesBatch(rows, selves_rows, n,
                                                 got.data(), executor)
                    .ok());
    ExpectBitwiseEqual(got, ref_selves);
    if (owned != nullptr) owned->Shutdown();
  }
}

// Kde's batch kernel without the grid index, replayed on a CenterTree built
// here: per spatial tile of queries [begin, end), the surviving centers are
// gathered into a SoA tile and summed by the frozen block loop. Returns the
// unnormalized sums; `selves` (nullable) is indexed like `rows`.
std::vector<double> TreeSums(const Kde::State& state,
                             const std::vector<double>& inv_h,
                             const CenterTree& tree, const double* rows,
                             const double* selves, int64_t begin,
                             int64_t end) {
  const int d = state.centers.dim();
  std::vector<double> sums(static_cast<size_t>(end), -1.0);
  std::vector<double> soa;
  tree.ForEachTile(
      state.kernel, inv_h.data(), rows, begin, end,
      [&](const int64_t* queries, int64_t count,
          const std::vector<int32_t>& survivors) {
        const int64_t tile = static_cast<int64_t>(survivors.size());
        soa.resize(static_cast<size_t>(d) * tile);
        for (int j = 0; j < d; ++j) {
          for (int64_t t = 0; t < tile; ++t) {
            soa[static_cast<size_t>(j) * tile + t] =
                state.centers[survivors[t]][j];
          }
        }
        for (int64_t k = 0; k < count; ++k) {
          const int64_t i = queries[k];
          sums[i] = SumKernelProductTile(
              state.kernel, d, rows + i * d, inv_h.data(), soa.data(), tile,
              selves != nullptr ? selves + i * d : nullptr);
        }
      });
  return sums;
}

// The tree's exactness contract at a dimension Kde serves through its grid
// index: for no exclusion, self exclusion and explicit selves, and for the
// whole range at once as well as cut into 16-row shards (different tiles,
// different survivor lists), every tree sum equals the all-center
// ascending block-loop sum bit for bit.
void CheckTreeEquivalence(const Kde& kde, const data::PointSet& queries) {
  const Kde::State state = kde.ExportState();
  const int d = state.centers.dim();
  const int64_t m = state.centers.size();
  const int64_t n = queries.size();
  const double* rows = queries.flat().data();
  std::vector<double> inv_h(static_cast<size_t>(d));
  for (int j = 0; j < d; ++j) inv_h[j] = 1.0 / state.bandwidths[j];
  std::vector<double> all_soa(static_cast<size_t>(d) * m);
  for (int j = 0; j < d; ++j) {
    for (int64_t t = 0; t < m; ++t) {
      all_soa[static_cast<size_t>(j) * m + t] = state.centers[t][j];
    }
  }
  data::PointSet selves(d);
  for (int64_t i = 0; i < n; ++i) selves.Append(queries[(i + 1) % n]);

  const CenterTree tree(state.centers);
  for (const double* excl : {static_cast<const double*>(nullptr), rows,
                             selves.flat().data()}) {
    std::vector<double> want(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      want[i] = SumKernelProductTile(state.kernel, d, rows + i * d,
                                     inv_h.data(), all_soa.data(), m,
                                     excl != nullptr ? excl + i * d : nullptr);
    }
    ExpectBitwiseEqual(TreeSums(state, inv_h, tree, rows, excl, 0, n), want);
    std::vector<double> sharded(static_cast<size_t>(n));
    for (int64_t begin = 0; begin < n; begin += 16) {
      const int64_t end = std::min<int64_t>(begin + 16, n);
      std::vector<double> part =
          TreeSums(state, inv_h, tree, rows, excl, begin, end);
      std::copy(part.begin() + begin, part.end(), sharded.begin() + begin);
    }
    ExpectBitwiseEqual(sharded, want);
  }
}

struct MatrixCase {
  int dim;
  int64_t kernels;
};

// Without this gtest prints the raw bytes, padding included, and the
// padding holds stale stack bytes: the test names would change per run.
void PrintTo(const MatrixCase& c, std::ostream* os) {
  *os << "dim" << c.dim << "_kernels" << c.kernels;
}

class DualTreeExactTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(DualTreeExactTest, BitwiseIdenticalToAscendingCenterKde) {
  const MatrixCase c = GetParam();
  // Enough data to fill the kernel reservoir, modest query counts at the
  // 50k-kernel end (the scalar reference is O(queries * kernels)).
  const int64_t points = std::max<int64_t>(c.kernels, 600);
  const int64_t num_queries = c.kernels >= 50000 ? 48 : 120;
  data::PointSet data = MakeData(c.dim, points, 11 + c.dim);
  data::PointSet queries = MakeQueries(data, num_queries);

  KdeOptions opts;
  opts.num_kernels = c.kernels;
  opts.seed = 7;
  auto kde = Kde::Fit(data, opts);
  ASSERT_TRUE(kde.ok());
  ASSERT_EQ(kde->num_kernels(), c.kernels);
  if (c.dim > 6) {
    CheckExactEquivalence(*kde, queries);
  } else {
    CheckTreeEquivalence(*kde, queries);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DualTreeExactTest,
    ::testing::Values(MatrixCase{1, 1}, MatrixCase{1, 1000},
                      MatrixCase{1, 50000}, MatrixCase{2, 1},
                      MatrixCase{2, 1000}, MatrixCase{2, 50000},
                      MatrixCase{3, 1}, MatrixCase{3, 1000},
                      MatrixCase{3, 50000}, MatrixCase{5, 1},
                      MatrixCase{5, 1000}, MatrixCase{5, 50000},
                      MatrixCase{7, 1}, MatrixCase{7, 1000},
                      MatrixCase{7, 50000}, MatrixCase{8, 1},
                      MatrixCase{8, 1000}, MatrixCase{8, 50000}));

// All centers identical: every node box has zero extent, so the build must
// bottom out in one oversized leaf instead of recursing forever, and the
// bandwidth floor keeps evaluation finite.
TEST(DualTreeDegenerateTest, AllPointsIdentical) {
  const int dim = 7;
  data::PointSet data(dim);
  const double coords[dim] = {0.25, -1.5, 0.0, 3.0, 0.5, -0.5, 1.0};
  for (int i = 0; i < 500; ++i) data.Append(data::PointView(coords, dim));

  KdeOptions opts;
  opts.num_kernels = 64;
  opts.seed = 5;
  auto kde = Kde::Fit(data, opts);
  ASSERT_TRUE(kde.ok());

  data::PointSet queries(dim);
  queries.Append(data::PointView(coords, dim));
  double near[dim];
  std::copy(coords, coords + dim, near);
  near[0] += 1e-7;
  queries.Append(data::PointView(near, dim));
  double far[dim];
  std::fill(far, far + dim, 40.0);
  queries.Append(data::PointView(far, dim));
  CheckExactEquivalence(*kde, queries);
}

// Queries entirely outside the kernel support: the whole tree prunes and
// the result must be exactly +0.0, matching the brute sum of all-zero
// terms bit for bit.
TEST(DualTreeDegenerateTest, QueriesFarOutsideSupport) {
  const int dim = 8;
  data::PointSet data = MakeData(dim, 900, 31);
  KdeOptions opts;
  opts.num_kernels = 300;
  opts.seed = 13;
  auto kde = Kde::Fit(data, opts);
  ASSERT_TRUE(kde.ok());

  data::PointSet queries(dim);
  Rng rng(77);
  for (int i = 0; i < 64; ++i) {
    double q[dim];
    for (int j = 0; j < dim; ++j) q[j] = 100.0 + rng.NextDouble();
    queries.Append(data::PointView(q, dim));
  }
  const int64_t n = queries.size();
  std::vector<double> got(static_cast<size_t>(n), -1.0);
  ASSERT_TRUE(kde->EvaluateBatch(queries.flat().data(), n, got.data()).ok());
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i], 0.0) << i;
    ASSERT_FALSE(std::signbit(got[i])) << i;  // +0.0, not -0.0
  }
  CheckExactEquivalence(*kde, queries);
}

}  // namespace
}  // namespace dbs::density
