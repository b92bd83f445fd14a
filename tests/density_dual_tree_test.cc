// Equivalence harness for Kde's unindexed batch path: the dual traversal
// of spatial query tiles against the kd-tree over the kernel centers
// (density/center_tree.h, DESIGN.md §15).
//
// The contract under test: for a Kde without a grid index — dims above 6,
// or use_grid_index = false — every batch entry point is BITWISE identical
// to the scalar ascending-center paths, EvaluateBrute and
// EvaluateExcluding, at any executor worker count. The matrix covers dims
// {1,2,3,5} with the index switched off and dim 8 with the option at its
// default, x kernel counts {1, 1000, 50000} x workers {0,1,4}, plus the
// degenerate shapes that break tree builds: all centers identical
// (zero-extent boxes) and queries far outside the kernel support
// (all-pruned descents).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "data/point_set.h"
#include "density/kde.h"
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
  // Above 6 dims no grid index is built whatever the option says, so the
  // option stays at its default there; below, switching it off is the
  // only route to the tree.
  opts.use_grid_index = c.dim > 6;
  opts.seed = 7;
  auto kde = Kde::Fit(data, opts);
  ASSERT_TRUE(kde.ok());
  ASSERT_EQ(kde->num_kernels(), c.kernels);
  CheckExactEquivalence(*kde, queries);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DualTreeExactTest,
    ::testing::Values(MatrixCase{1, 1}, MatrixCase{1, 1000},
                      MatrixCase{1, 50000}, MatrixCase{2, 1},
                      MatrixCase{2, 1000}, MatrixCase{2, 50000},
                      MatrixCase{3, 1}, MatrixCase{3, 1000},
                      MatrixCase{3, 50000}, MatrixCase{5, 1},
                      MatrixCase{5, 1000}, MatrixCase{5, 50000},
                      MatrixCase{8, 1}, MatrixCase{8, 1000},
                      MatrixCase{8, 50000}));

// All centers identical: every node box has zero extent, so the build must
// bottom out in one oversized leaf instead of recursing forever, and the
// bandwidth floor keeps evaluation finite.
TEST(DualTreeDegenerateTest, AllPointsIdentical) {
  const int dim = 2;
  data::PointSet data(dim);
  const double coords[2] = {0.25, -1.5};
  for (int i = 0; i < 500; ++i) data.Append(data::PointView(coords, dim));

  KdeOptions opts;
  opts.num_kernels = 64;
  opts.use_grid_index = false;
  opts.seed = 5;
  auto kde = Kde::Fit(data, opts);
  ASSERT_TRUE(kde.ok());

  data::PointSet queries(dim);
  queries.Append(data::PointView(coords, dim));
  const double near[2] = {0.25 + 1e-7, -1.5};
  queries.Append(data::PointView(near, dim));
  const double far[2] = {40.0, 40.0};
  queries.Append(data::PointView(far, dim));
  CheckExactEquivalence(*kde, queries);
}

// Queries entirely outside the kernel support: the whole tree prunes and
// the result must be exactly +0.0, matching the brute sum of all-zero
// terms bit for bit.
TEST(DualTreeDegenerateTest, QueriesFarOutsideSupport) {
  data::PointSet data = MakeData(3, 900, 31);
  KdeOptions opts;
  opts.num_kernels = 300;
  opts.use_grid_index = false;
  opts.seed = 13;
  auto kde = Kde::Fit(data, opts);
  ASSERT_TRUE(kde.ok());

  data::PointSet queries(3);
  Rng rng(77);
  for (int i = 0; i < 64; ++i) {
    double q[3];
    for (int j = 0; j < 3; ++j) q[j] = 100.0 + rng.NextDouble();
    queries.Append(data::PointView(q, 3));
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
