// Equivalence and degenerate-input coverage for DetectOutliersCellList.
//
// The cell-list detector's contract is byte-identity with the kd-tree
// detector (and through it the nested loop) for every metric, dimension and
// worker count — including inputs decided wholesale by the dense/sparse
// cell rules and inputs that take the kd-tree fallback. Tests compare full
// reports, never just outlier sets.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "data/point_set.h"
#include "outlier/cell_list.h"
#include "outlier/exact_detector.h"
#include "parallel/batch_executor.h"
#include "util/rng.h"

namespace dbs::outlier {
namespace {

using data::Metric;
using data::PointSet;

constexpr Metric kMetrics[] = {Metric::kL2, Metric::kL1, Metric::kLinf};

// A tight cloud (exercises the dense rule), a uniform background and a few
// isolated far points (exercise the sparse rule), in any dimension.
PointSet MixedWorkload(int dim, int64_t n_cloud, int64_t n_background,
                       int n_far, uint64_t seed) {
  dbs::Rng rng(seed);
  PointSet ps(dim);
  std::vector<double> x(static_cast<size_t>(dim));
  for (int64_t i = 0; i < n_cloud; ++i) {
    for (int j = 0; j < dim; ++j) x[static_cast<size_t>(j)] = rng.NextDouble(0.45, 0.55);
    ps.Append(x);
  }
  for (int64_t i = 0; i < n_background; ++i) {
    for (int j = 0; j < dim; ++j) x[static_cast<size_t>(j)] = rng.NextDouble(0.0, 1.0);
    ps.Append(x);
  }
  for (int i = 0; i < n_far; ++i) {
    for (int j = 0; j < dim; ++j) x[static_cast<size_t>(j)] = 0.5;
    // Spread the far points along alternating axes so they are isolated
    // from the unit cube and from each other, while keeping the bounding
    // box small enough that even the 5-D grid stays under the cell cap.
    x[static_cast<size_t>(i % dim)] = (i % 2 == 0 ? 2.2 : -1.4) + 0.05 * i;
    ps.Append(x);
  }
  return ps;
}

void ExpectSameReport(const OutlierReport& got, const OutlierReport& want) {
  EXPECT_EQ(got.outlier_indices, want.outlier_indices);
  EXPECT_EQ(got.neighbor_counts, want.neighbor_counts);
  EXPECT_EQ(got.candidates_checked, want.candidates_checked);
  EXPECT_EQ(got.passes, want.passes);
}

TEST(CellListTest, EquivalenceMatrixAcrossMetricsDimsAndWorkers) {
  for (int dim : {1, 2, 3, 5}) {
    PointSet ps = MixedWorkload(dim, 400, 300, 6, 17u + static_cast<uint64_t>(dim));
    for (Metric metric : kMetrics) {
      DbOutlierParams params;
      params.radius = 0.15;
      params.max_neighbors = 5;
      params.metric = metric;
      auto kd = DetectOutliersExact(ps, params);
      auto nested = DetectOutliersNestedLoop(ps, params);
      ASSERT_TRUE(kd.ok());
      ASSERT_TRUE(nested.ok());
      ExpectSameReport(*nested, *kd);
      for (int workers : {0, 1, 4}) {
        SCOPED_TRACE(testing::Message() << "dim=" << dim << " metric="
                                        << static_cast<int>(metric)
                                        << " workers=" << workers);
        CellListDetectorOptions options;
        CellListStats stats;
        options.stats = &stats;
        parallel::BatchExecutorOptions pool_opts;
        pool_opts.num_workers = workers;
        pool_opts.min_shard = 8;  // force real sharding over occupied cells
        parallel::BatchExecutor pool(pool_opts);
        if (workers > 0) options.executor = &pool;
        auto cell = DetectOutliersCellList(ps, params, options);
        ASSERT_TRUE(cell.ok());
        ExpectSameReport(*cell, *kd);
        EXPECT_FALSE(stats.used_fallback);
        EXPECT_GT(stats.occupied_cells, 0);
      }
    }
  }
}

TEST(CellListTest, PruneStatsAreWorkerCountInvariant) {
  PointSet ps = MixedWorkload(2, 3000, 500, 8, 23);
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 5;
  CellListStats sequential;
  CellListDetectorOptions options;
  options.stats = &sequential;
  ASSERT_TRUE(DetectOutliersCellList(ps, params, options).ok());
  // The tight cloud packs whole cells past p+2 and the far points sit in
  // near-empty neighborhoods, so both rules fire on this workload.
  EXPECT_GT(sequential.cells_dense_pruned, 0);
  EXPECT_GT(sequential.cells_sparse_pruned, 0);
  EXPECT_GT(sequential.pairwise_evaluated, 0);
  for (int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    parallel::BatchExecutorOptions pool_opts;
    pool_opts.num_workers = workers;
    pool_opts.min_shard = 8;
    parallel::BatchExecutor pool(pool_opts);
    CellListStats stats;
    CellListDetectorOptions sharded;
    sharded.executor = &pool;
    sharded.stats = &stats;
    ASSERT_TRUE(DetectOutliersCellList(ps, params, sharded).ok());
    EXPECT_EQ(stats.grid_cells, sequential.grid_cells);
    EXPECT_EQ(stats.occupied_cells, sequential.occupied_cells);
    EXPECT_EQ(stats.cells_dense_pruned, sequential.cells_dense_pruned);
    EXPECT_EQ(stats.cells_sparse_pruned, sequential.cells_sparse_pruned);
    EXPECT_EQ(stats.pairwise_evaluated, sequential.pairwise_evaluated);
  }
}

TEST(CellListTest, BoundaryDistancesOnPowerOfTwoLattice) {
  // Lattice spacing equal to the radius, both powers of two: axis-neighbor
  // distances are EXACTLY the radius in floating point under all three
  // metrics, so any divergence in comparison expressions between the
  // detectors would flip these boundary pairs.
  PointSet ps(2);
  for (int a = 0; a < 12; ++a) {
    for (int b = 0; b < 12; ++b) {
      ps.Append(std::vector<double>{a * 0.125, b * 0.125});
    }
  }
  for (Metric metric : kMetrics) {
    SCOPED_TRACE(static_cast<int>(metric));
    DbOutlierParams params;
    params.radius = 0.125;
    params.max_neighbors = 3;  // interior points have 4 axis neighbors (L2)
    params.metric = metric;
    auto kd = DetectOutliersExact(ps, params);
    auto nested = DetectOutliersNestedLoop(ps, params);
    auto cell = DetectOutliersCellList(ps, params);
    ASSERT_TRUE(kd.ok());
    ASSERT_TRUE(nested.ok());
    ASSERT_TRUE(cell.ok());
    ExpectSameReport(*cell, *kd);
    ExpectSameReport(*nested, *kd);
  }
}

TEST(CellListTest, RadiusZeroTakesKdTreeFallback) {
  PointSet ps(2, {0.0, 0.0, 0.0, 0.0, 1.0, 1.0});
  DbOutlierParams params;
  params.radius = 0.0;
  params.max_neighbors = 0;
  CellListStats stats;
  CellListDetectorOptions options;
  options.stats = &stats;
  auto cell = DetectOutliersCellList(ps, params, options);
  auto kd = DetectOutliersExact(ps, params);
  ASSERT_TRUE(cell.ok());
  ASSERT_TRUE(kd.ok());
  ExpectSameReport(*cell, *kd);
  EXPECT_TRUE(stats.used_fallback);
  // The two coincident points neighbor each other at distance 0.
  EXPECT_EQ(cell->outlier_indices, (std::vector<int64_t>{2}));
}

TEST(CellListTest, AllIdenticalPointsDensePruneWholesale) {
  PointSet ps(3);
  for (int i = 0; i < 50; ++i) {
    ps.Append(std::vector<double>{0.3, 0.3, 0.3});
  }
  for (Metric metric : kMetrics) {
    SCOPED_TRACE(static_cast<int>(metric));
    DbOutlierParams params;
    params.radius = 0.05;
    params.max_neighbors = 5;
    params.metric = metric;
    CellListStats stats;
    CellListDetectorOptions options;
    options.stats = &stats;
    auto cell = DetectOutliersCellList(ps, params, options);
    auto kd = DetectOutliersExact(ps, params);
    ASSERT_TRUE(cell.ok());
    ASSERT_TRUE(kd.ok());
    ExpectSameReport(*cell, *kd);
    EXPECT_TRUE(cell->outlier_indices.empty());
    // One occupied zero-extent cell with 50 >= p+2 residents: the dense
    // rule decides everything without a single distance evaluation.
    EXPECT_EQ(stats.occupied_cells, 1);
    EXPECT_EQ(stats.cells_dense_pruned, 1);
    EXPECT_EQ(stats.pairwise_evaluated, 0);
  }
}

TEST(CellListTest, AllIdenticalPointsSparseRuleStillReportsExactCounts) {
  PointSet ps(2);
  for (int i = 0; i < 50; ++i) {
    ps.Append(std::vector<double>{0.3, 0.3});
  }
  DbOutlierParams params;
  params.radius = 0.05;
  params.max_neighbors = 60;  // everyone is an outlier (49 <= 60 neighbors)
  CellListStats stats;
  CellListDetectorOptions options;
  options.stats = &stats;
  auto cell = DetectOutliersCellList(ps, params, options);
  auto kd = DetectOutliersExact(ps, params);
  ASSERT_TRUE(cell.ok());
  ASSERT_TRUE(kd.ok());
  ExpectSameReport(*cell, *kd);
  ASSERT_EQ(cell->outlier_indices.size(), 50u);
  for (int64_t count : cell->neighbor_counts) EXPECT_EQ(count, 49);
  EXPECT_EQ(stats.cells_sparse_pruned, 1);
  EXPECT_EQ(stats.cells_dense_pruned, 0);
}

TEST(CellListTest, SinglePoint) {
  PointSet ps(2, {0.7, -0.2});
  DbOutlierParams params;
  params.radius = 1.0;
  params.max_neighbors = 0;
  auto cell = DetectOutliersCellList(ps, params);
  auto kd = DetectOutliersExact(ps, params);
  ASSERT_TRUE(cell.ok());
  ASSERT_TRUE(kd.ok());
  ExpectSameReport(*cell, *kd);
  EXPECT_EQ(cell->outlier_indices, (std::vector<int64_t>{0}));
  EXPECT_EQ(cell->neighbor_counts, (std::vector<int64_t>{0}));
}

TEST(CellListTest, ExtremeAspectRatioBox) {
  // 2000:1 aspect ratio: many cells along x, one along y. The grid stays
  // small enough to build, and the report still matches the kd-tree's.
  dbs::Rng rng(31);
  PointSet ps(2);
  for (int i = 0; i < 800; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(0.0, 1000.0),
                                  rng.NextDouble(0.0, 0.5)});
  }
  DbOutlierParams params;
  params.radius = 2.0;
  params.max_neighbors = 3;
  CellListStats stats;
  CellListDetectorOptions options;
  options.stats = &stats;
  auto cell = DetectOutliersCellList(ps, params, options);
  auto kd = DetectOutliersExact(ps, params);
  ASSERT_TRUE(cell.ok());
  ASSERT_TRUE(kd.ok());
  ExpectSameReport(*cell, *kd);
  EXPECT_FALSE(stats.used_fallback);
  EXPECT_GT(stats.grid_cells, 400);
}

TEST(CellListTest, RadiusLargerThanBoundingBoxDensePrunes) {
  dbs::Rng rng(37);
  PointSet ps(2);
  for (int i = 0; i < 30; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(0.0, 0.1),
                                  rng.NextDouble(0.0, 0.1)});
  }
  for (Metric metric : kMetrics) {
    SCOPED_TRACE(static_cast<int>(metric));
    DbOutlierParams params;
    params.radius = 10.0;  // the whole dataset fits in one bin
    params.max_neighbors = 5;
    params.metric = metric;
    CellListStats stats;
    CellListDetectorOptions options;
    options.stats = &stats;
    auto cell = DetectOutliersCellList(ps, params, options);
    auto kd = DetectOutliersExact(ps, params);
    ASSERT_TRUE(cell.ok());
    ASSERT_TRUE(kd.ok());
    ExpectSameReport(*cell, *kd);
    EXPECT_TRUE(cell->outlier_indices.empty());
    EXPECT_EQ(stats.grid_cells, 1);
    EXPECT_EQ(stats.cells_dense_pruned, 1);
    EXPECT_EQ(stats.pairwise_evaluated, 0);
  }
}

TEST(CellListTest, HighDimensionTakesKdTreeFallback) {
  dbs::Rng rng(41);
  PointSet ps(7);  // above kCellListMaxDim
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x(7);
    for (auto& v : x) v = rng.NextDouble();
    ps.Append(x);
  }
  DbOutlierParams params;
  params.radius = 0.5;
  params.max_neighbors = 5;
  CellListStats stats;
  CellListDetectorOptions options;
  options.stats = &stats;
  auto cell = DetectOutliersCellList(ps, params, options);
  auto kd = DetectOutliersExact(ps, params);
  ASSERT_TRUE(cell.ok());
  ASSERT_TRUE(kd.ok());
  ExpectSameReport(*cell, *kd);
  EXPECT_TRUE(stats.used_fallback);
}

TEST(CellListTest, GridCellCapTakesKdTreeFallback) {
  dbs::Rng rng(47);
  PointSet ps(2);
  for (int i = 0; i < 500; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(), rng.NextDouble()});
  }
  DbOutlierParams params;
  params.radius = 1e-4;  // would need a ~10^4 x 10^4 grid, over the cap
  params.max_neighbors = 2;
  CellListStats stats;
  CellListDetectorOptions options;
  options.stats = &stats;
  auto cell = DetectOutliersCellList(ps, params, options);
  auto kd = DetectOutliersExact(ps, params);
  ASSERT_TRUE(cell.ok());
  ASSERT_TRUE(kd.ok());
  ExpectSameReport(*cell, *kd);
  EXPECT_TRUE(stats.used_fallback);
}

TEST(CellListTest, RejectsBadArgsWithSameMessagesAsKdTree) {
  PointSet ps(2, {0.0, 0.0});
  DbOutlierParams bad_radius;
  bad_radius.radius = -1;
  auto cell = DetectOutliersCellList(ps, bad_radius);
  auto kd = DetectOutliersExact(ps, bad_radius);
  ASSERT_FALSE(cell.ok());
  ASSERT_FALSE(kd.ok());
  EXPECT_EQ(cell.status().ToString(), kd.status().ToString());

  DbOutlierParams bad_fraction;
  bad_fraction.max_neighbor_fraction = 1.5;
  EXPECT_FALSE(DetectOutliersCellList(ps, bad_fraction).ok());
  EXPECT_FALSE(DetectOutliersCellList(PointSet(2), DbOutlierParams{}).ok());

  // Non-finite radii would poison the grid side; all three exact detectors
  // reject them with the same message.
  for (double radius : {std::nan(""), HUGE_VAL}) {
    DbOutlierParams bad;
    bad.radius = radius;
    auto cell_bad = DetectOutliersCellList(ps, bad);
    auto kd_bad = DetectOutliersExact(ps, bad);
    auto nested_bad = DetectOutliersNestedLoop(ps, bad);
    ASSERT_FALSE(cell_bad.ok());
    ASSERT_FALSE(kd_bad.ok());
    ASSERT_FALSE(nested_bad.ok());
    EXPECT_EQ(cell_bad.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(cell_bad.status().ToString(), kd_bad.status().ToString());
    EXPECT_EQ(nested_bad.status().ToString(), kd_bad.status().ToString());
  }
}

TEST(CellListTest, ShardedCountingPropagatesBackpressure) {
  PointSet ps = MixedWorkload(2, 2000, 200, 4, 53);
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 5;
  parallel::BatchExecutorOptions pool_opts;
  pool_opts.num_workers = 1;
  pool_opts.min_shard = 1;
  parallel::BatchExecutor pool(pool_opts);
  pool.Shutdown();  // every submit now fails
  CellListDetectorOptions options;
  options.executor = &pool;
  auto report = DetectOutliersCellList(ps, params, options);
  EXPECT_FALSE(report.ok());
}

TEST(CellListTest, FractionalNeighborBound) {
  PointSet ps(1, {0.0, 0.01, 0.02, 0.03, 5.0});
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbor_fraction = 0.2;  // 20% of 5 points = 1 neighbor
  auto cell = DetectOutliersCellList(ps, params);
  auto kd = DetectOutliersExact(ps, params);
  ASSERT_TRUE(cell.ok());
  ASSERT_TRUE(kd.ok());
  ExpectSameReport(*cell, *kd);
  EXPECT_EQ(cell->outlier_indices, (std::vector<int64_t>{4}));
}

}  // namespace
}  // namespace dbs::outlier
