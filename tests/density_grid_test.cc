#include "density/grid_density.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace dbs::density {
namespace {

using data::PointSet;
using data::PointView;

PointSet UniformCube(int64_t n, int dim, uint64_t seed) {
  dbs::Rng rng(seed);
  PointSet ps(dim);
  std::vector<double> buf(dim);
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) buf[j] = rng.NextDouble();
    ps.Append(buf);
  }
  return ps;
}

TEST(GridDensityTest, RejectsBadOptions) {
  PointSet ps = UniformCube(100, 2, 1);
  GridDensityOptions bad;
  bad.cells_per_dim = 0;
  EXPECT_FALSE(GridDensity::Fit(ps, bad).ok());
  GridDensityOptions tiny;
  tiny.memory_budget_bytes = 8;
  EXPECT_FALSE(GridDensity::Fit(ps, tiny).ok());
}

TEST(GridDensityTest, RejectsEmptyDataset) {
  PointSet ps(2);
  EXPECT_FALSE(GridDensity::Fit(ps, GridDensityOptions{}).ok());
}

TEST(GridDensityTest, CountsSumToN) {
  PointSet ps = UniformCube(5000, 2, 2);
  auto gd = GridDensity::Fit(ps, GridDensityOptions{});
  ASSERT_TRUE(gd.ok());
  EXPECT_EQ(gd->total_mass(), 5000);
  // Each point's cell must count at least that point.
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_GE(gd->CellCount(ps[i]), 1);
  }
}

TEST(GridDensityTest, DenseRegionScoresHigher) {
  dbs::Rng rng(3);
  PointSet ps(2);
  // 9000 points in a tight blob, 1000 spread out.
  for (int i = 0; i < 9000; ++i) {
    ps.Append(std::vector<double>{rng.NextGaussian(0.25, 0.02),
                                  rng.NextGaussian(0.25, 0.02)});
  }
  for (int i = 0; i < 1000; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(), rng.NextDouble()});
  }
  auto gd = GridDensity::Fit(ps, GridDensityOptions{});
  ASSERT_TRUE(gd.ok());
  double dense[2] = {0.25, 0.25};
  double sparse[2] = {0.8, 0.8};
  EXPECT_GT(gd->Evaluate(PointView(dense, 2)),
            10 * gd->Evaluate(PointView(sparse, 2)));
}

TEST(GridDensityTest, MatchesExactHistogramWhenBudgetIsAmple) {
  // When the logical grid fits the memory budget, cells are addressed
  // directly (no hashing) and counts match the exact histogram everywhere.
  PointSet ps = UniformCube(20000, 2, 4);
  data::BoundingBox bounds({0.0, 0.0}, {1.0, 1.0});

  GridDensityOptions gopts;
  gopts.cells_per_dim = 16;
  gopts.bounds = bounds;
  gopts.memory_budget_bytes = 1 << 20;  // 131072 buckets for 256 cells
  auto gd = GridDensity::Fit(ps, gopts);
  ASSERT_TRUE(gd.ok());

  // The exact histogram by direct counting: the cell width 1/16 is a power
  // of two, so floor(x * 16) is each coordinate's cell exactly.
  auto cell_of = [](PointView p) {
    int64_t cell = 0;
    for (int j = 0; j < 2; ++j) {
      const auto c = static_cast<int64_t>(std::floor(p[j] * 16.0));
      cell = cell * 16 + std::clamp<int64_t>(c, 0, 15);
    }
    return cell;
  };
  std::vector<int64_t> exact(256, 0);
  for (int64_t i = 0; i < ps.size(); ++i) {
    ++exact[static_cast<size_t>(cell_of(ps[i]))];
  }

  EXPECT_FALSE(gd->hashed());
  dbs::Rng rng(5);
  const int probes = 500;
  for (int i = 0; i < probes; ++i) {
    double q[2] = {rng.NextDouble(), rng.NextDouble()};
    PointView p(q, 2);
    EXPECT_EQ(gd->CellCount(p), exact[static_cast<size_t>(cell_of(p))]);
  }
}

TEST(GridDensityTest, TightBudgetMergesCells) {
  // 64x64 = 4096 logical cells but only 128 buckets: collisions must fold
  // distinct cells together, inflating counts. This is the degradation the
  // paper attributes to the hash-based approach.
  PointSet ps = UniformCube(50000, 2, 6);
  GridDensityOptions opts;
  opts.cells_per_dim = 64;
  opts.memory_budget_bytes = 128 * 8;
  auto gd = GridDensity::Fit(ps, opts);
  ASSERT_TRUE(gd.ok());
  EXPECT_EQ(gd->num_buckets(), 128);
  // Uniform data, ~12 points per logical cell, ~32 cells per bucket:
  // bucket counts must be far above any single-cell count.
  double mean_count = 0;
  for (int64_t i = 0; i < 200; ++i) {
    mean_count += static_cast<double>(gd->CellCount(ps[i]));
  }
  mean_count /= 200;
  EXPECT_GT(mean_count, 100.0);
}

TEST(GridDensityTest, BucketCapIsRespected) {
  PointSet ps = UniformCube(1000, 3, 7);
  GridDensityOptions opts;
  opts.cells_per_dim = 100;  // 1e6 logical cells
  opts.memory_budget_bytes = 1000 * 8;
  auto gd = GridDensity::Fit(ps, opts);
  ASSERT_TRUE(gd.ok());
  EXPECT_EQ(gd->num_buckets(), 1000);
  EXPECT_LE(gd->num_occupied_buckets(), 1000);
}

TEST(GridDensityTest, SumCountPowIdentities) {
  PointSet ps = UniformCube(3000, 2, 8);
  auto gd = GridDensity::Fit(ps, GridDensityOptions{});
  ASSERT_TRUE(gd.ok());
  // e=1: sum of counts = n.
  EXPECT_NEAR(gd->SumCountPow(1.0), 3000.0, 1e-9);
  // e=0: number of occupied buckets.
  EXPECT_NEAR(gd->SumCountPow(0.0),
              static_cast<double>(gd->num_occupied_buckets()), 1e-9);
}

TEST(GridDensityTest, ProvidedBoundsSkipDiscoveryPass) {
  PointSet ps = UniformCube(500, 2, 9);
  data::InMemoryScan scan(&ps);
  GridDensityOptions opts;
  opts.bounds = data::BoundingBox({0.0, 0.0}, {1.0, 1.0});
  auto gd = GridDensity::Fit(scan, opts);
  ASSERT_TRUE(gd.ok());
  EXPECT_EQ(scan.passes(), 1);

  data::InMemoryScan scan2(&ps);
  GridDensityOptions no_bounds;
  auto gd2 = GridDensity::Fit(scan2, no_bounds);
  ASSERT_TRUE(gd2.ok());
  EXPECT_EQ(scan2.passes(), 2);
}

}  // namespace
}  // namespace dbs::density
