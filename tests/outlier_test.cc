#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "data/point_set.h"
#include "density/kde.h"
#include "outlier/ball_integration.h"
#include "outlier/exact_detector.h"
#include "outlier/kde_detector.h"
#include "parallel/batch_executor.h"
#include "util/math.h"
#include "util/rng.h"

namespace dbs::outlier {
namespace {

using data::PointSet;
using data::PointView;

// A dense cloud in [0.4, 0.6]^2 plus isolated planted outliers far away.
struct PlantedWorkload {
  PointSet points{2};
  std::vector<int64_t> outlier_indices;  // planted positions
};

PlantedWorkload MakePlanted(int64_t n_cloud, int n_outliers, uint64_t seed) {
  dbs::Rng rng(seed);
  PlantedWorkload w;
  for (int64_t i = 0; i < n_cloud; ++i) {
    w.points.Append(std::vector<double>{rng.NextDouble(0.4, 0.6),
                                        rng.NextDouble(0.4, 0.6)});
  }
  // Outliers on a far ring: pairwise distant and far from the cloud.
  for (int i = 0; i < n_outliers; ++i) {
    double angle = 2.0 * M_PI * i / n_outliers;
    w.outlier_indices.push_back(w.points.size());
    w.points.Append(std::vector<double>{0.5 + 2.0 * std::cos(angle),
                                        0.5 + 2.0 * std::sin(angle)});
  }
  return w;
}

density::Kde FitKde(const PointSet& ps) {
  density::KdeOptions opts;
  opts.num_kernels = 400;
  auto kde = density::Kde::Fit(ps, opts);
  DBS_CHECK(kde.ok());
  return std::move(kde).value();
}

TEST(ExactDetectorTest, RejectsBadParams) {
  PointSet ps(2, {0.0, 0.0});
  DbOutlierParams bad;
  bad.radius = -1;
  EXPECT_FALSE(DetectOutliersExact(ps, bad).ok());
  DbOutlierParams frac;
  frac.max_neighbor_fraction = 1.5;
  EXPECT_FALSE(DetectOutliersExact(ps, frac).ok());
  EXPECT_FALSE(DetectOutliersExact(PointSet(2), DbOutlierParams{}).ok());
}

TEST(ExactDetectorTest, DefinitionOnTinyExample) {
  // 1-D points: cluster {0, 0.1, 0.2}, singleton at 10.
  PointSet ps(1, {0.0, 0.1, 0.2, 10.0});
  DbOutlierParams params;
  params.radius = 0.15;
  params.max_neighbors = 0;  // no neighbors allowed
  auto report = DetectOutliersExact(ps, params);
  ASSERT_TRUE(report.ok());
  // 0 has neighbor 0.1; 0.1 has two; 0.2 has one; 10 has none.
  EXPECT_EQ(report->outlier_indices, (std::vector<int64_t>{3}));
  EXPECT_EQ(report->neighbor_counts, (std::vector<int64_t>{0}));

  params.max_neighbors = 1;
  report = DetectOutliersExact(ps, params);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->outlier_indices, (std::vector<int64_t>{0, 2, 3}));
}

TEST(ExactDetectorTest, KdTreeMatchesNestedLoop) {
  dbs::Rng rng(1);
  PointSet ps(3);
  for (int i = 0; i < 600; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(), rng.NextDouble(),
                                  rng.NextDouble()});
  }
  for (double radius : {0.05, 0.15, 0.3}) {
    for (int64_t p : {0, 3, 10}) {
      DbOutlierParams params;
      params.radius = radius;
      params.max_neighbors = p;
      auto a = DetectOutliersExact(ps, params);
      auto b = DetectOutliersNestedLoop(ps, params);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a->outlier_indices, b->outlier_indices)
          << "radius=" << radius << " p=" << p;
      EXPECT_EQ(a->neighbor_counts, b->neighbor_counts);
    }
  }
}

TEST(ExactDetectorTest, FractionalNeighborBound) {
  PointSet ps(1, {0.0, 0.01, 0.02, 0.03, 5.0});
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbor_fraction = 0.2;  // 20% of 5 points = 1 neighbor
  EXPECT_EQ(params.NeighborBound(5), 1);
  auto report = DetectOutliersExact(ps, params);
  ASSERT_TRUE(report.ok());
  // Cluster points have 3 neighbors each (> 1); 5.0 has none.
  EXPECT_EQ(report->outlier_indices, (std::vector<int64_t>{4}));
}

TEST(ExactDetectorTest, FindsPlantedOutliers) {
  PlantedWorkload w = MakePlanted(5000, 8, 2);
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 5;
  auto report = DetectOutliersExact(w.points, params);
  ASSERT_TRUE(report.ok());
  std::set<int64_t> found(report->outlier_indices.begin(),
                          report->outlier_indices.end());
  for (int64_t idx : w.outlier_indices) {
    EXPECT_TRUE(found.count(idx)) << "missed planted outlier " << idx;
  }
  // The dense cloud (5000 points in a 0.2 square) contributes none.
  EXPECT_EQ(report->outlier_indices.size(), w.outlier_indices.size());
}

TEST(ExactDetectorTest, ShardedCountingMatchesSequentialExactly) {
  PlantedWorkload w = MakePlanted(3000, 6, 11);
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 5;
  auto sequential = DetectOutliersExact(w.points, params);
  ASSERT_TRUE(sequential.ok());
  // 0 workers (no executor) already covered by `sequential`; 1 and 4
  // workers must produce the identical report.
  for (int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    parallel::BatchExecutorOptions pool;
    pool.num_workers = workers;
    pool.min_shard = 64;  // force real sharding at this size
    parallel::BatchExecutor executor(pool);
    ExactDetectorOptions options;
    options.executor = &executor;
    auto sharded = DetectOutliersExact(w.points, params, options);
    ASSERT_TRUE(sharded.ok());
    EXPECT_EQ(sharded->outlier_indices, sequential->outlier_indices);
    EXPECT_EQ(sharded->neighbor_counts, sequential->neighbor_counts);
    EXPECT_EQ(sharded->candidates_checked, sequential->candidates_checked);
    EXPECT_EQ(sharded->passes, sequential->passes);
  }
}

TEST(NestedLoopTest, ShardedScanMatchesSequentialExactly) {
  PlantedWorkload w = MakePlanted(1500, 6, 12);
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 5;
  auto sequential = DetectOutliersNestedLoop(w.points, params);
  ASSERT_TRUE(sequential.ok());
  for (int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    parallel::BatchExecutorOptions pool;
    pool.num_workers = workers;
    pool.min_shard = 64;  // force real sharding at this size
    parallel::BatchExecutor executor(pool);
    ExactDetectorOptions options;
    options.executor = &executor;
    auto sharded = DetectOutliersNestedLoop(w.points, params, options);
    ASSERT_TRUE(sharded.ok());
    EXPECT_EQ(sharded->outlier_indices, sequential->outlier_indices);
    EXPECT_EQ(sharded->neighbor_counts, sequential->neighbor_counts);
    EXPECT_EQ(sharded->candidates_checked, sequential->candidates_checked);
    EXPECT_EQ(sharded->passes, sequential->passes);
  }
}

TEST(NestedLoopTest, ShardedScanPropagatesBackpressure) {
  PlantedWorkload w = MakePlanted(1000, 2, 15);
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 5;
  parallel::BatchExecutorOptions pool;
  pool.num_workers = 1;
  pool.min_shard = 1;
  parallel::BatchExecutor executor(pool);
  executor.Shutdown();  // every submit now fails
  ExactDetectorOptions options;
  options.executor = &executor;
  auto report = DetectOutliersNestedLoop(w.points, params, options);
  EXPECT_FALSE(report.ok());
}

TEST(ExactDetectorTest, ShardedCountingPropagatesBackpressure) {
  PlantedWorkload w = MakePlanted(2000, 2, 13);
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 5;
  parallel::BatchExecutorOptions pool;
  pool.num_workers = 1;
  pool.min_shard = 1;
  parallel::BatchExecutor executor(pool);
  executor.Shutdown();  // every submit now fails
  ExactDetectorOptions options;
  options.executor = &executor;
  auto report = DetectOutliersExact(w.points, params, options);
  EXPECT_FALSE(report.ok());
}

TEST(BallIntegratorTest, CenterValueUsesBallVolume) {
  PlantedWorkload w = MakePlanted(3000, 0, 3);
  density::Kde kde = FitKde(w.points);
  BallIntegrator integrator(BallIntegration::kCenterValue, 2);
  double q[2] = {0.5, 0.5};
  PointView p(q, 2);
  double expected = kde.Evaluate(p) * dbs::BallVolume(2, 0.05);
  EXPECT_DOUBLE_EQ(integrator.Integrate(kde, p, 0.05), expected);
}

TEST(BallIntegratorTest, QmcAgreesWithCenterValueOnFlatDensity) {
  // Uniform density: both methods estimate the same integral.
  dbs::Rng rng(4);
  PointSet ps(2);
  for (int i = 0; i < 20000; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(), rng.NextDouble()});
  }
  density::Kde kde = FitKde(ps);
  BallIntegrator center(BallIntegration::kCenterValue, 2);
  BallIntegrator qmc(BallIntegration::kQuasiMonteCarlo, 2, 128);
  double q[2] = {0.5, 0.5};
  PointView p(q, 2);
  double a = center.Integrate(kde, p, 0.1);
  double b = qmc.Integrate(kde, p, 0.1);
  EXPECT_NEAR(a / b, 1.0, 0.1);
  // And both approximate the true expected count: n * pi r^2.
  double truth = 20000 * M_PI * 0.01;
  EXPECT_NEAR(b, truth, 0.25 * truth);
}

TEST(BallIntegratorTest, QmcSeesGradientTheCenterValueMisses) {
  // Density step: points only on the left half. For a ball centered on the
  // edge, center-value over/under-shoots while QMC averages the halves.
  dbs::Rng rng(5);
  PointSet ps(2);
  for (int i = 0; i < 20000; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(0.0, 0.5),
                                  rng.NextDouble()});
  }
  density::Kde kde = FitKde(ps);
  BallIntegrator qmc(BallIntegration::kQuasiMonteCarlo, 2, 256);
  // Ball far inside the occupied half: full density.
  double inside[2] = {0.25, 0.5};
  double deep = qmc.Integrate(kde, PointView(inside, 2), 0.05);
  // Ball centered outside, overlapping the boundary only partially.
  double edge[2] = {0.55, 0.5};
  double part = qmc.Integrate(kde, PointView(edge, 2), 0.05);
  EXPECT_LT(part, deep * 0.7);
}

TEST(KdeDetectorTest, RejectsBadOptions) {
  PlantedWorkload w = MakePlanted(500, 2, 6);
  density::Kde kde = FitKde(w.points);
  DbOutlierParams params;
  for (double slack : {0.0, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    KdeDetectorOptions bad;
    bad.candidate_slack = slack;
    EXPECT_FALSE(
        DetectOutliersApproximate(w.points, kde, params, bad).ok())
        << slack;
  }
  KdeDetectorOptions bad_qmc;
  bad_qmc.qmc_samples = 0;
  EXPECT_FALSE(
      DetectOutliersApproximate(w.points, kde, params, bad_qmc).ok());
}

// One validator behind every KDE-detector entry point: the unsharded
// detector, the sharded scoring partial and the count estimate reject each
// bad input with the same InvalidArgument message (the KDE counterpart of
// CellListTest.RejectsBadArgsWithSameMessagesAsKdTree).
TEST(KdeDetectorTest, EntryPointsRejectBadArgsWithSameMessages) {
  auto expect_same_rejection = [](const PointSet& points,
                                  const density::DensityEstimator& estimator,
                                  const DbOutlierParams& params,
                                  const KdeDetectorOptions& options) {
    auto full = DetectOutliersApproximate(points, estimator, params, options);
    data::InMemoryScan scan(&points);
    ShardInfo info;
    info.total_rows = points.size();
    auto partial =
        ScoreOutlierCandidatesPartial(scan, estimator, params, options, info);
    auto count = EstimateOutlierCount(points, estimator, params, options);
    ASSERT_FALSE(full.ok());
    ASSERT_FALSE(partial.ok());
    ASSERT_FALSE(count.ok());
    EXPECT_EQ(full.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(partial.status().ToString(), full.status().ToString());
    EXPECT_EQ(count.status().ToString(), full.status().ToString());
  };

  PlantedWorkload w = MakePlanted(500, 2, 6);
  density::Kde kde = FitKde(w.points);
  const KdeDetectorOptions options;
  for (double radius : {-1.0, std::nan(""), HUGE_VAL}) {
    SCOPED_TRACE(radius);
    DbOutlierParams params;
    params.radius = radius;
    expect_same_rejection(w.points, kde, params, options);
  }
  for (double bad : {1.5, HUGE_VAL, std::nan("")}) {
    SCOPED_TRACE(bad);
    DbOutlierParams fraction;
    fraction.max_neighbor_fraction = bad;
    expect_same_rejection(w.points, kde, fraction, options);
  }
  DbOutlierParams negative;
  negative.max_neighbors = -1;
  expect_same_rejection(w.points, kde, negative, options);
  expect_same_rejection(PointSet(2), kde, DbOutlierParams{}, options);
  expect_same_rejection(PointSet(3, {0.0, 0.0, 0.0}), kde, DbOutlierParams{},
                        options);

  for (double bad : {0.0, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    SCOPED_TRACE(bad);
    KdeDetectorOptions slack;
    slack.candidate_slack = bad;
    expect_same_rejection(w.points, kde, DbOutlierParams{}, slack);
  }
  KdeDetectorOptions qmc;
  qmc.qmc_samples = 0;
  expect_same_rejection(w.points, kde, DbOutlierParams{}, qmc);
  KdeDetectorOptions cap;
  cap.max_candidates = 0;
  expect_same_rejection(w.points, kde, DbOutlierParams{}, cap);

  // L1 quasi-Monte-Carlo probes exist up to kMaxL1QmcDim dims only.
  Rng rng(9);
  PointSet wide(8);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x(8);
    for (double& v : x) v = rng.NextDouble();
    wide.Append(x);
  }
  density::Kde wide_kde = FitKde(wide);
  DbOutlierParams l1;
  l1.metric = data::Metric::kL1;
  KdeDetectorOptions l1_qmc;
  l1_qmc.integration = BallIntegration::kQuasiMonteCarlo;
  expect_same_rejection(wide, wide_kde, l1, l1_qmc);
  // The same model and metric integrate fine by center value.
  EXPECT_TRUE(DetectOutliersApproximate(wide, wide_kde, l1, options).ok());
}

TEST(KdeDetectorTest, FindsAllPlantedOutliersInTwoPasses) {
  PlantedWorkload w = MakePlanted(8000, 10, 7);
  density::Kde kde = FitKde(w.points);
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 5;
  KdeDetectorOptions options;

  data::InMemoryScan scan(&w.points);
  auto report = DetectOutliersApproximate(scan, kde, params, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->passes, 2);
  EXPECT_EQ(scan.passes(), 2);

  std::set<int64_t> found(report->outlier_indices.begin(),
                          report->outlier_indices.end());
  for (int64_t idx : w.outlier_indices) {
    EXPECT_TRUE(found.count(idx)) << "missed planted outlier " << idx;
  }
}

TEST(KdeDetectorTest, MatchesExactDetectorOnPlantedData) {
  PlantedWorkload w = MakePlanted(6000, 12, 8);
  density::Kde kde = FitKde(w.points);
  DbOutlierParams params;
  params.radius = 0.08;
  params.max_neighbors = 3;
  KdeDetectorOptions options;
  options.candidate_slack = 3.0;

  auto exact = DetectOutliersExact(w.points, params);
  auto approx = DetectOutliersApproximate(w.points, kde, params, options);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(approx.ok());
  // Verification makes every reported outlier a true outlier (perfect
  // precision); candidate pruning may only lose recall — and with generous
  // slack on this workload it loses none.
  EXPECT_EQ(approx->outlier_indices, exact->outlier_indices);
  EXPECT_EQ(approx->neighbor_counts, exact->neighbor_counts);
}

TEST(KdeDetectorTest, ReportedNeighborCountsAreExact) {
  PlantedWorkload w = MakePlanted(4000, 5, 9);
  density::Kde kde = FitKde(w.points);
  DbOutlierParams params;
  params.radius = 3.0;  // outliers see a few fellow ring points
  params.max_neighbors = 4;
  KdeDetectorOptions options;
  options.candidate_slack = 5.0;
  auto approx = DetectOutliersApproximate(w.points, kde, params, options);
  auto exact = DetectOutliersExact(w.points, params);
  ASSERT_TRUE(approx.ok());
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(approx->neighbor_counts, exact->neighbor_counts);
}

TEST(KdeDetectorTest, CandidatePruningBoundsVerificationWork) {
  PlantedWorkload w = MakePlanted(10000, 10, 10);
  density::Kde kde = FitKde(w.points);
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 5;
  KdeDetectorOptions options;
  auto report = DetectOutliersApproximate(w.points, kde, params, options);
  ASSERT_TRUE(report.ok());
  // Candidates are a tiny fraction of the dataset: that is the speedup.
  EXPECT_LT(report->candidates_checked, w.points.size() / 10);
  EXPECT_GE(report->candidates_checked,
            static_cast<int64_t>(report->outlier_indices.size()));
}

TEST(KdeDetectorTest, MaxCandidatesGuard) {
  PlantedWorkload w = MakePlanted(2000, 5, 11);
  density::Kde kde = FitKde(w.points);
  DbOutlierParams params;
  params.radius = 0.001;  // everything looks like an outlier
  params.max_neighbors = 0;
  KdeDetectorOptions options;
  options.max_candidates = 100;
  auto report = DetectOutliersApproximate(w.points, kde, params, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), dbs::StatusCode::kFailedPrecondition);
}

TEST(KdeDetectorTest, QmcIntegrationAlsoWorks) {
  PlantedWorkload w = MakePlanted(5000, 6, 12);
  density::Kde kde = FitKde(w.points);
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 5;
  KdeDetectorOptions options;
  options.integration = BallIntegration::kQuasiMonteCarlo;
  options.qmc_samples = 32;
  auto report = DetectOutliersApproximate(w.points, kde, params, options);
  ASSERT_TRUE(report.ok());
  std::set<int64_t> found(report->outlier_indices.begin(),
                          report->outlier_indices.end());
  for (int64_t idx : w.outlier_indices) {
    EXPECT_TRUE(found.count(idx));
  }
}

TEST(EstimateOutlierCountTest, TracksTrueCount) {
  PlantedWorkload w = MakePlanted(8000, 15, 13);
  density::Kde kde = FitKde(w.points);
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 5;
  auto estimate =
      EstimateOutlierCount(w.points, kde, params, KdeDetectorOptions{});
  ASSERT_TRUE(estimate.ok());
  // One pass, no verification: the estimate lands near the planted count.
  EXPECT_GE(*estimate, 15);
  EXPECT_LE(*estimate, 15 + 40);
}

TEST(EstimateOutlierCountTest, GrowsAsRadiusShrinks) {
  PlantedWorkload w = MakePlanted(5000, 5, 14);
  density::Kde kde = FitKde(w.points);
  KdeDetectorOptions options;
  DbOutlierParams tight;
  tight.radius = 0.01;
  tight.max_neighbors = 3;
  DbOutlierParams loose;
  loose.radius = 0.3;
  loose.max_neighbors = 3;
  auto many = EstimateOutlierCount(w.points, kde, tight, options);
  auto few = EstimateOutlierCount(w.points, kde, loose, options);
  ASSERT_TRUE(many.ok());
  ASSERT_TRUE(few.ok());
  EXPECT_GE(*many, *few);
}

}  // namespace
}  // namespace dbs::outlier
