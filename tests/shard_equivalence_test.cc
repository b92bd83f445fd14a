// ShardCoordinator vs the unsharded entry points (DESIGN.md §12).
//
// The pins under test:
//   * shards=1 is BITWISE identical to Kde::Fit, BiasedSampler::Run,
//     BiasedSampler::RunOnePass and DetectOutliersApproximate;
//   * outlier detection is bitwise identical at ANY shard count given the
//     same estimator (both passes are RNG-free);
//   * for a fixed shard count, the worker count never changes a byte.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/biased_sampler.h"
#include "data/dataset.h"
#include "density/kde.h"
#include "outlier/kde_detector.h"
#include "parallel/batch_executor.h"
#include "shard/coordinator.h"
#include "synth/generator.h"

namespace dbs {
namespace {

data::PointSet MakeData(int64_t points, int dim, uint64_t seed) {
  synth::ClusteredDatasetOptions opts;
  opts.dim = dim;
  opts.num_clusters = 5;
  opts.num_cluster_points = points;
  opts.noise_multiplier = 0.15;  // noise points make real outliers
  opts.seed = seed;
  auto ds = synth::MakeClusteredDataset(opts);
  EXPECT_TRUE(ds.ok());
  return std::move(ds)->points;
}

bool SameDoubles(const std::vector<double>& a,
                 const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void ExpectSameModel(const density::Kde& got, const density::Kde& want) {
  const density::Kde::State g = got.ExportState();
  const density::Kde::State w = want.ExportState();
  EXPECT_EQ(g.n, w.n);
  EXPECT_EQ(g.kernel, w.kernel);
  EXPECT_EQ(g.centers.dim(), w.centers.dim());
  EXPECT_TRUE(SameDoubles(g.centers.flat(), w.centers.flat()));
  EXPECT_TRUE(SameDoubles(g.bandwidths, w.bandwidths));
  EXPECT_TRUE(SameDoubles(g.bounds.lo(), w.bounds.lo()));
  EXPECT_TRUE(SameDoubles(g.bounds.hi(), w.bounds.hi()));
}

void ExpectSameSample(const core::BiasedSample& got,
                      const core::BiasedSample& want) {
  EXPECT_TRUE(SameDoubles(got.points.flat(), want.points.flat()));
  EXPECT_TRUE(SameDoubles(got.inclusion_probs, want.inclusion_probs));
  EXPECT_TRUE(SameDoubles(got.densities, want.densities));
  EXPECT_EQ(std::memcmp(&got.normalizer, &want.normalizer, sizeof(double)),
            0);
  EXPECT_EQ(got.dataset_size, want.dataset_size);
  EXPECT_EQ(got.clamped_count, want.clamped_count);
}

class ShardEquivalenceTest : public ::testing::Test {
 protected:
  ShardEquivalenceTest() : data_(MakeData(4000, 3, 29)) {}

  shard::ShardCoordinator MakeCoordinator(
      int64_t shards, parallel::BatchExecutor* executor = nullptr) const {
    shard::ShardCoordinatorOptions opts;
    opts.shards = shards;
    opts.executor = executor;
    return shard::ShardCoordinator(
        [this]() -> Result<std::unique_ptr<data::DataScan>> {
          return std::unique_ptr<data::DataScan>(
              std::make_unique<data::InMemoryScan>(&data_));
        },
        opts);
  }

  density::KdeOptions KdeOpts() const {
    density::KdeOptions opts;
    opts.num_kernels = 256;
    opts.seed = 11;
    return opts;
  }

  core::BiasedSamplerOptions SampleOpts() const {
    core::BiasedSamplerOptions opts;
    opts.a = -0.5;
    opts.target_size = 400;
    opts.seed = 23;
    return opts;
  }

  data::PointSet data_;
};

TEST_F(ShardEquivalenceTest, SingleShardBuildMatchesFitBitwise) {
  data::InMemoryScan scan(&data_);
  auto direct = density::Kde::Fit(scan, KdeOpts());
  ASSERT_TRUE(direct.ok());
  auto sharded = MakeCoordinator(1).BuildKde(KdeOpts());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectSameModel(*sharded, *direct);
}

TEST_F(ShardEquivalenceTest, SingleShardTwoPassSampleMatchesRunBitwise) {
  data::InMemoryScan scan(&data_);
  auto kde = density::Kde::Fit(scan, KdeOpts());
  ASSERT_TRUE(kde.ok());
  auto direct = core::BiasedSampler(SampleOpts()).Run(scan, *kde);
  ASSERT_TRUE(direct.ok());
  auto sharded = MakeCoordinator(1).SampleTwoPass(*kde, SampleOpts());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectSameSample(*sharded, *direct);
}

TEST_F(ShardEquivalenceTest, SingleShardOnePassSampleMatchesRunOnePass) {
  data::InMemoryScan scan(&data_);
  auto kde = density::Kde::Fit(scan, KdeOpts());
  ASSERT_TRUE(kde.ok());
  auto direct = core::BiasedSampler(SampleOpts()).RunOnePass(scan, *kde);
  ASSERT_TRUE(direct.ok());
  auto sharded = MakeCoordinator(1).SampleOnePass(*kde, SampleOpts());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectSameSample(*sharded, *direct);
}

TEST_F(ShardEquivalenceTest, OutlierDetectionMatchesAtAnyShardCount) {
  data::InMemoryScan scan(&data_);
  auto kde = density::Kde::Fit(scan, KdeOpts());
  ASSERT_TRUE(kde.ok());
  outlier::DbOutlierParams params;
  params.radius = 0.05;
  params.max_neighbors = 10;
  outlier::KdeDetectorOptions options;
  auto direct =
      outlier::DetectOutliersApproximate(scan, *kde, params, options);
  ASSERT_TRUE(direct.ok());
  EXPECT_FALSE(direct->outlier_indices.empty());

  for (int64_t shards : {1, 3}) {
    auto sharded =
        MakeCoordinator(shards).DetectOutliers(*kde, params, options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    EXPECT_EQ(sharded->outlier_indices, direct->outlier_indices)
        << "shards=" << shards;
    EXPECT_EQ(sharded->neighbor_counts, direct->neighbor_counts);
    EXPECT_EQ(sharded->candidates_checked, direct->candidates_checked);
  }
}

TEST_F(ShardEquivalenceTest, WorkerCountNeverChangesBytes) {
  // At shards=3 the pool fans the shards out; at shards=1 the one shard
  // runs on the calling thread and the pool shards its density batches.
  for (int64_t shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto reference_kde = MakeCoordinator(shards).BuildKde(KdeOpts());
    ASSERT_TRUE(reference_kde.ok());
    auto reference_sample =
        MakeCoordinator(shards).SampleTwoPass(*reference_kde, SampleOpts());
    ASSERT_TRUE(reference_sample.ok());
    auto reference_onepass =
        MakeCoordinator(shards).SampleOnePass(*reference_kde, SampleOpts());
    ASSERT_TRUE(reference_onepass.ok());
    outlier::DbOutlierParams params;
    params.radius = 0.05;
    params.max_neighbors = 10;
    auto reference_outliers = MakeCoordinator(shards).DetectOutliers(
        *reference_kde, params, outlier::KdeDetectorOptions());
    ASSERT_TRUE(reference_outliers.ok());

    for (int workers : {1, 4}) {
      parallel::BatchExecutorOptions pool;
      pool.num_workers = workers;
      parallel::BatchExecutor executor(pool);
      shard::ShardCoordinator coordinator =
          MakeCoordinator(shards, &executor);
      auto kde = coordinator.BuildKde(KdeOpts());
      ASSERT_TRUE(kde.ok()) << kde.status().ToString();
      ExpectSameModel(*kde, *reference_kde);
      auto sample = coordinator.SampleTwoPass(*kde, SampleOpts());
      ASSERT_TRUE(sample.ok()) << sample.status().ToString();
      ExpectSameSample(*sample, *reference_sample);
      EXPECT_EQ(sample->density_evaluations,
                reference_sample->density_evaluations);
      auto onepass = coordinator.SampleOnePass(*kde, SampleOpts());
      ASSERT_TRUE(onepass.ok()) << onepass.status().ToString();
      ExpectSameSample(*onepass, *reference_onepass);
      auto outliers = coordinator.DetectOutliers(
          *kde, params, outlier::KdeDetectorOptions());
      ASSERT_TRUE(outliers.ok()) << outliers.status().ToString();
      EXPECT_EQ(outliers->outlier_indices,
                reference_outliers->outlier_indices);
      EXPECT_EQ(outliers->neighbor_counts,
                reference_outliers->neighbor_counts);
      executor.Shutdown();
    }
  }
}

// Many back-to-back fan-outs on one pool: each round's waiter returns and
// destroys its completion latch as soon as the last shard reports, which
// is where a worker still touching the latch would race (the TSan job runs
// this test under the shard label).
TEST_F(ShardEquivalenceTest, RepeatedFanOutRoundsOnAFourWorkerPool) {
  std::vector<density::Kde> references;
  for (int64_t shards = 2; shards <= 4; ++shards) {
    auto kde = MakeCoordinator(shards).BuildKde(KdeOpts());
    ASSERT_TRUE(kde.ok());
    references.push_back(std::move(*kde));
  }
  parallel::BatchExecutorOptions pool;
  pool.num_workers = 4;
  parallel::BatchExecutor executor(pool);
  for (int round = 0; round < 600; ++round) {
    const int64_t shards = 2 + round % 3;
    auto kde = MakeCoordinator(shards, &executor).BuildKde(KdeOpts());
    ASSERT_TRUE(kde.ok()) << kde.status().ToString();
    ExpectSameModel(*kde, references[static_cast<size_t>(shards - 2)]);
  }
  executor.Shutdown();
}

TEST_F(ShardEquivalenceTest, ShardCountClampsToDatasetSize) {
  // More shards than rows must still build (empty shards are valid).
  data::PointSet tiny(2);
  tiny.Append(std::vector<double>{0.0, 0.0});
  tiny.Append(std::vector<double>{1.0, 1.0});
  tiny.Append(std::vector<double>{2.0, 2.0});
  shard::ShardCoordinatorOptions opts;
  opts.shards = 16;
  shard::ShardCoordinator coordinator(
      [&tiny]() -> Result<std::unique_ptr<data::DataScan>> {
        return std::unique_ptr<data::DataScan>(
            std::make_unique<data::InMemoryScan>(&tiny));
      },
      opts);
  density::KdeOptions kde_opts;
  kde_opts.num_kernels = 2;
  auto kde = coordinator.BuildKde(kde_opts);
  ASSERT_TRUE(kde.ok()) << kde.status().ToString();
  EXPECT_EQ(kde->total_mass(), 3);
}

}  // namespace
}  // namespace dbs
