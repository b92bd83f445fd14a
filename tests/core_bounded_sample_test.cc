// The bounded sample pass (DESIGN.md §12, "Bounded sample pass").
//
// BiasedSampler::SamplePartial may skip f(x) for rows whose coin already
// rejects them, using the per-block f^a bounds of the normalization pass.
// The pins under test:
//   * the bounded pass is BITWISE identical to the bound-less one — points,
//     inclusion probabilities, densities, clamp count and normalizer — at
//     every exponent, input order, shard count, worker count and scan batch
//     size, through BiasedSampler::Run, ShardCoordinator::SampleTwoPass and
//     raw SamplePartial;
//   * batches whose p range touches 0 or 1 fall back to full evaluation;
//   * bounds that do not describe the shard being sampled are ignored;
//   * density_evaluations counts every row without bounds, is worker
//     invariant, and drops to a few percent of the rows with them.

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/biased_sampler.h"
#include "data/dataset_io.h"
#include "data/range_scan.h"
#include "density/kde.h"
#include "parallel/batch_executor.h"
#include "shard/coordinator.h"
#include "synth/generator.h"
#include "tests/test_paths.h"

namespace dbs::core {
namespace {

using ScanFactory = shard::ShardCoordinator::ScanFactory;

constexpr int64_t kMemoryBatchRows = 4096;

data::PointSet MakeData(int64_t cluster_points, bool shuffle, uint64_t seed) {
  synth::ClusteredDatasetOptions opts;
  opts.dim = 2;
  opts.num_clusters = 10;
  opts.num_cluster_points = cluster_points;
  opts.noise_multiplier = 0.1;
  opts.shuffle = shuffle;
  opts.seed = seed;
  auto ds = synth::MakeClusteredDataset(opts);
  DBS_CHECK(ds.ok());
  return std::move(ds)->points;
}

ScanFactory FileFactory(const std::string& path, int64_t batch_rows) {
  return [path, batch_rows]() -> Result<std::unique_ptr<data::DataScan>> {
    DBS_ASSIGN_OR_RETURN(std::unique_ptr<data::FileScan> scan,
                         data::FileScan::Open(path, batch_rows));
    return std::unique_ptr<data::DataScan>(std::move(scan));
  };
}

ScanFactory MemoryFactory(const data::PointSet* points) {
  return [points]() -> Result<std::unique_ptr<data::DataScan>> {
    return std::unique_ptr<data::DataScan>(
        std::make_unique<data::InMemoryScan>(points, kMemoryBatchRows));
  };
}

bool SameDoubles(const std::vector<double>& a,
                 const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void ExpectSameSample(const BiasedSample& got, const BiasedSample& want) {
  EXPECT_TRUE(SameDoubles(got.points.flat(), want.points.flat()));
  EXPECT_TRUE(SameDoubles(got.inclusion_probs, want.inclusion_probs));
  EXPECT_TRUE(SameDoubles(got.densities, want.densities));
  EXPECT_EQ(std::memcmp(&got.normalizer, &want.normalizer, sizeof(double)),
            0);
  EXPECT_EQ(got.dataset_size, want.dataset_size);
  EXPECT_EQ(got.clamped_count, want.clamped_count);
}

// The normalization pass of every shard, merged.
PartialNormalizer Normalize(const BiasedSampler& sampler,
                            const ScanFactory& factory,
                            const density::DensityEstimator& estimator,
                            int64_t shards) {
  auto base = factory();
  DBS_CHECK(base.ok());
  PartialNormalizer merged;
  for (int64_t s = 0; s < shards; ++s) {
    ShardInfo info;
    info.shard = s;
    info.num_shards = shards;
    info.total_rows = (*base)->size();
    const RowRange range = ShardRowRange(info.total_rows, shards, s);
    data::RangeScan slice(base->get(), range.begin, range.end);
    auto part = sampler.NormalizerPartial(slice, estimator, info);
    DBS_CHECK(part.ok());
    auto next = MergePartialNormalizers(std::move(merged), std::move(*part));
    DBS_CHECK(next.ok());
    merged = std::move(*next);
  }
  return merged;
}

// The sampling pass of every shard against `k_a`, bounded by `bounds` when
// it is not null, finalized.
BiasedSample SampleShards(const BiasedSampler& sampler,
                          const ScanFactory& factory,
                          const density::DensityEstimator& estimator,
                          int64_t shards, double k_a,
                          const PartialNormalizer* bounds) {
  auto base = factory();
  DBS_CHECK(base.ok());
  PartialSample merged;
  for (int64_t s = 0; s < shards; ++s) {
    ShardInfo info;
    info.shard = s;
    info.num_shards = shards;
    info.total_rows = (*base)->size();
    const RowRange range = ShardRowRange(info.total_rows, shards, s);
    data::RangeScan slice(base->get(), range.begin, range.end);
    auto part = sampler.SamplePartial(slice, estimator, k_a, info, bounds);
    DBS_CHECK(part.ok());
    auto next = MergePartialSamples(std::move(merged), std::move(*part));
    DBS_CHECK(next.ok());
    merged = std::move(*next);
  }
  auto sample = sampler.FinalizeSample(std::move(merged), k_a);
  DBS_CHECK(sample.ok());
  return std::move(*sample);
}

// The staged two-pass pipeline with the bound-less sampling pass: the
// reference every bounded path must reproduce bitwise.
BiasedSample BoundlessReference(const BiasedSampler& sampler,
                                const ScanFactory& factory,
                                const density::DensityEstimator& estimator,
                                int64_t shards) {
  const PartialNormalizer norm =
      Normalize(sampler, factory, estimator, shards);
  auto k_a = sampler.FinalizeNormalizer(norm);
  DBS_CHECK(k_a.ok());
  return SampleShards(sampler, factory, estimator, shards, *k_a, nullptr);
}

density::KdeOptions KdeOpts() {
  density::KdeOptions opts;
  opts.num_kernels = 128;
  opts.seed = 5;
  return opts;
}

BiasedSamplerOptions SamplerOpts(double a) {
  BiasedSamplerOptions opts;
  opts.a = a;
  opts.target_size = 200;
  opts.seed = 41;
  return opts;
}

// The full matrix for one exponent: input order x scan batch size x shard
// count x worker count, through raw SamplePartial, the coordinator and (at
// one shard) BiasedSampler::Run.
class BoundedSampleMatrixTest : public ::testing::TestWithParam<double> {};

TEST_P(BoundedSampleMatrixTest, BoundedPathsMatchTheBoundlessPassBitwise) {
  const double a = GetParam();
  parallel::BatchExecutorOptions pool_opts;
  pool_opts.num_workers = 4;
  parallel::BatchExecutor pool(pool_opts);
  for (bool shuffle : {false, true}) {
    const data::PointSet data = MakeData(9000, shuffle, 3);
    const std::string path = test::TestPath(shuffle ? "shuffled" : "sorted");
    ASSERT_TRUE(data::WriteDatasetFile(path, data).ok());
    // 1000-row batches straddle the 1024-row bound blocks; 8192-row ones
    // cover several blocks (or a whole shard) at once.
    for (int64_t batch_rows : {1000, 8192}) {
      const ScanFactory factory = FileFactory(path, batch_rows);
      for (int64_t shards : {1, 3, 4}) {
        SCOPED_TRACE("shuffle=" + std::to_string(shuffle) +
                     " batch_rows=" + std::to_string(batch_rows) +
                     " shards=" + std::to_string(shards));
        shard::ShardCoordinatorOptions fit_opts;
        fit_opts.shards = shards;
        auto kde = shard::ShardCoordinator(factory, fit_opts).BuildKde(
            KdeOpts());
        ASSERT_TRUE(kde.ok()) << kde.status().ToString();
        const BiasedSampler sampler(SamplerOpts(a));
        const BiasedSample reference =
            BoundlessReference(sampler, factory, *kde, shards);
        EXPECT_EQ(reference.density_evaluations, data.size());

        const PartialNormalizer norm =
            Normalize(sampler, factory, *kde, shards);
        const BiasedSample raw = SampleShards(
            sampler, factory, *kde, shards, reference.normalizer, &norm);
        ExpectSameSample(raw, reference);
        EXPECT_LE(raw.density_evaluations, data.size());
        if (a == 0.0 || a == 1.0) {
          // Nothing clamps and nothing sits at f^a = 0 here, so every
          // batch takes the bounded path.
          EXPECT_LT(raw.density_evaluations, data.size() / 4);
        }

        for (parallel::BatchExecutor* executor : {static_cast<
                 parallel::BatchExecutor*>(nullptr), &pool}) {
          SCOPED_TRACE(executor == nullptr ? "workers=0" : "workers=4");
          shard::ShardCoordinatorOptions coord_opts;
          coord_opts.shards = shards;
          coord_opts.executor = executor;
          auto coordinated = shard::ShardCoordinator(factory, coord_opts)
                                 .SampleTwoPass(*kde, SamplerOpts(a));
          ASSERT_TRUE(coordinated.ok()) << coordinated.status().ToString();
          ExpectSameSample(*coordinated, reference);
          EXPECT_EQ(coordinated->density_evaluations,
                    raw.density_evaluations);

          if (shards == 1) {
            BiasedSamplerOptions run_opts = SamplerOpts(a);
            run_opts.executor = executor;
            auto scan = factory();
            ASSERT_TRUE(scan.ok());
            auto run = BiasedSampler(run_opts).Run(**scan, *kde);
            ASSERT_TRUE(run.ok()) << run.status().ToString();
            ExpectSameSample(*run, reference);
            EXPECT_EQ(run->density_evaluations, raw.density_evaluations);
          }
        }
      }
    }
    std::remove(path.c_str());
  }
  pool.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(Exponents, BoundedSampleMatrixTest,
                         ::testing::Values(-1.5, -0.5, 0.0, 1.0, 2.0));

class BoundedSampleTest : public ::testing::Test {
 protected:
  BoundedSampleTest() : data_(MakeData(9000, /*shuffle=*/true, 7)) {
    data::InMemoryScan scan(&data_);
    auto kde = density::Kde::Fit(scan, KdeOpts());
    DBS_CHECK(kde.ok());
    kde_.emplace(std::move(*kde));
  }

  data::PointSet data_;
  std::optional<density::Kde> kde_;
};

TEST_F(BoundedSampleTest, ClampedBatchesFallBackToFullEvaluation) {
  // b near n pushes the dense blocks' p past 1, so their batches cannot
  // draw ahead of f and must run the full loop.
  BiasedSamplerOptions opts = SamplerOpts(1.0);
  opts.target_size = data_.size() * 9 / 10;
  const BiasedSampler sampler(opts);
  const ScanFactory factory = MemoryFactory(&data_);
  for (int64_t shards : {1, 3}) {
    const BiasedSample reference =
        BoundlessReference(sampler, factory, *kde_, shards);
    ASSERT_GT(reference.clamped_count, 0);
    const PartialNormalizer norm = Normalize(sampler, factory, *kde_, shards);
    const BiasedSample bounded = SampleShards(
        sampler, factory, *kde_, shards, reference.normalizer, &norm);
    ExpectSameSample(bounded, reference);
    EXPECT_EQ(bounded.density_evaluations, data_.size());
  }
}

TEST_F(BoundedSampleTest, RowsOutsideEverySupportFallBackWithoutAFloor) {
  // With no density floor, a row outside every kernel's support has
  // f^a = 0, so p = 0 and NextBernoulli draws nothing for it: its batch
  // must not draw ahead of f.
  data::PointSet data(2);
  for (int64_t i = 0; i < data_.size(); ++i) {
    if (i == data_.size() / 2) {
      data.Append(std::vector<double>{40.0, 40.0});
      data.Append(std::vector<double>{-40.0, 40.0});
    }
    data.Append(data_[i]);
  }
  data::InMemoryScan scan(&data);
  auto kde = density::Kde::Fit(scan, KdeOpts());
  ASSERT_TRUE(kde.ok());
  double isolated = 1.0;
  ASSERT_TRUE(kde->EvaluateBatch(std::vector<double>{40.0, 40.0}.data(), 1,
                                 &isolated)
                  .ok());
  ASSERT_EQ(isolated, 0.0);

  const ScanFactory factory = MemoryFactory(&data);
  for (double a : {1.0, -0.5}) {
    BiasedSamplerOptions opts = SamplerOpts(a);
    opts.density_floor_fraction = 0.0;
    const BiasedSampler sampler(opts);
    const BiasedSample reference =
        BoundlessReference(sampler, factory, *kde, 1);
    const PartialNormalizer norm = Normalize(sampler, factory, *kde, 1);
    const BiasedSample bounded = SampleShards(
        sampler, factory, *kde, 1, reference.normalizer, &norm);
    ExpectSameSample(bounded, reference);
    // The batch holding the isolated rows is evaluated in full.
    EXPECT_GE(bounded.density_evaluations, kMemoryBatchRows);
  }
}

TEST_F(BoundedSampleTest, MismatchedBoundsAreIgnored) {
  const BiasedSampler sampler(SamplerOpts(1.0));
  const ScanFactory factory = MemoryFactory(&data_);
  const int64_t shards = 4;
  const BiasedSample reference =
      BoundlessReference(sampler, factory, *kde_, shards);

  // Bounds from another shard count.
  const PartialNormalizer three = Normalize(sampler, factory, *kde_, 3);
  BiasedSample got = SampleShards(sampler, factory, *kde_, shards,
                                  reference.normalizer, &three);
  ExpectSameSample(got, reference);
  EXPECT_EQ(got.density_evaluations, data_.size());

  // Bounds from another row count, at the same shard count.
  data::PointSet shorter(2);
  for (int64_t i = 0; i + 1 < data_.size(); ++i) shorter.Append(data_[i]);
  const PartialNormalizer other_rows =
      Normalize(sampler, MemoryFactory(&shorter), *kde_, shards);
  got = SampleShards(sampler, factory, *kde_, shards, reference.normalizer,
                     &other_rows);
  ExpectSameSample(got, reference);
  EXPECT_EQ(got.density_evaluations, data_.size());

  // A state missing one shard's part: that shard alone evaluates in full.
  PartialNormalizer partial = Normalize(sampler, factory, *kde_, shards);
  partial.parts.erase(partial.parts.begin() + 1);
  got = SampleShards(sampler, factory, *kde_, shards, reference.normalizer,
                     &partial);
  ExpectSameSample(got, reference);
  const RowRange missing = ShardRowRange(data_.size(), shards, 1);
  EXPECT_GE(got.density_evaluations, missing.size());
  EXPECT_LT(got.density_evaluations, data_.size());
}

TEST(BoundedSampleEvaluationsTest, AFewPercentOfRowsAtAEqualsOne) {
  // 2-D, 10 clusters, 110k rows, a = 1 at the default b = 1000: the
  // sampling pass evaluates f for a small fraction of the rows, in either
  // input order. The bound-less pass evaluates every row.
  for (bool shuffle : {false, true}) {
    SCOPED_TRACE(shuffle ? "shuffled" : "sorted");
    const data::PointSet data = MakeData(100000, shuffle, 13);
    data::InMemoryScan scan(&data);
    density::KdeOptions kde_opts;
    kde_opts.seed = 13;
    auto kde = density::Kde::Fit(scan, kde_opts);
    ASSERT_TRUE(kde.ok());
    BiasedSamplerOptions opts;
    opts.a = 1.0;
    const BiasedSampler sampler(opts);
    auto sample = sampler.Run(scan, *kde);
    ASSERT_TRUE(sample.ok()) << sample.status().ToString();
    EXPECT_LT(sample->density_evaluations, data.size() / 20);

    const BiasedSample boundless =
        BoundlessReference(sampler, MemoryFactory(&data), *kde, 1);
    ExpectSameSample(*sample, boundless);
    EXPECT_EQ(boundless.density_evaluations, data.size());
  }
}

}  // namespace
}  // namespace dbs::core
