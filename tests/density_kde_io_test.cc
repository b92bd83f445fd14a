#include "density/kde_io.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/biased_sampler.h"
#include "data/point_set.h"
#include "tests/test_paths.h"
#include "util/rng.h"

namespace dbs::density {
namespace {

using data::PointSet;
using data::PointView;

PointSet ClusteredData(uint64_t seed) {
  Rng rng(seed);
  PointSet ps(2);
  for (int i = 0; i < 4000; ++i) {
    ps.Append(std::vector<double>{rng.NextGaussian(0.3, 0.05),
                                  rng.NextGaussian(0.3, 0.05)});
  }
  for (int i = 0; i < 2000; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(), rng.NextDouble()});
  }
  return ps;
}

Kde FitExample(const PointSet& ps, KernelType kernel) {
  KdeOptions opts;
  opts.num_kernels = 250;
  opts.kernel = kernel;
  auto kde = Kde::Fit(ps, opts);
  DBS_CHECK(kde.ok());
  return std::move(kde).value();
}

TEST(KdeIoTest, RoundTripEvaluatesIdentically) {
  PointSet ps = ClusteredData(1);
  for (KernelType kernel :
       {KernelType::kEpanechnikov, KernelType::kGaussian}) {
    Kde original = FitExample(ps, kernel);
    std::string path = test::TestPath("model.dbsk");
    ASSERT_TRUE(SaveKde(original, path).ok());
    auto loaded = LoadKde(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->total_mass(), original.total_mass());
    EXPECT_EQ(loaded->num_kernels(), original.num_kernels());
    EXPECT_EQ(loaded->bandwidths(), original.bandwidths());
    Rng rng(9);
    for (int i = 0; i < 300; ++i) {
      double q[2] = {rng.NextDouble(-0.2, 1.2), rng.NextDouble(-0.2, 1.2)};
      PointView p(q, 2);
      EXPECT_DOUBLE_EQ(loaded->Evaluate(p), original.Evaluate(p));
      EXPECT_DOUBLE_EQ(loaded->EvaluateExcluding(p, p),
                       original.EvaluateExcluding(p, p));
    }
    std::remove(path.c_str());
  }
}

TEST(KdeIoTest, LoadedModelDrivesTheSampler) {
  PointSet ps = ClusteredData(2);
  Kde original = FitExample(ps, KernelType::kEpanechnikov);
  std::string path = test::TestPath("sampler_model.dbsk");
  ASSERT_TRUE(SaveKde(original, path).ok());
  auto loaded = LoadKde(path);
  ASSERT_TRUE(loaded.ok());
  core::BiasedSamplerOptions opts;
  opts.a = 1.0;
  opts.target_size = 400;
  opts.seed = 3;
  auto from_original = core::BiasedSampler(opts).Run(ps, original);
  auto from_loaded = core::BiasedSampler(opts).Run(ps, *loaded);
  ASSERT_TRUE(from_original.ok());
  ASSERT_TRUE(from_loaded.ok());
  // Identical estimator + identical seed => identical sample.
  ASSERT_EQ(from_original->size(), from_loaded->size());
  EXPECT_EQ(from_original->inclusion_probs, from_loaded->inclusion_probs);
  std::remove(path.c_str());
}

TEST(KdeIoTest, MissingFileIsIoError) {
  auto result = LoadKde(test::TestPath("no_such_model.dbsk"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dbs::StatusCode::kIoError);
}

TEST(KdeIoTest, GarbageFileIsRejected) {
  std::string path = test::TestPath("garbage.dbsk");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[64] = "model? what model? there is no model here at all";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  auto result = LoadKde(path);
  EXPECT_FALSE(result.ok());
  std::remove(path.c_str());
}

TEST(KdeIoTest, TruncatedFileIsIoError) {
  PointSet ps = ClusteredData(4);
  Kde original = FitExample(ps, KernelType::kEpanechnikov);
  std::string path = test::TestPath("truncated.dbsk");
  ASSERT_TRUE(SaveKde(original, path).ok());
  // Chop the file in half.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  auto result = LoadKde(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dbs::StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(KdeStateTest, FromStateValidatesInputs) {
  PointSet ps = ClusteredData(5);
  Kde original = FitExample(ps, KernelType::kEpanechnikov);
  {
    Kde::State bad = original.ExportState();
    bad.n = 0;
    EXPECT_FALSE(Kde::FromState(std::move(bad)).ok());
  }
  {
    Kde::State bad = original.ExportState();
    bad.bandwidths.pop_back();
    EXPECT_FALSE(Kde::FromState(std::move(bad)).ok());
  }
  {
    Kde::State bad = original.ExportState();
    bad.bandwidths[0] = 0.0;
    EXPECT_FALSE(Kde::FromState(std::move(bad)).ok());
  }
  {
    Kde::State good = original.ExportState();
    auto kde = Kde::FromState(std::move(good));
    ASSERT_TRUE(kde.ok());
    double q[2] = {0.3, 0.3};
    EXPECT_DOUBLE_EQ(kde->Evaluate(PointView(q, 2)),
                     original.Evaluate(PointView(q, 2)));
  }
}

}  // namespace
}  // namespace dbs::density
