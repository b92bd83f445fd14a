// ModelRegistry: named immutable models with ref-counted lookup, eviction
// and hot-swap. The concurrency property under test: a reader that got a
// model keeps a usable, unchanging model no matter how often the name is
// swapped or evicted underneath it (run under TSan via the `serve` ctest
// label).

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "density/kde.h"
#include "density/kde_io.h"
#include "serve/model_registry.h"
#include "tests/test_paths.h"
#include "util/rng.h"

namespace dbs {
namespace {

data::PointSet MakePoints(uint64_t seed, int64_t n = 300) {
  Rng rng(seed);
  data::PointSet points(2);
  for (int64_t i = 0; i < n; ++i) {
    points.Append(std::vector<double>{rng.NextDouble(), rng.NextDouble()});
  }
  return points;
}

std::shared_ptr<const density::Kde> FitModel(uint64_t seed) {
  density::KdeOptions options;
  options.num_kernels = 50;
  options.seed = seed;
  auto kde = density::Kde::Fit(MakePoints(seed), options);
  DBS_CHECK(kde.ok());
  return std::make_shared<const density::Kde>(std::move(kde).value());
}

TEST(ModelRegistryTest, PutGetEvict) {
  serve::ModelRegistry registry;
  EXPECT_EQ(registry.size(), 0);
  EXPECT_FALSE(registry.Get("m").ok());
  EXPECT_EQ(registry.Get("m").status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(registry.Put("m", FitModel(1), "kde").ok());
  EXPECT_EQ(registry.size(), 1);
  auto model = registry.Get("m");
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->dim(), 2);

  ASSERT_TRUE(registry.Evict("m").ok());
  EXPECT_EQ(registry.size(), 0);
  EXPECT_EQ(registry.Evict("m").code(), StatusCode::kNotFound);

  // The evicted model stays alive through the reader's reference.
  double probe[2] = {0.5, 0.5};
  EXPECT_GT((*model)->Evaluate(data::PointView(probe, 2)), 0.0);
}

TEST(ModelRegistryTest, RejectsBadArguments) {
  serve::ModelRegistry registry;
  EXPECT_EQ(registry.Put("", FitModel(1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Put("m", nullptr).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.LoadKdeFile("m", "/no/such/file.dbsk").code(),
            StatusCode::kIoError);
}

TEST(ModelRegistryTest, ListReportsGenerations) {
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Put("a", FitModel(1)).ok());
  ASSERT_TRUE(registry.Put("b", FitModel(2)).ok());
  ASSERT_TRUE(registry.Put("a", FitModel(3)).ok());  // hot-swap
  auto entries = registry.List();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "a");
  EXPECT_EQ(entries[0].generation, 2u);
  EXPECT_EQ(entries[1].name, "b");
  EXPECT_EQ(entries[1].generation, 1u);
}

TEST(ModelRegistryTest, LoadKdeFileRoundTrips) {
  std::string path = test::TestPath("registry.dbsk");
  auto fitted = FitModel(7);
  ASSERT_TRUE(density::SaveKde(*fitted, path).ok());

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.LoadKdeFile("m", path).ok());
  auto loaded = registry.Get("m");
  ASSERT_TRUE(loaded.ok());
  double probe[2] = {0.25, 0.75};
  data::PointView view(probe, 2);
  EXPECT_EQ((*loaded)->Evaluate(view), fitted->Evaluate(view));
  std::remove(path.c_str());
}

TEST(ModelRegistryTest, HotSwapUnderConcurrentReaders) {
  serve::ModelRegistry registry;
  auto model_a = FitModel(11);
  auto model_b = FitModel(22);
  double probe[2] = {0.4, 0.6};
  data::PointView view(probe, 2);
  const double value_a = model_a->Evaluate(view);
  const double value_b = model_b->Evaluate(view);
  ASSERT_NE(value_a, value_b);

  ASSERT_TRUE(registry.Put("m", model_a).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      // dbs-lint: allow(relaxed-atomic): stop flag, no data published through it
      while (!stop.load(std::memory_order_relaxed)) {
        auto model = registry.Get("m");
        if (!model.ok()) continue;  // mid-evict window
        double value = (*model)->Evaluate(view);
        if (value != value_a && value != value_b) {
          mismatches.fetch_add(1);
        }
        // dbs-lint: allow(relaxed-atomic): pure counter, read after join
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Swap, evict and re-register while the readers hammer Get. Keep
  // swapping until the readers have observably overlapped the churn (on a
  // single-core machine a fixed iteration count can finish before any
  // reader is ever scheduled).
  for (int i = 0; i < 500 || reads.load() < 200; ++i) {
    ASSERT_TRUE(registry.Put("m", i % 2 == 0 ? model_b : model_a).ok());
    if (i % 50 == 0) {
      (void)registry.Evict("m");
      ASSERT_TRUE(registry.Put("m", model_a).ok());
    }
    if (i % 10 == 0) std::this_thread::yield();
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(reads.load(), 0);
}

}  // namespace
}  // namespace dbs
