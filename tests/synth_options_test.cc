// Tests for the generator options added during reproduction: stream
// shuffling, the CURE dataset1 gap parameters, and their interactions.

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "synth/cure_dataset.h"
#include "synth/generator.h"

namespace dbs::synth {
namespace {

TEST(ShuffleOptionTest, PermutesPointsAndLabelsConsistently) {
  ClusteredDatasetOptions opts;
  opts.num_clusters = 4;
  opts.num_cluster_points = 2000;
  opts.noise_multiplier = 0.25;
  opts.seed = 5;
  auto ordered = MakeClusteredDataset(opts);
  ASSERT_TRUE(ordered.ok());
  opts.shuffle = true;
  auto shuffled = MakeClusteredDataset(opts);
  ASSERT_TRUE(shuffled.ok());

  ASSERT_EQ(ordered->points.size(), shuffled->points.size());
  // Same multiset of (x, label) pairs.
  auto signature = [](const ClusteredDataset& ds) {
    std::vector<std::pair<double, int32_t>> sig;
    for (int64_t i = 0; i < ds.points.size(); ++i) {
      sig.emplace_back(ds.points[i][0], ds.truth.labels[i]);
    }
    std::sort(sig.begin(), sig.end());
    return sig;
  };
  EXPECT_EQ(signature(*ordered), signature(*shuffled));

  // Shuffled labels must still place every point inside its region.
  for (int64_t i = 0; i < shuffled->points.size(); ++i) {
    int32_t label = shuffled->truth.labels[i];
    if (label < 0) continue;
    EXPECT_TRUE(
        shuffled->truth.regions[label].ContainsInterior(shuffled->points[i]));
  }

  // And the order actually changed: the ordered output is label-sorted by
  // construction, the shuffled one must not be.
  bool label_sorted = true;
  for (size_t i = 1; i < shuffled->truth.labels.size() && label_sorted; ++i) {
    int32_t prev = shuffled->truth.labels[i - 1];
    int32_t curr = shuffled->truth.labels[i];
    // Treat -1 (noise) as the largest label, matching emit order.
    auto rank = [](int32_t l) { return l < 0 ? 1 << 20 : l; };
    if (rank(curr) < rank(prev)) label_sorted = false;
  }
  EXPECT_FALSE(label_sorted);
}

TEST(ShuffleOptionTest, PrefixIsRepresentative) {
  // The point of shuffling: every prefix mixes all clusters.
  ClusteredDatasetOptions opts;
  opts.num_clusters = 5;
  opts.num_cluster_points = 10000;
  opts.shuffle = true;
  opts.seed = 7;
  auto ds = MakeClusteredDataset(opts);
  ASSERT_TRUE(ds.ok());
  std::set<int32_t> prefix_labels;
  for (int64_t i = 0; i < 200; ++i) {
    prefix_labels.insert(ds->truth.labels[i]);
  }
  EXPECT_EQ(prefix_labels.size(), 5u);
}

TEST(CureGapOptionsTest, GapsControlSeparation) {
  for (double gap : {0.02, 0.08}) {
    CureDatasetOptions opts;
    opts.num_points = 5000;
    opts.ellipse_gap = gap;
    opts.circle_gap = gap;
    opts.seed = 3;
    auto ds = MakeCureDataset1(opts);
    ASSERT_TRUE(ds.ok());
    // Measure the actual minimum distance between the two small circles'
    // points (labels 3 and 4).
    double min_d = 1e9;
    for (int64_t i = 0; i < ds->points.size(); ++i) {
      if (ds->truth.labels[i] != 3) continue;
      for (int64_t j = 0; j < ds->points.size(); ++j) {
        if (ds->truth.labels[j] != 4) continue;
        double dx = ds->points[i][0] - ds->points[j][0];
        double dy = ds->points[i][1] - ds->points[j][1];
        min_d = std::min(min_d, std::sqrt(dx * dx + dy * dy));
      }
    }
    // The observed gap approaches the configured one from above.
    EXPECT_GE(min_d, gap * 0.6) << "gap=" << gap;
    EXPECT_LE(min_d, gap * 1.8) << "gap=" << gap;
  }
}

TEST(CureGapOptionsTest, RegionsStayDisjoint) {
  CureDatasetOptions opts;
  opts.num_points = 2000;
  opts.ellipse_gap = 0.02;
  opts.circle_gap = 0.02;
  auto ds = MakeCureDataset1(opts);
  ASSERT_TRUE(ds.ok());
  // No point belongs to two regions.
  for (int64_t i = 0; i < ds->points.size(); ++i) {
    int inside = 0;
    for (const Region& r : ds->truth.regions) {
      if (r.ContainsInterior(ds->points[i])) ++inside;
    }
    EXPECT_EQ(inside, 1) << "point " << i;
  }
}

TEST(CureGapOptionsTest, PointsStayInUnitSquare) {
  CureDatasetOptions opts;
  opts.num_points = 5000;
  opts.ellipse_gap = 0.1;
  opts.circle_gap = 0.1;
  auto ds = MakeCureDataset1(opts);
  ASSERT_TRUE(ds.ok());
  for (int64_t i = 0; i < ds->points.size(); ++i) {
    EXPECT_GE(ds->points[i][0], 0.0);
    EXPECT_LE(ds->points[i][0], 1.0);
    EXPECT_GE(ds->points[i][1], 0.0);
    EXPECT_LE(ds->points[i][1], 1.0);
  }
}

TEST(GeneratorSeparationTest, MinSeparationIsHonored) {
  ClusteredDatasetOptions opts;
  opts.num_clusters = 8;
  opts.num_cluster_points = 800;
  opts.min_separation = 0.08;
  opts.seed = 11;
  auto ds = MakeClusteredDataset(opts);
  ASSERT_TRUE(ds.ok());
  // Box-to-box gaps are at least min_separation on some dimension.
  for (size_t a = 0; a < ds->truth.regions.size(); ++a) {
    for (size_t b = a + 1; b < ds->truth.regions.size(); ++b) {
      // Sample the realized minimum distance between the two clusters'
      // points as a proxy (boxes are axis-aligned and filled uniformly).
      double min_d = 1e9;
      for (int64_t i = 0; i < ds->points.size(); ++i) {
        if (ds->truth.labels[i] != static_cast<int32_t>(a)) continue;
        for (int64_t j = 0; j < ds->points.size(); ++j) {
          if (ds->truth.labels[j] != static_cast<int32_t>(b)) continue;
          double dx = ds->points[i][0] - ds->points[j][0];
          double dy = ds->points[i][1] - ds->points[j][1];
          min_d = std::min(min_d, std::max(std::abs(dx), std::abs(dy)));
        }
      }
      EXPECT_GE(min_d, 0.08 * 0.95) << "clusters " << a << "," << b;
    }
  }
}

// Both generators turn noise_multiplier into a point count through
// NoiseCount: a NaN, infinite or negative multiplier, or a count too large
// for int64, is InvalidArgument instead of a wrapped or garbage count.
TEST(NoiseOptionTest, NonFiniteOrOverflowingNoiseIsRejected) {
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, -1.0, 1e308}) {
    SCOPED_TRACE(bad);
    ClusteredDatasetOptions clustered;
    clustered.noise_multiplier = bad;
    EXPECT_EQ(MakeClusteredDataset(clustered).status().code(),
              StatusCode::kInvalidArgument);
    CureDatasetOptions cure;
    cure.num_points = 1000;
    cure.noise_multiplier = bad;
    EXPECT_EQ(MakeCureDataset1(cure).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(NoiseCount(0.25, 1000).value(), 250);
}

}  // namespace
}  // namespace dbs::synth
