// Robustness of the binary readers against corrupted input: flipping
// arbitrary bytes of a valid file must never crash or hang the loaders —
// every corruption either surfaces as an error Status or yields a
// structurally valid object (when the flipped byte was immaterial, e.g. a
// coordinate). This is a bounded, deterministic stand-in for a fuzzer.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset_io.h"
#include "density/kde.h"
#include "density/kde_io.h"
#include "tests/test_paths.h"
#include "util/rng.h"

namespace dbs {
namespace {

std::vector<unsigned char> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  DBS_CHECK(f != nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<unsigned char> bytes(static_cast<size_t>(size));
  DBS_CHECK(std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  DBS_CHECK(f != nullptr);
  // data() of an empty vector may be null, and passing null to fwrite is
  // undefined behavior even with a zero count (UBSan: nonnull attribute).
  if (!bytes.empty()) {
    DBS_CHECK(std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size());
  }
  std::fclose(f);
}

data::PointSet SmallDataset() {
  Rng rng(1);
  data::PointSet ps(2);
  for (int i = 0; i < 200; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(), rng.NextDouble()});
  }
  return ps;
}

TEST(IoRobustnessTest, DatasetFileSurvivesByteFlips) {
  data::PointSet ps = SmallDataset();
  std::string clean = test::TestPath("clean.dbsf");
  ASSERT_TRUE(data::WriteDatasetFile(clean, ps).ok());
  std::vector<unsigned char> original = ReadFileBytes(clean);

  Rng rng(7);
  std::string corrupt = test::TestPath("corrupt.dbsf");
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<unsigned char> bytes = original;
    // Flip 1-4 bytes anywhere in the file.
    int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      size_t pos = static_cast<size_t>(rng.NextBounded(bytes.size()));
      bytes[pos] ^= static_cast<unsigned char>(1 + rng.NextBounded(255));
    }
    WriteFileBytes(corrupt, bytes);
    auto result = data::ReadDatasetFile(corrupt);
    if (result.ok()) {
      // Structurally valid: dims positive, size coherent.
      EXPECT_GT(result->dim(), 0);
      EXPECT_GE(result->size(), 0);
    }
    // Not ok is equally fine; the property is "no crash, no hang".
  }
  std::remove(clean.c_str());
  std::remove(corrupt.c_str());
}

TEST(IoRobustnessTest, DatasetFileSurvivesTruncations) {
  data::PointSet ps = SmallDataset();
  std::string clean = test::TestPath("clean2.dbsf");
  ASSERT_TRUE(data::WriteDatasetFile(clean, ps).ok());
  std::vector<unsigned char> original = ReadFileBytes(clean);
  std::string corrupt = test::TestPath("trunc.dbsf");
  for (size_t keep : {0UL, 1UL, 16UL, 31UL, 32UL, 33UL, 100UL,
                      original.size() - 1}) {
    std::vector<unsigned char> bytes(original.begin(),
                                     original.begin() + keep);
    WriteFileBytes(corrupt, bytes);
    // Truncation is user-level data corruption: FileScan::Open validates
    // the promised payload against the real file size, so every prefix
    // shorter than the full file must fail cleanly (no DBS_CHECK abort).
    auto result = data::ReadDatasetFile(corrupt);
    EXPECT_FALSE(result.ok()) << "keep=" << keep;
  }
  std::remove(clean.c_str());
  std::remove(corrupt.c_str());
}

TEST(IoRobustnessTest, KdeModelSurvivesByteFlips) {
  data::PointSet ps = SmallDataset();
  density::KdeOptions opts;
  opts.num_kernels = 50;
  auto kde = density::Kde::Fit(ps, opts);
  ASSERT_TRUE(kde.ok());
  std::string clean = test::TestPath("clean.dbsk");
  ASSERT_TRUE(density::SaveKde(*kde, clean).ok());
  std::vector<unsigned char> original = ReadFileBytes(clean);

  Rng rng(11);
  std::string corrupt = test::TestPath("corrupt.dbsk");
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<unsigned char> bytes = original;
    int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      size_t pos = static_cast<size_t>(rng.NextBounded(bytes.size()));
      bytes[pos] ^= static_cast<unsigned char>(1 + rng.NextBounded(255));
    }
    WriteFileBytes(corrupt, bytes);
    auto result = density::LoadKde(corrupt);
    if (result.ok()) {
      EXPECT_GT(result->num_kernels(), 0);
      // Evaluation on a probe must not crash either.
      double q[2] = {0.5, 0.5};
      (void)result->Evaluate(data::PointView(q, 2));
    }
  }
  std::remove(clean.c_str());
  std::remove(corrupt.c_str());
}

}  // namespace
}  // namespace dbs
