// Double-buffered FileScan contract: the prefetching mode must return
// byte-identical batches to the synchronous scan — same chunk boundaries,
// same bytes, same pass-counting Reset semantics — on sizes that straddle
// every chunk boundary (0, 1, chunk-1, chunk, chunk+1 rows), and malformed
// .dbsf inputs (the io_negative_test fixtures) must surface the SAME Status
// from Open in both modes, never a crash or a hang from the prefetch
// thread.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/dataset_io.h"
#include "tests/test_paths.h"
#include "util/check.h"
#include "util/rng.h"

namespace dbs::data {
namespace {

void WriteBytes(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  DBS_CHECK(f != nullptr);
  if (!bytes.empty()) {
    DBS_CHECK(std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size());
  }
  std::fclose(f);
}

// A syntactically valid 32-byte .dbsf header with the given fields.
std::vector<unsigned char> DbsfHeader(uint32_t magic, uint32_t version,
                                      uint32_t dim, int64_t rows) {
  std::vector<unsigned char> bytes(32, 0);
  std::memcpy(bytes.data() + 0, &magic, 4);
  std::memcpy(bytes.data() + 4, &version, 4);
  std::memcpy(bytes.data() + 8, &dim, 4);
  std::memcpy(bytes.data() + 16, &rows, 8);
  return bytes;
}

PointSet MakePoints(int dim, int64_t rows, uint64_t seed) {
  PointSet points(dim);
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<double> p(static_cast<size_t>(dim));
    for (int j = 0; j < dim; ++j) p[j] = rng.NextDouble();
    points.Append(PointView(p.data(), dim));
  }
  return points;
}

// Drains `scan` and appends every batch verbatim; also records the chunk
// boundaries so the two modes can be compared batch-for-batch.
void Drain(DataScan& scan, PointSet* out, std::vector<int64_t>* chunks) {
  scan.Reset();
  ScanBatch batch;
  while (scan.NextBatch(&batch)) {
    chunks->push_back(batch.count);
    for (int64_t i = 0; i < batch.count; ++i) {
      out->Append(batch.point(i, scan.dim()));
    }
  }
}

TEST(DoubleBufferScanTest, ByteIdenticalToSyncScanAcrossChunkBoundaries) {
  const int dim = 3;
  const int64_t chunk = 8;
  for (int64_t rows : {int64_t{0}, int64_t{1}, chunk - 1, chunk, chunk + 1,
                       3 * chunk, 3 * chunk + 5}) {
    SCOPED_TRACE(::testing::Message() << "rows=" << rows);
    const std::string path = test::TestPath("double_buffer.dbsf");
    PointSet points = MakePoints(dim, rows, 77 + static_cast<uint64_t>(rows));
    ASSERT_TRUE(WriteDatasetFile(path, points).ok());

    auto sync_scan = FileScan::Open(path, chunk, /*double_buffered=*/false);
    ASSERT_TRUE(sync_scan.ok());
    ASSERT_FALSE((*sync_scan)->double_buffered());
    auto buffered = FileScan::Open(path, chunk, /*double_buffered=*/true);
    ASSERT_TRUE(buffered.ok());
    ASSERT_TRUE((*buffered)->double_buffered());
    EXPECT_EQ((*buffered)->size(), rows);
    EXPECT_EQ((*buffered)->dim(), dim);

    PointSet sync_points(dim), buffered_points(dim);
    std::vector<int64_t> sync_chunks, buffered_chunks;
    Drain(**sync_scan, &sync_points, &sync_chunks);
    Drain(**buffered, &buffered_points, &buffered_chunks);

    EXPECT_EQ(buffered_chunks, sync_chunks);
    ASSERT_EQ(buffered_points.size(), sync_points.size());
    ASSERT_EQ(buffered_points.size(), rows);
    if (rows > 0) {
      EXPECT_EQ(std::memcmp(buffered_points.flat().data(),
                            sync_points.flat().data(),
                            static_cast<size_t>(rows) * dim * sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(buffered_points.flat().data(),
                            points.flat().data(),
                            static_cast<size_t>(rows) * dim * sizeof(double)),
                0);
    }
    std::remove(path.c_str());
  }
}

TEST(DoubleBufferScanTest, MultiPassResetRereadsIdenticalBytes) {
  const std::string path = test::TestPath("double_buffer_multipass.dbsf");
  PointSet points = MakePoints(2, 41, 9);
  ASSERT_TRUE(WriteDatasetFile(path, points).ok());
  auto scan = FileScan::Open(path, 7, /*double_buffered=*/true);
  ASSERT_TRUE(scan.ok());
  for (int pass = 0; pass < 3; ++pass) {
    SCOPED_TRACE(::testing::Message() << "pass=" << pass);
    PointSet got(2);
    std::vector<int64_t> chunks;
    Drain(**scan, &got, &chunks);
    ASSERT_EQ(got.size(), points.size());
    EXPECT_EQ(std::memcmp(got.flat().data(), points.flat().data(),
                          got.flat().size() * sizeof(double)),
              0);
  }
  EXPECT_EQ((*scan)->passes(), 3);
  std::remove(path.c_str());
}

TEST(DoubleBufferScanTest, ResetMidScanDiscardsInFlightPrefetch) {
  // Reset while a prefetched chunk is pending must drain the in-flight
  // fill, rewind, and restart cleanly — the classic hang/race shape for a
  // producer-consumer scan.
  const std::string path = test::TestPath("double_buffer_reset.dbsf");
  PointSet points = MakePoints(2, 30, 13);
  ASSERT_TRUE(WriteDatasetFile(path, points).ok());
  auto scan = FileScan::Open(path, 4, /*double_buffered=*/true);
  ASSERT_TRUE(scan.ok());
  for (int64_t consumed_before_reset : {int64_t{0}, int64_t{1}, int64_t{3}}) {
    SCOPED_TRACE(::testing::Message()
                 << "consumed=" << consumed_before_reset);
    (*scan)->Reset();
    ScanBatch batch;
    for (int64_t i = 0; i < consumed_before_reset; ++i) {
      ASSERT_TRUE((*scan)->NextBatch(&batch));
    }
    PointSet got(2);
    std::vector<int64_t> chunks;
    Drain(**scan, &got, &chunks);
    ASSERT_EQ(got.size(), points.size());
    EXPECT_EQ(std::memcmp(got.flat().data(), points.flat().data(),
                          got.flat().size() * sizeof(double)),
              0);
  }
  std::remove(path.c_str());
}

// The io_negative_test fixture sweep, replayed against the double-buffered
// mode: Open validates before the prefetch thread exists, so every
// malformed input must yield the same Status as the synchronous mode — and
// the scan object must destruct promptly (no hung thread) whether or not
// batches were consumed.
TEST(DoubleBufferScanTest, MalformedFilesSurfaceSameStatusAsSyncMode) {
  const std::string path = test::TestPath("double_buffer_negative.dbsf");

  // Empty and tiny files.
  for (size_t size : {0u, 1u, 8u, 31u}) {
    SCOPED_TRACE(::testing::Message() << "tiny size=" << size);
    WriteBytes(path, std::vector<unsigned char>(size, 0x5a));
    auto sync_scan = FileScan::Open(path, 4, /*double_buffered=*/false);
    auto buffered = FileScan::Open(path, 4, /*double_buffered=*/true);
    ASSERT_FALSE(sync_scan.ok());
    ASSERT_FALSE(buffered.ok());
    EXPECT_EQ(buffered.status().code(), sync_scan.status().code());
  }

  // Garbage headers: wrong magic, wrong version, zero/huge dim, negative
  // and lying row counts.
  const struct {
    const char* what;
    uint32_t magic;
    uint32_t version;
    uint32_t dim;
    int64_t rows;
  } header_cases[] = {
      {"wrong magic", kDatasetMagic ^ 1, kDatasetVersion, 2, 1},
      {"wrong version", kDatasetMagic, kDatasetVersion + 9, 2, 1},
      {"zero dim", kDatasetMagic, kDatasetVersion, 0, 1},
      {"huge dim", kDatasetMagic, kDatasetVersion, 1u << 20, 1},
      {"negative rows", kDatasetMagic, kDatasetVersion, 2, -5},
      {"lying rows", kDatasetMagic, kDatasetVersion, 2, int64_t{1} << 60},
  };
  for (const auto& c : header_cases) {
    SCOPED_TRACE(c.what);
    WriteBytes(path, DbsfHeader(c.magic, c.version, c.dim, c.rows));
    auto sync_scan = FileScan::Open(path, 4, /*double_buffered=*/false);
    auto buffered = FileScan::Open(path, 4, /*double_buffered=*/true);
    ASSERT_FALSE(sync_scan.ok());
    ASSERT_FALSE(buffered.ok());
    EXPECT_EQ(buffered.status().code(), sync_scan.status().code());
  }

  // Truncated payloads: header promises 4 rows x 2 dims, file carries less.
  for (size_t payload : {0u, 1u, 15u, 16u, 63u}) {
    SCOPED_TRACE(::testing::Message() << "payload=" << payload);
    auto bytes = DbsfHeader(kDatasetMagic, kDatasetVersion, 2, 4);
    for (size_t i = 0; i < payload; ++i) {
      bytes.push_back(static_cast<unsigned char>(i));
    }
    WriteBytes(path, bytes);
    auto sync_scan = FileScan::Open(path, 4, /*double_buffered=*/false);
    auto buffered = FileScan::Open(path, 4, /*double_buffered=*/true);
    ASSERT_FALSE(sync_scan.ok());
    ASSERT_FALSE(buffered.ok());
    EXPECT_EQ(buffered.status().code(), sync_scan.status().code());
  }

  std::remove(path.c_str());
}

// A valid header and payload at Open time, with a batch size that makes the
// first prefetch succeed: the scan must still be destructible without
// consuming everything (the in-flight fill drains on shutdown).
TEST(DoubleBufferScanTest, DestructionWithUnconsumedPrefetchDoesNotHang) {
  const std::string path = test::TestPath("double_buffer_abandon.dbsf");
  PointSet points = MakePoints(2, 64, 3);
  ASSERT_TRUE(WriteDatasetFile(path, points).ok());
  for (int consume : {0, 1, 3}) {
    SCOPED_TRACE(::testing::Message() << "consume=" << consume);
    auto scan = FileScan::Open(path, 8, /*double_buffered=*/true);
    ASSERT_TRUE(scan.ok());
    (*scan)->Reset();
    ScanBatch batch;
    for (int i = 0; i < consume; ++i) {
      ASSERT_TRUE((*scan)->NextBatch(&batch));
    }
    // Destructor runs here with a prefetch pending.
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dbs::data
