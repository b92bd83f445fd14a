// The distributed half of the sharded build (DESIGN.md §12): dbsd daemons
// fit disjoint shards via the partial_fit RPC, and the collected partial
// states merge into a model bitwise identical to the in-process build.
// Also pins the PartialKde / PartialFitRequest wire codecs, including
// truncation and corruption negatives.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/dataset_io.h"
#include "data/range_scan.h"
#include "density/kde.h"
#include "density/kde_partial.h"
#include "parallel/batch_executor.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "shard/coordinator.h"
#include "synth/generator.h"
#include "tests/test_paths.h"
#include "util/shard.h"

namespace dbs {
namespace {

constexpr int kDim = 3;

data::PointSet MakeData(int64_t points, uint64_t seed) {
  synth::ClusteredDatasetOptions opts;
  opts.dim = kDim;
  opts.num_clusters = 4;
  opts.num_cluster_points = points;
  opts.noise_multiplier = 0.1;
  opts.seed = seed;
  auto ds = synth::MakeClusteredDataset(opts);
  EXPECT_TRUE(ds.ok());
  return std::move(ds)->points;
}

density::KdeOptions KdeOpts() {
  density::KdeOptions opts;
  opts.num_kernels = 96;
  opts.seed = 19;
  return opts;
}

serve::PartialFitRequest MakeRequest(const std::string& path, int64_t shard,
                                     int64_t num_shards) {
  serve::PartialFitRequest request;
  request.path = path;
  request.shard = shard;
  request.num_shards = num_shards;
  request.num_kernels = KdeOpts().num_kernels;
  request.seed = KdeOpts().seed;
  return request;
}

void ExpectSameModel(const density::Kde& got, const density::Kde& want) {
  const density::Kde::State g = got.ExportState();
  const density::Kde::State w = want.ExportState();
  EXPECT_EQ(g.n, w.n);
  EXPECT_EQ(g.centers.flat(), w.centers.flat());
  EXPECT_EQ(g.bandwidths, w.bandwidths);
  EXPECT_EQ(g.bounds.lo(), w.bounds.lo());
  EXPECT_EQ(g.bounds.hi(), w.bounds.hi());
}

// One in-process daemon (registry + executor + service + server).
struct Daemon {
  serve::ModelRegistry registry;
  std::unique_ptr<parallel::BatchExecutor> executor;
  std::unique_ptr<serve::ModelService> service;
  std::unique_ptr<serve::Server> server;

  static std::unique_ptr<Daemon> Start() {
    auto d = std::make_unique<Daemon>();
    parallel::BatchExecutorOptions pool;
    pool.num_workers = 2;
    d->executor = std::make_unique<parallel::BatchExecutor>(pool);
    d->service = std::make_unique<serve::ModelService>(&d->registry,
                                                       d->executor.get());
    auto server =
        serve::Server::Start(d->service.get(), serve::ServerOptions{});
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    d->server = std::move(server).value();
    return d;
  }

  ~Daemon() {
    if (server != nullptr) server->Stop();
    if (executor != nullptr) executor->Shutdown();
  }
};

class ShardServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = MakeData(2500, 61);
    path_ = test::TestPath("shard_serve_data.dbsf");
    ASSERT_TRUE(data::WriteDatasetFile(path_, data_).ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  density::Kde BuildLocal(int64_t shards) {
    shard::ShardCoordinatorOptions opts;
    opts.shards = shards;
    shard::ShardCoordinator coordinator(
        [this]() -> Result<std::unique_ptr<data::DataScan>> {
          auto opened = data::FileScan::Open(path_, /*batch_rows=*/8192);
          EXPECT_TRUE(opened.ok());
          return std::unique_ptr<data::DataScan>(std::move(*opened));
        },
        opts);
    auto kde = coordinator.BuildKde(KdeOpts());
    EXPECT_TRUE(kde.ok()) << kde.status().ToString();
    return std::move(kde).value();
  }

  data::PointSet data_{kDim};
  std::string path_;
};

TEST_F(ShardServeTest, TwoDaemonsMergeToTheInProcessShardedBuild) {
  auto daemon_a = Daemon::Start();
  auto daemon_b = Daemon::Start();

  std::vector<density::PartialKde> parts;
  const uint16_t ports[] = {daemon_a->server->port(),
                            daemon_b->server->port()};
  for (int64_t shard = 0; shard < 2; ++shard) {
    auto client = serve::Client::Connect(ports[shard]);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto partial = client->PartialFit(MakeRequest(path_, shard, 2));
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    parts.push_back(std::move(*partial));
  }

  auto merged = density::MergePartialKde(std::move(parts[0]),
                                         std::move(parts[1]));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  auto kde = density::FinalizeKde(std::move(*merged), KdeOpts());
  ASSERT_TRUE(kde.ok()) << kde.status().ToString();

  ExpectSameModel(*kde, BuildLocal(2));
}

TEST_F(ShardServeTest, SingleDaemonShardMatchesFitBitwise) {
  auto daemon = Daemon::Start();
  auto client = serve::Client::Connect(daemon->server->port());
  ASSERT_TRUE(client.ok());
  auto partial = client->PartialFit(MakeRequest(path_, 0, 1));
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  auto kde = density::FinalizeKde(std::move(*partial), KdeOpts());
  ASSERT_TRUE(kde.ok());

  data::InMemoryScan scan(&data_);
  auto direct = density::Kde::Fit(scan, KdeOpts());
  ASSERT_TRUE(direct.ok());
  ExpectSameModel(*kde, *direct);
}

TEST_F(ShardServeTest, BadRequestsAreRejectedNotFatal) {
  auto daemon = Daemon::Start();
  // Shard index out of range never reaches the service: decode rejects it
  // and, as with every protocol violation, the connection is dropped.
  auto violating = serve::Client::Connect(daemon->server->port());
  ASSERT_TRUE(violating.ok());
  EXPECT_FALSE(violating->PartialFit(MakeRequest(path_, 2, 2)).ok());

  // A missing dataset file fails with an error RESPONSE — the connection
  // stays up and the daemon keeps serving on it.
  auto client = serve::Client::Connect(daemon->server->port());
  ASSERT_TRUE(client.ok());
  EXPECT_FALSE(
      client->PartialFit(MakeRequest(path_ + ".missing", 0, 1)).ok());
  auto ok_after = client->PartialFit(MakeRequest(path_, 0, 1));
  EXPECT_TRUE(ok_after.ok()) << ok_after.status().ToString();
}

TEST(ShardWireTest, PartialFitRequestRoundTrips) {
  serve::PartialFitRequest request;
  request.path = "data/foo.dbsf";
  request.shard = 3;
  request.num_shards = 8;
  request.num_kernels = 512;
  request.kernel = density::KernelType::kGaussian;
  request.bandwidth_rule = density::BandwidthRule::kSilverman;
  request.fixed_bandwidth = 0.25;
  request.bandwidth_scale = 0.5;
  request.seed = 0xabcdef01ULL;
  auto decoded =
      serve::DecodePartialFitRequest(serve::EncodePartialFitRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->path, request.path);
  EXPECT_EQ(decoded->shard, request.shard);
  EXPECT_EQ(decoded->num_shards, request.num_shards);
  EXPECT_EQ(decoded->num_kernels, request.num_kernels);
  EXPECT_EQ(decoded->kernel, request.kernel);
  EXPECT_EQ(decoded->bandwidth_rule, request.bandwidth_rule);
  EXPECT_EQ(decoded->fixed_bandwidth, request.fixed_bandwidth);
  EXPECT_EQ(decoded->bandwidth_scale, request.bandwidth_scale);
  EXPECT_EQ(decoded->seed, request.seed);
}

TEST(ShardWireTest, PartialFitRequestRejectsBadShardIdentity) {
  serve::PartialFitRequest request;
  request.path = "x.dbsf";
  request.shard = 5;
  request.num_shards = 5;  // shard must be < num_shards
  EXPECT_FALSE(
      serve::DecodePartialFitRequest(serve::EncodePartialFitRequest(request))
          .ok());
}

// Fits a real 2-shard partial state for codec tests.
density::PartialKde MakeWirePartial(const data::PointSet& data) {
  std::vector<density::PartialKde> parts;
  for (int64_t s = 0; s < 2; ++s) {
    ShardInfo info;
    info.shard = s;
    info.num_shards = 2;
    info.total_rows = data.size();
    const RowRange range = ShardRowRange(info.total_rows, 2, s);
    data::InMemoryScan base(&data);
    data::RangeScan slice(&base, range.begin, range.end);
    auto partial = density::Kde::FitPartial(slice, KdeOpts(), info);
    EXPECT_TRUE(partial.ok());
    parts.push_back(std::move(*partial));
  }
  auto merged = density::MergePartialKde(std::move(parts[0]),
                                         std::move(parts[1]));
  EXPECT_TRUE(merged.ok());
  return std::move(*merged);
}

TEST(ShardWireTest, PartialKdeRoundTripFinalizesIdentically) {
  const data::PointSet data = MakeData(1200, 67);
  density::PartialKde partial = MakeWirePartial(data);
  auto decoded = serve::DecodePartialKde(serve::EncodePartialKde(partial));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->parts.size(), partial.parts.size());
  auto want = density::FinalizeKde(std::move(partial), KdeOpts());
  auto got = density::FinalizeKde(std::move(*decoded), KdeOpts());
  ASSERT_TRUE(want.ok() && got.ok());
  ExpectSameModel(*got, *want);
}

TEST(ShardWireTest, PartialKdeDecodeRejectsTruncationAnywhere) {
  const data::PointSet data = MakeData(600, 71);
  const std::vector<uint8_t> bytes =
      serve::EncodePartialKde(MakeWirePartial(data));
  // Every strict prefix must fail cleanly (sampled for speed).
  for (size_t len = 0; len < bytes.size();
       len += std::max<size_t>(1, bytes.size() / 97)) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<int64_t>(len));
    EXPECT_FALSE(serve::DecodePartialKde(cut).ok()) << "len=" << len;
  }
  // Trailing garbage is rejected too.
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(serve::DecodePartialKde(padded).ok());
}

TEST(ShardWireTest, PartialKdeDecodeRejectsCorruptPartCount) {
  const data::PointSet data = MakeData(600, 73);
  std::vector<uint8_t> bytes =
      serve::EncodePartialKde(MakeWirePartial(data));
  // The leading u32 is the part count; zero and absurd counts must fail.
  bytes[0] = 0;
  bytes[1] = 0;
  bytes[2] = 0;
  bytes[3] = 0;
  EXPECT_FALSE(serve::DecodePartialKde(bytes).ok());
  bytes[0] = 0xff;
  bytes[1] = 0xff;
  bytes[2] = 0xff;
  bytes[3] = 0xff;
  EXPECT_FALSE(serve::DecodePartialKde(bytes).ok());
}

}  // namespace
}  // namespace dbs
