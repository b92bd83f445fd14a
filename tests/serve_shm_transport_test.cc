// Shared-memory transport: byte-for-byte equivalence with TCP.
//
// The transport's contract (DESIGN.md §13) is that it changes HOW frames
// travel, never WHAT they say: the same request stream over TCP and over
// the shm rings must yield byte-identical response frames — success,
// error and negative frames included. These tests drive both transports
// through the raw frame stream and compare encoded bytes, plus the TCP
// fallback when the daemon declines the upgrade, pipelined-vs-sequential
// identity, and concurrent shm clients.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "density/kde.h"
#include "density/kde_io.h"
#include "parallel/batch_executor.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/service.h"
#include "tests/test_paths.h"
#include "util/rng.h"

namespace dbs {
namespace {

constexpr int kDim = 3;

data::PointSet MakePoints(uint64_t seed, int64_t n, int dim = kDim) {
  Rng rng(seed);
  data::PointSet points(dim);
  std::vector<double> row(static_cast<size_t>(dim));
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) {
      row[static_cast<size_t>(j)] =
          rng.NextGaussian(i % 2 == 0 ? -1.0 : 1.0, 0.4);
    }
    points.Append(row);
  }
  return points;
}

class ServeShmTransportTest : public ::testing::Test {
 protected:
  void SetUp() override { StartServer(/*enable_shm=*/true); }

  void StartServer(bool enable_shm) {
    model_path_ = test::TestPath("serve_shm.dbsk");
    density::KdeOptions options;
    options.num_kernels = 32;
    options.seed = 7;
    auto fitted = density::Kde::Fit(MakePoints(42, 1000), options);
    ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
    ASSERT_TRUE(density::SaveKde(*fitted, model_path_).ok());

    parallel::BatchExecutorOptions pool;
    pool.num_workers = 2;
    pool.queue_capacity = 1024;
    executor_ = std::make_unique<parallel::BatchExecutor>(pool);
    service_ =
        std::make_unique<serve::ModelService>(&registry_, executor_.get());
    serve::ServerOptions server_options;
    server_options.enable_shm = enable_shm;
    auto server = serve::Server::Start(service_.get(), server_options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    if (executor_ != nullptr) executor_->Shutdown();
    std::remove(model_path_.c_str());
  }

  serve::Client ConnectOrDie(serve::TransportKind transport,
                             bool fallback = true) {
    serve::ClientOptions options;
    options.transport = transport;
    options.shm_fallback_to_tcp = fallback;
    auto client = serve::Client::Connect(server_->port(), options);
    DBS_CHECK(client.ok());
    return std::move(client).value();
  }

  // The probe stream: every request kind the service answers, including
  // ones that must produce error frames — an unknown model, a dimension
  // mismatch, and a just-evicted model. (Stats is excluded: its latency
  // histograms legitimately differ run to run.)
  std::vector<serve::Frame> ProbeStream() const {
    std::vector<serve::Frame> stream;
    stream.push_back({serve::MessageType::kRegisterRequest,
                      serve::EncodeRegisterRequest({"est", model_path_})});

    serve::DensityBatchRequest density;
    density.model = "est";
    density.points = MakePoints(99, 500);
    stream.push_back({serve::MessageType::kDensityRequest,
                      serve::EncodeDensityRequest(density)});

    serve::DensityBatchRequest unknown = density;
    unknown.model = "nonesuch";
    stream.push_back({serve::MessageType::kDensityRequest,
                      serve::EncodeDensityRequest(unknown)});

    serve::SampleRequest sample;
    sample.model = "est";
    sample.a = 0.5;
    sample.target_size = 100;
    sample.seed = 17;
    sample.points = MakePoints(7, 400);
    stream.push_back({serve::MessageType::kSampleRequest,
                      serve::EncodeSampleRequest(sample)});

    serve::OutlierScoreBatchRequest outliers;
    outliers.model = "est";
    outliers.radius = 0.8;
    outliers.max_neighbors = 10;
    outliers.points = MakePoints(13, 300);
    stream.push_back({serve::MessageType::kOutlierRequest,
                      serve::EncodeOutlierRequest(outliers)});

    serve::DensityBatchRequest mismatched;
    mismatched.model = "est";
    mismatched.points = MakePoints(5, 20, kDim + 2);
    stream.push_back({serve::MessageType::kDensityRequest,
                      serve::EncodeDensityRequest(mismatched)});

    stream.push_back({serve::MessageType::kEvictRequest,
                      serve::EncodeEvictRequest({"est"})});

    // Post-evict density: a kNotFound error frame.
    stream.push_back({serve::MessageType::kDensityRequest,
                      serve::EncodeDensityRequest(density)});
    return stream;
  }

  // Runs the probe stream over one connection, returning each response
  // frame re-encoded to its wire bytes.
  std::vector<std::vector<uint8_t>> Run(serve::Client* client,
                                        const std::vector<serve::Frame>& s) {
    std::vector<std::vector<uint8_t>> responses;
    responses.reserve(s.size());
    for (const serve::Frame& frame : s) {
      DBS_CHECK(client->Submit(frame.type, frame.payload).ok());
      auto response = client->ReadResponseFrame();
      DBS_CHECK(response.ok());
      responses.push_back(
          serve::EncodeFrame(response->type, response->payload));
    }
    return responses;
  }

  std::string model_path_;
  serve::ModelRegistry registry_;
  std::unique_ptr<parallel::BatchExecutor> executor_;
  std::unique_ptr<serve::ModelService> service_;
  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServeShmTransportTest, ShmResponsesAreByteIdenticalToTcp) {
  const std::vector<serve::Frame> stream = ProbeStream();

  serve::Client tcp = ConnectOrDie(serve::TransportKind::kTcp);
  std::vector<std::vector<uint8_t>> tcp_bytes = Run(&tcp, stream);

  serve::Client shm = ConnectOrDie(serve::TransportKind::kShm,
                                   /*fallback=*/false);
  ASSERT_EQ(shm.transport(), serve::TransportKind::kShm);
  std::vector<std::vector<uint8_t>> shm_bytes = Run(&shm, stream);

  ASSERT_EQ(tcp_bytes.size(), shm_bytes.size());
  for (size_t i = 0; i < tcp_bytes.size(); ++i) {
    EXPECT_EQ(tcp_bytes[i], shm_bytes[i])
        << "response " << i << " differs between transports";
  }
  // The stream includes real error frames, so the equivalence above also
  // covered the negative paths; make that explicit.
  size_t header = 0;
  auto unknown_model = serve::DecodeFrame(tcp_bytes[2].data(),
                                          tcp_bytes[2].size(), &header);
  ASSERT_TRUE(unknown_model.ok());
  EXPECT_EQ(unknown_model->type, serve::MessageType::kErrorResponse);
}

TEST_F(ServeShmTransportTest, PipelinedDensityEqualsSequential) {
  serve::Client setup = ConnectOrDie(serve::TransportKind::kTcp);
  ASSERT_TRUE(setup.RegisterModel("est", model_path_).ok());

  std::vector<serve::DensityBatchRequest> requests;
  for (int b = 0; b < 8; ++b) {
    serve::DensityBatchRequest request;
    request.model = "est";
    request.points = MakePoints(static_cast<uint64_t>(100 + b), 150);
    requests.push_back(std::move(request));
  }

  for (serve::TransportKind transport :
       {serve::TransportKind::kTcp, serve::TransportKind::kShm}) {
    serve::Client sequential = ConnectOrDie(transport, /*fallback=*/false);
    serve::Client pipelined = ConnectOrDie(transport, /*fallback=*/false);
    std::vector<serve::DensityBatchResponse> expected;
    for (const auto& request : requests) {
      auto response = sequential.Density(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      expected.push_back(std::move(response).value());
    }
    auto actual = pipelined.DensityPipelined(requests, /*window=*/4);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ASSERT_EQ(actual->size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*actual)[i].densities, expected[i].densities)
          << "batch " << i << " diverges under pipelining";
    }
  }
}

TEST_F(ServeShmTransportTest, PipelinedErrorSurfacesInRequestOrder) {
  serve::Client setup = ConnectOrDie(serve::TransportKind::kTcp);
  ASSERT_TRUE(setup.RegisterModel("est", model_path_).ok());

  std::vector<serve::DensityBatchRequest> requests;
  for (int b = 0; b < 4; ++b) {
    serve::DensityBatchRequest request;
    request.model = b == 1 ? "nonesuch" : "est";
    request.points = MakePoints(static_cast<uint64_t>(b), 50);
    requests.push_back(std::move(request));
  }
  serve::Client client = ConnectOrDie(serve::TransportKind::kShm,
                                      /*fallback=*/false);
  auto responses = client.DensityPipelined(requests, /*window=*/4);
  ASSERT_FALSE(responses.ok());
  EXPECT_EQ(responses.status().code(), StatusCode::kNotFound);
  // The session survives a mid-stream error: later requests still work.
  serve::DensityBatchRequest request;
  request.model = "est";
  request.points = MakePoints(77, 50);
  auto after = client.Density(request);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST_F(ServeShmTransportTest, ConcurrentShmClientsAllGetTheirOwnAnswers) {
  serve::Client setup = ConnectOrDie(serve::TransportKind::kTcp);
  ASSERT_TRUE(setup.RegisterModel("est", model_path_).ok());

  constexpr int kClients = 4;
  constexpr int kBatches = 8;
  std::vector<int> mismatches(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client = ConnectOrDie(serve::TransportKind::kShm,
                                          /*fallback=*/false);
      // Distinct queries per client, so crossed responses cannot pass.
      serve::DensityBatchRequest request;
      request.model = "est";
      request.points = MakePoints(static_cast<uint64_t>(1000 + c), 200);
      auto expected = client.Density(request);
      DBS_CHECK(expected.ok());
      for (int b = 0; b < kBatches; ++b) {
        auto again = client.Density(request);
        if (!again.ok() || again->densities != expected->densities) {
          ++mismatches[static_cast<size_t>(c)];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(mismatches[static_cast<size_t>(c)], 0) << "client " << c;
  }
}

TEST_F(ServeShmTransportTest, StrictShmConnectFailsWithoutFallback) {
  serve::ClientOptions options;
  options.transport = serve::TransportKind::kShm;
  options.shm_fallback_to_tcp = false;
  options.shm_ring_bytes = 12345;  // not a power of two
  auto client = serve::Client::Connect(server_->port(), options);
  EXPECT_FALSE(client.ok());
}

class ServeShmDisabledTest : public ServeShmTransportTest {
 protected:
  void SetUp() override { StartServer(/*enable_shm=*/false); }
};

TEST_F(ServeShmDisabledTest, ClientFallsBackToTcpWithAClearStatus) {
  serve::Client client = ConnectOrDie(serve::TransportKind::kShm);
  EXPECT_EQ(client.transport(), serve::TransportKind::kTcp);
  EXPECT_FALSE(client.shm_status().ok());
  EXPECT_EQ(client.shm_status().code(), StatusCode::kFailedPrecondition);
  // The fallback connection is a fully functional TCP session.
  ASSERT_TRUE(client.RegisterModel("est", model_path_).ok());
  serve::DensityBatchRequest request;
  request.model = "est";
  request.points = MakePoints(3, 100);
  auto response = client.Density(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->densities.size(), 100u);
}

TEST_F(ServeShmDisabledTest, StrictShmConnectFailsWhenDaemonDeclines) {
  serve::ClientOptions options;
  options.transport = serve::TransportKind::kShm;
  options.shm_fallback_to_tcp = false;
  auto client = serve::Client::Connect(server_->port(), options);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace dbs
