// Serving workload: a closed loop against an in-process dbsd stack
// (ModelRegistry + 2-worker executor + Server with shm enabled) serving a
// 1000-kernel 2-D KDE.
//
// Two reader connections, one over TCP and one over shared memory, each
// keep four requests in flight from the same seeded mix: ~80% 64-point
// density batches, ~10% 2048-point density batches and ~10% 256-point
// outlier-score batches. A third connection hot-swaps the served model
// between two saved .dbsk files about every 100 ms. Every response must be
// byte-equal to the precomputed response of one of the two models.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "density/kde.h"
#include "density/kde_io.h"
#include "parallel/batch_executor.h"
#include "pipeline_util.h"
#include "serve/client.h"
#include "serve/dispatch.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/service.h"
#include "synth/generator.h"
#include "workloads.h"

namespace pipebench {
namespace {

using dbs::Result;
using dbs::Status;
namespace serve = dbs::serve;

constexpr int kPipelineDepth = 4;
constexpr int kWorkers = 2;
constexpr int64_t kMinReadsPerClient = 1000;
constexpr auto kSwapPeriod = std::chrono::milliseconds(100);
const char* const kModelName = "est";

enum Kind { kSmall = 0, kLarge = 1, kOutlier = 2, kNumKinds = 3 };
const char* const kKindNames[kNumKinds] = {"small", "large", "outlier"};
constexpr int64_t kKindPoints[kNumKinds] = {64, 2048, 256};
// Distinct requests of each kind in the pool the mix draws from.
constexpr int kKindPool[kNumKinds] = {32, 8, 8};

struct PooledRequest {
  Kind kind = kSmall;
  int64_t points = 0;
  serve::MessageType type = serve::MessageType::kDensityRequest;
  std::vector<uint8_t> payload;
  // The response under each of the two models.
  serve::Frame expected[2];
};

// The served stack. Members are destroyed in reverse order, so the server
// stops before the service, executor and registry it uses go away.
struct Stack {
  std::string model_paths[2];
  std::vector<PooledRequest> pool;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<dbs::parallel::BatchExecutor> executor;
  std::unique_ptr<serve::ModelService> service;
  std::unique_ptr<serve::Server> server;
};

// `count` query points drawn like the data: clusters plus 10% noise.
Result<dbs::data::PointSet> Queries(int64_t count, uint64_t seed) {
  dbs::synth::ClusteredDatasetOptions opts;
  opts.num_clusters = 10;
  opts.num_cluster_points = count;
  opts.noise_multiplier = 0.1;
  opts.shuffle = true;
  opts.seed = seed;
  DBS_ASSIGN_OR_RETURN(dbs::synth::ClusteredDataset made,
                       dbs::synth::MakeClusteredDataset(opts));
  dbs::data::PointSet points(2);
  for (int64_t i = 0; i < count; ++i) points.Append(made.points[i]);
  return points;
}

Result<std::unique_ptr<Stack>> Setup(const RunConfig& config) {
  auto stack = std::make_unique<Stack>();
  // Two models of the same data, differing in their kernel centers.
  dbs::synth::ClusteredDatasetOptions data_opts;
  data_opts.num_clusters = 10;
  data_opts.num_cluster_points = 100000;
  data_opts.noise_multiplier = 0.1;
  data_opts.seed = config.seed;
  DBS_ASSIGN_OR_RETURN(dbs::synth::ClusteredDataset data,
                       dbs::synth::MakeClusteredDataset(data_opts));
  for (int m = 0; m < 2; ++m) {
    dbs::density::KdeOptions kde_opts;
    kde_opts.num_kernels = 1000;
    kde_opts.seed = config.seed * 2 + static_cast<uint64_t>(m);
    DBS_ASSIGN_OR_RETURN(dbs::density::Kde kde,
                         dbs::density::Kde::Fit(data.points, kde_opts));
    stack->model_paths[m] = config.work_dir + "/" + config.workload + "-" +
                            std::to_string(config.seed) + "-" +
                            std::to_string(m) + ".dbsk";
    DBS_RETURN_IF_ERROR(dbs::density::SaveKde(kde, stack->model_paths[m]));
  }

  // The request pool and its expected responses, computed through the
  // dispatch path the server runs, once per model.
  uint64_t query_seed = config.seed * 1000 + 17;
  for (int kind = 0; kind < kNumKinds; ++kind) {
    for (int i = 0; i < kKindPool[kind]; ++i) {
      PooledRequest request;
      request.kind = static_cast<Kind>(kind);
      request.points = kKindPoints[kind];
      DBS_ASSIGN_OR_RETURN(dbs::data::PointSet points,
                           Queries(request.points, query_seed++));
      if (kind == kOutlier) {
        serve::OutlierScoreBatchRequest body;
        body.model = kModelName;
        body.radius = 0.05;
        body.max_neighbors = 10;
        body.points = std::move(points);
        request.type = serve::MessageType::kOutlierRequest;
        request.payload = serve::EncodeOutlierRequest(body);
      } else {
        serve::DensityBatchRequest body;
        body.model = kModelName;
        body.points = std::move(points);
        request.type = serve::MessageType::kDensityRequest;
        request.payload = serve::EncodeDensityRequest(body);
      }
      stack->pool.push_back(std::move(request));
    }
  }
  for (int m = 0; m < 2; ++m) {
    serve::ModelRegistry registry;
    DBS_RETURN_IF_ERROR(
        registry.LoadKdeFile(kModelName, stack->model_paths[m]));
    dbs::parallel::BatchExecutorOptions pool_opts;
    pool_opts.num_workers = 1;
    dbs::parallel::BatchExecutor executor(pool_opts);
    serve::ModelService service(&registry, &executor);
    for (PooledRequest& request : stack->pool) {
      serve::Frame frame{request.type, request.payload};
      serve::DispatchResult reference = serve::DispatchFrame(&service, frame);
      if (reference.response.type == serve::MessageType::kErrorResponse) {
        return serve::DecodeErrorResponse(reference.response.payload);
      }
      request.expected[m] = std::move(reference.response);
    }
    executor.Shutdown();
  }

  stack->registry = std::make_unique<serve::ModelRegistry>();
  DBS_RETURN_IF_ERROR(
      stack->registry->LoadKdeFile(kModelName, stack->model_paths[0]));
  dbs::parallel::BatchExecutorOptions pool_opts;
  pool_opts.num_workers = kWorkers;
  stack->executor = std::make_unique<dbs::parallel::BatchExecutor>(pool_opts);
  stack->service = std::make_unique<serve::ModelService>(
      stack->registry.get(), stack->executor.get());
  serve::ServerOptions server_opts;
  server_opts.enable_shm = true;
  DBS_ASSIGN_OR_RETURN(stack->server,
                       serve::Server::Start(stack->service.get(), server_opts));
  return stack;
}

struct TimedSpan {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
};

// What one reader connection saw.
struct ReaderLog {
  std::vector<double> latency_s[kNumKinds];
  int64_t completed = 0;
  int64_t points = 0;
  int64_t failed = 0;
  int64_t rejected = 0;
  int64_t mismatched = 0;
  // Responses that only the second model's frame matches: evidence the
  // hot swaps reach the readers.
  int64_t second_model = 0;
  std::string error;
  double start_s = 0.0;
  double end_s = 0.0;
  // Intervals the connection's thread spent waiting on each response.
  std::vector<TimedSpan> waits;
};

struct Phase {
  double wall_s = 0.0;
  ReaderLog readers[2];  // [0] TCP, [1] shm
  std::vector<double> register_s;
  int64_t register_failed = 0;
  std::string register_error;
  serve::StatsResponse stats;
};

const char* const kTransportNames[2] = {"tcp", "shm"};

bool Matches(const serve::Frame& got, const serve::Frame& expected) {
  return got.type == expected.type && got.payload == expected.payload;
}

// One reader: a closed loop keeping kPipelineDepth requests in flight
// until `seconds` have passed and it has completed kMinReadsPerClient.
void RunReader(const Stack& stack, int transport, uint64_t seed,
               double seconds, Clock::time_point epoch, bool trace,
               ReaderLog* log) {
  serve::ClientOptions opts;
  if (transport == 1) {
    opts.transport = serve::TransportKind::kShm;
    // A run labelled shm must not silently measure TCP.
    opts.shm_fallback_to_tcp = false;
  }
  auto client = serve::Client::Connect(stack.server->port(), opts);
  if (!client.ok()) {
    log->error = "connect: " + client.status().ToString();
    ++log->failed;
    return;
  }
  std::mt19937_64 rng(seed);
  auto next_request = [&]() -> size_t {
    const uint64_t roll = rng() % 10;
    const int kind = roll < 8 ? kSmall : (roll == 8 ? kLarge : kOutlier);
    int offset = 0;
    for (int k = 0; k < kind; ++k) offset += kKindPool[k];
    return static_cast<size_t>(offset) +
           static_cast<size_t>(rng() % static_cast<uint64_t>(kKindPool[kind]));
  };
  struct InFlight {
    size_t index;
    Clock::time_point sent;
  };
  std::deque<InFlight> in_flight;
  const Clock::time_point start = Clock::now();
  log->start_s = std::chrono::duration<double>(start - epoch).count();
  Clock::time_point last_event = start;
  bool sending = true;
  while (sending || !in_flight.empty()) {
    while (sending && in_flight.size() < kPipelineDepth) {
      const size_t index = next_request();
      const PooledRequest& request = stack.pool[index];
      in_flight.push_back({index, Clock::now()});
      Status sent = client->Submit(request.type, request.payload);
      if (!sent.ok()) {
        log->error = "submit: " + sent.ToString();
        log->failed += static_cast<int64_t>(in_flight.size());
        return;
      }
    }
    auto response = client->ReadResponseFrame();
    const Clock::time_point now = Clock::now();
    if (!response.ok()) {
      log->error = "read: " + response.status().ToString();
      log->failed += static_cast<int64_t>(in_flight.size());
      return;
    }
    const InFlight done = in_flight.front();
    in_flight.pop_front();
    const PooledRequest& request = stack.pool[done.index];
    if (response->type == serve::MessageType::kErrorResponse) {
      ++log->failed;
      Status status = serve::DecodeErrorResponse(response->payload);
      if (status.code() == dbs::StatusCode::kUnavailable) ++log->rejected;
      log->error = "response: " + status.ToString();
    } else if (Matches(*response, request.expected[0]) ||
               Matches(*response, request.expected[1])) {
      if (!Matches(*response, request.expected[0])) ++log->second_model;
      log->latency_s[request.kind].push_back(
          std::chrono::duration<double>(now - done.sent).count());
      ++log->completed;
      log->points += request.points;
    } else {
      ++log->failed;
      ++log->mismatched;
    }
    if (trace) {
      const Clock::time_point waited_from = std::max(done.sent, last_event);
      log->waits.push_back(
          {std::string("serve.") + kTransportNames[transport] + "." +
               kKindNames[request.kind],
           std::chrono::duration<double>(waited_from - epoch).count(),
           std::chrono::duration<double>(now - epoch).count()});
    }
    last_event = now;
    sending = log->failed == 0 &&
              (log->completed < kMinReadsPerClient ||
               SecondsSince(start) < seconds);
  }
  log->end_s = SecondsSince(epoch);
}

Phase RunPhase(const Stack& stack, uint64_t seed, double seconds,
               bool trace) {
  Phase phase;
  const Clock::time_point epoch = Clock::now();
  std::atomic<int> readers_left{2};
  std::thread readers[2];
  for (int t = 0; t < 2; ++t) {
    readers[t] = std::thread([&, t] {
      // Both connections send the same seeded mix.
      RunReader(stack, t, seed, seconds, epoch, trace, &phase.readers[t]);
      readers_left.fetch_sub(1);
    });
  }
  // The writer: hot-swap the served model while the readers run.
  auto writer = serve::Client::Connect(stack.server->port());
  if (!writer.ok()) {
    ++phase.register_failed;
    phase.register_error = "connect: " + writer.status().ToString();
  } else {
    int next_model = 1;
    while (readers_left.load() > 0) {
      std::this_thread::sleep_for(kSwapPeriod);
      const Clock::time_point sent = Clock::now();
      Status swapped =
          writer->RegisterModel(kModelName, stack.model_paths[next_model]);
      if (!swapped.ok()) {
        ++phase.register_failed;
        phase.register_error = "register: " + swapped.ToString();
        break;
      }
      phase.register_s.push_back(SecondsSince(sent));
      next_model = 1 - next_model;
    }
  }
  for (std::thread& reader : readers) reader.join();
  phase.wall_s = SecondsSince(epoch);
  if (writer.ok()) {
    // Serve the next phase (or set-up repetition) from model 0 again.
    Status reset = writer->RegisterModel(kModelName, stack.model_paths[0]);
    auto stats = writer->Stats();
    if (!reset.ok() || !stats.ok()) {
      ++phase.register_failed;
      phase.register_error = !reset.ok()
                                 ? "register: " + reset.ToString()
                                 : "stats: " + stats.status().ToString();
    } else {
      phase.stats = std::move(*stats);
    }
  }
  return phase;
}

std::vector<double> Latencies(const Phase& phase, int transport, int kind) {
  std::vector<double> out;
  for (int t = 0; t < 2; ++t) {
    if (transport >= 0 && t != transport) continue;
    for (int k = 0; k < kNumKinds; ++k) {
      if (kind >= 0 && k != kind) continue;
      const auto& values = phase.readers[t].latency_s[k];
      out.insert(out.end(), values.begin(), values.end());
    }
  }
  return out;
}

std::vector<double> DensityLatencies(const Phase& phase) {
  std::vector<double> out = Latencies(phase, -1, kSmall);
  std::vector<double> large = Latencies(phase, -1, kLarge);
  out.insert(out.end(), large.begin(), large.end());
  return out;
}

// The tail of `seconds` in ms, logged with the percentile the rule chose
// and the sample count.
double P99Ms(const std::string& name, const std::vector<double>& seconds) {
  const Tail tail = TailOf(seconds);
  std::fprintf(stderr, "pipebench: %s is p%.1f of %lld samples\n",
               name.c_str(), tail.percentile,
               static_cast<long long>(tail.samples));
  return 1e3 * tail.value;
}

// Adds a phase's outcome to the run's attempted/failed tallies.
void Account(const Phase& phase, RunResult* result) {
  for (int t = 0; t < 2; ++t) {
    const ReaderLog& log = phase.readers[t];
    result->attempted += log.completed + log.failed;
    result->failed += log.failed;
    if (log.mismatched > 0) {
      Fail(result, std::string(kTransportNames[t]) + ": " +
                       std::to_string(log.mismatched) +
                       " responses matched neither model");
    }
    if (!log.error.empty()) {
      Fail(result, std::string(kTransportNames[t]) + ": " + log.error);
    }
  }
  result->attempted +=
      static_cast<int64_t>(phase.register_s.size()) + phase.register_failed;
  result->failed += phase.register_failed;
  if (!phase.register_error.empty()) {
    Fail(result, "writer: " + phase.register_error);
  }
}

}  // namespace

RunResult RunServeMixed(const RunConfig& config) {
  RunResult result;
  double setup_s = 0.0;
  Result<std::unique_ptr<Stack>> stack =
      RepeatSetup([&] { return Setup(config); }, &setup_s);
  if (!stack.ok()) {
    Fail(&result, "set-up: " + stack.status().ToString());
    return result;
  }

  // Untraced for the whole measuring time; a traced run measures half the
  // time untraced and half traced, to report the tracing overhead.
  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  Phase untraced = RunPhase(**stack, config.seed, untraced_s, false);
  Account(untraced, &result);
  std::optional<Phase> traced;
  if (config.trace && result.correct) {
    traced.emplace(RunPhase(**stack, config.seed, config.seconds / 2, true));
    Account(*traced, &result);
  }
  (*stack)->server->Stop();
  if (!result.correct) return result;

  const std::vector<double> reads = Latencies(untraced, -1, -1);
  int64_t points = 0;
  for (const ReaderLog& log : untraced.readers) points += log.points;
  const Tail tail = TailOf(reads);
  result.end_to_end["setup_s"] = setup_s;
  result.end_to_end["pts_per_s"] =
      static_cast<double>(points) / untraced.wall_s;
  result.end_to_end["p50_ms"] = 1e3 * Median(reads);
  result.end_to_end["quality"] =
      static_cast<double>(reads.size()) /
      static_cast<double>(untraced.readers[0].completed +
                          untraced.readers[0].failed +
                          untraced.readers[1].completed +
                          untraced.readers[1].failed);
  std::fprintf(stderr,
               "pipebench: %s: %zu reads in %.3f s (%lld tcp, %lld shm), "
               "p50 %.3f ms, tail p%.1f of %lld = %.3f ms, %zu model swaps, "
               "%lld reads answered by the second model\n",
               config.workload.c_str(), reads.size(), untraced.wall_s,
               static_cast<long long>(untraced.readers[0].completed),
               static_cast<long long>(untraced.readers[1].completed),
               1e3 * Median(reads), tail.percentile,
               static_cast<long long>(tail.samples), 1e3 * tail.value,
               untraced.register_s.size(),
               static_cast<long long>(untraced.readers[0].second_model +
                                      untraced.readers[1].second_model));
  if (!traced) return result;

  // Per-layer metrics come from the traced phase.
  const Phase& phase = *traced;
  MetricValues& layer = result.per_layer;
  const std::vector<double> traced_reads = Latencies(phase, -1, -1);
  layer["serve.req_per_s"] =
      static_cast<double>(traced_reads.size()) / phase.wall_s;
  layer["serve.p99_ms"] = P99Ms("serve.p99_ms", traced_reads);
  for (int t = 0; t < 2; ++t) {
    const std::vector<double> values = Latencies(phase, t, -1);
    const std::string prefix = std::string("serve.") + kTransportNames[t];
    layer[prefix + ".p50_ms"] = 1e3 * Median(values);
    layer[prefix + ".p99_ms"] = P99Ms(prefix + ".p99_ms", values);
  }
  for (int k = 0; k < kNumKinds; ++k) {
    const std::string name =
        std::string("serve.") + kKindNames[k] + ".p99_ms";
    layer[name] = P99Ms(name, Latencies(phase, -1, k));
  }
  layer["serve.register.p99_ms"] =
      P99Ms("serve.register.p99_ms", phase.register_s);
  double server_p50_ms = 0.0;
  for (const serve::RequestStats& row : phase.stats.per_type) {
    if (row.type != serve::RequestType::kDensityBatch) continue;
    server_p50_ms = row.latency_p50_us / 1e3;
    layer["serve.server.density.p50_ms"] = server_p50_ms;
    layer["serve.server.density.p99_ms"] = row.latency_p99_us / 1e3;
  }
  layer["serve.wait_ms"] =
      1e3 * Median(DensityLatencies(phase)) - server_p50_ms;
  layer["serve.rejected"] = static_cast<double>(
      untraced.readers[0].rejected + untraced.readers[1].rejected +
      phase.readers[0].rejected + phase.readers[1].rejected);
  layer["trace.overhead_s"] = Median(traced_reads) - Median(reads);

  // Spans: one root per reader connection, its waits as children.
  SpanRecorder rec(true);
  for (int t = 0; t < 2; ++t) {
    const ReaderLog& log = phase.readers[t];
    const int64_t root =
        rec.Add(std::string("serve.connection.") + kTransportNames[t], -1,
                log.start_s, log.end_s);
    for (const TimedSpan& wait : log.waits) {
      rec.Add(wait.name, root, wait.start_s, wait.end_s);
    }
  }
  LayerSamples accounting;
  RecordTraceAccounting(rec.spans(), &accounting, &result);
  ReportMedians(accounting, &layer);
  AppendSpans(rec.spans(), &result.spans);
  return result;
}

}  // namespace pipebench
