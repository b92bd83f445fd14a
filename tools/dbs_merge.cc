// dbs_merge — sharded KDE build collector (DESIGN.md §12).
//
//   dbs_merge in=data.dbsf out=model.dbsk [ports=7071,7072,...]
//             [shards=1] [workers=0] [kernels=1000] [bandwidth_scale=1.0]
//             [seed=1] [check=0|1]
//
// Multi-process mode (ports= given): each listed dbsd daemon fits ONE shard
// of the dataset at `in` — a path every daemon must be able to read — via
// the partial_fit RPC, all daemons fitting concurrently (one collector
// thread each). The serialized partial states are tree-reduced here
// and finalized into a model saved at `out`. Because a shard's partial
// build is a pure function of (path, options, shard identity), the merged
// model is bitwise identical to an in-process build with the same shard
// count; check=1 verifies exactly that and fails the run on any mismatch.
//
// In-process mode (no ports=): the same build fanned over shards=N local
// shard tasks (workers=W threads), the single-machine path of the same
// pipeline. shards=1 reproduces Kde::Fit bitwise.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/dataset_io.h"
#include "density/kde.h"
#include "density/kde_io.h"
#include "density/kde_partial.h"
#include "parallel/batch_executor.h"
#include "serve/client.h"
#include "shard/coordinator.h"
#include "tools/flags.h"
#include "util/shard.h"

namespace {

// Splits "7071,7072" into port numbers; returns false on any bad token.
bool ParsePorts(const std::string& spec, std::vector<uint16_t>* ports) {
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string token = spec.substr(begin, end - begin);
    if (token.empty()) return false;
    int value = 0;
    for (char c : token) {
      if (c < '0' || c > '9') return false;
      value = value * 10 + (c - '0');
      if (value > 65535) return false;
    }
    if (value == 0) return false;
    ports->push_back(static_cast<uint16_t>(value));
    if (end == spec.size()) break;
    begin = end + 1;
  }
  return !ports->empty();
}

// Bitwise model equality via the serialization snapshot.
bool SameModel(const dbs::density::Kde& a, const dbs::density::Kde& b) {
  dbs::density::Kde::State sa = a.ExportState();
  dbs::density::Kde::State sb = b.ExportState();
  return sa.n == sb.n && sa.kernel == sb.kernel &&
         sa.centers.flat() == sb.centers.flat() &&
         sa.centers.dim() == sb.centers.dim() &&
         sa.bandwidths == sb.bandwidths &&
         sa.bounds.lo() == sb.bounds.lo() && sa.bounds.hi() == sb.bounds.hi();
}

}  // namespace

int main(int argc, char** argv) {
  dbs::tools::Flags flags;
  if (!flags.Parse(argc, argv)) return 2;
  std::string in = flags.GetString("in", "");
  std::string out = flags.GetString("out", "");
  std::string ports_spec = flags.GetString("ports", "");
  int64_t shards = flags.GetInt("shards", 1);
  int64_t workers = flags.GetInt("workers", 0);
  int64_t kernels = flags.GetInt("kernels", 1000);
  double bandwidth_scale = flags.GetDouble("bandwidth_scale", 1.0);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  bool check = flags.GetInt("check", 0) != 0;
  if (!flags.AllKnown()) return 2;
  if (in.empty() || out.empty()) {
    std::fprintf(stderr,
                 "usage: dbs_merge in=data.dbsf out=model.dbsk "
                 "[ports=7071,7072,...] [shards=1] [workers=0] [kernels=] "
                 "[bandwidth_scale=] [seed=] [check=0|1]\n");
    return 2;
  }
  if (shards < 1) {
    std::fprintf(stderr, "shards must be >= 1\n");
    return 2;
  }

  dbs::density::KdeOptions kde_opts;
  kde_opts.num_kernels = kernels;
  kde_opts.bandwidth_scale = bandwidth_scale;
  kde_opts.seed = seed;

  // In-process shard coordinator: the whole build in the no-ports mode, the
  // reference build for check=1 in the distributed mode.
  auto run_local = [&](int64_t num_shards)
      -> dbs::Result<dbs::density::Kde> {
    std::unique_ptr<dbs::parallel::BatchExecutor> executor;
    if (workers > 0) {
      dbs::parallel::BatchExecutorOptions pool_opts;
      pool_opts.num_workers = static_cast<int>(workers);
      executor = std::make_unique<dbs::parallel::BatchExecutor>(pool_opts);
    }
    dbs::shard::ShardCoordinatorOptions coord_opts;
    coord_opts.shards = num_shards;
    coord_opts.executor = executor.get();
    dbs::shard::ShardCoordinator coordinator(
        [&in]() -> dbs::Result<std::unique_ptr<dbs::data::DataScan>> {
          auto opened = dbs::data::FileScan::Open(in, /*batch_rows=*/8192);
          if (!opened.ok()) return opened.status();
          return std::unique_ptr<dbs::data::DataScan>(std::move(*opened));
        },
        coord_opts);
    return coordinator.BuildKde(kde_opts);
  };

  dbs::Result<dbs::density::Kde> kde = dbs::Status::InvalidArgument("unset");
  if (ports_spec.empty()) {
    kde = run_local(shards);
    if (!kde.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   kde.status().ToString().c_str());
      return 1;
    }
    std::printf("built: in-process, %lld shard(s)\n",
                static_cast<long long>(shards));
  } else {
    std::vector<uint16_t> ports;
    if (!ParsePorts(ports_spec, &ports)) {
      std::fprintf(stderr, "bad ports list '%s'\n", ports_spec.c_str());
      return 2;
    }
    const int64_t num_shards = static_cast<int64_t>(ports.size());

    // One PartialFit RPC per daemon; daemon i owns shard i. The gathers run
    // on one thread per daemon so the fits proceed concurrently — each
    // thread fills its own slot, so the collected order (and therefore the
    // tree reduction) is identical to the sequential gather.
    std::vector<dbs::density::PartialKde> parts(ports.size());
    std::vector<dbs::Status> statuses(ports.size(), dbs::Status::Ok());
    {
      std::vector<std::thread> gatherers;
      gatherers.reserve(ports.size());
      for (size_t i = 0; i < ports.size(); ++i) {
        gatherers.emplace_back([&, i] {
          auto client = dbs::serve::Client::Connect(ports[i]);
          if (!client.ok()) {
            statuses[i] = client.status();
            return;
          }
          dbs::serve::PartialFitRequest request;
          request.path = in;
          request.shard = static_cast<int64_t>(i);
          request.num_shards = num_shards;
          request.num_kernels = kernels;
          request.bandwidth_scale = bandwidth_scale;
          request.seed = seed;
          auto partial = client->PartialFit(request);
          if (!partial.ok()) {
            statuses[i] = partial.status();
            return;
          }
          parts[i] = std::move(*partial);
        });
      }
      for (std::thread& t : gatherers) t.join();
    }
    // Report the first failure in port order, matching the sequential
    // gather's behavior.
    for (size_t i = 0; i < ports.size(); ++i) {
      if (!statuses[i].ok()) {
        std::fprintf(stderr, "partial fit on port %u failed: %s\n",
                     static_cast<unsigned>(ports[i]),
                     statuses[i].ToString().c_str());
        return 1;
      }
    }

    auto merged =
        dbs::TreeReduce(std::move(parts), dbs::density::MergePartialKde);
    if (!merged.ok()) {
      std::fprintf(stderr, "merge failed: %s\n",
                   merged.status().ToString().c_str());
      return 1;
    }
    kde = dbs::density::FinalizeKde(std::move(*merged), kde_opts);
    if (!kde.ok()) {
      std::fprintf(stderr, "finalize failed: %s\n",
                   kde.status().ToString().c_str());
      return 1;
    }
    std::printf("built: %lld daemon shard(s)\n",
                static_cast<long long>(num_shards));

    if (check) {
      auto reference = run_local(num_shards);
      if (!reference.ok()) {
        std::fprintf(stderr, "check build failed: %s\n",
                     reference.status().ToString().c_str());
        return 1;
      }
      if (!SameModel(*kde, *reference)) {
        std::fprintf(stderr,
                     "FAIL: merged model differs from the in-process "
                     "sharded build\n");
        return 1;
      }
      std::printf("check: merged model matches the in-process build\n");
    }
  }

  dbs::Status saved = dbs::density::SaveKde(*kde, out);
  if (!saved.ok()) {
    std::fprintf(stderr, "model save failed: %s\n",
                 saved.ToString().c_str());
    return 1;
  }
  std::printf("out: %s (%lld kernels, dim %d, n=%lld)\n", out.c_str(),
              static_cast<long long>(kde->num_kernels()), kde->dim(),
              static_cast<long long>(kde->total_mass()));
  return 0;
}
