// dbs_sample — density-biased (or uniform) sampling of a .dbsf file.
//
//   dbs_sample in=data.dbsf out=sample.dbsf [a=1.0] [size=2000]
//              [kernels=1000] [bandwidth_scale=1.0] [mode=twopass|onepass|
//              stream|uniform] [seed=1] [double_buffer=1] [shards=1]
//              [workers=0]
//
// Streams the input (never materializes it), writes the sampled points to
// `out`, and prints the sample statistics: size, normalizer, clamped count
// and the Horvitz-Thompson estimate of the input size. The twopass/onepass
// modes also print, on stderr, how many rows the sampling pass evaluated
// f(x) for (density_evaluations=).
//
// The twopass/onepass modes run through the sharded build pipeline
// (DESIGN.md §12): shards=N splits every pass into N disjoint row ranges
// whose partial states are merged, and workers=W fans the shard builds over
// a thread pool (at shards=1, the sampler's density batches). shards=1 (the
// default) is bitwise identical to the unsharded pipeline, and any worker
// count leaves the output unchanged.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "core/biased_sampler.h"
#include "core/streaming_sampler.h"
#include "data/dataset_io.h"
#include "density/kde.h"
#include "density/kde_io.h"
#include "parallel/batch_executor.h"
#include "sampling/uniform_sampler.h"
#include "shard/coordinator.h"
#include "tools/flags.h"

int main(int argc, char** argv) {
  dbs::tools::Flags flags;
  if (!flags.Parse(argc, argv)) return 2;
  std::string in = flags.GetString("in", "");
  std::string out = flags.GetString("out", "");
  double a = flags.GetDouble("a", 1.0);
  int64_t size = flags.GetInt("size", 2000);
  int64_t kernels = flags.GetInt("kernels", 1000);
  double bandwidth_scale = flags.GetDouble("bandwidth_scale", 1.0);
  std::string mode = flags.GetString("mode", "twopass");
  // Reuse a saved estimator instead of fitting (mode twopass/onepass), or
  // persist the fitted one for later runs.
  std::string model_in = flags.GetString("model", "");
  std::string model_out = flags.GetString("save_model", "");
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  // Overlap file reads with compute (on by default; double_buffer=0 forces
  // the synchronous scan). Batches are delivered in the same order either
  // way, so the sample bytes are identical.
  bool double_buffer = flags.GetInt("double_buffer", 1) != 0;
  int64_t shards = flags.GetInt("shards", 1);
  int64_t workers = flags.GetInt("workers", 0);
  if (!flags.AllKnown()) return 2;
  if (in.empty() || out.empty()) {
    std::fprintf(stderr,
                 "usage: dbs_sample in=data.dbsf out=sample.dbsf [a=] "
                 "[size=] [kernels=] [bandwidth_scale=] "
                 "[mode=twopass|onepass|stream|uniform] "
                 "[model=est.dbsk] [save_model=est.dbsk] [seed=] "
                 "[double_buffer=0|1] [shards=1] [workers=0]\n");
    return 2;
  }
  if (shards < 1) {
    std::fprintf(stderr, "shards must be >= 1\n");
    return 2;
  }
  if (shards > 1 && mode != "twopass" && mode != "onepass") {
    std::fprintf(stderr, "mode '%s' does not support shards > 1\n",
                 mode.c_str());
    return 2;
  }

  auto scan_result =
      dbs::data::FileScan::Open(in, /*batch_rows=*/8192, double_buffer);
  if (!scan_result.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 scan_result.status().ToString().c_str());
    return 1;
  }
  dbs::data::FileScan& scan = **scan_result;
  std::printf("in: %s (%lld points, dim %d)\n", in.c_str(),
              static_cast<long long>(scan.size()), scan.dim());

  dbs::data::PointSet sampled_points(scan.dim());
  double normalizer = 0;
  int64_t clamped = 0;
  double estimated_n = 0;
  int scan_passes = 0;

  if (mode == "uniform") {
    dbs::sampling::BernoulliSampleOptions opts;
    opts.target_size = size;
    opts.seed = seed;
    auto sample = dbs::sampling::BernoulliSample(scan, opts);
    if (!sample.ok()) {
      std::fprintf(stderr, "sampling failed: %s\n",
                   sample.status().ToString().c_str());
      return 1;
    }
    sampled_points = std::move(sample).value();
    estimated_n = static_cast<double>(scan.size());
    scan_passes = scan.passes();
  } else if (mode == "stream") {
    dbs::core::StreamingSamplerOptions opts;
    opts.a = a;
    opts.target_size = size;
    opts.num_kernels = kernels;
    opts.bandwidth_scale = bandwidth_scale;
    opts.seed = seed;
    auto sample = dbs::core::StreamingBiasedSample(scan, opts);
    if (!sample.ok()) {
      std::fprintf(stderr, "sampling failed: %s\n",
                   sample.status().ToString().c_str());
      return 1;
    }
    normalizer = sample->normalizer;
    clamped = sample->clamped_count;
    estimated_n = sample->EstimatedDatasetSize();
    sampled_points = std::move(sample->points);
    scan_passes = scan.passes();
  } else if (mode == "twopass" || mode == "onepass") {
    // Every pass (fit, normalizer, sampling) runs through the shard
    // coordinator; each shard streams its own slice from a fresh scan.
    // shards=1 is the unsharded pipeline, bitwise.
    std::unique_ptr<dbs::parallel::BatchExecutor> executor;
    if (workers > 0) {
      dbs::parallel::BatchExecutorOptions pool_opts;
      pool_opts.num_workers = static_cast<int>(workers);
      executor =
          std::make_unique<dbs::parallel::BatchExecutor>(pool_opts);
    }
    dbs::shard::ShardCoordinatorOptions coord_opts;
    coord_opts.shards = shards;
    coord_opts.executor = executor.get();
    dbs::shard::ShardCoordinator coordinator(
        [&in, double_buffer]()
            -> dbs::Result<std::unique_ptr<dbs::data::DataScan>> {
          auto opened =
              dbs::data::FileScan::Open(in, /*batch_rows=*/8192,
                                        double_buffer);
          if (!opened.ok()) return opened.status();
          return std::unique_ptr<dbs::data::DataScan>(std::move(*opened));
        },
        coord_opts);

    dbs::Result<dbs::density::Kde> kde =
        dbs::Status::InvalidArgument("unset");
    if (!model_in.empty()) {
      kde = dbs::density::LoadKde(model_in);
    } else {
      dbs::density::KdeOptions kde_opts;
      kde_opts.num_kernels = kernels;
      kde_opts.bandwidth_scale = bandwidth_scale;
      kde_opts.seed = seed;
      kde = coordinator.BuildKde(kde_opts);
    }
    if (!kde.ok()) {
      std::fprintf(stderr, "kde failed: %s\n",
                   kde.status().ToString().c_str());
      return 1;
    }
    if (!model_out.empty()) {
      dbs::Status saved = dbs::density::SaveKde(*kde, model_out);
      if (!saved.ok()) {
        std::fprintf(stderr, "model save failed: %s\n",
                     saved.ToString().c_str());
        return 1;
      }
      std::printf("model: saved estimator to %s\n", model_out.c_str());
    }
    dbs::core::BiasedSamplerOptions opts;
    opts.a = a;
    opts.target_size = size;
    opts.seed = seed;
    auto sample = mode == "twopass"
                      ? coordinator.SampleTwoPass(*kde, opts)
                      : coordinator.SampleOnePass(*kde, opts);
    if (!sample.ok()) {
      std::fprintf(stderr, "sampling failed: %s\n",
                   sample.status().ToString().c_str());
      return 1;
    }
    normalizer = sample->normalizer;
    clamped = sample->clamped_count;
    estimated_n = sample->EstimatedDatasetSize();
    sampled_points = std::move(sample->points);
    // Physical work beside the logical pass count below; on stderr so the
    // stdout report stays the same.
    std::fprintf(stderr, "density_evaluations=%lld\n",
                 static_cast<long long>(sample->density_evaluations));
    // The coordinator's shards open their own scans, so logical dataset
    // passes are accounted here: one for a fresh fit, two for the
    // normalizer+sampling sweeps (one when onepass skips the normalizer).
    // Matches what scan.passes() reported when the passes all ran on the
    // scan above.
    scan_passes = (model_in.empty() ? 1 : 0) + (mode == "twopass" ? 2 : 1);
  } else {
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
  }

  dbs::Status status = dbs::data::WriteDatasetFile(out, sampled_points);
  if (!status.ok()) {
    std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  // Uniform sampling ignores a= and is the a = 0 case of the biased sampler.
  std::printf(
      "out: %s (%lld points) mode=%s a=%.3g passes=%d\n"
      "normalizer=%.6g clamped=%lld estimated-input-size=%.0f\n",
      out.c_str(), static_cast<long long>(sampled_points.size()),
      mode.c_str(), mode == "uniform" ? 0.0 : a, scan_passes, normalizer,
      static_cast<long long>(clamped) * 1LL, estimated_n);
  return 0;
}
