// Sharded-build scaling bench: shard count × worker count (DESIGN.md §12).
//
// Times the full sharded sample pipeline — ShardCoordinator::BuildKde
// followed by SampleTwoPass — over an in-memory dataset for every requested
// (shards, workers) pair, against the direct unsharded pipeline
// (Kde::Fit + BiasedSampler::Run) as the baseline.
//
// Determinism is checked, not assumed, on every configuration:
//
//   * shards=1 results must be BITWISE identical to the direct pipeline
//     (model state, sample points, inclusion probabilities, densities,
//     normalizer, clamp count) at every worker count;
//   * for each shard count, every worker count must reproduce the workers=0
//     result bitwise (worker-count invariance);
//   * every sample must be BITWISE identical to the bound-less reference
//     for its shard count: NormalizerPartial -> FinalizeNormalizer ->
//     SamplePartial without bounds -> FinalizeSample over the same model.
//     The coordinator and BiasedSampler::Run both skip f(x) for rows the
//     normalization pass's f^a bounds reject, so the first two checks
//     compare bounded paths with each other; this one pins the skip.
//
// Any mismatch is counted, reported as FAIL on stderr and exits nonzero —
// this is the perf-smoke tripwire for the shards=1 pinning and the bounded
// sample pass.
//
// Output: a table on stdout plus machine-readable JSON in the shape of
// BENCH_micro_kde.json (BENCH_shard_scaling.json, override with out=).
//
//   shard_scaling [data_points=200000] [dim=2] [kernels=1000] [size=2000]
//                 [reps=3] [shards=1,2,4,8] [workers=0,1,2,4]
//                 [out=BENCH_shard_scaling.json]

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_timing.h"
#include "core/biased_sampler.h"
#include "core/sample.h"
#include "data/range_scan.h"
#include "density/kde.h"
#include "parallel/batch_executor.h"
#include "shard/coordinator.h"
#include "synth/generator.h"
#include "tools/flags.h"
#include "util/check.h"

namespace {

using dbs::bench::ParseIntList;
using dbs::bench::TimeBest;

struct SeriesResult {
  int64_t shards = 0;
  int workers = 0;  // 0 = sequential fan-out (no executor)
  double seconds = 0.0;
  double speedup_vs_direct = 0.0;
  int64_t mismatches = 0;
  // Rows the sampling pass evaluated f(x) for.
  int64_t density_evaluations = 0;
};

dbs::data::PointSet MakeData(int dim, int64_t points, uint64_t seed) {
  dbs::synth::ClusteredDatasetOptions opts;
  opts.dim = dim;
  opts.num_clusters = 10;
  opts.num_cluster_points = points / 10;
  opts.noise_multiplier = 0.1;
  opts.seed = seed;
  auto ds = dbs::synth::MakeClusteredDataset(opts);
  DBS_CHECK(ds.ok());
  return std::move(ds)->points;
}

// Everything the pipeline produces, flattened for bitwise comparison.
struct PipelineOutput {
  dbs::density::Kde::State model;
  dbs::core::BiasedSample sample;
};

bool BitwiseEqual(const std::vector<double>& a,
                  const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Counts differing fields between two samples (0 = bitwise equal).
int64_t CountSampleMismatches(const dbs::core::BiasedSample& got,
                              const dbs::core::BiasedSample& want) {
  int64_t bad = 0;
  if (!BitwiseEqual(got.points.flat(), want.points.flat())) ++bad;
  if (!BitwiseEqual(got.inclusion_probs, want.inclusion_probs)) ++bad;
  if (!BitwiseEqual(got.densities, want.densities)) ++bad;
  if (std::memcmp(&got.normalizer, &want.normalizer, sizeof(double)) != 0) {
    ++bad;
  }
  if (got.clamped_count != want.clamped_count) ++bad;
  return bad;
}

// Counts differing fields between two pipeline outputs (0 = bitwise equal).
int64_t CountMismatches(const PipelineOutput& got,
                        const PipelineOutput& want) {
  int64_t bad = 0;
  if (got.model.n != want.model.n) ++bad;
  if (!BitwiseEqual(got.model.centers.flat(), want.model.centers.flat())) {
    ++bad;
  }
  if (!BitwiseEqual(got.model.bandwidths, want.model.bandwidths)) ++bad;
  if (!BitwiseEqual(got.model.bounds.lo(), want.model.bounds.lo()) ||
      !BitwiseEqual(got.model.bounds.hi(), want.model.bounds.hi())) {
    ++bad;
  }
  return bad + CountSampleMismatches(got.sample, want.sample);
}

// The staged two-pass sample over `num_shards` row ranges with the
// bound-less sampling pass, which evaluates f(x) for every row.
dbs::core::BiasedSample BoundlessSample(
    const dbs::data::PointSet& data, const dbs::density::Kde& kde,
    const dbs::core::BiasedSamplerOptions& options, int64_t num_shards) {
  const dbs::core::BiasedSampler sampler(options);
  dbs::data::InMemoryScan scan(&data);
  auto slice_info = [&](int64_t s) {
    dbs::ShardInfo info;
    info.shard = s;
    info.num_shards = num_shards;
    info.total_rows = data.size();
    return info;
  };
  auto slice_range = [&](int64_t s) {
    return dbs::ShardRowRange(data.size(), num_shards, s);
  };
  dbs::core::PartialNormalizer norm;
  for (int64_t s = 0; s < num_shards; ++s) {
    const dbs::RowRange range = slice_range(s);
    dbs::data::RangeScan slice(&scan, range.begin, range.end);
    auto part = sampler.NormalizerPartial(slice, kde, slice_info(s));
    DBS_CHECK(part.ok());
    auto merged =
        dbs::core::MergePartialNormalizers(std::move(norm), std::move(*part));
    DBS_CHECK(merged.ok());
    norm = std::move(*merged);
  }
  auto k_a = sampler.FinalizeNormalizer(norm);
  DBS_CHECK(k_a.ok());
  dbs::core::PartialSample drawn;
  for (int64_t s = 0; s < num_shards; ++s) {
    const dbs::RowRange range = slice_range(s);
    dbs::data::RangeScan slice(&scan, range.begin, range.end);
    auto part = sampler.SamplePartial(slice, kde, *k_a, slice_info(s));
    DBS_CHECK(part.ok());
    auto merged =
        dbs::core::MergePartialSamples(std::move(drawn), std::move(*part));
    DBS_CHECK(merged.ok());
    drawn = std::move(*merged);
  }
  auto sample = sampler.FinalizeSample(std::move(drawn), *k_a);
  DBS_CHECK(sample.ok());
  return std::move(*sample);
}

void WriteJson(const std::string& path, int64_t data_points, int reps,
               const std::vector<SeriesResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"shard_scaling\",\n"
               "  \"data_points\": %lld,\n  \"reps\": %d,\n"
               "  \"results\": [\n",
               static_cast<long long>(data_points), reps);
  for (size_t i = 0; i < results.size(); ++i) {
    const SeriesResult& r = results[i];
    std::fprintf(f,
                 "    {\"shards\": %lld, \"workers\": %d, "
                 "\"seconds\": %.6f, \"speedup_vs_direct\": %.3f, "
                 "\"mismatches\": %lld, \"density_evaluations\": %lld}%s\n",
                 static_cast<long long>(r.shards), r.workers, r.seconds,
                 r.speedup_vs_direct, static_cast<long long>(r.mismatches),
                 static_cast<long long>(r.density_evaluations),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  dbs::tools::Flags flags;
  if (!flags.Parse(argc, argv)) return 2;
  int64_t data_points = flags.GetInt("data_points", 200000);
  int dim = static_cast<int>(flags.GetInt("dim", 2));
  int64_t kernels = flags.GetInt("kernels", 1000);
  int64_t size = flags.GetInt("size", 2000);
  int reps = static_cast<int>(flags.GetInt("reps", 3));
  std::string shards_spec = flags.GetString("shards", "1,2,4,8");
  std::string workers_spec = flags.GetString("workers", "0,1,2,4");
  std::string out = flags.GetString("out", "BENCH_shard_scaling.json");
  if (!flags.AllKnown()) return 2;
  DBS_CHECK(data_points > 0 && dim > 0 && kernels > 0 && size > 0 &&
            reps > 0);
  std::vector<int> shard_counts;
  std::vector<int> worker_counts;
  if (!ParseIntList(shards_spec, 1, &shard_counts) ||
      !ParseIntList(workers_spec, 0, &worker_counts)) {
    std::fprintf(stderr, "bad shards=/workers= list\n");
    return 2;
  }

  const dbs::data::PointSet data = MakeData(dim, data_points, 71);

  dbs::density::KdeOptions kde_opts;
  kde_opts.num_kernels = kernels;
  kde_opts.seed = 17;
  dbs::core::BiasedSamplerOptions sample_opts;
  sample_opts.target_size = size;
  sample_opts.seed = 17;

  // Direct unsharded baseline: the bytes every shards=1 run must hit.
  PipelineOutput direct;
  double direct_seconds = TimeBest(reps, [&] {
    dbs::data::InMemoryScan scan(&data);
    auto kde = dbs::density::Kde::Fit(scan, kde_opts);
    DBS_CHECK(kde.ok());
    auto sample = dbs::core::BiasedSampler(sample_opts).Run(scan, *kde);
    DBS_CHECK(sample.ok());
    direct.model = kde->ExportState();
    direct.sample = std::move(*sample);
  });
  std::printf(
      "shard_scaling: %lld points, dim %d, %lld kernels, sample %lld, "
      "best of %d reps\n\ndirect pipeline: %.4f s\n\n",
      static_cast<long long>(data.size()), dim,
      static_cast<long long>(kernels), static_cast<long long>(size), reps,
      direct_seconds);
  std::printf("%8s %8s %10s %10s %10s %10s\n", "shards", "workers",
              "seconds", "speedup", "mismatch", "evals");

  auto run_sharded = [&](int num_shards,
                         dbs::parallel::BatchExecutor* executor) {
    dbs::shard::ShardCoordinatorOptions coord_opts;
    coord_opts.shards = num_shards;
    coord_opts.executor = executor;
    dbs::shard::ShardCoordinator coordinator(
        [&data]() -> dbs::Result<std::unique_ptr<dbs::data::DataScan>> {
          return std::unique_ptr<dbs::data::DataScan>(
              std::make_unique<dbs::data::InMemoryScan>(&data));
        },
        coord_opts);
    PipelineOutput result;
    auto kde = coordinator.BuildKde(kde_opts);
    DBS_CHECK(kde.ok());
    auto sample = coordinator.SampleTwoPass(*kde, sample_opts);
    DBS_CHECK(sample.ok());
    result.model = kde->ExportState();
    result.sample = std::move(*sample);
    return result;
  };

  std::vector<SeriesResult> results;
  int64_t total_mismatches = 0;
  for (int num_shards : shard_counts) {
    // The worker-invariance reference for this shard count: the sequential
    // fan-out (a worker pool must not change a single byte).
    const PipelineOutput reference = run_sharded(num_shards, nullptr);
    auto reference_kde = dbs::density::Kde::FromState(reference.model);
    DBS_CHECK(reference_kde.ok());
    const dbs::core::BiasedSample boundless = BoundlessSample(
        data, *reference_kde, sample_opts, num_shards);
    for (int workers : worker_counts) {
      std::unique_ptr<dbs::parallel::BatchExecutor> executor;
      if (workers > 0) {
        dbs::parallel::BatchExecutorOptions pool;
        pool.num_workers = workers;
        executor = std::make_unique<dbs::parallel::BatchExecutor>(pool);
      }
      PipelineOutput got;
      double seconds = TimeBest(
          reps, [&] { got = run_sharded(num_shards, executor.get()); });
      if (executor != nullptr) executor->Shutdown();

      SeriesResult r;
      r.shards = num_shards;
      r.workers = workers;
      r.seconds = seconds;
      r.speedup_vs_direct = seconds > 0 ? direct_seconds / seconds : 0.0;
      r.mismatches = CountMismatches(got, reference);
      if (num_shards == 1) r.mismatches += CountMismatches(got, direct);
      r.mismatches += CountSampleMismatches(got.sample, boundless);
      r.density_evaluations = got.sample.density_evaluations;
      total_mismatches += r.mismatches;
      std::printf("%8lld %8d %10.4f %9.2fx %10lld %10lld\n",
                  static_cast<long long>(r.shards), r.workers, r.seconds,
                  r.speedup_vs_direct, static_cast<long long>(r.mismatches),
                  static_cast<long long>(r.density_evaluations));
      results.push_back(r);
    }
  }

  if (total_mismatches > 0) {
    std::fprintf(stderr,
                 "FAIL: %lld sharded results differ from their reference "
                 "(shards=1 must match the direct pipeline bitwise; every "
                 "worker count must match the sequential fan-out; every "
                 "sample must match the bound-less sampling pass)\n",
                 static_cast<long long>(total_mismatches));
  }
  if (!out.empty()) WriteJson(out, data_points, reps, results);
  return total_mismatches > 0 ? 1 : 0;
}
