// Sampling workloads: KDE fit -> density-biased sample -> agglomeration
// (the paper's Fig-1 pipeline followed by CURE-style clustering, §2.2 and
// §3.1).
//
// Each repetition times the pipeline as a user runs it, through
// shard::ShardCoordinator (untraced). The same pipeline is also run stage
// by stage through the layers' own entry points (the Kde and BiasedSampler
// shard partials called one shard after another, or Kde::Fit and
// RunOnePass, then HierarchicalCluster), with a span around every call
// when tracing. Both must produce the same sample bytes. Each repetition
// of the two-pass workload uses a seed of its own for the kernels and the
// sample, so the clusters found are averaged over seeds.

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/hierarchical.h"
#include "core/biased_sampler.h"
#include "data/dataset_io.h"
#include "data/range_scan.h"
#include "density/kde.h"
#include "eval/cluster_match.h"
#include "parallel/batch_executor.h"
#include "pipeline_util.h"
#include "shard/coordinator.h"
#include "stats.h"
#include "synth/generator.h"
#include "workloads.h"

namespace pipebench {
namespace {

using dbs::Result;
using dbs::Status;

struct SampleWorkload {
  int dim = 2;
  int clusters = 10;
  int64_t cluster_points = 0;
  double noise = 0.1;
  double size_ratio = 1.0;
  // Stream the input from a .dbsf file (else hold it in memory).
  bool from_file = true;
  bool two_pass = true;
  double a = 1.0;
  int64_t target_size = 2000;
  double density_floor_fraction = 1e-3;
  double bandwidth_scale = 1.0;
  int64_t kernels = 1000;
  // Shards of the coordinator, fanned out over as many workers (1: on the
  // calling thread). Only the two-pass pipeline is sharded.
  int64_t shards = 1;
  // A new kernel and sample seed for every repetition.
  bool reseed = false;
};

// The Fig-1 pipeline at the dbs_sample defaults (twopass, a=1, b=2000,
// 1000 kernels) streamed from a file, as dbs_sample shards=4 workers=4
// runs it. One thread would be the tool's default, but on a shared host a
// single thread's speed drifts with its neighbours far more than four
// threads' does, and one sample in eight or so merges two clusters
// (README.md).
SampleWorkload TwoPass2d() {
  SampleWorkload w;
  w.cluster_points = 500000;
  w.shards = 4;
  w.reseed = true;
  return w;
}

// The small-cluster regime: onepass, a=-0.5 over 5-D clusters of unequal
// size, in memory. The density floor at the average density follows the
// 5-D convention of bench/bench_util.h (see README.md for what the
// default floor does here).
SampleWorkload OnePass5d() {
  SampleWorkload w;
  w.dim = 5;
  w.cluster_points = 400000;
  w.size_ratio = 4.0;
  w.from_file = false;
  w.two_pass = false;
  w.a = -0.5;
  w.target_size = 9000;
  w.density_floor_fraction = 1.0;
  return w;
}

struct Inputs {
  std::string path;            // the .dbsf input, when streamed from file
  dbs::data::PointSet points;  // the input, when held in memory
  dbs::synth::GroundTruth truth;
  int64_t rows = 0;
};

Result<Inputs> Setup(const SampleWorkload& w, const RunConfig& config) {
  dbs::synth::ClusteredDatasetOptions opts;
  opts.dim = w.dim;
  opts.num_clusters = w.clusters;
  opts.num_cluster_points = w.cluster_points;
  opts.noise_multiplier = w.noise;
  opts.size_ratio = w.size_ratio;
  opts.seed = config.seed;
  DBS_ASSIGN_OR_RETURN(dbs::synth::ClusteredDataset dataset,
                       dbs::synth::MakeClusteredDataset(opts));
  Inputs inputs;
  inputs.rows = dataset.points.size();
  inputs.truth = std::move(dataset.truth);
  if (w.from_file) {
    inputs.path = config.work_dir + "/" + config.workload + "-" +
                  std::to_string(config.seed) + ".dbsf";
    DBS_RETURN_IF_ERROR(
        dbs::data::WriteDatasetFile(inputs.path, dataset.points));
  } else {
    inputs.points = std::move(dataset.points);
  }
  return inputs;
}

dbs::shard::ShardCoordinator::ScanFactory MakeFactory(const Inputs& in) {
  if (!in.path.empty()) return FileScanFactory(in.path);
  const dbs::data::PointSet* points = &in.points;
  return [points]() -> Result<std::unique_ptr<dbs::data::DataScan>> {
    return std::unique_ptr<dbs::data::DataScan>(
        std::make_unique<dbs::data::InMemoryScan>(points));
  };
}

dbs::density::KdeOptions KdeOptionsFor(const SampleWorkload& w,
                                       uint64_t seed) {
  dbs::density::KdeOptions opts;
  opts.num_kernels = w.kernels;
  opts.bandwidth_scale = w.bandwidth_scale;
  opts.seed = seed;
  return opts;
}

dbs::core::BiasedSamplerOptions SamplerOptionsFor(const SampleWorkload& w,
                                                  uint64_t seed) {
  dbs::core::BiasedSamplerOptions opts;
  opts.a = w.a;
  opts.target_size = w.target_size;
  opts.density_floor_fraction = w.density_floor_fraction;
  opts.seed = seed;
  return opts;
}

Result<dbs::cluster::ClusteringResult> Agglomerate(
    const SampleWorkload& w, const dbs::data::PointSet& sample) {
  dbs::cluster::HierarchicalOptions opts;
  opts.num_clusters = w.clusters;
  return dbs::cluster::HierarchicalCluster(sample, opts);
}

struct PipelineOutput {
  uint64_t sample_hash = 0;
  int64_t sample_size = 0;
  int64_t clamped = 0;
  int clusters_found = 0;

  bool operator==(const PipelineOutput&) const = default;
};

PipelineOutput Summarize(const dbs::core::BiasedSample& sample,
                         const dbs::cluster::ClusteringResult& clustering,
                         const dbs::synth::GroundTruth& truth) {
  PipelineOutput out;
  const auto& flat = sample.points.flat();
  out.sample_hash = Fnv1a(flat.data(), flat.size() * sizeof(double));
  out.sample_hash =
      Fnv1a(sample.inclusion_probs.data(),
            sample.inclusion_probs.size() * sizeof(double), out.sample_hash);
  out.sample_size = sample.size();
  out.clamped = sample.clamped_count;
  out.clusters_found = dbs::eval::MatchClusters(clustering, truth).num_found();
  return out;
}

// The pipeline as a user runs it (dbs_sample's path); `wall_s` covers
// input -> clustering.
Result<PipelineOutput> RunCoordinator(const SampleWorkload& w,
                                      const Inputs& in, uint64_t seed,
                                      dbs::parallel::BatchExecutor* pool,
                                      double* wall_s) {
  const Clock::time_point start = Clock::now();
  dbs::shard::ShardCoordinatorOptions coord_opts;
  coord_opts.shards = w.shards;
  coord_opts.executor = pool;
  dbs::shard::ShardCoordinator coordinator(MakeFactory(in), coord_opts);
  DBS_ASSIGN_OR_RETURN(dbs::density::Kde kde,
                       coordinator.BuildKde(KdeOptionsFor(w, seed)));
  const dbs::core::BiasedSamplerOptions sampler_opts =
      SamplerOptionsFor(w, seed);
  DBS_ASSIGN_OR_RETURN(
      dbs::core::BiasedSample sample,
      w.two_pass ? coordinator.SampleTwoPass(kde, sampler_opts)
                 : coordinator.SampleOnePass(kde, sampler_opts));
  DBS_ASSIGN_OR_RETURN(dbs::cluster::ClusteringResult clustering,
                       Agglomerate(w, sample.points));
  *wall_s = SecondsSince(start);
  return Summarize(sample, clustering, in.truth);
}

// The same pipeline, one layer call at a time. The fitted estimator is
// handed back through `kde_out` for the probes.
Result<PipelineOutput> RunStaged(const SampleWorkload& w, const Inputs& in,
                                 uint64_t seed, SpanRecorder* rec,
                                 bool concurrent,
                                 std::optional<dbs::density::Kde>* kde_out) {
  ScopedSpan pipeline(rec, "pipeline");
  const dbs::density::KdeOptions kde_opts = KdeOptionsFor(w, seed);
  const dbs::core::BiasedSampler sampler(SamplerOptionsFor(w, seed));
  std::optional<dbs::density::Kde> kde;
  std::optional<dbs::core::BiasedSample> sample;
  if (w.two_pass) {
    const auto factory = MakeFactory(in);
    DBS_ASSIGN_OR_RETURN(kde, FitByShard(factory, in.rows, w.shards,
                                         kde_opts, rec, concurrent));
    std::optional<dbs::core::PartialNormalizer> norm;
    {
      ScopedSpan normalizer(rec, "core.normalizer");
      DBS_ASSIGN_OR_RETURN(
          norm, EachShard<dbs::core::PartialNormalizer>(
                    factory, in.rows, w.shards, rec, "core.normalizer_partial",
                    concurrent,
                    [&](dbs::data::DataScan& scan, const dbs::ShardInfo& info) {
                      return sampler.NormalizerPartial(scan, *kde, info);
                    },
                    [](dbs::core::PartialNormalizer a,
                       dbs::core::PartialNormalizer b) {
                      return dbs::core::MergePartialNormalizers(std::move(a),
                                                                std::move(b));
                    }));
    }
    DBS_ASSIGN_OR_RETURN(double k_a,
                         InSpan(rec, "core.finalize_normalizer", [&] {
                           return sampler.FinalizeNormalizer(*norm);
                         }));
    std::optional<dbs::core::PartialSample> part;
    {
      ScopedSpan sample_pass(rec, "core.sample_pass");
      DBS_ASSIGN_OR_RETURN(
          part, EachShard<dbs::core::PartialSample>(
                    factory, in.rows, w.shards, rec, "core.sample_partial",
                    concurrent,
                    [&](dbs::data::DataScan& scan, const dbs::ShardInfo& info) {
                      return sampler.SamplePartial(scan, *kde, k_a, info);
                    },
                    [](dbs::core::PartialSample a, dbs::core::PartialSample b) {
                      return dbs::core::MergePartialSamples(std::move(a),
                                                            std::move(b));
                    }));
    }
    DBS_ASSIGN_OR_RETURN(sample, InSpan(rec, "core.finalize_sample", [&] {
                           return sampler.FinalizeSample(std::move(*part), k_a);
                         }));
  } else {
    DBS_ASSIGN_OR_RETURN(
        std::unique_ptr<dbs::data::DataScan> scan,
        InSpan(rec, "data.open", [&] { return MakeFactory(in)(); }));
    dbs::data::RangeScan full(scan.get(), 0, scan->size());
    DBS_ASSIGN_OR_RETURN(kde, InSpan(rec, "density.fit", [&] {
                           return dbs::density::Kde::Fit(full, kde_opts);
                         }));
    DBS_ASSIGN_OR_RETURN(sample, InSpan(rec, "core.sample_pass", [&] {
                           return sampler.RunOnePass(full, *kde);
                         }));
  }
  DBS_ASSIGN_OR_RETURN(
      dbs::cluster::ClusteringResult clustering,
      InSpan(rec, "cluster.agglomerate",
             [&] { return Agglomerate(w, sample->points); }));
  PipelineOutput out = Summarize(*sample, clustering, in.truth);
  if (kde_out != nullptr) kde_out->emplace(std::move(*kde));
  return out;
}

RunResult RunSampleWorkload(const SampleWorkload& w,
                            const RunConfig& config) {
  RunResult result;
  double setup_s = 0.0;
  Result<Inputs> inputs =
      RepeatSetup([&] { return Setup(w, config); }, &setup_s);
  if (!inputs.ok()) {
    Fail(&result, "set-up: " + inputs.status().ToString());
    return result;
  }
  const Inputs& in = *inputs;
  std::optional<dbs::parallel::BatchExecutor> pool;
  if (w.shards > 1) {
    dbs::parallel::BatchExecutorOptions pool_opts;
    pool_opts.num_workers = static_cast<int>(w.shards);
    pool.emplace(pool_opts);
  }

  std::optional<dbs::density::Kde> traced_kde;
  PipelineHooks<PipelineOutput> hooks;
  hooks.timed = [&](uint64_t seed, double* wall_s, LayerSamples*) {
    return RunCoordinator(w, in, seed, pool ? &*pool : nullptr, wall_s);
  };
  hooks.staged = [&](uint64_t seed, SpanRecorder* rec, bool concurrent) {
    return RunStaged(w, in, seed, rec, concurrent,
                     rec->enabled() ? &traced_kde : nullptr);
  };
  hooks.reseed = w.reseed;
  hooks.probes = [&](SpanRecorder* rec) {
    return RunProbes(in.path, w.from_file ? nullptr : &in.points, in.rows,
                     *traced_kde, rec);
  };
  hooks.layers = [&](const std::vector<Span>& spans, LayerSamples* layer) {
    (*layer)["density.fit_s"].push_back(TotalSeconds(spans, "density.fit"));
    (*layer)["core.sample_pass_s"].push_back(
        TotalSeconds(spans, "core.sample_pass"));
    (*layer)["cluster.agglomerate_s"].push_back(
        TotalSeconds(spans, "cluster.agglomerate"));
    if (w.two_pass) {
      (*layer)["core.normalizer_s"].push_back(
          TotalSeconds(spans, "core.normalizer"));
    }
    RecordProbeLayers(spans, in.rows, w.from_file, layer);
  };
  std::vector<double> walls;
  LayerSamples layer;
  const std::vector<PipelineOutput> outputs =
      MeasurePipeline(hooks, config, &walls, &layer, &result);
  if (pool) pool->Shutdown();
  if (outputs.empty()) return result;

  // Sample figures are medians over the repetitions' outputs; the clusters
  // found are their mean.
  std::vector<double> sizes;
  std::vector<double> clamped;
  double found = 0.0;
  for (const PipelineOutput& out : outputs) {
    sizes.push_back(static_cast<double>(out.sample_size));
    clamped.push_back(static_cast<double>(out.clamped));
    found += out.clusters_found;
  }
  found /= static_cast<double>(outputs.size());
  const double median_wall = Median(walls);
  result.end_to_end["setup_s"] = setup_s;
  result.end_to_end["pts_per_s"] =
      static_cast<double>(in.rows) / median_wall;
  result.end_to_end["p50_ms"] = 1e3 * median_wall;
  result.end_to_end["quality"] =
      found / static_cast<double>(in.truth.num_true_clusters());
  ReportMedians(layer, &result.per_layer);
  result.per_layer["core.sample_size"] = Median(sizes);
  result.per_layer["core.clamped"] = Median(clamped);
  result.per_layer["eval.clusters_found"] = found;
  std::fprintf(stderr,
               "pipebench: %s: %lld rows, %zu pipeline runs, median %.3f s; "
               "sample %.0f (clamped %.0f), %.2f/%d clusters found\n",
               config.workload.c_str(), static_cast<long long>(in.rows),
               walls.size(), median_wall, Median(sizes), Median(clamped),
               found, in.truth.num_true_clusters());
  return result;
}

}  // namespace

RunResult RunSampleTwoPass2d(const RunConfig& config) {
  return RunSampleWorkload(TwoPass2d(), config);
}

RunResult RunSampleOnePass5d(const RunConfig& config) {
  return RunSampleWorkload(OnePass5d(), config);
}

}  // namespace pipebench
