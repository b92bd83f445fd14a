// dbs_outliers — DB(p,k)-outlier detection over a .dbsf file.
//
//   dbs_outliers in=data.dbsf [k=0.05] [p=5] [metric=l2|l1|linf]
//                [mode=approx|exact|estimate] [exact_algo=kd|cell|nested]
//                [kernels=1000] [bandwidth_scale=0.25] [slack=5] [seed=1]
//                [shards=1] [workers=0]
//
// approx:   the paper's two-pass detector (+ one estimator pass).
// exact:    exact baseline (loads the file into memory); exact_algo picks
//           the kd-tree (default), cell-list or nested-loop detector, all
//           byte-identical. workers=W shards the counting pass. The
//           cell-list run appends prune-statistic lines after the report.
// estimate: one-pass outlier-count estimate only (for exploring p and k).
//
// shards=N runs the estimator fit and the approx detector through the
// sharded build pipeline (DESIGN.md §12), workers=W fans the shard builds
// over a thread pool (at shards=1, the detector's density batches).
// shards=1 (the default) is bitwise identical to the unsharded pipeline.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "data/dataset_io.h"
#include "density/kde.h"
#include "outlier/cell_list.h"
#include "outlier/exact_detector.h"
#include "outlier/kde_detector.h"
#include "parallel/batch_executor.h"
#include "shard/coordinator.h"
#include "tools/flags.h"

int main(int argc, char** argv) {
  dbs::tools::Flags flags;
  if (!flags.Parse(argc, argv)) return 2;
  std::string in = flags.GetString("in", "");
  double k = flags.GetDouble("k", 0.05);
  int64_t p = flags.GetInt("p", 5);
  std::string metric_name = flags.GetString("metric", "l2");
  std::string mode = flags.GetString("mode", "approx");
  // Empty default doubles as "not set": exact_algo is only meaningful with
  // mode=exact, and an explicit value must be validated even there.
  std::string exact_algo = flags.GetString("exact_algo", "");
  int64_t kernels = flags.GetInt("kernels", 1000);
  double bandwidth_scale = flags.GetDouble("bandwidth_scale", 0.25);
  double slack = flags.GetDouble("slack", 5.0);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  int64_t shards = flags.GetInt("shards", 1);
  int64_t workers = flags.GetInt("workers", 0);
  if (!flags.AllKnown()) return 2;
  if (in.empty()) {
    std::fprintf(stderr,
                 "usage: dbs_outliers in=data.dbsf [k=] [p=] "
                 "[metric=l2|l1|linf] [mode=approx|exact|estimate] "
                 "[exact_algo=kd|cell|nested] "
                 "[kernels=] [bandwidth_scale=] [slack=] [seed=] "
                 "[shards=1] [workers=0]\n");
    return 2;
  }
  if (shards < 1) {
    std::fprintf(stderr, "shards must be >= 1\n");
    return 2;
  }
  if (shards > 1 && mode == "exact") {
    std::fprintf(stderr, "mode 'exact' does not support shards > 1\n");
    return 2;
  }
  if (!exact_algo.empty() && mode != "exact") {
    std::fprintf(stderr,
                 "invalid argument: exact_algo requires mode=exact "
                 "(got mode '%s')\n",
                 mode.c_str());
    return 2;
  }
  if (!exact_algo.empty() && exact_algo != "kd" && exact_algo != "cell" &&
      exact_algo != "nested") {
    std::fprintf(stderr,
                 "invalid argument: unknown exact_algo '%s' "
                 "(expected kd, cell or nested)\n",
                 exact_algo.c_str());
    return 2;
  }
  if (workers < 0) {
    std::fprintf(stderr, "invalid argument: workers cannot be negative\n");
    return 2;
  }

  dbs::outlier::DbOutlierParams params;
  params.radius = k;
  params.max_neighbors = p;
  if (metric_name == "l2") {
    params.metric = dbs::data::Metric::kL2;
  } else if (metric_name == "l1") {
    params.metric = dbs::data::Metric::kL1;
  } else if (metric_name == "linf") {
    params.metric = dbs::data::Metric::kLinf;
  } else {
    std::fprintf(stderr, "unknown metric '%s'\n", metric_name.c_str());
    return 2;
  }

  if (mode == "exact") {
    auto points = dbs::data::ReadDatasetFile(in);
    if (!points.ok()) {
      std::fprintf(stderr, "read failed: %s\n",
                   points.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<dbs::parallel::BatchExecutor> pool;
    if (workers > 0) {
      dbs::parallel::BatchExecutorOptions pool_opts;
      pool_opts.num_workers = static_cast<int>(workers);
      pool = std::make_unique<dbs::parallel::BatchExecutor>(pool_opts);
    }
    dbs::outlier::CellListStats stats;
    dbs::Result<dbs::outlier::OutlierReport> report =
        dbs::Status::InvalidArgument("unreachable");
    if (exact_algo == "cell") {
      dbs::outlier::CellListDetectorOptions cell_opts;
      cell_opts.executor = pool.get();
      cell_opts.stats = &stats;
      report = dbs::outlier::DetectOutliersCellList(*points, params,
                                                    cell_opts);
    } else if (exact_algo == "nested") {
      dbs::outlier::ExactDetectorOptions exact_opts;
      exact_opts.executor = pool.get();
      report = dbs::outlier::DetectOutliersNestedLoop(*points, params,
                                                      exact_opts);
    } else {  // kd (the default when exact_algo is unset)
      dbs::outlier::ExactDetectorOptions exact_opts;
      exact_opts.executor = pool.get();
      report = dbs::outlier::DetectOutliersExact(*points, params, exact_opts);
    }
    if (!report.ok()) {
      std::fprintf(stderr, "detection failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("exact: %zu DB(%lld, %.4g)-outliers in %lld points\n",
                report->outlier_indices.size(), static_cast<long long>(p),
                k, static_cast<long long>(points->size()));
    for (size_t i = 0; i < report->outlier_indices.size(); ++i) {
      std::printf("  row %lld  neighbors %lld\n",
                  static_cast<long long>(report->outlier_indices[i]),
                  static_cast<long long>(report->neighbor_counts[i]));
    }
    // Prune statistics go AFTER the rows so every pre-existing line of the
    // exact-mode output is byte-unchanged.
    if (exact_algo == "cell") {
      if (stats.used_fallback) {
        std::printf("  cell-list: kd-tree fallback\n");
      } else {
        std::printf(
            "  cell-list: cells %lld occupied %lld dense_pruned %lld "
            "sparse_pruned %lld pairwise %lld\n",
            static_cast<long long>(stats.grid_cells),
            static_cast<long long>(stats.occupied_cells),
            static_cast<long long>(stats.cells_dense_pruned),
            static_cast<long long>(stats.cells_sparse_pruned),
            static_cast<long long>(stats.pairwise_evaluated));
      }
    }
    return 0;
  }

  auto scan_result = dbs::data::FileScan::Open(in, /*batch_rows=*/8192);
  if (!scan_result.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 scan_result.status().ToString().c_str());
    return 1;
  }
  dbs::data::FileScan& scan = **scan_result;

  // Fit and (for approx) detection run through the shard coordinator; each
  // shard streams its own slice from a fresh scan. shards=1 is the
  // unsharded pipeline, bitwise.
  std::unique_ptr<dbs::parallel::BatchExecutor> executor;
  if (workers > 0) {
    dbs::parallel::BatchExecutorOptions pool_opts;
    pool_opts.num_workers = static_cast<int>(workers);
    executor = std::make_unique<dbs::parallel::BatchExecutor>(pool_opts);
  }
  dbs::shard::ShardCoordinatorOptions coord_opts;
  coord_opts.shards = shards;
  coord_opts.executor = executor.get();
  dbs::shard::ShardCoordinator coordinator(
      [&in]() -> dbs::Result<std::unique_ptr<dbs::data::DataScan>> {
        auto opened = dbs::data::FileScan::Open(in, /*batch_rows=*/8192);
        if (!opened.ok()) return opened.status();
        return std::unique_ptr<dbs::data::DataScan>(std::move(*opened));
      },
      coord_opts);

  dbs::density::KdeOptions kde_opts;
  kde_opts.num_kernels = kernels;
  kde_opts.bandwidth_scale = bandwidth_scale;
  kde_opts.seed = seed;
  auto kde = coordinator.BuildKde(kde_opts);
  if (!kde.ok()) {
    std::fprintf(stderr, "kde failed: %s\n",
                 kde.status().ToString().c_str());
    return 1;
  }

  dbs::outlier::KdeDetectorOptions options;
  options.candidate_slack = slack;
  if (mode == "estimate") {
    auto estimate =
        dbs::outlier::EstimateOutlierCount(scan, *kde, params, options);
    if (!estimate.ok()) {
      std::fprintf(stderr, "estimation failed: %s\n",
                   estimate.status().ToString().c_str());
      return 1;
    }
    // The sharded fit runs on its own scans; +1 accounts for its logical
    // dataset pass, matching what scan.passes() reported when the fit
    // shared this scan.
    std::printf("estimated DB(%lld, %.4g)-outliers: %lld  (passes: %d)\n",
                static_cast<long long>(p), k,
                static_cast<long long>(*estimate), 1 + scan.passes());
    return 0;
  }
  if (mode != "approx") {
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
  }

  auto report = coordinator.DetectOutliers(*kde, params, options);
  if (!report.ok()) {
    std::fprintf(stderr, "detection failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "approx: %zu verified DB(%lld, %.4g)-outliers; candidates %lld, "
      "total passes %d (incl. estimator)\n",
      report->outlier_indices.size(), static_cast<long long>(p), k,
      static_cast<long long>(report->candidates_checked),
      1 + report->passes);
  for (size_t i = 0; i < report->outlier_indices.size(); ++i) {
    std::printf("  row %lld  neighbors %lld\n",
                static_cast<long long>(report->outlier_indices[i]),
                static_cast<long long>(report->neighbor_counts[i]));
  }
  return 0;
}
