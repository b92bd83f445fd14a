#include "outlier/exact_detector.h"

#include <vector>

#include "data/distance.h"
#include "data/kd_tree.h"
#include "outlier/detector_params.h"
#include "parallel/batch_executor.h"

namespace dbs::outlier {

[[nodiscard]] Result<OutlierReport> DetectOutliersExact(const data::PointSet& points,
                                          const DbOutlierParams& params) {
  return DetectOutliersExact(points, params, ExactDetectorOptions{});
}

[[nodiscard]] Result<OutlierReport> DetectOutliersExact(
    const data::PointSet& points, const DbOutlierParams& params,
    const ExactDetectorOptions& options) {
  DBS_RETURN_IF_ERROR(ValidateDetectorArgs(points.size(), params));
  const int64_t n = points.size();
  const int64_t p = params.NeighborBound(n);

  data::KdTree tree(&points);
  // Per-point neighbor counts land in disjoint slots, so the counting pass
  // shards freely; the report is assembled afterwards in index order,
  // making the output identical at any worker count.
  std::vector<int64_t> neighbor_counts(static_cast<size_t>(n));
  auto count_range = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      // Count includes the point itself; abort once p+1 OTHER neighbors
      // are certain (i.e. p+2 counting self).
      int64_t count = tree.CountWithinRadiusMetric(points[i], params.radius,
                                                   params.metric,
                                                   /*cap=*/p + 1);
      neighbor_counts[static_cast<size_t>(i)] = count - 1;  // exclude self
    }
  };
  if (options.executor != nullptr) {
    DBS_RETURN_IF_ERROR(options.executor->ParallelFor(n, count_range));
  } else {
    count_range(0, n);
  }

  OutlierReport report;
  report.passes = 1;
  for (int64_t i = 0; i < n; ++i) {
    int64_t neighbors = neighbor_counts[static_cast<size_t>(i)];
    if (neighbors <= p) {
      report.outlier_indices.push_back(i);
      report.neighbor_counts.push_back(neighbors);
    }
  }
  report.candidates_checked = n;
  return report;
}

[[nodiscard]] Result<OutlierReport> DetectOutliersNestedLoop(const data::PointSet& points,
                                               const DbOutlierParams& params) {
  return DetectOutliersNestedLoop(points, params, ExactDetectorOptions{});
}

[[nodiscard]] Result<OutlierReport> DetectOutliersNestedLoop(
    const data::PointSet& points, const DbOutlierParams& params,
    const ExactDetectorOptions& options) {
  DBS_RETURN_IF_ERROR(ValidateDetectorArgs(points.size(), params));
  const int64_t n = points.size();
  const int64_t p = params.NeighborBound(n);

  // Same disjoint-slot pattern as the kd-tree path: each outer-loop index
  // owns one count slot, the early abort leaves p+1 in it (> p, so the
  // ascending assembly below skips the point), and the report comes out
  // byte-identical at any worker count.
  std::vector<int64_t> neighbor_counts(static_cast<size_t>(n));
  auto scan_range = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      int64_t neighbors = 0;
      for (int64_t j = 0; j < n; ++j) {
        if (j == i) continue;
        if (data::Distance(points[i], points[j], params.metric) <=
            params.radius) {
          ++neighbors;
          if (neighbors > p) break;
        }
      }
      neighbor_counts[static_cast<size_t>(i)] = neighbors;
    }
  };
  if (options.executor != nullptr) {
    DBS_RETURN_IF_ERROR(options.executor->ParallelFor(n, scan_range));
  } else {
    scan_range(0, n);
  }

  OutlierReport report;
  report.passes = 1;
  for (int64_t i = 0; i < n; ++i) {
    int64_t neighbors = neighbor_counts[static_cast<size_t>(i)];
    if (neighbors <= p) {
      report.outlier_indices.push_back(i);
      report.neighbor_counts.push_back(neighbors);
    }
  }
  report.candidates_checked = n;
  return report;
}

}  // namespace dbs::outlier
