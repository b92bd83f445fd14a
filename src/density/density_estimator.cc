#include "density/density_estimator.h"

namespace dbs::density {

void DensityEstimator::EvaluateRange(const double* rows, const double* selves,
                                     int64_t begin, int64_t end,
                                     double* out) const {
  const int d = dim();
  for (int64_t i = begin; i < end; ++i) {
    data::PointView p(rows + i * d, d);
    out[i] = selves == nullptr
                 ? Evaluate(p)
                 : EvaluateExcluding(p, data::PointView(selves + i * d, d));
  }
}

Status DensityEstimator::EvaluateRows(const double* rows, const double* selves,
                                      int64_t count, double* out,
                                      parallel::BatchExecutor* executor)
    const {
  if (count <= 0) return Status::Ok();
  auto shard = [&](int64_t begin, int64_t end) {
    EvaluateRange(rows, selves, begin, end, out);
  };
  if (executor != nullptr) return executor->ParallelFor(count, shard);
  shard(0, count);
  return Status::Ok();
}

}  // namespace dbs::density
