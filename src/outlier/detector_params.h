// Shared (rows, params) validation for the DB(p,k) detectors.
//
// Every detector — kd-tree (DetectOutliersExact), cell list
// (DetectOutliersCellList), nested loop (DetectOutliersNestedLoop) and the
// KDE detector's entry points — accepts the same inputs and must reject the
// same degenerate ones with the same messages, so the checks live here
// rather than being re-stated (and drifting) per detector.

#ifndef DBS_OUTLIER_DETECTOR_PARAMS_H_
#define DBS_OUTLIER_DETECTOR_PARAMS_H_

#include <cmath>
#include <cstdint>

#include "outlier/db_outlier.h"
#include "util/status.h"

namespace dbs::outlier {

// Rejects negative radii and non-finite ones (NaN or infinity), which no
// ball integral, grid side or distance comparison can use.
[[nodiscard]] inline Status ValidateRadius(double radius) {
  if (radius < 0) {
    return Status::InvalidArgument("radius cannot be negative");
  }
  if (!std::isfinite(radius)) {
    return Status::InvalidArgument("radius must be finite");
  }
  return Status::Ok();
}

// Rejects empty inputs (`rows` is the dataset's row count), bad radii and
// out-of-range neighbor bounds. A negative fraction (-inf included) means
// "use max_neighbors"; a NaN one is an error, not that sentinel.
[[nodiscard]] inline Status ValidateDetectorArgs(
    int64_t rows, const DbOutlierParams& params) {
  if (rows == 0) {
    return Status::InvalidArgument("cannot detect outliers in an empty set");
  }
  DBS_RETURN_IF_ERROR(ValidateRadius(params.radius));
  if (params.max_neighbor_fraction < 0 && params.max_neighbors < 0) {
    return Status::InvalidArgument("neighbor bound cannot be negative");
  }
  if (params.max_neighbor_fraction > 1) {
    return Status::InvalidArgument("neighbor fraction cannot exceed 1");
  }
  if (std::isnan(params.max_neighbor_fraction)) {
    return Status::InvalidArgument("neighbor fraction cannot be NaN");
  }
  return Status::Ok();
}

}  // namespace dbs::outlier

#endif  // DBS_OUTLIER_DETECTOR_PARAMS_H_
