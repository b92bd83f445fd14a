// Serialization of fitted KDE models (.dbsk files).
//
// Fitting reads the whole dataset; the model itself is tiny (m centers +
// d bandwidths). Persisting it lets one expensive pass serve many later
// analyses — sampling runs with different exponents, outlier scoring with
// different (p, k), exploration from a notebook — without re-reading the
// data. Layout: fixed header (magic, version, kernel type, dims, counts,
// scalar parameters), then bandwidths, bounds and centers as float64.

#ifndef DBS_DENSITY_KDE_IO_H_
#define DBS_DENSITY_KDE_IO_H_

#include <string>

#include "density/kde.h"
#include "util/status.h"

namespace dbs::density {

inline constexpr uint32_t kKdeMagic = 0x4b534244;  // "DBSK" little-endian
inline constexpr uint32_t kKdeVersion = 1;

// Writes the fitted model to `path` (overwrites).
[[nodiscard]] Status SaveKde(const Kde& kde, const std::string& path);

// Loads a model saved by SaveKde; the loaded model evaluates bitwise like
// the saved one (Kde::FromState rebuilds the same evaluator).
[[nodiscard]] Result<Kde> LoadKde(const std::string& path);

}  // namespace dbs::density

#endif  // DBS_DENSITY_KDE_IO_H_
