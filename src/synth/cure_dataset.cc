#include "synth/cure_dataset.h"

#include <cmath>

#include "util/rng.h"

namespace dbs::synth {
namespace {

// Uniform point in a disc.
void UniformInDisc(Rng& rng, double cx, double cy, double r, double* out) {
  double angle = rng.NextDouble(0.0, 2.0 * M_PI);
  double radius = r * std::sqrt(rng.NextDouble());
  out[0] = cx + radius * std::cos(angle);
  out[1] = cy + radius * std::sin(angle);
}

// Uniform point in an axis-aligned ellipse.
void UniformInEllipse(Rng& rng, double cx, double cy, double ax, double ay,
                      double* out) {
  double angle = rng.NextDouble(0.0, 2.0 * M_PI);
  double radius = std::sqrt(rng.NextDouble());
  out[0] = cx + ax * radius * std::cos(angle);
  out[1] = cy + ay * radius * std::sin(angle);
}

}  // namespace

[[nodiscard]] Result<ClusteredDataset> MakeCureDataset1(const CureDatasetOptions& options) {
  if (options.num_points < 100) {
    return Status::InvalidArgument("dataset1 needs at least 100 points");
  }
  DBS_ASSIGN_OR_RETURN(const int64_t noise_count,
                       NoiseCount(options.noise_multiplier,
                                  options.num_points));
  Rng rng(options.seed);

  // Layout (unit square): a big circle on the left; two elongated ellipses
  // stacked closely on the upper right; two small circles side by side on
  // the lower right. Mimics the CURE figure the paper reuses: the paired
  // clusters sit close together (gaps of 0.02-0.03), which is what defeats
  // a small uniform sample — its sparse rendering of the big cluster has
  // internal gaps comparable to the pair separations, so the pairs merge
  // and the big cluster splits when the algorithm is forced to 5 clusters.
  const double big_cx = 0.28, big_cy = 0.45, big_r = 0.21;
  const double ell_ax = 0.17, ell_ay = 0.045;
  const double ell1_cx = 0.72;
  const double ell1_cy = 0.72 + ell_ay + options.ellipse_gap / 2;
  const double ell2_cx = 0.72;
  const double ell2_cy = 0.72 - ell_ay - options.ellipse_gap / 2;
  const double small_r = 0.06;
  const double s1_cy = 0.22, s2_cy = 0.22;
  const double s1_cx = 0.715 - small_r - options.circle_gap / 2;
  const double s2_cx = 0.715 + small_r + options.circle_gap / 2;

  // Share of points per cluster: the big circle dominates (that is what
  // makes uniform sampling split it while starving the others).
  const double shares[5] = {0.52, 0.16, 0.16, 0.08, 0.08};

  ClusteredDataset out;
  out.points = data::PointSet(2);
  out.truth.regions.push_back(Region::Ball({big_cx, big_cy}, big_r));
  out.truth.regions.push_back(
      Region::Ellipsoid({ell1_cx, ell1_cy}, {ell_ax, ell_ay}));
  out.truth.regions.push_back(
      Region::Ellipsoid({ell2_cx, ell2_cy}, {ell_ax, ell_ay}));
  out.truth.regions.push_back(Region::Ball({s1_cx, s1_cy}, small_r));
  out.truth.regions.push_back(Region::Ball({s2_cx, s2_cy}, small_r));

  out.points.Reserve(options.num_points + noise_count);

  double buf[2];
  for (int c = 0; c < 5; ++c) {
    int64_t count = static_cast<int64_t>(
        shares[c] * static_cast<double>(options.num_points));
    for (int64_t i = 0; i < count; ++i) {
      switch (c) {
        case 0:
          UniformInDisc(rng, big_cx, big_cy, big_r, buf);
          break;
        case 1:
          UniformInEllipse(rng, ell1_cx, ell1_cy, ell_ax, ell_ay, buf);
          break;
        case 2:
          UniformInEllipse(rng, ell2_cx, ell2_cy, ell_ax, ell_ay, buf);
          break;
        case 3:
          UniformInDisc(rng, s1_cx, s1_cy, small_r, buf);
          break;
        default:
          UniformInDisc(rng, s2_cx, s2_cy, small_r, buf);
          break;
      }
      out.points.Append(buf);
      out.truth.labels.push_back(c);
    }
  }
  for (int64_t i = 0; i < noise_count; ++i) {
    buf[0] = rng.NextDouble();
    buf[1] = rng.NextDouble();
    out.points.Append(buf);
    out.truth.labels.push_back(-1);
  }
  return out;
}

}  // namespace dbs::synth
