#include "density/kde_io.h"

#include <cstdio>
#include <vector>

namespace dbs::density {
namespace {

struct KdeHeader {
  uint32_t magic;
  uint32_t version;
  uint32_t kernel;
  uint32_t dim;
  int64_t n;
  int64_t num_centers;
};
static_assert(sizeof(KdeHeader) == 32, "header must be 32 bytes");

bool WriteDoubles(std::FILE* f, const double* data, size_t count) {
  return count == 0 ||
         std::fwrite(data, sizeof(double), count, f) == count;
}

bool ReadDoubles(std::FILE* f, double* data, size_t count) {
  return count == 0 || std::fread(data, sizeof(double), count, f) == count;
}

}  // namespace

[[nodiscard]] Status SaveKde(const Kde& kde, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open for writing: " + path);
  }
  Kde::State state = kde.ExportState();
  const int dim = state.centers.dim();
  KdeHeader header{};
  header.magic = kKdeMagic;
  header.version = kKdeVersion;
  header.kernel = static_cast<uint32_t>(state.kernel);
  header.dim = static_cast<uint32_t>(dim);
  header.n = state.n;
  header.num_centers = state.centers.size();

  bool ok = std::fwrite(&header, sizeof(header), 1, f) == 1;
  ok = ok && WriteDoubles(f, state.bandwidths.data(),
                          state.bandwidths.size());
  ok = ok && WriteDoubles(f, state.bounds.lo().data(),
                          state.bounds.lo().size());
  ok = ok && WriteDoubles(f, state.bounds.hi().data(),
                          state.bounds.hi().size());
  ok = ok && WriteDoubles(f, state.centers.flat().data(),
                          state.centers.flat().size());
  if (std::fclose(f) != 0) ok = false;
  if (!ok) return Status::IoError("short write: " + path);
  return Status::Ok();
}

[[nodiscard]] Result<Kde> LoadKde(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open for reading: " + path);
  }
  KdeHeader header{};
  if (std::fread(&header, sizeof(header), 1, f) != 1) {
    std::fclose(f);
    return Status::IoError("truncated header: " + path);
  }
  if (header.magic != kKdeMagic) {
    std::fclose(f);
    return Status::InvalidArgument("not a .dbsk model file: " + path);
  }
  if (header.version != kKdeVersion) {
    std::fclose(f);
    return Status::InvalidArgument("unsupported .dbsk version");
  }
  if (header.dim == 0 || header.dim > 1024 || header.num_centers <= 0 ||
      header.n <= 0 ||
      header.kernel > static_cast<uint32_t>(KernelType::kGaussian)) {
    std::fclose(f);
    return Status::InvalidArgument("corrupt .dbsk header");
  }
  // Validate the promised payload against the actual file size before any
  // allocation sized from header fields.
  std::fseek(f, 0, SEEK_END);
  long actual_bytes = std::ftell(f);
  std::fseek(f, sizeof(KdeHeader), SEEK_SET);
  double expected_bytes =
      static_cast<double>(sizeof(KdeHeader)) +
      (3.0 * header.dim +
       static_cast<double>(header.num_centers) * header.dim) *
          sizeof(double);
  if (actual_bytes < 0 ||
      static_cast<double>(actual_bytes) < expected_bytes) {
    std::fclose(f);
    return Status::IoError("model file is shorter than its header claims: " +
                           path);
  }
  const int dim = static_cast<int>(header.dim);

  Kde::State state;
  state.n = header.n;
  state.kernel = static_cast<KernelType>(header.kernel);
  state.bandwidths.resize(dim);
  std::vector<double> lo(dim);
  std::vector<double> hi(dim);
  std::vector<double> centers(static_cast<size_t>(header.num_centers) * dim);
  bool ok = ReadDoubles(f, state.bandwidths.data(), dim);
  ok = ok && ReadDoubles(f, lo.data(), dim);
  ok = ok && ReadDoubles(f, hi.data(), dim);
  ok = ok && ReadDoubles(f, centers.data(), centers.size());
  std::fclose(f);
  if (!ok) return Status::IoError("truncated model file: " + path);

  for (int j = 0; j < dim; ++j) {
    if (!(lo[j] <= hi[j])) {
      return Status::InvalidArgument("corrupt bounds in model file");
    }
  }
  state.bounds = data::BoundingBox(std::move(lo), std::move(hi));
  state.centers = data::PointSet(dim);
  state.centers.Reserve(header.num_centers);
  for (int64_t i = 0; i < header.num_centers; ++i) {
    state.centers.Append(centers.data() + i * dim);
  }
  return Kde::FromState(std::move(state));
}

}  // namespace dbs::density
