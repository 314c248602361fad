#include "io/tile_store.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "io/npy.h"

namespace tfhpc::io {
namespace {

constexpr char kManifestName[] = "manifest.txt";

Status WriteManifest(const std::string& dir, const TileStoreManifest& m) {
  std::ofstream f(dir + "/" + kManifestName, std::ios::trunc);
  if (!f) return Unavailable("cannot write manifest in " + dir);
  f << "rows " << m.rows << "\ncols " << m.cols << "\ntile_rows " << m.tile_rows
    << "\ntile_cols " << m.tile_cols << "\ndtype " << DTypeName(m.dtype)
    << "\n";
  return Status::OK();
}

Result<TileStoreManifest> ReadManifest(const std::string& dir) {
  std::ifstream f(dir + "/" + kManifestName);
  if (!f) return NotFound("no manifest in " + dir);
  TileStoreManifest m;
  std::string key, value;
  while (f >> key >> value) {
    if (key == "rows") m.rows = std::stoll(value);
    else if (key == "cols") m.cols = std::stoll(value);
    else if (key == "tile_rows") m.tile_rows = std::stoll(value);
    else if (key == "tile_cols") m.tile_cols = std::stoll(value);
    else if (key == "dtype") m.dtype = DTypeFromName(value);
  }
  if (m.rows <= 0 || m.cols <= 0 || m.tile_rows <= 0 || m.tile_cols <= 0 ||
      m.dtype == DType::kInvalid) {
    return InvalidArgument("corrupt manifest in " + dir);
  }
  return m;
}

template <typename T>
void CopyBlock(const Tensor& src, Tensor& dst, int64_t src_r0, int64_t src_c0,
               int64_t dst_r0, int64_t dst_c0, int64_t nrows, int64_t ncols) {
  const int64_t sw = src.shape().dim(1);
  const int64_t dw = dst.shape().dim(1);
  const T* s = src.data<T>().data();
  T* d = dst.mutable_data<T>();
  for (int64_t r = 0; r < nrows; ++r) {
    std::memcpy(d + (dst_r0 + r) * dw + dst_c0,
                s + (src_r0 + r) * sw + src_c0,
                static_cast<size_t>(ncols) * sizeof(T));
  }
}

void CopyBlockDyn(const Tensor& src, Tensor& dst, int64_t src_r0, int64_t src_c0,
                  int64_t dst_r0, int64_t dst_c0, int64_t nrows, int64_t ncols) {
  switch (src.dtype()) {
    case DType::kF32:
      CopyBlock<float>(src, dst, src_r0, src_c0, dst_r0, dst_c0, nrows, ncols);
      break;
    case DType::kF64:
      CopyBlock<double>(src, dst, src_r0, src_c0, dst_r0, dst_c0, nrows, ncols);
      break;
    case DType::kC128:
      CopyBlock<std::complex<double>>(src, dst, src_r0, src_c0, dst_r0, dst_c0,
                                      nrows, ncols);
      break;
    default:
      TFHPC_CHECK(false) << "TileStore: unsupported dtype";
  }
}

}  // namespace

Result<TileStore> TileStore::Create(const std::string& dir,
                                    const Tensor& matrix, int64_t tile_rows,
                                    int64_t tile_cols) {
  if (!matrix.shape().IsMatrix()) {
    return InvalidArgument("TileStore::Create needs a rank-2 tensor, got " +
                           matrix.shape().ToString());
  }
  if (tile_rows <= 0 || tile_cols <= 0) {
    return InvalidArgument("TileStore::Create: non-positive tile size");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Unavailable("cannot create dir " + dir + ": " + ec.message());

  TileStoreManifest m;
  m.rows = matrix.shape().dim(0);
  m.cols = matrix.shape().dim(1);
  m.tile_rows = tile_rows;
  m.tile_cols = tile_cols;
  m.dtype = matrix.dtype();
  TileStore store(dir, m);

  for (int64_t tr = 0; tr < m.grid_rows(); ++tr) {
    for (int64_t tc = 0; tc < m.grid_cols(); ++tc) {
      const int64_t r0 = tr * tile_rows;
      const int64_t c0 = tc * tile_cols;
      const int64_t nr = std::min(tile_rows, m.rows - r0);
      const int64_t nc = std::min(tile_cols, m.cols - c0);
      TFHPC_ASSIGN_OR_RETURN(
          Tensor tile, Tensor::TryCreate(matrix.dtype(), Shape{nr, nc}));
      CopyBlockDyn(matrix, tile, r0, c0, 0, 0, nr, nc);
      TFHPC_RETURN_IF_ERROR(SaveNpy(store.TilePath(tr, tc), tile));
    }
  }
  TFHPC_RETURN_IF_ERROR(WriteManifest(dir, m));
  return store;
}

Result<TileStore> TileStore::Open(const std::string& dir) {
  TFHPC_ASSIGN_OR_RETURN(TileStoreManifest m, ReadManifest(dir));
  return TileStore(dir, m);
}

std::string TileStore::TilePath(int64_t tr, int64_t tc) const {
  std::ostringstream os;
  os << dir_ << "/tile_" << tr << "_" << tc << ".npy";
  return os.str();
}

Result<Tensor> TileStore::LoadTile(int64_t tr, int64_t tc) const {
  if (tr < 0 || tr >= manifest_.grid_rows() || tc < 0 ||
      tc >= manifest_.grid_cols()) {
    return OutOfRange("tile index (" + std::to_string(tr) + "," +
                      std::to_string(tc) + ") outside grid");
  }
  return LoadNpy(TilePath(tr, tc));
}

Status TileStore::StoreTile(int64_t tr, int64_t tc, const Tensor& t) const {
  return SaveNpy(TilePath(tr, tc), t);
}

Result<Tensor> TileStore::Assemble() const {
  TFHPC_ASSIGN_OR_RETURN(
      Tensor out, Tensor::TryCreate(manifest_.dtype,
                                    Shape{manifest_.rows, manifest_.cols}));
  for (int64_t tr = 0; tr < manifest_.grid_rows(); ++tr) {
    for (int64_t tc = 0; tc < manifest_.grid_cols(); ++tc) {
      TFHPC_ASSIGN_OR_RETURN(Tensor tile, LoadTile(tr, tc));
      CopyBlockDyn(tile, out, 0, 0, tr * manifest_.tile_rows,
                   tc * manifest_.tile_cols, tile.shape().dim(0),
                   tile.shape().dim(1));
    }
  }
  return out;
}

std::vector<Tensor> InterleaveSplit(const Tensor& signal, int64_t num_tiles) {
  TFHPC_CHECK(signal.shape().IsVector());
  TFHPC_CHECK_EQ(signal.dtype(), DType::kC128);
  const int64_t n = signal.num_elements();
  TFHPC_CHECK_EQ(n % num_tiles, 0)
      << "signal length " << n << " not divisible by " << num_tiles;
  const int64_t m = n / num_tiles;
  const auto src = signal.data<std::complex<double>>();
  std::vector<Tensor> tiles;
  tiles.reserve(static_cast<size_t>(num_tiles));
  for (int64_t k = 0; k < num_tiles; ++k) {
    Tensor t(DType::kC128, Shape{m});
    auto* d = t.mutable_data<std::complex<double>>();
    for (int64_t i = 0; i < m; ++i) {
      d[i] = src[static_cast<size_t>(k + i * num_tiles)];
    }
    tiles.push_back(std::move(t));
  }
  return tiles;
}

Result<Tensor> InterleaveMerge(const std::vector<Tensor>& tiles) {
  if (tiles.empty()) return InvalidArgument("InterleaveMerge: no tiles");
  const int64_t num_tiles = static_cast<int64_t>(tiles.size());
  const int64_t m = tiles[0].num_elements();
  for (const auto& t : tiles) {
    if (t.dtype() != DType::kC128 || t.num_elements() != m) {
      return InvalidArgument("InterleaveMerge: inconsistent tiles");
    }
  }
  TFHPC_ASSIGN_OR_RETURN(Tensor out,
                         Tensor::TryCreate(DType::kC128, Shape{m * num_tiles}));
  auto* d = out.mutable_data<std::complex<double>>();
  for (int64_t k = 0; k < num_tiles; ++k) {
    const auto src = tiles[static_cast<size_t>(k)].data<std::complex<double>>();
    for (int64_t i = 0; i < m; ++i) {
      d[k + i * num_tiles] = src[static_cast<size_t>(i)];
    }
  }
  return out;
}

}  // namespace tfhpc::io
