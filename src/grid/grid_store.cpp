#include "grid/grid_store.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "graph/datasets.hpp"
#include "util/annotations.hpp"
#include "util/logging.hpp"

namespace graphm::grid {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMetaMagic = 0x47724431;  // "GrD1"

std::uint32_t next_file_id() {
  static std::atomic<std::uint32_t> counter{1};
  return counter.fetch_add(1);
}

// The simulated page cache keys pages by (file_id, page); file ids must be
// stable per path within a process so -S/-C/-M schemes contend for the same
// simulated pages.
std::uint32_t file_id_for_path(const std::string& path) {
  static graphm::Mutex mutex;
  static std::unordered_map<std::string, std::uint32_t> ids;
  graphm::MutexLock lock(mutex);
  auto [it, inserted] = ids.try_emplace(path, 0);
  if (inserted) it->second = next_file_id();
  return it->second;
}

}  // namespace

std::uint64_t GridStore::preprocess(const graph::EdgeList& graph, std::uint32_t num_partitions,
                                    const std::string& path, bool src_sort) {
  if (num_partitions == 0) throw std::invalid_argument("GridStore: num_partitions == 0");
  const storage::StoreLayout layout{num_partitions, /*partitions_by_source=*/true, src_sort};
  return storage::write_store(graph, layout, kMetaMagic, path, "GridStore");
}

GridStore GridStore::open(const std::string& path) {
  const std::string meta_path = path + ".meta";
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(meta_path.c_str(), "rb"),
                                                          &std::fclose);
  if (f == nullptr) throw std::runtime_error("GridStore: cannot open " + meta_path);
  const auto read = [&f](void* dst, std::size_t bytes) {
    return std::fread(dst, 1, bytes, f.get()) == bytes;
  };
  const auto corrupt = [&path](const std::string& why) {
    return std::runtime_error("GridStore: corrupt " + path + ": " + why);
  };

  // Every check runs here, once, so the read paths can trust the meta.
  GridMeta meta;
  std::uint32_t magic = 0;
  if (!read(&magic, sizeof(magic)) || magic != kMetaMagic ||
      !read(&meta.num_vertices, sizeof(meta.num_vertices)) ||
      !read(&meta.num_edges, sizeof(meta.num_edges)) ||
      !read(&meta.num_partitions, sizeof(meta.num_partitions)) ||
      !read(&meta.preprocess_ns, sizeof(meta.preprocess_ns))) {
    throw corrupt("bad meta header");
  }
  const std::uint32_t partitions = meta.num_partitions;
  if (partitions == 0 || partitions > std::max<VertexId>(1, meta.num_vertices)) {
    throw corrupt("num_partitions " + std::to_string(partitions) +
                  " outside [1, max(1, num_vertices)]");
  }
  // The meta file must hold exactly the two P x P block arrays, so a corrupt
  // P is rejected before it sizes an allocation.
  const std::size_t cells = static_cast<std::size_t>(partitions) * partitions;
  constexpr std::uint64_t kHeaderBytes = sizeof(magic) + sizeof(meta.num_vertices) +
                                         sizeof(meta.num_edges) + sizeof(meta.num_partitions) +
                                         sizeof(meta.preprocess_ns);
  constexpr std::uint64_t kCellBytes = 2 * sizeof(std::uint64_t);
  std::error_code ec;
  const std::uint64_t table_bytes = fs::file_size(meta_path, ec) - kHeaderBytes;
  if (ec || table_bytes % kCellBytes != 0 || table_bytes / kCellBytes != cells) {
    throw corrupt("meta size does not match num_partitions");
  }
  meta.blocks_per_partition = partitions;
  meta.block_offsets.resize(cells);
  meta.block_edges.resize(cells);
  if (!read(meta.block_offsets.data(), cells * sizeof(std::uint64_t)) ||
      !read(meta.block_edges.data(), cells * sizeof(std::uint64_t))) {
    throw corrupt("truncated block table");
  }

  // Blocks tile the data file row-major: each starts where the previous one
  // ended (a partition is one contiguous read) and none runs past the end.
  const std::uint64_t data_bytes = fs::file_size(path + ".data", ec);
  if (ec) throw std::runtime_error("GridStore: cannot open " + path + ".data");
  std::uint64_t end = 0;
  EdgeCount edges = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    if (meta.block_offsets[c] != end) throw corrupt("block offsets not ascending and contiguous");
    if (meta.block_edges[c] > (data_bytes - end) / sizeof(Edge)) {
      throw corrupt("block runs past the end of the .data file");
    }
    end += meta.block_edges[c] * sizeof(Edge);
    edges += meta.block_edges[c];
  }
  if (edges != meta.num_edges) throw corrupt("block edge counts do not sum to num_edges");

  // A missing .deg only fails load_out_degrees; one of the wrong size is a
  // corrupt store.
  const std::string deg_path = path + ".deg";
  if (fs::exists(deg_path, ec) &&
      fs::file_size(deg_path, ec) != std::uint64_t{meta.num_vertices} * sizeof(std::uint32_t)) {
    throw corrupt(".deg size does not match num_vertices");
  }
  return GridStore(std::move(meta), path, file_id_for_path(path));
}

GridStore::GridStore(GridMeta meta, std::string path, std::uint32_t file_id)
    : meta_(std::move(meta)),
      path_(std::move(path)),
      file_id_(file_id),
      data_file_(path_ + ".data", "GridStore") {}

std::uint64_t GridStore::read_partition(std::uint32_t i, std::vector<Edge>& out,
                                        sim::Platform& platform, std::uint32_t job_id) const {
  const EdgeCount count = meta_.partition_edges(i);
  out.resize(count);
  return read_edges(i, 0, count, out.data(), platform, job_id);
}

std::uint64_t GridStore::read_edges(std::uint32_t i, EdgeCount first_edge, EdgeCount count,
                                    Edge* out, sim::Platform& platform,
                                    std::uint32_t job_id) const {
  if (count == 0) return 0;
  const std::uint64_t offset = meta_.partition_offset(i) + first_edge * sizeof(Edge);
  const std::uint64_t bytes = count * sizeof(Edge);

  // Real read (the data must actually flow — algorithms consume it).
  if (!data_file_.read_exact(out, bytes, offset)) {
    throw std::runtime_error("GridStore: read failed on " + path_);
  }

  // Simulated cost.
  return platform.page_cache().read(file_id_, offset, bytes, job_id);
}

std::vector<std::uint32_t> GridStore::load_out_degrees() const {
  return storage::read_degrees(path_, meta_.num_vertices, "GridStore");
}

GridStore open_dataset_grid(const std::string& dataset, std::uint32_t num_partitions,
                            double scale) {
  const std::string edge_path = graph::dataset_path(dataset, scale);
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), "_%.4f_p%u.grid", scale, num_partitions);
  const std::string grid_path =
      (fs::path(graph::dataset_cache_dir()) / (dataset + std::string(suffix))).string();

  static graphm::Mutex mutex;
  graphm::MutexLock lock(mutex);
  if (!fs::exists(grid_path + ".meta") || !fs::exists(grid_path + ".data")) {
    GRAPHM_INFO("preprocessing grid for " << dataset << " P=" << num_partitions);
    GridStore::preprocess(graph::EdgeList::load(edge_path), num_partitions, grid_path);
  }
  return GridStore::open(grid_path);
}

}  // namespace graphm::grid
