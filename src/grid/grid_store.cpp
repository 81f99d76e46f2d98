#include "grid/grid_store.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

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
  return GridStore(storage::read_store_meta(path, kMetaMagic, /*partitions_by_source=*/true,
                                            "GridStore"),
                   path, file_id_for_path(path));
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
