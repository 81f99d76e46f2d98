#include "shard/shard_store.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "graph/datasets.hpp"
#include "util/annotations.hpp"
#include "util/logging.hpp"

namespace graphm::shard {

namespace fs = std::filesystem;
using graph::Edge;

namespace {

constexpr std::uint32_t kMetaMagic = 0x53684431;  // "ShD1"

std::uint32_t file_id_for_path(const std::string& path) {
  static graphm::Mutex mutex;
  static std::unordered_map<std::string, std::uint32_t> ids;
  static std::atomic<std::uint32_t> counter{10000};  // distinct from grid ids
  graphm::MutexLock lock(mutex);
  auto [it, inserted] = ids.try_emplace(path, 0);
  if (inserted) it->second = counter.fetch_add(1);
  return it->second;
}

}  // namespace

std::uint64_t ShardStore::preprocess(const graph::EdgeList& graph, std::uint32_t num_shards,
                                     const std::string& path) {
  if (num_shards == 0) throw std::invalid_argument("ShardStore: num_shards == 0");
  const storage::StoreLayout layout{num_shards, /*partitions_by_source=*/false,
                                    /*src_sort=*/true};
  return storage::write_store(graph, layout, kMetaMagic, path, "ShardStore");
}

ShardStore ShardStore::open(const std::string& path) {
  return ShardStore(storage::read_store_meta(path, kMetaMagic, /*partitions_by_source=*/false,
                                             "ShardStore"),
                    path, file_id_for_path(path));
}

ShardStore::ShardStore(storage::StoreMeta meta, std::string path, std::uint32_t file_id)
    : meta_(std::move(meta)),
      path_(std::move(path)),
      file_id_(file_id),
      data_file_(path_ + ".data", "ShardStore") {}

std::uint64_t ShardStore::read_partition(std::uint32_t i, std::vector<Edge>& out,
                                         sim::Platform& platform, std::uint32_t job_id) const {
  const graph::EdgeCount count = meta_.partition_edges(i);
  out.resize(count);
  return read_edges(i, 0, count, out.data(), platform, job_id);
}

std::uint64_t ShardStore::read_edges(std::uint32_t i, graph::EdgeCount first_edge,
                                     graph::EdgeCount count, Edge* out, sim::Platform& platform,
                                     std::uint32_t job_id) const {
  if (count == 0) return 0;
  const std::uint64_t offset = meta_.partition_offset(i) + first_edge * sizeof(Edge);
  const std::uint64_t bytes = count * sizeof(Edge);
  if (!data_file_.read_exact(out, bytes, offset)) {
    throw std::runtime_error("ShardStore: read failed on " + path_);
  }
  return platform.page_cache().read(file_id_, offset, bytes, job_id);
}

std::vector<std::uint32_t> ShardStore::load_out_degrees() const {
  return storage::read_degrees(path_, meta_.num_vertices, "ShardStore");
}

ShardStore open_dataset_shards(const std::string& dataset, std::uint32_t num_shards,
                               double scale) {
  const std::string edge_path = graph::dataset_path(dataset, scale);
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), "_%.4f_s%u.shard", scale, num_shards);
  const std::string shard_path =
      (fs::path(graph::dataset_cache_dir()) / (dataset + std::string(suffix))).string();

  static graphm::Mutex mutex;
  graphm::MutexLock lock(mutex);
  if (!fs::exists(shard_path + ".meta") || !fs::exists(shard_path + ".data")) {
    GRAPHM_INFO("preprocessing shards for " << dataset << " P=" << num_shards);
    ShardStore::preprocess(graph::EdgeList::load(edge_path), num_shards, shard_path);
  }
  return ShardStore::open(shard_path);
}

}  // namespace graphm::shard
