// Shared helpers for the test suite: temporary stores built from generated
// graphs, plus small comparison utilities.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "grid/grid_store.hpp"
#include "shard/shard_store.hpp"

namespace graphm::test {

inline std::string unique_temp_path(const std::string& tag) {
  static std::atomic<std::uint64_t> counter{0};
  const auto dir = std::filesystem::temp_directory_path() / "graphm_tests";
  std::filesystem::create_directories(dir);
  return (dir / (tag + "_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter.fetch_add(1))))
      .string();
}

/// Preprocesses `graph` into a fresh temporary grid and opens it.
inline grid::GridStore make_grid(const graph::EdgeList& graph, std::uint32_t partitions) {
  const std::string path = unique_temp_path("grid");
  grid::GridStore::preprocess(graph, partitions, path);
  return grid::GridStore::open(path);
}

/// Preprocesses `graph` into fresh temporary shards and opens them.
inline shard::ShardStore make_shards(const graph::EdgeList& graph, std::uint32_t shards) {
  const std::string path = unique_temp_path("shard");
  shard::ShardStore::preprocess(graph, shards, path);
  return shard::ShardStore::open(path);
}

/// FNV-1a over the eight little-endian bytes of `value`, folded into `hash`.
/// Golden pins fold fields one at a time so struct padding never leaks in.
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline std::uint64_t fnv1a_u64(std::uint64_t value, std::uint64_t hash = kFnvOffset) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFu;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Pin of a ClusterService run's per-job terminal records: every field of
/// every cluster::JobReport, in submission order.
template <typename Report>
std::uint64_t job_reports_hash(const std::vector<Report>& reports) {
  std::uint64_t hash = kFnvOffset;
  for (const Report& r : reports) {
    for (const std::uint64_t field :
         {std::uint64_t{r.job}, static_cast<std::uint64_t>(r.outcome), std::uint64_t{r.shard},
          std::uint64_t{r.backend}, std::uint64_t{r.attempts}, r.completion_ns}) {
      hash = fnv1a_u64(field, hash);
    }
  }
  return hash;
}

/// A small skewed test graph (deterministic).
inline graph::EdgeList small_rmat(graph::VertexId vertices = 512,
                                  graph::EdgeCount edges = 4096, std::uint64_t seed = 7) {
  auto g = graph::generate_rmat(vertices, edges, seed);
  graph::randomize_weights(g, 1.0f, 16.0f, seed * 31);
  return g;
}

}  // namespace graphm::test
