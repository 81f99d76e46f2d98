// Golden pins on graph ingest: the RMAT generator's edges and the bytes the
// grid and shard converters write. Dataset caches on disk are keyed by name
// and scale only, so any change to these bytes would silently mix old and new
// layouts; the pins make such a change fail loudly instead. They were taken
// from the comparison-sort converters and the branching RMAT descent, so the
// linear-time converters and the sliced generator must reproduce those bytes.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "grid/grid_store.hpp"
#include "shard/shard_store.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace graphm {
namespace {

using graph::Edge;
using graph::EdgeList;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t k = 0; k < bytes; ++k) {
    h ^= p[k];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void expect_edges_hash(const EdgeList& g, std::uint64_t want) {
  const std::uint64_t got = fnv1a(g.edges().data(), g.edges().size() * sizeof(Edge));
  EXPECT_EQ(got, want) << std::hex << "edges 0x" << got;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t hash_file(const std::string& path) {
  const std::string bytes = read_file(path);
  return fnv1a(bytes.data(), bytes.size());
}

// The .meta file with its preprocess_ns field (a wall time) zeroed: the
// header plus both block tables.
std::uint64_t hash_meta(const std::string& path) {
  std::string bytes = read_file(path + ".meta");
  constexpr std::size_t kPreprocessNsOffset = 4 + 4 + 8 + 4;  // magic, V, E, P
  EXPECT_GE(bytes.size(), kPreprocessNsOffset + 8);
  if (bytes.size() >= kPreprocessNsOffset + 8) {
    std::memset(bytes.data() + kPreprocessNsOffset, 0, 8);
  }
  return fnv1a(bytes.data(), bytes.size());
}

struct StoreHashes {
  std::uint64_t data;
  std::uint64_t deg;
  std::uint64_t meta;
};

StoreHashes hash_store(const std::string& path) {
  return {hash_file(path + ".data"), hash_file(path + ".deg"), hash_meta(path)};
}

// perfbench's twitter_s-shaped graph (scale 0.25): skewed RMAT with weights.
EdgeList twitter_shaped() {
  constexpr std::uint64_t kSeed = 0x7717'7e25;
  EdgeList g = graph::generate_rmat(10'425, 375'000, kSeed, graph::RmatParams{0.62, 0.19, 0.14});
  graph::randomize_weights(g, 1.0f, 64.0f, util::derive_stream_seed(kSeed, 1));
  return g;
}

StoreHashes grid_hashes(const EdgeList& g, std::uint32_t partitions, bool src_sort = true) {
  const std::string path = test::unique_temp_path("golden_grid");
  grid::GridStore::preprocess(g, partitions, path, src_sort);
  return hash_store(path);
}

StoreHashes shard_hashes(const EdgeList& g, std::uint32_t shards) {
  const std::string path = test::unique_temp_path("golden_shard");
  shard::ShardStore::preprocess(g, shards, path);
  return hash_store(path);
}

void expect_hashes(const StoreHashes& got, const StoreHashes& want) {
  EXPECT_EQ(got.data, want.data) << std::hex << ".data 0x" << got.data;
  EXPECT_EQ(got.deg, want.deg) << std::hex << ".deg 0x" << got.deg;
  EXPECT_EQ(got.meta, want.meta) << std::hex << ".meta 0x" << got.meta;
}

TEST(IngestGolden, RmatEdges) {
  const auto twitter = graph::generate_rmat(10'425, 375'000, 0x7717'7e25,
                                            graph::RmatParams{0.62, 0.19, 0.14});
  expect_edges_hash(twitter, 0x321bc40079bb9027ULL);
  const auto ukunion = graph::generate_rmat(6'680, 275'000, 0x0c0f'f1e5);
  expect_edges_hash(ukunion, 0xed354b4638e96504ULL);
  const auto small = graph::generate_rmat(1000, 5000, 42);
  expect_edges_hash(small, 0x42386e2fbaeaa6c2ULL);
}

TEST(IngestGolden, GridTwitterShaped) {
  const EdgeList g = twitter_shaped();
  expect_hashes(grid_hashes(g, 8),
                {0x3afd004e119da5a1ULL, 0x95f923f1c0789b69ULL, 0x77bcca1103c459baULL});
}

TEST(IngestGolden, GridWithoutSourceGrouping) {
  const EdgeList g = twitter_shaped();
  expect_hashes(grid_hashes(g, 8, /*src_sort=*/false),
                {0x898b39958515bac5ULL, 0x95f923f1c0789b69ULL, 0x77bcca1103c459baULL});
}

TEST(IngestGolden, GridPartitionsNotDividingVertices) {
  const EdgeList g = test::small_rmat(1000, 20'000, 11);
  expect_hashes(grid_hashes(g, 7),
                {0xf004e2021132274fULL, 0xc85c8c1b611a8eb4ULL, 0xc1913863added334ULL});
}

TEST(IngestGolden, GridOnePartitionPerVertex) {
  const EdgeList g = test::small_rmat(64, 3000, 5);
  expect_hashes(grid_hashes(g, 64),
                {0xe90e17d67c183ef4ULL, 0x4bba3f392b4836edULL, 0xdc861755cbe37d13ULL});
}

TEST(IngestGolden, GridEmptyGraph) {
  expect_hashes(grid_hashes(EdgeList(0, {}), 1),
                {0xcbf29ce484222325ULL, 0xcbf29ce484222325ULL, 0x354c92ae0064bd9aULL});
  expect_hashes(grid_hashes(EdgeList(40, {}), 4),
                {0xcbf29ce484222325ULL, 0x81b169c331cabfa5ULL, 0xd84fac7c24ed9f67ULL});
}

TEST(IngestGolden, ShardTwitterShaped) {
  const EdgeList g = twitter_shaped();
  expect_hashes(shard_hashes(g, 8),
                {0x69c5268a3db1cee5ULL, 0x95f923f1c0789b69ULL, 0x42ecaa06bfed6df8ULL});
}

TEST(IngestGolden, ShardPartitionsNotDividingVertices) {
  const EdgeList g = test::small_rmat(1000, 20'000, 11);
  expect_hashes(shard_hashes(g, 7),
                {0x198f9db4449ba28bULL, 0xc85c8c1b611a8eb4ULL, 0xb6c0866a7baf9574ULL});
}

TEST(IngestGolden, ShardOnePartitionPerVertex) {
  const EdgeList g = test::small_rmat(64, 3000, 5);
  expect_hashes(shard_hashes(g, 64),
                {0xd4b066621c3553dcULL, 0x4bba3f392b4836edULL, 0x80804765641c5ad5ULL});
}

TEST(IngestGolden, ShardEmptyGraph) {
  expect_hashes(shard_hashes(EdgeList(0, {}), 1),
                {0xcbf29ce484222325ULL, 0xcbf29ce484222325ULL, 0xd6a0fdcbaa7f02f8ULL});
  expect_hashes(shard_hashes(EdgeList(40, {}), 4),
                {0xcbf29ce484222325ULL, 0x81b169c331cabfa5ULL, 0xda69b3e9979cde85ULL});
}

TEST(RngJumpAhead, DiscardMatchesRepeatedNext) {
  for (const std::uint64_t n : {0ULL, 1ULL, 2ULL, 14ULL, 1000ULL, 123'457ULL}) {
    util::SplitMix64 jumped(99);
    util::SplitMix64 stepped(99);
    jumped.discard(n);
    for (std::uint64_t k = 0; k < n; ++k) stepped.next();
    for (int k = 0; k < 4; ++k) EXPECT_EQ(jumped.next(), stepped.next()) << "n = " << n;
  }
}

TEST(RngJumpAhead, DiscardsAdd) {
  util::SplitMix64 twice(5);
  twice.discard(1ULL << 40);
  twice.discard(3);
  util::SplitMix64 once(5);
  once.discard((1ULL << 40) + 3);
  EXPECT_EQ(twice.next(), once.next());
}

TEST(RmatSlices, AnySliceCountGivesTheSameEdges) {
  const graph::RmatParams params{0.62, 0.19, 0.14};
  // An edge count no slice count below divides evenly.
  const EdgeList one = graph::generate_rmat_sliced(5000, 100'003, 17, params, 1);
  EXPECT_EQ(one, graph::generate_rmat(5000, 100'003, 17, params));
  for (const unsigned slices : {2u, 3u, 7u}) {
    EXPECT_EQ(graph::generate_rmat_sliced(5000, 100'003, 17, params, slices), one)
        << slices << " slices";
  }
}

TEST(RmatSlices, MoreSlicesThanEdges) {
  const EdgeList one = graph::generate_rmat_sliced(100, 5, 3, graph::RmatParams{}, 1);
  EXPECT_EQ(graph::generate_rmat_sliced(100, 5, 3, graph::RmatParams{}, 7), one);
  EXPECT_EQ(graph::generate_rmat_sliced(100, 0, 3, graph::RmatParams{}, 7).num_edges(), 0u);
}

}  // namespace
}  // namespace graphm
