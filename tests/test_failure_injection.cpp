// Failure injection: corrupt or missing on-disk state and invalid arguments
// must fail loudly (exceptions), never silently return wrong graphs.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>

#include "graph/datasets.hpp"
#include "sim/cache_sim.hpp"
#include "test_helpers.hpp"

namespace graphm {
namespace {

namespace fs = std::filesystem;

void write_bytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

TEST(FailureInjection, GridOpenMissingFilesThrows) {
  EXPECT_THROW(grid::GridStore::open(test::unique_temp_path("nope")), std::runtime_error);
}

TEST(FailureInjection, GridOpenCorruptMetaThrows) {
  const std::string path = test::unique_temp_path("corrupt_grid");
  write_bytes(path + ".meta", "garbage that is not a grid meta header");
  write_bytes(path + ".data", "");
  EXPECT_THROW(grid::GridStore::open(path), std::runtime_error);
}

TEST(FailureInjection, GridOpenTruncatedMetaThrows) {
  const auto g = test::small_rmat(64, 500);
  const std::string path = test::unique_temp_path("trunc_grid");
  grid::GridStore::preprocess(g, 2, path);
  // Truncate the meta file to half its size.
  const auto size = fs::file_size(path + ".meta");
  fs::resize_file(path + ".meta", size / 2);
  EXPECT_THROW(grid::GridStore::open(path), std::runtime_error);
}

TEST(FailureInjection, GridReadPastTruncatedDataThrows) {
  const auto g = test::small_rmat(64, 500);
  const std::string path = test::unique_temp_path("trunc_data");
  grid::GridStore::preprocess(g, 2, path);
  // Truncated after open (open itself rejects a .data shorter than the
  // meta's blocks), so the read path must notice the short read.
  const auto store = grid::GridStore::open(path);
  fs::resize_file(path + ".data", 10);
  sim::Platform platform;
  std::vector<graph::Edge> buffer;
  EXPECT_THROW(store.read_partition(0, buffer, platform, 0), std::runtime_error);
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

template <typename T>
void poke(std::string& bytes, std::size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

template <typename T>
T peek(const std::string& bytes, std::size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

TEST(FailureInjection, GridOpenRejectsEachCorruptMetaCopy) {
  // A valid 2x2 grid, then one corrupted copy per open-time check. Meta
  // layout: magic u32 | num_vertices u32 | num_edges u64 | num_partitions
  // u32 | preprocess_ns u64 | block_offsets u64[P*P] | block_edges u64[P*P].
  constexpr std::size_t kNumVertices = 4;
  constexpr std::size_t kNumEdges = 8;
  constexpr std::size_t kNumPartitions = 16;
  constexpr std::size_t kOffsets = 28;
  const auto g = test::small_rmat(64, 500);
  const std::string good = test::unique_temp_path("grid_good");
  grid::GridStore::preprocess(g, 2, good);
  ASSERT_NO_THROW(grid::GridStore::open(good));
  const std::string meta = read_bytes(good + ".meta");
  const std::string data = read_bytes(good + ".data");
  const std::string deg = read_bytes(good + ".deg");
  ASSERT_GT(peek<std::uint64_t>(meta, kOffsets + 8), 0u) << "block (0,1) must start past 0";

  // Each copy must be rejected by the check named in `reason`, not by one
  // that happens to fire first.
  const auto expect_rejected = [&](const std::string& reason,
                                   const std::function<void(std::string&, std::string&,
                                                            std::string&)>& corrupt) {
    std::string m = meta;
    std::string d = data;
    std::string dg = deg;
    corrupt(m, d, dg);
    const std::string path = test::unique_temp_path("grid_corrupt");
    write_bytes(path + ".meta", m);
    write_bytes(path + ".data", d);
    write_bytes(path + ".deg", dg);
    try {
      grid::GridStore::open(path);
      ADD_FAILURE() << "open accepted a store with: " << reason;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
          << "expected '" << reason << "', got: " << e.what();
    }
  };

  const std::string bad_p = "outside [1, max(1, num_vertices)]";
  expect_rejected(bad_p, [](std::string& m, std::string&, std::string&) {
    poke<std::uint32_t>(m, kNumPartitions, 0);
  });
  expect_rejected(bad_p, [](std::string& m, std::string&, std::string&) {
    poke<std::uint32_t>(m, kNumPartitions, peek<std::uint32_t>(m, kNumVertices) + 1);
  });
  expect_rejected("meta size does not match num_partitions", [](std::string& m, std::string&,
                                                                std::string&) {
    // Within [1, num_vertices] once num_vertices is raised too: only the
    // meta-size check stops a 4096^2-cell allocation.
    poke<std::uint32_t>(m, kNumVertices, 1u << 20);
    poke<std::uint32_t>(m, kNumPartitions, 4096);
  });
  expect_rejected("block offsets not ascending", [](std::string& m, std::string&, std::string&) {
    poke<std::uint64_t>(m, kOffsets + 2 * 8, 0);
  });
  expect_rejected("past the end of the .data file", [](std::string&, std::string& d,
                                                      std::string&) {
    d.resize(d.size() - sizeof(graph::Edge));
  });
  expect_rejected("do not sum to num_edges", [](std::string& m, std::string&, std::string&) {
    poke<std::uint64_t>(m, kNumEdges, peek<std::uint64_t>(m, kNumEdges) + 1);
  });
  expect_rejected(".deg size does not match", [](std::string&, std::string&, std::string& dg) {
    dg.append(sizeof(std::uint32_t), '\0');
  });
}

TEST(FailureInjection, MissingDegreeFileThrows) {
  const auto g = test::small_rmat(64, 500);
  const std::string path = test::unique_temp_path("nodeg");
  grid::GridStore::preprocess(g, 2, path);
  fs::remove(path + ".deg");
  const auto store = grid::GridStore::open(path);
  EXPECT_THROW(store.load_out_degrees(), std::runtime_error);
}

TEST(FailureInjection, ShardOpenCorruptMetaThrows) {
  const std::string path = test::unique_temp_path("corrupt_shard");
  write_bytes(path + ".meta", "not a shard header either");
  write_bytes(path + ".data", "");
  EXPECT_THROW(shard::ShardStore::open(path), std::runtime_error);
}

TEST(FailureInjection, GridMetaIsNotAValidShardMeta) {
  // Magic numbers differ: opening a grid as shards must fail, not misread.
  const auto g = test::small_rmat(64, 500);
  const std::string path = test::unique_temp_path("cross_format");
  grid::GridStore::preprocess(g, 2, path);
  EXPECT_THROW(shard::ShardStore::open(path), std::runtime_error);
}

TEST(FailureInjection, ZeroPartitionPreprocessRejected) {
  const auto g = test::small_rmat(64, 500);
  EXPECT_THROW(grid::GridStore::preprocess(g, 0, test::unique_temp_path("p0")),
               std::invalid_argument);
  EXPECT_THROW(shard::ShardStore::preprocess(g, 0, test::unique_temp_path("s0")),
               std::invalid_argument);
}

TEST(FailureInjection, CacheSimRejectsDegenerateGeometry) {
  EXPECT_THROW(sim::CacheSim(1024, 0, 64), std::invalid_argument);
  EXPECT_THROW(sim::CacheSim(1024, 4, 0), std::invalid_argument);
}

TEST(FailureInjection, UnknownDatasetThrows) {
  EXPECT_THROW(graph::load_dataset("no_such_graph"), std::invalid_argument);
}

}  // namespace
}  // namespace graphm
