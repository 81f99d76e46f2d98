// File I/O shared by the grid and shard formats: the conversion that lays an
// edge list out as a store (<path>.data, .meta, .deg) and the positional
// reads the stores serve partitions with.
//
// Both formats are a grid of blocks over (source range, destination range)
// with P ranges of ceil(V / P) vertices each. The grid keeps one row per
// source range (P x P blocks, a partition is a row); shards keep a single
// row spanning every source (1 x P blocks, a partition is one destination
// range). Blocks are stored row-major, so each partition is one contiguous
// byte range of the .data file.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "storage/store.hpp"

namespace graphm::storage {

/// How write_store lays the edges out.
struct StoreLayout {
  std::uint32_t num_partitions = 1;
  /// True: P x P blocks, partition i = row of source range i (the grid).
  /// False: 1 x P blocks, partition s = destination range s (shards).
  bool partitions_by_source = true;
  /// Group each block's edges by source, keeping their input order
  /// otherwise (the grid's long source runs, GraphChi's sorted shards).
  bool src_sort = true;
};

/// Sorts `graph`'s edges into `layout` and writes <path>.{data,meta,deg}.
/// One stable counting sort keyed by (row, column, source) places every
/// edge: O(E + V * P) work and no edge-sized buffer besides the output. Its
/// counting pass also yields the out-degrees. Returns the wall time up to
/// and including the .data write (the paper's Table 3 conversion cost),
/// which the meta records as preprocess_ns. `owner` prefixes error
/// messages; the .meta file starts with `magic`.
std::uint64_t write_store(const graph::EdgeList& graph, const StoreLayout& layout,
                          std::uint32_t magic, const std::string& path, const std::string& owner);

/// Reads and validates the <path>.meta that write_store wrote with `magic`
/// and `partitions_by_source`, so the read paths can trust it. Rejects,
/// with a std::runtime_error prefixed by `owner`: a bad header or magic, a
/// partition count outside [1, max(1, num_vertices)], a meta size that does
/// not match that count (checked before anything is sized by it), block
/// offsets that do not tile <path>.data contiguously from 0 or run past its
/// end, block edge counts that do not sum to num_edges, and a .deg file (if
/// present) of the wrong size.
StoreMeta read_store_meta(const std::string& path, std::uint32_t magic,
                          bool partitions_by_source, const std::string& owner);

/// Reads the .deg file written by write_store: one uint32 per vertex.
std::vector<std::uint32_t> read_degrees(const std::string& path, graph::VertexId num_vertices,
                                        const std::string& owner);

/// A store's .data file, opened read-only once. Reads are positional
/// (pread), so concurrent readers share the descriptor without a lock.
/// Copies share the descriptor; the last one closes it.
class DataFile {
 public:
  /// Throws std::runtime_error when the file cannot be opened.
  DataFile(const std::string& path, const std::string& owner);

  /// Reads exactly `bytes` at `offset` into `out`, retrying short reads and
  /// EINTR. Returns false if the file ends first or the read fails.
  [[nodiscard]] bool read_exact(void* out, std::uint64_t bytes, std::uint64_t offset) const;

 private:
  std::shared_ptr<const int> fd_;
};

}  // namespace graphm::storage
