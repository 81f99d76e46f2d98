// GraphChi-like execution engine: iterates over the shard store's execution
// intervals, loading one subgraph (shard) at a time. Because ShardStore
// implements PartitionedStore, the engine is a configuration of the generic
// streaming core — and GraphM plugs into it by substituting the loader for
// LoadSubgraph(), exactly as the paper integrates GraphM into GraphChi
// (`Sharing(G, LoadSubgraph())`, Section 3.1).
//
// The block-batched streaming path lives in the shared core: shards stream
// through process_edge_block exactly like grid partitions (GraphChi's
// parallel sliding windows collapse onto the same block axis).
#pragma once

#include "grid/stream_engine.hpp"
#include "shard/shard_store.hpp"

namespace graphm::shard {

class GraphChiEngine {
 public:
  GraphChiEngine(const ShardStore& store, sim::Platform& platform,
                 grid::StreamConfig config = {});

  /// Runs one job; `loader` is the LoadSubgraph() seam (default or GraphM's).
  grid::JobRunStats run_job(std::uint32_t job_id, algos::StreamingAlgorithm& algorithm,
                            grid::PartitionLoader& loader) const;

  /// The engine's own LoadSubgraph(): one private buffer per job.
  [[nodiscard]] std::unique_ptr<grid::PartitionLoader> make_default_loader() const;

  [[nodiscard]] const ShardStore& store() const { return store_; }
  [[nodiscard]] const grid::StreamEngine& core() const { return core_; }

 private:
  const ShardStore& store_;
  sim::Platform& platform_;
  grid::StreamEngine core_;
};

}  // namespace graphm::shard
