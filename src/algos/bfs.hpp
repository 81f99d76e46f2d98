// Breadth-first search from a configurable root — the paper's
// frontier-driven workload: only a few partitions are active at the start,
// then the frontier fans out (the behaviour Section 4's scheduling strategy
// exploits).
#pragma once

#include "algos/algorithm.hpp"

namespace graphm::algos {

class Bfs final : public StreamingAlgorithm {
 public:
  explicit Bfs(graph::VertexId root) : root_(root) {}

  [[nodiscard]] std::string name() const override { return "BFS"; }
  void init(graph::VertexId num_vertices, const std::vector<std::uint32_t>& out_degrees,
            sim::MemoryTracker* tracker) override;
  void iteration_start(std::uint64_t iteration) override;
  [[nodiscard]] const util::AtomicBitmap& active_vertices() const override { return frontier_; }
  void process_edge(const graph::Edge& e) override { relax(e.dst); }
  graph::EdgeCount process_edge_block(const graph::Edge* edges, graph::EdgeCount n,
                                      const util::AtomicBitmap& active) override;
  void iteration_end() override;
  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] std::pair<const void*, std::size_t> values_span() const override {
    return {levels_.data(), levels_.size() * sizeof(std::uint32_t)};
  }
  [[nodiscard]] std::vector<double> result() const override {
    return {levels_.begin(), levels_.end()};
  }

  static constexpr std::uint32_t kUnreached = 0xFFFFFFFFu;

 private:
  /// Idempotent within an iteration (every write stores the same level), so
  /// the outcome is independent of edge order.
  void relax(graph::VertexId dst) {
    if (levels_[dst] == kUnreached) {
      levels_[dst] = current_level_ + 1;
      next_frontier_.set(dst);
    }
  }

  graph::VertexId root_;
  bool done_ = false;
  std::uint32_t current_level_ = 0;
  std::vector<std::uint32_t> levels_;
  util::AtomicBitmap frontier_;
  util::AtomicBitmap next_frontier_;
  sim::TrackedAllocation tracking_;
};

}  // namespace graphm::algos
