// Single-source shortest paths (frontier-driven Bellman-Ford relaxation).
// Converges to exact distances; the min-relaxation is order-independent so
// results are identical under every execution scheme.
//
// Relaxation is Jacobi-style: candidates are computed from the previous
// iteration's distances (frozen in prev_distance_) and applied to distance_
// with a min. That makes an iteration's outcome — final distances AND the
// next frontier — independent of the order edges and partitions are streamed
// in, so every execution scheme and visit order is bit-identical.
#pragma once

#include "algos/algorithm.hpp"

namespace graphm::algos {

class Sssp final : public StreamingAlgorithm {
 public:
  explicit Sssp(graph::VertexId root) : root_(root) {}

  [[nodiscard]] std::string name() const override { return "SSSP"; }
  void init(graph::VertexId num_vertices, const std::vector<std::uint32_t>& out_degrees,
            sim::MemoryTracker* tracker) override;
  void iteration_start(std::uint64_t iteration) override;
  [[nodiscard]] const util::AtomicBitmap& active_vertices() const override { return frontier_; }
  void process_edge(const graph::Edge& e) override { relax(e); }
  graph::EdgeCount process_edge_block(const graph::Edge* edges, graph::EdgeCount n,
                                      const util::AtomicBitmap& active) override;
  void iteration_end() override;
  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] std::pair<const void*, std::size_t> values_span() const override {
    return {distance_.data(), distance_.size() * sizeof(float)};
  }
  [[nodiscard]] std::vector<double> result() const override {
    return {distance_.begin(), distance_.end()};
  }

  static constexpr float kInfinity = 3.4e38f;

 private:
  /// Min into distance_[e.dst]; activates e.dst iff this call lowered the
  /// value. Min is order-independent, so any edge order yields the same
  /// distances and the same next frontier.
  void relax(const graph::Edge& e) {
    const float candidate = prev_distance_[e.src] + e.weight;
    if (candidate < distance_[e.dst]) {
      distance_[e.dst] = candidate;
      next_frontier_.set(e.dst);
    }
  }

  graph::VertexId root_;
  bool done_ = false;
  std::vector<float> distance_;
  std::vector<float> prev_distance_;  // frozen copy read during an iteration
  util::AtomicBitmap frontier_;
  util::AtomicBitmap next_frontier_;
  sim::TrackedAllocation tracking_;
};

}  // namespace graphm::algos
