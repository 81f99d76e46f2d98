// Weakly connected components by iterative min-label propagation.
//
// Every iteration streams the full edge set and relaxes the label across the
// edge in both directions (weak connectivity ignores direction), so WCC is
// network-intensive like PageRank — exactly how the paper characterizes it.
// The propagation is Jacobi-style (reads come from the previous iteration's
// labels) so the outcome of an iteration-capped job is independent of the
// order partitions are streamed in — a property the cross-scheme equivalence
// tests rely on, since GraphM deliberately reorders partition loading.
// The iteration budget is a job parameter because the paper's WCC jobs run a
// random number of iterations (Section 5.1); when the budget exceeds the
// convergence point the result equals the true components (label == minimum
// vertex id in the component).
#pragma once

#include "algos/algorithm.hpp"

namespace graphm::algos {

class Wcc final : public StreamingAlgorithm {
 public:
  explicit Wcc(std::uint32_t max_iterations) : max_iterations_(max_iterations) {}

  [[nodiscard]] std::string name() const override { return "WCC"; }
  void init(graph::VertexId num_vertices, const std::vector<std::uint32_t>& out_degrees,
            sim::MemoryTracker* tracker) override;
  void iteration_start(std::uint64_t iteration) override;
  [[nodiscard]] const util::AtomicBitmap& active_vertices() const override { return active_; }
  void process_edge(const graph::Edge& e) override;
  graph::EdgeCount process_edge_block(const graph::Edge* edges, graph::EdgeCount n,
                                      const util::AtomicBitmap& active) override;
  void iteration_end() override;
  [[nodiscard]] bool done() const override {
    return converged_ || iterations_done_ >= max_iterations_;
  }
  [[nodiscard]] std::pair<const void*, std::size_t> values_span() const override {
    return {labels_.data(), labels_.size() * sizeof(graph::VertexId)};
  }
  [[nodiscard]] std::vector<double> result() const override {
    return {labels_.begin(), labels_.end()};
  }

 private:
  /// Min of `label` into next_labels_[v]; order-independent, so the
  /// iteration's outcome is the same under any edge order.
  void relax_min(graph::VertexId v, graph::VertexId label) {
    if (label < next_labels_[v]) {
      next_labels_[v] = label;
      changed_this_iteration_ = true;
    }
  }

  std::uint32_t max_iterations_;
  std::uint32_t iterations_done_ = 0;
  bool converged_ = false;
  bool changed_this_iteration_ = false;
  std::vector<graph::VertexId> labels_;
  std::vector<graph::VertexId> next_labels_;
  util::AtomicBitmap active_;
  sim::TrackedAllocation tracking_;
};

}  // namespace graphm::algos
