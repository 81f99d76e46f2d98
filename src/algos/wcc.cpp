#include "algos/wcc.hpp"

#include <numeric>

namespace graphm::algos {

void Wcc::init(graph::VertexId num_vertices, const std::vector<std::uint32_t>& /*out_degrees*/,
               sim::MemoryTracker* tracker) {
  labels_.resize(num_vertices);
  std::iota(labels_.begin(), labels_.end(), graph::VertexId{0});
  next_labels_ = labels_;
  active_ = util::AtomicBitmap(num_vertices);
  active_.set_all();
  tracking_ = sim::TrackedAllocation(tracker, sim::MemoryCategory::kJobSpecific,
                                     2 * num_vertices * sizeof(graph::VertexId) +
                                         num_vertices / 8);
}

void Wcc::iteration_start(std::uint64_t /*iteration*/) {
  changed_this_iteration_ = false;
  next_labels_ = labels_;
}

void Wcc::process_edge(const graph::Edge& e) {
  // Jacobi min-relax in both directions: reads go to the previous iteration's
  // labels so the result is independent of edge/partition streaming order.
  const graph::VertexId ls = labels_[e.src];
  const graph::VertexId ld = labels_[e.dst];
  if (ls < ld) {
    relax_min(e.dst, ls);
  } else if (ld < ls) {
    relax_min(e.src, ld);
  }
}

graph::EdgeCount Wcc::process_edge_block(const graph::Edge* edges, graph::EdgeCount n,
                                         const util::AtomicBitmap& active) {
  const graph::VertexId* labels = labels_.data();
  if (&active == &active_) {
    // Our own active set is all-set by construction — drop the per-edge gate.
    // The relax direction is data-random before convergence, so it is chosen
    // with selects (cmov) behind one unequal-labels branch that converges to
    // predictable-false.
    for (graph::EdgeCount i = 0; i < n; ++i) {
      const graph::Edge& e = edges[i];
      const graph::VertexId ls = labels[e.src];
      const graph::VertexId ld = labels[e.dst];
      if (ls != ld) {
        relax_min(ls < ld ? e.dst : e.src, ls < ld ? ls : ld);
      }
    }
    return n;
  }
  return gated_block_loop(edges, n, active, [this, labels](const graph::Edge& e) {
    const graph::VertexId ls = labels[e.src];
    const graph::VertexId ld = labels[e.dst];
    if (ls != ld) {
      relax_min(ls < ld ? e.dst : e.src, ls < ld ? ls : ld);
    }
  });
}

void Wcc::iteration_end() {
  labels_.swap(next_labels_);
  ++iterations_done_;
  if (!changed_this_iteration_) converged_ = true;
}

}  // namespace graphm::algos
