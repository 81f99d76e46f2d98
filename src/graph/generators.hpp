// Deterministic synthetic graph generators.
//
// The paper's public crawls (LiveJ, Orkut, Twitter, UK-union, Clueweb12) are
// not shippable; DESIGN.md section 2 explains how scaled RMAT / Chung-Lu /
// Erdős–Rényi stand-ins preserve the properties GraphM's results depend on
// (degree skew and size relative to LLC/memory).
#pragma once

#include <cstdint>

#include "graph/edge_list.hpp"

namespace graphm::graph {

struct RmatParams {
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;  // d = 1 - a - b - c
};

/// Recursive-matrix (Kronecker-like) generator: power-law out-degrees,
/// community structure. num_vertices is rounded up to a power of two
/// internally; emitted vertex ids stay < num_vertices. Large graphs are
/// drawn in slices, one per CPU in the process's affinity mask; the edges
/// depend only on the arguments, never on the slice count.
EdgeList generate_rmat(VertexId num_vertices, EdgeCount num_edges, std::uint64_t seed,
                       const RmatParams& params = RmatParams{});

/// generate_rmat drawn in `slices` contiguous edge ranges (at most one per
/// edge), each on its own thread; the caller's thread draws the first. Same
/// output as generate_rmat for any slice count.
EdgeList generate_rmat_sliced(VertexId num_vertices, EdgeCount num_edges, std::uint64_t seed,
                              const RmatParams& params, unsigned slices);

/// Uniform G(n, m) graph.
EdgeList generate_erdos_renyi(VertexId num_vertices, EdgeCount num_edges, std::uint64_t seed);

/// Chung–Lu graph with Zipf(exponent) expected degrees — a denser, less
/// skewed power-law than RMAT (our Orkut stand-in).
EdgeList generate_chung_lu(VertexId num_vertices, EdgeCount num_edges, double exponent,
                           std::uint64_t seed);

/// Directed cycle plus chords — a tiny deterministic graph for unit tests.
EdgeList generate_ring(VertexId num_vertices, VertexId chord_stride = 0);

/// Random weights in [lo, hi) for SSSP; deterministic given seed.
void randomize_weights(EdgeList& graph, float lo, float hi, std::uint64_t seed);

}  // namespace graphm::graph
