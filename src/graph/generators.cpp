#include "graph/generators.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <system_error>
#include <thread>

#include "util/rng.hpp"

namespace graphm::graph {

using util::SplitMix64;

namespace {

// Below this many edges per slice a thread costs more than it saves.
constexpr EdgeCount kMinEdgesPerSlice = EdgeCount{1} << 16;

// CPUs this process may run on (its affinity mask, not the host's count).
unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

// Edges [first, first + count) of the RMAT stream. Edge k consumes draws
// [k * levels, (k + 1) * levels) of the seed's SplitMix64 stream, so a slice
// jumps straight to its first draw. Each level picks a quadrant of the
// adjacency matrix: top-left below a, top-right below a + b, bottom-left
// below a + b + c, bottom-right above; the bit arithmetic encodes that
// choice without a data-dependent branch.
void rmat_slice(VertexId num_vertices, int levels, std::uint64_t seed, const RmatParams& params,
                EdgeCount first, EdgeCount count, Edge* out) {
  SplitMix64 rng(seed);
  rng.discard(first * static_cast<EdgeCount>(levels));
  const double a = params.a;
  const double ab = params.a + params.b;
  const double abc = ab + params.c;
  for (EdgeCount k = 0; k < count; ++k) {
    VertexId src = 0;
    VertexId dst = 0;
    for (int level = 0; level < levels; ++level) {
      const double r = rng.next_double();
      const auto past_a = static_cast<VertexId>(r >= a);
      const auto past_ab = static_cast<VertexId>(r >= ab);
      const auto past_abc = static_cast<VertexId>(r >= abc);
      src = (src << 1) | past_ab;
      dst = (dst << 1) | (past_a ^ past_ab ^ past_abc);
    }
    out[k] = Edge{src % num_vertices, dst % num_vertices, 1.0f};
  }
}

}  // namespace

EdgeList generate_rmat(VertexId num_vertices, EdgeCount num_edges, std::uint64_t seed,
                       const RmatParams& params) {
  const EdgeCount slices = std::min<EdgeCount>(usable_cpus(), num_edges / kMinEdgesPerSlice);
  return generate_rmat_sliced(num_vertices, num_edges, seed, params,
                              static_cast<unsigned>(std::max<EdgeCount>(1, slices)));
}

EdgeList generate_rmat_sliced(VertexId num_vertices, EdgeCount num_edges, std::uint64_t seed,
                              const RmatParams& params, unsigned slices) {
  // Round the id space up to a power of two for the recursive descent, then
  // fold overflowing ids back into range (keeps the degree skew).
  int levels = 0;
  while ((VertexId{1} << levels) < num_vertices) ++levels;
  if (levels == 0) levels = 1;

  std::vector<Edge> edges(num_edges);
  // No empty slices: at most one per edge.
  const EdgeCount n = std::clamp<EdgeCount>(slices, 1, std::max<EdgeCount>(1, num_edges));
  const auto fill = [&](EdgeCount s) {
    const EdgeCount first = num_edges * s / n;
    const EdgeCount last = num_edges * (s + 1) / n;
    rmat_slice(num_vertices, levels, seed, params, first, last - first, edges.data() + first);
  };
  {
    std::vector<std::jthread> workers;  // joined at scope exit, on every path
    workers.reserve(n - 1);
    for (EdgeCount s = 1; s < n; ++s) {
      try {
        workers.emplace_back(fill, s);
      } catch (const std::system_error&) {
        fill(s);  // no thread to spare: draw the slice here
      }
    }
    fill(0);
  }
  return EdgeList(num_vertices, std::move(edges));
}

EdgeList generate_erdos_renyi(VertexId num_vertices, EdgeCount num_edges, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  for (EdgeCount i = 0; i < num_edges; ++i) {
    const auto src = static_cast<VertexId>(rng.next_below(num_vertices));
    const auto dst = static_cast<VertexId>(rng.next_below(num_vertices));
    edges.push_back(Edge{src, dst, 1.0f});
  }
  return EdgeList(num_vertices, std::move(edges));
}

EdgeList generate_chung_lu(VertexId num_vertices, EdgeCount num_edges, double exponent,
                           std::uint64_t seed) {
  // Expected-degree weights w_i = (i+1)^-exponent, sampled via the inverse
  // CDF of the cumulative weight distribution.
  std::vector<double> cumulative(num_vertices);
  double total = 0.0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    total += std::pow(static_cast<double>(v) + 1.0, -exponent);
    cumulative[v] = total;
  }
  SplitMix64 rng(seed);
  auto sample = [&]() -> VertexId {
    const double r = rng.next_double() * total;
    const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), r);
    return static_cast<VertexId>(std::distance(cumulative.begin(), it));
  };
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  for (EdgeCount i = 0; i < num_edges; ++i) {
    edges.push_back(Edge{sample(), sample(), 1.0f});
  }
  return EdgeList(num_vertices, std::move(edges));
}

EdgeList generate_ring(VertexId num_vertices, VertexId chord_stride) {
  std::vector<Edge> edges;
  edges.reserve(num_vertices * (chord_stride != 0 ? 2u : 1u));
  for (VertexId v = 0; v < num_vertices; ++v) {
    edges.push_back(Edge{v, (v + 1) % num_vertices, 1.0f});
    if (chord_stride != 0) {
      edges.push_back(Edge{v, (v + chord_stride) % num_vertices, 1.0f});
    }
  }
  return EdgeList(num_vertices, std::move(edges));
}

void randomize_weights(EdgeList& graph, float lo, float hi, std::uint64_t seed) {
  SplitMix64 rng(seed);
  for (Edge& e : graph.edges()) {
    e.weight = static_cast<float>(rng.next_double(lo, hi));
  }
}

}  // namespace graphm::graph
