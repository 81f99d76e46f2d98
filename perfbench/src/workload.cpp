#include "workload.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "algos/reference.hpp"
#include "runtime/workloads.hpp"
#include "util/rng.hpp"

namespace perfbench {

using graphm::service::ExecMode;

namespace {

// Shapes follow the repo's Table-2 stand-ins (graph/datasets.cpp): twitter_s
// is the skewed RMAT, ukunion_s the default one with ~41 edges per vertex.
constexpr graphm::graph::RmatParams kTwitterRmat{0.62, 0.19, 0.14};
constexpr graphm::graph::RmatParams kUkunionRmat{};
constexpr std::uint64_t kTwitterGraphSeed = 0x7717'7e25;
constexpr std::uint64_t kUkunionGraphSeed = 0x0c0f'f1e5;

// twitter_s at scale 0.25: 4.3 MiB of edges, far above the simulated
// 256 KiB LLC and far below the simulated 32 MiB memory budget.
constexpr graphm::graph::VertexId kTwitterVertices = 10'425;
constexpr graphm::graph::EdgeCount kTwitterEdges = 375'000;
// ukunion_s at scale 0.05: 3.1 MiB of edges against a memory budget of 40%
// of that, so every traversal round evicts.
constexpr graphm::graph::VertexId kUkunionVertices = 6'680;
constexpr graphm::graph::EdgeCount kUkunionEdges = 275'000;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"shared_closed", ExecMode::kShared, kTwitterRmat, kTwitterGraphSeed, kTwitterVertices,
       kTwitterEdges, 8, 3, 3, 0.0},
      {"isolated_closed", ExecMode::kIsolated, kTwitterRmat, kTwitterGraphSeed,
       kTwitterVertices, kTwitterEdges, 8, 3, 3, 0.0},
      // One client more than workers: a job always waits in the admission
      // queue, and is dispatched while the group streams (mid-round attach).
      {"shared_ooc_queued", ExecMode::kShared, kUkunionRmat, kUkunionGraphSeed,
       kUkunionVertices, kUkunionEdges, 8, 4, 3, 0.4},
  };
  return all;
}

}  // namespace

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

graphm::graph::EdgeList generate_graph(const Workload& workload) {
  graphm::graph::EdgeList graph = graphm::graph::generate_rmat(
      workload.vertices, workload.edges, workload.graph_seed, workload.rmat);
  graphm::graph::randomize_weights(graph, 1.0f, 64.0f,
                                   graphm::util::derive_stream_seed(workload.graph_seed, 1));
  return graph;
}

graphm::service::ServiceConfig service_config(const Workload& workload,
                                              const graphm::graph::EdgeList& graph) {
  graphm::service::ServiceConfig config;
  config.mode = workload.mode;
  config.policy = graphm::service::AdmissionPolicy::kImmediate;
  config.workers = workload.workers;
  config.record_results = true;
  if (workload.memory_share > 0.0) {
    config.platform.memory_bytes =
        static_cast<std::size_t>(static_cast<double>(graph.data_bytes()) * workload.memory_share);
  }
  return config;
}

std::vector<graphm::algos::JobSpec> job_sequence(graphm::graph::VertexId num_vertices,
                                                 std::uint64_t seed) {
  // Long enough that no run wraps around; drive_closed indexes it modulo its size.
  constexpr std::size_t kSequenceLength = 8192;
  return graphm::runtime::paper_mix(kSequenceLength, num_vertices,
                                    graphm::util::derive_stream_seed(seed, 1));
}

Dataset build_dataset(const Workload& workload, const std::string& dir) {
  std::filesystem::create_directories(dir);
  Dataset dataset;
  dataset.graph = generate_graph(workload);
  const std::string path = dir + "/grid";
  dataset.preprocess_s =
      static_cast<double>(graphm::grid::GridStore::preprocess(dataset.graph, workload.partitions,
                                                              path)) /
      1e9;
  dataset.store =
      std::make_unique<graphm::grid::GridStore>(graphm::grid::GridStore::open(path));
  return dataset;
}

std::vector<std::shared_ptr<const std::vector<double>>> oracle_results(
    const graphm::graph::EdgeList& graph, const std::vector<graphm::algos::JobSpec>& specs,
    std::size_t threads) {
  using Key = std::tuple<int, double, std::uint32_t, graphm::graph::VertexId>;
  const auto key_of = [](const graphm::algos::JobSpec& s) {
    return Key{static_cast<int>(s.kind), s.damping, s.max_iterations, s.root};
  };
  std::map<Key, std::size_t> slot_of;
  std::vector<graphm::algos::JobSpec> distinct;
  std::vector<std::size_t> slot(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto [it, inserted] = slot_of.emplace(key_of(specs[i]), distinct.size());
    if (inserted) distinct.push_back(specs[i]);
    slot[i] = it->second;
  }

  std::vector<std::shared_ptr<const std::vector<double>>> expected(distinct.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::max<std::size_t>(1, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < distinct.size(); i = next++) {
        try {
          auto algorithm = graphm::algos::make_algorithm(distinct[i]);
          expected[i] = std::make_shared<const std::vector<double>>(
              graphm::algos::reference::run_streaming(graph, *algorithm));
        } catch (const std::exception&) {
          expected[i] = nullptr;  // reported as a mismatch by the caller
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();

  std::vector<std::shared_ptr<const std::vector<double>>> out(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) out[i] = expected[slot[i]];
  return out;
}

namespace {

std::uint64_t fnv1a(const std::vector<double>& values) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(double); ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001B3ULL;
  }
  return hash;
}

}  // namespace

ResultDigest digest_result(const graphm::algos::JobSpec& spec, const std::vector<double>& result) {
  ResultDigest digest;
  digest.size = result.size();
  digest.hash = fnv1a(result);
  if (spec.kind == graphm::algos::AlgorithmKind::kPageRank) digest.values = result;
  return digest;
}

bool result_matches(const std::vector<double>& expected, const ResultDigest& actual) {
  if (expected.size() != actual.size) return false;
  if (actual.values.empty()) return fnv1a(expected) == actual.hash;
  constexpr double kPageRankTolerance = 1e-12;
  for (std::size_t v = 0; v < expected.size(); ++v) {
    // Written so that NaN fails.
    if (!(std::fabs(expected[v] - actual.values[v]) <= kPageRankTolerance)) return false;
  }
  return true;
}

}  // namespace perfbench
