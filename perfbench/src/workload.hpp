// The benchmark's workloads and the inputs each one generates: an RMAT graph
// written to a fresh grid store, and from the --seed argument the paper's job
// mix. Also the engine-free result oracle the jobs are checked against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algos/factory.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "grid/grid_store.hpp"
#include "service/job_service.hpp"

namespace perfbench {

/// Every workload is a closed loop: each client thread submits one job,
/// awaits it, and submits the next.
struct Workload {
  const char* name;
  graphm::service::ExecMode mode;
  graphm::graph::RmatParams rmat;
  /// The graph is the dataset under test, fixed per workload like the repo's
  /// Table-2 stand-ins (graph/datasets.cpp): one RMAT draw differs from the
  /// next in how many rounds WCC needs (4 or 5 here), which alone moved the
  /// p50 latency by 20% between seeds. --seed varies the jobs instead.
  std::uint64_t graph_seed;
  graphm::graph::VertexId vertices;
  graphm::graph::EdgeCount edges;
  std::uint32_t partitions;
  std::size_t clients;
  std::size_t workers;  // service worker slots
  /// When > 0, the simulated memory budget is this share of the graph's
  /// bytes, so the page-cache model evicts; 0 keeps the platform default.
  double memory_share;
};

/// Throws std::invalid_argument for an unknown name.
const Workload& find_workload(const std::string& name);

/// Clients keep submitting past --seconds until this many jobs were
/// measured, so the p95 latency always has at least ten samples beyond it.
inline constexpr std::size_t kMinMeasuredJobs = 240;
/// Jobs run before measuring starts (lazy run indexes, cold page cache).
inline constexpr double kWarmupSeconds = 1.0;

/// RMAT edges with SSSP weights in [1, 64), from workload.graph_seed.
graphm::graph::EdgeList generate_graph(const Workload& workload);

/// The service configuration every run of `workload` uses (the traced run
/// mirrors it in its own harness).
graphm::service::ServiceConfig service_config(const Workload& workload,
                                              const graphm::graph::EdgeList& graph);

/// The job sequence for `seed`: runtime::paper_mix (WCC, PageRank, SSSP, BFS
/// in turn, parameters drawn per job).
std::vector<graphm::algos::JobSpec> job_sequence(graphm::graph::VertexId num_vertices,
                                                 std::uint64_t seed);

/// One completed set-up: graph generation, preprocessing into a fresh
/// directory, and opening the store. The service is built by the caller.
struct Dataset {
  graphm::graph::EdgeList graph;
  std::unique_ptr<graphm::grid::GridStore> store;
  double preprocess_s = 0.0;
};
Dataset build_dataset(const Workload& workload, const std::string& dir);

/// Engine-free expected results (algos::reference::run_streaming) for every
/// distinct spec, computed on `threads` threads. Indexed like `specs`; null
/// where the oracle threw.
std::vector<std::shared_ptr<const std::vector<double>>> oracle_results(
    const graphm::graph::EdgeList& graph, const std::vector<graphm::algos::JobSpec>& specs,
    std::size_t threads);

/// What the benchmark keeps of a job's result until it is checked: the
/// size and a hash of the bytes, plus the values themselves for PageRank,
/// which matches the oracle only within 1e-12 (the engine groups
/// contributions per partition, the oracle folds flat — a different rounding
/// shape). WCC, BFS and SSSP must match exactly.
struct ResultDigest {
  std::size_t size = 0;
  std::uint64_t hash = 0;
  std::vector<double> values;
};
ResultDigest digest_result(const graphm::algos::JobSpec& spec, const std::vector<double>& result);

/// True when the job's result matches the oracle's `expected`.
bool result_matches(const std::vector<double>& expected, const ResultDigest& actual);

}  // namespace perfbench
