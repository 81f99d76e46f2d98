// The traced run's decorators must change nothing but the clock: on a tiny
// graph, every job's result through TimedStore + TimedLoader (inside the
// traced harness, jobs running concurrently) matches byte for byte the result
// of the same job run on the bare store and loader, in both execution modes.
//
//   perfbench_tests [scratch_dir]
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/generators.hpp"
#include "graphm/graphm.hpp"
#include "grid/grid_store.hpp"
#include "grid/stream_engine.hpp"
#include "runtime/workloads.hpp"
#include "service/job_service.hpp"
#include "spans.hpp"
#include "traced.hpp"

namespace {

using graphm::service::ExecMode;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

/// Runs each job alone on the undecorated store and loader.
std::vector<std::vector<double>> run_bare(const graphm::grid::GridStore& store, ExecMode mode,
                                          const std::vector<graphm::algos::JobSpec>& jobs) {
  graphm::sim::Platform platform;
  graphm::grid::StreamEngine engine(store, platform);
  std::unique_ptr<graphm::core::GraphM> graphm;
  if (mode == ExecMode::kShared) {
    graphm::core::GraphMOptions options;
    options.allow_mid_round_attach = true;
    graphm = std::make_unique<graphm::core::GraphM>(store, platform, options);
    graphm->init();
  }
  std::vector<std::vector<double>> results;
  for (std::uint32_t id = 0; id < jobs.size(); ++id) {
    std::unique_ptr<graphm::grid::PartitionLoader> loader;
    if (graphm) {
      loader = graphm->make_loader(id);
    } else {
      loader = std::make_unique<graphm::grid::DefaultLoader>(store, platform);
    }
    auto algorithm = graphm::algos::make_algorithm(jobs[id]);
    engine.run_job(id, *algorithm, *loader);
    results.push_back(algorithm->result());
  }
  return results;
}

void test_mode(const graphm::grid::GridStore& store, ExecMode mode,
               const std::vector<graphm::algos::JobSpec>& jobs) {
  const std::string name = graphm::service::exec_mode_name(mode);
  const auto expected = run_bare(store, mode, jobs);

  graphm::service::ServiceConfig config;
  config.mode = mode;
  config.workers = 3;
  perfbench::SpanRecorder recorder;
  std::vector<perfbench::TracedService::Handle> handles;
  {
    perfbench::TracedService traced(store, config, &recorder);
    for (const auto& spec : jobs) handles.push_back(traced.submit(spec));
    for (const auto& h : handles) perfbench::TracedService::await(h);
  }

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::vector<double>& got = handles[i]->outcome.result;
    const bool same = got.size() == expected[i].size() &&
                      std::memcmp(got.data(), expected[i].data(),
                                  got.size() * sizeof(double)) == 0;
    check(same, name + ": job " + std::to_string(i) + " (" + jobs[i].label() +
                    ") differs with decorators");
  }

  const std::vector<perfbench::Span> spans = recorder.collect();
  std::unordered_map<std::uint64_t, perfbench::SpanKind> kind_of;
  std::size_t reads_in_jobs = 0;
  for (const perfbench::Span& s : spans) {
    kind_of.emplace(s.id, s.kind);
    check(s.end_ns >= s.start_ns, name + ": span ends before it starts");
    if (perfbench::is_store_span(s.kind) && s.parent != 0) {
      const auto parent = kind_of.find(s.parent);
      check(parent != kind_of.end() && parent->second != perfbench::SpanKind::kRunJob,
            name + ": a read inside a job is not inside a loader call");
      ++reads_in_jobs;
    }
  }
  check(reads_in_jobs > 0, name + ": no store read was traced inside a job");

  std::unordered_map<std::uint32_t, std::uint64_t> compute;
  for (const auto& h : handles) compute[h->id] = h->outcome.stats.compute_ns;
  const perfbench::LayerTimes layers = perfbench::split_layers(spans, compute);
  check(layers.jobs == jobs.size(), name + ": split_layers did not find every job");
  check(layers.store_reads == reads_in_jobs, name + ": split_layers lost store reads");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "perfbench_tests_work";
  std::filesystem::create_directories(dir);
  graphm::graph::EdgeList graph = graphm::graph::generate_rmat(500, 6000, 11);
  graphm::graph::randomize_weights(graph, 1.0f, 64.0f, 12);
  graphm::grid::GridStore::preprocess(graph, 4, dir + "/grid");
  const graphm::grid::GridStore store = graphm::grid::GridStore::open(dir + "/grid");
  const auto jobs = graphm::runtime::paper_mix(12, graph.num_vertices(), 7);

  test_mode(store, ExecMode::kShared, jobs);
  test_mode(store, ExecMode::kIsolated, jobs);

  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench decorator tests passed\n");
  return 0;
}
