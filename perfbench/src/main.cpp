// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Runs one workload through the public service::JobService API and prints
// every end-to-end metric (--trace 0), or additionally runs the traced
// harness and prints every per-layer metric (--trace 1). The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. Every
// completed job's result is checked against the engine-free oracle; the exit
// code is non-zero when any job failed, any result mismatched, or the run was
// invalid. See perfbench/README.md for the workloads and the metric map.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "drive.hpp"
#include "quantile.hpp"
#include "service/job_service.hpp"
#include "spans.hpp"
#include "traced.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using graphm::service::JobService;
using graphm::service::JobState;

constexpr std::size_t kSetupRepeats = 5;
/// Largest |run_job - sum of layer self times| share the sum check accepts.
constexpr double kSumTolerance = 0.05;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench/work";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0 && args.seconds <= 60.0)) {
        throw std::invalid_argument("--seconds must be in (0, 60]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

/// service::JobService in the shape drive.hpp expects.
struct LiveService {
  using Handle = graphm::service::JobHandle;
  JobService& svc;

  Handle submit(const graphm::algos::JobSpec& spec) { return svc.submit(spec); }
  [[nodiscard]] std::uint64_t now_ns() const { return svc.now_ns(); }
  static const graphm::runtime::JobOutcome& await(const Handle& h) { return h.await().outcome; }
  static JobState state(const Handle& h) { return h.await().state.load(); }
  static std::uint32_t job_id(const Handle& h) { return h.await().job_id; }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Removes the run's scratch directory on every exit path.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

struct ServiceRun {
  std::vector<JobRow> rows;
  graphm::service::ServiceStats stats;
  graphm::core::SharingController::Stats sharing;
  graphm::sim::CacheStats llc;
  graphm::sim::IoStats io;
  double peak_rss_mb = 0.0;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::size_t count_done(const std::vector<JobRow>& rows) {
  return static_cast<std::size_t>(
      std::count_if(rows.begin(), rows.end(), [](const JobRow& r) { return r.done(); }));
}

std::vector<Metric> end_to_end_metrics(const ServiceRun& run, double setup_s) {
  std::vector<double> latencies_ms;
  std::uint64_t first_submit = UINT64_MAX;
  std::uint64_t last_done = 0;
  for (const JobRow& r : run.rows) {
    if (!r.measured || !r.done()) continue;
    latencies_ms.push_back(static_cast<double>(r.completion_ns - r.submit_ns) / 1e6);
    first_submit = std::min(first_submit, r.submit_ns);
    last_done = std::max(last_done, r.completion_ns);
  }
  const double window_s =
      last_done > first_submit ? static_cast<double>(last_done - first_submit) / 1e9 : 0.0;
  const std::size_t n = latencies_ms.size();
  std::printf("# measured jobs: %zu (p95 has %zu samples beyond it)\n", n,
              n - std::min(n, static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(n)))));
  return {
      {"jobs_per_s", ratio(static_cast<double>(n), window_s), "1/s"},
      {"job_latency_p50_ms", quantile(latencies_ms, 0.50), "ms"},
      {"job_latency_p95_ms", quantile(latencies_ms, 0.95), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", run.peak_rss_mb, "MB"},
      {"disk_read_mb_per_job",
       ratio(static_cast<double>(run.io.disk_read_bytes) / kMiB,
             static_cast<double>(count_done(run.rows))),
       "MB"},
  };
}

std::vector<Metric> service_layer_metrics(const ServiceRun& run) {
  std::vector<double> queue_ms, submit_us;
  for (const JobRow& r : run.rows) {
    submit_us.push_back(static_cast<double>(r.submit_call_ns) / 1e3);
    if (r.done()) queue_ms.push_back(static_cast<double>(r.queue_wait_ns()) / 1e6);
  }
  const double done = static_cast<double>(count_done(run.rows));
  const auto& s = run.sharing;
  return {
      {"service.queue_wait_p50_ms", quantile(queue_ms, 0.50), "ms"},
      {"service.queue_wait_p95_ms", quantile(queue_ms, 0.95), "ms"},
      {"service.submit_us_p50", quantile(submit_us, 0.50), "us"},
      {"service.rejected", static_cast<double>(run.stats.rejected), "count"},
      {"service.cancelled", static_cast<double>(run.stats.cancelled), "count"},
      {"graphm.partition_loads", static_cast<double>(s.partition_loads), "count"},
      {"graphm.attaches", static_cast<double>(s.attaches), "count"},
      {"graphm.mid_round_attaches", static_cast<double>(s.mid_round_attaches), "count"},
      {"graphm.suspensions", static_cast<double>(s.suspensions), "count"},
      {"graphm.chunk_barriers", static_cast<double>(s.chunk_barriers), "count"},
      {"graphm.share_ratio",
       ratio(static_cast<double>(s.attaches),
             static_cast<double>(s.partition_loads + s.attaches)),
       "ratio"},
      {"sim.llc_accesses_per_job", ratio(static_cast<double>(run.llc.accesses), done), "count"},
      {"sim.llc_miss_rate",
       ratio(static_cast<double>(run.llc.misses), static_cast<double>(run.llc.accesses)),
       "ratio"},
      {"sim.page_cache_read_mb", static_cast<double>(run.io.read_bytes) / kMiB, "MB"},
      {"sim.disk_read_mb", static_cast<double>(run.io.disk_read_bytes) / kMiB, "MB"},
      {"sim.page_cache_hit_ratio",
       1.0 - ratio(static_cast<double>(run.io.disk_read_bytes),
                   static_cast<double>(run.io.read_bytes)),
       "ratio"},
      {"sim.modeled_io_stall_ms_per_job",
       ratio(static_cast<double>(run.io.virtual_io_ns) / 1e6, done), "ms"},
  };
}

struct TracedRun {
  std::vector<JobRow> rows;
  LayerTimes layers;
  double init_s = 0.0;
};

std::vector<Metric> traced_layer_metrics(const TracedRun& traced, const ServiceRun& untraced,
                                         double preprocess_s) {
  const LayerTimes& t = traced.layers;
  const double jobs = static_cast<double>(t.jobs);
  std::uint64_t streamed = 0, processed = 0, iterations = 0;
  struct KindTotals {
    std::uint64_t compute_ns = 0, edges = 0;
  };
  KindTotals kinds[4];
  for (const JobRow& r : traced.rows) {
    if (!r.done()) continue;
    const auto& st = r.stats;
    streamed += st.edges_streamed;
    processed += st.edges_processed;
    iterations += st.iterations;
    KindTotals& k = kinds[static_cast<int>(r.kind)];
    k.compute_ns += st.compute_ns;
    k.edges += st.edges_processed;
  }
  const auto per_edge = [&](graphm::algos::AlgorithmKind kind) {
    const KindTotals& k = kinds[static_cast<int>(kind)];
    return ratio(static_cast<double>(k.compute_ns), static_cast<double>(k.edges));
  };
  std::vector<double> run_ms;
  for (std::uint64_t ns : t.run_job_each_ns) run_ms.push_back(static_cast<double>(ns) / 1e6);

  // Overhead: mean traced run_job wall over mean untraced execution wall
  // (service start -> completion) of the same jobs.
  double untraced_exec_ns = 0.0;
  std::size_t untraced_done = 0;
  for (const JobRow& r : untraced.rows) {
    if (!r.done()) continue;
    untraced_exec_ns += static_cast<double>(r.completion_ns - r.start_ns);
    ++untraced_done;
  }
  const double overhead = ratio(ratio(static_cast<double>(t.run_job_ns), jobs),
                                ratio(untraced_exec_ns, static_cast<double>(untraced_done)));
  const auto ms_per_job = [&](std::uint64_t ns) {
    return ratio(static_cast<double>(ns) / 1e6, jobs);
  };
  using graphm::algos::AlgorithmKind;
  return {
      {"graphm.init_s", traced.init_s, "s"},
      {"graphm.acquire_wait_ms_per_job", ms_per_job(t.acquire_self_ns), "ms"},
      {"graphm.barrier_wait_ms_per_job", ms_per_job(t.barrier_self_ns), "ms"},
      {"store.reads", static_cast<double>(t.store_reads), "count"},
      {"store.read_mb", static_cast<double>(t.store_bytes) / kMiB, "MB"},
      {"store.read_ms_per_job", ms_per_job(t.store_ns), "ms"},
      {"store.preprocess_s", preprocess_s, "s"},
      {"engine.run_job_ms_p50", quantile(run_ms, 0.50), "ms"},
      {"engine.compute_ms_per_job", ms_per_job(t.compute_ns), "ms"},
      {"engine.edges_streamed_per_job", ratio(static_cast<double>(streamed), jobs), "count"},
      {"engine.active_edge_ratio",
       ratio(static_cast<double>(processed), static_cast<double>(streamed)), "ratio"},
      {"engine.compute_ns_per_edge",
       ratio(static_cast<double>(t.compute_ns), static_cast<double>(processed)), "ns"},
      {"engine.iterations_per_job", ratio(static_cast<double>(iterations), jobs), "count"},
      {"engine.self_ms_per_job", ms_per_job(t.engine_self_ns), "ms"},
      {"algos.pagerank.compute_ns_per_edge", per_edge(AlgorithmKind::kPageRank), "ns"},
      {"algos.wcc.compute_ns_per_edge", per_edge(AlgorithmKind::kWcc), "ns"},
      {"algos.bfs.compute_ns_per_edge", per_edge(AlgorithmKind::kBfs), "ns"},
      {"algos.sssp.compute_ns_per_edge", per_edge(AlgorithmKind::kSssp), "ns"},
      {"bench.trace_overhead_ratio", overhead, "ratio"},
      {"bench.unattributed_ratio",
       ratio(static_cast<double>(t.unattributed_ns), static_cast<double>(t.run_job_ns)), "ratio"},
  };
}

/// Counts failed jobs in `rows`: rejected, cancelled, or a result that
/// differs from the oracle's.
std::size_t count_failed(const std::vector<JobRow>& rows,
                         const std::vector<graphm::algos::JobSpec>& jobs,
                         const graphm::graph::EdgeList& graph, const char* label) {
  std::vector<graphm::algos::JobSpec> specs;
  for (const JobRow& r : rows) specs.push_back(jobs[r.seq % jobs.size()]);
  const auto expected = oracle_results(graph, specs, 3);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JobRow& r = rows[i];
    if (!r.done()) {
      std::fprintf(stderr, "%s: job %zu did not complete (state %d)\n", label, r.seq,
                   static_cast<int>(r.state));
      ++failed;
    } else if (!expected[i] || !result_matches(*expected[i], r.result)) {
      std::fprintf(stderr, "%s: job %zu (%s) result differs from the oracle\n", label, r.seq,
                   specs[i].label().c_str());
      ++failed;
    }
  }
  return failed;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  // Rejected, cancelled and wrong-result jobs over jobs submitted; it also
  // travels in the JSON line as failed / attempted.
  std::printf("%-36s %14.6f %s\n", "job_error_rate",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio");
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Args& args) {
  const Workload& w = find_workload(args.workload);
  ScratchDir scratch{args.workdir + "/" + w.name + "-" + std::to_string(args.seed) + "-" +
                     std::to_string(::getpid())};

  // Set-up, repeated; the last repetition's dataset and service are used.
  std::vector<double> setup_times;
  Dataset dataset;
  graphm::service::ServiceConfig config;
  std::unique_ptr<JobService> svc;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    svc.reset();
    graphm::util::Timer timer;
    dataset = build_dataset(w, scratch.path + "/setup" + std::to_string(k));
    config = service_config(w, dataset.graph);
    svc = std::make_unique<JobService>(*dataset.store, config);
    setup_times.push_back(timer.elapsed_s());
  }
  std::sort(setup_times.begin(), setup_times.end());
  const double setup_s = setup_times[setup_times.size() / 2];

  const auto jobs = job_sequence(dataset.graph.num_vertices(), args.seed);

  ServiceRun untraced;
  {
    LiveService live{*svc};
    untraced.rows = drive_closed(live, jobs, w.clients, args.seconds, 0);
    svc->drain();
    untraced.peak_rss_mb = peak_rss_mb();
    untraced.stats = svc->stats();
    untraced.sharing = svc->sharing_stats();
    untraced.llc = svc->platform().llc().total_stats();
    untraced.io = svc->platform().page_cache().total_stats();
    svc.reset();
  }

  bool valid = true;
  std::vector<Metric> metrics;
  std::size_t attempted = untraced.rows.size();
  std::size_t failed = count_failed(untraced.rows, jobs, dataset.graph, "untraced");

  if (!args.trace) {
    metrics = end_to_end_metrics(untraced, setup_s);
  } else {
    TracedRun traced;
    SpanRecorder recorder;
    {
      TracedService tsvc(*dataset.store, config, &recorder);
      traced.init_s = tsvc.init_s();
      traced.rows = drive_closed(tsvc, jobs, w.clients, args.seconds, untraced.rows.size());
    }  // workers joined: every span is closed
    const std::vector<Span> spans = recorder.collect();
    std::unordered_map<std::uint32_t, std::uint64_t> compute_ns;
    for (const JobRow& r : traced.rows) compute_ns[r.job_id] = r.stats.compute_ns;
    traced.layers = split_layers(spans, compute_ns);
    const std::string trace_path = args.workdir + "/trace-" + w.name + ".csv";
    if (!SpanRecorder::write_csv(spans, trace_path)) {
      std::fprintf(stderr, "warning: could not write %s\n", trace_path.c_str());
    }
    std::printf("# %zu spans written to %s\n", spans.size(), trace_path.c_str());

    attempted += traced.rows.size();
    failed += count_failed(traced.rows, jobs, dataset.graph, "traced");

    metrics = service_layer_metrics(untraced);
    const auto layer = traced_layer_metrics(traced, untraced, dataset.preprocess_s);
    metrics.insert(metrics.end(), layer.begin(), layer.end());

    const double unattributed = ratio(static_cast<double>(traced.layers.unattributed_ns),
                                      static_cast<double>(traced.layers.run_job_ns));
    if (traced.layers.jobs != traced.rows.size() || unattributed > kSumTolerance) {
      std::fprintf(stderr,
                   "sum check failed: %zu of %zu jobs traced, unattributed share %.4f "
                   "(tolerance %.2f)\n",
                   traced.layers.jobs, traced.rows.size(), unattributed, kSumTolerance);
      valid = false;
    }
  }

  const bool correct = valid && failed == 0;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
