// The traced run's harness. JobService keeps its loaders and its calls into
// the engine private, so the traced run cannot decorate them there. Instead
// this harness does what JobService::execute does for the configured mode —
// a GraphM loader (kShared, mid-round attach on) or a private DefaultLoader
// (kIsolated), then grid::StreamEngine::run_job — on a FIFO queue served by
// the same number of workers, with TimedStore and TimedLoader in between.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "graphm/graphm.hpp"
#include "grid/stream_engine.hpp"
#include "runtime/metrics.hpp"
#include "service/job_service.hpp"
#include "spans.hpp"
#include "util/timer.hpp"

namespace perfbench {

class TracedService {
 public:
  struct Job {
    std::uint32_t id = 0;
    graphm::runtime::JobOutcome outcome;
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;  // guarded by mutex
  };
  using Handle = std::shared_ptr<Job>;

  /// `recorder` may be null: the decorators are then inert pass-throughs.
  TracedService(const graphm::storage::PartitionedStore& store,
                const graphm::service::ServiceConfig& config, SpanRecorder* recorder);
  ~TracedService();
  TracedService(const TracedService&) = delete;
  TracedService& operator=(const TracedService&) = delete;

  Handle submit(const graphm::algos::JobSpec& spec);
  [[nodiscard]] std::uint64_t now_ns() const { return clock_.elapsed_ns(); }
  static const graphm::runtime::JobOutcome& await(const Handle& job);
  static graphm::service::JobState state(const Handle& job);
  static std::uint32_t job_id(const Handle& job) { return job->id; }

  /// GraphM::init (chunk labelling) wall time; 0 in kIsolated.
  [[nodiscard]] double init_s() const { return init_s_; }

 private:
  void worker_loop();
  void execute(Job& job);

  graphm::service::ServiceConfig config_;
  SpanRecorder* recorder_;
  graphm::sim::Platform platform_;
  TimedStore store_;
  graphm::grid::StreamEngine engine_;
  std::unique_ptr<graphm::core::GraphM> graphm_;
  double init_s_ = 0.0;
  graphm::util::Timer clock_;
  std::uint32_t next_id_ = 0;  // guarded by mutex_

  std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::deque<Handle> queue_;  // guarded by mutex_
  bool closed_ = false;       // guarded by mutex_
  std::vector<std::thread> workers_;  // last: joined before the members above die
};

/// Per-layer time of the traced jobs, split from their spans. Every field is
/// a total over all traced jobs (ns unless named otherwise).
struct LayerTimes {
  std::size_t jobs = 0;
  std::uint64_t run_job_ns = 0;
  std::vector<std::uint64_t> run_job_each_ns;
  std::uint64_t store_ns = 0;        // read_partition + read_edges
  std::uint64_t store_reads = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t acquire_self_ns = 0;  // acquire_next minus the reads inside it
  std::uint64_t barrier_self_ns = 0;  // begin_chunk + end_chunk minus reads
  std::uint64_t compute_ns = 0;       // JobRunStats::compute_ns
  std::uint64_t engine_self_ns = 0;   // run_job - loader calls - compute
  /// run_job time the five parts above do not explain (other loader calls,
  /// and compute exceeding the engine's own time); absolute, summed per job.
  std::uint64_t unattributed_ns = 0;
};

/// Splits the traced jobs' run_job spans into layer self times.
/// `compute_ns_by_job` gives each job's JobRunStats::compute_ns.
LayerTimes split_layers(const std::vector<Span>& spans,
                        const std::unordered_map<std::uint32_t, std::uint64_t>& compute_ns_by_job);

}  // namespace perfbench
