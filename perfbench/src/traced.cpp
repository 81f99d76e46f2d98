#include "traced.hpp"

#include <algorithm>

#include "algos/factory.hpp"
#include "graphm/sharing_controller.hpp"

namespace perfbench {

using graphm::service::JobState;

TracedService::TracedService(const graphm::storage::PartitionedStore& store,
                             const graphm::service::ServiceConfig& config, SpanRecorder* recorder)
    : config_(config),
      recorder_(recorder),
      platform_(config_.platform),
      store_(store, recorder),
      engine_(store_, platform_, config_.stream) {
  if (config_.mode == graphm::service::ExecMode::kShared) {
    // As JobService: open-loop sharing always allows mid-round attach.
    graphm::core::GraphMOptions options = config_.graphm;
    options.allow_mid_round_attach = true;
    graphm_ = std::make_unique<graphm::core::GraphM>(store_, platform_, options);
    init_s_ = static_cast<double>(graphm_->init()) / 1e9;
  }
  platform_.page_cache().reset();
  clock_.reset();
  const std::size_t count = std::max<std::size_t>(1, config_.workers);
  for (std::size_t w = 0; w < count; ++w) workers_.emplace_back([this] { worker_loop(); });
}

TracedService::~TracedService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

TracedService::Handle TracedService::submit(const graphm::algos::JobSpec& spec) {
  auto job = std::make_shared<Job>();
  job->outcome.spec = spec;
  job->outcome.arrival_ns = now_ns();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job->id = next_id_++;
    if (job->id == graphm::core::kPreprocessJobId) job->id = next_id_++;
    queue_.push_back(job);
  }
  queue_cv_.notify_one();
  return job;
}

const graphm::runtime::JobOutcome& TracedService::await(const Handle& job) {
  std::unique_lock<std::mutex> lock(job->mutex);
  job->cv.wait(lock, [&] { return job->done; });
  return job->outcome;
}

JobState TracedService::state(const Handle& job) {
  await(job);
  return job->outcome.stats.cancelled ? JobState::kCancelled : JobState::kDone;
}

void TracedService::worker_loop() {
  for (;;) {
    Handle job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    execute(*job);
    {
      std::lock_guard<std::mutex> lock(job->mutex);
      job->done = true;
    }
    job->cv.notify_all();
  }
}

void TracedService::execute(Job& job) {
  std::unique_ptr<graphm::grid::PartitionLoader> inner;
  if (graphm_) {
    inner = graphm_->make_loader(job.id);
  } else {
    inner = std::make_unique<graphm::grid::DefaultLoader>(store_, platform_);
  }
  TimedLoader loader(*inner, recorder_);
  auto algorithm = graphm::algos::make_algorithm(job.outcome.spec);
  job.outcome.start_ns = now_ns();
  {
    SpanScope span(recorder_, SpanKind::kRunJob, job.id);
    job.outcome.stats = engine_.run_job(job.id, *algorithm, loader);
  }
  job.outcome.completion_ns = now_ns();
  job.outcome.result = algorithm->result();
}

LayerTimes split_layers(const std::vector<Span>& spans,
                        const std::unordered_map<std::uint32_t, std::uint64_t>& compute_ns_by_job) {
  // Per run_job span: its direct loader-call children and the store reads
  // inside them. A thread's spans are recorded in start order, so a parent
  // is always indexed before its children.
  struct PerJob {
    std::uint64_t run = 0;
    std::uint32_t job = 0;
    std::uint64_t loader = 0, acquire = 0, barrier = 0;
    std::uint64_t store = 0, store_in_acquire = 0, store_in_barrier = 0, store_direct = 0;
    std::uint64_t reads = 0, bytes = 0;
  };
  std::unordered_map<std::uint64_t, std::size_t> index_of;  // span id -> spans index
  index_of.reserve(spans.size());
  std::unordered_map<std::uint64_t, PerJob> jobs;  // run_job span id -> totals
  std::vector<std::uint64_t> root_of(spans.size(), 0);  // enclosing run_job span id

  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    index_of.emplace(s.id, i);
    if (s.kind == SpanKind::kRunJob) {
      root_of[i] = s.id;
      PerJob& pj = jobs[s.id];
      pj.run = s.duration_ns();
      pj.job = s.job;
      continue;
    }
    const auto parent_it = s.parent != 0 ? index_of.find(s.parent) : index_of.end();
    if (parent_it == index_of.end()) continue;  // outside any job (e.g. init labelling)
    const std::size_t parent = parent_it->second;
    root_of[i] = root_of[parent];
    if (root_of[i] == 0) continue;
    PerJob& pj = jobs[root_of[i]];
    const SpanKind parent_kind = spans[parent].kind;
    if (is_store_span(s.kind)) {
      pj.store += s.duration_ns();
      ++pj.reads;
      pj.bytes += s.bytes;
      if (parent_kind == SpanKind::kAcquire) {
        pj.store_in_acquire += s.duration_ns();
      } else if (parent_kind == SpanKind::kBeginChunk || parent_kind == SpanKind::kEndChunk) {
        pj.store_in_barrier += s.duration_ns();
      } else if (parent_kind == SpanKind::kRunJob) {
        pj.store_direct += s.duration_ns();
      }
    } else if (parent_kind == SpanKind::kRunJob) {
      pj.loader += s.duration_ns();
      if (s.kind == SpanKind::kAcquire) pj.acquire += s.duration_ns();
      if (s.kind == SpanKind::kBeginChunk || s.kind == SpanKind::kEndChunk) {
        pj.barrier += s.duration_ns();
      }
    }
  }

  LayerTimes out;
  for (const auto& [id, pj] : jobs) {
    const auto compute_it = compute_ns_by_job.find(pj.job);
    const std::uint64_t compute = compute_it != compute_ns_by_job.end() ? compute_it->second : 0;
    const std::uint64_t acquire_self = pj.acquire - std::min(pj.acquire, pj.store_in_acquire);
    const std::uint64_t barrier_self = pj.barrier - std::min(pj.barrier, pj.store_in_barrier);
    const std::uint64_t outside = pj.loader + pj.store_direct + compute;
    const std::uint64_t engine_self = pj.run > outside ? pj.run - outside : 0;
    const std::uint64_t attributed = pj.store + acquire_self + barrier_self + compute + engine_self;
    ++out.jobs;
    out.run_job_ns += pj.run;
    out.run_job_each_ns.push_back(pj.run);
    out.store_ns += pj.store;
    out.store_reads += pj.reads;
    out.store_bytes += pj.bytes;
    out.acquire_self_ns += acquire_self;
    out.barrier_self_ns += barrier_self;
    out.compute_ns += compute;
    out.engine_self_ns += engine_self;
    out.unattributed_ns += attributed > pj.run ? attributed - pj.run : pj.run - attributed;
  }
  return out;
}

}  // namespace perfbench
