#include "service/service_stats.hpp"

#include <algorithm>

namespace graphm::service {

namespace {

double nearest_rank(const std::vector<std::uint64_t>& sorted, double quantile) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(quantile * static_cast<double>(sorted.size() - 1) + 0.5);
  return static_cast<double>(sorted[std::min(rank, sorted.size() - 1)]);
}

}  // namespace

LatencySummary summarize_latency(std::vector<std::uint64_t> samples_ns) {
  LatencySummary summary;
  if (samples_ns.empty()) return summary;
  std::sort(samples_ns.begin(), samples_ns.end());
  summary.count = samples_ns.size();
  double sum = 0.0;
  for (const std::uint64_t s : samples_ns) sum += static_cast<double>(s);
  summary.mean_ns = sum / static_cast<double>(samples_ns.size());
  summary.p50_ns = nearest_rank(samples_ns, 0.50);
  summary.p95_ns = nearest_rank(samples_ns, 0.95);
  summary.p99_ns = nearest_rank(samples_ns, 0.99);
  summary.max_ns = static_cast<double>(samples_ns.back());
  return summary;
}

LatencySummary latency_from_outcomes(const std::vector<runtime::JobOutcome>& jobs) {
  std::vector<std::uint64_t> samples;
  samples.reserve(jobs.size());
  for (const runtime::JobOutcome& job : jobs) samples.push_back(job.latency_ns());
  return summarize_latency(std::move(samples));
}

double sustained_jobs_per_s(std::size_t completed, std::uint64_t first_arrival_ns,
                            std::uint64_t last_completion_ns) {
  if (completed == 0 || last_completion_ns <= first_arrival_ns) return 0.0;
  return static_cast<double>(completed) /
         (static_cast<double>(last_completion_ns - first_arrival_ns) / 1e9);
}

void StatsCollector::on_submit() {
  MutexLock lock(mutex_);
  ++submitted_;
}

void StatsCollector::on_reject() {
  MutexLock lock(mutex_);
  ++rejected_;
}

void StatsCollector::push_timeline_locked(std::uint64_t t_ns, std::uint32_t running) {
  peak_concurrency_ = std::max(peak_concurrency_, running);
  if (timeline_seen_++ % timeline_stride_ != 0) return;
  timeline_.push_back({t_ns, running});
  if (timeline_.size() >= kTimelineCap) {
    // Full: drop every other retained point and record half as often from
    // here on. The timeline keeps spanning the whole run at bounded size,
    // trading resolution — never coverage — as the run grows.
    for (std::size_t i = 0; 2 * i < timeline_.size(); ++i) {
      timeline_[i] = timeline_[2 * i];
    }
    timeline_.resize((timeline_.size() + 1) / 2);
    timeline_stride_ *= 2;
  }
}

void StatsCollector::on_start(std::uint64_t t_ns, std::uint32_t running) {
  MutexLock lock(mutex_);
  push_timeline_locked(t_ns, running);
}

void StatsCollector::on_finish(const runtime::JobOutcome& outcome,
                               std::uint64_t modeled_latency_ns, bool cancelled,
                               bool missed_deadline, std::uint64_t t_ns,
                               std::uint32_t running) {
  MutexLock lock(mutex_);
  push_timeline_locked(t_ns, running);
  if (cancelled) {
    ++cancelled_;
  } else {
    ++completed_count_;
    first_arrival_ns_ = std::min(first_arrival_ns_, outcome.arrival_ns);
    last_completion_ns_ = std::max(last_completion_ns_, outcome.completion_ns);
    const Sample sample{outcome.arrival_ns, outcome.queue_wait_ns(),
                        outcome.completion_ns - outcome.start_ns, outcome.latency_ns(),
                        modeled_latency_ns, outcome.modeled_exec_ns()};
    queue_wait_hist_.record(sample.queue_wait_ns);
    stream_hist_.record(sample.stream_ns);
    e2e_hist_.record(sample.e2e_ns);
    e2e_modeled_hist_.record(sample.e2e_modeled_ns);
    exec_modeled_hist_.record(sample.exec_modeled_ns);
    if (samples_.size() < kSampleCap) samples_.push_back(sample);
  }
  if (missed_deadline) ++deadline_misses_;
}

ModeledReplay modeled_replay(std::vector<ReplayJob> jobs, std::size_t workers) {
  ModeledReplay replay;
  if (jobs.empty()) return replay;
  std::sort(jobs.begin(), jobs.end(),
            [](const ReplayJob& a, const ReplayJob& b) { return a.arrival_ns < b.arrival_ns; });
  // FIFO onto the earliest-free of `workers` modeled executors.
  std::vector<std::uint64_t> free_at(std::max<std::size_t>(1, workers), 0);
  std::vector<std::uint64_t> latencies;
  latencies.reserve(jobs.size());
  std::uint64_t last_completion = 0;
  for (const ReplayJob& job : jobs) {
    auto slot = std::min_element(free_at.begin(), free_at.end());
    const std::uint64_t start = std::max(*slot, job.arrival_ns);
    const std::uint64_t completion = start + job.service_ns;
    *slot = completion;
    latencies.push_back(completion - job.arrival_ns);
    last_completion = std::max(last_completion, completion);
  }
  replay.sustained_jobs_per_s =
      sustained_jobs_per_s(jobs.size(), jobs.front().arrival_ns, last_completion);
  replay.e2e = summarize_latency(std::move(latencies));
  return replay;
}

namespace {

LatencySummary summarize_histogram(const obs::Histogram& hist) {
  LatencySummary summary;
  if (hist.count() == 0) return summary;
  summary.count = hist.count();
  summary.mean_ns = hist.mean();
  summary.p50_ns = hist.quantile(0.50);
  summary.p95_ns = hist.quantile(0.95);
  summary.p99_ns = hist.quantile(0.99);
  summary.max_ns = static_cast<double>(hist.max());
  return summary;
}

}  // namespace

ServiceStats StatsCollector::snapshot(std::vector<GroupRecord> groups,
                                      std::size_t workers) const {
  MutexLock lock(mutex_);
  ServiceStats stats;
  stats.submitted = submitted_;
  stats.rejected = rejected_;
  stats.cancelled = cancelled_;
  stats.deadline_misses = deadline_misses_;
  stats.completed = completed_count_;
  stats.peak_concurrency = peak_concurrency_;
  stats.timeline = timeline_;
  stats.groups = std::move(groups);

  const bool exact = completed_count_ <= samples_.size();
  if (exact) {
    // Reservoir holds every outcome: report the exact order statistics the
    // closed-batch tests and benches pin.
    std::vector<std::uint64_t> waits, streams, e2e, e2e_modeled, exec_modeled;
    waits.reserve(samples_.size());
    streams.reserve(samples_.size());
    e2e.reserve(samples_.size());
    e2e_modeled.reserve(samples_.size());
    exec_modeled.reserve(samples_.size());
    for (const Sample& job : samples_) {
      waits.push_back(job.queue_wait_ns);
      streams.push_back(job.stream_ns);
      e2e.push_back(job.e2e_ns);
      e2e_modeled.push_back(job.e2e_modeled_ns);
      exec_modeled.push_back(job.exec_modeled_ns);
    }
    stats.queue_wait = summarize_latency(std::move(waits));
    stats.stream_time = summarize_latency(std::move(streams));
    stats.e2e = summarize_latency(std::move(e2e));
    stats.e2e_modeled = summarize_latency(std::move(e2e_modeled));
    stats.exec_modeled = summarize_latency(std::move(exec_modeled));
  } else {
    // Past the cap: bounded log-bucketed histograms (within one ~3.1% bucket
    // of exact, the accuracy contract tests/test_obs.cpp pins).
    stats.queue_wait = summarize_histogram(queue_wait_hist_);
    stats.stream_time = summarize_histogram(stream_hist_);
    stats.e2e = summarize_histogram(e2e_hist_);
    stats.e2e_modeled = summarize_histogram(e2e_modeled_hist_);
    stats.exec_modeled = summarize_histogram(exec_modeled_hist_);
  }

  std::vector<ReplayJob> replay_jobs;
  replay_jobs.reserve(samples_.size());
  for (const Sample& job : samples_) {
    replay_jobs.push_back({job.arrival_ns, job.exec_modeled_ns});
  }
  stats.modeled = modeled_replay(std::move(replay_jobs), workers);
  if (completed_count_ != 0) {
    stats.sustained_jobs_per_s = sustained_jobs_per_s(
        completed_count_, first_arrival_ns_, last_completion_ns_);
  }
  return stats;
}

void StatsCollector::publish_metrics(obs::Registry& registry) const {
  MutexLock lock(mutex_);
  registry.set_counter("graphm.service.submitted", submitted_);
  registry.set_counter("graphm.service.rejected", rejected_);
  registry.set_counter("graphm.service.completed", completed_count_);
  registry.set_counter("graphm.service.cancelled", cancelled_);
  registry.set_counter("graphm.service.deadline_misses", deadline_misses_);
  registry.set_gauge("graphm.service.peak_concurrency", peak_concurrency_);
  registry.histogram("graphm.service.queue_wait_ns").merge(queue_wait_hist_);
  registry.histogram("graphm.service.stream_time_ns").merge(stream_hist_);
  registry.histogram("graphm.service.e2e_ns").merge(e2e_hist_);
  registry.histogram("graphm.service.e2e_modeled_ns").merge(e2e_modeled_hist_);
  registry.histogram("graphm.service.exec_modeled_ns").merge(exec_modeled_hist_);
}

std::size_t StatsCollector::approx_memory_bytes() const {
  MutexLock lock(mutex_);
  return samples_.capacity() * sizeof(Sample) +
         timeline_.capacity() * sizeof(ConcurrencyPoint) +
         5 * sizeof(obs::Histogram);
}

}  // namespace graphm::service
