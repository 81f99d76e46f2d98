// The closed-loop load generator shared by the untraced run
// (service::JobService) and the traced run (TracedService): client threads
// that each submit one job, await it, and submit the next.
//
// A Service provides: Handle submit(const JobSpec&), now_ns(), and the
// static functions await(const Handle&) -> const runtime::JobOutcome&,
// state(const Handle&) -> service::JobState (terminal after await) and
// job_id(const Handle&).
//
// Each job is turned into a JobRow as soon as it is terminal and its handle
// is dropped, so the service's record (and its result vector) is freed then:
// the process's memory is the system's, not the benchmark's bookkeeping.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "algos/factory.hpp"
#include "runtime/metrics.hpp"
#include "service/admission.hpp"
#include "workload.hpp"

namespace perfbench {

/// One submitted job, after it reached a terminal state.
struct JobRow {
  std::size_t seq = 0;  // index into the job sequence
  std::uint32_t job_id = 0;
  graphm::algos::AlgorithmKind kind = graphm::algos::AlgorithmKind::kPageRank;
  bool measured = false;  // submitted after the warm-up
  graphm::service::JobState state = graphm::service::JobState::kRejected;
  std::uint64_t submit_ns = 0;       // when the client called submit()
  std::uint64_t submit_call_ns = 0;  // time inside submit()
  std::uint64_t arrival_ns = 0;      // the service's own timestamps
  std::uint64_t start_ns = 0;
  std::uint64_t completion_ns = 0;
  graphm::grid::JobRunStats stats;
  ResultDigest result;

  [[nodiscard]] bool done() const { return state == graphm::service::JobState::kDone; }
  [[nodiscard]] std::uint64_t queue_wait_ns() const {
    return start_ns > arrival_ns ? start_ns - arrival_ns : 0;
  }
};

/// Blocks until `handle` is terminal and summarizes it; the caller then
/// drops the handle.
template <class Service>
JobRow make_row(const graphm::algos::JobSpec& spec, std::size_t seq, bool measured,
                std::uint64_t submit_ns, std::uint64_t call_ns,
                const typename Service::Handle& handle) {
  const graphm::runtime::JobOutcome& outcome = Service::await(handle);
  JobRow row;
  row.seq = seq;
  row.job_id = Service::job_id(handle);
  row.kind = spec.kind;
  row.measured = measured;
  row.state = Service::state(handle);
  row.submit_ns = submit_ns;
  row.submit_call_ns = call_ns;
  row.arrival_ns = outcome.arrival_ns;
  row.start_ns = outcome.start_ns;
  row.completion_ns = outcome.completion_ns;
  row.stats = outcome.stats;
  row.result = digest_result(spec, outcome.result);
  return row;
}

/// Runs `clients` client threads over the job sequence: a warm-up, then
/// `seconds`, extended until kMinMeasuredJobs jobs were submitted after the
/// warm-up. A non-zero `job_limit` instead stops after that many jobs. No
/// job is submitted after twice the planned time, whatever the host's speed.
template <class Service>
std::vector<JobRow> drive_closed(Service& svc, const std::vector<graphm::algos::JobSpec>& jobs,
                                 std::size_t clients, double seconds, std::size_t job_limit) {
  const std::uint64_t t0 = svc.now_ns();
  const auto at = [t0](double s) { return t0 + static_cast<std::uint64_t>(s * 1e9); };
  const std::uint64_t warm_end = at(kWarmupSeconds);
  const std::uint64_t end = at(kWarmupSeconds + seconds);
  const std::uint64_t hard_end = at(kWarmupSeconds + 2.0 * seconds);

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> measured_count{0};
  std::mutex rows_mutex;
  std::vector<JobRow> rows;  // guarded by rows_mutex
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::vector<JobRow> local;
      for (;;) {
        const std::uint64_t now = svc.now_ns();
        if (now >= hard_end) break;
        if (job_limit == 0 && now >= end && measured_count.load() >= kMinMeasuredJobs) break;
        const std::size_t seq = next.fetch_add(1);
        if (job_limit != 0 && seq >= job_limit) break;
        const graphm::algos::JobSpec& spec = jobs[seq % jobs.size()];
        const std::uint64_t start = svc.now_ns();
        const auto handle = svc.submit(spec);
        const std::uint64_t call = svc.now_ns() - start;
        const bool measured = start >= warm_end;
        if (measured) measured_count.fetch_add(1);
        local.push_back(make_row<Service>(spec, seq, measured, start, call, handle));
      }
      std::lock_guard<std::mutex> lock(rows_mutex);
      for (JobRow& row : local) rows.push_back(std::move(row));
    });
  }
  for (std::thread& t : threads) t.join();
  std::sort(rows.begin(), rows.end(),
            [](const JobRow& a, const JobRow& b) { return a.seq < b.seq; });
  return rows;
}

}  // namespace perfbench
