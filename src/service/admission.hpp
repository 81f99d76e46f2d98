// The live service's admission queue: a mutex + condition-variable wrapper
// that lets worker threads block on service::AdmissionCore, which makes
// every admission decision (policies, deadline convention and backpressure
// are documented in admission_core.hpp). Also the terminal-outcome and
// job-record vocabulary the live service and the simulated cluster share.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "util/annotations.hpp"

#include "algos/factory.hpp"
#include "grid/stream_engine.hpp"
#include "runtime/metrics.hpp"
#include "service/admission_core.hpp"

namespace graphm::service {

const char* admission_policy_name(AdmissionPolicy policy);

/// Terminal outcome of a submitted job — the shared vocabulary the local
/// service and the simulated cluster both account in. Every submission lands
/// in exactly ONE of these (the conservation law the fault tests pin):
/// submitted == completed + rejected + deadline_shed + deadline_aborted +
/// failover_shed + unroutable + slo_shed.
enum class Outcome : int {
  kCompleted = 0,        // ran to its final barrier
  kRejected = 1,         // backpressure at admission (queue full)
  kDeadlineShed = 2,     // deadline already unmeetable at dispatch time
  kDeadlineAborted = 3,  // started, aborted at a superstep past its deadline
  kFailoverShed = 4,     // every replica down or the retry budget ran out
  kUnroutable = 5,       // no backend serves the requested dataset
  kSloShed = 6,          // adaptive admission shed it while burn was Critical
};

const char* outcome_name(Outcome outcome);

enum class JobState : int { kQueued = 0, kRunning = 1, kDone = 2, kCancelled = 3, kRejected = 4 };

/// Shared record of one submitted job: the submission parameters, lifecycle
/// timestamps on the service clock, and the outcome. Owned jointly by the
/// service and the client's JobHandle.
struct JobRecord {
  std::uint32_t job_id = 0;
  std::size_t dataset = 0;
  algos::JobSpec spec;
  /// Absolute service-clock deadline; kNoDeadline (0) = none. Derive real
  /// deadlines with deadline_from(now, slo) — see the convention above.
  std::uint64_t deadline_ns = kNoDeadline;

  runtime::JobOutcome outcome;  // timestamps, engine stats, optional result
  std::uint64_t modeled_latency_ns = 0;
  bool missed_deadline = false;

  std::atomic<JobState> state{JobState::kQueued};
  Mutex mutex;
  std::condition_variable cv;  // signalled on terminal state

  [[nodiscard]] bool terminal() const {
    const JobState s = state.load(std::memory_order_acquire);
    return s == JobState::kDone || s == JobState::kCancelled || s == JobState::kRejected;
  }
};

using JobRecordPtr = std::shared_ptr<JobRecord>;

class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionConfig config);

  /// Admits under the policy at `now_ns`; `slo_critical` is the SLO signal
  /// kAdaptive sheds on. A closed queue rejects everything.
  Admit push(JobRecordPtr job, std::uint64_t now_ns, bool slo_critical);

  /// Blocks until a job is dispatchable, the batch timer says to stop
  /// holding, or the queue is closed. Returns nullptr only when closed and
  /// empty. `now_ns` reads the service clock (used for batch timeouts).
  JobRecordPtr pop(const std::function<std::uint64_t()>& now_ns);

  /// Releases any held batch immediately (drain/shutdown path: a partial
  /// batch must not dam the queue forever).
  void flush();

  /// Wakes poppers; pop drains the remaining jobs, then returns nullptr.
  void close();

  [[nodiscard]] std::size_t depth() const;

 private:
  mutable Mutex mutex_;
  std::condition_variable cv_;
  AdmissionCore<JobRecordPtr> core_ GUARDED_BY(mutex_);
  bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace graphm::service
