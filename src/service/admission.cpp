#include "service/admission.hpp"

#include <chrono>

namespace graphm::service {

const char* admission_policy_name(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kImmediate: return "immediate";
    case AdmissionPolicy::kBatchUntilK: return "batch-until-k";
    case AdmissionPolicy::kDeadline: return "deadline-edf";
    case AdmissionPolicy::kAdaptive: return "adaptive-slo";
  }
  return "?";
}

const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kCompleted: return "completed";
    case Outcome::kRejected: return "rejected";
    case Outcome::kDeadlineShed: return "deadline-shed";
    case Outcome::kDeadlineAborted: return "deadline-aborted";
    case Outcome::kFailoverShed: return "failover-shed";
    case Outcome::kUnroutable: return "unroutable";
    case Outcome::kSloShed: return "slo-shed";
  }
  return "?";
}

AdmissionQueue::AdmissionQueue(AdmissionConfig config) : core_(config) {}

Admit AdmissionQueue::push(JobRecordPtr job, std::uint64_t now_ns, bool slo_critical) {
  MutexLock lock(mutex_);
  if (closed_) return Admit::kRejected;
  const std::uint64_t deadline_ns = job->deadline_ns;
  const Admit result = core_.admit(std::move(job), deadline_ns, now_ns, slo_critical);
  if (admitted(result)) cv_.notify_all();
  return result;
}

JobRecordPtr AdmissionQueue::pop(const std::function<std::uint64_t()>& now_ns) {
  MutexLock lock(mutex_);
  for (;;) {
    if (core_.has_ready()) return core_.take();
    if (core_.holding()) {
      // A partial batch: dispatch anyway once the oldest member has waited
      // out the batch window (bounded added latency), otherwise sleep until
      // that moment or a state change.
      const std::uint64_t now = now_ns();
      if (closed_ || core_.release_due(now)) {
        core_.release();
        continue;
      }
      lock.wait_for(cv_, std::chrono::nanoseconds(core_.release_at() - now));
      continue;
    }
    if (closed_) return nullptr;
    lock.wait(cv_);
  }
}

void AdmissionQueue::flush() {
  MutexLock lock(mutex_);
  core_.release();
  cv_.notify_all();
}

void AdmissionQueue::close() {
  MutexLock lock(mutex_);
  closed_ = true;
  cv_.notify_all();
}

std::size_t AdmissionQueue::depth() const {
  MutexLock lock(mutex_);
  return core_.depth();
}

}  // namespace graphm::service
