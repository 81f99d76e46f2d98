// AdmissionCore — the one implementation of every admission decision, with
// two drivers: the live service (service::AdmissionQueue, under a mutex, on
// the service clock) and the simulated cluster (cluster::ClusterService, from
// the event loop, on the simulated clock). The core is single-threaded and
// never reads a clock: each decision is a function of (item, deadline,
// now_ns, slo_critical) and the queue contents. The DES links it, so a
// wall-clock read here would break the golden trace pins
// (tools/lint_invariants.py, rule wall-clock).
//
// Policies (docs/service.md, "Admission policies"):
//  * kImmediate    — FIFO, dispatch as soon as a slot frees.
//  * kBatchUntilK  — hold arrivals until k wait or the oldest has waited
//                    batch_max_wait_ns, then release them together, so the
//                    batch enters the sharing group at one point.
//  * kDeadline     — earliest deadline first; deadline-less jobs last, FIFO
//                    among equals.
//  * kAdaptive     — kDeadline's order, plus shedding while the driver's SLO
//                    signal is Critical: deadline-less arrivals always, and
//                    deadlined ones once the queue is at the quota.
// Backpressure: the queue, held jobs included, is bounded by max_depth.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

namespace graphm::service {

enum class AdmissionPolicy : int {
  kImmediate = 0,
  kBatchUntilK = 1,
  kDeadline = 2,
  kAdaptive = 3,
};

// Deadline convention (repo-wide): deadline_ns is an absolute clock value and
// 0 is the reserved "no deadline" sentinel — EDF sorts it last and it can
// never be missed or aborted. These helpers are its single definition.

/// The "no deadline" sentinel.
inline constexpr std::uint64_t kNoDeadline = 0;

/// EDF sort key: tightest real deadline first, the sentinel last (mapped to
/// +inf, so it loses every comparison; FIFO among equals is the queue's
/// responsibility).
[[nodiscard]] constexpr std::uint64_t edf_deadline_key(std::uint64_t deadline_ns) {
  return deadline_ns == kNoDeadline ? std::numeric_limits<std::uint64_t>::max()
                                    : deadline_ns;
}

/// Builds an absolute deadline from a clock reading and a relative SLO.
/// Normalized: a computed deadline of exactly 0 ns (only reachable at clock
/// origin with a zero SLO) becomes 1 ns — still unmeetable-tight, but a real
/// deadline rather than the sentinel.
[[nodiscard]] constexpr std::uint64_t deadline_from(std::uint64_t now_ns,
                                                    std::uint64_t slo_ns) {
  const std::uint64_t deadline = now_ns + slo_ns;
  return deadline == kNoDeadline ? 1 : deadline;
}

struct AdmissionConfig {
  AdmissionPolicy policy = AdmissionPolicy::kImmediate;
  /// Backpressure bound on queued jobs, held ones included (0 acts as 1).
  std::size_t max_depth = 1024;
  /// kBatchUntilK: release once this many are held (0 acts as 1).
  std::size_t batch_k = 4;
  /// kBatchUntilK: the oldest held job waits at most this long.
  std::uint64_t batch_max_wait_ns = 50'000'000;
  /// kAdaptive: queue depth at which deadlined arrivals shed while Critical.
  /// 0 = `slots` (one dispatch round of backlog).
  std::size_t adaptive_queue_quota = 0;
  /// Jobs the driver runs at once: its workers or dispatch slots.
  std::size_t slots = 1;
};

/// What admit() did with an arrival.
enum class Admit : int {
  kReady = 0,        // dispatchable now (alone, or as the member that filled its batch)
  kHeld = 1,         // joined a partial batch
  kBatchOpened = 2,  // held as the first of a new batch: release it at release_at()
  kRejected = 3,     // the depth bound (backpressure)
  kSloShed = 4,      // kAdaptive shed it while the SLO signal was Critical
};

[[nodiscard]] constexpr bool admitted(Admit result) {
  return result != Admit::kRejected && result != Admit::kSloShed;
}

template <typename Item>
class AdmissionCore {
 public:
  explicit AdmissionCore(AdmissionConfig config = {}) : config_(config) {}

  /// Decides one arrival at `now_ns`. `slo_critical` is the driver's SLO
  /// signal; only kAdaptive acts on it. Rejected and shed items are dropped.
  Admit admit(Item item, std::uint64_t deadline_ns, std::uint64_t now_ns, bool slo_critical) {
    if (config_.policy == AdmissionPolicy::kAdaptive && slo_critical &&
        (deadline_ns == kNoDeadline || depth() >= shed_quota())) {
      return Admit::kSloShed;
    }
    if (depth() >= std::max<std::size_t>(1, config_.max_depth)) return Admit::kRejected;
    if (config_.policy != AdmissionPolicy::kBatchUntilK) {
      ready_.push_back({std::move(item), deadline_ns});
      return Admit::kReady;
    }
    if (held_.empty()) oldest_held_ns_ = now_ns;
    held_.push_back({std::move(item), deadline_ns});
    if (held_.size() >= std::max<std::size_t>(1, config_.batch_k)) {
      // Threshold reached: the whole batch becomes dispatchable at once, so
      // it enters the sharing group at a single point in the stream.
      release();
      return Admit::kReady;
    }
    return held_.size() == 1 ? Admit::kBatchOpened : Admit::kHeld;
  }

  /// Re-admits a job that already waited elsewhere (failover): straight to
  /// ready, past both the depth bound and batching, so a drained queue
  /// always lands somewhere.
  void requeue(Item item, std::uint64_t deadline_ns) {
    ready_.push_back({std::move(item), deadline_ns});
  }

  [[nodiscard]] bool has_ready() const { return !ready_.empty(); }

  /// Removes and returns the next job: EDF under kDeadline and kAdaptive
  /// (FIFO among equal keys), FIFO otherwise. Requires has_ready().
  Item take() {
    auto next = ready_.begin();
    if (config_.policy == AdmissionPolicy::kDeadline ||
        config_.policy == AdmissionPolicy::kAdaptive) {
      for (auto it = std::next(next); it != ready_.end(); ++it) {
        if (edf_deadline_key(it->deadline_ns) < edf_deadline_key(next->deadline_ns)) next = it;
      }
    }
    Item item = std::move(next->item);
    ready_.erase(next);
    return item;
  }

  [[nodiscard]] bool holding() const { return !held_.empty(); }
  /// When the held batch must go: its oldest arrival + batch_max_wait_ns.
  /// Meaningful only while holding().
  [[nodiscard]] std::uint64_t release_at() const {
    return oldest_held_ns_ + config_.batch_max_wait_ns;
  }
  [[nodiscard]] bool release_due(std::uint64_t now_ns) const {
    return holding() && now_ns >= release_at();
  }
  /// Moves the held batch, in arrival order, behind the ready jobs.
  void release() {
    for (Entry& entry : held_) ready_.push_back(std::move(entry));
    held_.clear();
  }

  /// Empties the core: the ready jobs in queue order, then the held ones.
  std::vector<Item> drain() {
    std::vector<Item> items;
    items.reserve(depth());
    for (Entry& entry : ready_) items.push_back(std::move(entry.item));
    for (Entry& entry : held_) items.push_back(std::move(entry.item));
    ready_.clear();
    held_.clear();
    return items;
  }

  [[nodiscard]] std::size_t depth() const { return ready_.size() + held_.size(); }

 private:
  struct Entry {
    Item item;
    std::uint64_t deadline_ns = kNoDeadline;
  };

  [[nodiscard]] std::size_t shed_quota() const {
    return config_.adaptive_queue_quota != 0 ? config_.adaptive_queue_quota
                                             : std::max<std::size_t>(1, config_.slots);
  }

  AdmissionConfig config_;
  std::deque<Entry> ready_;
  std::deque<Entry> held_;  // kBatchUntilK only
  std::uint64_t oldest_held_ns_ = 0;
};

}  // namespace graphm::service
