// ClusterService — distributed serving over the discrete-event cluster: the
// JobService story (open-loop arrivals, admission policies, SLO percentiles)
// played out on simulated PowerGraph/Chaos/GraphM-per-node backends instead
// of the local engine pool.
//
// The dataset is sharded by contiguous source ranges (balanced by edge
// count), one shard per backend; a submission names its dataset shard and is
// routed to the backend serving it (unnamed submissions go to the least
// loaded backend at arrival). Each backend admits through its own
// service::AdmissionCore — the one admission implementation, which the live
// service drives too; here the event loop drives it on the simulated clock —
// ahead of a bounded dispatch-slot pool, and jobs then execute as
// message-level DES runs
// (BackendSim): GraphM-per-node backends (shared_structure = true) load or
// stream the shard once and attach later arrivals, private backends pay per
// job. Per backend the service reports the same queue-wait / stream / e2e
// p50-p95-p99 stats JobService emits, through the same service_stats
// machinery (service::LatencySummary / summarize_latency).
//
// Replication and failover (docs/cluster.md, "Fault model"): one shard may be
// served by N replica backends — reads load-balance to the least-loaded live
// replica. A heartbeat monitor on the simulated clock walks each backend
// through alive -> suspect -> dead; a dead backend's admission core drains to
// its surviving replicas, dispatched-but-dead jobs retry with capped
// exponential backoff under a budget, and a job is shed
// (service::Outcome::kFailoverShed) only when no live replica remains or the
// budget runs out. run() optionally replays a FaultPlan (crash / slowdown /
// partition) against the cluster; an empty plan reproduces the fault-free
// trace bit for bit.
//
// Everything runs on the simulated clock: run() takes the full arrival
// schedule, plays it deterministically, and returns the per-backend report —
// same seed, same submissions, same fault plan, bit-identical trace.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include <memory>

#include "cluster/des_engine.hpp"
#include "cluster/faults.hpp"
#include "graph/edge_list.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "service/admission.hpp"
#include "service/service_stats.hpp"

namespace graphm::cluster {

/// "No backend" sentinel for JobReport::backend (never admitted anywhere).
inline constexpr std::uint32_t kNoBackend = 0xFFFFFFFFu;

/// One serving backend: a node slice running one engine kind over one dataset
/// shard, behind its own admission core.
///
/// Replication: backends sharing a `dataset` name are replicas of one shard —
/// they serve identical data and any of them may take a read. Sharding is
/// either implicit (all total_shards == 0: distinct dataset names get one
/// shard each, in first-appearance order — the pre-replication behavior) or
/// explicit (total_shards > 0 on every backend, all agreeing: the graph is
/// cut into total_shards pieces and each backend serves shards[shard_id];
/// replicas must agree on shard_id).
struct BackendConfig {
  std::string dataset;  // routing key; shared by replicas of one shard
  Backend engine = Backend::kPowerGraph;
  /// GraphM on the backend: one resident structure / one shared stream that
  /// arrivals attach to. False prices the engine's native per-job loading.
  bool shared_structure = true;
  std::size_t num_nodes = 16;
  /// Dispatch slots: jobs running concurrently on the backend (its worker
  /// pool). Queued jobs wait under the admission policy.
  std::size_t max_concurrent = 8;
  std::size_t max_queue_depth = 1024;  // backpressure bound, JobService-style
  service::AdmissionPolicy policy = service::AdmissionPolicy::kImmediate;
  std::size_t batch_k = 4;
  std::uint64_t batch_max_wait_ns = 50'000'000;
  /// Mirror of ServiceConfig::cancel_past_deadline on the simulated clock:
  /// a job whose deadline passed while queued is shed at dispatch, and a
  /// dispatched job is aborted at its next superstep barrier (BackendSim
  /// frees its disk/core/structure reservations early). Off by default —
  /// deadlines then only feed EDF ordering and the miss counter.
  bool cancel_past_deadline = false;
  /// kAdaptive only: queue depth at which even deadlined arrivals shed
  /// while an objective is Critical (deadline-less arrivals always shed
  /// then). 0 = max_concurrent (one dispatch round of backlog).
  std::size_t adaptive_queue_quota = 0;
  /// Which replica of the shard this backend is (informational; echoed in
  /// BackendStats — routing load-balances regardless).
  std::uint32_t replica_id = 0;
  /// Explicit sharding (see the struct comment). All backends must agree on
  /// total_shards; 0 on every backend selects implicit by-dataset sharding.
  std::uint32_t shard_id = 0;
  std::uint32_t total_shards = 0;
};

struct ClusterServiceConfig {
  /// Per-node hardware (memory, disk/net bandwidth, cores). num_nodes and
  /// num_groups are ignored — BackendConfig::num_nodes sizes each backend.
  dist::ClusterConfig node;
  DesConfig des;
  /// Health tracking + retry/backoff policy for replica failover.
  FailoverConfig failover;
  /// SLO objectives tracked on the simulated clock (obs::SloMonitor, scoped
  /// per dataset). Non-empty turns tracking on for every run(); backends
  /// whose policy is service::AdmissionPolicy::kAdaptive additionally shed
  /// on the Critical signal. Backend health folds in as capacity: each
  /// declared-dead backend scales every burn by total/live, so a degraded
  /// cluster trips the detector earlier. Tracking alone emits no trace and
  /// draws no randomness — fault-free golden traces stay bit-identical
  /// until an objective actually fires.
  std::vector<obs::SloSpec> objectives;
};

/// One JobService-style submission on the simulated clock.
struct Submission {
  algos::JobSpec spec;
  std::uint64_t arrival_ns = 0;
  /// Absolute sim-clock deadline; service::kNoDeadline (0) = none. Derive
  /// real deadlines with service::deadline_from(arrival_ns, slo_ns) so a
  /// time-zero deadline can never collapse into the sentinel.
  std::uint64_t deadline_ns = service::kNoDeadline;
  std::string dataset;  // empty = route to the least-loaded backend
};

/// Per-backend SLO report — the ServiceStats view of one simulated backend.
struct BackendStats {
  std::string dataset;
  Backend engine = Backend::kPowerGraph;
  std::uint32_t shard = 0;       // shard index this backend serves
  std::uint32_t replica_id = 0;  // echo of BackendConfig::replica_id
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;  // admission backpressure
  std::uint64_t completed = 0;
  std::uint64_t deadline_misses = 0;
  /// Jobs cancelled under cancel_past_deadline: shed at dispatch or aborted
  /// mid-run at a superstep barrier. Every abort is also a deadline miss;
  /// aborted jobs are excluded from `completed` and the latency summaries.
  std::uint64_t deadline_aborts = 0;
  /// Fault-side counters: jobs this backend lost to a crash, failover jobs
  /// re-admitted here from a dead sibling, jobs that gave up while this was
  /// their last backend, faults that landed here (crashes included).
  std::uint64_t failed = 0;
  std::uint64_t redispatched_in = 0;
  std::uint64_t failover_shed = 0;
  /// Arrivals shed by adaptive admission while the burn signal was Critical
  /// (service::Outcome::kSloShed).
  std::uint64_t slo_shed = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t crashes = 0;

  service::LatencySummary queue_wait;   // dispatch − arrival
  service::LatencySummary stream_time;  // completion − dispatch
  service::LatencySummary e2e;          // completion − arrival

  double sustained_jobs_per_s = 0.0;  // completed over [first arrival, last completion]
  double structure_loads = 0.0;
  double network_gb = 0.0;
  double disk_gb = 0.0;
  double replication = 1.0;
  bool feasible = true;
};

/// Per-job terminal record of one run(). Every submission produces exactly
/// one report — the conservation law (submissions == sum over outcomes) the
/// fault tests pin.
struct JobReport {
  std::uint32_t job = 0;  // submission index
  service::Outcome outcome = service::Outcome::kCompleted;
  std::uint32_t shard = 0;             // shard the job was routed against
  std::uint32_t backend = kNoBackend;  // last backend it touched
  /// Failover attempts consumed (0 = never failed over).
  std::uint32_t attempts = 0;
  std::uint64_t completion_ns = 0;  // sim time the terminal state latched
};

/// Whole-run fault/failover counters.
struct FaultStats {
  std::uint64_t faults_injected = 0;
  std::uint64_t crashes = 0;
  std::uint64_t slowdowns = 0;
  std::uint64_t partitions = 0;
  std::uint64_t suspects = 0;   // alive -> suspect transitions
  std::uint64_t failovers = 0;  // suspect -> dead transitions (queue drains)
  std::uint64_t rejoins = 0;    // dead -> alive transitions
  std::uint64_t redispatched_jobs = 0;
  std::uint64_t retries = 0;  // backoff waits scheduled
  std::uint64_t failover_shed = 0;
  std::uint64_t slo_shed = 0;  // adaptive-admission sheds (whole run)
};

/// Shards `graph` into `shards` edge lists by contiguous source ranges,
/// balanced by edge count. Every shard keeps the full vertex id space so any
/// root remains addressable; shard i holds the edges whose source falls in
/// its range (the grid's partition rows, coarsened).
std::vector<graph::EdgeList> shard_by_source(const graph::EdgeList& graph,
                                             std::size_t shards);

class ClusterService {
 public:
  /// Shards `graph` per the backends' shard configuration (see BackendConfig)
  /// and prepares the routing table. Dataset names must be non-empty;
  /// backends sharing a name are replicas and must serve the same shard.
  ClusterService(const graph::EdgeList& graph, std::vector<BackendConfig> backends,
                 ClusterServiceConfig config);

  [[nodiscard]] std::size_t num_backends() const { return backends_.size(); }
  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  /// The shard data backend `backend` serves (replicas return the same list).
  [[nodiscard]] const graph::EdgeList& shard(std::size_t backend) const {
    return shards_[backend_shard_[backend]];
  }

  /// Plays the full arrival schedule on a fresh simulated cluster —
  /// optionally under a fault plan — and returns per-backend stats.
  /// Deterministic in (submissions, config seed, faults); callable
  /// repeatedly, each run independent; an empty plan is trace-identical to
  /// the pre-fault service. Submissions naming an unknown dataset are
  /// dropped and counted in unroutable().
  std::vector<BackendStats> run(const std::vector<Submission>& submissions,
                                const FaultPlan& faults = {});

  [[nodiscard]] std::uint64_t unroutable() const { return unroutable_; }
  /// Determinism witnesses of the last run().
  [[nodiscard]] std::uint64_t last_trace_hash() const { return last_trace_hash_; }
  [[nodiscard]] std::uint64_t last_events() const { return last_events_; }
  [[nodiscard]] const std::vector<TraceRecord>& last_trace() const { return last_trace_; }
  /// Terminal record per submission of the last run(), in submission order.
  [[nodiscard]] const std::vector<JobReport>& last_job_reports() const {
    return last_job_reports_;
  }
  [[nodiscard]] const FaultStats& last_fault_stats() const { return last_fault_stats_; }
  /// The last run's SLO monitor (nullptr before the first run or when no
  /// objectives are configured) — cached evals, per-scope sheds.
  [[nodiscard]] const obs::SloMonitor* last_slo() const { return last_slo_.get(); }

  /// Re-homes the last run's fault/failover counters and `stats` (the
  /// vector run() returned) into `registry`: whole-run totals under
  /// `graphm.cluster.*`, per-backend counters under
  /// `graphm.cluster.backend<i>.*` (publish-style, idempotent).
  void publish_metrics(obs::Registry& registry,
                       const std::vector<BackendStats>& stats) const;

 private:
  /// One dist::JobProfile per distinct spec a shard has served (replicas of
  /// a shard share the cache). Persisted across run() calls (profiles depend
  /// only on the shard); deque keeps addresses stable for in-flight
  /// references.
  const dist::JobProfile& profile_for(std::size_t shard, const algos::JobSpec& spec);

  std::vector<BackendConfig> backends_;
  ClusterServiceConfig config_;
  std::vector<graph::EdgeList> shards_;
  /// backend index -> shard index it serves.
  std::vector<std::size_t> backend_shard_;
  /// shard index -> backends serving it (its replica set), in config order.
  std::vector<std::vector<std::size_t>> shard_replicas_;
  std::vector<std::deque<dist::JobProfile>> profile_cache_;  // per shard
  /// Vertex-cut per backend (shard × node count are fixed at construction),
  /// computed lazily on the first run() and reused — placement is two full
  /// shard scans. Empty edge_share = not yet computed.
  std::vector<Placement> placement_cache_;

  std::uint64_t unroutable_ = 0;
  std::unique_ptr<obs::SloMonitor> last_slo_;
  std::uint64_t last_trace_hash_ = 0;
  std::uint64_t last_events_ = 0;
  std::vector<TraceRecord> last_trace_;
  std::vector<JobReport> last_job_reports_;
  FaultStats last_fault_stats_;
};

}  // namespace graphm::cluster
