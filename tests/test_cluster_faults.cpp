// Fault injection + replica failover contracts (src/cluster/faults.*):
// (1) stream isolation — the fault RNG stream never perturbs the jitter
// stream, and an empty FaultPlan reproduces the pre-fault traces bit for bit
// (golden FNV hashes pinned from the seed build); (2) conservation — every
// submission lands in exactly one terminal outcome, faults or not; (3)
// failover correctness — a crashed backend's queue drains to its replica,
// replicas serve byte-identical shard data, windowed crashes rejoin; (4)
// fault plans replay deterministically.
#include <gtest/gtest.h>

#include <cstring>

#include "cluster/cluster_service.hpp"
#include "cluster/des_engine.hpp"
#include "cluster/faults.hpp"
#include "runtime/workloads.hpp"
#include "test_helpers.hpp"

namespace graphm::cluster {
namespace {

graph::EdgeList test_graph() { return test::small_rmat(1024, 20000, 31); }

// Golden FNV trace hashes captured from the build BEFORE the fault subsystem
// landed (same graph, seeds and configs as below). The RNG stream split, the
// heartbeat monitor and the replica routing rework must all be invisible to
// a fault-free run — these constants are the regression pin.
constexpr std::uint64_t kGoldenDesRunHash = 0x739338c924ff3b85ULL;
constexpr std::uint64_t kGoldenServiceHash = 0x690a2c7e75a0f08fULL;

DesEstimate golden_des_run(const graph::EdgeList& g) {
  const auto profiles = dist::profile_jobs(g, runtime::paper_mix(4, g.num_vertices(), 4));
  dist::ClusterConfig cluster;
  cluster.num_nodes = 8;
  DesConfig config;
  config.seed = 0xFA11;
  return des_run(Backend::kPowerGraph, {dist::DistScheme::kShared}, profiles, g, cluster,
                 config);
}

std::vector<Submission> golden_submissions(const graph::EdgeList& g) {
  const auto specs = runtime::paper_mix(8, g.num_vertices(), 9);
  std::vector<Submission> submissions(8);
  for (std::size_t j = 0; j < 8; ++j) {
    submissions[j].spec = specs[j];
    submissions[j].arrival_ns = j * 300'000;
    submissions[j].dataset = j % 2 == 0 ? "a" : "b";
  }
  return submissions;
}

ClusterService golden_service(const graph::EdgeList& g, bool record_trace = false) {
  std::vector<BackendConfig> backends(2);
  backends[0].dataset = "a";
  backends[0].num_nodes = 4;
  backends[1].dataset = "b";
  backends[1].engine = Backend::kChaos;
  backends[1].num_nodes = 4;
  ClusterServiceConfig config;
  config.des.seed = 0xFA11;
  config.des.record_trace = record_trace;
  return ClusterService(g, backends, config);
}

/// Two replicas of one dataset — the failover fixture.
ClusterService replica_service(const graph::EdgeList& g, std::uint64_t seed = 0xFA11) {
  std::vector<BackendConfig> backends(2);
  backends[0].dataset = "d";
  backends[0].num_nodes = 4;
  backends[0].replica_id = 0;
  backends[1].dataset = "d";
  backends[1].num_nodes = 4;
  backends[1].replica_id = 1;
  ClusterServiceConfig config;
  config.des.seed = seed;
  return ClusterService(g, backends, config);
}

std::vector<Submission> replica_submissions(const graph::EdgeList& g, std::size_t count) {
  const auto specs = runtime::paper_mix(count, g.num_vertices(), 9);
  std::vector<Submission> submissions(count);
  for (std::size_t j = 0; j < count; ++j) {
    submissions[j].spec = specs[j];
    submissions[j].arrival_ns = j * 300'000;
    submissions[j].dataset = "d";
  }
  return submissions;
}

std::uint64_t count_outcome(const std::vector<JobReport>& reports,
                            service::Outcome outcome) {
  std::uint64_t n = 0;
  for (const JobReport& r : reports) {
    if (r.outcome == outcome) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Satellite 1: named RNG streams + empty-plan golden pins
// ---------------------------------------------------------------------------

TEST(RngStreams, StreamZeroIsTheRootItself) {
  EXPECT_EQ(util::derive_stream_seed(0xFA11, 0), 0xFA11u);
  EXPECT_NE(util::derive_stream_seed(0xFA11, 1), 0xFA11u);
  EXPECT_NE(util::derive_stream_seed(0xFA11, 1), util::derive_stream_seed(0xFA11, 2));
  // Siblings of different roots differ too (no accidental collisions for
  // nearby roots).
  EXPECT_NE(util::derive_stream_seed(1, 1), util::derive_stream_seed(2, 1));
}

TEST(RngStreams, FaultStreamDrawsNeverPerturbJitterSequence) {
  EventLoop clean(0xFA11);
  EventLoop drained(0xFA11);
  for (int i = 0; i < 100; ++i) drained.fault_rng().next();  // fault-side noise
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(clean.jittered(1'000'000, 0.05), drained.jittered(1'000'000, 0.05));
  }
}

TEST(GoldenPin, DesRunTraceHashUnchangedFromSeedBuild) {
  const auto g = test_graph();
  const DesEstimate estimate = golden_des_run(g);
  EXPECT_EQ(estimate.trace_hash, kGoldenDesRunHash)
      << "a fault-free des_run no longer reproduces the pre-fault-subsystem trace";
}

TEST(GoldenPin, ServiceEmptyFaultPlanTraceHashUnchangedFromSeedBuild) {
  const auto g = test_graph();
  auto service = golden_service(g);
  const auto submissions = golden_submissions(g);

  const auto stats = service.run(submissions);
  EXPECT_EQ(service.last_trace_hash(), kGoldenServiceHash);
  EXPECT_EQ(stats[0].completed + stats[1].completed, 8u);

  // Passing an explicitly empty plan is the same run.
  service.run(submissions, FaultPlan{});
  EXPECT_EQ(service.last_trace_hash(), kGoldenServiceHash);
}

TEST(GoldenPin, NoOpFaultAfterCompletionOnlyAppendsFaultRecords) {
  // A 1.0x slowdown landing long after the last completion must not change
  // any scheduling decision: the faulted trace is the fault-free trace plus
  // exactly the inject/clear records at the end.
  const auto g = test_graph();
  auto service = golden_service(g, /*record_trace=*/true);
  const auto submissions = golden_submissions(g);

  service.run(submissions);
  const std::vector<TraceRecord> clean = service.last_trace();

  FaultPlan plan;
  FaultEvent late;
  late.kind = FaultKind::kSlowdown;
  late.backend = 0;
  late.at_ns = 1'000'000'000;  // way past the last job
  late.duration_ns = 1'000;
  late.factor = 1.0;
  plan.events.push_back(late);
  service.run(submissions, plan);
  const std::vector<TraceRecord> faulted = service.last_trace();

  ASSERT_EQ(faulted.size(), clean.size() + 2);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(faulted[i], clean[i]) << "prefix diverged at record " << i;
  }
  EXPECT_EQ(faulted[clean.size()].code, TraceCode::kFaultInjected);
  EXPECT_EQ(faulted[clean.size() + 1].code, TraceCode::kFaultCleared);
}

// ---------------------------------------------------------------------------
// Admission pins: trace and per-job outcome hashes of runs that exercise
// every admission path the golden pins above (all kImmediate) never reach —
// batch release by k and by timer, EDF with shed-at-dispatch and mid-run
// aborts, and a batching backend that dies holding jobs. Captured from the
// build before the admission decisions moved into service::AdmissionCore.
// ---------------------------------------------------------------------------

/// Relative deadline unit of the deadline pin: about one job's run time.
constexpr std::uint64_t kDeadlineSlackNs = 1'000'000;

constexpr std::uint64_t kBatchTraceHash = 0xd789f93625aa8a12ULL;
constexpr std::uint64_t kBatchReportsHash = 0x253f73c52a6baf57ULL;
constexpr std::uint64_t kDeadlineTraceHash = 0xba87f005cf0fc01aULL;
constexpr std::uint64_t kDeadlineReportsHash = 0xda9d28311e65ebdaULL;
constexpr std::uint64_t kBatchFailoverTraceHash = 0x0c09eec978bd19f2ULL;
constexpr std::uint64_t kBatchFailoverReportsHash = 0xab3ad8979b89a090ULL;

std::vector<Submission> submissions_at(const graph::EdgeList& g,
                                       const std::vector<std::uint64_t>& arrivals_ns,
                                       const std::string& dataset) {
  const auto specs = runtime::paper_mix(arrivals_ns.size(), g.num_vertices(), 9);
  std::vector<Submission> submissions(arrivals_ns.size());
  for (std::size_t j = 0; j < arrivals_ns.size(); ++j) {
    submissions[j].spec = specs[j];
    submissions[j].arrival_ns = arrivals_ns[j];
    submissions[j].dataset = dataset;
  }
  return submissions;
}

/// Dispatch time per job id, read from a recorded trace.
std::vector<std::uint64_t> dispatch_times(const std::vector<TraceRecord>& trace,
                                          std::size_t jobs) {
  std::vector<std::uint64_t> at(jobs, ~0ULL);
  for (const TraceRecord& r : trace) {
    if (r.code == TraceCode::kJobDispatched && r.job < jobs) at[r.job] = r.t_ns;
  }
  return at;
}

TEST(GoldenPin, BatchUntilKReleasesByCountAndByTimer) {
  const auto g = test_graph();
  std::vector<BackendConfig> backends(1);
  backends[0].dataset = "a";
  backends[0].num_nodes = 4;
  backends[0].policy = service::AdmissionPolicy::kBatchUntilK;
  backends[0].batch_k = 3;
  backends[0].batch_max_wait_ns = 700'000;
  ClusterServiceConfig config;
  config.des.seed = 0xFA11;
  config.des.record_trace = true;
  ClusterService service(g, backends, config);
  // Batches: {0, 0.3, 0.6} by count; {0.9} by timer at 1.6; {2.0, 2.1, 2.2}
  // by count; {3.5, 3.6} by timer at 4.2; {5.0} by timer at 5.7 (ms).
  const std::vector<std::uint64_t> arrivals = {0,         300'000,   600'000,   900'000,
                                               2'000'000, 2'100'000, 2'200'000, 3'500'000,
                                               3'600'000, 5'000'000};
  const auto stats = service.run(submissions_at(g, arrivals, "a"));
  EXPECT_EQ(stats[0].completed, arrivals.size());

  const auto at = dispatch_times(service.last_trace(), arrivals.size());
  EXPECT_EQ(at[0], 600'000u) << "released when the third job arrived";
  EXPECT_EQ(at[3], 1'600'000u) << "released by the batch timer";
  EXPECT_EQ(at[4], 2'200'000u);
  EXPECT_EQ(at[7], 4'200'000u);
  EXPECT_EQ(at[9], 5'700'000u);

  EXPECT_EQ(service.last_trace_hash(), kBatchTraceHash);
  EXPECT_EQ(test::job_reports_hash(service.last_job_reports()), kBatchReportsHash);
}

TEST(GoldenPin, DeadlinePolicyShedsAtDispatchAndAbortsMidRun) {
  const auto g = test_graph();
  std::vector<BackendConfig> backends(1);
  backends[0].dataset = "a";
  backends[0].num_nodes = 4;
  backends[0].max_concurrent = 1;
  backends[0].policy = service::AdmissionPolicy::kDeadline;
  backends[0].cancel_past_deadline = true;
  ClusterServiceConfig config;
  config.des.seed = 0xFA11;
  ClusterService service(g, backends, config);

  std::vector<std::uint64_t> arrivals(10);
  for (std::size_t j = 0; j < arrivals.size(); ++j) arrivals[j] = j * 100'000;
  auto submissions = submissions_at(g, arrivals, "a");
  for (std::size_t j = 0; j < submissions.size(); ++j) {
    // Deadlines loose, tight and none, so EDF reorders the queue, some jobs
    // expire while queued and some expire while running.
    if (j % 3 == 2) continue;
    const std::uint64_t slo = j % 3 == 0 ? kDeadlineSlackNs * (j + 1) : kDeadlineSlackNs / 2;
    submissions[j].deadline_ns = service::deadline_from(submissions[j].arrival_ns, slo);
  }
  service.run(submissions);
  const auto& reports = service.last_job_reports();
  EXPECT_GE(count_outcome(reports, service::Outcome::kDeadlineShed), 1u);
  EXPECT_GE(count_outcome(reports, service::Outcome::kDeadlineAborted), 1u);
  EXPECT_GE(count_outcome(reports, service::Outcome::kCompleted), 1u);

  EXPECT_EQ(service.last_trace_hash(), kDeadlineTraceHash);
  EXPECT_EQ(test::job_reports_hash(reports), kDeadlineReportsHash);
}

TEST(GoldenPin, BatchingBackendDiesHoldingJobs) {
  const auto g = test_graph();
  std::vector<BackendConfig> backends(2);
  for (std::uint32_t b = 0; b < 2; ++b) {
    backends[b].dataset = "d";
    backends[b].num_nodes = 4;
    backends[b].replica_id = b;
    backends[b].policy = service::AdmissionPolicy::kBatchUntilK;
    backends[b].batch_k = 4;
    backends[b].batch_max_wait_ns = 20'000'000;  // outlives the dead declaration
  }
  ClusterServiceConfig config;
  config.des.seed = 0xFA11;
  config.des.record_trace = true;
  ClusterService service(g, backends, config);

  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kCrash;
  crash.backend = 0;
  crash.at_ns = 500'000;
  crash.duration_ns = 0;  // permanent
  plan.events.push_back(crash);
  service.run(replica_submissions(g, 6), plan);

  // Backend 0 held a partial batch when it was declared dead; the drain
  // re-admitted those jobs on backend 1, past its batching.
  std::uint64_t drained = 0;
  for (const TraceRecord& r : service.last_trace()) {
    if (r.code == TraceCode::kBackendDead) drained += r.detail;
  }
  EXPECT_GE(drained, 1u);
  EXPECT_GE(service.last_fault_stats().redispatched_jobs, 1u);
  EXPECT_EQ(count_outcome(service.last_job_reports(), service::Outcome::kCompleted), 6u);

  EXPECT_EQ(service.last_trace_hash(), kBatchFailoverTraceHash);
  EXPECT_EQ(test::job_reports_hash(service.last_job_reports()), kBatchFailoverReportsHash);
}

// ---------------------------------------------------------------------------
// Satellite 2: terminal-outcome conservation
// ---------------------------------------------------------------------------

TEST(Conservation, EverySubmissionLandsInExactlyOneOutcomeUnderAStorm) {
  const auto g = test_graph();
  auto service = replica_service(g);
  const auto submissions = replica_submissions(g, 16);

  StormConfig storm;
  storm.horizon_ns = 4'000'000;
  storm.crashes = 2;
  storm.slowdowns = 2;
  storm.partitions = 1;
  const FaultPlan plan = FaultPlan::storm(0xFA11, service.num_backends(), storm);
  ASSERT_EQ(plan.events.size(), 5u);

  service.run(submissions, plan);
  const auto& reports = service.last_job_reports();
  ASSERT_EQ(reports.size(), submissions.size()) << "jobs lost or duplicated";

  std::uint64_t sum = 0;
  for (const auto outcome :
       {service::Outcome::kCompleted, service::Outcome::kRejected,
        service::Outcome::kDeadlineShed, service::Outcome::kDeadlineAborted,
        service::Outcome::kFailoverShed, service::Outcome::kUnroutable,
        service::Outcome::kSloShed}) {
    sum += count_outcome(reports, outcome);
  }
  EXPECT_EQ(sum, submissions.size()) << "conservation law violated";
  for (std::size_t j = 0; j < reports.size(); ++j) {
    EXPECT_EQ(reports[j].job, static_cast<std::uint32_t>(j));
    EXPECT_GT(reports[j].completion_ns + 1, 0u);  // terminal state latched
  }
  // Cross-check the per-backend completed counters against the reports.
  const auto stats2 = service.run(submissions, plan);
  EXPECT_EQ(stats2[0].completed + stats2[1].completed,
            count_outcome(service.last_job_reports(), service::Outcome::kCompleted));
}

TEST(Conservation, UnroutableDatasetIsATerminalOutcome) {
  const auto g = test_graph();
  auto service = replica_service(g);
  auto submissions = replica_submissions(g, 4);
  submissions[2].dataset = "nonexistent";

  service.run(submissions);
  EXPECT_EQ(service.unroutable(), 1u);
  const auto& reports = service.last_job_reports();
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[2].outcome, service::Outcome::kUnroutable);
  EXPECT_EQ(reports[2].backend, kNoBackend);
  EXPECT_EQ(count_outcome(reports, service::Outcome::kCompleted), 3u);
}

// ---------------------------------------------------------------------------
// Satellite 3: failover correctness
// ---------------------------------------------------------------------------

TEST(Failover, ReplicasServeByteIdenticalShardData) {
  const auto g = test_graph();
  auto service = replica_service(g);
  ASSERT_EQ(service.num_shards(), 1u);
  const graph::EdgeList& a = service.shard(0);
  const graph::EdgeList& b = service.shard(1);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(0, std::memcmp(a.edges().data(), b.edges().data(),
                           a.num_edges() * sizeof(graph::Edge)))
      << "a failover would route reads to different data";
}

TEST(Failover, PermanentCrashDrainsQueueToSurvivingReplica) {
  const auto g = test_graph();
  auto service = replica_service(g);
  const auto submissions = replica_submissions(g, 8);

  // Fault-free baseline: everything completes, spread over both replicas.
  const auto clean = service.run(submissions);
  ASSERT_EQ(clean[0].completed + clean[1].completed, 8u);
  ASSERT_GT(clean[0].completed, 0u);
  const auto clean_reports = service.last_job_reports();

  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kCrash;
  crash.backend = 0;
  crash.at_ns = 500'000;     // mid-run: jobs in flight and queued
  crash.duration_ns = 0;     // permanent
  plan.events.push_back(crash);

  const auto stats = service.run(submissions, plan);
  const auto& reports = service.last_job_reports();
  const FaultStats& fstats = service.last_fault_stats();

  // Zero jobs lost: the survivor absorbed everything.
  EXPECT_EQ(count_outcome(reports, service::Outcome::kCompleted), 8u);
  EXPECT_EQ(stats[0].completed + stats[1].completed, 8u);
  EXPECT_GT(stats[1].completed, clean[1].completed) << "replica 1 absorbed failovers";

  // The protocol actually ran: crash observed, backend declared dead, at
  // least one job redispatched into the survivor.
  EXPECT_EQ(fstats.crashes, 1u);
  EXPECT_GE(fstats.failovers, 1u) << "dead declaration (queue drain) never happened";
  EXPECT_GE(fstats.redispatched_jobs, 1u);
  EXPECT_EQ(stats[1].redispatched_in, fstats.redispatched_jobs);
  EXPECT_EQ(fstats.failover_shed, 0u) << "a live replica existed; nothing may shed";

  // Surviving jobs end in the same terminal outcome as the fault-free run
  // (all completed), against byte-identical shard data — the failover
  // changed placement and timing, never results.
  for (std::size_t j = 0; j < reports.size(); ++j) {
    EXPECT_EQ(reports[j].outcome, clean_reports[j].outcome) << "job " << j;
  }
}

TEST(Failover, CrashWindowClearsAndBackendRejoins) {
  const auto g = test_graph();
  auto service = replica_service(g);
  // Long arrival tail so traffic continues well past the rejoin.
  const auto specs = runtime::paper_mix(12, g.num_vertices(), 9);
  std::vector<Submission> submissions(12);
  for (std::size_t j = 0; j < 12; ++j) {
    submissions[j].spec = specs[j];
    submissions[j].arrival_ns = j * 1'500'000;
    submissions[j].dataset = "d";
  }

  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kCrash;
  crash.backend = 0;
  crash.at_ns = 500'000;
  crash.duration_ns = 6'000'000;  // > dead_after_ns: declared dead, then back
  plan.events.push_back(crash);

  const auto stats = service.run(submissions, plan);
  const FaultStats& fstats = service.last_fault_stats();
  const auto& reports = service.last_job_reports();

  EXPECT_GE(fstats.failovers, 1u);
  EXPECT_GE(fstats.rejoins, 1u) << "the backend never rejoined after its window";
  EXPECT_EQ(count_outcome(reports, service::Outcome::kCompleted), 12u);
  // Routing resumed: the rejoined backend completed work arriving after the
  // window (it was dead 0.5ms..6.5ms; arrivals run to 16.5ms).
  EXPECT_GT(stats[0].completed, 0u);
}

TEST(Failover, AllReplicasDownShedsGracefullyWithinRetryBudget) {
  const auto g = test_graph();
  auto service = replica_service(g);
  const auto submissions = replica_submissions(g, 6);

  FaultPlan plan;
  for (std::uint32_t b = 0; b < 2; ++b) {
    FaultEvent crash;
    crash.kind = FaultKind::kCrash;
    crash.backend = b;
    crash.at_ns = 200'000;
    crash.duration_ns = 0;  // both replicas permanently dead
    plan.events.push_back(crash);
  }

  service.run(submissions, plan);
  const auto& reports = service.last_job_reports();
  const FaultStats& fstats = service.last_fault_stats();

  // Nothing hangs, nothing is lost: every job reaches a terminal outcome,
  // and everything that could not run was shed gracefully.
  ASSERT_EQ(reports.size(), 6u);
  const std::uint64_t completed = count_outcome(reports, service::Outcome::kCompleted);
  const std::uint64_t shedded = count_outcome(reports, service::Outcome::kFailoverShed);
  EXPECT_EQ(completed + shedded, 6u);
  EXPECT_GE(shedded, 1u);
  EXPECT_EQ(fstats.failover_shed, shedded);
  for (const JobReport& r : reports) {
    if (r.outcome == service::Outcome::kFailoverShed) {
      EXPECT_LE(r.attempts, FailoverConfig{}.retry_budget);
    }
  }
}

TEST(Failover, PartitionHoldsCrossCutTrafficUntilHeal) {
  const auto g = test_graph();
  auto service = replica_service(g);
  const auto submissions = replica_submissions(g, 4);

  const auto clean = service.run(submissions);
  const std::uint64_t clean_max = std::max(clean[0].e2e.max_ns, clean[1].e2e.max_ns);

  FaultPlan plan;
  FaultEvent cut;
  cut.kind = FaultKind::kPartition;
  cut.backend = 0;
  cut.at_ns = 100'000;
  cut.duration_ns = 2'000'000;
  plan.events.push_back(cut);

  const auto faulted = service.run(submissions, plan);
  const auto& reports = service.last_job_reports();

  // A partition stalls barriers but loses nothing: all jobs still complete
  // (after the heal releases the held transfers), strictly slower.
  EXPECT_EQ(count_outcome(reports, service::Outcome::kCompleted), 4u);
  const std::uint64_t faulted_max =
      std::max(faulted[0].e2e.max_ns, faulted[1].e2e.max_ns);
  EXPECT_GT(faulted_max, clean_max);
  EXPECT_EQ(service.last_fault_stats().partitions, 1u);
}

// ---------------------------------------------------------------------------
// Fault plans replay deterministically
// ---------------------------------------------------------------------------

TEST(FaultDeterminism, SameSeedSamePlanBitIdenticalRuns) {
  const auto g = test_graph();
  auto service = replica_service(g);
  const auto submissions = replica_submissions(g, 12);
  const FaultPlan plan = FaultPlan::storm(0xFA11, 2);

  service.run(submissions, plan);
  const std::uint64_t hash_a = service.last_trace_hash();
  const std::uint64_t events_a = service.last_events();
  const auto reports_a = service.last_job_reports();

  service.run(submissions, plan);
  EXPECT_EQ(service.last_trace_hash(), hash_a);
  EXPECT_EQ(service.last_events(), events_a);
  const auto& reports_b = service.last_job_reports();
  ASSERT_EQ(reports_a.size(), reports_b.size());
  for (std::size_t j = 0; j < reports_a.size(); ++j) {
    EXPECT_EQ(reports_a[j].outcome, reports_b[j].outcome);
    EXPECT_EQ(reports_a[j].backend, reports_b[j].backend);
    EXPECT_EQ(reports_a[j].completion_ns, reports_b[j].completion_ns);
    EXPECT_EQ(reports_a[j].attempts, reports_b[j].attempts);
  }
}

TEST(FaultDeterminism, StormSynthesisIsSeedStable) {
  const FaultPlan a = FaultPlan::storm(7, 4);
  const FaultPlan b = FaultPlan::storm(7, 4);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.events, b.events);
  const FaultPlan c = FaultPlan::storm(8, 4);
  EXPECT_NE(a.events, c.events);
  // sorted() is a total order over (time, backend, kind).
  const auto sorted = a.sorted();
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted[i - 1].at_ns, sorted[i].at_ns);
  }
}

TEST(FaultDeterminism, FaultJitterDrawsFromFaultStreamOnly) {
  // With fault_jitter_ns set, injection times shift — but only fault-side:
  // the fault-free run at the same seed still matches the golden hash
  // because the jitter stream never sees the fault draws.
  const auto g = test_graph();
  std::vector<BackendConfig> backends(2);
  backends[0].dataset = "d";
  backends[0].num_nodes = 4;
  backends[1].dataset = "d";
  backends[1].num_nodes = 4;
  ClusterServiceConfig config;
  config.des.seed = 0xFA11;
  config.des.fault_jitter_ns = 200'000;
  ClusterService service(g, backends, config);
  const auto submissions = replica_submissions(g, 8);

  const FaultPlan plan = FaultPlan::storm(0xFA11, 2);
  service.run(submissions, plan);
  const std::uint64_t jittered_hash = service.last_trace_hash();
  service.run(submissions, plan);
  EXPECT_EQ(service.last_trace_hash(), jittered_hash) << "fault jitter must be seeded";

  // Same service, no plan: identical to a service without fault jitter.
  service.run(submissions);
  const std::uint64_t clean_hash = service.last_trace_hash();
  ClusterService no_jitter(g, backends, [&] {
    ClusterServiceConfig c;
    c.des.seed = 0xFA11;
    return c;
  }());
  no_jitter.run(submissions);
  EXPECT_EQ(no_jitter.last_trace_hash(), clean_hash);
}

}  // namespace
}  // namespace graphm::cluster
