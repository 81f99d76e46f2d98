// service::AdmissionCore, driven directly: the one implementation of EDF
// order, batch hold/release, the depth bound, adaptive shedding, failover
// requeue and drain that both the live service and the simulated cluster
// admit through. No threads and no clock — every `now` is an argument.
#include <gtest/gtest.h>

#include <vector>

#include "service/admission.hpp"

namespace graphm::service {
namespace {

using Core = AdmissionCore<int>;

AdmissionConfig config_for(AdmissionPolicy policy) {
  AdmissionConfig config;
  config.policy = policy;
  return config;
}

std::vector<int> take_all(Core& core) {
  std::vector<int> order;
  while (core.has_ready()) order.push_back(core.take());
  return order;
}

TEST(AdmissionCore, EdfTiesStayFifoAndNoDeadlineSortsLast) {
  for (const AdmissionPolicy policy : {AdmissionPolicy::kDeadline, AdmissionPolicy::kAdaptive}) {
    Core core(config_for(policy));
    const std::vector<std::uint64_t> deadlines = {kNoDeadline, 50, 30, 50, kNoDeadline, 30};
    for (std::size_t i = 0; i < deadlines.size(); ++i) {
      ASSERT_EQ(core.admit(static_cast<int>(i), deadlines[i], 0, false), Admit::kReady);
    }
    EXPECT_EQ(take_all(core), (std::vector<int>{2, 5, 1, 3, 0, 4}))
        << admission_policy_name(policy);
  }
}

TEST(AdmissionCore, TimeZeroDeadlineGoesFirst) {
  Core core(config_for(AdmissionPolicy::kDeadline));
  const std::uint64_t at_origin = deadline_from(0, 0);
  ASSERT_NE(at_origin, kNoDeadline) << "a real deadline must never become the sentinel";
  core.admit(0, kNoDeadline, 0, false);
  core.admit(1, 2, 0, false);
  core.admit(2, at_origin, 0, false);
  EXPECT_EQ(take_all(core), (std::vector<int>{2, 1, 0}));
}

TEST(AdmissionCore, FifoPoliciesIgnoreDeadlines) {
  for (const AdmissionPolicy policy :
       {AdmissionPolicy::kImmediate, AdmissionPolicy::kBatchUntilK}) {
    AdmissionConfig config = config_for(policy);
    config.batch_k = 1;
    Core core(config);
    core.admit(0, 90, 0, false);
    core.admit(1, 10, 0, false);
    core.admit(2, kNoDeadline, 0, false);
    EXPECT_EQ(take_all(core), (std::vector<int>{0, 1, 2})) << admission_policy_name(policy);
  }
}

TEST(AdmissionCore, BatchReleasesWhenTheKthJobArrives) {
  AdmissionConfig config = config_for(AdmissionPolicy::kBatchUntilK);
  config.batch_k = 3;
  config.batch_max_wait_ns = 1'000;
  Core core(config);
  EXPECT_EQ(core.admit(0, kNoDeadline, 10, false), Admit::kBatchOpened);
  EXPECT_EQ(core.admit(1, kNoDeadline, 20, false), Admit::kHeld);
  EXPECT_FALSE(core.has_ready());
  EXPECT_EQ(core.admit(2, kNoDeadline, 30, false), Admit::kReady);
  EXPECT_FALSE(core.holding());
  EXPECT_EQ(take_all(core), (std::vector<int>{0, 1, 2}));
}

TEST(AdmissionCore, BatchReleasesAtReleaseAt) {
  AdmissionConfig config = config_for(AdmissionPolicy::kBatchUntilK);
  config.batch_k = 3;
  config.batch_max_wait_ns = 100;
  Core core(config);
  EXPECT_EQ(core.admit(0, kNoDeadline, 10, false), Admit::kBatchOpened);
  EXPECT_EQ(core.admit(1, kNoDeadline, 50, false), Admit::kHeld);
  EXPECT_EQ(core.release_at(), 110u) << "the oldest held arrival sets the deadline";
  EXPECT_FALSE(core.release_due(109));
  EXPECT_TRUE(core.release_due(110));
  core.release();
  EXPECT_FALSE(core.release_due(500)) << "nothing held, nothing due";
  EXPECT_EQ(take_all(core), (std::vector<int>{0, 1}));

  // The next batch restarts the window at its own first arrival.
  EXPECT_EQ(core.admit(2, kNoDeadline, 300, false), Admit::kBatchOpened);
  EXPECT_EQ(core.release_at(), 400u);
}

TEST(AdmissionCore, HeldJobsCountTowardTheDepthBound) {
  AdmissionConfig config = config_for(AdmissionPolicy::kBatchUntilK);
  config.batch_k = 10;
  config.max_depth = 2;
  Core core(config);
  EXPECT_EQ(core.admit(0, kNoDeadline, 0, false), Admit::kBatchOpened);
  EXPECT_EQ(core.admit(1, kNoDeadline, 0, false), Admit::kHeld);
  EXPECT_EQ(core.admit(2, kNoDeadline, 0, false), Admit::kRejected);
  EXPECT_EQ(core.depth(), 2u);
}

TEST(AdmissionCore, AdaptiveShedsOnlyWhileCriticalAndCountsTheWholeQueue) {
  AdmissionConfig config = config_for(AdmissionPolicy::kAdaptive);
  config.slots = 2;  // default quota: one dispatch round of backlog
  Core core(config);
  EXPECT_EQ(core.admit(0, kNoDeadline, 0, false), Admit::kReady) << "Healthy admits everything";
  EXPECT_EQ(core.admit(1, kNoDeadline, 0, true), Admit::kSloShed)
      << "deadline-less work sheds outright while Critical";
  EXPECT_EQ(core.admit(2, 100, 0, true), Admit::kReady) << "under quota (depth 1 < 2)";
  EXPECT_EQ(core.admit(3, 100, 0, true), Admit::kSloShed) << "at quota (depth 2)";
  EXPECT_EQ(core.depth(), 2u);

  // An explicit quota replaces the slot count; the SLO shed is decided
  // before the depth bound.
  config.adaptive_queue_quota = 1;
  config.max_depth = 1;
  Core strict(config);
  EXPECT_EQ(strict.admit(0, 100, 0, true), Admit::kReady);
  EXPECT_EQ(strict.admit(1, 100, 0, true), Admit::kSloShed);
  EXPECT_EQ(strict.admit(2, 100, 0, false), Admit::kRejected);
}

TEST(AdmissionCore, OnlyAdaptiveActsOnTheSloSignal) {
  for (const AdmissionPolicy policy :
       {AdmissionPolicy::kImmediate, AdmissionPolicy::kBatchUntilK, AdmissionPolicy::kDeadline}) {
    Core core(config_for(policy));
    EXPECT_TRUE(admitted(core.admit(0, kNoDeadline, 0, true))) << admission_policy_name(policy);
  }
}

TEST(AdmissionCore, RequeueBypassesTheDepthBoundAndBatching) {
  AdmissionConfig config = config_for(AdmissionPolicy::kBatchUntilK);
  config.batch_k = 5;
  config.max_depth = 1;
  Core core(config);
  EXPECT_EQ(core.admit(0, kNoDeadline, 0, false), Admit::kBatchOpened);
  core.requeue(1, kNoDeadline);
  core.requeue(2, kNoDeadline);
  EXPECT_EQ(core.depth(), 3u);
  EXPECT_TRUE(core.holding()) << "requeue leaves the held batch alone";
  EXPECT_EQ(take_all(core), (std::vector<int>{1, 2}));
  EXPECT_EQ(core.admit(3, kNoDeadline, 0, false), Admit::kRejected)
      << "fresh arrivals still see the bound";
}

TEST(AdmissionCore, DrainReturnsReadyThenHeld) {
  AdmissionConfig config = config_for(AdmissionPolicy::kBatchUntilK);
  config.batch_k = 2;
  Core core(config);
  core.admit(0, kNoDeadline, 0, false);
  core.admit(1, kNoDeadline, 0, false);  // fills the batch: 0, 1 ready
  core.admit(2, kNoDeadline, 0, false);  // held
  core.requeue(3, kNoDeadline);          // ready behind 0, 1
  EXPECT_EQ(core.drain(), (std::vector<int>{0, 1, 3, 2}));
  EXPECT_EQ(core.depth(), 0u);
  EXPECT_FALSE(core.holding());
  EXPECT_FALSE(core.has_ready());
}

TEST(AdmissionCore, ZeroDepthAndZeroBatchActAsOne) {
  AdmissionConfig config = config_for(AdmissionPolicy::kImmediate);
  config.max_depth = 0;
  Core core(config);
  EXPECT_EQ(core.admit(0, kNoDeadline, 0, false), Admit::kReady);
  EXPECT_EQ(core.admit(1, kNoDeadline, 0, false), Admit::kRejected);

  config = config_for(AdmissionPolicy::kBatchUntilK);
  config.batch_k = 0;
  Core unbatched(config);
  EXPECT_EQ(unbatched.admit(0, kNoDeadline, 0, false), Admit::kReady);
}

}  // namespace
}  // namespace graphm::service
