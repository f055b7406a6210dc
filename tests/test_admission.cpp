// SPDX-License-Identifier: MIT
//
// Admission-control tests: token-bucket refill arithmetic at boundary
// timestamps, the quota gates (tenant / global / backlog) with their typed
// reject reasons, deadline-feasibility shedding off the queue-wait forecast,
// and the Status taxonomy mapping.

#include "serve/admission.h"

#include <gtest/gtest.h>

#include "sim/latency_estimator.h"

namespace scec::serve {
namespace {

TEST(TokenBucket, StartsFullAndRefillsAtRate) {
  TokenBucket bucket(/*rate_per_s=*/10.0, /*burst=*/5.0);
  EXPECT_DOUBLE_EQ(bucket.Available(0.0), 5.0);

  // Drain the burst at t=0.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.TryTake(0.0));
  EXPECT_FALSE(bucket.TryTake(0.0));

  // 0.1s at 10 tokens/s refills exactly one token.
  EXPECT_DOUBLE_EQ(bucket.Available(0.1), 1.0);
  EXPECT_TRUE(bucket.TryTake(0.1));
  EXPECT_FALSE(bucket.TryTake(0.1));
}

TEST(TokenBucket, BoundaryTimestampArithmetic) {
  TokenBucket bucket(/*rate_per_s=*/4.0, /*burst=*/2.0);
  EXPECT_TRUE(bucket.TryTake(0.0));
  EXPECT_TRUE(bucket.TryTake(0.0));

  // An equal timestamp refills exactly nothing: still empty at t=0.
  EXPECT_FALSE(bucket.TryTake(0.0));
  EXPECT_DOUBLE_EQ(bucket.Available(0.0), 0.0);

  // At EXACTLY the instant the bucket reaches 1.0 tokens (0.25s at 4/s),
  // TryTake succeeds: the boundary uses >=, not >.
  EXPECT_DOUBLE_EQ(bucket.Available(0.25), 1.0);
  EXPECT_TRUE(bucket.TryTake(0.25));
  EXPECT_FALSE(bucket.TryTake(0.25));

  // Refill is capped at burst no matter how long the idle stretch.
  EXPECT_DOUBLE_EQ(bucket.Available(1000.0), 2.0);
}

TEST(TokenBucket, LazyRefillMatchesContinuousAccrual) {
  // Many small steps and one big step must land on identical token counts
  // (the lazy refill is exact, not iterative).
  TokenBucket stepped(3.0, 10.0);
  TokenBucket jumped(3.0, 10.0);
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(stepped.TryTake(0.0));
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(jumped.TryTake(0.0));
  for (int i = 1; i <= 100; ++i) {
    stepped.Available(i * 0.01);  // const probe: no state change
    EXPECT_TRUE(stepped.TryTake(i * 0.01, 0.03));
  }
  EXPECT_NEAR(stepped.Available(1.0), jumped.Available(1.0) - 3.0, 1e-9);
}

TEST(AdmissionController, TenantQuotaIsolatesTheFloodingTenant) {
  AdmissionOptions options;
  options.tenant_rate_qps = 10.0;
  options.tenant_burst = 2.0;
  AdmissionController admission(2, options);

  // Tenant 0 floods: burst then refusal...
  EXPECT_EQ(admission.AdmitQuota(0, 0.0, 0), RejectReason::kNone);
  EXPECT_EQ(admission.AdmitQuota(0, 0.0, 0), RejectReason::kNone);
  EXPECT_EQ(admission.AdmitQuota(0, 0.0, 0), RejectReason::kQuotaExceeded);
  // ...while tenant 1's bucket is untouched.
  EXPECT_EQ(admission.AdmitQuota(1, 0.0, 0), RejectReason::kNone);
  EXPECT_EQ(admission.AdmitQuota(1, 0.0, 0), RejectReason::kNone);
  // Tenant 0 recovers exactly at the refill boundary.
  EXPECT_EQ(admission.AdmitQuota(0, 0.1, 0), RejectReason::kNone);
}

TEST(AdmissionController, GlobalQuotaAndRejectionCostsNoTokens) {
  AdmissionOptions options;
  options.tenant_rate_qps = 100.0;
  options.tenant_burst = 100.0;
  options.global_rate_qps = 10.0;
  options.global_burst = 1.0;
  AdmissionController admission(2, options);

  EXPECT_EQ(admission.AdmitQuota(0, 0.0, 0), RejectReason::kNone);
  // Global bucket empty: rejected — and the REJECTED submissions must not
  // drain tenant tokens, or a global brownout would punish every tenant's
  // future quota too.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(admission.AdmitQuota(1, 0.0, 0), RejectReason::kQuotaExceeded);
  }
  // Tenant 1 still has its full burst once the global bucket refills.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(admission.AdmitQuota(1, 1.0 + i, 0), RejectReason::kNone);
  }
}

TEST(AdmissionController, GlobalQueueLimitRejectsAsQueueFull) {
  AdmissionOptions options;
  options.global_queue_limit = 8;
  AdmissionController admission(1, options);
  EXPECT_EQ(admission.AdmitQuota(0, 0.0, 7), RejectReason::kNone);
  EXPECT_EQ(admission.AdmitQuota(0, 0.0, 8), RejectReason::kQueueFull);
  EXPECT_EQ(admission.AdmitQuota(0, 0.0, 9), RejectReason::kQueueFull);
}

TEST(ForecastQueueWait, ColdStartAdmitsAndWarmForecastScalesWithBacklog) {
  AdmissionOptions options;
  options.shed_infeasible = true;
  sim::LatencyEstimator estimator;

  // Cold: no estimate, forecast 0, gate admits everything.
  EXPECT_DOUBLE_EQ(ForecastQueueWait(100, 8, options, estimator), 0.0);

  for (int i = 0; i < 16; ++i) estimator.Observe(0.01);
  const double shallow = ForecastQueueWait(0, 8, options, estimator);
  const double deep = ForecastQueueWait(64, 8, options, estimator);
  EXPECT_GT(shallow, 0.0);
  // 64 queued ahead at max_batch 8 is 8 extra panels of ~10ms each.
  EXPECT_NEAR(deep - shallow, 8 * 0.01, 1e-9);
}

TEST(AdmissionController, DeadlineGateShedsInfeasibleClassesOnly) {
  AdmissionOptions options;
  options.shed_infeasible = true;
  AdmissionController admission(1, options);
  DeadlineBudgets budgets;  // interactive 5ms / standard 50ms / bulk 500ms

  // A 100ms forecast kills interactive and standard but bulk still fits.
  EXPECT_EQ(admission.AdmitDeadline(DeadlineClass::kInteractive, 0.1, budgets),
            RejectReason::kDeadlineInfeasible);
  EXPECT_EQ(admission.AdmitDeadline(DeadlineClass::kStandard, 0.1, budgets),
            RejectReason::kDeadlineInfeasible);
  EXPECT_EQ(admission.AdmitDeadline(DeadlineClass::kBulk, 0.1, budgets),
            RejectReason::kNone);

  // Disabled shedding admits any forecast.
  AdmissionController off(1, AdmissionOptions{});
  EXPECT_EQ(off.AdmitDeadline(DeadlineClass::kInteractive, 10.0, budgets),
            RejectReason::kNone);
}

TEST(RejectReasons, NamesAndStatusTaxonomy) {
  EXPECT_STREQ(RejectReasonName(RejectReason::kQuotaExceeded),
               "quota_exceeded");
  EXPECT_STREQ(RejectReasonName(RejectReason::kQueueFull), "queue_full");
  EXPECT_STREQ(RejectReasonName(RejectReason::kDeadlineInfeasible),
               "deadline_infeasible");
  EXPECT_STREQ(RejectReasonName(RejectReason::kBrownout), "brownout");
  EXPECT_STREQ(RejectReasonName(RejectReason::kOverloadShed), "overload_shed");

  EXPECT_TRUE(RejectStatus(RejectReason::kNone).ok());
  EXPECT_EQ(RejectStatus(RejectReason::kQuotaExceeded).code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(RejectStatus(RejectReason::kQueueFull).code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(RejectStatus(RejectReason::kDeadlineInfeasible).code(),
            ErrorCode::kInfeasible);
  EXPECT_EQ(RejectStatus(RejectReason::kBrownout).code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(RejectStatus(RejectReason::kOverloadShed).code(),
            ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace scec::serve
