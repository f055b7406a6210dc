// SPDX-License-Identifier: MIT
//
// Admission control for the serving tier: per-tenant and global token-bucket
// quotas plus deadline-aware load shedding (docs/SERVING.md, "Overload
// protection").
//
// The PR-7 bounded FIFOs only reject once a queue is FULL — by which point
// every query behind the full queue has already bought a queue-wait it may
// not survive. The admission controller rejects earlier and for typed
// reasons, at the only point where refusal is cheap (before the payload is
// copied anywhere):
//
//   kQuotaExceeded      — the tenant (or the process) is submitting faster
//                         than its token bucket refills. A single flooding
//                         tenant exhausts ITS OWN bucket and nobody else's.
//   kQueueFull          — the tenant's bounded FIFO is at its limit (the
//                         PR-7 reject, now with a name).
//   kDeadlineInfeasible — the queue-wait forecast (backlog / service rate,
//                         from the live panel-service quantiles) already
//                         exceeds the query's deadline-class budget, so
//                         admitting it could only produce a dead answer.
//   kBrownout           — the fleet brownout breaker is open (serve/breaker.h).
//   kOverloadShed       — the degradation ladder is shedding this deadline
//                         class (serve/overload.h).
//
// Every decision is a pure function of (decision clock, queue state,
// estimator state): no wall clock, RNG, or thread count — bit-identical
// across SCEC_THREADS, pinned by tests/test_admission.cpp.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/error.h"
#include "serve/deadline.h"
#include "sim/latency_estimator.h"

namespace scec::serve {

// Why a Submit was refused. kNone means admitted.
enum class RejectReason {
  kNone = 0,
  kQuotaExceeded,
  kQueueFull,
  kDeadlineInfeasible,
  kBrownout,
  kOverloadShed,
};

inline constexpr size_t kNumRejectReasons = 6;

const char* RejectReasonName(RejectReason reason);

// Maps a reject reason onto the library's Status taxonomy (common/error.h).
Status RejectStatus(RejectReason reason);

// Deterministic token bucket on the decision clock. Refill is computed
// lazily from elapsed decision time; `TryTake` at the exact instant the
// bucket reaches `tokens` succeeds (>=, not >), so boundary timestamps are
// well-defined (tests/test_admission.cpp pins the arithmetic).
class TokenBucket {
 public:
  // rate_per_s tokens accrue per decision-clock second, capped at `burst`.
  // The bucket starts full.
  TokenBucket(double rate_per_s, double burst, double now_s = 0.0);

  // Withdraws `tokens` if available at `now_s`. Time never runs backwards
  // under the coordinator lock; an equal timestamp refills nothing.
  bool TryTake(double now_s, double tokens = 1.0);

  // Tokens available at `now_s` (refill applied, nothing withdrawn).
  double Available(double now_s) const;

  double rate() const { return rate_; }
  double burst() const { return burst_; }

 private:
  void Refill(double now_s);

  double rate_;
  double burst_;
  double tokens_;
  double last_s_;
};

struct AdmissionOptions {
  // Per-tenant sustained admission rate (queries/s) and burst allowance.
  // rate 0 disables tenant quotas; burst 0 defaults to max(rate, 1).
  double tenant_rate_qps = 0.0;
  double tenant_burst = 0.0;
  // Aggregate admission rate across all tenants. 0 disables.
  double global_rate_qps = 0.0;
  double global_burst = 0.0;
  // Upper bound on queries queued across every tenant and class; Submit
  // beyond it is kQueueFull even when the tenant's own FIFO has room.
  // 0 disables.
  size_t global_queue_limit = 0;

  // Deadline-aware shedding: reject when the queue-wait forecast exceeds
  // `feasibility_margin` x the query's class budget. Cold start (no panel
  // service estimate yet) always admits.
  bool shed_infeasible = false;
  double service_quantile = 0.99;    // panel-service quantile of the forecast
  double feasibility_margin = 1.0;   // forecast > margin x budget => reject

  void Validate() const;
};

// Backlog-based queue-wait forecast: the time a query admitted NOW is
// expected to spend waiting, i.e. the panels the backlog ahead of it drains
// into (its own panel included) times the observed per-panel service
// quantile. Batches are never held open (serve/batch_former.h), so there is
// no hold term. Returns 0 while the estimator is cold (< min_samples
// panels).
double ForecastQueueWait(size_t queued_ahead, size_t max_batch,
                         const AdmissionOptions& options,
                         const sim::LatencyEstimator& serve_latency);

// Token-bucket quota state for one serving process. Decisions are taken
// under the coordinator's mutex; the controller itself is not thread-safe.
class AdmissionController {
 public:
  AdmissionController(size_t num_tenants, AdmissionOptions options);

  // Quota gate for one submission at `now_s`: kNone, kQuotaExceeded, or
  // kQueueFull (global backlog cap). Consumes tenant + global tokens only
  // when admitted — a rejected submission never drains either bucket.
  RejectReason AdmitQuota(size_t tenant, double now_s, size_t global_depth);

  // Deadline-feasibility gate (see ForecastQueueWait). kNone when the
  // forecast fits `feasibility_margin` x the class budget, shedding is
  // disabled, or the forecast is 0 (cold start).
  RejectReason AdmitDeadline(DeadlineClass cls, double forecast_wait_s,
                             const DeadlineBudgets& budgets) const;

  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
  std::vector<TokenBucket> tenant_buckets_;  // empty when tenant quota off
  std::vector<TokenBucket> global_bucket_;   // 0 or 1 entries
};

}  // namespace scec::serve
