// SPDX-License-Identifier: MIT

#include "serve/admission.h"

#include <algorithm>

namespace scec::serve {

const char* RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kQuotaExceeded:
      return "quota_exceeded";
    case RejectReason::kQueueFull:
      return "queue_full";
    case RejectReason::kDeadlineInfeasible:
      return "deadline_infeasible";
    case RejectReason::kBrownout:
      return "brownout";
    case RejectReason::kOverloadShed:
      return "overload_shed";
  }
  return "unknown";
}

Status RejectStatus(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return Status::Ok();
    case RejectReason::kQuotaExceeded:
      return ResourceExhausted("tenant or global admission quota exceeded");
    case RejectReason::kQueueFull:
      return ResourceExhausted("admission queue at its limit");
    case RejectReason::kDeadlineInfeasible:
      return Infeasible("queue-wait forecast exceeds the deadline budget");
    case RejectReason::kBrownout:
      return Unavailable("fleet brownout breaker open");
    case RejectReason::kOverloadShed:
      return Unavailable("degradation ladder is shedding this class");
  }
  return Internal("unknown reject reason");
}

TokenBucket::TokenBucket(double rate_per_s, double burst, double now_s)
    : rate_(rate_per_s), burst_(burst), tokens_(burst), last_s_(now_s) {
  SCEC_CHECK_GT(rate_, 0.0);
  SCEC_CHECK_GT(burst_, 0.0);
}

void TokenBucket::Refill(double now_s) {
  // The decision clock never runs backwards under the coordinator lock, but
  // an equal timestamp is routine (several submissions at one pump instant)
  // and must refill exactly nothing.
  if (now_s <= last_s_) return;
  tokens_ = std::min(burst_, tokens_ + (now_s - last_s_) * rate_);
  last_s_ = now_s;
}

bool TokenBucket::TryTake(double now_s, double tokens) {
  SCEC_CHECK_GT(tokens, 0.0);
  Refill(now_s);
  if (tokens_ < tokens) return false;
  tokens_ -= tokens;
  return true;
}

double TokenBucket::Available(double now_s) const {
  if (now_s <= last_s_) return tokens_;
  return std::min(burst_, tokens_ + (now_s - last_s_) * rate_);
}

void AdmissionOptions::Validate() const {
  SCEC_CHECK_GE(tenant_rate_qps, 0.0);
  SCEC_CHECK_GE(tenant_burst, 0.0);
  SCEC_CHECK_GE(global_rate_qps, 0.0);
  SCEC_CHECK_GE(global_burst, 0.0);
  SCEC_CHECK_GT(service_quantile, 0.0);
  SCEC_CHECK_LE(service_quantile, 1.0);
  SCEC_CHECK_GT(feasibility_margin, 0.0);
}

double ForecastQueueWait(size_t queued_ahead, size_t max_batch,
                         const AdmissionOptions& options,
                         const sim::LatencyEstimator& serve_latency) {
  SCEC_CHECK_GT(max_batch, 0u);
  if (!serve_latency.HasEstimate()) return 0.0;  // cold start: admit
  const double service_q = serve_latency.Quantile(options.service_quantile);
  // Panels the backlog ahead of this query becomes (its own batch included),
  // each costing ~service_q.
  const double backlog_panels =
      static_cast<double>(queued_ahead / max_batch + 1);
  return backlog_panels * service_q;
}

AdmissionController::AdmissionController(size_t num_tenants,
                                         AdmissionOptions options)
    : options_(options) {
  options_.Validate();
  SCEC_CHECK_GT(num_tenants, 0u);
  if (options_.tenant_rate_qps > 0.0) {
    const double burst = options_.tenant_burst > 0.0
                             ? options_.tenant_burst
                             : std::max(options_.tenant_rate_qps, 1.0);
    tenant_buckets_.reserve(num_tenants);
    for (size_t t = 0; t < num_tenants; ++t) {
      tenant_buckets_.emplace_back(options_.tenant_rate_qps, burst);
    }
  }
  if (options_.global_rate_qps > 0.0) {
    const double burst = options_.global_burst > 0.0
                             ? options_.global_burst
                             : std::max(options_.global_rate_qps, 1.0);
    global_bucket_.emplace_back(options_.global_rate_qps, burst);
  }
}

RejectReason AdmissionController::AdmitQuota(size_t tenant, double now_s,
                                             size_t global_depth) {
  if (options_.global_queue_limit > 0 &&
      global_depth >= options_.global_queue_limit) {
    return RejectReason::kQueueFull;
  }
  // Check BOTH buckets before draining EITHER: a submission the global
  // bucket refuses must not cost the tenant a token (and vice versa).
  if (!tenant_buckets_.empty()) {
    SCEC_CHECK_LT(tenant, tenant_buckets_.size());
    if (tenant_buckets_[tenant].Available(now_s) < 1.0) {
      return RejectReason::kQuotaExceeded;
    }
  }
  if (!global_bucket_.empty() && global_bucket_[0].Available(now_s) < 1.0) {
    return RejectReason::kQuotaExceeded;
  }
  if (!tenant_buckets_.empty()) {
    SCEC_CHECK(tenant_buckets_[tenant].TryTake(now_s));
  }
  if (!global_bucket_.empty()) {
    SCEC_CHECK(global_bucket_[0].TryTake(now_s));
  }
  return RejectReason::kNone;
}

RejectReason AdmissionController::AdmitDeadline(
    DeadlineClass cls, double forecast_wait_s,
    const DeadlineBudgets& budgets) const {
  if (!options_.shed_infeasible || forecast_wait_s <= 0.0) {
    return RejectReason::kNone;
  }
  if (forecast_wait_s > options_.feasibility_margin * budgets.Budget(cls)) {
    return RejectReason::kDeadlineInfeasible;
  }
  return RejectReason::kNone;
}

}  // namespace scec::serve
