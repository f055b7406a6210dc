// SPDX-License-Identifier: MIT
//
// Deadline-class batch former for the serving tier: bounded per-(tenant,
// class) FIFO queues plus the policy that coalesces queued queries into
// panel batches for the PR-2 MatMulPanel kernels.
//
// The former works on ticket METADATA only (ticket id, tenant, class,
// admission time) — never on query payloads and never on threads — so batch
// formation is a pure deterministic function of the admission sequence and
// the clock values passed in. Identical queue contents + options produce
// bit-identical groupings regardless of SCEC_THREADS or pool size; only the
// panel execution underneath fans out (tests/test_batch_former.cpp pins
// this down).
//
// Policy (docs/SERVING.md), work-conserving:
//   * a (tenant, class) batch closes FULL when max_batch queries are queued;
//   * otherwise it is due at its oldest query's enqueue time: Form(now)
//     closes every queue whose oldest query arrived at or before `now`, in
//     chunks of at most max_batch. Coalescing comes from the caller, whose
//     Pump is the single server: a driver pumps a due batch once the server
//     is free, at max(due, free_at), so the queries that arrive while a
//     panel runs ride together in the next panel. Batches widen with load up
//     to max_batch, and a lone query on an idle server never waits;
//   * Form() scans tenants round-robin from a rotating cursor, so a hot
//     tenant cannot starve the others' due batches; within a tenant,
//     latency-sensitive classes close first.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "serve/deadline.h"
#include "sim/latency_estimator.h"

namespace scec::serve {

struct QueuedTicket {
  uint64_t ticket = 0;
  size_t tenant = 0;
  DeadlineClass cls = DeadlineClass::kStandard;
  double enqueue_s = 0.0;
};

// kDeadline: a partial batch closed at a pump at or after its oldest
// query's enqueue time.
enum class BatchCloseReason { kFull, kDeadline, kFlush };

inline constexpr size_t kNumBatchCloseReasons = 3;

const char* BatchCloseReasonName(BatchCloseReason reason);

struct FormedBatch {
  size_t tenant = 0;
  DeadlineClass cls = DeadlineClass::kStandard;
  BatchCloseReason reason = BatchCloseReason::kFull;
  std::vector<QueuedTicket> tickets;
};

struct BatchFormerOptions {
  // Panel width cap — the b of the MatMulPanel call a batch becomes.
  size_t max_batch = 32;
  // Admission bound per tenant across its classes; Enqueue refuses beyond
  // it (the caller surfaces the rejection).
  size_t per_tenant_queue_limit = 256;
  // Class completion budgets: admission feasibility and the breaker's
  // per-batch failure test read them (serve/coordinator.h).
  DeadlineBudgets budgets;

  void Validate() const;
};

class BatchFormer {
 public:
  explicit BatchFormer(size_t num_tenants, BatchFormerOptions options = {});

  // Admits one ticket into its (tenant, class) FIFO. Returns false — and
  // queues nothing — when the tenant is at its queue limit. `enqueue_s`
  // values must be non-decreasing per queue (they come from one clock).
  bool Enqueue(const QueuedTicket& ticket);

  // Closes every batch due at `now_s` (see policy above) and hands the
  // groupings back in service order. With `flush` every queued ticket is
  // drained, even one enqueued after `now_s` (shutdown / end of open-loop
  // run).
  std::vector<FormedBatch> Form(double now_s, bool flush = false);

  // Absolute time the earliest queued batch is due: the oldest queued
  // enqueue_s, -infinity when a queue is full, +infinity when idle. Drives
  // the caller's pump scheduling.
  double NextCloseDeadline() const;

  // Drains every queued ticket of `cls` across all tenants, in tenant then
  // FIFO order, WITHOUT serving them — the degradation ladder's explicit
  // shed (serve/overload.h). The caller must surface each returned ticket
  // as a rejection or shed completion: a shed is never a silent drop
  // (the shed-accounting chaos invariant).
  std::vector<QueuedTicket> ShedClass(DeadlineClass cls);

  // Feeds one observed panel service duration into the estimator behind
  // admission's queue-wait forecast (ForecastQueueWait, serve/admission.h).
  void ObserveServeSeconds(double seconds) { serve_latency_.Observe(seconds); }

  // Drops the latency window back to cold start — the coordinator calls
  // this when the brownout breaker closes and the window is known to be
  // full of brownout-era samples (see LatencyEstimator::Reset).
  void ResetServeLatency() { serve_latency_.Reset(); }

  size_t depth() const { return depth_; }
  size_t depth(size_t tenant) const;
  size_t num_tenants() const { return queues_.size(); }
  const sim::LatencyEstimator& serve_latency() const { return serve_latency_; }
  const BatchFormerOptions& options() const { return options_; }

 private:
  BatchFormerOptions options_;
  std::vector<std::array<std::deque<QueuedTicket>, kNumDeadlineClasses>>
      queues_;  // [tenant][class]
  sim::LatencyEstimator serve_latency_;
  size_t cursor_ = 0;   // round-robin start tenant of the next Form()
  size_t depth_ = 0;    // total queued tickets
};

}  // namespace scec::serve
