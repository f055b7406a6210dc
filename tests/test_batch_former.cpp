// SPDX-License-Identifier: MIT
//
// Batch-former policy tests. The load-bearing claim: batch formation is a
// pure function of the admission sequence and the decision clock — thread
// counts, pool sizes, and wall time never reach it — so identical queue
// contents produce bit-identical panel groupings (the serving tier's
// determinism story reduces to the panel kernels' own bit-identical
// contract).

#include "serve/batch_former.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

namespace scec::serve {
namespace {

QueuedTicket Ticket(uint64_t id, size_t tenant, DeadlineClass cls,
                    double at_s) {
  QueuedTicket t;
  t.ticket = id;
  t.tenant = tenant;
  t.cls = cls;
  t.enqueue_s = at_s;
  return t;
}

// A fixed mixed-tenant/mixed-class admission trace.
std::vector<QueuedTicket> Trace(size_t tenants, size_t count) {
  std::vector<QueuedTicket> trace;
  uint64_t id = 1;
  for (size_t i = 0; i < count; ++i) {
    const size_t tenant = (i * 7 + i / 5) % tenants;
    const DeadlineClass cls = static_cast<DeadlineClass>((i * 3 + i / 7) % 3);
    trace.push_back(Ticket(id++, tenant, cls, 0.001 * static_cast<double>(i)));
  }
  return trace;
}

std::string Fingerprint(const std::vector<FormedBatch>& batches) {
  std::string fp;
  for (const FormedBatch& b : batches) {
    fp += "t" + std::to_string(b.tenant) + "c" +
          std::to_string(static_cast<size_t>(b.cls)) + "r" +
          BatchCloseReasonName(b.reason)[0] + ":";
    for (const QueuedTicket& q : b.tickets) {
      fp += std::to_string(q.ticket) + ",";
    }
    fp += ";";
  }
  return fp;
}

TEST(BatchFormer, FullBatchClosesAtMaxBatch) {
  BatchFormerOptions options;
  options.max_batch = 4;
  BatchFormer former(2, options);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        former.Enqueue(Ticket(i + 1, 0, DeadlineClass::kStandard, 0.0)));
  }
  // A full batch is due at once.
  EXPECT_EQ(former.NextCloseDeadline(),
            -std::numeric_limits<double>::infinity());
  const auto batches = former.Form(0.0);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].reason, BatchCloseReason::kFull);
  EXPECT_EQ(batches[0].tickets.size(), 4u);
  EXPECT_EQ(former.depth(), 0u);
}

TEST(BatchFormer, PartialBatchClosesAtFirstPumpAfterOldestEnqueue) {
  BatchFormerOptions options;
  options.max_batch = 32;
  BatchFormer former(1, options);
  // A slow observed service holds nothing open: the estimator only feeds
  // admission's forecast.
  for (int i = 0; i < 64; ++i) former.ObserveServeSeconds(0.2);
  ASSERT_TRUE(former.Enqueue(Ticket(1, 0, DeadlineClass::kBulk, 1.0)));
  ASSERT_TRUE(former.Enqueue(Ticket(2, 0, DeadlineClass::kBulk, 1.0005)));
  ASSERT_TRUE(
      former.Enqueue(Ticket(3, 0, DeadlineClass::kInteractive, 1.0008)));
  EXPECT_DOUBLE_EQ(former.NextCloseDeadline(), 1.0);

  // Never before the oldest query arrived.
  EXPECT_TRUE(former.Form(0.999).empty());
  EXPECT_EQ(former.depth(), 3u);

  // Pumping at the advertised instant closes the bulk queue and leaves the
  // interactive query, which has not arrived yet on this clock.
  const auto at_due = former.Form(former.NextCloseDeadline());
  ASSERT_EQ(at_due.size(), 1u);
  EXPECT_EQ(at_due[0].cls, DeadlineClass::kBulk);
  EXPECT_EQ(at_due[0].reason, BatchCloseReason::kDeadline);
  EXPECT_EQ(at_due[0].tickets.size(), 2u);
  EXPECT_DOUBLE_EQ(former.NextCloseDeadline(), 1.0008);

  // The first pump after it closes it, interactive before bulk.
  ASSERT_TRUE(former.Enqueue(Ticket(4, 0, DeadlineClass::kBulk, 1.0009)));
  const auto later = former.Form(1.002);
  ASSERT_EQ(later.size(), 2u);
  EXPECT_EQ(later[0].cls, DeadlineClass::kInteractive);
  EXPECT_EQ(later[1].cls, DeadlineClass::kBulk);
  EXPECT_EQ(former.depth(), 0u);
  EXPECT_EQ(former.NextCloseDeadline(),
            std::numeric_limits<double>::infinity());
}

TEST(BatchFormer, DueBacklogClosesInChunksOfMaxBatch) {
  BatchFormerOptions options;
  options.max_batch = 4;
  options.per_tenant_queue_limit = 16;
  BatchFormer former(1, options);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(former.Enqueue(Ticket(i + 1, 0, DeadlineClass::kStandard,
                                      0.001 * static_cast<double>(i))));
  }
  const auto batches = former.Form(0.01);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].reason, BatchCloseReason::kFull);
  EXPECT_EQ(batches[1].reason, BatchCloseReason::kFull);
  EXPECT_EQ(batches[2].reason, BatchCloseReason::kDeadline);
  EXPECT_EQ(batches[2].tickets.size(), 2u);
  EXPECT_EQ(batches[2].tickets[0].ticket, 9u);
}

TEST(BatchFormer, ResetServeLatencyReturnsToColdStart) {
  BatchFormer former(1, BatchFormerOptions{});
  for (int i = 0; i < 64; ++i) former.ObserveServeSeconds(0.4);
  ASSERT_TRUE(former.serve_latency().HasEstimate());
  former.ResetServeLatency();
  EXPECT_FALSE(former.serve_latency().HasEstimate());
  EXPECT_EQ(former.serve_latency().count(), 0u);
}

TEST(BatchFormer, AdmissionBoundedPerTenant) {
  BatchFormerOptions options;
  options.max_batch = 2;
  options.per_tenant_queue_limit = 3;
  BatchFormer former(2, options);
  EXPECT_TRUE(former.Enqueue(Ticket(1, 0, DeadlineClass::kInteractive, 0.0)));
  EXPECT_TRUE(former.Enqueue(Ticket(2, 0, DeadlineClass::kStandard, 0.0)));
  EXPECT_TRUE(former.Enqueue(Ticket(3, 0, DeadlineClass::kBulk, 0.0)));
  // Tenant 0 is at its limit across classes; tenant 1 is unaffected.
  EXPECT_FALSE(former.Enqueue(Ticket(4, 0, DeadlineClass::kBulk, 0.0)));
  EXPECT_TRUE(former.Enqueue(Ticket(5, 1, DeadlineClass::kBulk, 0.0)));
  EXPECT_EQ(former.depth(0), 3u);
  EXPECT_EQ(former.depth(1), 1u);
}

TEST(BatchFormer, FlushDrainsEverythingGrouped) {
  BatchFormerOptions options;
  options.max_batch = 8;
  BatchFormer former(3, options);
  const auto trace = Trace(3, 25);
  for (const auto& t : trace) ASSERT_TRUE(former.Enqueue(t));
  const auto batches = former.Form(trace.back().enqueue_s, /*flush=*/true);
  size_t drained = 0;
  for (const auto& b : batches) {
    EXPECT_LE(b.tickets.size(), options.max_batch);
    for (const auto& q : b.tickets) {
      EXPECT_EQ(q.tenant, b.tenant);
      EXPECT_EQ(q.cls, b.cls);
    }
    drained += b.tickets.size();
  }
  EXPECT_EQ(drained, trace.size());
  EXPECT_EQ(former.depth(), 0u);
}

TEST(BatchFormer, RotatingCursorSharesFirstPlaceAcrossTenants) {
  BatchFormerOptions options;
  options.max_batch = 1;  // every ticket closes immediately
  options.per_tenant_queue_limit = 8;
  BatchFormer former(3, options);
  std::vector<size_t> first_tenant;
  for (int round = 0; round < 3; ++round) {
    for (size_t tenant = 0; tenant < 3; ++tenant) {
      ASSERT_TRUE(former.Enqueue(Ticket(
          static_cast<uint64_t>(round * 3 + tenant + 1), tenant,
          DeadlineClass::kStandard, 0.0)));
    }
    const auto batches = former.Form(0.0);
    ASSERT_EQ(batches.size(), 3u);
    first_tenant.push_back(batches[0].tenant);
  }
  // The scan origin rotates: a different tenant leads each round.
  EXPECT_EQ(first_tenant, (std::vector<size_t>{0, 1, 2}));
}

// The ISSUE acceptance test: identical queue contents + seed produce
// bit-identical groupings whatever SCEC_THREADS says. The former never
// consults threads at all; this pins the contract against regressions that
// would, e.g., form batches from a work-stealing queue.
TEST(BatchFormer, GroupingsIdenticalAcrossThreadEnvironments) {
  const auto trace = Trace(4, 200);
  std::string reference;
  for (const char* threads : {"1", "2", "8"}) {
    ASSERT_EQ(setenv("SCEC_THREADS", threads, /*overwrite=*/1), 0);
    BatchFormerOptions options;
    options.max_batch = 8;
    BatchFormer former(4, options);
    std::string fp;
    size_t i = 0;
    for (const auto& t : trace) {
      ASSERT_TRUE(former.Enqueue(t));
      if (++i % 16 == 0) fp += Fingerprint(former.Form(t.enqueue_s));
    }
    fp += Fingerprint(former.Form(1.0, /*flush=*/true));
    if (reference.empty()) {
      reference = fp;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(fp, reference) << "SCEC_THREADS=" << threads;
    }
  }
  unsetenv("SCEC_THREADS");
}

}  // namespace
}  // namespace scec::serve
