// SPDX-License-Identifier: MIT

#include "serve/batch_former.h"

#include <algorithm>

#include "common/check.h"

namespace scec::serve {

const char* BatchCloseReasonName(BatchCloseReason reason) {
  switch (reason) {
    case BatchCloseReason::kFull:
      return "full";
    case BatchCloseReason::kDeadline:
      return "deadline";
    case BatchCloseReason::kFlush:
      return "flush";
  }
  return "unknown";
}

void BatchFormerOptions::Validate() const {
  SCEC_CHECK_GT(max_batch, 0u);
  SCEC_CHECK_GT(per_tenant_queue_limit, 0u);
  SCEC_CHECK_GE(per_tenant_queue_limit, max_batch);
  budgets.Validate();
}

BatchFormer::BatchFormer(size_t num_tenants, BatchFormerOptions options)
    : options_(options), queues_(num_tenants) {
  SCEC_CHECK_GT(num_tenants, 0u);
  options_.Validate();
}

bool BatchFormer::Enqueue(const QueuedTicket& ticket) {
  SCEC_CHECK_LT(ticket.tenant, queues_.size());
  const size_t cls = static_cast<size_t>(ticket.cls);
  SCEC_CHECK_LT(cls, kNumDeadlineClasses);
  if (depth(ticket.tenant) >= options_.per_tenant_queue_limit) {
    return false;
  }
  auto& fifo = queues_[ticket.tenant][cls];
  if (!fifo.empty()) {
    SCEC_CHECK_GE(ticket.enqueue_s, fifo.back().enqueue_s);
  }
  fifo.push_back(ticket);
  ++depth_;
  return true;
}

std::vector<FormedBatch> BatchFormer::Form(double now_s, bool flush) {
  std::vector<FormedBatch> formed;
  const size_t n = queues_.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t tenant = (cursor_ + i) % n;
    for (size_t c = 0; c < kNumDeadlineClasses; ++c) {
      const DeadlineClass cls = static_cast<DeadlineClass>(c);
      auto& fifo = queues_[tenant][c];
      while (!fifo.empty()) {
        BatchCloseReason reason;
        if (fifo.size() >= options_.max_batch) {
          reason = BatchCloseReason::kFull;
        } else if (flush) {
          reason = BatchCloseReason::kFlush;
        } else if (fifo.front().enqueue_s <= now_s) {
          reason = BatchCloseReason::kDeadline;
        } else {
          break;  // oldest query has not arrived on this clock yet
        }
        FormedBatch batch;
        batch.tenant = tenant;
        batch.cls = cls;
        batch.reason = reason;
        const size_t take = std::min(fifo.size(), options_.max_batch);
        batch.tickets.reserve(take);
        for (size_t k = 0; k < take; ++k) {
          batch.tickets.push_back(fifo.front());
          fifo.pop_front();
        }
        depth_ -= take;
        formed.push_back(std::move(batch));
      }
    }
  }
  // Rotate the scan origin so every tenant periodically goes first.
  cursor_ = n > 0 ? (cursor_ + 1) % n : 0;
  return formed;
}

double BatchFormer::NextCloseDeadline() const {
  double next = std::numeric_limits<double>::infinity();
  for (const auto& per_tenant : queues_) {
    for (const auto& fifo : per_tenant) {
      if (fifo.empty()) continue;
      if (fifo.size() >= options_.max_batch) {
        // A full batch is due immediately.
        return -std::numeric_limits<double>::infinity();
      }
      next = std::min(next, fifo.front().enqueue_s);
    }
  }
  return next;
}

std::vector<QueuedTicket> BatchFormer::ShedClass(DeadlineClass cls) {
  const size_t c = static_cast<size_t>(cls);
  SCEC_CHECK_LT(c, kNumDeadlineClasses);
  std::vector<QueuedTicket> shed;
  for (auto& per_tenant : queues_) {
    auto& fifo = per_tenant[c];
    while (!fifo.empty()) {
      shed.push_back(fifo.front());
      fifo.pop_front();
      --depth_;
    }
  }
  return shed;
}

size_t BatchFormer::depth(size_t tenant) const {
  SCEC_CHECK_LT(tenant, queues_.size());
  size_t total = 0;
  for (const auto& fifo : queues_[tenant]) total += fifo.size();
  return total;
}

}  // namespace scec::serve
