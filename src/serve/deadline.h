// SPDX-License-Identifier: MIT
//
// Deadline classes for the multi-tenant serving tier (docs/SERVING.md).
//
// Every submitted query names a class. The class's completion budget drives
// admission feasibility (serve/admission.h), the interactive-first close
// order within a tenant (serve/batch_former.h) and the per-batch failure
// outcome the brownout breaker sees (serve/coordinator.h). No class holds a
// batch open: batches close at the first pump after their oldest query
// arrives.

#pragma once

#include <cstddef>

namespace scec::serve {

// Ordered latency-sensitive first; used as array indices.
enum class DeadlineClass : size_t {
  kInteractive = 0,  // user-facing point lookups
  kStandard = 1,     // default API traffic
  kBulk = 2,         // analytics / offline scans
};

inline constexpr size_t kNumDeadlineClasses = 3;

const char* DeadlineClassName(DeadlineClass cls);

// Completion budget (seconds from admission) per class.
struct DeadlineBudgets {
  double interactive_s = 0.005;
  double standard_s = 0.050;
  double bulk_s = 0.500;

  double Budget(DeadlineClass cls) const;
  void Validate() const;
};

}  // namespace scec::serve
