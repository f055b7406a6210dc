// SPDX-License-Identifier: MIT

#include "serve/deadline.h"

#include "common/check.h"

namespace scec::serve {

const char* DeadlineClassName(DeadlineClass cls) {
  switch (cls) {
    case DeadlineClass::kInteractive:
      return "interactive";
    case DeadlineClass::kStandard:
      return "standard";
    case DeadlineClass::kBulk:
      return "bulk";
  }
  return "unknown";
}

double DeadlineBudgets::Budget(DeadlineClass cls) const {
  switch (cls) {
    case DeadlineClass::kInteractive:
      return interactive_s;
    case DeadlineClass::kStandard:
      return standard_s;
    case DeadlineClass::kBulk:
      return bulk_s;
  }
  return standard_s;
}

void DeadlineBudgets::Validate() const {
  SCEC_CHECK_GT(interactive_s, 0.0);
  SCEC_CHECK_GT(standard_s, 0.0);
  SCEC_CHECK_GT(bulk_s, 0.0);
}

}  // namespace scec::serve
