// SPDX-License-Identifier: MIT
//
// Metrics collected by a simulated SCEC run. The accounting counters mirror
// Eq. (1)'s three resource classes exactly (values stored, scalar ops,
// values communicated), so tests can assert the simulator agrees with the
// analytic cost model to the last unit.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace scec::sim {

struct DeviceMetrics {
  std::string name;
  size_t coded_rows = 0;        // V(B_j)
  // Accounting units (match Eq. (1)):
  uint64_t stored_values = 0;    // l + (l+1)·V_j when serving
  uint64_t multiplications = 0;  // V_j·l per query
  uint64_t additions = 0;        // V_j·(l−1) per query
  uint64_t values_sent = 0;      // V_j per query
  // Timing:
  double compute_seconds = 0.0;
  double response_time = 0.0;    // when this device's response reached user
};

struct RunMetrics {
  // Offline phase (cloud → devices), not part of query latency.
  double staging_completion_time = 0.0;
  uint64_t staging_bytes = 0;

  // Online phase (query → decoded result).
  double query_completion_time = 0.0;
  uint64_t query_uplink_bytes = 0;    // user → devices (x broadcast)
  uint64_t query_downlink_bytes = 0;  // devices → user (responses)
  uint64_t decode_subtractions = 0;   // m for the structured decoder

  bool decoded_correctly = false;
  std::vector<DeviceMetrics> devices;

  uint64_t TotalStoredValues() const {
    uint64_t total = 0;
    for (const auto& d : devices) total += d.stored_values;
    return total;
  }
  uint64_t TotalMultiplications() const {
    uint64_t total = 0;
    for (const auto& d : devices) total += d.multiplications;
    return total;
  }
  uint64_t TotalAdditions() const {
    uint64_t total = 0;
    for (const auto& d : devices) total += d.additions;
    return total;
  }
  uint64_t TotalValuesSent() const {
    uint64_t total = 0;
    for (const auto& d : devices) total += d.values_sent;
    return total;
  }
};

// Extra accounting for the fault-tolerant protocol (fault_tolerant_protocol.h):
// what detection saw, what recovery cost. The base RunMetrics stays untouched
// so fault-free runs compare field-by-field against the paper's protocol
// (tests/scec_protocol_golden.h).
struct FaultRecoveryMetrics {
  // Detection.
  uint64_t deadline_timeouts = 0;    // per-device deadline expiries
  uint64_t retries_sent = 0;         // query re-deliveries after a timeout
  uint64_t retries_suppressed = 0;   // retries vetoed by a dry retry budget
  uint64_t corrupt_responses = 0;    // Freivalds check failures
  uint64_t devices_recovered_by_retry = 0;  // answered after >= 1 retry
  uint64_t devices_evicted_timeout = 0;     // retry budget exhausted
  uint64_t devices_evicted_corrupt = 0;     // evicted on a bad digest

  // Recovery (re-plan + re-encode + re-stage of lost rows).
  uint64_t recovery_rounds = 0;
  uint64_t replanned_rows = 0;       // data rows re-planned across all rounds
  double base_plan_cost = 0.0;       // Eq. (1) cost of the original plan
  double recovery_plan_cost = 0.0;   // summed cost of all recovery plans
  double recovery_staging_seconds = 0.0;  // time spent re-staging shares

  // Hedged queries (speculative fresh-pad duplicates to idle survivors).
  uint64_t hedges_dispatched = 0;     // hedge groups launched
  uint64_t hedges_won = 0;            // hedge decoded before the original
  uint64_t hedges_cancelled = 0;      // original answered first (or staging
                                      // was abandoned); hedge dropped
  uint64_t hedged_rows = 0;           // data rows covered by hedge segments
  uint64_t hedge_staging_bytes = 0;   // share bytes shipped for hedges
  uint64_t hedge_staging_aborts = 0;  // hedge shares lost in transit
  uint64_t hedges_suppressed = 0;     // hedges vetoed by the overload ladder
                                      // gate or a dry retry budget

  // Adaptive timeouts.
  uint64_t adaptive_deadlines = 0;    // deadlines taken from the estimator
                                      // instead of the link/compute model

  // Byzantine-tolerant overdecoding (guard segments + error location).
  uint64_t byzantine_guard_segments = 0;  // guard pairs staged (t_eff)
  uint64_t byzantine_guard_rows = 0;      // surplus coded rows provisioned
  double byzantine_guard_cost = 0.0;      // Eq. (1) spend on those rows
  uint64_t byzantine_masked_queries = 0;  // decoded in a single round
                                          // despite >= 1 flagged liar
  uint64_t byzantine_located_liars = 0;   // guilty devices named by the
                                          // locator (digest or fallback)
  uint64_t byzantine_fallback_locates = 0;  // combinatorial search ran
  uint64_t byzantine_ambiguous_locates = 0; // decode exact, guilt ambiguous

  // Reputation / quarantine (sim/reputation.h).
  uint64_t devices_quarantined = 0;   // standing transitions to quarantined
  uint64_t devices_readmitted = 0;    // probation passed, standing restored
  uint64_t canaries_sent = 0;         // low-stakes probes to quarantined
  uint64_t canaries_passed = 0;       // digest-verified canary responses
  uint64_t canaries_failed = 0;       // digest-flagged canary responses

  // Independent dispatch/response tally, kept separately from the byte
  // counters in RunMetrics so the chaos harness can cross-check the two
  // ledgers (bytes == values x value_bytes exactly).
  uint64_t queries_dispatched = 0;        // every sub-query send, incl.
                                          // retries and hedges
  uint64_t responses_received = 0;        // responses that reached the user
  uint64_t response_values_received = 0;  // values in those responses

  // Latency decomposition of the last query. Both are settle times (the
  // last pending of a round resolved), whatever the hedging setting; stale
  // deadline timers draining after the decode never count.
  double first_attempt_completion_s = 0.0;  // until the first round settled
  double total_completion_s = 0.0;  // until the final round settled; equals
                                    // RunMetrics::query_completion_time

  // Crash recovery (src/recovery). Generation 0 is the original
  // coordinator; each restart increments it. journal_* mirror the attached
  // write-ahead journal's counters at the end of the last query; restored_*
  // and resumed_responses count state re-adopted from the journal replay.
  uint64_t generation = 0;
  uint64_t journal_events = 0;       // records appended (all generations')
  uint64_t journal_commits = 0;      // group commits that reached the disk
  uint64_t restored_segments = 0;    // prior-generation segments re-accounted
  uint64_t restored_evictions = 0;   // evictions/quarantines re-marked
  uint64_t resumed_responses = 0;    // journaled responses injected, not
                                     // re-dispatched (exactly-once billing)

  double RecoveryLatency() const {
    return total_completion_s - first_attempt_completion_s;
  }
  uint64_t TotalEvictions() const {
    return devices_evicted_timeout + devices_evicted_corrupt;
  }
  // Fraction of dispatched sub-queries that were speculative hedges.
  double HedgeRate() const {
    return queries_dispatched == 0
               ? 0.0
               : static_cast<double>(hedges_dispatched) /
                     static_cast<double>(queries_dispatched);
  }
};

// Unified export (sim/metrics.cpp): every bench and example serialises run
// metrics through these instead of hand-rolling per-binary printing. The
// JSON form nests per-device metrics and the Eq. (1) totals; the CSV form is
// one flat row (totals only) matching CsvHeader()'s column order.
std::string ToJson(const DeviceMetrics& metrics);
std::string ToJson(const RunMetrics& metrics);
std::string ToJson(const FaultRecoveryMetrics& metrics);

std::string RunMetricsCsvHeader();
std::string ToCsvRow(const RunMetrics& metrics);
std::string FaultRecoveryMetricsCsvHeader();
std::string ToCsvRow(const FaultRecoveryMetrics& metrics);

}  // namespace scec::sim
