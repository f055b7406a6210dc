// SPDX-License-Identifier: MIT

#include "sim/metrics.h"

#include <sstream>

#include "obs/export.h"

namespace scec::sim {
namespace {

std::string Num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

std::string ToJson(const DeviceMetrics& metrics) {
  std::ostringstream os;
  os << "{\"name\":\"" << obs::JsonEscape(metrics.name) << "\""
     << ",\"coded_rows\":" << metrics.coded_rows
     << ",\"stored_values\":" << metrics.stored_values
     << ",\"multiplications\":" << metrics.multiplications
     << ",\"additions\":" << metrics.additions
     << ",\"values_sent\":" << metrics.values_sent
     << ",\"compute_seconds\":" << Num(metrics.compute_seconds)
     << ",\"response_time\":" << Num(metrics.response_time) << "}";
  return os.str();
}

std::string ToJson(const RunMetrics& metrics) {
  std::ostringstream os;
  os << "{\"staging_completion_time\":" << Num(metrics.staging_completion_time)
     << ",\"staging_bytes\":" << metrics.staging_bytes
     << ",\"query_completion_time\":" << Num(metrics.query_completion_time)
     << ",\"query_uplink_bytes\":" << metrics.query_uplink_bytes
     << ",\"query_downlink_bytes\":" << metrics.query_downlink_bytes
     << ",\"decode_subtractions\":" << metrics.decode_subtractions
     << ",\"decoded_correctly\":"
     << (metrics.decoded_correctly ? "true" : "false")
     << ",\"total_stored_values\":" << metrics.TotalStoredValues()
     << ",\"total_multiplications\":" << metrics.TotalMultiplications()
     << ",\"total_additions\":" << metrics.TotalAdditions()
     << ",\"total_values_sent\":" << metrics.TotalValuesSent()
     << ",\"devices\":[";
  for (size_t i = 0; i < metrics.devices.size(); ++i) {
    if (i > 0) os << ',';
    os << ToJson(metrics.devices[i]);
  }
  os << "]}";
  return os.str();
}

std::string ToJson(const FaultRecoveryMetrics& metrics) {
  std::ostringstream os;
  os << "{\"deadline_timeouts\":" << metrics.deadline_timeouts
     << ",\"retries_sent\":" << metrics.retries_sent
     << ",\"retries_suppressed\":" << metrics.retries_suppressed
     << ",\"corrupt_responses\":" << metrics.corrupt_responses
     << ",\"devices_recovered_by_retry\":"
     << metrics.devices_recovered_by_retry
     << ",\"devices_evicted_timeout\":" << metrics.devices_evicted_timeout
     << ",\"devices_evicted_corrupt\":" << metrics.devices_evicted_corrupt
     << ",\"total_evictions\":" << metrics.TotalEvictions()
     << ",\"hedges_dispatched\":" << metrics.hedges_dispatched
     << ",\"hedges_won\":" << metrics.hedges_won
     << ",\"hedges_cancelled\":" << metrics.hedges_cancelled
     << ",\"hedged_rows\":" << metrics.hedged_rows
     << ",\"hedge_staging_bytes\":" << metrics.hedge_staging_bytes
     << ",\"hedge_staging_aborts\":" << metrics.hedge_staging_aborts
     << ",\"hedges_suppressed\":" << metrics.hedges_suppressed
     << ",\"hedge_rate\":" << Num(metrics.HedgeRate())
     << ",\"adaptive_deadlines\":" << metrics.adaptive_deadlines
     << ",\"byzantine_guard_segments\":" << metrics.byzantine_guard_segments
     << ",\"byzantine_guard_rows\":" << metrics.byzantine_guard_rows
     << ",\"byzantine_guard_cost\":" << Num(metrics.byzantine_guard_cost)
     << ",\"byzantine_masked_queries\":" << metrics.byzantine_masked_queries
     << ",\"byzantine_located_liars\":" << metrics.byzantine_located_liars
     << ",\"byzantine_fallback_locates\":"
     << metrics.byzantine_fallback_locates
     << ",\"byzantine_ambiguous_locates\":"
     << metrics.byzantine_ambiguous_locates
     << ",\"devices_quarantined\":" << metrics.devices_quarantined
     << ",\"devices_readmitted\":" << metrics.devices_readmitted
     << ",\"canaries_sent\":" << metrics.canaries_sent
     << ",\"canaries_passed\":" << metrics.canaries_passed
     << ",\"canaries_failed\":" << metrics.canaries_failed
     << ",\"queries_dispatched\":" << metrics.queries_dispatched
     << ",\"responses_received\":" << metrics.responses_received
     << ",\"response_values_received\":" << metrics.response_values_received
     << ",\"recovery_rounds\":" << metrics.recovery_rounds
     << ",\"replanned_rows\":" << metrics.replanned_rows
     << ",\"base_plan_cost\":" << Num(metrics.base_plan_cost)
     << ",\"recovery_plan_cost\":" << Num(metrics.recovery_plan_cost)
     << ",\"recovery_staging_seconds\":"
     << Num(metrics.recovery_staging_seconds)
     << ",\"first_attempt_completion_s\":"
     << Num(metrics.first_attempt_completion_s)
     << ",\"total_completion_s\":" << Num(metrics.total_completion_s)
     << ",\"generation\":" << metrics.generation
     << ",\"journal_events\":" << metrics.journal_events
     << ",\"journal_commits\":" << metrics.journal_commits
     << ",\"restored_segments\":" << metrics.restored_segments
     << ",\"restored_evictions\":" << metrics.restored_evictions
     << ",\"resumed_responses\":" << metrics.resumed_responses
     << ",\"recovery_latency_s\":" << Num(metrics.RecoveryLatency()) << "}";
  return os.str();
}

std::string RunMetricsCsvHeader() {
  return "staging_completion_time,staging_bytes,query_completion_time,"
         "query_uplink_bytes,query_downlink_bytes,decode_subtractions,"
         "decoded_correctly,total_stored_values,total_multiplications,"
         "total_additions,total_values_sent";
}

std::string ToCsvRow(const RunMetrics& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << metrics.staging_completion_time << ',' << metrics.staging_bytes << ','
     << metrics.query_completion_time << ',' << metrics.query_uplink_bytes
     << ',' << metrics.query_downlink_bytes << ','
     << metrics.decode_subtractions << ','
     << (metrics.decoded_correctly ? 1 : 0) << ','
     << metrics.TotalStoredValues() << ',' << metrics.TotalMultiplications()
     << ',' << metrics.TotalAdditions() << ',' << metrics.TotalValuesSent();
  return os.str();
}

std::string FaultRecoveryMetricsCsvHeader() {
  return "deadline_timeouts,retries_sent,retries_suppressed,"
         "corrupt_responses,"
         "devices_recovered_by_retry,devices_evicted_timeout,"
         "devices_evicted_corrupt,hedges_dispatched,hedges_won,"
         "hedges_cancelled,hedged_rows,hedge_staging_bytes,"
         "hedge_staging_aborts,hedges_suppressed,"
         "adaptive_deadlines,queries_dispatched,"
         "responses_received,response_values_received,recovery_rounds,"
         "replanned_rows,base_plan_cost,recovery_plan_cost,"
         "recovery_staging_seconds,first_attempt_completion_s,"
         "total_completion_s,"
         "byzantine_guard_segments,byzantine_guard_rows,"
         "byzantine_guard_cost,byzantine_masked_queries,"
         "byzantine_located_liars,byzantine_fallback_locates,"
         "byzantine_ambiguous_locates,devices_quarantined,"
         "devices_readmitted,canaries_sent,canaries_passed,canaries_failed,"
         "generation,journal_events,journal_commits,restored_segments,"
         "restored_evictions,resumed_responses";
}

std::string ToCsvRow(const FaultRecoveryMetrics& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << metrics.deadline_timeouts << ',' << metrics.retries_sent << ','
     << metrics.retries_suppressed << ','
     << metrics.corrupt_responses << ',' << metrics.devices_recovered_by_retry
     << ',' << metrics.devices_evicted_timeout << ','
     << metrics.devices_evicted_corrupt << ',' << metrics.hedges_dispatched
     << ',' << metrics.hedges_won << ',' << metrics.hedges_cancelled << ','
     << metrics.hedged_rows << ',' << metrics.hedge_staging_bytes << ','
     << metrics.hedge_staging_aborts << ',' << metrics.hedges_suppressed
     << ',' << metrics.adaptive_deadlines
     << ',' << metrics.queries_dispatched << ',' << metrics.responses_received
     << ',' << metrics.response_values_received << ','
     << metrics.recovery_rounds
     << ',' << metrics.replanned_rows << ',' << metrics.base_plan_cost << ','
     << metrics.recovery_plan_cost << ',' << metrics.recovery_staging_seconds
     << ',' << metrics.first_attempt_completion_s << ','
     << metrics.total_completion_s
     << ',' << metrics.byzantine_guard_segments << ','
     << metrics.byzantine_guard_rows << ',' << metrics.byzantine_guard_cost
     << ',' << metrics.byzantine_masked_queries << ','
     << metrics.byzantine_located_liars << ','
     << metrics.byzantine_fallback_locates << ','
     << metrics.byzantine_ambiguous_locates << ','
     << metrics.devices_quarantined << ',' << metrics.devices_readmitted
     << ',' << metrics.canaries_sent << ',' << metrics.canaries_passed << ','
     << metrics.canaries_failed << ',' << metrics.generation << ','
     << metrics.journal_events << ',' << metrics.journal_commits << ','
     << metrics.restored_segments << ',' << metrics.restored_evictions << ','
     << metrics.resumed_responses;
  return os.str();
}

}  // namespace scec::sim
