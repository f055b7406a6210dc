// SPDX-License-Identifier: MIT
//
// Unified RunMetrics / FaultRecoveryMetrics export: the JSON and CSV forms
// must round-trip the Eq. (1) accounting identities — the totals a consumer
// parses back must equal the per-device sums the simulator counted.

#include "sim/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "workload/distributions.h"

namespace scec::sim {
namespace {

McscecProblem MakeProblem(size_t m, size_t l, size_t k, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  McscecProblem problem;
  problem.m = m;
  problem.l = l;
  for (size_t j = 0; j < k; ++j) {
    EdgeDevice device;
    device.name = "edge-" + std::to_string(j);
    device.costs.comm = rng.NextDouble(1.0, 5.0);
    device.costs.storage = 0.01;
    device.costs.mul = 0.002;
    device.costs.add = 0.001;
    device.compute_rate_flops = rng.NextDouble(1e8, 1e9);
    device.uplink_bps = rng.NextDouble(1e7, 1e8);
    device.downlink_bps = rng.NextDouble(1e7, 1e8);
    device.link_latency_s = rng.NextDouble(1e-4, 5e-3);
    problem.fleet.Add(device);
  }
  return problem;
}

RunMetrics SimulatedMetrics() {
  const McscecProblem problem = MakeProblem(24, 6, 8, 5);
  ChaCha20Rng coding_rng(50);
  Xoshiro256StarStar drng(51);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l, drng);
  const auto result = SimulateScec(problem, a, x, coding_rng);
  EXPECT_TRUE(result.ok()) << result.status();
  return result->metrics;
}

std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in(line);
  for (std::string field; std::getline(in, field, ',');) {
    fields.push_back(field);
  }
  return fields;
}

// Extracts the number following "\"<key>\":" in a flat JSON object.
uint64_t JsonUint(const std::string& json, const std::string& key) {
  const std::string marker = "\"" + key + "\":";
  const size_t pos = json.find(marker);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << json;
  if (pos == std::string::npos) return 0;
  return std::stoull(json.substr(pos + marker.size()));
}

TEST(RunMetricsExport, JsonTotalsMatchEquationOneSums) {
  const RunMetrics metrics = SimulatedMetrics();
  const std::string json = ToJson(metrics);

  // The exported totals must equal the per-device Eq. (1) sums.
  EXPECT_EQ(JsonUint(json, "total_stored_values"),
            metrics.TotalStoredValues());
  EXPECT_EQ(JsonUint(json, "total_multiplications"),
            metrics.TotalMultiplications());
  EXPECT_EQ(JsonUint(json, "total_additions"), metrics.TotalAdditions());
  EXPECT_EQ(JsonUint(json, "total_values_sent"), metrics.TotalValuesSent());
  EXPECT_EQ(JsonUint(json, "decode_subtractions"),
            metrics.decode_subtractions);

  // And the sums themselves must satisfy the Eq. (1) per-device identities:
  // multiplications V·l, additions V·(l−1), sent V.
  uint64_t v_total = 0, l = 0;
  for (const DeviceMetrics& device : metrics.devices) {
    v_total += device.coded_rows;
    if (device.coded_rows > 0) {
      l = device.multiplications / device.coded_rows;
    }
  }
  EXPECT_EQ(metrics.TotalMultiplications(), v_total * l);
  EXPECT_EQ(metrics.TotalAdditions(), v_total * (l - 1));
  EXPECT_EQ(metrics.TotalValuesSent(), v_total);

  // Per-device objects are nested under "devices".
  EXPECT_NE(json.find("\"devices\":[{"), std::string::npos);
  for (const DeviceMetrics& device : metrics.devices) {
    EXPECT_NE(json.find("\"name\":\"" + device.name + "\""),
              std::string::npos);
  }
}

TEST(RunMetricsExport, CsvRowMatchesHeaderAndTotals) {
  const RunMetrics metrics = SimulatedMetrics();
  const std::vector<std::string> header = SplitCsv(RunMetricsCsvHeader());
  const std::vector<std::string> row = SplitCsv(ToCsvRow(metrics));
  ASSERT_EQ(header.size(), row.size());

  auto column = [&](const std::string& name) -> std::string {
    for (size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return row[i];
    }
    ADD_FAILURE() << "column " << name << " missing";
    return "";
  };
  EXPECT_EQ(std::stoull(column("total_stored_values")),
            metrics.TotalStoredValues());
  EXPECT_EQ(std::stoull(column("total_multiplications")),
            metrics.TotalMultiplications());
  EXPECT_EQ(std::stoull(column("total_additions")),
            metrics.TotalAdditions());
  EXPECT_EQ(std::stoull(column("total_values_sent")),
            metrics.TotalValuesSent());
  EXPECT_EQ(std::stoull(column("staging_bytes")), metrics.staging_bytes);
  EXPECT_EQ(column("decoded_correctly"),
            metrics.decoded_correctly ? "1" : "0");
  EXPECT_DOUBLE_EQ(std::stod(column("query_completion_time")),
                   metrics.query_completion_time);
}

TEST(FaultRecoveryMetricsExport, JsonAndCsvCarryDerivedFields) {
  FaultRecoveryMetrics metrics;
  metrics.deadline_timeouts = 5;
  metrics.retries_sent = 3;
  metrics.corrupt_responses = 1;
  metrics.devices_recovered_by_retry = 2;
  metrics.devices_evicted_timeout = 1;
  metrics.devices_evicted_corrupt = 1;
  metrics.recovery_rounds = 2;
  metrics.replanned_rows = 7;
  metrics.base_plan_cost = 123.5;
  metrics.recovery_plan_cost = 41.25;
  metrics.recovery_staging_seconds = 0.125;
  metrics.first_attempt_completion_s = 0.5;
  metrics.total_completion_s = 0.875;

  const std::string json = ToJson(metrics);
  EXPECT_EQ(JsonUint(json, "total_evictions"), metrics.TotalEvictions());
  EXPECT_NE(json.find("\"recovery_latency_s\":0.375"), std::string::npos)
      << json;
  EXPECT_EQ(JsonUint(json, "replanned_rows"), 7u);

  const std::vector<std::string> header =
      SplitCsv(FaultRecoveryMetricsCsvHeader());
  const std::vector<std::string> row = SplitCsv(ToCsvRow(metrics));
  ASSERT_EQ(header.size(), row.size());
  for (size_t i = 0; i < header.size(); ++i) {
    EXPECT_FALSE(row[i].empty()) << "empty column " << header[i];
  }
}

TEST(FaultRecoveryMetricsExport, HedgeAndAdaptiveFieldsRoundTrip) {
  FaultRecoveryMetrics metrics;
  metrics.hedges_dispatched = 4;
  metrics.hedges_won = 3;
  metrics.hedges_cancelled = 1;
  metrics.hedged_rows = 9;
  metrics.hedge_staging_bytes = 1024;
  metrics.hedge_staging_aborts = 2;
  metrics.adaptive_deadlines = 11;
  metrics.queries_dispatched = 16;
  metrics.responses_received = 14;
  metrics.response_values_received = 70;
  metrics.total_completion_s = 0.375;

  const std::string json = ToJson(metrics);
  EXPECT_EQ(JsonUint(json, "hedges_dispatched"), 4u);
  EXPECT_EQ(JsonUint(json, "hedges_won"), 3u);
  EXPECT_EQ(JsonUint(json, "hedges_cancelled"), 1u);
  EXPECT_EQ(JsonUint(json, "hedged_rows"), 9u);
  EXPECT_EQ(JsonUint(json, "hedge_staging_bytes"), 1024u);
  EXPECT_EQ(JsonUint(json, "hedge_staging_aborts"), 2u);
  EXPECT_EQ(JsonUint(json, "adaptive_deadlines"), 11u);
  EXPECT_EQ(JsonUint(json, "queries_dispatched"), 16u);
  EXPECT_EQ(JsonUint(json, "responses_received"), 14u);
  EXPECT_EQ(JsonUint(json, "response_values_received"), 70u);
  // Derived: 4 hedges over 16 dispatches.
  EXPECT_NE(json.find("\"hedge_rate\":0.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_completion_s\":0.375"), std::string::npos)
      << json;

  const std::vector<std::string> header =
      SplitCsv(FaultRecoveryMetricsCsvHeader());
  const std::vector<std::string> row = SplitCsv(ToCsvRow(metrics));
  ASSERT_EQ(header.size(), row.size());
  auto column = [&](const std::string& name) -> std::string {
    for (size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return row[i];
    }
    ADD_FAILURE() << "column " << name << " missing";
    return "";
  };
  EXPECT_EQ(column("hedges_dispatched"), "4");
  EXPECT_EQ(column("hedges_won"), "3");
  EXPECT_EQ(column("hedge_staging_bytes"), "1024");
  EXPECT_EQ(column("adaptive_deadlines"), "11");
  EXPECT_EQ(column("queries_dispatched"), "16");
  EXPECT_DOUBLE_EQ(std::stod(column("total_completion_s")), 0.375);
  // Appended columns keep older CSV consumers' column indices valid: the
  // Byzantine/reputation block comes strictly AFTER the completion times.
  EXPECT_EQ(header.back(), "resumed_responses");
  auto index_of = [&](const std::string& name) {
    for (size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return i;
    }
    ADD_FAILURE() << "column " << name << " missing";
    return header.size();
  };
  EXPECT_LT(index_of("total_completion_s"),
            index_of("byzantine_guard_segments"));
}

TEST(FaultRecoveryMetricsExport, ByzantineAndReputationFieldsRoundTrip) {
  FaultRecoveryMetrics metrics;
  metrics.byzantine_guard_segments = 2;
  metrics.byzantine_guard_rows = 48;
  metrics.byzantine_guard_cost = 12.5;
  metrics.byzantine_masked_queries = 3;
  metrics.byzantine_located_liars = 2;
  metrics.byzantine_fallback_locates = 1;
  metrics.byzantine_ambiguous_locates = 1;
  metrics.devices_quarantined = 2;
  metrics.devices_readmitted = 1;
  metrics.canaries_sent = 5;
  metrics.canaries_passed = 4;
  metrics.canaries_failed = 1;

  const std::string json = ToJson(metrics);
  EXPECT_EQ(JsonUint(json, "byzantine_guard_segments"), 2u);
  EXPECT_EQ(JsonUint(json, "byzantine_guard_rows"), 48u);
  EXPECT_NE(json.find("\"byzantine_guard_cost\":12.5"), std::string::npos)
      << json;
  EXPECT_EQ(JsonUint(json, "byzantine_masked_queries"), 3u);
  EXPECT_EQ(JsonUint(json, "byzantine_located_liars"), 2u);
  EXPECT_EQ(JsonUint(json, "byzantine_fallback_locates"), 1u);
  EXPECT_EQ(JsonUint(json, "byzantine_ambiguous_locates"), 1u);
  EXPECT_EQ(JsonUint(json, "devices_quarantined"), 2u);
  EXPECT_EQ(JsonUint(json, "devices_readmitted"), 1u);
  EXPECT_EQ(JsonUint(json, "canaries_sent"), 5u);
  EXPECT_EQ(JsonUint(json, "canaries_passed"), 4u);
  EXPECT_EQ(JsonUint(json, "canaries_failed"), 1u);

  const std::vector<std::string> header =
      SplitCsv(FaultRecoveryMetricsCsvHeader());
  const std::vector<std::string> row = SplitCsv(ToCsvRow(metrics));
  ASSERT_EQ(header.size(), row.size());
  auto column = [&](const std::string& name) -> std::string {
    for (size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return row[i];
    }
    ADD_FAILURE() << "column " << name << " missing";
    return "";
  };
  EXPECT_EQ(column("byzantine_guard_segments"), "2");
  EXPECT_EQ(column("byzantine_guard_rows"), "48");
  EXPECT_EQ(column("byzantine_masked_queries"), "3");
  EXPECT_EQ(column("devices_quarantined"), "2");
  EXPECT_EQ(column("devices_readmitted"), "1");
  EXPECT_EQ(column("canaries_sent"), "5");
  EXPECT_EQ(column("canaries_failed"), "1");
}

TEST(FaultRecoveryMetricsExport, CrashRecoveryFieldsRoundTrip) {
  FaultRecoveryMetrics metrics;
  metrics.generation = 2;
  metrics.journal_events = 37;
  metrics.journal_commits = 9;
  metrics.restored_segments = 3;
  metrics.restored_evictions = 1;
  metrics.resumed_responses = 5;

  const std::string json = ToJson(metrics);
  EXPECT_EQ(JsonUint(json, "generation"), 2u);
  EXPECT_EQ(JsonUint(json, "journal_events"), 37u);
  EXPECT_EQ(JsonUint(json, "journal_commits"), 9u);
  EXPECT_EQ(JsonUint(json, "restored_segments"), 3u);
  EXPECT_EQ(JsonUint(json, "restored_evictions"), 1u);
  EXPECT_EQ(JsonUint(json, "resumed_responses"), 5u);

  const std::vector<std::string> header =
      SplitCsv(FaultRecoveryMetricsCsvHeader());
  const std::vector<std::string> row = SplitCsv(ToCsvRow(metrics));
  ASSERT_EQ(header.size(), row.size());
  auto column = [&](const std::string& name) -> std::string {
    for (size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return row[i];
    }
    ADD_FAILURE() << "column " << name << " missing";
    return "";
  };
  EXPECT_EQ(column("generation"), "2");
  EXPECT_EQ(column("journal_events"), "37");
  EXPECT_EQ(column("journal_commits"), "9");
  EXPECT_EQ(column("restored_segments"), "3");
  EXPECT_EQ(column("restored_evictions"), "1");
  EXPECT_EQ(column("resumed_responses"), "5");
}

TEST(RunMetricsExport, EmptyMetricsStillSerialise) {
  const RunMetrics metrics;
  const std::string json = ToJson(metrics);
  EXPECT_NE(json.find("\"devices\":[]"), std::string::npos);
  EXPECT_EQ(JsonUint(json, "total_stored_values"), 0u);
  const std::vector<std::string> row = SplitCsv(ToCsvRow(metrics));
  EXPECT_EQ(row.size(), SplitCsv(RunMetricsCsvHeader()).size());
}

}  // namespace
}  // namespace scec::sim
