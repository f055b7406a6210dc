// SPDX-License-Identifier: MIT
//
// Fault-tolerant SCEC runtime: fault injection (sim/faults.h), Freivalds
// result verification (coding/result_verify.h), and recovery re-planning
// (sim/fault_tolerant_protocol.h).

#include "sim/fault_tolerant_protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>

#include "coding/result_verify.h"
#include "common/retry.h"
#include "linalg/matrix_ops.h"
#include "obs/trace.h"
#include "scec_protocol_golden.h"
#include "sim/faults.h"
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
    device.compute_rate_flops = 1e9;
    device.uplink_bps = 1e8;
    device.downlink_bps = 1e8;
    device.link_latency_s = 1e-3;
    problem.fleet.Add(device);
  }
  return problem;
}

// Compute-bound fleet: device compute dominates the round trip, so a
// multiplicative compute slowdown (the straggler models) actually moves
// response times. MakeProblem's fleet is link-dominated — stragglers there
// barely register, and hedges would never trigger.
McscecProblem MakeComputeBoundProblem(size_t m, size_t l, size_t k,
                                      uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  McscecProblem problem;
  problem.m = m;
  problem.l = l;
  for (size_t j = 0; j < k; ++j) {
    EdgeDevice device;
    device.name = "edge-" + std::to_string(j);
    device.costs.comm = rng.NextDouble(1.0, 5.0);
    device.compute_rate_flops = rng.NextDouble(1e6, 2e6);
    device.uplink_bps = 2e8;
    device.downlink_bps = 2e8;
    device.link_latency_s = 2e-4;
    problem.fleet.Add(device);
  }
  return problem;
}

struct Rig {
  McscecProblem problem;
  Matrix<double> a;
  std::vector<double> x;
  std::vector<double> expected;
  Deployment<double> deployment;

  Rig(size_t m, size_t l, size_t k, uint64_t seed)
      : Rig(MakeProblem(m, l, k, seed), seed) {}

  Rig(McscecProblem p, uint64_t seed) : problem(std::move(p)) {
    Xoshiro256StarStar drng(seed + 1);
    a = RandomMatrix<double>(problem.m, problem.l, drng);
    x = RandomVector<double>(problem.l, drng);
    expected = MatVec(a, std::span<const double>(x));
    ChaCha20Rng coding_rng(seed + 2);
    auto deployed = Deploy(problem, a, coding_rng);
    SCEC_CHECK(deployed.ok()) << deployed.status();
    deployment = *std::move(deployed);
  }
};

void ExpectDecodes(const Rig& rig, const Result<std::vector<double>>& result) {
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LT(MaxAbsDiff(std::span<const double>(*result),
                       std::span<const double>(rig.expected)),
            1e-9);
}

// --- RetryPolicy --------------------------------------------------------

TEST(RetryPolicy, BackoffGrowsExponentiallyUpToCeiling) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_s = 0.01;
  policy.backoff_factor = 2.0;
  policy.max_backoff_s = 0.05;
  policy.Validate();
  EXPECT_DOUBLE_EQ(policy.BackoffFor(0), 0.01);
  EXPECT_DOUBLE_EQ(policy.BackoffFor(1), 0.02);
  EXPECT_DOUBLE_EQ(policy.BackoffFor(2), 0.04);
  EXPECT_DOUBLE_EQ(policy.BackoffFor(3), 0.05) << "clamped at the ceiling";
  EXPECT_DOUBLE_EQ(policy.BackoffFor(10), 0.05);
  // 5 possible retries: 0.01 + 0.02 + 0.04 + 0.05 + 0.05.
  EXPECT_NEAR(policy.TotalBackoff(), 0.17, 1e-12);
}

TEST(RetryPolicy, SingleAttemptNeverBacksOff) {
  RetryPolicy policy;
  policy.max_attempts = 1;
  policy.Validate();
  EXPECT_DOUBLE_EQ(policy.TotalBackoff(), 0.0);
}

// --- FaultSchedule ------------------------------------------------------

TEST(FaultSchedule, CrashGatesQueriesAndResponsesFromStartTime) {
  FaultSchedule faults;
  faults.AddCrash(/*device=*/2, /*at_s=*/1.0);
  EXPECT_TRUE(faults.AcceptsQueryAt(2, 0.5));
  EXPECT_FALSE(faults.AcceptsQueryAt(2, 1.0));
  EXPECT_FALSE(faults.SendsResponseAt(2, 2.0));
  EXPECT_TRUE(faults.AcceptsQueryAt(0, 2.0)) << "unscripted device unaffected";
  EXPECT_EQ(faults.stats().crash_drops, 2u);
}

TEST(FaultSchedule, TransientWindowEndsAndOmissionIsQueryOnly) {
  FaultSchedule faults;
  faults.AddTransient(/*device=*/0, /*from_s=*/1.0, /*until_s=*/2.0);
  faults.AddOmission(/*device=*/1, /*from_s=*/0.0);
  EXPECT_TRUE(faults.AcceptsQueryAt(0, 0.5));
  EXPECT_FALSE(faults.AcceptsQueryAt(0, 1.5));
  EXPECT_TRUE(faults.AcceptsQueryAt(0, 2.0)) << "window is half-open";
  EXPECT_TRUE(faults.AcceptsQueryAt(1, 0.5)) << "omission accepts the work";
  EXPECT_FALSE(faults.SendsResponseAt(1, 0.5)) << "but never answers";
}

TEST(FaultSchedule, CorruptionPerturbsScriptedElementOnly) {
  FaultSchedule faults;
  faults.AddCorruption(/*device=*/0, /*from_s=*/0.0, /*element=*/1,
                       /*delta=*/0.5);
  std::vector<double> response = {1.0, 2.0, 3.0};
  EXPECT_TRUE(faults.MaybeCorrupt(0, 0.0, response));
  EXPECT_DOUBLE_EQ(response[0], 1.0);
  EXPECT_DOUBLE_EQ(response[1], 2.5);
  EXPECT_DOUBLE_EQ(response[2], 3.0);
  EXPECT_FALSE(faults.MaybeCorrupt(1, 0.0, response));
  EXPECT_EQ(faults.stats().corruptions, 1u);
}

// --- Freivalds verification --------------------------------------------

TEST(ResultVerifier, FlagsEveryElementCorruptionAndPassesHonest) {
  Rig rig(12, 5, 8, 20);
  ChaCha20Rng verifier_rng(21);
  const auto verifier =
      ResultVerifier<double>::Create(rig.deployment.shares, verifier_rng);
  const auto honest = ComputeDeviceResponses(rig.deployment, rig.x);
  for (size_t device = 0; device < honest.size(); ++device) {
    EXPECT_TRUE(verifier.Check(device, std::span<const double>(rig.x),
                               std::span<const double>(honest[device])))
        << "honest response must verify, device " << device;
    for (size_t element = 0; element < honest[device].size(); ++element) {
      auto corrupted = honest[device];
      corrupted[element] += 1e-3;
      EXPECT_FALSE(verifier.Check(device, std::span<const double>(rig.x),
                                  std::span<const double>(corrupted)))
          << "device " << device << " element " << element;
    }
  }
}

TEST(ResultVerifier, WrongLengthResponseFails) {
  Rig rig(8, 4, 6, 22);
  ChaCha20Rng verifier_rng(23);
  const auto verifier =
      ResultVerifier<double>::Create(rig.deployment.shares, verifier_rng);
  const auto honest = ComputeDeviceResponses(rig.deployment, rig.x);
  auto truncated = honest[0];
  truncated.pop_back();
  EXPECT_FALSE(verifier.Check(0, std::span<const double>(rig.x),
                              std::span<const double>(truncated)));
}

TEST(ResultVerifier, ExactFieldQueryVerifiedCatchesCorruption) {
  // Over GF(2^61−1) the check is exact with soundness 1/q per response.
  const McscecProblem problem = MakeProblem(10, 4, 8, 24);
  Xoshiro256StarStar drng(25);
  ChaCha20Rng coding_rng(26);
  const auto a = RandomMatrix<Gf61>(problem.m, problem.l, drng);
  const auto x = RandomVector<Gf61>(problem.l, drng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok());
  ChaCha20Rng verifier_rng(27);
  const auto verifier =
      ResultVerifier<Gf61>::Create(deployment->shares, verifier_rng);

  auto responses = ComputeDeviceResponses(*deployment, x);
  const auto clean = QueryVerified(*deployment, verifier, x, responses);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(*clean, Query(*deployment, x));

  responses[1][0] += Gf61::One();
  const auto flagged = QueryVerified(*deployment, verifier, x, responses);
  ASSERT_FALSE(flagged.ok());
  EXPECT_EQ(flagged.status().code(), ErrorCode::kDecodeFailure);
  EXPECT_NE(flagged.status().message().find("device 1"), std::string::npos)
      << flagged.status();
}

TEST(ResultVerifier, PlainPipelineQueryVerifiedNamesOffender) {
  Rig rig(10, 4, 8, 28);
  ChaCha20Rng verifier_rng(29);
  const auto verifier =
      ResultVerifier<double>::Create(rig.deployment.shares, verifier_rng);
  auto responses = ComputeDeviceResponses(rig.deployment, rig.x);
  ExpectDecodes(rig, QueryVerified(rig.deployment, verifier, rig.x, responses));

  responses[2][0] += 0.25;
  const auto flagged =
      QueryVerified(rig.deployment, verifier, rig.x, responses);
  ASSERT_FALSE(flagged.ok());
  EXPECT_EQ(flagged.status().code(), ErrorCode::kDecodeFailure);
  EXPECT_NE(flagged.status().message().find("device 2"), std::string::npos);
}

// --- Cumulative ITS -----------------------------------------------------

TEST(CumulativeSecurity, FreshPadsSecureReusedPadsLeak) {
  // A device's cumulative view over the extended basis [A_0 A_1 | P_0 P_1]:
  // with fresh pads the two rows keep distinct pad columns and stay secure;
  // reusing P_0 lets row1 − row0 = A_1 − A_0, a nonzero data-span vector.
  const size_t m = 2;
  Matrix<Gf61> fresh(2, m + 2);
  fresh(0, 0) = Gf61::One();  // A_0 + P_0
  fresh(0, m + 0) = Gf61::One();
  fresh(1, 1) = Gf61::One();  // A_1 + P_1
  fresh(1, m + 1) = Gf61::One();
  EXPECT_TRUE(VerifyCumulativeView(fresh, m).secure());

  Matrix<Gf61> reused(2, m + 2);
  reused(0, 0) = Gf61::One();  // A_0 + P_0
  reused(0, m + 0) = Gf61::One();
  reused(1, 1) = Gf61::One();  // A_1 + P_0  (pad reuse!)
  reused(1, m + 0) = Gf61::One();
  const DeviceSecurityReport leak = VerifyCumulativeView(reused, m);
  EXPECT_FALSE(leak.secure());
  EXPECT_GE(leak.intersection_dim, 1u);
}

TEST(CumulativeSecurity, EmptyViewIsTriviallySecure) {
  EXPECT_TRUE(VerifyCumulativeView(Matrix<Gf61>(0, 5), 3).secure());
  const auto report =
      VerifyCumulativeViews({Matrix<Gf61>(0, 4), Matrix<Gf61>(0, 4)}, 2);
  EXPECT_TRUE(report.all_secure);
  EXPECT_TRUE(report.available);
}

// --- FaultTolerantScecProtocol -----------------------------------------

TEST(FaultTolerantProtocol, FaultFreeRunDecodesWithoutRecovery) {
  Rig rig(16, 5, 8, 30);
  FaultTolerantScecProtocol protocol(&rig.deployment, &rig.a,
                                     rig.problem.fleet.devices(), {});
  protocol.Stage();
  ExpectDecodes(rig, protocol.RunQuery(rig.x));
  EXPECT_EQ(protocol.recovery_metrics().recovery_rounds, 0u);
  EXPECT_EQ(protocol.recovery_metrics().deadline_timeouts, 0u);
  EXPECT_EQ(protocol.recovery_metrics().corrupt_responses, 0u);
  EXPECT_EQ(protocol.num_evicted(), 0u);
  EXPECT_EQ(protocol.num_segments(), 1u);
  EXPECT_DOUBLE_EQ(protocol.recovery_metrics().RecoveryLatency(), 0.0);
  EXPECT_TRUE(protocol.VerifyCumulativeSecurity().all_secure);
}

TEST(FaultTolerantProtocol, RecoversFromCrashFault) {
  Rig rig(16, 5, 8, 31);
  FaultSchedule faults;
  // Crash the physical device serving scheme block 1 before any query.
  const size_t victim = rig.deployment.plan.participating[1];
  faults.AddCrash(victim, 0.0);
  SimOptions options;
  options.faults = &faults;
  FaultTolerantScecProtocol protocol(&rig.deployment, &rig.a,
                                     rig.problem.fleet.devices(), options);
  protocol.Stage();
  ExpectDecodes(rig, protocol.RunQuery(rig.x));
  EXPECT_EQ(protocol.num_evicted(), 1u);
  EXPECT_GE(protocol.recovery_metrics().deadline_timeouts, 1u);
  EXPECT_EQ(protocol.recovery_metrics().devices_evicted_timeout, 1u);
  EXPECT_GE(protocol.recovery_metrics().recovery_rounds, 1u);
  EXPECT_GE(protocol.recovery_metrics().replanned_rows, 1u);
  EXPECT_EQ(protocol.num_segments(),
            1u + protocol.recovery_metrics().recovery_rounds);
  EXPECT_GT(protocol.recovery_metrics().RecoveryLatency(), 0.0);
  EXPECT_GT(faults.stats().crash_drops, 0u);
  EXPECT_TRUE(protocol.VerifyCumulativeSecurity().all_secure)
      << protocol.VerifyCumulativeSecurity().Summary();
}

TEST(FaultTolerantProtocol, RecoversFromOmissionFault) {
  Rig rig(16, 5, 8, 32);
  FaultSchedule faults;
  const size_t victim = rig.deployment.plan.participating.back();
  faults.AddOmission(victim);
  SimOptions options;
  options.faults = &faults;
  FaultTolerantScecProtocol protocol(&rig.deployment, &rig.a,
                                     rig.problem.fleet.devices(), options);
  protocol.Stage();
  ExpectDecodes(rig, protocol.RunQuery(rig.x));
  EXPECT_EQ(protocol.num_evicted(), 1u);
  EXPECT_EQ(protocol.recovery_metrics().devices_evicted_timeout, 1u);
  EXPECT_GE(protocol.recovery_metrics().recovery_rounds, 1u);
  // The silent device accepted and computed every re-delivered query.
  EXPECT_GT(faults.stats().omission_drops, 0u);
  EXPECT_TRUE(protocol.VerifyCumulativeSecurity().all_secure);
}

TEST(FaultTolerantProtocol, EvictsCorruptDeviceOnFirstBadDigest) {
  Rig rig(16, 5, 8, 33);
  FaultSchedule faults;
  const size_t victim = rig.deployment.plan.participating[2];
  faults.AddCorruption(victim, /*from_s=*/0.0, /*element=*/0, /*delta=*/1.0);
  SimOptions options;
  options.faults = &faults;
  FaultTolerantScecProtocol protocol(&rig.deployment, &rig.a,
                                     rig.problem.fleet.devices(), options);
  protocol.Stage();
  ExpectDecodes(rig, protocol.RunQuery(rig.x));
  EXPECT_EQ(protocol.num_evicted(), 1u);
  EXPECT_GE(protocol.recovery_metrics().corrupt_responses, 1u);
  EXPECT_EQ(protocol.recovery_metrics().devices_evicted_corrupt, 1u);
  EXPECT_EQ(protocol.recovery_metrics().devices_evicted_timeout, 0u)
      << "corruption is detected by the digest, not by a timeout";
  EXPECT_GE(protocol.recovery_metrics().recovery_rounds, 1u);
  EXPECT_TRUE(protocol.VerifyCumulativeSecurity().all_secure);
}

TEST(FaultTolerantProtocol, TransientOutageIsRecoveredByRetryNotEviction) {
  Rig rig(16, 5, 8, 34);
  FaultSchedule faults;
  SimOptions options;
  options.faults = &faults;
  FaultToleranceOptions ft;
  ft.retry.max_attempts = 6;
  ft.retry.initial_backoff_s = 0.06;
  FaultTolerantScecProtocol protocol(&rig.deployment, &rig.a,
                                     rig.problem.fleet.devices(), options, ft);
  protocol.Stage();
  // Offline from before the query until shortly after it is dispatched; the
  // backoff carries the retry past the window.
  const size_t victim = rig.deployment.plan.participating[1];
  faults.AddTransient(victim, 0.0, protocol.queue().now() + 0.05);
  ExpectDecodes(rig, protocol.RunQuery(rig.x));
  EXPECT_EQ(protocol.num_evicted(), 0u);
  EXPECT_EQ(protocol.recovery_metrics().recovery_rounds, 0u);
  EXPECT_GE(protocol.recovery_metrics().retries_sent, 1u);
  EXPECT_GE(protocol.recovery_metrics().devices_recovered_by_retry, 1u);
  EXPECT_GT(faults.stats().transient_drops, 0u);
}

TEST(FaultTolerantProtocol, KeepsServingQueriesAfterEviction) {
  Rig rig(16, 5, 8, 35);
  FaultSchedule faults;
  const size_t victim = rig.deployment.plan.participating[0];
  faults.AddCrash(victim, 0.0);
  SimOptions options;
  options.faults = &faults;
  FaultTolerantScecProtocol protocol(&rig.deployment, &rig.a,
                                     rig.problem.fleet.devices(), options);
  protocol.Stage();
  ExpectDecodes(rig, protocol.RunQuery(rig.x));
  const uint64_t rounds_after_first =
      protocol.recovery_metrics().recovery_rounds;
  EXPECT_GE(rounds_after_first, 1u);

  // The next query must use the recovery segment for the lost rows without
  // re-planning again (the evicted device is simply skipped).
  Xoshiro256StarStar drng(36);
  const auto x2 = RandomVector<double>(rig.problem.l, drng);
  const auto expected2 = MatVec(rig.a, std::span<const double>(x2));
  const auto result2 = protocol.RunQuery(x2);
  ASSERT_TRUE(result2.ok()) << result2.status();
  EXPECT_LT(MaxAbsDiff(std::span<const double>(*result2),
                       std::span<const double>(expected2)),
            1e-9);
  EXPECT_EQ(protocol.recovery_metrics().recovery_rounds, rounds_after_first)
      << "no new re-plan needed on the second query";
  EXPECT_TRUE(protocol.VerifyCumulativeSecurity().all_secure);
}

TEST(FaultTolerantProtocol, MultipleSimultaneousFaultsStillDecode) {
  Rig rig(20, 5, 10, 37);
  FaultSchedule faults;
  faults.AddCrash(rig.deployment.plan.participating[1], 0.0);
  faults.AddCorruption(rig.deployment.plan.participating[2], 0.0, 0, 2.0);
  SimOptions options;
  options.faults = &faults;
  FaultTolerantScecProtocol protocol(&rig.deployment, &rig.a,
                                     rig.problem.fleet.devices(), options);
  protocol.Stage();
  ExpectDecodes(rig, protocol.RunQuery(rig.x));
  EXPECT_EQ(protocol.num_evicted(), 2u);
  EXPECT_GE(protocol.recovery_metrics().recovery_rounds, 1u);
  EXPECT_TRUE(protocol.VerifyCumulativeSecurity().all_secure)
      << protocol.VerifyCumulativeSecurity().Summary();
}

TEST(FaultTolerantProtocol, InfeasibleWhenFleetCollapses) {
  // k = 2: evicting one device leaves a single survivor, below MCSCEC's
  // k >= 2 floor — recovery must report kInfeasible, not hang or abort.
  Rig rig(6, 3, 2, 38);
  FaultSchedule faults;
  faults.AddCrash(rig.deployment.plan.participating[0], 0.0);
  SimOptions options;
  options.faults = &faults;
  FaultTolerantScecProtocol protocol(&rig.deployment, &rig.a,
                                     rig.problem.fleet.devices(), options);
  protocol.Stage();
  const auto result = protocol.RunQuery(rig.x);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInfeasible);
}

TEST(FaultTolerantProtocol, FaultFreeCostMatchesPlainProtocol) {
  // Without faults the FT protocol performs the same staging, the same
  // per-device work and the same decode as the paper's plain protocol —
  // detection must be free when nothing fails. The plain protocol's numbers
  // are the golden records of tests/scec_protocol_golden.h.
  Rig rig(16, 5, 8, 39);
  FaultTolerantScecProtocol ft(&rig.deployment, &rig.a,
                               rig.problem.fleet.devices(), {});
  ft.Stage();
  const auto result = ft.RunQuery(rig.x);
  ExpectDecodes(rig, result);

  const golden::RunRecord& base = golden::kFaultFreeRigRun;
  EXPECT_EQ(ft.metrics().staging_bytes, base.staging_bytes);
  EXPECT_EQ(ft.metrics().query_uplink_bytes, base.query_uplink_bytes);
  EXPECT_EQ(ft.metrics().query_downlink_bytes, base.query_downlink_bytes);
  EXPECT_EQ(ft.metrics().decode_subtractions, base.decode_subtractions)
      << "m subtractions, same as the structured decoder";
  ASSERT_EQ(ft.metrics().devices.size(),
            std::size(golden::kFaultFreeRigDevices));
  for (size_t d = 0; d < ft.metrics().devices.size(); ++d) {
    EXPECT_EQ(ft.metrics().devices[d].multiplications,
              golden::kFaultFreeRigDevices[d].multiplications);
    EXPECT_EQ(ft.metrics().devices[d].additions,
              golden::kFaultFreeRigDevices[d].additions);
  }
  EXPECT_NEAR(ft.metrics().query_completion_time, base.query_completion_time,
              1e-12 * base.query_completion_time);
  ASSERT_EQ(result->size(), std::size(golden::kFaultFreeRigDecoded));
  for (size_t i = 0; i < result->size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>((*result)[i]),
              std::bit_cast<uint64_t>(golden::kFaultFreeRigDecoded[i]))
        << "row " << i;
  }
}

TEST(FaultTolerantProtocol, CompletionTimeIsTheLastResponseArrival) {
  // A fault-free query completes when its last response arrives. The event
  // queue drains later (stale deadline timers of kMinDeadlineS), and that
  // drain time must not leak into the completion time, nor into the
  // sim-time `query` span — with hedging off it once did, so a ~2 ms query
  // read as the 20 ms minimum deadline.
  Rig rig(16, 5, 8, 39);
  FaultTolerantScecProtocol protocol(&rig.deployment, &rig.a,
                                     rig.problem.fleet.devices(), {});
  protocol.Stage();
  const double start = protocol.queue().now();
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().Enable(true);
  ExpectDecodes(rig, protocol.RunQuery(rig.x));
  const std::vector<obs::TraceEvent> events = obs::Tracer::Global().Snapshot();
  obs::Tracer::Global().Enable(false);
  obs::Tracer::Global().Clear();

  double last_arrival = start;
  for (const DeviceMetrics& device : protocol.metrics().devices) {
    last_arrival = std::max(last_arrival, device.response_time);
  }
  const double completion = protocol.metrics().query_completion_time;
  EXPECT_DOUBLE_EQ(completion, last_arrival - start);
  EXPECT_LT(completion, kMinDeadlineS);
  EXPECT_DOUBLE_EQ(protocol.recovery_metrics().first_attempt_completion_s,
                   completion);
  EXPECT_DOUBLE_EQ(protocol.recovery_metrics().total_completion_s,
                   completion);
  EXPECT_GE(protocol.queue().now() - start, kMinDeadlineS)
      << "the queue still drains the deadline timers after the decode";

  const auto span = std::find_if(
      events.begin(), events.end(), [](const obs::TraceEvent& event) {
        return event.name == "query" && event.pid == obs::kSimPid;
      });
  ASSERT_NE(span, events.end());
  EXPECT_NEAR(span->dur_us, completion * 1e6, 1e-6);
}

// --- Hedged queries -----------------------------------------------------

TEST(HedgedQueries, FireAndResolveUnderExponentialStragglers) {
  Rig rig(MakeComputeBoundProblem(48, 256, 10, 60), 60);
  SimOptions options;
  options.straggler.kind = StragglerKind::kExponentialSlowdown;
  options.straggler.rate = 0.8;
  options.straggler_seed = 61;
  FaultToleranceOptions ft;
  ft.hedging = true;
  ft.hedge_quantile = 0.5;
  ft.hedge_margin = 1.25;
  FaultTolerantScecProtocol protocol(&rig.deployment, &rig.a,
                                     rig.problem.fleet.devices(), options, ft);
  protocol.Stage();
  Xoshiro256StarStar drng(62);
  for (size_t q = 0; q < 8; ++q) {
    const auto xq = RandomVector<double>(rig.problem.l, drng);
    const auto expected = MatVec(rig.a, std::span<const double>(xq));
    const auto result = protocol.RunQuery(xq);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_LT(MaxAbsDiff(std::span<const double>(*result),
                         std::span<const double>(expected)),
              1e-9)
        << "query " << q;
  }
  const FaultRecoveryMetrics& rec = protocol.recovery_metrics();
  EXPECT_GE(rec.hedges_dispatched, 1u) << "stragglers must trigger hedges";
  EXPECT_GE(rec.hedges_won + rec.hedges_cancelled, 1u)
      << "every dispatched hedge race resolves one way or the other";
  EXPECT_GT(rec.hedged_rows, 0u);
  EXPECT_GT(rec.hedge_staging_bytes, 0u);
  EXPECT_GT(rec.HedgeRate(), 0.0);
  EXPECT_LT(rec.HedgeRate(), 1.0);
  EXPECT_GT(rec.total_completion_s, 0.0);
  // The one property hedging must never trade away: fresh-pad re-encodes
  // keep every device's cumulative view Def. 2 ITS-secure.
  EXPECT_TRUE(protocol.VerifyCumulativeSecurity().all_secure)
      << protocol.VerifyCumulativeSecurity().Summary();
}

TEST(HedgedQueries, FreeWhenNobodyStraggles) {
  // With no stragglers or faults no hedge threshold is ever crossed, so the
  // hedging knob must cost nothing: same bytes, same dispatches, same work.
  Rig rig_off(16, 5, 8, 63);
  Rig rig_on(16, 5, 8, 63);
  FaultTolerantScecProtocol off(&rig_off.deployment, &rig_off.a,
                                rig_off.problem.fleet.devices(), {}, {});
  FaultToleranceOptions ft;
  ft.hedging = true;
  FaultTolerantScecProtocol on(&rig_on.deployment, &rig_on.a,
                               rig_on.problem.fleet.devices(), {}, ft);
  off.Stage();
  on.Stage();
  ExpectDecodes(rig_off, off.RunQuery(rig_off.x));
  ExpectDecodes(rig_on, on.RunQuery(rig_on.x));

  EXPECT_EQ(on.recovery_metrics().hedges_dispatched, 0u);
  EXPECT_EQ(on.recovery_metrics().hedge_staging_bytes, 0u);
  EXPECT_EQ(on.metrics().staging_bytes, off.metrics().staging_bytes);
  EXPECT_EQ(on.metrics().query_uplink_bytes,
            off.metrics().query_uplink_bytes);
  EXPECT_EQ(on.metrics().query_downlink_bytes,
            off.metrics().query_downlink_bytes);
  EXPECT_EQ(on.metrics().TotalMultiplications(),
            off.metrics().TotalMultiplications());
  EXPECT_EQ(on.recovery_metrics().queries_dispatched,
            off.recovery_metrics().queries_dispatched);
  // Completion is the settle time under both settings.
  EXPECT_DOUBLE_EQ(on.recovery_metrics().total_completion_s,
                   off.recovery_metrics().total_completion_s);
  EXPECT_DOUBLE_EQ(on.metrics().query_completion_time,
                   off.metrics().query_completion_time);
}

// --- Adaptive timeouts --------------------------------------------------

TEST(AdaptiveTimeouts, UseEstimatorAfterWarmup) {
  Rig rig(16, 5, 8, 64);
  FaultToleranceOptions ft;
  ft.adaptive_timeouts = true;
  ft.estimator.min_samples = 2;
  FaultTolerantScecProtocol protocol(&rig.deployment, &rig.a,
                                     rig.problem.fleet.devices(), {}, ft);
  protocol.Stage();
  Xoshiro256StarStar drng(65);
  for (size_t q = 0; q < 4; ++q) {
    const auto xq = RandomVector<double>(rig.problem.l, drng);
    const auto expected = MatVec(rig.a, std::span<const double>(xq));
    const auto result = protocol.RunQuery(xq);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_LT(MaxAbsDiff(std::span<const double>(*result),
                         std::span<const double>(expected)),
              1e-9);
  }
  EXPECT_GT(protocol.recovery_metrics().adaptive_deadlines, 0u)
      << "after warm-up, deadlines must come from the estimator";
  EXPECT_EQ(protocol.recovery_metrics().deadline_timeouts, 0u)
      << "a steady fleet must not be timed out by its own history";
  for (const size_t device : rig.deployment.plan.participating) {
    EXPECT_TRUE(protocol.latency_estimator(device).HasEstimate())
        << "device " << device;
    EXPECT_GE(protocol.latency_estimator(device).count(), 4u);
  }
}

TEST(AdaptiveTimeouts, ColdStartFallsBackToModelDeadline) {
  Rig rig(16, 5, 8, 66);
  FaultToleranceOptions ft;
  ft.adaptive_timeouts = true;
  ft.estimator.min_samples = 1000;  // never warm within this test
  FaultTolerantScecProtocol protocol(&rig.deployment, &rig.a,
                                     rig.problem.fleet.devices(), {}, ft);
  protocol.Stage();
  ExpectDecodes(rig, protocol.RunQuery(rig.x));
  EXPECT_EQ(protocol.recovery_metrics().adaptive_deadlines, 0u)
      << "below min_samples every deadline is model-based";
  EXPECT_EQ(protocol.recovery_metrics().deadline_timeouts, 0u);
}

// --- Lossy links --------------------------------------------------------

TEST(LossyLinks, DeadlineWaitsForTheChannelRetransmit) {
  // Link-dominated fleet: a loss-free round trip takes a few ms, so a query
  // that settles between kMinDeadlineS and kMinDeadlineS + the retransmit
  // timeout was waiting on a ReliableChannel retransmit. No deadline may
  // fire in that window: re-sending x would only duplicate the retransmit.
  Rig rig(16, 5, 8, 70);
  SimOptions options;
  options.loss_probability = 0.2;
  options.retransmit_timeout_s = 0.03;
  size_t in_window = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    options.loss_seed = seed;
    FaultTolerantScecProtocol protocol(&rig.deployment, &rig.a,
                                       rig.problem.fleet.devices(), options);
    protocol.Stage();
    ExpectDecodes(rig, protocol.RunQuery(rig.x));
    const double settled = protocol.metrics().query_completion_time;
    if (settled > kMinDeadlineS &&
        settled < kMinDeadlineS + options.retransmit_timeout_s) {
      ++in_window;
      EXPECT_EQ(protocol.recovery_metrics().deadline_timeouts, 0u)
          << "loss seed " << seed << " settled at " << settled << " s";
    }
  }
  EXPECT_GT(in_window, 0u);
}

TEST(LossyLinks, DeadlineCoversTheRetransmitTail) {
  // At loss 0.5 a message often needs several retransmits. The deadline
  // budgets enough of them on both legs that the channel's own retransmits
  // deliver all but the kLossTailProbability tail, so deadline re-sends of
  // x stay rare (a floor of one retransmit timeout re-sent x 111 times on
  // these 200 dispatches).
  Rig rig(16, 5, 8, 70);
  SimOptions options;
  options.loss_probability = 0.5;
  options.retransmit_timeout_s = 0.03;
  options.max_retries = 80;
  uint64_t retries = 0, dispatches = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    options.loss_seed = seed;
    FaultTolerantScecProtocol protocol(&rig.deployment, &rig.a,
                                       rig.problem.fleet.devices(), options);
    protocol.Stage();
    ExpectDecodes(rig, protocol.RunQuery(rig.x));
    retries += protocol.recovery_metrics().retries_sent;
    dispatches += rig.deployment.shares.size();
  }
  EXPECT_LE(retries * 50, dispatches) << retries << " deadline retries";
}

// --- Seeded backoff jitter ----------------------------------------------

TEST(BackoffJitter, SameSeedReplaysTheExactTrace) {
  // Two protocols, same scenario, same jitter seed: the full event trace —
  // and therefore every exported metric — must be bit-identical.
  auto run = [](uint64_t jitter_seed) {
    Rig rig(16, 5, 8, 67);
    FaultSchedule faults;
    SimOptions options;
    options.faults = &faults;
    FaultToleranceOptions ft;
    ft.retry.max_attempts = 6;
    ft.retry.initial_backoff_s = 0.06;
    ft.backoff_jitter = 0.3;
    ft.jitter_seed = jitter_seed;
    FaultTolerantScecProtocol protocol(
        &rig.deployment, &rig.a, rig.problem.fleet.devices(), options, ft);
    protocol.Stage();
    const size_t victim = rig.deployment.plan.participating[1];
    faults.AddTransient(victim, 0.0, protocol.queue().now() + 0.05);
    const auto result = protocol.RunQuery(rig.x);
    EXPECT_TRUE(result.ok()) << result.status();
    EXPECT_GE(protocol.recovery_metrics().retries_sent, 1u)
        << "the scenario must actually exercise the jittered backoff";
    return ToJson(protocol.recovery_metrics()) + ToJson(protocol.metrics());
  };
  const std::string first = run(12345);
  const std::string second = run(12345);
  EXPECT_EQ(first, second);
  // A different jitter seed perturbs the retry schedule, which shows up in
  // the completion timing — seeds decorrelate, they don't relabel.
  EXPECT_NE(run(99999), first);
}

TEST(BackoffJitter, ZeroJitterMatchesDefaultOptionsBitForBit) {
  // backoff_jitter = 0 (the default) must reproduce the unjittered schedule
  // exactly, whatever the jitter seed — the knob is fully inert when off.
  auto run = [](bool explicit_zero) {
    Rig rig(16, 5, 8, 68);
    FaultSchedule faults;
    const size_t victim = rig.deployment.plan.participating[0];
    faults.AddCrash(victim, 0.0);
    SimOptions options;
    options.faults = &faults;
    FaultToleranceOptions ft;
    if (explicit_zero) {
      ft.backoff_jitter = 0.0;
      ft.jitter_seed = 42;  // unused when jitter is off
      ft.hedging = false;
      ft.adaptive_timeouts = false;
    }
    FaultTolerantScecProtocol protocol(
        &rig.deployment, &rig.a, rig.problem.fleet.devices(), options, ft);
    protocol.Stage();
    const auto result = protocol.RunQuery(rig.x);
    EXPECT_TRUE(result.ok()) << result.status();
    return ToJson(protocol.recovery_metrics()) + ToJson(protocol.metrics());
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace scec::sim
