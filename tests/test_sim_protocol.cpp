// SPDX-License-Identifier: MIT

// SimulateScec / SimulateDeployment and FaultTolerantScecProtocol's
// fault-free paths: the paper's plain protocol (§II-D), single and streamed
// queries, checked against the golden records of the engine it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <span>
#include <string>

#include "scec_protocol_golden.h"
#include "sim/fault_tolerant_protocol.h"
#include "sim/faults.h"
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

TEST(SimProtocol, DecodesCorrectly) {
  const McscecProblem problem = MakeProblem(24, 8, 10, 1);
  ChaCha20Rng coding_rng(10);
  Xoshiro256StarStar drng(11);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l, drng);
  const auto result = SimulateScec(problem, a, x, coding_rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->metrics.decoded_correctly);
  const auto expected = MatVec(a, std::span<const double>(x));
  EXPECT_LT(MaxAbsDiff(std::span<const double>(result->decoded),
                       std::span<const double>(expected)),
            1e-9);
}

TEST(SimProtocol, AccountingMatchesEquationOne) {
  // The simulator's per-device counters must reproduce Eq. (1)'s units:
  // storage l + (l+1)V, multiplications V·l, additions V·(l−1), sent V.
  const McscecProblem problem = MakeProblem(30, 6, 8, 2);
  ChaCha20Rng coding_rng(20);
  Xoshiro256StarStar drng(21);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l, drng);
  const auto result = SimulateScec(problem, a, x, coding_rng);
  ASSERT_TRUE(result.ok());

  const uint64_t l = problem.l;
  uint64_t total_rows = 0;
  for (const DeviceMetrics& device : result->metrics.devices) {
    const uint64_t v = device.coded_rows;
    EXPECT_GE(v, 1u);
    EXPECT_EQ(device.stored_values, l + (l + 1) * v);
    EXPECT_EQ(device.multiplications, v * l);
    EXPECT_EQ(device.additions, v * (l - 1));
    EXPECT_EQ(device.values_sent, v);
    total_rows += v;
  }
  // Total coded rows must be m + r.
  EXPECT_GT(total_rows, problem.m);
  // Decode is exactly m subtractions (§IV-B).
  EXPECT_EQ(result->metrics.decode_subtractions, problem.m);
}

TEST(SimProtocol, CompletionTimeIsPositiveAndBounded) {
  const McscecProblem problem = MakeProblem(16, 4, 6, 3);
  ChaCha20Rng coding_rng(30);
  Xoshiro256StarStar drng(31);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l, drng);
  const auto result = SimulateScec(problem, a, x, coding_rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->metrics.staging_completion_time, 0.0);
  EXPECT_GT(result->metrics.query_completion_time, 0.0);
  EXPECT_LT(result->metrics.query_completion_time, 10.0)
      << "sanity ceiling for these link rates";
}

TEST(SimProtocol, StragglersOnlySlowThingsDown) {
  const McscecProblem problem = MakeProblem(16, 4, 6, 4);
  Xoshiro256StarStar drng(41);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l, drng);

  ChaCha20Rng rng_a(50);
  SimOptions fast;
  const auto base = SimulateScec(problem, a, x, rng_a, fast);
  ASSERT_TRUE(base.ok());

  ChaCha20Rng rng_b(50);
  SimOptions slow;
  slow.straggler.kind = StragglerKind::kExponentialSlowdown;
  slow.straggler.rate = 0.5;  // heavy stragglers
  const auto straggly = SimulateScec(problem, a, x, rng_b, slow);
  ASSERT_TRUE(straggly.ok());

  EXPECT_TRUE(straggly->metrics.decoded_correctly)
      << "stragglers delay but never corrupt";
  EXPECT_GE(straggly->metrics.query_completion_time,
            base->metrics.query_completion_time);
}

TEST(SimProtocol, BytesMatchValueCounts) {
  const McscecProblem problem = MakeProblem(20, 5, 7, 5);
  ChaCha20Rng coding_rng(60);
  Xoshiro256StarStar drng(61);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l, drng);
  const auto result = SimulateScec(problem, a, x, coding_rng);
  ASSERT_TRUE(result.ok());
  const auto& metrics = result->metrics;
  // Response bytes = (m + r) values * 8 bytes.
  EXPECT_EQ(metrics.query_downlink_bytes, metrics.TotalValuesSent() * 8);
  // Broadcast bytes = one x per participating device.
  EXPECT_EQ(metrics.query_uplink_bytes,
            metrics.devices.size() * problem.l * 8);
  // Staging moved every coded value exactly once.
  uint64_t share_values = 0;
  for (const auto& device : metrics.devices) {
    share_values += device.coded_rows * problem.l;
  }
  EXPECT_EQ(metrics.staging_bytes, share_values * 8);
}

TEST(SimProtocol, LowerLevelApiRunsAgainstExistingDeployment) {
  const McscecProblem problem = MakeProblem(10, 3, 5, 6);
  ChaCha20Rng coding_rng(70);
  Xoshiro256StarStar drng(71);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok());
  const auto x = RandomVector<double>(problem.l, drng);
  const auto result =
      SimulateDeployment(*deployment, problem.fleet.devices(), a, x);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->metrics.decoded_correctly);
}

TEST(SimProtocol, MismatchedFleetOrSharesIsInvalidArgument) {
  const McscecProblem problem = MakeProblem(10, 3, 5, 6);
  ChaCha20Rng coding_rng(70);
  Xoshiro256StarStar drng(71);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok());
  const auto x = RandomVector<double>(problem.l, drng);

  // A fleet that stops short of the highest participating fleet index.
  size_t highest = 0;
  for (size_t idx : deployment->plan.participating) {
    highest = std::max(highest, idx);
  }
  std::vector<EdgeDevice> short_fleet = problem.fleet.devices();
  short_fleet.resize(highest);
  const auto uncovered = SimulateDeployment(*deployment, short_fleet, a, x);
  ASSERT_FALSE(uncovered.ok());
  EXPECT_EQ(uncovered.status().code(), ErrorCode::kInvalidArgument);

  // One share per participating device is required.
  Deployment<double> missing_share = *deployment;
  missing_share.shares.pop_back();
  const auto short_shares =
      SimulateDeployment(missing_share, problem.fleet.devices(), a, x);
  ASSERT_FALSE(short_shares.ok());
  EXPECT_EQ(short_shares.status().code(), ErrorCode::kInvalidArgument);

  // The data matrix must be the one the deployment encodes.
  const auto wrong_a = RandomMatrix<double>(problem.m + 1, problem.l, drng);
  const auto bad_matrix =
      SimulateDeployment(*deployment, problem.fleet.devices(), wrong_a, x);
  ASSERT_FALSE(bad_matrix.ok());
  EXPECT_EQ(bad_matrix.status().code(), ErrorCode::kInvalidArgument);
}

TEST(SimProtocol, SingleCoreDeviceSerialisesConcurrentQueries) {
  // Two queries arriving back-to-back at one device must finish at least
  // one compute-duration apart (the device is single-core).
  const McscecProblem problem = MakeProblem(16, 64, 4, 12);
  ChaCha20Rng coding_rng(120);
  Xoshiro256StarStar drng(121);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok());
  std::vector<std::vector<double>> xs = {
      RandomVector<double>(problem.l, drng),
      RandomVector<double>(problem.l, drng)};

  FaultTolerantScecProtocol protocol(&*deployment, &a,
                                     problem.fleet.devices(), {});
  protocol.Stage();
  const auto stream = protocol.RunQueryStream(xs);
  ASSERT_TRUE(stream.ok()) << stream.status();
  // The slowest device's compute time per query:
  double max_compute = 0.0;
  for (size_t d = 0; d < deployment->plan.participating.size(); ++d) {
    const double v =
        static_cast<double>(deployment->plan.scheme.row_counts[d]);
    const double flops = v * (2.0 * problem.l - 1.0);
    const EdgeDevice& spec = problem.fleet[deployment->plan.participating[d]];
    max_compute = std::max(max_compute, flops / spec.compute_rate_flops);
  }
  EXPECT_GE(stream->completion_times[1] - stream->completion_times[0],
            max_compute * 0.5)
      << "second query must queue behind the first somewhere";
}

TEST(SimProtocol, StreamedQueriesDecodeLikeSequentialOnes) {
  const McscecProblem problem = MakeProblem(14, 5, 6, 10);
  ChaCha20Rng coding_rng(100);
  Xoshiro256StarStar drng(101);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok());

  std::vector<std::vector<double>> xs;
  for (int q = 0; q < 6; ++q) {
    xs.push_back(RandomVector<double>(problem.l, drng));
  }

  FaultTolerantScecProtocol protocol(&*deployment, &a,
                                     problem.fleet.devices(), {});
  protocol.Stage();
  const auto stream = protocol.RunQueryStream(xs);
  ASSERT_TRUE(stream.ok()) << stream.status();
  ASSERT_EQ(stream->decoded.size(), xs.size());
  for (size_t q = 0; q < xs.size(); ++q) {
    const auto expected = MatVec(a, std::span<const double>(xs[q]));
    EXPECT_LT(MaxAbsDiff(std::span<const double>(stream->decoded[q]),
                         std::span<const double>(expected)),
              1e-9)
        << "query " << q;
  }
  // Completion times are per-query and ordered (FIFO service).
  for (size_t q = 1; q < xs.size(); ++q) {
    EXPECT_GE(stream->completion_times[q],
              stream->completion_times[q - 1] - 1e-12);
  }
  EXPECT_GE(stream->makespan, stream->completion_times.back() - 1e-12);
  // Every response is digest-checked and billed like a single query's.
  EXPECT_EQ(protocol.recovery_metrics().corrupt_responses, 0u);
  EXPECT_EQ(protocol.metrics().decode_subtractions, xs.size() * problem.m);
  EXPECT_EQ(protocol.metrics().query_downlink_bytes,
            protocol.metrics().TotalValuesSent() * 8);
}

TEST(SimProtocol, StreamReportsSilentAndLyingDevicesAsTypedErrors) {
  const McscecProblem problem = MakeProblem(14, 5, 6, 10);
  ChaCha20Rng coding_rng(100);
  Xoshiro256StarStar drng(101);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok());
  const std::vector<std::vector<double>> xs = {
      RandomVector<double>(problem.l, drng),
      RandomVector<double>(problem.l, drng)};
  const size_t victim = deployment->plan.participating.front();

  // A crashed device answers none of the streamed queries.
  FaultSchedule faults;
  faults.AddCrash(victim, 0.0);
  SimOptions silent;
  silent.faults = &faults;
  FaultTolerantScecProtocol crashed(&*deployment, &a,
                                    problem.fleet.devices(), silent);
  crashed.Stage();
  const auto unanswered = crashed.RunQueryStream(xs);
  ASSERT_FALSE(unanswered.ok());
  EXPECT_EQ(unanswered.status().code(), ErrorCode::kUnavailable);

  // A lying device's responses fail their Freivalds digest.
  SimOptions lying;
  lying.byzantine_nodes = {victim};
  FaultTolerantScecProtocol liar(&*deployment, &a, problem.fleet.devices(),
                                 lying);
  liar.Stage();
  const auto forged = liar.RunQueryStream(xs);
  ASSERT_FALSE(forged.ok());
  EXPECT_EQ(forged.status().code(), ErrorCode::kDecodeFailure);
  EXPECT_EQ(liar.recovery_metrics().corrupt_responses, 1u);
}

TEST(SimProtocol, PipeliningBeatsSequentialMakespan) {
  const McscecProblem problem = MakeProblem(20, 8, 7, 11);
  ChaCha20Rng coding_rng(110);
  Xoshiro256StarStar drng(111);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok());
  std::vector<std::vector<double>> xs;
  for (int q = 0; q < 10; ++q) {
    xs.push_back(RandomVector<double>(problem.l, drng));
  }

  // Sequential: each query goes out when the previous one completes, on a
  // fresh protocol so both arms start from identical state.
  FaultTolerantScecProtocol sequential(&*deployment, &a,
                                       problem.fleet.devices(), {});
  sequential.Stage();
  double sequential_total = 0.0;
  for (const auto& x : xs) {
    ASSERT_TRUE(sequential.RunQuery(x).ok());
    sequential_total += sequential.metrics().query_completion_time;
  }

  FaultTolerantScecProtocol pipelined(&*deployment, &a,
                                      problem.fleet.devices(), {});
  pipelined.Stage();
  const auto stream = pipelined.RunQueryStream(xs);
  ASSERT_TRUE(stream.ok()) << stream.status();
  EXPECT_LT(stream->makespan, sequential_total)
      << "overlapping transfer+compute must beat stop-and-wait";
}

TEST(StragglerModel, ShiftedExponentialRespectsShiftAndCap) {
  StragglerModel model;
  model.kind = StragglerKind::kShiftedExponential;
  model.rate = 0.5;
  model.shift = 1.0;
  model.multiplier_cap = 3.0;
  Xoshiro256StarStar rng(90);
  for (int i = 0; i < 2000; ++i) {
    const double slowed = model.Apply(2.0, rng);
    EXPECT_GE(slowed, 2.0 * model.shift) << "shift is the floor";
    EXPECT_LE(slowed, 2.0 * model.multiplier_cap) << "cap is the ceiling";
  }
  // Same seed, cap removed: the heavy tail must actually exceed the cap
  // sometimes (otherwise the cap tests nothing).
  StragglerModel uncapped = model;
  uncapped.multiplier_cap = 0.0;
  Xoshiro256StarStar rng2(90);
  bool exceeded = false;
  for (int i = 0; i < 2000; ++i) {
    exceeded |= uncapped.Apply(2.0, rng2) > 2.0 * model.multiplier_cap;
  }
  EXPECT_TRUE(exceeded);
}

TEST(StragglerModel, ExistingKindsStayBitIdentical) {
  // kNone consumes no randomness at all, and kExponentialSlowdown draws
  // exactly one exponential — seeded runs from before kShiftedExponential
  // existed must replay unchanged.
  StragglerModel none;
  Xoshiro256StarStar rng_a(91);
  Xoshiro256StarStar rng_b(91);
  EXPECT_DOUBLE_EQ(none.Apply(1.5, rng_a), 1.5);
  EXPECT_EQ(rng_a.NextUint64(), rng_b.NextUint64())
      << "kNone must leave the RNG stream untouched";

  StragglerModel slowdown;
  slowdown.kind = StragglerKind::kExponentialSlowdown;
  slowdown.rate = 2.0;
  Xoshiro256StarStar rng_c(92);
  Xoshiro256StarStar rng_d(92);
  EXPECT_DOUBLE_EQ(slowdown.Apply(1.5, rng_c),
                   1.5 * (1.0 + rng_d.NextExponential(2.0)));
}

TEST(SimProtocol, WrongQueryWidthIsError) {
  const McscecProblem problem = MakeProblem(10, 3, 5, 7);
  ChaCha20Rng coding_rng(80);
  Xoshiro256StarStar drng(81);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l + 1, drng);  // too wide
  const auto result = SimulateScec(problem, a, x, coding_rng);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
}

// --- Golden records of the replaced plain engine ------------------------

void ExpectSameTime(double actual, double golden, const std::string& what) {
  EXPECT_NEAR(actual, golden, 1e-12 * std::fabs(golden)) << what;
}

void ExpectBitIdentical(std::span<const double> actual,
                        std::span<const double> golden) {
  ASSERT_EQ(actual.size(), golden.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(actual[i]),
              std::bit_cast<uint64_t>(golden[i]))
        << "value " << i << ": " << actual[i] << " vs " << golden[i];
  }
}

// Byte and operation counters exactly, sim times to 1e-12 relative.
void ExpectRun(const RunMetrics& run, const golden::RunRecord& golden) {
  ExpectSameTime(run.staging_completion_time, golden.staging_completion_time,
                 "staging_completion_time");
  ExpectSameTime(run.query_completion_time, golden.query_completion_time,
                 "query_completion_time");
  EXPECT_EQ(run.staging_bytes, golden.staging_bytes);
  EXPECT_EQ(run.query_uplink_bytes, golden.query_uplink_bytes);
  EXPECT_EQ(run.query_downlink_bytes, golden.query_downlink_bytes);
  EXPECT_EQ(run.decode_subtractions, golden.decode_subtractions);
}

// Per-device Eq. (1) counters and compute time; the absolute response time
// only for a protocol that ran a single query (after more, the new engine's
// queries start later: it drains deadline timers between them).
void ExpectDevices(const std::vector<DeviceMetrics>& devices,
                   std::span<const golden::DeviceRecord> golden,
                   bool response_time) {
  ASSERT_EQ(devices.size(), golden.size());
  for (size_t d = 0; d < devices.size(); ++d) {
    SCOPED_TRACE("device " + std::to_string(d));
    EXPECT_EQ(devices[d].coded_rows, golden[d].coded_rows);
    EXPECT_EQ(devices[d].stored_values, golden[d].stored_values);
    EXPECT_EQ(devices[d].multiplications, golden[d].multiplications);
    EXPECT_EQ(devices[d].additions, golden[d].additions);
    EXPECT_EQ(devices[d].values_sent, golden[d].values_sent);
    ExpectSameTime(devices[d].compute_seconds, golden[d].compute_seconds,
                   "compute_seconds");
    if (response_time) {
      ExpectSameTime(devices[d].response_time, golden[d].response_time,
                     "response_time");
    }
  }
}

TEST(SimProtocolGolden, SimulateScecFaultFree) {
  const McscecProblem problem = MakeProblem(24, 8, 10, 1);
  ChaCha20Rng coding_rng(10);
  Xoshiro256StarStar drng(11);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l, drng);
  const auto result = SimulateScec(problem, a, x, coding_rng);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(result->decoded, golden::kSimulateCleanDecoded);
  ExpectRun(result->metrics, golden::kSimulateCleanRun);
  ExpectDevices(result->metrics.devices, golden::kSimulateCleanDevices,
                /*response_time=*/true);
}

TEST(SimProtocolGolden, SimulateScecWithExponentialStragglers) {
  // Compute-bound fleet, so the slowdown draws move the arrivals.
  McscecProblem problem = MakeProblem(24, 64, 10, 2);
  for (size_t j = 0; j < problem.fleet.size(); ++j) {
    problem.fleet[j].compute_rate_flops =
        1e6 * (1.0 + 0.1 * static_cast<double>(j));
  }
  ChaCha20Rng coding_rng(20);
  Xoshiro256StarStar drng(21);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l, drng);
  SimOptions straggly;
  straggly.straggler.kind = StragglerKind::kExponentialSlowdown;
  straggly.straggler.rate = 0.5;
  const auto result = SimulateScec(problem, a, x, coding_rng, straggly);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(result->decoded, golden::kSimulateStragglyDecoded);
  ExpectRun(result->metrics, golden::kSimulateStragglyRun);
  ExpectDevices(result->metrics.devices, golden::kSimulateStragglyDevices,
                /*response_time=*/true);
}

class SimProtocolGoldenStream : public ::testing::Test {
 protected:
  void SetUp() override {
    problem_ = MakeProblem(14, 5, 6, 10);
    ChaCha20Rng coding_rng(100);
    Xoshiro256StarStar drng(101);
    a_ = RandomMatrix<double>(problem_.m, problem_.l, drng);
    auto deployment = Deploy(problem_, a_, coding_rng);
    ASSERT_TRUE(deployment.ok()) << deployment.status();
    deployment_ = *std::move(deployment);
    for (int q = 0; q < 16; ++q) {
      xs_.push_back(RandomVector<double>(problem_.l, drng));
    }
  }

  void ExpectStream(size_t depth, std::span<const double> completion_times,
                    double makespan, const golden::RunRecord& run) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    const std::vector<std::vector<double>> xs(xs_.begin(),
                                              xs_.begin() + depth);
    FaultTolerantScecProtocol protocol(&deployment_, &a_,
                                       problem_.fleet.devices(), {});
    protocol.Stage();
    const auto stream = protocol.RunQueryStream(xs);
    ASSERT_TRUE(stream.ok()) << stream.status();
    ASSERT_EQ(stream->decoded.size(), depth);
    for (size_t q = 0; q < depth; ++q) {
      ExpectBitIdentical(stream->decoded[q],
                         std::span(golden::kStreamDecoded)
                             .subspan(q * problem_.m, problem_.m));
    }
    ASSERT_EQ(stream->completion_times.size(), completion_times.size());
    for (size_t q = 0; q < depth; ++q) {
      ExpectSameTime(stream->completion_times[q], completion_times[q],
                     "completion time of query " + std::to_string(q));
    }
    ExpectSameTime(stream->makespan, makespan, "makespan");
    const RunMetrics& metrics = protocol.metrics();
    ExpectSameTime(metrics.staging_completion_time,
                   run.staging_completion_time, "staging_completion_time");
    EXPECT_EQ(metrics.staging_bytes, run.staging_bytes);
    EXPECT_EQ(metrics.query_uplink_bytes, run.query_uplink_bytes);
    // The replaced engine's stream mode did not count responses or decode
    // work; these are depth x one query's (kSequentialRun holds 4).
    EXPECT_EQ(metrics.query_downlink_bytes,
              depth * golden::kSequentialRun.query_downlink_bytes / 4);
    EXPECT_EQ(metrics.decode_subtractions,
              depth * golden::kSequentialRun.decode_subtractions / 4);
  }

  McscecProblem problem_;
  Matrix<double> a_;
  Deployment<double> deployment_;
  std::vector<std::vector<double>> xs_;
};

TEST_F(SimProtocolGoldenStream, RunQueryStreamAtSeveralDepths) {
  ExpectStream(1, golden::kStream1CompletionTimes, golden::kStream1Makespan,
               golden::kStream1Run);
  ExpectStream(4, golden::kStream4CompletionTimes, golden::kStream4Makespan,
               golden::kStream4Run);
  ExpectStream(16, golden::kStream16CompletionTimes,
               golden::kStream16Makespan, golden::kStream16Run);
}

TEST_F(SimProtocolGoldenStream, SequentialQueries) {
  FaultTolerantScecProtocol protocol(&deployment_, &a_,
                                     problem_.fleet.devices(), {});
  protocol.Stage();
  for (size_t q = 0; q < std::size(golden::kSequentialCompletionTimes); ++q) {
    const auto decoded = protocol.RunQuery(xs_[q]);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ExpectBitIdentical(*decoded, std::span(golden::kStreamDecoded)
                                     .subspan(q * problem_.m, problem_.m));
    ExpectSameTime(protocol.metrics().query_completion_time,
                   golden::kSequentialCompletionTimes[q],
                   "completion time of query " + std::to_string(q));
  }
  ExpectRun(protocol.metrics(), golden::kSequentialRun);
  ExpectDevices(protocol.metrics().devices, golden::kSequentialDevices,
                /*response_time=*/false);
}

}  // namespace
}  // namespace scec::sim
