// SPDX-License-Identifier: MIT

#include "sim/reliable.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.h"
#include "workload/distributions.h"

namespace scec::sim {
namespace {

struct Rig {
  EventQueue queue;
  Network network{&queue};
  Rig() {
    network.AddLink(0, 1, LinkSpec{0.001, 1e6});
    network.AddLink(1, 0, LinkSpec{0.001, 1e6});
  }
};

TEST(ReliableChannel, LossFreeDeliversOnceNoRetransmissions) {
  Rig rig;
  ReliableChannel channel(&rig.queue, &rig.network, 0.0, 1);
  int delivered = 0;
  channel.Send(0, 1, 100, [&] { ++delivered; });
  rig.queue.RunUntilEmpty();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(channel.stats().deliveries, 1u);
  EXPECT_EQ(channel.stats().retransmissions, 0u);
  EXPECT_EQ(channel.stats().failures, 0u);
}

TEST(ReliableChannel, HeavyLossStillDeliversEventually) {
  Rig rig;
  ReliableChannel channel(&rig.queue, &rig.network, 0.5, 2);
  int delivered = 0;
  for (int msg = 0; msg < 50; ++msg) {
    channel.Send(0, 1, 100, [&] { ++delivered; },
                 /*on_failure=*/nullptr, /*timeout_s=*/0.05,
                 /*max_retries=*/40);
  }
  rig.queue.RunUntilEmpty();
  EXPECT_EQ(delivered, 50);
  EXPECT_GT(channel.stats().retransmissions, 0u);
  EXPECT_GT(channel.stats().data_drops, 0u);
  EXPECT_EQ(channel.stats().failures, 0u);
}

TEST(ReliableChannel, ExactlyOnceDespiteAckLoss) {
  // With 40% loss, many acks die, forcing duplicate data deliveries that
  // the receiver must suppress.
  Rig rig;
  ReliableChannel channel(&rig.queue, &rig.network, 0.4, 3);
  int delivered = 0;
  for (int msg = 0; msg < 100; ++msg) {
    channel.Send(0, 1, 50, [&] { ++delivered; },
                 /*on_failure=*/nullptr, 0.05, 60);
  }
  rig.queue.RunUntilEmpty();
  EXPECT_EQ(delivered, 100) << "exactly-once application delivery";
  EXPECT_GT(channel.stats().duplicates_suppressed +
                channel.stats().ack_drops,
            0u);
}

TEST(ReliableChannel, ReportsFailureAfterRetryBudget) {
  Rig rig;
  // 90%+ loss with 2 retries: some transfers must fail.
  ReliableChannel channel(&rig.queue, &rig.network, 0.95, 4);
  int delivered = 0, failed = 0;
  for (int msg = 0; msg < 40; ++msg) {
    channel.Send(0, 1, 50, [&] { ++delivered; }, [&] { ++failed; },
                 /*timeout_s=*/0.02, /*max_retries=*/2);
  }
  rig.queue.RunUntilEmpty();
  EXPECT_GT(failed, 0);
  EXPECT_EQ(static_cast<size_t>(failed), channel.stats().failures);
  EXPECT_EQ(static_cast<uint64_t>(delivered), channel.stats().deliveries);
}

TEST(ReliableChannel, DedupSetStaysBounded) {
  // Regression: delivered_ used to retain every sequence ever delivered, so
  // long simulations grew the set without bound. Entries must be pruned once
  // the transfer settles and no copy is still in flight.
  Rig rig;
  ReliableChannel channel(&rig.queue, &rig.network, 0.4, 17);
  int delivered = 0;
  for (int msg = 0; msg < 200; ++msg) {
    channel.Send(0, 1, 50, [&] { ++delivered; },
                 /*on_failure=*/nullptr, 0.05, 60);
  }
  rig.queue.RunUntilEmpty();
  EXPECT_EQ(delivered, 200);
  EXPECT_EQ(channel.dedup_entries(), 0u)
      << "every settled transfer must be pruned from the dedup set";
}

TEST(ReliableChannel, ZeroRetriesAttemptsOnceThenFails) {
  // max_retries counts RETRANSMISSIONS: 0 still means one initial attempt,
  // and exhausting the budget must invoke on_failure, not hang.
  Rig rig;
  ReliableChannel channel(&rig.queue, &rig.network, 1.0, 6);
  int delivered = 0, failed = 0;
  channel.Send(0, 1, 50, [&] { ++delivered; }, [&] { ++failed; },
               /*timeout_s=*/0.02, /*max_retries=*/0);
  rig.queue.RunUntilEmpty();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(channel.stats().data_sends, 1u) << "exactly one wire attempt";
  EXPECT_EQ(channel.stats().retransmissions, 0u);
  EXPECT_EQ(channel.stats().failures, 1u);
}

TEST(ReliableChannel, TotalLossTerminatesWithFailure) {
  // loss_probability = 1.0 can never deliver; every Send must still
  // terminate via on_failure after its retry budget instead of spinning.
  Rig rig;
  ReliableChannel channel(&rig.queue, &rig.network, 1.0, 7);
  int delivered = 0, failed = 0;
  for (int msg = 0; msg < 5; ++msg) {
    channel.Send(0, 1, 50, [&] { ++delivered; }, [&] { ++failed; },
                 /*timeout_s=*/0.01, /*max_retries=*/3);
  }
  rig.queue.RunUntilEmpty();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(failed, 5);
  EXPECT_EQ(channel.stats().failures, 5u);
  EXPECT_EQ(channel.stats().data_sends, 5u * 4u)
      << "1 initial attempt + 3 retransmissions per send";
  EXPECT_EQ(channel.dedup_entries(), 0u);
}

TEST(ReliableChannel, LossSlowsDeliveryDown) {
  Rig clean_rig, lossy_rig;
  ReliableChannel clean(&clean_rig.queue, &clean_rig.network, 0.0, 5);
  ReliableChannel lossy(&lossy_rig.queue, &lossy_rig.network, 0.6, 5);
  double clean_done = -1.0, lossy_done = -1.0;
  clean.Send(0, 1, 100, [&] { clean_done = clean_rig.queue.now(); });
  lossy.Send(0, 1, 100, [&] { lossy_done = lossy_rig.queue.now(); },
             nullptr, 0.05, 60);
  clean_rig.queue.RunUntilEmpty();
  lossy_rig.queue.RunUntilEmpty();
  ASSERT_GE(clean_done, 0.0);
  ASSERT_GE(lossy_done, 0.0);
  EXPECT_GE(lossy_done, clean_done);
}

TEST(ReliableChannel, ZeroJitterReproducesLegacyScheduleBitForBit) {
  // ISSUE 10 satellite S1: retransmission jitter defaults OFF, and 0 must
  // reproduce the pre-jitter schedule exactly — same delivery times, same
  // drop pattern — so every existing seeded experiment replays unchanged.
  Rig legacy_rig, jitter_rig;
  ReliableChannel legacy(&legacy_rig.queue, &legacy_rig.network, 0.4, 9);
  ReliableChannel zero(&jitter_rig.queue, &jitter_rig.network, 0.4, 9,
                       /*retransmit_jitter=*/0.0,
                       /*retransmit_jitter_seed=*/12345);  // seed irrelevant
  std::vector<double> legacy_times, zero_times;
  for (int msg = 0; msg < 30; ++msg) {
    legacy.Send(0, 1, 100,
                [&] { legacy_times.push_back(legacy_rig.queue.now()); },
                nullptr, 0.05, 60);
    zero.Send(0, 1, 100,
              [&] { zero_times.push_back(jitter_rig.queue.now()); },
              nullptr, 0.05, 60);
  }
  legacy_rig.queue.RunUntilEmpty();
  jitter_rig.queue.RunUntilEmpty();
  EXPECT_EQ(legacy_times, zero_times);
  EXPECT_EQ(legacy.stats().data_drops, zero.stats().data_drops);
  EXPECT_EQ(legacy.stats().retransmissions, zero.stats().retransmissions);
}

TEST(ReliableChannel, JitterChangesTimingButNotLossPattern) {
  // The jitter PRNG is independent of the loss PRNG: for a single transfer
  // (whose loss draws are strictly sequential) enabling jitter must change
  // retransmit TIMING while leaving which packets drop untouched.
  Rig plain_rig, jittered_rig;
  ReliableChannel plain(&plain_rig.queue, &plain_rig.network, 0.7, 13);
  ReliableChannel jittered(&jittered_rig.queue, &jittered_rig.network, 0.7,
                           13, /*retransmit_jitter=*/0.35,
                           /*retransmit_jitter_seed=*/77);
  double plain_done = -1.0, jittered_done = -1.0;
  plain.Send(0, 1, 100, [&] { plain_done = plain_rig.queue.now(); },
             nullptr, 0.05, 60);
  jittered.Send(0, 1, 100, [&] { jittered_done = jittered_rig.queue.now(); },
                nullptr, 0.05, 60);
  plain_rig.queue.RunUntilEmpty();
  jittered_rig.queue.RunUntilEmpty();
  ASSERT_GE(plain_done, 0.0);
  ASSERT_GE(jittered_done, 0.0);
  ASSERT_GT(plain.stats().retransmissions, 0u)
      << "seed must force at least one retransmission for timing to differ";
  EXPECT_EQ(plain.stats().data_drops, jittered.stats().data_drops);
  EXPECT_EQ(plain.stats().data_sends, jittered.stats().data_sends);
  EXPECT_NE(plain_done, jittered_done);
}

TEST(ReliableChannel, JitteredRetransmissionsStayExactlyOnce) {
  Rig rig;
  ReliableChannel channel(&rig.queue, &rig.network, 0.5, 8,
                          /*retransmit_jitter=*/0.3,
                          /*retransmit_jitter_seed=*/99);
  int delivered = 0;
  for (int msg = 0; msg < 50; ++msg) {
    channel.Send(0, 1, 100, [&] { ++delivered; },
                 /*on_failure=*/nullptr, 0.05, 60);
  }
  rig.queue.RunUntilEmpty();
  EXPECT_EQ(delivered, 50);
  EXPECT_EQ(channel.stats().failures, 0u);
  EXPECT_GT(channel.stats().retransmissions, 0u);
  EXPECT_EQ(channel.dedup_entries(), 0u);
}

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

TEST(ReliableChannel, SimulateScecDecodesOverLossyLinks) {
  const McscecProblem problem = MakeProblem(16, 5, 8, 10);
  ChaCha20Rng coding_rng(100);
  Xoshiro256StarStar drng(101);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l, drng);

  SimOptions lossy;
  lossy.loss_probability = 0.3;
  lossy.retransmit_timeout_s = 0.02;
  lossy.max_retries = 50;
  const auto result = SimulateScec(problem, a, x, coding_rng, lossy);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->metrics.decoded_correctly)
      << "loss delays but never corrupts the decode";
}

TEST(ReliableChannel, LossyRunIsSlowerThanCleanRun) {
  const McscecProblem problem = MakeProblem(16, 5, 8, 11);
  Xoshiro256StarStar drng(111);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l, drng);

  ChaCha20Rng rng_a(200);
  const auto clean = SimulateScec(problem, a, x, rng_a);
  ASSERT_TRUE(clean.ok());

  ChaCha20Rng rng_b(200);
  SimOptions lossy;
  lossy.loss_probability = 0.5;
  lossy.retransmit_timeout_s = 0.02;
  lossy.max_retries = 60;
  const auto slow = SimulateScec(problem, a, x, rng_b, lossy);
  ASSERT_TRUE(slow.ok());
  EXPECT_GT(slow->metrics.query_completion_time +
                slow->metrics.staging_completion_time,
            clean->metrics.query_completion_time +
                clean->metrics.staging_completion_time);
}

}  // namespace
}  // namespace scec::sim
