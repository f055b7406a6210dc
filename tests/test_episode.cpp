// SPDX-License-Identifier: MIT
//
// The shared episode skeleton (sim/episode.h): the seed derivation is pinned
// to golden values, so an edit cannot silently re-derive every soak and
// break every repro command ever printed; the invariant set keeps the first
// failure and reports every verdict; statuses map onto explicit outcomes.

#include "sim/episode.h"

#include <gtest/gtest.h>

#include <string>

namespace scec::sim {
namespace {

TEST(ChaosEpisode, SeedDerivationIsPinned) {
  // Expected values computed with the SplitMix64 derivation every protocol
  // and crash soak has used since the first chaos harness.
  struct Golden {
    uint64_t master;
    size_t index;
    uint64_t seed;
  };
  const Golden golden[] = {
      {1, 0, 0xE99FF867DBF682C9ull},
      {1, 1, 0xF893A2EEFB32555Eull},
      {1, 199, 0x21B71D1F381AB62Eull},
      {7, 3, 0xB4A0472E578069AEull},
      {20190707, 42, 0xBA8BF17ED32BD8B7ull},
      {0xFFFFFFFFFFFFFFFFull, 5, 0x4D02A7925CA1F8EAull},
  };
  for (const Golden& g : golden) {
    EXPECT_EQ(EpisodeSeed(g.master, g.index), g.seed)
        << "master " << g.master << " index " << g.index;
  }
}

TEST(ChaosEpisode, DrawInRangeCoversTheInclusiveRange) {
  Xoshiro256StarStar rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 200; ++i) {
    const size_t v = DrawInRange(rng, 4, 6);
    ASSERT_GE(v, 4u);
    ASSERT_LE(v, 6u);
    saw_lo |= v == 4;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(DrawInRange(rng, 9, 9), 9u);
}

TEST(ChaosEpisode, InvariantSetKeepsTheFirstFailure) {
  InvariantSet invariants({"decode", "security", "ledger"});
  EXPECT_TRUE(invariants.AllHold());
  EXPECT_EQ(invariants.Verdicts(), "decode=ok security=ok ledger=ok");

  invariants.Fail("ledger", "uplink bytes off");
  invariants.Fail("decode", "query 0 off by 1");
  invariants.Fail("ledger", "downlink bytes off");
  EXPECT_FALSE(invariants.AllHold());
  EXPECT_EQ(invariants.failure(), "ledger: uplink bytes off");
  EXPECT_FALSE(invariants.Holds("decode"));
  EXPECT_TRUE(invariants.Holds("security"));
  EXPECT_FALSE(invariants.Holds("ledger"));
  EXPECT_EQ(invariants.Verdicts(), "decode=FAIL security=ok ledger=FAIL");
}

TEST(ChaosEpisode, QueryOutcomeFailsLivenessOnUnexpectedStatus) {
  InvariantSet invariants({"liveness"});
  EXPECT_EQ(QueryOutcome(Status::Ok(), &invariants), "decoded");
  EXPECT_EQ(QueryOutcome(Status(ErrorCode::kInfeasible, "k < 2"),
                         &invariants),
            "infeasible");
  EXPECT_EQ(QueryOutcome(Status(ErrorCode::kInternal, "budget"), &invariants),
            "internal");
  EXPECT_TRUE(invariants.AllHold());

  const Status odd(ErrorCode::kOutOfRange, "bad index");
  EXPECT_EQ(QueryOutcome(odd, &invariants), odd.ToString());
  EXPECT_EQ(invariants.failure(), "liveness: " + odd.ToString());
}

TEST(ChaosEpisode, SabotageNamesParse) {
  EXPECT_EQ(ParseSabotage("tamper-result"), Sabotage::kTamperResult);
  EXPECT_EQ(ParseSabotage("forge-ledger"), Sabotage::kForgeLedger);
  EXPECT_EQ(ParseSabotage("drop-completion"), Sabotage::kDropCompletion);
  EXPECT_EQ(ParseSabotage("flip-a-coin"), Sabotage::kNone);
}

TEST(ChaosEpisode, ReproCommandNamesHarnessSeedAndIndex) {
  EXPECT_EQ(ReproCommand("crash", 7, 3),
            "bench/chaos_soak --harness=crash --seed=7 --replay=3");
  EXPECT_EQ(ReproCommand("net", 1, 0, 3),
            "bench/chaos_soak --harness=net --seed=1 --replay=0 --queries=3");
}

}  // namespace
}  // namespace scec::sim
