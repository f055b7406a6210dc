// SPDX-License-Identifier: MIT
//
// Overload-chaos harness tests: default mixes pass every invariant, the
// protection layer actually engages during each surge profile, sabotage
// negatives prove the decode and shed-accounting invariants have teeth,
// episode fingerprints are bit-identical across thread-pool sizes (the
// SCEC_THREADS determinism contract), and the repro plumbing is usable.

#include "sim/overload_chaos.h"

#include <gtest/gtest.h>

#include <string>

#include "common/thread_pool.h"

namespace scec::sim {
namespace {

OverloadConfig QuickConfig(uint64_t seed = 7) {
  OverloadConfig config;
  config.seed = seed;
  config.episodes = 4;  // one episode per default mix
  return config;
}

TEST(OverloadChaos, DefaultMixesPassEveryInvariant) {
  const OverloadConfig config = QuickConfig();
  const auto summary = RunSoak(config, RunOverloadEpisode);
  EXPECT_TRUE(summary.ok());
  EXPECT_EQ(summary.episodes(), 4u);
  EXPECT_EQ(summary.passed(), 4u);
  for (const OverloadEpisode& episode : summary.detail) {
    EXPECT_TRUE(episode.ok()) << Describe(episode) << episode.failure();
    EXPECT_TRUE(episode.failure().empty()) << episode.failure();
    EXPECT_GT(episode.attempts, 0u);
    EXPECT_GT(episode.baseline_goodput, 0.0)
        << "the baseline phase must complete work: "
        << Describe(episode);
  }
}

TEST(OverloadChaos, EpisodesRotateThroughTheDefaultMixes) {
  const auto mixes = DefaultOverloadMixes();
  ASSERT_EQ(mixes.size(), 4u);
  const OverloadConfig config = QuickConfig();
  for (size_t i = 0; i < 4; ++i) {
    const OverloadEpisode episode = RunOverloadEpisode(config, i);
    EXPECT_EQ(episode.mix, mixes[i].name);
    EXPECT_EQ(episode.index, i);
  }
}

TEST(OverloadChaos, SurgesEngageTheProtectionLayer) {
  // Every default mix oversubscribes the virtual server during its surge,
  // so each episode must show the protection stack doing SOMETHING —
  // rejections or sheds, and a ladder that left kNormal at some point.
  const OverloadConfig config = QuickConfig();
  for (size_t i = 0; i < 4; ++i) {
    const OverloadEpisode episode = RunOverloadEpisode(config, i);
    ASSERT_TRUE(episode.ok()) << episode.mix << ": " << episode.failure();
    EXPECT_GT(episode.rejected + episode.shed, 0u)
        << episode.mix << " surge ran fully unprotected";
    EXPECT_GT(episode.peak_level, serve::OverloadLevel::kNormal)
        << episode.mix << " never escalated the ladder";
    EXPECT_GT(episode.ladder_transitions, 0u);
    // Rejections are itemised by typed reason and the itemisation is total.
    uint64_t by_reason = 0;
    for (size_t r = 0; r < serve::kNumRejectReasons; ++r) {
      by_reason += episode.rejected_by_reason[r];
    }
    EXPECT_EQ(by_reason, episode.rejected);
    // Mix-specific teeth: the flood must be caught by the tenant quota, and
    // the brownout must trip the breaker (and later recover from it).
    if (episode.mix == "tenant_flood") {
      EXPECT_GT(episode.rejected_by_reason[static_cast<size_t>(
                    serve::RejectReason::kQuotaExceeded)],
                0u);
    }
    if (episode.mix == "fleet_brownout") {
      EXPECT_GE(episode.breaker_opens, 1u);
      EXPECT_GT(episode.rejected_by_reason[static_cast<size_t>(
                    serve::RejectReason::kBrownout)],
                0u);
    }
  }
}

TEST(OverloadChaos, RecoveryGoodputReturnsAfterEverySurge) {
  // The no-metastability invariant, stated directly: once the surge ends,
  // goodput comes back to at least the configured floor of baseline.
  const OverloadConfig config = QuickConfig();
  for (size_t i = 0; i < 4; ++i) {
    const OverloadEpisode episode = RunOverloadEpisode(config, i);
    ASSERT_TRUE(episode.invariants.Holds("no_metastability"))
        << episode.mix << ": recovery " << episode.recovery_goodput
        << " qps vs baseline " << episode.baseline_goodput << " qps";
    EXPECT_GE(episode.recovery_goodput,
              config.goodput_floor * episode.baseline_goodput);
  }
}

TEST(OverloadChaos, TamperSabotageTripsTheDecodeInvariant) {
  const OverloadConfig config = QuickConfig();
  const OverloadEpisode episode =
      RunOverloadEpisode(config, 0, Sabotage::kTamperResult);
  EXPECT_FALSE(episode.invariants.Holds("decode"));
  EXPECT_FALSE(episode.ok());
  EXPECT_NE(episode.failure().find("decode"), std::string::npos)
      << episode.failure();
}

TEST(OverloadChaos, DropSabotageTripsTheShedAccountingInvariant) {
  const OverloadConfig config = QuickConfig();
  const OverloadEpisode episode =
      RunOverloadEpisode(config, 0, Sabotage::kDropCompletion);
  EXPECT_FALSE(episode.invariants.Holds("shed_accounting"));
  EXPECT_FALSE(episode.ok());
  EXPECT_NE(episode.failure().find("shed_accounting"), std::string::npos)
      << episode.failure();
}

TEST(OverloadChaos, EpisodesAreBitIdenticalAcrossThreadPoolSizes) {
  // The SCEC_THREADS contract: admit/shed/breaker decisions and completion
  // order depend only on (seed, index), never on how many workers execute
  // the panels. Fingerprint ties the whole completion stream down.
  ThreadPool single(1);
  ThreadPool wide(4);
  for (size_t i = 0; i < 4; ++i) {
    OverloadConfig narrow_config = QuickConfig();
    narrow_config.pool = &single;
    OverloadConfig wide_config = QuickConfig();
    wide_config.pool = &wide;
    const OverloadEpisode a = RunOverloadEpisode(narrow_config, i);
    const OverloadEpisode b = RunOverloadEpisode(wide_config, i);
    EXPECT_EQ(a.fingerprint, b.fingerprint) << "mix " << a.mix;
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.ladder_transitions, b.ladder_transitions);
    EXPECT_EQ(a.breaker_opens, b.breaker_opens);
    for (size_t r = 0; r < serve::kNumRejectReasons; ++r) {
      EXPECT_EQ(a.rejected_by_reason[r], b.rejected_by_reason[r]);
    }
  }
}

TEST(OverloadChaos, DifferentSeedsProduceDifferentEpisodes) {
  const OverloadEpisode a = RunOverloadEpisode(QuickConfig(7), 0);
  const OverloadEpisode b = RunOverloadEpisode(QuickConfig(8), 0);
  EXPECT_NE(a.seed, b.seed);
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(OverloadChaos, DescribeAndReproCommandAreUsable) {
  const OverloadConfig config = QuickConfig();
  const OverloadEpisode episode = RunOverloadEpisode(config, 2);
  const std::string described = Describe(episode);
  EXPECT_NE(described.find(episode.mix), std::string::npos);
  const std::string repro = ReproCommand("overload", config.seed, 2);
  EXPECT_NE(repro.find("--harness=overload"), std::string::npos);
  EXPECT_NE(repro.find("--seed=7"), std::string::npos);
  EXPECT_NE(repro.find("--replay=2"), std::string::npos);
  EXPECT_NE(EpisodeReport(episode, "overload", config.seed).find(repro),
            std::string::npos);
}

}  // namespace
}  // namespace scec::sim
