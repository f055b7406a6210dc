// SPDX-License-Identifier: MIT
//
// Socket-level chaos harness tests: the four chaos invariants (exact decode,
// cumulative ITS security, ledger reconciliation, liveness) must hold over a
// REAL loopback cluster under seeded fault schedules — the networked replay
// of the deterministic sim/chaos.h discipline — and the sabotage hooks prove
// the decode and ledger invariants can fail.

#include "net/net_chaos.h"

#include <gtest/gtest.h>

namespace scec::net {
namespace {

using sim::Sabotage;

NetChaosConfig SmallConfig() {
  NetChaosConfig config;
  config.seed = 7;
  config.num_devices = 5;
  config.m = 12;
  config.l = 8;
  config.queries = 3;
  config.max_drop_prob = 0.10;
  return config;
}

// No drops, partitions, kills, liars or silent devices: every query decodes.
NetChaosConfig BenignConfig() {
  NetChaosConfig config = SmallConfig();
  config.max_drop_prob = 0.0;
  config.enable_partition = false;
  config.enable_kill = false;
  config.enable_byzantine = false;
  config.enable_silent = false;
  return config;
}

TEST(NetChaos, BenignEpisodeDecodesWithoutEvictions) {
  const NetChaosConfig config = BenignConfig();
  NetChaosEpisode episode = RunNetChaosEpisode(config, 0);
  EXPECT_TRUE(episode.ok()) << Describe(episode) << episode.failure();
  EXPECT_EQ(episode.queries_answered, config.queries);
  EXPECT_EQ(episode.driver_stats.evictions, 0u);
  EXPECT_EQ(episode.driver_stats.byzantine_flagged, 0u);
}

TEST(NetChaos, FaultedEpisodesHoldAllInvariants) {
  NetChaosConfig config = SmallConfig();
  for (size_t index = 0; index < 2; ++index) {
    NetChaosEpisode episode = RunNetChaosEpisode(config, index);
    EXPECT_TRUE(episode.ok())
        << sim::EpisodeReport(episode, "net", config.seed, config.queries);
    EXPECT_TRUE(episode.invariants.Holds("security"));
    EXPECT_TRUE(episode.invariants.Holds("ledger"));
  }
}

TEST(NetChaos, SoakAggregatesAndReportsFirstFailure) {
  NetChaosConfig config = SmallConfig();
  config.seed = 21;
  config.episodes = 1;
  const auto summary = sim::RunSoak(config, RunNetChaosEpisode);
  EXPECT_EQ(summary.episodes(), 1u);
  EXPECT_TRUE(summary.ok());
  for (size_t index : summary.failing) {
    ADD_FAILURE() << sim::EpisodeReport(summary.detail[index], "net",
                                        config.seed, config.queries);
  }
}

TEST(NetChaos, ScheduleAndReproAreDescribable) {
  NetChaosConfig config = SmallConfig();
  NetChaosEpisode episode = RunNetChaosEpisode(config, 1);
  EXPECT_EQ(episode.seed, sim::EpisodeSeed(config.seed, 1));
  const std::string description = Describe(episode);
  EXPECT_NE(description.find("seed"), std::string::npos) << description;
  const std::string repro =
      sim::ReproCommand("net", config.seed, 1, config.queries);
  EXPECT_NE(repro.find("--harness=net"), std::string::npos) << repro;
  EXPECT_NE(repro.find("--seed=7"), std::string::npos) << repro;
  EXPECT_NE(repro.find("--queries=3"), std::string::npos) << repro;
}

TEST(NetChaos, TamperSabotageTripsTheDecodeInvariant) {
  const NetChaosConfig config = BenignConfig();
  const NetChaosEpisode episode =
      RunNetChaosEpisode(config, 0, Sabotage::kTamperResult);
  ASSERT_GT(episode.queries_answered, 0u) << Describe(episode);
  EXPECT_FALSE(episode.ok());
  EXPECT_FALSE(episode.invariants.Holds("decode"));
  EXPECT_NE(episode.failure().find("decode"), std::string::npos)
      << episode.failure();
}

TEST(NetChaos, ForgedLedgerTripsTheLedgerInvariant) {
  const NetChaosConfig config = BenignConfig();
  const NetChaosEpisode episode =
      RunNetChaosEpisode(config, 0, Sabotage::kForgeLedger);
  EXPECT_FALSE(episode.ok());
  EXPECT_FALSE(episode.invariants.Holds("ledger"));
  EXPECT_TRUE(episode.invariants.Holds("decode"))
      << "sabotage is surgical: only the ledger is forged";
  EXPECT_NE(episode.failure().find("ledger"), std::string::npos)
      << episode.failure();
}

}  // namespace
}  // namespace scec::net
