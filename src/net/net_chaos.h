// SPDX-License-Identifier: MIT
//
// Socket-level chaos harness (the "net" harness of sim/episode.h): the
// in-sim chaos discipline replayed over REAL sockets. Each episode derives
// its whole fault schedule from its episode seed, then builds a live
// loopback cluster —
//
//   N scecd daemons  ←  N chaos proxies  ←  SocketTransport  ←  NetCoordinator
//
// — runs queries through it under loss / delay / reorder / partition /
// mid-message kill / Byzantine / silent-device faults, and checks decode,
// security, ledger and liveness (documented where net_chaos.cpp checks
// them). Sabotage (kTamperResult, kForgeLedger) corrupts a copy of the
// first answer or of the ledger tallies; the cluster itself is untouched.
//
// Unlike the simulator, wall-clock scheduling here is nondeterministic — the
// *schedule* is replayable from the seed, the exact interleaving is not; the
// invariants are written to hold under every interleaving.

#pragma once

#include <cstdint>
#include <string>

#include "net/driver.h"
#include "net/transport.h"
#include "sim/episode.h"

namespace scec::net {

struct NetChaosConfig {
  uint64_t seed = 1;
  size_t episodes = 8;
  size_t num_devices = 5;
  size_t m = 12;
  size_t l = 8;
  size_t queries = 4;

  // Fault intensity ceilings; per-episode values are drawn below them.
  double max_drop_prob = 0.12;
  bool enable_partition = true;
  bool enable_kill = true;
  bool enable_byzantine = true;
  bool enable_silent = true;

  double episode_wall_cap_s = 60.0;  // liveness backstop
};

// The schedule derived from (seed, index); SIZE_MAX device slots = fault off.
struct NetChaosSchedule {
  double drop_prob = 0.0;
  double delay_prob = 0.0;
  double delay_s = 0.0;
  double reorder_prob = 0.0;
  size_t byzantine_device = SIZE_MAX;
  size_t silent_device = SIZE_MAX;
  size_t partition_device = SIZE_MAX;
  size_t partition_query = SIZE_MAX;
  double partition_heal_s = 0.0;
  size_t kill_device = SIZE_MAX;
  uint64_t kill_after_frames = 0;
};

struct NetChaosEpisode : sim::EpisodeRecord {
  NetChaosSchedule schedule;
  NetCoordinatorStats driver_stats;
  NetTransportStats transport_stats;
  size_t queries_answered = 0;
  double wall_s = 0.0;
};

NetChaosEpisode RunNetChaosEpisode(const NetChaosConfig& config, size_t index,
                                   sim::Sabotage sabotage =
                                       sim::Sabotage::kNone);

// One line: episode identity and its fault schedule.
std::string Describe(const NetChaosEpisode& episode);

}  // namespace scec::net
