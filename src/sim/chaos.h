// SPDX-License-Identifier: MIT
//
// Deterministic chaos harness for the fault-tolerant SCEC runtime, on the
// shared episode skeleton of sim/episode.h.
//
// Each episode derives its problem shape, fleet, fault schedule and
// straggler/loss knobs from its episode seed, builds a fresh deployment and
// runs queries through FaultTolerantScecProtocol ("protocol" harness), or
// through a DurableCoordinator that is killed at a seeded crash point and
// restarted from its sealed snapshot + journal ("crash" harness). Both run
// one shared post-run check; the invariants are documented where they are
// checked, in chaos.cpp:
//
//   protocol  decode, security, ledger, liveness, masking, quarantine
//   crash     the six above + restart_decode, restart_security,
//             restart_ledger

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "recovery/crash.h"
#include "sim/episode.h"
#include "sim/fault_tolerant_protocol.h"
#include "sim/faults.h"

namespace scec::sim {

// One fault-mix profile: per-device probabilities of each scripted fault
// plus episode-level toggles. Probabilities are per participating device;
// scripted faults are capped so most episodes stay decodable.
struct ChaosMix {
  std::string name = "baseline";
  double crash = 0.0;
  double omission = 0.0;
  double corruption = 0.0;
  double transient = 0.0;
  double straggler = 0.0;    // P(episode runs kShiftedExponential stragglers)
  double lossy_links = 0.0;  // P(episode uses the lossy channel)
  bool hedging = false;
  bool adaptive_timeouts = false;
  // Byzantine masking: tolerance t provisions guard segments (scripted liars
  // are additionally capped at t so masked episodes stay locatable), and the
  // adversary-model knobs flow into every scripted kCorruption event.
  size_t byzantine_tolerance = 0;
  double corruption_probability = 1.0;  // < 1: intermittent liars
  bool corruption_relative = false;     // minimal-magnitude attacks
  bool corruption_equivocate = false;   // a different lie on every firing
  bool coordinated = false;  // all liars share one (element, delta)
};

// The standard soak rotation: every fault kind alone, the kitchen sink, and
// the resilience features on top of stragglers (hedging on/off A/B).
std::vector<ChaosMix> DefaultChaosMixes();

struct ChaosConfig {
  uint64_t seed = 1;    // master seed; episode i is fully determined by (seed, i)
  size_t episodes = 200;
  size_t queries_per_episode = 2;

  // Problem-shape ranges (inclusive), drawn per episode.
  size_t m_min = 4;
  size_t m_max = 12;
  size_t l_min = 4;
  size_t l_max = 12;
  size_t fleet_min = 6;
  size_t fleet_max = 12;

  // At most this many scripted faulty devices per episode (also capped at
  // participating − 2 so an episode can't be scripted straight to collapse).
  size_t max_faulty = 3;

  std::vector<ChaosMix> mixes;  // empty -> DefaultChaosMixes(); episode i
                                // uses mixes[i % mixes.size()]
  // Knobs shared by all episodes.
  double loss_probability = 0.03;
  double backoff_jitter = 0.2;  // exercises the seeded-jitter path
  FaultToleranceOptions ft;     // base options; per-mix toggles override

  // Crash-injected episodes (RunCrashEpisode) write each
  // episode's sealed snapshot + combined journal here when set, so a
  // failing episode is reproducible from its durable artifacts alone.
  // Sealed bytes only — pads never reach the disk in plaintext.
  std::string crash_artifacts_dir;
};

// One scripted fault of an episode's schedule (printable for repro).
struct ChaosScheduledFault {
  size_t device = 0;  // fleet index
  FaultKind kind = FaultKind::kCrash;
  double start_s = 0.0;
  double end_s = 0.0;   // kTransient only
  double delta = 0.0;   // kCorruption only
  // kCorruption adversary-model knobs (mirrors FaultEvent).
  double probability = 1.0;
  bool relative = false;
  bool equivocate = false;
};

struct ChaosEpisode : EpisodeRecord {
  // Derived scenario.
  std::string mix;
  size_t m = 0;
  size_t l = 0;
  size_t fleet = 0;
  bool stragglers = false;
  bool lossy = false;
  bool hedging = false;
  bool adaptive = false;
  size_t byzantine_tolerance = 0;  // requested t of the mix
  size_t byzantine_effective = 0;  // guard segments actually provisioned
  std::vector<ChaosScheduledFault> schedule;

  // Crash injection (RunCrashEpisode only; crash.point == kNone on plain
  // episodes). The spec is drawn from the episode seed AFTER the scenario,
  // so a crash episode's scenario is bit-identical to the plain episode of
  // the same (seed, index).
  recovery::CrashSpec crash;
  bool crash_fired = false;   // the injector actually killed a generation
  size_t generations = 1;     // coordinator incarnations that ran
  size_t journal_events = 0;  // parsed records of the combined journal
  size_t journal_bytes = 0;
  size_t snapshot_bytes = 0;  // sealed snapshot size
  std::string snapshot_path;  // set when ChaosConfig::crash_artifacts_dir is
  std::string journal_path;   // configured and the write succeeded

  RunMetrics run;
  FaultRecoveryMetrics recovery;
};

// Runs episode `index` of the soak described by `config`, deterministically
// (the "protocol" harness).
ChaosEpisode RunChaosEpisode(const ChaosConfig& config, size_t index,
                             Sabotage sabotage = Sabotage::kNone);

// Crash-injected episode (the "crash" harness): the SAME derived scenario as
// RunChaosEpisode(config, index), but run through a DurableCoordinator with
// a crash point drawn from the episode seed. When the injector fires, the
// coordinator is destroyed mid-flight and restarted from its sealed
// snapshot + surviving journal bytes. A drawn point that is never reached
// (e.g. kOnEvict on a fault-free episode) leaves the episode uncrashed —
// still checked.
ChaosEpisode RunCrashEpisode(const ChaosConfig& config, size_t index,
                             Sabotage sabotage = Sabotage::kNone);

// The exactly-once cost audit behind the restart_ledger invariant, exposed
// so negative tests can prove a doctored journal (duplicate result record,
// re-billed share, forged dispatch bytes) is caught. `events` is the parsed
// combined journal; episode supplies the final generation's metrics.
// Returns the first violation, or "" when the ledger balances.
std::string CheckCrashLedger(const ChaosEpisode& episode,
                             const std::vector<recovery::JournalEvent>& events,
                             double value_bytes);

// Scenario header plus one line per scripted fault (and the crash point).
std::string Describe(const ChaosEpisode& episode);

}  // namespace scec::sim
