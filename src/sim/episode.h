// SPDX-License-Identifier: MIT
//
// The episode skeleton every chaos harness shares:
//
//   seed → scenario → run → invariant set → repro
//
// A soak runs episodes 0..N−1 of one master seed. Episode i draws every
// random choice from EpisodeSeed(master, i), so (master, i) alone replays
// it. The harness derives its scenario, runs it, and records a named verdict
// per invariant in the episode's InvariantSet. A failing episode is reported
// as its Describe() text, its first failure and the one-command
// ReproCommand(). Sabotage breaks one invariant input after the run, on
// copies only, so tests can prove that a harness can fail.
//
// The harnesses are sim/chaos.h (protocol, crash), sim/overload_chaos.h
// (overload) and net/net_chaos.h (net); `bench/chaos_soak --harness=…`
// drives each. A harness supplies its config (the fault source), its
// scenario derivation, its domain checks and a Describe(episode) overload
// found by argument-dependent lookup.

#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace scec::sim {

// The seed of episode `index` of the soak with master seed `master`. Every
// printed repro command depends on this derivation; a golden test pins it.
uint64_t EpisodeSeed(uint64_t master, size_t index);

// Uniform draw from the inclusive range [lo, hi].
size_t DrawInRange(Xoshiro256StarStar& rng, size_t lo, size_t hi);

// Deliberately corrupts one invariant input AFTER the episode ran, on
// copies; the system under test is untouched.
enum class Sabotage {
  kNone,
  kTamperResult,    // flip one decoded value   -> decode must trip
  kForgeLedger,     // inflate a billed count   -> ledger must trip
  kDropCompletion,  // hide one completion      -> shed_accounting must trip
};

// Parses a CLI name (tamper-result | forge-ledger | drop-completion); any
// other name is kNone.
Sabotage ParseSabotage(std::string_view name);

// Named per-invariant verdicts of one episode, in registration order. All
// hold until Fail() is called; the first failure of the episode is kept.
class InvariantSet {
 public:
  explicit InvariantSet(std::initializer_list<std::string_view> names = {});

  // Marks `name` (which must be registered) violated. The first violation
  // of the episode becomes failure() as "<name>: <detail>".
  void Fail(std::string_view name, const std::string& detail);

  bool Holds(std::string_view name) const;
  bool AllHold() const { return failure_.empty(); }
  const std::string& failure() const { return failure_; }

  // One line, e.g. "decode=ok security=FAIL ledger=ok".
  std::string Verdicts() const;

 private:
  std::vector<std::pair<std::string, bool>> verdicts_;
  std::string failure_;
};

// Maps a query's status onto the episode outcome. "decoded" (success),
// "infeasible" (the fleet collapsed below k = 2) and "internal" (the
// recovery budget is spent) are explicit, legitimate endings. Any other
// status is an unexpected termination mode: it fails "liveness" and the
// status text is returned as the outcome.
std::string QueryOutcome(const Status& status, InvariantSet* invariants);

// What every harness's episode carries.
struct EpisodeRecord {
  size_t index = 0;
  uint64_t seed = 0;    // EpisodeSeed(master, index)
  std::string outcome;  // QueryOutcome() of the last query; "" if none
  InvariantSet invariants;

  bool ok() const { return invariants.AllHold(); }
  const std::string& failure() const { return invariants.failure(); }
};

template <typename Episode>
struct SoakSummary {
  std::vector<Episode> detail;  // every episode, in order
  std::vector<size_t> failing;  // indices into `detail`

  size_t episodes() const { return detail.size(); }
  size_t passed() const { return detail.size() - failing.size(); }
  size_t Count(std::string_view outcome) const {
    size_t n = 0;
    for (const Episode& episode : detail) n += episode.outcome == outcome;
    return n;
  }
  // Zero episodes must not read as a pass.
  bool ok() const { return failing.empty() && !detail.empty(); }
};

// Runs episodes 0..config.episodes−1 unsabotaged. Every episode executes;
// failing ones are collected for repro, never skipped.
template <typename Config, typename Episode>
SoakSummary<Episode> RunSoak(const Config& config,
                             Episode (*run_one)(const Config&, size_t,
                                                Sabotage)) {
  SoakSummary<Episode> summary;
  summary.detail.reserve(config.episodes);
  for (size_t i = 0; i < config.episodes; ++i) {
    summary.detail.push_back(run_one(config, i, Sabotage::kNone));
    if (!summary.detail.back().ok()) summary.failing.push_back(i);
  }
  return summary;
}

// The one-command repro of episode `index` of a `harness` soak. `queries`
// is the soak's --queries override, 0 when it ran the harness default.
std::string ReproCommand(std::string_view harness, uint64_t seed,
                         size_t index, size_t queries = 0);

// One episode's report: Describe(episode), its outcome and verdicts, its
// first failure (if any) and its repro command.
template <typename Episode>
std::string EpisodeReport(const Episode& episode, std::string_view harness,
                          uint64_t seed, size_t queries = 0) {
  std::string out = Describe(episode) + "  ";
  if (!episode.outcome.empty()) out += "outcome=" + episode.outcome + " ";
  out += episode.invariants.Verdicts() + "\n";
  if (!episode.ok()) out += "  failure: " + episode.failure() + "\n";
  out += "  repro: " + ReproCommand(harness, seed, episode.index, queries) +
         "\n";
  return out;
}

}  // namespace scec::sim
