// SPDX-License-Identifier: MIT

#include "sim/episode.h"

#include <algorithm>

#include "common/check.h"

namespace scec::sim {

uint64_t EpisodeSeed(uint64_t master, size_t index) {
  SplitMix64 mix(master ^ (0x9E3779B97F4A7C15ull * (index + 1)));
  return mix.Next();
}

size_t DrawInRange(Xoshiro256StarStar& rng, size_t lo, size_t hi) {
  SCEC_CHECK_LE(lo, hi);
  return lo + static_cast<size_t>(rng.NextBelow(hi - lo + 1));
}

Sabotage ParseSabotage(std::string_view name) {
  if (name == "tamper-result") return Sabotage::kTamperResult;
  if (name == "forge-ledger") return Sabotage::kForgeLedger;
  if (name == "drop-completion") return Sabotage::kDropCompletion;
  return Sabotage::kNone;
}

InvariantSet::InvariantSet(std::initializer_list<std::string_view> names) {
  for (std::string_view name : names) verdicts_.emplace_back(name, true);
}

void InvariantSet::Fail(std::string_view name, const std::string& detail) {
  auto it = std::find_if(verdicts_.begin(), verdicts_.end(),
                         [&](const auto& v) { return v.first == name; });
  SCEC_CHECK(it != verdicts_.end()) << "unregistered invariant " << name;
  it->second = false;
  if (failure_.empty()) failure_ = std::string(name) + ": " + detail;
}

bool InvariantSet::Holds(std::string_view name) const {
  auto it = std::find_if(verdicts_.begin(), verdicts_.end(),
                         [&](const auto& v) { return v.first == name; });
  SCEC_CHECK(it != verdicts_.end()) << "unregistered invariant " << name;
  return it->second;
}

std::string InvariantSet::Verdicts() const {
  std::string out;
  for (const auto& [name, holds] : verdicts_) {
    if (!out.empty()) out += ' ';
    out += name + (holds ? "=ok" : "=FAIL");
  }
  return out;
}

std::string QueryOutcome(const Status& status, InvariantSet* invariants) {
  switch (status.code()) {
    case ErrorCode::kOk:
      return "decoded";
    case ErrorCode::kInfeasible:
      return "infeasible";
    case ErrorCode::kInternal:
      return "internal";
    default:
      invariants->Fail("liveness", status.ToString());
      return status.ToString();
  }
}

std::string ReproCommand(std::string_view harness, uint64_t seed,
                         size_t index, size_t queries) {
  std::string cmd = "bench/chaos_soak --harness=" + std::string(harness) +
                    " --seed=" + std::to_string(seed) +
                    " --replay=" + std::to_string(index);
  if (queries > 0) cmd += " --queries=" + std::to_string(queries);
  return cmd;
}

}  // namespace scec::sim
