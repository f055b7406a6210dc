// SPDX-License-Identifier: MIT

#include "sim/chaos.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "linalg/matrix_ops.h"
#include "recovery/coordinator.h"
#include "workload/device_profiles.h"

namespace scec::sim {
namespace {

std::string Num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// Cross-checks the protocol's two independent ledgers (byte counters of
// RunMetrics vs dispatch/response tallies of FaultRecoveryMetrics, plus the
// per-device Eq. (1) identity). Returns the first mismatch, or "".
std::string CheckLedger(const ChaosEpisode& episode, double value_bytes) {
  const RunMetrics& run = episode.run;
  const FaultRecoveryMetrics& rec = episode.recovery;
  const uint64_t x_bytes = static_cast<uint64_t>(
      static_cast<double>(episode.l) * value_bytes);
  if (run.query_uplink_bytes != rec.queries_dispatched * x_bytes) {
    return "uplink bytes " + std::to_string(run.query_uplink_bytes) +
           " != dispatches " + std::to_string(rec.queries_dispatched) +
           " x " + std::to_string(x_bytes);
  }
  const uint64_t expected_down = static_cast<uint64_t>(
      static_cast<double>(rec.response_values_received) * value_bytes);
  if (run.query_downlink_bytes != expected_down) {
    return "downlink bytes " + std::to_string(run.query_downlink_bytes) +
           " != response values " +
           std::to_string(rec.response_values_received) + " x value_bytes";
  }
  const uint64_t l = episode.l;
  for (const DeviceMetrics& dev : run.devices) {
    // Per response of V rows: V·l mults and V·(l−1) adds, so
    // mults·(l−1) == adds·l for any number of (possibly dropped) responses.
    if (dev.multiplications * (l - 1) != dev.additions * l) {
      return "device " + dev.name + " Eq.(1) op identity broken (" +
             std::to_string(dev.multiplications) + " mults vs " +
             std::to_string(dev.additions) + " adds)";
    }
  }
  // Staged bytes == delivered coded rows × l × value_bytes. A hedge staging
  // aborted by a lossy link counts bytes for shares that never arrived, so
  // the exact correspondence only holds without aborts.
  if (rec.hedge_staging_aborts == 0) {
    uint64_t coded_rows = 0;
    for (const DeviceMetrics& dev : run.devices) coded_rows += dev.coded_rows;
    const uint64_t expected_staging = static_cast<uint64_t>(
        static_cast<double>(coded_rows * l) * value_bytes);
    if (run.staging_bytes != expected_staging) {
      return "staging bytes " + std::to_string(run.staging_bytes) +
             " != delivered coded rows " + std::to_string(coded_rows) +
             " x l x value_bytes";
    }
  }
  return "";
}

// Everything an episode's protocol run needs, derived once from the episode
// seed. Plain and crash-injected episodes share this derivation VERBATIM so
// RunCrashEpisode(config, i) exercises the bit-identical scenario of
// RunChaosEpisode(config, i). Filled in place (never moved): options.faults
// points at this object's own schedule.
struct ChaosScenario {
  ChaosMix mix;
  McscecProblem problem;
  Matrix<double> a;
  std::vector<double> x;
  std::vector<double> expected;
  // The episode's tenant session (core/pipeline.h): owns the deployment;
  // plain and crash episodes build their protocol / coordinator from it.
  std::optional<DeploymentSession<double>> session;
  FaultSchedule faults;
  SimOptions options;
  FaultToleranceOptions ft;
};

// A fresh episode `index` of `config`: identity plus the invariants the
// harness registers (the crash harness adds the three restart invariants).
ChaosEpisode NewEpisode(const ChaosConfig& config, size_t index, bool crash) {
  ChaosEpisode episode;
  episode.index = index;
  episode.seed = EpisodeSeed(config.seed, index);
  episode.invariants =
      crash ? InvariantSet({"decode", "security", "ledger", "liveness",
                            "masking", "quarantine", "restart_decode",
                            "restart_security", "restart_ledger"})
            : InvariantSet({"decode", "security", "ledger", "liveness",
                            "masking", "quarantine"});
  return episode;
}

// Draws the scenario of `episode` from `rng` (seeded with the episode seed)
// and fills its scenario fields. Returns false when deployment fails — the
// episode is then complete (liveness violated) and must be returned as-is.
// The RNG draw order below is load-bearing: it must match the historical
// RunChaosEpisode exactly, or every soak seed changes.
bool DeriveScenario(const ChaosConfig& config, Xoshiro256StarStar& rng,
                    ChaosEpisode* episode, ChaosScenario* scenario) {
  const std::vector<ChaosMix> mixes =
      config.mixes.empty() ? DefaultChaosMixes() : config.mixes;
  scenario->mix = mixes[episode->index % mixes.size()];
  const ChaosMix& mix = scenario->mix;
  episode->mix = mix.name;
  episode->m = DrawInRange(rng, config.m_min, config.m_max);
  episode->l = DrawInRange(rng, config.l_min, config.l_max);
  episode->fleet = DrawInRange(rng, config.fleet_min, config.fleet_max);
  episode->stragglers = rng.NextDouble() < mix.straggler;
  episode->lossy = rng.NextDouble() < mix.lossy_links;
  episode->hedging = mix.hedging;
  episode->adaptive = mix.adaptive_timeouts;
  episode->byzantine_tolerance = mix.byzantine_tolerance;

  McscecProblem& problem = scenario->problem;
  problem.m = episode->m;
  problem.l = episode->l;
  problem.fleet = MakeCampusFleet(episode->fleet, rng);
  scenario->a = RandomMatrix<double>(problem.m, problem.l, rng);
  scenario->x = RandomVector<double>(problem.l, rng);
  scenario->expected =
      MatVec(scenario->a, std::span<const double>(scenario->x));

  ChaCha20Rng coding_rng(episode->seed ^ 0xC0D1A6ull);
  // Session Open with default options draws the exact rng stream of the
  // free Deploy() call it replaced, so every historical soak seed still
  // derives the bit-identical deployment.
  auto session =
      DeploymentSession<double>::Open(problem, scenario->a, coding_rng);
  if (!session.ok()) {
    episode->outcome = session.status().ToString();
    episode->invariants.Fail("liveness",
                             "deployment failed: " + episode->outcome);
    return false;
  }
  scenario->session.emplace(std::move(session).value());
  const std::vector<size_t>& participating =
      scenario->session->plan().participating;

  // Scripted fault schedule over participating devices, capped so the
  // script alone cannot push the fleet below k = 2. Byzantine mixes cap
  // liars at t as well, so masked episodes stay within the locator's budget.
  size_t cap = std::min(
      config.max_faulty,
      participating.size() > 2 ? participating.size() - 2 : size_t{0});
  if (mix.byzantine_tolerance > 0) {
    cap = std::min(cap, mix.byzantine_tolerance);
  }
  std::vector<size_t> candidates = participating;
  for (size_t i = candidates.size(); i > 1; --i) {  // seeded Fisher–Yates
    std::swap(candidates[i - 1], candidates[rng.NextBelow(i)]);
  }
  const double fault_weight =
      mix.crash + mix.omission + mix.corruption + mix.transient;
  FaultSchedule& faults = scenario->faults;
  faults.SetSeed(episode->seed ^ 0xB42Dull);
  double coordinated_delta = 0.0;
  bool coordinated_drawn = false;
  for (size_t i = 0; i < candidates.size() && episode->schedule.size() < cap;
       ++i) {
    if (rng.NextDouble() >= fault_weight) continue;
    double pick = rng.NextDouble() * fault_weight;
    ChaosScheduledFault fault;
    fault.device = candidates[i];
    if ((pick -= mix.crash) < 0.0) {
      fault.kind = FaultKind::kCrash;
      fault.start_s = rng.NextDouble(0.0, 0.02);
      faults.AddCrash(fault.device, fault.start_s);
    } else if ((pick -= mix.omission) < 0.0) {
      fault.kind = FaultKind::kOmission;
      fault.start_s = rng.NextDouble(0.0, 0.01);
      faults.AddOmission(fault.device, fault.start_s);
    } else if ((pick -= mix.corruption) < 0.0) {
      fault.kind = FaultKind::kCorruption;
      fault.start_s = 0.0;
      if (mix.coordinated) {
        // Coordinated ≤ t-subset attack: every liar injects the SAME
        // (element, delta), so their corruptions corroborate each other.
        if (!coordinated_drawn) {
          coordinated_delta = (rng.NextDouble() < 0.5 ? 1.0 : -1.0) *
                              rng.NextDouble(0.5, 2.0);
          coordinated_drawn = true;
        }
        fault.delta = coordinated_delta;
      } else if (mix.corruption_relative) {
        // Minimal-magnitude attack: deltas near the decode tolerance,
        // scaled by the element's own magnitude at firing time.
        fault.delta = (rng.NextDouble() < 0.5 ? 1.0 : -1.0) *
                      rng.NextDouble(1e-5, 1e-3);
      } else {
        fault.delta = (rng.NextDouble() < 0.5 ? 1.0 : -1.0) *
                      rng.NextDouble(0.5, 2.0);
      }
      fault.probability = mix.corruption_probability;
      fault.relative = mix.corruption_relative;
      fault.equivocate = mix.corruption_equivocate;
      if (fault.probability < 1.0 || fault.relative || fault.equivocate) {
        FaultEvent event;
        event.kind = FaultKind::kCorruption;
        event.start_s = fault.start_s;
        event.element = 0;
        event.delta = fault.delta;
        event.probability = fault.probability;
        event.relative = fault.relative;
        event.equivocate = fault.equivocate;
        faults.Add(fault.device, event);
      } else {
        faults.AddCorruption(fault.device, fault.start_s, 0, fault.delta);
      }
    } else {
      fault.kind = FaultKind::kTransient;
      fault.start_s = rng.NextDouble(0.0, 0.01);
      fault.end_s = fault.start_s + rng.NextDouble(0.02, 0.1);
      faults.AddTransient(fault.device, fault.start_s, fault.end_s);
    }
    episode->schedule.push_back(fault);
  }

  SimOptions& options = scenario->options;
  options.straggler_seed = episode->seed ^ 0x57A661ull;
  if (episode->stragglers) {
    options.straggler.kind = StragglerKind::kShiftedExponential;
    options.straggler.rate = rng.NextDouble(0.5, 4.0);
    options.straggler.shift = 1.0;
    options.straggler.multiplier_cap = 25.0;  // bounded tail: no stalls
  }
  if (episode->lossy) {
    options.loss_probability = config.loss_probability;
    options.loss_seed = episode->seed ^ 0x105Eull;
  }

  FaultToleranceOptions& ft = scenario->ft;
  ft = config.ft;
  ft.hedging = mix.hedging;
  ft.adaptive_timeouts = mix.adaptive_timeouts;
  ft.backoff_jitter = config.backoff_jitter;
  ft.jitter_seed = episode->seed ^ 0x317732ull;
  ft.verifier_seed = episode->seed ^ 0xF4E1A7D5ull;
  ft.repair_pad_seed = episode->seed ^ 0x9D2C5680ull;
  ft.hedge_pad_seed = episode->seed ^ 0xA409382229F31D0Cull;
  ft.byzantine_tolerance = mix.byzantine_tolerance;
  ft.guard_pad_seed = episode->seed ^ 0x6A09E667ull;

  // Last: the schedule pointer must target THIS scenario object, which the
  // caller keeps alive for the whole episode.
  options.faults = &scenario->faults;
  return true;
}

// masking and quarantine (byzantine mixes only: guard segments, locator
// decode and reputation):
//   masking    — with guards provisioned and <= t always-lying scripted
//                liars, every query decodes with ZERO recovery re-plans
//                (and, for digest-visible liars, is counted masked);
//   quarantine — every always-lying, digest-visible scripted liar ends the
//                episode quarantined by the reputation tracker.
// Gated on always-lying liars (probability 1) on an episode whose schedule
// is PURE corruption — any other fault kind legitimately forces recovery
// rounds. Minimal-magnitude (relative) lies may slip the digest (caught by
// the locator's value check instead), so the flag-dependent halves are
// skipped for them.
void CheckByzantineInvariants(const ChaosMix& mix,
                              FaultTolerantScecProtocol& protocol,
                              bool final_gen_ran_queries,
                              ChaosEpisode* episode) {
  size_t liars = 0;
  bool pure_corruption = true;
  for (const ChaosScheduledFault& fault : episode->schedule) {
    if (fault.kind == FaultKind::kCorruption) {
      ++liars;
    } else {
      pure_corruption = false;
    }
  }
  const bool always_lying = mix.corruption_probability >= 1.0;
  const bool digest_visible = !mix.corruption_relative;
  if (!pure_corruption || !always_lying || episode->byzantine_effective < 1) {
    return;
  }
  InvariantSet& invariants = episode->invariants;
  if (episode->recovery.recovery_rounds != 0) {
    invariants.Fail("masking",
                    std::to_string(episode->recovery.recovery_rounds) +
                        " recovery rounds despite guards covering the liars");
  }
  // A crash episode whose final incarnation answered every query from the
  // journal legitimately counts zero masked queries.
  if (digest_visible && liars > 0 && final_gen_ran_queries &&
      episode->recovery.byzantine_masked_queries == 0) {
    invariants.Fail("masking", "no query was counted masked despite " +
                                   std::to_string(liars) + " scripted liars");
  }
  if (!digest_visible) return;
  for (const ChaosScheduledFault& fault : episode->schedule) {
    if (protocol.reputation().standing(fault.device) !=
        DeviceStanding::kQuarantined) {
      invariants.Fail("quarantine", "scripted liar " +
                                        std::to_string(fault.device) +
                                        " was never quarantined");
      break;
    }
  }
}

// The post-run check plain and crash episodes share. `answered[q]` is query
// q's decoded answer (nullopt when it was never answered);
// `final_gen_ran_queries` is false only on crash episodes whose final
// incarnation answered every query from the journal.
void CheckRun(const ChaosScenario& scenario,
              FaultTolerantScecProtocol& protocol,
              const std::vector<std::optional<std::vector<double>>>& answered,
              bool final_gen_ran_queries, Sabotage sabotage,
              ChaosEpisode* episode) {
  InvariantSet& invariants = episode->invariants;
  // decode: every answered query equals the ground truth A·x (within float
  // round-off of the MatVec) — across a kill/restart too, whether the
  // answer came from the live run, the journal or the resumed query.
  for (size_t q = 0; q < answered.size(); ++q) {
    if (!answered[q].has_value()) continue;
    std::vector<double> decoded = *answered[q];
    if (sabotage == Sabotage::kTamperResult && q == 0 && !decoded.empty()) {
      decoded[0] += 1.0;
    }
    const double err =
        MaxAbsDiff(std::span<const double>(decoded),
                   std::span<const double>(scenario.expected));
    if (!(err < 1e-9)) {
      invariants.Fail("decode",
                      "query " + std::to_string(q) + " off by " + Num(err));
      break;
    }
  }

  // security: every device's cumulative view stays Def. 2 ITS-secure after
  // all recovery rounds and hedges (exact GF(2^61−1) ranks), checked
  // outside the protocol's own asserts. After a restart the view spans this
  // generation's segments AND every restored prior-generation pad column,
  // so a replayed pad stream drops the rank here (restart_security).
  if (!protocol.VerifyCumulativeSecurity().all_secure) {
    if (episode->crash_fired) {
      const std::string detail =
          "cumulative view rank dropped across the restart";
      invariants.Fail("security", detail);
      invariants.Fail("restart_security", detail);
    } else {
      invariants.Fail("security", "cumulative view rank dropped");
    }
  }

  episode->run = protocol.metrics();
  episode->recovery = protocol.recovery_metrics();
  if (sabotage == Sabotage::kForgeLedger) {
    episode->run.query_downlink_bytes += 7;
  }

  if (scenario.mix.byzantine_tolerance > 0 && episode->outcome == "decoded") {
    CheckByzantineInvariants(scenario.mix, protocol, final_gen_ran_queries,
                             episode);
  }
  // ledger: the protocol's independent tallies agree (see CheckLedger).
  // A crash generation that only served journaled answers has no
  // per-device roll-up to balance.
  if (final_gen_ran_queries) {
    const std::string ledger =
        CheckLedger(*episode, scenario.options.value_bytes);
    if (!ledger.empty()) invariants.Fail("ledger", ledger);
  }
}

// Crash spec of a crash-injected episode, drawn AFTER the scenario so the
// scenario itself stays bit-identical to the plain episode. Dispatch- and
// response-pinned crashes strike within the first few shares; query-pinned
// points pick a uniformly random query of the episode.
recovery::CrashSpec DrawCrashSpec(Xoshiro256StarStar& rng,
                                  size_t queries_per_episode) {
  using recovery::CrashPoint;
  static constexpr CrashPoint kPoints[] = {
      CrashPoint::kAfterStage,         CrashPoint::kOnQueryBegin,
      CrashPoint::kOnDispatch,         CrashPoint::kOnDispatch,
      CrashPoint::kOnResponse,         CrashPoint::kOnResponse,
      CrashPoint::kOnSegmentAdded,     CrashPoint::kOnEvict,
      CrashPoint::kBeforeResultCommit, CrashPoint::kAfterResultCommit,
  };
  recovery::CrashSpec spec;
  spec.point = kPoints[rng.NextBelow(sizeof(kPoints) / sizeof(kPoints[0]))];
  const uint64_t queries =
      queries_per_episode > 0 ? queries_per_episode : uint64_t{1};
  switch (spec.point) {
    case CrashPoint::kOnDispatch:
    case CrashPoint::kOnResponse:
      spec.occurrence = 1 + rng.NextBelow(3);
      break;
    case CrashPoint::kOnQueryBegin:
    case CrashPoint::kBeforeResultCommit:
    case CrashPoint::kAfterResultCommit:
      spec.occurrence = 1 + rng.NextBelow(queries);
      break;
    default:
      spec.occurrence = 1;
      break;
  }
  spec.lose_tail = rng.NextDouble() < 0.4;
  return spec;
}

}  // namespace

std::vector<ChaosMix> DefaultChaosMixes() {
  return {
      {.name = "crash", .crash = 0.5},
      {.name = "omission", .omission = 0.5},
      {.name = "corruption", .corruption = 0.5},
      {.name = "transient", .transient = 0.6},
      {.name = "lossy", .crash = 0.25, .transient = 0.3, .lossy_links = 1.0},
      {.name = "stragglers", .straggler = 1.0},
      {.name = "hedged-stragglers",
       .straggler = 1.0,
       .hedging = true,
       .adaptive_timeouts = true},
      {.name = "kitchen-sink",
       .crash = 0.2,
       .omission = 0.2,
       .corruption = 0.2,
       .transient = 0.2,
       .straggler = 0.5,
       .lossy_links = 0.3,
       .hedging = true,
       .adaptive_timeouts = true},
      // Byzantine mixes: guard segments + locator decode + reputation.
      {.name = "byzantine-masked",
       .corruption = 0.9,
       .byzantine_tolerance = 2},
      {.name = "byzantine-intermittent",
       .corruption = 0.8,
       .byzantine_tolerance = 2,
       .corruption_probability = 0.5},
      {.name = "byzantine-minimal",
       .corruption = 0.9,
       .byzantine_tolerance = 2,
       .corruption_relative = true},
      {.name = "byzantine-equivocate",
       .corruption = 0.9,
       .byzantine_tolerance = 2,
       .corruption_equivocate = true},
      {.name = "byzantine-coordinated",
       .corruption = 1.0,
       .byzantine_tolerance = 2,
       .coordinated = true},
  };
}

ChaosEpisode RunChaosEpisode(const ChaosConfig& config, size_t index,
                             Sabotage sabotage) {
  ChaosEpisode episode = NewEpisode(config, index, /*crash=*/false);
  Xoshiro256StarStar rng(episode.seed);
  ChaosScenario scenario;
  if (!DeriveScenario(config, rng, &episode, &scenario)) return episode;

  FaultTolerantScecProtocol protocol(&*scenario.session, &scenario.a,
                                     scenario.problem.fleet.devices(),
                                     scenario.options, scenario.ft);
  protocol.Stage();
  episode.byzantine_effective = protocol.byzantine_tolerance_effective();

  // liveness: the protocol terminates every query with an explicit outcome.
  // Hangs are impossible by construction (the event queue drains), so this
  // catches status-code regressions.
  std::vector<std::optional<std::vector<double>>> answered(
      config.queries_per_episode);
  episode.outcome = "decoded";
  for (size_t q = 0; q < config.queries_per_episode; ++q) {
    auto result = protocol.RunQuery(scenario.x);
    episode.outcome = QueryOutcome(result.status(), &episode.invariants);
    if (!result.ok()) break;
    answered[q] = std::move(result).value();
  }
  CheckRun(scenario, protocol, answered, /*final_gen_ran_queries=*/true,
           sabotage, &episode);
  return episode;
}

ChaosEpisode RunCrashEpisode(const ChaosConfig& config, size_t index,
                             Sabotage sabotage) {
  ChaosEpisode episode = NewEpisode(config, index, /*crash=*/true);
  Xoshiro256StarStar rng(episode.seed);
  ChaosScenario scenario;
  if (!DeriveScenario(config, rng, &episode, &scenario)) return episode;
  // Drawn AFTER the scenario: the rng prefix above matches the plain
  // episode of the same (seed, index) draw for draw.
  episode.crash = DrawCrashSpec(rng, config.queries_per_episode);

  // One injector shared by every incarnation: it fires at most once per
  // episode, so the restarted coordinator survives re-reaching the point.
  recovery::CrashInjector injector(episode.crash);
  recovery::DurableCoordinatorOptions copts;
  copts.sealing_key = SplitMix64(episode.seed ^ 0x5EA1EDull).Next();
  copts.seal_salt = episode.seed ^ 0x5A17ull;
  copts.sim = scenario.options;
  copts.ft = scenario.ft;
  copts.crash_probe = [&injector](const recovery::JournalEvent& event) {
    return injector.Decide(event);
  };

  std::string snapshot;
  std::ostringstream journal_gen0;  // gen-0 durable bytes: survive the kill
  std::ostringstream journal_gen1;  // the restarted incarnation appends here

  const size_t total_queries = config.queries_per_episode;
  std::vector<std::optional<std::vector<double>>> answered(total_queries);
  size_t final_gen_queries = 0;  // queries the FINAL incarnation actually ran
  std::unique_ptr<recovery::DurableCoordinator> coordinator;
  episode.outcome = "decoded";

  // Records one query result; returns false on a terminal status.
  auto record = [&](size_t q, Result<std::vector<double>> result) -> bool {
    episode.outcome = QueryOutcome(result.status(), &episode.invariants);
    if (!result.ok()) return false;
    ++final_gen_queries;
    if (q < total_queries) answered[q] = std::move(result).value();
    return true;
  };
  auto run_queries = [&](size_t first) {
    for (size_t q = first; q < total_queries; ++q) {
      if (!record(q, coordinator->Query(scenario.x))) break;
    }
  };

  try {
    auto started = recovery::DurableCoordinator::Start(
        scenario.session->deployment(), &scenario.a,
        scenario.problem.fleet.devices(), &snapshot, &journal_gen0, copts);
    if (!started.ok()) {
      episode.outcome = started.status().ToString();
      episode.invariants.Fail("liveness", "start failed: " + episode.outcome);
      return episode;
    }
    coordinator = std::move(started).value();
    run_queries(0);
  } catch (const recovery::CoordinatorCrash&) {
    // The kill. Everything the dead incarnation buffered is gone; only
    // `snapshot` and the bytes already committed to journal_gen0 survive.
  }
  episode.crash_fired = injector.fired();

  // restart_decode: every query decodes exactly once to A·x across the
  // kill/restart, whether the answer came from the live run, the journal
  // (result committed pre-crash) or the resumed in-flight query.
  if (episode.crash_fired) {
    episode.generations = 2;
    // Destroy the dead coordinator BEFORE restarting: its event queue still
    // holds callbacks into protocol state, and nothing may run them now.
    coordinator.reset();
    episode.outcome = "decoded";
    final_gen_queries = 0;
    auto restarted = recovery::DurableCoordinator::Restart(
        snapshot, journal_gen0.str(), &scenario.a,
        scenario.problem.fleet.devices(), &journal_gen1, copts);
    if (!restarted.ok()) {
      episode.outcome = restarted.status().ToString();
      episode.invariants.Fail("restart_decode",
                              "restart failed: " + episode.outcome);
      return episode;
    }
    coordinator = std::move(restarted).value();

    // Adopt every journaled result: the journal owns those answers now, and
    // the restarted coordinator must never re-run them. Where a result was
    // also seen live (answered before the crash), the two must agree.
    for (const auto& [id, values] : coordinator->replay().completed) {
      if (id >= total_queries) continue;
      if (answered[id].has_value() && *answered[id] != values) {
        episode.invariants.Fail("restart_decode",
                                "journal result for query " +
                                    std::to_string(id) +
                                    " disagrees with the live answer");
      }
      answered[id] = values;
    }
    const size_t next = coordinator->replay().next_query_id;
    if (coordinator->has_in_flight()) {
      const uint64_t in_id = coordinator->replay().in_flight_id;
      record(in_id, coordinator->ResumeInFlight());
    }
    if (episode.outcome == "decoded") run_queries(next);
  }

  CheckRun(scenario, coordinator->protocol(), answered,
           final_gen_queries > 0, sabotage, &episode);

  if (episode.outcome == "decoded") {
    size_t answered_count = 0;
    for (const auto& ans : answered) answered_count += ans.has_value() ? 1 : 0;
    if (answered_count != total_queries) {
      episode.invariants.Fail(
          "restart_decode",
          "only " + std::to_string(answered_count) + " of " +
              std::to_string(total_queries) +
              " queries were answered across the restart");
    }
  }

  // restart_ledger: the combined write-ahead journal (gen-0 durable bytes +
  // gen-1 appends) parses as one untorn stream and balances double-entry
  // against the final generation's metrics: every billed dispatch was
  // journaled first, no (query, share) billed twice, one result per query.
  const std::string combined = journal_gen0.str() + journal_gen1.str();
  episode.journal_bytes = combined.size();
  episode.snapshot_bytes = snapshot.size();
  auto parsed = recovery::LoadJournal(combined);
  if (!parsed.ok()) {
    episode.invariants.Fail("restart_ledger",
                            "combined journal unreadable: " +
                                parsed.status().ToString());
  } else {
    episode.journal_events = parsed->events.size();
    const std::string audit =
        parsed->torn_tail
            ? "combined journal has a torn tail (committed bytes must "
              "always parse whole)"
            : CheckCrashLedger(episode, parsed->events,
                               scenario.options.value_bytes);
    if (!audit.empty()) episode.invariants.Fail("restart_ledger", audit);
  }

  if (!config.crash_artifacts_dir.empty()) {
    const std::string base =
        config.crash_artifacts_dir + "/ep" + std::to_string(index);
    std::ofstream snap_os(base + "_snapshot.bin",
                          std::ios::binary | std::ios::trunc);
    snap_os.write(snapshot.data(),
                  static_cast<std::streamsize>(snapshot.size()));
    if (snap_os.good()) episode.snapshot_path = base + "_snapshot.bin";
    std::ofstream journal_os(base + "_journal.bin",
                             std::ios::binary | std::ios::trunc);
    journal_os.write(combined.data(),
                     static_cast<std::streamsize>(combined.size()));
    if (journal_os.good()) episode.journal_path = base + "_journal.bin";
  }
  return episode;
}

std::string CheckCrashLedger(const ChaosEpisode& episode,
                             const std::vector<recovery::JournalEvent>& events,
                             double value_bytes) {
  using recovery::JournalEvent;
  using recovery::JournalEventKind;
  const FaultRecoveryMetrics& rec = episode.recovery;
  const RunMetrics& run = episode.run;
  const uint32_t final_gen = static_cast<uint32_t>(rec.generation);
  const uint64_t x_bytes =
      static_cast<uint64_t>(static_cast<double>(episode.l) * value_bytes);

  uint64_t dispatches = 0;      // final generation, canaries included
  uint64_t dispatch_bytes = 0;  // final generation
  uint64_t responses = 0;       // final generation accepted responses
  uint64_t response_values = 0;
  std::map<uint64_t, size_t> results_per_query;  // across ALL generations
  // Exactly-once audit state: per query, which base-segment shares had an
  // accepted (and billed) response journaled so far; frozen into `paid` at
  // the query's resumption marker. A post-resumption re-dispatch of a paid
  // share is a double-spend.
  std::map<uint64_t, uint32_t> begun_gen;
  std::map<uint64_t, std::set<uint64_t>> responded;
  std::map<uint64_t, std::set<uint64_t>> paid;
  uint64_t paid_total = 0;

  for (const JournalEvent& ev : events) {
    switch (ev.kind) {
      case JournalEventKind::kQueryBegin: {
        auto [it, inserted] = begun_gen.emplace(ev.query_id, ev.generation);
        if (!inserted && ev.generation != it->second) {
          // Resumption marker: the restarted generation re-admitted an
          // in-flight query. Freeze what was already paid for.
          paid[ev.query_id] = responded[ev.query_id];
          paid_total += paid[ev.query_id].size();
        }
        break;
      }
      case JournalEventKind::kResponse:
        if (ev.segment == 0) responded[ev.query_id].insert(ev.local);
        if (ev.generation == final_gen) {
          ++responses;
          response_values += ev.values.size();
        }
        break;
      case JournalEventKind::kDispatch: {
        if (ev.generation == final_gen) {
          ++dispatches;
          dispatch_bytes += ev.bytes;
          if (ev.bytes != x_bytes) {
            return "journaled dispatch carries " + std::to_string(ev.bytes) +
                   " bytes, expected l x value_bytes = " +
                   std::to_string(x_bytes);
          }
        }
        if (ev.attempt >= 1 && ev.segment == 0) {
          auto it = paid.find(ev.query_id);
          if (it != paid.end() && it->second.count(ev.local) > 0) {
            return "double-spend: share " + std::to_string(ev.local) +
                   " of query " + std::to_string(ev.query_id) +
                   " was re-dispatched after its paid response was resumed";
          }
        }
        break;
      }
      case JournalEventKind::kQueryResult:
        if (++results_per_query[ev.query_id] > 1) {
          return "query " + std::to_string(ev.query_id) +
                 " has more than one journaled result (exactly-once broken)";
        }
        break;
      default:
        break;
    }
  }

  // Write-ahead discipline, final generation: every billed dispatch has a
  // durable record, byte for byte. (Equality, not <=: the protocol commits
  // each round's batch before the run settles.)
  if (dispatches != rec.queries_dispatched) {
    return "final generation journaled " + std::to_string(dispatches) +
           " dispatches but billed " +
           std::to_string(rec.queries_dispatched);
  }
  if (dispatch_bytes != run.query_uplink_bytes) {
    return "final generation journaled " + std::to_string(dispatch_bytes) +
           " uplink bytes but billed " +
           std::to_string(run.query_uplink_bytes);
  }
  // Accepted-response records can only undercount the metric (arrivals that
  // were billed then rejected, and canary probes, are never journaled).
  if (responses > rec.responses_received) {
    return "final generation journaled " + std::to_string(responses) +
           " accepted responses but billed only " +
           std::to_string(rec.responses_received);
  }
  if (response_values > rec.response_values_received) {
    return "final generation journaled " + std::to_string(response_values) +
           " response values but billed only " +
           std::to_string(rec.response_values_received);
  }
  // A resumed query may inject at most what the journal paid for.
  if (rec.resumed_responses > paid_total) {
    return "final generation resumed " +
           std::to_string(rec.resumed_responses) +
           " responses but the journal only paid for " +
           std::to_string(paid_total);
  }
  return "";
}

std::string Describe(const ChaosEpisode& episode) {
  std::ostringstream os;
  os << "episode " << episode.index << " seed=" << episode.seed << " mix="
     << episode.mix << " m=" << episode.m << " l=" << episode.l
     << " fleet=" << episode.fleet
     << " stragglers=" << (episode.stragglers ? 1 : 0)
     << " lossy=" << (episode.lossy ? 1 : 0)
     << " hedging=" << (episode.hedging ? 1 : 0)
     << " adaptive=" << (episode.adaptive ? 1 : 0);
  if (episode.byzantine_tolerance > 0) {
    os << " byz_t=" << episode.byzantine_tolerance
       << " byz_eff=" << episode.byzantine_effective;
  }
  os << "\n";
  for (const ChaosScheduledFault& fault : episode.schedule) {
    os << "  dev " << fault.device << " " << FaultKindName(fault.kind)
       << " @" << Num(fault.start_s);
    if (fault.kind == FaultKind::kTransient) {
      os << " until " << Num(fault.end_s);
    }
    if (fault.kind == FaultKind::kCorruption) {
      os << " delta " << Num(fault.delta);
      if (fault.probability < 1.0) os << " p=" << Num(fault.probability);
      if (fault.relative) os << " relative";
      if (fault.equivocate) os << " equivocate";
    }
    os << "\n";
  }
  if (episode.schedule.empty()) os << "  (no scripted faults)\n";
  if (episode.crash.point != recovery::CrashPoint::kNone) {
    os << "  crash " << recovery::CrashPointName(episode.crash.point)
       << " occurrence=" << episode.crash.occurrence
       << (episode.crash.lose_tail ? " lose_tail" : "")
       << (episode.crash_fired ? " fired" : " not-reached")
       << " generations=" << episode.generations << "\n";
    if (!episode.snapshot_path.empty()) {
      os << "  snapshot " << episode.snapshot_path << " ("
         << episode.snapshot_bytes << " sealed bytes)\n";
    }
    if (!episode.journal_path.empty()) {
      os << "  journal " << episode.journal_path << " ("
         << episode.journal_bytes << " bytes, " << episode.journal_events
         << " events)\n";
    }
  }
  return os.str();
}

}  // namespace scec::sim
