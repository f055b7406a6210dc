// SPDX-License-Identifier: MIT
//
// Chaos-soak front end: one seed → scenario → run → invariant set → repro
// path (sim/episode.h) over four harnesses, picked with --harness:
//
//   protocol  scripted faults (crash/omission/corruption/transient) with
//             stragglers, lossy links, hedging/adaptive timeouts and
//             Byzantine adversary mixes (sim/chaos.h);
//   crash     the same scenarios through the durable coordinator, killed
//             at a seeded crash point and restarted from its sealed
//             snapshot + journal (sim/chaos.h);
//   overload  tenant-flood / flash-crowd / fleet-brownout / retry-storm
//             episodes against the serving tier's protection stack
//             (sim/overload_chaos.h);
//   net       live loopback clusters of scecd daemons behind chaos proxies
//             (net/net_chaos.h).
//
// Failing episodes are dumped with their schedule and a one-command repro
// (--replay); --sabotage breaks one invariant of a replayed episode and
// expects it caught. A paired A/B mode (--ab-trials) measures what hedging
// buys under kExponentialSlowdown stragglers: p50/p99 completion with
// hedging on vs off on the SAME straggler draws, plus hedge rate and
// extra-cost overhead. A second A/B (--byz-trials) runs the same two
// always-lying devices against byzantine_tolerance t in {0, 1, 2} and
// records rounds-to-completion, masked fraction, and the Eq. (1) guard-cost
// overhead vs t (--byz-out). --crash-trials measures the journal's overhead
// and restart time.

#include <array>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/csv.h"
#include "common/report.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "linalg/matrix_ops.h"
#include "net/net_chaos.h"
#include "recovery/coordinator.h"
#include "sim/chaos.h"
#include "sim/episode.h"
#include "sim/fault_tolerant_protocol.h"
#include "sim/metrics.h"
#include "sim/overload_chaos.h"
#include "telemetry.h"
#include "workload/device_profiles.h"

namespace {

using scec::sim::ChaosEpisode;
using scec::sim::FaultRecoveryMetrics;
using scec::sim::Sabotage;
using scec::sim::SoakSummary;

bool WriteFile(const std::string& path, const std::string& body) {
  if (path.empty()) return true;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  out << body;
  return true;
}

std::string EpisodeJson(const ChaosEpisode& episode) {
  return "{\"episode\":" + std::to_string(episode.index) +
         ",\"seed\":" + std::to_string(episode.seed) + ",\"mix\":\"" +
         episode.mix + "\",\"outcome\":\"" + episode.outcome +
         "\",\"ok\":" + (episode.ok() ? "true" : "false") +
         ",\"crash_fired\":" + (episode.crash_fired ? "true" : "false") +
         ",\"generations\":" + std::to_string(episode.generations) +
         ",\"run\":" + scec::sim::ToJson(episode.run) +
         ",\"recovery\":" + scec::sim::ToJson(episode.recovery) + "}\n";
}

// Prints one row of counters per key, in key order.
template <size_t N>
void PrintCounts(std::vector<std::string> header,
                 const std::map<std::string, std::array<uint64_t, N>>& rows) {
  scec::TablePrinter table(std::move(header));
  for (const auto& [key, counts] : rows) {
    std::vector<std::string> cells = {key};
    for (uint64_t count : counts) cells.push_back(std::to_string(count));
    table.AddRow(std::move(cells));
  }
  table.Print(std::cout);
}

// Per-mix table of a protocol or crash soak, plus the crash-point table
// when the episodes were crash-injected.
void Tabulate(const SoakSummary<ChaosEpisode>& summary) {
  std::map<std::string, std::array<uint64_t, 7>> mixes;
  std::map<std::string, std::array<uint64_t, 3>> points;
  uint64_t resumed = 0;
  uint64_t journal_bytes = 0;
  for (const ChaosEpisode& e : summary.detail) {
    const FaultRecoveryMetrics& rec = e.recovery;
    const std::array<uint64_t, 7> mix = {
        1, e.ok(), e.outcome == "decoded", rec.TotalEvictions(),
        rec.recovery_rounds, rec.hedges_dispatched, rec.hedges_won};
    for (size_t i = 0; i < mix.size(); ++i) mixes[e.mix][i] += mix[i];
    if (e.crash.point == scec::recovery::CrashPoint::kNone) continue;
    auto& point = points[scec::recovery::CrashPointName(e.crash.point)];
    point[0] += 1;
    point[1] += e.crash_fired;
    point[2] += e.ok();
    resumed += rec.resumed_responses;
    journal_bytes += e.journal_bytes;
  }
  PrintCounts({"mix", "episodes", "passed", "decoded", "evictions",
               "rec rounds", "hedges", "hedge wins"},
              mixes);
  std::cout << "  decoded=" << summary.Count("decoded")
            << " infeasible=" << summary.Count("infeasible")
            << " internal=" << summary.Count("internal") << "\n";
  if (points.empty()) return;
  PrintCounts({"crash point", "episodes", "fired", "passed"}, points);
  std::cout << "  resumed_responses=" << resumed << " avg_journal_bytes="
            << journal_bytes / summary.episodes() << "\n";
}

void Tabulate(const SoakSummary<scec::sim::OverloadEpisode>& summary) {
  std::map<std::string, std::array<uint64_t, 6>> mixes;
  for (const scec::sim::OverloadEpisode& e : summary.detail) {
    const std::array<uint64_t, 6> mix = {
        1, e.ok(), e.rejected, e.shed, e.ladder_transitions, e.breaker_opens};
    for (size_t i = 0; i < mix.size(); ++i) mixes[e.mix][i] += mix[i];
  }
  PrintCounts({"overload mix", "episodes", "passed", "rejected", "shed",
               "ladder moves", "breaker opens"},
              mixes);
}

// Socket episodes are few and slow: list each with its verdicts.
void Tabulate(const SoakSummary<scec::net::NetChaosEpisode>& summary) {
  for (const scec::net::NetChaosEpisode& episode : summary.detail) {
    std::cout << Describe(episode) << "  " << episode.invariants.Verdicts()
              << "\n";
  }
}

// Runs one harness: a sabotage/verdict replay of episode `replay` when
// replay >= 0, else a soak of config.episodes (0 = skip, for A/B-only
// runs). Failing soak episodes are reported on stderr and appended to
// *fail_report; the soak's episodes are moved into *detail when given.
template <typename Config, typename Episode>
int RunHarness(const std::string& harness, const Config& config,
               Episode (*run_one)(const Config&, size_t, Sabotage),
               int64_t replay, Sabotage sabotage, size_t queries,
               std::string* fail_report,
               std::vector<Episode>* detail = nullptr) {
  if (replay >= 0) {
    const Episode episode =
        run_one(config, static_cast<size_t>(replay), sabotage);
    std::cout << scec::sim::EpisodeReport(episode, harness, config.seed,
                                          queries);
    if (sabotage == Sabotage::kNone) return episode.ok() ? 0 : 1;
    const bool caught = !episode.ok();
    return scec::CheckLine(
        caught, "deliberately broken " + harness + " invariant " +
                    (caught ? "was caught" : "SLIPPED THROUGH"));
  }
  if (config.episodes == 0) return 0;
  SoakSummary<Episode> summary = scec::sim::RunSoak(config, run_one);
  Tabulate(summary);
  std::cout << "  " << harness << " soak: episodes=" << summary.episodes()
            << " passed=" << summary.passed()
            << " failing=" << summary.failing.size() << "\n";
  for (size_t index : summary.failing) {
    *fail_report += scec::sim::EpisodeReport(summary.detail[index], harness,
                                             config.seed, queries) +
                    "\n";
  }
  std::cerr << *fail_report;
  const int rc = scec::CheckLine(
      summary.ok(), "every " + harness + " episode holds its invariants");
  if (detail != nullptr) *detail = std::move(summary.detail);
  return rc;
}

struct AbResult {
  scec::SampleStat off;       // query completion, hedging disabled
  scec::SampleStat on;        // query completion, hedging on
  uint64_t dispatches_off = 0;
  uint64_t dispatches_on = 0;
  uint64_t retries_off = 0;
  uint64_t retries_on = 0;
  uint64_t timeouts_off = 0;
  uint64_t timeouts_on = 0;
  uint64_t hedges = 0;
  uint64_t hedges_won = 0;
  uint64_t staging_extra_bytes = 0;
  bool ok = true;
};

// Paired trials: the same deployment and the SAME straggler seed per trial,
// run once with hedging off and once with it on (the arms differ in
// nothing else), so they see identical slowdown draws. Both arms are
// measured at total_completion_s (time the last pending of the final round
// resolved), which means the same thing with hedging on and off. Verdicts
// need about 64 trials: at 4 the p99 sign flips from seed to seed.
//
// The fleet is compute-bound on purpose (slow cores, fast links): the
// exponential slowdown multiplies compute time, so a straggler's response
// lands straggler-multiplier x later while a hedge to an idle survivor
// costs only a small staging + dispatch detour.
AbResult RunHedgeAb(size_t trials, size_t queries, uint64_t seed) {
  AbResult result;
  scec::Xoshiro256StarStar rng(seed);
  scec::McscecProblem problem;
  problem.m = 48;
  problem.l = 256;
  for (size_t j = 0; j < 14; ++j) {
    scec::EdgeDevice device;
    device.name = "edge-" + std::to_string(j);
    device.costs.comm = rng.NextDouble(1.0, 5.0);
    device.costs.storage = 0.01;
    device.costs.mul = 0.002;
    device.costs.add = 0.001;
    device.compute_rate_flops = rng.NextDouble(1e6, 2e6);  // compute-bound
    device.uplink_bps = 2e8;
    device.downlink_bps = 2e8;
    device.link_latency_s = 2e-4;
    problem.fleet.Add(device);
  }
  const auto a = scec::RandomMatrix<double>(problem.m, problem.l, rng);
  const auto x = scec::RandomVector<double>(problem.l, rng);
  const auto expected = scec::MatVec(a, std::span<const double>(x));

  scec::ChaCha20Rng coding_rng(seed ^ 0xABu);
  const auto deployment = scec::Deploy(problem, a, coding_rng);
  SCEC_CHECK(deployment.ok());

  for (size_t trial = 0; trial < trials; ++trial) {
    scec::sim::SimOptions options;
    options.straggler.kind = scec::sim::StragglerKind::kExponentialSlowdown;
    options.straggler.rate = 0.8;  // mean slowdown 1 + 1/0.8 = 2.25x
    options.straggler_seed = seed + 1000 + trial;
    for (const bool hedging : {false, true}) {
      scec::sim::FaultToleranceOptions ft;
      ft.hedging = hedging;
      ft.hedge_quantile = 0.5;  // hedge anything slower than its median
      ft.hedge_margin = 1.25;
      scec::sim::FaultTolerantScecProtocol protocol(
          &*deployment, &a, problem.fleet.devices(), options, ft);
      protocol.Stage();
      for (size_t q = 0; q < queries; ++q) {
        const auto decoded = protocol.RunQuery(x);
        if (!decoded.ok() ||
            scec::MaxAbsDiff(std::span<const double>(*decoded),
                             std::span<const double>(expected)) >= 1e-9) {
          result.ok = false;
          continue;
        }
        (hedging ? result.on : result.off)
            .Add(protocol.recovery_metrics().total_completion_s);
      }
      result.ok = result.ok && protocol.VerifyCumulativeSecurity().all_secure;
      const auto& recovery = protocol.recovery_metrics();
      if (hedging) {
        result.dispatches_on += recovery.queries_dispatched;
        result.retries_on += recovery.retries_sent;
        result.timeouts_on += recovery.deadline_timeouts;
        result.hedges += recovery.hedges_dispatched;
        result.hedges_won += recovery.hedges_won;
        result.staging_extra_bytes += recovery.hedge_staging_bytes;
      } else {
        result.dispatches_off += recovery.queries_dispatched;
        result.retries_off += recovery.retries_sent;
        result.timeouts_off += recovery.deadline_timeouts;
      }
    }
  }
  return result;
}

struct ByzArm {
  size_t tolerance = 0;
  size_t effective = 0;
  size_t queries = 0;
  uint64_t recovery_rounds = 0;
  uint64_t masked_queries = 0;
  uint64_t quarantined = 0;
  double base_cost = 0.0;
  double guard_cost = 0.0;
  bool ok = true;

  double RoundsPerQuery() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(recovery_rounds) /
                              static_cast<double>(queries);
  }
  double MaskedFraction() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(masked_queries) /
                              static_cast<double>(queries);
  }
  // Eq. (1) overhead of the surplus rows relative to the base plan.
  double CostOverhead() const {
    return base_cost <= 0.0 ? 0.0 : guard_cost / base_cost;
  }
};

// Byzantine A/B: the SAME two always-lying devices against tolerance
// t in {0, 1, 2}. t = 0 is the PR 1 evict-and-replan baseline (>= 1
// recovery round on the first query); t >= 1 must absorb the liars in a
// single round (zero recovery re-plans) at the Eq. (1) price of 2·t·m
// surplus guard rows.
std::vector<ByzArm> RunByzantineAb(size_t trials, size_t queries,
                                   uint64_t seed) {
  scec::Xoshiro256StarStar rng(seed);
  scec::McscecProblem problem;
  problem.m = 16;
  problem.l = 8;
  for (size_t j = 0; j < 12; ++j) {
    scec::EdgeDevice device;
    device.name = "edge-" + std::to_string(j);
    device.costs.comm = rng.NextDouble(1.0, 5.0);
    device.costs.storage = 0.01;
    device.costs.mul = 0.002;
    device.costs.add = 0.001;
    device.compute_rate_flops = 1e9;
    device.uplink_bps = 1e8;
    device.downlink_bps = 1e8;
    device.link_latency_s = 1e-3;
    problem.fleet.Add(device);
  }
  const auto a = scec::RandomMatrix<double>(problem.m, problem.l, rng);
  const auto x = scec::RandomVector<double>(problem.l, rng);
  const auto expected = scec::MatVec(a, std::span<const double>(x));

  std::vector<ByzArm> arms;
  for (const size_t tolerance : {size_t{0}, size_t{1}, size_t{2}}) {
    ByzArm arm;
    arm.tolerance = tolerance;
    for (size_t trial = 0; trial < trials; ++trial) {
      scec::ChaCha20Rng coding_rng(seed ^ (0xB1u + trial));
      const auto deployment = scec::Deploy(problem, a, coding_rng);
      SCEC_CHECK(deployment.ok());
      scec::sim::FaultSchedule faults;
      faults.AddCorruption(deployment->plan.participating[0], 0.0, 0, 1.5);
      faults.AddCorruption(deployment->plan.participating[2], 0.0, 0, -0.75);
      scec::sim::SimOptions options;
      options.faults = &faults;
      scec::sim::FaultToleranceOptions ft;
      ft.byzantine_tolerance = tolerance;
      ft.guard_pad_seed = seed ^ (0x6A09E667u + trial);
      scec::sim::FaultTolerantScecProtocol protocol(
          &*deployment, &a, problem.fleet.devices(), options, ft);
      protocol.Stage();
      arm.effective = protocol.byzantine_tolerance_effective();
      for (size_t q = 0; q < queries; ++q) {
        const auto decoded = protocol.RunQuery(x);
        ++arm.queries;
        if (!decoded.ok() ||
            scec::MaxAbsDiff(std::span<const double>(*decoded),
                             std::span<const double>(expected)) >= 1e-9) {
          arm.ok = false;
        }
      }
      arm.ok = arm.ok && protocol.VerifyCumulativeSecurity().all_secure;
      const auto& recovery = protocol.recovery_metrics();
      arm.recovery_rounds += recovery.recovery_rounds;
      arm.masked_queries += recovery.byzantine_masked_queries;
      arm.quarantined += recovery.devices_quarantined;
      arm.base_cost += recovery.base_plan_cost;
      arm.guard_cost += recovery.byzantine_guard_cost;
    }
    arms.push_back(arm);
  }
  return arms;
}

struct CrashTrials {
  double plain_qps = 0.0;    // bare protocol, no journal
  double durable_qps = 0.0;  // DurableCoordinator, write-ahead journaled
  uint64_t journal_bytes = 0;
  uint64_t journal_events = 0;
  size_t queries_journaled = 0;
  // (queries journaled, wall-clock ms to restart from snapshot + journal)
  std::vector<std::pair<size_t, double>> replay_ms;
  bool ok = true;
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// A/B on one fixed healthy scenario: the same deployment and queries with
// and without the write-ahead journal, measuring the journal's wall-clock
// overhead per query; then restart-from-journal wall clock as a function of
// journal length (queries journaled before the kill).
CrashTrials RunCrashTrials(size_t trials, size_t queries, uint64_t seed) {
  CrashTrials result;
  scec::Xoshiro256StarStar rng(seed);
  scec::McscecProblem problem;
  problem.m = 24;
  problem.l = 16;
  problem.fleet = scec::MakeCampusFleet(10, rng);
  const auto a = scec::RandomMatrix<double>(problem.m, problem.l, rng);
  const auto x = scec::RandomVector<double>(problem.l, rng);
  const auto expected = scec::MatVec(a, std::span<const double>(x));

  scec::ChaCha20Rng coding_rng(seed ^ 0xD0u);
  const auto deployment = scec::Deploy(problem, a, coding_rng);
  SCEC_CHECK(deployment.ok());

  const scec::sim::SimOptions sim_options;
  const scec::sim::FaultToleranceOptions ft;
  auto check = [&](const scec::Result<std::vector<double>>& decoded) {
    result.ok = result.ok && decoded.ok() &&
                scec::MaxAbsDiff(std::span<const double>(*decoded),
                                 std::span<const double>(expected)) < 1e-9;
  };

  // Arm A: the bare protocol.
  const auto plain_t0 = std::chrono::steady_clock::now();
  for (size_t trial = 0; trial < trials; ++trial) {
    scec::sim::FaultTolerantScecProtocol protocol(
        &*deployment, &a, problem.fleet.devices(), sim_options, ft);
    protocol.Stage();
    for (size_t q = 0; q < queries; ++q) check(protocol.RunQuery(x));
  }
  const double plain_s = SecondsSince(plain_t0);

  // Arm B: the durable coordinator (sealed snapshot + journaled queries).
  scec::recovery::DurableCoordinatorOptions copts;
  copts.sealing_key = seed ^ 0x5EA1EDu;
  copts.seal_salt = seed;
  copts.sim = sim_options;
  copts.ft = ft;
  const auto durable_t0 = std::chrono::steady_clock::now();
  for (size_t trial = 0; trial < trials; ++trial) {
    std::string snapshot;
    std::ostringstream journal;
    auto coordinator = scec::recovery::DurableCoordinator::Start(
        *deployment, &a, problem.fleet.devices(), &snapshot, &journal, copts);
    SCEC_CHECK(coordinator.ok());
    for (size_t q = 0; q < queries; ++q) check((*coordinator)->Query(x));
    result.journal_bytes += journal.str().size();
    result.journal_events += (*coordinator)->journal().events_appended();
  }
  const double durable_s = SecondsSince(durable_t0);

  const double total = static_cast<double>(trials * queries);
  result.plain_qps = plain_s > 0.0 ? total / plain_s : 0.0;
  result.durable_qps = durable_s > 0.0 ? total / durable_s : 0.0;
  result.queries_journaled = trials * queries;

  // Restart wall clock vs journal length.
  for (const size_t journaled : {size_t{4}, size_t{16}, size_t{64}}) {
    std::string snapshot;
    std::ostringstream journal;
    auto coordinator = scec::recovery::DurableCoordinator::Start(
        *deployment, &a, problem.fleet.devices(), &snapshot, &journal, copts);
    SCEC_CHECK(coordinator.ok());
    for (size_t q = 0; q < journaled; ++q) check((*coordinator)->Query(x));
    coordinator->reset();  // the kill
    const auto restart_t0 = std::chrono::steady_clock::now();
    std::ostringstream tail;
    auto restarted = scec::recovery::DurableCoordinator::Restart(
        snapshot, journal.str(), &a, problem.fleet.devices(), &tail, copts);
    const double restart_ms = SecondsSince(restart_t0) * 1e3;
    result.ok = result.ok && restarted.ok() &&
                (*restarted)->replay().completed.size() == journaled;
    result.replay_ms.emplace_back(journaled, restart_ms);
  }
  return result;
}

std::string CrashTrialsJson(const CrashTrials& trials) {
  std::string replay = "[";
  for (size_t i = 0; i < trials.replay_ms.size(); ++i) {
    replay += (i == 0 ? "" : ",");
    replay += "{\"queries_journaled\":" +
              std::to_string(trials.replay_ms[i].first) +
              ",\"restart_ms\":" +
              scec::FormatDouble(trials.replay_ms[i].second, 4) + "}";
  }
  replay += "]";
  const double overhead = trials.plain_qps > 0.0 && trials.durable_qps > 0.0
                              ? trials.plain_qps / trials.durable_qps - 1.0
                              : 0.0;
  const double bytes_per_query =
      trials.queries_journaled == 0
          ? 0.0
          : static_cast<double>(trials.journal_bytes) /
                static_cast<double>(trials.queries_journaled);
  return "{\"crash_trials\":{\"plain_qps\":" +
         scec::FormatDouble(trials.plain_qps, 2) +
         ",\"durable_qps\":" + scec::FormatDouble(trials.durable_qps, 2) +
         ",\"journal_overhead_fraction\":" + scec::FormatDouble(overhead, 6) +
         ",\"journal_bytes_per_query\":" +
         scec::FormatDouble(bytes_per_query, 2) +
         ",\"journal_events\":" + std::to_string(trials.journal_events) +
         ",\"restart\":" + replay +
         ",\"ok\":" + (trials.ok ? "true" : "false") + "}}\n";
}

std::string ByzArmJson(const ByzArm& arm) {
  return "{\"tolerance\":" + std::to_string(arm.tolerance) +
         ",\"effective\":" + std::to_string(arm.effective) +
         ",\"queries\":" + std::to_string(arm.queries) +
         ",\"rounds_per_query\":" + scec::FormatDouble(arm.RoundsPerQuery(), 6) +
         ",\"masked_fraction\":" + scec::FormatDouble(arm.MaskedFraction(), 6) +
         ",\"quarantined\":" + std::to_string(arm.quarantined) +
         ",\"guard_cost\":" + scec::FormatDouble(arm.guard_cost, 6) +
         ",\"cost_overhead\":" + scec::FormatDouble(arm.CostOverhead(), 6) +
         ",\"ok\":" + (arm.ok ? "true" : "false") + "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string harness = "protocol";
  int64_t episodes = -1;
  int64_t seed = 1;
  int64_t queries = 0;
  int64_t replay = -1;
  int64_t crash_trials = 0;
  std::string crash_artifacts_dir;
  std::string crash_out;
  int64_t ab_trials = 0;
  int64_t ab_queries = 4;
  int64_t byz_trials = 0;
  int64_t byz_queries = 2;
  std::string byz_out;
  std::string sabotage_name;
  std::string fail_out;
  std::string metrics_csv;
  std::string metrics_json;
  scec::bench::TelemetryFlags telemetry;
  scec::CliParser cli("chaos_soak",
                      "seeded chaos soaks with invariant checks per episode "
                      "(--harness=protocol|crash|overload|net), plus the "
                      "--ab-* hedging, --byz-* byzantine and --crash-trials "
                      "journal A/B arms");
  cli.AddString("harness", &harness,
                "protocol | crash | overload | net");
  cli.AddInt("episodes", &episodes,
             "episodes to run (-1 = the harness default, 0 = skip the soak)");
  cli.AddInt("seed", &seed, "master seed (episode i derives from (seed, i))");
  cli.AddInt("queries", &queries,
             "queries per episode (0 = the harness default; not overload)");
  cli.AddInt("replay", &replay,
             "replay just this episode index and print its schedule and "
             "verdicts");
  cli.AddString("sabotage", &sabotage_name,
                "with --replay: deliberately break an invariant "
                "(tamper-result | forge-ledger | drop-completion) and expect "
                "it caught");
  cli.AddString("fail-out", &fail_out,
                "write failing episodes (schedule + failure + repro) here");
  cli.AddString("crash-artifacts-dir", &crash_artifacts_dir,
                "crash harness: write each episode's sealed snapshot + "
                "combined journal into this directory (sealed bytes only)");
  cli.AddInt("crash-trials", &crash_trials,
             "journal-overhead A/B trials (journaling on vs off on the same "
             "scenario) plus restart wall-clock vs journal length (0 = skip)");
  cli.AddString("crash-out", &crash_out,
                "write the crash-trials summary JSON here");
  cli.AddInt("ab-trials", &ab_trials,
             "paired hedging-on/off trials under exponential stragglers "
             "(0 = skip)");
  cli.AddInt("ab-queries", &ab_queries, "queries per A/B trial");
  cli.AddInt("byz-trials", &byz_trials,
             "byzantine A/B trials: tolerance t in {0,1,2} against the same "
             "two always-lying devices (0 = skip)");
  cli.AddInt("byz-queries", &byz_queries, "queries per byzantine A/B trial");
  cli.AddString("byz-out", &byz_out,
                "write the byzantine A/B summary JSON here");
  cli.AddString("run-metrics-csv", &metrics_csv,
                "protocol/crash: write per-episode run+recovery metrics CSV");
  cli.AddString("run-metrics-json", &metrics_json,
                "protocol/crash: write per-episode run+recovery metrics JSON "
                "lines");
  scec::bench::AddTelemetryFlags(&cli, &telemetry);
  if (!cli.Parse(argc, argv)) return 1;

  // Flag combinations that would otherwise be silently ignored are hard
  // errors: a soak invocation that *looks* like it sabotaged an episode or
  // recorded a summary but actually did neither is worse than a typo.
  const bool chaos = harness == "protocol" || harness == "crash";
  Sabotage sabotage = Sabotage::kNone;
  auto usage_error = [](const std::string& message) {
    std::cerr << message << "\n";
    return 1;
  };
  if (!chaos && harness != "overload" && harness != "net") {
    return usage_error("unknown --harness: " + harness);
  }
  if (!sabotage_name.empty()) {
    if (replay < 0) return usage_error("--sabotage requires --replay");
    sabotage = scec::sim::ParseSabotage(sabotage_name);
    // The overload harness has no ledger to forge; the others have no
    // completion stream to drop from.
    const bool overload = harness == "overload";
    if (!(sabotage == Sabotage::kTamperResult ||
          (sabotage == Sabotage::kForgeLedger && !overload) ||
          (sabotage == Sabotage::kDropCompletion && overload))) {
      return usage_error("--sabotage=" + sabotage_name +
                         " does not apply to --harness=" + harness);
    }
  }
  if (!crash_artifacts_dir.empty() && harness != "crash") {
    return usage_error("--crash-artifacts-dir requires --harness=crash");
  }
  if ((!metrics_csv.empty() || !metrics_json.empty()) && !chaos) {
    return usage_error("--run-metrics-* require --harness=protocol or crash");
  }
  if (queries > 0 && harness == "overload") {
    return usage_error("--queries does not apply to --harness=overload");
  }
  if (!crash_out.empty() && crash_trials <= 0) {
    return usage_error("--crash-out requires --crash-trials > 0");
  }
  if (!byz_out.empty() && byz_trials <= 0) {
    return usage_error("--byz-out requires --byz-trials > 0");
  }
  scec::bench::StartTelemetry(telemetry);

  const size_t query_override = static_cast<size_t>(queries);
  std::string fail_report;
  std::vector<ChaosEpisode> chaos_detail;  // for --run-metrics-*
  int rc = 0;
  if (chaos) {
    scec::sim::ChaosConfig config;
    config.seed = static_cast<uint64_t>(seed);
    if (episodes >= 0) config.episodes = static_cast<size_t>(episodes);
    if (queries > 0) config.queries_per_episode = query_override;
    config.crash_artifacts_dir = crash_artifacts_dir;
    rc = RunHarness(harness, config,
                    harness == "crash" ? scec::sim::RunCrashEpisode
                                       : scec::sim::RunChaosEpisode,
                    replay, sabotage, query_override, &fail_report,
                    &chaos_detail);
  } else if (harness == "overload") {
    scec::sim::OverloadConfig config;
    config.seed = static_cast<uint64_t>(seed);
    if (episodes >= 0) config.episodes = static_cast<size_t>(episodes);
    rc = RunHarness(harness, config, scec::sim::RunOverloadEpisode, replay,
                    sabotage, 0, &fail_report);
  } else {
    scec::net::NetChaosConfig config;
    config.seed = static_cast<uint64_t>(seed);
    if (episodes >= 0) config.episodes = static_cast<size_t>(episodes);
    if (queries > 0) config.queries = query_override;
    rc = RunHarness(harness, config, scec::net::RunNetChaosEpisode, replay,
                    sabotage, query_override, &fail_report);
  }
  if (replay >= 0) return rc;
  bool ok = rc == 0;
  ok = WriteFile(fail_out, fail_report) && ok;
  if (chaos) {
    std::string csv_lines = "episode,mix,outcome,ok," +
                            scec::sim::RunMetricsCsvHeader() + "," +
                            scec::sim::FaultRecoveryMetricsCsvHeader() + "\n";
    std::string json_lines;
    for (const ChaosEpisode& episode : chaos_detail) {
      csv_lines += std::to_string(episode.index) + "," + episode.mix + "," +
                   episode.outcome + "," + (episode.ok() ? "1" : "0") + "," +
                   scec::sim::ToCsvRow(episode.run) + "," +
                   scec::sim::ToCsvRow(episode.recovery) + "\n";
      json_lines += EpisodeJson(episode);
    }
    ok = WriteFile(metrics_csv, csv_lines) && ok;
    ok = WriteFile(metrics_json, json_lines) && ok;
  }

  if (crash_trials > 0) {
    const CrashTrials trials =
        RunCrashTrials(static_cast<size_t>(crash_trials),
                       static_cast<size_t>(queries > 0 ? queries * 4 : 8),
                       static_cast<uint64_t>(seed) ^ 0xC4A54ull);
    scec::TablePrinter trial_table(
        {"arm", "queries/s", "journal bytes/query"});
    const double bytes_per_query =
        trials.queries_journaled == 0
            ? 0.0
            : static_cast<double>(trials.journal_bytes) /
                  static_cast<double>(trials.queries_journaled);
    trial_table.AddRow(
        {"plain", scec::FormatDouble(trials.plain_qps, 1), "0"});
    trial_table.AddRow({"durable", scec::FormatDouble(trials.durable_qps, 1),
                        scec::FormatDouble(bytes_per_query, 1)});
    trial_table.Print(std::cout);
    for (const auto& [journaled, ms] : trials.replay_ms) {
      std::cout << "  restart after " << journaled
                << " journaled queries: " << scec::FormatDouble(ms, 3)
                << " ms\n";
    }
    const std::string trials_json = CrashTrialsJson(trials);
    std::cout << "  " << trials_json;
    ok = WriteFile(crash_out, trials_json) && ok;
    ok = ok && trials.ok;
    scec::CheckLine(trials.ok,
                    "journaled queries decode exactly and every restart "
                    "recovers the full committed history");
  }

  if (ab_trials > 0) {
    const AbResult ab =
        RunHedgeAb(static_cast<size_t>(ab_trials),
                   static_cast<size_t>(ab_queries),
                   static_cast<uint64_t>(seed) ^ 0xAB00u);
    const double p99_off = ab.off.Percentile(99.0);
    const double p99_on = ab.on.Percentile(99.0);
    const double hedge_rate =
        ab.dispatches_on == 0
            ? 0.0
            : static_cast<double>(ab.hedges) /
                  static_cast<double>(ab.dispatches_on);
    const double extra_dispatch =
        ab.dispatches_off == 0
            ? 0.0
            : static_cast<double>(ab.dispatches_on) /
                      static_cast<double>(ab.dispatches_off) -
                  1.0;
    scec::TablePrinter ab_table({"hedging", "p50(ms)", "p99(ms)", "max(ms)",
                                 "dispatches", "retries", "timeouts"});
    ab_table.AddRow({"off", scec::FormatDouble(ab.off.Median() * 1e3, 3),
                     scec::FormatDouble(p99_off * 1e3, 3),
                     scec::FormatDouble(ab.off.max() * 1e3, 3),
                     std::to_string(ab.dispatches_off),
                     std::to_string(ab.retries_off),
                     std::to_string(ab.timeouts_off)});
    ab_table.AddRow({"on", scec::FormatDouble(ab.on.Median() * 1e3, 3),
                     scec::FormatDouble(p99_on * 1e3, 3),
                     scec::FormatDouble(ab.on.max() * 1e3, 3),
                     std::to_string(ab.dispatches_on),
                     std::to_string(ab.retries_on),
                     std::to_string(ab.timeouts_on)});
    ab_table.Print(std::cout);
    std::cout << "  hedges=" << ab.hedges << " won=" << ab.hedges_won
              << " hedge_rate=" << scec::FormatDouble(hedge_rate, 4)
              << " extra_dispatch_overhead="
              << scec::FormatDouble(extra_dispatch, 4)
              << " hedge_staging_bytes=" << ab.staging_extra_bytes << "\n";
    std::cout << "  {\"p50_off_ms\":"
              << scec::FormatDouble(ab.off.Median() * 1e3, 6)
              << ",\"p99_off_ms\":" << scec::FormatDouble(p99_off * 1e3, 6)
              << ",\"p50_on_ms\":"
              << scec::FormatDouble(ab.on.Median() * 1e3, 6)
              << ",\"p99_on_ms\":" << scec::FormatDouble(p99_on * 1e3, 6)
              << ",\"hedge_rate\":" << scec::FormatDouble(hedge_rate, 6)
              << ",\"extra_dispatch_overhead\":"
              << scec::FormatDouble(extra_dispatch, 6)
              << ",\"hedge_staging_bytes\":" << ab.staging_extra_bytes << "}\n";
    ok = ok && ab.ok && p99_on < p99_off;
    scec::CheckLine(ab.ok && p99_on < p99_off,
                    "hedging lowers p99 completion under exponential "
                    "stragglers at bounded extra cost");
  }

  if (byz_trials > 0) {
    const std::vector<ByzArm> arms =
        RunByzantineAb(static_cast<size_t>(byz_trials),
                       static_cast<size_t>(byz_queries),
                       static_cast<uint64_t>(seed) ^ 0xB12Au);
    scec::TablePrinter byz_table({"t", "t_eff", "queries", "rounds/query",
                                  "masked", "quarantined", "guard cost",
                                  "cost overhead"});
    std::string byz_json = "{\"byzantine_ab\":[";
    bool byz_ok = true;
    for (size_t i = 0; i < arms.size(); ++i) {
      const ByzArm& arm = arms[i];
      byz_table.AddRow({std::to_string(arm.tolerance),
                        std::to_string(arm.effective),
                        std::to_string(arm.queries),
                        scec::FormatDouble(arm.RoundsPerQuery(), 4),
                        scec::FormatDouble(arm.MaskedFraction(), 4),
                        std::to_string(arm.quarantined),
                        scec::FormatDouble(arm.guard_cost, 3),
                        scec::FormatDouble(arm.CostOverhead(), 4)});
      byz_json += (i == 0 ? "" : ",") + ByzArmJson(arm);
      byz_ok = byz_ok && arm.ok;
      // The headline claims: t >= 1 masks both liars in a single round
      // (zero recovery re-plans), t = 0 pays at least one re-plan; the
      // surplus cost grows with t and is billed, not hidden.
      if (arm.tolerance == 0) {
        byz_ok = byz_ok && arm.recovery_rounds > 0 && arm.guard_cost == 0.0;
      } else {
        byz_ok = byz_ok && arm.recovery_rounds == 0 &&
                 arm.masked_queries > 0 && arm.guard_cost > 0.0 &&
                 arm.guard_cost > arms[i - 1].guard_cost;
      }
    }
    byz_json += "]}\n";
    byz_table.Print(std::cout);
    std::cout << "  " << byz_json;
    ok = WriteFile(byz_out, byz_json) && ok;
    ok = ok && byz_ok;
    scec::CheckLine(byz_ok,
                    "tolerance t masks <= t liars in a single round and "
                    "bills the Eq. (1) surplus honestly");
  }

  ok = scec::bench::ExportTelemetry(telemetry) && ok;
  return scec::CheckLine(ok, "every soak and A/B check passes");
}
