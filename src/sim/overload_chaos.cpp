// SPDX-License-Identifier: MIT

#include "sim/overload_chaos.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "linalg/matrix_ops.h"
#include "serve/coordinator.h"
#include "workload/distributions.h"

namespace scec::sim {
namespace {

using serve::DeadlineClass;
using serve::OverloadLevel;
using serve::RejectReason;
using serve::ServeCoordinator;
using serve::ServeOptions;

// Order-sensitive FNV-style combine for the determinism fingerprint.
uint64_t Combine(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

struct Arrival {
  double t = 0.0;
  size_t tenant = 0;
  DeadlineClass cls = DeadlineClass::kStandard;
  uint64_t seq = 0;  // merge tie-break: trace order is part of the scenario
};

DeadlineClass DrawClass(Xoshiro256StarStar& rng) {
  const double u = rng.NextDouble();
  if (u < 0.2) return DeadlineClass::kInteractive;
  if (u < 0.7) return DeadlineClass::kStandard;
  return DeadlineClass::kBulk;
}

// Poisson arrivals for one tenant over [t0, t1) at `rate` queries/s.
void AppendArrivals(double t0, double t1, double rate, size_t tenant,
                    Xoshiro256StarStar& rng, std::vector<Arrival>* out) {
  if (rate <= 0.0) return;
  double t = t0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= t1) break;
    Arrival a;
    a.t = t;
    a.tenant = tenant;
    a.cls = DrawClass(rng);
    out->push_back(a);
  }
}

// Per-tenant deployment world, derived from the episode seed so the
// coordinator's DeployFn and the reference sessions agree exactly.
struct TenantWorld {
  McscecProblem problem;
  Matrix<double> a;
  uint64_t session_seed = 0;

  TenantWorld(uint64_t seed, size_t tenant, size_t m, size_t l, size_t k)
      : a(0, 0) {
    Xoshiro256StarStar cost_rng(seed ^ (0xC057ull + tenant));
    const auto costs =
        SampleSortedCosts(CostDistribution::Uniform(5.0), k, cost_rng);
    problem = MakeAbstractProblem(m, l, costs);
    ChaCha20Rng data_rng(seed ^ (0xDA7Aull + tenant));
    a = RandomMatrix<double>(m, l, data_rng);
    session_seed = seed ^ (0x5E55ull + tenant);
  }

  DeploymentSession<double> Deploy() const {
    ChaCha20Rng rng(session_seed);
    auto session = DeploymentSession<double>::Open(problem, a, rng);
    SCEC_CHECK(session.ok()) << session.status();
    return std::move(*session);
  }
};

}  // namespace

std::vector<OverloadMix> DefaultOverloadMixes() {
  std::vector<OverloadMix> mixes;
  {
    OverloadMix m;
    m.name = "tenant_flood";
    m.flood_factor = 8.0;  // one abusive tenant at 8x its share
    mixes.push_back(m);
  }
  {
    OverloadMix m;
    m.name = "flash_crowd";
    m.crowd_factor = 4.0;  // everyone at once: 4x saturation aggregate
    mixes.push_back(m);
  }
  {
    OverloadMix m;
    m.name = "fleet_brownout";
    m.crowd_factor = 1.5;
    // Panels slow past the interactive and standard budgets (but not bulk's):
    // enough panel failures land in the breaker window to trip it, while the
    // server still turns panels over fast enough to SHOW the failures.
    m.brownout_factor = 16.0;
    mixes.push_back(m);
  }
  {
    OverloadMix m;
    m.name = "retry_storm";
    m.crowd_factor = 4.0;
    m.client_retries = 3;  // every reject blindly resubmitted 3 more times
    mixes.push_back(m);
  }
  return mixes;
}

OverloadEpisode RunOverloadEpisode(const OverloadConfig& config, size_t index,
                                   Sabotage sabotage) {
  OverloadEpisode episode;
  episode.index = index;
  episode.seed = EpisodeSeed(config.seed, index);
  episode.invariants = InvariantSet(
      {"decode", "shed_accounting", "no_metastability", "liveness"});
  InvariantSet& invariants = episode.invariants;

  const std::vector<OverloadMix> mixes =
      config.mixes.empty() ? DefaultOverloadMixes() : config.mixes;
  const OverloadMix& mix = mixes[index % mixes.size()];
  episode.mix = mix.name;

  // --- Scenario ------------------------------------------------------------
  Xoshiro256StarStar rng(episode.seed);
  const size_t tenants =
      DrawInRange(rng, config.tenants_min, config.tenants_max);
  const size_t m = DrawInRange(rng, config.m_min, config.m_max);
  const size_t l = DrawInRange(rng, config.l_min, config.l_max);
  episode.tenants = tenants;
  episode.m = m;
  episode.l = l;

  std::map<uint64_t, TenantWorld> worlds;
  std::map<uint64_t, DeploymentSession<double>> reference;
  for (size_t t = 0; t < tenants; ++t) {
    worlds.emplace(t, TenantWorld(episode.seed, t, m, l, config.fleet_k));
    reference.emplace(t, worlds.at(t).Deploy());
  }

  // Coalesced single-server capacity of the virtual service model.
  const size_t max_batch = 8;
  const double full_panel_s =
      config.service_floor_s +
      double(max_batch) * config.service_per_column_s;
  const double capacity_qps = double(max_batch) / full_panel_s;
  episode.capacity_qps = capacity_qps;
  const double baseline_rate = config.utilization * capacity_qps;
  const double per_tenant_rate = baseline_rate / double(tenants);

  // --- Arrival trace -------------------------------------------------------
  const double t1 = config.baseline_s;
  const double t2 = t1 + config.surge_s;
  const double t_end = t2 + config.recovery_s;
  std::vector<Arrival> trace;
  for (size_t t = 0; t < tenants; ++t) {
    Xoshiro256StarStar arr_rng(episode.seed ^ (0xA441ull * (t + 1)));
    double surge_rate = per_tenant_rate * mix.crowd_factor;
    if (t == 0) surge_rate *= mix.flood_factor;
    AppendArrivals(0.0, t1, per_tenant_rate, t, arr_rng, &trace);
    AppendArrivals(t1, t2, surge_rate, t, arr_rng, &trace);
    AppendArrivals(t2, t_end, per_tenant_rate, t, arr_rng, &trace);
  }
  std::sort(trace.begin(), trace.end(), [](const Arrival& a, const Arrival& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.tenant < b.tenant;
  });
  for (size_t i = 0; i < trace.size(); ++i) trace[i].seq = i;

  // --- Coordinator with the full protection stack --------------------------
  // The brownout multiplier is flipped by the driver at phase boundaries;
  // the model lambda reads it at panel-execution time (single-threaded under
  // the coordinator lock, deterministic).
  double service_mult = 1.0;
  obs::MetricsRegistry metrics;
  ServeOptions options;
  options.batching.max_batch = max_batch;
  options.batching.per_tenant_queue_limit = 64;
  // The tenant quota is sized to isolate ONE abusive tenant (6x its fair
  // share still leaves headroom for the others) but deliberately does not
  // cap the aggregate below capacity — correlated surges must reach the
  // queue so the deadline gate, ladder, and breaker do their part.
  options.admission.tenant_rate_qps = 6.0 * per_tenant_rate;
  options.admission.tenant_burst = 4.0 * double(max_batch);
  options.admission.global_rate_qps = 2.0 * capacity_qps;
  options.admission.global_burst = 4.0 * double(max_batch);
  options.admission.global_queue_limit = 96;
  options.admission.shed_infeasible = true;
  // p90, not p99: a handful of brownout-slowed panels must not poison the
  // feasibility forecast for a whole estimator window into recovery.
  options.admission.service_quantile = 0.9;
  options.breaker.enabled = true;
  options.breaker.window = 8;
  options.breaker.min_samples = 4;
  options.breaker.open_threshold = 0.5;
  options.breaker.open_cooldown_s = 0.05;
  options.breaker.canary_interval_s = 0.005;
  options.overload.enabled = true;
  options.overload.dwell_s = 0.02;
  options.overload.verify_sample_every = 4;
  options.spot_verify = true;
  options.service_model = [&service_mult, &config](size_t width) {
    return service_mult * (config.service_floor_s +
                           double(width) * config.service_per_column_s);
  };
  options.pool = config.pool;
  options.metrics = &metrics;
  ServeCoordinator<double> coordinator(
      tenants,
      [&worlds](uint64_t tenant) { return worlds.at(tenant).Deploy(); },
      options);

  // --- Replay: open-loop trace over a single virtual server ----------------
  const serve::DeadlineBudgets budgets = options.batching.budgets;
  struct Tally {
    uint64_t served = 0;
    uint64_t shed = 0;
    // Within-budget completions per phase: [baseline, surge, recovery-window]
    uint64_t good[3] = {0, 0, 0};
  } tally;
  const double recovery_window_start =
      t2 + config.settle_fraction * config.recovery_s;
  std::unordered_map<uint64_t, std::pair<uint64_t, std::vector<double>>>
      inflight;  // ticket -> (tenant, x)
  uint64_t fingerprint = 0;
  double free_at = 0.0;  // virtual server busy horizon

  auto in_brownout = [&](double now) {
    return mix.brownout_factor > 1.0 && now >= t1 && now < t2;
  };
  auto handle = [&](std::vector<
                    typename ServeCoordinator<double>::Completion>&& done) {
    for (auto& c : done) {
      fingerprint = Combine(fingerprint, c.ticket);
      fingerprint = Combine(fingerprint, c.shed ? 1 : 0);
      fingerprint = Combine(fingerprint, c.batch_size);
      if (c.shed) {
        ++tally.shed;
        inflight.erase(c.ticket);
        continue;
      }
      ++tally.served;
      free_at = std::max(free_at, c.complete_s) +
                options.service_model(c.batch_size) / double(c.batch_size);
      const double sojourn = c.complete_s - c.enqueue_s;
      if (sojourn <= budgets.Budget(c.cls)) {
        if (c.complete_s < t1) {
          ++tally.good[0];
        } else if (c.complete_s < t2) {
          ++tally.good[1];
        } else if (c.complete_s >= recovery_window_start) {
          ++tally.good[2];
        }
      }
      auto it = inflight.find(c.ticket);
      SCEC_CHECK(it != inflight.end());
      // decode: every SERVED completion equals the tenant session's scalar
      // Serve(x) exactly — the coalesced panel path may never trade
      // correctness for goodput, at any ladder rung.
      if (invariants.Holds("decode")) {
        std::vector<double> result = c.result;
        if (sabotage == Sabotage::kTamperResult && !result.empty()) {
          result[0] += 1.0;  // accounting-side tamper: decode must notice
        }
        if (result != reference.at(it->second.first).Serve(it->second.second)) {
          invariants.Fail("decode", "ticket " + std::to_string(c.ticket) +
                                        " of tenant " +
                                        std::to_string(it->second.first) +
                                        " differs from scalar Serve");
        }
      }
      inflight.erase(it);
    }
  };

  // Pumps every batch due at or before `horizon`, honoring the virtual
  // server: a batch due at d executes at max(d, free_at).
  auto pump_due = [&](double horizon) {
    while (true) {
      const double next = coordinator.NextCloseDeadline();
      if (!(next < std::numeric_limits<double>::infinity())) break;
      const double at = std::max(next, free_at);
      if (at > horizon) break;
      service_mult = in_brownout(at) ? mix.brownout_factor : 1.0;
      handle(coordinator.Pump(at));
      episode.peak_level = std::max(episode.peak_level,
                                    coordinator.governor().level());
    }
  };

  for (const Arrival& a : trace) {
    pump_due(a.t);
    service_mult = in_brownout(a.t) ? mix.brownout_factor : 1.0;
    const size_t tries = 1 + (mix.client_retries > 0 ? mix.client_retries : 0);
    for (size_t attempt = 0; attempt < tries; ++attempt) {
      ChaCha20Rng qrng(episode.seed ^ (0x0AE5ull + a.seq));
      std::vector<double> x = RandomVector<double>(l, qrng);
      ++episode.attempts;
      const auto result =
          coordinator.Submit(a.tenant, a.cls, x, a.t);
      fingerprint = Combine(fingerprint, static_cast<uint64_t>(result.reason));
      if (result.admitted()) {
        ++episode.admitted;
        inflight.emplace(result.ticket,
                         std::make_pair(static_cast<uint64_t>(a.tenant),
                                        std::move(x)));
        break;
      }
      ++episode.rejected;
      ++episode.rejected_by_reason[static_cast<size_t>(result.reason)];
    }
    episode.peak_level =
        std::max(episode.peak_level, coordinator.governor().level());
  }
  pump_due(t_end);
  service_mult = 1.0;
  handle(coordinator.Pump(t_end, /*flush=*/true));
  // Let the ladder observe the drained queue so liveness can require a
  // return to kNormal within the episode (bounded de-escalation dwell).
  double settle = t_end;
  while (coordinator.governor().level() != OverloadLevel::kNormal &&
         settle < t_end + 1.0) {
    settle += options.overload.dwell_s;
    handle(coordinator.Pump(settle, /*flush=*/true));
  }

  episode.served = tally.served;
  episode.shed = tally.shed;
  episode.ladder_transitions = coordinator.governor().transitions();
  episode.breaker_opens = coordinator.breaker().opens();
  episode.fingerprint = fingerprint;

  // --- Sabotage (accounting copies only) -----------------------------------
  uint64_t served_acc = episode.served;
  if (sabotage == Sabotage::kDropCompletion && served_acc > 0) {
    --served_acc;  // pretend one completion vanished: accounting must trip
  }

  // --- Goodput -------------------------------------------------------------
  episode.baseline_goodput = double(tally.good[0]) / config.baseline_s;
  episode.surge_goodput = double(tally.good[1]) / config.surge_s;
  episode.recovery_goodput =
      double(tally.good[2]) /
      ((1.0 - config.settle_fraction) * config.recovery_s);

  // --- Invariants ----------------------------------------------------------
  // shed_accounting: every submission is accounted for exactly once —
  // attempts == admitted + rejected, and admitted == served + explicitly
  // shed, cross-checked against the coordinator's own counters. Nothing is
  // ever silently dropped.
  {
    std::ostringstream os;
    if (episode.attempts != episode.admitted + episode.rejected) {
      os << "attempts " << episode.attempts << " != admitted "
         << episode.admitted << " + rejected " << episode.rejected;
    } else if (episode.admitted != served_acc + episode.shed) {
      os << "admitted " << episode.admitted << " != served " << served_acc
         << " + shed " << episode.shed;
    } else if (coordinator.submitted() != episode.admitted ||
               coordinator.rejected() != episode.rejected ||
               coordinator.completed() != served_acc ||
               coordinator.shed() != episode.shed) {
      os << "coordinator counters (submitted " << coordinator.submitted()
         << ", rejected " << coordinator.rejected() << ", completed "
         << coordinator.completed() << ", shed " << coordinator.shed()
         << ") disagree with the harness tally";
    } else if (!inflight.empty()) {
      os << inflight.size() << " admitted tickets never completed or shed";
    }
    if (!os.str().empty()) invariants.Fail("shed_accounting", os.str());
  }

  // no_metastability: recovery-phase goodput (measured after a bounded
  // settle window) returns to >= goodput_floor x baseline goodput — the
  // overload must END when the load does.
  if (episode.recovery_goodput <
      config.goodput_floor * episode.baseline_goodput) {
    std::ostringstream os;
    os << "recovery goodput " << episode.recovery_goodput << " qps < "
       << config.goodput_floor << " x baseline " << episode.baseline_goodput
       << " qps";
    invariants.Fail("no_metastability", os.str());
  }

  // liveness: the queue is empty after the final flush and the ladder has
  // returned to kNormal by episode end.
  if (coordinator.QueueDepth() != 0) {
    invariants.Fail("liveness", std::to_string(coordinator.QueueDepth()) +
                                    " tickets still queued after the final "
                                    "flush");
  } else if (coordinator.governor().level() != OverloadLevel::kNormal) {
    invariants.Fail("liveness",
                    std::string("ladder still at ") +
                        OverloadLevelName(coordinator.governor().level()) +
                        " after load dropped and queues drained");
  }

  return episode;
}

std::string Describe(const OverloadEpisode& episode) {
  std::ostringstream os;
  os << "episode " << episode.index << " seed=" << episode.seed << " mix="
     << episode.mix << " tenants=" << episode.tenants << " m=" << episode.m
     << " l=" << episode.l << " capacity=" << episode.capacity_qps << "qps\n"
     << "  attempts=" << episode.attempts << " admitted=" << episode.admitted
     << " rejected=" << episode.rejected << " served=" << episode.served
     << " shed=" << episode.shed << "\n"
     << "  goodput baseline=" << episode.baseline_goodput
     << " surge=" << episode.surge_goodput
     << " recovery=" << episode.recovery_goodput << " (qps)\n"
     << "  peak_level=" << serve::OverloadLevelName(episode.peak_level)
     << " transitions=" << episode.ladder_transitions
     << " breaker_opens=" << episode.breaker_opens;
  for (size_t r = 0; r < serve::kNumRejectReasons; ++r) {
    if (episode.rejected_by_reason[r] == 0) continue;
    os << "\n  reject[" << serve::RejectReasonName(
              static_cast<RejectReason>(r))
       << "]=" << episode.rejected_by_reason[r];
  }
  os << "\n";
  return os.str();
}

}  // namespace scec::sim
