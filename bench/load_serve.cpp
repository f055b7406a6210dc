// SPDX-License-Identifier: MIT
//
// Open-loop load generator for the multi-tenant serving tier
// (src/serve/coordinator.h): Poisson arrivals per tenant drive the
// coordinator on a VIRTUAL decision clock while each coalesced panel is
// executed for real and its wall-clock service time advances a virtual
// single-server busy period. Two arms run the identical arrival trace:
//
//   single     max_batch = 1  — one ServeBatch panel per query (the
//                               one-query-at-a-time baseline)
//   coalesced  max_batch = B  — work-conserving coalescing: a batch closes
//                               once the server is free and carries every
//                               query its (tenant, class) queued meanwhile
//
// Per arm the harness reports saturation throughput (flood drain: every
// query queued at t=0, throughput = queries / wall drain time) and a
// p99-vs-load curve over an arrival-rate sweep, into BENCH_pr7.json. The
// PR-7 acceptance claim — coalesced panel serving sustains >= 2x the
// saturation throughput of one-query-at-a-time at 8 tenants — is asserted
// with --assert-speedup (full runs; CI smoke only checks qps > 0 and a
// finite p99).
//
// PR-9 adds a protected-vs-unprotected overload A/B on a fully VIRTUAL
// clock (a deterministic panel-service model instead of wall time, so
// "N x saturation" is exact and replayable from --seed): both arms replay
// the identical Poisson surge at 1x-10x saturation followed by a recovery
// phase, clients blindly retrying rejections. The protected arm runs the
// full overload stack (tenant quotas, deadline shedding, brownout breaker,
// degradation ladder); the unprotected arm admits everything into an
// unbounded queue. Goodput (within-budget completions per virtual second)
// curves plus recovery-phase p99 land in BENCH_pr9.json;
// --assert-protection enforces the PR-9 acceptance floor: protected goodput
// at 4x >= 70% of its 1x goodput, recovery p99 back near baseline, while
// unprotected goodput collapses as offered load rises.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/csv.h"
#include "common/report.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "field/gf_prime.h"
#include "serve/coordinator.h"
#include "telemetry.h"
#include "workload/distributions.h"

namespace {

using scec::Gf61;
using scec::serve::DeadlineClass;
using scec::serve::ServeCoordinator;
using scec::serve::ServeOptions;

struct LoadFlags {
  int64_t tenants = 8;
  int64_t m = 256;
  int64_t l = 256;
  int64_t k = 8;
  int64_t max_batch = 32;
  int64_t flood_queries = 1536;  // total, across tenants (saturation arm)
  double duration_s = 2.0;       // virtual seconds per load point
  std::string rates = "50,100,200,400";  // per-tenant arrival qps sweep
  int64_t seed = 20190707;
  int64_t threads = 0;
  std::string out;  // JSON results path
  bool assert_speedup = false;
  // Overload A/B (PR-9): saturation multiples, phase lengths (virtual s),
  // and blind client retries per rejection.
  std::string overload_mults = "1,2,4,6,8,10";
  double overload_surge_s = 0.75;
  double overload_recovery_s = 0.75;
  int64_t overload_retries = 2;
  bool assert_protection = false;
  scec::bench::TelemetryFlags telemetry;
};

struct Tenant {
  scec::McscecProblem problem;
  scec::Matrix<Gf61> a;
};

std::vector<Tenant> MakeTenants(const LoadFlags& flags) {
  std::vector<Tenant> tenants(static_cast<size_t>(flags.tenants));
  for (size_t t = 0; t < tenants.size(); ++t) {
    scec::Xoshiro256StarStar cost_rng(static_cast<uint64_t>(flags.seed) + t);
    const auto costs = scec::SampleSortedCosts(
        scec::CostDistribution::Uniform(5.0), static_cast<size_t>(flags.k),
        cost_rng);
    tenants[t].problem = scec::MakeAbstractProblem(
        static_cast<size_t>(flags.m), static_cast<size_t>(flags.l), costs);
    scec::ChaCha20Rng arng(static_cast<uint64_t>(flags.seed) * 31 + t);
    tenants[t].a = scec::RandomMatrix<Gf61>(static_cast<size_t>(flags.m),
                                            static_cast<size_t>(flags.l),
                                            arng);
  }
  return tenants;
}

ServeCoordinator<Gf61>::DeployFn DeployFnFor(const std::vector<Tenant>& tenants,
                                             uint64_t seed) {
  return [&tenants, seed](uint64_t tenant) {
    const Tenant& world = tenants[static_cast<size_t>(tenant)];
    scec::ChaCha20Rng rng(seed ^ (0x5EC0DEull + tenant));
    auto session =
        scec::DeploymentSession<Gf61>::Open(world.problem, world.a, rng);
    SCEC_CHECK(session.ok()) << session.status();
    return std::move(*session);
  };
}

struct Arrival {
  double at_s = 0.0;
  size_t tenant = 0;
  DeadlineClass cls = DeadlineClass::kStandard;
};

// Merged Poisson arrival trace: exponential interarrivals per tenant at
// `rate_qps`, classes drawn round-robin-ish per tenant, sorted by time.
std::vector<Arrival> PoissonTrace(size_t tenants, double rate_qps,
                                  double duration_s, uint64_t seed) {
  std::vector<Arrival> trace;
  for (size_t t = 0; t < tenants; ++t) {
    scec::Xoshiro256StarStar rng(seed + 7919 * t);
    double now = 0.0;
    size_t i = 0;
    while (true) {
      now += -std::log(1.0 - rng.NextDouble(0.0, 1.0)) / rate_qps;
      if (now >= duration_s) break;
      Arrival a;
      a.at_s = now;
      a.tenant = t;
      a.cls = static_cast<DeadlineClass>((t + i++) % 3);
      trace.push_back(a);
    }
  }
  std::sort(trace.begin(), trace.end(),
            [](const Arrival& a, const Arrival& b) {
              if (a.at_s != b.at_s) return a.at_s < b.at_s;
              return a.tenant < b.tenant;
            });
  return trace;
}

struct RunStats {
  size_t offered = 0;
  size_t served = 0;
  size_t rejected = 0;
  double virtual_end_s = 0.0;
  double busy_wall_s = 0.0;  // summed panel service wall time
  scec::SampleStat latency;  // virtual sojourn incl. service
  scec::SampleStat batch;    // panel widths
};

// Replays one arrival trace through a coordinator. Virtual single-server
// model: the decision clock follows arrivals; a due batch runs at
// max(due, free_at), every batch the server reaches before an arrival is
// pumped first, and each pump's measured wall service extends a virtual
// busy period (`free_at`) so queueing delay under load is real and the
// queries that arrive while a panel runs coalesce into the next one.
RunStats Replay(ServeCoordinator<Gf61>& coordinator,
                const std::vector<Tenant>& tenants,
                const std::vector<Arrival>& trace, uint64_t seed) {
  RunStats stats;
  stats.offered = trace.size();
  scec::ChaCha20Rng xrng(seed ^ 0xF00Dull);
  double free_at = 0.0;
  double now = 0.0;

  const auto pump = [&](double at, bool flush) {
    at = std::max(at, now);
    scec::Stopwatch wall;
    const auto completions = coordinator.Pump(at, flush);
    if (completions.empty()) {
      now = std::max(now, at);
      return;
    }
    const double service_s = wall.ElapsedSeconds();
    stats.busy_wall_s += service_s;
    // The panels finish after the busy period that starts now.
    const double done_at = std::max(at, free_at) + service_s;
    free_at = done_at;
    now = std::max(now, at);
    std::map<size_t, size_t> widths;
    for (const auto& done : completions) {
      stats.latency.Add(done_at - done.enqueue_s);
      ++widths[done.batch_size];
      ++stats.served;
    }
    for (const auto& [width, count] : widths) {
      // One histogram sample per batch, not per query.
      for (size_t i = 0; i < count / width; ++i) {
        stats.batch.Add(static_cast<double>(width));
      }
    }
  };

  for (const Arrival& arrival : trace) {
    // Pumping at t >= NextCloseDeadline() always closes at least the
    // oldest queued batch, so this loop strictly drains.
    while (coordinator.QueueDepth() > 0) {
      const double at = std::max(coordinator.NextCloseDeadline(), free_at);
      if (at > arrival.at_s) break;
      pump(at, /*flush=*/false);
    }
    now = std::max(now, arrival.at_s);
    const Tenant& world = tenants[arrival.tenant];
    const auto x = scec::RandomVector<Gf61>(world.problem.l, xrng);
    const auto result = coordinator.Submit(
        static_cast<uint64_t>(arrival.tenant), arrival.cls, x, arrival.at_s);
    if (!result.admitted()) ++stats.rejected;
  }
  while (coordinator.QueueDepth() > 0) {
    pump(std::max(coordinator.NextCloseDeadline(), free_at), /*flush=*/true);
  }
  stats.virtual_end_s = std::max(free_at, now);
  return stats;
}

ServeOptions ArmOptions(size_t max_batch, scec::ThreadPool* pool,
                        scec::obs::MetricsRegistry* metrics) {
  ServeOptions options;
  options.batching.max_batch = max_batch;
  options.batching.per_tenant_queue_limit =
      std::max<size_t>(4096, max_batch * 16);
  options.pool = pool;
  options.metrics = metrics;
  return options;
}

struct CurvePoint {
  double rate_qps = 0.0;
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double mean_batch = 0.0;
  size_t rejected = 0;
};

struct ArmResult {
  std::string name;
  double saturation_qps = 0.0;
  double mean_flood_batch = 0.0;
  std::vector<CurvePoint> curve;
};

std::string ToJson(const ArmResult& arm) {
  std::string json = "{\"arm\":\"" + arm.name + "\",\"saturation_qps\":" +
                     scec::FormatDouble(arm.saturation_qps, 1) +
                     ",\"mean_flood_batch\":" +
                     scec::FormatDouble(arm.mean_flood_batch, 2) +
                     ",\"curve\":[";
  for (size_t i = 0; i < arm.curve.size(); ++i) {
    const CurvePoint& p = arm.curve[i];
    json += std::string(i == 0 ? "" : ",") + "{\"rate_qps\":" +
            scec::FormatDouble(p.rate_qps, 1) +
            ",\"offered_qps\":" + scec::FormatDouble(p.offered_qps, 1) +
            ",\"achieved_qps\":" + scec::FormatDouble(p.achieved_qps, 1) +
            ",\"p50_s\":" + scec::FormatDouble(p.p50_s, 6) +
            ",\"p99_s\":" + scec::FormatDouble(p.p99_s, 6) +
            ",\"mean_batch\":" + scec::FormatDouble(p.mean_batch, 2) +
            ",\"rejected\":" + std::to_string(p.rejected) + "}";
  }
  return json + "]}";
}

ArmResult RunArm(const std::string& name, size_t max_batch,
                 const LoadFlags& flags, const std::vector<Tenant>& tenants,
                 scec::ThreadPool* pool,
                 const std::vector<double>& rate_sweep) {
  ArmResult result;
  result.name = name;
  const uint64_t seed = static_cast<uint64_t>(flags.seed);

  // Saturation: flood every query at t=0 and measure the wall drain time.
  {
    scec::obs::MetricsRegistry metrics;
    ServeCoordinator<Gf61> coordinator(
        tenants.size(), DeployFnFor(tenants, seed),
        ArmOptions(max_batch, pool, &metrics));
    std::vector<Arrival> flood(static_cast<size_t>(flags.flood_queries));
    for (size_t i = 0; i < flood.size(); ++i) {
      flood[i].at_s = 0.0;
      flood[i].tenant = i % tenants.size();
      flood[i].cls = static_cast<DeadlineClass>(i % 3);
    }
    // Warm the deployment cache outside the timed drain (encode-once is
    // amortized over millions of queries; the drain measures serving).
    for (size_t t = 0; t < tenants.size(); ++t) {
      scec::ChaCha20Rng warm_rng(seed ^ 0xAAu);
      const auto x = scec::RandomVector<Gf61>(tenants[t].problem.l, warm_rng);
      coordinator.Submit(static_cast<uint64_t>(t), DeadlineClass::kBulk, x,
                         0.0);
    }
    coordinator.Pump(0.0, /*flush=*/true);

    for (const Arrival& a : flood) {
      scec::ChaCha20Rng xrng(seed ^ (a.tenant * 131 + 1));
      const auto x = scec::RandomVector<Gf61>(tenants[a.tenant].problem.l,
                                              xrng);
      SCEC_CHECK(coordinator
                     .Submit(static_cast<uint64_t>(a.tenant), a.cls, x, 0.0)
                     .admitted());
    }
    scec::Stopwatch wall;
    size_t served = 0;
    scec::SampleStat widths;
    while (coordinator.QueueDepth() > 0) {
      const auto completions = coordinator.Pump(0.0, /*flush=*/true);
      served += completions.size();
      std::map<size_t, size_t> seen;
      for (const auto& done : completions) ++seen[done.batch_size];
      for (const auto& [width, count] : seen) {
        for (size_t i = 0; i < count / width; ++i) {
          widths.Add(static_cast<double>(width));
        }
      }
    }
    const double drain_s = wall.ElapsedSeconds();
    SCEC_CHECK_GT(drain_s, 0.0);
    result.saturation_qps = static_cast<double>(served) / drain_s;
    result.mean_flood_batch = widths.count() == 0 ? 0.0 : widths.mean();
  }

  // p99-vs-load curve: open-loop Poisson arrivals per tenant.
  for (const double rate : rate_sweep) {
    scec::obs::MetricsRegistry metrics;
    ServeCoordinator<Gf61> coordinator(
        tenants.size(), DeployFnFor(tenants, seed),
        ArmOptions(max_batch, pool, &metrics));
    const auto trace = PoissonTrace(tenants.size(), rate, flags.duration_s,
                                    seed + static_cast<uint64_t>(rate));
    const RunStats stats = Replay(coordinator, tenants, trace, seed);
    CurvePoint point;
    point.rate_qps = rate;
    point.offered_qps = static_cast<double>(stats.offered) / flags.duration_s;
    point.achieved_qps =
        stats.virtual_end_s <= 0.0
            ? 0.0
            : static_cast<double>(stats.served) / stats.virtual_end_s;
    if (stats.latency.count() > 0) {
      point.p50_s = stats.latency.Percentile(50.0);
      point.p99_s = stats.latency.Percentile(99.0);
    }
    point.mean_batch = stats.batch.count() == 0 ? 0.0 : stats.batch.mean();
    point.rejected = stats.rejected;
    result.curve.push_back(point);
  }
  return result;
}

// --- PR-9 overload A/B ---------------------------------------------------

// Deterministic panel-service model for the A/B: a w-column panel costs
// kServiceFloorS + w * kServicePerColumnS VIRTUAL seconds, making
// "N x saturation" exact regardless of host speed.
constexpr double kServiceFloorS = 1e-3;
constexpr double kServicePerColumnS = 5e-4;

double VirtualService(size_t width) {
  return kServiceFloorS + static_cast<double>(width) * kServicePerColumnS;
}

struct OverloadArmStats {
  uint64_t attempts = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t served = 0;
  uint64_t shed = 0;
  double goodput_qps = 0.0;      // within-budget completions / surge second
  double recovery_p99_s = 0.0;   // sojourn p99 over the recovery tail
};

struct OverloadPoint {
  double mult = 0.0;
  double offered_qps = 0.0;
  OverloadArmStats protected_arm;
  OverloadArmStats unprotected_arm;
};

ServeOptions ProtectedOptions(size_t tenants, size_t max_batch,
                              double capacity_qps, scec::ThreadPool* pool,
                              scec::obs::MetricsRegistry* metrics) {
  ServeOptions options;
  options.batching.max_batch = max_batch;
  options.batching.per_tenant_queue_limit = 4 * max_batch;
  // Quotas isolate one abusive tenant without capping the aggregate below
  // capacity; correlated surges are the ladder/deadline gate's job.
  options.admission.tenant_rate_qps =
      6.0 * capacity_qps / static_cast<double>(tenants);
  options.admission.tenant_burst = 4.0 * static_cast<double>(max_batch);
  // The global bucket refills at exactly capacity: under any overload the
  // admitted rate matches the drain rate, the queue (and ladder pressure)
  // stays bounded, and goodput holds instead of thrashing at the top rung.
  options.admission.global_rate_qps = capacity_qps;
  options.admission.global_burst = 2.0 * static_cast<double>(max_batch);
  options.admission.global_queue_limit = 6 * max_batch;
  options.admission.shed_infeasible = true;
  options.admission.service_quantile = 0.9;
  options.breaker.enabled = true;
  options.breaker.window = 8;
  options.breaker.min_samples = 4;
  options.breaker.open_cooldown_s = 0.05;
  options.breaker.canary_interval_s = 0.005;
  options.overload.enabled = true;
  options.overload.dwell_s = 0.02;
  options.service_model = VirtualService;
  options.pool = pool;
  options.metrics = metrics;
  return options;
}

ServeOptions UnprotectedOptions(size_t max_batch, scec::ThreadPool* pool,
                                scec::obs::MetricsRegistry* metrics) {
  ServeOptions options;
  options.batching.max_batch = max_batch;
  options.batching.per_tenant_queue_limit = size_t{1} << 20;  // "unbounded"
  options.service_model = VirtualService;
  options.pool = pool;
  options.metrics = metrics;
  return options;
}

// Replays surge + recovery through one coordinator entirely on the virtual
// clock: batches execute at max(close deadline, busy horizon) and each
// served panel advances the horizon by its modeled service time. Rejected
// submissions are blindly resubmitted `client_retries` times — the retry
// storm the protection stack must absorb.
OverloadArmStats ReplayOverload(ServeCoordinator<Gf61>& coordinator,
                                const std::vector<Arrival>& trace,
                                const std::vector<std::vector<Gf61>>& payloads,
                                double surge_end_s, double trace_end_s,
                                size_t client_retries) {
  const scec::serve::DeadlineBudgets budgets;
  const double tail_start_s = (surge_end_s + trace_end_s) / 2.0;
  OverloadArmStats stats;
  scec::SampleStat tail_sojourn;
  double free_at = 0.0;

  const auto handle = [&](const auto& completions) {
    for (const auto& done : completions) {
      if (done.shed) {
        ++stats.shed;
        continue;
      }
      ++stats.served;
      // One Pump() can close many due batches at the same decision instant;
      // the single virtual server still executes them one after another, so
      // each query finishes at its position on the busy horizon — that
      // finish time, not complete_s, is what the client experiences.
      free_at = std::max(free_at, done.complete_s) +
                VirtualService(done.batch_size) /
                    static_cast<double>(done.batch_size);
      const double sojourn = free_at - done.enqueue_s;
      if (free_at < surge_end_s && sojourn <= budgets.Budget(done.cls)) {
        ++stats.goodput_qps;  // counts for now; normalized below
      }
      if (free_at >= tail_start_s) tail_sojourn.Add(sojourn);
    }
  };
  const auto pump_due = [&](double horizon) {
    while (true) {
      const double next = coordinator.NextCloseDeadline();
      if (!(next < std::numeric_limits<double>::infinity())) break;
      const double at = std::max(next, free_at);
      if (at > horizon) break;
      handle(coordinator.Pump(at));
    }
  };

  for (const Arrival& arrival : trace) {
    pump_due(arrival.at_s);
    const auto& x = payloads[arrival.tenant];
    for (size_t attempt = 0; attempt <= client_retries; ++attempt) {
      ++stats.attempts;
      const auto result = coordinator.Submit(
          static_cast<uint64_t>(arrival.tenant), arrival.cls, x,
          arrival.at_s);
      if (result.admitted()) {
        ++stats.admitted;
        break;
      }
      ++stats.rejected;
    }
  }
  pump_due(trace_end_s);
  handle(coordinator.Pump(std::max(trace_end_s, free_at), /*flush=*/true));

  stats.goodput_qps /= surge_end_s;
  stats.recovery_p99_s =
      tail_sojourn.count() == 0 ? 0.0 : tail_sojourn.Percentile(99.0);
  return stats;
}

// One A/B point: identical surge (mult x capacity) + recovery (0.5 x
// capacity) trace through a protected and an unprotected coordinator.
OverloadPoint RunOverloadPoint(double mult, const LoadFlags& flags,
                               const std::vector<Tenant>& tenants,
                               scec::ThreadPool* pool) {
  const size_t max_batch = static_cast<size_t>(flags.max_batch);
  const double capacity_qps =
      static_cast<double>(max_batch) / VirtualService(max_batch);
  const uint64_t seed = static_cast<uint64_t>(flags.seed);

  OverloadPoint point;
  point.mult = mult;
  point.offered_qps = mult * capacity_qps;

  const double per_tenant_surge =
      point.offered_qps / static_cast<double>(tenants.size());
  const double per_tenant_recovery =
      0.5 * capacity_qps / static_cast<double>(tenants.size());
  const double trace_end_s = flags.overload_surge_s + flags.overload_recovery_s;
  std::vector<Arrival> trace = PoissonTrace(
      tenants.size(), per_tenant_surge, flags.overload_surge_s,
      seed ^ (0x0BADull + static_cast<uint64_t>(mult * 16.0)));
  {
    std::vector<Arrival> tail = PoissonTrace(
        tenants.size(), per_tenant_recovery, flags.overload_recovery_s,
        seed ^ (0x7A11ull + static_cast<uint64_t>(mult * 16.0)));
    for (Arrival& a : tail) a.at_s += flags.overload_surge_s;
    trace.insert(trace.end(), tail.begin(), tail.end());
  }
  std::sort(trace.begin(), trace.end(), [](const Arrival& a, const Arrival& b) {
    if (a.at_s != b.at_s) return a.at_s < b.at_s;
    return a.tenant < b.tenant;
  });

  // One payload per tenant: the A/B measures admission + scheduling, and the
  // panels execute for real either way.
  std::vector<std::vector<Gf61>> payloads;
  payloads.reserve(tenants.size());
  for (size_t t = 0; t < tenants.size(); ++t) {
    scec::ChaCha20Rng rng(seed ^ (0x9A10ull + t));
    payloads.push_back(scec::RandomVector<Gf61>(tenants[t].problem.l, rng));
  }

  {
    scec::obs::MetricsRegistry metrics;
    ServeCoordinator<Gf61> coordinator(
        tenants.size(), DeployFnFor(tenants, seed),
        ProtectedOptions(tenants.size(), max_batch, capacity_qps, pool,
                         &metrics));
    point.protected_arm = ReplayOverload(
        coordinator, trace, payloads, flags.overload_surge_s, trace_end_s,
        static_cast<size_t>(flags.overload_retries));
  }
  {
    scec::obs::MetricsRegistry metrics;
    ServeCoordinator<Gf61> coordinator(
        tenants.size(), DeployFnFor(tenants, seed),
        UnprotectedOptions(max_batch, pool, &metrics));
    point.unprotected_arm = ReplayOverload(
        coordinator, trace, payloads, flags.overload_surge_s, trace_end_s,
        static_cast<size_t>(flags.overload_retries));
  }
  return point;
}

std::string ArmJson(const OverloadArmStats& arm) {
  return "{\"goodput_qps\":" + scec::FormatDouble(arm.goodput_qps, 1) +
         ",\"recovery_p99_s\":" + scec::FormatDouble(arm.recovery_p99_s, 6) +
         ",\"attempts\":" + std::to_string(arm.attempts) +
         ",\"admitted\":" + std::to_string(arm.admitted) +
         ",\"rejected\":" + std::to_string(arm.rejected) +
         ",\"served\":" + std::to_string(arm.served) +
         ",\"shed\":" + std::to_string(arm.shed) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  LoadFlags flags;
  scec::CliParser cli(
      "load_serve",
      "open-loop load generator for the multi-tenant serving tier: "
      "deployment-cached session serving with deadline-class batch "
      "coalescing vs one-query-at-a-time, sweeping tenants x arrival rate "
      "for saturation throughput and p99-vs-load (BENCH_pr7.json)");
  cli.AddInt("tenants", &flags.tenants, "number of tenants (deployments)");
  cli.AddInt("m", &flags.m, "rows of each tenant's A");
  cli.AddInt("l", &flags.l, "columns of each tenant's A");
  cli.AddInt("k", &flags.k, "edge devices per tenant deployment");
  cli.AddInt("max-batch", &flags.max_batch,
             "panel width cap of the coalesced arm");
  cli.AddInt("flood-queries", &flags.flood_queries,
             "total queries in the saturation flood");
  cli.AddDouble("duration", &flags.duration_s,
                "virtual seconds per load point");
  cli.AddString("rates", &flags.rates,
                "comma-separated per-tenant arrival rates (qps)");
  cli.AddInt("seed", &flags.seed, "base RNG seed");
  cli.AddInt("threads", &flags.threads,
             "panel pool threads (0 = hardware concurrency)");
  cli.AddString("out", &flags.out, "write the JSON summary here");
  cli.AddBool("assert-speedup", &flags.assert_speedup,
              "fail unless coalesced saturation >= 2x single");
  cli.AddString("overload-mults", &flags.overload_mults,
                "comma-separated saturation multiples for the overload A/B");
  cli.AddDouble("overload-surge", &flags.overload_surge_s,
                "overload surge phase length (virtual s)");
  cli.AddDouble("overload-recovery", &flags.overload_recovery_s,
                "overload recovery phase length (virtual s)");
  cli.AddInt("overload-retries", &flags.overload_retries,
             "blind client resubmits per rejected query");
  cli.AddBool("assert-protection", &flags.assert_protection,
              "fail unless the protected arm holds the PR-9 goodput floor "
              "while the unprotected arm collapses");
  scec::bench::AddTelemetryFlags(&cli, &flags.telemetry);
  if (!cli.Parse(argc, argv)) return 1;
  scec::bench::StartTelemetry(flags.telemetry);

  std::vector<double> rate_sweep;
  for (const auto& token : scec::Split(flags.rates, ',')) {
    rate_sweep.push_back(std::stod(token));
  }
  SCEC_CHECK(!rate_sweep.empty());

  const auto tenants = MakeTenants(flags);
  scec::ThreadPool pool(flags.threads > 0
                            ? static_cast<size_t>(flags.threads)
                            : scec::ThreadPool::DefaultThreads());

  const ArmResult single =
      RunArm("single", 1, flags, tenants, &pool, rate_sweep);
  const ArmResult coalesced =
      RunArm("coalesced", static_cast<size_t>(flags.max_batch), flags,
             tenants, &pool, rate_sweep);
  const double speedup = single.saturation_qps <= 0.0
                             ? 0.0
                             : coalesced.saturation_qps /
                                   single.saturation_qps;

  scec::TablePrinter table({"arm", "saturation qps", "mean batch", "rate",
                            "achieved qps", "p50 ms", "p99 ms"});
  for (const ArmResult* arm : {&single, &coalesced}) {
    for (const CurvePoint& p : arm->curve) {
      table.AddRow({arm->name, scec::FormatDouble(arm->saturation_qps, 0),
                    scec::FormatDouble(arm->mean_flood_batch, 1),
                    scec::FormatDouble(p.rate_qps, 0),
                    scec::FormatDouble(p.achieved_qps, 0),
                    scec::FormatDouble(p.p50_s * 1e3, 3),
                    scec::FormatDouble(p.p99_s * 1e3, 3)});
    }
  }
  table.Print(std::cout);
  std::cout << "  coalesced/single saturation speedup: "
            << scec::FormatDouble(speedup, 2) << "x\n";

  // Overload A/B: identical surge + recovery trace at each saturation
  // multiple, protected vs unprotected coordinator.
  std::vector<double> mults;
  for (const auto& token : scec::Split(flags.overload_mults, ',')) {
    mults.push_back(std::stod(token));
  }
  SCEC_CHECK(!mults.empty());
  const double capacity_qps =
      static_cast<double>(flags.max_batch) /
      VirtualService(static_cast<size_t>(flags.max_batch));
  std::vector<OverloadPoint> overload;
  overload.reserve(mults.size());
  for (const double mult : mults) {
    overload.push_back(RunOverloadPoint(mult, flags, tenants, &pool));
  }

  scec::TablePrinter overload_table(
      {"mult", "offered qps", "prot goodput", "prot rej", "prot shed",
       "prot rec p99 ms", "unprot goodput", "unprot rec p99 ms"});
  for (const OverloadPoint& p : overload) {
    overload_table.AddRow(
        {scec::FormatDouble(p.mult, 1), scec::FormatDouble(p.offered_qps, 0),
         scec::FormatDouble(p.protected_arm.goodput_qps, 0),
         std::to_string(p.protected_arm.rejected),
         std::to_string(p.protected_arm.shed),
         scec::FormatDouble(p.protected_arm.recovery_p99_s * 1e3, 2),
         scec::FormatDouble(p.unprotected_arm.goodput_qps, 0),
         scec::FormatDouble(p.unprotected_arm.recovery_p99_s * 1e3, 2)});
  }
  overload_table.Print(std::cout);

  std::string overload_json =
      "{\"capacity_qps\":" + scec::FormatDouble(capacity_qps, 1) +
      ",\"surge_s\":" + scec::FormatDouble(flags.overload_surge_s, 3) +
      ",\"recovery_s\":" + scec::FormatDouble(flags.overload_recovery_s, 3) +
      ",\"client_retries\":" + std::to_string(flags.overload_retries) +
      ",\"points\":[";
  for (size_t i = 0; i < overload.size(); ++i) {
    const OverloadPoint& p = overload[i];
    overload_json += std::string(i == 0 ? "" : ",") + "{\"mult\":" +
                     scec::FormatDouble(p.mult, 2) + ",\"offered_qps\":" +
                     scec::FormatDouble(p.offered_qps, 1) + ",\"protected\":" +
                     ArmJson(p.protected_arm) + ",\"unprotected\":" +
                     ArmJson(p.unprotected_arm) + "}";
  }
  overload_json += "]}";

  // Header records the seed and every offered-load parameter so any curve in
  // this file can be replayed bit-for-bit from the command line.
  const std::string json =
      "{\"bench\":\"load_serve\",\"seed\":" + std::to_string(flags.seed) +
      ",\"tenants\":" + std::to_string(flags.tenants) +
      ",\"m\":" + std::to_string(flags.m) + ",\"l\":" +
      std::to_string(flags.l) + ",\"max_batch\":" +
      std::to_string(flags.max_batch) + ",\"duration_s\":" +
      scec::FormatDouble(flags.duration_s, 3) + ",\"rates\":\"" + flags.rates +
      "\",\"flood_queries\":" + std::to_string(flags.flood_queries) +
      ",\"overload_mults\":\"" + flags.overload_mults + "\",\"speedup\":" +
      scec::FormatDouble(speedup, 3) + ",\"arms\":[" + ToJson(single) + "," +
      ToJson(coalesced) + "],\"overload\":" + overload_json + "}\n";
  std::cout << "  " << json;
  if (!flags.out.empty()) {
    std::ofstream out(flags.out);
    if (!out) {
      std::cerr << "cannot open " << flags.out << "\n";
      return 1;
    }
    out << json;
  }

  int failures = 0;
  failures += scec::CheckLine(
      single.saturation_qps > 0.0 && coalesced.saturation_qps > 0.0,
      "both arms drain the saturation flood (qps > 0)");
  bool finite_p99 = true;
  for (const ArmResult* arm : {&single, &coalesced}) {
    for (const CurvePoint& p : arm->curve) {
      finite_p99 = finite_p99 && std::isfinite(p.p99_s);
    }
  }
  failures += scec::CheckLine(finite_p99, "p99 latency finite at every load");
  if (flags.assert_speedup) {
    failures += scec::CheckLine(
        speedup >= 2.0,
        "coalesced panel serving sustains >= 2x single-query saturation "
        "throughput (" + scec::FormatDouble(speedup, 2) + "x)");
  }
  if (flags.assert_protection) {
    const auto at_mult = [&](double mult) -> const OverloadPoint* {
      for (const OverloadPoint& p : overload) {
        if (p.mult == mult) return &p;
      }
      return nullptr;
    };
    const OverloadPoint* one = at_mult(1.0);
    const OverloadPoint* four = at_mult(4.0);
    failures += scec::CheckLine(one != nullptr && four != nullptr,
                                "overload sweep includes the 1x and 4x "
                                "saturation points");
    if (one != nullptr && four != nullptr) {
      const double floor = 0.7 * one->protected_arm.goodput_qps;
      failures += scec::CheckLine(
          four->protected_arm.goodput_qps >= floor,
          "protected goodput at 4x saturation holds >= 70% of its 1x "
          "goodput (" +
              scec::FormatDouble(four->protected_arm.goodput_qps, 0) +
              " vs floor " + scec::FormatDouble(floor, 0) + " qps)");
      // No metastability: after the surge ends the protected coordinator's
      // recovery-phase p99 is back within the largest class budget — the
      // backlog cannot outlive the overload that created it.
      const scec::serve::DeadlineBudgets budgets;
      failures += scec::CheckLine(
          four->protected_arm.recovery_p99_s <=
              budgets.Budget(DeadlineClass::kBulk),
          "protected recovery p99 at 4x returns within the bulk budget (" +
              scec::FormatDouble(four->protected_arm.recovery_p99_s * 1e3,
                                 2) +
              " ms)");
      const OverloadPoint& last = overload.back();
      failures += scec::CheckLine(
          last.mult <= 1.0 || last.unprotected_arm.goodput_qps <
                                  one->unprotected_arm.goodput_qps,
          "unprotected goodput collapses as offered load rises (" +
              scec::FormatDouble(last.unprotected_arm.goodput_qps, 0) +
              " qps at " + scec::FormatDouble(last.mult, 0) + "x vs " +
              scec::FormatDouble(one->unprotected_arm.goodput_qps, 0) +
              " qps at 1x)");
    }
  }
  scec::bench::ExportTelemetry(flags.telemetry);
  return failures == 0 ? 0 : 1;
}
