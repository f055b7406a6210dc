// serve_tenants: ServeCoordinator<Gf61> over DeploymentSession<Gf61>,
// m = l = 256, k = 8 devices per tenant, a 4-thread panel pool.
//
// Phases: `setup_s` repeated kSetupReps times (pool, coordinator, the 8 hot
// tenants deployed into the cache), then an open loop on the wall clock:
// Poisson arrivals at 2000 q/s in total over the hot tenants with Zipf(1)
// popularity and classes rotating interactive/standard/bulk, plus a new
// cold tenant every 0.25 s with an 8-query standard burst. The cache holds
// 9 sessions, so each cold tenant costs one deploy and evicts only the
// previous cold tenant. Then a flood-drain phase: full bulk batches for
// every hot tenant, queued and drained with Pump(flush), with the whole
// process on one CPU at a time.

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "coding/encoder.h"
#include "coding/security_check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "core/planner.h"
#include "core/problem.h"
#include "harness.h"
#include "linalg/matrix_ops.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "serve/coordinator.h"
#include "workload/distributions.h"

namespace pathbench {
namespace {

using scec::Gf61;
using scec::Matrix;
using scec::serve::DeadlineClass;
using Coordinator = scec::serve::ServeCoordinator<Gf61>;

constexpr size_t kHot = 8;
constexpr size_t kM = 256;
constexpr size_t kL = 256;
constexpr size_t kK = 8;
constexpr uint64_t kCostSeed = 20190707;
constexpr size_t kPoolThreads = 4;
constexpr size_t kCacheCapacity = kHot + 1;
constexpr double kHotRateQps = 2000.0;
constexpr double kColdEveryS = 0.25;
constexpr size_t kColdBurst = 8;
constexpr size_t kHotInputs = 16;
constexpr size_t kFloodPerTenant = 32;  // one full batch per hot tenant
constexpr size_t kAllocRounds = 4;      // fixed flood rounds for exact counts
constexpr size_t kSetupReps = 11;
constexpr double kChunkS = 0.25;

struct Tenant {
  scec::McscecProblem problem;
  Matrix<Gf61> a;
  std::vector<std::vector<Gf61>> xs;
  std::vector<std::vector<Gf61>> want;
};

Tenant MakeTenant(uint64_t seed, size_t index, size_t inputs) {
  Tenant t;
  // Device costs, and so each tenant's plan, are the same for every seed;
  // the seed draws the matrices, inputs and arrivals.
  scec::Xoshiro256StarStar cost_rng(kCostSeed + index);
  t.problem = scec::MakeAbstractProblem(
      kM, kL,
      scec::SampleSortedCosts(scec::CostDistribution::Uniform(5.0), kK,
                              cost_rng));
  scec::ChaCha20Rng rng(seed * 31 + index);
  t.a = scec::RandomMatrix<Gf61>(kM, kL, rng);
  for (size_t i = 0; i < inputs; ++i) {
    t.xs.push_back(scec::RandomVector<Gf61>(kL, rng));
    t.want.push_back(OracleMatVec(t.a, std::span<const Gf61>(t.xs.back())));
  }
  return t;
}

struct Arrival {
  double at_s = 0.0;
  size_t tenant = 0;
  size_t input = 0;
  DeadlineClass cls = DeadlineClass::kStandard;
};

// Hot Poisson arrivals with Zipf(1) tenant popularity and rotating classes,
// merged with the cold tenants' bursts; sorted by due time.
std::vector<Arrival> Schedule(uint64_t seed, double duration_s,
                              size_t cold_tenants) {
  std::mt19937_64 rng(seed * 7919 + 1);
  std::vector<double> weights;
  for (size_t t = 0; t < kHot; ++t) weights.push_back(1.0 / (t + 1.0));
  std::discrete_distribution<size_t> zipf(weights.begin(), weights.end());
  std::exponential_distribution<double> gap(kHotRateQps);
  std::vector<Arrival> trace;
  size_t i = 0;
  for (double at = gap(rng); at < duration_s; at += gap(rng), ++i) {
    Arrival a;
    a.at_s = at;
    a.tenant = zipf(rng);
    a.input = static_cast<size_t>(rng() % kHotInputs);
    a.cls = static_cast<DeadlineClass>(i % 3);
    trace.push_back(a);
  }
  for (size_t c = 0; c < cold_tenants; ++c) {
    for (size_t q = 0; q < kColdBurst; ++q) {
      trace.push_back(Arrival{kColdEveryS * static_cast<double>(c + 1),
                              kHot + c, q, DeadlineClass::kStandard});
    }
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const Arrival& x, const Arrival& y) {
                     return x.at_s < y.at_s;
                   });
  return trace;
}

// One cold-started serving stack. The pool outlives the coordinator.
struct Stack {
  std::unique_ptr<scec::ThreadPool> pool;
  std::unique_ptr<scec::obs::MetricsRegistry> metrics;
  std::unique_ptr<Coordinator> coordinator;
  double clock0 = 0.0;  // decision clock origin
  double Now() const { return NowS() - clock0; }
};

}  // namespace

Outcome RunServeTenants(const Args& args, Tracer& tracer) {
  Outcome out;
  const double open_s = 0.4 * args.seconds;
  const double flood_s = 0.6 * args.seconds;
  const size_t cold = static_cast<size_t>(std::floor(open_s / kColdEveryS));
  std::vector<Tenant> tenants;
  for (size_t t = 0; t < kHot + cold; ++t) {
    tenants.push_back(MakeTenant(args.seed, t, t < kHot ? kHotInputs
                                                        : kColdBurst));
  }

  // The wrapped DeployFn: every deploy is timed from outside.
  std::vector<double> deploy_s;
  const auto deploy = [&](uint64_t tenant) {
    ScopedSpan span(tracer, "serve.DeployFn", tenant);
    const double t0 = NowS();
    const Tenant& t = tenants[static_cast<size_t>(tenant)];
    scec::ChaCha20Rng rng(args.seed ^ (0x5EC0DEull + tenant));
    auto session =
        scec::DeploymentSession<Gf61>::Open(t.problem, t.a, rng);
    SCEC_CHECK(session.ok()) << session.status();
    deploy_s.push_back(NowS() - t0);
    return std::move(*session);
  };

  // --- setup_s: kSetupReps cold starts; the last stack serves queries.
  struct SetupTimes {
    double total_s, pool_s, ctor_s, deploy_s;
  };
  std::vector<SetupTimes> setups;
  Stack stack;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    stack.coordinator.reset();
    ScopedSpan span(tracer, "serve.cold_start");
    const size_t deploys_before = deploy_s.size();
    const double t0 = NowS();
    stack.pool = std::make_unique<scec::ThreadPool>(kPoolThreads);
    const double t1 = NowS();
    stack.metrics = std::make_unique<scec::obs::MetricsRegistry>();
    scec::serve::ServeOptions options;
    options.cache.capacity = kCacheCapacity;
    options.pool = stack.pool.get();
    options.metrics = stack.metrics.get();
    stack.coordinator =
        std::make_unique<Coordinator>(tenants.size(), deploy, options);
    const double t2 = NowS();
    for (uint64_t t = 0; t < kHot; ++t) {
      stack.coordinator->cache().Acquire(t, [&] { return deploy(t); });
    }
    const double t3 = NowS();
    double deployed = 0.0;
    for (size_t i = deploys_before; i < deploy_s.size(); ++i) {
      deployed += deploy_s[i];
    }
    setups.push_back({t3 - t0, t1 - t0, t2 - t1, deployed});
  }
  const size_t setup_deploys = deploy_s.size();
  Coordinator& coordinator = *stack.coordinator;
  stack.clock0 = NowS();

  const auto check = [&](const Coordinator::Completion& done, size_t tenant,
                         size_t input) {
    if (done.shed) return false;
    if (Matches(std::span<const Gf61>(done.result),
                tenants[tenant].want[input])) {
      return true;
    }
    ++out.wrong;
    return false;
  };

  // --- Open loop on the wall clock.
  struct Pending {
    double due = 0.0;
    size_t tenant = 0;
    size_t input = 0;
    DeadlineClass cls = DeadlineClass::kStandard;
  };
  const std::vector<Arrival> trace = Schedule(args.seed, open_s, cold);
  std::unordered_map<uint64_t, Pending> pending;
  std::vector<double> latency_s, lag_s, submit_s, queue_wait_s;
  size_t open_ok = 0, in_budget = 0;
  double pump_busy_s = 0.0, batches = 0.0, timeout_batches = 0.0;
  const scec::serve::DeadlineBudgets budgets;  // the coordinator's default
  const double open_start = NowS() + 0.01;
  double open_end = open_start;
  {
    double free_at = open_start;
    size_t next = 0;
    while (next < trace.size() || coordinator.QueueDepth() > 0) {
      const double now = NowS();
      if (next < trace.size() && open_start + trace[next].at_s <= now) {
        const Arrival& arrival = trace[next++];
        const double due = open_start + arrival.at_s;
        lag_s.push_back(now - std::max(due, free_at));
        const auto& x = tenants[arrival.tenant].xs[arrival.input];
        ScopedSpan span(tracer, "serve.Submit", arrival.tenant);
        const double s0 = NowS();
        const auto result =
            coordinator.Submit(arrival.tenant, arrival.cls, x, stack.Now());
        free_at = NowS();
        if (tracer.enabled()) submit_s.push_back(free_at - s0);
        ++out.attempted;
        if (result.admitted()) {
          pending[result.ticket] =
              Pending{due, arrival.tenant, arrival.input, arrival.cls};
        } else {
          ++out.failed;
        }
        continue;
      }
      const double close_at = stack.clock0 + coordinator.NextCloseDeadline();
      if (coordinator.QueueDepth() > 0 && close_at <= now) {
        ScopedSpan span(tracer, "serve.Pump");
        const double p0 = NowS();
        const auto completions = coordinator.Pump(stack.Now());
        free_at = NowS();
        pump_busy_s += free_at - p0;
        for (const auto& done : completions) {
          const auto it = pending.find(done.ticket);
          SCEC_CHECK(it != pending.end());
          const Pending p = it->second;
          pending.erase(it);
          const bool ok = check(done, p.tenant, p.input);
          if (!ok) {
            ++out.failed;
            continue;
          }
          const double latency = free_at - p.due;
          latency_s.push_back(latency);
          queue_wait_s.push_back(done.complete_s - done.enqueue_s);
          ++open_ok;
          if (latency <= budgets.Budget(p.cls)) ++in_budget;
          const double share = 1.0 / static_cast<double>(done.batch_size);
          batches += share;
          if (done.reason == scec::serve::BatchCloseReason::kDeadline) {
            timeout_batches += share;
          }
        }
        continue;
      }
      double wake = close_at;
      if (next < trace.size()) {
        wake = std::min(wake, open_start + trace[next].at_s);
      }
      SleepUntil(wake);
    }
    open_end = NowS();
  }
  const uint64_t open_attempted = out.attempted;

  // --- Flood-drain: full bulk batches for every hot tenant, drained with
  // Pump(flush). kAllocRounds untimed rounds first count allocations. Each
  // round (256 Submits and one Pump, ~6 ms) is a window for BestRate().
  double flood_traced_s = 0.0;
  std::vector<double> plain_rates, traced_rates;
  uint64_t plain_ok = 0, traced_ok = 0;
  double flood_submit_s = 0.0, flood_pump_s = 0.0;
  uint64_t alloc_total = 0, alloc_queries = 0;
  {
    std::vector<std::vector<Gf61>> payloads(kHot * kFloodPerTenant);
    std::vector<uint64_t> tickets(payloads.size());
    std::vector<size_t> inputs(payloads.size());
    size_t round = 0;
    // One round; returns the correct answers. Allocations made by Submit
    // and Pump are counted when `count` is set, process-wide: the pool
    // splits each panel between threads in a timing-dependent way.
    const auto run_round = [&](bool count) {
      for (size_t slot = 0; slot < payloads.size(); ++slot) {
        inputs[slot] = (round * kFloodPerTenant + slot) % kHotInputs;
        payloads[slot] = tenants[slot / kFloodPerTenant].xs[inputs[slot]];
      }
      ++round;
      const uint64_t a0 = ProcessAllocs();
      const double s0 = NowS();
      const double now = stack.Now();
      for (size_t slot = 0; slot < payloads.size(); ++slot) {
        const auto result =
            coordinator.Submit(slot / kFloodPerTenant, DeadlineClass::kBulk,
                               std::move(payloads[slot]), now);
        tickets[slot] = result.admitted() ? result.ticket : 0;
      }
      const double s1 = NowS();
      const auto completions = coordinator.Pump(now, /*flush=*/true);
      const double s2 = NowS();
      if (count) {
        alloc_total += ProcessAllocs() - a0;
        alloc_queries += payloads.size();
      }
      if (tracer.enabled()) {
        tracer.Add("serve.Submit x256", s0, s1);
        tracer.Add("serve.Pump(flush)", s1, s2);
        flood_submit_s += s1 - s0;
        flood_pump_s += s2 - s1;
      }
      out.attempted += payloads.size();
      uint64_t ok = 0;
      for (const auto& done : completions) {
        // Admitted tickets are numbered consecutively in submit order.
        const size_t slot = static_cast<size_t>(done.ticket - tickets[0]);
        SCEC_CHECK(slot < tickets.size() && tickets[slot] == done.ticket);
        if (check(done, slot / kFloodPerTenant, inputs[slot])) ++ok;
      }
      out.failed += payloads.size() - ok;
      if (!count) {
        (tracer.enabled() ? traced_rates : plain_rates)
            .push_back(static_cast<double>(ok) / (s2 - s0));
      }
      return ok;
    };
    tracer.set_enabled(false);
    for (size_t r = 0; r < kAllocRounds; ++r) run_round(/*count=*/true);
    // The traced run alternates untraced and traced chunks. The whole
    // process, caller and pool, runs on one CPU at a time and moves to the
    // next for each chunk (see CpuRotation).
    CpuRotation rotation(CpuRotation::Scope::kProcess);
    const double end = NowS() + flood_s;
    bool traced = false;
    while (NowS() < end) {
      traced = args.trace && !traced;
      tracer.set_enabled(traced);
      rotation.Next();
      const double chunk_end = std::min(end, NowS() + kChunkS);
      const double c0 = NowS();
      uint64_t ok = 0;
      while (NowS() < chunk_end) ok += run_round(/*count=*/false);
      if (traced) flood_traced_s += NowS() - c0;
      (traced ? traced_ok : plain_ok) += ok;
    }
    tracer.set_enabled(args.trace);
  }
  const size_t run_deploys = deploy_s.size() - setup_deploys;

  std::sort(setups.begin(), setups.end(),
            [](const SetupTimes& x, const SetupTimes& y) {
              return x.total_s < y.total_s;
            });
  const SetupTimes& median_setup = setups[setups.size() / 2];

  if (!args.trace) {
    out.Add("setup_s", median_setup.total_s, "s", setups.size(),
            "median cold start: pool, coordinator, 8 hot tenants deployed");
    out.Add("throughput_qps", BestRate(plain_rates), "1/s", plain_ok,
            "bulk flood drained with Pump(flush); 99th percentile of rounds");
    out.Add("latency_p50_ms", 1e3 * Quantile(latency_s, 0.50), "ms",
            latency_s.size(), "open loop, from due time");
    out.Add("latency_p99_ms", 1e3 * Quantile(latency_s, 0.99), "ms",
            latency_s.size(), "open loop, from due time");
    out.Add("in_budget_frac",
            static_cast<double>(in_budget) /
                static_cast<double>(open_attempted),
            "1", open_attempted,
            "open-loop answers correct within the class budget");
    out.Add("fail_frac",
            static_cast<double>(out.failed) /
                static_cast<double>(out.attempted),
            "1", out.attempted, "all phases");
    out.Add("bench.gen_lag_p99_ms", 1e3 * Quantile(lag_s, 0.99), "ms",
            lag_s.size(), "open-loop generator lateness");
    return out;
  }

  // --- Traced run: replays on the hot tenants' own sessions and inputs.
  ScopedSpan replay_span(tracer, "replay");
  double plan_s = 0.0, check_s = 0.0, encode_s = 0.0, flood_batch_s = 0.0;
  const double mean_width = open_ok / std::max(batches, 1.0);
  const size_t width = std::max<size_t>(1, std::lround(mean_width));
  double open_batch_s = 0.0;
  for (uint64_t t = 0; t < kHot; ++t) {
    const Tenant& tenant = tenants[t];
    auto plan = scec::PlanMcscec(tenant.problem);
    SCEC_CHECK(plan.ok());
    plan_s += MinSeconds(tracer, "allocation.PlanMcscec", [&] {
      SCEC_CHECK(scec::PlanMcscec(tenant.problem).ok());
    });
    const scec::StructuredCode code(kM, plan->allocation.r);
    check_s += MinSeconds(tracer, "coding.CheckSchemeSecure", [&] {
      SCEC_CHECK(scec::CheckSchemeSecure(code, plan->scheme).ok());
    });
    encode_s += MinSeconds(tracer, "coding.EncodeDeployment", [&] {
      scec::ChaCha20Rng rng(args.seed ^ (0x5EC0DEull + t));
      (void)scec::EncodeDeployment(code, plan->scheme, tenant.a, rng);
    });
    auto lease = coordinator.cache().Acquire(t, [&] { return deploy(t); });
    const auto panel = [&](size_t cols) {
      Matrix<Gf61> x(kL, cols);
      for (size_t c = 0; c < cols; ++c) {
        for (size_t row = 0; row < kL; ++row) {
          x(row, c) = tenant.xs[c % kHotInputs][row];
        }
      }
      return x;
    };
    const Matrix<Gf61> full = panel(kFloodPerTenant);
    const Matrix<Gf61> observed = panel(width);
    flood_batch_s += MinSeconds(tracer, "DeploymentSession::ServeBatch", [&] {
      (void)lease.session().ServeBatch(full, stack.pool.get());
    });
    open_batch_s += MinSeconds(tracer, "DeploymentSession::ServeBatch", [&] {
      (void)lease.session().ServeBatch(observed, stack.pool.get());
    });
  }
  const double per_tenant = 1.0 / static_cast<double>(kHot);
  const double traced_q = static_cast<double>(traced_ok);

  out.Add("allocation.plan_us", 1e6 * plan_s * per_tenant, "us", kHot,
          "replay, mean per hot tenant");
  out.Add("coding.scheme_check_s", check_s * per_tenant, "s", kHot,
          "replay, mean per hot tenant");
  out.Add("coding.encode_s", encode_s * per_tenant, "s", kHot,
          "replay, mean per hot tenant");
  out.Add("serve.submit_us_p50", 1e6 * Quantile(submit_s, 0.50), "us",
          submit_s.size(), "open loop");
  out.Add("serve.submit_us_p99", 1e6 * Quantile(submit_s, 0.99), "us",
          submit_s.size(), "open loop");
  out.Add("serve.pump_busy_frac", pump_busy_s / (open_end - open_start), "1",
          0, "open loop: time inside Pump / phase wall time");
  out.Add("serve.batch_width_mean", mean_width, "count",
          static_cast<uint64_t>(batches), "open loop");
  out.Add("linalg.serve_batch_us_per_col",
          1e6 * open_batch_s * per_tenant / static_cast<double>(width), "us",
          0, "replay of ServeBatch at width " + std::to_string(width));
  out.AddExact("serve.allocs_per_query",
               static_cast<double>(alloc_total) /
                   static_cast<double>(alloc_queries),
               "count");
  out.Add("serve.queue_wait_p50_ms", 1e3 * Quantile(queue_wait_s, 0.50), "ms",
          queue_wait_s.size(), "complete_s - enqueue_s, open loop");
  out.Add("serve.timeout_close_frac", timeout_batches / std::max(batches, 1.0),
          "1", static_cast<uint64_t>(batches), "open loop");
  out.AddExact("serve.deploys", static_cast<double>(run_deploys), "count");
  out.Add("serve.deploy_ms_mean", 1e3 * Mean(deploy_s), "ms",
          deploy_s.size(), "wrapped DeployFn, setup and open loop");
  // Admission decisions follow measured panel times, so these are sampled.
  out.Add("serve.rejected", static_cast<double>(coordinator.rejected()),
          "count");
  out.Add("serve.shed", static_cast<double>(coordinator.shed()), "count");
  out.Add("obs.trace_overhead_frac",
          BestRate(plain_rates) / BestRate(traced_rates) - 1.0, "1",
          traced_ok, "untraced/traced 99th-percentile round q/s - 1");
  out.Add("bench.gen_lag_p99_ms", 1e3 * Quantile(lag_s, 0.99), "ms",
          lag_s.size(), "open-loop generator lateness");
  out.AddExact("bench.allocs_per_query",
               static_cast<double>(alloc_total) /
                   static_cast<double>(alloc_queries),
               "count");

  Ledger setup{"setup", "setup_s", "s", median_setup.total_s, {}, ""};
  setup.parts = {
      {"serve.pool_start_s", median_setup.pool_s, false, ""},
      {"serve.coordinator_ctor_s", median_setup.ctor_s, false, ""},
      {"serve.deploy_s", median_setup.deploy_s, false, ""},
      {"allocation.plan_s", plan_s, true, "serve.deploy_s"},
      {"coding.scheme_check_s", check_s, true, "serve.deploy_s"},
      {"coding.encode_s", encode_s, true, "serve.deploy_s"},
  };
  setup.unattributed_name = "serve.setup_unattributed_s";
  out.ledgers.push_back(setup);

  Ledger query{"query", "serve.flood_us_per_query", "us",
               1e6 * flood_traced_s / traced_q, {}, ""};
  query.parts = {
      {"serve.submit_us", 1e6 * flood_submit_s / traced_q, false, ""},
      {"serve.pump_us", 1e6 * flood_pump_s / traced_q, false, ""},
      {"linalg.serve_batch_us", 1e6 * flood_batch_s / (kHot * kFloodPerTenant),
       true, "serve.pump_us"},
  };
  query.unattributed_name = "serve.flood_unattributed_us";
  out.ledgers.push_back(query);
  out.notes.push_back(
      "replay = standalone call on the hot tenants' own matrices and inputs "
      "(min of 3); flood ledger: traced flood rounds, ServeBatch replayed at "
      "the flood width 32");
  return out;
}

}  // namespace pathbench
