// durable_journal: DurableCoordinator on the sim engine, a campus fleet of
// ~10 devices, m = 256, l = 64, double values, default group commit.
//
// Phases: `setup_s` (Deploy + Start) repeated kSetupReps times, then one
// closed-loop caller whose journal goes to an in-memory ring (no fsync
// path exists), then `restart_s`: a second coordinator journals a FIXED
// kJournalQueries queries, is killed by destroying it, and is restarted
// kRestartReps times from its snapshot and journal, each time up to the
// first answer. The journal length never depends on how fast the timed
// phase ran.

#include <algorithm>
#include <cstring>
#include <memory>
#include <ostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "coding/encoder.h"
#include "coding/security_check.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "core/planner.h"
#include "harness.h"
#include "linalg/matrix_ops.h"
#include "oracle.h"
#include "recovery/coordinator.h"
#include "recovery/journal.h"
#include "recovery/sealed_snapshot.h"
#include "sim/fault_tolerant_protocol.h"
#include "workload/device_profiles.h"

namespace pathbench {
namespace {

using scec::Matrix;
namespace recovery = scec::recovery;

constexpr size_t kFleet = 10;
constexpr uint64_t kFleetSeed = 20190707;
constexpr size_t kM = 256;
constexpr size_t kL = 64;
constexpr size_t kInputs = 64;
constexpr size_t kSetupReps = 15;
constexpr size_t kJournalQueries = 2000;  // fixed journal for restart_s
constexpr size_t kRestartReps = 7;
constexpr size_t kRingBytes = 4 << 20;
constexpr double kChunkS = 0.25;

// An in-memory journal sink of fixed size: bytes are copied in and
// overwritten cyclically, so a long closed loop costs the copy of every
// journal byte without holding them all.
class RingBuffer : public std::streambuf {
 public:
  RingBuffer() : buf_(kRingBytes) {}
  uint64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes_ += static_cast<uint64_t>(n);
    size_t left = static_cast<size_t>(n);
    while (left > 0) {
      const size_t chunk = std::min(left, buf_.size() - pos_);
      std::memcpy(buf_.data() + pos_, s, chunk);
      pos_ = (pos_ + chunk) % buf_.size();
      s += chunk;
      left -= chunk;
    }
    return n;
  }
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) {
      const char c = traits_type::to_char_type(ch);
      xsputn(&c, 1);
    }
    return traits_type::not_eof(ch);
  }

 private:
  std::vector<char> buf_;
  size_t pos_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace

Outcome RunDurableJournal(const Args& args, Tracer& tracer) {
  Outcome out;
  // The fleet, and so the plan and the work per query, is the same for
  // every seed; the seed draws A, the inputs and the pads.
  scec::Xoshiro256StarStar fleet_rng(kFleetSeed);
  scec::McscecProblem problem;
  problem.m = kM;
  problem.l = kL;
  problem.fleet = scec::MakeCampusFleet(kFleet, fleet_rng);
  const std::vector<scec::EdgeDevice> fleet = problem.fleet.devices();
  scec::ChaCha20Rng input_rng(args.seed);
  const Matrix<double> a = scec::RandomMatrix<double>(kM, kL, input_rng);
  std::vector<std::vector<double>> xs, want;
  for (size_t i = 0; i < kInputs; ++i) {
    xs.push_back(scec::RandomVector<double>(kL, input_rng));
    want.push_back(OracleMatVec(a, std::span<const double>(xs.back())));
  }
  std::mt19937_64 pick(args.seed ^ 0x9E3779B97F4A7C15ULL);
  const auto next_input = [&] { return static_cast<size_t>(pick() % kInputs); };

  recovery::DurableCoordinatorOptions options;
  options.sealing_key = args.seed ^ 0x5EA1EDu;
  options.seal_salt = args.seed;
  const uint64_t coding_seed = args.seed ^ 0xD0u;

  const auto check = [&](const scec::Result<std::vector<double>>& answer,
                         size_t input) {
    ++out.attempted;
    if (!answer.ok()) {
      ++out.failed;
      return false;
    }
    if (!Matches(std::span<const double>(*answer), want[input])) {
      ++out.failed;
      ++out.wrong;
      return false;
    }
    return true;
  };

  // --- setup_s: Deploy + Start from a cold start, kSetupReps times.
  struct SetupTimes {
    double total_s, deploy_s, start_s;
  };
  std::vector<SetupTimes> setups;
  RingBuffer ring;
  std::ostream ring_os(&ring);
  std::unique_ptr<recovery::DurableCoordinator> coordinator;
  {
    CpuRotation rotation;  // one CPU per rep; nothing here spawns threads
    for (size_t rep = 0; rep < kSetupReps; ++rep) {
      coordinator.reset();
      rotation.Next();
      ScopedSpan span(tracer, "recovery.cold_start");
      const double t0 = NowS();
      scec::ChaCha20Rng coding_rng(coding_seed);
      auto deployment = [&] {
        ScopedSpan deploy_span(tracer, "core.Deploy");
        return scec::Deploy(problem, a, coding_rng);
      }();
      SCEC_CHECK(deployment.ok()) << deployment.status();
      const double t1 = NowS();
      std::string snapshot;
      auto started = [&] {
        ScopedSpan start_span(tracer, "recovery.DurableCoordinator::Start");
        return recovery::DurableCoordinator::Start(*deployment, &a, fleet,
                                                   &snapshot, &ring_os, options);
      }();
      SCEC_CHECK(started.ok()) << started.status();
      const double t2 = NowS();
      coordinator = std::move(started).value();
      setups.push_back({t2 - t0, t1 - t0, t2 - t1});
    }
  }

  // Setup replays run next to the setup reps they break down.
  double plan_s = 0.0, check_s = 0.0, encode_s = 0.0;
  if (args.trace) {
    ScopedSpan replay_span(tracer, "replay");
    auto plan = scec::PlanMcscec(problem);
    SCEC_CHECK(plan.ok());
    plan_s = MinSeconds(tracer, "allocation.PlanMcscec", [&] {
      SCEC_CHECK(scec::PlanMcscec(problem).ok());
    });
    const scec::StructuredCode code(kM, plan->allocation.r);
    check_s = MinSeconds(tracer, "coding.CheckSchemeSecure", [&] {
      SCEC_CHECK(scec::CheckSchemeSecure(code, plan->scheme).ok());
    });
    encode_s = MinSeconds(tracer, "coding.EncodeDeployment", [&] {
      scec::ChaCha20Rng rng(coding_seed);
      (void)scec::EncodeDeployment(code, plan->scheme, a, rng);
    });
  }

  // --- Closed loop, one caller, in kChunkS chunks, each on the next CPU
  // (see CpuRotation), summarised over kWindowQueries-answer windows (see
  // BestRate()). The traced run alternates untraced and traced chunks to
  // measure the tracing overhead.
  const double closed_s = 0.7 * args.seconds;
  std::vector<double> all_latency_s, lag_s;
  std::vector<double> plain_rates, traced_rates;
  uint64_t plain_ok = 0, traced_ok = 0;
  const uint64_t ring_bytes0 = ring.bytes();
  {
    CpuRotation rotation;
    const double end = NowS() + closed_s;
    bool traced = false;
    double prev_end = NowS();
    uint64_t id = 0;
    while (NowS() < end) {
      traced = args.trace && !traced;
      tracer.set_enabled(traced);
      rotation.Next();
      const double chunk_end = std::min(end, NowS() + kChunkS);
      std::vector<double> stamps{NowS()};
      std::vector<double> latency_s;
      uint64_t ok = 0;
      while (NowS() < chunk_end) {
        const size_t input = next_input();
        ScopedSpan span(tracer, "recovery.DurableCoordinator::Query", ++id);
        const double q0 = NowS();
        lag_s.push_back(q0 - prev_end);
        auto answer = coordinator->Query(xs[input]);
        prev_end = NowS();
        stamps.push_back(prev_end);
        latency_s.push_back(prev_end - q0);
        ok += check(answer, input) ? 1 : 0;
      }
      AppendWindowRates(stamps, traced ? &traced_rates : &plain_rates);
      (traced ? traced_ok : plain_ok) += ok;
      if (traced) continue;
      all_latency_s.insert(all_latency_s.end(), latency_s.begin(),
                           latency_s.end());
    }
    tracer.set_enabled(args.trace);
  }
  const uint64_t ring_bytes = ring.bytes() - ring_bytes0;
  coordinator.reset();

  // --- A fixed journal of kJournalQueries queries. Its counts are exact,
  // and its per-query time is the total of the traced run's query ledger,
  // whose replays run on the same queries.
  scec::ChaCha20Rng coding_rng(coding_seed);
  const auto deployment = scec::Deploy(problem, a, coding_rng);
  SCEC_CHECK(deployment.ok());
  std::string snapshot;
  std::ostringstream journal_os;
  uint64_t journal_events = 0, journal_commits = 0, journal_allocs = 0;
  double journal_query_s = 0.0;  // summed Query calls of the fixed run
  {
    auto fixed = recovery::DurableCoordinator::Start(
        *deployment, &a, fleet, &snapshot, &journal_os, options);
    SCEC_CHECK(fixed.ok());
    tracer.set_enabled(false);
    const uint64_t a0 = ThreadAllocs();
    for (size_t q = 0; q < kJournalQueries; ++q) {
      const size_t input = q % kInputs;
      const double q0 = NowS();
      auto answer = (*fixed)->Query(xs[input]);
      journal_query_s += NowS() - q0;
      check(answer, input);
    }
    journal_allocs = ThreadAllocs() - a0;
    tracer.set_enabled(args.trace);
    (*fixed)->journal().Commit();
    journal_events = (*fixed)->journal().events_appended();
    journal_commits = (*fixed)->journal().commits();
  }  // the kill: the coordinator is destroyed
  const std::string journal = journal_os.str();

  auto loaded = recovery::LoadJournal(journal);
  SCEC_CHECK(loaded.ok());
  // Query replays run right after the fixed run, on its queries and events.
  double append_s = 0.0, plain_total_s = 0.0;
  if (args.trace) {
    ScopedSpan replay_span(tracer, "replay");
    append_s = MinSeconds(tracer, "recovery.QueryJournal::Append", [&] {
      RingBuffer sink;
      std::ostream sink_os(&sink);
      recovery::QueryJournal rejournal(&sink_os, loaded->snapshot_crc,
                                       options.group_commit_records);
      for (const auto& event : loaded->events) rejournal.Append(event);
      rejournal.Commit();
    });
    // The same queries on a bare FaultTolerantScecProtocol: no journal.
    scec::sim::FaultTolerantScecProtocol plain(&*deployment, &a, fleet,
                                               options.sim, options.ft);
    plain.Stage();
    plain_total_s = MinSeconds(tracer, "sim.RunQuery", [&] {
      for (size_t q = 0; q < kJournalQueries; ++q) {
        SCEC_CHECK(plain.RunQuery(xs[q % kInputs]).ok());
      }
    });
  }

  // --- restart_s: Restart on the fixed journal, up to the first answer.
  struct RestartTimes {
    double total_s, restart_call_s, first_answer_s;
  };
  std::vector<RestartTimes> restarts;
  for (size_t rep = 0; rep < kRestartReps; ++rep) {
    std::ostringstream tail;
    ScopedSpan span(tracer, "recovery.restart");
    const double t0 = NowS();
    auto restarted = [&] {
      ScopedSpan restart_span(tracer, "recovery.DurableCoordinator::Restart");
      return recovery::DurableCoordinator::Restart(snapshot, journal, &a,
                                                   fleet, &tail, options);
    }();
    const double t1 = NowS();
    SCEC_CHECK(restarted.ok()) << restarted.status();
    SCEC_CHECK_EQ((*restarted)->replay().completed.size(), kJournalQueries);
    const size_t input = next_input();
    auto answer = [&] {
      ScopedSpan query_span(tracer, "recovery.DurableCoordinator::Query");
      return (*restarted)->Query(xs[input]);
    }();
    const double t2 = NowS();
    check(answer, input);
    restarts.push_back({t2 - t0, t1 - t0, t2 - t1});
  }

  const auto by_total = [](const auto& x, const auto& y) {
    return x.total_s < y.total_s;
  };
  std::sort(setups.begin(), setups.end(), by_total);
  std::sort(restarts.begin(), restarts.end(), by_total);
  const SetupTimes& median_setup = setups[setups.size() / 2];
  const RestartTimes& median_restart = restarts[restarts.size() / 2];

  if (!args.trace) {
    out.Add("setup_s", median_setup.total_s, "s", setups.size(),
            "median cold start: Deploy + Start");
    out.Add("throughput_qps", BestRate(plain_rates), "1/s", plain_ok,
            "one closed-loop caller; 99th percentile of 16-answer windows");
    out.Add("latency_p50_ms", 1e3 * BestLatency(WindowMedians(all_latency_s)),
            "ms", all_latency_s.size(),
            "per call, closed loop; 1st percentile of 16-call window "
            "medians");
    out.Add("latency_p99_ms", 1e3 * Quantile(all_latency_s, 0.99), "ms",
            all_latency_s.size(), "per call, closed loop");
    out.Add("restart_s", median_restart.total_s, "s", restarts.size(),
            "median Restart on a " + std::to_string(kJournalQueries) +
                "-query journal up to the first answer");
    out.Add("fail_frac",
            static_cast<double>(out.failed) /
                static_cast<double>(out.attempted),
            "1", out.attempted, "all phases");
    out.Add("bench.gen_lag_p99_ms", 1e3 * Quantile(lag_s, 0.99), "ms",
            lag_s.size(), "closed loop: answer to next call");
    return out;
  }

  // --- Traced run: replays on this run's deployment, journal and inputs.
  ScopedSpan replay_span(tracer, "replay");
  const double load_s = MinSeconds(tracer, "recovery.LoadJournal", [&] {
    SCEC_CHECK(recovery::LoadJournal(journal).ok());
  });
  const double fold_s = MinSeconds(tracer, "recovery.BuildReplayState", [&] {
    SCEC_CHECK(recovery::BuildReplayState(*loaded).ok());
  });
  const double unseal_s =
      MinSeconds(tracer, "recovery.LoadSealedDeploymentDouble", [&] {
        std::istringstream is(snapshot);
        SCEC_CHECK(recovery::LoadSealedDeploymentDouble(is, options.sealing_key)
                       .ok());
      });
  const double nq = static_cast<double>(kJournalQueries);
  const double durable_us = 1e6 * journal_query_s / nq;
  const double plain_us = 1e6 * plain_total_s / nq;
  const double append_us = 1e6 * append_s / nq;

  out.Add("allocation.plan_us", 1e6 * plan_s, "us", 0, "replay");
  out.Add("coding.scheme_check_s", check_s, "s", 0, "replay");
  out.Add("coding.encode_s", encode_s, "s", 0, "replay");
  out.Add("recovery.start_ms", 1e3 * median_setup.start_s, "ms");
  out.Add("recovery.append_us_per_query", append_us, "us", kJournalQueries,
          "replay: re-Append of the fixed journal's events to a ring sink");
  out.AddExact("recovery.journal_bytes_per_query",
               static_cast<double>(journal.size()) / nq, "B");
  out.AddExact("recovery.journal_events_per_query",
               static_cast<double>(journal_events) / nq, "count");
  out.AddExact("recovery.commits_per_query",
               static_cast<double>(journal_commits) / nq, "count");
  out.Add("sim.plain_query_us", plain_us, "us", kJournalQueries,
          "same queries on a bare FaultTolerantScecProtocol");
  out.Add("recovery.journal_overhead", durable_us / plain_us - 1.0, "1", 0,
          "durable per-call us / plain us - 1; base: plain = " +
              std::to_string(plain_us) + " us");
  out.AddExact("recovery.allocs_per_query",
               static_cast<double>(journal_allocs) / nq, "count");
  out.Add("recovery.load_journal_ms", 1e3 * load_s, "ms", 0, "replay");
  out.Add("recovery.load_MBps",
          static_cast<double>(journal.size()) / 1e6 / load_s, "MB/s");
  out.Add("recovery.replay_fold_ms", 1e3 * fold_s, "ms", 0, "replay");
  out.Add("recovery.unseal_ms", 1e3 * unseal_s, "ms", 0, "replay");
  out.Add("recovery.ring_journal_bytes_per_query",
          static_cast<double>(ring_bytes) /
              static_cast<double>(plain_ok + traced_ok),
          "B", 0, "closed loop");
  out.Add("obs.trace_overhead_frac",
          BestRate(plain_rates) / BestRate(traced_rates) - 1.0, "1",
          traced_ok, "untraced/traced 99th-percentile window q/s - 1");
  out.Add("bench.gen_lag_p99_ms", 1e3 * Quantile(lag_s, 0.99), "ms",
          lag_s.size(), "closed loop: answer to next call");
  out.AddExact("bench.allocs_per_query",
               static_cast<double>(journal_allocs) / nq, "count");

  Ledger setup{"setup", "setup_s", "s", median_setup.total_s, {}, ""};
  setup.parts = {
      {"core.deploy_s", median_setup.deploy_s, false, ""},
      {"allocation.plan_s", plan_s, true, "core.deploy_s"},
      {"coding.scheme_check_s", check_s, true, "core.deploy_s"},
      {"coding.encode_s", encode_s, true, "core.deploy_s"},
      {"recovery.start_s", median_setup.start_s, false, ""},
  };
  setup.unattributed_name = "recovery.setup_unattributed_s";
  out.ledgers.push_back(setup);

  Ledger query{"query", "recovery.durable_query_us", "us", durable_us, {}, ""};
  query.parts = {
      {"sim.plain_query_us", plain_us, true, ""},
      {"recovery.append_us", append_us, true, ""},
  };
  query.unattributed_name = "recovery.query_unattributed_us";
  out.ledgers.push_back(query);

  Ledger restart{"restart", "restart_s", "ms", 1e3 * median_restart.total_s,
                 {}, ""};
  restart.parts = {
      {"recovery.load_journal_ms", 1e3 * load_s, true, ""},
      {"recovery.replay_fold_ms", 1e3 * fold_s, true, ""},
      {"recovery.unseal_ms", 1e3 * unseal_s, true, ""},
      {"recovery.first_answer_ms", 1e3 * median_restart.first_answer_s, false,
       ""},
  };
  restart.unattributed_name = "recovery.restart_unattributed_ms";
  out.ledgers.push_back(restart);
  out.notes.push_back(
      "replay = standalone call on this run's deployment, journal and inputs "
      "(min of 3), not the interval inside the measured call");
  return out;
}

}  // namespace pathbench
