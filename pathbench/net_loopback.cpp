// net_loopback: NetCoordinator over SocketTransport to four in-process
// scecd daemons on loopback TCP, m = 1024, l = 256, double values.
//
// Phases: `setup_s` repeated kSetupReps times from a cold start (daemons
// up, transport connected, Setup), then rounds of an open loop at 500 q/s
// timed from each query's due time and a closed loop with one caller,
// with the whole process on one CPU at a time. The open-loop rate is about
// a quarter of the closed-loop rate there (~2k q/s on a 4-vCPU VM), where
// an open-loop query takes ~0.6 ms. The traced run wraps the transport in
// a timing decorator, alternates untraced and traced closed-loop chunks to
// measure the tracing overhead, and replays each layer's public entry
// point on the run's inputs.

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "coding/decoder.h"
#include "coding/encoder.h"
#include "coding/result_verify.h"
#include "coding/security_check.h"
#include "common/rng.h"
#include "core/planner.h"
#include "core/problem.h"
#include "harness.h"
#include "linalg/matrix_ops.h"
#include "net/driver.h"
#include "net/scecd.h"
#include "net/socket_transport.h"
#include "oracle.h"

namespace pathbench {
namespace {

namespace net = scec::net;
using scec::Matrix;

constexpr size_t kDevices = 4;
constexpr size_t kM = 1024;
constexpr size_t kL = 256;
constexpr size_t kInputs = 64;          // distinct x vectors per run
constexpr double kOpenRateQps = 500.0;
constexpr double kOpenWindowS = 0.5;    // ~250 arrivals per window
constexpr size_t kChunksPerRound = 2;
constexpr double kChunkS = 0.25;        // closed-loop chunk
constexpr double kRoundS = kOpenWindowS + kChunksPerRound * kChunkS;
constexpr double kLimitS = 2e-3;        // in-budget limit per query
constexpr size_t kSetupReps = 9;
constexpr size_t kAllocQueries = 512;   // fixed segment for exact counts
constexpr size_t kRingSize = 1 << 12;   // submit-time slots by rpc id

std::vector<scec::EdgeDevice> Specs() {
  std::vector<scec::EdgeDevice> specs;
  for (size_t d = 0; d < kDevices; ++d) {
    scec::EdgeDevice device;
    device.name = "edge-" + std::to_string(d);
    device.costs.comm = 1.0 + 0.1 * static_cast<double>(d);
    specs.push_back(device);
  }
  return specs;
}

net::NetCoordinatorOptions CoordinatorOptions() {
  net::NetCoordinatorOptions options;
  options.rpc_deadline_s = 1.0;  // ~3000x the loopback round trip
  options.record_trace = false;
  return options;
}

// Times every call into the wrapped transport. With timing off it only
// forwards, except that it always counts the allocations PollInto makes on
// the caller's thread: how completions batch into polls is a timing
// property, so those are kept out of the exact per-query count.
class TimedTransport final : public net::Transport {
 public:
  struct Tally {
    double submit_s = 0.0;
    double poll_s = 0.0;
    double other_s = 0.0;  // Cancel + AddAlarm
    double stage_s = 0.0;
    double first_stage_at = -1.0;  // start of the first StageShare
    double last_stage_end = -1.0;
    uint64_t polls = 0;
    uint64_t poll_allocs = 0;
    std::vector<double> rtt_s;     // submit -> completion, per response
    std::vector<double> spread_s;  // last - first response, per query
  };

  TimedTransport(net::Transport* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer), submitted_at_(kRingSize, -1.0) {}

  void set_timing(bool on) {
    timing_ = on;
    tracer_->set_enabled(on);
  }
  Tally& tally() { return tally_; }

  void BeginQuery() { first_response_s_ = last_response_s_ = -1.0; }
  void EndQuery() {
    if (timing_ && first_response_s_ >= 0.0) {
      tally_.spread_s.push_back(last_response_s_ - first_response_s_);
    }
  }

  size_t num_devices() const override { return inner_->num_devices(); }
  double Now() const override { return inner_->Now(); }

  scec::Status StageShare(size_t device, uint64_t share_id,
                          const Matrix<double>& rows) override {
    const double t0 = NowS();
    scec::Status status = inner_->StageShare(device, share_id, rows);
    const double t1 = NowS();
    tally_.stage_s += t1 - t0;
    if (tally_.first_stage_at < 0.0) tally_.first_stage_at = t0;
    tally_.last_stage_end = t1;
    tracer_->Add("net.StageShare", t0, t1);
    return status;
  }

  uint64_t SubmitQuery(size_t device, uint64_t share_id,
                       const std::vector<double>& x, double deadline_s,
                       double start_delay_s) override {
    if (!timing_) {
      return inner_->SubmitQuery(device, share_id, x, deadline_s,
                                 start_delay_s);
    }
    const double t0 = NowS();
    const uint64_t id =
        inner_->SubmitQuery(device, share_id, x, deadline_s, start_delay_s);
    const double t1 = NowS();
    tally_.submit_s += t1 - t0;
    submitted_at_[id % kRingSize] = t0;
    tracer_->Add("net.SubmitQuery", t0, t1);
    return id;
  }

  uint64_t AddAlarm(double delay_s) override {
    if (!timing_) return inner_->AddAlarm(delay_s);
    const double t0 = NowS();
    const uint64_t id = inner_->AddAlarm(delay_s);
    const double t1 = NowS();
    tally_.other_s += t1 - t0;
    tracer_->Add("net.AddAlarm", t0, t1);
    return id;
  }

  bool Cancel(uint64_t id) override {
    if (!timing_) return inner_->Cancel(id);
    const double t0 = NowS();
    const bool cancelled = inner_->Cancel(id);
    const double t1 = NowS();
    tally_.other_s += t1 - t0;
    tracer_->Add("net.Cancel", t0, t1);
    return cancelled;
  }

  size_t PollInto(std::vector<net::Completion>* out,
                  double max_wait_s) override {
    const size_t before = out->size();
    const uint64_t allocs0 = ThreadAllocs();
    const double t0 = timing_ ? NowS() : 0.0;
    const size_t n = inner_->PollInto(out, max_wait_s);
    tally_.poll_allocs += ThreadAllocs() - allocs0;
    if (!timing_) return n;
    const double t1 = NowS();
    tally_.poll_s += t1 - t0;
    ++tally_.polls;
    tracer_->Add("net.PollInto", t0, t1);
    for (size_t i = before; i < out->size(); ++i) {
      const net::Completion& c = (*out)[i];
      if (c.kind != net::Completion::Kind::kResponse) continue;
      double& at = submitted_at_[c.id % kRingSize];
      if (at >= 0.0) tally_.rtt_s.push_back(t1 - at);
      at = -1.0;
      if (first_response_s_ < 0.0) first_response_s_ = t1;
      last_response_s_ = t1;
    }
    return n;
  }

  const net::NetTransportStats& stats() const override {
    return inner_->stats();
  }
  scec::Status Drain(double timeout_s) override {
    return inner_->Drain(timeout_s);
  }

 private:
  net::Transport* inner_;
  Tracer* tracer_;
  bool timing_ = false;
  std::vector<double> submitted_at_;
  double first_response_s_ = -1.0;
  double last_response_s_ = -1.0;
  Tally tally_;
};

struct SetupTimes {
  double total_s = 0.0;
  double daemons_s = 0.0;
  double transport_s = 0.0;    // SocketTransport constructed (connects async)
  double coordinator_s = 0.0;  // NetCoordinator constructed (copies A)
  // NetCoordinator::Setup, made up of:
  double prestage_s = 0.0;     //   Setup start -> first StageShare
  double stage_s = 0.0;        //   StageShare calls, incl. the connect wait
  double poststage_s = 0.0;    //   last StageShare -> Setup return
};

// One cold-started cluster. Members are torn down coordinator first,
// daemons last.
struct Cluster {
  std::vector<std::unique_ptr<net::ScecDaemon>> daemons;
  std::unique_ptr<net::SocketTransport> socket;
  std::unique_ptr<TimedTransport> timed;
  std::unique_ptr<net::NetCoordinator> coordinator;

  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() {
    coordinator.reset();
    if (socket != nullptr) (void)socket->Drain(1.0);
    timed.reset();
    socket.reset();
    for (auto& daemon : daemons) daemon->Stop();
  }
};

scec::Status StartCluster(const Matrix<double>& a, Tracer& tracer,
                          bool timing, Cluster* cluster, SetupTimes* times) {
  ScopedSpan span(tracer, "net.cold_start");
  const double t0 = NowS();
  for (size_t d = 0; d < kDevices; ++d) {
    auto daemon =
        std::make_unique<net::ScecDaemon>(net::ScecdOptions{.daemon_id = d});
    SCEC_RETURN_IF_ERROR(daemon->Start());
    cluster->daemons.push_back(std::move(daemon));
  }
  const double t1 = NowS();
  std::vector<uint16_t> ports;
  for (const auto& daemon : cluster->daemons) ports.push_back(daemon->port());
  cluster->socket = std::make_unique<net::SocketTransport>(
      ports, net::SocketTransportOptions{});
  cluster->timed =
      std::make_unique<TimedTransport>(cluster->socket.get(), &tracer);
  cluster->timed->set_timing(timing);
  const double t2 = NowS();
  cluster->coordinator = std::make_unique<net::NetCoordinator>(
      a, scec::DeviceFleet(Specs()), CoordinatorOptions());
  const double t3 = NowS();
  scec::Status status;
  {
    ScopedSpan setup_span(tracer, "net.NetCoordinator::Setup");
    status = cluster->coordinator->Setup(cluster->timed.get());
  }
  const double t4 = NowS();
  tracer.Add("net.daemons_start", t0, t1);
  tracer.Add("net.SocketTransport()", t1, t2);
  tracer.Add("net.NetCoordinator()", t2, t3);
  times->daemons_s = t1 - t0;
  times->transport_s = t2 - t1;
  times->coordinator_s = t3 - t2;
  const TimedTransport::Tally& tally = cluster->timed->tally();
  times->prestage_s = tally.first_stage_at - t3;
  times->stage_s = tally.stage_s;
  times->poststage_s = t4 - tally.last_stage_end;
  times->total_s = t4 - t0;
  return status;
}

// Standalone replays of each layer's public entry point on this run's
// inputs: the same problem, matrix, pad and digest seeds as Setup uses.
struct Replays {
  double plan_s = 0.0;
  double scheme_check_s = 0.0;
  double encode_s = 0.0;
  double verifier_create_s = 0.0;
  double cumulative_its_s = 0.0;
  double verify_per_query_s = 0.0;
  double decode_per_query_s = 0.0;
};

Replays ReplayLayers(const Matrix<double>& a,
                     const std::vector<std::vector<double>>& xs,
                     const net::NetCoordinator& coordinator, Tracer& tracer) {
  ScopedSpan span(tracer, "replay");
  const net::NetCoordinatorOptions options = CoordinatorOptions();
  scec::McscecProblem problem;
  problem.m = kM;
  problem.l = kL;
  problem.fleet = scec::DeviceFleet(Specs());
  Replays r;
  scec::Result<scec::Plan> plan = scec::PlanMcscec(problem, options.algorithm);
  SCEC_CHECK(plan.ok()) << plan.status();
  r.plan_s = MinSeconds(tracer, "allocation.PlanMcscec", [&] {
    SCEC_CHECK(scec::PlanMcscec(problem, options.algorithm).ok());
  });
  const scec::StructuredCode code(kM, plan->allocation.r);
  r.scheme_check_s = MinSeconds(tracer, "coding.CheckSchemeSecure", [&] {
    SCEC_CHECK(scec::CheckSchemeSecure(code, plan->scheme).ok());
  });
  scec::EncodedDeployment<double> encoded;
  r.encode_s = MinSeconds(tracer, "coding.EncodeDeployment", [&] {
    scec::ChaCha20Rng pads(options.pad_seed);
    encoded = scec::EncodeDeployment(code, plan->scheme, a, pads);
  });
  scec::ResultVerifier<double> verifier;
  r.verifier_create_s =
      MinSeconds(tracer, "coding.ResultVerifier::Create", [&] {
    scec::ChaCha20Rng digests(options.digest_seed);
    verifier = scec::ResultVerifier<double>::Create(encoded.shares, digests,
                                                    options.num_digests);
  });
  r.cumulative_its_s = MinSeconds(tracer, "coding.CumulativeViewsSecure", [&] {
    SCEC_CHECK(coordinator.CumulativeViewsSecure());
  });

  // Per-query verify and decode on the run's own x vectors. The device
  // answers are computed here (untimed) from the replayed shares.
  std::vector<std::vector<std::vector<double>>> answers(xs.size());
  std::vector<std::vector<double>> stacked(xs.size());
  for (size_t q = 0; q < xs.size(); ++q) {
    for (const auto& share : encoded.shares) {
      answers[q].push_back(
          OracleMatVec(share.coded_rows, std::span<const double>(xs[q])));
      stacked[q].insert(stacked[q].end(), answers[q].back().begin(),
                        answers[q].back().end());
    }
  }
  const double per = 1.0 / static_cast<double>(xs.size());
  r.verify_per_query_s =
      per * MinSeconds(tracer, "coding.ResultVerifier::Check", [&] {
    for (size_t q = 0; q < xs.size(); ++q) {
      for (size_t slot = 0; slot < answers[q].size(); ++slot) {
        SCEC_CHECK(verifier.Check(slot, std::span<const double>(xs[q]),
                                  std::span<const double>(answers[q][slot])));
      }
    }
  });
  r.decode_per_query_s =
      per * MinSeconds(tracer, "coding.SubtractionDecode", [&] {
    for (size_t q = 0; q < xs.size(); ++q) {
      const auto decoded = scec::SubtractionDecode(
          code, std::span<const double>(stacked[q]));
      SCEC_CHECK_EQ(decoded.size(), kM);
    }
  });
  return r;
}

}  // namespace

Outcome RunNetLoopback(const Args& args, Tracer& tracer) {
  Outcome out;
  scec::ChaCha20Rng input_rng(args.seed);
  const Matrix<double> a =
      scec::RandomMatrix<double>(kM, kL, input_rng);
  std::vector<std::vector<double>> xs;
  std::vector<std::vector<double>> want;
  for (size_t i = 0; i < kInputs; ++i) {
    xs.push_back(scec::RandomVector<double>(kL, input_rng));
    want.push_back(OracleMatVec(a, std::span<const double>(xs.back())));
  }
  std::mt19937_64 pick(args.seed ^ 0x9E3779B97F4A7C15ULL);
  const auto next_input = [&] { return static_cast<size_t>(pick() % kInputs); };

  // --- setup_s: kSetupReps cold starts; the last cluster serves queries.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Cluster> cluster;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    cluster = std::make_unique<Cluster>();
    SetupTimes times;
    const scec::Status status =
        StartCluster(a, tracer, args.trace, cluster.get(), &times);
    if (!status.ok()) {
      out.notes.push_back("setup failed: " + status.ToString());
      out.attempted = out.failed = 1;
      return out;
    }
    setups.push_back(times);
    if (rep + 1 < kSetupReps) cluster.reset();
  }
  net::NetCoordinator& coordinator = *cluster->coordinator;
  TimedTransport& timed = *cluster->timed;
  // Replays run next to the setup reps they break down.
  const Replays rep =
      args.trace ? ReplayLayers(a, xs, coordinator, tracer) : Replays{};

  const auto run_query = [&](size_t input, uint64_t id) {
    ScopedSpan span(tracer, "net.NetCoordinator::Query", id);
    timed.BeginQuery();
    auto answer = coordinator.Query(xs[input]);
    timed.EndQuery();
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

  // --- Exact per-query counts: a fixed segment, timing off.
  timed.set_timing(false);
  const net::NetCoordinatorStats stats0 = coordinator.stats();
  const net::NetTransportStats tstats0 = cluster->socket->stats();
  const uint64_t poll_allocs0 = timed.tally().poll_allocs;
  const uint64_t allocs0 = ThreadAllocs();
  for (size_t q = 0; q < kAllocQueries; ++q) run_query(next_input(), 0);
  const uint64_t caller_allocs = ThreadAllocs() - allocs0 -
                                 (timed.tally().poll_allocs - poll_allocs0);
  const net::NetCoordinatorStats stats1 = coordinator.stats();
  const net::NetTransportStats tstats1 = cluster->socket->stats();

  // --- Rounds of an open-loop window (Poisson arrivals at kOpenRateQps,
  // each query timed from its due time) and a closed-loop segment (one
  // caller, in kChunkS chunks; the traced run alternates untraced and
  // traced chunks). Interleaving lets both loops sample the same host
  // conditions. The whole process, caller, transport and daemons, runs on
  // one CPU at a time and moves to the next for every window and chunk
  // (see CpuRotation); see BestRate() for how the windows are summarised.
  const size_t rounds =
      std::max<size_t>(1, static_cast<size_t>(args.seconds / kRoundS));
  std::vector<double> open_latency_s, lag_s;
  std::vector<double> plain_rates, traced_rates;
  size_t open_attempted = 0, in_budget = 0;
  uint64_t plain_ok = 0, traced_ok = 0;
  std::vector<double> traced_query_s;
  double submit_s = 0.0, poll_s = 0.0, other_s = 0.0;
  uint64_t polls = 0;
  std::exponential_distribution<double> gap(kOpenRateQps);
  std::mt19937_64 arrivals(args.seed * 31 + 7);
  uint64_t id = 0;
  {
    CpuRotation rotation(CpuRotation::Scope::kProcess);
    for (size_t round = 0; round < rounds; ++round) {
      timed.set_timing(args.trace);
      rotation.Next();
      std::vector<double> window_s;
      const double start = NowS() + 0.001;
      double prev_end = start;
      for (double due = gap(arrivals); due < kOpenWindowS;
           due += gap(arrivals)) {
        const double due_at = start + due;
        SleepUntil(due_at);
        lag_s.push_back(NowS() - std::max(due_at, prev_end));
        const bool ok = run_query(next_input(), ++id);
        prev_end = NowS();
        ++open_attempted;
        const double latency = prev_end - due_at;
        if (!ok) continue;
        window_s.push_back(latency);
        if (latency <= kLimitS) ++in_budget;
      }
      open_latency_s.insert(open_latency_s.end(), window_s.begin(),
                            window_s.end());

      bool traced = false;
      for (size_t chunk = 0; chunk < kChunksPerRound; ++chunk) {
        traced = args.trace && !traced;
        timed.set_timing(traced);
        rotation.Next();
        const TimedTransport::Tally before = timed.tally();
        std::vector<double> stamps{NowS()};
        const double chunk_end = stamps.front() + kChunkS;
        uint64_t ok = 0;
        while (NowS() < chunk_end) {
          const double q0 = NowS();
          ok += run_query(next_input(), 0) ? 1 : 0;
          stamps.push_back(NowS());
          if (traced) traced_query_s.push_back(stamps.back() - q0);
        }
        AppendWindowRates(stamps, traced ? &traced_rates : &plain_rates);
        (traced ? traced_ok : plain_ok) += ok;
        if (!traced) continue;
        const TimedTransport::Tally& after = timed.tally();
        submit_s += after.submit_s - before.submit_s;
        poll_s += after.poll_s - before.poll_s;
        other_s += after.other_s - before.other_s;
        polls += after.polls - before.polls;
      }
    }
  }
  timed.set_timing(false);

  std::sort(setups.begin(), setups.end(),
            [](const SetupTimes& x, const SetupTimes& y) {
              return x.total_s < y.total_s;
            });
  const SetupTimes& median_setup = setups[setups.size() / 2];

  if (!args.trace) {
    out.Add("setup_s", median_setup.total_s, "s", setups.size(),
            "median cold start: daemons up, transport connected, Setup");
    out.Add("throughput_qps", BestRate(plain_rates), "1/s", plain_ok,
            "one closed-loop caller; 99th percentile of 16-answer windows");
    out.Add("latency_p50_ms", 1e3 * BestLatency(WindowMedians(open_latency_s)),
            "ms", open_latency_s.size(),
            "open loop at 500 q/s from due time; 1st percentile of "
            "16-arrival window medians");
    out.Add("latency_p99_ms", 1e3 * Quantile(open_latency_s, 0.99), "ms",
            open_latency_s.size(), "open loop at 500 q/s from due time");
    out.Add("in_budget_frac",
            static_cast<double>(in_budget) /
                static_cast<double>(open_attempted),
            "1", open_attempted, "open-loop answers correct within 2 ms");
    out.Add("fail_frac",
            static_cast<double>(out.failed) /
                static_cast<double>(out.attempted),
            "1", out.attempted, "all phases");
    out.Add("bench.gen_lag_p99_ms", 1e3 * Quantile(lag_s, 0.99), "ms",
            lag_s.size(), "open-loop generator lateness");
    return out;
  }

  // --- Traced run: replays and the per-layer metrics.
  const TimedTransport::Tally& tally = timed.tally();
  const double nq = static_cast<double>(traced_query_s.size());
  const double query_us = 1e6 * Mean(traced_query_s);
  const double submit_us = 1e6 * submit_s / nq;
  const double poll_us = 1e6 * poll_s / nq;
  const double other_us = 1e6 * other_s / nq;
  const double self_us = query_us - submit_us - poll_us - other_us;
  const double fixed_q = static_cast<double>(stats1.queries - stats0.queries);
  const net::NetCoordinatorStats& stats = coordinator.stats();

  out.Add("allocation.plan_us", 1e6 * rep.plan_s, "us", 0, "replay");
  out.Add("coding.scheme_check_s", rep.scheme_check_s, "s", 0, "replay");
  out.Add("coding.encode_s", rep.encode_s, "s", 0, "replay");
  out.Add("coding.verifier_create_s", rep.verifier_create_s, "s", 0, "replay");
  out.Add("coding.cumulative_its_s", rep.cumulative_its_s, "s", 0, "replay");
  out.Add("net.stage_s", median_setup.stage_s, "s", 0,
          "StageShare calls inside Setup, incl. the first connect");
  out.Add("net.stage_MBps",
          stats.staged_value_bytes / 1e6 / median_setup.stage_s, "MB/s");
  out.Add("net.submit_us_per_query", submit_us, "us", traced_query_s.size());
  out.Add("net.poll_wait_us_per_query", poll_us, "us", traced_query_s.size(),
          "blocked in PollInto: daemon compute + loopback");
  out.Add("net.driver_self_us_per_query", self_us, "us",
          traced_query_s.size(), "Query minus transport calls");
  out.Add("coding.verify_us_per_query", 1e6 * rep.verify_per_query_s, "us",
          kInputs, "replay of ResultVerifier::Check");
  out.Add("coding.decode_us_per_query", 1e6 * rep.decode_per_query_s, "us",
          kInputs, "replay of SubtractionDecode");
  out.Add("net.polls_per_query", static_cast<double>(polls) / nq, "count");
  out.AddExact("net.allocs_per_query",
               static_cast<double>(caller_allocs) / fixed_q, "count");
  out.Add("net.rpc_rtt_p50_us", 1e6 * Quantile(tally.rtt_s, 0.50), "us",
          tally.rtt_s.size());
  out.Add("net.rpc_rtt_p99_us", 1e6 * Quantile(tally.rtt_s, 0.99), "us",
          tally.rtt_s.size());
  out.Add("net.fanout_spread_p99_us", 1e6 * Quantile(tally.spread_s, 0.99),
          "us", tally.spread_s.size());
  out.Add("net.retries", static_cast<double>(stats.retries), "count");
  out.Add("net.timeouts", static_cast<double>(stats.timeouts), "count");
  out.AddExact("net.dispatches_per_query",
               static_cast<double>(stats1.dispatches - stats0.dispatches) /
                   fixed_q,
               "count");
  out.AddExact("net.query_bytes_per_query",
               static_cast<double>(tstats1.query_value_bytes_sent -
                                   tstats0.query_value_bytes_sent) /
                   fixed_q,
               "B");
  out.AddExact("net.response_bytes_per_query",
               static_cast<double>(tstats1.response_value_bytes_delivered -
                                   tstats0.response_value_bytes_delivered) /
                   fixed_q,
               "B");
  out.AddExact("net.staged_bytes", stats.staged_value_bytes, "B");
  out.Add("obs.trace_overhead_frac",
          BestRate(plain_rates) / BestRate(traced_rates) - 1.0, "1",
          traced_ok, "untraced/traced 99th-percentile window q/s - 1");
  out.Add("bench.gen_lag_p99_ms", 1e3 * Quantile(lag_s, 0.99), "ms",
          lag_s.size(), "open-loop generator lateness");
  out.AddExact("bench.allocs_per_query",
               static_cast<double>(caller_allocs) / fixed_q, "count");

  Ledger setup{"setup", "setup_s", "s", median_setup.total_s, {}, ""};
  // In-place intervals add up to the total; the gaps between StageShare
  // calls are the unattributed rest. Replays break down the intervals
  // around staging (plan, check, encode and verifier precede it; the
  // cumulative ITS check follows it).
  setup.parts = {
      {"net.daemons_start_s", median_setup.daemons_s, false, ""},
      {"net.transport_ctor_s", median_setup.transport_s, false, ""},
      {"net.coordinator_ctor_s", median_setup.coordinator_s, false, ""},
      {"net.prestage_s", median_setup.prestage_s, false, ""},
      {"allocation.plan_s", rep.plan_s, true, "net.prestage_s"},
      {"coding.scheme_check_s", rep.scheme_check_s, true, "net.prestage_s"},
      {"coding.encode_s", rep.encode_s, true, "net.prestage_s"},
      {"coding.verifier_create_s", rep.verifier_create_s, true,
       "net.prestage_s"},
      {"net.stage_s", median_setup.stage_s, false, ""},
      {"net.poststage_s", median_setup.poststage_s, false, ""},
      {"coding.cumulative_its_s", rep.cumulative_its_s, true,
       "net.poststage_s"},
  };
  setup.unattributed_name = "net.setup_unattributed_s";
  out.ledgers.push_back(setup);

  Ledger query{"query", "net.query_us", "us", query_us, {}, ""};
  query.parts = {
      {"net.submit_us", submit_us, false, ""},
      {"net.poll_wait_us", poll_us, false, ""},
      {"net.cancel_alarm_us", other_us, false, ""},
      {"coding.verify_us", 1e6 * rep.verify_per_query_s, true, ""},
      {"coding.decode_us", 1e6 * rep.decode_per_query_s, true, ""},
  };
  query.unattributed_name = "net.query_unattributed_us";
  out.ledgers.push_back(query);
  out.Add("net.setup_unattributed_s", setup.Unattributed(), "s");
  out.notes.push_back(
      "replay = standalone call of the layer's public entry point on this "
      "run's inputs (min of 3); it measures the layer's cost, not the "
      "interval inside the driver, so a .rest beside replays can dip "
      "below zero by the replay's noise");
  return out;
}

}  // namespace pathbench
