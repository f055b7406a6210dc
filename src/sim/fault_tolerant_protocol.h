// SPDX-License-Identifier: MIT
//
// The SCEC protocol over the discrete-event simulator (§II-D):
//
//   Phase 1  Coded Data Distribution — cloud sends B_j·T to each device.
//   Phase 2  Coded Edge Computing    — user sends x; devices compute.
//   Phase 3  Original Result Recovery — user runs the O(m) subtraction
//            decode over the responses.
//
// This is the simulator's coded-protocol engine (RedundantScecProtocol, the
// replicated-block variant, is the only other): with default options and no
// faults it IS the paper's protocol (same staging, bytes, device work,
// decode and completion time — tests/scec_protocol_golden.h pins it), and
// sim/simulation.h runs it for plain simulations. The paper assumes every
// selected device is honest and answers; a single crashed, silent, or
// Byzantine device would stall or silently corrupt the query. This engine
// keeps SCEC's guarantees under the scripted faults of sim/faults.h by
// adding four layers:
//
//   Detection  — a per-device response deadline with exponential-backoff
//                query re-delivery (common/retry.h), and a Freivalds digest
//                check on every response (coding/result_verify.h) that flags
//                corruption with failure probability ≤ 1/q per response.
//                Deadlines are either budgeted from the device's link and
//                compute specs (scaled by kDeadlineFactor), or — with
//                `adaptive_timeouts` — learned online from the device's own
//                observed `device_response` durations (EWMA + streaming
//                percentile, sim/latency_estimator.h) so a normally-fast
//                device is timed out at "slower than its own pXX", not at a
//                worst-case model bound. Cold start falls back to the model.
//   Hedging    — optional proactive straggler mitigation (`hedging`): when a
//                dispatched sub-query exceeds the device's hedge threshold
//                (its observed pXX), the rows only that device can currently
//                yield are RE-ENCODED WITH FRESH PADS and speculatively
//                staged + dispatched to the two cheapest idle survivors.
//                First answer wins: whichever of original/hedge resolves the
//                rows first cancels the other's pending work. Two devices —
//                not one — because a lone device holding both a fresh pad
//                row and the row it masks could subtract and unmask the
//                data; the minimal ITS-secure hedge unit is a pad-holder +
//                mixed-holder pair. Hedge cost is attributed like any other
//                work (staging bytes, dispatches, device compute);
//                cancelled work is never double-counted in the decode.
//   Eviction   — a device that exhausts its retry budget, or fails a single
//                digest check (Byzantine ⇒ no second chances), is evicted
//                from the fleet for the rest of the protocol's lifetime.
//                A straggler saved by a winning hedge is NOT evicted — its
//                pending is cancelled, trading permanent capacity loss for
//                speculative duplicate work.
//   Recovery   — the data rows the evicted devices made undecodable are
//                re-planned with TA2 over the surviving fleet, re-encoded
//                with FRESH ChaCha20 pads, re-staged, and re-queried. Fresh
//                pads are what keeps Def. 2 ITS intact for every device's
//                CUMULATIVE view across encoding rounds (reusing a pad lets
//                old−new rows cancel it and expose data); the protocol
//                re-verifies this after every recovery round — and after
//                every query that dispatched a hedge — with the exact
//                GF(2^61−1) rank check of core/segment.h's
//                CumulativeViewLedger and aborts on any leak.
//   Masking    — with `byzantine_tolerance` t > 0, Stage() provisions t
//                GUARD segments (core/byzantine.h): each re-encodes ALL m
//                data rows with fresh pads onto a disjoint pair of spare
//                devices, so every row has t+1 independent decode paths and
//                ≤ t liars can break at most t of them. A digest-flagged
//                response no longer evicts: the device is QUARANTINED
//                (sim/reputation.h) and the error-locating decoder
//                (coding/byzantine_decoder.h) decodes around it in the SAME
//                round — zero recovery re-plans — naming the guilty set.
//                Quarantined devices are skipped by dispatch, hedging, and
//                recovery planning, and win their way back through periodic
//                low-stakes CANARY probes (digest-checked, never decoded).
//                The evict-and-replan path remains the fallback whenever
//                the liars are not locatable (> t, or guard paths broken).
//
// Each encoding round is a segment (core/segment.h): a set of data rows,
// its own structured code + scheme, and fresh actors mapped onto the
// surviving physical devices. Hedge segments are staged asynchronously
// mid-round; recovery segments synchronously between rounds. A query is
// answered by decoding each data row from the first segment that yields it,
// so the protocol keeps serving queries after evictions without touching
// rows that never left healthy devices.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "coding/result_verify.h"
#include "coding/security_check.h"
#include "common/retry.h"
#include "common/retry_budget.h"
#include "core/pipeline.h"
#include "core/segment.h"
#include "recovery/journal.h"
#include "sim/actors.h"
#include "sim/latency_estimator.h"
#include "sim/metrics.h"
#include "sim/reliable.h"
#include "sim/reputation.h"

namespace scec::sim {

// Detection and speculation limits. Model deadline = max(kMinDeadlineS,
// kDeadlineFactor × the device's estimated round trip: x transfer + compute
// + response transfer); the factor absorbs stragglers and queueing. Over
// lossy links the floor is kMinDeadlineS + the channel's retransmit
// timeout, so a retransmit gets its chance before the query is re-sent. An
// adaptive deadline is max(kMinDeadlineS, kTimeoutMargin × the device's
// observed kTimeoutQuantile-percentile response time).
inline constexpr double kDeadlineFactor = 4.0;
inline constexpr double kMinDeadlineS = 0.02;
inline constexpr double kTimeoutQuantile = 0.99;
inline constexpr double kTimeoutMargin = 3.0;
// Hedges dispatched per query, at most.
inline constexpr size_t kMaxHedgesPerQuery = 4;
// Re-plan / re-encode rounds per query before giving up (kInternal).
inline constexpr size_t kMaxRecoveryRounds = 4;

struct FaultToleranceOptions {
  // Pacing of query re-deliveries to a silent device.
  RetryPolicy retry;
  // Deterministic multiplicative jitter on every backoff delay:
  // delay *= 1 + U(-backoff_jitter, +backoff_jitter), drawn from a dedicated
  // PRNG seeded with `jitter_seed`, so reruns of the same seed replay the
  // exact event trace while distinct seeds decorrelate retry storms.
  // 0 (default) reproduces the unjittered PR 1 schedule bit-for-bit.
  double backoff_jitter = 0.0;
  uint64_t jitter_seed = 0x243F6A8885A308D3u;

  // --- Adaptive timeouts (default OFF: every deadline is the model
  // deadline). When ON, once a device has `estimator.min_samples` observed
  // response durations its deadline becomes the adaptive one (see
  // kTimeoutMargin); before that the model deadline applies (cold start).
  bool adaptive_timeouts = false;
  LatencyEstimatorOptions estimator;

  // --- Hedged queries (default OFF). A pending sub-query that exceeds
  // max(kMinDeadlineS, hedge_margin × observed-pXX) — or half its model
  // deadline during cold start — triggers a speculative fresh-pad re-encode
  // of its at-risk rows onto the two cheapest idle survivors.
  bool hedging = false;
  double hedge_quantile = 0.95;
  double hedge_margin = 1.5;
  // Fresh pads for hedge re-encodes (independent stream from repair pads).
  uint64_t hedge_pad_seed = 0xA409382229F31D0Cu;

  // Secret Freivalds weights (cloud-side; must be cryptographically strong).
  uint64_t verifier_seed = 0xF4E1A7D5u;
  // Fresh pads for recovery re-encodes. Independent of the seed that padded
  // the base deployment — cumulative ITS is re-verified either way.
  uint64_t repair_pad_seed = 0x9D2C5680u;

  // --- Byzantine-tolerant overdecoding (default OFF: bit-identical to the
  // evict-and-replan behaviour above). t > 0 provisions t guard segments at
  // Stage() time — fresh-pad re-encodes of all m rows onto disjoint spare
  // pairs — and switches digest failures from eviction to quarantine +
  // single-round locator decode. Effective tolerance is capped by available
  // spares: min(t, spares / 2), see byzantine_tolerance_effective().
  size_t byzantine_tolerance = 0;
  // Fresh pads for guard re-encodes (independent stream from repair/hedge).
  uint64_t guard_pad_seed = 0x7C3B1E9F2D4A5608u;
  // Freivalds digest repetitions per device (false-accept q^-d per
  // response); 1 is the historical single-digest behaviour.
  size_t num_digests = 1;
  // Reputation / quarantine / canary-readmission knobs. `enabled` is forced
  // on whenever byzantine_tolerance > 0.
  ReputationOptions reputation;

  // --- Crash recovery (src/recovery). Coordinator incarnation number: 0 is
  // the original process (bit-identical to the pre-journal runtime), each
  // restart increments it. Generations > 0 salt the repair/hedge/guard pad
  // seeds so a restarted coordinator NEVER replays a pad stream an earlier
  // incarnation already shipped — reuse would let a device subtract old and
  // new rows and unmask data (Def. 2). The verifier seed is deliberately
  // NOT salted: the restarted cloud must be able to re-check responses that
  // were journaled against base-segment shares, which are byte-identical
  // across generations.
  uint32_t generation = 0;

  // --- Overload protection (default OFF: bit-identical retry/hedge
  // schedule). `retry_budget` is a shared adaptive retry throttle
  // (common/retry_budget.h): fresh dispatches deposit fractional tokens,
  // every retry spends one, and when the budget is dry a timed-out query
  // fails fast (evict + kFailed) instead of feeding a retry storm —
  // metrics.recovery.retries_suppressed counts the suppressions. Not owned;
  // may be shared across protocols of one coordinator, must outlive the
  // protocol. `hedging_gate` is consulted immediately before a hedge would
  // commit (after the idle-pair check, so a vetoed hedge never wastes
  // tokens): false suppresses the hedge (metrics.recovery.hedges_suppressed)
  // — the degradation ladder's kNoHedge rung plugs in here
  // (serve/overload.h, ServeCoordinator::HedgingGate()). Hedges also spend
  // from `retry_budget` when one is set: speculative duplicates are exactly
  // the traffic a retry storm is made of.
  RetryBudget* retry_budget = nullptr;
  std::function<bool()> hedging_gate;
};

class FaultTolerantScecProtocol {
 public:
  // `fleet_specs` is the FULL fleet (one EdgeDevice per fleet index, the same
  // fleet the deployment was planned against): recovery re-plans over the
  // surviving fleet, so every device must have a physical identity up front.
  // Device actors are indexed by fleet index (SimOptions::faults and
  // byzantine specs name fleet devices). `a` is the original data matrix
  // (the cloud keeps it; recovery re-encodes lost rows from it). Both
  // pointers must outlive the protocol.
  FaultTolerantScecProtocol(const Deployment<double>* deployment,
                            const Matrix<double>* a,
                            std::vector<EdgeDevice> fleet_specs,
                            SimOptions options,
                            FaultToleranceOptions ft_options = {});

  // Session-based construction (core/pipeline.h session layer): serves the
  // session's deployment, adopts its pad generation (overriding
  // ft_options.generation, so a restarted session never replays an earlier
  // incarnation's repair/hedge/guard pad streams), and attaches its journal
  // if one is attached to the session. The session must outlive the
  // protocol.
  FaultTolerantScecProtocol(const DeploymentSession<double>* session,
                            const Matrix<double>* a,
                            std::vector<EdgeDevice> fleet_specs,
                            SimOptions options,
                            FaultToleranceOptions ft_options = {});

  // Phase 1 for the base segment. Runs the event queue to completion.
  void Stage();

  // --- Crash recovery (src/recovery). AttachJournal must be called before
  // Stage(): from then on every lifecycle event (staging, segment
  // provisioning, query admission, dispatch, accepted response, eviction,
  // masking, query result) is written ahead to the journal. The base
  // segment is never journaled — it is rebuilt from the sealed snapshot.
  // The journal must outlive the protocol.
  void AttachJournal(recovery::QueryJournal* journal);

  // Restores journaled state after Stage() on a restarted coordinator
  // (generation > 0): re-marks evictions and quarantines, re-accounts the
  // pad columns of every prior guard/recovery/hedge segment so cumulative
  // ITS verification still sees them, adopts the query-id sequence, and
  // arms RunQuery to re-verify and inject the in-flight query's already
  // paid-for base-segment responses instead of re-dispatching (exactly-once
  // Eq. (1) accounting). A journaled segment that does not fit is a
  // kDecodeFailure, a leaking restored view a kSecurityViolation; after
  // either, discard the protocol.
  Status RestoreFromReplay(const recovery::ReplayState& state);

  // Phases 2–3 with detection + recovery. Returns the decoded A·x, or
  //   kInfeasible — fewer than 2 devices survive to re-plan over,
  //   kInternal   — rows still undecodable after kMaxRecoveryRounds.
  // The query's completion time (metrics().query_completion_time) is its
  // settle time: from dispatch until the last pending of the final round
  // resolved. Events the queue drains after that — a stale deadline timer,
  // a cancelled straggler's late answer — do not count.
  Result<std::vector<double>> RunQuery(const std::vector<double>& x);

  // Pipelined execution of several queries on the base segment: all are
  // dispatched back-to-back (links and single-core devices queue them) and
  // the q-th response from a device answers query q. Requires Stage(),
  // loss-free links (retransmissions could reorder responses) and no
  // attached journal. No deadlines, retries or recovery: returns
  //   kUnavailable   — a device answered a different number of queries,
  //   kDecodeFailure — a response failed its Freivalds digest.
  struct StreamResult {
    std::vector<std::vector<double>> decoded;  // one A·x per query
    std::vector<double> completion_times;      // per query, since dispatch
    double makespan = 0.0;                     // until the last response
  };
  Result<StreamResult> RunQueryStream(
      const std::vector<std::vector<double>>& xs);

  const RunMetrics& metrics() const { return metrics_; }
  const FaultRecoveryMetrics& recovery_metrics() const { return recovery_; }
  EventQueue& queue() { return queue_; }

  // Exact Def. 2 check of every fleet device's cumulative view across all
  // encoding rounds so far (see security_check.h). The protocol runs this
  // itself after every recovery round and hedged query; exposed so tests and
  // benches can assert `all_secure` end-to-end.
  SchemeSecurityReport VerifyCumulativeSecurity() const;

  size_t num_segments() const { return segments_.size(); }
  size_t num_evicted() const;

  // Guard segments actually provisioned at Stage() time: min(requested t,
  // spare pairs available). 0 before Stage() or when the knob is off.
  size_t byzantine_tolerance_effective() const {
    return byzantine_tolerance_effective_;
  }
  const ReputationTracker& reputation() const { return reputation_; }

  // Observed response-latency estimator of one fleet device (read-only; for
  // tests and diagnostics).
  const LatencyEstimator& latency_estimator(size_t fleet_index) const {
    SCEC_CHECK_LT(fleet_index, latency_.size());
    return latency_[fleet_index];
  }

 private:
  static constexpr size_t kNoHedgeGroup = static_cast<size_t>(-1);

  // One encoding round (core/segment.h) plus its engine-side state.
  struct Segment {
    SegmentShape shape;
    ResultVerifier<double> verifier;
    // Cloud-side copy of each device's B_j·T, shipped at staging time.
    std::vector<DeviceShare<double>> shares;
    std::vector<std::unique_ptr<EdgeDeviceActor>> actors;
    // Verified responses of the current query (scheme order).
    std::vector<std::optional<std::vector<double>>> responses;
    // False until every share of the segment reached its device. Hedge
    // segments stage asynchronously; an unstaged segment is never queried.
    bool staged = false;
  };

  // In-flight collection state for one (segment, device) of the current
  // round. Exactly one of accepted/failed/cancelled ends up true.
  struct Pending {
    size_t segment = 0;
    size_t local = 0;  // scheme device index within the segment
    size_t phys = 0;
    size_t attempts = 0;
    bool accepted = false;
    bool failed = false;     // evicted (timeout budget or bad digest)
    bool cancelled = false;  // superseded by a winning hedge / original
    bool is_hedge = false;
    size_t hedge_group = kNoHedgeGroup;  // group this pending belongs to
    double dispatch_s = 0.0;  // sim time of the first dispatch
  };

  enum class PendingOutcome { kAccepted, kFailed, kCancelled };

  // One speculative hedge: the straggling original pending plus the pair of
  // hedge pendings racing it (created once the hedge segment is staged).
  struct HedgeGroup {
    Pending* original = nullptr;
    size_t segment = 0;          // the hedge segment
    bool dispatched = false;     // hedge pendings created
    bool abandoned = false;      // staging aborted or original resolved first
    std::vector<Pending*> hedges;
  };

  void BuildTopology();
  void SendMsg(NodeId from, NodeId to, uint64_t bytes,
               EventQueue::Callback on_delivered);
  void SendMsgEx(NodeId from, NodeId to, uint64_t bytes,
                 EventQueue::Callback on_delivered,
                 EventQueue::Callback on_failure);

  // Adds an encoded segment (verifier, actors wired to OnResponse), records
  // its rows in the cumulative view ledger and journals its shape.
  void AddSegment(EncodedSegment encoded);
  // Stages synchronously; a share the reliable channel gives up on aborts.
  void StageSegment(size_t segment_index);
  // Ships the segment's shares without blocking the event loop; exactly one
  // of `on_staged` / `on_abort` fires (abort only under lossy links). Does
  // NOT flip `Segment::staged` — the on_staged callback decides, so a hedge
  // superseded mid-staging never becomes a live segment. Returns the bytes
  // put on the wire.
  uint64_t StageSegmentAsync(size_t segment_index,
                             EventQueue::Callback on_staged,
                             EventQueue::Callback on_abort);

  // Deadline from the device's link/compute model (PR 1 behaviour).
  double ModelDeadlineFor(const Pending& pending) const;
  // Adaptive (estimator-based) deadline when enabled and warmed up;
  // model-based otherwise.
  double DeadlineFor(const Pending& pending);
  // Delay after dispatch at which the pending is considered straggling.
  double HedgeDelayFor(const Pending& pending) const;

  void Dispatch(Pending* pending);
  // Sends the current x to one segment slot's device, journaling the
  // billing entry (attempt 0 = canary probe) before the bytes move.
  void SendQuery(size_t segment, size_t local, uint64_t attempt,
                 bool committed);
  void OnResponse(size_t segment, size_t local, std::vector<double> response);
  // Refreshes metrics_.devices from every segment's actors.
  void SnapshotDeviceMetrics();

  // Marks the pending resolved, maintains the round's unresolved count, and
  // records the settle time when it reaches zero.
  void Resolve(Pending* pending, PendingOutcome outcome);

  // Hedging internals.
  void MaybeHedge(Pending* pending);
  void DispatchHedge(size_t group_index);
  void CancelHedges(HedgeGroup* group);
  std::vector<size_t> RowsAtRisk(const Pending& pending) const;
  bool BusyInRound(size_t fleet_index) const;

  // Runs one collection round (dispatch + deadlines + retries + hedges) over
  // the given pendings; on return every pending is resolved.
  void CollectRound(std::vector<Pending>* pendings);

  // Decodes every row the current responses yield into `decoded` (rows
  // already decoded are kept); returns the global rows still missing.
  std::vector<size_t> DecodeAvailable(
      std::vector<std::optional<double>>* decoded);

  // Byzantine-tolerant internals (byzantine_tolerance > 0).
  // Stages the guard segments onto spare pairs; sets the effective t.
  void ProvisionGuards();
  // Evicted or quarantined devices get no dispatches of any kind.
  bool UsableDevice(size_t fleet_index) const {
    return !evicted_[fleet_index] && reputation_.Usable(fleet_index);
  }
  // Flags a digest-failed (or locator-implicated) device: quarantine via
  // the reputation tracker plus per-query flag bookkeeping.
  void FlagByzantine(size_t fleet_index);
  // Locator-based decode over all staged segments: exact values through the
  // error-locating decoder when ≤ t liars are locatable, per-row unanimous
  // fallback otherwise. Same contract as DecodeAvailable.
  std::vector<size_t> DecodeLocating(
      std::vector<std::optional<double>>* decoded);
  // Sends low-stakes canary probes to quarantined devices that are due one
  // (existing shares, digest-checked, response discarded) and drains them.
  void RunCanaries();

  // Crash-recovery internals. JournalAppend fills the generation and
  // forwards to the attached journal (no-op when none is attached).
  void JournalAppend(recovery::JournalEvent event, bool committed);
  // A device standing change: trace instant `what`, then a committed
  // journal entry with the recovery::kEvictReason* code.
  void RecordStanding(size_t device, uint64_t reason, const char* what);
  // Aborts if a guard/recovery/hedge re-encode leaked (cumulative Def. 2).
  void CheckCumulativeSecurity(const char* round) const;

  const Deployment<double>* deployment_;
  const Matrix<double>* a_;
  SimOptions options_;
  FaultToleranceOptions ft_;

  EventQueue queue_;
  Network network_{&queue_};
  std::unique_ptr<ReliableChannel> channel_;  // non-null iff lossy links
  Xoshiro256StarStar straggler_rng_;
  BackoffJitter jitter_;  // shared policy (common/retry.h); 0 = no jitter
  ChaCha20Rng verifier_rng_;
  ChaCha20Rng repair_rng_;
  ChaCha20Rng hedge_rng_;
  ChaCha20Rng guard_rng_;

  DeviceFleet fleet_;             // full fleet, by fleet index
  std::vector<bool> evicted_;     // per fleet device
  std::vector<LatencyEstimator> latency_;  // one per fleet device
  std::vector<Segment> segments_;
  CumulativeViewLedger ledger_{0, 0};  // every row each device was sent

  // Current-query routing: pending_index_[segment][local] -> Pending.
  std::vector<std::vector<Pending*>> pending_index_;
  const std::vector<double>* current_x_ = nullptr;

  // Current collection round. Hedge pendings/groups live in deques so
  // pointers stay stable as hedges launch mid-round.
  std::vector<Pending>* round_pendings_ = nullptr;
  std::deque<Pending> hedge_pendings_;
  std::deque<HedgeGroup> hedge_groups_;
  size_t round_unresolved_ = 0;
  double round_settled_s_ = 0.0;  // sim time the last pending resolved
  // Stream mode (RunQueryStream): base-segment responses append here, per
  // slot in arrival order, instead of entering the pending machinery.
  std::vector<std::vector<std::pair<SimTime, std::vector<double>>>>*
      stream_inbox_ = nullptr;
  size_t hedges_this_query_ = 0;

  // Byzantine state: reputation standings, guards provisioned, the devices
  // flagged/located during the current query, and in-flight canary probes
  // ((segment, local) -> fleet index) intercepted before normal collection.
  ReputationTracker reputation_;
  size_t byzantine_tolerance_effective_ = 0;
  std::vector<size_t> flagged_this_query_;
  std::vector<size_t> located_this_query_;
  std::map<std::pair<size_t, size_t>, size_t> canary_probes_;

  // Crash-recovery state: attached write-ahead journal (may be null), the
  // query-id sequence, and — on a restarted coordinator — the in-flight
  // query id plus its journaled base-segment responses to re-verify and
  // inject instead of re-dispatching.
  recovery::QueryJournal* journal_ = nullptr;
  uint64_t query_seq_ = 0;
  uint64_t current_query_id_ = 0;
  std::optional<uint64_t> resume_query_id_;
  std::map<uint64_t, std::vector<double>> resume_responses_;

  RunMetrics metrics_;
  FaultRecoveryMetrics recovery_;
  bool staged_ = false;
};

}  // namespace scec::sim
