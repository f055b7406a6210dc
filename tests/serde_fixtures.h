// SPDX-License-Identifier: MIT
//
// The inputs behind the byte-identity fixtures of tests/serde_golden.h: one
// journal event of each JournalEventKind, one body of each wire message,
// and the small deployment that the deployment_io and sealed-snapshot
// fixtures hold. tests/test_serde_golden.cpp rebuilds these values and
// requires today's writers to reproduce the recorded bytes exactly and
// today's readers to parse them back to equal values; tests/test_fuzz.cpp
// uses the recorded bytes as its seed corpus.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "linalg/matrix_ops.h"
#include "net/wire.h"
#include "recovery/journal.h"

namespace scec::fixtures {

// Decodes the lowercase hex of tests/serde_golden.h.
inline std::string FromHex(std::string_view hex) {
  auto nibble = [](char c) { return c <= '9' ? c - '0' : c - 'a' + 10; };
  std::string out(hex.size() / 2, '\0');
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] =
        static_cast<char>(nibble(hex[2 * i]) << 4 | nibble(hex[2 * i + 1]));
  }
  return out;
}

inline constexpr uint64_t kJournalSnapshotCrc = 0x00000000C0FFEE42ull;
inline constexpr uint64_t kSealingKey = 0x5CEC5EA1ED00F1ull;
inline constexpr uint64_t kSealSalt = 77;

// Nine events, one per JournalEventKind in enum order; the kSegmentAdded
// event carries a segment record. Values include -0.0, a subnormal and
// infinities so every double bit pattern class passes through the codec.
inline std::vector<recovery::JournalEvent> JournalEvents() {
  using recovery::JournalEvent;
  using recovery::JournalEventKind;
  std::vector<JournalEvent> events;
  auto add = [&events](JournalEventKind kind, uint32_t generation,
                       uint64_t query_id, std::vector<double> values) {
    JournalEvent event;
    event.kind = kind;
    event.generation = generation;
    event.query_id = query_id;
    event.segment = 0;
    event.local = 0;
    event.device = 0;
    event.attempt = 0;
    event.bytes = 0;
    event.values = std::move(values);
    events.push_back(std::move(event));
    return &events.back();
  };
  add(JournalEventKind::kStageDone, 0, 0, {})->device = 1;
  add(JournalEventKind::kRestart, 1, 0, {});
  JournalEvent* segment = add(JournalEventKind::kSegmentAdded, 1, 0, {});
  segment->segment = 2;
  segment->segment_record = recovery::JournalSegmentRecord{
      2, 5, 2, {2, 1, 2}, {0, 3, 4}, {1, 3, 4, 6, 7}};
  add(JournalEventKind::kQueryBegin, 1, 7, {1.5, -0.0, 4.9e-324, 1e300});
  JournalEvent* dispatch = add(JournalEventKind::kDispatch, 1, 7, {});
  dispatch->segment = 2;
  dispatch->local = 1;
  dispatch->device = 3;
  dispatch->attempt = 2;
  dispatch->bytes = 4096;
  JournalEvent* response =
      add(JournalEventKind::kResponse, 1, 7, {0.25, -3.75, 1e-9});
  response->local = 1;
  response->device = 3;
  JournalEvent* evict = add(JournalEventKind::kEvict, 1, 7, {});
  evict->device = 0xFFFFFFFFFFFFull;
  evict->attempt = recovery::kEvictReasonQuarantine;
  add(JournalEventKind::kMaskedQuery, 1, 7, {});
  add(JournalEventKind::kQueryResult, 1, 7,
      {2.0, -1.0 / 0.0, 1.0 / 0.0, 123456.789});
  return events;
}

// One (type, body) pair per WireType, in enum order. HEARTBEAT_ACK echoes a
// heartbeat body; DRAIN and DRAIN_ACK carry none.
struct WireFixture {
  net::WireType type;
  std::string body;
};

inline net::HelloMsg FixtureHello() { return {0x1122334455667788ull, 3}; }
inline net::HelloAckMsg FixtureHelloAck() { return {9, 2}; }
inline net::ShareMsg FixtureShare() {
  return {41, 2, 3, {1.0, -2.0, 0.5, 1e-300, -0.0, 6.02214076e23}};
}
inline net::ShareAckMsg FixtureShareAck() {
  return {41, 0, "share store full"};
}
inline net::QueryMsg FixtureQuery() {
  return {0xABCDEFull, 41, {0.125, -8.0, 3.0}};
}
inline net::ResponseMsg FixtureResponse() {
  return {0xABCDEFull, {-1.5, 2.25}};
}
inline net::RpcErrorMsg FixtureRpcError() {
  return {0xABCDF0ull, 4, "unknown share id"};
}
inline net::HeartbeatMsg FixtureHeartbeat() { return {0xFEEDull}; }
inline net::CancelMsg FixtureCancel() { return {0xABCDEFull}; }

inline std::vector<WireFixture> WireFixtures() {
  using net::WireType;
  return {
      {WireType::kHello, FixtureHello().Encode()},
      {WireType::kHelloAck, FixtureHelloAck().Encode()},
      {WireType::kShare, FixtureShare().Encode()},
      {WireType::kShareAck, FixtureShareAck().Encode()},
      {WireType::kQuery, FixtureQuery().Encode()},
      {WireType::kResponse, FixtureResponse().Encode()},
      {WireType::kRpcError, FixtureRpcError().Encode()},
      {WireType::kHeartbeat, FixtureHeartbeat().Encode()},
      {WireType::kHeartbeatAck, FixtureHeartbeat().Encode()},
      {WireType::kCancel, FixtureCancel().Encode()},
      {WireType::kDrain, std::string()},
      {WireType::kDrainAck, std::string()},
  };
}

// The deployment the deployment_io and sealed-snapshot fixtures hold: m = 6,
// l = 3 over four devices with unit costs 1, 2, 3, 5; A and the pads from
// ChaCha20Rng(seed).
template <typename T>
Result<Deployment<T>> FixtureDeployment(uint64_t seed = 5) {
  const McscecProblem problem = MakeAbstractProblem(6, 3, {1.0, 2.0, 3.0, 5.0});
  ChaCha20Rng rng(seed);
  const Matrix<T> a = RandomMatrix<T>(problem.m, problem.l, rng);
  return Deploy(problem, a, rng);
}

}  // namespace scec::fixtures
