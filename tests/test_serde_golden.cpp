// SPDX-License-Identifier: MIT
//
// Every persisted and wire format must stay byte-identical to the fixtures
// of tests/serde_golden.h: the writers reproduce them exactly and the
// readers parse them back to the values they were recorded from.

#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <string>
#include <vector>

#include "core/deployment_io.h"
#include "recovery/sealed_snapshot.h"
#include "serde_fixtures.h"
#include "serde_golden.h"

namespace scec {
namespace {

void ExpectSameEvent(const recovery::JournalEvent& got,
                     const recovery::JournalEvent& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.generation, want.generation);
  EXPECT_EQ(got.query_id, want.query_id);
  EXPECT_EQ(got.segment, want.segment);
  EXPECT_EQ(got.local, want.local);
  EXPECT_EQ(got.device, want.device);
  EXPECT_EQ(got.attempt, want.attempt);
  EXPECT_EQ(got.bytes, want.bytes);
  ASSERT_EQ(got.values.size(), want.values.size());
  for (size_t i = 0; i < got.values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.values[i]),
              std::bit_cast<uint64_t>(want.values[i]));
  }
  ASSERT_EQ(got.segment_record.has_value(), want.segment_record.has_value());
  if (got.segment_record.has_value()) {
    EXPECT_EQ(got.segment_record->index, want.segment_record->index);
    EXPECT_EQ(got.segment_record->m, want.segment_record->m);
    EXPECT_EQ(got.segment_record->r, want.segment_record->r);
    EXPECT_EQ(got.segment_record->row_counts, want.segment_record->row_counts);
    EXPECT_EQ(got.segment_record->phys, want.segment_record->phys);
    EXPECT_EQ(got.segment_record->data_rows, want.segment_record->data_rows);
  }
}

template <typename T>
void ExpectSameDeployment(const Deployment<T>& got, const Deployment<T>& want) {
  EXPECT_EQ(got.l, want.l);
  EXPECT_EQ(got.code.m(), want.code.m());
  EXPECT_EQ(got.code.r(), want.code.r());
  EXPECT_EQ(got.plan.scheme.row_counts, want.plan.scheme.row_counts);
  EXPECT_EQ(got.plan.participating, want.plan.participating);
  EXPECT_EQ(got.plan.allocation.rows_per_device,
            want.plan.allocation.rows_per_device);
  EXPECT_EQ(got.plan.allocation.num_devices, want.plan.allocation.num_devices);
  EXPECT_EQ(got.plan.allocation.total_cost, want.plan.allocation.total_cost);
  EXPECT_EQ(got.plan.allocation.algorithm, want.plan.allocation.algorithm);
  EXPECT_EQ(got.plan.lower_bound, want.plan.lower_bound);
  EXPECT_EQ(got.plan.i_star, want.plan.i_star);
  ASSERT_EQ(got.shares.size(), want.shares.size());
  for (size_t d = 0; d < got.shares.size(); ++d) {
    EXPECT_EQ(got.shares[d].device, want.shares[d].device);
    EXPECT_EQ(got.shares[d].coded_rows, want.shares[d].coded_rows);
  }
}

TEST(SerdeGolden, JournalBytesAndEvents) {
  const std::string golden = fixtures::FromHex(fixtures::kJournalHex);
  const std::vector<recovery::JournalEvent> events = fixtures::JournalEvents();
  std::ostringstream os;
  recovery::QueryJournal journal(&os, fixtures::kJournalSnapshotCrc, 4);
  for (const auto& event : events) journal.Append(event);
  journal.Commit();
  EXPECT_EQ(os.str(), golden);

  auto replay = recovery::LoadJournal(golden);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_FALSE(replay->torn_tail);
  EXPECT_EQ(replay->snapshot_crc, fixtures::kJournalSnapshotCrc);
  EXPECT_EQ(replay->valid_bytes, golden.size());
  ASSERT_EQ(replay->events.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    SCOPED_TRACE(recovery::JournalEventKindName(events[i].kind));
    ExpectSameEvent(replay->events[i], events[i]);
  }
}

template <typename Msg>
Msg DecodeOk(std::string_view body) {
  auto decoded = Msg::Decode(body);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  return decoded.ok() ? *decoded : Msg{};
}

TEST(SerdeGolden, WireFramesAndBodies) {
  const std::vector<fixtures::WireFixture> wire = fixtures::WireFixtures();
  ASSERT_EQ(wire.size(), std::size(fixtures::kWireFrameHex));
  for (size_t i = 0; i < wire.size(); ++i) {
    SCOPED_TRACE(net::WireTypeName(wire[i].type));
    const std::string golden = fixtures::FromHex(fixtures::kWireFrameHex[i]);
    EXPECT_EQ(wire[i].body, golden.substr(net::kFrameHeaderSize));
    EXPECT_EQ(net::EncodeFrame(wire[i].type, wire[i].body), golden);
    const net::DecodeResult decoded = net::DecodeFrame(golden);
    ASSERT_EQ(decoded.progress, net::DecodeProgress::kFrame);
    EXPECT_EQ(decoded.consumed, golden.size());
    EXPECT_EQ(decoded.frame.type, wire[i].type);
    EXPECT_EQ(decoded.frame.payload, wire[i].body);
  }

  auto body = [&wire](net::WireType type) {
    for (const auto& w : wire) {
      if (w.type == type) return std::string_view(w.body);
    }
    return std::string_view();
  };
  using net::WireType;
  const auto hello = DecodeOk<net::HelloMsg>(body(WireType::kHello));
  EXPECT_EQ(hello.coordinator_id, fixtures::FixtureHello().coordinator_id);
  EXPECT_EQ(hello.session_epoch, fixtures::FixtureHello().session_epoch);
  const auto ack = DecodeOk<net::HelloAckMsg>(body(WireType::kHelloAck));
  EXPECT_EQ(ack.daemon_id, fixtures::FixtureHelloAck().daemon_id);
  EXPECT_EQ(ack.shares_held, fixtures::FixtureHelloAck().shares_held);
  const auto share = DecodeOk<net::ShareMsg>(body(WireType::kShare));
  EXPECT_EQ(share.share_id, fixtures::FixtureShare().share_id);
  EXPECT_EQ(share.rows, fixtures::FixtureShare().rows);
  EXPECT_EQ(share.cols, fixtures::FixtureShare().cols);
  EXPECT_EQ(share.values, fixtures::FixtureShare().values);
  const auto share_ack = DecodeOk<net::ShareAckMsg>(body(WireType::kShareAck));
  EXPECT_EQ(share_ack.share_id, fixtures::FixtureShareAck().share_id);
  EXPECT_EQ(share_ack.ok, fixtures::FixtureShareAck().ok);
  EXPECT_EQ(share_ack.error, fixtures::FixtureShareAck().error);
  const auto query = DecodeOk<net::QueryMsg>(body(WireType::kQuery));
  EXPECT_EQ(query.rpc_id, fixtures::FixtureQuery().rpc_id);
  EXPECT_EQ(query.share_id, fixtures::FixtureQuery().share_id);
  EXPECT_EQ(query.x, fixtures::FixtureQuery().x);
  const auto response = DecodeOk<net::ResponseMsg>(body(WireType::kResponse));
  EXPECT_EQ(response.rpc_id, fixtures::FixtureResponse().rpc_id);
  EXPECT_EQ(response.values, fixtures::FixtureResponse().values);
  const auto error = DecodeOk<net::RpcErrorMsg>(body(WireType::kRpcError));
  EXPECT_EQ(error.rpc_id, fixtures::FixtureRpcError().rpc_id);
  EXPECT_EQ(error.code, fixtures::FixtureRpcError().code);
  EXPECT_EQ(error.message, fixtures::FixtureRpcError().message);
  EXPECT_EQ(DecodeOk<net::HeartbeatMsg>(body(WireType::kHeartbeat)).seq,
            fixtures::FixtureHeartbeat().seq);
  EXPECT_EQ(DecodeOk<net::CancelMsg>(body(WireType::kCancel)).rpc_id,
            fixtures::FixtureCancel().rpc_id);
}

template <typename T, typename LoadFn>
void CheckDeploymentFixture(std::string_view hex, LoadFn load) {
  const std::string golden = fixtures::FromHex(hex);
  auto want = fixtures::FixtureDeployment<T>();
  ASSERT_TRUE(want.ok()) << want.status();
  std::ostringstream os;
  ASSERT_TRUE(SaveDeployment(*want, os).ok());
  EXPECT_EQ(os.str(), golden);

  std::istringstream is(golden);
  auto loaded = load(is);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameDeployment(*loaded, *want);
}

TEST(SerdeGolden, DeploymentDouble) {
  CheckDeploymentFixture<double>(
      fixtures::kDeploymentDoubleHex,
      [](std::istream& is) { return LoadDeploymentDouble(is); });
}

TEST(SerdeGolden, DeploymentGf61) {
  CheckDeploymentFixture<Gf61>(
      fixtures::kDeploymentGf61Hex,
      [](std::istream& is) { return LoadDeploymentGf61(is); });
}

template <typename T, typename LoadFn>
void CheckSealedFixture(std::string_view hex, LoadFn load) {
  const std::string golden = fixtures::FromHex(hex);
  auto want = fixtures::FixtureDeployment<T>();
  ASSERT_TRUE(want.ok()) << want.status();
  std::ostringstream os;
  ASSERT_TRUE(recovery::SaveSealedDeployment(*want, fixtures::kSealingKey,
                                             fixtures::kSealSalt, os)
                  .ok());
  EXPECT_EQ(os.str(), golden);

  std::istringstream is(golden);
  auto loaded = load(is);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameDeployment(*loaded, *want);
}

TEST(SerdeGolden, SealedSnapshotDouble) {
  CheckSealedFixture<double>(fixtures::kSealedDoubleHex, [](std::istream& is) {
    return recovery::LoadSealedDeploymentDouble(is, fixtures::kSealingKey);
  });
}

TEST(SerdeGolden, SealedSnapshotGf61) {
  CheckSealedFixture<Gf61>(fixtures::kSealedGf61Hex, [](std::istream& is) {
    return recovery::LoadSealedDeploymentGf61(is, fixtures::kSealingKey);
  });
}

}  // namespace
}  // namespace scec
