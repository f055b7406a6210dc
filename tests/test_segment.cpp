// SPDX-License-Identifier: MIT
//
// The encoding-round module: decode paths of the structured Eq. (8) code,
// typed validation of journaled shapes, the cumulative Def. 2 ledger, and
// the repair / pair segment builders both protocol engines use.

#include "core/segment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "linalg/matrix_ops.h"
#include "workload/device_profiles.h"

namespace scec {
namespace {

LcecScheme Scheme(size_t m, size_t r, std::vector<size_t> row_counts) {
  LcecScheme scheme;
  scheme.m = m;
  scheme.r = r;
  scheme.row_counts = std::move(row_counts);
  return scheme;
}

recovery::JournalSegmentRecord Record(size_t m, size_t r,
                                      std::vector<size_t> row_counts,
                                      std::vector<size_t> phys,
                                      std::vector<size_t> data_rows) {
  recovery::JournalSegmentRecord record;
  record.m = m;
  record.r = r;
  record.row_counts = std::move(row_counts);
  record.phys = std::move(phys);
  record.data_rows = std::move(data_rows);
  return record;
}

// Each slot's honest answer B_j·T·x.
std::vector<std::vector<double>> Answers(const EncodedSegment& segment,
                                         const std::vector<double>& x) {
  std::vector<std::vector<double>> answers;
  for (const DeviceShare<double>& share : segment.shares) {
    answers.push_back(MatVec(share.coded_rows, std::span<const double>(x)));
  }
  return answers;
}

// Decodes with the given slots answering; returns the decoded rows of A·x.
std::vector<std::optional<double>> Decode(
    const EncodedSegment& segment,
    const std::vector<std::vector<double>>& answers,
    const std::vector<bool>& answered, size_t num_rows) {
  std::vector<std::optional<double>> decoded(num_rows);
  segment.shape.DecodeInto(
      [&](size_t slot) -> const std::vector<double>* {
        return answered[slot] ? &answers[slot] : nullptr;
      },
      &decoded);
  return decoded;
}

TEST(SegmentShape, DecodePathsFollowTheEq8Layout) {
  // B rows 0-1 (pads) on slot 0, rows 2-4 on slot 1, rows 5-6 on slot 2.
  const SegmentShape shape({10, 11, 12, 13, 14}, StructuredCode(5, 2),
                           Scheme(5, 2, {2, 3, 2}), {7, 3, 5});
  ASSERT_EQ(shape.num_slots(), 3u);
  // p = 0: mixed row r + 0 = 2 (slot 1, offset 0), pad row 0 (slot 0, 0).
  EXPECT_EQ(shape.path(0).mixed_slot, 1u);
  EXPECT_EQ(shape.path(0).mixed_offset, 0u);
  EXPECT_EQ(shape.path(0).pad_slot, 0u);
  EXPECT_EQ(shape.path(0).pad_offset, 0u);
  // p = 3: mixed row 5 (slot 2, 0), pad row 3 mod 2 = 1 (slot 0, 1).
  EXPECT_EQ(shape.path(3).mixed_slot, 2u);
  EXPECT_EQ(shape.path(3).mixed_offset, 0u);
  EXPECT_EQ(shape.path(3).pad_slot, 0u);
  EXPECT_EQ(shape.path(3).pad_offset, 1u);
  // p = 4: mixed row 6 (slot 2, 1), pad row 0 (slot 0, 0).
  EXPECT_EQ(shape.path(4).mixed_slot, 2u);
  EXPECT_EQ(shape.path(4).mixed_offset, 1u);
  EXPECT_EQ(shape.path(4).pad_slot, 0u);
  EXPECT_EQ(shape.path(4).pad_offset, 0u);
}

// The journal-side cases (bad (m, r), sums, lengths) are in
// BuildReplayState.RejectsInconsistentSegmentRecord; these need the fleet
// and matrix bounds only a restart knows.
TEST(SegmentShape, FromRecordRejectsMalformedShapesWithoutAborting) {
  struct Case {
    const char* name;
    size_t m, r;
    std::vector<size_t> row_counts, phys, data_rows;
  };
  const Case cases[] = {
      {"empty slot", 2, 1, {3, 0}, {0, 1}, {0, 1}},
      {"device outside fleet", 2, 2, {2, 2}, {0, 4}, {0, 1}},
      {"row outside matrix", 2, 2, {2, 2}, {0, 1}, {0, 6}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Result<SegmentShape> shape = SegmentShape::FromRecord(
        Record(c.m, c.r, c.row_counts, c.phys, c.data_rows),
        /*fleet_size=*/4, /*num_data_rows=*/6);
    ASSERT_FALSE(shape.ok());
    EXPECT_EQ(shape.status().code(), ErrorCode::kDecodeFailure);
  }
  const Result<SegmentShape> shape =
      SegmentShape::FromRecord(Record(2, 2, {2, 2}, {0, 3}, {5, 1}), 4, 6);
  ASSERT_TRUE(shape.ok()) << shape.status();
  EXPECT_EQ(shape->data_rows(), (std::vector<size_t>{5, 1}));
}

TEST(SegmentShape, MissingRowsListsUndecodedRowsInOrder) {
  std::vector<std::optional<double>> decoded(5);
  decoded[1] = 1.0;
  decoded[3] = -2.0;
  EXPECT_EQ(MissingRows(decoded), (std::vector<size_t>{0, 2, 4}));
}

TEST(SegmentLedger, PadAndMaskedRowOnOneDeviceLeaks) {
  const Result<SegmentShape> shape =
      SegmentShape::FromRecord(Record(1, 1, {1, 1}, {0, 0}, {0}), 2, 1);
  ASSERT_TRUE(shape.ok()) << shape.status();
  CumulativeViewLedger ledger(/*m=*/1, /*fleet_size=*/2);
  ledger.Record(*shape);
  EXPECT_EQ(ledger.rows_held(0), 2u);
  EXPECT_EQ(ledger.rows_held(1), 0u);
  const SchemeSecurityReport report = ledger.Verify();
  EXPECT_FALSE(report.all_secure);
  ASSERT_EQ(report.devices.size(), 2u);
  EXPECT_FALSE(report.devices[0].secure());
  EXPECT_TRUE(report.devices[1].secure());
}

TEST(SegmentLedger, EveryRoundGetsFreshPadColumns) {
  // The same rows re-encoded onto the same devices twice: secure only
  // because each round's pads are new columns of the extended basis.
  const SegmentShape shape({0, 1, 2}, StructuredCode(3, 3),
                           Scheme(3, 3, {3, 3}), {0, 1});
  CumulativeViewLedger ledger(/*m=*/3, /*fleet_size=*/3);
  ledger.Record(shape);
  ledger.Record(shape);
  EXPECT_EQ(ledger.pad_columns(), 6u);
  EXPECT_EQ(ledger.rows_held(0), 6u);
  EXPECT_EQ(ledger.rows_held(1), 6u);
  EXPECT_EQ(ledger.rows_held(2), 0u);
  EXPECT_TRUE(ledger.Verify().all_secure);
}

TEST(SegmentBuild, RepairPlansOnlyOverUsableDevicesAndDecodes) {
  Xoshiro256StarStar rng(5);
  const DeviceFleet fleet = MakeCampusFleet(6, rng);
  const Matrix<double> a = RandomMatrix<double>(8, 4, rng);
  const std::vector<double> x = RandomVector<double>(4, rng);
  const std::vector<double> want = MatVec(a, std::span<const double>(x));
  const auto usable = [](size_t d) { return d != 1 && d != 3; };
  ChaCha20Rng pads(9);
  const Result<EncodedSegment> repair =
      BuildRepairSegment(a, {6, 2, 5}, fleet, usable, pads);
  ASSERT_TRUE(repair.ok()) << repair.status();
  EXPECT_EQ(repair->shape.data_rows(), (std::vector<size_t>{6, 2, 5}));
  EXPECT_GT(repair->plan_cost, 0.0);
  for (const size_t device : repair->shape.phys()) {
    EXPECT_TRUE(usable(device)) << "device " << device;
  }
  ASSERT_EQ(repair->shares.size(), repair->shape.num_slots());

  const std::vector<std::vector<double>> answers = Answers(*repair, x);
  const std::vector<std::optional<double>> decoded = Decode(
      *repair, answers, std::vector<bool>(repair->shape.num_slots(), true), 8);
  EXPECT_EQ(MissingRows(decoded), (std::vector<size_t>{0, 1, 3, 4, 7}));
  for (const size_t row : repair->shape.data_rows()) {
    EXPECT_NEAR(*decoded[row], want[row], 1e-9) << "row " << row;
  }

  ChaCha20Rng more_pads(9);
  const Result<EncodedSegment> starved = BuildRepairSegment(
      a, {0}, fleet, [](size_t d) { return d == 0; }, more_pads);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), ErrorCode::kInfeasible);
}

TEST(SegmentBuild, PairSplitsPadsAndMixedRowsAcrossTwoDevices) {
  Xoshiro256StarStar rng(6);
  const Matrix<double> a = RandomMatrix<double>(6, 3, rng);
  const std::vector<double> x = RandomVector<double>(3, rng);
  const std::vector<double> want = MatVec(a, std::span<const double>(x));
  ChaCha20Rng pads(3);
  const EncodedSegment pair = BuildPairSegment(a, {4, 0}, 5, 2, pads);
  EXPECT_EQ(pair.shape.phys(), (std::vector<size_t>{5, 2}));
  EXPECT_EQ(pair.shape.code().m(), 2u);
  EXPECT_EQ(pair.shape.code().r(), 2u);
  EXPECT_EQ(pair.shape.scheme().row_counts, (std::vector<size_t>{2, 2}));

  const std::vector<std::vector<double>> answers = Answers(pair, x);
  std::vector<std::optional<double>> decoded =
      Decode(pair, answers, {true, true}, 6);
  EXPECT_NEAR(*decoded[4], want[4], 1e-9);
  EXPECT_NEAR(*decoded[0], want[0], 1e-9);
  // Either device alone yields nothing.
  decoded = Decode(pair, answers, {true, false}, 6);
  EXPECT_EQ(MissingRows(decoded).size(), 6u);

  CumulativeViewLedger ledger(/*m=*/6, /*fleet_size=*/6);
  ledger.Record(pair.shape);
  EXPECT_TRUE(ledger.Verify().all_secure);
}

}  // namespace
}  // namespace scec
