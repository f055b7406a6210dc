// SPDX-License-Identifier: MIT
//
// The Def. 2 check by projection, dim(L(B_j) ∩ L([E_m|0])) =
// rank(B_j) − rank(B_j[:, m:]), on the exact sparse row echelon, against
// the dense formula it replaced: rank(B_j) + m − rank([B_j; λ̄]) with
// λ̄ = [E_m | 0] stacked under the block (`SpanIntersectionDim`).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "coding/security_check.h"
#include "common/rng.h"
#include "core/planner.h"
#include "core/segment.h"
#include "field/gf256.h"
#include "linalg/elimination.h"
#include "linalg/sparse_echelon.h"

namespace scec {
namespace {

Matrix<Gf61> DataSpanBasis(size_t m, size_t cols) {
  Matrix<Gf61> lambda(m, cols);
  for (size_t row = 0; row < m; ++row) lambda(row, row) = Gf61::One();
  return lambda;
}

// The pre-projection dense check, kept as the reference: the availability
// rank of B, then per device rank(B_j) and SpanIntersectionDim(B_j, λ̄).
SchemeSecurityReport DenseReference(const Matrix<Gf61>& b, size_t m,
                                    const std::vector<size_t>& row_counts) {
  const size_t n = b.rows();
  const Matrix<Gf61> lambda = DataSpanBasis(m, n);
  SchemeSecurityReport report;
  report.b_rank = RankOf(b);
  report.available = report.b_rank == n;
  report.all_secure = true;
  size_t start = 0;
  for (size_t device = 0; device < row_counts.size(); ++device) {
    const Matrix<Gf61> block = b.RowSlice(start, row_counts[device]);
    DeviceSecurityReport dev;
    dev.device = device;
    dev.rows = row_counts[device];
    dev.rank = RankOf(block);
    dev.intersection_dim = SpanIntersectionDim(block, lambda);
    if (!dev.secure()) report.all_secure = false;
    report.devices.push_back(dev);
    start += row_counts[device];
  }
  return report;
}

void ExpectSameReport(const SchemeSecurityReport& got,
                      const SchemeSecurityReport& want,
                      const std::string& where) {
  EXPECT_EQ(got.available, want.available) << where;
  EXPECT_EQ(got.all_secure, want.all_secure) << where;
  EXPECT_EQ(got.b_rank, want.b_rank) << where;
  ASSERT_EQ(got.devices.size(), want.devices.size()) << where;
  for (size_t d = 0; d < want.devices.size(); ++d) {
    EXPECT_EQ(got.devices[d].device, want.devices[d].device) << where;
    EXPECT_EQ(got.devices[d].rows, want.devices[d].rows) << where;
    EXPECT_EQ(got.devices[d].rank, want.devices[d].rank) << where;
    EXPECT_EQ(got.devices[d].intersection_dim,
              want.devices[d].intersection_dim)
        << where << " device " << d;
  }
  EXPECT_EQ(got.Summary(), want.Summary()) << where;
}

// A random matrix whose rows mix the cases elimination gets wrong first:
// zero rows, duplicated rows, linear combinations of earlier rows, all-(P−1)
// entries, and sparse rows of random density.
template <typename T>
Matrix<T> AdversarialMatrix(size_t rows, size_t cols, ChaCha20Rng& rng) {
  using Traits = FieldTraits<T>;
  Matrix<T> out(rows, cols);
  const size_t density_pct = 10 + rng.NextBelow(91);
  for (size_t row = 0; row < rows; ++row) {
    const uint64_t kind = rng.NextBelow(6);
    if (kind == 0) continue;  // zero row
    if (row > 0 && kind == 1) {
      out.SetRow(row, out.Row(rng.NextBelow(row)));  // duplicate
      continue;
    }
    if (row > 1 && kind == 2) {  // combination of two earlier rows
      const T c0 = Traits::Random(rng);
      const T c1 = Traits::Random(rng);
      const size_t r0 = rng.NextBelow(row);
      const size_t r1 = rng.NextBelow(row);
      for (size_t col = 0; col < cols; ++col) {
        out(row, col) = c0 * out(r0, col) + c1 * out(r1, col);
      }
      continue;
    }
    for (size_t col = 0; col < cols; ++col) {
      if (kind == 3) {
        out(row, col) = -Traits::One();  // P − 1 in GF(P)
      } else if (rng.NextBelow(100) < density_pct) {
        out(row, col) = Traits::RandomNonZero(rng);
      }
    }
  }
  return out;
}

TEST(SparseEchelon, RankMatchesDenseRankOf) {
  ChaCha20Rng rng(17);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t rows = rng.NextBelow(14);
    const size_t cols = 1 + rng.NextBelow(14);
    const Matrix<Gf61> m = AdversarialMatrix<Gf61>(rows, cols, rng);
    EXPECT_EQ(SparseRank(SparseRows<Gf61>::FromDense(m)), RankOf(m))
        << "trial " << trial << " (" << rows << "x" << cols << ")";
  }
}

TEST(SparseEchelon, RankMatchesDenseRankOfInGf256) {
  // Characteristic 2: the echelon is generic over exact fields.
  ChaCha20Rng rng(18);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t rows = rng.NextBelow(12);
    const size_t cols = 1 + rng.NextBelow(12);
    const Matrix<Gf256> m = AdversarialMatrix<Gf256>(rows, cols, rng);
    EXPECT_EQ(SparseRank(SparseRows<Gf256>::FromDense(m)), RankOf(m))
        << "trial " << trial;
  }
}

TEST(SparseEchelon, InsertReportsIndependence) {
  SparseRows<Gf61> rows(4);
  rows.AddRow({{0, Gf61(2)}, {3, Gf61(5)}});
  rows.AddRow({{0, Gf61(4)}, {3, Gf61(10)}});  // 2 × row 0
  rows.AddRow({{1, Gf61::Zero()}});            // a stored zero is dropped
  rows.AddRow({{1, Gf61(1)}, {2, Gf61(1)}});
  EXPECT_EQ(rows.Row(0).size(), 2u);
  EXPECT_TRUE(rows.Row(2).empty());
  SparseRowEchelon<Gf61> echelon(4);
  EXPECT_TRUE(echelon.Insert(rows.Row(0)));
  EXPECT_FALSE(echelon.Insert(rows.Row(1)));
  EXPECT_FALSE(echelon.Insert(rows.Row(2)));
  EXPECT_TRUE(echelon.Insert(rows.Row(3)));
  EXPECT_EQ(echelon.rank(), 2u);
  EXPECT_EQ(SparseRank(rows), 2u);
  EXPECT_EQ(ColumnsFrom(rows.Row(3), 2).size(), 1u);
}

// The projection identity on random blocks over [A | pads], against the
// dense stacked formula.
TEST(Def2Projection, MatchesDenseSpanIntersectionDim) {
  ChaCha20Rng rng(29);
  size_t leaking = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const size_t m = 1 + rng.NextBelow(8);
    const size_t pads = rng.NextBelow(8);
    const size_t rows = rng.NextBelow(12);
    Matrix<Gf61> block = AdversarialMatrix<Gf61>(rows, m + pads, rng);
    if (pads > 0 && rows >= 2 && trial % 3 == 0) {
      // Deliberate pad reuse: two rows share one pad column and nothing
      // else there, so their difference is a pure data combination.
      const size_t pad = m + rng.NextBelow(pads);
      for (size_t row : {size_t{0}, size_t{1}}) {
        for (size_t col = m; col < m + pads; ++col) {
          block(row, col) = Gf61::Zero();
        }
        block(row, pad) = Gf61::One();
        block(row, rng.NextBelow(m)) =
            FieldTraits<Gf61>::RandomNonZero(rng);
      }
    }
    const size_t want =
        SpanIntersectionDim(block, DataSpanBasis(m, m + pads));
    const DeviceSecurityReport got = VerifyCumulativeView(block, m);
    EXPECT_EQ(got.intersection_dim, want) << "trial " << trial;
    EXPECT_EQ(got.rank, RankOf(block)) << "trial " << trial;
    EXPECT_EQ(got.rows, rows);
    if (want > 0) ++leaking;
  }
  EXPECT_GE(leaking, 100u) << "too few leaking blocks to test the identity";
}

// Report-for-report equality with the dense formula on the schemes TA2
// actually plans, and on the same B with two blocks merged so it leaks.
TEST(Def2Projection, GoldenTa2SweepMatchesDenseReference) {
  Xoshiro256StarStar rng(41);
  size_t leaking_partitions = 0;
  for (const size_t k : {2u, 4u, 8u}) {
    for (const size_t m : {1u, 5u, 33u, 128u, 512u}) {
      McscecProblem problem;
      problem.m = m;
      problem.l = 16;
      for (size_t j = 0; j < k; ++j) {
        EdgeDevice device;
        device.name = "d" + std::to_string(j);
        device.costs.storage = rng.NextDouble();
        device.costs.add = 0.5 * rng.NextDouble();
        device.costs.mul = device.costs.add + rng.NextDouble();
        device.costs.comm = 4.0 * rng.NextDouble();
        problem.fleet.Add(device);
      }
      const Result<Plan> plan = PlanMcscec(problem, TaAlgorithm::kTA2);
      ASSERT_TRUE(plan.ok()) << plan.status();
      const StructuredCode code(m, plan->allocation.r);
      const Matrix<Gf61> b = code.DenseB<Gf61>();
      const std::vector<size_t>& counts = plan->scheme.row_counts;
      const std::string where = "k=" + std::to_string(k) +
                                " m=" + std::to_string(m) +
                                " r=" + std::to_string(code.r());
      const SchemeSecurityReport want = DenseReference(b, m, counts);
      EXPECT_TRUE(want.Valid()) << where;
      ExpectSameReport(VerifyStructuredScheme(code, plan->scheme), want,
                       where);
      ExpectSameReport(VerifyEncodingMatrix(b, m, counts), want, where);
      EXPECT_TRUE(CheckSchemeSecure(code, plan->scheme).ok()) << where;

      if (counts.size() >= 3) {
        std::vector<size_t> merged = {counts[0] + counts[1]};
        merged.insert(merged.end(), counts.begin() + 2, counts.end());
        const SchemeSecurityReport leak = DenseReference(b, m, merged);
        ExpectSameReport(VerifyEncodingMatrix(b, m, merged), leak,
                         where + " merged");
        if (!leak.all_secure) ++leaking_partitions;
      }
    }
  }
  EXPECT_GE(leaking_partitions, 4u);
}

// The cumulative ledger when one device ends up holding two mixed rows
// masked by the same pad column: intersection_dim must equal the dense
// value on the same rows.
TEST(Def2Projection, LeakingLedgerMatchesDense) {
  const size_t m = 4, r = 2;
  // Slot 0 (pads R_0, R_1) on device 1; slots 1 and 2 (A_0+R_0, A_1+R_1
  // and A_2+R_0, A_3+R_1) both on device 0, so device 0 reuses R_0, R_1.
  const SegmentShape leaky({0, 1, 2, 3}, StructuredCode(m, r),
                           SchemeFromRowCounts(m, r, {2, 2, 2}), {1, 0, 0});
  const SegmentShape fresh({3, 1}, StructuredCode(2, 2),
                           SchemeFromRowCounts(2, 2, {2, 2}), {2, 0});
  CumulativeViewLedger ledger(m, /*fleet_size=*/3);
  ledger.Record(leaky);
  ledger.Record(fresh);
  ASSERT_EQ(ledger.pad_columns(), 4u);

  // The same views, built densely and independently of the ledger.
  std::vector<Matrix<Gf61>> dense(3, Matrix<Gf61>(0, m + 4));
  size_t pad_base = 0;
  for (const SegmentShape* segment : {&leaky, &fresh}) {
    size_t row = 0;
    for (size_t slot = 0; slot < segment->num_slots(); ++slot) {
      for (size_t k = 0; k < segment->scheme().row_counts[slot]; ++k) {
        const CodedRowSpec spec = segment->code().RowSpec(row++);
        Matrix<Gf61> one(1, m + 4);
        if (spec.data_row.has_value()) {
          one(0, segment->data_rows()[*spec.data_row]) = Gf61::One();
        }
        one(0, m + pad_base + spec.random_row) = Gf61::One();
        Matrix<Gf61>& view = dense[segment->phys()[slot]];
        view = view.VStack(one);
      }
    }
    pad_base += segment->code().r();
  }

  const SchemeSecurityReport report = ledger.Verify();
  EXPECT_FALSE(report.all_secure);
  ASSERT_EQ(report.devices.size(), 3u);
  const Matrix<Gf61> lambda = DataSpanBasis(m, m + 4);
  for (size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(report.devices[d].rows, dense[d].rows()) << "device " << d;
    EXPECT_EQ(report.devices[d].rank, RankOf(dense[d])) << "device " << d;
    EXPECT_EQ(report.devices[d].intersection_dim,
              SpanIntersectionDim(dense[d], lambda))
        << "device " << d;
  }
  EXPECT_EQ(report.devices[0].intersection_dim, 2u);
  EXPECT_TRUE(report.devices[1].secure());
  EXPECT_TRUE(report.devices[2].secure());
}

TEST(Def2Projection, LargeStructuredSchemeIsSecure) {
  const size_t m = 4096, k = 4;
  const size_t r = (m + k - 2) / (k - 1);
  const StructuredCode code(m, r);
  std::vector<size_t> counts = {r};
  for (size_t left = m; left > 0; left -= std::min(r, left)) {
    counts.push_back(std::min(r, left));
  }
  const LcecScheme scheme = SchemeFromRowCounts(m, r, counts);
  EXPECT_TRUE(CheckSchemeSecure(code, scheme).ok());
}

}  // namespace
}  // namespace scec
