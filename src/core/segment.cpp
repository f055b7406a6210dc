// SPDX-License-Identifier: MIT

#include "core/segment.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/planner.h"
#include "core/problem.h"
#include "obs/trace.h"

namespace scec {

SegmentShape::SegmentShape(std::vector<size_t> data_rows, StructuredCode code,
                           LcecScheme scheme, std::vector<size_t> phys)
    : data_rows_(std::move(data_rows)),
      code_(code),
      scheme_(std::move(scheme)),
      phys_(std::move(phys)) {
  SCEC_CHECK_EQ(data_rows_.size(), code_.m());
  SCEC_CHECK_EQ(phys_.size(), scheme_.num_devices());
  // Coded row of B -> (slot, offset), then each position's two operands.
  std::vector<std::pair<size_t, size_t>> holder;
  for (size_t slot = 0; slot < scheme_.num_devices(); ++slot) {
    for (size_t k = 0; k < scheme_.row_counts[slot]; ++k) {
      holder.emplace_back(slot, k);
    }
  }
  SCEC_CHECK_EQ(holder.size(), code_.total_rows());
  for (size_t p = 0; p < code_.m(); ++p) {
    const auto [mixed_slot, mixed_offset] = holder[code_.r() + p];
    const auto [pad_slot, pad_offset] = holder[p % code_.r()];
    paths_.push_back({mixed_slot, mixed_offset, pad_slot, pad_offset});
  }
}

Result<SegmentShape> SegmentShape::FromRecord(
    const recovery::JournalSegmentRecord& record, size_t fleet_size,
    size_t num_data_rows) {
  const size_t m = record.m;
  const size_t r = record.r;
  const std::vector<size_t>& row_counts = record.row_counts;
  if (m == 0 || r == 0 || r > m) {
    return DecodeFailure("segment has an invalid (m, r)");
  }
  // Checked first: it bounds m by the record's own size, so m + r below
  // cannot overflow.
  if (record.data_rows.size() != m) {
    return DecodeFailure("segment data_rows length != m");
  }
  size_t total_rows = 0;
  for (const size_t count : row_counts) {
    if (count == 0 || count > m + r) {
      return DecodeFailure("segment slot row count out of range");
    }
    total_rows += count;
  }
  if (total_rows != m + r) {
    return DecodeFailure("segment row_counts do not sum to m + r");
  }
  if (record.phys.size() != row_counts.size()) {
    return DecodeFailure("segment phys/row_counts length mismatch");
  }
  const auto reaches = [](const std::vector<size_t>& v, size_t bound) {
    return std::any_of(v.begin(), v.end(),
                       [bound](size_t x) { return x >= bound; });
  };
  if (reaches(record.phys, fleet_size)) {
    return DecodeFailure("segment maps a slot to a device outside the fleet");
  }
  if (reaches(record.data_rows, num_data_rows)) {
    return DecodeFailure("segment covers a row outside the matrix");
  }
  return SegmentShape(record.data_rows, StructuredCode(m, r),
                      LcecScheme{m, r, row_counts}, record.phys);
}

std::vector<size_t> MissingRows(
    const std::vector<std::optional<double>>& decoded) {
  std::vector<size_t> missing;
  for (size_t g = 0; g < decoded.size(); ++g) {
    if (!decoded[g].has_value()) missing.push_back(g);
  }
  return missing;
}

CumulativeViewLedger::CumulativeViewLedger(size_t m, size_t fleet_size)
    : m_(m), views_(fleet_size) {}

void CumulativeViewLedger::Record(const SegmentShape& segment) {
  size_t row = 0;
  for (size_t slot = 0; slot < segment.num_slots(); ++slot) {
    for (size_t k = 0; k < segment.scheme().row_counts[slot]; ++k, ++row) {
      const CodedRowSpec spec = segment.code().RowSpec(row);
      CoefficientRow held;
      if (spec.data_row.has_value()) {
        held.data_row = segment.data_rows()[*spec.data_row];
      }
      held.pad_col = pad_columns_ + spec.random_row;
      views_[segment.phys()[slot]].push_back(held);
    }
  }
  pad_columns_ += segment.code().r();
}

SchemeSecurityReport CumulativeViewLedger::Verify() const {
  std::vector<Matrix<Gf61>> blocks;
  blocks.reserve(views_.size());
  for (const std::vector<CoefficientRow>& view : views_) {
    Matrix<Gf61> block(view.size(), m_ + pad_columns_);
    for (size_t i = 0; i < view.size(); ++i) {
      if (view[i].data_row.has_value()) {
        block(i, *view[i].data_row) = Gf61::One();
      }
      block(i, m_ + view[i].pad_col) = Gf61::One();
    }
    blocks.push_back(std::move(block));
  }
  return VerifyCumulativeViews(blocks, m_);
}

namespace {

Matrix<double> GatherRows(const Matrix<double>& a,
                          const std::vector<size_t>& rows) {
  Matrix<double> out(rows.size(), a.cols());
  for (size_t p = 0; p < rows.size(); ++p) out.SetRow(p, a.Row(rows[p]));
  return out;
}

}  // namespace

Result<EncodedSegment> BuildRepairSegment(
    const Matrix<double>& a, const std::vector<size_t>& rows,
    const DeviceFleet& fleet, const std::function<bool(size_t)>& usable,
    ChaCha20Rng& pads) {
  std::vector<size_t> survivor_phys;
  McscecProblem problem;
  problem.m = rows.size();
  problem.l = a.cols();
  for (size_t d = 0; d < fleet.size(); ++d) {
    if (!usable(d)) continue;
    survivor_phys.push_back(d);
    problem.fleet.Add(fleet[d]);
  }
  if (survivor_phys.size() < 2) {
    return Infeasible("fewer than 2 devices survive; MCSCEC requires k >= 2");
  }
  Result<Plan> planned = [&] {
    SCEC_TRACE_SPAN("recovery/replan", "fault");
    return PlanMcscec(problem, TaAlgorithm::kTA2);
  }();
  SCEC_RETURN_IF_ERROR(planned.status());
  Plan& plan = planned.value();
  const StructuredCode code(rows.size(), plan.allocation.r);
  SCEC_RETURN_IF_ERROR(CheckSchemeSecure(code, plan.scheme));

  EncodedDeployment<double> encoded = [&] {
    SCEC_TRACE_SPAN("recovery/re_encode", "fault");
    return EncodeDeployment(code, plan.scheme, GatherRows(a, rows), pads);
  }();
  std::vector<size_t> phys;
  for (const size_t survivor : plan.participating) {
    phys.push_back(survivor_phys[survivor]);
  }
  return EncodedSegment{
      SegmentShape(rows, code, std::move(plan.scheme), std::move(phys)),
      std::move(encoded.shares), plan.allocation.total_cost};
}

EncodedSegment BuildPairSegment(const Matrix<double>& a,
                                std::vector<size_t> rows, size_t pad_device,
                                size_t mixed_device, ChaCha20Rng& pads) {
  const size_t s = rows.size();
  const StructuredCode code(s, s);
  LcecScheme scheme = SchemeFromRowCounts(s, s, {s, s});
  const Status secure = CheckSchemeSecure(code, scheme);
  SCEC_CHECK(secure.ok()) << secure.message();
  EncodedDeployment<double> encoded =
      EncodeDeployment(code, scheme, GatherRows(a, rows), pads);
  return EncodedSegment{SegmentShape(std::move(rows), code, std::move(scheme),
                                     {pad_device, mixed_device}),
                        std::move(encoded.shares)};
}

}  // namespace scec
