// SPDX-License-Identifier: MIT

#include "coding/security_check.h"

#include <sstream>
#include <string>

#include "linalg/sparse_echelon.h"
#include "obs/trace.h"

namespace scec {

std::string SchemeSecurityReport::Summary() const {
  std::ostringstream os;
  os << "availability=" << (available ? "OK" : "FAIL") << " (rank(B)="
     << b_rank << "), security=" << (all_secure ? "OK" : "FAIL");
  for (const DeviceSecurityReport& d : devices) {
    if (!d.secure()) {
      os << " [device " << d.device << " leaks dim=" << d.intersection_dim
         << "]";
    }
  }
  return os.str();
}

namespace {

// Def. 2 for rows [begin, end) of `rows` by the projection identity (see the
// header): rank of the rows minus rank of their pad columns.
DeviceSecurityReport ViewReport(const SparseRows<Gf61>& rows, size_t begin,
                                size_t end, size_t m) {
  SparseRowEchelon<Gf61> full(rows.cols());
  SparseRowEchelon<Gf61> pads(rows.cols());
  for (size_t row = begin; row < end; ++row) {
    full.Insert(rows.Row(row));
    pads.Insert(ColumnsFrom(rows.Row(row), m));
  }
  DeviceSecurityReport report;
  report.rows = end - begin;
  report.rank = full.rank();
  report.intersection_dim = full.rank() - pads.rank();
  return report;
}

// Availability rank of all of `b` plus each device's Def. 2 check on its
// contiguous block of `row_counts[device]` rows.
SchemeSecurityReport VerifyPartition(const SparseRows<Gf61>& b, size_t m,
                                     const std::vector<size_t>& row_counts) {
  SchemeSecurityReport report;
  {
    SCEC_TRACE_SPAN("its_check/availability_rank", "security");
    report.b_rank = SparseRank(b);
  }
  report.available = report.b_rank == b.cols();
  report.all_secure = true;
  size_t start = 0;
  for (size_t device = 0; device < row_counts.size(); ++device) {
    obs::SpanGuard span(
        [&] { return "its_check/device " + std::to_string(device); },
        "security");
    DeviceSecurityReport dev =
        ViewReport(b, start, start + row_counts[device], m);
    dev.device = device;
    if (!dev.secure()) report.all_secure = false;
    report.devices.push_back(dev);
    start += row_counts[device];
  }
  return report;
}

}  // namespace

void AddCodedRow(SparseRows<Gf61>& rows, std::optional<size_t> data_col,
                 size_t pad_col) {
  if (data_col.has_value()) {
    rows.AddRow({{*data_col, Gf61::One()}, {pad_col, Gf61::One()}});
  } else {
    rows.AddRow({{pad_col, Gf61::One()}});
  }
}

DeviceSecurityReport VerifyView(const SparseRows<Gf61>& view, size_t m) {
  SCEC_CHECK_LE(m, view.cols());
  return ViewReport(view, 0, view.rows(), m);
}

SchemeSecurityReport VerifyEncodingMatrix(
    const Matrix<Gf61>& b, size_t m, const std::vector<size_t>& row_counts) {
  SCEC_CHECK_EQ(b.rows(), b.cols());
  size_t total = 0;
  for (size_t count : row_counts) total += count;
  SCEC_CHECK_EQ(total, b.rows());
  SCEC_CHECK_LE(m, b.cols());
  return VerifyPartition(SparseRows<Gf61>::FromDense(b), m, row_counts);
}

SchemeSecurityReport VerifyStructuredScheme(const StructuredCode& code,
                                            const LcecScheme& scheme) {
  code.CheckScheme(scheme);
  const size_t m = code.m();
  SparseRows<Gf61> b(code.total_rows());
  for (size_t row = 0; row < code.total_rows(); ++row) {
    const CodedRowSpec spec = code.RowSpec(row);
    AddCodedRow(b, spec.data_row, m + spec.random_row);
  }
  return VerifyPartition(b, m, scheme.row_counts);
}

DeviceSecurityReport VerifyCumulativeView(const Matrix<Gf61>& block,
                                          size_t m) {
  return VerifyView(SparseRows<Gf61>::FromDense(block), m);
}

SchemeSecurityReport VerifyCumulativeViews(
    const std::vector<SparseRows<Gf61>>& views, size_t m) {
  SchemeSecurityReport report;
  report.available = true;  // per-round property, see header
  report.all_secure = true;
  for (size_t device = 0; device < views.size(); ++device) {
    DeviceSecurityReport dev = VerifyView(views[device], m);
    dev.device = device;
    if (!dev.secure()) report.all_secure = false;
    report.devices.push_back(dev);
  }
  return report;
}

SchemeSecurityReport VerifyCumulativeViews(
    const std::vector<Matrix<Gf61>>& blocks, size_t m) {
  std::vector<SparseRows<Gf61>> views;
  views.reserve(blocks.size());
  for (const Matrix<Gf61>& block : blocks) {
    views.push_back(SparseRows<Gf61>::FromDense(block));
  }
  return VerifyCumulativeViews(views, m);
}

Status CheckSchemeSecure(const StructuredCode& code, const LcecScheme& scheme) {
  const SchemeSecurityReport report = VerifyStructuredScheme(code, scheme);
  if (!report.available) {
    return DecodeFailure("availability violated: B not full rank");
  }
  if (!report.all_secure) {
    return SecurityViolation(report.Summary());
  }
  return Status::Ok();
}

}  // namespace scec
