// SPDX-License-Identifier: MIT
//
// Verification of the paper's two conditions for an LCEC:
//
//   Availability (Def. 1): B is full rank ⇒ the user can decode A·x.
//   Security (Def. 2, ITS): H(A | B_j·T) = H(A) for every device, which by
//   [Cai & Chan 2011] is equivalent to dim( L(B_j) ∩ L([E_m | 0]) ) = 0.
//
// The intersection is computed by the projection identity
//
//   dim( L(B_j) ∩ L([E_m | 0]) ) = rank(B_j) − rank(B_j[:, m:]).
//
// Proof: let π drop the first m (data) coordinates. Restricted to L(B_j),
// its kernel is the vectors of L(B_j) with zero pad part — exactly
// L(B_j) ∩ L([E_m | 0]) — and its image is L(B_j[:, m:]), so rank–nullity
// gives the identity. No data-span basis is stacked under B_j.
//
// All ranks are exact, over GF(2^61−1), by the sparse row echelon of
// linalg/sparse_echelon.h: every row of the structured B has at most two
// nonzeros, so a whole scheme check costs O(nnz(B)). B's entries are 0/1,
// so its rank is field-independent for any field of characteristic > 2
// (and we additionally cross-check characteristic-2 corner cases in tests).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "coding/encoding_matrix.h"
#include "common/error.h"
#include "field/gf_prime.h"
#include "linalg/matrix.h"
#include "linalg/sparse_echelon.h"

namespace scec {

struct DeviceSecurityReport {
  size_t device = 0;
  size_t rows = 0;                 // V(B_j)
  size_t rank = 0;                 // rank(B_j)
  size_t intersection_dim = 0;     // dim(L(B_j) ∩ L([E_m|0])); 0 ⇔ ITS
  bool secure() const { return intersection_dim == 0; }
};

struct SchemeSecurityReport {
  bool available = false;          // B full rank
  bool all_secure = false;         // every device passes ITS
  size_t b_rank = 0;
  std::vector<DeviceSecurityReport> devices;

  bool Valid() const { return available && all_secure; }
  std::string Summary() const;
};

// Verifies the structured Eq. (8) code under the given scheme: the global
// availability rank and the k per-device ITS checks, built straight from
// `StructuredCode::RowSpec` (B is never materialised).
SchemeSecurityReport VerifyStructuredScheme(const StructuredCode& code,
                                            const LcecScheme& scheme);

// Verifies an arbitrary encoding matrix `b` ((m+r)×(m+r) over GF(2^61−1))
// partitioned by `row_counts` (must sum to m+r). `m` identifies the data
// span [E_m | 0].
SchemeSecurityReport VerifyEncodingMatrix(
    const Matrix<Gf61>& b, size_t m, const std::vector<size_t>& row_counts);

// Convenience: Status form for call sites that want to propagate failure.
Status CheckSchemeSecure(const StructuredCode& code, const LcecScheme& scheme);

// Def. 2 for any coefficient rows over [A | pads] (columns [0, m) are the
// data span): the one core every check above and below runs. `device` is
// left 0.
DeviceSecurityReport VerifyView(const SparseRows<Gf61>& view, size_t m);

// Appends one Eq. (8) coefficient row: e_data + e_pad, or e_pad alone for a
// pure pad row (`data_col` absent). `data_col` < `pad_col`.
void AddCodedRow(SparseRows<Gf61>& rows, std::optional<size_t> data_col,
                 size_t pad_col);

// Def. 2 for one device's CUMULATIVE view: when recovery re-encoding ships a
// device additional coded rows (see sim/fault_tolerant_protocol.h), its
// knowledge is the stack of every coefficient row it ever held, expressed
// over the extended basis [A_1…A_m | pads of every encoding round]. ITS
// holds for the device iff that stacked span still meets the data span
// [E_m | 0] only at 0 — which is exactly why recovery must draw FRESH pads:
// reusing a pad column lets (old row − new row) cancel the pad and expose a
// difference of data rows. `block` is rows × width with width ≥ m.
DeviceSecurityReport VerifyCumulativeView(const Matrix<Gf61>& block, size_t m);

// Aggregate form over every device's cumulative block (same width for all).
// `available` is set to true unconditionally: availability is a per-round
// property of each encoding's B and is checked at (re-)encode time, not here.
SchemeSecurityReport VerifyCumulativeViews(
    const std::vector<Matrix<Gf61>>& blocks, size_t m);
SchemeSecurityReport VerifyCumulativeViews(
    const std::vector<SparseRows<Gf61>>& views, size_t m);

}  // namespace scec
