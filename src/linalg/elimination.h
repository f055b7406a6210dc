// SPDX-License-Identifier: MIT
//
// Gaussian elimination, rank, linear solve and inversion, templated over
// FieldTraits scalars.
//
// For exact fields any nonzero pivot is chosen (first found); for doubles we
// use partial pivoting and treat |v| <= tolerance as zero. The security
// verifier's exact ranks run on the sparse echelon (linalg/sparse_echelon.h);
// these dense routines are the generic reference it is tested against.

#pragma once

#include <optional>
#include <vector>

#include "common/check.h"
#include "field/field_traits.h"
#include "linalg/matrix.h"

namespace scec {

// Reduces `m` in place to row echelon form. Returns the pivot column of each
// pivot row (size == rank).
template <typename T>
std::vector<size_t> RowEchelon(Matrix<T>& m) {
  using Traits = FieldTraits<T>;
  std::vector<size_t> pivot_cols;
  size_t pivot_row = 0;
  for (size_t col = 0; col < m.cols() && pivot_row < m.rows(); ++col) {
    // Select pivot: best magnitude for inexact scalars, first nonzero for
    // exact fields.
    size_t best = pivot_row;
    double best_mag = Traits::PivotMagnitude(m(pivot_row, col));
    for (size_t row = pivot_row + 1; row < m.rows(); ++row) {
      const double mag = Traits::PivotMagnitude(m(row, col));
      if (mag > best_mag) {
        best = row;
        best_mag = mag;
        if constexpr (Traits::is_exact) break;  // any nonzero pivot works
      }
    }
    // The pivot must clear the scalar type's zero threshold (exact fields:
    // literally nonzero; doubles: above the magnitude tolerance).
    if (Traits::IsZero(m(best, col))) continue;
    m.SwapRows(pivot_row, best);
    const T inv = Traits::Inverse(m(pivot_row, col));
    // Normalise the pivot row so the pivot is 1 (simplifies back-substitution).
    auto prow = m.Row(pivot_row);
    for (size_t c = col; c < m.cols(); ++c) prow[c] = prow[c] * inv;
    for (size_t row = pivot_row + 1; row < m.rows(); ++row) {
      const T factor = m(row, col);
      if (Traits::IsZero(factor)) continue;
      auto rrow = m.Row(row);
      for (size_t c = col; c < m.cols(); ++c) {
        rrow[c] = rrow[c] - factor * prow[c];
      }
    }
    pivot_cols.push_back(col);
    ++pivot_row;
  }
  return pivot_cols;
}

// Continues from row echelon form to *reduced* row echelon form.
template <typename T>
std::vector<size_t> ReducedRowEchelon(Matrix<T>& m) {
  std::vector<size_t> pivot_cols = RowEchelon(m);
  using Traits = FieldTraits<T>;
  for (size_t p = pivot_cols.size(); p-- > 0;) {
    const size_t col = pivot_cols[p];
    for (size_t row = 0; row < p; ++row) {
      const T factor = m(row, col);
      if (Traits::IsZero(factor)) continue;
      auto rrow = m.Row(row);
      auto prow = m.Row(p);
      for (size_t c = col; c < m.cols(); ++c) {
        rrow[c] = rrow[c] - factor * prow[c];
      }
    }
  }
  return pivot_cols;
}

template <typename T>
size_t RankOf(Matrix<T> m) {  // by value: elimination destroys the input
  return RowEchelon(m).size();
}

template <typename T>
bool IsFullRank(const Matrix<T>& m) {
  return RankOf(m) == std::min(m.rows(), m.cols());
}

// Solves M x = b for square nonsingular M. Returns nullopt when singular
// (or numerically singular for doubles).
template <typename T>
std::optional<std::vector<T>> Solve(Matrix<T> m, std::vector<T> b) {
  using Traits = FieldTraits<T>;
  SCEC_CHECK_EQ(m.rows(), m.cols());
  SCEC_CHECK_EQ(m.rows(), b.size());
  const size_t n = m.rows();
  // Forward elimination on the augmented system.
  for (size_t col = 0; col < n; ++col) {
    size_t best = col;
    double best_mag = Traits::PivotMagnitude(m(col, col));
    for (size_t row = col + 1; row < n; ++row) {
      const double mag = Traits::PivotMagnitude(m(row, col));
      if (mag > best_mag) {
        best = row;
        best_mag = mag;
        if constexpr (Traits::is_exact) break;
      }
    }
    if (Traits::IsZero(m(best, col))) return std::nullopt;
    m.SwapRows(col, best);
    std::swap(b[col], b[best]);
    const T inv = Traits::Inverse(m(col, col));
    auto prow = m.Row(col);
    for (size_t c = col; c < n; ++c) prow[c] = prow[c] * inv;
    b[col] = b[col] * inv;
    for (size_t row = col + 1; row < n; ++row) {
      const T factor = m(row, col);
      if (Traits::IsZero(factor)) continue;
      auto rrow = m.Row(row);
      for (size_t c = col; c < n; ++c) rrow[c] = rrow[c] - factor * prow[c];
      b[row] = b[row] - factor * b[col];
    }
  }
  // Back substitution.
  for (size_t col = n; col-- > 0;) {
    for (size_t row = 0; row < col; ++row) {
      const T factor = m(row, col);
      if (Traits::IsZero(factor)) continue;
      b[row] = b[row] - factor * b[col];
    }
  }
  return b;
}

// Inverse of a square matrix; nullopt when singular.
template <typename T>
std::optional<Matrix<T>> Inverse(const Matrix<T>& m) {
  SCEC_CHECK_EQ(m.rows(), m.cols());
  const size_t n = m.rows();
  Matrix<T> aug = m.HStack(Matrix<T>::Identity(n));
  const std::vector<size_t> pivots = ReducedRowEchelon(aug);
  if (pivots.size() != n) return std::nullopt;
  // Pivot columns must be exactly 0..n-1 for an invertible left block.
  for (size_t i = 0; i < n; ++i) {
    if (pivots[i] != i) return std::nullopt;
  }
  return aug.Block(0, n, n, n);
}

// Basis of the (right) null space { x : M·x = 0 }, returned as the rows of
// a matrix (each row is one basis vector of length M.cols()). Standard
// free-variable construction from the RREF.
template <typename T>
Matrix<T> NullSpaceBasis(Matrix<T> m) {
  using Traits = FieldTraits<T>;
  const size_t cols = m.cols();
  const std::vector<size_t> pivot_cols = ReducedRowEchelon(m);
  // Mark pivot columns.
  std::vector<bool> is_pivot(cols, false);
  for (size_t col : pivot_cols) is_pivot[col] = true;
  const size_t nullity = cols - pivot_cols.size();
  Matrix<T> basis(nullity, cols);
  size_t out = 0;
  for (size_t free_col = 0; free_col < cols; ++free_col) {
    if (is_pivot[free_col]) continue;
    // x[free_col] = 1; x[pivot col of row p] = −m(p, free_col).
    basis(out, free_col) = Traits::One();
    for (size_t p = 0; p < pivot_cols.size(); ++p) {
      const T coeff = m(p, free_col);
      if (!Traits::IsZero(coeff)) basis(out, pivot_cols[p]) = -coeff;
    }
    ++out;
  }
  SCEC_CHECK_EQ(out, nullity);
  return basis;
}

// dim( span(rows of A) ∩ span(rows of B) ) via the dimension formula
//   dim(U ∩ W) = rank(A) + rank(B) − rank([A; B]).
// This is the quantity in the paper's security condition (Def. 2 rephrased
// via [20]): a device's share B_j is ITS-safe iff the intersection of its
// row span with the data span has dimension zero. The verifier computes it
// by the projection identity (coding/security_check.h); this generic form
// is the reference.
template <typename T>
size_t SpanIntersectionDim(const Matrix<T>& a, const Matrix<T>& b) {
  if (a.empty() || b.empty()) return 0;
  SCEC_CHECK_EQ(a.cols(), b.cols());
  const size_t rank_a = RankOf(a);
  const size_t rank_b = RankOf(b);
  const size_t rank_ab = RankOf(a.VStack(b));
  SCEC_CHECK_LE(rank_ab, rank_a + rank_b);
  return rank_a + rank_b - rank_ab;
}

}  // namespace scec
