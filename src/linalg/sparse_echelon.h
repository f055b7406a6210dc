// SPDX-License-Identifier: MIT
//
// Exact-field sparse rank. `SparseRows` stores a matrix row by row as
// (column, value) entries; `SparseRowEchelon` inserts rows one at a time,
// reducing each against a basis keyed by leading column, and counts the
// ones that stay nonzero.
//
// The coefficient rows of the structured Eq. (8) code have at most two
// nonzeros, and so do the rows the cumulative Def. 2 ledger records, so an
// insert there takes O(1) reduction steps and the rank of a block costs
// O(nnz) instead of dense elimination's O(rows²·cols). On dense input the
// echelon degrades to ordinary Gaussian elimination.
//
// Exact fields only: the pivot is whatever leading entry a row ends up
// with, which is sound only when "nonzero" is exact. Rank over doubles
// needs partial pivoting and a tolerance (linalg/elimination.h).

#pragma once

#include <cstddef>
#include <initializer_list>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "field/field_traits.h"
#include "linalg/matrix.h"

namespace scec {

template <typename T>
struct SparseEntry {
  size_t col = 0;
  T value{};
};

// A rows × cols matrix in compressed-row form. Each row's entries have
// strictly ascending columns and no zero values.
template <typename T>
class SparseRows {
 public:
  explicit SparseRows(size_t cols) : cols_(cols) {}

  static SparseRows FromDense(const Matrix<T>& dense) {
    SparseRows out(dense.cols());
    for (size_t row = 0; row < dense.rows(); ++row) {
      out.AddDenseRow(dense.Row(row));
    }
    return out;
  }

  // Appends a row given by strictly ascending columns; zero values are
  // dropped.
  void AddRow(std::initializer_list<SparseEntry<T>> entries) {
    size_t prev_end = 0;  // one past the previous entry's column
    for (const SparseEntry<T>& e : entries) {
      SCEC_CHECK_LE(prev_end, e.col);
      SCEC_CHECK_LT(e.col, cols_);
      prev_end = e.col + 1;
      if (!FieldTraits<T>::IsZero(e.value)) entries_.push_back(e);
    }
    offsets_.push_back(entries_.size());
  }

  void AddDenseRow(std::span<const T> values) {
    SCEC_CHECK_EQ(values.size(), cols_);
    for (size_t col = 0; col < values.size(); ++col) {
      if (!FieldTraits<T>::IsZero(values[col])) {
        entries_.push_back({col, values[col]});
      }
    }
    offsets_.push_back(entries_.size());
  }

  size_t rows() const { return offsets_.size() - 1; }
  size_t cols() const { return cols_; }

  std::span<const SparseEntry<T>> Row(size_t row) const {
    SCEC_CHECK_LT(row, rows());
    return std::span<const SparseEntry<T>>(entries_.data() + offsets_[row],
                                           offsets_[row + 1] - offsets_[row]);
  }

 private:
  size_t cols_;
  std::vector<size_t> offsets_{0};
  std::vector<SparseEntry<T>> entries_;
};

// The entries of `row` at columns >= first_col: the row's projection onto
// those columns, as a view.
template <typename T>
std::span<const SparseEntry<T>> ColumnsFrom(
    std::span<const SparseEntry<T>> row, size_t first_col) {
  size_t skip = 0;
  while (skip < row.size() && row[skip].col < first_col) ++skip;
  return row.subspan(skip);
}

template <typename T>
class SparseRowEchelon {
  static_assert(FieldTraits<T>::is_exact,
                "SparseRowEchelon needs an exact field: it pivots on any "
                "nonzero leading entry");

 public:
  explicit SparseRowEchelon(size_t cols) : pivot_of_col_(cols, kNoPivot) {}

  // Reduces `row` (strictly ascending columns, no zero values) against the
  // basis. Returns true and adds it when it is independent of the rows
  // inserted so far.
  bool Insert(std::span<const SparseEntry<T>> row) {
    work_.assign(row.begin(), row.end());
    while (!work_.empty()) {
      const size_t lead = work_.front().col;
      SCEC_CHECK_LT(lead, pivot_of_col_.size());
      const size_t pivot = pivot_of_col_[lead];
      if (pivot == kNoPivot) {
        // Normalise to a leading 1. The 0/1 rows of B already lead with
        // 1, and skipping the field inversion (~100 multiplications) is
        // what keeps their insert O(nnz).
        const T lead_value = work_.front().value;
        if (lead_value != FieldTraits<T>::One()) {
          const T inv = FieldTraits<T>::Inverse(lead_value);
          for (SparseEntry<T>& e : work_) e.value = e.value * inv;
        }
        pivot_of_col_[lead] = rank();
        basis_.insert(basis_.end(), work_.begin(), work_.end());
        basis_end_.push_back(basis_.size());
        return true;
      }
      SubtractMultiple(work_.front().value, pivot);
    }
    return false;
  }

  size_t rank() const { return basis_end_.size() - 1; }

 private:
  static constexpr size_t kNoPivot = std::numeric_limits<size_t>::max();

  // work_ −= factor · basis row `pivot`. Both rows lead at the same column
  // and the basis row's leading value is 1, so the leading entries cancel.
  void SubtractMultiple(const T& factor, size_t pivot) {
    const SparseEntry<T>* b = basis_.data() + basis_end_[pivot] + 1;
    const SparseEntry<T>* b_end = basis_.data() + basis_end_[pivot + 1];
    next_.clear();
    size_t i = 1;
    while (i < work_.size() || b != b_end) {
      if (b == b_end || (i < work_.size() && work_[i].col < b->col)) {
        next_.push_back(work_[i++]);
      } else if (i == work_.size() || b->col < work_[i].col) {
        next_.push_back({b->col, -(factor * b->value)});
        ++b;
      } else {
        const T value = work_[i].value - factor * b->value;
        if (!FieldTraits<T>::IsZero(value)) next_.push_back({b->col, value});
        ++i;
        ++b;
      }
    }
    std::swap(work_, next_);
  }

  std::vector<size_t> pivot_of_col_;
  // Basis row p is basis_[basis_end_[p], basis_end_[p + 1]), leading value 1.
  std::vector<SparseEntry<T>> basis_;
  std::vector<size_t> basis_end_{0};
  std::vector<SparseEntry<T>> work_, next_;
};

template <typename T>
size_t SparseRank(const SparseRows<T>& rows) {
  SparseRowEchelon<T> echelon(rows.cols());
  for (size_t row = 0; row < rows.rows(); ++row) echelon.Insert(rows.Row(row));
  return echelon.rank();
}

}  // namespace scec
