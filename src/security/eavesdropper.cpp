// SPDX-License-Identifier: MIT

#include "security/eavesdropper.h"

#include "field/field_traits.h"
#include "linalg/elimination.h"
#include "linalg/matrix_ops.h"

namespace scec {

template <typename T>
RecoveryAttack<T> AttemptLinearRecovery(const Matrix<T>& coefficients,
                                        const Matrix<T>& coded_rows,
                                        size_t m) {
  using Traits = FieldTraits<T>;
  SCEC_CHECK_EQ(coefficients.rows(), coded_rows.rows());
  SCEC_CHECK_LE(m, coefficients.cols());
  const size_t v = coefficients.rows();
  const size_t r = coefficients.cols() - m;

  RecoveryAttack<T> attack;

  // Null space of G_j^T: all w (length v) with w·G_j = 0.
  const Matrix<T> pad_part = coefficients.Block(0, m, v, r);
  const Matrix<T> null_basis = NullSpaceBasis(pad_part.Transposed());

  // For each basis w, the data-part combination is w·D_j; keep nonzero ones.
  const Matrix<T> data_part = coefficients.Block(0, 0, v, m);
  std::vector<std::vector<T>> combos;
  std::vector<std::vector<T>> values;
  for (size_t row = 0; row < null_basis.rows(); ++row) {
    auto w = null_basis.Row(row);
    std::vector<T> combo = MatVec(data_part.Transposed(), w);
    bool nonzero = false;
    for (const T& c : combo) {
      if (!Traits::IsZero(c)) {
        nonzero = true;
        break;
      }
    }
    if (!nonzero) continue;
    combos.push_back(std::move(combo));
    values.push_back(MatVec(coded_rows.Transposed(), w));
  }

  attack.succeeded = !combos.empty();
  if (attack.succeeded) {
    attack.combinations = Matrix<T>(combos.size(), m);
    attack.recovered = Matrix<T>(values.size(), coded_rows.cols());
    for (size_t row = 0; row < combos.size(); ++row) {
      attack.combinations.SetRow(row, std::span<const T>(combos[row]));
      attack.recovered.SetRow(row, std::span<const T>(values[row]));
    }
  }
  return attack;
}

template <typename T>
bool DeviceCanRecoverData(const Matrix<T>& coefficients, size_t m) {
  // Pure coefficient-space form: attack feasible iff span(B_j) meets the
  // data span nontrivially, i.e. rank(B_j) > rank(G_j) (the projection
  // identity of coding/security_check.h).
  SCEC_CHECK_LE(m, coefficients.cols());
  const Matrix<T> pad_part = coefficients.Block(
      0, m, coefficients.rows(), coefficients.cols() - m);
  return RankOf(coefficients) > RankOf(pad_part);
}

template RecoveryAttack<double> AttemptLinearRecovery<double>(
    const Matrix<double>&, const Matrix<double>&, size_t);
template RecoveryAttack<Gf61> AttemptLinearRecovery<Gf61>(const Matrix<Gf61>&,
                                                          const Matrix<Gf61>&,
                                                          size_t);
template bool DeviceCanRecoverData<double>(const Matrix<double>&, size_t);
template bool DeviceCanRecoverData<Gf61>(const Matrix<Gf61>&, size_t);

}  // namespace scec
