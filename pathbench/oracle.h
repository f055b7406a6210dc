// The benchmark's own A·x, written independently of the library's kernels,
// against which every answered query is checked: bit-exact for GF(2^61-1),
// within kDoubleTolerance for the double paths.

#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "field/gf_prime.h"
#include "linalg/matrix.h"

namespace pathbench {

// |got - want| <= kDoubleTolerance * (1 + |want|) per row. Inputs are
// uniform in [-1, 1), so a correct answer is off by ~1e-13 at l = 256.
inline constexpr double kDoubleTolerance = 1e-9;

inline std::vector<double> OracleMatVec(const scec::Matrix<double>& a,
                                        std::span<const double> x) {
  std::vector<double> y(a.rows(), 0.0);
  for (size_t row = 0; row < a.rows(); ++row) {
    const auto values = a.Row(row);
    long double sum = 0.0L;
    for (size_t col = 0; col < values.size(); ++col) {
      sum += static_cast<long double>(values[col]) * x[col];
    }
    y[row] = static_cast<double>(sum);
  }
  return y;
}

// Plain 128-bit multiply, each product folded mod 2^61 - 1 on its own.
inline std::vector<scec::Gf61> OracleMatVec(const scec::Matrix<scec::Gf61>& a,
                                            std::span<const scec::Gf61> x) {
  constexpr uint64_t p = scec::Gf61::kModulus;
  std::vector<scec::Gf61> y(a.rows());
  for (size_t row = 0; row < a.rows(); ++row) {
    const auto values = a.Row(row);
    uint64_t sum = 0;
    for (size_t col = 0; col < values.size(); ++col) {
      const unsigned __int128 product =
          static_cast<unsigned __int128>(values[col].value()) * x[col].value();
      // 2^61 = 1 (mod p): fold the high bits onto the low ones.
      uint64_t folded = static_cast<uint64_t>(product & p) +
                        static_cast<uint64_t>(product >> 61);
      if (folded >= p) folded -= p;
      sum += folded;
      if (sum >= p) sum -= p;
    }
    y[row] = scec::Gf61(sum);
  }
  return y;
}

inline bool Matches(std::span<const double> got,
                    const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - want[i]) <=
          kDoubleTolerance * (1.0 + std::fabs(want[i])))) {
      return false;
    }
  }
  return true;
}

inline bool Matches(std::span<const scec::Gf61> got,
                    const std::vector<scec::Gf61>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].value() != want[i].value()) return false;
  }
  return true;
}

}  // namespace pathbench
