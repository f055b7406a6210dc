// SPDX-License-Identifier: MIT

#include "coding/collusion.h"

#include <algorithm>
#include <cstddef>
#include <functional>

#include "coding/security_check.h"
#include "field/field_traits.h"
#include "linalg/elimination.h"

namespace scec {

Result<std::vector<size_t>> PlanCollusionRowCounts(size_t m, size_t r,
                                                   size_t t, size_t k) {
  if (m < 1) return InvalidArgument("collusion plan: m must be >= 1");
  if (t < 1) return InvalidArgument("collusion plan: t must be >= 1");
  if (r < t) return InvalidArgument("collusion plan: need r >= t pad rows");
  const size_t cap = r / t;  // per-device bound so any t devices hold <= r
  if (cap == 0) return InvalidArgument("collusion plan: r/t must be >= 1");
  const size_t total = m + r;
  if (k * cap < total) {
    return Infeasible(
        "collusion plan: k devices at <= r/t rows each cannot hold m+r rows");
  }
  std::vector<size_t> counts;
  size_t remaining = total;
  while (remaining > 0) {
    const size_t take = std::min(cap, remaining);
    counts.push_back(take);
    remaining -= take;
  }
  return counts;
}

Result<CollusionCode> BuildCollusionCode(const CollusionCodeParams& params,
                                         const std::vector<size_t>& row_counts,
                                         ChaCha20Rng& rng) {
  const size_t m = params.m;
  const size_t r = params.r;
  if (m < 1 || r < 1) {
    return InvalidArgument("collusion code: m and r must be >= 1");
  }
  const size_t cap = r / std::max<size_t>(params.t, 1);
  size_t total = 0;
  for (size_t count : row_counts) {
    if (count == 0) {
      return InvalidArgument("collusion code: zero-row device");
    }
    if (count > cap) {
      return SecurityViolation(
          "collusion code: a device exceeds the per-device cap r/t");
    }
    total += count;
  }
  if (total != m + r) {
    return InvalidArgument("collusion code: row counts must sum to m + r");
  }

  const size_t n = m + r;
  for (size_t attempt = 0; attempt < params.max_attempts; ++attempt) {
    Matrix<Gf61> b(n, n);
    // Data part D = [E_m; O].
    for (size_t row = 0; row < m; ++row) b(row, row) = Gf61::One();
    // Pad part G: uniform random.
    for (size_t row = 0; row < n; ++row) {
      for (size_t col = m; col < n; ++col) {
        b(row, col) = FieldTraits<Gf61>::Random(rng);
      }
    }
    if (RankOf(b) != n) continue;  // availability: retry

    CollusionCode code;
    code.params = params;
    code.scheme.m = m;
    code.scheme.r = r;
    code.scheme.row_counts = row_counts;
    code.b = std::move(b);

    // Privacy verification. Exhaustive subset check is exponential; keep it
    // exact for moderate fan-outs and fall back to the sufficient pad-rank
    // condition per subset (same loop structure — the exact check already IS
    // per subset; the cost driver is the number of subsets, which the caller
    // controls through the device count).
    if (!VerifyCollusionPrivacy(code, params.t)) continue;  // retry
    return code;
  }
  return Internal("collusion code: rejection sampling failed; raise r or k");
}

namespace {

// Enumerates subsets of {0..n-1} of size exactly `size` in lexicographic
// order, invoking fn(subset); fn returns false to abort enumeration (and
// EnumerateSubsets then returns false).
bool EnumerateSubsets(size_t n, size_t size,
                      const std::function<bool(const std::vector<size_t>&)>& fn) {
  if (size == 0 || size > n) return true;
  std::vector<size_t> subset(size);
  for (size_t i = 0; i < size; ++i) subset[i] = i;
  while (true) {
    if (!fn(subset)) return false;
    // Find the rightmost element that can still be incremented.
    ptrdiff_t idx = static_cast<ptrdiff_t>(size) - 1;
    while (idx >= 0 &&
           subset[static_cast<size_t>(idx)] ==
               static_cast<size_t>(idx) + n - size) {
      --idx;
    }
    if (idx < 0) return true;  // exhausted
    ++subset[static_cast<size_t>(idx)];
    for (size_t j = static_cast<size_t>(idx) + 1; j < size; ++j) {
      subset[j] = subset[j - 1] + 1;
    }
  }
}

}  // namespace

bool VerifyCollusionPrivacy(const CollusionCode& code, size_t t) {
  const size_t m = code.scheme.m;
  const size_t n = code.b.rows();
  const size_t devices = code.scheme.num_devices();

  // Precompute block boundaries.
  std::vector<size_t> starts(devices);
  for (size_t d = 0; d < devices; ++d) starts[d] = code.scheme.BlockStart(d);

  for (size_t size = 1; size <= std::min(t, devices); ++size) {
    const bool ok = EnumerateSubsets(
        devices, size, [&](const std::vector<size_t>& subset) {
          // Stack the subset's blocks: the coalition's joint view.
          SparseRows<Gf61> stacked(n);
          for (size_t d : subset) {
            for (size_t row = 0; row < code.scheme.row_counts[d]; ++row) {
              stacked.AddDenseRow(code.b.Row(starts[d] + row));
            }
          }
          return VerifyView(stacked, m).secure();
        });
    if (!ok) return false;
  }
  return true;
}

}  // namespace scec
