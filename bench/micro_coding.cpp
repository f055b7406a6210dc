// SPDX-License-Identifier: MIT
//
// Encoder throughput: structural encoding (O((m+r)·l) additions, what the
// library ships) vs materialising B and computing the dense product B·T
// (what a naive implementation would do), plus pad generation, the
// per-device share multiply the edge devices run online, and the exact
// Def. 2 checks (scheme check and cumulative ledger) every deployment runs.

#include <benchmark/benchmark.h>

#include "telemetry.h"

#include "coding/encoder.h"
#include "coding/security_check.h"
#include "core/segment.h"
#include "linalg/matrix_ops.h"

namespace {

scec::LcecScheme CanonicalScheme(size_t m, size_t r) {
  scec::LcecScheme scheme;
  scheme.m = m;
  scheme.r = r;
  scheme.row_counts.push_back(r);
  size_t remaining = m;
  while (remaining > 0) {
    const size_t take = std::min(r, remaining);
    scheme.row_counts.push_back(take);
    remaining -= take;
  }
  return scheme;
}

void BM_StructuralEncode(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t r = m / 4 + 1;
  const size_t l = 64;
  const scec::StructuredCode code(m, r);
  const auto scheme = CanonicalScheme(m, r);
  scec::ChaCha20Rng rng(1);
  const auto a = scec::RandomMatrix<double>(m, l, rng);
  const auto pads = scec::GeneratePadRows<double>(r, l, rng);
  for (auto _ : state) {
    auto shares = scec::EncodeShares(code, scheme, a, pads);
    benchmark::DoNotOptimize(shares);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>((m + r) * l));
}
BENCHMARK(BM_StructuralEncode)->RangeMultiplier(4)->Range(64, 4096);

void BM_DenseEncode(benchmark::State& state) {
  // Naive baseline: materialise B, stack T, multiply.
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t r = m / 4 + 1;
  const size_t l = 64;
  const scec::StructuredCode code(m, r);
  scec::ChaCha20Rng rng(1);
  const auto a = scec::RandomMatrix<double>(m, l, rng);
  const auto pads = scec::GeneratePadRows<double>(r, l, rng);
  for (auto _ : state) {
    const auto b = code.DenseB<double>();
    const auto t = a.VStack(pads);
    auto bt = scec::MatMul(b, t);
    benchmark::DoNotOptimize(bt);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>((m + r) * l));
}
BENCHMARK(BM_DenseEncode)->RangeMultiplier(4)->Range(64, 1024);

void BM_PadGeneration(benchmark::State& state) {
  const size_t r = static_cast<size_t>(state.range(0));
  const size_t l = 256;
  scec::ChaCha20Rng rng(2);
  for (auto _ : state) {
    auto pads = scec::GeneratePadRows<scec::Gf61>(r, l, rng);
    benchmark::DoNotOptimize(pads);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(r * l));
}
BENCHMARK(BM_PadGeneration)->RangeMultiplier(4)->Range(16, 1024);

void BM_DeviceShareMultiply(benchmark::State& state) {
  // The online per-device work: (V x l) share times x.
  const size_t v = static_cast<size_t>(state.range(0));
  const size_t l = 256;
  scec::Xoshiro256StarStar rng(3);
  const auto share = scec::RandomMatrix<double>(v, l, rng);
  const auto x = scec::RandomVector<double>(l, rng);
  for (auto _ : state) {
    auto y = scec::MatVec(share, std::span<const double>(x));
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(v * l));
}
BENCHMARK(BM_DeviceShareMultiply)->RangeMultiplier(4)->Range(16, 4096);

// The Def. 2 + availability check Deploy and every repair round run: k = 4
// devices, r = ceil(m / 3), the shape TA2 plans for the loopback cluster.
void BM_SchemeSecurityCheck(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t r = (m + 2) / 3;
  const scec::StructuredCode code(m, r);
  const auto scheme = CanonicalScheme(m, r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scec::CheckSchemeSecure(code, scheme).ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(m + r));
}
BENCHMARK(BM_SchemeSecurityCheck)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

// The cumulative Def. 2 check over every device's view after the base
// segment (m = 1024, k = 4) and one fresh-pad pair round on rows 0..63.
void BM_CumulativeLedgerVerify(benchmark::State& state) {
  const size_t m = 1024, r = (m + 2) / 3;
  const auto scheme = CanonicalScheme(m, r);
  std::vector<size_t> rows(m);
  for (size_t p = 0; p < m; ++p) rows[p] = p;
  scec::CumulativeViewLedger ledger(m, scheme.num_devices());
  ledger.Record(scec::SegmentShape(rows, scec::StructuredCode(m, r), scheme,
                                   {0, 1, 2, 3}));
  const size_t s = 64;
  rows.resize(s);
  ledger.Record(scec::SegmentShape(
      rows, scec::StructuredCode(s, s),
      scec::SchemeFromRowCounts(s, s, {s, s}), {2, 3}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ledger.Verify().all_secure);
  }
}
BENCHMARK(BM_CumulativeLedgerVerify)->Unit(benchmark::kMicrosecond);

}  // namespace

SCEC_BENCHMARK_MAIN();
