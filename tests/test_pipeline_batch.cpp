// SPDX-License-Identifier: MIT
//
// Batched + threaded pipeline paths must be bit-identical to the serial
// per-query path for every scalar type, batch size, and thread count — and
// the steady-state QueryInto path must not allocate.

#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <vector>

#include "alloc_probe.h"
#include "workload/distributions.h"

namespace scec {
namespace {

template <typename T>
Result<Deployment<T>> MakeDeployment(size_t m, size_t l, size_t k,
                                     uint64_t seed, Matrix<T>* a_out,
                                     ThreadPool* pool = nullptr) {
  Xoshiro256StarStar cost_rng(seed);
  const auto costs =
      SampleSortedCosts(CostDistribution::Uniform(5.0), k, cost_rng);
  const McscecProblem problem = MakeAbstractProblem(m, l, costs);
  ChaCha20Rng rng(seed + 1);
  *a_out = RandomMatrix<T>(m, l, rng);
  return Deploy(problem, *a_out, rng, TaAlgorithm::kAuto,
                /*verify_security=*/true, pool);
}

template <typename T>
class PipelineBatchTest : public ::testing::Test {};

using ScalarTypes = ::testing::Types<double, Gf61, Gf256>;
TYPED_TEST_SUITE(PipelineBatchTest, ScalarTypes);

TYPED_TEST(PipelineBatchTest, QueryBatchColumnsBitIdenticalToPerQuery) {
  using T = TypeParam;
  Matrix<T> a;
  const auto deployment = MakeDeployment<T>(24, 7, 8, 20, &a);
  ASSERT_TRUE(deployment.ok()) << deployment.status();

  const size_t hw = ThreadPool::DefaultThreads();
  for (size_t b : {size_t{1}, size_t{3}, size_t{16}, size_t{65}}) {
    ChaCha20Rng xrng(900 + b);
    const auto x = RandomMatrix<T>(deployment->l, b, xrng);

    // Reference: the serial scalar path, one column at a time.
    std::vector<std::vector<T>> expected;
    for (size_t col = 0; col < b; ++col) {
      std::vector<T> xcol(deployment->l);
      for (size_t i = 0; i < deployment->l; ++i) xcol[i] = x(i, col);
      expected.push_back(Query(*deployment, xcol));
    }

    const auto check = [&](const Matrix<T>& y, const char* label) {
      ASSERT_EQ(y.rows(), a.rows());
      ASSERT_EQ(y.cols(), b);
      for (size_t col = 0; col < b; ++col) {
        for (size_t row = 0; row < y.rows(); ++row) {
          ASSERT_EQ(y(row, col), expected[col][row])
              << label << " row=" << row << " col=" << col << " b=" << b;
        }
      }
    };

    check(QueryBatch(*deployment, x), "serial");
    for (size_t threads : {size_t{1}, size_t{2}, hw}) {
      ThreadPool pool(threads);
      check(QueryBatch(*deployment, x, &pool),
            threads == 1 ? "pool1" : "pool");
    }
  }
}

TYPED_TEST(PipelineBatchTest, QueryIntoMatchesQueryAcrossReuse) {
  using T = TypeParam;
  Matrix<T> a;
  const auto deployment = MakeDeployment<T>(18, 5, 6, 21, &a);
  ASSERT_TRUE(deployment.ok()) << deployment.status();

  QueryWorkspace<T> ws = MakeQueryWorkspace(*deployment);
  ChaCha20Rng xrng(77);
  for (int q = 0; q < 8; ++q) {
    const auto x = RandomVector<T>(deployment->l, xrng);
    const std::span<const T> got =
        QueryInto(*deployment, std::span<const T>(x), ws);
    const std::vector<T> want = Query(*deployment, x);
    ASSERT_EQ(std::vector<T>(got.begin(), got.end()), want) << "query " << q;
  }
}

TYPED_TEST(PipelineBatchTest, ParallelDeployBitIdenticalToSerial) {
  using T = TypeParam;
  Matrix<T> a_serial;
  const auto serial = MakeDeployment<T>(32, 6, 10, 22, &a_serial);
  ASSERT_TRUE(serial.ok()) << serial.status();

  for (size_t threads : {size_t{2}, size_t{4}}) {
    ThreadPool pool(threads);
    Matrix<T> a_parallel;
    const auto parallel =
        MakeDeployment<T>(32, 6, 10, 22, &a_parallel, &pool);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ASSERT_EQ(a_parallel, a_serial);
    ASSERT_EQ(parallel->shares.size(), serial->shares.size());
    for (size_t d = 0; d < serial->shares.size(); ++d) {
      ASSERT_EQ(parallel->shares[d].device, serial->shares[d].device);
      ASSERT_EQ(parallel->shares[d].coded_rows, serial->shares[d].coded_rows)
          << "device " << d << " threads=" << threads;
    }
  }
}

TYPED_TEST(PipelineBatchTest, ResponsePanelColumnsMatchPerQueryResponses) {
  using T = TypeParam;
  Matrix<T> a;
  const auto deployment = MakeDeployment<T>(16, 6, 5, 23, &a);
  ASSERT_TRUE(deployment.ok()) << deployment.status();

  const size_t b = 9;
  ChaCha20Rng xrng(31);
  const auto x = RandomMatrix<T>(deployment->l, b, xrng);
  ThreadPool pool(3);
  const auto panels = ComputeDeviceResponsePanels(*deployment, x, &pool);
  const auto panels_serial = ComputeDeviceResponsePanels(*deployment, x);
  ASSERT_EQ(panels.size(), deployment->shares.size());

  for (size_t col = 0; col < b; ++col) {
    std::vector<T> xcol(deployment->l);
    for (size_t i = 0; i < deployment->l; ++i) xcol[i] = x(i, col);
    const auto responses = ComputeDeviceResponses(*deployment, xcol);
    for (size_t d = 0; d < panels.size(); ++d) {
      ASSERT_EQ(panels[d], panels_serial[d]);
      ASSERT_EQ(panels[d].rows(), responses[d].size());
      for (size_t row = 0; row < responses[d].size(); ++row) {
        ASSERT_EQ(panels[d](row, col), responses[d][row])
            << "device " << d << " row=" << row << " col=" << col;
      }
    }
  }
}

TYPED_TEST(PipelineBatchTest, VerifiedBatchAcceptsHonestPanels) {
  using T = TypeParam;
  Matrix<T> a;
  const auto deployment = MakeDeployment<T>(20, 6, 7, 24, &a);
  ASSERT_TRUE(deployment.ok()) << deployment.status();
  ChaCha20Rng vrng(55);
  const auto verifier = ResultVerifier<T>::Create(deployment->shares, vrng);

  const size_t b = 5;
  ChaCha20Rng xrng(56);
  const auto x = RandomMatrix<T>(deployment->l, b, xrng);
  const auto panels = ComputeDeviceResponsePanels(*deployment, x);
  const auto verified = QueryVerifiedBatch(*deployment, verifier, x, panels);
  ASSERT_TRUE(verified.ok()) << verified.status();
  EXPECT_EQ(*verified, QueryBatch(*deployment, x));
}

TYPED_TEST(PipelineBatchTest, VerifiedBatchRejectsCorruptedPanelNamingDevice) {
  using T = TypeParam;
  Matrix<T> a;
  const auto deployment = MakeDeployment<T>(20, 6, 7, 25, &a);
  ASSERT_TRUE(deployment.ok()) << deployment.status();
  ChaCha20Rng vrng(65);
  const auto verifier = ResultVerifier<T>::Create(deployment->shares, vrng);

  const size_t b = 4;
  ChaCha20Rng xrng(66);
  const auto x = RandomMatrix<T>(deployment->l, b, xrng);
  auto panels = ComputeDeviceResponsePanels(*deployment, x);

  // A Byzantine device 2 flips one entry in one column of its panel.
  const size_t bad_device = 2;
  ASSERT_LT(bad_device, panels.size());
  panels[bad_device](0, 3) += FieldTraits<T>::One();

  const auto verified = QueryVerifiedBatch(*deployment, verifier, x, panels);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), ErrorCode::kDecodeFailure);
  EXPECT_NE(verified.status().message().find("device 2"), std::string::npos)
      << verified.status();
}

TEST(PipelineBatch, SteadyStateQueryIntoDoesNotAllocate) {
  if (!testutil::kAllocProbeActive) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  Matrix<Gf61> a;
  const auto deployment = MakeDeployment<Gf61>(40, 8, 10, 30, &a);
  ASSERT_TRUE(deployment.ok()) << deployment.status();

  QueryWorkspace<Gf61> ws = MakeQueryWorkspace(*deployment);
  ChaCha20Rng xrng(99);
  std::vector<std::vector<Gf61>> queries;
  for (int q = 0; q < 16; ++q) {
    queries.push_back(RandomVector<Gf61>(deployment->l, xrng));
  }
  // Warm-up (first call may touch lazily initialised state).
  QueryInto(*deployment, std::span<const Gf61>(queries[0]), ws);

  size_t allocations = 0;
  Gf61 sink = Gf61::Zero();
  {
    testutil::ScopedAllocProbe probe;
    for (const auto& x : queries) {
      const auto ax = QueryInto(*deployment, std::span<const Gf61>(x), ws);
      sink += ax[0];
    }
    allocations = probe.count();
  }

  EXPECT_EQ(allocations, 0u) << "steady-state QueryInto allocated on the heap";
  // Keep the decoded values observable so the loop cannot be elided.
  EXPECT_EQ(sink == sink, true);
}

}  // namespace
}  // namespace scec
