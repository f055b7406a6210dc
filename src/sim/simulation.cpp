// SPDX-License-Identifier: MIT

#include "sim/simulation.h"

#include <cmath>
#include <string>

#include "linalg/matrix_ops.h"

namespace scec::sim {
namespace {

// Decode tolerance: the structured decode is a single subtraction per value,
// so errors stay within a few ulps of the straight product.
bool NearlyEqual(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({1.0, std::fabs(a[i]), std::fabs(b[i])});
    if (std::fabs(a[i] - b[i]) > 1e-9 * scale) return false;
  }
  return true;
}

}  // namespace

Result<SimulationResult> SimulateDeployment(
    const Deployment<double>& deployment, std::vector<EdgeDevice> fleet,
    const Matrix<double>& a, const std::vector<double>& x,
    SimOptions options) {
  if (x.size() != deployment.l) {
    return InvalidArgument("query vector width does not match deployment");
  }
  if (a.rows() != deployment.code.m() || a.cols() != deployment.l) {
    return InvalidArgument("data matrix shape does not match deployment");
  }
  const size_t slots = deployment.plan.participating.size();
  if (deployment.shares.size() != slots ||
      deployment.plan.scheme.num_devices() != slots) {
    return InvalidArgument(
        "deployment has " + std::to_string(deployment.shares.size()) +
        " shares for " + std::to_string(slots) + " participating devices");
  }
  for (size_t fleet_index : deployment.plan.participating) {
    if (fleet_index >= fleet.size()) {
      return InvalidArgument("fleet of " + std::to_string(fleet.size()) +
                             " devices does not cover participating device " +
                             std::to_string(fleet_index));
    }
  }
  FaultTolerantScecProtocol protocol(&deployment, &a, std::move(fleet),
                                     options);
  protocol.Stage();

  SimulationResult result;
  SCEC_ASSIGN_OR_RETURN(result.decoded, protocol.RunQuery(x));
  result.metrics = protocol.metrics();

  const std::vector<double> expected = MatVec(a, std::span<const double>(x));
  result.metrics.decoded_correctly =
      NearlyEqual(result.decoded, expected);
  if (!result.metrics.decoded_correctly) {
    return Internal("simulated decode does not match direct product");
  }
  return result;
}

Result<SimulationResult> SimulateScec(const McscecProblem& problem,
                                      const Matrix<double>& a,
                                      const std::vector<double>& x,
                                      ChaCha20Rng& coding_rng,
                                      SimOptions options) {
  SCEC_ASSIGN_OR_RETURN(Deployment<double> deployment,
                        Deploy(problem, a, coding_rng));
  return SimulateDeployment(deployment, problem.fleet.devices(), a, x,
                            options);
}

}  // namespace scec::sim
