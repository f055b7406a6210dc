// SPDX-License-Identifier: MIT
//
// High-level simulation facade: plan + encode a problem, run the protocol
// under the discrete-event simulator, verify the decoded result against the
// direct product, and return the full metrics. This is the entry point the
// examples and the completion-time benchmark use. The engine is
// FaultTolerantScecProtocol with default options: without faults it runs
// the paper's three phases (§II-D) and nothing else.

#pragma once

#include <vector>

#include "common/error.h"
#include "core/pipeline.h"
#include "sim/fault_tolerant_protocol.h"
#include "sim/metrics.h"

namespace scec::sim {

struct SimulationResult {
  std::vector<double> decoded;   // A·x as decoded through the protocol
  RunMetrics metrics;
};

// Simulates staging plus one round of y = A·x against the problem's fleet.
// The deployment is planned internally (TA1/TA2 via kAuto) and the decode
// is cross-checked against the direct product A·x.
Result<SimulationResult> SimulateScec(const McscecProblem& problem,
                                      const Matrix<double>& a,
                                      const std::vector<double>& x,
                                      ChaCha20Rng& coding_rng,
                                      SimOptions options = {});

// Lower-level: simulate against an existing deployment of `a`. `fleet` is
// the full fleet the deployment was planned against (one EdgeDevice per
// fleet index). kInvalidArgument when x, a, the deployment's shares or the
// fleet do not fit together.
Result<SimulationResult> SimulateDeployment(
    const Deployment<double>& deployment, std::vector<EdgeDevice> fleet,
    const Matrix<double>& a, const std::vector<double>& x,
    SimOptions options = {});

}  // namespace scec::sim
