// SPDX-License-Identifier: MIT
//
// Query throughput under pipelining: dispatch a stream of queries
// back-to-back (links and single-core devices queue work) and compare the
// makespan with stop-and-wait sequential queries. Expected shape: the
// pipelined makespan approaches the bottleneck-resource bound (the slowest
// device's compute or link), so speedup grows with stream depth and
// saturates. Sequential time is the sum of per-query completion times (the
// next query goes out the moment the previous one settles).

#include <algorithm>
#include <iostream>

#include "common/cli.h"
#include "common/csv.h"
#include "common/string_util.h"
#include "core/pipeline.h"
#include "sim/fault_tolerant_protocol.h"
#include "telemetry.h"
#include "workload/device_profiles.h"

int main(int argc, char** argv) {
  int64_t m = 128;
  int64_t l = 256;
  int64_t fleet_size = 12;
  int64_t max_depth = 64;
  int64_t seed = 3;
  scec::bench::TelemetryFlags telemetry;
  scec::CliParser cli("sim_throughput",
                      "pipelined query throughput vs stop-and-wait");
  cli.AddInt("m", &m, "rows of A");
  cli.AddInt("l", &l, "row width");
  cli.AddInt("fleet", &fleet_size, "campus fleet size");
  cli.AddInt("max-depth", &max_depth, "largest stream depth");
  cli.AddInt("seed", &seed, "RNG seed");
  scec::bench::AddTelemetryFlags(&cli, &telemetry);
  if (!cli.Parse(argc, argv)) return 1;
  scec::bench::StartTelemetry(telemetry);

  scec::Xoshiro256StarStar rng(static_cast<uint64_t>(seed));
  scec::McscecProblem problem;
  problem.m = static_cast<size_t>(m);
  problem.l = static_cast<size_t>(l);
  problem.fleet = scec::MakeCampusFleet(static_cast<size_t>(fleet_size), rng);

  const auto a = scec::RandomMatrix<double>(problem.m, problem.l, rng);
  scec::ChaCha20Rng coding_rng(static_cast<uint64_t>(seed) + 1);
  const auto deployment = scec::Deploy(problem, a, coding_rng);
  if (!deployment.ok()) {
    std::cerr << deployment.status() << "\n";
    return 1;
  }
  scec::TablePrinter table({"depth", "sequential(ms)", "pipelined(ms)",
                            "speedup", "queries/s (pipelined)"});
  int failures = 0;
  double prev_speedup = 0.0;
  for (int64_t depth = 1; depth <= max_depth; depth *= 4) {
    std::vector<std::vector<double>> xs;
    for (int64_t q = 0; q < depth; ++q) {
      xs.push_back(scec::RandomVector<double>(problem.l, rng));
    }

    scec::sim::FaultTolerantScecProtocol sequential(
        &*deployment, &a, problem.fleet.devices(), {});
    sequential.Stage();
    double sequential_total = 0.0;
    for (const auto& x : xs) {
      const auto decoded = sequential.RunQuery(x);
      if (!decoded.ok()) {
        std::cerr << decoded.status() << "\n";
        return 1;
      }
      sequential_total += sequential.metrics().query_completion_time;
    }

    scec::sim::FaultTolerantScecProtocol pipelined(
        &*deployment, &a, problem.fleet.devices(), {});
    pipelined.Stage();
    const auto streamed = pipelined.RunQueryStream(xs);
    if (!streamed.ok()) {
      std::cerr << streamed.status() << "\n";
      return 1;
    }
    const auto& stream = *streamed;

    const double speedup = sequential_total / stream.makespan;
    if (depth > 1 && speedup < 1.0) ++failures;
    table.AddRow(
        {std::to_string(depth),
         scec::FormatDouble(sequential_total * 1e3, 6),
         scec::FormatDouble(stream.makespan * 1e3, 6),
         scec::FormatDouble(speedup, 5),
         scec::FormatDouble(static_cast<double>(depth) / stream.makespan,
                            6)});
    prev_speedup = speedup;
  }
  (void)prev_speedup;
  table.Print(std::cout);
  scec::bench::ExportTelemetry(telemetry);
  std::cout << (failures == 0 ? "  [PASS] " : "  [FAIL] ")
            << "pipelining never loses to stop-and-wait at depth > 1\n";
  return failures == 0 ? 0 : 1;
}
