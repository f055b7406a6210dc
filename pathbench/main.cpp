// pathbench: one benchmark for the secure query path.
//
//   pathbench --workload <net_loopback|serve_tenants|durable_journal>
//             --seed <n> --seconds <s> --trace <0|1> [--commit <sha>]
//
// Prints a human-readable report and, as the last line, "RESULT <json>"
// with every metric, ledger and the run metadata. run.py builds this
// binary and turns that line into the benchmark's result line. The exit
// code is 1 when any answer disagreed with the benchmark's own A·x.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness.h"

namespace {

void Usage() {
  std::cerr << "usage: pathbench --workload <net_loopback|serve_tenants|"
               "durable_journal> --seed <n> --seconds <s> --trace <0|1> "
               "[--commit <sha>]\n";
}

}  // namespace

int main(int argc, char** argv) {
  pathbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) {
    Usage();
    return 2;
  }

  // Calibrate the Gf61 panel tier before anything is timed.
  const pathbench::TierInfo tier = pathbench::CalibratedTier();
  pathbench::Tracer tracer;
  tracer.set_enabled(args.trace);
  pathbench::Outcome outcome;
  if (args.workload == "net_loopback") {
    outcome = pathbench::RunNetLoopback(args, tracer);
  } else if (args.workload == "serve_tenants") {
    outcome = pathbench::RunServeTenants(args, tracer);
  } else if (args.workload == "durable_journal") {
    outcome = pathbench::RunDurableJournal(args, tracer);
  } else {
    Usage();
    return 2;
  }
  if (args.trace) {
    outcome.Add("linalg.gf61_tier", tier.code, "tier", 0,
                "0 scalar, 1 avx512-mul32, 2 avx512-ifma");
    pathbench::AddCommonLayerMetrics(&outcome);
    std::filesystem::create_directories(".bench_out");
    tracer.WriteJsonLines(pathbench::SpanPath(args));
    outcome.notes.push_back(std::to_string(tracer.size()) +
                            " spans written to " + pathbench::SpanPath(args));
  }
  pathbench::PrintOutcome(args, outcome, tier);
  return outcome.wrong == 0 ? 0 : 1;
}
