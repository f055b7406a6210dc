#!/usr/bin/env python3
"""Self-test of the secure-query-path benchmark.

    python3 pathbench/selftest.py [--seconds 2]

A short smoke run of every workload, untraced and traced, checks that
  * every named metric is printed with its unit, and every latency with
    its sample count;
  * every ledger reports its unattributed remainder, and it is >= 0;
  * the oracle saw zero wrong answers;
  * the open-loop generator reports its lag;
  * the exact counts (bytes, dispatches, journal events and commits per
    query, serve.deploys, *.allocs_per_query) repeat bit for bit between
    two traced runs with the same seed.
A held-out seed runs through the same checks. Exits 1 on any failure.
"""

import argparse
import json
import os
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 7
HELD_OUT_SEED = 424242

E2E = {
    "net_loopback": ["setup_s", "throughput_qps", "latency_p50_ms",
                     "latency_p99_ms", "in_budget_frac", "fail_frac"],
    "serve_tenants": ["setup_s", "throughput_qps", "latency_p50_ms",
                      "latency_p99_ms", "in_budget_frac", "fail_frac"],
    "durable_journal": ["setup_s", "throughput_qps", "latency_p50_ms",
                        "latency_p99_ms", "restart_s", "fail_frac"],
}
SAMPLED = ["setup_s", "latency_p50_ms", "latency_p99_ms", "restart_s",
           "in_budget_frac", "fail_frac", "bench.gen_lag_p99_ms"]
HEALTH = ["obs.trace_overhead_frac", "bench.gen_lag_p99_ms",
          "linalg.gf61_tier"]
LAYER = {
    "net_loopback": [
        "allocation.plan_us", "coding.scheme_check_s", "coding.encode_s",
        "coding.verifier_create_s", "coding.cumulative_its_s", "net.stage_s",
        "net.stage_MBps", "net.setup_unattributed_s",
        "net.submit_us_per_query", "net.poll_wait_us_per_query",
        "net.driver_self_us_per_query", "coding.verify_us_per_query",
        "coding.decode_us_per_query", "net.polls_per_query",
        "net.allocs_per_query", "net.rpc_rtt_p50_us", "net.rpc_rtt_p99_us",
        "net.fanout_spread_p99_us", "net.retries", "net.timeouts",
        "net.dispatches_per_query", "net.query_bytes_per_query",
        "net.response_bytes_per_query", "net.staged_bytes"],
    "serve_tenants": [
        "serve.submit_us_p50", "serve.submit_us_p99", "serve.pump_busy_frac",
        "serve.batch_width_mean", "linalg.serve_batch_us_per_col",
        "serve.allocs_per_query", "serve.queue_wait_p50_ms",
        "serve.timeout_close_frac", "serve.deploys", "serve.deploy_ms_mean",
        "serve.rejected", "serve.shed"],
    "durable_journal": [
        "recovery.start_ms", "allocation.plan_us",
        "recovery.append_us_per_query", "recovery.journal_bytes_per_query",
        "recovery.journal_events_per_query", "recovery.commits_per_query",
        "sim.plain_query_us", "recovery.journal_overhead",
        "recovery.allocs_per_query", "recovery.load_journal_ms",
        "recovery.load_MBps", "recovery.replay_fold_ms",
        "recovery.unseal_ms"],
}
LEDGERS = {
    "net_loopback": ["setup", "query"],
    "serve_tenants": ["setup", "query"],
    "durable_journal": ["setup", "query", "restart"],
}


class Checker:
    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)
            print(f"  FAIL {what}")
        return ok


def spec_names(trace):
    return [m["name"] for m in run.metric_spec(trace)]


def check_run(c, workload, seed, seconds, trace):
    """Runs once and applies the per-run checks; returns the result."""
    label = f"{workload} seed={seed} trace={trace}"
    print(f"{label}")
    _, result, code = run.run_binary(workload, seed, seconds, trace)
    if not c.expect(result is not None, f"{label}: printed a result"):
        return None
    metrics = result["metrics"]
    c.expect(code == 0 and result["wrong"] == 0,
             f"{label}: zero wrong answers (wrong={result['wrong']})")
    names = spec_names(trace) + (LAYER[workload] + HEALTH if trace
                                 else E2E[workload] + ["bench.gen_lag_p99_ms"])
    for name in names:
        got = metrics.get(name)
        c.expect(got is not None and got.get("unit"),
                 f"{label}: {name} printed with a unit")
        if got is not None and not trace and name in SAMPLED:
            c.expect(got.get("samples", 0) > 0,
                     f"{label}: {name} printed with its sample count")
    if trace:
        kinds = [ledger["kind"] for ledger in result["ledgers"]]
        c.expect(kinds == LEDGERS[workload], f"{label}: ledgers {kinds}")
        for ledger in result["ledgers"]:
            top = sum(p["value"] for p in ledger["parts"] if not p["within"])
            rest = ledger["unattributed"]
            c.expect(ledger["unattributed_name"] != "" and
                     abs(top + rest - ledger["total"]) <=
                     1e-9 * max(1.0, abs(ledger["total"])),
                     f"{label}: ledger {ledger['total_name']} adds up with "
                     f"{ledger['unattributed_name']} reported")
            c.expect(rest >= 0.0,
                     f"{label}: {ledger['unattributed_name']} = {rest:.6g} "
                     f">= 0")
    else:
        lag = metrics.get("bench.gen_lag_p99_ms", {})
        c.expect(lag.get("samples", 0) > 0,
                 f"{label}: the generator reports its lag")
    return result


def exact_counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m.get("exact")}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)
    if not run.build():
        return 1
    c = Checker()
    for workload in run.WORKLOADS:
        check_run(c, workload, SEED, args.seconds, trace=0)
        first = check_run(c, workload, SEED, args.seconds, trace=1)
        second = check_run(c, workload, SEED, args.seconds, trace=1)
        held = check_run(c, workload, HELD_OUT_SEED, args.seconds, trace=1)
        if first is None or second is None or held is None:
            continue
        counts = exact_counts(first)
        c.expect(len(counts) > 0, f"{workload}: exact counts reported")
        c.expect(set(exact_counts(held)) == set(counts),
                 f"{workload}: held-out seed reports the same exact counts")
        for name, value in counts.items():
            again = exact_counts(second).get(name)
            c.expect(again == value,
                     f"{workload}: {name} repeats for seed {SEED} "
                     f"({value} vs {again})")
    print("PASS" if not c.failures else f"FAIL ({len(c.failures)} checks)")
    return 0 if not c.failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
