#!/usr/bin/env python3
"""treebench end-to-end benchmark.

Run one workload:
    python3 e2ebench/run.py --workload paper-cold --seed 1 --seconds 15 --trace 0

builds e2ebench/e2e.exe from the checkout (dune, release profile, build
directory .bench_build), runs ROUNDS rounds of the workload, each in a fresh
e2e.exe process that sets the database up, warms up and then measures for
its share of --seconds, checks every answer, pools the rounds and prints the
metrics named in BENCHMARK.json: the end-to-end ones with --trace 0, the
per-layer ones with --trace 1 (spans land in .bench_build/traces/).  The last
line of standard output is one JSON object; the exit code is 0 only when
every answer was right.

Compare two sets of runs (each written with --out FILE):
    python3 e2ebench/run.py --compare A.jsonl B.jsonl

Check that every workload runs and prints every metric, in a few seconds:
    python3 e2ebench/run.py --smoke
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
NAME = os.path.basename(BENCH)
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", NAME, "e2e.exe")
TRACE_DIR = os.path.join(ROOT, BUILD_DIR, "traces")
DIGESTS = os.path.join(BENCH, "digests.json")
WORKLOADS = ["paper-cold", "point-lookup", "sharded-failover", "update-mix"]
# Each round is a fresh process: its own set-up (the setup_s samples whose
# median is reported), its own heap, and a third of the measuring time.
ROUNDS = 3
ROUND_TIMEOUT_S = 100

# Span names recorded by e2e.exe; each reports under its own name, except
# the operations' root spans, whose self time is the harness's.
LAYERS = ["op", "oql_parser.parse", "planner.plan", "planner.lower",
          "planner.optimize", "exec.run", "exec.validate", "shard_map.repair",
          "database.cold_restart", "database.begin_txn", "database.write",
          "database.commit_txn", "database.abort_txn"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit(f"{NAME}: no dune-project at {ROOT}; the engine sources are missing")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", f"./{NAME}/e2e.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        sys.exit(f"{NAME}: dune is not installed")
    if done.returncode != 0:
        sys.exit(f"{NAME}: build failed")


def run_round(workload, seed, seconds, trace, smoke):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace", os.path.join(TRACE_DIR, f"trace-{workload}.json")]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"{NAME}: {workload} round exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(xs, q):
    """Linear-interpolated q-quantile, 0 < q < 1."""
    s = sorted(xs)
    if not s:
        return 0.0
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def ratio(a, b):
    return a / b if b else 0.0


def pooled(rounds, key):
    return [x for r in rounds for x in r[key]]


def end_to_end(rounds):
    """Rounds repeat identical work, so the median and throughput are the
    median over rounds (one round slowed by a noisy neighbour does not move
    them); the p95 pools every round's samples, so at least ten lie beyond
    it."""
    def per_round(f):
        return statistics.median(f(r) for r in rounds)

    def throughput(r):
        ops = r["query_ms"] + r["txn_ms"]
        return ratio(len(ops), sum(ops) / 1e3)

    c = summed_counts(rounds)
    return {
        "setup_s": per_round(lambda r: r["setup_s"]),
        "query_p50_ms": per_round(lambda r: percentile(r["query_ms"], 0.50)),
        "query_p95_ms": percentile(pooled(rounds, "query_ms"), 0.95),
        "ops_per_s": per_round(throughput),
        "alloc_words_per_op": ratio(
            c["minor_words"] + c["major_words"] - c["promoted_words"],
            c["untraced_ops"]),
        "live_heap_mb": per_round(lambda r: r["live_heap_mb"]),
    }


def summed_counts(rounds):
    total = {}
    for r in rounds:
        for k, v in r["counts"].items():
            total[k] = total.get(k, 0) + v
    return total


def per_layer(rounds):
    c = summed_counts(rounds)
    op_ns = sum(r["traced_op_ns"] for r in rounds)
    traced_ops = sum(r["traced_ops"] for r in rounds)
    layers = {}
    for r in rounds:
        for name, (ns, alloc) in r["layers"].items():
            prev = layers.get(name, (0.0, 0.0))
            layers[name] = (prev[0] + ns, prev[1] + alloc)
    m = {}
    for span in LAYERS:
        prefix = "trace.harness" if span == "op" else span
        ns, alloc = layers.get(span, (0.0, 0.0))
        m[f"{prefix}.self_pct"] = 100.0 * ratio(ns, op_ns)
        m[f"{prefix}.alloc_words_per_op"] = ratio(alloc, traced_ops)
    untraced = pooled(rounds, "query_ms")
    traced = pooled(rounds, "traced_query_ms")
    ops, queries, txns = c["ops"], c["queries"], c["txns"]
    worst_q = pooled(rounds, "worst_q")
    hits, allocs = c["handle_hits"], c["handle_allocs"]
    m.update({
        "trace.op_us": ratio(op_ns, traced_ops) / 1e3,
        "trace.overhead_pct": 100.0 * (ratio(percentile(traced, 0.5),
                                             percentile(untraced, 0.5)) - 1.0),
        "planner.candidates_per_query": ratio(c["candidates"], queries),
        "exec.alloc_words_per_row": ratio(layers.get("exec.run", (0.0, 0.0))[1],
                                          c["traced_rows"]),
        "exec.rows_per_query": ratio(c["rows"], queries),
        "exec.comparisons_per_query": ratio(c["comparisons"], queries),
        "exec.hash_probes_per_query": ratio(c["hash_probes"], queries),
        "exec.sort_comparisons_per_query": ratio(c["sort_comparisons"], queries),
        "exec.packed_op_share": ratio(c["packed"], c["modes"]),
        "exec.lane_skew": ratio(c["lane_skew_sum"], queries),
        "exec.validate_fed_back_ratio": ratio(c["fed_back"], c["est_checks"]),
        "exec.validate_worst_q_p50": percentile(worst_q, 0.5),
        "shard_map.failovers_per_query": ratio(c["failovers"], queries),
        "database.handle_allocs_per_op": ratio(allocs, ops),
        "database.handle_hit_ratio": ratio(hits, hits + allocs),
        "database.get_atts_per_op": ratio(c["get_atts"], ops),
        "database.durable_pages_growth": ratio(c["durable_pages_end"],
                                               c["durable_pages_start"]),
        "cache_stack.client_hit_ratio": ratio(
            c["client_hits"], c["client_hits"] + c["client_misses"]),
        "cache_stack.server_hit_ratio": ratio(
            c["server_hits"], c["server_hits"] + c["server_misses"]),
        "cache_stack.disk_reads_per_op": ratio(c["disk_reads"], ops),
        "cache_stack.rpc_pages_per_op": ratio(c["rpc_pages"], ops),
        "wal.appends_per_txn": ratio(c["wal_appends"], txns),
        "wal.disk_writes_per_txn": ratio(c["disk_writes"], txns),
        "wal.undo_pages_per_abort": ratio(c["undo_pages"], c["aborts"]),
        "gc.minor_words_per_op": ratio(c["minor_words"], c["untraced_ops"]),
        "gc.major_words_per_op": ratio(c["major_words"], c["untraced_ops"]),
        "gc.promoted_words_per_op": ratio(c["promoted_words"], c["untraced_ops"]),
        "gc.major_collections_per_kop": 1e3 * ratio(c["major_collections"], ops),
        "sim.ms_per_op": ratio(c["sim_ms"], ops),
        "generator.build_s": statistics.median(r["build_s"] for r in rounds),
    })
    return m


def expected_digest(workload, seed):
    with open(DIGESTS) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def summary_lines(workload, rounds, trace):
    """Human-readable context printed before the result line."""
    q = pooled(rounds, "query_ms" if not trace else "traced_query_ms")
    t = pooled(rounds, "txn_ms" if not trace else "traced_txn_ms")
    lines = [f"{workload}: {len(rounds)} rounds, {len(q)} queries, "
             f"{len(t)} transactions{' (traced)' if trace else ''}"]
    if t:
        lines.append(f"  txn_p50_ms {percentile(t, 0.5):.4f}  "
                     f"txn_p95_ms {percentile(t, 0.95):.4f}")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    lines.append(f"  failed_ratio {ratio(failed, attempted):.6f} "
                 f"({failed} of {attempted})")
    for r in rounds:
        for e in r["errors"]:
            lines.append(f"  error: {e}")
    return lines


def run_benchmark(workload, seed, seconds, trace, smoke=False):
    """Returns (result object, lines to print before it)."""
    rounds = [run_round(workload, seed, seconds / ROUNDS, trace, smoke)
              for _ in range(1 if smoke else ROUNDS)]
    lines = summary_lines(workload, rounds, trace)
    s = spec()
    table = s["per_layer"] if trace else s["end_to_end"]
    values = per_layer(rounds) if trace else end_to_end(rounds)
    if set(values) != {m["name"] for m in table}:
        sys.exit(f"{NAME}: metrics computed differ from BENCHMARK.json")
    correct = all(r["failed"] == 0 for r in rounds)
    want = None if (trace or smoke) else expected_digest(workload, seed)
    for r in rounds:
        lines.append(f"  simulated-counter digest {r['digest'] or '-'}")
        if want is not None and r["digest"] != want:
            lines.append(f"  digest mismatch: expected {want}")
            correct = False
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in table},
    }
    return result, lines


def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3


def compare(path_a, path_b):
    """Per workload and end-to-end metric: each side's median and quartiles
    and a verdict (see README.md).  Runs pair by seed.  Exits 1 on any
    regression or a higher failed ratio on side B."""
    def load(path):
        runs = {}
        with open(path) as f:
            for line in f:
                if line.strip():
                    rec = json.loads(line)
                    if not rec["trace"]:
                        runs.setdefault(rec["workload"], []).append(rec)
        return runs

    a_runs, b_runs = load(path_a), load(path_b)
    bad = False
    for w in [w for w in WORKLOADS if w in a_runs and w in b_runs]:
        a, b = a_runs[w], b_runs[w]
        print(f"{w}: {len(a)} runs vs {len(b)} runs")
        for m in spec()["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            av = [r["result"]["metrics"][name]["value"] for r in a]
            bv = [r["result"]["metrics"][name]["value"] for r in b]
            aq, bq = quartiles(av), quartiles(bv)
            worse = sign * (bq[1] - aq[1]) / aq[1]
            spread = max((aq[2] - aq[0]) / aq[1], (bq[2] - bq[0]) / bq[1])
            all_better = max(bv) < min(av) if sign > 0 else min(bv) > max(av)
            seeds = {r["seed"]: r["result"]["metrics"][name]["value"] for r in a}
            pairs = [(seeds[r["seed"]], r["result"]["metrics"][name]["value"])
                     for r in b if r["seed"] in seeds]
            wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
            if spread > bound:
                verdict = "improved" if all_better else "unresolved"
            elif worse > bound:
                verdict = "regressed"
            elif pairs and wins >= 0.9 * len(pairs) and abs(bq[1] - aq[1]) > aq[2] - aq[0]:
                verdict = "improved"
            else:
                verdict = "unchanged"
            bad |= verdict == "regressed"
            print(f"  {name:20s} A {aq[1]:12.5g} [{aq[0]:.5g}, {aq[2]:.5g}]  "
                  f"B {bq[1]:12.5g} [{bq[0]:.5g}, {bq[2]:.5g}]  "
                  f"{100 * worse:+7.2f}% worse (bound {100 * bound:.0f}%)  {verdict}")
        fa = ratio(sum(r["result"]["failed"] for r in a), sum(r["result"]["attempted"] for r in a))
        fb = ratio(sum(r["result"]["failed"] for r in b), sum(r["result"]["attempted"] for r in b))
        print(f"  {'failed_ratio':20s} A {fa:.6f}  B {fb:.6f}  "
              f"{'regressed' if fb > fa else 'unchanged'}")
        bad |= fb > fa
    return 1 if bad else 0


def smoke():
    """Every workload at scale 500, 20 operations, untraced and traced: the
    answers check, every BENCHMARK.json metric is printed with its unit, and
    the result and trace JSON parse."""
    start = time.monotonic()
    s = spec()
    for w in WORKLOADS:
        for trace in (0, 1):
            result, _ = run_benchmark(w, 1, 1.0, trace, smoke=True)
            table = s["per_layer"] if trace else s["end_to_end"]
            for m in table:
                got = json.loads(json.dumps(result))["metrics"][m["name"]]
                if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    sys.exit(f"smoke: {w}: metric {m['name']} malformed: {got}")
            if not result["correct"]:
                sys.exit(f"smoke: {w}: wrong answers")
            if trace:
                with open(os.path.join(TRACE_DIR, f"trace-{w}.json")) as f:
                    if not json.load(f)["traceEvents"]:
                        sys.exit(f"smoke: {w}: empty trace")
        print(f"smoke: {w} ok")
    print(f"smoke: all workloads ok in {time.monotonic() - start:.1f} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the run's result, with its workload and seed, to this JSONL file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    build()
    if args.smoke:
        smoke()
        return
    if not args.workload:
        ap.error("--workload is required")
    seconds = args.seconds if args.seconds else spec()["run_seconds"]
    result, lines = run_benchmark(args.workload, args.seed, seconds, args.trace)
    for line in lines:
        print(line)
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
