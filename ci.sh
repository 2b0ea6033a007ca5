#!/usr/bin/env bash
# Full local CI: build everything, lint, run the test suite (including the
# counter-invariance gate and the allocation gate, which budgets every micro
# kernel's words per call), smoke the end-to-end benchmark, then run the
# full recovery and chaos sweeps.  Wall clock is reported
# (bench/main.exe --micro, run below as a smoke test of the reporter) but
# never gated: it does not reproduce across hosts.
set -euo pipefail
cd "$(dirname "$0")"

dune build @all
# Static discipline gate: charge accounting, layer DAG, determinism,
# mutable-state registry, unsafe-op containment, the interprocedural
# dataflow rules (pin/release pairing, RNG-stream taint, charge/effect
# ordering) over the typed ASTs, and R10 (every lib/ export referenced
# from outside its module; bin/, bench/, e2ebench/ and test/ are read for
# references only).
# Prints `treelint: N rules, M files, 0 violations` on success.
dune build @lint
# The same sweep again, driven directly: emit the SARIF artifact for CI
# upload, and prove the baseline holds an empty delta (every fingerprint in
# treelint.baseline still corresponds to a live diagnostic — a rewrite
# under --update-baseline must be a no-op).
TREELINT="./_build/default/tools/treelint/bin/treelint_main.exe"
TREELINT_ARGS=(--config treelint.toml --baseline treelint.baseline \
  --cmi _build/default/.fmt.objs/byte/fmt.cmi \
  --refs bin --refs bench --refs e2ebench --test-refs test lib)
"$TREELINT" "${TREELINT_ARGS[@]}" --sarif treelint.sarif > /dev/null
cp -f treelint.baseline _build/treelint.baseline.orig 2>/dev/null || \
  touch _build/treelint.baseline.orig
"$TREELINT" "${TREELINT_ARGS[@]}" --update-baseline > /dev/null
if ! diff -u _build/treelint.baseline.orig treelint.baseline; then
  echo "treelint: baseline delta is not empty — stale grandfathered entries" >&2
  exit 1
fi
# runtest also diffs the plan-lowering / explain snapshots in test/snapshot/
# against their committed expectations (including the sharded S=1/S=4
# matrix); after an intentional plan or operator change — including
# anything that flips a fetch/harvest between mode=packed and mode=handle
# — run `dune promote` and commit the updated .expected.
#
# The optimizer-choice snapshots (test/snapshot/optimizer.expected) ride the
# same pass: chosen plan + top-3 candidate costs across the Figure 6
# selectivity sweep, the index-vs-scan switch point, the sharded
# break-even, and Planner.plan's unforced and algorithm-only choices, all
# derived from catalog statistics without executing.  A
# cost-model change that moves a crossover shows up as a diff here — promote
# it only if the new verdicts are intended.
#
# Sharding gates ride in the same pass: test/shard_parity_tests.ml runs the
# full algorithm x access-path matrix on twin S=1/S=4 databases (identical
# result multisets, per-shard frames reconciling exactly against the global
# counters), and the invariance suite pins S=1 to the golden scale-40
# fingerprint byte for byte — one shard must BE the unsharded engine.
dune runtest
# End-to-end benchmark smoke (about 2 s): every workload at scale 500 with
# its answers checked and its metric names printed.  It builds e2e.exe in
# its own .bench_build directory, release profile.
python3 e2ebench/run.py --smoke
# Wall-clock reporter smoke (about 10 s): the Bechamel micro suite alone,
# no figure.  It reports and never gates: a run that gets no estimate for
# some kernel exits 1, which is printed here and does not stop CI.
dune exec bench/main.exe -- --micro || \
  echo "bench/main.exe --micro: the wall-clock reporter failed (reported, not gated)" >&2
# Exhaustive crash-recovery fuzz: crash at every durable write of the
# fixed-seed workload (the default runtest pass strides the same sweep).
TREEBENCH_RECOVERY_FULL=1 dune exec test/test_main.exe -- test recovery
# Exhaustive chaos sweep: kill every shard at every exchange boundary of
# every (algorithm x access path) plan on the S=4/R=2 database and require
# the fault-free result multiset plus exactly one failover; and crash a
# follower at every durable write of its workload, clean and torn, then
# require promotion to refuse it or match a fault-free twin (the default
# runtest pass strides both).
TREEBENCH_CHAOS_FULL=1 dune exec test/test_main.exe -- test chaos
# Opt-in soak (TREEBENCH_SOAK=1, about half an hour): every workload for
# 180 s on seeds 1 and 7, every answer checked.  A fault that shows only
# once a run lives long (a replica promotion after hundreds of blocks)
# surfaces here and not in the smoke run.
if [ "${TREEBENCH_SOAK:-}" = "1" ]; then
  for seed in 1 7; do
    for workload in paper-cold point-lookup sharded-failover update-mix; do
      python3 e2ebench/run.py --workload "$workload" --seed "$seed" --seconds 180 --trace 0
    done
  done
fi
