"""palinwidth benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload oracle-cold --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The run sets up (timed on its own), builds one round of operations
from the seed, then repeats the round whole until --seconds have passed,
timing each operation and checking its output with perfbench/checker.py.
The last line of standard output is the result as JSON.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds and reports the per-layer metrics; the untraced rounds
give the tracing overhead.  Spans are written to
.perfbench/trace-<workload>-<seed>.csv.gz.

--repeat K runs K fresh processes on seeds seed..seed+K-1 and prints each
metric's median, quartiles and spread (quartile distance over median).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("oracle-cold", "decompose-warm", "cli-roundtrip")
MIN_SAMPLES = 110  # a 90th percentile then has at least 10 samples beyond it

PER_LAYER = {
    # name: (unit, kind, source); kind "self" is self time per op in ms,
    # "count" is a counter per op
    "groups.build_ms": ("ms", "self", "groups.build"),
    "groups.builds_per_op": ("count", "count", "groups.builds"),
    "groups.elements_built_per_op": ("count", "count", "groups.elements_built"),
    "groups.geodesics_ms": ("ms", "self", "groups.geodesics"),
    "presets.get_ms": ("ms", "self", "presets.get"),
    "wreath.materialise_ms": ("ms", "self", "wreath.materialise"),
    "oracle.automaton_ms": ("ms", "self", "oracle.automaton"),
    "oracle.automaton_states_per_op": ("count", "count", "oracle.automaton_states"),
    "oracle.palindrome_set_ms": ("ms", "self", "oracle.palindrome_set"),
    "oracle.palindromes_per_op": ("count", "count", "oracle.palindromes"),
    "oracle.width_bfs_ms": ("ms", "self", "oracle.width_bfs"),
    "oracle.decompose_ms": ("ms", "self", "oracle.decompose"),
    "oracle.verify_ms": ("ms", "self", "oracle.verify"),
    "oracle.verify_calls_per_op": ("count", "count", "oracle.verify_calls"),
    "words.word_objects_per_op": ("count", "count", "words.word_objects"),
    "words.parse_ms": ("ms", "self", "words.parse"),
    "wreath.evaluate_ms": ("ms", "self", "wreath.evaluate"),
    "wreath.letters_evaluated_per_op": ("count", "count", "wreath.letters_evaluated"),
    "wreath.multiply_ms": ("ms", "self", "wreath.multiply"),
    "wreath.multiply_calls_per_op": ("count", "count", "wreath.multiply_calls"),
    "commutators.express_ms": ("ms", "self", "commutators.express"),
    "commutators.pairs_per_op": ("count", "count", "commutators.pairs"),
    "decompose.finite_top_ms": ("ms", "self", "decompose.finite_top"),
    "decompose.finite_top_abelianized_ms": ("ms", "self", "decompose.finite_top_abelianized"),
    "decompose.derived_ms": ("ms", "self", "decompose.derived"),
    "decompose.shifted_ms": ("ms", "self", "decompose.shifted"),
    "decompose.abelian_top_ms": ("ms", "self", "decompose.abelian_top"),
    "decompose.pair_ms": ("ms", "self", "decompose.pair"),
    "decompose.abelian_element_ms": ("ms", "self", "decompose.abelian_element"),
    "decompose.relation_ms": ("ms", "self", "decompose.relation"),
    "decompose.relation_extensions_per_op": ("count", "count", "decompose.relation_extensions"),
    "decompose.shift_retries_per_op": ("count", "count", "decompose.shift_retries"),
    "decompose.bound_margin_per_op": ("count", "count", "decompose.bound_margin"),
    "cli.main_ms": ("ms", "self", "cli.main"),
    "cli.report_bytes_per_op": ("bytes", "count", "cli.report_bytes"),
    "cli.startup_ms": ("ms", "startup", None),
    "trace.overhead_pct": ("%", "overhead", None),
}


def _workload(name: str, seed: int, workdir: str, in_process: bool):
    import workloads

    if name == "oracle-cold":
        return workloads.OracleCold(seed, ROOT)
    if name == "decompose-warm":
        return workloads.DecomposeWarm(seed)
    return workloads.CliRoundtrip(seed, ROOT, workdir, in_process=in_process)


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-roundtrip" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import checker
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = _workload(workload, seed, workdir, in_process=trace)
        setup_s = wl.setup()
        ops = wl.round()
        tracer = None
        if trace:
            from tracing import Tracer

            tracer = Tracer()

        latencies: list[float] = []
        busy = {False: 0.0, True: 0.0}  # seconds in operations, by traced
        done = {False: 0, True: 0}
        attempted = failed = 0
        # output sizes, from the traced rounds only when tracing
        totals = {"factors": 0, "letters": 0, "margin": 0, "report_bytes": 0}
        correct = True
        result = None
        # The benchmark's own objects stay out of the program's collections,
        # and each operation's garbage (the oracle's caches form reference
        # cycles) is collected before the next one is timed, not during it.
        gc.collect()
        gc.freeze()
        started = time.perf_counter()
        rounds = 0
        while correct:
            traced = trace and rounds % 2 == 1
            # an untraced round and the traced one after it share a processor
            workloads.use_cpu(rounds // 2 if trace else rounds)
            for op in ops:
                result = None
                gc.collect()
                t0 = time.perf_counter()
                try:
                    result = tracer.run_op(op.run) if traced else op.run()
                except Exception:  # the program raised: a failed operation
                    result = None
                    traceback.print_exc()
                elapsed = time.perf_counter() - t0
                attempted += 1
                busy[traced] += elapsed
                done[traced] += 1
                if result is None:
                    failed += 1
                    continue
                try:
                    outcome = op.check(result)
                except checker.CheckError as exc:
                    print(f"incorrect output from {op.kind}: {exc}", file=sys.stderr)
                    correct = False
                    break
                if outcome.failed:
                    failed += 1
                    continue
                if not traced:
                    latencies.append(elapsed)
                if traced == trace:
                    totals["factors"] += outcome.factors
                    totals["letters"] += outcome.letters
                    totals["margin"] += outcome.margin
                    totals["report_bytes"] += outcome.report_bytes
            rounds += 1
            if time.perf_counter() - started < seconds:
                continue
            if trace and rounds % 2 == 0:
                break
            if not trace and len(latencies) >= MIN_SAMPLES:
                break

        if not correct:
            metrics = {}
        elif trace:
            metrics = _per_layer(workload, tracer, busy, done, totals, seed)
        else:
            metrics = _end_to_end(workload, setup_s, latencies, busy[False], done[False], totals)
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        workloads.use_cpu(-1)
        shutil.rmtree(workdir, ignore_errors=True)


def _end_to_end(workload, setup_s, latencies, busy_s, ops, totals) -> dict:
    deciles = statistics.quantiles(latencies, n=10)
    succeeded = len(latencies)
    beyond = sum(1 for x in latencies if x > deciles[8])
    if beyond < 10:
        raise RuntimeError(f"only {beyond} samples beyond the 90th percentile")

    def metric(value, unit):
        return {"value": value, "unit": unit}

    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(ops / busy_s, "1/s"),
        "latency_p50_ms": metric(deciles[4] * 1000, "ms"),
        "latency_p90_ms": metric(deciles[8] * 1000, "ms"),
        "peak_rss_mb": metric(_peak_rss_mb(workload), "MB"),
        "factors_per_op": metric(totals["factors"] / succeeded, "factors"),
        "letters_per_op": metric(totals["letters"] / succeeded, "letters"),
    }


def _per_layer(workload, tracer, busy, done, totals, seed) -> dict:
    import workloads

    ops = done[True]
    self_s = tracer.self_seconds()
    counts = dict(tracer.counts)
    counts["decompose.bound_margin"] = totals["margin"]
    counts["cli.report_bytes"] = totals["report_bytes"]
    untraced_rate = done[False] / busy[False]
    traced_rate = done[True] / busy[True]
    metrics = {}
    for name, (unit, kind, source) in PER_LAYER.items():
        if kind == "self":
            value = self_s.get(source, 0.0) * 1000 / ops
        elif kind == "count":
            value = counts.get(source, 0) / ops
        elif kind == "startup":
            value = workloads.median_child_seconds(ROOT, "import palinwidth.cli", inside=False) * 1000
        else:
            value = 100.0 * (untraced_rate - traced_rate) / untraced_rate
        metrics[name] = {"value": value, "unit": unit}
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.csv.gz"))
    return metrics


def repeat(args) -> int:
    """Run k fresh processes and summarise each metric across them."""
    results = []
    for k in range(args.repeat):
        seed = args.seed + k
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{name}={m['value']:.5g}" for name, m in result["metrics"].items()
        ) + f" failed={result['failed']}/{result['attempted']}", flush=True)
    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:40s} {first['unit']:8s} median {median:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:7.4f}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share per run: {shares}")
    summary["all_correct"] = all(r["correct"] for r in results)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"repeat-{args.workload}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump({"runs": results, "summary": summary}, handle, indent=1)
    print(json.dumps(summary))
    return 0 if summary["all_correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run K seeds and summarise")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "palinwidth", "__init__.py")):
        print(f"error: no palinwidth source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
