"""Steadiness check: two sets of runs of one commit, compared to the bounds.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 [--workloads ...]

Runs ``BENCHMARK.json``'s command twice per workload and seed, for seeds
1..N: once for set 1 and once for set 2, back to back, so both sets see
the same stretches of host speed and, unless ``--set2-offset`` gives set 2
other seeds, the same inputs.
For every end-to-end metric it prints each set's median and quartiles and
the spread ``(Q3 - Q1) / median``, then whether the sets agree: every spread
within the metric's bound (``SPREAD``), the two medians within the bound
of each other in either direction (``DRIFT``), every run correct and the
same share of failed operations in both sets, seed by seed. Exits 1 if
they do not agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT = 900   # first runs in a fresh checkout may build


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]),
                              "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT, check=False)
    elapsed = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--set2-offset", type=int, default=0,
                        help="set 2 runs seed + this (0: the same seeds)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("quartiles need at least two runs")

    runs: dict = {w: ([], []) for w in args.workloads}
    for seed in range(1, args.runs + 1):
        for workload in args.workloads:
            for set_index, results in enumerate(runs[workload]):
                run_seed = seed + set_index * args.set2_offset
                result = run_once(spec, workload, run_seed)
                results.append(result)
                print(f"set {set_index + 1} {workload} seed {run_seed}: "
                      f"{result['elapsed_s']:.1f} s, "
                      f"failed {result['failed']}/{result['attempted']} "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in result["metrics"].items()),
                      file=sys.stderr)

    ok = True
    for workload in args.workloads:
        sets = runs[workload]
        shares = [[r["failed"] / r["attempted"] for r in s] for s in sets]
        correct = all(r["correct"] for s in sets for r in s)
        same_failures = shares[0] == shares[1]
        print(f"\n{workload}: all correct {correct}, failed shares "
              f"{'the same' if same_failures else 'DIFFER'} per seed "
              f"(set 1 {shares[0]})")
        ok &= correct and same_failures
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in s])
                     for s in sets]
            cells = "  ".join(f"median {st['median']:.4g} q1 {st['q1']:.4g} "
                              f"q3 {st['q3']:.4g} spread {st['spread']:.3f}"
                              for st in stats)
            change = (stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
            verdict = []
            if any(st["spread"] > bound for st in stats):
                verdict.append("SPREAD")
            if abs(change) > bound:
                verdict.append("DRIFT")
            ok &= not verdict
            print(f"  {name:<12} bound {bound:<5} {cells}  change "
                  f"{change:+.3f}  {' '.join(verdict) or 'ok'}")
    print("\nagree" if ok else "\nDO NOT AGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
