"""Run one benchmark workload; print its result as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-netem --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload end to end: imports plus set-up run
several times, each in a fresh process of its own, and are reported as a
median; then whole rounds run until ``--seconds`` of timed rounds have
passed. ``--trace 1`` runs one set-up and two rounds,
the second with per-layer tracing, and reports the layer metrics and the
tracing overhead. Either way the last round's outputs are checked against
the references in ``perfbench/checks.py``, and a wrong output exits 1.

Each run works in its own fresh ``REPRO_CACHE_DIR`` under
``.perfbench-work/`` (removed on exit), single-threaded, at ``--jobs 1``.
Traced runs leave their spans in ``.perfbench-work/spans/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUPS = 3      # fresh-process set-ups per timed run; setup_s is their median
SETUP_TIMEOUT = 120

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "crypto.drbg_s": "s", "crypto.drbg_calls": "count",
    "pqc.keygen_s": "s", "pqc.sign_s": "s", "pqc.verify_s": "s",
    "pqc.encaps_s": "s", "pqc.decaps_s": "s", "pqc.calls": "count",
    "pqc.keygen_calls": "count", "pqc.sphincs.sign_s": "s",
    "pqc.falcon.keygen_s": "s", "pqc.rsa.keygen_s": "s",
    "tls.credentials_s": "s", "tls.record_self_s": "s",
    "tls.scripts_recorded": "count",
    "cache.load_s": "s", "cache.store_s": "s", "cache.loads": "count",
    "cache.stores": "count", "cache.bytes_stored": "B",
    "netsim.replay_s": "s", "netsim.handshakes": "count",
    "netsim.us_per_handshake": "us", "netsim.events": "count",
    "netsim.segments": "count", "netsim.retransmits": "count",
    "netsim.failed_handshakes": "count",
    "core.experiment_self_s": "s", "core.campaign_self_s": "s",
    "core.evaluate_s": "s",
    "obs.observe_calls": "count", "obs.observe_s": "s", "obs.snapshot_s": "s",
    "obs.merge_s": "s", "obs.trace_overhead_s": "s",
    "traffic.calibrate_s": "s", "traffic.engine_self_s": "s",
    "traffic.events": "count", "traffic.handshakes": "count",
    "traffic.us_per_handshake": "us",
}
# the span that starts a new op, for the op id of every span under it
OP_SPANS = {"cold-record": "core.experiment", "replay-netem": "netsim.replay",
            "traffic-open": None}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(OP_SPANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed-round seconds to fill (whole rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time imports plus one set-up into this cache directory
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program() -> float:
    """Import everything a workload calls; returns the seconds it took."""
    start = time.perf_counter()
    import repro.core.evaluate  # noqa: F401
    import repro.core.executor  # noqa: F401
    import repro.core.report  # noqa: F401
    import repro.netsim.scripted  # noqa: F401
    import repro.obs.metrics  # noqa: F401
    import repro.traffic  # noqa: F401
    return time.perf_counter() - start


def _timed_round(workload, tracer=None):
    """One round: (output, wall seconds, CPU seconds), traced if asked."""
    workload.prepare()
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        cpu, wall = time.process_time(), time.perf_counter()
        output = workload.round()
        return output, time.perf_counter() - wall, time.process_time() - cpu
    finally:
        if tracer is not None:
            tracer.uninstall()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_only(name: str, seed: int, workdir: Path) -> int:
    """Child of a timed run: print the seconds of imports plus set-up."""
    import_s = _import_program()
    from perfbench.workloads import WORKLOADS

    start = time.perf_counter()
    WORKLOADS[name](seed, workdir).setup()
    print(import_s + time.perf_counter() - start)
    return 0


def _timed_setups(name: str, seed: int, workdir: Path) -> list[float]:
    """Imports plus set-up, each time in a fresh process and cache.

    The cache of the last set-up is left in place and becomes the
    process's ``REPRO_CACHE_DIR``.
    """
    seconds = []
    for index in range(SETUPS):
        cache = workdir / f"cache-setup{index}"
        cache.mkdir(parents=True)
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", "0", "--setup-only", str(cache)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT,
            check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up {index} exited {done.returncode}:\n"
                               f"{done.stderr[-2000:]}")
        seconds.append(float(done.stdout.splitlines()[-1]))
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    return seconds


def _end_to_end(workload, seconds: float, setups: list[float]):
    workload.setup()  # untimed: reads what the last timed set-up recorded
    walls, cpus, ops, failed = [], [], 0, 0
    output = None
    while not walls or sum(walls) < seconds:
        output = None  # free the previous round before the next one
        output, wall, cpu = _timed_round(workload)
        walls.append(wall)
        cpus.append(cpu)
        ops += output.ops
        failed += output.failed
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "ops_per_s": ops / sum(walls),
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": statistics.median(setups),
    }
    print(f"[perfbench] {workload.name}: {len(walls)} round(s), walls "
          + ", ".join(f"{w:.3f}" for w in walls)
          + " s; imports + set-ups " + ", ".join(f"{s:.3f}" for s in setups)
          + " s", file=sys.stderr)
    return output, ops, failed, metrics, END_TO_END


def _traced(workload, name: str, seed: int, workdir: Path):
    from perfbench.tracing import Tracer

    tracer = Tracer(OP_SPANS[name])
    cache = workdir / "cache-setup"
    cache.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    _, untraced_wall, _ = _timed_round(workload)
    output, traced_wall, _ = _timed_round(workload, tracer)
    metrics = tracer.layer_metrics()
    run_s = metrics.pop("traffic.run_s")
    results = output.data.get("results", {})
    summary = output.data.get("summary")
    handshakes = summary.completed if summary is not None else 0
    metrics.update({
        "cache.bytes_stored": sum(p.stat().st_size
                                  for p in workdir.rglob("*.pkl")),
        "netsim.segments": tracer.replay_packets,
        "netsim.failed_handshakes": tracer.replay_failed,
        "netsim.retransmits": sum(
            value for result in results.values()
            for key, value in result.metrics.get("counters", {}).items()
            if key.endswith("retransmits")),
        "traffic.handshakes": handshakes,
        "traffic.us_per_handshake": run_s / handshakes * 1e6 if handshakes else 0.0,
        "obs.trace_overhead_s": traced_wall - untraced_wall,
    })
    tracer.write(WORK / "spans" / f"{name}-seed{seed}.json")
    print(f"[perfbench] {name} traced: untraced {untraced_wall:.3f} s, "
          f"traced {traced_wall:.3f} s, {len(tracer.spans)} spans",
          file=sys.stderr)
    return output, output.ops, output.failed, metrics, PER_LAYER


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    # one thread: numpy's BLAS pools read these when numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.setup_only is not None:
        os.environ["REPRO_CACHE_DIR"] = str(args.setup_only)
        return _setup_only(args.workload, args.seed, args.setup_only)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        setups = [] if args.trace else _timed_setups(
            args.workload, args.seed, workdir)
        _import_program()
        from perfbench.workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            output, ops, failed, metrics, units = _traced(
                workload, args.workload, args.seed, workdir)
        else:
            output, ops, failed, metrics, units = _end_to_end(
                workload, args.seconds, setups)
        errors = workload.check(output)  # reads the run's cache: before cleanup
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in errors:
        print(f"[perfbench] CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
