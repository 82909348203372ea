"""The benchmark's three workloads: inputs, set-up, one timed round.

Every workload is a class with the same shape:

* ``setup()`` records what the timed phase replays into the process's
  ``REPRO_CACHE_DIR``. The runner times imports plus set-up in fresh
  processes of their own and reports the median, then sets up once more,
  untimed, over the last timed set-up's cache for the timed phase.
* ``prepare()`` resets what one round must start without (untimed).
* ``round()`` is the timed phase: it drives the program through its
  public entry points and returns a :class:`RoundOutput`.
* ``check(output)`` compares the round's outputs with the independent
  references in :mod:`perfbench.checks` and returns the failures.

Inputs depend only on the workload seed: it becomes the ``seed`` label of
every experiment and traffic config, so it picks the recorded keys (RSA
prime search and Falcon NTRUSolve cost depend on it), the netem loss
draws and the arrival stream.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

from perfbench import checks

# -- inputs ------------------------------------------------------------------

# Table 2a of the paper, in its order
TABLE2A_KEMS = [
    "x25519", "bikel1", "hqc128", "kyber512", "kyber90s512", "p256",
    "p256_bikel1", "p256_hqc128", "p256_kyber512",
    "bikel3", "hqc192", "kyber768", "kyber90s768", "p384",
    "p384_bikel3", "p384_hqc192", "p384_kyber768",
    "hqc256", "kyber1024", "kyber90s1024", "p521",
    "p521_hqc256", "p521_kyber1024",
]
BASE_KEM = "x25519"
BASE_SIG = "rsa:2048"
# signatures recorded against x25519 in cold-record (rsa:2048 first: it is
# also the base signature of every Table 2a row)
COLD_SIGS = [
    "rsa:2048", "falcon512", "p256_falcon512", "sphincs128", "dilithium2",
    "dilithium2_aes", "p256_dilithium2", "dilithium3", "dilithium5",
]
# Table 4b's signatures: every one that records in well under a second
NETEM_SIGS = [
    "rsa:1024", "rsa:2048", "dilithium2", "dilithium3", "dilithium5",
    "dilithium2_aes", "dilithium3_aes", "dilithium5_aes",
    "p256_dilithium2", "p384_dilithium3", "p521_dilithium5",
]
# Table 4's scenarios except the two with 10 % loss, high-loss and lte-m:
# on both a seed-dependent handshake now and then stalls past the 600 s
# handshake timeout (see README.md, "Left out"), and a failure that only
# some seeds show cannot be counted the same way in every run
SCENARIOS = ["none", "low-bandwidth", "high-delay", "5g"]

# traffic-open: open-loop Poisson arrivals against a 32-core server at a
# load factor near 0.78 (no drops); the second pair costs the server more
# per full handshake and resumes half of its sessions
TRAFFIC_PAIRS = (("kyber512", "dilithium2"), ("kyber768", "dilithium3"))
TRAFFIC_RESUME = (0.0, 0.5)
TRAFFIC_RATE = 24000.0          # arrivals per simulated second
TRAFFIC_DURATION = 2.5          # simulated seconds per round
TRAFFIC_CORES = 32
TRAFFIC_SHARD_SECONDS = 1.25    # two shards, so snapshots merge every round


def seed_label(seed: int) -> str:
    """The experiment/traffic ``seed`` string for a workload seed."""
    return f"perfbench-{seed}"


@dataclass
class RoundOutput:
    ops: int            # operations the round attempted
    failed: int         # of which failed
    data: dict          # what the checks read


def _paper_view(results: dict) -> dict:
    """Results re-keyed under the default seed label.

    ``repro.core.evaluate`` looks every result up under the config key of
    a default-seed experiment, so a campaign recorded under another seed
    is renamed before rendering; the results themselves are untouched.
    """
    return {replace(result.config, seed="paper").key: result
            for result in results.values()}


class _Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.label = seed_label(seed)

    def _fresh_cache(self, tag: str) -> Path:
        path = self.workdir / f"cache-{tag}"
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(path)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed reset before a round."""

    def round(self) -> RoundOutput:
        raise NotImplementedError

    def check(self, output: RoundOutput) -> list[str]:
        raise NotImplementedError


class ColdRecord(_Workload):
    """One op = one (KEM, SIG) experiment recorded from an empty cache."""

    name = "cold-record"

    def configs(self):
        from repro.core.experiment import ExperimentConfig

        pairs = [(kem, BASE_SIG) for kem in TABLE2A_KEMS]
        pairs += [(BASE_KEM, sig) for sig in COLD_SIGS if sig != BASE_SIG]
        return [ExperimentConfig(kem=kem, sig=sig, seed=self.label)
                for kem, sig in pairs]

    def setup(self) -> None:
        # nothing to record ahead: recording is the timed op; build the
        # kernels' lazy tables so the first round does not pay for them
        from repro.crypto import kernels

        kernels.warm()

    def prepare(self) -> None:
        self._fresh_cache("round")

    def round(self) -> RoundOutput:
        from repro.core import evaluate, executor, report

        results = executor.run_campaign(self.configs(), jobs=1)
        view = _paper_view(results)
        rows_a = evaluate.table2a(view, TABLE2A_KEMS)
        rows_b = evaluate.table2b(view, COLD_SIGS)
        report.render_table2(rows_a, "Table 2a")
        report.render_table2(rows_b, "Table 2b")
        failed = sum(1 for result in results.values() if result.n_failures)
        return RoundOutput(len(results), failed,
                           {"results": results, "table2a": rows_a,
                            "table2b": rows_b})

    def check(self, output: RoundOutput) -> list[str]:
        from repro.crypto.drbg import Drbg
        from repro.netsim.scripted import load_credentials
        from repro.pqc.registry import get_kem, get_sig

        kem_sizes = {}
        for kem in TABLE2A_KEMS:
            drbg = Drbg(f"perfbench-check:{self.label}:{kem}")
            scheme = get_kem(kem)
            public_key, _ = scheme.keygen(drbg)
            ciphertext, _ = scheme.encaps(public_key, drbg)
            kem_sizes[kem] = (len(public_key), len(ciphertext))
        leaves = {}
        for sig in COLD_SIGS:
            cert, _, store = load_credentials(sig, self.label)
            _, ca_key = store.roots[cert.issuer]
            leaves[sig] = checks.Leaf(
                public_key=cert.public_key, message=cert.tbs(),
                signature=cert.signature, ca_key=ca_key)
        verify = {sig: get_sig(sig).verify for sig in COLD_SIGS}
        return (checks.kem_wire_sizes(kem_sizes)
                + checks.sig_wire_sizes({s: (len(leaf.public_key),
                                             len(leaf.signature))
                                         for s, leaf in leaves.items()})
                + checks.leaf_signatures(leaves, verify)
                + checks.table2_findings(output.data["table2a"],
                                         output.data["table2b"]))


class ReplayNetem(_Workload):
    """One op = one simulated handshake replayed into an empty result cache."""

    name = "replay-netem"

    def pairs(self):
        pairs = [(kem, BASE_SIG) for kem in TABLE2A_KEMS]
        pairs += [(BASE_KEM, sig) for sig in NETEM_SIGS if sig != BASE_SIG]
        return pairs

    def configs(self):
        from repro.core.experiment import ExperimentConfig

        return [ExperimentConfig(kem=kem, sig=sig, scenario=scenario,
                                 seed=self.label)
                for scenario in SCENARIOS for kem, sig in self.pairs()]

    def setup(self) -> None:
        from repro.core.experiment import load_script
        from repro.tls.server import BufferPolicy

        for kem, sig in self.pairs():
            load_script(kem, sig, BufferPolicy.OPTIMIZED, self.label)

    def prepare(self) -> None:
        from repro.cache import cache_dir

        shutil.rmtree(cache_dir() / "experiment", ignore_errors=True)

    def round(self) -> RoundOutput:
        from repro.core import evaluate, executor, report

        results = executor.run_campaign(self.configs(), jobs=1)
        # evaluate.table4 needs the high-loss column, so every scenario is
        # ranked the way Figure 4 ranks the lossless one
        for scenario in SCENARIOS:
            medians = {f"{r.config.kem}/{r.config.sig}": r.total_median * 1e3
                       for r in results.values()
                       if r.config.scenario == scenario}
            evaluate.ranking(medians)
        report.render_ranking(*evaluate.figure4(
            _paper_view(results), TABLE2A_KEMS, NETEM_SIGS))
        ops = sum(sum(result.outcomes.values()) for result in results.values())
        failed = sum(result.n_failures for result in results.values())
        return RoundOutput(ops, failed, {"results": results})

    def check(self, output: RoundOutput) -> list[str]:
        from repro.core.experiment import load_script
        from repro.tls.server import BufferPolicy

        flights = {}
        for kem, sig in self.pairs():
            script = load_script(kem, sig, BufferPolicy.OPTIMIZED, self.label)
            flights[(kem, sig)] = checks.server_flight(script)
        samples = {(r.config.kem, r.config.sig, r.config.scenario):
                   (r.part_a_samples, r.part_b_samples, r.total_samples)
                   for r in output.data["results"].values()}
        return (checks.lossless_identical(samples)
                + checks.high_delay_rtts(samples, flights)
                + checks.serialization_floor(samples, flights)
                + checks.hqc_vs_kyber_low_bandwidth(samples))


class TrafficOpen(_Workload):
    """One op = one handshake offered to the open-loop traffic engine."""

    name = "traffic-open"

    def config(self):
        from repro.traffic import TrafficConfig

        return TrafficConfig(
            arrival=f"poisson:{TRAFFIC_RATE:g}/s", duration=TRAFFIC_DURATION,
            pairs=TRAFFIC_PAIRS, resume=TRAFFIC_RESUME, seed=self.label,
            shard_seconds=TRAFFIC_SHARD_SECONDS, server_cores=TRAFFIC_CORES)

    def setup(self) -> None:
        # recording and calibration: every profile the engine will use
        from repro.traffic import handshake_profile

        for (kem, sig), fraction in zip(TRAFFIC_PAIRS, TRAFFIC_RESUME):
            handshake_profile(kem, sig, seed=self.label)
            if fraction > 0.0:
                handshake_profile(kem, sig, seed=self.label, session="resume")

    def round(self) -> RoundOutput:
        from repro.obs.metrics import Metrics
        from repro.traffic import run_traffic

        metrics = Metrics()
        summary = run_traffic(self.config(), jobs=1, metrics=metrics)
        return RoundOutput(summary.offered, summary.dropped,
                           {"summary": summary, "metrics": metrics})

    def check(self, output: RoundOutput) -> list[str]:
        from repro.traffic import handshake_profile
        from repro.traffic.engine import metric_key

        summary = output.data["summary"]
        metrics = output.data["metrics"]
        channels = []
        for (kem, sig), fraction in zip(TRAFFIC_PAIRS, TRAFFIC_RESUME):
            prefix = f"traffic.{metric_key(kem)}.{metric_key(sig)}."
            sessions = [("full", prefix, 1.0 - fraction)]
            if fraction > 0.0:
                sessions.append(("resume", prefix + "resume.", fraction))
            for session, name, share in sessions:
                profile = handshake_profile(kem, sig, seed=self.label,
                                            session=session)
                wait = metrics.histogram(name + "server_wait")
                channels.append(checks.Channel(
                    share=share / len(TRAFFIC_PAIRS),
                    a_enqueue=profile.a_enqueue, burst_a=profile.burst_a,
                    b_gap=profile.b_gap, burst_b=profile.burst_b,
                    completed=int(metrics.value(name + "completed")),
                    wait_p50=wait.quantile(0.5), wait_p99=wait.quantile(0.99)))
        return checks.traffic(
            offered=summary.offered, completed=summary.completed,
            dropped=summary.dropped, load_factor=summary.load_factor,
            rate=TRAFFIC_RATE, duration=TRAFFIC_DURATION,
            cores=TRAFFIC_CORES, channels=channels, seed=self.seed)


WORKLOADS = {cls.name: cls for cls in (ColdRecord, ReplayNetem, TrafficOpen)}
