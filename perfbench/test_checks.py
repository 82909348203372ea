"""The benchmark's own tests: every correctness check fails on a tampered
output and passes on the untampered one.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks
from perfbench.run import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


# -- cold-record ---------------------------------------------------------------

@pytest.fixture(scope="module")
def dilithium_leaf():
    from repro.crypto.drbg import Drbg
    from repro.pqc.registry import get_sig

    scheme = get_sig("dilithium2")
    drbg = Drbg("perfbench-test")
    ca_pk, ca_sk = scheme.keygen(drbg)
    leaf_pk, _ = scheme.keygen(drbg)
    message = b"to-be-signed leaf certificate"
    signature = scheme.sign(ca_sk, message, drbg)
    return checks.Leaf(leaf_pk, message, signature, ca_pk), scheme.verify


def test_leaf_signature_passes_untampered(dilithium_leaf):
    leaf, verify = dilithium_leaf
    assert checks.leaf_signatures({"dilithium2": leaf},
                                  {"dilithium2": verify}) == []


def test_flipped_signature_bit_fails(dilithium_leaf):
    leaf, verify = dilithium_leaf
    tampered = checks.Leaf(leaf.public_key, leaf.message,
                           checks.flip_bit(leaf.signature), leaf.ca_key)
    errors = checks.leaf_signatures({"dilithium2": tampered},
                                    {"dilithium2": verify})
    assert "dilithium2: leaf signature does not verify" in errors


def test_verifier_accepting_a_flipped_bit_fails(dilithium_leaf):
    leaf, _ = dilithium_leaf
    errors = checks.leaf_signatures({"dilithium2": leaf},
                                    {"dilithium2": lambda *args: True})
    assert errors == ["dilithium2: leaf signature verifies with a flipped bit"]


def test_wire_sizes():
    assert checks.kem_wire_sizes({"p521_hqc256": (7378, 14602)}) == []
    assert checks.kem_wire_sizes({"kyber512": (801, 768)})
    assert checks.sig_wire_sizes({"p256_falcon512": (962, 700),
                                  "dilithium2_aes": (1312, 2420)}) == []
    assert checks.sig_wire_sizes({"falcon512": (897, 667)})
    assert checks.sig_wire_sizes({"sphincs128": (32, 17087)})


class _Row:
    def __init__(self, algorithm, part_a_ms, part_b_ms):
        self.algorithm = algorithm
        self.part_a_ms = part_a_ms
        self.part_b_ms = part_b_ms


def _table2(**overrides):
    part_a = {"x25519": 0.17, "kyber512": 0.14, "kyber90s512": 0.14,
              "kyber768": 0.2, "p384": 3.08}
    part_b = {"rsa:2048": 1.52, "dilithium2": 0.82, "dilithium3": 1.1,
              "dilithium5": 1.41, "dilithium2_aes": 0.82, "falcon512": 0.76}
    part_a.update({k: v for k, v in overrides.items() if k in part_a})
    part_b.update({k: v for k, v in overrides.items() if k in part_b})
    return ([_Row(k, v, 1.0) for k, v in part_a.items()],
            [_Row(k, 0.2, v) for k, v in part_b.items()])


def test_table2_findings():
    assert checks.table2_findings(*_table2()) == []
    assert checks.table2_findings(*_table2(kyber512=0.21))
    assert checks.table2_findings(*_table2(kyber768=0.8))
    assert checks.table2_findings(*_table2(falcon512=1.6))


# -- replay-netem ----------------------------------------------------------------

# a one-write ClientHello reply of 11 segments needs a second round trip
TWO_RTT_FLIGHT = [90, 4096, 4096, 4096, 3000]


def _netem_samples(total: float):
    flights = {("x25519", "dilithium5"): TWO_RTT_FLIGHT,
               ("p521_hqc256", "rsa:2048"): TWO_RTT_FLIGHT,
               ("kyber512", "rsa:2048"): [90, 1500, 1200]}
    samples = {
        ("x25519", "dilithium5", "high-delay"): ([1.0] * 3, [1.0] * 3,
                                                 [total] * 3),
        ("kyber512", "rsa:2048", "high-delay"): ([0.5] * 3, [0.5] * 3,
                                                 [1.0012] * 3),
    }
    return samples, flights


def test_rtt_count():
    assert checks.rtt_count([90, 1500, 1200]) == 1
    assert checks.rtt_count([1448] * 10) == 1
    assert checks.rtt_count([1448] * 11) == 2
    assert checks.rtt_count(TWO_RTT_FLIGHT) == 2
    assert checks.rtt_count([1448] * 31) == 3


def test_total_on_its_rtt_count_passes():
    samples, flights = _netem_samples(2.0021)
    assert checks.high_delay_rtts(samples, flights) == []


def test_total_shifted_by_one_rtt_fails():
    samples, flights = _netem_samples(2.0021 + checks.HIGH_DELAY_RTT)
    errors = checks.high_delay_rtts(samples, flights)
    assert errors == ["x25519/dilithium5 high-delay: total 3.0021 s "
                      "is not on 2 RTT(s)"] * 3


def test_two_rtt_cells_must_need_two_rtts():
    samples, flights = _netem_samples(2.0021)
    flights[("x25519", "dilithium5")] = [90, 1500]
    assert checks.high_delay_rtts(samples, flights)


def test_lossless_samples_identical():
    same = {("kyber512", "rsa:2048", "none"): ([1.0] * 3, [2.0] * 3, [3.0] * 3),
            ("kyber512", "rsa:2048", "5g"): ([1.0, 1.1], [2.0] * 2, [3.0, 3.1])}
    assert checks.lossless_identical(same) == []
    same[("kyber512", "rsa:2048", "none")][2][1] = 3.5
    assert checks.lossless_identical(same)


def test_serialization_floor():
    flights = {("hqc256", "rsa:2048"): [16000]}
    floor = 8 * 16000 / checks.LOW_BANDWIDTH_BPS
    ok = {("hqc256", "rsa:2048", "low-bandwidth"): ([], [], [floor + 0.01])}
    fast = {("hqc256", "rsa:2048", "low-bandwidth"): ([], [], [floor - 0.01])}
    assert checks.serialization_floor(ok, flights) == []
    assert checks.serialization_floor(fast, flights)


def test_hqc_vs_kyber_low_bandwidth():
    def samples(hqc):
        return {("hqc256", "rsa:2048", "low-bandwidth"): ([], [], [hqc]),
                ("kyber1024", "rsa:2048", "low-bandwidth"): ([], [], [0.05])}
    assert checks.hqc_vs_kyber_low_bandwidth(samples(0.25)) == []
    assert checks.hqc_vs_kyber_low_bandwidth(samples(0.15))


# -- traffic-open --------------------------------------------------------------

RATE, DURATION, CORES = 4000.0, 2.0, 4


def _traffic(dropped: int = 0, wait_scale: float = 1.0):
    shapes = [(0.5, 1e-4, 8e-4, 1e-4, 2e-5), (0.5, 1e-4, 5e-4, 1e-4, 2e-5)]
    bare = [checks.Channel(share, a, ba, gap, bb, 0, 0.0, 0.0)
            for share, a, ba, gap, bb in shapes]
    waits = checks.fcfs_waits(bare, RATE, DURATION, CORES, seed=7)
    channels = [checks.Channel(c.share, c.a_enqueue, c.burst_a, c.b_gap,
                               c.burst_b, len(w),
                               wait_scale * checks._quantile(w, 0.5),
                               wait_scale * checks._quantile(w, 0.99))
                for c, w in zip(bare, waits)]
    completed = sum(c.completed for c in channels)
    busy = sum(c.completed * (c.burst_a + c.burst_b) for c in channels)
    return checks.traffic(
        offered=completed + dropped, completed=completed, dropped=dropped,
        load_factor=busy / (DURATION * CORES), rate=RATE, duration=DURATION,
        cores=CORES, channels=channels, seed=7)


def test_traffic_passes_untampered():
    assert _traffic() == []


def test_dropped_handshake_fails():
    assert _traffic(dropped=1) == ["1 arrivals dropped"]


def test_waits_off_the_fcfs_reference_fail():
    assert _traffic(wait_scale=4.0)
    assert _traffic(wait_scale=0.0)  # no queueing at all


# -- the benchmark definition --------------------------------------------------

def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    from perfbench.workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "traffic-open",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
