"""Correctness checks made apart from the program.

Every check takes plain values pulled from the program's outputs and
returns a list of failure messages (empty = pass). The references are
held here: wire sizes are the round-3 NIST submission sizes (not the
registry's declared sizes), RTT counts and serialization floors are
derived from the recorded flight bytes with this file's own TCP model,
and queueing waits are recomputed by an independent k-server FCFS
simulation drawn from the benchmark seed.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import random
import statistics
from dataclasses import dataclass

# -- wire sizes ----------------------------------------------------------------

# (public key, ciphertext) bytes: round-3 submissions; classical shares are
# the raw X25519 key and uncompressed SEC1 points
KEM_SIZES = {
    "x25519": (32, 32),
    "p256": (65, 65), "p384": (97, 97), "p521": (133, 133),
    "kyber512": (800, 768), "kyber768": (1184, 1088), "kyber1024": (1568, 1568),
    "kyber90s512": (800, 768), "kyber90s768": (1184, 1088),
    "kyber90s1024": (1568, 1568),
    "bikel1": (1541, 1573), "bikel3": (3083, 3115),
    "hqc128": (2249, 4481), "hqc192": (4522, 9026), "hqc256": (7245, 14469),
}
# (public key, signature) bytes. RSA has no NIST submission: its key is the
# modulus in a 2-byte-length + modulus + 4-byte-exponent encoding and its
# PSS signature is one modulus long. ECDSA halves are an uncompressed point
# and a fixed-width r || s.
SIG_SIZES = {
    "rsa:1024": (2 + 128 + 4, 128), "rsa:2048": (2 + 256 + 4, 256),
    "p256": (65, 64), "p384": (97, 96), "p521": (133, 132),
    "falcon512": (897, 666), "falcon1024": (1793, 1280),
    "dilithium2": (1312, 2420), "dilithium3": (1952, 3293),
    "dilithium5": (2592, 4595),
    "dilithium2_aes": (1312, 2420), "dilithium3_aes": (1952, 3293),
    "dilithium5_aes": (2592, 4595),
    "sphincs128": (32, 17088),
}
# Falcon signatures are variable length; 666 / 1280 bytes bound them
VARIABLE_SIGS = {"falcon512", "falcon1024"}


def _components(name: str) -> list[str]:
    """``p256_kyber512`` -> [p256, kyber512]; plain names -> [name]."""
    head, _, tail = name.partition("_")
    if head in ("p256", "p384", "p521") and tail and not tail.startswith("aes"):
        return [head, tail]
    return [name]


def kem_wire_sizes(sizes: dict[str, tuple[int, int]]) -> list[str]:
    """Generated (public key, ciphertext) lengths against the table."""
    errors = []
    for name, (pk, ct) in sizes.items():
        parts = _components(name)
        want_pk = sum(KEM_SIZES[p][0] for p in parts)
        want_ct = sum(KEM_SIZES[p][1] for p in parts)
        if (pk, ct) != (want_pk, want_ct):
            errors.append(f"{name}: pk/ct {pk}/{ct} B, round-3 size "
                          f"{want_pk}/{want_ct} B")
    return errors


def sig_wire_sizes(sizes: dict[str, tuple[int, int]]) -> list[str]:
    """Leaf public-key and CA-signature lengths against the table."""
    errors = []
    for name, (pk, sig) in sizes.items():
        parts = _components(name)
        want_pk = sum(SIG_SIZES[p][0] for p in parts)
        want_sig = sum(SIG_SIZES[p][1] for p in parts)
        if any(p in VARIABLE_SIGS for p in parts):
            fixed = sum(SIG_SIZES[p][1] for p in parts if p not in VARIABLE_SIGS)
            ok_sig = fixed < sig <= want_sig
        else:
            ok_sig = sig == want_sig
        if pk != want_pk or not ok_sig:
            errors.append(f"{name}: pk/sig {pk}/{sig} B, round-3 size "
                          f"{want_pk}/{want_sig} B")
    return errors


@dataclass(frozen=True)
class Leaf:
    public_key: bytes      # the leaf's key (sized, not verified against)
    message: bytes         # the to-be-signed certificate body
    signature: bytes       # the CA's signature over it
    ca_key: bytes          # the trust anchor's public key


def flip_bit(data: bytes, index: int | None = None) -> bytes:
    """``data`` with one bit flipped (a quarter of the way in by default:
    past Falcon's header and nonce, before its zero padding)."""
    index = len(data) // 4 if index is None else index
    out = bytearray(data)
    out[index] ^= 0x01
    return bytes(out)


def leaf_signatures(leaves: dict[str, Leaf], verify: dict) -> list[str]:
    """Each leaf signature verifies, and stops verifying after one flip."""
    errors = []
    for name, leaf in leaves.items():
        check = verify[name]
        if not check(leaf.ca_key, leaf.message, leaf.signature):
            errors.append(f"{name}: leaf signature does not verify")
        # verify never raises (SignatureScheme's contract): one that does
        # on a corrupted signature fails the run as a fault
        if check(leaf.ca_key, leaf.message, flip_bit(leaf.signature)):
            errors.append(f"{name}: leaf signature verifies with a flipped bit")
    return errors


def table2_findings(rows_a, rows_b) -> list[str]:
    """The paper's Table 2 orderings on the recorded medians: level-1 Kyber
    is about as fast as X25519 on part A, Kyber-768 beats P-384 more than
    four times over on part A, and Dilithium and Falcon-512 beat rsa:2048
    on part B (the client's certificate verification)."""
    part_a = {row.algorithm: row.part_a_ms for row in rows_a}
    part_b = {row.algorithm: row.part_b_ms for row in rows_b}
    errors = []
    for kyber in ("kyber512", "kyber90s512"):
        if part_a[kyber] > 1.2 * part_a["x25519"]:
            errors.append(f"{kyber} part A {part_a[kyber]:.3f} ms > 1.2 x "
                          f"x25519 {part_a['x25519']:.3f} ms")
    if not part_a["kyber768"] < part_a["p384"] / 4:
        errors.append(f"kyber768 part A {part_a['kyber768']:.3f} ms not below "
                      f"a quarter of p384 {part_a['p384']:.3f} ms")
    for sig in ("dilithium2", "dilithium3", "dilithium5", "dilithium2_aes",
                "falcon512"):
        if not part_b[sig] < part_b["rsa:2048"]:
            errors.append(f"{sig} part B {part_b[sig]:.3f} ms does not beat "
                          f"rsa:2048 {part_b['rsa:2048']:.3f} ms")
    return errors


# -- replay-netem ----------------------------------------------------------------

MSS = 1448              # TCP payload bytes per segment
INIT_CWND = 10          # initial window, segments
HIGH_DELAY_RTT = 1.0    # seconds
LOW_BANDWIDTH_BPS = 1e6
LOSSLESS = ("none", "low-bandwidth", "high-delay")
# the paper's Table 4 cells that need a second round trip at 1 s RTT
TWO_RTT_CELLS = [("p521_hqc256", "rsa:2048"), ("x25519", "dilithium5")]


def server_flight(script) -> list[int]:
    """Byte length of each write in the server's reply to the ClientHello."""
    first = script.server_milestones[0]
    return [action.length for action in first.actions
            if hasattr(action, "length")]


def rtt_count(writes: list[int]) -> int:
    """Round trips a flight needs under slow start from ``INIT_CWND``.

    Each write ends on a push boundary, so it occupies its own segments;
    every round trip the window doubles.
    """
    segments = sum(math.ceil(n / MSS) for n in writes)
    rounds, window, sent = 1, INIT_CWND, INIT_CWND
    while sent < segments:
        window *= 2
        sent += window
        rounds += 1
    return rounds


def lossless_identical(samples: dict) -> list[str]:
    """On a lossless link every replay of a script is the same handshake."""
    errors = []
    for (kem, sig, scenario), series in samples.items():
        if scenario not in LOSSLESS:
            continue
        for label, values in zip(("part A", "part B", "total"), series):
            if len(values) < 2 or len(set(values)) != 1:
                errors.append(f"{kem}/{sig} {scenario}: {label} samples "
                              f"differ or are too few: {values}")
    return errors


def high_delay_rtts(samples: dict, flights: dict) -> list[str]:
    """At 1 s RTT each total lies on the derived round-trip count."""
    errors = []
    for kem, sig in TWO_RTT_CELLS:
        if (kem, sig) in flights and rtt_count(flights[(kem, sig)]) != 2:
            errors.append(f"{kem}/{sig}: flight of {flights[(kem, sig)]} B "
                          f"does not need the paper's 2 RTTs")
    for (kem, sig, scenario), (_, _, totals) in samples.items():
        if scenario != "high-delay":
            continue
        rounds = rtt_count(flights[(kem, sig)])
        for total in totals:
            if not rounds * HIGH_DELAY_RTT <= total < (rounds + 1) * HIGH_DELAY_RTT:
                errors.append(f"{kem}/{sig} high-delay: total {total:.4f} s "
                              f"is not on {rounds} RTT(s)")
    return errors


def serialization_floor(samples: dict, flights: dict) -> list[str]:
    """At 1 Mbit/s no handshake beats sending its server flight."""
    errors = []
    for (kem, sig, scenario), (_, _, totals) in samples.items():
        if scenario != "low-bandwidth":
            continue
        floor = 8.0 * sum(flights[(kem, sig)]) / LOW_BANDWIDTH_BPS
        if totals and min(totals) < floor:
            errors.append(f"{kem}/{sig} low-bandwidth: total {min(totals):.4f} s "
                          f"below its serialization floor {floor:.4f} s")
    return errors


def hqc_vs_kyber_low_bandwidth(samples: dict) -> list[str]:
    hqc = statistics.median(samples[("hqc256", "rsa:2048", "low-bandwidth")][2])
    kyber = statistics.median(samples[("kyber1024", "rsa:2048", "low-bandwidth")][2])
    if not hqc > 4 * kyber:
        return [f"hqc256 low-bandwidth {hqc:.4f} s not above 4 x "
                f"kyber1024 {kyber:.4f} s"]
    return []


# -- traffic-open -------------------------------------------------------------

@dataclass(frozen=True)
class Channel:
    """One (pair, session) stream of the traffic mix."""

    share: float         # probability an arrival belongs to it
    a_enqueue: float     # arrival -> burst A reaches the server (s)
    burst_a: float       # server CPU seconds, burst A
    b_gap: float         # end of burst A -> burst B enqueue (s)
    burst_b: float       # server CPU seconds, burst B
    completed: int       # engine's completion count
    wait_p50: float      # engine's server-wait median (s)
    wait_p99: float      # engine's server-wait p99 (s)


# Sampling tolerance on wait quantiles. The p99 wait of one short run
# moves a lot with the arrival draws (over 150 independent 2.5 s windows
# of traffic-open's mix: log-p99 standard deviation 0.10, a right tail out
# to +0.5), so one reference draw is no yardstick: a fixed 25 % band
# failed about 3 % of seeds on correct output. The reference is instead
# WAIT_REPLICATIONS independent FCFS runs of the same length; a quantile
# passes if its log lies within WAIT_SIGMAS standard deviations of their
# median (log-space: wait quantiles are positive and right-skewed), plus
# WAIT_SKETCH for the engine's 1 %-accurate quantile sketch. WAIT_ATOL, one
# 10-microsecond step, keeps quantiles near zero finite in log-space.
WAIT_REPLICATIONS = 32
WAIT_SIGMAS = 9.0
WAIT_SKETCH = math.log(1.02)
WAIT_ATOL = 1e-5


def fcfs_waits(channels: list[Channel], rate: float, duration: float,
               cores: int, seed: int, replication: int = 0) -> list[list[float]]:
    """Independent k-core FCFS queue: per-channel total waits (A + B)."""
    rng = random.Random(f"perfbench-fcfs-{seed}:{replication}")
    cumulative = list(itertools.accumulate(c.share for c in channels))
    acc = cumulative[-1]
    events = []  # (time, seq, channel index, phase, wait so far)
    t, seq = rng.expovariate(rate), 0
    while t < duration:
        index = bisect.bisect_right(cumulative, rng.random() * acc)
        events.append((t + channels[index].a_enqueue, seq, index, 0, 0.0))
        seq += 1
        t += rng.expovariate(rate)
    heapq.heapify(events)
    free = [0.0] * cores
    waits: list[list[float]] = [[] for _ in channels]
    bursts = [(c.burst_a, c.burst_b, c.b_gap) for c in channels]
    pop, push = heapq.heappop, heapq.heappush
    while events:
        now, _, index, phase, waited = pop(events)
        start = max(now, pop(free))
        burst_a, burst_b, b_gap = bursts[index]
        if phase == 0:
            end = start + burst_a
            seq += 1
            push(events, (end + b_gap, seq, index, 1, start - now))
        else:
            end = start + burst_b
            waits[index].append(waited + start - now)
        push(free, end)
    return waits


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def traffic(*, offered: int, completed: int, dropped: int, load_factor: float,
            rate: float, duration: float, cores: int,
            channels: list[Channel], seed: int) -> list[str]:
    errors = []
    if completed + dropped != offered:
        errors.append(f"completed {completed} + dropped {dropped} != "
                      f"offered {offered}")
    if dropped:
        errors.append(f"{dropped} arrivals dropped")
    expected = rate * duration
    if abs(offered - expected) > 5 * math.sqrt(expected):
        errors.append(f"offered {offered} outside 5 sigma of {expected:.0f}")
    if sum(c.completed for c in channels) != completed:
        errors.append("per-channel completions do not add up to completed")
    busy = sum(c.completed * (c.burst_a + c.burst_b) for c in channels)
    rho = busy / (duration * cores)
    if not math.isclose(load_factor, rho, rel_tol=1e-9):
        errors.append(f"load factor {load_factor!r} != {rho!r} from the profiles")
    errors += wait_quantiles(channels, rate, duration, cores, seed)
    return errors


def _log_wait(value: float) -> float:
    return math.log(value + WAIT_ATOL)


def wait_quantiles(channels: list[Channel], rate: float, duration: float,
                   cores: int, seed: int) -> list[str]:
    """Each channel's median and p99 wait against the FCFS replications."""
    quantiles = (0.5, 0.99)
    draws = [[[] for _ in quantiles] for _ in channels]
    for replication in range(WAIT_REPLICATIONS):
        run = fcfs_waits(channels, rate, duration, cores, seed, replication)
        for per_q, waits in zip(draws, run):
            for values, q in zip(per_q, quantiles):
                values.append(_log_wait(_quantile(waits, q)))
    errors = []
    for i, (channel, per_q) in enumerate(zip(channels, draws)):
        got = (channel.wait_p50, channel.wait_p99)
        for q, value, values in zip(quantiles, got, per_q):
            centre = statistics.median(values)
            band = WAIT_SIGMAS * statistics.stdev(values) + WAIT_SKETCH
            if abs(_log_wait(value) - centre) > band:
                errors.append(
                    f"channel {i} wait p{q * 100:g} {value * 1e3:.4f} ms, FCFS "
                    f"reference {(math.exp(centre) - WAIT_ATOL) * 1e3:.4f} ms "
                    f"x/ {math.exp(band):.2f}")
    return errors
