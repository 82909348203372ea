"""Per-layer tracing from outside the program.

:class:`Tracer` wraps named public functions of the program (module
functions wherever a ``repro`` module holds a reference to them, and
methods on their classes), keeps spans in memory and restores every
original on :meth:`Tracer.uninstall`. A span records its name, start,
end, parent span, op id and detail (the scheme of a pqc call); its self
time is the duration minus its child spans and the timed leaf calls made
inside it.

Hot leaf calls (DRBG draws, histogram observes, event scheduling) are
too many to keep one span each: they are counted, and where timed their
seconds are subtracted from the enclosing span's self time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

_clock = time.perf_counter

# span name -> layer whose EventLoop.schedule calls it owns
_EVENT_LAYERS = {"netsim.replay": "netsim", "traffic.run": "traffic"}

PQC_OPS = ("keygen", "sign", "verify", "encaps", "decaps")


class _Frame:
    __slots__ = ("name", "start", "child", "index", "op", "detail",
                 "events", "pqc")

    def __init__(self, name, start, index, op, detail, events, pqc):
        self.name = name
        self.start = start
        self.child = 0.0
        self.index = index
        self.op = op
        self.detail = detail
        self.events = events
        self.pqc = pqc


class Tracer:
    def __init__(self, op_span: str | None):
        self.op_span = op_span        # span name that starts a new op
        self.op = -1
        self.spans: list[tuple] = []
        self.leaves = {"drbg": [0, 0.0], "observe": [0, 0.0],
                       "snapshot": [0, 0.0], "merge": [0, 0.0]}
        # schedule calls outside a replay or a traffic run land in "other"
        self.events = {"netsim": [0], "traffic": [0], "other": [0]}
        self.stack = [_Frame("root", 0.0, -1, -1, "", self.events["other"],
                             False)]
        self.in_leaf = False
        self.replay_packets = 0
        self.replay_failed = 0
        self._undo: list = []

    # -- spans ---------------------------------------------------------------
    def push(self, name: str, detail: str = "", pqc: bool = False) -> _Frame:
        parent = self.stack[-1]
        if name == self.op_span:
            self.op += 1
        layer = _EVENT_LAYERS.get(name)
        events = self.events[layer] if layer else parent.events
        frame = _Frame(name, _clock(), len(self.spans), self.op, detail,
                       events, pqc or parent.pqc)
        self.spans.append(None)  # reserve the index for parent links
        self.stack.append(frame)
        return frame

    def pop(self, frame: _Frame, pqc_outer: bool = False) -> None:
        end = _clock()
        self.stack.pop()
        parent = self.stack[-1]
        duration = end - frame.start
        parent.child += duration
        self.spans[frame.index] = (frame.name, frame.start, end, parent.index,
                                   frame.op, frame.detail,
                                   duration - frame.child, pqc_outer)

    def _span(self, name: str, fn, *, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pop(frame)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _pqc(self, op: str, fn):
        tracer = self

        def traced(scheme, *args, **kwargs):
            outer = not tracer.stack[-1].pqc
            frame = tracer.push(f"pqc.{op}", scheme.name, pqc=True)
            try:
                return fn(scheme, *args, **kwargs)
            finally:
                tracer.pop(frame, pqc_outer=outer)

        traced.__wrapped__ = fn
        return traced

    def _leaf(self, key: str, fn):
        tracer = self
        cell = self.leaves[key]

        def traced(*args, **kwargs):
            if tracer.in_leaf:
                return fn(*args, **kwargs)
            tracer.in_leaf = True
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                tracer.in_leaf = False
                cell[0] += 1
                cell[1] += elapsed
                tracer.stack[-1].child += elapsed

        traced.__wrapped__ = fn
        return traced

    def _count_events(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer.stack[-1].events[0] += 1
            return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------------
    def _replace_function(self, module_name: str, attr: str, wrap) -> None:
        """Swap ``module.attr`` in every loaded repro module referencing it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrap(original)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, original))

    def _replace_method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _on_replay(self, trace) -> None:
        self.replay_packets += trace.client_packets + trace.server_packets
        if not trace.outcome.ok:
            self.replay_failed += 1

    def install(self) -> None:
        import repro.cache  # noqa: F401  (modules must be loaded to patch)
        import repro.core.evaluate
        import repro.core.executor
        import repro.netsim.scripted
        import repro.traffic
        from repro.crypto.drbg import Drbg
        from repro.netsim.eventloop import EventLoop
        from repro.obs.metrics import Histogram, Metrics
        from repro.pqc.registry import KEMS, SIGS

        functions = [
            ("repro.core.executor", "run_campaign", "core.campaign", None),
            ("repro.core.experiment", "run_experiment", "core.experiment", None),
            ("repro.core.evaluate", "table2a", "core.evaluate", None),
            ("repro.core.evaluate", "table2b", "core.evaluate", None),
            ("repro.core.evaluate", "ranking", "core.evaluate", None),
            ("repro.tls.certs", "make_server_credentials", "tls.credentials", None),
            ("repro.netsim.scripted", "record_script", "tls.record", None),
            ("repro.cache", "load", "cache.load", None),
            ("repro.cache", "store", "cache.store", None),
            ("repro.netsim.testbed", "run_simulated_handshake", "netsim.replay",
             self._on_replay),
            ("repro.traffic.profile", "handshake_profile", "traffic.calibrate",
             None),
            ("repro.traffic.engine", "run_traffic", "traffic.run", None),
        ]
        for module, attr, name, on_result in functions:
            self._replace_function(
                module, attr,
                lambda fn, n=name, cb=on_result: self._span(n, fn, on_result=cb))
        seen = set()
        for scheme in list(KEMS.values()) + list(SIGS.values()):
            for cls in type(scheme).__mro__:
                for op in PQC_OPS:
                    if op in cls.__dict__ and (cls, op) not in seen:
                        seen.add((cls, op))
                        self._replace_method(cls, op,
                                             self._pqc(op, cls.__dict__[op]))
        self._replace_method(Drbg, "random_bytes",
                             self._leaf("drbg", Drbg.random_bytes))
        self._replace_method(Histogram, "observe",
                             self._leaf("observe", Histogram.observe))
        self._replace_method(Metrics, "snapshot",
                             self._leaf("snapshot", Metrics.snapshot))
        self._replace_method(Metrics, "merge", self._leaf("merge", Metrics.merge))
        self._replace_method(Metrics, "merge_snapshot",
                             self._leaf("merge", Metrics.merge_snapshot))
        self._replace_method(EventLoop, "schedule",
                             self._count_events(EventLoop.schedule))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------------
    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "op", "detail"]
        spans = [dict(zip(fields, span[:6])) for span in self.spans
                 if span is not None]
        path.write_text(json.dumps({"fields": fields, "spans": spans}))

    def layer_metrics(self) -> dict[str, float]:
        """Aggregate the spans and leaf counters into per-layer figures."""
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        pqc: dict[str, float] = {}
        pqc_calls = keygen_calls = 0
        sphincs_sign = falcon_keygen = rsa_keygen = 0.0
        for span in self.spans:
            if span is None:
                continue
            name, start, end, _, _, detail, own, outer = span
            duration = end - start
            if name.startswith("pqc."):
                op = name[4:]
                if outer:
                    pqc[op] = pqc.get(op, 0.0) + duration
                    pqc_calls += 1
                    keygen_calls += op == "keygen"
                if op == "sign" and detail.startswith("sphincs"):
                    sphincs_sign += duration
                elif op == "keygen" and detail.startswith("falcon"):
                    falcon_keygen += duration
                elif op == "keygen" and detail.startswith("rsa"):
                    rsa_keygen += duration
                continue
            total[name] = total.get(name, 0.0) + duration
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        handshakes = calls.get("netsim.replay", 0)
        replay_s = total.get("netsim.replay", 0.0)
        out = {
            "crypto.drbg_s": self.leaves["drbg"][1],
            "crypto.drbg_calls": self.leaves["drbg"][0],
            "pqc.calls": pqc_calls,
            "pqc.keygen_calls": keygen_calls,
            "pqc.sphincs.sign_s": sphincs_sign,
            "pqc.falcon.keygen_s": falcon_keygen,
            "pqc.rsa.keygen_s": rsa_keygen,
            "tls.credentials_s": total.get("tls.credentials", 0.0),
            "tls.record_self_s": self_s.get("tls.record", 0.0),
            "tls.scripts_recorded": calls.get("tls.record", 0),
            "cache.load_s": total.get("cache.load", 0.0),
            "cache.store_s": total.get("cache.store", 0.0),
            "cache.loads": calls.get("cache.load", 0),
            "cache.stores": calls.get("cache.store", 0),
            "netsim.replay_s": replay_s,
            "netsim.handshakes": handshakes,
            "netsim.us_per_handshake": (replay_s / handshakes * 1e6
                                        if handshakes else 0.0),
            "netsim.events": self.events["netsim"][0],
            "core.experiment_self_s": self_s.get("core.experiment", 0.0),
            "core.campaign_self_s": self_s.get("core.campaign", 0.0),
            "core.evaluate_s": total.get("core.evaluate", 0.0),
            "obs.observe_calls": self.leaves["observe"][0],
            "obs.observe_s": self.leaves["observe"][1],
            "obs.snapshot_s": self.leaves["snapshot"][1],
            "obs.merge_s": self.leaves["merge"][1],
            "traffic.calibrate_s": total.get("traffic.calibrate", 0.0),
            "traffic.engine_self_s": self_s.get("traffic.run", 0.0),
            "traffic.events": self.events["traffic"][0],
        }
        for op in PQC_OPS:
            out[f"pqc.{op}_s"] = pqc.get(op, 0.0)
        out["traffic.run_s"] = total.get("traffic.run", 0.0)
        return out
