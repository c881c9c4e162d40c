"""Span tracing around delpop's layer boundaries, and the per-layer
metrics derived from the spans.

Layers are found, not listed: every function that delpop.recovery and
delpop.cli hold in their namespaces, whether defined there or imported
from another delpop module, is wrapped for the duration of a traced
operation, and its span is named after the module that defines it.  A
function renamed or moved between modules therefore still lands in the
right layer, and a layer whose functions are gone reports zeros.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    layer: str
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    ok: bool = False
    result: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call, in memory, with its parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, fn, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, fn.__name__, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                span.ok = True
                return span.result
            finally:
                span.end = time.perf_counter()
                self._open.pop()

        return traced

    @contextlib.contextmanager
    def patched(self, callers, extra=()):
        """Wrap every delpop function visible in the caller modules, plus
        each (module, attribute) in `extra`, and restore them on exit."""
        targets = []
        for mod in callers:
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__.startswith("delpop"):
                    targets.append((mod, name, obj, obj.__module__.rsplit(".", 1)[-1]))
        for mod, name in extra:
            obj = getattr(mod, name, None)
            if obj is not None:
                targets.append((mod, name, obj, name))
        for mod, name, obj, layer in targets:
            setattr(mod, name, self.wrap(obj, layer))
        try:
            yield
        finally:
            for mod, name, obj, _ in targets:
                setattr(mod, name, obj)

    def dump(self, path, op: int) -> None:
        with open(path, "a") as fh:
            for i, s in enumerate(self.spans):
                rec = {"op": op, "id": i, "parent": s.parent, "layer": s.layer,
                       "name": s.name, "start": s.start, "end": s.end, "ok": s.ok}
                fh.write(json.dumps(rec) + "\n")


def _children(spans):
    kids = {i: [] for i in range(len(spans))}
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def _outer(spans, layer):
    """Spans of `layer` with no ancestor in the same layer."""
    out = []
    for s in spans:
        if s.layer != layer:
            continue
        p = s.parent
        while p is not None and spans[p].layer != layer:
            p = spans[p].parent
        if p is None:
            out.append(s)
    return out


def layer_total(spans, layer) -> float:
    return sum(s.seconds for s in _outer(spans, layer))


def layer_self(spans, layer) -> float:
    kids = _children(spans)
    return sum(
        s.seconds - sum(spans[k].seconds for k in kids[i])
        for i, s in enumerate(spans)
        if s.layer == layer
    )


def _calls(spans, layer, name):
    return [s for s in spans if s.layer == layer and s.name == name]


def _sizes(spans, layer, name):
    """len() of each result of layer.name that has one."""
    return [len(s.result) for s in _calls(spans, layer, name)
            if s.ok and hasattr(s.result, "__len__")]


def estimator_counts(spans):
    """(traces, usable points, dropped points) from the last MomentEstimates
    the estimator returned; zeros when its shape has changed."""
    for s in reversed(spans):
        if s.layer == "estimator" and s.ok:
            try:
                est = s.result
                return (max(est.counts.values()), len(est.usable_points()),
                        len(est.dropped))
            except (AttributeError, TypeError, ValueError):
                pass
    return 0, 0, 0


def layer_metrics(spans, op_seconds: float) -> dict:
    """Every per-layer value that the spans of one traced operation give."""
    traces, used, dropped = estimator_counts(spans)
    gates = _calls(spans, "prony", "gate_stage")
    polys = _calls(spans, "coeffs", "recover_polynomial")
    support = [s for s in spans if s.layer == "support"]
    grids = [len(s.result) for s in spans if s.layer == "zgrid" and s.ok
             and hasattr(s.result, "__len__")]
    enumerated = _sizes(spans, "recovery", "enumerate_candidates")
    accumulate = layer_total(spans, "estimator")
    return {
        "channel.read_s": layer_total(spans, "channel"),
        "zgrid.build_s": layer_total(spans, "zgrid"),
        "zgrid.points": grids[-1] if grids else 0,
        "estimator.accumulate_s": accumulate,
        "estimator.share": accumulate / op_seconds,
        "estimator.traces": traces,
        "estimator.points_used": used,
        "estimator.points_dropped": dropped,
        "prony.self_s": layer_self(spans, "prony"),
        "prony.gate_calls": len(gates),
        "prony.gate_yes": sum(1 for s in gates if s.ok and s.result is None),
        "prony.solves": len(_calls(spans, "prony", "solve_sigma")),
        "coeffs.recover_s": layer_total(spans, "coeffs"),
        "coeffs.polys_attempted": len(polys),
        "coeffs.polys_recovered": sum(1 for s in polys if s.ok),
        "coeffs.failures": sum(1 for s in spans if s.layer == "coeffs" and not s.ok),
        "coeffs.lp_solves": len(_calls(spans, "linprog", "linprog")),
        "support.factor_s": layer_total(spans, "support"),
        "support.calls": len(support),
        "support.failures": sum(1 for s in support if not s.ok),
        "recovery.enumerated": enumerated[-1] if enumerated else 0,
        "recovery.candidates": sum(_sizes(spans, "recovery", "recover_support_candidates")),
        "recovery.fit_s": sum(s.seconds for s in _calls(spans, "recovery", "fit_weights")),
        "recovery.validate_s": sum(
            s.seconds for s in _calls(spans, "recovery", "validate_candidate")),
        "recovery.self_s": layer_self(spans, "recovery"),
        "cli.self_s": layer_self(spans, "cli"),
    }
