"""Span tracing around finitefreq's public functions, installed from outside.

``Tracer.install`` replaces each traced function at every ``finitefreq``
module namespace that binds it (``solve_feasibility`` is bound in ``sdp`` and
``lmi``, for example), and ``Tracer.remove`` puts the originals back, so no
source file changes and untraced runs pay nothing.  Spans are kept in memory
as (name, start, end, parent) and written out when the run ends.  Per-call
counters are read from arguments and results; the objective inside the SDP
solver (tens of thousands of calls per job) is never wrapped, and its
evaluation count comes from the optimizer's results instead.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import asdict, dataclass, field


def _node_steps(fn, args, kwargs, out):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    a = ba.arguments
    return {"node_steps": a["quad_nodes"] * (max(1, int(round(a["t"] / a["step"]))) + 1)}


def _steps(args):
    return {"steps": int(args[0][0].shape[0] if isinstance(args[0], tuple) else args[0].shape[0])}


# module -> function -> counter callback (fn, args, kwargs, result) -> dict, or None.
TARGETS = {
    "sdp": {
        "solve_feasibility": lambda fn, a, k, out: {"iterations": out.iterations,
                                                    "feasible": int(out.feasible)},
        # scipy's minimize as bound in sdp: one span per smoothing stage, not per objective
        "minimize": lambda fn, a, k, out: {"nfev": int(out.nfev), "nit": int(out.nit)},
    },
    "lmi": {
        "min_gamma": lambda fn, a, k, out: {"probes": len(out.bisection_trace)},
        "build_problem": None,
        "verify_on_grid": lambda fn, a, k, out: {"violations": len(out)},
        "uas_certificate": None,
    },
    "gramians": {
        "gramian_lpv_shifted": _node_steps,
        "gramian_lpv_frozen": None,
        "gramian_lpv_weighted": None,
        "state_transition": None,
        "shifted_trace_bound": None,
    },
    "_rk4": {name: (lambda fn, a, k, out: _steps(a))
             for name in ("step_matrices", "step_offsets", "propagate_vector", "propagate_matrix")},
    "simulation": {name: None for name in
                   ("simulate", "iqc_value", "performance_ratio", "spectrum_fraction")},
    "enlargement": {name: None for name in ("recommend_range", "gap", "uniform_spectral_radius")},
    "model": {"load_system": None},
    "cli": {"main": None, "write_json": None},
}

PACKAGE = "finitefreq"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans for the functions in ``TARGETS`` while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, time.perf_counter(), float("nan"),
                        self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                if counter is not None:
                    span.counts = counter(fn, args, kwargs, out)
                return out
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, funcs in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fname, counter in funcs.items():
                orig = getattr(home, fname)
                wrapper = self.wrap(f"{mod_name}.{fname}", orig, counter)
                for m in modules:
                    if getattr(m, fname, None) is orig:
                        setattr(m, fname, wrapper)
                        self._patches.append((m, fname, orig))

    def remove(self):
        for m, fname, orig in reversed(self._patches):
            setattr(m, fname, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def dump(self):
        return [asdict(s) for s in self.spans]


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    return [(s.end - s.start) - covered((max(c.start, s.start), min(c.end, s.end))
                                        for c in children[i]) for i, s in enumerate(spans)]


def aggregate(spans) -> dict:
    """Per span name: calls, inclusive s (outermost spans only), self_s and summed counters."""
    selfs = self_times(spans)
    out = {}
    for i, s in enumerate(spans):
        agg = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += selfs[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            agg["s"] += s.end - s.start
        for k, v in s.counts.items():
            agg[k] = agg.get(k, 0) + v
    return out


def share(spans, prefixes, wall_s) -> float:
    """Fraction of ``wall_s`` covered by spans whose name starts with any of ``prefixes``."""
    return covered((s.start, s.end) for s in spans if s.name.startswith(tuple(prefixes))) / wall_s
