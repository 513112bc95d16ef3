"""Span tracing of the public wpvol functions, for the per-layer metrics.

``Tracer.install()`` wraps each function in ``TARGETS``.  Module functions are
rebound in every loaded module that holds them, so calls between wpvol
modules are seen; methods are replaced on their class, so recursion inside a
method (``__pow__`` calling ``__mul__``, ``subs`` calling ``__add__``) is
seen too.  Each call records one span: its name, its parent span, start, end,
and whether it returned.  Spans stay in memory until ``write()``.

A span's self time is its duration minus the durations of its child spans.
Calls are sequential on one thread, so child spans never overlap.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

import wpvol
from wpvol.chambers import Chamber
from wpvol.poly import Poly

# (span name, owner, attribute names); the owner is a class or a module.
TARGETS = [
    ("poly.mul", Poly, ("__mul__", "__rmul__")),
    ("poly.add", Poly, ("__add__", "__radd__")),
    ("poly.subs", Poly, ("subs",)),
    ("poly.compose", Poly, ("compose",)),
    ("poly.integrate_upper", Poly, ("integrate_upper",)),
    ("poly.evaluate_angles", Poly, ("evaluate_angles",)),
    ("poly.diff", Poly, ("diff",)),
    ("poly.pow", Poly, ("__pow__",)),
    ("volumes.chamber_volume", wpvol.volumes, ("chamber_volume",)),
    ("volumes.wall_crossing_poly", wpvol.volumes, ("wall_crossing_poly",)),
    ("volumes.mirzakhani_volume", wpvol.volumes, ("mirzakhani_volume",)),
    ("volumes.piecewise_volume", wpvol.volumes, ("piecewise_volume",)),
    ("chambers.realize", wpvol.chambers, ("realize",)),
    ("chambers.cross", Chamber, ("cross",)),
    ("chambers.quotient", Chamber, ("quotient",)),
    ("chambers.classify", wpvol.chambers, ("classify",)),
    ("chambers.crossing_path", wpvol.chambers, ("crossing_path",)),
    ("chambers.enumerate_chambers", wpvol.chambers, ("enumerate_chambers",)),
    ("lp.simplex_max", wpvol.lp, ("simplex_max",)),
    ("intersection.kappa_psi_intersection", wpvol.intersection, ("kappa_psi_intersection",)),
    ("numeric.evaluate_pi_poly", wpvol.numeric, ("evaluate_pi_poly",)),
    ("numeric.pi_decimal", wpvol.numeric, ("pi_decimal",)),
]
NAMES = [name for name, _, _ in TARGETS]


def self_times(parent, start, end) -> list[float]:
    """Per span: its duration minus the summed durations of its children."""
    own = [e - s for s, e in zip(start, end)]
    out = list(own)
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= own[i]
    return out


def child_counts(parent) -> list[int]:
    out = [0] * len(parent)
    for p in parent:
        if p >= 0:
            out[p] += 1
    return out


def ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


class Tracer:
    def __init__(self):
        self.parent = array("i")
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("B")
        self.counts: Counter = Counter()
        self.crossings: set = set()  # (chamber above, wall) per wall_crossing_poly call
        self._stack = [-1]  # open span ids, shared by all wrappers
        self._quotient = Chamber.quotient  # untraced, for the (S, C/S) keys
        self._cache_start = 0

    def install(self) -> None:
        hooks = {
            "poly.mul": self._on_mul,
            "poly.subs": self._on_subs,
            "chambers.crossing_path": self._on_crossing_path,
            "lp.simplex_max": self._on_simplex,
            "volumes.wall_crossing_poly": self._on_wall_crossing,
        }
        for idx, (name, owner, attrs) in enumerate(TARGETS):
            original = getattr(owner, attrs[0])
            wrapped = self._wrap(original, idx, hooks.get(name))
            if isinstance(owner, type):
                for attr in attrs:
                    setattr(owner, attr, wrapped)
            else:
                for module in list(sys.modules.values()):
                    namespace = getattr(module, "__dict__", {})
                    if namespace.get(attrs[0]) is original:
                        setattr(module, attrs[0], wrapped)
        self._cache_start = len(wpvol.default_cache())

    def _wrap(self, fn, idx: int, hook):
        parent, name, start, end, ok = self.parent, self.name, self.start, self.end, self.ok
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            name.append(idx)
            start.append(0.0)
            end.append(0.0)
            ok.append(0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            ok[sid] = 1
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_mul(self, args, result) -> None:
        a, b = args
        self.counts["poly.mul.term_pairs"] += len(a.terms) * (len(b.terms) if isinstance(b, Poly) else 1)

    def _on_subs(self, args, result) -> None:
        self.counts["poly.subs.terms_in"] += len(args[0].terms)

    def _on_crossing_path(self, args, result) -> None:
        self.counts["chambers.crossing_path.steps"] += len(result.steps)

    def _on_simplex(self, args, result) -> None:
        self.counts["lp.simplex_max.rows"] += len(args[1])

    def _on_wall_crossing(self, args, result) -> None:
        self.crossings.add((args[0], frozenset(args[1])))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters."""
        own = self_times(self.parent, self.start, self.end)
        kids = child_counts(self.parent)
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        oks = [0] * len(NAMES)
        leaves = [0] * len(NAMES)
        for i, idx in enumerate(self.name):
            calls[idx] += 1
            self_s[idx] += own[i]
            oks[idx] += self.ok[i]
            leaves[idx] += kids[i] == 0
        out: dict[str, float] = {}
        for idx, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[idx]
            out[f"{name}.self_s"] = self_s[idx]
        out.update({k: self.counts[k] for k in (
            "poly.mul.term_pairs", "poly.subs.terms_in", "chambers.crossing_path.steps", "lp.simplex_max.rows"
        )})
        by = {name: idx for idx, name in enumerate(NAMES)}
        cv, cross, realize = by["volumes.chamber_volume"], by["chambers.cross"], by["chambers.realize"]
        out["volumes.chamber_volume.hit_ratio"] = ratio(leaves[cv], calls[cv])
        out["chambers.cross.ok_ratio"] = ratio(oks[cross], calls[cross])
        out["chambers.realize.lp_ratio"] = ratio(calls[by["lp.simplex_max"]], calls[realize])
        out["volumes.wall_crossing_poly.distinct_keys"] = len(
            {(S, self._quotient(c, S)) for c, S in self.crossings}
        )
        out["intersection.cache.entries_added"] = len(wpvol.default_cache()) - self._cache_start
        out["trace.spans"] = len(self.name)
        return out

    def write(self, path) -> None:
        """Write all spans as gzipped JSON columns; span ids are list positions."""
        t0 = self.start[0] if self.start else 0.0
        data = {
            "names": NAMES,
            "parent": self.parent.tolist(),
            "name": self.name.tolist(),
            "start": [round(t - t0, 9) for t in self.start],
            "end": [round(t - t0, 9) for t in self.end],
            "ok": self.ok.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh, separators=(",", ":"))
