"""Span tracing of porofractal from outside the library.

`install` rebinds every public module-level function of the traced modules,
in the defining module and in every porofractal module that imported the
name, to a wrapper that records a span: name, start, end and the span that
was open when it started.  Public methods listed in `METHODS` are wrapped on
their class.  Spans live in flat arrays in memory and are reduced to
per-name totals by `Tracer.summary` after the traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("scheme", "geometry", "verifier", "dynamics", "codespace", "ifs", "render", "cli")
METHODS = {("geometry", "PairDistanceEvaluator"): ("__init__", "distances")}

# fields of one summary entry
CALLS, INCL, SELF, AMOUNT = range(4)


def _mode(args, kwargs) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "forall_exists")
    return str(mode)


def _pair_count(k: int) -> int:
    return k * (k - 1) // 2


def _complement_pair_universe(args, kwargs, result) -> float:
    t = args[0]
    s = t.scheme
    comps = sum(len(level) for level in t.levels[1:]) * (s.M - s.m) // s.M
    return _pair_count(comps)


# Span names that carry the separation mode, so each reading gets its own row.
LABELS = {
    "verifier.separation_sweep": _mode,
    "verifier.check_separation": _mode,
}

# Work counts recorded on a span after the call returns.
AMOUNTS = {
    "geometry.PairDistanceEvaluator.distances": lambda a, k, r: len(a[1]),
    "geometry.min_distance_matrix": lambda a, k, r: _pair_count(len(a[0])),
    "scheme.build_tree": lambda a, k, r: sum(len(level) for level in r.levels),
    "verifier.separation_sweep": lambda a, k, r: sum(_pair_count(len(c)) for c in a[0]),
    "verifier.check_accumulation": _complement_pair_universe,
    "render.render_construction": lambda a, k, r: len(r),
    "render.render_subfractal": lambda a, k, r: len(r),
}


class Tracer:
    """In-memory span store; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._stack = [-1]

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.amount.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        label = LABELS.get(name)
        amount = AMOUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(f"{name}.{label(args, kwargs)}" if label else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if amount is not None:
                self.amount[sid] = amount(args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: [calls, inclusive s, self s, amount], plus two
        attributed counts under '@' keys and the per-root stage table."""
        n = len(self.name)
        out: dict = {}
        if n == 0:
            return {"totals": out, "stages": {}}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        amount = np.frombuffer(self.amount, dtype=float)
        has_parent = parent >= 0
        child = np.zeros(n)
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        excl = np.bincount(name, weights=dur - child, minlength=k)
        amt = np.bincount(name, weights=amount, minlength=k)
        for i, nm in enumerate(self.names):
            out[nm] = [int(calls[i]), float(incl[i]), float(excl[i]), float(amt[i])]

        # spans are opened in order, so a parent always precedes its children
        ids = self._ids
        sweep = {ids[x] for x in ids if x.startswith("verifier.separation_sweep.")}
        accum = ids.get("verifier.check_accumulation", -1)
        dist = ids.get("geometry.PairDistanceEvaluator.distances", -1)
        overlap = ids.get("geometry.overlap_measure", -1)
        names = self.name.tolist()
        parents = self.parent.tolist()
        in_sweep = [False] * n
        in_accum = [False] * n
        root = [0] * n
        sweep_exact = 0.0
        accum_overlaps = 0
        for i in range(n):
            p = parents[i]
            if p < 0:
                root[i] = i
                continue
            root[i] = root[p]
            in_sweep[i] = in_sweep[p] or names[p] in sweep
            in_accum[i] = in_accum[p] or names[p] == accum
            if names[i] == dist and in_sweep[i]:
                sweep_exact += self.amount[i]
            elif names[i] == overlap and in_accum[i]:
                accum_overlaps += 1
        out["@sweep_exact"] = [0, 0.0, 0.0, sweep_exact]
        out["@accum_overlaps"] = [accum_overlaps, 0.0, 0.0, 0.0]

        # inclusive time of each root and of the spans one and two levels below it
        stages: dict = {}
        for i in range(n):
            p = parents[i]
            if p < 0:
                row = stages.setdefault(self.names[names[i]], {})
                row["total"] = row.get("total", 0.0) + float(dur[i])
                continue
            if parents[p] < 0:
                key = self.names[names[i]]
            elif parents[parents[p]] < 0:
                key = f"{self.names[names[p]]} > {self.names[names[i]]}"
            else:
                continue
            row = stages.setdefault(self.names[names[root[i]]], {})
            row[key] = row.get(key, 0.0) + float(dur[i])
        return {"totals": out, "stages": stages}


def install(tracer: Tracer):
    """Rebind the public functions of MODULES to tracing wrappers.

    Returns a function that restores every original binding.
    """
    mods = {short: importlib.import_module(f"porofractal.{short}") for short in MODULES}
    wrappers = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            wrappers[obj] = tracer.wrap(f"{short}.{attr}", obj)
    restore = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "porofractal" or modname.startswith("porofractal.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                restore.append((mod, attr, obj))
    for (short, cls_name), methods in METHODS.items():
        cls = getattr(mods[short], cls_name)
        for meth in methods:
            original = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(f"{short}.{cls_name}.{meth}", original))
            restore.append((cls, meth, original))

    def uninstall() -> None:
        for owner, attr, obj in reversed(restore):
            setattr(owner, attr, obj)

    return uninstall


def merge(summaries: list[dict]) -> dict:
    """Sum the totals of several summaries (one per process or op)."""
    out: dict = {}
    for s in summaries:
        for nm, row in s.items():
            acc = out.setdefault(nm, [0, 0.0, 0.0, 0.0])
            for f in range(4):
                acc[f] += row[f]
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(names: list[str], totals: dict, extras: dict) -> dict:
    """Values of the named per-layer metrics from summed span totals.

    Generic names are '<span>.<field>' with field self_s, s, calls, pairs or
    cells; the rest are derived below or passed in `extras`.
    """

    def row(span: str) -> list:
        return totals.get(span, [0, 0.0, 0.0, 0.0])

    sweep_pairs = row("verifier.separation_sweep.pairwise")[AMOUNT] + row("verifier.separation_sweep.forall_exists")[AMOUNT]
    exact = row("@sweep_exact")[AMOUNT]
    overlaps = row("@accum_overlaps")[CALLS]
    derived = {
        "verifier.separation_sweep.exact_pairs": exact,
        "verifier.separation_sweep.exact_frac": _ratio(exact, sweep_pairs),
        "verifier.check_accumulation.pairs_examined": overlaps,
        "verifier.check_accumulation.candidate_frac": _ratio(overlaps, row("verifier.check_accumulation")[AMOUNT]),
        "geometry.PairDistanceEvaluator.init_s": row("geometry.PairDistanceEvaluator.__init__")[INCL],
        "render.svg_bytes": row("render.render_construction")[AMOUNT] + row("render.render_subfractal")[AMOUNT],
    }
    fields = {"self_s": SELF, "s": INCL, "calls": CALLS, "pairs": AMOUNT, "cells": AMOUNT}
    out = {}
    for nm in names:
        if nm in extras:
            out[nm] = float(extras[nm])
        elif nm in derived:
            out[nm] = float(derived[nm])
        else:
            span, _, field = nm.rpartition(".")
            if field not in fields:
                raise KeyError(f"no rule for per-layer metric {nm!r}")
            out[nm] = float(row(span)[fields[field]])
    return out
