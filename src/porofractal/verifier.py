"""Numerical verification of the defining subdivision conditions.

Each check sweeps a built CellTree and reports pass/fail together with the
extremal values observed and witness addresses.  A finite-depth sweep can
refute a condition but never prove it for all depths, so every report states
the depth it was checked to.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Literal, Sequence

import numpy as np

from .codespace import Address
from .config import DEFAULT_CAPS, DEFAULT_TOLERANCES, Caps, Tolerances
from .errors import CapExceededError, EmptyTreeError
from .geometry import PairDistanceEvaluator, box_overlap_pairs, diameters, measures, overlap_measures
from .scheme import CellTree

SeparationMode = Literal["pairwise", "forall_exists"]

_MAX_WITNESSES = 16
# candidate pairs clipped per overlap_areas call; bounds the kernel's padded
# work arrays, so peak memory does not grow with the candidate count
_CLIP_CHUNK = 512


@dataclass(frozen=True)
class ConditionResult:
    condition: str
    status: str  # "pass" | "fail"
    extremal: dict
    witnesses: tuple

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "status": self.status,
            "extremal": self.extremal,
            "witnesses": [list(w) if isinstance(w, tuple) else w for w in self.witnesses],
        }


@dataclass(frozen=True)
class VerificationReport:
    scheme: str
    depth: int
    tolerances: dict
    conditions: tuple[ConditionResult, ...]
    overall: str

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "depth": self.depth,
            "tolerances": self.tolerances,
            "conditions": [c.to_dict() for c in self.conditions],
            "overall": self.overall,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def condition(self, name: str, mode: str | None = None) -> ConditionResult:
        for c in self.conditions:
            if c.condition == name and (mode is None or c.extremal.get("mode") == mode):
                return c
        raise KeyError(name)


def _require_depth(t: CellTree, depth: int) -> None:
    if t.depth < depth or len(t.vertices) <= depth or not len(t.vertices[1]):
        raise EmptyTreeError(f"tree of depth {t.depth} is too shallow (need {depth})")


def check_ratio(t: CellTree, tol: Tolerances = DEFAULT_TOLERANCES, expected: float | None = None) -> ConditionResult:
    """Kept-to-complement measure ratio within every subdivision.

    Sweeps every kept parent at every depth; the observed minimum and maximum
    are the finite-depth evidence for the two uniform bounds the construction
    requires.  With `expected` given, every single ratio must also match it.
    """
    _require_depth(t, 1)
    s = t.scheme
    m, M = s.m, s.M
    per_depth = []
    witnesses: list = []
    violators: list = []
    worst = (np.inf, None)
    best = (-np.inf, None)
    for n in range(1, t.depth + 1):
        mus = measures(t.vertices[n], s.measure_kind)
        blocks = mus.reshape(-1, M)
        kept = blocks[:, :m].sum(axis=1)
        comp = blocks[:, m:].sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(comp > 0.0, kept / np.where(comp > 0.0, comp, 1.0), np.inf)
        parents = t.kept_rows(n - 1)
        i_min, i_max = int(np.argmin(ratios)), int(np.argmax(ratios))
        per_depth.append({"depth": n, "min": float(ratios[i_min]), "max": float(ratios[i_max])})
        if ratios[i_min] < worst[0]:
            worst = (float(ratios[i_min]), str(t.address(n - 1, parents[i_min])))
        if ratios[i_max] > best[0]:
            best = (float(ratios[i_max]), str(t.address(n - 1, parents[i_max])))
        bad = ~np.isfinite(ratios) | (ratios <= tol.ratio)
        if expected is not None:
            bad |= np.abs(ratios - expected) > tol.ratio
        for i in np.nonzero(bad)[0][:_MAX_WITNESSES].tolist():
            violators.append(str(t.address(n - 1, parents[i])))
    status = "fail" if violators else "pass"
    witnesses = violators if violators else [w for _, w in (worst, best) if w is not None]
    extremal = {
        "observed_r": worst[0],
        "observed_R": best[0],
        "per_depth": per_depth,
        "expected": expected,
    }
    return ConditionResult("ratio", status, extremal, tuple(dict.fromkeys(witnesses)))


def check_adjacency(t: CellTree, tol: Tolerances = DEFAULT_TOLERANCES) -> ConditionResult:
    """Every kept cell touches some complement sibling of its parent."""
    _require_depth(t, 1)
    s = t.scheme
    m, M = s.m, s.M
    n_comp = M - m
    max_gap = -1.0
    max_pair: tuple[str, str] | None = None
    violators: list[tuple[str, str]] = []
    for n in range(1, t.depth + 1):
        ev = PairDistanceEvaluator(t.vertices[n])
        n_par = len(t.vertices[n]) // M
        base = np.repeat(np.arange(n_par) * M, m * n_comp)
        ii = base + np.tile(np.repeat(np.arange(m), n_comp), n_par)
        jj = base + np.tile(np.tile(np.arange(m, M), m), n_par)
        gaps = ev.distances(ii, jj).reshape(-1, n_comp)
        per_kept = gaps.min(axis=1)
        nearest = gaps.argmin(axis=1)

        def pair(r: int) -> tuple[str, str]:
            return str(t.address(n, (r // m) * M + r % m)), str(t.address(n, (r // m) * M + m + int(nearest[r])))

        r = int(np.argmax(per_kept))
        if per_kept[r] > max_gap:
            max_gap, max_pair = float(per_kept[r]), pair(r)
        for r in np.nonzero(per_kept > tol.geom)[0][: _MAX_WITNESSES - len(violators)].tolist():
            violators.append(pair(r))
    status = "fail" if max_gap > tol.geom else "pass"
    extremal = {"max_gap": max_gap}
    witnesses = tuple(violators) if violators else ((max_pair,) if max_pair else ())
    return ConditionResult("adjacency", status, extremal, witnesses)


def check_accumulation(t: CellTree, tol: Tolerances = DEFAULT_TOLERANCES, caps: Caps = DEFAULT_CAPS) -> ConditionResult:
    """Complement cells of all orders are pairwise interior-disjoint.

    Under the closed-cell model a point accumulating on two complement sets
    then lies on both boundaries, hence in neither open complement region.
    The candidate pairs come from the box sweep (`box_overlap_pairs`) over
    the complement cells' bounding boxes; the pair cap counts those
    candidates, which are measured in batches of _CLIP_CHUNK pairs.
    """
    _require_depth(t, 1)
    orders = range(1, t.depth + 1)
    rows = [t.complement_rows(n) for n in orders]
    order = np.repeat(orders, [r.shape[0] for r in rows])
    row = np.concatenate(rows)
    verts = np.concatenate([t.vertices[n][r] for n, r in zip(orders, rows)])
    base_mu = t.scheme.base_measure()
    ii, jj = box_overlap_pairs(verts.min(axis=1), verts.max(axis=1), tol.geom)
    if ii.shape[0] > caps.pairs:
        raise CapExceededError(f"{ii.shape[0]} candidate complement pairs exceed the pair cap {caps.pairs}")
    overlaps = np.empty(ii.shape[0])
    for a in range(0, ii.shape[0], _CLIP_CHUNK):
        b = a + _CLIP_CHUNK
        overlaps[a:b] = overlap_measures(verts[ii[a:b]], verts[jj[a:b]], t.scheme.measure_kind, tol.geom)

    def pair(k: int) -> tuple[str, str]:
        return tuple(str(t.address(int(order[c]), int(row[c]))) for c in (ii[k], jj[k]))

    threshold = tol.area * base_mu
    max_overlap = float(overlaps.max(initial=0.0))
    violators = [pair(v) for v in np.nonzero(overlaps > threshold)[0][:_MAX_WITNESSES].tolist()]
    status = "fail" if max_overlap > threshold else "pass"
    extremal = {"max_overlap": max_overlap, "base_measure": base_mu, "pairs_examined": int(ii.shape[0])}
    # argmax takes the first of tied maxima, as a scan in candidate order does
    witnesses = tuple(violators) if violators else ((pair(int(np.argmax(overlaps))),) if max_overlap > 0.0 else ())
    return ConditionResult("accumulation", status, extremal, witnesses)


def check_diameter(t: CellTree, tol: Tolerances = DEFAULT_TOLERANCES) -> ConditionResult:
    """Maximal cell diameter must decay by a factor below one at every step."""
    _require_depth(t, 2)
    maxima = []
    argmax_addr = []
    for n in range(1, t.depth + 1):
        diams = diameters(t.vertices[n])
        i = int(np.argmax(diams))
        maxima.append(float(diams[i]))
        argmax_addr.append(str(t.address(n, i)))
    factors = [maxima[i + 1] / maxima[i] for i in range(len(maxima) - 1)]
    bad = [i for i, f in enumerate(factors) if f > tol.lambda_max]
    status = "fail" if bad else "pass"
    witnesses = tuple(argmax_addr[i + 1] for i in bad[:_MAX_WITNESSES]) if bad else (argmax_addr[-1],)
    extremal = {
        "max_diameter_by_depth": maxima,
        "decay_factors": factors,
        "max_factor": max(factors),
    }
    return ConditionResult("diameter", status, extremal, witnesses)


@dataclass(frozen=True)
class SeparationSweep:
    """Result of a separation sweep over cells by depth; `pair` indexes the
    cells of the depth that gives the value."""

    mode: str
    value: float
    depth: int
    by_depth: tuple[float, ...]
    pair: tuple[int, int]


class _PairBudget:
    """Exact distance evaluations still allowed under the pair cap."""

    def __init__(self, cap: int):
        self.cap = cap
        self.left = cap

    def spend(self, n: int) -> None:
        if n > self.left:
            raise CapExceededError(f"separation sweep exceeds the pair cap {self.cap}")
        self.left -= n


def _slack(ev: PairDistanceEvaluator) -> float:
    # rounding allowance between the box/centroid bounds and the exact
    # kernel, so pruning never drops a pair that would tie the answer
    return 64.0 * np.finfo(float).eps * max(float(np.abs(ev.lo).max()), float(np.abs(ev.hi).max()))


def _depth_pairwise(ev: PairDistanceEvaluator, budget: _PairBudget) -> tuple[float, int, int]:
    """Exact min over distinct pairs and its smallest pair (i, j).

    The k-1 address-consecutive pairs seed an upper bound; only the pairs
    whose bounding-box gap is within it can reach the minimum.  When the
    bound is already 0 only the pairs ordered before the first touching
    consecutive pair can still change the answer.
    """
    k = ev.vertices.shape[0]
    if k < 2:
        return np.inf, 0, 0
    budget.spend(k - 1)
    ii = np.arange(k - 1)
    jj = ii + 1
    dists = ev.distances(ii, jj)
    first = int(np.argmin(dists))
    bound = float(dists[first]) + _slack(ev)
    ci, cj = box_overlap_pairs(ev.lo, ev.hi, bound)
    near = (cj != ci + 1) & (ev.box_gaps(ci, cj) <= bound)
    if dists[first] == 0.0:
        near &= ci < first
    ci, cj = ci[near], cj[near]
    budget.spend(ci.shape[0])
    ii, jj = np.concatenate([ii, ci]), np.concatenate([jj, cj])
    dists = np.concatenate([dists, ev.distances(ci, cj)])
    at = np.nonzero(dists == dists.min())[0]
    best = at[np.lexsort((jj[at], ii[at]))[0]]
    return float(dists[best]), int(ii[best]), int(jj[best])


def _depth_forall_exists(ev: PairDistanceEvaluator, budget: _PairBudget) -> tuple[float, int, int]:
    """Exact min over cells of the max partner distance, with its pair.

    Each row's farthest bounding-box gap bounds its maximum from below, so
    rows are visited in ascending order of that bound until it passes the
    running minimum.  Centroid distances bound each distance from above, so
    a visited row only evaluates the partners that can reach its bound.
    """
    slack = _slack(ev)
    lower = ev.farthest_box_gaps()
    running, pick = np.inf, (0, 0)
    for i in np.argsort(lower, kind="stable").tolist():
        if lower[i] - slack > running:
            break
        c = ev.centroids - ev.centroids[i]
        cand = np.nonzero(np.hypot(c[:, 0], c[:, 1]) >= lower[i] - slack)[0]
        cand = cand[cand != i]
        budget.spend(cand.shape[0])
        exact = ev.distances(np.full(cand.shape[0], i), cand)
        row_max = float(exact.max()) if cand.shape[0] else 0.0
        if row_max < running or (row_max == running and i < pick[0]):
            # a row of the full distance matrix holds 0 on its diagonal, so a
            # row of zeros reports its first column
            running, pick = row_max, (i, int(cand[np.argmax(exact)]) if row_max > 0.0 else 0)
    return running, pick[0], pick[1]


def separation_sweep(
    cells_by_depth: Sequence[np.ndarray],
    mode: SeparationMode,
    caps: Caps = DEFAULT_CAPS,
) -> SeparationSweep:
    """Shared sweep behind both separation semantics.

    pairwise: the smallest distance between distinct kept cells, minimized
    over depths.  forall_exists: per depth the worst cell's best partner
    distance, then the best depth.  Each depth is a (k, V, 2) vertex stack.
    A depth with a single cell reads inf pairwise and 0.0 forall_exists.
    Ties break toward the smaller index pair, which is the lexicographically
    smaller address pair when cells arrive in address order.

    Cost per depth of k cells: a broad phase on bounding boxes, then the
    exact distance kernel on the pairs it keeps.  pairwise evaluates the
    k-1 address-consecutive pairs, takes their minimum as a bound, and
    sort-and-sweeps the boxes for the pairs whose gap is within it.
    forall_exists bounds every row by its farthest box gap, read off the
    Pareto-maximal box corners, and evaluates only the rows whose bound
    does not pass the running minimum.  The pair cap counts the exact
    evaluations over all depths, the k-1 seeding pairs included.
    """
    if mode not in ("pairwise", "forall_exists"):
        raise ValueError(f"unknown separation mode {mode!r}")
    fn = _depth_pairwise if mode == "pairwise" else _depth_forall_exists
    budget = _PairBudget(caps.pairs)
    per_depth = [fn(PairDistanceEvaluator(cells), budget) for cells in cells_by_depth]
    values = [v for v, _, _ in per_depth]
    pick = int(np.argmin(values)) if mode == "pairwise" else int(np.argmax(values))
    value, i, j = per_depth[pick]
    return SeparationSweep(mode, value, pick + 1, tuple(values), (i, j))


def kept_separation(t: CellTree, mode: SeparationMode, caps: Caps = DEFAULT_CAPS) -> tuple[SeparationSweep, Address, Address]:
    """separation_sweep over the kept cells of depths 1..t.depth, with the
    addresses of the pair that gives the value."""
    rows = [t.kept_rows(n) for n in range(1, t.depth + 1)]
    sweep = separation_sweep([t.vertices[n][r] for n, r in enumerate(rows, start=1)], mode, caps)
    a, b = (t.address(sweep.depth, int(rows[sweep.depth - 1][k])) for k in sweep.pair)
    return sweep, a, b


def check_separation(
    t: CellTree,
    mode: SeparationMode = "forall_exists",
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
) -> ConditionResult:
    """Positive separation between kept cells, in one of two readings.

    pairwise takes the infimum over all distinct kept-cell pairs and is zero
    for any construction with touching kept cells; forall_exists only asks
    that every cell has some cell far from it, which is the reading under
    which the standard planar examples pass.
    """
    _require_depth(t, 1)
    sweep, a, b = kept_separation(t, mode, caps)
    status = "pass" if sweep.value >= tol.sep else "fail"
    extremal = {
        "mode": mode,
        "epsilon0": sweep.value,
        "depth": sweep.depth,
        "by_depth": list(sweep.by_depth),
    }
    return ConditionResult("separation", status, extremal, ((str(a), str(b)),))


def full_verify(
    t: CellTree,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
    expected_ratio: float | None = None,
    separation_mode: SeparationMode = "forall_exists",
) -> VerificationReport:
    """Run every condition check and aggregate into one report.

    Separation is evaluated in both readings; only the configured mode
    counts toward the overall status, the other is reported alongside so the
    discrepancy between the two is never hidden.
    """
    _require_depth(t, 2)
    conditions = [
        check_ratio(t, tol, expected_ratio),
        check_adjacency(t, tol),
        check_accumulation(t, tol, caps),
        check_diameter(t, tol),
    ]
    counted = list(conditions)
    for mode in ("pairwise", "forall_exists"):
        res = check_separation(t, mode, tol, caps)
        res = ConditionResult(
            res.condition,
            res.status,
            {**res.extremal, "counted": mode == separation_mode},
            res.witnesses,
        )
        conditions.append(res)
        if mode == separation_mode:
            counted.append(res)
    overall = "pass" if all(c.passed for c in counted) else "fail"
    tolerances = {**asdict(tol), "separation_mode": separation_mode, "expected_ratio": expected_ratio}
    return VerificationReport(t.scheme.name, t.depth, tolerances, tuple(conditions), overall)
