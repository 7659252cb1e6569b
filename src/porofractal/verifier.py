"""Numerical verification of the defining subdivision conditions.

Each check sweeps a built CellTree and reports pass/fail together with the
extremal values observed and witness addresses.  A finite-depth sweep can
refute a condition but never prove it for all depths, so every report states
the depth it was checked to.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Iterator, Literal, Sequence

import numpy as np

from .codespace import Address
from .config import DEFAULT_CAPS, DEFAULT_TOLERANCES, Caps, Tolerances
from .errors import CapExceededError, EmptyTreeError
from .geometry import PairDistanceEvaluator, _chunk_rows, _json_chunks, box_overlap_pairs, diameters, measures, overlap_measures
from .scheme import CellTree

SeparationMode = Literal["pairwise", "forall_exists"]

_MAX_WITNESSES = 16
# address-consecutive pairs per exact call while pairwise separation seeds
# its bound; seeding stops after the first chunk that holds a touching pair
_SEED_CHUNK = 256


@dataclass(frozen=True)
class ConditionResult:
    condition: str
    status: str  # "pass" | "fail"
    extremal: dict
    witnesses: tuple

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class VerificationReport:
    scheme: str
    depth: int
    tolerances: dict
    conditions: tuple[ConditionResult, ...]
    overall: str

    def json_chunks(self) -> Iterator[str]:
        # the dataclasses' own field dicts, not an `asdict` deep copy
        return _json_chunks(self, default=vars)

    def to_json(self) -> str:
        return "".join(self.json_chunks())

    def condition(self, name: str, mode: str | None = None) -> ConditionResult:
        for c in self.conditions:
            if c.condition == name and (mode is None or c.extremal.get("mode") == mode):
                return c
        raise KeyError(name)


def _require_depth(t: CellTree, depth: int) -> None:
    if t.depth < depth or len(t.vertices) <= depth or not len(t.vertices[1]):
        raise EmptyTreeError(f"tree of depth {t.depth} is too shallow (need {depth})")


def _finite(x: float) -> float | None:
    # JSON has no inf: a ratio that is not finite, as over a complement of
    # measure 0, reads null
    return float(x) if np.isfinite(x) else None


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
    violators: list = []
    # (value, (depth, row)): only the final extremes are decoded
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
        per_depth.append({"depth": n, "min": _finite(ratios[i_min]), "max": _finite(ratios[i_max])})
        if ratios[i_min] < worst[0]:
            worst = (float(ratios[i_min]), (n - 1, int(parents[i_min])))
        if ratios[i_max] > best[0]:
            best = (float(ratios[i_max]), (n - 1, int(parents[i_max])))
        bad = ~np.isfinite(ratios) | (ratios <= tol.ratio)
        if expected is not None:
            bad |= np.abs(ratios - expected) > tol.ratio
        for i in np.nonzero(bad)[0][:_MAX_WITNESSES].tolist():
            violators.append(str(t.address(n - 1, parents[i])))
    status = "fail" if violators else "pass"
    witnesses = violators if violators else [str(t.address(*w)) for _, w in (worst, best) if w is not None]
    extremal = {
        "observed_r": _finite(worst[0]),
        "observed_R": _finite(best[0]),
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
    per_kept, nearest = [], []
    for ev, bounds in _depth_groups(t.vertices[1:]):
        # a group's rows are whole blocks of M siblings, level after level
        n_par = bounds[-1] // M
        base = np.repeat(np.arange(n_par) * M, m * n_comp)
        ii = base + np.tile(np.repeat(np.arange(m), n_comp), n_par)
        jj = base + np.tile(np.tile(np.arange(m, M), m), n_par)
        gaps = ev.distances(ii, jj).reshape(-1, n_comp)
        per_kept.append(gaps.min(axis=1))
        nearest.append(gaps.argmin(axis=1))
    per_kept, nearest = np.concatenate(per_kept), np.concatenate(nearest)
    # kept cells of all levels in level order: level n starts at start[n - 1]
    start = np.cumsum([0] + [len(v) // M * m for v in t.vertices[1:]])

    def pair(r: int) -> tuple[str, str]:
        n = int(np.searchsorted(start, r, side="right"))
        p, j = divmod(r - int(start[n - 1]), m)
        return str(t.address(n, p * M + j)), str(t.address(n, p * M + m + int(nearest[r])))

    # the first largest gap, as a running maximum over the levels keeps it
    r = int(np.argmax(per_kept))
    violators = [pair(v) for v in np.nonzero(per_kept > tol.geom)[0][:_MAX_WITNESSES].tolist()]
    status = "fail" if per_kept[r] > tol.geom else "pass"
    extremal = {"max_gap": float(per_kept[r])}
    return ConditionResult("adjacency", status, extremal, tuple(violators) if violators else (pair(r),))


def check_accumulation(t: CellTree, tol: Tolerances = DEFAULT_TOLERANCES, caps: Caps = DEFAULT_CAPS) -> ConditionResult:
    """Complement cells of all orders are pairwise interior-disjoint.

    Under the closed-cell model a point accumulating on two complement sets
    then lies on both boundaries, hence in neither open complement region.
    The candidate pairs come from the box sweep (`box_overlap_pairs`) over
    the complement cells' bounding boxes; the pair cap counts those
    candidates.  They are measured in batches sized by the geometry chunk
    budget: a clipped polygon of a pair has at most Vs + Vc vertices.
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
    # subject and clip polygon are both complement cells (Vs = Vc = V), and
    # a clipped polygon holds up to Vs + Vc vertices of two coordinates
    batch = _chunk_rows(2 * (verts.shape[1] + verts.shape[1]))
    for a in range(0, ii.shape[0], batch):
        overlaps[a : a + batch] = overlap_measures(verts[ii[a : a + batch]], verts[jj[a : a + batch]], t.scheme.measure_kind, tol.geom)

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
    maxima, rows = [], []
    for n in range(1, t.depth + 1):
        diams = diameters(t.vertices[n])
        rows.append(int(np.argmax(diams)))
        maxima.append(float(diams[rows[-1]]))
    # an affine image of a point is a point: a zero diameter stays zero
    factors = [maxima[i + 1] / maxima[i] if maxima[i] > 0.0 else 0.0 for i in range(len(maxima) - 1)]
    bad = [i for i, f in enumerate(factors) if f > tol.lambda_max]
    status = "fail" if bad else "pass"
    # only the widest cells of the depths reported are decoded
    shown = [i + 1 for i in bad[:_MAX_WITNESSES]] if bad else [len(rows) - 1]
    witnesses = tuple(str(t.address(k + 1, rows[k])) for k in shown)
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


def _slack(lo: np.ndarray, hi: np.ndarray) -> float:
    # rounding allowance between the box/centroid bounds and the exact
    # kernel, so pruning never drops a pair that would tie the answer
    return 64.0 * np.finfo(float).eps * max(float(np.abs(lo).max()), float(np.abs(hi).max()))


def _depth_groups(stacks: Sequence[np.ndarray]) -> Iterator[tuple[PairDistanceEvaluator, list[int]]]:
    """Runs of consecutive stacks whose cells fit one geometry chunk, each as
    one evaluator over their concatenation and the row bounds of each stack
    in it; a stack over the budget is a group of its own, not copied."""
    start = 0
    for end in range(1, len(stacks) + 1):
        g = stacks[start : end + 1]  # an empty stack, refused by its evaluator, joins none
        joins = end < len(stacks) and all(map(len, g)) and g[-1].shape[1] == g[0].shape[1]
        if not (joins and sum(map(len, g)) <= _chunk_rows(2 * g[0].shape[1])):
            g = g[: end - start]
            yield PairDistanceEvaluator(g[0] if len(g) == 1 else np.concatenate(g)), np.cumsum([0] + [len(c) for c in g]).tolist()
            start = end


def _rounds(ev: PairDistanceEvaluator, sweeps: list) -> list:
    """What each sweep returns.  A sweep is a generator that yields index
    pairs (ii, jj) into the evaluator and is sent back their exact
    distances; the requests of all sweeps in a round make one exact call,
    and none when they are all empty."""
    out, answers = [None] * len(sweeps), dict.fromkeys(range(len(sweeps)))
    while answers:
        asks = {}
        for k, answer in answers.items():
            try:
                asks[k] = sweeps[k].send(answer)
            except StopIteration as done:
                out[k] = done.value
        sizes = [i.shape[0] for i, _ in asks.values()]
        d = ev.distances(*(np.concatenate(x) for x in zip(*asks.values()))) if sum(sizes) else np.empty(0)
        answers = dict(zip(asks, np.split(d, np.cumsum(sizes)[:-1])))
    return out


def _pairwise_sweep(ev: PairDistanceEvaluator, a: int, b: int, budget: _PairBudget):
    """Exact min over distinct pairs of the cells a..b-1, and its smallest
    pair (i, j) counted from a.

    The address-consecutive pairs seed an upper bound; only the pairs
    whose bounding-box gap is within it can reach the minimum.  They are
    evaluated _SEED_CHUNK at a time, stopping after the first chunk that
    holds a 0: then the bound is 0, and only the pairs ordered before the
    first touching consecutive pair can still change the answer, so there
    is no sweep at all when that pair is (0, 1).  With no 0 all k-1 seeds
    are evaluated and the bound is their minimum.
    """
    if b - a < 2:
        return np.inf, 0, 0
    seeds = []
    for c in range(a, b - 1, _SEED_CHUNK):
        e = min(b - 1, c + _SEED_CHUNK)
        budget.spend(e - c)
        seeds.append((yield np.arange(c, e), np.arange(c + 1, e + 1)))
        if seeds[-1].min() == 0.0:
            break
    dists = np.concatenate(seeds)
    first = int(np.argmin(dists))
    if dists[first] == 0.0 and first == 0:
        return 0.0, 0, 1
    ii = np.arange(dists.shape[0])
    jj = ii + 1
    bound = float(dists[first]) + _slack(ev.lo[a:b], ev.hi[a:b])
    stop = a + first if dists[first] == 0.0 else b
    # only pairs with ci < stop can change the answer, and their cj meet
    # the rows before stop: a box that meets one of them, grown by bound,
    # meets their union box grown by bound (the same rounded expression,
    # and rounding is monotone), so only those are swept; with no 0 the
    # union box holds every box and all of them are swept
    lo, hi = ev.lo[a:stop].min(axis=0), ev.hi[a:stop].max(axis=0)
    meet = [np.minimum(ev.hi[a:b, x], hi[x]) - np.maximum(ev.lo[a:b, x], lo[x]) >= -bound for x in range(2)]
    sub = a + np.flatnonzero(meet[0] & meet[1])
    ci, cj = box_overlap_pairs(ev.lo[sub], ev.hi[sub], bound)
    ci, cj = sub[ci], sub[cj]
    near = (cj != ci + 1) & (ci < stop) & (ev.box_gaps(ci, cj) <= bound)
    ci, cj = ci[near], cj[near]
    budget.spend(ci.shape[0])
    ii, jj = np.concatenate([ii, ci - a]), np.concatenate([jj, cj - a])
    dists = np.concatenate([dists, (yield ci, cj)])
    at = np.nonzero(dists == dists.min())[0]
    best = at[np.lexsort((jj[at], ii[at]))[0]]
    return float(dists[best]), int(ii[best]), int(jj[best])


def _forall_exists_sweep(ev: PairDistanceEvaluator, a: int, b: int, lower: np.ndarray, budget: _PairBudget):
    """Exact min over the cells a..b-1 of the max partner distance among
    them, with its pair counted from a.

    Each row's farthest bounding-box gap (`lower`) bounds its maximum from
    below, so rows are visited in ascending order of that bound until it
    passes the running minimum.  Centroid distances bound each distance
    from above, so a visited row only evaluates the partners that can reach
    its bound.  One request takes the first row, whose maximum bounds the
    running minimum, and one more the rows whose bound is within it, their
    partners selected and charged to the pair cap a chunk of rows at a time.
    """
    slack = _slack(ev.lo[a:b], ev.hi[a:b])
    order = a + np.argsort(lower[a:b], kind="stable")
    cx, cy = ev.centroids[a:b, 0], ev.centroids[a:b, 1]

    def partners(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # flat (row, partner) pairs, partners ascending, and each row's
        # count, charged to the pair cap before they are asked for
        near = np.hypot(cx - ev.centroids[rows, None, 0], cy - ev.centroids[rows, None, 1]) >= (lower[rows] - slack)[:, None]
        near[np.arange(rows.shape[0]), rows - a] = False
        r, j = np.nonzero(near)
        budget.spend(j.shape[0])
        return rows[r], a + j, np.count_nonzero(near, axis=1)

    asked = [partners(order[:1])]
    exact = yield asked[0][:2]
    within = order[1 : 1 + np.searchsorted(lower[order[1:]] - slack, exact.max(initial=0.0), side="right")]
    step = _chunk_rows(b - a)
    asked += [partners(within[s : s + step]) for s in range(0, within.shape[0], step)]
    ii, jj, n = map(np.concatenate, zip(*asked))
    exact = np.concatenate([exact, (yield ii[exact.shape[0] :], jj[exact.shape[0] :])])
    rows = np.concatenate([order[:1], within])
    # row k's partners and distances are jj and exact at s:e
    ends = np.cumsum(n).tolist()
    running, pick = np.inf, (a, a)
    for i, reach, s, e in zip(rows.tolist(), (lower[rows] - slack).tolist(), [0] + ends, ends):
        if reach > running:
            break
        row_max = float(exact[s:e].max()) if e > s else 0.0
        if row_max < running or (row_max == running and i < pick[0]):
            # a row of the full distance matrix holds 0 on its diagonal, so a
            # row of zeros reports its first column
            running, pick = row_max, (i, int(jj[s + np.argmax(exact[s:e])]) if row_max > 0.0 else a)
    return running, pick[0] - a, pick[1] - a


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

    Consecutive depths whose cells fit one geometry chunk form a group with
    one evaluator, and a round of exact requests from all its depths makes
    one call.  pairwise evaluates the address-consecutive pairs in chunks
    until one touches, takes their minimum as a bound and sort-and-sweeps
    the boxes for the pairs whose gap is within it.  forall_exists bounds
    every row by its farthest box gap, asks for its least-bound row, then
    for the rows whose bound is within that row's maximum, and visits them.
    Every sweep charges the pairs it asks for to the pair cap, summed over
    all depths, before it asks, so none is evaluated past the cap.
    """
    if mode not in ("pairwise", "forall_exists"):
        raise ValueError(f"unknown separation mode {mode!r}")
    budget, per_depth = _PairBudget(caps.pairs), []
    for ev, bounds in _depth_groups(cells_by_depth):
        lower = ev.farthest_box_gaps(bounds) if mode == "forall_exists" else None
        spans = zip(bounds[:-1], bounds[1:])
        per_depth += _rounds(ev, [_pairwise_sweep(ev, a, b, budget) if lower is None else _forall_exists_sweep(ev, a, b, lower, budget) for a, b in spans])
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
        res = replace(res, extremal={**res.extremal, "counted": mode == separation_mode})
        conditions.append(res)
        if mode == separation_mode:
            counted.append(res)
    overall = "pass" if all(c.passed for c in counted) else "fail"
    tolerances = {**asdict(tol), "separation_mode": separation_mode, "expected_ratio": expected_ratio}
    return VerificationReport(t.scheme.name, t.depth, tolerances, tuple(conditions), overall)
