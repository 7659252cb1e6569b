import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porofractal import geometry, verifier
from porofractal.codespace import Address
from porofractal.config import Caps, Tolerances
from porofractal.errors import CapExceededError, EmptyTreeError
from porofractal.geometry import (
    AffineMap2,
    ConvexPolygon,
    _chunk_rows,
    box_overlap_pairs,
    min_distance,
    overlap_measures,
    similarity_map,
)
from porofractal.scheme import CellTree, Scheme, build_tree, builtin
from porofractal.verifier import _MAX_WITNESSES
from porofractal.verifier import (
    check_accumulation,
    check_adjacency,
    check_diameter,
    check_ratio,
    check_separation,
    full_verify,
    kept_separation,
    separation_sweep,
)

from conftest import (
    VERIFY_INPUTS,
    min_distance_matrix,
    oracle_intersection_area,
    overlapping_complement_cantor,
    overlapping_complement_carpet,
    report_json_oracle,
    segment_overlap_length_oracle,
    shrunk_complement_carpet,
    similarity_conjugate,
    traced,
    tree_cell,
)

EXPECTED_RATIO = {"carpet": 8.0, "pascal3": 2.0, "koch": 2.0, "cantor": 2.0}


# ---------------------------------------------------------------------------
# ratio condition


@pytest.mark.parametrize("name,depth", [("carpet", 5), ("pascal3", 4), ("koch", 8), ("cantor", 8)])
def test_ratio_constant_at_every_depth(name, depth, make_tree):
    res = check_ratio(make_tree(name, depth), expected=EXPECTED_RATIO[name])
    assert res.passed
    assert res.extremal["observed_r"] == pytest.approx(EXPECTED_RATIO[name], abs=1e-9)
    assert res.extremal["observed_R"] == pytest.approx(EXPECTED_RATIO[name], abs=1e-9)
    for entry in res.extremal["per_depth"]:
        assert entry["min"] == pytest.approx(EXPECTED_RATIO[name], abs=1e-9)
        assert entry["max"] == pytest.approx(EXPECTED_RATIO[name], abs=1e-9)


def test_ratio_fails_on_wrong_expected_value(make_tree):
    res = check_ratio(make_tree("carpet", 2), expected=7.5)
    assert not res.passed
    assert res.witnesses


# ---------------------------------------------------------------------------
# adjacency condition


@pytest.mark.parametrize("name", ["carpet", "pascal3", "koch", "cantor"])
def test_adjacency_builtins_touch(name, make_tree):
    res = check_adjacency(make_tree(name, 4))
    assert res.passed
    assert res.extremal["max_gap"] <= 1e-9


def test_adjacency_cantor_deeper(make_tree):
    res = check_adjacency(make_tree("cantor", 6))
    assert res.passed
    # endpoints agree up to one ulp of composed map arithmetic
    assert res.extremal["max_gap"] <= 1e-15


def test_adjacency_fails_for_shrunk_complement(carpet_gap):
    t = build_tree(carpet_gap, 3)
    res = check_adjacency(t)
    assert not res.passed
    # edge squares sit 1/60 away from the shrunk center, corners sqrt(2)/60
    assert res.extremal["max_gap"] >= 1 / 60 - 1e-12
    assert res.witnesses
    # witness replay: the reported kept cell really is separated from the
    # reported nearest complement sibling
    kept, comp = res.witnesses[0]
    ka = tree_cell(t, Address.parse(kept, 8, 9))
    ca = tree_cell(t, Address.parse(comp, 8, 9))
    assert min_distance(ka.polygon, ca.polygon) > 1e-9


# ---------------------------------------------------------------------------
# accumulation condition


@pytest.mark.parametrize("name", ["carpet", "pascal3", "koch", "cantor"])
def test_accumulation_builtins_disjoint(name, make_tree):
    t = make_tree(name, 4)
    res = check_accumulation(t)
    assert res.passed
    assert res.extremal["max_overlap"] <= 1e-12 * t.scheme.base_measure()


def test_accumulation_fails_for_overlapping_complements(carpet_overlap):
    t = build_tree(carpet_overlap, 3)
    res = check_accumulation(t)
    assert not res.passed
    assert res.witnesses
    a, b = res.witnesses[0]
    pa = tree_cell(t, Address.parse(a, 8, 9)).polygon
    pb = tree_cell(t, Address.parse(b, 8, 9)).polygon
    assert overlap_measures(pa.vertices[None], pb.vertices[None], "area")[0] > 1e-12 * t.scheme.base_measure()


def test_accumulation_fails_for_overlapping_cantor_complements():
    # the length branch: builtin cantor sends no candidate pair down it
    t = build_tree(overlapping_complement_cantor(), 4)
    res = check_accumulation(t)
    assert not res.passed
    assert res.witnesses
    for a, b in res.witnesses:
        pa, pb = (tree_cell(t, Address.parse(w, 2, 3)).polygon for w in (a, b))
        assert overlap_measures(pa.vertices[None], pb.vertices[None], "length")[0] > 1e-12 * t.scheme.base_measure()


def _accumulation_per_pair(t):
    """check_accumulation's report computed pair by pair with the scalar oracles."""
    comps = [c for level in t.levels[1:] for c in level if c.kind == "complement"]
    bb = np.array([c.polygon.bbox() for c in comps])
    ii, jj = box_overlap_pairs(bb[:, :2], bb[:, 2:], 1e-9)
    threshold = 1e-12 * t.scheme.base_measure()
    max_overlap, max_pair, violators = 0.0, None, []
    for i, j in zip(ii.tolist(), jj.tolist()):
        a, b = comps[i].polygon.vertices, comps[j].polygon.vertices
        ov = oracle_intersection_area(a, b) if t.scheme.measure_kind == "area" else segment_overlap_length_oracle(a, b, 1e-9)
        if ov > max_overlap:
            max_overlap, max_pair = ov, [str(comps[i].address), str(comps[j].address)]
        if ov > threshold and len(violators) < _MAX_WITNESSES:
            violators.append([str(comps[i].address), str(comps[j].address)])
    return {
        "condition": "accumulation",
        "status": "fail" if max_overlap > threshold else "pass",
        "extremal": {"max_overlap": max_overlap, "base_measure": t.scheme.base_measure(), "pairs_examined": len(ii)},
        "witnesses": violators or ([max_pair] if max_pair else []),
    }


@pytest.mark.parametrize("name,depth", [("koch", 10), ("carpet", 3), ("carpet-overlap", 3), ("cantor-overlap", 6)])
def test_accumulation_batches_match_per_pair_oracle(name, depth, make_tree, carpet_overlap, monkeypatch):
    # a budget that clips triangle pairs 512 at a time (rows of 2 * (3 + 3)
    # coordinates), so that koch d10 spans nine batches
    monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", 512 * 12)
    variants = {"carpet-overlap": carpet_overlap, "cantor-overlap": overlapping_complement_cantor()}
    t = build_tree(variants[name], depth) if name in variants else make_tree(name, depth)
    # the result as its report writes it: tuples become lists
    got = json.loads(json.dumps(asdict(check_accumulation(t))))
    assert got == _accumulation_per_pair(t)
    if name == "cantor-overlap":
        assert got["status"] == "fail" and got["extremal"]["pairs_examined"] > 0
    if name == "koch":
        assert got["extremal"]["pairs_examined"] > 4 * _chunk_rows(12)


def test_accumulation_pair_cap(make_tree):
    with pytest.raises(CapExceededError):
        check_accumulation(make_tree("pascal3", 4), caps=Caps(pairs=5))


# ---------------------------------------------------------------------------
# diameter condition


@pytest.mark.parametrize(
    "name,factor,tol",
    [("carpet", 1 / 3, 1e-9), ("cantor", 1 / 3, 1e-9), ("pascal3", 1 / 3, 1e-9), ("koch", 1 / math.sqrt(3), 1e-6)],
)
def test_diameter_decay_factors(name, factor, tol, make_tree):
    res = check_diameter(make_tree(name, 6 if name in ("koch", "cantor") else 4))
    assert res.passed
    for f in res.extremal["decay_factors"]:
        assert f == pytest.approx(factor, abs=tol)


def test_diameter_closed_form_koch(make_tree):
    # kept cells are exact 1/sqrt(3) similarities, so the per-depth maxima
    # must follow the closed form 3**(-n/2) * diam(base)
    res = check_diameter(make_tree("koch", 6))
    for n, d in enumerate(res.extremal["max_diameter_by_depth"], start=1):
        assert d == pytest.approx(3.0 ** (-n / 2), rel=1e-12)


def test_diameter_needs_depth_two(make_tree):
    with pytest.raises(EmptyTreeError):
        check_diameter(make_tree("cantor", 1))


# ---------------------------------------------------------------------------
# separation condition


def test_separation_cantor_pairwise_exact_thirds(make_tree):
    res = check_separation(make_tree("cantor", 6), "pairwise")
    assert res.passed
    for n, v in enumerate(res.extremal["by_depth"], start=1):
        assert v == pytest.approx(3.0**-n, abs=1e-12)
    assert res.extremal["epsilon0"] == pytest.approx(3.0**-6, abs=1e-12)


def test_separation_forall_exists_depth1(make_tree):
    for name in ("cantor", "carpet"):
        res = check_separation(make_tree(name, 1), "forall_exists")
        assert res.passed
        assert res.extremal["epsilon0"] == pytest.approx(1 / 3, abs=1e-9)


def test_separation_carpet_forall_depth1_brute_force(make_tree):
    # independent oracle: plain double loop over all 28 kept pairs
    t = make_tree("carpet", 1)
    cells = t.kept_cells(1)
    eps = min(
        max(min_distance(a.polygon, b.polygon) for b in cells if b is not a)
        for a in cells
    )
    res = check_separation(t, "forall_exists")
    assert res.extremal["epsilon0"] == pytest.approx(eps, abs=1e-12)
    assert eps == pytest.approx(1 / 3, abs=1e-9)


def test_separation_carpet_pairwise_fails(make_tree):
    res = check_separation(make_tree("carpet", 1), "pairwise")
    assert not res.passed
    assert res.extremal["epsilon0"] == 0.0


@pytest.mark.parametrize("name", ["carpet", "pascal3", "koch", "cantor"])
def test_pairwise_never_exceeds_forall_exists(name, make_tree):
    t = make_tree(name, 3)
    pw = check_separation(t, "pairwise").extremal["epsilon0"]
    fe = check_separation(t, "forall_exists").extremal["epsilon0"]
    assert pw <= fe + 1e-15


def _full_matrix_sweep(cells_by_depth, mode):
    # brute-force oracle: every pair's exact distance, ties to the first
    # entry in row-major order of the symmetric distance matrix
    per_depth = []
    for cells in cells_by_depth:
        addrs = [a for a, _ in cells]
        mat = min_distance_matrix([p for _, p in cells])
        if mode == "pairwise":
            np.fill_diagonal(mat, np.inf)
            i, j = np.unravel_index(int(np.argmin(mat)), mat.shape)
            per_depth.append((float(mat[i, j]), addrs[i], addrs[j]))
        else:
            i = int(np.argmin(mat.max(axis=1)))
            j = int(np.argmax(mat[i]))
            per_depth.append((float(mat[i, j]), addrs[i], addrs[j]))
    values = tuple(v for v, _, _ in per_depth)
    pick = int(np.argmin(values)) if mode == "pairwise" else int(np.argmax(values))
    return values, per_depth[pick][1], per_depth[pick][2]


def _sweep(cells_by_depth, mode):
    # separation_sweep on the polygons' vertex stacks, its pair named by the
    # given addresses
    sweep = separation_sweep([np.stack([p.vertices for _, p in cells]) for cells in cells_by_depth], mode)
    cells = cells_by_depth[sweep.depth - 1]
    return sweep, cells[sweep.pair[0]][0], cells[sweep.pair[1]][0]


def _rotated_carpet():
    return similarity_conjugate(builtin("carpet"), similarity_map(0.7, 0.3, (0.2, -0.1)))


def _square_row(xs):
    # one depth of unit squares at the given x positions, in address order
    squares = [ConvexPolygon(np.array([[x, 0.0], [x + 1, 0.0], [x + 1, 1.0], [x, 1.0]])) for x in xs]
    return [[(Address((i,), len(xs), len(xs)), p) for i, p in enumerate(squares, start=1)]]


def test_separation_pruned_path_matches_full_matrix(monkeypatch):
    # the pruned sweep must reproduce the exhaustive matrix exactly: values,
    # depth-wise values and tie-broken witnesses, in both modes.  Each case
    # also runs with a seed chunk of 4, so pairwise seeding crosses chunks
    # (cantor d5 and d6 have no touching seed at all)
    trees = [build_tree(builtin(n), d) for n, d in [("carpet", 2), ("pascal3", 2), ("cantor", 4), ("koch", 5), ("cantor", 5), ("cantor", 6)]]
    trees.append(build_tree(_rotated_carpet(), 2))
    # rows of squares whose consecutive cells lie far apart while a later
    # pair touches, or comes nearer than every consecutive pair, so the
    # seeds bound loosely; in the last a touching seed (5, 6) comes after a
    # chunk of 4 seeds, and the non-consecutive (1, 5) touches too
    rows = [(0.0, 6.0, 12.0, 18.0, 1.0, 7.5), (0.0, 6.0, 12.0, 18.0, 1.25), (9.0, 0.0, 4.5, 2.0, 6.0, 1.0), (0.0, 3.0, 6.0, 9.0, 1.0, 2.0)]
    cases = [(t.scheme.name, [[(c.address, c.polygon) for c in t.kept_cells(n)] for n in range(1, t.depth + 1)], t) for t in trees]
    cases += [(xs, _square_row(xs), None) for xs in rows]
    for name, cells, t in cases:
        want = {mode: _full_matrix_sweep(cells, mode) for mode in ("pairwise", "forall_exists")}
        for chunk in (verifier._SEED_CHUNK, 4):
            monkeypatch.setattr(verifier, "_SEED_CHUNK", chunk)
            for mode in ("pairwise", "forall_exists"):
                sweep, a, b = _sweep(cells, mode)
                assert (sweep.by_depth, a, b) == want[mode], (name, chunk, mode)
                if t is not None:
                    # the tree's vertex stacks give the same sweep and pair
                    tree_sweep, ta, tb = kept_separation(t, mode)
                    assert (tree_sweep, ta, tb) == (sweep, a, b), (name, chunk, mode)


def test_separation_pairwise_tie_before_first_touching_consecutive_pair():
    # squares [0,1], [2,3], [1,2] on a row: the first touching consecutive
    # pair is (2, 3), but (1, 3) also touches and comes first
    cells = _square_row((0.0, 2.0, 1.0))
    sweep, a, b = _sweep(cells, "pairwise")
    assert (sweep.value, str(a), str(b)) == (0.0, "1", "3")
    assert (sweep.by_depth, a, b) == _full_matrix_sweep(cells, "pairwise")


def _slack(ev):
    return verifier._slack(ev.lo, ev.hi)


def _depth_pairwise_oracle(ev, budget):
    # the pairwise depth sweep that runs box_overlap_pairs over every box
    # and drops the pairs with ci >= first afterwards
    k = ev.vertices.shape[0]
    if k < 2:
        return np.inf, 0, 0
    seeds = []
    for a in range(0, k - 1, verifier._SEED_CHUNK):
        b = min(k - 1, a + verifier._SEED_CHUNK)
        budget.spend(b - a)
        seeds.append(ev.distances(np.arange(a, b), np.arange(a + 1, b + 1)))
        if seeds[-1].min() == 0.0:
            break
    dists = np.concatenate(seeds)
    first = int(np.argmin(dists))
    if dists[first] == 0.0 and first == 0:
        return 0.0, 0, 1
    ii = np.arange(dists.shape[0])
    jj = ii + 1
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


def _depth_pairwise(ev, budget):
    # one depth of the pairwise sweep on its own evaluator, as it ran before
    # depths were grouped: the union-box sweep, seed chunks and swept pairs
    # each an exact call of their own
    k = ev.vertices.shape[0]
    if k < 2:
        return np.inf, 0, 0
    seeds = []
    for a in range(0, k - 1, verifier._SEED_CHUNK):
        b = min(k - 1, a + verifier._SEED_CHUNK)
        budget.spend(b - a)
        seeds.append(ev.distances(np.arange(a, b), np.arange(a + 1, b + 1)))
        if seeds[-1].min() == 0.0:
            break
    dists = np.concatenate(seeds)
    first = int(np.argmin(dists))
    if dists[first] == 0.0 and first == 0:
        return 0.0, 0, 1
    ii = np.arange(dists.shape[0])
    jj = ii + 1
    bound = float(dists[first]) + _slack(ev)
    stop = first if dists[first] == 0.0 else k
    lo, hi = ev.lo[:stop].min(axis=0), ev.hi[:stop].max(axis=0)
    sub = np.flatnonzero(((np.minimum(ev.hi, hi) - np.maximum(ev.lo, lo)) >= -bound).all(axis=1))
    ci, cj = box_overlap_pairs(ev.lo[sub], ev.hi[sub], bound)
    ci, cj = sub[ci], sub[cj]
    near = (cj != ci + 1) & (ci < stop) & (ev.box_gaps(ci, cj) <= bound)
    ci, cj = ci[near], cj[near]
    budget.spend(ci.shape[0])
    ii, jj = np.concatenate([ii, ci]), np.concatenate([jj, cj])
    dists = np.concatenate([dists, ev.distances(ci, cj)])
    at = np.nonzero(dists == dists.min())[0]
    best = at[np.lexsort((jj[at], ii[at]))[0]]
    return float(dists[best]), int(ii[best]), int(jj[best])


def _maximal_hull(u, v):
    # the Pareto-maximal points of one set, then the vertices of their hull
    order = np.lexsort((-v, -u))
    vs = v[order]
    keep = np.ones(vs.shape[0], dtype=bool)
    keep[1:] = vs[1:] > np.maximum.accumulate(vs)[:-1]
    front = order[keep]
    us, vs = u[front].tolist(), v[front].tolist()
    hull = []
    for p in range(len(us)):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            if (us[a] - us[o]) * (vs[p] - vs[o]) - (vs[a] - vs[o]) * (us[p] - us[o]) > 0.0:
                break
            hull.pop()
        hull.append(p)
    return front[hull]


def _farthest_box_gaps(ev):
    # every row's largest box gap over the hull of the Pareto-maximal box
    # corners of the whole set, one row at a time
    lo, hi = ev.lo, ev.hi
    extreme = np.zeros(lo.shape[0], dtype=bool)
    for u, v in [(lo[:, 0], lo[:, 1]), (lo[:, 0], -hi[:, 1]), (-hi[:, 0], lo[:, 1]), (-hi[:, 0], -hi[:, 1])]:
        extreme[_maximal_hull(u, v)] = True
    far = np.nonzero(extreme)[0]
    return np.array([geometry._box_gaps(lo[i], hi[i], lo[far], hi[far]).max() for i in range(lo.shape[0])])


def _depth_forall_exists(ev, budget):
    # one depth of the forall_exists sweep as it ran before depths were
    # grouped: rows visited one by one, each with an exact call of its own
    slack = _slack(ev)
    lower = _farthest_box_gaps(ev)
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
            running, pick = row_max, (i, int(cand[np.argmax(exact)]) if row_max > 0.0 else 0)
    return running, pick[0], pick[1]


def _sweep_per_depth(monkeypatch, stacks, mode):
    # separation_sweep under a 10**9 pair cap, read at its seams: every
    # depth's (value, i, j) as its group's rounds return them, and the pair
    # cap it leaves
    depths, budgets, rounds = [], [], verifier._rounds

    def recorded(ev, sweeps):
        depths.extend(rounds(ev, sweeps))
        return depths[len(depths) - len(sweeps) :]

    class Recorded(verifier._PairBudget):
        def __init__(self, cap):
            super().__init__(cap)
            budgets.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(verifier, "_rounds", recorded)
        patch.setattr(verifier, "_PairBudget", Recorded)
        sweep = separation_sweep(stacks, mode, Caps(pairs=10**9))
    assert sweep.by_depth == tuple(v for v, _, _ in depths) and len(budgets) == 1
    return depths, budgets[0].left


def _square_rows():
    # a row of 300 squares one apart, whose first touching seed (300, 301)
    # lies in the second seeding chunk; later in address order come squares
    # touching some of them from above, squares a rounding slack below
    # others (box gaps within the bound, distances above 0) and far-off
    # squares the sweep can leave out
    xs = [2.0 * i for i in range(300)] + [600.0, 601.0]
    squares = [(x, 0.0) for x in xs] + [(2.0 * i + 0.5, 1.0) for i in range(150, 300, 7)]
    squares += [(2.0 * i + 0.5, -1.0 - 3e-12) for i in range(0, 300, 11)] + [(5.0 * i, 40.0) for i in range(60)]
    return np.array([[[x, y], [x + 1, y], [x + 1, y + 1], [x, y + 1]] for x, y in squares])


def test_pairwise_sweeps_only_boxes_near_rows_before_first(monkeypatch, carpet_gap, carpet_overlap):
    # the square rows forwards, backwards and thinned, then the kept cells
    # of some trees, each a sweep of one depth
    row = _square_rows()
    stacks = [row, row[::-1].copy(), row[::2][:-1].copy()]
    trees = [build_tree(builtin(n), d) for n, d in [("carpet", 3), ("pascal3", 3), ("koch", 8), ("cantor", 5)]]
    trees += [build_tree(s, 3) for s in (carpet_gap, carpet_overlap, _rotated_carpet())]
    stacks += [t.vertices[n][t.kept_rows(n)] for t in trees for n in range(1, t.depth + 1)]
    # the smaller index of each zero-distance answer; it is at most the
    # first touching seed's, so a value of 2 or more shows a case with
    # first >= 2
    zero_at = []
    for chunk in (verifier._SEED_CHUNK, 4):
        monkeypatch.setattr(verifier, "_SEED_CHUNK", chunk)
        for v in stacks:
            ev = verifier.PairDistanceEvaluator(v)
            want_budget = verifier._PairBudget(10**9)
            want = _depth_pairwise_oracle(ev, want_budget)
            assert _sweep_per_depth(monkeypatch, [v], "pairwise") == ([want], want_budget.left)
            if want[0] == 0.0:
                zero_at.append(want[1])
    assert max(zero_at) >= 2


def _oracle_stacks(carpet_gap, carpet_overlap):
    # (label, kept-cell stacks by depth): the built-ins, two seeded
    # similarity conjugates of each, the gap and overlap carpets, and the
    # square rows as the depths of one sweep
    rng = np.random.default_rng(17)
    schemes = [(builtin(n), d) for n, d in [("carpet", 3), ("pascal3", 3), ("koch", 8), ("cantor", 6)]]
    for n, d in [("carpet", 3), ("pascal3", 3), ("koch", 7), ("cantor", 5)]:
        for _ in range(2):
            g = similarity_map(float(np.exp(rng.uniform(-1.4, 1.4))), float(rng.uniform(0.0, 2 * np.pi)), rng.uniform(-0.5, 0.5, 2))
            schemes.append((similarity_conjugate(builtin(n), g), d))
    schemes += [(carpet_gap, 3), (carpet_overlap, 3)]
    cases = []
    for k, (s, d) in enumerate(schemes):
        t = build_tree(s, d)
        cases.append((f"{k}: {s.name}-d{d}", [t.vertices[n][t.kept_rows(n)] for n in range(1, d + 1)]))
    row = _square_rows()
    cases.append(("square rows", [row[:1], row[::-1].copy(), row[::2][:-1].copy(), row[300:303], row]))
    return cases


@pytest.mark.parametrize("budget", [7, 2**40], ids=["group-per-depth", "one-group"])
def test_grouped_sweep_matches_per_depth_oracle(budget, monkeypatch, carpet_gap, carpet_overlap):
    # every depth's value and pair, and the pair cap left over, equal the
    # per-depth sweeps that ran one exact call per seed chunk and per row;
    # a budget of 7 makes every depth a group of its own, 2**40 puts all
    # depths of a sweep in one group
    cases = _oracle_stacks(carpet_gap, carpet_overlap)
    want = {}
    for label, stacks in cases:
        for mode, fn in (("pairwise", _depth_pairwise), ("forall_exists", _depth_forall_exists)):
            b = verifier._PairBudget(10**9)
            want[label, mode] = ([fn(verifier.PairDistanceEvaluator(v), b) for v in stacks], b.left)
    monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", budget)
    groups = []
    for label, stacks in cases:
        groups.append(len(list(verifier._depth_groups(stacks))))
        for mode in ("pairwise", "forall_exists"):
            assert _sweep_per_depth(monkeypatch, stacks, mode) == want[label, mode], (label, mode)
    assert groups == ([len(s) for _, s in cases] if budget == 7 else [1] * len(cases))


def _adjacency_per_level(t, tol):
    # check_adjacency as it ran before levels were grouped: one evaluator and
    # one exact call per level, addresses decoded as the maximum improves
    m, M = t.scheme.m, t.scheme.M
    n_comp = M - m
    max_gap, max_pair, violators = -1.0, None, []
    for n in range(1, t.depth + 1):
        ev = verifier.PairDistanceEvaluator(t.vertices[n])
        n_par = len(t.vertices[n]) // M
        base = np.repeat(np.arange(n_par) * M, m * n_comp)
        ii = base + np.tile(np.repeat(np.arange(m), n_comp), n_par)
        jj = base + np.tile(np.tile(np.arange(m, M), m), n_par)
        gaps = ev.distances(ii, jj).reshape(-1, n_comp)
        per_kept, nearest = gaps.min(axis=1), gaps.argmin(axis=1)

        def pair(r):
            return str(t.address(n, (r // m) * M + r % m)), str(t.address(n, (r // m) * M + m + int(nearest[r])))

        r = int(np.argmax(per_kept))
        if per_kept[r] > max_gap:
            max_gap, max_pair = float(per_kept[r]), pair(r)
        for r in np.nonzero(per_kept > tol.geom)[0][: _MAX_WITNESSES - len(violators)].tolist():
            violators.append(pair(r))
    status = "fail" if max_gap > tol.geom else "pass"
    return verifier.ConditionResult("adjacency", status, {"max_gap": max_gap}, tuple(violators) if violators else (max_pair,))


@pytest.mark.parametrize("budget", [7, 2**40], ids=["group-per-depth", "one-group"])
def test_grouped_adjacency_matches_per_level_oracle(budget, monkeypatch, carpet_gap, carpet_overlap):
    # the grouped check reports the same gap, status and witnesses, with one
    # level per group and with all levels in one group
    rng = np.random.default_rng(5)
    schemes = [(builtin(n), d) for n, d in [("carpet", 3), ("pascal3", 3), ("koch", 8), ("cantor", 6)]]
    schemes += [(similarity_conjugate(builtin(n), similarity_map(0.7, float(rng.uniform(0, 6.3)), (0.1, -0.2))), 3) for n in ("carpet", "koch")]
    schemes += [(carpet_gap, 3), (carpet_overlap, 3), (shrunk_complement_carpet(), 2)]
    trees = [build_tree(s, d) for s, d in schemes]
    want = [_adjacency_per_level(t, Tolerances()) for t in trees]
    monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", budget)
    for t, w in zip(trees, want):
        assert check_adjacency(t) == w, t.scheme.name
    assert any(not w.passed for w in want)


def _greedy_groups(sizes, V):
    # how many runs of consecutive stacks fit the chunk budget together
    groups, rows = 0, None
    for k in sizes:
        if rows is None or rows + k > _chunk_rows(2 * V):
            groups, rows = groups + 1, 0
        rows += k
    return groups


@pytest.mark.parametrize("name,depth", [("koch", 9), ("carpet", 3)])
def test_exact_calls_per_depth_group(name, depth, make_tree, monkeypatch):
    # one full_verify makes at most two exact distance calls per depth group
    # in forall_exists, and one in adjacency: calls per row or per depth
    # would show here as many more
    t = make_tree(name, depth)
    active, log = [None], []

    class Counted(verifier.PairDistanceEvaluator):
        def __init__(self, vertices):
            super().__init__(vertices)
            log.append((active[0], "group"))

        def distances(self, ii, jj):
            log.append((active[0], "call"))
            return super().distances(ii, jj)

    def labelled(label, fn):
        def run(*args, **kwargs):
            active[0] = label(*args)
            try:
                return fn(*args, **kwargs)
            finally:
                active[0] = None

        return run

    want = full_verify(t).to_json()
    monkeypatch.setattr(verifier, "PairDistanceEvaluator", Counted)
    monkeypatch.setattr(verifier, "check_adjacency", labelled(lambda *a: "adjacency", check_adjacency))
    monkeypatch.setattr(verifier, "check_separation", labelled(lambda t, mode, *a: mode, check_separation))
    assert full_verify(t).to_json() == want
    V = t.vertices[1].shape[1]
    kept = [len(t.kept_rows(n)) for n in range(1, depth + 1)]
    groups = {
        "adjacency": _greedy_groups([len(v) for v in t.vertices[1:]], V),
        "pairwise": _greedy_groups(kept, V),
        "forall_exists": _greedy_groups(kept, V),
    }
    for label, n_groups in groups.items():
        assert log.count((label, "group")) == n_groups, label
    calls = {label: log.count((label, "call")) for label in groups}
    assert calls["adjacency"] <= groups["adjacency"]
    assert calls["forall_exists"] <= 2 * groups["forall_exists"]
    assert calls["pairwise"] <= 2 * groups["pairwise"]
    assert sum(groups.values()) < 3 * depth


def test_witness_addresses_are_decoded_once(make_tree, carpet_gap, monkeypatch):
    # ratio and adjacency decode only the addresses they report, not the
    # extremes of every depth on the way
    decoded = []
    address = CellTree.address

    def counted(self, depth, row):
        decoded.append(depth)
        return address(self, depth, row)

    monkeypatch.setattr(CellTree, "address", counted)
    for t in (make_tree("koch", 9), make_tree("pascal3", 4), build_tree(carpet_gap, 3)):
        decoded.clear()
        res = check_ratio(t)
        assert res.passed and len(decoded) == 2, t.scheme.name
        decoded.clear()
        res = check_adjacency(t)
        assert len(decoded) == 2 * len(res.witnesses), t.scheme.name


def _lattice_gaps(a, b):
    # box gaps between the unit lattice squares with lower-left corners a
    # and b, (k, 2) integer arrays, all pairs
    d = np.maximum(np.abs(a[:, None] - b[None]) - 1, 0)
    return np.hypot(d[..., 0], d[..., 1])


@st.composite
def _grid_schemes(draw):
    # a dyadic grid scheme: the unit square cut into its p x p grid squares
    # (p = 2 or 4), in a drawn child order, of which the first m are kept;
    # with the depth
    p = draw(st.sampled_from([2, 4]))
    depth = draw(st.integers(1, 5 if p == 2 else 3))
    m = draw(st.integers(2, 3 if p == 2 else 15 if depth < 3 else 10))
    cells = draw(st.permutations([(x, y) for x in range(p) for y in range(p)]))
    maps = tuple(AffineMap2(np.eye(2) / p, np.array(c, dtype=float) / p) for c in cells)
    square = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    return Scheme("grid", m, p * p, square, maps), np.array(cells), p, depth


@settings(max_examples=200, deadline=None)
@given(_grid_schemes())
def test_grouped_checks_match_dyadic_lattice_oracle(case):
    # at depth n the kept cells are lattice squares of side p^-n: both
    # separations are lattice box gaps times p^-n (cell vertices are exact
    # dyadic numbers, so only the final hypot rounds), and a kept cell touches
    # a complement sibling exactly when the two are Chebyshev neighbours.
    # Every measure is an exact power of two, so each ratio is the one
    # rounding of m / (p^2 - m); each diameter is a power of two times the
    # same rounded sqrt(2), so each decay factor is exactly 1/p; and complement
    # squares meet at most in edges, so no overlap has any area.
    s, cells, p, depth = case
    t = build_tree(s, depth)
    kept = cells[: s.m]
    corners = [kept]
    for _ in range(depth - 1):
        corners.append((p * corners[-1][:, None] + kept[None]).reshape(-1, 2))
    pairwise, forall_exists = [], []
    for n, c in enumerate(corners, start=1):
        gaps = _lattice_gaps(c, c) / float(p) ** n
        np.fill_diagonal(gaps, np.inf)
        pairwise.append(gaps.min())
        np.fill_diagonal(gaps, 0.0)
        forall_exists.append(gaps.max(axis=1).min())
    for mode, want in (("pairwise", pairwise), ("forall_exists", forall_exists)):
        got = kept_separation(t, mode)[0].by_depth
        assert np.all(np.abs(np.array(got) - want) <= np.spacing(np.array(want))), (mode, got, want)
    sibling = _lattice_gaps(kept, cells[s.m :])
    touching = (np.abs(kept[:, None] - cells[None, s.m :]).max(axis=2) <= 1).any(axis=1)
    res = check_adjacency(t)
    assert res.passed == bool(touching.all())
    assert res.extremal["max_gap"] == pytest.approx(sibling.min(axis=1).max() / p, rel=0, abs=1e-15)
    ratio = s.m / (p * p - s.m)
    res = check_ratio(t)
    assert res.passed and res.extremal["observed_r"] == res.extremal["observed_R"] == ratio
    assert [(d["min"], d["max"]) for d in res.extremal["per_depth"]] == [(ratio, ratio)] * depth
    if depth > 1:
        res = check_diameter(t)
        assert res.passed and res.extremal["decay_factors"] == [1 / p] * (depth - 1)
    res = check_accumulation(t)
    assert res.passed and res.extremal["max_overlap"] == 0.0 and res.witnesses == ()


def test_depths_share_an_evaluator_only_with_equal_vertex_counts():
    # triangles, squares, then triangles again: each depth reads as it does
    # alone, and an empty depth is refused as a depth of its own is
    koch, carpet = build_tree(builtin("koch"), 3), build_tree(builtin("carpet"), 1)
    stacks = [koch.vertices[n][koch.kept_rows(n)] for n in (1, 2)] + [carpet.vertices[1][carpet.kept_rows(1)]]
    stacks.append(koch.vertices[3][koch.kept_rows(3)])
    for mode in ("pairwise", "forall_exists"):
        alone = [separation_sweep([v], mode) for v in stacks]
        got = separation_sweep(stacks, mode)
        assert got.by_depth == tuple(a.value for a in alone) and got.pair == alone[got.depth - 1].pair
        with pytest.raises(ValueError, match="at least one polygon"):
            separation_sweep([stacks[0], stacks[0][:0], stacks[1]], mode)


def test_separation_single_cell_depth():
    t = build_tree(builtin("carpet"), 1)
    root = [(t.levels[0][0].address, t.levels[0][0].polygon)]
    kept = [(c.address, c.polygon) for c in t.kept_cells(1)]
    pw, a, b = _sweep([root], "pairwise")
    assert pw.by_depth == (math.inf,) and a == b == root[0][0]
    fe, a, b = _sweep([root, kept], "forall_exists")
    assert fe.by_depth[0] == 0.0
    assert (fe.by_depth, a, b) == _full_matrix_sweep([root, kept], "forall_exists")


def test_separation_cap():
    t = build_tree(builtin("cantor"), 5)
    with pytest.raises(CapExceededError):
        check_separation(t, "pairwise", caps=Caps(pairs=10))


# the smallest pair caps that do not raise: forall_exists keeps its own,
# and pairwise, which counts only the seeding chunks it evaluates, may only
# need fewer; cantor has no touching seed, so it still seeds every pair
_CAP_CASES = [("koch", 8, 88, 502), ("carpet", 3, 104, 581), ("cantor", 6, 12, 120), ("pascal3", 4, 65, 1550)]


@pytest.mark.parametrize("name,depth,forall_exists,pairwise", _CAP_CASES)
def test_separation_cap_thresholds(name, depth, forall_exists, pairwise, make_tree):
    t = make_tree(name, depth)
    check_separation(t, "forall_exists", caps=Caps(pairs=forall_exists))
    with pytest.raises(CapExceededError):
        check_separation(t, "forall_exists", caps=Caps(pairs=forall_exists - 1))
    check_separation(t, "pairwise", caps=Caps(pairs=pairwise))
    if name == "cantor":
        with pytest.raises(CapExceededError):
            check_separation(t, "pairwise", caps=Caps(pairs=pairwise - 1))


@pytest.mark.parametrize("cap", [500, 1799, 1800])
def test_forall_exists_asks_for_at_most_one_row_past_the_cap(cap, monkeypatch):
    # two clumps of 30 equal squares nine apart: every row's bound ties the
    # first row's maximum, so the visiting loop reaches all 60 rows of 30
    # partners each, 1800 pairs; under a smaller cap it raises at the row
    # that passes it, and the exact pairs asked for stay within cap + 30
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cells = np.array([square] * 30 + [square + [10.0, 0.0]] * 30)
    budget = verifier._PairBudget(cap)
    if cap < 1800:
        with pytest.raises(CapExceededError):
            _depth_forall_exists(verifier.PairDistanceEvaluator(cells), budget)
    else:
        assert _depth_forall_exists(verifier.PairDistanceEvaluator(cells), budget) == (9.0, 0, 30)
    asked = []

    class Counted(verifier.PairDistanceEvaluator):
        def distances(self, ii, jj):
            asked.append(len(ii))
            return super().distances(ii, jj)

    monkeypatch.setattr(verifier, "PairDistanceEvaluator", Counted)
    if cap < 1800:
        with pytest.raises(CapExceededError):
            separation_sweep([cells], "forall_exists", Caps(pairs=cap))
        assert sum(asked) <= cap + 30 and len(asked) == 2
    else:
        sweep = separation_sweep([cells], "forall_exists", Caps(pairs=cap))
        assert (sweep.value, sweep.pair, asked) == (9.0, (0, 30), [30, 1770])


# ---------------------------------------------------------------------------
# full verification


def test_full_verify_carpet_passes(make_tree):
    rep = full_verify(make_tree("carpet", 4), expected_ratio=8.0)
    assert rep.overall == "pass"
    assert rep.condition("separation", mode="forall_exists").extremal["counted"] is True
    assert rep.condition("separation", mode="pairwise").extremal["counted"] is False
    assert rep.condition("separation", mode="pairwise").status == "fail"


def test_full_verify_koch_passes(make_tree):
    rep = full_verify(make_tree("koch", 6), expected_ratio=2.0)
    assert rep.overall == "pass"


def test_full_verify_counts_selected_separation_mode(make_tree):
    rep = full_verify(make_tree("carpet", 2), separation_mode="pairwise")
    assert rep.overall == "fail"  # kept squares touch


def test_full_verify_fails_on_shrunk_complement(carpet_gap):
    rep = full_verify(build_tree(carpet_gap, 3))
    assert rep.overall == "fail"
    assert rep.condition("adjacency").status == "fail"


def test_full_verify_fails_on_overlapping_complements(carpet_overlap):
    rep = full_verify(build_tree(carpet_overlap, 3))
    assert rep.overall == "fail"
    assert rep.condition("accumulation").status == "fail"


def test_reports_are_deterministic(make_tree):
    t1 = build_tree(builtin("koch"), 4)
    t2 = build_tree(builtin("koch"), 4)
    r1 = full_verify(t1, expected_ratio=2.0)
    r2 = full_verify(t2, expected_ratio=2.0)
    assert r1.to_json() == r2.to_json()


def test_full_verify_requires_depth_two(make_tree):
    with pytest.raises(EmptyTreeError):
        full_verify(make_tree("cantor", 1))


def test_conditions_hold_in_rotated_frames():
    # conjugating a scheme by a similarity preserves every condition, so the
    # checks must not depend on axis alignment (this also drives the bbox
    # pruning machinery with tilted cells)
    import dataclasses
    import numpy as np

    from porofractal.geometry import AffineMap2, ConvexPolygon, apply, compose
    from porofractal.scheme import validate_geometry

    s = builtin("carpet")
    for angle, scale in [(0.58, 1.7), (-1.1, 0.4)]:
        c, sn = np.cos(angle), np.sin(angle)
        lin = scale * np.array([[c, -sn], [sn, c]])
        g = AffineMap2(lin, np.array([0.3, -2.0]))
        g_inv = g.inverse()
        conjugated = dataclasses.replace(
            s,
            name="carpet-rot",
            base=apply(g, s.base),
            child_maps=tuple(compose(g, compose(w, g_inv)) for w in s.child_maps),
        )
        assert validate_geometry(conjugated) == []
        rep = full_verify(build_tree(conjugated, 3), expected_ratio=8.0)
        assert rep.overall == "pass", (angle, scale)
        sep = rep.condition("separation", mode="forall_exists")
        assert sep.extremal["by_depth"][0] == pytest.approx(scale / 3, rel=1e-9)


def test_report_json_shape(make_tree, carpet_gap):
    for rep in (full_verify(make_tree("cantor", 3)), full_verify(build_tree(carpet_gap, 2))):
        doc = json.loads(rep.to_json())
        assert set(doc) == {"scheme", "depth", "tolerances", "conditions", "overall"}
        for cond in doc["conditions"]:
            assert set(cond) == {"condition", "status", "extremal", "witnesses"}
            assert cond["status"] in ("pass", "fail")
            if cond["status"] == "fail":
                assert cond["witnesses"]  # every failure carries a witness


# (digest key, scheme, depth): the sweep-shallow cantor op reads its depth
# from a variable the workload rebinds to the carpet's sweep depth before
# the op runs, so its keys hold the reports of cantor d2 and d3
_REF_REPORTS = [
    ("verify-deep/carpet-d2", "carpet", 2),
    ("verify-deep/carpet-d4", "carpet", 4),
    ("verify-deep/koch-d4", "koch", 4),
    ("verify-deep/koch-d12", "koch", 12),
    ("sweep-shallow/cantor-d4", "cantor", 2),
    ("sweep-shallow/cantor-d9", "cantor", 3),
    ("sweep-shallow/carpet-gap-d2", "carpet-gap", 2),
    ("sweep-shallow/carpet-gap-d3", "carpet-gap", 3),
    ("sweep-shallow/carpet-overlap-d2", "carpet-overlap", 2),
    ("sweep-shallow/carpet-overlap-d3", "carpet-overlap", 3),
]
# the failing carpets, checked against the carpet's ratio as the workload
# does; theirs are the reports whose failures list witnesses
_FAILING = {"carpet-gap": shrunk_complement_carpet, "carpet-overlap": overlapping_complement_carpet}


@pytest.mark.parametrize("key,name,depth", _REF_REPORTS)
def test_report_bytes_match_benchmark_refs(key, name, depth):
    # the benchmark's recorded report digests, read only: a byte change in a
    # full_verify report fails here, not only in the harness
    refs = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "refs.json").read_text())
    s, ratio = (_FAILING[name](), EXPECTED_RATIO["carpet"]) if name in _FAILING else (builtin(name), EXPECTED_RATIO[name])
    report = full_verify(build_tree(s, depth), expected_ratio=ratio).to_json()
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == refs[key]


# ---------------------------------------------------------------------------
# the working-memory budget of the batched kernels

_BUDGET_CASES = [("carpet", 3), ("koch", 8), ("pascal3", 3), ("cantor", 6), ("carpet-gap", 3), ("carpet-overlap", 3)]


@pytest.mark.parametrize("name,depth", _BUDGET_CASES)
def test_reports_do_not_depend_on_the_chunk_budget(name, depth, make_tree, monkeypatch):
    # every chunked kernel computes each pair or row on its own, so reports
    # and the clipped overlaps are the same bytes at any budget, down to one
    # pair or row per chunk
    t = build_tree(_FAILING[name](), depth) if name in _FAILING else make_tree(name, depth)
    ratio = EXPECTED_RATIO["carpet" if name in _FAILING else name]
    batches = []

    def recorded(S, C, kind, tol):
        batches.append(overlap_measures(S, C, kind, tol))
        return batches[-1]

    monkeypatch.setattr(verifier, "overlap_measures", recorded)
    want = full_verify(t, expected_ratio=ratio).to_json()
    overlaps = b"".join(b.tobytes() for b in batches)
    for budget in (7, 64):
        monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", budget)
        batches.clear()
        assert full_verify(t, expected_ratio=ratio).to_json() == want
        assert b"".join(b.tobytes() for b in batches) == overlaps
        assert all(b.shape[0] <= _chunk_rows(4 * t.vertices[1].shape[1]) for b in batches)


@pytest.mark.parametrize("name,depth", [("carpet", 4), ("koch", 12)])
def test_checks_work_in_bounded_memory(name, depth, make_tree):
    # the kernels step through the chunk budget, so no check holds a table
    # of every pair of a level: its working memory is a few chunks plus
    # arrays of one entry per cell or candidate pair
    t = make_tree(name, depth)
    checks = {
        "ratio": lambda: check_ratio(t, expected=EXPECTED_RATIO[name]),
        "adjacency": lambda: check_adjacency(t),
        "accumulation": lambda: check_accumulation(t),
        "diameter": lambda: check_diameter(t),
        "pairwise": lambda: check_separation(t, "pairwise"),
        "forall_exists": lambda: check_separation(t, "forall_exists"),
    }
    peaks = {label: traced(check)[1] for label, check in checks.items()}
    assert max(peaks.values()) <= 3 * 2**20, {k: round(v / 2**20, 2) for k, v in peaks.items()}


@pytest.mark.parametrize("name,depth", VERIFY_INPUTS)
def test_report_chunks_join_to_the_dumps_oracle(name, depth, make_tree, monkeypatch):
    # a report is one piece under the real budget; an 8-element budget cuts
    # it after every encoder token, and the joined text stays the same
    report = full_verify(make_tree(name, depth))
    want = report_json_oracle(report)
    assert report.to_json() == "".join(report.json_chunks()) == want
    monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", 8)
    chunks = list(report.json_chunks())
    assert len(chunks) > 100 and "".join(chunks) == want
