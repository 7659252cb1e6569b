import math

import numpy as np
import pytest

from porofractal.codespace import Address
from porofractal.config import Caps
from porofractal.errors import CapExceededError, EmptyTreeError
from porofractal.geometry import (
    ConvexPolygon,
    box_overlap_pairs,
    min_distance,
    overlap_measures,
    similarity_map,
)
from porofractal.scheme import build_tree, builtin
from porofractal.verifier import _CLIP_CHUNK, _MAX_WITNESSES
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
    min_distance_matrix,
    oracle_intersection_area,
    overlapping_complement_cantor,
    segment_overlap_length_oracle,
    similarity_conjugate,
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
    ka = t.cell(Address.parse(kept, 8, 9))
    ca = t.cell(Address.parse(comp, 8, 9))
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
    pa = t.cell(Address.parse(a, 8, 9)).polygon
    pb = t.cell(Address.parse(b, 8, 9)).polygon
    assert overlap_measures(pa.vertices[None], pb.vertices[None], "area")[0] > 1e-12 * t.scheme.base_measure()


def test_accumulation_fails_for_overlapping_cantor_complements():
    # the length branch: builtin cantor sends no candidate pair down it
    t = build_tree(overlapping_complement_cantor(), 4)
    res = check_accumulation(t)
    assert not res.passed
    assert res.witnesses
    for a, b in res.witnesses:
        pa, pb = (t.cell(Address.parse(w, 2, 3)).polygon for w in (a, b))
        assert overlap_measures(pa.vertices[None], pb.vertices[None], "length")[0] > 1e-12 * t.scheme.base_measure()


def _accumulation_per_pair(t):
    """check_accumulation's report computed pair by pair with the scalar oracles."""
    comps = [c for level in t.levels[1:] for c in level if not c.is_kept]
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
def test_accumulation_batches_match_per_pair_oracle(name, depth, make_tree, carpet_overlap):
    variants = {"carpet-overlap": carpet_overlap, "cantor-overlap": overlapping_complement_cantor()}
    t = build_tree(variants[name], depth) if name in variants else make_tree(name, depth)
    got = check_accumulation(t).to_dict()
    assert got == _accumulation_per_pair(t)
    if name == "cantor-overlap":
        assert got["status"] == "fail" and got["extremal"]["pairs_examined"] > 0
    if name == "koch":
        assert got["extremal"]["pairs_examined"] > 4 * _CLIP_CHUNK


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


def test_separation_pruned_path_matches_full_matrix():
    # the pruned sweep must reproduce the exhaustive matrix exactly: values,
    # depth-wise values and tie-broken witnesses, in both modes
    cases = [(builtin(n), d) for n, d in [("carpet", 2), ("pascal3", 2), ("cantor", 4), ("koch", 5)]]
    for s, depth in cases + [(_rotated_carpet(), 2)]:
        t = build_tree(s, depth)
        cells = [[(c.address, c.polygon) for c in t.kept_cells(n)] for n in range(1, depth + 1)]
        for mode in ("pairwise", "forall_exists"):
            sweep, a, b = _sweep(cells, mode)
            assert (sweep.by_depth, a, b) == _full_matrix_sweep(cells, mode), (s.name, mode)
            # the tree's vertex stacks give the same sweep and pair
            tree_sweep, ta, tb = kept_separation(t, mode)
            assert (tree_sweep, ta, tb) == (sweep, a, b), (s.name, mode)


def test_separation_pairwise_tie_before_first_touching_consecutive_pair():
    # squares [0,1], [2,3], [1,2] on a row: the first touching consecutive
    # pair is (2, 3), but (1, 3) also touches and comes first
    squares = [ConvexPolygon(np.array([[x, 0.0], [x + 1, 0.0], [x + 1, 1.0], [x, 1.0]])) for x in (0.0, 2.0, 1.0)]
    cells = [[(Address((i,), 3, 3), p) for i, p in enumerate(squares, start=1)]]
    sweep, a, b = _sweep(cells, "pairwise")
    assert (sweep.value, str(a), str(b)) == (0.0, "1", "3")
    assert (sweep.by_depth, a, b) == _full_matrix_sweep(cells, "pairwise")


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
    import json

    for rep in (full_verify(make_tree("cantor", 3)), full_verify(build_tree(carpet_gap, 2))):
        doc = json.loads(rep.to_json())
        assert set(doc) == {"scheme", "depth", "tolerances", "conditions", "overall"}
        for cond in doc["conditions"]:
            assert set(cond) == {"condition", "status", "extremal", "witnesses"}
            assert cond["status"] in ("pass", "fail")
            if cond["status"] == "fail":
                assert cond["witnesses"]  # every failure carries a witness
