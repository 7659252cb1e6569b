import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from porofractal import geometry
from porofractal.codespace import Address
from porofractal.errors import SingularMapError
from porofractal.geometry import (
    AffineMap2,
    ConvexPolygon,
    PairDistanceEvaluator,
    _inside,
    apply,
    box_overlap_pairs,
    compose,
    diameter,
    measure,
    overlap_areas,
    overlap_measures,
    point_distances,
)
from porofractal.scheme import build_tree, builtin

from conftest import (
    box_overlap_pairs_oracle,
    clip_by_convex,
    contains_oracle,
    image_oracle,
    min_distance,
    min_distance_matrix,
    min_distance_oracle,
    oracle_intersection_area,
    overlap_areas_oracle,
    overlapping_complement_carpet,
    point_distance_oracle,
    segment_overlap_length_oracle,
    similarity_conjugate,
    similarity_map,
    tree_polygon,
)

SQRT3 = math.sqrt(3.0)

UNIT_SQUARE = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
KOCH_BASE = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 6]]))
SEGMENT = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0]]))
POINT = ConvexPolygon(np.array([[0.25, 0.75]]))


def square(x0, y0, side):
    return ConvexPolygon(np.array([[x0, y0], [x0 + side, y0], [x0 + side, y0 + side], [x0, y0 + side]]))


# ---------------------------------------------------------------------------
# construction invariants


def test_polygon_rejects_nonfinite():
    with pytest.raises(ValueError):
        ConvexPolygon(np.array([[0.0, 0.0], [np.nan, 1.0]]))


def test_polygon_rejects_duplicate_vertices():
    with pytest.raises(ValueError):
        ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-12]]))


def test_polygon_rejects_clockwise():
    with pytest.raises(ValueError):
        ConvexPolygon(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]))


def test_polygon_rejects_nonconvex():
    with pytest.raises(ValueError):
        ConvexPolygon(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [1.0, 0.5], [0.0, 2.0]]))


def test_map_rejects_bad_shapes():
    with pytest.raises(ValueError):
        AffineMap2(np.eye(3), np.zeros(2))


# ---------------------------------------------------------------------------
# area / length / diameter


def test_area_unit_square():
    assert measure(UNIT_SQUARE, "area") == 1.0


def test_area_koch_base_triangle():
    assert measure(KOCH_BASE, "area") == pytest.approx(SQRT3 / 12, rel=1e-12)
    assert measure(KOCH_BASE, "area") == pytest.approx(0.1443375673, abs=1e-9)


def test_area_degenerate_is_zero():
    assert measure(SEGMENT, "area") == 0.0
    assert measure(POINT, "area") == 0.0


def test_length_measure():
    assert measure(SEGMENT, "length") == 1.0
    assert measure(POINT, "length") == 0.0
    with pytest.raises(ValueError):
        measure(UNIT_SQUARE, "length")


def test_diameter_unit_square():
    assert diameter(UNIT_SQUARE) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_diameter_single_point():
    assert diameter(POINT) == 0.0


def test_diameter_koch_base_matches_brute_force():
    verts = KOCH_BASE.vertices
    brute = max(
        float(np.hypot(*(verts[i] - verts[j]))) for i in range(len(verts)) for j in range(i + 1, len(verts))
    )
    assert brute == 1.0  # slanted sides have length 1/sqrt(3) < 1
    assert diameter(KOCH_BASE) == brute


# ---------------------------------------------------------------------------
# polygon distance: the evaluator's kernels on one pair, as conftest's
# min_distance runs them


def test_min_distance_cantor_gap():
    a = ConvexPolygon(np.array([[0.0, 0.0], [1 / 3, 0.0]]))
    b = ConvexPolygon(np.array([[2 / 3, 0.0], [1.0, 0.0]]))
    assert min_distance(a, b) == pytest.approx(1 / 3, abs=1e-15)


def test_min_distance_touching_squares_is_zero():
    assert min_distance(square(0, 0, 1), square(1, 0, 1)) == 0.0


def test_min_distance_self_is_zero():
    assert min_distance(UNIT_SQUARE, UNIT_SQUARE) == 0.0


def test_min_distance_corner_touch_is_zero():
    assert min_distance(square(0, 0, 1), square(1, 1, 1)) == 0.0


def test_min_distance_nested_is_zero():
    inner = square(0.4, 0.4, 0.1)
    assert min_distance(UNIT_SQUARE, inner) == 0.0
    assert min_distance(inner, UNIT_SQUARE) == 0.0


def test_min_distance_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = square(*rng.uniform(-2, 2, size=2), rng.uniform(0.1, 1.5))
        b = square(*rng.uniform(-2, 2, size=2), rng.uniform(0.1, 1.5))
        assert min_distance(a, b) == min_distance(b, a)


def _random_convex(rng, n_points=7, scale=2.0):
    while True:
        pts = rng.uniform(-scale, scale, size=(n_points, 2))
        try:
            hull = ConvexHull(pts)
        except Exception:
            continue
        poly = pts[hull.vertices]
        if measure(ConvexPolygon._unchecked(poly), "area") > 0.05:
            return ConvexPolygon(poly)


def _sample_polygon(poly, n_edge=120, n_grid=24):
    """Dense boundary + interior point cloud for the distance oracle."""
    verts = poly.vertices
    pts = [verts]
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        t = np.linspace(0.0, 1.0, n_edge, endpoint=False)[:, None]
        pts.append(a + t * (b - a))
    x0, y0, x1, y1 = poly.bbox()
    gx, gy = np.meshgrid(np.linspace(x0, x1, n_grid), np.linspace(y0, y1, n_grid))
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    inside = _inside(grid, np.broadcast_to(poly.vertices, (len(grid),) + poly.vertices.shape), 0.0)
    pts.append(grid[inside])
    return np.vstack(pts)


def test_min_distance_against_sampling_oracle():
    # zero iff the closed polygons intersect; positive values match a dense
    # point-sampling estimate up to the sampling resolution
    rng = np.random.default_rng(42)
    for k in range(100):
        a = _random_convex(rng)
        shift = rng.uniform(-1.5, 6.0)  # mix of overlapping and far pairs
        b_raw = _random_convex(rng)
        b = ConvexPolygon(b_raw.vertices + np.array([shift, shift / 2.0]))
        exact = min_distance(a, b)
        sa, sb = _sample_polygon(a), _sample_polygon(b)
        diff = sa[:, None, :] - sb[None, :, :]
        oracle = float(np.hypot(diff[..., 0], diff[..., 1]).min())
        step = max(diameter(a), diameter(b)) / 20.0
        assert exact <= oracle + 1e-12
        assert oracle - exact <= step


def _random_ngon(rng, k, scale=2.0):
    """k points at ascending random angles on a random circle: a convex ccw
    polygon with exactly k vertices (a point for k = 1, a chord for k = 2)."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
    center, radius = rng.uniform(-scale, scale, 2), rng.uniform(0.2, 1.0)
    return ConvexPolygon(center + radius * np.stack([np.cos(angles), np.sin(angles)], axis=1))


def test_min_distance_matrix_matches_scalar():
    rng = np.random.default_rng(3)
    polys = [_random_ngon(rng, 5) for _ in range(8)]
    mat = min_distance_matrix(polys)
    ev = PairDistanceEvaluator(np.stack([p.vertices for p in polys]))
    ii, jj = np.nonzero(~np.eye(8, dtype=bool))
    assert (ev.distances(ii, jj) == mat[ii, jj]).all()
    for i in range(8):
        assert mat[i, i] == 0.0
        for j in range(i + 1, 8):
            assert mat[i, j] == pytest.approx(min_distance(polys[i], polys[j]), abs=1e-12)
            assert mat[i, j] == mat[j, i]


def test_min_distance_rotated_collinear_cantor_cells():
    # cells 1122 = [8/81, 9/81] and 1222 = [26/81, 27/81] of cantor depth 4,
    # built in a frame rotated by 0.02 rad: rounding puts the endpoints of
    # the collinear segments on both sides of each other's line, which must
    # not read as a crossing
    s = builtin("cantor")
    g = similarity_map(1.0, 0.02)
    g_inv = g.inverse()
    maps = tuple(compose(g, compose(w, g_inv)) for w in s.child_maps)
    rotated = dataclasses.replace(s, base=apply(g, s.base), child_maps=maps)
    t = build_tree(rotated, 4)
    a = tree_polygon(t, Address((1, 1, 2, 2), 2, 3))
    b = tree_polygon(t, Address((1, 2, 2, 2), 2, 3))
    assert min_distance(a, b) == pytest.approx(17 / 81, abs=1e-12)
    ev = PairDistanceEvaluator(np.stack([a.vertices, b.vertices]))
    assert ev.distances([0, 1], [1, 0]) == pytest.approx([17 / 81] * 2, abs=1e-12)


def test_pair_distance_evaluator_mixed_vertex_counts():
    # one stack per vertex count; each also holds two half-size copies of its
    # first polygon, one sharing its first vertex and one strictly inside it,
    # so touching and nested pairs are exercised
    rng = np.random.default_rng(5)
    for k in (1, 2, 3, 4, 7, 9):
        polys = [_random_ngon(rng, k) for _ in range(6)]
        v, c = polys[0].vertices, polys[0].vertices.mean(axis=0)
        polys += [ConvexPolygon(v[0] + 0.5 * (v - v[0])), ConvexPolygon(c + 0.5 * (v - c))]
        ev = PairDistanceEvaluator(np.stack([p.vertices for p in polys]))
        ii, jj = np.triu_indices(len(polys), k=1)
        got = ev.distances(ii, jj)
        for n, (i, j) in enumerate(zip(ii.tolist(), jj.tolist())):
            assert got[n] == min_distance(polys[i], polys[j]), (k, i, j)
        for i, p in enumerate(polys):
            assert tuple(ev.lo[i]) + tuple(ev.hi[i]) == p.bbox()
        # the boxes and centroids are bitwise the reductions over the vertices
        v = ev.vertices
        for got, want in [(ev.lo, v.min(axis=1)), (ev.hi, v.max(axis=1)), (ev.centroids, v.mean(axis=1))]:
            assert got.tobytes() == want.tobytes(), k


def test_box_overlap_pairs_matches_outer_predicate():
    rng = np.random.default_rng(11)
    cases = []
    for n, pad in [(1, 0.0), (2, 0.0), (60, 0.0), (60, 1e-9), (200, 0.05)]:
        lo = rng.uniform(-1.0, 1.0, size=(n, 2)).round(1)  # rounding makes boxes share edges
        cases.append((lo, lo + rng.uniform(0.0, 0.3, size=(n, 2)).round(1), pad))
    points = rng.integers(0, 4, size=(80, 2)) / 3.0
    cases.append((points, points, 0.0))
    sizes = rng.uniform(0.0, 1.0, size=(150, 1)) ** 4  # a few large boxes among many small
    lo = rng.uniform(-1.0, 1.0, size=(150, 2))
    cases.append((lo, lo + sizes, 1e-9))
    column = np.column_stack([np.zeros(50), np.linspace(0.0, 1.0, 50)])
    cases.append((column, column + [0.0, 1 / 49], 0.0))
    for lo, hi, pad in cases:
        ok = np.ones((lo.shape[0],) * 2, dtype=bool)
        for ax in range(2):
            ok &= (np.minimum.outer(hi[:, ax], hi[:, ax]) - np.maximum.outer(lo[:, ax], lo[:, ax])) >= -pad
        want_i, want_j = np.nonzero(np.triu(ok, k=1))
        got_i, got_j = box_overlap_pairs(lo, hi, pad)
        assert got_i.tolist() == want_i.tolist() and got_j.tolist() == want_j.tolist()


def _same_pairs(lo, hi, pad):
    got, want = box_overlap_pairs(lo, hi, pad), box_overlap_pairs_oracle(lo, hi, pad)
    assert [a.dtype for a in got] == [a.dtype for a in want]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    return got


def _complement_cases():
    # complement cells of every order, as check_accumulation stacks them:
    # koch d10 and pascal3 d4 (triangles), the overlap carpet d3 (squares
    # that share interior), and seeded similarity conjugates of each
    rng = np.random.default_rng(20)
    cases = [("koch", builtin("koch"), 10), ("pascal3", builtin("pascal3"), 4), ("carpet-overlap", overlapping_complement_carpet(), 3)]
    for name, s, depth in list(cases):
        for _ in range(2):
            g = similarity_map(rng.uniform(0.25, 4.0), rng.uniform(-np.pi, np.pi), rng.uniform(-0.5, 0.5, 2), reflect=bool(rng.integers(2)))
            cases.append((f"{name}-conj", similarity_conjugate(s, g), depth - 1))
    for name, s, depth in cases:
        t = build_tree(s, depth)
        yield name, np.concatenate([t.vertices[n][t.complement_rows(n)] for n in range(1, depth + 1)])


def test_flat_kernels_match_the_kernels_they_replaced_on_complement_cells():
    # the candidate pairs are the same arrays, and every clipped area the
    # same bits, in one call and in the chunks check_accumulation uses
    for name, verts in _complement_cases():
        lo, hi = verts.min(axis=1), verts.max(axis=1)
        for pad in (1e-9, 0.05):
            _same_pairs(lo, hi, pad)
        ii, jj = _same_pairs(lo, hi, 1e-9)
        assert ii.shape[0], name
        S, C = verts[ii], verts[jj]
        assert overlap_areas(S, C).tobytes() == overlap_areas_oracle(S, C).tobytes(), name
        assert overlap_areas(C, S).tobytes() == overlap_areas_oracle(C, S).tobytes(), name
        step = 100
        got = np.concatenate([overlap_areas(S[a : a + step], C[a : a + step]) for a in range(0, len(S), step)])
        assert got.tobytes() == overlap_areas_oracle(S, C).tobytes(), name
        if name.startswith("carpet-overlap"):
            assert got.max() > 1e-4, name  # cells of two orders share interior


def test_box_overlap_pairs_matches_the_replaced_kernel_on_mixed_orders():
    # boxes of sizes 4^0 .. 4^-9 in one strip (the largest box sets its
    # height), many windows far longer than others, and sets whose windows
    # are all empty, so no candidate is ever expanded
    rng = np.random.default_rng(21)
    for trial in range(6):
        n = 400
        side = 4.0 ** -rng.integers(0, 10, n)
        side[0] = 1.0
        lo = rng.uniform(0.0, 1.0, (n, 2)) * (1.0 - side[:, None])
        if trial % 2:
            lo = np.round(lo * 64.0) / 64.0  # shared edges and corners
        hi = lo + side[:, None] * rng.uniform(0.5, 1.0, (n, 2))
        assert len(set(np.log2(side).tolist())) >= 8
        for pad in (0.0, 1e-9, 1e-3):
            _same_pairs(lo, hi, pad)
    # a row of boxes whose gaps along the sweep pass pad by 0 to 15 ulps:
    # the window's rounding margin takes them in, the exact test decides
    pad = 2.0**-10
    lo = np.column_stack([np.arange(64) / 64.0, np.zeros(64)])
    hi = np.column_stack([lo[1:, 0] - pad, np.full(63, 1 / 128)])
    hi[:, 0] -= np.arange(63) % 16 * np.spacing(hi[:, 0])
    _same_pairs(lo[:63], hi, pad)
    # clumps of overlapping boxes with empty strips between them, three
    # clumps and then only the first and the last strip: a window in an
    # empty strip next to a box holds no box
    for offsets in ([0.0, 2.0, 6.5], [0.0, 6.5]):
        lo = np.concatenate([rng.uniform(0.0, 1.0, (40, 2)) * [20.0, 0.2] + [0.0, y] for y in offsets])
        ii, jj = _same_pairs(lo, lo + 0.5, 1e-9)
        assert ii.shape[0]
    for n in (2, 3, 50):
        lo = np.arange(n)[:, None] * np.array([10.0, 7.0])
        for pad in (0.0, 1e-9):
            ii, jj = _same_pairs(lo, lo + 1.0, pad)
            assert ii.shape == jj.shape == (0,)
    for n in (0, 1):
        lo = np.zeros((n, 2))
        ii, jj = _same_pairs(lo, lo + 1.0, 1e-9)
        assert ii.shape == jj.shape == (0,) and ii.dtype == jj.dtype == np.intp


def test_overlap_areas_matches_the_replaced_kernel_on_mixed_batches():
    # different vertex counts per side, pairs that miss, touch, nest or
    # overlap in one batch; a batch in which every pair misses; and the
    # degenerate and empty inputs
    rng = np.random.default_rng(22)
    for vs, vc in [(3, 3), (4, 3), (3, 5), (6, 4)]:
        S, C = [], []
        while len(S) < 200:
            a, b = rng.uniform(-1.0, 1.0, (12, 2)), rng.uniform(-1.0, 1.0, (12, 2)) + rng.integers(-2, 3, 2)
            ha, hb = ConvexHull(a).vertices, ConvexHull(b).vertices
            if len(ha) >= vs and len(hb) >= vc:
                S.append(a[ha[:vs]])
                C.append(b[hb[:vc]] if len(S) % 5 else 0.5 * a[ha[:vc]] if vc <= len(ha) else b[hb[:vc]])
        S, C = np.stack(S), np.stack(C)
        S[::7] = np.round(S[::7] * 4.0) / 4.0  # shared vertices and edges
        C[::7] = np.round(C[::7] * 4.0) / 4.0
        for A, B in [(S, C), (S[:1], C[:1]), (S, S[::-1]), (S + 10.0, C)]:
            want = overlap_areas_oracle(A, B)
            assert overlap_areas(A, B).tobytes() == want.tobytes(), (vs, vc)
        assert not overlap_areas(S + 10.0, C).any()
    sq = UNIT_SQUARE.vertices[None]
    for A, B in [(SEGMENT.vertices[None], sq), (sq, POINT.vertices[None]), (np.empty((0, 4, 2)), np.empty((0, 3, 2)))]:
        assert overlap_areas(A, B).tobytes() == overlap_areas_oracle(A, B).tobytes()


@pytest.mark.parametrize("name,depth", [("carpet", 3), ("koch", 8), ("pascal3", 3), ("cantor", 6)])
def test_kernels_do_not_depend_on_the_chunk_budget(name, depth, monkeypatch):
    # each pair or row of a chunked kernel is computed on its own, so the
    # outputs are bitwise equal at any budget, down to one row per chunk
    rng = np.random.default_rng(31)
    v = build_tree(builtin(name), depth).vertices[depth]
    c = v.mean(axis=1, keepdims=True)
    # a half-size copy inside each cell: nested pairs whose boundaries are apart
    stack = np.concatenate([v, c + 0.5 * (v - c)])
    k = v.shape[0]
    ii = np.concatenate([np.arange(k), np.arange(k - 1), rng.integers(0, 2 * k, 500)])
    jj = np.concatenate([np.arange(k, 2 * k), np.arange(1, k), rng.integers(0, 2 * k, 500)])
    lo, hi = stack.min(axis=1), stack.max(axis=1)

    def kernels():
        ev = PairDistanceEvaluator(stack)
        return [ev.distances(ii, jj), ev.farthest_box_gaps([0, 2 * k]), *box_overlap_pairs(lo, hi, 1e-9), *box_overlap_pairs(lo, hi, 0.05)]

    want = kernels()
    assert not want[0][:k].any()  # every nested pair reads 0
    for budget in (7, 64):
        monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", budget)
        assert [a.tobytes() for a in kernels()] == [a.tobytes() for a in want], budget


@pytest.mark.parametrize("name,depth", [("koch", 8), ("carpet", 3), ("pascal3", 3), ("cantor", 6), ("carpet-tilted", 3)])
def test_farthest_box_gaps_of_spans_match_separate_sets(name, depth):
    # one evaluator over several levels reads each level's rows against
    # that level only: bitwise the per-level evaluators, and the largest box
    # gap over the level, which the few hull polygons reach up to rounding
    s = similarity_conjugate(builtin("carpet"), similarity_map(1.3, 0.4, (0.2, 0.1))) if name == "carpet-tilted" else builtin(name)
    t = build_tree(s, depth)
    stacks = [t.vertices[n][t.kept_rows(n)] for n in range(1, depth + 1)]
    bounds = np.cumsum([0] + [len(v) for v in stacks]).tolist()
    ev = PairDistanceEvaluator(np.concatenate(stacks))
    got = ev.farthest_box_gaps(bounds)
    want = np.concatenate([PairDistanceEvaluator(v).farthest_box_gaps([0, len(v)]) for v in stacks])
    assert got.tobytes() == want.tobytes()
    for a, b in zip(bounds[:-1], bounds[1:]):
        lo, hi = ev.lo[a:b], ev.hi[a:b]
        gaps = np.maximum(np.maximum(lo[None] - hi[:, None], lo[:, None] - hi[None]), 0.0)
        assert np.allclose(got[a:b], np.hypot(gaps[..., 0], gaps[..., 1]).max(axis=1), rtol=1e-13, atol=0.0)


def test_point_distance():
    sq = np.stack([UNIT_SQUARE.vertices] * 2)
    assert point_distances(np.array([[0.5, 0.5], [2.0, 0.5]]), sq).tolist() == [0.0, pytest.approx(1.0, abs=1e-15)]


def test_min_distance_bitwise_matches_edge_pair_oracle_on_special_cases():
    rng = np.random.default_rng(17)
    cases = []
    for ka, kb in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 4), (3, 4), (3, 7), (4, 4), (5, 6)]:
        a, b = _random_ngon(rng, ka).vertices, _random_ngon(rng, kb).vertices
        cases.append((a, b))  # apart or crossing
        cases.append((a, b - b[-1] + a[0]))  # sharing a vertex
        cases.append((a, b - b[0] + (a[0] + a[-1]) / 2.0))  # a vertex on an edge
        cases.append((a, a.mean(axis=0) + 0.01 * (b - b.mean(axis=0))))  # nested, other vertex count
    # collinear segments and points on one tilted line, apart and overlapping
    u = np.array([math.cos(0.3), math.sin(0.3)])
    on_line = [np.outer(t, u) for t in ([0.1], [0.1, 0.4], [0.5, 0.9], [0.3, 0.7], [0.4, 0.8])]
    cases += [(p, q) for p in on_line for q in on_line]
    # cantor depth-4 cells 1122 and 1222 in a frame rotated by 0.02 rad
    s = builtin("cantor")
    g = similarity_map(1.0, 0.02)
    g_inv = g.inverse()
    maps = tuple(compose(g, compose(w, g_inv)) for w in s.child_maps)
    t = build_tree(dataclasses.replace(s, base=apply(g, s.base), child_maps=maps), 4)
    cases.append(tuple(tree_polygon(t, Address(w, 2, 3)).vertices for w in [(1, 1, 2, 2), (1, 2, 2, 2)]))
    # a vertex at the midpoint of an edge: rounding leaves the boundaries
    # about 1e-17 apart, and neither bounding box holds the other, so no
    # containment test turns that into 0
    rng = np.random.default_rng(121)
    a, b = _random_ngon(rng, 4).vertices, _random_ngon(rng, 4).vertices
    cases.append((a, b - b[0] + (a[0] + a[1]) / 2.0))
    for a, b in cases:
        pa, pb = ConvexPolygon._unchecked(a), ConvexPolygon._unchecked(b)
        assert min_distance(pa, pb) == min_distance_oracle(a, b)
        assert min_distance(pb, pa) == min_distance_oracle(b, a)
        if a.shape == b.shape:
            got = PairDistanceEvaluator(np.stack([a, b])).distances([0, 1], [1, 0])
            assert got.tolist() == [min_distance_oracle(a, b), min_distance_oracle(b, a)]


def test_pair_distance_evaluator_bitwise_matches_oracle_on_levels():
    # sibling pairs touch along shared edges; random pairs are mostly apart
    rng = np.random.default_rng(23)
    for name, depth in [("carpet", 2), ("pascal3", 2), ("koch", 5), ("cantor", 4)]:
        V = build_tree(builtin(name), depth).vertices[depth]
        k = V.shape[0]
        ii = np.concatenate([np.arange(k - 1), rng.integers(0, k, 150)])
        jj = np.concatenate([np.arange(1, k), rng.integers(0, k, 150)])
        got = PairDistanceEvaluator(V).distances(ii, jj)
        assert got.tolist() == [min_distance_oracle(V[i], V[j]) for i, j in zip(ii, jj)], name


def test_point_distances_bitwise_match_scalar_oracle():
    rng = np.random.default_rng(29)
    for k in (1, 2, 3, 4, 7):
        cells, points = [], []
        for _ in range(8):
            v = _random_ngon(rng, k).vertices
            nxt = np.roll(v, -1, axis=0)
            e = nxt - v
            out = np.stack([e[:, 1], -e[:, 0]], axis=1) / np.maximum(np.hypot(e[:, 0], e[:, 1]), 1e-300)[:, None]
            mid = (v + nxt) / 2.0
            # inside, at the vertices, on the edges, just outside them (within
            # and beyond the 1e-9 tolerance), and away
            near = [v.mean(axis=0), *v, *mid, *(mid + 5e-10 * out), *(mid + 3e-9 * out)]
            near += list(v + rng.uniform(-2.0, 2.0, v.shape))
            cells += [v] * len(near)
            points += near
        cells, points = np.stack(cells), np.array(points)
        want = [point_distance_oracle(q, v) for q, v in zip(points, cells)]
        assert point_distances(points, cells).tolist() == want, k
        assert [point_distances(q[None], v[None])[0] for q, v in zip(points, cells)] == want, k
        for tol in (0.0, 1e-9):
            got = _inside(points, cells, tol).tolist()
            assert got == [contains_oracle(v, q, tol) for q, v in zip(points, cells)], (k, tol)


# ---------------------------------------------------------------------------
# intersection / overlap


def test_intersection_area_identity():
    assert overlap_areas(UNIT_SQUARE.vertices[None], UNIT_SQUARE.vertices[None])[0] == pytest.approx(1.0, rel=1e-12)


def test_intersection_area_edge_adjacent():
    assert overlap_areas(square(0, 0, 1).vertices[None], square(1, 0, 1).vertices[None])[0] == pytest.approx(0.0, abs=1e-12)


def test_intersection_area_half_overlap():
    b = ConvexPolygon(np.array([[0.5, 0.0], [1.5, 0.0], [1.5, 1.0], [0.5, 1.0]]))
    assert overlap_areas(UNIT_SQUARE.vertices[None], b.vertices[None])[0] == pytest.approx(0.5, rel=1e-12)


def test_intersection_area_degenerate_is_zero():
    assert overlap_areas(SEGMENT.vertices[None], UNIT_SQUARE.vertices[None])[0] == 0.0


def test_overlap_areas_degenerate_and_empty():
    sq = UNIT_SQUARE.vertices[None]
    assert overlap_areas(SEGMENT.vertices[None], sq).tolist() == [0.0]
    assert overlap_areas(sq, POINT.vertices[None]).tolist() == [0.0]
    assert overlap_areas(np.empty((0, 4, 2)), np.empty((0, 3, 2))).shape == (0,)


def test_overlap_areas_subject_missing_the_clip():
    far = square(5.0, 5.0, 1.0).vertices
    half = np.array([[0.5, 0.0], [1.5, 0.0], [1.5, 1.0], [0.5, 1.0]])
    got = overlap_areas(np.stack([far, half, far]), np.stack([UNIT_SQUARE.vertices] * 3))
    assert got.tolist() == [0.0, 0.5, 0.0]


def test_overlap_areas_batch_matches_scalar_oracle():
    # rows of one batch clip to different vertex counts, some to 8 or more
    rng = np.random.default_rng(7)
    subjects, clips = [], []
    while len(subjects) < 300:
        a, b = rng.uniform(-1.0, 1.0, (7, 2)), rng.uniform(-1.0, 1.0, (6, 2))
        ha, hb = ConvexHull(a).vertices, ConvexHull(b).vertices
        if len(ha) == 5 and len(hb) == 4:
            subjects.append(a[ha])
            clips.append(b[hb])
    got = overlap_areas(np.stack(subjects), np.stack(clips))
    want = [oracle_intersection_area(a, b) for a, b in zip(subjects, clips)]
    assert got.tolist() == want
    counts = {clip_by_convex(a, b).shape[0] for a, b in zip(subjects, clips)}
    assert 0 in counts and max(counts) >= 8


def test_segment_overlap_measure():
    a = ConvexPolygon(np.array([[0.0, 0.0], [0.5, 0.0]]))
    b = ConvexPolygon(np.array([[0.25, 0.0], [1.0, 0.0]]))
    c = ConvexPolygon(np.array([[0.25, 0.5], [1.0, 0.5]]))
    one = [overlap_measures(x.vertices[None], y.vertices[None], "length")[0] for x, y in [(a, b), (a, c), (b, a)]]
    assert one == [pytest.approx(0.25, abs=1e-15), 0.0, one[0]]
    stack = np.stack([a.vertices, a.vertices, b.vertices])
    got = overlap_measures(stack, np.stack([b.vertices, c.vertices, a.vertices]), "length")
    assert got.tolist() == one
    with pytest.raises(ValueError):
        overlap_measures(stack, stack, "volume")


def test_overlap_lengths_bitwise_match_scalar_oracle():
    # collinear pairs at random scales, reversed, reduced to points, and
    # with one vertex moved off the line by less and by more than tol
    rng = np.random.default_rng(17)
    P, tol = 4000, 1e-9
    angle = rng.uniform(-np.pi, np.pi, P)
    u = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    scale = 10.0 ** rng.uniform(-4, 1, P)
    start = rng.uniform(-3.0, 3.0, (P, 1, 2))
    S = start + scale[:, None, None] * rng.uniform(-1.0, 1.0, (P, 2, 1)) * u[:, None]
    C = start + scale[:, None, None] * rng.uniform(-1.0, 1.0, (P, 2, 1)) * u[:, None]
    off = np.zeros((P, 2))
    off[np.arange(P), rng.integers(0, 2, P)] = rng.choice([0.0, 0.3, 0.9, 1.1, 3.0, 1e3], P) * tol
    C_off = C + off[..., None] * np.stack([-u[:, 1], u[:, 0]], axis=1)[:, None]
    cases = [(S, C), (S[:, ::-1], C), (S, C[:, ::-1]), (S, C_off), (C_off, S), (S[:, :1], C), (S, C[:, :1])]
    for a, b in cases:
        got = overlap_measures(a, b, "length", tol)
        assert got.tolist() == [segment_overlap_length_oracle(x, y, tol) for x, y in zip(a, b)]
    got = overlap_measures(S, C_off, "length", tol)
    assert (got[off.max(axis=1) > 2 * tol] == 0.0).all() and (got > 0.0).sum() > P // 4
    with pytest.raises(ValueError):
        overlap_measures(UNIT_SQUARE.vertices[None], SEGMENT.vertices[None], "length")


# ---------------------------------------------------------------------------
# apply / compose


def test_apply_bitwise_matches_per_map_oracle():
    rng = np.random.default_rng(13)
    for V in (1, 2, 3, 4, 6):
        for _ in range(300):
            m = AffineMap2(rng.uniform(-2.0, 2.0, (2, 2)), rng.uniform(-3.0, 3.0, 2))
            v = rng.uniform(-5.0, 5.0, (V, 2))
            if abs(m.det) > 1e-9:
                assert apply(m, ConvexPolygon._unchecked(v)).vertices.tobytes() == image_oracle(m, v).tobytes()


def test_apply_identity():
    out = apply(AffineMap2(np.eye(2), np.zeros(2)), KOCH_BASE)
    assert np.array_equal(out.vertices, KOCH_BASE.vertices)


def test_apply_scale_third():
    m = AffineMap2(np.eye(2) / 3.0, np.zeros(2))
    out = apply(m, UNIT_SQUARE)
    assert np.allclose(out.vertices, UNIT_SQUARE.vertices / 3.0)


def test_apply_reflection_restores_ccw():
    refl = AffineMap2(np.diag([1.0, -1.0]), np.zeros(2))
    out = apply(refl, KOCH_BASE)
    v = out.vertices
    signed = 0.5 * np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
    assert signed > 0.0


def test_apply_singular_raises():
    with pytest.raises(SingularMapError):
        apply(AffineMap2(np.zeros((2, 2)), np.zeros(2)), UNIT_SQUARE)


def test_compose_identity_neutral():
    m = similarity_map(0.5, 0.3, (0.2, -0.1))
    left = compose(AffineMap2(np.eye(2), np.zeros(2)), m)
    right = compose(m, AffineMap2(np.eye(2), np.zeros(2)))
    assert np.allclose(left.linear, m.linear) and np.allclose(left.translation, m.translation)
    assert np.allclose(right.linear, m.linear) and np.allclose(right.translation, m.translation)


def test_compose_scales():
    third = AffineMap2(np.eye(2) / 3.0, np.zeros(2))
    ninth = compose(third, third)
    assert np.allclose(ninth.linear, np.eye(2) / 9.0)


def test_compose_cantor_maps():
    w1 = AffineMap2(np.eye(2) / 3.0, np.zeros(2))
    w2 = AffineMap2(np.eye(2) / 3.0, np.array([2 / 3, 0.0]))
    w2w1 = compose(w2, w1)
    image = w2w1.transform(np.array([[0.0, 0.0]]))[0]
    assert image[0] == pytest.approx(2 / 3, abs=1e-15)  # w1(0)=0, then w2(0)=2/3


# ---------------------------------------------------------------------------
# property tests

finite_coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


@st.composite
def convex_polygons(draw):
    n = draw(st.integers(min_value=4, max_value=9))
    pts = np.array([[draw(finite_coord), draw(finite_coord)] for _ in range(n)])
    try:
        hull = ConvexHull(pts)
    except Exception:
        assume(False)
    poly = pts[hull.vertices]
    assume(measure(ConvexPolygon._unchecked(poly), "area") > 0.05)
    diffs = poly[:, None, :] - poly[None, :, :]
    d = np.hypot(diffs[..., 0], diffs[..., 1])
    np.fill_diagonal(d, np.inf)
    assume(d.min() > 1e-3)
    return ConvexPolygon(poly)


@st.composite
def affine_maps(draw):
    entries = [draw(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)) for _ in range(6)]
    lin = np.array([[entries[0], entries[1]], [entries[2], entries[3]]])
    assume(abs(lin[0, 0] * lin[1, 1] - lin[0, 1] * lin[1, 0]) > 0.05)
    return AffineMap2(lin, np.array(entries[4:]))


@settings(max_examples=60, deadline=None)
@given(m=affine_maps(), p=convex_polygons())
def test_area_scales_by_determinant(m, p):
    assert measure(apply(m, p), "area") == pytest.approx(abs(m.det) * measure(p, "area"), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    p=convex_polygons(),
    ratio=st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
    angle=st.floats(min_value=-3.2, max_value=3.2, allow_nan=False),
    reflect=st.booleans(),
)
def test_diameter_scales_under_similarity(p, ratio, angle, reflect):
    m = similarity_map(ratio, angle, (0.3, -0.7), reflect=reflect)
    assert diameter(apply(m, p)) == pytest.approx(ratio * diameter(p), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(a=affine_maps(), b=affine_maps(), c=affine_maps())
def test_compose_is_associative(a, b, c):
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert np.allclose(left.linear, right.linear, rtol=0, atol=1e-12)
    assert np.allclose(left.translation, right.translation, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(a=convex_polygons(), b=convex_polygons())
def test_intersection_bounded_by_both_areas(a, b):
    inter = overlap_areas(a.vertices[None], b.vertices[None])[0]
    assert inter <= min(measure(a, "area"), measure(b, "area")) + 1e-12


@settings(max_examples=200, deadline=None)
@given(a=convex_polygons(), b=convex_polygons(), shift=st.tuples(finite_coord, finite_coord))
def test_overlap_areas_bitwise_matches_scalar_oracle(a, b, shift):
    # up to 9 vertices each, so clipped polygons reach numpy's pairwise
    # summation at 8 or more terms
    b = ConvexPolygon(b.vertices + np.array(shift) / 2.0)
    assert overlap_areas(a.vertices[None], b.vertices[None])[0] == oracle_intersection_area(a.vertices, b.vertices)
    assert overlap_areas(b.vertices[None], a.vertices[None]).tolist() == [oracle_intersection_area(b.vertices, a.vertices)]


@settings(max_examples=40, deadline=None)
@given(a=convex_polygons(), b=convex_polygons())
def test_min_distance_zero_iff_touching(a, b):
    d = min_distance(a, b)
    inter = overlap_areas(a.vertices[None], b.vertices[None])[0]
    if inter > 1e-9:
        assert d == 0.0
    if d > 1e-9:
        assert inter <= 1e-12


@st.composite
def ngons(draw):
    """A convex ccw polygon of 1 to 7 vertices on a random circle."""
    k = draw(st.integers(min_value=1, max_value=7))
    angles = draw(st.lists(st.floats(min_value=0.0, max_value=6.28), min_size=k, max_size=k, unique=True))
    center = np.array([draw(finite_coord), draw(finite_coord)])
    radius = draw(st.floats(min_value=0.05, max_value=2.0))
    angles = np.sort(np.array(angles))
    try:
        return ConvexPolygon(center + radius * np.stack([np.cos(angles), np.sin(angles)], axis=1))
    except ValueError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(
    a=ngons(),
    b=ngons(),
    place=st.sampled_from(["free", "vertex", "edge", "nested"]),
    at=st.integers(min_value=0, max_value=6),
)
def test_min_distance_bitwise_matches_edge_pair_oracle(a, b, place, at):
    # mixed vertex counts on the two sides; b is left where it was drawn,
    # moved to touch a at a vertex or inside an edge, or shrunk into a
    va, vb = a.vertices, b.vertices
    i, j = at % va.shape[0], at % vb.shape[0]
    if place == "vertex":
        vb = vb - vb[j] + va[i]
    elif place == "edge":
        vb = vb - vb[j] + (va[i] + va[(i + 1) % va.shape[0]]) / 2.0
    elif place == "nested":
        vb = va.mean(axis=0) + 1e-3 * (vb - vb.mean(axis=0))
    pa, pb = ConvexPolygon._unchecked(va), ConvexPolygon._unchecked(vb)
    assert min_distance(pa, pb) == min_distance_oracle(va, vb)
    assert min_distance(pb, pa) == min_distance_oracle(vb, va)
    if va.shape == vb.shape:
        got = PairDistanceEvaluator(np.stack([va, vb])).distances([0, 1], [1, 0])
        assert got.tolist() == [min_distance_oracle(va, vb), min_distance_oracle(vb, va)]


# ---------------------------------------------------------------------------
# module structure


def test_private_names_cross_modules_only_from_geometry():
    # geometry holds the shared array kernels; every other module keeps its
    # underscore names to itself
    src = Path(__file__).resolve().parents[1] / "src" / "porofractal"
    crossing = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and not module.startswith("porofractal"):
                continue
            if module.rsplit(".", 1)[-1] == "geometry":
                continue
            crossing += [f"{path.name}: {module}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert crossing == []


def test_public_names_have_callers_outside_tests():
    # a public module-level function or class is used or imported elsewhere
    # in src/, by a demo or the benchmark, and so is a public method or
    # property of a public class; a name only tests or the README reach is
    # dead API
    root = Path(__file__).resolve().parents[1]
    modules = sorted((root / "src" / "porofractal").glob("*.py"))
    scripts = sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in modules + scripts}
    defined = [
        node.name
        for path in modules
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    methods = [
        (node.name, item.name)
        for path in modules
        for node in trees[path].body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]
    stems = {path.stem for path in modules}
    used, read = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Attribute):
                # module.name, as in `render.render_construction`
                owner = node.value.attr if isinstance(node.value, ast.Attribute) else getattr(node.value, "id", None)
                if owner in stems:
                    used.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    assert [name for name in defined if name not in used] == []
    # a method or property counts as used when an attribute of its name is
    # read, whatever the owner: the match is by name only, so methods that
    # share a name, as the witnesses' to_dict do, pass or fail together
    assert [f"{cls}.{name}" for cls, name in methods if name not in read] == []


def test_public_parameters_are_read():
    # every parameter of a public function, or of a public method of a
    # public class, is read in its body: a parameter nothing reads is an
    # option that changes nothing
    src = Path(__file__).resolve().parents[1] / "src" / "porofractal"
    unread = []
    for path in sorted(src.glob("*.py")):
        body = ast.parse(path.read_text()).body
        functions = [(node.name, node) for node in body if isinstance(node, ast.FunctionDef)]
        functions += [
            (f"{node.name}.{item.name}", item)
            for node in body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        ]
        for name, fn in functions:
            if name.rsplit(".", 1)[-1].startswith("_"):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.stem}.{name}({p})" for p in params if p not in ("self", "cls") and p not in read]
    assert unread == []
