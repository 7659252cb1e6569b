import gc
import itertools
import json
import math
import weakref

import numpy as np
import pytest

from porofractal import geometry
from porofractal.codespace import Address, Code, enumerate_words, periodic_code
from porofractal.config import Caps
from porofractal.errors import (
    CapExceededError,
    ParseError,
    SingularMapError,
    UnknownSchemeError,
    ValidationError,
)
from porofractal.geometry import AffineMap2, Point2, _fold, apply, measure, measures, overlap_measures
from porofractal.ifs import compose_word, from_scheme
from porofractal.scheme import (
    BUILTIN_NAMES,
    Cell,
    Scheme,
    address_vertices,
    build_tree,
    builtin,
    dumps,
    load,
    realize_point,
    realize_points,
    to_document,
    validate_geometry,
)
from porofractal.verifier import full_verify

from conftest import (
    accumulated_map_oracle,
    address_oracle,
    address_vertices_oracle,
    build_levels_oracle,
    fold_cases,
    realize_point_oracle,
    similarity_conjugate,
    similarity_map,
    tree_polygon,
)

SQRT3 = math.sqrt(3.0)


def kept_words(m, n):
    words = [()]
    for _ in range(n):
        words = [w + (j,) for w in words for j in range(1, m + 1)]
    return words


# ---------------------------------------------------------------------------
# built-ins


def test_builtin_names_and_unknown():
    assert BUILTIN_NAMES == ("carpet", "pascal3", "koch", "cantor")
    with pytest.raises(UnknownSchemeError):
        builtin("gasket")


def test_builtins_satisfy_all_geometric_invariants():
    for name in BUILTIN_NAMES:
        assert validate_geometry(builtin(name)) == []


def test_carpet_level1_measures_and_ratio():
    t = build_tree(builtin("carpet"), 1)
    mus = measures(t.vertices[1], "area").tolist()
    assert mus == pytest.approx([1 / 9] * 9, rel=1e-12)
    kept = sum(mus[:8])
    assert kept / mus[8] == pytest.approx(8.0, abs=1e-12)


def test_pascal3_ratio():
    t = build_tree(builtin("pascal3"), 1)
    mus = measures(t.vertices[1], "area").tolist()
    assert sum(mus[:6]) / sum(mus[6:]) == pytest.approx(2.0, abs=1e-12)


def test_koch_ratio_and_equal_areas():
    t = build_tree(builtin("koch"), 1)
    areas = measures(t.vertices[1], "area").tolist()
    assert areas == pytest.approx([SQRT3 / 36] * 3, rel=1e-12)
    assert (areas[0] + areas[1]) / areas[2] == pytest.approx(2.0, abs=1e-12)


def test_cantor_maps():
    s = builtin("cantor")
    x = np.array([[1.0, 0.0]])
    assert s.child_maps[0].transform(x)[0][0] == pytest.approx(1 / 3, abs=1e-15)
    assert s.child_maps[1].transform(x)[0][0] == pytest.approx(1.0, abs=1e-15)
    assert s.child_maps[2].transform(x)[0][0] == pytest.approx(2 / 3, abs=1e-15)
    assert s.measure_kind == "length"


# ---------------------------------------------------------------------------
# document round trip and validation


def test_document_round_trip_matches_builtin():
    for name in BUILTIN_NAMES:
        s = builtin(name)
        s2 = load(dumps(s))
        assert np.allclose(s2.base.vertices, s.base.vertices, rtol=0, atol=1e-12)
        for a, b in zip(s2.child_maps, s.child_maps):
            assert np.allclose(a.linear, b.linear, rtol=0, atol=1e-12)
            assert np.allclose(a.translation, b.translation, rtol=0, atol=1e-12)
        assert (s2.name, s2.m, s2.M, s2.measure_kind) == (s.name, s.m, s.M, s.measure_kind)


def test_load_rejects_m_equal_M():
    doc = to_document(builtin("carpet"))
    doc["m"] = doc["M"]
    with pytest.raises(ValidationError) as exc:
        load(doc)
    assert any("m < M" in v for v in exc.value.violations)


@pytest.mark.parametrize("m,M", [(1, 9), (9, 8), (2.0, 9), ("8", 9), (8, 9.0)], ids=["m1", "m-above-M", "float-m", "str-m", "float-M"])
def test_load_rejects_split_indices_that_are_not_integers_above_1(m, M):
    # one rule, in Scheme itself: integers with 1 < m < M; on a relaxed load too
    doc = {**to_document(builtin("carpet")), "m": m, "M": M}
    with pytest.raises(ValidationError) as exc:
        load(doc, check_geometry=False)
    assert exc.value.violations == ["split indices must be integers with 1 < m < M"]


def test_load_rejects_bad_json():
    with pytest.raises(ParseError):
        load("{not json")
    with pytest.raises(ParseError):
        load({"name": "x"})


def test_load_reports_overlap_and_partition_for_perturbed_translation():
    doc = to_document(builtin("carpet"))
    doc["maps"][0]["translation"][0] += 0.1
    with pytest.raises(ValidationError) as exc:
        load(doc)
    text = "\n".join(exc.value.violations)
    assert "overlap" in text
    assert "partition" in text


_Z = [[0.0, 0.0], [0.0, 0.0]]
_OVERLAP = "children {} and {} overlap (measure {})"
_PARTITION = "children do not partition the base (covered measure {} vs 1.0)"


@pytest.mark.parametrize(
    "name,edits,want",
    [
        ("carpet", [(2, "linear", _Z)], ["child map 2 is singular"]),
        (
            "carpet",
            [(1, "linear", [[1.0, 0.0], [0.0, 1 / 3]])],
            ["kept child map 1 is not contractive (norm 1)", _OVERLAP.format(1, 2, 0.111111), _OVERLAP.format(1, 3, 0.111111)],
        ),
        ("carpet", [(9, "translation", [2.0, 1 / 3])], ["child 9 image is not contained in the base"]),
        ("carpet", [(9, "translation", [0.0, 0.0])], [_OVERLAP.format(1, 9, 0.111111), _PARTITION.format("0.8888888888888891")]),
        ("carpet", [(9, "linear", [[0.3, 0.0], [0.0, 0.3]]), (9, "translation", [0.35, 0.35])], [_PARTITION.format("0.978888888888889")]),
        ("carpet", [(1, "linear", _Z), (9, "translation", [1 / 3, 0.0])], ["child map 1 is singular", _OVERLAP.format(2, 9, 0.111111)]),
        ("carpet", [(j, "linear", _Z) for j in range(1, 10)], [f"child map {j} is singular" for j in range(1, 10)]),
        ("cantor", [(2, "linear", _Z)], ["child map 2 is singular"]),
        (
            "cantor",
            [(1, "linear", [[1.5, 0.0], [0.0, 1.5]])],
            [
                "kept child map 1 is not contractive (norm 1.5)",
                "child 1 image is not contained in the base",
                _OVERLAP.format(1, 2, 0.333333),
                _OVERLAP.format(1, 3, 0.333333),
                _PARTITION.format("1.5000000000000002"),
            ],
        ),
        ("cantor", [(3, "translation", [2.0, 0.0])], ["child 3 image is not contained in the base"]),
        ("cantor", [(3, "translation", [0.0, 0.0])], [_OVERLAP.format(1, 3, 0.333333), _PARTITION.format("0.6666666666666667")]),
        ("cantor", [(3, "linear", [[0.3, 0.0], [0.0, 0.3]]), (3, "translation", [0.35, 0.0])], [_PARTITION.format("0.9666666666666667")]),
        ("cantor", [(1, "linear", _Z), (3, "translation", [2 / 3, 0.0])], ["child map 1 is singular", _OVERLAP.format(2, 3, 0.333333)]),
        ("cantor", [(j, "linear", _Z) for j in range(1, 4)], [f"child map {j} is singular" for j in range(1, 4)]),
    ],
)
def test_validate_geometry_messages(name, edits, want):
    # every message, in order, with the exact covered measure of the
    # sequential sums; with all maps singular only those lines come back
    doc = to_document(builtin(name))
    for j, key, value in edits:
        doc["maps"][j - 1][key] = value
    assert validate_geometry(load(doc, check_geometry=False)) == want
    with pytest.raises(ValidationError) as exc:
        load(doc)
    assert exc.value.violations == want


def test_load_relaxed_skips_geometry_checks():
    doc = to_document(builtin("carpet"))
    doc["maps"][0]["translation"][0] += 0.1
    s = load(doc, check_geometry=False)
    assert s.M == 9


# ---------------------------------------------------------------------------
# tree construction


def test_carpet_tree_counts_depth2():
    t = build_tree(builtin("carpet"), 2)
    assert len(t.vertices[1]) == 9
    assert len(t.vertices[2]) == 72
    assert len(t.kept_cells(2)) == 64


def test_cell_counts_all_builtins():
    for name in BUILTIN_NAMES:
        s = builtin(name)
        t = build_tree(s, 4)
        for n in range(1, 5):
            assert len(t.kept_cells(n)) == s.m**n
            assert len(t.complement_rows(n)) == s.m ** (n - 1) * (s.M - s.m)


def test_build_tree_bitwise_matches_per_cell_oracle():
    # every level's vertices equal the per-cell compose/_image route and the
    # fold of each row's address exactly, and the rows decode to the
    # oracle's addresses in the same order
    g = similarity_map(0.7, 0.4, (0.3, -0.2), reflect=True)
    cases = [(builtin(n), d) for n, d in [("carpet", 4), ("pascal3", 4), ("koch", 10), ("cantor", 9)]]
    cases += [(similarity_conjugate(builtin("koch"), g), 8), (similarity_conjugate(builtin("carpet"), g), 3)]
    for s, depth in cases:
        t = build_tree(s, depth)
        flipped = 0
        for n, (addresses, verts, linear) in enumerate(build_levels_oracle(s, depth)):
            assert np.array_equal(t.vertices[n], verts), (s.name, n)
            assert address_vertices(s, addresses).tobytes() == t.vertices[n].tobytes(), (s.name, n)
            assert [t.address(n, i) for i in range(len(addresses))] == addresses, (s.name, n)
            flipped += int((np.linalg.det(linear) < 0.0).sum())
        # koch's kept maps reverse orientation, so its rows get reordered
        assert (flipped > 0) == s.name.startswith("koch"), s.name


def test_address_row_round_trip(make_tree):
    # every row decodes as the oracle does, depth 0 included; koch d12 is
    # sampled
    for name, depth in [("carpet", 3), ("pascal3", 3), ("koch", 8), ("cantor", 9), ("koch", 12)]:
        t = make_tree(name, depth)
        for n in range(depth + 1):
            rows = np.arange(len(t.vertices[n]))
            if depth == 12:
                rows = np.unique(np.concatenate([rows[::37], rows[-3:]]))
            want = [tuple(w) for w in address_oracle(t, n, rows).tolist()]
            assert [t.address(n, r).symbols for r in rows.tolist()] == want, (name, n)
            kept = t.kept_rows(n).tolist()
            assert all(t.address(n, i).is_kept for i in kept)
        with pytest.raises(IndexError):
            t.address(depth, len(t.vertices[depth]))
        # a depth outside 0..depth is refused, not read from the end
        for bad in (-1, -2, depth + 1):
            with pytest.raises(IndexError, match=f"depth {bad} "):
                t.address(bad, 0)


def test_verify_path_makes_no_cells(monkeypatch):
    made = []
    init = Cell.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Cell, "__init__", counting_init)
    for name, depth in [("carpet", 3), ("koch", 8)]:
        full_verify(build_tree(builtin(name), depth))
    assert made == []
    # the counter sees the cells kept_cells makes
    build_tree(builtin("koch"), 2).kept_cells(2)
    assert len(made) == 4


def test_tree_is_freed_without_the_cycle_collector():
    # a reference cycle through the tree would keep its arrays alive until
    # the cyclic collector runs, so a process building trees would grow
    gc.disable()
    try:
        t = build_tree(builtin("koch"), 6)
        full_verify(t)
        t.kept_cells(2)
        t.address(3, 5)
        ref = weakref.ref(t)
        del t
        assert ref() is None
    finally:
        gc.enable()


def test_cantor_cell_21_interval():
    t = build_tree(builtin("cantor"), 2)
    cell = tree_polygon(t, Address((2, 1), 2, 3))
    assert cell.vertices[:, 0] == pytest.approx([2 / 3, 7 / 9], abs=1e-15)


def test_partition_identity_all_builtins():
    for name in BUILTIN_NAMES:
        s = builtin(name)
        t = build_tree(s, 4)
        for n in range(1, 4):
            assert len(t.vertices[n + 1]) == len(t.kept_rows(n)) * s.M
            for p, row in enumerate(t.kept_rows(n).tolist()):
                block = range(p * s.M, (p + 1) * s.M)
                assert [t.address(n + 1, r).symbols[:-1] for r in block] == [t.address(n, row).symbols] * s.M
                total = sum(measures(t.vertices[n + 1][block.start : block.stop], s.measure_kind).tolist())
                assert total == pytest.approx(measures(t.vertices[n][row : row + 1], s.measure_kind)[0], rel=1e-12)


def test_nesting_all_builtins():
    for name in BUILTIN_NAMES:
        s = builtin(name)
        t = build_tree(s, 3)
        for n in (2, 3):
            for row, child in enumerate(t.vertices[n]):
                parent = tree_polygon(t, Address(t.address(n, row).symbols[:-1], s.m, s.M))
                child_mu = measures(child[None], s.measure_kind)[0]
                inter = overlap_measures(child[None], parent.vertices[None], s.measure_kind)[0]
                assert inter == pytest.approx(child_mu, rel=1e-9)


def test_kept_fraction_matches_geometric_decay():
    # direct summation oracle: kept measure fraction at depth n is (8/9)^n
    t = build_tree(builtin("carpet"), 4)
    for n in range(1, 5):
        kept = sum(measure(c.polygon, "area") for c in t.kept_cells(n))
        assert kept == pytest.approx((8 / 9) ** n, abs=1e-9)


def test_composition_order_gives_nested_cells():
    # cell(w + (j,)) must lie inside cell(w): first symbol outermost
    s = builtin("carpet")
    for w in [(1,), (2, 5), (8, 1, 3)]:
        parent = address_vertices(s, [Address(w[:-1], 8, 9)])
        child = address_vertices(s, [Address(w, 8, 9)])
        inter = overlap_measures(child, parent, "area")[0]
        assert inter == pytest.approx(measures(child, "area")[0], rel=1e-9)


def test_cantor_builds_and_verifies_past_tiny_determinants():
    # depth-10 cells have |det| = 9**-10, far below the geometric tolerance;
    # only the child maps are checked for singularity
    t = build_tree(builtin("cantor"), 10)
    assert len(t.vertices[10]) == 3 * 2**9
    assert full_verify(t, expected_ratio=2.0).overall == "pass"


def test_singular_child_map_raises():
    s = builtin("carpet")
    s = Scheme(s.name, s.m, s.M, s.base, s.child_maps[:8] + (AffineMap2(np.zeros((2, 2)), np.zeros(2)),))
    with pytest.raises(SingularMapError):
        build_tree(s, 1)
    with pytest.raises(SingularMapError):
        address_vertices(s, [Address((1, 9), 8, 9)])


def test_tree_cap():
    with pytest.raises(CapExceededError):
        build_tree(builtin("carpet"), 8, caps=Caps(cells=10_000))


def test_realize_depth_cap():
    s = builtin("cantor")
    with pytest.raises(CapExceededError):
        realize_point(s, periodic_code(Address((1,), 2, 3)), 200, caps=Caps(words=100))


# ---------------------------------------------------------------------------
# realization


def test_realize_cantor_fixed_points():
    s = builtin("cantor")
    p, bound = realize_point(s, periodic_code(Address((1,), 2, 3)), 20)
    assert bound <= 3.0**-20 * (1 + 1e-12)
    assert abs(p.x) <= 3.0**-20 and p.y == 0.0
    q, _ = realize_point(s, periodic_code(Address((2,), 2, 3)), 20)
    assert abs(q.x - 1.0) <= 3.0**-20


def test_realize_carpet_corner():
    s = builtin("carpet")
    p, bound = realize_point(s, periodic_code(Address((1,), 8, 9)), 12)
    limit = math.sqrt(2.0) * 3.0**-12
    assert bound <= limit * (1 + 1e-12)
    assert math.hypot(p.x, p.y) <= limit


def test_realize_rejects_complement_symbols():
    s = builtin("cantor")
    with pytest.raises(ValueError):
        realize_point(s, Code((3,), (1,), 3), 2)


def test_realize_bounds_monotone():
    for name in BUILTIN_NAMES:
        s = builtin(name)
        code = periodic_code(Address((1, 2), s.m, s.M))
        bounds = [realize_point(s, code, d)[1] for d in range(1, 14)]
        assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_accumulated_map_matches_tree_cells():
    s = builtin("koch")
    t = build_tree(s, 3)
    for w in kept_words(2, 3):
        L, T = _fold(s._children, np.array([w]))
        cell = tree_polygon(t, Address(w, 2, 3))
        assert apply(AffineMap2(L[0], T[0]), s.base).vertices.tobytes() == cell.vertices.tobytes()


def test_realize_points_bitwise_matches_per_symbol_oracle():
    for s in fold_cases():
        words = [w for n in (1, 2) for w in itertools.product(range(1, s.m + 1), repeat=n)]
        codes = [Code((), w, s.m) for w in words] + [Code((2, 1), (1, 2), s.m)]
        for depth in range(1, 21):
            points, bounds = realize_points(s, codes, depth)
            assert points.shape == (len(codes), 2) and bounds.shape == (len(codes),)
            for k, c in enumerate(codes):
                p, bound = realize_point_oracle(s, c, depth)
                assert points[k].tobytes() == p.tobytes() and bounds[k] == bound, (s.name, c, depth)
            assert realize_point(s, codes[-1], depth) == (Point2(*points[-1].tolist()), bounds[-1])


def test_address_vertices_bitwise_matches_per_symbol_oracle():
    for s in fold_cases():
        groups = [[Address((), s.m, s.M)]]
        for n in (1, 2, 3):
            kept = [Address(w, s.m, s.M) for w in itertools.product(range(1, s.m + 1), repeat=n)]
            groups += [kept, [Address(a.symbols[:-1] + (j,), s.m, s.M) for a in kept[:: s.m] for j in range(s.m + 1, s.M + 1)]]
        for words in groups:
            got = address_vertices(s, words)
            L, T = _fold(s._children, np.array([w.symbols for w in words], dtype=np.intp))
            for k, w in enumerate(words):
                want = address_vertices_oracle(s, w)
                assert got[k].tobytes() == want.tobytes(), (s.name, str(w))
                assert address_vertices(s, [w]).tobytes() == want.tobytes()
                # equal values; test_accumulated_map_bitwise_matches_per_symbol_oracle
                # checks the bits
                oracle = accumulated_map_oracle(s, w.symbols)
                assert np.array_equal(L[k], oracle.linear) and np.array_equal(T[k], oracle.translation)


def test_fold_does_not_depend_on_the_chunk_budget(monkeypatch):
    # the fold gathers the maps of `_chunk_rows(6·W)` columns at a time, and
    # every column is the same stacked step however many are gathered: one
    # column per chunk (budget 7), all at once (2**40), and in between (the
    # real budget cuts 300 twenty-symbol rows into chunks of nine columns)
    rng = np.random.default_rng(19)
    g = similarity_map(rng.uniform(0.25, 4.0), rng.uniform(0.0, 2 * math.pi), rng.uniform(-0.5, 0.5, 2))
    cases = []
    for s in fold_cases() + [similarity_conjugate(builtin("carpet"), g)]:
        words = [Address(tuple(w), s.m, s.M) for w in rng.integers(1, s.m + 1, size=(300, 20)).tolist()]
        cases.append((s, words, [Code(w.symbols[:7], (2, 1), s.m) for w in words]))

    def outputs():
        out = []
        for s, words, codes in cases:
            out += [*realize_points(s, codes, 20), *realize_points(s, codes[:1], 20), address_vertices(s, words)]
            out += [address_vertices(s, words[:1]), compose_word(from_scheme(s), words[0]).vertices]
        return [a.tobytes() for a in out]

    want = outputs()
    for budget in (7, 2**40):
        monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", budget)
        assert outputs() == want, budget


def test_accumulated_map_bitwise_matches_per_symbol_oracle():
    # the fold starts from the first symbol's map, as reduce(compose) does,
    # so even the sign of a zero entry agrees
    rng = np.random.default_rng(5)
    for s in fold_cases():
        for n in (1, 2, 3, 5, 12, 20):
            words = rng.integers(1, s.M + 1, size=(20, n))
            L, T = _fold(s._children, words)
            for k, w in enumerate(words.tolist()):
                oracle = accumulated_map_oracle(s, tuple(w))
                assert L[k].tobytes() == oracle.linear.tobytes(), (s.name, w)
                assert T[k].tobytes() == oracle.translation.tobytes(), (s.name, w)
    L, T = _fold(builtin("koch")._children, np.zeros((1, 0), dtype=np.intp))
    assert L[0].tobytes() == np.eye(2).tobytes() and T[0].tobytes() == np.zeros(2).tobytes()


def test_scheme_document_is_valid_json():
    doc = json.loads(dumps(builtin("koch")))
    assert doc["m"] == 2 and doc["M"] == 3 and len(doc["maps"]) == 3


@pytest.mark.parametrize("name,depth", [("carpet", 3), ("pascal3", 3), ("koch", 6), ("cantor", 9)])
def test_kept_cells_match_kept_rows(name, depth, make_tree):
    # kept_cells reads the kept rows in address order, with the kept words
    # of each length as their addresses; levels is the vertex tuple itself
    t = make_tree(name, depth)
    m, M = t.scheme.m, t.scheme.M
    assert t.levels is t.vertices
    for n in range(depth + 1):
        cells = t.kept_cells(n)
        assert [c.address for c in cells] == enumerate_words(m, n, M=M)
        assert [c.address for c in cells] == [t.address(n, r) for r in t.kept_rows(n).tolist()]
        got = np.stack([c.polygon.vertices for c in cells])
        assert got.tobytes() == t.vertices[n][t.kept_rows(n)].tobytes(), (name, n)
