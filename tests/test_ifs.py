import itertools
import math

import numpy as np
import pytest

from porofractal import ifs
from porofractal.codespace import Address, Code
from porofractal.config import Caps, Tolerances
from porofractal.errors import AmbiguousBranchError, CapExceededError, OutsideAttractorError, SingularMapError
from porofractal.geometry import AffineMap2, ConvexPolygon, Point2, apply
from porofractal.ifs import (
    IteratedSystem,
    SetApproximation,
    compose_word,
    from_scheme,
    inverse_shift,
    iterate_attractor,
    separation_from_maps,
    total_measure,
)
from porofractal.scheme import BUILTIN_NAMES, build_tree, builtin, realize_point
from porofractal.verifier import check_separation, kept_separation
from porofractal.codespace import shift

from conftest import (
    address_vertices_oracle,
    contains_oracle,
    fold_cases,
    iterate_attractor_oracle,
    total_measure_oracle,
    symbol_at_oracle,
    tree_cell,
)


def kept_words(m, n):
    words = [()]
    for _ in range(n):
        words = [w + (j,) for w in words for j in range(1, m + 1)]
    return words


# ---------------------------------------------------------------------------
# construction


def test_from_scheme_cantor_maps():
    sys_ = from_scheme(builtin("cantor"))
    assert sys_.m == 2
    x = np.array([[1.0, 0.0]])
    assert sys_.maps[0].transform(x)[0][0] == pytest.approx(1 / 3, abs=1e-15)
    assert sys_.maps[1].transform(x)[0][0] == pytest.approx(1.0, abs=1e-15)
    assert sys_.measure_kind == "length"


def test_from_scheme_carpet_similarity_ratios():
    sys_ = from_scheme(builtin("carpet"))
    assert sys_.m == 8
    for w in sys_.maps:
        assert w.operator_norm == pytest.approx(1 / 3, rel=1e-12)


def test_from_scheme_koch_similarity_ratios():
    sys_ = from_scheme(builtin("koch"))
    assert sys_.m == 2
    for w in sys_.maps:
        assert w.operator_norm == pytest.approx(1 / math.sqrt(3), rel=1e-12)


def test_iterated_system_rejects_expansive_maps():
    s = builtin("cantor")
    with pytest.raises(ValueError):
        IteratedSystem((s.child_maps[0], s.child_maps[2].inverse()), s.base)


# ---------------------------------------------------------------------------
# attractor iteration


def test_iterate_cantor_one_generation():
    sys_ = from_scheme(builtin("cantor"))
    seed = SetApproximation((sys_.base,), 0)
    out = iterate_attractor(sys_, seed, 1)
    xs = sorted(tuple(c.vertices[:, 0]) for c in out.cells)
    assert xs[0] == pytest.approx((0.0, 1 / 3), abs=1e-15)
    assert xs[1] == pytest.approx((2 / 3, 1.0), abs=1e-15)
    assert total_measure(sys_, out) == pytest.approx(2 / 3, rel=1e-12)


def test_iterate_cantor_five_generations():
    sys_ = from_scheme(builtin("cantor"))
    seed = SetApproximation((sys_.base,), 0)
    out = iterate_attractor(sys_, seed, 5)
    assert len(out.cells) == 32
    assert out.generation == 5
    assert total_measure(sys_, out) == pytest.approx((2 / 3) ** 5, rel=1e-12)


def test_iterate_zero_generations_is_identity():
    sys_ = from_scheme(builtin("koch"))
    seed = SetApproximation((sys_.base,), 0)
    out = iterate_attractor(sys_, seed, 0)
    assert out is not seed and out.cells == seed.cells and out.generation == 0


@pytest.mark.parametrize("name,scale", [("carpet", 8 / 9), ("koch", 2 / 3), ("cantor", 2 / 3), ("pascal3", 2 / 3)])
def test_attractor_measure_decay(name, scale):
    sys_ = from_scheme(builtin(name))
    seed = SetApproximation((sys_.base,), 0)
    base_mu = total_measure(sys_, seed)
    for k in (1, 2, 3):
        out = iterate_attractor(sys_, seed, k)
        assert total_measure(sys_, out) == pytest.approx(base_mu * scale**k, rel=1e-12)


def test_iterate_semigroup_property():
    sys_ = from_scheme(builtin("koch"))
    seed = SetApproximation((sys_.base,), 0)
    combined = iterate_attractor(sys_, seed, 3)
    staged = iterate_attractor(sys_, iterate_attractor(sys_, seed, 1), 2)
    def key(c):
        return tuple(np.round(np.sort(c.vertices, axis=0).ravel(), 12))
    assert sorted(map(key, combined.cells)) == sorted(map(key, staged.cells))


def test_iterate_from_the_base_bitwise_matches_tree_cells():
    for s in fold_cases():
        k = 7 if s.m == 2 else 3
        t = build_tree(s, k)
        for n in range(1, k + 1):
            out = iterate_attractor(from_scheme(s), SetApproximation((s.base,), 0), n)
            want = t.vertices[n][t.kept_rows(n)]
            assert np.stack([c.vertices for c in out.cells]).tobytes() == want.tobytes(), (s.name, n)


@pytest.mark.parametrize("name", ["carpet", "koch"])
def test_iterate_mixed_seed_matches_per_cell_oracle(name):
    # maps vary slowest and the seed cells fastest, whatever their vertex counts
    sys_ = from_scheme(builtin(name))
    seed = (builtin("carpet").base, ConvexPolygon(np.array([[0.2, 0.1], [0.9, 0.3], [0.4, 0.8]])))
    for k in (1, 2, 3):
        out = iterate_attractor(sys_, SetApproximation(seed, 0), k)
        want = iterate_attractor_oracle(sys_.maps, list(seed), k)
        assert len(out.cells) == len(want) == 2 * sys_.m**k and out.generation == k
        for got, ref in zip(out.cells, want):
            assert got.vertices.shape == ref.vertices.shape
            assert np.allclose(got.vertices, ref.vertices, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_total_measure_is_the_per_cell_sum_bitwise(name):
    sys_ = from_scheme(builtin(name))
    for n in range(6):
        out = iterate_attractor(sys_, SetApproximation((sys_.base,), 0), n)
        assert total_measure(sys_, out) == total_measure_oracle(sys_, out.cells), n


def test_total_measure_of_mixed_vertex_counts_adds_in_cell_order():
    # triangles and squares interleave in the cells, so the per-count
    # groups are scattered back before the sum
    sys_ = from_scheme(builtin("carpet"))
    triangle = ConvexPolygon(np.array([[0.2, 0.1], [0.9, 0.3], [0.4, 0.8]]))
    seed = (triangle, builtin("carpet").base, triangle)
    for k in range(4):
        out = iterate_attractor(sys_, SetApproximation(seed, 0), k)
        assert total_measure(sys_, out) == total_measure_oracle(sys_, out.cells), k


def test_singular_system_raises_from_the_level_routes():
    s = builtin("cantor")
    flat = AffineMap2(np.array([[1 / 3, 0.0], [0.0, 0.0]]), np.zeros(2))
    sys_ = IteratedSystem((flat, s.child_maps[1]), s.base)
    seed = SetApproximation((s.base,), 0)
    for k in (1, 3):
        with pytest.raises(SingularMapError):
            iterate_attractor(sys_, seed, k)
    with pytest.raises(SingularMapError):
        separation_from_maps(sys_, 2, "pairwise")
    out = iterate_attractor(sys_, seed, 0)
    assert out.cells == seed.cells and out.generation == 0


def test_iterate_cap():
    sys_ = from_scheme(builtin("carpet"))
    seed = SetApproximation((sys_.base,), 0)
    with pytest.raises(CapExceededError):
        iterate_attractor(sys_, seed, 10, caps=Caps(cells=100))


# ---------------------------------------------------------------------------
# composed words vs tree cells


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_compose_word_matches_tree_cells(name, make_tree):
    s = builtin(name)
    sys_ = from_scheme(s)
    t = make_tree(name, 4)
    for n in range(1, 5):
        for w in kept_words(s.m, n):
            cell = tree_cell(t, Address(w, s.m, s.M))
            poly = compose_word(sys_, Address(w, s.m, s.m))
            assert np.allclose(poly.vertices, cell.polygon.vertices, rtol=0, atol=1e-9)


def test_compose_word_single_symbol_is_level_one_cell():
    s = builtin("carpet")
    sys_ = from_scheme(s)
    poly = compose_word(sys_, Address((1,), 8, 8))
    assert np.allclose(poly.vertices, s.child_maps[0].transform(s.base.vertices), atol=1e-15)


def test_compose_word_cantor_21():
    sys_ = from_scheme(builtin("cantor"))
    poly = compose_word(sys_, Address((2, 1), 2, 2))
    assert poly.vertices[:, 0] == pytest.approx([2 / 3, 7 / 9], abs=1e-15)


def test_compose_word_rejects_bad_input():
    sys_ = from_scheme(builtin("cantor"))
    with pytest.raises(ValueError):
        compose_word(sys_, Address((), 2, 2))


# ---------------------------------------------------------------------------
# inverse branch map


def test_inverse_shift_cantor_examples():
    sys_ = from_scheme(builtin("cantor"))
    q, branch = inverse_shift(sys_, Point2(0.7, 0.0))
    assert branch == 2
    assert q.x == pytest.approx(0.1, abs=1e-12)
    q, branch = inverse_shift(sys_, Point2(0.25, 0.0))
    assert branch == 1
    assert q.x == pytest.approx(0.75, abs=1e-12)


def test_inverse_shift_outside_attractor():
    sys_ = from_scheme(builtin("cantor"))
    with pytest.raises(OutsideAttractorError):
        inverse_shift(sys_, Point2(0.5, 0.0))


def test_inverse_shift_ambiguous_on_touching_images():
    sys_ = from_scheme(builtin("carpet"))
    with pytest.raises(AmbiguousBranchError):
        inverse_shift(sys_, Point2(1 / 3, 0.1))  # on the shared edge of kept squares


def test_inverse_shift_boundary_point_single_branch():
    sys_ = from_scheme(builtin("cantor"))
    q, branch = inverse_shift(sys_, Point2(1 / 3, 0.0))
    assert branch == 1
    assert q.x == pytest.approx(1.0, abs=1e-12)


def test_inverse_shift_checks_singularity_at_the_call_tolerance():
    # |det| = 1e-8 passes the maps' own check (1e-9) and is cached, but is
    # singular at geom = 1e-6, which only the call knows
    tiny = AffineMap2(np.eye(2) * 1e-4, np.zeros(2))
    sys_ = IteratedSystem((tiny, AffineMap2(np.eye(2) / 2.0, np.array([0.5, 0.5]))), builtin("carpet").base)
    q, branch = inverse_shift(sys_, Point2(5e-5, 5e-5))
    assert branch == 1 and q.x == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(SingularMapError):
        inverse_shift(sys_, Point2(5e-5, 5e-5), Tolerances(geom=1e-6))
    assert inverse_shift(sys_, Point2(0.75, 0.75), Tolerances(geom=1e-6))[1] == 2


def _random_codes(rng, count, m=2):
    codes = []
    for _ in range(count):
        pre = tuple(int(v) for v in rng.integers(1, m + 1, size=rng.integers(0, 4)))
        per = tuple(int(v) for v in rng.integers(1, m + 1, size=rng.integers(1, 6)))
        codes.append(Code(pre, per, m))
    return codes


def test_conjugacy_inverse_shift_realizes_symbolic_shift():
    # the geometric branch inverse and the symbolic shift commute with
    # realization on the totally disconnected scheme
    s = builtin("cantor")
    sys_ = from_scheme(s)
    rng = np.random.default_rng(2024)
    for code in _random_codes(rng, 100):
        p, _ = realize_point(s, code, 20)
        q, branch = inverse_shift(sys_, p)
        assert branch == symbol_at_oracle(code, 0)
        r, _ = realize_point(s, shift(code), 20)
        assert math.hypot(q.x - r.x, q.y - r.y) <= 1e-9


# ---------------------------------------------------------------------------
# separation from maps


def test_separation_from_maps_cantor():
    sys_ = from_scheme(builtin("cantor"))
    assert separation_from_maps(sys_, 1, "pairwise") == pytest.approx(1 / 3, abs=1e-12)
    assert separation_from_maps(sys_, 3, "pairwise") == pytest.approx(1 / 27, abs=1e-12)


def test_separation_from_maps_agrees_with_verifier(make_tree):
    for name, mode, depth in [("cantor", "pairwise", 3), ("carpet", "forall_exists", 1), ("koch", "forall_exists", 2)]:
        sys_ = from_scheme(builtin(name))
        via_maps = separation_from_maps(sys_, depth, mode)
        via_tree = check_separation(make_tree(name, depth), mode).extremal["epsilon0"]
        assert via_maps == pytest.approx(via_tree, abs=1e-9)


def test_separation_from_maps_cap():
    sys_ = from_scheme(builtin("carpet"))
    with pytest.raises(CapExceededError):
        separation_from_maps(sys_, 8, caps=Caps(cells=1000))


# ---------------------------------------------------------------------------
# the stacked fold against the per-symbol oracle


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_compose_word_composes_past_nine_symbols(name):
    # the composed map of twenty symbols has |det| far below the geometric
    # tolerance; only the maps themselves are checked for singularity
    s = builtin(name)
    w = Address((1,) * 20, s.m, s.m)
    want = address_vertices_oracle(s, Address(w.symbols, s.m, s.M))
    assert compose_word(from_scheme(s), w).vertices.tobytes() == want.tobytes()


def test_separation_from_maps_past_nine_symbols():
    s = builtin("cantor")
    via_tree = kept_separation(build_tree(s, 10), "pairwise")[0].value
    assert separation_from_maps(from_scheme(s), 10, "pairwise") == via_tree == 1.69350878084229e-05


def test_compose_word_bitwise_matches_per_symbol_oracle():
    rng = np.random.default_rng(7)
    for s in fold_cases():
        sys_ = from_scheme(s)
        for n in range(1, 13):
            for row in rng.integers(1, s.m + 1, size=(12, n)):
                w = tuple(row.tolist())
                want = address_vertices_oracle(s, Address(w, s.m, s.M))
                assert compose_word(sys_, Address(w, s.m, s.m)).vertices.tobytes() == want.tobytes(), (s.name, w)


def test_separation_from_maps_depth_stacks_bitwise_match_oracle(monkeypatch):
    stacks = []
    real_sweep = ifs.separation_sweep

    def capturing(cells_by_depth, mode, caps):
        stacks.append(cells_by_depth)
        return real_sweep(cells_by_depth, mode, caps)

    monkeypatch.setattr(ifs, "separation_sweep", capturing)
    for s in fold_cases():
        depth = 10 if s.m == 2 else 3
        separation_from_maps(from_scheme(s), depth, "pairwise")
        cells_by_depth = stacks.pop()
        assert len(cells_by_depth) == depth
        for n, cells in enumerate(cells_by_depth, start=1):
            words = list(itertools.product(range(1, s.m + 1), repeat=n))
            assert cells.shape[0] == len(words)
            for k, w in enumerate(words):
                want = address_vertices_oracle(s, Address(w, s.m, s.M))
                assert cells[k].tobytes() == want.tobytes(), (s.name, w)


def _inverse_shift_oracle(sys_, p, tol):
    # every branch image made by `apply` and tested on its own
    q = p.as_array()
    hits = [n for n in range(1, sys_.m + 1) if contains_oracle(apply(sys_.maps[n - 1], sys_.base).vertices, q, tol.geom)]
    if not hits:
        raise OutsideAttractorError
    if len(hits) > 1:
        raise AmbiguousBranchError
    return sys_.maps[hits[0] - 1].inverse(tol.geom).transform_point(p), hits[0]


def _outcome(f, *args):
    try:
        q, branch = f(*args)
    except (OutsideAttractorError, AmbiguousBranchError) as exc:
        return type(exc)
    return np.array([q.x, q.y]).tobytes(), branch


def test_inverse_shift_matches_per_branch_oracle():
    rng = np.random.default_rng(11)
    for s in fold_cases():
        sys_ = from_scheme(s)
        images = [apply(w, s.base).vertices for w in sys_.maps]
        lo, hi = s.base.vertices.min(axis=0), s.base.vertices.max(axis=0)
        points = list(rng.uniform(lo - 0.1, hi + 0.1, size=(150, 2)))
        points += [v for img in images for v in img]  # branch corners: boundary points
        points += [(img + np.roll(img, -1, axis=0)) / 2 for img in images]  # edge midpoints
        points = np.vstack([np.reshape(p, (-1, 2)) for p in points])
        # just off, off by more than one tolerance and less than the other, far outside
        points = np.vstack([points, points + 5e-10, points - 1e-7, [[5.0, 5.0]]])
        for tol in (Tolerances(), Tolerances(geom=1e-6)):
            seen = set()
            for x, y in points.tolist():
                p = Point2(x, y)
                want = _outcome(_inverse_shift_oracle, sys_, p, tol)
                assert _outcome(inverse_shift, sys_, p, tol) == want, (s.name, x, y, tol.geom)
                seen.add(want if isinstance(want, type) else "hit")
            assert "hit" in seen and OutsideAttractorError in seen, s.name
            if s.name != "cantor":
                assert AmbiguousBranchError in seen, s.name
