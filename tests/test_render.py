import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from porofractal.codespace import Address
from porofractal.errors import DepthOutOfRangeError, UnknownAddressError
from porofractal.render import _order, render_construction, svg_chunks
from porofractal.scheme import BUILTIN_NAMES, build_tree, builtin

from conftest import address_oracle, similarity_conjugate, similarity_map, traced

GOLDEN = Path(__file__).parent / "golden"


def polygons(svg: str):
    root = ET.fromstring(svg)
    return [e for e in root.iter() if e.tag.endswith("polygon")]


def expected_count(scheme, n):
    return scheme.m**n + sum(scheme.m ** (k - 1) * (scheme.M - scheme.m) for k in range(1, n + 1))


def render_subfractal(t, prefix, depth):
    return "".join(svg_chunks(t, depth, prefix))


def collect_oracle(t, depth):
    """Vertices, kept flags and zero-padded address symbols of the depth-n
    kept cells and the complement cells of orders <= n, in address order,
    by a lexsort of every cell's padded symbols."""
    parts = [(depth, t.kept_rows(depth))] + [(n, t.complement_rows(n)) for n in range(1, depth + 1)]
    verts = np.concatenate([t.vertices[n][rows] for n, rows in parts])
    symbols = np.concatenate([np.pad(address_oracle(t, n, rows), ((0, 0), (0, depth - n))) for n, rows in parts])
    kept = np.arange(verts.shape[0]) < parts[0][1].shape[0]
    # no address is a prefix of another, so zero padding keeps their order
    order = np.lexsort(symbols.T[::-1])
    return verts[order], kept[order], symbols[order]


# ---------------------------------------------------------------------------
# element counts


def test_carpet_depth1_counts(make_tree):
    svg = render_construction(make_tree("carpet", 1), 1)
    polys = polygons(svg)
    assert len(polys) == 9
    kinds = [p.get("class") for p in polys]
    assert kinds.count("kept") == 8 and kinds.count("complement") == 1


def test_carpet_depth2_counts(make_tree):
    svg = render_construction(make_tree("carpet", 2), 2)
    polys = polygons(svg)
    assert len(polys) == 73  # 64 kept + 8 + 1 complements


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_polygon_count_formula(name, n, make_tree):
    s = builtin(name)
    svg = render_construction(make_tree(name, 3), n)
    assert len(polygons(svg)) == expected_count(s, n)


# ---------------------------------------------------------------------------
# subfractal highlighting


def test_koch_subfractal_prefix1(make_tree):
    svg = render_subfractal(make_tree("koch", 4), Address((1,), 2, 3), 4)
    assert sum(1 for p in polygons(svg) if p.get("class") == "highlight") == 8


def test_full_length_prefix_highlights_one_cell(make_tree):
    svg = render_subfractal(make_tree("koch", 4), Address((1, 2, 1, 1), 2, 3), 4)
    assert sum(1 for p in polygons(svg) if p.get("class") == "highlight") == 1


def test_complement_prefix_rejected(make_tree):
    with pytest.raises(UnknownAddressError):
        render_subfractal(make_tree("carpet", 2), Address((9,), 8, 9), 2)


def test_prefix_longer_than_depth_rejected(make_tree):
    with pytest.raises(DepthOutOfRangeError):
        render_subfractal(make_tree("koch", 2), Address((1, 1, 1), 2, 3), 2)


def test_depth_out_of_range(make_tree):
    with pytest.raises(DepthOutOfRangeError):
        render_construction(make_tree("koch", 2), 3)
    with pytest.raises(DepthOutOfRangeError):
        render_construction(make_tree("koch", 2), 0)


# ---------------------------------------------------------------------------
# determinism and golden files


def test_byte_determinism(make_tree):
    t = make_tree("pascal3", 2)
    assert render_construction(t, 2) == render_construction(t, 2)


@pytest.mark.parametrize(
    "golden,build",
    [
        ("carpet_depth3.svg", lambda mt: render_construction(mt("carpet", 3), 3)),
        ("pascal3_depth2.svg", lambda mt: render_construction(mt("pascal3", 2), 2)),
        ("koch_depth4_sub12.svg", lambda mt: render_subfractal(mt("koch", 4), Address((1, 2), 2, 3), 4)),
    ],
)
def test_golden_files(golden, build, make_tree):
    assert build(make_tree) == (GOLDEN / golden).read_text(encoding="utf-8")


def test_golden_carpet_has_585_polygons():
    svg = (GOLDEN / "carpet_depth3.svg").read_text(encoding="utf-8")
    assert len(polygons(svg)) == 585


def test_golden_koch_highlights_four_cells():
    svg = (GOLDEN / "koch_depth4_sub12.svg").read_text(encoding="utf-8")
    assert sum(1 for p in polygons(svg) if p.get("class") == "highlight") == 4


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_outputs_are_well_formed_xml(name, make_tree):
    svg = render_construction(make_tree(name, 2), 2)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert root.get("viewBox")


def test_coordinates_use_six_decimals(make_tree):
    svg = render_construction(make_tree("cantor", 1), 1)
    for poly in polygons(svg):
        for pair in poly.get("points").split(" "):
            x, y = pair.split(",")
            assert len(x.split(".")[1]) == 6
            assert len(y.split(".")[1]) == 6


def test_coordinates_match_round_on_each_coordinate():
    # the carpet scaled by 0.6424955 puts 30 coordinates within an ulp of a
    # tie in the 7th decimal, where round() on a numpy float (scale, round
    # half to even, unscale) and correctly rounded formatting disagree; the
    # renderer keeps round()'s digits
    s = similarity_conjugate(builtin("carpet"), similarity_map(0.6424955, 0.0))
    t = build_tree(s, 2)
    _, y0, _, y1 = s.base.bbox()

    def fmt(v):
        r = round(v, 6)
        return f"{0.0 if r == 0.0 else r:.6f}"

    want = [" ".join(f"{fmt(x)},{fmt(y0 + y1 - y)}" for x, y in v) for v in collect_oracle(t, 2)[0]]
    assert [p.get("points") for p in polygons(render_construction(t, 2))] == want


# ---------------------------------------------------------------------------
# address order by row arithmetic, and chunks


def tilted_koch():
    # koch turned by 0.5 rad: one depth-1 vertex rounds to -0.0 after the y flip
    return similarity_conjugate(builtin("koch"), similarity_map(1.0, 0.5))


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("koch-tilted",))
def test_order_matches_symbol_lexsort(name, make_tree):
    t = build_tree(tilted_koch(), 4) if name == "koch-tilted" else make_tree(name, 4)
    m, M = t.scheme.m, t.scheme.M
    for depth in range(1, 5):
        ids, first = _order(t, depth)
        level = np.searchsorted(first, ids, side="right") - 1
        rows = ids - first[level]
        verts, kept, symbols = collect_oracle(t, depth)
        assert np.array_equal(np.stack([t.vertices[n][r] for n, r in zip(level, rows)]), verts)
        assert np.array_equal((level == depth) & (rows % M < m), kept)
        got = [list(t.address(n, r).symbols) + [0] * (depth - n) for n, r in zip(level.tolist(), rows.tolist())]
        assert got == symbols.tolist()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_highlights_match_symbol_prefixes(name, make_tree):
    t = make_tree(name, 4)
    s = t.scheme
    _, kept, symbols = collect_oracle(t, 4)
    for length in (1, 2, 4):
        prefix = tuple((3 * i) % s.m + 1 for i in range(length))
        classes = [p.get("class") for p in polygons(render_subfractal(t, Address(prefix, s.m, s.M), 4))]
        want = np.where(kept & (symbols[:, :length] == prefix).all(axis=1), "highlight", np.where(kept, "kept", "complement"))
        assert classes == want.tolist()


def test_tilted_coordinates_normalize_negative_zero():
    t = build_tree(tilted_koch(), 1)
    verts, _, _ = collect_oracle(t, 1)
    _, y0, _, y1 = t.scheme.base.bbox()
    flipped = np.round(np.stack([verts[..., 0], y0 + y1 - verts[..., 1]], axis=-1), 6)
    assert np.any((flipped == 0.0) & np.signbit(flipped))
    svg = render_construction(t, 1)
    assert "-0.000000" not in svg and "0.000000" in svg


def test_rejected_arguments_raise_before_any_chunk(make_tree):
    t = make_tree("koch", 2)
    for args in [(0,), (3,), (2, Address((3,), 2, 3)), (2, Address((1, 1, 1), 2, 3))]:
        with pytest.raises((DepthOutOfRangeError, UnknownAddressError)):
            svg_chunks(t, *args)


@pytest.mark.parametrize("name,depth,limit_mib", [("carpet", 5, 6.0), ("pascal3", 5, 4.0)])
def test_streaming_memory_is_bounded_by_a_chunk(name, depth, limit_mib):
    # the pieces are consumed as they come: working memory above the tree is
    # one integer per emitted cell plus one chunk, not the document
    t = build_tree(builtin(name), depth)
    size, peak, _ = traced(lambda: sum(len(chunk) for chunk in svg_chunks(t, depth)))
    assert size > 4 * 2**20 if name == "carpet" else size > 2**20
    assert peak <= limit_mib * 2**20, peak / 2**20
