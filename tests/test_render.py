import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from porofractal.codespace import Address
from porofractal.errors import DepthOutOfRangeError, UnknownAddressError
from porofractal.geometry import similarity_map
from porofractal.render import _collect, render_construction, render_subfractal
from porofractal.scheme import BUILTIN_NAMES, build_tree, builtin

from conftest import similarity_conjugate

GOLDEN = Path(__file__).parent / "golden"


def polygons(svg: str):
    root = ET.fromstring(svg)
    return [e for e in root.iter() if e.tag.endswith("polygon")]


def expected_count(scheme, n):
    return scheme.m**n + sum(scheme.m ** (k - 1) * (scheme.M - scheme.m) for k in range(1, n + 1))


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

    want = [" ".join(f"{fmt(x)},{fmt(y0 + y1 - y)}" for x, y in v) for v in _collect(t, 2)[0]]
    assert [p.get("points") for p in polygons(render_construction(t, 2))] == want
