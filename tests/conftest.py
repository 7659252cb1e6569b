import dataclasses
import itertools
from functools import reduce

import numpy as np
import pytest

from porofractal.codespace import Address, Code
from porofractal.geometry import AffineMap2, ConvexPolygon, _image, apply, compose, diameters, identity_map
from porofractal.geometry import min_distance
from porofractal.scheme import BUILTIN_NAMES, Scheme, build_tree, builtin


@pytest.fixture(scope="session")
def schemes() -> dict[str, Scheme]:
    return {name: builtin(name) for name in BUILTIN_NAMES}


@pytest.fixture(scope="session")
def make_tree():
    """Memoized tree builder shared across the whole run (trees are immutable)."""
    cache = {}

    def _make(name: str, depth: int):
        key = (name, depth)
        if key not in cache:
            cache[key] = build_tree(builtin(name), depth)
        return cache[key]

    return _make


def clip_by_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Scalar Sutherland-Hodgman clip of `subject` against convex ccw `clip`:
    the oracle for geometry.overlap_areas.  Crossings are computed
    parametrically on the subject edge."""
    output = list(subject)
    for i in range(clip.shape[0]):
        cp1 = clip[i]
        cp2 = clip[(i + 1) % clip.shape[0]]
        if not output:
            return np.empty((0, 2))
        edge = cp2 - cp1
        points = output
        output = []
        s = points[-1]
        ds = edge[0] * (s[1] - cp1[1]) - edge[1] * (s[0] - cp1[0])
        for e in points:
            de = edge[0] * (e[1] - cp1[1]) - edge[1] * (e[0] - cp1[0])
            if (de >= 0.0) != (ds >= 0.0):
                t = ds / (ds - de)
                output.append(s + t * (e - s))
            if de >= 0.0:
                output.append(e)
            s, ds = e, de
    return np.array(output) if output else np.empty((0, 2))


def oracle_intersection_area(subject: np.ndarray, clip: np.ndarray) -> float:
    """Shoelace area of the scalar clip, summed by np.sum (0 for degenerate input)."""
    if subject.shape[0] < 3 or clip.shape[0] < 3:
        return 0.0
    clipped = clip_by_convex(subject, clip)
    if clipped.shape[0] < 3:
        return 0.0
    x, y = clipped[:, 0], clipped[:, 1]
    return float(abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)) / 2.0)


def build_levels_oracle(s: Scheme, depth: int) -> list[tuple[list[Address], np.ndarray, np.ndarray, np.ndarray]]:
    """Per-cell construction of a cell tree: the oracle for
    scheme.build_tree.  Each kept cell's accumulated map is composed with
    every child map and the base is mapped through the result, one cell at
    a time.  Per level: addresses, vertices, linear parts, translations."""
    level = [(Address((), s.m, s.M), identity_map())]
    levels = []
    for n in range(depth + 1):
        if n:
            level = [(a.child(j), compose(acc, s.child_map(j))) for a, acc in level if a.is_kept for j in range(1, s.M + 1)]
        levels.append(
            (
                [a for a, _ in level],
                np.stack([_image(acc, s.base).vertices for _, acc in level]),
                np.stack([acc.linear for _, acc in level]),
                np.stack([acc.translation for _, acc in level]),
            )
        )
    return levels


def accumulated_map_oracle(s: Scheme, symbols: tuple[int, ...]) -> AffineMap2:
    """Per-symbol composition child_maps[i1] o ... o child_maps[in]: the
    oracle for scheme's batched fold of words."""
    if not symbols:
        return identity_map()
    return reduce(compose, (s.child_map(i) for i in symbols))


def address_vertices_oracle(s: Scheme, address: Address) -> np.ndarray:
    """Cell vertices of one address by per-symbol composition: the oracle
    for scheme.address_vertices."""
    return _image(accumulated_map_oracle(s, address.symbols), s.base).vertices


def realize_point_oracle(s: Scheme, c: Code, depth: int) -> tuple[np.ndarray, float]:
    """Centroid and diameter of a code's depth-N cell by per-symbol
    composition: the oracle for scheme.realize_points."""
    verts = accumulated_map_oracle(s, c.prefix(depth)).transform(s.base.vertices)
    return verts.mean(axis=0), float(diameters(verts[None])[0])


def min_distance_matrix(polys: list[ConvexPolygon]) -> np.ndarray:
    """Symmetric matrix of pairwise scalar min_distance values (diagonal
    zero): the brute-force oracle for the separation sweeps."""
    n = len(polys)
    mat = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        mat[i, j] = mat[j, i] = min_distance(polys[i], polys[j])
    return mat


def similarity_conjugate(s: Scheme, g: AffineMap2) -> Scheme:
    """The scheme moved by the similarity g: base g(B), maps g w g^-1."""
    g_inv = g.inverse()
    maps = tuple(compose(g, compose(w, g_inv)) for w in s.child_maps)
    return dataclasses.replace(s, name=f"{s.name}-conj", base=apply(g, s.base), child_maps=maps)


def shrunk_complement_carpet() -> Scheme:
    """Carpet whose center square is scaled by 0.9 about its own center.

    The kept ring squares no longer touch the complement, so the adjacency
    condition fails with a gap of 1/60 (edge squares) up to sqrt(2)/60
    (corner squares).
    """
    s = builtin("carpet")
    shrunk = AffineMap2(np.eye(2) * 0.3, np.array([0.35, 0.35]))
    return dataclasses.replace(s, name="carpet-gap", child_maps=s.child_maps[:8] + (shrunk,))


def overlapping_complement_carpet() -> Scheme:
    """Carpet whose complement map lands on the first kept square.

    The order-1 complement then strictly contains every order-2 complement
    of child 1, so complement cells of different orders share interior.
    """
    s = builtin("carpet")
    moved = AffineMap2(np.eye(2) / 3.0, np.zeros(2))
    return dataclasses.replace(s, name="carpet-overlap", child_maps=s.child_maps[:8] + (moved,))


@pytest.fixture(scope="session")
def carpet_gap() -> Scheme:
    return shrunk_complement_carpet()


@pytest.fixture(scope="session")
def carpet_overlap() -> Scheme:
    return overlapping_complement_carpet()
