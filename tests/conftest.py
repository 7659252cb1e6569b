import dataclasses
import itertools
from functools import reduce

import numpy as np
import pytest

from porofractal.codespace import Address, Code
from porofractal.geometry import AffineMap2, ConvexPolygon, _image, apply, compose, diameters, identity_map
from porofractal.geometry import min_distance, similarity_map
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


def _edges_oracle(v: np.ndarray) -> np.ndarray:
    """Edge list (E, 2, 2) of (start, end) pairs: a point is the zero-length
    edge (v0, v0), a segment its one edge."""
    if v.shape[0] == 1:
        return np.stack([v, v], axis=1)
    if v.shape[0] == 2:
        return v[None, :, :]
    return np.stack([v, np.roll(v, -1, axis=0)], axis=1)


def _point_segment_oracle(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from points p to segments (a, b); all arrays (N, 2)."""
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    safe = np.where(denom > 0.0, denom, 1.0)
    t = np.clip(np.einsum("ij,ij->i", p - a, ab) / safe, 0.0, 1.0)
    d = p - (a + t[:, None] * ab)
    return np.hypot(d[:, 0], d[:, 1])


def _cross_oracle(o: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, 0] - o[:, 0]) * (b[:, 1] - o[:, 1]) - (a[:, 1] - o[:, 1]) * (b[:, 0] - o[:, 0])


def contains_oracle(v: np.ndarray, q: np.ndarray, tol: float) -> bool:
    """Closed-polygon membership of the point q within distance tol."""
    if v.shape[0] == 1:
        return bool(np.hypot(*(q - v[0])) <= tol)
    if v.shape[0] == 2:
        return bool(_point_segment_oracle(q[None, :], v[0][None, :], v[1][None, :])[0] <= tol)
    e = np.roll(v, -1, axis=0) - v
    w = q[None, :] - v
    cross = e[:, 0] * w[:, 1] - e[:, 1] * w[:, 0]
    return bool((cross / np.hypot(e[:, 0], e[:, 1]) >= -tol).all())


def point_distance_oracle(q: np.ndarray, v: np.ndarray) -> float:
    """Distance from the point q to the closed polygon v: 0 inside, else the
    least point-segment distance to an edge."""
    if contains_oracle(v, q, 0.0):
        return 0.0
    e = _edges_oracle(v)
    return float(_point_segment_oracle(np.broadcast_to(q, (e.shape[0], 2)), e[:, 0], e[:, 1]).min())


def min_distance_oracle(a: np.ndarray, b: np.ndarray, boxed: bool = False) -> float:
    """Edge-pair route to the distance of two closed convex polygons: the
    oracle for geometry.min_distance, and with boxed=True for
    PairDistanceEvaluator.

    Every edge of a meets every edge of b; a pair is apart by the least of
    its four end-to-segment distances, or 0 when the edges properly cross
    (orientation signs differ both ways and the bounding boxes meet).  When
    the boundaries are apart, one polygon holding a vertex of the other
    means 0; boxed only asks this when one bounding box holds the other.
    """
    ea, eb = _edges_oracle(a), _edges_oracle(b)
    A = np.repeat(ea, eb.shape[0], axis=0)
    B = np.tile(eb, (ea.shape[0], 1, 1))
    p1, p2, q1, q2 = A[:, 0], A[:, 1], B[:, 0], B[:, 1]
    d = np.minimum.reduce(
        [
            _point_segment_oracle(p1, q1, q2),
            _point_segment_oracle(p2, q1, q2),
            _point_segment_oracle(q1, p1, p2),
            _point_segment_oracle(q2, p1, p2),
        ]
    )
    crossing = (_cross_oracle(q1, q2, p1) * _cross_oracle(q1, q2, p2) < 0.0) & (
        _cross_oracle(p1, p2, q1) * _cross_oracle(p1, p2, q2) < 0.0
    )
    meet = np.minimum(np.maximum(p1, p2), np.maximum(q1, q2)) >= np.maximum(np.minimum(p1, p2), np.minimum(q1, q2))
    meet = meet.all(axis=1)
    dist = float(np.where(crossing & meet, 0.0, d).min())
    if dist > 0.0 and boxed:
        la, ha, lb, hb = a.min(axis=0), a.max(axis=0), b.min(axis=0), b.max(axis=0)
        if not (((la >= lb) & (ha <= hb)).all() or ((lb >= la) & (hb <= ha)).all()):
            return dist
    if dist > 0.0 and (contains_oracle(b, a[0], 0.0) or contains_oracle(a, b[0], 0.0)):
        return 0.0
    return dist


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


def fold_cases() -> list[Scheme]:
    """The built-ins (koch's kept maps reflect) and a reflected conjugate:
    the schemes the batched fold routes are compared with their oracles on."""
    reflected = similarity_conjugate(builtin("pascal3"), similarity_map(0.8, 0.4, (0.1, 0.2), reflect=True))
    return [builtin(name) for name in BUILTIN_NAMES] + [reflected]


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
