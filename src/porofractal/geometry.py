"""Planar metric-measure substrate: convex polygons, affine maps, measures.

Polygons are vertex arrays in counterclockwise order; a single vertex (a
point) and a vertex pair (a segment) are allowed as degenerate cases so that
one-dimensional constructions ride on the same machinery.  All operations are
pure and all values immutable, so everything here is safe to call from
parallel sweeps.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import CoordinateRangeError, SingularMapError

MeasureKind = Literal["area", "length"]

_CONSTRUCTION_TOL = DEFAULT_TOLERANCES.geom


def _frozen(a) -> np.ndarray:
    """A read-only C-ordered float copy."""
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, slots=True)
class Point2:
    """A point of the plane with finite coordinates."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise ValueError("point coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True, eq=False)
class ConvexPolygon:
    """Convex polygon given by counterclockwise vertices.

    Degenerate instances carry one vertex (a point) or two (a segment); both
    have zero area.  Convexity is checked at construction with the package
    geometric tolerance, so downstream operations never re-validate.
    """

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = _frozen(self.vertices)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 1:
            raise ValueError("vertices must be a (k, 2) array with k >= 1")
        if not (np.abs(v) < 1e75).all():
            raise ValueError("vertices must be finite and below the overflow bound 1e75")
        k = v.shape[0]
        if k > 1:
            diff = v[:, None, :] - v[None, :, :]
            dist = np.hypot(diff[..., 0], diff[..., 1])
            np.fill_diagonal(dist, np.inf)
            if dist.min() <= _CONSTRUCTION_TOL:
                raise ValueError("vertices must be pairwise distinct beyond tolerance")
        if k >= 3:
            e = np.roll(v, -1, axis=0) - v
            cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
            if (cross < -_CONSTRUCTION_TOL).any():
                raise ValueError("vertices must be convex in counterclockwise order")
        object.__setattr__(self, "vertices", v)

    @classmethod
    def _unchecked(cls, vertices: np.ndarray) -> "ConvexPolygon":
        # fast path for polygons that are valid by construction (affine
        # images of validated polygons); skips the invariant checks
        obj = object.__new__(cls)
        object.__setattr__(obj, "vertices", _frozen(vertices))
        return obj

    @property
    def is_degenerate(self) -> bool:
        return self.vertices.shape[0] < 3

    def bbox(self) -> tuple[float, float, float, float]:
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1])


@dataclass(frozen=True, eq=False)
class AffineMap2:
    """Affine map x -> linear @ x + translation on the plane."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        lin, tr = _frozen(self.linear), _frozen(self.translation)
        if lin.shape != (2, 2) or tr.shape != (2,):
            raise ValueError("linear must be 2x2 and translation length 2")
        if not (np.isfinite(lin).all() and np.isfinite(tr).all()):
            raise ValueError("map entries must be finite")
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "translation", tr)

    def transform(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.linear.T + self.translation

    def transform_point(self, p: Point2) -> Point2:
        q = self.transform(p.as_array()[None, :])[0]
        return Point2(float(q[0]), float(q[1]))

    @property
    def det(self) -> float:
        lin = self.linear
        return float(lin[0, 0] * lin[1, 1] - lin[0, 1] * lin[1, 0])

    @property
    def operator_norm(self) -> float:
        """Largest singular value of the linear part."""
        return float(np.linalg.norm(self.linear, ord=2))

    def is_contraction(self, tol: float = _CONSTRUCTION_TOL) -> bool:
        return self.operator_norm < 1.0 - tol

    def inverse(self, tol: float = _CONSTRUCTION_TOL) -> "AffineMap2":
        _require_nonsingular(self, tol)
        inv = np.linalg.inv(self.linear)
        return AffineMap2(inv, -inv @ self.translation)


def similarity_map(scale: float, angle: float, translation=(0.0, 0.0), reflect: bool = False) -> AffineMap2:
    """Similarity of the given ratio: rotation by `angle` (radians), optional
    reflection across the x-axis applied first."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    if reflect:
        rot = rot @ np.diag([1.0, -1.0])
    return AffineMap2(scale * rot, np.asarray(translation, dtype=float))


# ---------------------------------------------------------------------------
# map application: one map, or stacks of maps and words over them


def apply(m: AffineMap2, p: ConvexPolygon) -> ConvexPolygon:
    """Vertex-wise image of p under m, reordered ccw if m reverses orientation."""
    _require_nonsingular(m)
    # a nonsingular affine image of a convex ccw polygon is convex ccw
    return ConvexPolygon._unchecked(_images(p.vertices, m.linear[None], m.translation[None])[0])


def _require_nonsingular(m: AffineMap2, tol: float = _CONSTRUCTION_TOL) -> None:
    if abs(m.det) <= tol:
        raise SingularMapError("map is numerically singular")


def compose(outer: AffineMap2, inner: AffineMap2) -> AffineMap2:
    """The map x -> outer(inner(x))."""
    return AffineMap2(outer.linear @ inner.linear, outer.linear @ inner.translation + outer.translation)


def _stack_maps(maps: Sequence[AffineMap2]) -> tuple[np.ndarray, np.ndarray]:
    """Linear parts (M, 2, 2) and translation columns (M, 2, 1) of some maps.

    Raises SingularMapError if one map is singular, on every call, as the
    `_children` caches store no exception.  det is multiplicative, so every
    composition of the maps is nonsingular however small its cell gets, and
    needs no check of its own.
    """
    for w in maps:
        _require_nonsingular(w)
    return np.stack([w.linear for w in maps]), np.stack([w.translation for w in maps])[..., None]


def _step(L: np.ndarray, T: np.ndarray, lin: np.ndarray, tr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (L, T) o (lin, tr) in the operand order of `compose`, so that stacked
    # products are bitwise the per-map ones; the callers let a product past
    # the float range become inf or nan, which `_images` refuses
    return L @ lin, (L @ tr)[..., 0] + T


def _fold(children: tuple[np.ndarray, np.ndarray], words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear parts (W, 2, 2) and translations (W, 2) of the accumulated maps
    of the rows of `words` (W, n) over `_stack_maps` arrays, first symbol
    outermost: the first column's maps, then build_tree's step per column,
    as `reduce(compose, ...)` goes, so each row is bitwise that composition.
    A call costs n stacked steps whatever W is, gathering the maps (six values
    a row) of `_chunk_rows(6·W)` columns at a time; the caller checks symbols."""
    if not words.size:
        return np.broadcast_to(np.eye(2), (words.shape[0], 2, 2)), np.zeros((words.shape[0], 2))
    L, cols = None, _chunk_rows(6 * words.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, words.shape[1], cols):
            index = words[:, a : a + cols].T - 1
            for lin, tr in zip(children[0][index], children[1][index]):
                L, T = (lin, tr[..., 0]) if L is None else _step(L, T, lin, tr)
    return L, T


def _levels(children: tuple[np.ndarray, np.ndarray], m: int, depth: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Accumulated maps L (N, 2, 2), T (N, 2) of levels 1..depth over M
    `_stack_maps` maps.  Level 1 is the maps; row p*M + (j-1) of the next is
    child j of the p-th kept row (the first m of each block of M) by `_step`,
    so each row is bitwise the `_fold` of its address."""
    lin, tr = children
    L, T = lin, tr[..., 0]
    for n in range(depth):
        if n:
            with np.errstate(over="ignore", invalid="ignore"):
                L, T = _step(L[..., :m, None, :, :], T[..., :m, None, :], lin, tr)
        yield L.reshape(-1, 2, 2), T.reshape(-1, 2)


def _images(base: np.ndarray, L: np.ndarray, T: np.ndarray, ccw: bool = True) -> np.ndarray:
    """The base's vertices under each map (L[k], T[k]), (N, V, 2), in the
    operand order of `AffineMap2.transform`, read-only; with ccw, reversed
    where the map reverses orientation.  Raises CoordinateRangeError when a
    coordinate reaches 1e75 in magnitude or is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = base[None] @ L.transpose(0, 2, 1) + T[:, None]
        # det < 0, compared without the subtraction: a difference of two
        # floats is negative exactly when the first is the smaller
        flip = L[:, 0, 0] * L[:, 1, 1] < L[:, 0, 1] * L[:, 1, 0] if ccw and base.shape[0] >= 3 else None
    # nan fails both comparisons
    if not -1e75 < v.min(initial=0.0) <= v.max(initial=0.0) < 1e75:
        raise CoordinateRangeError("cell coordinates reach the overflow bound 1e75")
    if flip is not None and flip.any():
        v[flip] = v[flip, ::-1]
    v.setflags(write=False)
    return v


# ---------------------------------------------------------------------------
# measures


def measures(verts: np.ndarray, kind: MeasureKind) -> np.ndarray:
    """Measures of the polygons of a (N, V, 2) vertex stack: shoelace areas
    (0 for points and segments), or lengths of points and segments."""
    if kind == "area":
        x, y = verts[..., 0], verts[..., 1]
        return np.abs(np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1)) / 2.0
    if kind == "length":
        if verts.shape[1] > 2:
            raise ValueError("length measure is only defined for degenerate polygons")
        d = verts[:, -1] - verts[:, 0]
        return np.hypot(d[:, 0], d[:, 1])
    raise ValueError(f"unknown measure kind {kind!r}")


def measure(p: ConvexPolygon, kind: MeasureKind) -> float:
    return float(measures(p.vertices[None], kind)[0])


def diameters(verts: np.ndarray) -> np.ndarray:
    """Maximum pairwise vertex distance of each polygon of a (N, V, 2) vertex
    stack (exact for convex polygons; 0 for a point).

    A running maximum over the V(V-1)/2 vertex pairs, one (N,) plane at a
    time, so the working memory is a few rows of N, not an (N, V, V, 2)
    difference tensor.  Max is exact and hypot ignores sign, so this is
    bitwise the maximum over the full tensor."""
    x, y = verts[..., 0], verts[..., 1]
    out = np.zeros(verts.shape[0])
    for i in range(verts.shape[1]):
        for j in range(i + 1, verts.shape[1]):
            np.maximum(out, np.hypot(x[:, i] - x[:, j], y[:, i] - y[:, j]), out=out)
    return out


def diameter(p: ConvexPolygon) -> float:
    return float(diameters(p.vertices[None])[0])


# ---------------------------------------------------------------------------
# distances


@lru_cache(maxsize=None)
def _edge_ends(V: int) -> np.ndarray:
    """End vertex index of each edge of a V-vertex polygon, edge i starting
    at vertex i: a point is the zero-length edge (v0, v0) and a segment its
    one edge (v0, v1)."""
    t = (np.arange(V) + 1) % V if V >= 3 else np.array([V - 1])
    t.setflags(write=False)
    return t


def _vertex_edge(px, py, ax, ay, bx, by) -> tuple[np.ndarray, np.ndarray]:
    """Distances from the points p to the segments (a, b) and orientations
    of p against them (positive on the left), over broadcast x and y
    coordinate planes.  The closest point is clamped to the segment
    (Ericson, Real-Time Collision Detection, 2005, 5.1.2); a zero-length one
    is its start.  Every entry takes the same float operations, whatever
    the shapes, so a table of many vertex-edge pairs is bitwise many scalar
    queries."""
    ex, ey = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    denom = ex * ex + ey * ey
    # the full-size steps run in place, in the same float operations
    t = wx * ex
    t += wy * ey
    t /= np.where(denom > 0.0, denom, 1.0)
    u, v = np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t) * ex, t * ey
    d = np.hypot(np.subtract(px, np.add(u, ax, out=u), out=u), np.subtract(py, np.add(v, ay, out=v), out=v), out=t)
    return d, np.subtract(np.multiply(wy, ex, out=wy), np.multiply(wx, ey, out=wx), out=wy)


def _inside(points: np.ndarray, cells: np.ndarray, tol: float) -> np.ndarray:
    """Whether points[k] lies in the closed polygon cells[k] of a (P, V, 2)
    stack within distance tol: on the inner side of every edge line, or
    near a point or segment."""
    t = _edge_ends(cells.shape[1])
    if cells.shape[1] < 3:
        x, y = cells[..., 0], cells[..., 1]
        return _vertex_edge(points[:, 0], points[:, 1], x[:, 0], y[:, 0], x[:, t[0]], y[:, t[0]])[0] <= tol
    e = cells[:, t] - cells
    w = points[:, None] - cells
    cross = e[..., 0] * w[..., 1] - e[..., 1] * w[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):  # an edge that rounds to a point holds nothing
        return (cross / np.hypot(e[..., 0], e[..., 1]) >= -tol).all(axis=1)


def point_in_polygon(point, p: ConvexPolygon, tol: float = _CONSTRUCTION_TOL) -> bool:
    """True if the point lies in the closed polygon, within distance tol."""
    return bool(_inside(np.asarray(point, dtype=float).reshape(1, 2), p.vertices[None], tol)[0])


def point_distances(points: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Distances from the points (P, 2) to the closed convex polygons of a
    (P, V, 2) stack, row by row (0 inside): the least distance to an edge,
    one vertex-edge table of one direction."""
    t = _edge_ends(cells.shape[1])
    x, y = cells[..., 0], cells[..., 1]
    E = t.shape[0]
    d = _vertex_edge(points[:, :1], points[:, 1:], x[:, :E], y[:, :E], x[:, t], y[:, t])[0].min(axis=1)
    return np.where(_inside(points, cells, 0.0), 0.0, d)


def _pair_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distances between the boundaries of A[k] and B[k], for stacks
    (P, Va, 2) and (P, Vb, 2): 0 where they meet.

    Two edges are apart by the least distance from an end of one to the
    other, unless they cross.  Each such term belongs to one vertex and one
    edge, so it is computed once: a (Va, Eb, P) table of A's vertices
    against B's edges, a (Vb, Ea, P) table of B's against A's, each with
    the orientations.  Both stacks are first laid out as contiguous x and y
    planes (2, V, P), so the pairs run along the last axis and every step
    is one long loop; each entry takes the same float operations as a
    scalar query.  Edges cross when the ends of each lie strictly on both
    sides of the other's line: two sign products of table entries."""
    ta, tb = _edge_ends(A.shape[1]), _edge_ends(B.shape[1])
    Ea, Eb = ta.shape[0], tb.shape[0]
    Ap, Bp = np.ascontiguousarray(A.transpose(2, 1, 0)), np.ascontiguousarray(B.transpose(2, 1, 0))
    (ax, ay), (bx, by) = Ap, Bp
    P = A.shape[0]
    # each distance table is reduced before the next is made, which bounds
    # the working memory and leaves the minimum unchanged
    d, oa = _vertex_edge(ax[:, None], ay[:, None], bx[:Eb], by[:Eb], bx[tb], by[tb])
    d = d.reshape(-1, P).min(axis=0)
    db, ob = _vertex_edge(bx[:, None], by[:, None], ax[:Ea], ay[:Ea], ax[ta], ay[ta])
    d = np.minimum(d, db.reshape(-1, P).min(axis=0))
    crossing = (oa[:Ea] * oa[ta] < 0.0) & (ob[:Eb] * ob[tb] < 0.0).transpose(1, 0, 2)
    i, j, k = np.nonzero(crossing)
    if k.shape[0]:
        # a proper crossing lies in both bounding boxes; requiring them to
        # meet keeps rounding noise in the orientations of collinear
        # disjoint segments from reading as a crossing
        a1, a2, b1, b2 = Ap[:, i, k], Ap[:, ta[i], k], Bp[:, j, k], Bp[:, tb[j], k]
        meet = np.minimum(np.maximum(a1, a2), np.maximum(b1, b2)) >= np.maximum(np.minimum(a1, a2), np.minimum(b1, b2))
        d[k[meet[0] & meet[1]]] = 0.0
    return d


def _zero_nested(d: np.ndarray, a: tuple, b: tuple) -> None:
    """Set d[k] to 0 where the boundaries of pair k are apart (d[k] > 0) but
    one polygon holds the other.  Each side is (vertices, lo, hi, rows): the
    pair's polygon is vertices[rows[k]] with the bounding box lo[rows[k]],
    hi[rows[k]].  A polygon lies in its box, so containment is asked only
    where one box holds the other, and only those pairs are gathered."""
    (va, lo_a, hi_a, ra), (vb, lo_b, hi_b, rb) = a, b
    pos = np.nonzero(d > 0.0)[0]
    la, ha, lb, hb = lo_a[ra[pos]], hi_a[ra[pos]], lo_b[rb[pos]], hi_b[rb[pos]]
    a_in_b, b_in_a = (la >= lb) & (ha <= hb), (lb >= la) & (hb <= ha)
    k = pos[(a_in_b[:, 0] & a_in_b[:, 1]) | (b_in_a[:, 0] & b_in_a[:, 1])]
    if k.shape[0]:
        pa, pb = va[ra[k]], vb[rb[k]]
        d[k[_inside(pa[:, 0], pb, 0.0) | _inside(pb[:, 0], pa, 0.0)]] = 0.0


def min_distance(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Minimum Euclidean distance between two closed convex polygons, as
    `PairDistanceEvaluator.distances` reads it.

    Zero when they touch, overlap, or one contains the other.
    """
    A, B, row = a.vertices[None], b.vertices[None], np.zeros(1, dtype=np.intp)
    d = _pair_distances(A, B)
    _zero_nested(d, (A, A.min(axis=1), A.max(axis=1), row), (B, B.min(axis=1), B.max(axis=1), row))
    return float(d[0])


# the most float64 elements that one work array of a batched kernel may hold:
# every kernel that runs over a level, a pair list or a candidate list steps
# through it in chunks of `_chunk_rows(width)` rows, so its working memory is
# a few such arrays, whatever the input size
_CHUNK_ELEMENTS = 16384


def _chunk_rows(width: int) -> int:
    """Rows per chunk of a kernel whose largest work array holds `width`
    float64 elements per row (at least one row)."""
    return max(1, _CHUNK_ELEMENTS // width)


def _json_chunks(doc, default=None) -> Iterator[str]:
    """`json.dumps(doc, default=default, indent=2, sort_keys=True)` in pieces
    of `_chunk_rows(8)` encoder tokens (a short string and its list slot are
    about eight float64 values), never holding the whole token list."""
    tokens = json.JSONEncoder(indent=2, sort_keys=True, default=default).iterencode(doc)
    while piece := "".join(itertools.islice(tokens, _chunk_rows(8))):
        yield piece


class PairDistanceEvaluator:
    """Batched min_distance queries over a fixed polygon set, given as a
    (k, V, 2) vertex stack.

    Bounding boxes and centroids are computed once, so sweeps that evaluate
    many index pairs against the same cells stay cheap.  Each chunk of index
    pairs gathers its two vertex stacks and takes the V·E vertex-edge terms
    of each direction, not the four terms of each of the E² edge pairs.
    """

    def __init__(self, vertices: np.ndarray):
        if not vertices.shape[0]:
            raise ValueError("need at least one polygon")
        self.vertices = vertices
        # running min, max and sum over the vertex planes: numpy reduces a
        # strided axis in this order, so these are bitwise min, max and
        # mean over axis 1, without the reductions over a short axis
        V = vertices.shape[1]
        self.lo, self.hi, total = vertices[:, 0].copy(), vertices[:, 0].copy(), vertices[:, 0].copy()
        for v in range(1, V):
            np.minimum(self.lo, vertices[:, v], out=self.lo)
            np.maximum(self.hi, vertices[:, v], out=self.hi)
            total += vertices[:, v]
        self.centroids = total / V

    def box_gaps(self, ii, jj) -> np.ndarray:
        """Bounding-box gaps of the index pairs: lower bounds on min_distance."""
        return _box_gaps(self.lo[ii], self.hi[ii], self.lo[jj], self.hi[jj])

    def farthest_box_gaps(self, bounds: Sequence[int]) -> np.ndarray:
        """max_j box_gaps(i, j) over eight polygons j of i's span, span s
        being bounds[s]:bounds[s + 1], for every polygon i: a lower bound on
        its largest min_distance to any polygon of its span.

        The eight are the span's directional extremes, each the first box
        where one key is largest: lo_x, lo_y, -hi_x, -hi_y, and the sums of
        an x key and a y key.  A farthest point of a set lies at a hull
        vertex, and directional extremes are hull vertices (Preparata and
        Shamos, Computational Geometry, 1985): on the built-ins and their
        similarity conjugates these eight reach every row's farthest gap in
        its span, elsewhere the bound may be lower, which only prunes less.
        """
        # the steps of `_box_gaps` on contiguous (8, rows) coordinate planes
        lx, ly, hx, hy = np.stack([self.lo[:, 0], self.lo[:, 1], self.hi[:, 0], self.hi[:, 1]])
        starts, sizes = np.asarray(bounds[:-1]), np.diff(bounds)
        xs, ys = (lx, -hx), (ly, -hy)
        far = np.empty((8, starts.shape[0]), dtype=np.intp)
        for k, key in enumerate(itertools.chain(xs, ys, (x + y for x in xs for y in ys))):
            top = np.flatnonzero(key == np.repeat(np.maximum.reduceat(key, starts), sizes))
            far[k] = top[np.searchsorted(top, starts)]
        out = np.empty(lx.shape[0])
        step = _chunk_rows(8)
        for s, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            f = far[:, s, None]
            for r in range(a, b, step):
                e = min(r + step, b)
                dx = np.maximum(np.maximum(lx[f] - hx[r:e], lx[r:e] - hx[f]), 0.0)
                dy = np.maximum(np.maximum(ly[f] - hy[r:e], ly[r:e] - hy[f]), 0.0)
                out[r:e] = np.hypot(dx, dy).max(axis=0)
        return out

    def distances(self, ii, jj) -> np.ndarray:
        """Exact min_distance for the index pairs (ii[k], jj[k]), a chunk of
        pairs at a time: each pair's distance and containment test are its
        own, so the chunking does not change a bit."""
        ii = np.asarray(ii, dtype=int)
        jj = np.asarray(jj, dtype=int)
        n = ii.shape[0]
        out = np.empty(n)
        V = self.vertices.shape[1]
        # a pair takes V·E table entries per direction, and its two gathered
        # stacks are laid out as 2·V coordinates each
        step = _chunk_rows(V * max(_edge_ends(V).shape[0], 2))
        for lo in range(0, n, step):
            a, b = ii[lo : lo + step], jj[lo : lo + step]
            d = out[lo : lo + step]
            d[:] = _pair_distances(self.vertices[a], self.vertices[b])
            _zero_nested(d, (self.vertices, self.lo, self.hi, a), (self.vertices, self.lo, self.hi, b))
        return out


def _box_gaps(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    """Euclidean gaps between axis-aligned boxes (broadcasting, last axis xy)."""
    d = lo_b - hi_a
    np.maximum(np.maximum(d, lo_a - hi_b, out=d), 0.0, out=d)
    return np.hypot(d[..., 0], d[..., 1])


def box_overlap_pairs(lo: np.ndarray, hi: np.ndarray, pad: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j, in lexicographic order, of boxes that overlap once
    grown by pad: min(hi_i, hi_j) - max(lo_i, lo_j) >= -pad on both axes.

    Strips and sweep: the boxes are cut into strips across one axis, each a
    little taller than the tallest box plus pad, so two overlapping boxes
    lie in one strip or in adjacent ones.  Each box is paired with the
    boxes of its own and the two adjacent strips whose low end along the
    other axis comes after its own and within its reach.  For boxes of
    similar size the cost is about the number of nearby pairs, not
    n(n-1)/2, and it never exceeds that of a sweep along one axis.
    """
    n = lo.shape[0]
    if n < 2:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    a = int(np.argmax((lo + hi).var(axis=0)))  # sweep where the boxes spread most
    b = 1 - a
    scale = max(float(np.abs(lo).max()), float(np.abs(hi).max()))
    # rounding margins, so that no pair the exact predicate accepts is missed
    reach = pad + 16.0 * np.finfo(float).eps * (scale + pad)
    height = max((float((hi[:, b] - lo[:, b]).max()) + reach) * (1.0 + 1e-6), 1e-6 * scale, np.finfo(float).tiny)
    strip = np.floor((lo[:, b] - lo[:, b].min()) / height).astype(np.int64)
    # integer keys (strip, rank of the low end along a) sort the boxes by
    # strip, then along a, and turn every window into a key range, which is
    # empty in an empty strip; a strip is at least 1e-6 of the scale tall,
    # so strips number below 2e6 and the keys fit int64 with room to spare
    by_a = np.argsort(lo[:, a], kind="stable")
    rank = np.argsort(by_a)
    keys = strip * n + rank
    order = np.argsort(keys)
    keys = keys[order]
    r, s = rank[order], strip[order]
    upto = np.searchsorted(lo[by_a, a], hi[order, a] + reach, side="right")
    # the windows of the strips below, at and above each box's, in one step
    near = s + np.array([[-1], [0], [1]])
    starts = np.searchsorted(keys, near * n + r + 1)
    counts = np.searchsorted(keys, near * n + upto) - starts
    # window w is the box's at sorted position w mod n; only those that hold a box are expanded
    keep = np.flatnonzero(counts > 0)
    box, starts, counts = order[keep % n], starts.ravel()[keep], counts.ravel()[keep]
    ends = np.cumsum(counts)
    # each accepted pair is one integer key i * n + j (i < j): one sort gives the lexicographic order
    found = [np.empty(0, dtype=np.intp)]
    batch = _chunk_rows(1)  # the work arrays hold one value per candidate
    w = 0
    while w < counts.shape[0]:
        # windows w..t-1 expand to at most `batch` candidates (or one window)
        done = int(ends[w - 1]) if w else 0
        t = max(w + 1, int(np.searchsorted(ends, done + batch, side="right")))
        c = counts[w:t]
        j = order[np.repeat(starts[w:t] - (np.cumsum(c) - c), c) + np.arange(int(ends[t - 1]) - done)]
        # the box test one axis at a time on 1-D columns: first across the
        # strips, where most candidates fail, with box i's ends taken once a window
        ok = np.minimum(np.repeat(hi[box[w:t], b], c), hi[j, b]) - np.maximum(np.repeat(lo[box[w:t], b], c), lo[j, b]) >= -pad
        i, j = np.repeat(box[w:t], c)[ok], j[ok]
        ok = np.minimum(hi[i, a], hi[j, a]) - np.maximum(lo[i, a], lo[j, a]) >= -pad
        i, j = i[ok], j[ok]
        found.append(np.minimum(i, j) * n + np.maximum(i, j))
        w = t
    pairs = np.concatenate(found)
    del found
    pairs.sort()
    ii = pairs // n
    pairs %= n
    return ii, pairs


# ---------------------------------------------------------------------------
# intersection / overlap


def overlap_areas(S: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Areas of the intersections S[k] ∩ C[k] of stacked convex polygons.

    S is a (P, Vs, 2) stack of subject polygons and C a (P, Vc, 2) stack of
    convex ccw clip polygons; every area is 0 when either has fewer than 3
    vertices.  Sutherland-Hodgman runs on all pairs at once, one clip edge
    at a time, on flat x and y arrays that hold the clipped polygons one
    after another, with no padding; predecessors, crossings and kept
    vertices are gathered and scattered by flat index.  Crossings are
    computed parametrically on the subject edge, so every emitted point
    lies on that edge; sign noise at shared vertices can only produce
    degenerate slivers, never far-away intersection artifacts.  Each area
    is `measures` of the polygons clipped to one vertex count, whose
    shoelace sums numpy adds pairwise along the row as it adds a 1-D array,
    so it is bitwise the area of that clipped polygon.
    """
    S = np.asarray(S, dtype=float)
    C = np.asarray(C, dtype=float)
    P, nc = S.shape[0], C.shape[1]
    out = np.zeros(P)
    if P == 0 or S.shape[1] < 3 or nc < 3:
        return out
    # polygon k's vertices are x, y[start[k] : start[k] + count[k]]
    x, y = S[..., 0].ravel(), S[..., 1].ravel()
    cx, cy = np.ascontiguousarray(C[..., 0].T), np.ascontiguousarray(C[..., 1].T)
    start, count = np.arange(P) * S.shape[1], np.full(P, S.shape[1])
    for i in range(nc):
        ex, ey = cx[(i + 1) % nc] - cx[i], cy[(i + 1) % nc] - cy[i]
        d = np.repeat(ex, count) * (y - np.repeat(cy[i], count)) - np.repeat(ey, count) * (x - np.repeat(cx[i], count))
        # each vertex e follows s, the previous vertex of its polygon (cyclically)
        prev = np.arange(-1, d.shape[0] - 1)
        prev[start[count > 0]] += count[count > 0]
        inside = d >= 0.0
        cross = inside != inside[prev]
        # e emits the crossing on (s, e) if any, then itself if inside, from
        # flat position at[e] of the next arrays on
        at = np.zeros(d.shape[0] + 1, dtype=np.intp)
        np.cumsum(np.add(cross, inside, dtype=np.intp), out=at[1:])
        start, count = at[start], at[start + count] - at[start]
        nx, ny = np.empty(at[-1]), np.empty(at[-1])
        s, e = prev[cross], np.flatnonzero(cross)
        t = d[s] / (d[s] - d[e])
        nx[at[e]] = x[s] + t * (x[e] - x[s])
        ny[at[e]] = y[s] + t * (y[e] - y[s])
        e = np.flatnonzero(inside)
        nx[at[e] + cross[e]], ny[at[e] + cross[e]] = x[e], y[e]
        x, y = nx, ny
    for k in sorted(set(count[count >= 3].tolist())):
        r = np.nonzero(count == k)[0]
        v = start[r, None] + np.arange(k)
        out[r] = measures(np.stack([x[v], y[v]], axis=-1), "area")
    return out


def _overlap_lengths(S: np.ndarray, C: np.ndarray, tol: float) -> np.ndarray:
    """Lengths of the common parts of the segments S[k] and the collinear
    closed polygons C[k], for stacks (P, 2, 2) and (P, Vc, 2): 0 where
    either is a point or a vertex of C[k] lies off the line of S[k] by more
    than tol.  Each vertex is projected onto the segment's direction by its
    own (1, 2) @ (2, 1) product, which rounds as `np.dot` of two vectors."""
    if S.shape[1] > 2:
        raise ValueError("length overlaps are only defined for segments")
    if S.shape[1] < 2 or C.shape[1] < 2:
        return np.zeros(S.shape[0])
    p0, d = S[:, 0], S[:, 1] - S[:, 0]
    la = np.hypot(d[:, 0], d[:, 1])
    u = d / np.where(la > 0.0, la, 1.0)[:, None]  # a segment that rounds to a point has u = 0
    w = C - p0[:, None]
    off = (np.abs(u[:, None, 0] * w[..., 1] - u[:, None, 1] * w[..., 0]) > tol).any(axis=1)
    s = (w[..., None, :] @ u[:, None, :, None])[..., 0, 0]
    common = np.maximum(0.0, np.minimum(la, s.max(axis=1)) - np.maximum(0.0, s.min(axis=1)))
    return np.where(off, 0.0, common)


def overlap_measures(S: np.ndarray, C: np.ndarray, kind: MeasureKind, tol: float = _CONSTRUCTION_TOL) -> np.ndarray:
    """Measures of the intersections S[k] ∩ C[k] of stacked polygons under
    the scheme's measure kind: `overlap_areas` for area, the common length
    of collinear segments for length."""
    if kind == "area":
        return overlap_areas(S, C)
    if kind == "length":
        return _overlap_lengths(np.asarray(S, dtype=float), np.asarray(C, dtype=float), tol)
    raise ValueError(f"unknown measure kind {kind!r}")
