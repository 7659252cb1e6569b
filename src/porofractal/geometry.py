"""Planar metric-measure substrate: convex polygons, affine maps, measures.

Polygons are vertex arrays in counterclockwise order; a single vertex (a
point) and a vertex pair (a segment) are allowed as degenerate cases so that
one-dimensional constructions ride on the same machinery.  All operations are
pure and all values immutable, so everything here is safe to call from
parallel sweeps.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import SingularMapError

MeasureKind = Literal["area", "length"]

_CONSTRUCTION_TOL = DEFAULT_TOLERANCES.geom


def _frozen(a) -> np.ndarray:
    """A read-only C-ordered float copy."""
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Point2:
    """A point of the plane with finite coordinates."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise ValueError("point coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    def distance_to(self, other: "Point2") -> float:
        return float(np.hypot(self.x - other.x, self.y - other.y))


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
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
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

    @classmethod
    def _unchecked(cls, linear: np.ndarray, translation: np.ndarray) -> "AffineMap2":
        # fast path for maps that are valid by construction (rows of a built
        # tree); skips the shape and finiteness checks
        obj = object.__new__(cls)
        object.__setattr__(obj, "linear", _frozen(linear))
        object.__setattr__(obj, "translation", _frozen(translation))
        return obj

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
        if abs(self.det) <= tol:
            raise SingularMapError("cannot invert a numerically singular map")
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


def apply(m: AffineMap2, p: ConvexPolygon, tol: float = _CONSTRUCTION_TOL) -> ConvexPolygon:
    """Vertex-wise image of p under m, reordered ccw if m reverses orientation."""
    _require_nonsingular(m, tol)
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
    # products are bitwise the per-map ones
    return L @ lin, (L @ tr)[..., 0] + T


def _fold(children: tuple[np.ndarray, np.ndarray], words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear parts (W, 2, 2) and translations (W, 2) of the accumulated maps
    of the rows of `words` (W, n) over `_stack_maps` arrays, first symbol
    outermost: the first column's maps, then build_tree's step per column,
    as `reduce(compose, ...)` goes, so each row is bitwise that composition.
    A call costs n stacked steps whatever W is; the caller checks symbols."""
    if not words.size:
        return np.broadcast_to(np.eye(2), (words.shape[0], 2, 2)), np.zeros((words.shape[0], 2))
    lins, trs = children[0][words.T - 1], children[1][words.T - 1]
    L, T = lins[0], trs[0, ..., 0]
    for lin, tr in zip(lins[1:], trs[1:]):
        L, T = _step(L, T, lin, tr)
    return L, T


def _images(base: np.ndarray, L: np.ndarray, T: np.ndarray, ccw: bool = True) -> np.ndarray:
    """The base's vertices under each map (L[k], T[k]), (N, V, 2), in the
    operand order of `AffineMap2.transform`; with ccw, reversed where the
    map reverses orientation."""
    v = base[None] @ L.transpose(0, 2, 1) + T[:, None]
    if ccw and base.shape[0] >= 3:
        # det < 0, compared without the subtraction: a difference of two
        # floats is negative exactly when the first is the smaller
        flip = L[:, 0, 0] * L[:, 1, 1] < L[:, 0, 1] * L[:, 1, 0]
        if flip.any():
            v[flip] = v[flip, ::-1]
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
    stack (exact for convex polygons)."""
    diff = verts[:, :, None, :] - verts[:, None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1]).max(axis=(1, 2))


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


def _vertex_edge(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances from the points p to the segments (a, b) and orientations
    of p against them (positive on the left), over broadcast (..., 2)
    arrays.  The closest point is clamped to the segment (Ericson, Real-Time
    Collision Detection, 2005, 5.1.2); a zero-length one is its start.
    Every entry takes the same float operations, whatever the shapes, so a
    table of many vertex-edge pairs is bitwise many scalar queries."""
    e = b - a
    w = p - a
    ex, ey, wx, wy = e[..., 0], e[..., 1], w[..., 0], w[..., 1]
    denom = ex * ex + ey * ey
    t = np.clip((wx * ex + wy * ey) / np.where(denom > 0.0, denom, 1.0), 0.0, 1.0)
    d = np.hypot(p[..., 0] - (a[..., 0] + t * ex), p[..., 1] - (a[..., 1] + t * ey))
    return d, ex * wy - ey * wx


def _inside(points: np.ndarray, cells: np.ndarray, tol: float) -> np.ndarray:
    """Whether points[k] lies in the closed polygon cells[k] of a (P, V, 2)
    stack within distance tol: on the inner side of every edge line, or
    near a point or segment."""
    t = _edge_ends(cells.shape[1])
    if cells.shape[1] < 3:
        return _vertex_edge(points[:, None], cells[:, :1], cells[:, t])[0][:, 0] <= tol
    e = cells[:, t] - cells
    w = points[:, None] - cells
    cross = e[..., 0] * w[..., 1] - e[..., 1] * w[..., 0]
    return (cross / np.hypot(e[..., 0], e[..., 1]) >= -tol).all(axis=1)


def point_in_polygon(point, p: ConvexPolygon, tol: float = _CONSTRUCTION_TOL) -> bool:
    """True if the point lies in the closed polygon, within distance tol."""
    return bool(_inside(np.asarray(point, dtype=float).reshape(1, 2), p.vertices[None], tol)[0])


def point_distances(points: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Distances from the points (P, 2) to the closed convex polygons of a
    (P, V, 2) stack, row by row (0 inside): the least distance to an edge,
    one vertex-edge table of one direction."""
    t = _edge_ends(cells.shape[1])
    d = _vertex_edge(points[:, None], cells[:, : t.shape[0]], cells[:, t])[0].min(axis=1)
    return np.where(_inside(points, cells, 0.0), 0.0, d)


def _pair_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distances between the boundaries of A[k] and B[k], for stacks
    (P, Va, 2) and (P, Vb, 2): 0 where they meet.

    Two edges are apart by the least distance from an end of one to the
    other, unless they cross.  Each such term belongs to one vertex and one
    edge, so it is computed once: a (P, Va, Eb) table of A's vertices
    against B's edges, a (P, Vb, Ea) table of B's against A's, each with
    the orientations.  Edges cross when the ends of each lie strictly on
    both sides of the other's line: two sign products of table entries."""
    ta, tb = _edge_ends(A.shape[1]), _edge_ends(B.shape[1])
    Ea, Eb = ta.shape[0], tb.shape[0]
    da, oa = _vertex_edge(A[:, :, None], B[:, None, :Eb], B[:, None, tb])
    db, ob = _vertex_edge(B[:, :, None], A[:, None, :Ea], A[:, None, ta])
    P = A.shape[0]
    d = np.minimum(da.reshape(P, -1).min(axis=1), db.reshape(P, -1).min(axis=1))
    crossing = (oa[:, :Ea] * oa[:, ta] < 0.0) & (ob[:, :Eb] * ob[:, tb] < 0.0).transpose(0, 2, 1)
    k, i, j = np.nonzero(crossing)
    if k.shape[0]:
        # a proper crossing lies in both bounding boxes; requiring them to
        # meet keeps rounding noise in the orientations of collinear
        # disjoint segments from reading as a crossing
        a1, a2, b1, b2 = A[k, i], A[k, ta[i]], B[k, j], B[k, tb[j]]
        meet = np.minimum(np.maximum(a1, a2), np.maximum(b1, b2)) >= np.maximum(np.minimum(a1, a2), np.minimum(b1, b2))
        d[k[meet.all(axis=1)]] = 0.0
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
    k = pos[((la >= lb) & (ha <= hb)).all(axis=1) | ((lb >= la) & (hb <= ha)).all(axis=1)]
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


_PAIR_CHUNK = 131072


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
        self.lo, self.hi = vertices.min(axis=1), vertices.max(axis=1)
        self.centroids = vertices.mean(axis=1)

    def box_gaps(self, ii, jj) -> np.ndarray:
        """Bounding-box gaps of the index pairs: lower bounds on min_distance."""
        return _box_gaps(self.lo[ii], self.hi[ii], self.lo[jj], self.hi[jj])

    def farthest_box_gaps(self) -> np.ndarray:
        """max_j box_gaps(i, j) for every polygon i, a lower bound on its
        largest min_distance to any polygon of the set.

        Each gap is the largest of four functions, each convex and
        nondecreasing in one of the corner points (lo_x, lo_y), (lo_x, -hi_y),
        (-hi_x, lo_y), (-hi_x, -hi_y) of j.  So the maximum is reached on the
        hull vertices of the Pareto-maximal points of those sets, and only
        these few polygons are compared against every row.
        """
        lo, hi = self.lo, self.hi
        corners = [(lo[:, 0], lo[:, 1]), (lo[:, 0], -hi[:, 1]), (-hi[:, 0], lo[:, 1]), (-hi[:, 0], -hi[:, 1])]
        n = lo.shape[0]
        extreme = np.zeros(n, dtype=bool)
        for u, v in corners:
            extreme[_maximal_hull(u, v)] = True
        far = np.nonzero(extreme)[0]
        out = np.empty(n)
        step = max(1, _PAIR_CHUNK // far.shape[0])
        for a in range(0, n, step):
            b = min(n, a + step)
            out[a:b] = _box_gaps(lo[a:b, None], hi[a:b, None], lo[None, far], hi[None, far]).max(axis=1)
        return out

    def distances(self, ii, jj) -> np.ndarray:
        """Exact min_distance for the index pairs (ii[k], jj[k])."""
        ii = np.asarray(ii, dtype=int)
        jj = np.asarray(jj, dtype=int)
        n = ii.shape[0]
        out = np.empty(n)
        if n == 0:
            return out
        V = self.vertices.shape[1]
        step = max(1, _PAIR_CHUNK // (V * _edge_ends(V).shape[0]))
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            out[lo:hi] = _pair_distances(self.vertices[ii[lo:hi]], self.vertices[jj[lo:hi]])
        _zero_nested(out, (self.vertices, self.lo, self.hi, ii), (self.vertices, self.lo, self.hi, jj))
        return out


def _box_gaps(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    """Euclidean gaps between axis-aligned boxes (broadcasting, last axis xy)."""
    d = np.maximum(np.maximum(lo_b - hi_a, lo_a - hi_b), 0.0)
    return np.hypot(d[..., 0], d[..., 1])


def _maximal_hull(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Indices of the points (u, v) that are Pareto-maximal and vertices of
    the convex hull of the Pareto-maximal points.

    A function convex and nondecreasing in u and v takes its maximum over
    all the points at one of them.
    """
    order = np.lexsort((-v, -u))
    vs = v[order]
    keep = np.ones(vs.shape[0], dtype=bool)
    keep[1:] = vs[1:] > np.maximum.accumulate(vs)[:-1]
    front = order[keep]
    us, vs = u[front].tolist(), v[front].tolist()
    # the front runs with u falling and v rising; its hull chain turns left
    hull: list[int] = []
    for p in range(len(us)):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            if (us[a] - us[o]) * (vs[p] - vs[o]) - (vs[a] - vs[o]) * (us[p] - us[o]) > 0.0:
                break
            hull.pop()
        hull.append(p)
    return front[hull]


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
    height = max((float((hi[:, b] - lo[:, b]).max()) + reach) * (1.0 + 1e-6), 1e-6 * scale)
    if height > 0.0:
        strip = np.floor((lo[:, b] - lo[:, b].min()) / height).astype(np.int64)
    else:
        strip = np.zeros(n, dtype=np.int64)
    # integer keys (dense strip id, rank of the low end along a) sort the
    # boxes by strip, then along a, and turn every window into a key range
    by_a = np.argsort(lo[:, a], kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_a] = np.arange(n)
    levels = np.sort(strip)
    levels = levels[np.concatenate([[True], levels[1:] != levels[:-1]])]
    dense = np.searchsorted(levels, strip)
    order = np.argsort(dense * n + rank)
    keys = (dense * n + rank)[order]
    d, r, s = dense[order], rank[order], strip[order]
    upto = np.searchsorted(lo[by_a, a], hi[order, a] + reach, side="right")
    starts, counts = [], []
    for step in (-1, 0, 1):
        near = np.clip(d + step, 0, levels.shape[0] - 1)
        start = np.searchsorted(keys, near * n + r + 1)
        count = np.searchsorted(keys, near * n + upto) - start
        starts.append(start)
        counts.append(np.where(levels[near] == s + step, np.maximum(count, 0), 0))
    rows = np.tile(np.arange(n), 3)
    starts, counts = np.concatenate(starts), np.concatenate(counts)
    ends = np.cumsum(counts)
    ii_parts, jj_parts = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    w = 0
    while w < rows.shape[0]:
        # windows w..t-1 expand to at most _PAIR_CHUNK candidates (or one window)
        done = int(ends[w - 1]) if w else 0
        t = max(w + 1, int(np.searchsorted(ends, done + _PAIR_CHUNK, side="right")))
        c = counts[w:t]
        at = np.repeat(rows[w:t], c)
        to = np.repeat(starts[w:t] - (np.cumsum(c) - c), c) + np.arange(at.shape[0])
        i, j = order[at], order[to]
        ok = ((np.minimum(hi[i], hi[j]) - np.maximum(lo[i], lo[j])) >= -pad).all(axis=1)
        i, j = i[ok], j[ok]
        ii_parts.append(np.minimum(i, j))
        jj_parts.append(np.maximum(i, j))
        w = t
    ii, jj = np.concatenate(ii_parts), np.concatenate(jj_parts)
    lex = np.lexsort((jj, ii))
    return ii[lex], jj[lex]


# ---------------------------------------------------------------------------
# intersection / overlap


def overlap_areas(S: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Areas of the intersections S[k] ∩ C[k] of stacked convex polygons.

    S is a (P, Vs, 2) stack of subject polygons and C a (P, Vc, 2) stack of
    convex ccw clip polygons; every area is 0 when either has fewer than 3
    vertices.  Sutherland-Hodgman runs on all pairs at once, one clip edge
    at a time: each clipped polygon is a padded row with its own vertex
    count.  Crossings are computed parametrically on the subject edge, so
    every emitted point lies on that edge; sign noise at shared vertices can
    only produce degenerate slivers, never far-away intersection artifacts.
    Each area is `measures` of the rows clipped to one vertex count, whose
    shoelace sums numpy adds pairwise along the row as it adds a 1-D array,
    so it is bitwise the area of that clipped polygon.
    """
    S = np.asarray(S, dtype=float)
    C = np.asarray(C, dtype=float)
    P, nc = S.shape[0], C.shape[1]
    out = np.zeros(P)
    if P == 0 or S.shape[1] < 3 or nc < 3:
        return out
    pts = S
    count = np.full(P, S.shape[1])
    rows = np.arange(P)[:, None]
    for i in range(nc):
        cp1 = C[:, i]
        edge = C[:, (i + 1) % nc] - cp1
        col = np.arange(pts.shape[1])[None, :]
        valid = col < count[:, None]
        d = edge[:, :1] * (pts[..., 1] - cp1[:, 1:]) - edge[:, 1:] * (pts[..., 0] - cp1[:, :1])
        # each vertex e follows s, the previous vertex of its row (cyclically)
        prev = np.where(col == 0, count[:, None] - 1, col - 1)
        ds = d[rows, prev]
        inside = (d >= 0.0) & valid
        cross = ((d >= 0.0) != (ds >= 0.0)) & valid
        # e emits the crossing on (s, e) if any, then itself if inside
        ends = np.cumsum(cross.astype(np.intp) + inside, axis=1)
        count = ends[:, -1]
        width = int(count.max())
        if width == 0:
            return out
        nxt = np.zeros((P, width, 2))
        r, c = np.nonzero(cross)
        s, e = pts[r, prev[r, c]], pts[r, c]
        t = ds[r, c] / (ds[r, c] - d[r, c])
        nxt[r, ends[r, c] - inside[r, c] - 1] = s + t[:, None] * (e - s)
        r, c = np.nonzero(inside)
        nxt[r, ends[r, c] - 1] = pts[r, c]
        pts = nxt
    for k in sorted(set(count[count >= 3].tolist())):
        r = np.nonzero(count == k)[0]
        out[r] = measures(pts[r, :k], "area")
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
    u = d / la[:, None]
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
