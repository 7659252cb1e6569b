import dataclasses
import itertools
import json
import tracemalloc
from functools import lru_cache, reduce

import numpy as np
import pytest

from porofractal.codespace import Address, Code
from porofractal.dynamics import chaos_report
from porofractal.geometry import AffineMap2, ConvexPolygon, _chunk_rows, _pair_distances, _zero_nested, apply, compose, diameters, measure, measures
from porofractal.scheme import BUILTIN_NAMES, CellTree, Scheme, build_tree, builtin


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


def traced(fn):
    """Call fn under tracemalloc: its result, the peak of the memory it
    allocated, and the part of it still held on return, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


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


def box_overlap_pairs_oracle(lo: np.ndarray, hi: np.ndarray, pad: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j, in lexicographic order, of boxes that overlap once
    grown by pad: min(hi_i, hi_j) - max(lo_i, lo_j) >= -pad on both axes.
    The oracle for geometry.box_overlap_pairs: the same strips, windows and
    keys, with every window expanded and each candidate's two boxes
    gathered as (k, 2) rows and tested by `.all(axis=1)`.

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
    starts, counts = np.concatenate(starts), np.concatenate(counts)
    ends = np.cumsum(counts)
    # each accepted pair is kept as one key i * n + j (i < j), so one sort
    # of the keys gives the lexicographic order
    found = []
    # the largest work arrays hold both coordinates of each candidate
    batch = _chunk_rows(2)
    w = 0
    while w < starts.shape[0]:
        # windows w..t-1 expand to at most `batch` candidates (or one window);
        # window w belongs to the box at sorted position w mod n
        done = int(ends[w - 1]) if w else 0
        t = max(w + 1, int(np.searchsorted(ends, done + batch, side="right")))
        c = counts[w:t]
        at = np.repeat(np.arange(w, t) % n, c)
        to = np.repeat(starts[w:t] - (np.cumsum(c) - c), c) + np.arange(at.shape[0])
        i, j = order[at], order[to]
        ok = ((np.minimum(hi[i], hi[j]) - np.maximum(lo[i], lo[j])) >= -pad).all(axis=1)
        i, j = i[ok], j[ok]
        found.append(np.minimum(i, j) * n + np.maximum(i, j))
        w = t
    pairs = np.concatenate(found)
    del found
    pairs.sort()
    ii = pairs // n
    pairs -= ii * n
    return ii, pairs


def overlap_areas_oracle(S: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Areas of the intersections S[k] ∩ C[k] of stacked convex polygons,
    on padded (P, w, 2) rows: the oracle for geometry.overlap_areas.

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


def image_oracle(m: AffineMap2, v: np.ndarray) -> np.ndarray:
    """Vertices of the image of the polygon v under m, one map at a time and
    without the singularity check: the oracle for geometry.apply and the
    stacked images.  Reversed when m reverses orientation, so that a
    polygon stays counterclockwise."""
    mapped = m.transform(v)
    if m.det < 0.0 and mapped.shape[0] >= 3:
        mapped = mapped[::-1]
    return mapped


def segment_overlap_length_oracle(a: np.ndarray, b: np.ndarray, tol: float) -> float:
    """Length of the common part of two collinear closed segments, given as
    vertex arrays (0 when either is a point), one vertex at a time: the
    oracle for geometry.overlap_measures on length schemes."""
    if a.shape[0] < 2 or b.shape[0] < 2:
        return 0.0
    p0, p1 = a
    d = p1 - p0
    la = float(np.hypot(d[0], d[1]))
    u = d / la
    for q in b:
        if abs(u[0] * (q[1] - p0[1]) - u[1] * (q[0] - p0[0])) > tol:
            return 0.0
    s = [float(np.dot(q - p0, u)) for q in b]
    lo, hi = min(s), max(s)
    return max(0.0, min(la, hi) - max(0.0, lo))


def symbol_at_oracle(c: Code, i: int) -> int:
    """Symbol i of a code, read one symbol at a time: the oracle for
    Code.prefix and the agreement runs of the Li-Yorke witness."""
    if i < len(c.preperiod):
        return c.preperiod[i]
    if c.period:
        return c.period[(i - len(c.preperiod)) % len(c.period)]
    raise IndexError(f"index {i} beyond the declared horizon {len(c.preperiod)}")


def address_oracle(t: CellTree, n: int, rows: np.ndarray) -> np.ndarray:
    """Address symbols (R, n) of some rows of level n, all digits at once by
    `np.unravel_index` over the radix (m,)*(n-1) + (M,): the oracle for
    CellTree.address."""
    if not n:
        return np.zeros((len(rows), 0), dtype=np.intp)
    radix = (t.scheme.m,) * (n - 1) + (t.scheme.M,)
    return np.stack(np.unravel_index(rows, radix), axis=1) + 1


@lru_cache(maxsize=4)
def _tree_rows(t: CellTree, n: int) -> dict[tuple[int, ...], int]:
    return {tuple(w): row for row, w in enumerate(address_oracle(t, n, np.arange(t.vertices[n].shape[0])).tolist())}


def tree_polygon(t: CellTree, address: Address) -> ConvexPolygon:
    """The tree's own cell polygon with this address, found by decoding
    every row of its level and matching the symbols; unlike
    scheme.address_vertices, it does not fold the address through the maps
    the tree was built with."""
    return ConvexPolygon._unchecked(t.vertices[len(address)][_tree_rows(t, len(address))[address.symbols]])


def build_levels_oracle(s: Scheme, depth: int) -> list[tuple[list[Address], np.ndarray, np.ndarray]]:
    """Per-cell construction of a cell tree: the oracle for
    scheme.build_tree.  Each kept cell's accumulated map is composed with
    every child map and the base is mapped through the result, one cell at
    a time.  Per level: addresses, vertices, linear parts."""
    level = [(Address((), s.m, s.M), AffineMap2(np.eye(2), np.zeros(2)))]
    levels = []
    for n in range(depth + 1):
        if n:
            level = [
                (Address(a.symbols + (j,), s.m, s.M), compose(acc, s.child_maps[j - 1]))
                for a, acc in level
                if a.is_kept
                for j in range(1, s.M + 1)
            ]
        levels.append(
            (
                [a for a, _ in level],
                np.stack([image_oracle(acc, s.base.vertices) for _, acc in level]),
                np.stack([acc.linear for _, acc in level]),
            )
        )
    return levels


def iterate_attractor_oracle(maps, cells: list[ConvexPolygon], k: int) -> list[ConvexPolygon]:
    """Every map applied to every cell by `apply`, one generation at a
    time, maps varying slowest: the oracle for ifs.iterate_attractor."""
    for _ in range(k):
        cells = [apply(w, c) for w in maps for c in cells]
    return cells


def total_measure_oracle(sys_, cells) -> float:
    """One `measure` call per cell, summed in cell order: the oracle for
    ifs.total_measure."""
    return float(sum(measure(c, sys_.measure_kind) for c in cells))


def report_json_oracle(report) -> str:
    """One `json.dumps` of a whole report, the stdlib encoder holding every
    token before it joins them: the oracle for the reports' streamed
    `json_chunks`."""
    if hasattr(report, "to_dict"):
        return json.dumps(report.to_dict(), indent=2, sort_keys=True)
    return json.dumps(report, default=vars, indent=2, sort_keys=True)


# (scheme, n) of the chaos reports the benchmark encodes, at horizon 64
WITNESS_INPUTS = (("cantor", 8), ("koch", 8), ("pascal3", 4), ("carpet", 3))
# (scheme, depth) of a full_verify report of every built-in
VERIFY_INPUTS = (("carpet", 3), ("pascal3", 3), ("koch", 8), ("cantor", 9))


@pytest.fixture(scope="session")
def witness_reports():
    """Memoized chaos reports at horizon 64, keyed by (scheme, n)."""
    cache = {}

    def _report(name: str, n: int):
        if (name, n) not in cache:
            cache[name, n] = chaos_report(builtin(name), n, 64)
        return cache[name, n]

    return _report


def accumulated_map_oracle(s: Scheme, symbols: tuple[int, ...]) -> AffineMap2:
    """Per-symbol composition child_maps[i1] o ... o child_maps[in]: the
    oracle for scheme's batched fold of words."""
    if not symbols:
        return AffineMap2(np.eye(2), np.zeros(2))
    return reduce(compose, (s.child_maps[i - 1] for i in symbols))


def address_vertices_oracle(s: Scheme, address: Address) -> np.ndarray:
    """Cell vertices of one address by per-symbol composition: the oracle
    for scheme.address_vertices."""
    return image_oracle(accumulated_map_oracle(s, address.symbols), s.base.vertices)


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


def min_distance_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """Edge-pair route to the distance of two closed convex polygons: the
    oracle for PairDistanceEvaluator.distances and `min_distance` below.

    Every edge of a meets every edge of b; a pair is apart by the least of
    its four end-to-segment distances, or 0 when the edges properly cross
    (orientation signs differ both ways and the bounding boxes meet).  When
    the boundaries are apart and one bounding box holds the other, one
    polygon holding a vertex of the other means 0.
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
    if dist > 0.0:
        la, ha, lb, hb = a.min(axis=0), a.max(axis=0), b.min(axis=0), b.max(axis=0)
        if not (((la >= lb) & (ha <= hb)).all() or ((lb >= la) & (hb <= ha)).all()):
            return dist
    if dist > 0.0 and (contains_oracle(b, a[0], 0.0) or contains_oracle(a, b[0], 0.0)):
        return 0.0
    return dist


def min_distance(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Distance of two closed convex polygons of any vertex counts, by the
    kernels of PairDistanceEvaluator.distances (which takes one (k, V, 2)
    stack): 0 when they touch, overlap, or one holds the other."""
    A, B, row = a.vertices[None], b.vertices[None], np.zeros(1, dtype=np.intp)
    d = _pair_distances(A, B)
    _zero_nested(d, (A, A.min(axis=1), A.max(axis=1), row), (B, B.min(axis=1), B.max(axis=1), row))
    return float(d[0])


def min_distance_matrix(polys: list[ConvexPolygon]) -> np.ndarray:
    """Symmetric matrix of pairwise scalar min_distance values (diagonal
    zero): the brute-force oracle for the separation sweeps."""
    n = len(polys)
    mat = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        mat[i, j] = mat[j, i] = min_distance(polys[i], polys[j])
    return mat


def similarity_map(scale: float, angle: float, translation=(0.0, 0.0), reflect: bool = False) -> AffineMap2:
    """Similarity of the given ratio: rotation by `angle` (radians), optional
    reflection across the x-axis applied first."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    if reflect:
        rot = rot @ np.diag([1.0, -1.0])
    return AffineMap2(scale * rot, np.asarray(translation, dtype=float))


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


def overlapping_complement_cantor() -> Scheme:
    """Cantor whose complement map equals kept map 1, as the carpet's does.

    The order-1 complement [0, 1/3] then contains every order-2 complement
    of child 1, so complement cells of different orders share length.
    """
    s = builtin("cantor")
    return dataclasses.replace(s, name="cantor-overlap", child_maps=s.child_maps[:2] + s.child_maps[:1])


@pytest.fixture(scope="session")
def carpet_gap() -> Scheme:
    return shrunk_complement_carpet()


@pytest.fixture(scope="session")
def carpet_overlap() -> Scheme:
    return overlapping_complement_carpet()
