"""Subdivision schemes: a base polygon plus M affine child maps.

A scheme is the machine description of one porous subdivision construction:
child maps 1..m produce the kept pieces that are subdivided again, maps
m+1..M produce the complement pieces that are removed and never subdivided.
Building the construction to finite depth yields a CellTree whose kept cells
carry the addresses of the symbolic code space.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codespace import Address, Code
from .config import BUILTIN_NAMES, DEFAULT_CAPS, DEFAULT_TOLERANCES, Caps
from .errors import CapExceededError, ParseError, UnknownSchemeError, ValidationError
from .geometry import (
    AffineMap2,
    ConvexPolygon,
    MeasureKind,
    Point2,
    _fold,
    _images,
    _inside,
    _levels,
    _stack_maps,
    diameters,
    measure,
    measures,
    overlap_measures,
)


@dataclass(frozen=True, eq=False)
class Scheme:
    """Base polygon, M child maps (kept first), and the split index m."""

    name: str
    m: int
    M: int
    base: ConvexPolygon
    child_maps: tuple[AffineMap2, ...]
    measure_kind: MeasureKind = "area"

    def __post_init__(self) -> None:
        if not (isinstance(self.m, int) and isinstance(self.M, int) and 1 < self.m < self.M):
            raise ValueError("split indices must be integers with 1 < m < M")
        if len(self.child_maps) != self.M:
            raise ValueError(f"expected {self.M} child maps, got {len(self.child_maps)}")
        if self.measure_kind not in ("area", "length"):
            raise ValueError(f"unknown measure kind {self.measure_kind!r}")
        if self.measure_kind == "length" and not self.base.is_degenerate:
            raise ValueError("length measure requires a degenerate (segment) base")

    def base_measure(self) -> float:
        return measure(self.base, self.measure_kind)

    def max_kept_norm(self) -> float:
        """Largest operator norm among the kept child maps."""
        return max(self.child_maps[j].operator_norm for j in range(self.m))

    @cached_property
    def _children(self) -> tuple[np.ndarray, np.ndarray]:
        return _stack_maps(self.child_maps)


@dataclass(frozen=True, eq=False)
class Cell:
    """One kept construction piece: its address and polygon."""

    address: Address
    polygon: ConvexPolygon


@dataclass(frozen=True, eq=False)
class CellTree:
    """Per-depth read-only cell vertices (N, V, 2); level 0 holds the base.

    Row p*M + (j-1) of level n holds child j of the p-th kept cell of level
    n-1, so an address is the digits of its row and is never stored.
    `levels` is another name for `vertices`, and `kept_cells` reads one
    level's kept rows as Cells.
    """

    scheme: Scheme
    depth: int
    vertices: tuple[np.ndarray, ...]

    @property
    def levels(self) -> tuple[np.ndarray, ...]:
        return self.vertices

    def kept_rows(self, depth: int) -> np.ndarray:
        """Rows of the kept cells of a level, in address order."""
        return np.flatnonzero(np.arange(self.vertices[depth].shape[0]) % self.scheme.M < self.scheme.m)

    def complement_rows(self, depth: int) -> np.ndarray:
        """Rows of the complement cells of a level, in address order."""
        return np.flatnonzero(np.arange(self.vertices[depth].shape[0]) % self.scheme.M >= self.scheme.m)

    def address(self, depth: int, row: int) -> Address:
        """Address of one row of a level: the row's digits are the kept-parent
        index in base m, then j - 1."""
        if not 0 <= depth <= self.depth:
            raise IndexError(f"depth {depth} outside 0..{self.depth}")
        if not 0 <= row < self.vertices[depth].shape[0]:
            raise IndexError(f"row {row} outside level {depth}")
        m, M = self.scheme.m, self.scheme.M
        p, digits = int(row), []
        for radix in ((M,) + (m,) * (depth - 1))[:depth]:
            p, d = divmod(p, radix)
            digits.append(d + 1)
        return Address(tuple(digits[::-1]), m, M)

    def kept_cells(self, depth: int) -> tuple[Cell, ...]:
        """The kept cells of a level in address order: the k-th kept row's
        address is k in base m, the order of `itertools.product`."""
        m, M = self.scheme.m, self.scheme.M
        level, words = self.vertices[depth], itertools.product(range(1, m + 1), repeat=depth)
        return tuple(Cell(Address(w, m, M), ConvexPolygon._unchecked(level[r])) for w, r in zip(words, self.kept_rows(depth).tolist()))


# ---------------------------------------------------------------------------
# built-ins


def builtin(name: str) -> Scheme:
    """One of the four built-in schemes.

    carpet: unit square cut into nine 1/3-scale squares; the center square
        (index 9) is the complement, the eight ring squares are kept.
    pascal3: unit equilateral triangle cut into nine side-1/3 triangles; the
        six upright ones are kept, the three inverted ones (180 degree
        rotations, indices 7..9) are the complement.
    koch: isosceles triangle with base angles of 30 degrees cut into three
        equal-area triangles; the two outer ratio-1/sqrt(3) mirrored
        similarity images are kept, the central equilateral triangle of side
        1/3 (index 3) is the complement.
    cantor: unit segment with maps x/3 and x/3 + 2/3 kept and the middle
        third x/3 + 1/3 as complement; measured by length.
    """
    if name == "carpet":
        third = np.eye(2) / 3.0
        offsets = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2), (2, 2), (1, 1)]
        maps = tuple(AffineMap2(third, np.array(o, dtype=float) / 3.0) for o in offsets)
        base = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        return Scheme("carpet", 8, 9, base, maps)
    if name == "pascal3":
        s3 = math.sqrt(3.0)
        base = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, s3 / 2.0]]))
        upright = np.eye(2) / 3.0
        inverted = -np.eye(2) / 3.0
        kept_t = [(0.0, 0.0), (1 / 3, 0.0), (2 / 3, 0.0), (1 / 6, s3 / 6), (0.5, s3 / 6), (1 / 3, s3 / 3)]
        comp_t = [(0.5, s3 / 6), (5 / 6, s3 / 6), (2 / 3, s3 / 3)]
        maps = tuple(AffineMap2(upright, np.array(t)) for t in kept_t) + tuple(
            AffineMap2(inverted, np.array(t)) for t in comp_t
        )
        return Scheme("pascal3", 6, 9, base, maps)
    if name == "koch":
        s3 = math.sqrt(3.0)
        h = s3 / 6.0
        base = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, h]]))
        # mirrored similarities of ratio 1/sqrt(3); each fixes one base corner
        w1 = AffineMap2(np.array([[0.5, h], [h, -0.5]]), np.zeros(2))
        w2 = AffineMap2(np.array([[0.5, -h], [-h, -0.5]]), np.array([0.5, h]))
        w3 = AffineMap2(np.array([[1 / 3, 0.0], [0.0, 1.0]]), np.array([1 / 3, 0.0]))
        return Scheme("koch", 2, 3, base, (w1, w2, w3))
    if name == "cantor":
        third = np.eye(2) / 3.0
        base = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0]]))
        maps = (
            AffineMap2(third, np.zeros(2)),
            AffineMap2(third, np.array([2 / 3, 0.0])),
            AffineMap2(third, np.array([1 / 3, 0.0])),
        )
        return Scheme("cantor", 2, 3, base, maps, measure_kind="length")
    raise UnknownSchemeError(f"no built-in scheme named {name!r}")


# ---------------------------------------------------------------------------
# validation


def validate_geometry(s: Scheme) -> list[str]:
    """All geometric construction violations of a scheme (empty when valid).

    Checks per-map nonsingularity, contractivity of the kept maps, child
    containment in the base, pairwise interior disjointness, and the
    partition identity.  Complement maps may be non-contractive: their cells
    are leaves, so only the kept maps drive convergence.  The tolerances
    are `DEFAULT_TOLERANCES`.
    """
    tol, violations, nonsingular = DEFAULT_TOLERANCES, [], []
    for j, cm in enumerate(s.child_maps, 1):
        if abs(cm.det) <= tol.geom:
            violations.append(f"child map {j} is singular")
            continue
        if j <= s.m and not cm.is_contraction(tol.geom):
            violations.append(f"kept child map {j} is not contractive (norm {cm.operator_norm:.6g})")
        nonsingular.append(j)
    js = np.array(nonsingular, dtype=np.intp)
    lin = np.stack([cm.linear for cm in s.child_maps])
    tr = np.stack([cm.translation for cm in s.child_maps])
    children = _images(s.base.vertices, lin[js - 1], tr[js - 1])
    n, V = children.shape[:2]
    inside = _inside(children.reshape(-1, 2), np.broadcast_to(s.base.vertices, (n * V, V, 2)), tol.geom)
    for j in js[~inside.reshape(n, V).all(axis=1)].tolist():
        violations.append(f"child {j} image is not contained in the base")
    base_mu = s.base_measure()
    a, b = np.triu_indices(n, 1)
    overlaps = overlap_measures(children[a], children[b], s.measure_kind, tol.geom).tolist()
    for ja, jb, ov in zip(js[a].tolist(), js[b].tolist(), overlaps):
        if ov > tol.area * base_mu:
            violations.append(f"children {ja} and {jb} overlap (measure {ov:.6g})")
    # inclusion-exclusion truncated at pairs: exact unless children overlap
    # three deep, which the pairwise check reports anyway; both sums run in
    # child order, one term at a time
    covered = sum(measures(children, s.measure_kind).tolist()) - sum(overlaps)
    if n == s.M and abs(covered - base_mu) > tol.area * max(base_mu, 1.0):
        violations.append(f"children do not partition the base (covered measure {covered!r} vs {base_mu!r})")
    return violations


# ---------------------------------------------------------------------------
# document format


def to_document(s: Scheme) -> dict:
    """Scheme as a JSON-ready document."""
    return {
        "name": s.name,
        "m": s.m,
        "M": s.M,
        "measure": s.measure_kind,
        "base": [[float(x), float(y)] for x, y in s.base.vertices],
        "maps": [
            {
                "linear": [[float(c) for c in row] for row in cm.linear],
                "translation": [float(c) for c in cm.translation],
            }
            for cm in s.child_maps
        ],
    }


def dumps(s: Scheme) -> str:
    return json.dumps(to_document(s), indent=2)


def load(document: str | dict, check_geometry: bool = True) -> Scheme:
    """Parse and validate a scheme document.

    Raises ParseError for malformed documents and ValidationError listing
    every violated invariant.  With check_geometry=False only structural
    invariants are enforced, which lets the verifier run its condition
    checks on geometrically broken schemes.
    """
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ParseError("scheme document must be a JSON object")
    for key in ("name", "m", "M", "measure", "base", "maps"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
    try:
        base = ConvexPolygon(np.array(doc["base"], dtype=float))
        maps = tuple(
            AffineMap2(np.array(mp["linear"], dtype=float), np.array(mp["translation"], dtype=float))
            for mp in doc["maps"]
        )
    except (ValueError, TypeError, KeyError) as exc:
        raise ParseError(f"bad geometry data: {exc}") from exc
    try:
        s = Scheme(str(doc["name"]), doc["m"], doc["M"], base, maps, measure_kind=doc["measure"])
    except ValueError as exc:
        raise ValidationError([str(exc)]) from exc
    if check_geometry:
        violations = validate_geometry(s)
        if violations:
            raise ValidationError(violations)
    return s


# ---------------------------------------------------------------------------
# construction


def address_vertices(s: Scheme, words: Sequence[Address]) -> np.ndarray:
    """Vertices (W, V, 2) of the cells realized by addresses of one length,
    without building a tree."""
    symbols = np.array([w.symbols for w in words], dtype=np.intp)
    return _images(s.base.vertices, *_fold(s._children, symbols))


def build_tree(s: Scheme, depth: int, caps: Caps = DEFAULT_CAPS) -> CellTree:
    """Subdivide to the given depth; every kept cell spawns M children.

    Each level is the base's `_images` under the accumulated maps of
    `_levels`, so every row is bitwise the per-cell composition's.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if s.m**depth > caps.cells:
        raise CapExceededError(f"m**depth = {s.m**depth} exceeds the cell cap {caps.cells}")
    verts = [s.base.vertices[None]] + [_images(s.base.vertices, L, T) for L, T in _levels(s._children, s.m, depth)]
    return CellTree(s, depth, tuple(verts))


def realize_points(s: Scheme, codes: Sequence[Code], depth: int, caps: Caps = DEFAULT_CAPS) -> tuple[np.ndarray, np.ndarray]:
    """Centroids (P, 2) of the depth-N cells addressed by the codes' first N
    symbols, with the cell diameters (P,) as error bounds.

    The limit point of each code lies within its bound.  Works at depths far
    past where polygon construction would hit the vertex-distinctness
    tolerance, because only raw vertex images are used.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth > caps.words:
        raise CapExceededError(f"realization depth {depth} exceeds the word cap {caps.words}")
    words = np.fromiter(itertools.chain.from_iterable(c.prefix(depth) for c in codes), np.intp, len(codes) * depth).reshape(-1, depth)
    if words.size and words.max() > s.m:
        raise ValueError("code symbols must be kept indices of the scheme")
    # unflipped: the centroid adds the vertices in AffineMap2.transform order
    verts = _images(s.base.vertices, *_fold(s._children, words), ccw=False)
    return verts.mean(axis=1), diameters(verts)


def realize_point(s: Scheme, c: Code, depth: int, caps: Caps = DEFAULT_CAPS) -> tuple[Point2, float]:
    """Centroid of the depth-N cell addressed by the code's first N symbols,
    with its error bound; see `realize_points`."""
    points, bounds = realize_points(s, [c], depth, caps)
    return Point2(*points[0].tolist()), float(bounds[0])
