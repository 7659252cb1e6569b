"""Subdivision schemes: a base polygon plus M affine child maps.

A scheme is the machine description of one porous subdivision construction:
child maps 1..m produce the kept pieces that are subdivided again, maps
m+1..M produce the complement pieces that are removed and never subdivided.
Building the construction to finite depth yields a CellTree whose kept cells
carry the addresses of the symbolic code space.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .codespace import Address, Code
from .config import DEFAULT_CAPS, DEFAULT_TOLERANCES, Caps, Tolerances
from .errors import CapExceededError, ParseError, UnknownAddressError, UnknownSchemeError, ValidationError
from .geometry import (
    AffineMap2,
    ConvexPolygon,
    MeasureKind,
    Point2,
    _fold,
    _images,
    _inside,
    _stack_maps,
    _step,
    diameters,
    measure,
    measures,
    overlap_measures,
)

BUILTIN_NAMES = ("carpet", "pascal3", "koch", "cantor")


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
        if not 1 < self.m < self.M:
            raise ValueError("split indices must satisfy 1 < m < M")
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
    """One realized construction piece with its address and accumulated map."""

    address: Address
    polygon: ConvexPolygon
    kind: str  # "kept" | "complement"
    acc_map: AffineMap2

    @property
    def is_kept(self) -> bool:
        return self.kind == "kept"


@dataclass(frozen=True, eq=False)
class CellTree:
    """Per-depth cell arrays; level 0 holds the base cell only.

    Level n stores one row per cell: its vertices (N, V, 2) and the linear
    part (N, 2, 2) and translation (N, 2) of its accumulated map.  Row
    p*M + (j-1) holds child j of the p-th kept cell of level n-1, so an
    address is the digits of its row and is never stored.  `levels`,
    `kept_cells` and `cell` make a Cell only when one is indexed.
    """

    scheme: Scheme
    depth: int
    vertices: tuple[np.ndarray, ...]
    linear: tuple[np.ndarray, ...]
    translation: tuple[np.ndarray, ...]

    @property
    def levels(self) -> tuple["_CellView", ...]:
        # not cached: views refer to the tree, and a cycle would keep every
        # tree's arrays alive until the cyclic garbage collector runs
        return tuple(_CellView(self, n, np.arange(v.shape[0])) for n, v in enumerate(self.vertices))

    def kept_rows(self, depth: int) -> np.ndarray:
        """Rows of the kept cells of a level, in address order."""
        return np.flatnonzero(np.arange(self.vertices[depth].shape[0]) % self.scheme.M < self.scheme.m)

    def complement_rows(self, depth: int) -> np.ndarray:
        """Rows of the complement cells of a level, in address order."""
        return np.flatnonzero(np.arange(self.vertices[depth].shape[0]) % self.scheme.M >= self.scheme.m)

    def _radix(self, depth: int) -> tuple[int, ...]:
        # a row's digits: the kept-parent index in base m, then j - 1
        return (self.scheme.m,) * (depth - 1) + (self.scheme.M,)

    def symbols(self, depth: int, rows: np.ndarray) -> np.ndarray:
        """Address symbols of the given rows of a level, one row each."""
        if not depth:
            return np.zeros((len(rows), 0), dtype=np.intp)
        return np.stack(np.unravel_index(rows, self._radix(depth)), axis=1) + 1

    def address(self, depth: int, row: int) -> Address:
        if not 0 <= row < self.vertices[depth].shape[0]:
            raise IndexError(f"row {row} outside level {depth}")
        return Address(tuple(self.symbols(depth, [row])[0].tolist()), self.scheme.m, self.scheme.M)

    def row(self, address: Address) -> int:
        """Row of the cell with this address in level len(address)."""
        w = address.symbols
        if not w:
            return 0
        if len(w) <= self.depth and max(w[:-1], default=1) <= self.scheme.m and w[-1] <= self.scheme.M:
            return int(np.ravel_multi_index(tuple(i - 1 for i in w), self._radix(len(w))))
        raise UnknownAddressError(f"no cell with address {address!s}")

    def cell(self, address: Address) -> Cell:
        return self._cells(len(address), [self.row(address)])[0]

    def _cells(self, depth: int, rows: Sequence[int]) -> list[Cell]:
        # the rows are decoded in one `symbols` call
        cells, (m, M) = [], (self.scheme.m, self.scheme.M)
        for r, w in zip(rows, self.symbols(depth, np.array(rows, dtype=np.intp)).tolist()):
            kind = "kept" if r % M < m else "complement"
            acc = AffineMap2._unchecked(self.linear[depth][r], self.translation[depth][r])
            cells.append(Cell(Address(tuple(w), m, M), ConvexPolygon._unchecked(self.vertices[depth][r]), kind, acc))
        return cells

    def kept_cells(self, depth: int) -> "_CellView":
        return _CellView(self, depth, self.kept_rows(depth))


class _CellView(Sequence):
    """Some rows of one tree level, read as Cells made on demand."""

    def __init__(self, tree: CellTree, depth: int, rows: np.ndarray):
        self._tree, self._depth, self._rows = tree, depth, rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._tree._cells(self._depth, self._rows[i].tolist()))
        return self._tree._cells(self._depth, [int(self._rows[i])])[0]

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._tree._cells(self._depth, self._rows.tolist()))


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


def validate_geometry(s: Scheme, tol: Tolerances = DEFAULT_TOLERANCES) -> list[str]:
    """All geometric construction violations of a scheme (empty when valid).

    Checks per-map nonsingularity, contractivity of the kept maps, child
    containment in the base, pairwise interior disjointness, and the
    partition identity.  Complement maps may be non-contractive: their cells
    are leaves, so only the kept maps drive convergence.
    """
    violations: list[str] = []
    nonsingular = []
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


def _structural_errors(doc: dict) -> list[str]:
    errors: list[str] = []
    m, M = doc.get("m"), doc.get("M")
    if not isinstance(m, int) or not isinstance(M, int):
        return ["m and M must be integers"]
    if m >= M:
        errors.append("m < M violated")
    if m <= 1:
        errors.append("1 < m violated")
    return errors


def load(document: str | dict, check_geometry: bool = True, tol: Tolerances = DEFAULT_TOLERANCES) -> Scheme:
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
    structural = _structural_errors(doc)
    if structural:
        raise ValidationError(structural)
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
        violations = validate_geometry(s, tol)
        if violations:
            raise ValidationError(violations)
    return s


# ---------------------------------------------------------------------------
# construction


def accumulated_map(s: Scheme, symbols: tuple[int, ...]) -> AffineMap2:
    """Composition child_maps[i1] o ... o child_maps[in] (first symbol outermost).

    The outer-first order makes every child cell a subset of its parent cell.
    """
    if not all(1 <= j <= s.M for j in symbols):
        raise ValueError(f"child indices must lie in 1..{s.M}")
    L, T = _fold(s._children, np.array([symbols], dtype=np.intp))
    return AffineMap2(L[0], T[0])


def address_polygon(s: Scheme, address: Address) -> ConvexPolygon:
    """The cell polygon realized by an address, without building a tree."""
    return ConvexPolygon._unchecked(address_vertices(s, [address])[0])


def address_vertices(s: Scheme, words: Sequence[Address]) -> np.ndarray:
    """Vertices (W, V, 2) of the cells realized by addresses of one length,
    without building a tree."""
    symbols = np.array([w.symbols for w in words], dtype=np.intp)
    return _images(s.base.vertices, *_fold(s._children, symbols))


def build_tree(s: Scheme, depth: int, caps: Caps = DEFAULT_CAPS) -> CellTree:
    """Subdivide to the given depth; every kept cell spawns M children.

    Each level comes from the kept rows of the one above by the stacked
    step `_step` and `_images`, so every row is bitwise the per-cell
    composition's.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if s.m**depth > caps.cells:
        raise CapExceededError(f"m**depth = {s.m**depth} exceeds the cell cap {caps.cells}")
    child_linear, child_translation = s._children
    lin, tr, verts = [np.eye(2)[None]], [np.zeros((1, 2))], [s.base.vertices[None]]
    for _ in range(depth):
        keep = np.arange(lin[-1].shape[0]) % s.M < s.m
        L, T = _step(lin[-1][keep][:, None], tr[-1][keep][:, None], child_linear[None], child_translation[None])
        lin.append(L.reshape(-1, 2, 2))
        tr.append(T.reshape(-1, 2))
        verts.append(_images(s.base.vertices, lin[-1], tr[-1]))
    for a in lin + tr + verts:
        a.setflags(write=False)
    return CellTree(s, depth, tuple(verts), tuple(lin), tuple(tr))


def realize_points(s: Scheme, codes: Sequence[Code], depth: int, caps: Caps = DEFAULT_CAPS) -> tuple[list[Point2], list[float]]:
    """Centroids of the depth-N cells addressed by the codes' first N
    symbols, with the cell diameters as error bounds.

    The limit point of each code lies within its bound.  Works at depths far
    past where polygon construction would hit the vertex-distinctness
    tolerance, because only raw vertex images are used.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth > caps.words:
        raise CapExceededError(f"realization depth {depth} exceeds the word cap {caps.words}")
    words = np.array([c.prefix(depth) for c in codes], dtype=np.intp)
    if words.size and words.max() > s.m:
        raise ValueError("code symbols must be kept indices of the scheme")
    # unflipped: the centroid adds the vertices in AffineMap2.transform order
    verts = _images(s.base.vertices, *_fold(s._children, words), ccw=False)
    return [Point2(x, y) for x, y in verts.mean(axis=1).tolist()], diameters(verts).tolist()


def realize_point(s: Scheme, c: Code, depth: int, caps: Caps = DEFAULT_CAPS) -> tuple[Point2, float]:
    """Centroid of the depth-N cell addressed by the code's first N symbols,
    with its error bound; see `realize_points`."""
    points, bounds = realize_points(s, [c], depth, caps)
    return points[0], bounds[0]
