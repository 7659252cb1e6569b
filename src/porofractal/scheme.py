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
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Iterator

import numpy as np

from .codespace import Address, Code
from .config import DEFAULT_CAPS, DEFAULT_TOLERANCES, Caps, Tolerances
from .errors import CapExceededError, ParseError, UnknownAddressError, UnknownSchemeError, ValidationError
from .geometry import (
    AffineMap2,
    ConvexPolygon,
    MeasureKind,
    Point2,
    _image,
    _require_nonsingular,
    apply,
    compose,
    identity_map,
    measure,
    overlap_measure,
    point_in_polygon,
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

    def child_map(self, symbol: int) -> AffineMap2:
        """Map for child index `symbol` in 1..M."""
        if not 1 <= symbol <= self.M:
            raise ValueError(f"child index {symbol} outside 1..{self.M}")
        return self.child_maps[symbol - 1]

    def base_measure(self) -> float:
        return measure(self.base, self.measure_kind)

    def max_kept_norm(self) -> float:
        """Largest operator norm among the kept child maps."""
        return max(self.child_maps[j].operator_norm for j in range(self.m))


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
    """Per-depth cell lists; level 0 holds the base cell only."""

    scheme: Scheme
    depth: int
    levels: tuple[tuple[Cell, ...], ...]

    @cached_property
    def _index(self) -> dict[tuple[int, ...], Cell]:
        return {c.address.symbols: c for level in self.levels for c in level}

    def cell(self, address: Address) -> Cell:
        try:
            return self._index[address.symbols]
        except KeyError:
            raise UnknownAddressError(f"no cell with address {address!s}") from None

    def kept_cells(self, depth: int) -> tuple[Cell, ...]:
        return tuple(c for c in self.levels[depth] if c.is_kept)

    def complement_cells(self, max_order: int | None = None) -> Iterator[Cell]:
        top = self.depth if max_order is None else max_order
        for n in range(1, top + 1):
            for c in self.levels[n]:
                if not c.is_kept:
                    yield c

    def cell_measure(self, cell: Cell) -> float:
        return measure(cell.polygon, self.scheme.measure_kind)


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
    children: dict[int, ConvexPolygon] = {}
    for j in range(1, s.M + 1):
        cm = s.child_map(j)
        if abs(cm.det) <= tol.geom:
            violations.append(f"child map {j} is singular")
            continue
        if j <= s.m and not cm.is_contraction(tol.geom):
            violations.append(f"kept child map {j} is not contractive (norm {cm.operator_norm:.6g})")
        children[j] = apply(cm, s.base, tol.geom)
    for j, child in children.items():
        if not all(point_in_polygon(v, s.base, tol.geom) for v in child.vertices):
            violations.append(f"child {j} image is not contained in the base")
    base_mu = s.base_measure()
    items = sorted(children.items())
    overlap_total = 0.0
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            ja, pa = items[a]
            jb, pb = items[b]
            ov = overlap_measure(pa, pb, s.measure_kind, tol.geom)
            overlap_total += ov
            if ov > tol.area * base_mu:
                violations.append(f"children {ja} and {jb} overlap (measure {ov:.6g})")
    # inclusion-exclusion truncated at pairs: exact unless children overlap
    # three deep, which the pairwise check reports anyway
    covered = sum(measure(p, s.measure_kind) for p in children.values()) - overlap_total
    if len(children) == s.M and abs(covered - base_mu) > tol.area * max(base_mu, 1.0):
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
    if not symbols:
        return identity_map()
    return reduce(compose, (s.child_map(i) for i in symbols))


def address_polygon(s: Scheme, address: Address) -> ConvexPolygon:
    """The cell polygon realized by an address, without building a tree."""
    _require_nonsingular_children(s, set(address.symbols))
    return _image(accumulated_map(s, address.symbols), s.base)


def _require_nonsingular_children(s: Scheme, symbols: Iterable[int]) -> None:
    # det is multiplicative, so composed maps stay nonsingular however small
    # their cells get; only the child maps themselves can be singular
    for j in symbols:
        _require_nonsingular(s.child_map(j))


def build_tree(s: Scheme, depth: int, caps: Caps = DEFAULT_CAPS) -> CellTree:
    """Subdivide to the given depth; every kept cell spawns M children."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if s.m**depth > caps.cells:
        raise CapExceededError(f"m**depth = {s.m**depth} exceeds the cell cap {caps.cells}")
    _require_nonsingular_children(s, range(1, s.M + 1))
    root = Cell(Address((), s.m, s.M), s.base, "kept", identity_map())
    levels: list[tuple[Cell, ...]] = [(root,)]
    for _ in range(depth):
        next_level: list[Cell] = []
        for parent in levels[-1]:
            if not parent.is_kept:
                continue
            for j in range(1, s.M + 1):
                acc = compose(parent.acc_map, s.child_map(j))
                next_level.append(
                    Cell(
                        parent.address.child(j),
                        _image(acc, s.base),
                        "kept" if j <= s.m else "complement",
                        acc,
                    )
                )
        levels.append(tuple(next_level))
    return CellTree(s, depth, tuple(levels))


def realize_point(s: Scheme, c: Code, depth: int, caps: Caps = DEFAULT_CAPS) -> tuple[Point2, float]:
    """Centroid of the depth-N cell addressed by the code's first N symbols.

    Returns the point together with an error bound (the cell diameter); the
    limit point of the code lies within the bound.  Works at depths far past
    where polygon construction would hit the vertex-distinctness tolerance,
    because only raw vertex images are used.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth > caps.words:
        raise CapExceededError(f"realization depth {depth} exceeds the word cap {caps.words}")
    prefix = c.prefix(depth)
    if max(prefix) > s.m:
        raise ValueError("code symbols must be kept indices of the scheme")
    acc = accumulated_map(s, prefix)
    verts = acc.transform(s.base.vertices)
    centroid = verts.mean(axis=0)
    if verts.shape[0] == 1:
        bound = 0.0
    else:
        diff = verts[:, None, :] - verts[None, :, :]
        bound = float(np.hypot(diff[..., 0], diff[..., 1]).max())
    return Point2(float(centroid[0]), float(centroid[1])), bound
