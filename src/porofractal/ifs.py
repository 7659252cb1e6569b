"""Iterated-function-system view of a subdivision scheme.

The kept child maps alone form a contraction family whose attractor is the
limit set of the construction; iterating the family approximates the
attractor from above, composed words reproduce the kept cells, and on
totally disconnected systems the inverse branch map realizes the symbolic
shift geometrically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codespace import Address
from .config import DEFAULT_CAPS, DEFAULT_TOLERANCES, Caps, Tolerances
from .errors import AmbiguousBranchError, CapExceededError, OutsideAttractorError
from .geometry import (
    AffineMap2,
    ConvexPolygon,
    MeasureKind,
    Point2,
    _inside,
    apply,
    measure,
)
from .scheme import Scheme, _fold, _images, _stack_maps
from .verifier import SeparationMode, separation_sweep


@dataclass(frozen=True, eq=False)
class IteratedSystem:
    """Family of contractive affine maps with the base set they act on."""

    maps: tuple[AffineMap2, ...]
    base: ConvexPolygon
    measure_kind: MeasureKind = "area"

    def __post_init__(self) -> None:
        if len(self.maps) < 2:
            raise ValueError("an iterated system needs at least two maps")
        for i, w in enumerate(self.maps, 1):
            if not w.is_contraction():
                raise ValueError(f"map {i} is not contractive (norm {w.operator_norm:.6g})")

    @property
    def m(self) -> int:
        return len(self.maps)

    @cached_property
    def _children(self) -> tuple[np.ndarray, np.ndarray]:
        return _stack_maps(self.maps)

    @cached_property
    def _branches(self) -> np.ndarray:
        # the base's images (m, V, 2) under the maps, as `apply` makes them
        return _images(self.base.vertices, self._children[0], self._children[1][..., 0])


@dataclass(frozen=True, eq=False)
class SetApproximation:
    """Finite union of polygons approximating the attractor at a generation."""

    cells: tuple[ConvexPolygon, ...]
    generation: int

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("an approximation needs at least one cell")


def from_scheme(s: Scheme) -> IteratedSystem:
    """The iterated system of a scheme's kept child maps."""
    return IteratedSystem(s.child_maps[: s.m], s.base, s.measure_kind)


def total_measure(sys: IteratedSystem, a: SetApproximation) -> float:
    """Sum of cell measures under the system's measure kind."""
    return float(sum(measure(c, sys.measure_kind) for c in a.cells))


def iterate_attractor(sys: IteratedSystem, seed: SetApproximation, k: int, caps: Caps = DEFAULT_CAPS) -> SetApproximation:
    """Apply all maps to every cell, k generations in a row."""
    if k < 0:
        raise ValueError("generation count must be nonnegative")
    if len(seed.cells) * sys.m**k > caps.cells:
        raise CapExceededError(f"{len(seed.cells) * sys.m ** k} cells would exceed the cell cap {caps.cells}")
    cells = seed.cells
    for _ in range(k):
        cells = tuple(apply(w, c) for w in sys.maps for c in cells)
    return SetApproximation(cells, seed.generation + k)


def compose_word(sys: IteratedSystem, w: Address) -> ConvexPolygon:
    """maps[i1] o ... o maps[in] applied to the base (first symbol outermost).

    Identical to the scheme cell polygon for kept addresses, which is the
    composition order under which the inverse branch map drops the first
    symbol.  A one-row call into the scheme's fold: words of any length
    compose, as only the maps themselves are checked for singularity.
    """
    if len(w) < 1:
        raise ValueError("composed words must be nonempty")
    if not w.is_kept or w.m > sys.m:
        raise ValueError("composed words must use kept indices of the system")
    return ConvexPolygon._unchecked(_images(sys.base.vertices, *_fold(sys._children, np.array([w.symbols])))[0])


def inverse_shift(sys: IteratedSystem, p: Point2, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[Point2, int]:
    """Inverse of the unique branch whose image of the base contains p.

    Defined only where branch membership is unambiguous; for systems whose
    first-level images touch or overlap near p the branch is not determined
    and AmbiguousBranchError is raised instead of choosing.
    """
    inside = _inside(np.broadcast_to(p.as_array(), (sys.m, 2)), sys._branches, tol.geom)
    hits = (np.flatnonzero(inside) + 1).tolist()
    if not hits:
        raise OutsideAttractorError(f"point ({p.x}, {p.y}) lies in no branch image")
    if len(hits) > 1:
        raise AmbiguousBranchError(f"point ({p.x}, {p.y}) lies in branch images {hits}")
    branch = hits[0]
    return sys.maps[branch - 1].inverse(tol.geom).transform_point(p), branch


def separation_from_maps(
    sys: IteratedSystem,
    depth: int,
    mode: SeparationMode = "forall_exists",
    caps: Caps = DEFAULT_CAPS,
) -> float:
    """Separation estimate computed from composed-image polygons.

    Same semantics as the verifier's separation check, but the cells of
    each depth k come from one fold of all m**k words in lexicographic order
    rather than from a built tree: bitwise the tree's kept cells, at any
    depth the cell cap allows.
    """
    if sys.m**depth > caps.cells:
        raise CapExceededError(f"m**depth = {sys.m ** depth} exceeds the cell cap {caps.cells}")
    cells_by_depth = []
    for k in range(1, depth + 1):
        # C-order indices run the last symbol fastest: lexicographic words
        words = np.indices((sys.m,) * k).reshape(k, -1).T + 1
        cells_by_depth.append(_images(sys.base.vertices, *_fold(sys._children, words)))
    return separation_sweep(cells_by_depth, mode, caps).value
