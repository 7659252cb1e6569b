"""Finite-horizon chaos witnesses for the shift map on kept codes.

The shift drops the leading symbol of a code, which geometrically moves a
point of the limit set to the image cell one level up.  This module produces
desk-checkable certificates for the three standard chaos ingredients
(density of periodic points, transitivity, sensitivity) plus a
proximal-but-separating orbit pair, all at an explicit resolution n and
horizon K.  Nothing here is a proof for all depths; every witness carries
the realization error it was checked against, and every witness can be
replayed from its stored data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .codespace import Address, Code, enumerate_words, finite_code, periodic_code, separator, shift, transitive_prefix
from .config import DEFAULT_CAPS, DEFAULT_TOLERANCES, Caps, Tolerances
from .errors import CapExceededError, CoordinateRangeError, NoSeparationError
from .geometry import Point2, _json_chunks, diameter, point_distances
from .scheme import Scheme, address_vertices, build_tree, realize_points
from .verifier import SeparationMode, kept_separation

DEFAULT_REALIZE_DEPTH = 12


def realization_bound(s: Scheme, depth: int) -> float:
    """Upper bound on any kept depth-n cell diameter: (max norm)^n * diam(base);
    CoordinateRangeError where (max norm)^n reaches the overflow bound 1e75."""
    if depth * np.log10(s.max_kept_norm()) >= 75.0:
        raise CoordinateRangeError(f"the kept maps' largest norm to the power {depth} reaches the overflow bound 1e75")
    return s.max_kept_norm() ** depth * diameter(s.base)


@dataclass(frozen=True, slots=True)
class SeparationEstimate:
    """A positive separation distance with the cell pair achieving it."""

    mode: str
    search_depth: int
    epsilon0: float
    depth: int
    word_a: Address
    word_b: Address

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "search_depth": self.search_depth,
            "epsilon0": self.epsilon0,
            "depth": self.depth,
            "word_a": str(self.word_a),
            "word_b": str(self.word_b),
        }


def estimate_separation(
    s: Scheme,
    search_depth: int,
    mode: SeparationMode = "forall_exists",
    caps: Caps = DEFAULT_CAPS,
) -> SeparationEstimate:
    """Best separation value over depths up to search_depth, with its pair."""
    sweep, a, b = kept_separation(build_tree(s, search_depth, caps), mode, caps)
    return SeparationEstimate(mode, search_depth, sweep.value, sweep.depth, a, b)


# ---------------------------------------------------------------------------
# periodic density


@dataclass(frozen=True, slots=True)
class PeriodicWitness:
    cylinder: Address
    code: Code
    point: Point2
    bound: float
    gap: float
    member: bool

    def to_dict(self) -> dict:
        return {
            "cylinder": str(self.cylinder),
            "code": self.code.to_dict(),
            "point": [self.point.x, self.point.y],
            "bound": self.bound,
            "gap": self.gap,
            "member": self.member,
        }


def periodic_density_witnesses(
    s: Scheme,
    n: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
) -> list[PeriodicWitness]:
    """For every kept cylinder of depth n, the periodic code living inside it.

    The code w repeated forever has period |w| under the shift, and its
    realized point lies in the cylinder's cell, so periodic orbits meet every
    cell at resolution n.
    """
    words = enumerate_words(s.m, n, M=s.M, caps=caps)
    codes = [periodic_code(w) for w in words]
    points, bounds = realize_points(s, codes, max(n, DEFAULT_REALIZE_DEPTH), caps)
    gaps = point_distances(points, address_vertices(s, words)).tolist()
    return [
        PeriodicWitness(w, code, Point2(x, y), bound, gap, gap <= tol.geom)
        for w, code, (x, y), bound, gap in zip(words, codes, points.tolist(), bounds.tolist(), gaps)
    ]


# ---------------------------------------------------------------------------
# transitivity


@dataclass(frozen=True, slots=True)
class TransitivityWitness:
    code: Code
    prefix_length: int
    total_cylinders: int
    visited: int
    first_visits: dict[str, int]

    @property
    def complete(self) -> bool:
        return self.visited == self.total_cylinders

    def to_dict(self) -> dict:
        return {
            "code": self.code.to_dict(),
            "prefix_length": self.prefix_length,
            "total_cylinders": self.total_cylinders,
            "visited": self.visited,
            "complete": self.complete,
            "first_visits": self.first_visits,
        }


def transitivity_witness(s: Scheme, n: int, caps: Caps = DEFAULT_CAPS) -> TransitivityWitness:
    """One orbit that enters every kept cylinder of depth n.

    The code concatenates all kept words of lengths 1..n and repeats; the
    visit log records the first shift count at which each depth-n cylinder
    is entered.
    """
    prefix = transitive_prefix(s.m, n, M=s.M, caps=caps)
    code = Code((), prefix.symbols, s.m)
    symbols = prefix.symbols
    first_visits: dict[str, int] = {}
    sep = separator(s.M)  # as Address's string form
    for k in range(len(symbols) - n + 1):
        key = sep.join(map(str, symbols[k : k + n]))
        if key not in first_visits:
            first_visits[key] = k
    return TransitivityWitness(code, len(symbols), s.m**n, len(first_visits), first_visits)


# ---------------------------------------------------------------------------
# sensitivity


@dataclass(frozen=True, slots=True)
class SensitivityWitness:
    cylinder: Address
    k: int
    code_u: Code
    code_v: Code
    initial_distance: float
    distance: float
    bound: float

    @property
    def achieved(self) -> bool:
        return self.distance >= self.bound

    def to_dict(self) -> dict:
        return {
            "cylinder": str(self.cylinder),
            "k": self.k,
            "u": self.code_u.to_dict(),
            "v": self.code_v.to_dict(),
            "initial_distance": self.initial_distance,
            "distance": self.distance,
            "bound": self.bound,
            "achieved": self.achieved,
        }


def sensitivity_witnesses(
    s: Scheme,
    n: int,
    sep: SeparationEstimate,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
) -> list[SensitivityWitness]:
    """Two orbits per depth-n cylinder that separate after n shifts.

    Both codes start in the same cylinder (so they begin within the cell
    diameter of each other) and continue with the separated words a and b;
    after |w| shifts the realized points are at least epsilon0 minus twice
    the realization error apart.
    """
    if sep.epsilon0 < tol.sep:
        raise NoSeparationError(f"separation {sep.epsilon0!r} below tolerance {tol.sep!r}")
    a, b = sep.word_a, sep.word_b
    bound = sep.epsilon0 - 2.0 * realization_bound(s, DEFAULT_REALIZE_DEPTH)
    words = enumerate_words(s.m, n, M=s.M, caps=caps)
    us = [Code(w.symbols, a.symbols, s.m) for w in words]
    vs = [Code(w.symbols, b.symbols, s.m) for w in words]
    points, _ = realize_points(s, us + vs, max(n, DEFAULT_REALIZE_DEPTH), caps)
    # n shifts drop the cylinder word w, leaving a and b repeated for every w
    q, _ = realize_points(s, [Code((), a.symbols, s.m), Code((), b.symbols, s.m)], DEFAULT_REALIZE_DEPTH, caps)
    initial = np.hypot(*(points[: len(us)] - points[len(us) :]).T).tolist()
    distance = float(np.hypot(*(q[0] - q[1])))
    return [SensitivityWitness(w, n, u, v, d, distance, bound) for w, u, v, d in zip(words, us, vs, initial)]


# ---------------------------------------------------------------------------
# proximal-but-separating pair


@dataclass(frozen=True, slots=True)
class LiYorkeWitness:
    code_u: Code
    code_v: Code
    horizon: int
    samples: tuple[float, ...]
    min_distance: float
    max_distance: float
    agreement_depth: int
    min_bound: float
    max_bound: float

    @property
    def proximal(self) -> bool:
        return self.min_distance <= self.min_bound

    @property
    def separating(self) -> bool:
        return self.max_distance >= self.max_bound

    @property
    def achieved(self) -> bool:
        return self.proximal and self.separating

    def to_dict(self) -> dict:
        return {
            "u": self.code_u.to_dict(),
            "v": self.code_v.to_dict(),
            "horizon": self.horizon,
            "samples": list(self.samples),
            "min_distance": self.min_distance,
            "max_distance": self.max_distance,
            "agreement_depth": self.agreement_depth,
            "min_bound": self.min_bound,
            "max_bound": self.max_bound,
            "proximal": self.proximal,
            "separating": self.separating,
        }


def _doubling_partner(a: tuple[int, ...], b: tuple[int, ...], total: int) -> tuple[int, ...]:
    """Alternate agreement blocks (copies of a) and disagreement blocks
    (copies of b) whose lengths double, until `total` symbols exist."""
    out: list[int] = []
    reps = 1
    agree = True
    while len(out) < total:
        out.extend((a if agree else b) * reps)
        agree = not agree
        reps *= 2
    return tuple(out[:total])


def li_yorke_witness(
    s: Scheme,
    horizon: int,
    sep: SeparationEstimate,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
) -> LiYorkeWitness:
    """A pair of orbits that come close on doubling agreement blocks and
    separate to the separation distance on the disagreement blocks.

    Sampled distances stand in for the liminf/limsup of the true orbits: the
    minimum is compared against the cell diameter at the reported agreement
    depth, the maximum against epsilon0 minus twice the realization error.
    """
    if horizon < 4:
        raise ValueError("the horizon must be at least 4")
    if sep.epsilon0 < tol.sep:
        raise NoSeparationError(f"separation {sep.epsilon0!r} below tolerance {tol.sep!r}")
    symbols = 2 * horizon * DEFAULT_REALIZE_DEPTH
    if symbols > caps.words:
        raise CapExceededError(f"horizon {horizon} realizes {symbols} symbols, more than the word cap {caps.words}")
    a, b = sep.word_a.symbols, sep.word_b.symbols
    total = horizon + DEFAULT_REALIZE_DEPTH + len(a)
    u = Code((), a, s.m)
    v = finite_code(_doubling_partner(a, b, total), s.m)
    codes = [u, v]
    # shift^k(v) realized at depth N reads only its symbols k..k+N-1
    for k in range(1, horizon):
        codes += [shift(codes[-2]), finite_code(v.preperiod[k : k + DEFAULT_REALIZE_DEPTH], s.m)]
    points, _ = realize_points(s, codes, DEFAULT_REALIZE_DEPTH, caps)
    samples = np.hypot(*(points[::2] - points[1::2]).T).tolist()
    # longest agreement run beginning at a sampled shift, capped at the
    # realization depth (deeper agreement is invisible to the realization)
    span = horizon - 1 + DEFAULT_REALIZE_DEPTH
    same = np.lib.stride_tricks.sliding_window_view(np.equal(u.prefix(span), v.prefix(span)), DEFAULT_REALIZE_DEPTH)
    agreement = int(np.where(same.all(axis=1), DEFAULT_REALIZE_DEPTH, same.argmin(axis=1)).max())
    min_bound = realization_bound(s, agreement) if agreement else 0.0
    max_bound = sep.epsilon0 - 2.0 * realization_bound(s, DEFAULT_REALIZE_DEPTH)
    return LiYorkeWitness(u, v, horizon, tuple(samples), min(samples), max(samples), agreement, min_bound, max_bound)


# ---------------------------------------------------------------------------
# assembled report


class _Dicts(list):
    """Witnesses read as their `to_dict()`s, each made as `for value in lst` in the JSON encoder reaches it."""

    def __iter__(self) -> Iterator[dict]:
        return (w.to_dict() for w in super().__iter__())


@dataclass(frozen=True)
class ChaosWitnessReport:
    scheme: str
    n: int
    horizon: int
    separation: SeparationEstimate
    periodic: tuple[PeriodicWitness, ...]
    transitivity: TransitivityWitness
    sensitivity: tuple[SensitivityWitness, ...]
    li_yorke: LiYorkeWitness

    @property
    def all_verified(self) -> bool:
        return (
            all(w.member for w in self.periodic)
            and self.transitivity.complete
            and all(w.achieved for w in self.sensitivity)
            and self.li_yorke.achieved
        )

    def _doc(self, dicts) -> dict:
        return {
            "scheme": self.scheme,
            "n": self.n,
            "horizon": self.horizon,
            "epsilon0": self.separation.epsilon0,
            "separation": self.separation.to_dict(),
            "periodic": dicts(self.periodic),
            "transitivity": self.transitivity.to_dict(),
            "sensitivity": dicts(self.sensitivity),
            "li_yorke": self.li_yorke.to_dict(),
            "all_verified": self.all_verified,
        }

    def to_dict(self) -> dict:
        return self._doc(lambda ws: [w.to_dict() for w in ws])

    def json_chunks(self) -> Iterator[str]:
        return _json_chunks(self._doc(_Dicts))

    def to_json(self) -> str:
        return "".join(self.json_chunks())


def chaos_report(
    s: Scheme,
    n: int,
    horizon: int,
    mode: SeparationMode = "forall_exists",
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
) -> ChaosWitnessReport:
    """Generate all four witness families at resolution n and the horizon.

    Separation is searched to depth min(n, 4) and points are realized at
    DEFAULT_REALIZE_DEPTH.  Raises NoSeparationError when the separation
    prerequisite fails in the requested mode, since sensitivity and the
    orbit pair are then undefined.
    """
    sep = estimate_separation(s, min(n, 4), mode, caps)
    if sep.epsilon0 < tol.sep:
        raise NoSeparationError(
            f"separation {sep.epsilon0!r} in mode {mode!r} is below tolerance {tol.sep!r}"
        )
    return ChaosWitnessReport(
        s.name,
        n,
        horizon,
        sep,
        tuple(periodic_density_witnesses(s, n, tol, caps)),
        transitivity_witness(s, n, caps),
        tuple(sensitivity_witnesses(s, n, sep, tol, caps)),
        li_yorke_witness(s, horizon, sep, tol, caps),
    )
