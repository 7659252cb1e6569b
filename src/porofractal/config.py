"""Tolerance and cap configuration.

Every tolerance the numerical checks consume lives here so callers (and the
CLI) can override them; nothing downstream hardcodes these values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances for geometric predicates and condition checks.

    geom: absolute tolerance for geometric predicates (distances, containment).
    area: relative tolerance for measure identities (partition, overlap).
    sep: minimum separation constant considered positive.
    lambda_max: largest per-step diameter decay factor that still counts as decay.
    ratio: tolerance for ratio positivity and expected-ratio equality.
    """

    geom: float = 1e-9
    area: float = 1e-12
    sep: float = 1e-6
    lambda_max: float = 0.999
    ratio: float = 1e-9

    def __post_init__(self) -> None:
        for f in fields(self):
            if not getattr(self, f.name) > 0:
                raise ValueError(f"tolerance {f.name} must be positive")


@dataclass(frozen=True)
class Caps:
    """Guards against accidental exponential blowups.

    cells: maximum kept-cell count a tree build may reach.
    words: maximum number of symbols an enumeration or code prefix may produce.
    pairs: maximum polygon-pair count a quadratic sweep may examine.
    """

    cells: int = 1_000_000
    words: int = 1_000_000
    pairs: int = 2_000_000

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"cap {f.name} must be at least 1")


DEFAULT_TOLERANCES = Tolerances()
DEFAULT_CAPS = Caps()
