"""Symbolic addresses, infinite codes, and the shift on code space.

Addresses are finite words over {1..M} locating cells in the construction
tree; only symbols up to the split index m may be subdivided further, so
every symbol except possibly the last must be a kept index.  Infinite codes
are represented exactly as eventually-periodic words, or as finite prefixes
with a declared horizon when no periodic tail is known.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .config import DEFAULT_CAPS, Caps
from .errors import CapExceededError


def separator(M: int) -> str:
    """The text between two address symbols over {1..M}: "." once a symbol
    can take two digits, none otherwise."""
    return "." if M > 9 else ""


@dataclass(frozen=True, order=True, slots=True)
class Address:
    """Finite word i1 i2 ... in over {1..M} with split index m carried along."""

    symbols: tuple[int, ...]
    m: int
    M: int

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.M:
            raise ValueError("split index m must satisfy 1 <= m <= M")
        if not self.symbols or (min(self.symbols) >= 1 and max(self.symbols) <= self.m):
            return  # a kept word; otherwise scan for the first bad symbol
        for i, s in enumerate(self.symbols):
            if not 1 <= s <= self.M:
                raise ValueError(f"symbol {s} outside alphabet 1..{self.M}")
            if i < len(self.symbols) - 1 and s > self.m:
                raise ValueError("only the last symbol may be a complement index")

    def __str__(self) -> str:
        return separator(self.M).join(map(str, self.symbols))

    @classmethod
    def parse(cls, text: str, m: int, M: int) -> "Address":
        if text == "":
            return cls((), m, M)
        sep = separator(M)
        parts = text.split(sep) if sep else list(text)
        return cls(tuple(int(p) for p in parts), m, M)

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def is_kept(self) -> bool:
        """True for the empty address and for words entirely over {1..m}."""
        return all(s <= self.m for s in self.symbols)


@dataclass(frozen=True, slots=True)
class Code:
    """Infinite (or finite-horizon) word over the kept alphabet {1..m}.

    With a nonempty `period` the code is preperiod + period repeated forever.
    With an empty `period` the code is just the finite `preperiod`, usable up
    to its declared horizon only.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("alphabet size m must be at least 1")
        for s in self.preperiod + self.period:
            if not 1 <= s <= self.m:
                raise ValueError(f"code symbol {s} outside kept alphabet 1..{self.m}")
        if not self.period and not self.preperiod:
            raise ValueError("a finite code needs at least one symbol")

    @property
    def is_finite(self) -> bool:
        return not self.period

    def prefix(self, n: int) -> tuple[int, ...]:
        if self.is_finite and n > len(self.preperiod):
            raise IndexError(f"prefix of length {n} beyond the declared horizon")
        # enough whole periods to reach n symbols: none when the preperiod does
        k = -(-(n - len(self.preperiod)) // len(self.period)) if self.period else 0
        return (self.preperiod + self.period * k)[: max(n, 0)]

    def to_dict(self) -> dict:
        if self.is_finite:
            return {"prefix": "".join(map(str, self.preperiod)), "horizon": len(self.preperiod)}
        return {"preperiod": "".join(map(str, self.preperiod)), "period": "".join(map(str, self.period))}


def shift(c: Code) -> Code:
    """Drop the first symbol; eventually-periodic form is preserved."""
    if c.preperiod:
        return Code(c.preperiod[1:], c.period, c.m)
    return Code((), c.period[1:] + c.period[:1], c.m)


def periodic_code(w: Address) -> Code:
    """The code w repeated forever."""
    if not w.symbols:
        raise ValueError("periodic codes need a nonempty word")
    if not w.is_kept:
        raise ValueError("periodic codes are built from kept words")
    return Code((), w.symbols, w.m)


def finite_code(symbols: tuple[int, ...], m: int) -> Code:
    """A finite-horizon code usable up to len(symbols) symbols."""
    return Code(tuple(symbols), (), m)


def enumerate_words(m: int, n: int, M: int | None = None, caps: Caps = DEFAULT_CAPS) -> list[Address]:
    """All m**n kept words of length n, lexicographically ordered."""
    if m < 2:
        raise ValueError("alphabet size m must be at least 2")
    if n < 0:
        raise ValueError("word length must be nonnegative")
    if m**n > caps.words:
        raise CapExceededError(f"m**n = {m**n} exceeds the word cap {caps.words}")
    big = m if M is None else M
    return [Address(w, m, big) for w in itertools.product(range(1, m + 1), repeat=n)]


def transitive_prefix(m: int, n: int, M: int | None = None, caps: Caps = DEFAULT_CAPS) -> Address:
    """Concatenation of all kept words of lengths 1..n in lexicographic order.

    Any code extending this word visits every cylinder of depth <= n under
    the iterated shift, because each depth-k word starts its own block.
    """
    if n < 1:
        raise ValueError("depth must be at least 1")
    total = sum(k * m**k for k in range(1, n + 1))
    if total > caps.words:
        raise CapExceededError(f"transitive prefix length {total} exceeds the word cap {caps.words}")
    symbols: list[int] = []
    for k in range(1, n + 1):
        for w in itertools.product(range(1, m + 1), repeat=k):
            symbols.extend(w)
    return Address(tuple(symbols), m, m if M is None else M)
