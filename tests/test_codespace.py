import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from porofractal.codespace import (
    Address,
    Code,
    Cylinder,
    enumerate_words,
    finite_code,
    in_cylinder,
    periodic_code,
    shift,
    transitive_prefix,
)
from porofractal.config import Caps
from porofractal.errors import CapExceededError


def addr(symbols, m=2, M=3):
    return Address(tuple(symbols), m, M)


# ---------------------------------------------------------------------------
# addresses


def test_address_validation():
    addr((1, 2, 3))  # complement index allowed last
    with pytest.raises(ValueError):
        addr((3, 1))  # complement index not allowed before the end
    with pytest.raises(ValueError):
        addr((4,))


def test_address_kept_and_complement_order():
    assert addr(()).is_kept
    assert addr((1, 2)).is_kept
    assert not addr((1, 3)).is_kept
    assert addr((1, 3)).complement_order == 2
    assert addr((1, 2)).complement_order is None


def test_address_serialization_compact():
    assert str(addr((1, 2, 1, 1))) == "1211"
    assert Address.parse("1211", 2, 3) == addr((1, 2, 1, 1))
    assert Address.parse("", 2, 3) == addr(())


def test_address_serialization_dotted_for_wide_alphabets():
    a = Address((1, 12, 3), 12, 14)
    assert str(a) == "1.12.3"
    assert Address.parse("1.12.3", 12, 14) == a


def test_address_children_and_parents():
    a = addr((1,))
    assert a.child(3).symbols == (1, 3)
    with pytest.raises(ValueError):
        a.child(3).child(1)  # complement cells are leaves
    assert a.child(2).parent() == a


# ---------------------------------------------------------------------------
# codes and the shift


def test_shift_rotates_period():
    c = periodic_code(addr((1, 2)))
    assert shift(c) == Code((), (2, 1), 2)


def test_shift_fixes_constant_code():
    c = periodic_code(addr((1,)))
    assert shift(c) == c


def test_shift_consumes_preperiod():
    c = Code((2,), (1,), 2)
    assert shift(c) == Code((), (1,), 2)


def test_finite_code_horizon():
    c = finite_code((1, 2, 1), 2)
    assert c.horizon == 3
    assert c.prefix(3) == (1, 2, 1)
    with pytest.raises(IndexError):
        c.prefix(4)
    assert shift(c).horizon == 2


def test_in_cylinder():
    c = periodic_code(addr((1, 2)))
    assert in_cylinder(c, Cylinder(addr((1, 2))))
    assert not in_cylinder(c, Cylinder(addr((2,))))
    assert in_cylinder(Code((2,), (1,), 2), Cylinder(addr((2, 1))))


def test_cylinder_requires_kept_prefix():
    with pytest.raises(ValueError):
        Cylinder(addr((1, 3)))


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_words_m2_n2():
    words = enumerate_words(2, 2)
    assert [str(w) for w in words] == ["11", "12", "21", "22"]


def test_enumerate_words_empty_word():
    assert [w.symbols for w in enumerate_words(2, 0)] == [()]


def test_enumerate_words_m8_n3():
    words = enumerate_words(8, 3, M=9)
    assert len(words) == 512
    assert str(words[0]) == "111"
    assert str(words[-1]) == "888"


def test_enumerate_words_cap():
    with pytest.raises(CapExceededError):
        enumerate_words(2, 25, caps=Caps(words=1000))


def test_transitive_prefix_depth1():
    assert str(transitive_prefix(2, 1)) == "12"


def test_transitive_prefix_depth2():
    assert str(transitive_prefix(2, 2)) == "1211122122"


def test_transitive_prefix_length_formula():
    # concatenating all words of lengths 1..n gives sum(k * m**k) symbols
    for m, n in [(2, 4), (3, 3)]:
        assert len(transitive_prefix(m, n)) == sum(k * m**k for k in range(1, n + 1))


def test_transitive_prefix_visits_every_cylinder():
    # brute-force orbit scan: every depth-n window over the prefix
    for n in (2, 8):
        symbols = transitive_prefix(2, n).symbols
        seen = {symbols[k : k + n] for k in range(len(symbols) - n + 1)}
        assert {w.symbols for w in enumerate_words(2, n)} <= seen


def test_transitive_prefix_cap():
    with pytest.raises(CapExceededError):
        transitive_prefix(2, 12, caps=Caps(words=10_000))


# ---------------------------------------------------------------------------
# properties

small_words = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=10)


@settings(max_examples=80, deadline=None)
@given(word=small_words)
def test_shift_cycles_periodic_codes_exactly(word):
    c = periodic_code(Address(tuple(word), 3, 3))
    out = c
    for _ in range(len(word)):
        out = shift(out)
    assert out == c


def test_periodic_points_dense_at_every_resolution():
    # the symbolic form of density: each depth-n cylinder contains its
    # own periodic code, for every kept word up to depth 8
    for n in range(1, 9):
        for w in enumerate_words(2, n):
            assert in_cylinder(periodic_code(w), Cylinder(w))


@settings(max_examples=80, deadline=None)
@given(
    pre=st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=6),
    per=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=6),
    k=st.integers(min_value=0, max_value=40),
)
def test_shifted_codes_stay_eventually_periodic(pre, per, k):
    c = Code(tuple(pre), tuple(per), 3)
    out = c
    for _ in range(k):
        out = shift(out)
    # beyond the preperiod the shift depends only on k mod the period length
    if k >= len(pre):
        expected_rotation = (k - len(pre)) % len(per)
        rotated = tuple(per[(expected_rotation + i) % len(per)] for i in range(len(per)))
        assert out == Code((), rotated, 3)
        assert len(out.period) == len(per)


@settings(max_examples=200, deadline=None)
@given(
    pre=st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=7),
    per=st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=7),
    extra=st.integers(min_value=0, max_value=40),
)
def test_code_prefix_matches_symbol_at(pre, per, extra):
    # prefix slices whole periods; symbol_at is the per-symbol definition
    assume(pre or per)
    c = Code(tuple(pre), tuple(per), 4)
    for n in range(len(pre) + len(per) + extra + 1):
        if c.is_finite and n > len(pre):
            with pytest.raises(IndexError):
                c.prefix(n)
            with pytest.raises(IndexError):
                c.symbol_at(n - 1)
        else:
            assert c.prefix(n) == tuple(c.symbol_at(i) for i in range(n))
