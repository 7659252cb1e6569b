import sys

import numpy as np
import pytest

from porofractal import geometry
from porofractal.codespace import Address, Code, finite_code, periodic_code, shift
from porofractal.dynamics import (
    chaos_report,
    estimate_separation,
    li_yorke_witness,
    periodic_density_witnesses,
    realization_bound,
    sensitivity_witnesses,
    transitivity_witness,
)
from porofractal.errors import NoSeparationError
from porofractal.geometry import AffineMap2, ConvexPolygon, point_in_polygon
from porofractal.ifs import compose_word, from_scheme, separation_from_maps
from porofractal.scheme import BUILTIN_NAMES, Scheme, address_polygon, builtin, realize_point, realize_points

from conftest import point_distance_oracle


def code_from_dict(d, m):
    if "prefix" in d:
        return Code(tuple(int(c) for c in d["prefix"]), (), m)
    return Code(tuple(int(c) for c in d["preperiod"]), tuple(int(c) for c in d["period"]), m)


# ---------------------------------------------------------------------------
# separation estimates


def test_estimate_separation_cantor_depth1():
    est = estimate_separation(builtin("cantor"), 1)
    assert est.epsilon0 == pytest.approx(1 / 3, abs=1e-12)
    assert (str(est.word_a), str(est.word_b)) == ("1", "2")


def test_estimate_separation_improves_with_depth():
    shallow = estimate_separation(builtin("cantor"), 1)
    deep = estimate_separation(builtin("cantor"), 4)
    assert deep.epsilon0 >= shallow.epsilon0


def test_realization_bound_closed_forms():
    assert realization_bound(builtin("cantor"), 12) == pytest.approx(3.0**-12, rel=1e-9)
    assert realization_bound(builtin("koch"), 12) == pytest.approx(3.0**-6, rel=1e-9)


# ---------------------------------------------------------------------------
# periodic density


def test_periodic_witness_koch_121():
    wits = periodic_density_witnesses(builtin("koch"), 3)
    by_addr = {str(w.cylinder): w for w in wits}
    assert by_addr["121"].member
    assert by_addr["121"].code == periodic_code(Address((1, 2, 1), 2, 3))


def test_periodic_witnesses_carpet_n2_all_members():
    wits = periodic_density_witnesses(builtin("carpet"), 2)
    assert len(wits) == 64
    assert all(w.member for w in wits)


def test_periodic_witness_replay_carpet_18():
    # geometric restatement with an independent point-in-polygon check
    s = builtin("carpet")
    code = periodic_code(Address((1, 8), 8, 9))
    p, _ = realize_point(s, code, 12)
    cell = address_polygon(s, Address((1, 8), 8, 9))
    assert point_in_polygon(p.as_array(), cell, tol=1e-9)


def test_periodic_witness_gaps_match_scalar_oracle():
    # one batched point_distances call is bitwise the per-word scalar route
    for name, n in [("cantor", 4), ("koch", 4), ("pascal3", 2), ("carpet", 2)]:
        s = builtin(name)
        for w in periodic_density_witnesses(s, n):
            cell = address_polygon(s, w.cylinder).vertices
            assert w.gap == point_distance_oracle(w.point.as_array(), cell), (name, str(w.cylinder))


# ---------------------------------------------------------------------------
# transitivity


def test_transitivity_cantor_n2():
    wit = transitivity_witness(builtin("cantor"), 2)
    assert wit.complete
    assert set(wit.first_visits) == {"11", "12", "21", "22"}


def test_transitivity_first_m_shifts_cover_depth_one():
    for name in ("cantor", "carpet"):
        s = builtin(name)
        wit = transitivity_witness(s, 1)
        assert wit.complete
        assert sorted(wit.first_visits.values()) == list(range(s.m))


def test_transitivity_keys_are_address_strings():
    # eleven strips of a segment, ten kept: two-digit symbols need the dotted form
    strips = Scheme(
        "strips11",
        10,
        11,
        ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0]])),
        tuple(AffineMap2(np.eye(2) / 11.0, np.array([k / 11.0, 0.0])) for k in range(11)),
        "length",
    )
    for s, n in [(builtin("cantor"), 3), (builtin("carpet"), 2), (strips, 2)]:
        wit = transitivity_witness(s, n)
        symbols = wit.code.period
        want: dict[str, int] = {}
        for k in range(len(symbols) - n + 1):
            want.setdefault(str(Address(symbols[k : k + n], s.m, s.M)), k)
        assert list(wit.first_visits.items()) == list(want.items())
    assert "10.10" in transitivity_witness(strips, 2).first_visits


def test_transitivity_koch_n8():
    wit = transitivity_witness(builtin("koch"), 8)
    assert wit.total_cylinders == 256
    assert wit.complete
    assert wit.prefix_length == sum(k * 2**k for k in range(1, 9))


# ---------------------------------------------------------------------------
# sensitivity


def test_sensitivity_cantor_shallow_separation():
    s = builtin("cantor")
    sep = estimate_separation(s, 1)
    wits = sensitivity_witnesses(s, 2, sep)
    assert len(wits) == 4
    by_addr = {str(w.cylinder): w for w in wits}
    w11 = by_addr["11"]
    # u = 11 1^inf and v = 11 2^inf realize near the endpoints after 2 shifts
    assert w11.code_u == Code((1, 1), (1,), 2)
    assert w11.code_v == Code((1, 1), (2,), 2)
    assert w11.k == 2
    assert w11.distance == pytest.approx(1.0, abs=1e-5)
    assert all(w.achieved for w in wits)
    assert all(w.distance >= sep.epsilon0 - 2 * realization_bound(s, 12) for w in wits)


def test_sensitivity_initial_points_close():
    s = builtin("cantor")
    sep = estimate_separation(s, 1)
    for w in sensitivity_witnesses(s, 4, sep):
        assert w.initial_distance <= realization_bound(s, 4)


def test_sensitivity_requires_separation():
    s = builtin("carpet")
    sep = estimate_separation(s, 1, "pairwise")
    with pytest.raises(NoSeparationError):
        sensitivity_witnesses(s, 2, sep)


def test_sensitivity_witness_replay():
    s = builtin("koch")
    sep = estimate_separation(s, 2)
    for wit in sensitivity_witnesses(s, 3, sep):
        d = wit.to_dict()
        u = code_from_dict(d["u"], s.m)
        v = code_from_dict(d["v"], s.m)
        for _ in range(d["k"]):
            u, v = shift(u), shift(v)
        pu, _ = realize_point(s, u, 12)
        pv, _ = realize_point(s, v, 12)
        assert pu.distance_to(pv) == pytest.approx(d["distance"], abs=1e-12)


# ---------------------------------------------------------------------------
# proximal-but-separating pair


def test_li_yorke_cantor():
    s = builtin("cantor")
    sep = estimate_separation(s, 1)
    wit = li_yorke_witness(s, 64, sep)
    assert wit.min_distance <= 3.0**-4
    assert wit.max_distance >= 1 / 3 - 2 * 3.0**-12
    assert wit.proximal and wit.separating


def test_li_yorke_small_horizon_has_both_sample_kinds():
    s = builtin("cantor")
    sep = estimate_separation(s, 1)
    wit = li_yorke_witness(s, 4, sep)
    agree = [wit.code_u.symbol_at(k) == wit.code_v.symbol_at(k) for k in range(4)]
    assert any(agree) and not all(agree)


def test_li_yorke_replay():
    s = builtin("cantor")
    sep = estimate_separation(s, 2)
    wit = li_yorke_witness(s, 32, sep)
    d = wit.to_dict()
    u = code_from_dict(d["u"], s.m)
    v = code_from_dict(d["v"], s.m)
    for k in range(d["horizon"]):
        pu, _ = realize_point(s, u, 12)
        pv, _ = realize_point(s, v, 12)
        assert pu.distance_to(pv) == pytest.approx(d["samples"][k], abs=1e-12)
        u, v = shift(u), shift(v)


def test_li_yorke_agreement_matches_per_symbol_runs():
    # the longest run of agreeing symbols from a sampled shift, capped at
    # the realization depth, counted one symbol at a time
    for name in BUILTIN_NAMES:
        s = builtin(name)
        sep = estimate_separation(s, 2)
        for horizon, realize_depth in [(4, 1), (5, 3), (16, 12), (33, 7), (64, 12), (64, 20)]:
            wit = li_yorke_witness(s, horizon, sep, realize_depth)
            u, v = wit.code_u, wit.code_v
            runs = []
            for k in range(horizon):
                run = 0
                while run < realize_depth and u.symbol_at(k + run) == v.symbol_at(k + run):
                    run += 1
                runs.append(run)
            assert wit.agreement_depth == max(runs), (name, horizon, realize_depth)


def test_li_yorke_rejects_tiny_horizon():
    s = builtin("cantor")
    sep = estimate_separation(s, 1)
    with pytest.raises(ValueError):
        li_yorke_witness(s, 3, sep)


# ---------------------------------------------------------------------------
# shift-realization compatibility


@pytest.mark.parametrize("name", ["carpet", "pascal3", "koch", "cantor"])
def test_shift_commutes_with_realization(name):
    s = builtin(name)
    rng = np.random.default_rng(99)
    depth = 8
    bound = realization_bound(s, depth)
    for _ in range(50):
        pre = tuple(int(v) for v in rng.integers(1, s.m + 1, size=rng.integers(0, 3)))
        per = tuple(int(v) for v in rng.integers(1, s.m + 1, size=rng.integers(1, 5)))
        code = Code(pre, per, s.m)
        p, _ = realize_point(s, code, depth + 1)
        # the realized point lies in the first symbol's cell
        first = code.symbol_at(0)
        assert point_in_polygon(p.as_array(), address_polygon(s, Address((first,), s.m, s.M)), tol=1e-9)
        # pulling back through that child map realizes the shifted code
        q = s.child_maps[first - 1].inverse().transform_point(p)
        r, _ = realize_point(s, shift(code), depth)
        assert q.distance_to(r) <= 2 * bound


# ---------------------------------------------------------------------------
# assembled report


def test_chaos_report_cantor_verified():
    rep = chaos_report(builtin("cantor"), 6, 32)
    assert rep.all_verified
    assert len(rep.periodic) == 64
    assert rep.transitivity.complete


def test_chaos_report_deterministic():
    r1 = chaos_report(builtin("koch"), 4, 16)
    r2 = chaos_report(builtin("koch"), 4, 16)
    assert r1.to_json() == r2.to_json()


def test_chaos_report_carpet_pairwise_prerequisite_fails():
    with pytest.raises(NoSeparationError):
        chaos_report(builtin("carpet"), 2, 16, mode="pairwise")


def test_chaos_report_json_shape():
    import json

    doc = json.loads(chaos_report(builtin("cantor"), 3, 8).to_json())
    assert {"scheme", "n", "horizon", "epsilon0", "periodic", "transitivity", "sensitivity", "li_yorke"} <= set(doc)


def test_chaos_report_composes_no_single_maps(monkeypatch):
    # every witness family realizes its codes through scheme's stacked fold,
    # never one geometry.compose per symbol; the IFS words go through the
    # same fold with no compose or apply, and a code's prefix is sliced,
    # not read one symbol_at per symbol
    counts = {"compose": [], "apply": [], "symbol_at": []}
    calls = counts["compose"]
    originals = {key: getattr(geometry, key) for key in ("compose", "apply")}

    def counter(key, fn):
        def counted(*args, **kwargs):
            counts[key].append(args)
            return fn(*args, **kwargs)

        return counted

    for name, mod in list(sys.modules.items()):
        for key, fn in originals.items():
            if name.startswith("porofractal") and getattr(mod, key, None) is fn:
                monkeypatch.setattr(mod, key, counter(key, fn))
    for name, n in [("cantor", 4), ("koch", 4), ("pascal3", 2), ("carpet", 2)]:
        chaos_report(builtin(name), n, 16)
    assert not calls
    monkeypatch.setattr(Code, "symbol_at", counter("symbol_at", Code.symbol_at))
    for name in BUILTIN_NAMES:
        s = builtin(name)
        system = from_scheme(s)
        compose_word(system, Address((1, 2) * 6, s.m, s.m))
        separation_from_maps(system, 2, "pairwise")
        codes = [periodic_code(Address((2, 1), s.m, s.M)), Code((1,), (2, 1, 1), s.m), finite_code((2,) * 20, s.m)]
        realize_points(s, codes, 20)
    assert not calls and not counts["apply"] and not counts["symbol_at"]
