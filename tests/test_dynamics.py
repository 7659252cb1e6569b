import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest

from porofractal import geometry
from porofractal.codespace import Address, Code, enumerate_words, finite_code, periodic_code, shift
from porofractal.dynamics import (
    DEFAULT_REALIZE_DEPTH,
    ChaosWitnessReport,
    chaos_report,
    estimate_separation,
    li_yorke_witness,
    periodic_density_witnesses,
    realization_bound,
    sensitivity_witnesses,
    transitivity_witness,
)
from porofractal.errors import NoSeparationError
from porofractal.geometry import AffineMap2, ConvexPolygon, Point2
from porofractal.ifs import SetApproximation, compose_word, from_scheme, iterate_attractor, separation_from_maps
from porofractal.scheme import BUILTIN_NAMES, Scheme, address_vertices, builtin, realize_point, realize_points

from conftest import WITNESS_INPUTS, contains_oracle, point_distance_oracle, report_json_oracle, symbol_at_oracle, traced


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
    cell = address_vertices(s, [Address((1, 8), 8, 9)])[0]
    assert contains_oracle(cell, p.as_array(), 1e-9)


def test_periodic_witness_gaps_match_scalar_oracle():
    # one batched point_distances call is bitwise the per-word scalar route
    for name, n in [("cantor", 4), ("koch", 4), ("pascal3", 2), ("carpet", 2)]:
        s = builtin(name)
        for w in periodic_density_witnesses(s, n):
            cell = address_vertices(s, [w.cylinder])[0]
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
        assert math.hypot(pu.x - pv.x, pu.y - pv.y) == pytest.approx(d["distance"], abs=1e-12)


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
    agree = [symbol_at_oracle(wit.code_u, k) == symbol_at_oracle(wit.code_v, k) for k in range(4)]
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
        assert math.hypot(pu.x - pv.x, pu.y - pv.y) == pytest.approx(d["samples"][k], abs=1e-12)
        u, v = shift(u), shift(v)


def test_li_yorke_agreement_matches_per_symbol_runs():
    # the longest run of agreeing symbols from a sampled shift, capped at
    # the realization depth, counted one symbol at a time; the short
    # horizons stay below the cap and the long ones reach it
    depths = []
    for name in BUILTIN_NAMES:
        s = builtin(name)
        sep = estimate_separation(s, 2)
        for horizon in (4, 5, 16, 33, 64):
            wit = li_yorke_witness(s, horizon, sep)
            u, v = wit.code_u, wit.code_v
            runs = []
            for k in range(horizon):
                run = 0
                while run < DEFAULT_REALIZE_DEPTH and symbol_at_oracle(u, k + run) == symbol_at_oracle(v, k + run):
                    run += 1
                runs.append(run)
            assert wit.agreement_depth == max(runs), (name, horizon)
            depths.append(wit.agreement_depth)
    assert min(depths) < DEFAULT_REALIZE_DEPTH == max(depths)


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
        first = symbol_at_oracle(code, 0)
        assert contains_oracle(address_vertices(s, [Address((first,), s.m, s.M)])[0], p.as_array(), 1e-9)
        # pulling back through that child map realizes the shifted code
        q = s.child_maps[first - 1].inverse().transform_point(p)
        r, _ = realize_point(s, shift(code), depth)
        assert math.hypot(q.x - r.x, q.y - r.y) <= 2 * bound


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
    # never one geometry.compose per symbol; the IFS words, attractor and
    # separation go through the same stacked steps with no compose or apply
    counts = {"compose": [], "apply": []}
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
    for name in BUILTIN_NAMES:
        s = builtin(name)
        system = from_scheme(s)
        compose_word(system, Address((1, 2) * 6, s.m, s.m))
        separation_from_maps(system, 2, "pairwise")
        iterate_attractor(system, SetApproximation((s.base,), 0), 2)
        codes = [periodic_code(Address((2, 1), s.m, s.M)), Code((1,), (2, 1, 1), s.m), finite_code((2,) * 20, s.m)]
        realize_points(s, codes, 20)
    assert not calls and not counts["apply"]


@pytest.mark.parametrize("name,n", WITNESS_INPUTS)
def test_witness_chunks_join_to_the_dumps_oracle(name, n, witness_reports, monkeypatch):
    report = witness_reports(name, n)
    want = report_json_oracle(report)
    chunks = list(report.json_chunks())
    assert len(chunks) > 1 and "".join(chunks) == report.to_json() == want
    # piece boundaries fall between any two encoder tokens
    monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", 24)
    assert "".join(report.json_chunks()) == want


def test_witness_encoding_memory_is_bounded(witness_reports):
    # above the document dict, to_json holds pieces of a bounded number of
    # tokens and the joined text, not the encoder's whole token list (which
    # is about 5.8 MiB for this 840 KB document)
    report = witness_reports("pascal3", 4)
    _, _, held = traced(report.to_dict)
    size, peak, _ = traced(lambda: len(report.to_json()))
    peak -= held
    assert size > 800_000
    assert peak <= 2 * 2**20, peak / 2**20


def test_witness_dicts_are_made_as_the_encoder_reaches_them(witness_reports, monkeypatch):
    # the encoder holds one witness's dict at a time, so to_json's peak above
    # the held report is about the text in pieces and joined, with no dict
    # of the document subtracted
    report = witness_reports("pascal3", 4)
    text, peak, _ = traced(report.to_json)
    assert len(text) > 800_000
    assert peak <= 1.8 * 2**20, peak / 2**20
    # the stream never builds the eager document
    monkeypatch.setattr(ChaosWitnessReport, "to_dict", None)
    assert "".join(report.json_chunks()) == text


def test_realizing_sensitivity_codes_works_in_bounded_memory():
    # 2 592 codes take six map values a row, within one chunk, so the fold
    # gathers one column of maps at a time, not all twelve; each per-code
    # array is at most six values a code, so above the (W, depth) symbol
    # matrix the peak is a few chunks
    s = builtin("pascal3")
    sep = estimate_separation(s, 4)
    words = enumerate_words(s.m, 4, M=s.M)
    codes = [Code(w.symbols, x.symbols, s.m) for x in (sep.word_a, sep.word_b) for w in words]
    assert 6 * len(codes) <= geometry._CHUNK_ELEMENTS
    _, peak, _ = traced(lambda: realize_points(s, codes, DEFAULT_REALIZE_DEPTH))
    symbols = len(codes) * DEFAULT_REALIZE_DEPTH * np.dtype(np.intp).itemsize
    assert peak <= symbols + 4 * 8 * geometry._CHUNK_ELEMENTS, peak / 2**20


def test_slotted_values_keep_their_api(witness_reports):
    # slots change what pickling, dataclasses.replace, equality and the
    # ordering of addresses go through; each must work as before
    report = witness_reports("cantor", 8)
    p = report.periodic[0]
    values = [p.cylinder, p.code, p.point, p, report.separation, report.transitivity, report.sensitivity[0], report.li_yorke]
    assert [type(v).__name__ for v in values] == [
        "Address", "Code", "Point2", "PeriodicWitness", "SeparationEstimate",
        "TransitivityWitness", "SensitivityWitness", "LiYorkeWitness",
    ]
    for v in values:
        assert not hasattr(v, "__dict__"), type(v)
        assert pickle.loads(pickle.dumps(v)) == v and dataclasses.replace(v) == v
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, dataclasses.fields(v)[0].name, None)
    for v in values[:4]:
        assert hash(pickle.loads(pickle.dumps(v))) == hash(v)
    assert dataclasses.replace(p, gap=1.0) != p and dataclasses.replace(p, gap=1.0).gap == 1.0
    assert dataclasses.replace(p.point, y=2.0) == Point2(p.point.x, 2.0) != p.point
    with pytest.raises(ValueError):
        dataclasses.replace(p.point, x=math.inf)
    with pytest.raises(ValueError):
        dataclasses.replace(p.cylinder, m=0)
    assert Code((1,), (2,), 2) == Code((1,), (2,), 2) != Code((), (1, 2), 2)
    addresses = [Address(w, 2, 3) for w in [(2,), (1, 2), (1,), (), (1, 1), (2, 3)]] + [Address((1,), 2, 2)]
    assert sorted(addresses) == sorted(addresses, key=lambda a: (a.symbols, a.m, a.M))
    assert Address((1, 2), 2, 3) < Address((2,), 2, 3) and not Address((1,), 2, 3) < Address((1,), 2, 3)
