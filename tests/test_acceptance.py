"""Acceptance suite: every shipped claim checked at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output of a failing run).
"""

import json
import math
from contextlib import contextmanager

import numpy as np

from porofractal.cli import main as cli_main
from porofractal.codespace import Address, Code, shift
from porofractal.dynamics import chaos_report, realization_bound
from porofractal.geometry import Point2, measure
from porofractal.ifs import compose_word, from_scheme, inverse_shift
from porofractal.scheme import BUILTIN_NAMES, build_tree, builtin, dumps, realize_point
from porofractal.verifier import check_accumulation, check_adjacency, check_diameter, check_ratio, check_separation

from conftest import overlapping_complement_carpet, shrunk_complement_carpet


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def kept_words(m, n):
    words = [()]
    for _ in range(n):
        words = [w + (j,) for w in words for j in range(1, m + 1)]
    return words


def test_criterion_1_ratio_constants(make_tree):
    with criterion(1, "ratio constants"):
        for name, depth, expected in [("carpet", 5, 8.0), ("pascal3", 4, 2.0), ("koch", 8, 2.0), ("cantor", 8, 2.0)]:
            res = check_ratio(make_tree(name, depth), expected=expected)
            assert res.passed, f"{name} ratio check failed"
            per_depth = res.extremal["per_depth"]
            assert len(per_depth) == depth
            for entry in per_depth:
                assert abs(entry["min"] - expected) <= 1e-9, (name, entry)
                assert abs(entry["max"] - expected) <= 1e-9, (name, entry)


def test_criterion_2_adjacency(make_tree):
    with criterion(2, "adjacency"):
        for name in BUILTIN_NAMES:
            res = check_adjacency(make_tree(name, 4))
            assert res.passed, name
            assert res.extremal["max_gap"] <= 1e-9, name
        perturbed = check_adjacency(build_tree(shrunk_complement_carpet(), 3))
        assert not perturbed.passed
        assert perturbed.extremal["max_gap"] > 1e-9
        assert perturbed.witnesses


def test_criterion_3_diameter_decay(make_tree):
    with criterion(3, "diameter decay"):
        for name, depth, factor, tol in [
            ("carpet", 4, 1 / 3, 1e-9),
            ("cantor", 6, 1 / 3, 1e-9),
            ("koch", 6, 1 / math.sqrt(3), 1e-6),
        ]:
            res = check_diameter(make_tree(name, depth))
            assert res.passed, name
            for f in res.extremal["decay_factors"]:
                assert abs(f - factor) <= tol, (name, f)


def test_criterion_4_accumulation(make_tree, tmp_path):
    with criterion(4, "accumulation"):
        for name in BUILTIN_NAMES:
            t = make_tree(name, 4)
            res = check_accumulation(t)
            assert res.passed, name
            assert res.extremal["max_overlap"] <= 1e-12 * t.scheme.base_measure(), name
        broken = tmp_path / "broken.json"
        broken.write_text(dumps(overlapping_complement_carpet()))
        report_path = tmp_path / "report.json"
        exit_code = cli_main(["verify", "--scheme", str(broken), "--depth", "3", "--out", str(report_path)])
        assert exit_code == 1
        report = json.loads(report_path.read_text())
        accumulation = next(c for c in report["conditions"] if c["condition"] == "accumulation")
        assert accumulation["status"] == "fail"


def test_criterion_5_separation(make_tree):
    with criterion(5, "separation"):
        res = check_separation(make_tree("cantor", 6), "pairwise")
        for n, v in enumerate(res.extremal["by_depth"], start=1):
            assert abs(v - 3.0**-n) <= 1e-12, (n, v)
        for name in ("cantor", "carpet"):
            fe = check_separation(make_tree(name, 1), "forall_exists")
            assert abs(fe.extremal["epsilon0"] - 1 / 3) <= 1e-9, name
        for name in BUILTIN_NAMES:
            t = make_tree(name, 3)
            pw = check_separation(t, "pairwise").extremal["epsilon0"]
            fe = check_separation(t, "forall_exists").extremal["epsilon0"]
            assert pw <= fe + 1e-15, name


def test_criterion_6_scheme_ifs_cross_validation(make_tree):
    with criterion(6, "scheme/IFS cross-validation"):
        for name in BUILTIN_NAMES:
            s = builtin(name)
            sys_ = from_scheme(s)
            t = make_tree(name, 4)
            for n in range(1, 5):
                for w in kept_words(s.m, n):
                    cell = t.cell(Address(w, s.m, s.M))
                    poly = compose_word(sys_, Address(w, s.m, s.m))
                    assert np.allclose(poly.vertices, cell.polygon.vertices, rtol=0, atol=1e-9), (name, w)


def test_criterion_7_conjugacy():
    with criterion(7, "conjugacy on the totally disconnected scheme"):
        s = builtin("cantor")
        sys_ = from_scheme(s)
        rng = np.random.default_rng(20240814)
        for _ in range(100):
            pre = tuple(int(v) for v in rng.integers(1, 3, size=rng.integers(0, 4)))
            per = tuple(int(v) for v in rng.integers(1, 3, size=rng.integers(1, 6)))
            code = Code(pre, per, 2)
            p, _ = realize_point(s, code, 20)
            q, _branch = inverse_shift(sys_, p)
            r, _ = realize_point(s, shift(code), 20)
            assert q.distance_to(r) <= 1e-9
        q, branch = inverse_shift(sys_, Point2(0.7, 0.0))
        assert branch == 2 and abs(q.x - 0.1) <= 1e-12
        q, branch = inverse_shift(sys_, Point2(0.25, 0.0))
        assert branch == 1 and abs(q.x - 0.75) <= 1e-12


def test_criterion_8_chaos_witnesses():
    with criterion(8, "chaos witnesses at n=8"):
        for name in ("koch", "cantor"):
            s = builtin(name)
            rep = chaos_report(s, 8, 64)
            assert len(rep.periodic) == 256
            assert all(w.member for w in rep.periodic), name
            assert rep.transitivity.complete and rep.transitivity.total_cylinders == 256
            eps0 = rep.separation.epsilon0
            d12 = realization_bound(s, 12)
            for w in rep.sensitivity:
                assert w.distance >= eps0 - 2 * d12 - 1e-15, (name, str(w.cylinder))
            ly = rep.li_yorke
            assert ly.min_distance <= realization_bound(s, 4), name
            assert ly.max_distance >= eps0 - 2 * d12 - 1e-15, name


def test_criterion_9_combinatorics(make_tree):
    with criterion(9, "combinatorics and partition identity"):
        for name in BUILTIN_NAMES:
            s = builtin(name)
            t = make_tree(name, 4)
            for n in range(1, 5):
                assert len(t.kept_cells(n)) == s.m**n
                comps = [c for c in t.levels[n] if not c.is_kept]
                assert len(comps) == s.m ** (n - 1) * (s.M - s.m)
            for n in range(0, 4):
                parents = [c for c in t.levels[n] if c.is_kept]
                for p_idx, parent in enumerate(parents):
                    children = t.levels[n + 1][p_idx * s.M : (p_idx + 1) * s.M]
                    assert all(c.address.symbols[:-1] == parent.address.symbols for c in children)
                    total = sum(measure(c.polygon, s.measure_kind) for c in children)
                    parent_mu = measure(parent.polygon, s.measure_kind)
                    assert abs(total - parent_mu) <= 1e-12 * parent_mu, (name, n)


def test_criterion_10_rendering(make_tree, tmp_path):
    with criterion(10, "deterministic rendering"):
        import xml.etree.ElementTree as ET
        from pathlib import Path

        from porofractal.render import render_construction, render_subfractal

        golden_dir = Path(__file__).parent / "golden"
        outputs = {
            "carpet_depth3.svg": render_construction(make_tree("carpet", 3), 3),
            "pascal3_depth2.svg": render_construction(make_tree("pascal3", 2), 2),
            "koch_depth4_sub12.svg": render_subfractal(make_tree("koch", 4), Address((1, 2), 2, 3), 4),
        }
        for name, svg in outputs.items():
            assert svg == (golden_dir / name).read_text(encoding="utf-8"), name
            ET.fromstring(svg)
        assert outputs["carpet_depth3.svg"].count("<polygon") == 585
        assert outputs["koch_depth4_sub12.svg"].count('class="highlight"') == 4
