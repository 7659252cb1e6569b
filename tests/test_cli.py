import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from porofractal.cli import main
from porofractal.config import DEFAULT_TOLERANCES
from porofractal.errors import OutsideAttractorError
from porofractal.scheme import builtin, dumps, to_document

from conftest import overlapping_complement_carpet


def run(args):
    return main(args)


def src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH, for
    subprocesses."""
    src = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}


# ---------------------------------------------------------------------------
# scheme subcommand


def test_scheme_list(capsys):
    assert run(["scheme", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["carpet", "pascal3", "koch", "cantor"]


def test_scheme_show_carpet(capsys):
    assert run(["scheme", "show", "carpet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 8 and doc["M"] == 9
    assert len(doc["maps"]) == 9


def test_scheme_show_unknown_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["scheme", "show", "nosuch"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify subcommand


def test_verify_carpet_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["verify", "--scheme", "carpet", "--depth", "3", "--expect-ratio", "8", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["overall"] == "pass"
    ratio = next(c for c in report["conditions"] if c["condition"] == "ratio")
    assert abs(ratio["extremal"]["observed_r"] - 8) <= 1e-9
    assert abs(ratio["extremal"]["observed_R"] - 8) <= 1e-9


def test_verify_koch_passes(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--scheme", "koch", "--depth", "6", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["overall"] == "pass"


def test_verify_overlapping_complements_exits_1(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text(dumps(overlapping_complement_carpet()))
    out = tmp_path / "report.json"
    code = run(["verify", "--scheme", str(broken), "--depth", "3", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    accumulation = next(c for c in report["conditions"] if c["condition"] == "accumulation")
    assert accumulation["status"] == "fail"
    assert accumulation["witnesses"]


def test_verify_structurally_broken_scheme_exits_3(tmp_path, capsys):
    doc = to_document(builtin("carpet"))
    doc["m"] = doc["M"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--scheme", str(bad), "--depth", "2"]) == 3


def test_verify_unparseable_scheme_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert run(["verify", "--scheme", str(bad), "--depth", "2"]) == 3


def test_verify_singular_child_map_exits_3(tmp_path, capsys):
    doc = to_document(builtin("carpet"))
    doc["maps"][8]["linear"] = [[0.0, 0.0], [0.0, 0.0]]
    bad = tmp_path / "singular.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--scheme", str(bad), "--depth", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("malformed scheme:") and "Traceback" not in err


def test_other_library_errors_exit_5(monkeypatch, capsys):
    import porofractal.cli as cli

    def fail(*args, **kwargs):
        raise OutsideAttractorError("no branch")

    monkeypatch.setattr(cli, "build_tree", fail)
    assert run(["verify", "--scheme", "carpet", "--depth", "2"]) == 5
    assert "Traceback" not in capsys.readouterr().err


def test_verify_unknown_scheme_exits_2(capsys):
    assert run(["verify", "--scheme", "nosuch", "--depth", "2"]) == 2


def test_verify_cap_exceeded_exits_2(capsys):
    assert run(["verify", "--scheme", "carpet", "--depth", "8", "--force-cap", "1000"]) == 2


# ---------------------------------------------------------------------------
# separation subcommand


def test_separation_cantor_forall(capsys):
    assert run(["separation", "--scheme", "cantor", "--depth", "1", "--mode", "forall-exists"]) == 0
    out = capsys.readouterr().out
    assert abs(float(out.split()[0]) - 1 / 3) <= 1e-12
    assert "mode=forall-exists" in out


def test_separation_carpet_pairwise_fails(capsys):
    assert run(["separation", "--scheme", "carpet", "--depth", "1", "--mode", "pairwise"]) == 1
    assert float(capsys.readouterr().out.split()[0]) == 0.0


def test_separation_carpet_forall_passes(capsys):
    assert run(["separation", "--scheme", "carpet", "--depth", "1", "--mode", "forall-exists"]) == 0
    assert abs(float(capsys.readouterr().out.split()[0]) - 1 / 3) <= 1e-9


# ---------------------------------------------------------------------------
# dynamics subcommand


def test_dynamics_cantor(tmp_path):
    out = tmp_path / "witness.json"
    code = run(["dynamics", "--scheme", "cantor", "--depth", "6", "--horizon", "64", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["all_verified"] is True
    assert len(doc["periodic"]) == 64
    assert doc["transitivity"]["complete"] is True


def test_dynamics_koch_256_witnesses(tmp_path):
    out = tmp_path / "witness.json"
    code = run(["dynamics", "--scheme", "koch", "--depth", "8", "--horizon", "64", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["periodic"]) == 256
    assert all(w["member"] for w in doc["periodic"])


def test_dynamics_carpet_pairwise_exits_4(capsys):
    assert run(["dynamics", "--scheme", "carpet", "--depth", "2", "--mode", "pairwise"]) == 4


# ---------------------------------------------------------------------------
# render subcommand


def test_render_carpet_deterministic(tmp_path):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert run(["render", "--scheme", "carpet", "--depth", "3", "--out", str(out1)]) == 0
    assert run(["render", "--scheme", "carpet", "--depth", "3", "--out", str(out2)]) == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert data.count(b"<polygon") == 585
    assert not list(tmp_path.glob("*.tmp"))  # atomic write leaves no temp files


def test_render_subfractal(tmp_path):
    out = tmp_path / "k.svg"
    assert run(["render", "--scheme", "koch", "--depth", "4", "--subfractal", "12", "--out", str(out)]) == 0
    assert out.read_text().count('class="highlight"') == 4


def test_render_complement_prefix_exits_2(tmp_path, capsys):
    out = tmp_path / "k.svg"
    assert run(["render", "--scheme", "carpet", "--depth", "2", "--subfractal", "9", "--out", str(out)]) == 2


def test_render_to_stdout(capsys):
    assert run(["render", "--scheme", "cantor", "--depth", "2"]) == 0
    assert "<svg" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "porofractal.cli", "scheme", "list"],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0
    assert "carpet" in proc.stdout


def test_verify_leaves_numpy_ma_unimported():
    # numpy.ma costs about 12 ms of import; an area accumulation check must
    # not pull it in on every CLI verify
    code = (
        "import sys\n"
        "from porofractal.cli import main\n"
        "status = main(['verify', '--scheme', 'koch', '--depth', '4'])\n"
        "print('numpy.ma' in sys.modules, status, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["False", "0"]


def test_verify_depth_too_shallow_exits_2(capsys):
    assert run(["verify", "--scheme", "carpet", "--depth", "1"]) == 2


def test_render_depth_zero_exits_2(capsys):
    assert run(["render", "--scheme", "carpet", "--depth", "0"]) == 2


# ---------------------------------------------------------------------------
# crashes and tolerance flags


def test_unwritable_out_exits_6(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert run(["verify", "--scheme", "carpet", "--depth", "2", "--out", str(out)]) == 6
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}") and "Traceback" not in err


def test_unexpected_exception_exits_7(monkeypatch, capsys):
    import porofractal.cli as cli

    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "build_tree", crash)
    assert run(["verify", "--scheme", "carpet", "--depth", "2"]) == 7
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: boom") and "Traceback" not in err


def test_tolerance_flags_default_to_config():
    from porofractal.cli import _tolerances, build_parser

    for command in ("verify", "separation", "dynamics", "render"):
        args = build_parser().parse_args([command, "--scheme", "carpet", "--depth", "2"])
        assert _tolerances(args) == DEFAULT_TOLERANCES


def test_tol_ratio_reaches_report(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--scheme", "koch", "--depth", "3", "--tol-ratio", "1e-6", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tolerances"]["ratio"] == 1e-6
