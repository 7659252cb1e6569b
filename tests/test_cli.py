import errno
import json
import os
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

import pytest

from porofractal import render
from porofractal.cli import main
from porofractal.dynamics import ChaosWitnessReport
from porofractal.codespace import Address
from porofractal.config import DEFAULT_TOLERANCES
from porofractal.errors import OutsideAttractorError
from porofractal.geometry import similarity_map
from porofractal.scheme import BUILTIN_NAMES, build_tree, builtin, dumps, load, to_document
from porofractal.verifier import VerificationReport, full_verify

from conftest import (
    VERIFY_INPUTS,
    WITNESS_INPUTS,
    overlapping_complement_carpet,
    report_json_oracle,
    similarity_conjugate,
)


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


def test_verify_point_scheme_exits_1_with_diameter_passing(tmp_path, capsys):
    # a valid scheme whose cells are all the origin: the maximal diameter is
    # 0 at every depth, which decays (factor 0), while the ratio of zero
    # lengths fails
    maps = [{"linear": [[r, 0.0], [0.0, r]], "translation": [0.0, 0.0]} for r in (0.3, 0.5, 0.3)]
    doc = {"name": "point", "m": 2, "M": 3, "measure": "length", "base": [[0.0, 0.0]], "maps": maps}
    path = tmp_path / "point.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert run(["verify", "--scheme", str(path), "--depth", "3", "--out", str(out)]) == 1
    status = {c["condition"]: c for c in json.loads(out.read_text())["conditions"]}
    assert status["ratio"]["status"] == "fail"
    assert status["diameter"]["status"] == "pass"
    assert status["diameter"]["extremal"]["decay_factors"] == [0.0, 0.0]
    assert "internal error" not in capsys.readouterr().err


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


def test_verify_unreadable_scheme_file_exits_2(tmp_path, monkeypatch, capsys):
    path = tmp_path / "carpet.json"
    path.write_text(dumps(builtin("carpet")))

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(Path, "read_text", denied)
    assert run(["verify", "--scheme", str(path), "--depth", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read scheme file {str(path)!r}") and "Permission denied" in err


def test_verify_non_utf8_scheme_file_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run(["verify", "--scheme", str(path), "--depth", "2"]) == 3
    assert capsys.readouterr().err.startswith("malformed scheme: ")


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


@pytest.mark.parametrize("name,n", WITNESS_INPUTS)
def test_dynamics_streams_the_report_bytes(name, n, witness_reports, tmp_path, capsys):
    # the file gets the bytes of one json.dumps of the report, stdout the
    # same plus a newline
    report = witness_reports(name, n)
    want, status = report_json_oracle(report), 0 if report.all_verified else 1
    args = ["dynamics", "--scheme", name, "--depth", str(n), "--horizon", "64"]
    out = tmp_path / "witness.json"
    assert run([*args, "--out", str(out)]) == status
    assert out.read_bytes() == want.encode("utf-8")
    assert run(args) == status
    assert capsys.readouterr().out == want + "\n"


@pytest.mark.parametrize("name,depth", VERIFY_INPUTS)
def test_verify_streams_the_report_bytes(name, depth, make_tree, tmp_path, capsys):
    want = report_json_oracle(full_verify(make_tree(name, depth)))
    args = ["verify", "--scheme", name, "--depth", str(depth)]
    out = tmp_path / "report.json"
    assert run([*args, "--out", str(out)]) == 0
    assert out.read_bytes() == want.encode("utf-8")
    assert run(args) == 0
    assert capsys.readouterr().out == want + "\n"


def test_reports_reach_emit_as_iterators(monkeypatch, capsys):
    import porofractal.cli as cli

    seen = []
    emit = cli._emit

    def spy(chunks, out):
        seen.append(chunks)
        emit(chunks, out)

    monkeypatch.setattr(cli, "_emit", spy)
    assert run(["verify", "--scheme", "carpet", "--depth", "2"]) == 0
    assert run(["dynamics", "--scheme", "cantor", "--depth", "3", "--horizon", "8"]) == 0
    assert len(seen) == 2 and all(isinstance(chunks, Iterator) for chunks in seen)


def _broken_chunks(self):
    yield "{\n"
    raise RuntimeError("encoder broke")


@pytest.mark.parametrize(
    "args,report_type",
    [
        (["verify", "--scheme", "carpet", "--depth", "2"], VerificationReport),
        (["dynamics", "--scheme", "cantor", "--depth", "3", "--horizon", "8"], ChaosWitnessReport),
    ],
)
def test_piece_failing_mid_stream_leaves_no_file(args, report_type, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(report_type, "json_chunks", _broken_chunks)
    assert run([*args, "--out", str(tmp_path / "report.json")]) == 7
    assert capsys.readouterr().err == "internal error: RuntimeError: encoder broke\n"
    assert list(tmp_path.iterdir()) == []


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


def _render_cases(scheme: str, s):
    # (CLI arguments, expected document) at depths 1-4, whole and with kept
    # prefixes of length 1, 2 and the full depth highlighted
    for depth in range(1, 5):
        t = build_tree(s, depth)
        yield ["--depth", str(depth)], "".join(render.svg_chunks(t, depth))
        for length in sorted({1, 2, depth} & set(range(1, depth + 1))):
            prefix = Address(tuple((2 * i) % s.m + 1 for i in range(length)), s.m, s.M)
            yield ["--depth", str(depth), "--subfractal", str(prefix)], "".join(render.svg_chunks(t, depth, prefix))


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("koch-tilted",))
def test_render_streams_the_joined_chunks(name, tmp_path, capsys):
    # the file and stdout get the bytes of the joined chunks; the tilted koch
    # has a coordinate that rounds to -0.0
    if name == "koch-tilted":
        path = tmp_path / "koch-tilted.json"
        path.write_text(dumps(similarity_conjugate(builtin("koch"), similarity_map(1.0, 0.5))), encoding="utf-8")
        scheme, s = str(path), load(path.read_text(encoding="utf-8"), check_geometry=False)
    else:
        scheme, s = name, builtin(name)
    out = tmp_path / "out.svg"
    for args, want in _render_cases(scheme, s):
        assert run(["render", "--scheme", scheme, *args, "--out", str(out)]) == 0
        assert out.read_bytes() == want.encode("utf-8"), args
        assert run(["render", "--scheme", scheme, *args]) == 0
        assert capsys.readouterr().out == want, args
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize(
    "args,built",
    [
        (["--scheme", "carpet", "--depth", "0"], None),
        (["--scheme", "koch", "--depth", "3"], 2),
        (["--scheme", "carpet", "--depth", "2", "--subfractal", "9"], None),
        (["--scheme", "koch", "--depth", "2", "--subfractal", "111"], None),
    ],
)
@pytest.mark.parametrize("to_file", [False, True])
def test_render_rejects_before_writing(args, built, to_file, tmp_path, capsys, monkeypatch):
    # depth 0, a depth above the built tree, a complement prefix and an
    # over-long prefix: exit 2, nothing on stdout and no file left behind
    import porofractal.cli as cli

    if built is not None:
        monkeypatch.setattr(cli, "build_tree", lambda s, depth, caps: build_tree(s, built, caps))
    out = tmp_path / "out.svg"
    assert run(["render", *args] + (["--out", str(out)] if to_file else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


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


class _FailingStdout:
    """A stdout whose every write fails with one errno, over a file
    descriptor of its own."""

    def __init__(self, code: int, fd: int):
        self.code, self.fd = code, fd

    def write(self, text: str) -> int:
        raise OSError(self.code, os.strerror(self.code))

    def flush(self) -> None:
        pass

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("code", [errno.EPIPE, errno.ENOSPC], ids=errno.errorcode.get)
@pytest.mark.parametrize(
    "args",
    [
        ["render", "--scheme", "carpet", "--depth", "2"],
        ["dynamics", "--scheme", "cantor", "--depth", "3", "--horizon", "8"],
        ["verify", "--scheme", "carpet", "--depth", "2"],
        ["separation", "--scheme", "cantor", "--depth", "3"],
        ["scheme", "list"],
    ],
    ids=lambda args: args[0],
)
def test_failed_stdout_write_exits_6(code, args, tmp_path, monkeypatch, capsys):
    # one error line, and the descriptor now points at devnull, so what
    # stays buffered cannot fail again at exit
    with open(tmp_path / "stdout", "wb") as fh:
        monkeypatch.setattr(sys, "stdout", _FailingStdout(code, fh.fileno()))
        assert run(args) == 6
        monkeypatch.undo()
        os.write(fh.fileno(), b"after")
    assert capsys.readouterr().err == f"error: cannot write stdout: {os.strerror(code)}\n"
    assert (tmp_path / "stdout").read_bytes() == b""


def test_closed_pipe_exits_6_without_a_trace():
    proc = subprocess.Popen(
        [sys.executable, "-m", "porofractal.cli", "render", "--scheme", "carpet", "--depth", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=src_env(),
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 6
    assert head == b"<?xml vers"
    assert err.decode() == "error: cannot write stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_full_device_exits_6_without_a_trace():
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "porofractal.cli", "verify", "--scheme", "carpet", "--depth", "2"],
            stdout=full,
            stderr=subprocess.PIPE,
            env=src_env(),
        )
    assert proc.returncode == 6
    assert proc.stderr.decode() == "error: cannot write stdout: No space left on device\n"


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
