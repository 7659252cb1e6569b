import argparse
import errno
import json
import os
import re
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from porofractal import render
from porofractal.cli import main
from porofractal.dynamics import ChaosWitnessReport
from porofractal.codespace import Address
from porofractal.config import DEFAULT_TOLERANCES
from porofractal.errors import OutsideAttractorError
from porofractal.scheme import BUILTIN_NAMES, build_tree, builtin, dumps, load, to_document
from porofractal.verifier import VerificationReport, full_verify

from conftest import (
    VERIFY_INPUTS,
    WITNESS_INPUTS,
    overlapping_complement_carpet,
    report_json_oracle,
    shrunk_complement_carpet,
    similarity_conjugate,
    similarity_map,
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


@pytest.mark.parametrize("scheme,mode,code", [("cantor", "forall-exists", 0), ("carpet", "pairwise", 1)])
def test_separation_out_writes_the_printed_line(scheme, mode, code, tmp_path, capsys):
    # the file holds the line stdout gets, without its newline, as a
    # report file holds the report; the exit code does not change
    args = ["separation", "--scheme", scheme, "--depth", "2", "--mode", mode]
    assert run(args) == code
    printed = capsys.readouterr().out
    out = tmp_path / "separation.txt"
    assert run([*args, "--out", str(out)]) == code
    assert capsys.readouterr().out == "" and out.read_text() + "\n" == printed


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


@pytest.mark.parametrize(
    "argv",
    [
        ["scheme", "list"],
        ["verify", "--scheme", "koch", "--depth", "4"],
        ["separation", "--scheme", "koch", "--depth", "4"],
        ["dynamics", "--scheme", "koch", "--depth", "4", "--out", "{out}"],
        ["render", "--scheme", "koch", "--depth", "4", "--subfractal", "12", "--out", "{out}"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_leaves_numpy_ma_unimported(argv, tmp_path):
    # numpy.ma costs about 12 ms of import, and np.unique and its like
    # import it on first use; no CLI command, each run in a fresh
    # interpreter, may pull it in (an area accumulation check and the
    # render's per-level gather once did)
    argv = [a.format(out=tmp_path / "out") for a in argv]
    code = (
        "import sys\n"
        "from porofractal.cli import main\n"
        f"status = main({argv!r})\n"
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


def _altered(name: str, where: tuple, value: float) -> dict:
    # the built-in's document with one coefficient set: ("base", vertex,
    # axis), or (map, "linear", row, column) or (map, "translation", axis)
    doc = to_document(builtin(name))
    *path, last = where
    node = doc["base"] if path[0] == "base" else doc["maps"][path[0]]
    for key in path[1:]:
        node = node[key]
    node[last] = value
    return doc


def _run_altered(doc: dict, args: list, tmp_path) -> tuple[int, str]:
    # one CLI run on the document: its exit code and what it wrote to --out
    path, out = tmp_path / "scheme.json", tmp_path / "out.txt"
    path.write_text(json.dumps(doc))
    out.unlink(missing_ok=True)
    code = run([args[0], "--scheme", str(path), "--depth", str(args[1]), "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


@pytest.mark.parametrize(
    "name,where,value,args",
    [
        ("carpet", (0, "linear", 0, 0), 1e308, ["verify", 3]),
        ("carpet", (0, "linear", 0, 0), 1e200, ["separation", 3]),
        ("carpet", (0, "linear", 0, 0), 1e308, ["separation", 3]),
        ("carpet", (0, "translation", 0), 1e308, ["verify", 3]),
        ("cantor", ("base", 1, 0), 1e308, ["render", 2]),
    ],
)
def test_overflowing_schemes_exit_3(name, where, value, args, tmp_path, capsys):
    # coordinates past the overflow bound are refused as a malformed scheme:
    # no crash (exit 7), no verdict read from infinities, no Infinity or NaN
    code, text = _run_altered(_altered(name, where, value), args, tmp_path)
    out, err = capsys.readouterr()
    assert code == 3 and err.startswith("malformed scheme:") and "1e75" in err
    assert "Traceback" not in err and not re.search(r"\b(-?inf|nan|Infinity|NaN)\b", out + text)


def test_render_refuses_an_empty_view_box(tmp_path, capsys):
    # a point base has a zero-size view box
    doc = _altered("cantor", ("base", 1, 0), 0.0)
    doc["base"] = doc["base"][:1]
    assert _run_altered(doc, ["render", 2], tmp_path) == (3, "")
    assert "view box" in capsys.readouterr().err


_COEFFICIENTS = st.one_of(
    st.tuples(st.just("base"), st.integers(0, 1), st.integers(0, 1)),
    st.tuples(st.integers(0, 1), st.just("linear"), st.integers(0, 1), st.integers(0, 1)),
    st.tuples(st.integers(0, 1), st.just("translation"), st.integers(0, 1)),
)
# extreme finite magnitudes of either sign: subnormal, large but below the
# overflow bound 1e75, at and just past it, and up to the largest float
_EXTREMES = st.builds(
    lambda sign, v: sign * v,
    st.sampled_from([1.0, -1.0]),
    st.one_of(st.floats(5e-324, 1e-300), st.floats(1e20, 1e75), st.sampled_from([1e75, 3e75]), st.floats(1e75, 1.7976931348623157e308)),
)


def _near_parallel_rows(name: str, j: int, r: int, eps: float) -> dict:
    # row r of map j's linear part set to the other row plus eps times
    # itself, so its determinant is eps times the old one
    doc = to_document(builtin(name))
    linear = doc["maps"][j]["linear"]
    linear[r] = [a + eps * b for a, b in zip(linear[1 - r], linear[r])]
    return doc


def _near_collinear_vertex(name: str, i: int, t: float, eps: float) -> dict:
    # base vertex i moved to eps times the edge length off the line through
    # its two neighbours, at parameter t along them, on its own side
    doc = to_document(builtin(name))
    v = np.array(doc["base"])
    a, b = v[i - 1], v[(i + 1) % len(v)]
    normal = np.array([a[1] - b[1], b[0] - a[0]])
    doc["base"][i] = (a + t * (b - a) + np.sign(normal @ (v[i] - a)) * eps * normal).tolist()
    return doc


def _perturbed(name: str, seed: int) -> dict:
    # every coefficient times 1 + u, with u uniform in [-1e-6, 1e-6]
    rng = np.random.default_rng(seed)
    doc = to_document(builtin(name))

    def nudge(c: list) -> list:
        return (np.array(c) * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, np.shape(c)))).tolist()

    doc["base"] = nudge(doc["base"])
    for mp in doc["maps"]:
        mp["linear"], mp["translation"] = nudge(mp["linear"]), nudge(mp["translation"])
    return doc


_TINY = st.floats(-14.0, -6.0).map(lambda e: 10.0**e)
# a built-in with one coefficient at an extreme magnitude, one child map
# nearly singular, its base nearly degenerate (cantor's segment has no third
# vertex), or every coefficient perturbed
_DOCUMENTS = st.one_of(
    st.builds(_altered, st.sampled_from(BUILTIN_NAMES), _COEFFICIENTS, _EXTREMES),
    st.builds(_near_parallel_rows, st.sampled_from(BUILTIN_NAMES), st.integers(0, 2), st.integers(0, 1), _TINY),
    st.builds(_near_collinear_vertex, st.sampled_from(["carpet", "pascal3", "koch"]), st.integers(0, 2), st.floats(0.1, 0.9), _TINY),
    st.builds(_perturbed, st.sampled_from(BUILTIN_NAMES), st.integers(0, 2**32 - 1)),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    doc=_DOCUMENTS,
    args=st.tuples(st.sampled_from(["verify", "separation", "render", "dynamics"]), st.integers(2, 3)).map(list),
)
def test_extreme_coefficients_never_crash_or_print_nonfinite_values(doc, args, tmp_path, capsys):
    # the run gives a verdict (0 or 1), or refuses the scheme (3) or its
    # dynamics prerequisite (4), and prints no non-finite number
    code, text = _run_altered(doc, args, tmp_path)
    out, err = capsys.readouterr()
    assert code in (0, 1, 3, 4) and "Traceback" not in err, err
    assert not re.search(r"\b(-?inf|nan|Infinity|NaN)\b", out + text)


def test_a_ratio_that_is_not_finite_reads_null(tmp_path, capsys):
    # koch's second child translated by (1e17, 0): its cells' complements
    # round to measure 0, so those ratios are inf; the report fails the
    # ratio check and names them, and writes JSON null where a number cannot be
    doc = _altered("koch", (1, "translation", 0), 1e17)
    doc["maps"][1]["translation"][1] = 0.0
    code, text = _run_altered(doc, ["verify", 3], tmp_path)
    ratio = json.loads(text)["conditions"][0]
    assert code == 1 and ratio["status"] == "fail" and ratio["witnesses"]
    assert ratio["extremal"]["observed_R"] is None and [d["max"] for d in ratio["extremal"]["per_depth"]] == [1.0, None, None]
    assert not re.search(r"\b(-?inf|nan|Infinity|NaN)\b", text)


def test_unexpected_exception_exits_7(monkeypatch, capsys):
    import porofractal.cli as cli

    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "build_tree", crash)
    assert run(["verify", "--scheme", "carpet", "--depth", "2"]) == 7
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: boom") and "Traceback" not in err


_TOLERANCE_FLAGS = {
    "verify": {"--tol-geom", "--tol-area", "--tol-sep", "--lambda-max", "--tol-ratio"},
    "separation": {"--tol-sep"},
    "dynamics": {"--tol-geom", "--tol-sep"},
    "render": set(),
}


def test_tolerance_flags_default_to_config(capsys):
    # each command takes a flag for exactly the tolerances it reads, and
    # refuses the others as a usage error; with no flag given, every field
    # keeps the config default
    from porofractal.cli import _tolerances, build_parser

    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    every = set.union(*_TOLERANCE_FLAGS.values())
    for command, flags in _TOLERANCE_FLAGS.items():
        options = {s for a in commands[command]._actions for s in a.option_strings}
        assert options & every == flags, command
        for flag in sorted(every - flags):
            with pytest.raises(SystemExit) as exc:
                run([command, "--scheme", "carpet", "--depth", "2", flag, "1e-3"])
            assert exc.value.code == 2 and f"unrecognized arguments: {flag}" in capsys.readouterr().err
        args = build_parser().parse_args([command, "--scheme", "carpet", "--depth", "2"])
        assert _tolerances(args) == DEFAULT_TOLERANCES


@pytest.mark.parametrize(
    "scheme,depth,option,message",
    [
        ("carpet", 2, ["--expect-ratio", "nan"], "expected ratio nan is not finite"),
        ("carpet", 2, ["--expect-ratio", "inf"], "expected ratio inf is not finite"),
        ("gap", 3, ["--tol-geom", "inf"], "tolerance geom must be finite and positive"),
        ("carpet", 2, ["--lambda-max", "1"], "tolerance lambda_max must be below 1"),
    ],
    ids=["nan-ratio", "inf-ratio", "inf-geom", "unit-lambda"],
)
def test_values_that_make_a_check_vacuous_exit_2(scheme, depth, option, message, tmp_path, capsys):
    # a NaN expected ratio fails no ratio, an infinite one or an infinite
    # geometric tolerance prints Infinity, and the last passes the gap
    # carpet's failing adjacency; a decay factor of 1 is no decay
    if scheme == "gap":
        scheme = tmp_path / "gap.json"
        scheme.write_text(dumps(shrunk_complement_carpet()))
        assert run(["verify", "--scheme", str(scheme), "--depth", str(depth)]) == 1
        capsys.readouterr()
    assert run(["verify", "--scheme", str(scheme), "--depth", str(depth), *option]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_tol_ratio_reaches_report(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--scheme", "koch", "--depth", "3", "--tol-ratio", "1e-6", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tolerances"]["ratio"] == 1e-6
