"""The four benchmark workloads: their inputs, their ops and the checks on
each op's output.

An op is one call into porofractal's public API (or, for cli-cold, one
whole CLI subprocess).  `run` returns the op's output; `check` compares it
with the reference recorded in refs.json and returns an error message, or
None when the output is correct.  Outputs of fixed inputs are compared by
sha256 digest; the seeded conjugates of sweep-shallow are compared by
invariance against the unconjugated reference; word composition and the
inverse shift are compared against an independent route with a tolerance.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from porofractal import builtin
from porofractal.geometry import AffineMap2, apply, compose

HERE = Path(__file__).resolve().parent

EXPECTED_RATIO = {"carpet": 8.0, "pascal3": 2.0, "koch": 2.0, "cantor": 2.0}
# absolute slack on composed vertices and realized points; the two routes
# associate the same products differently, so they agree to rounding only
COORD_TOL = 1e-12
# invariance of by_depth separations under a similarity of ratio `scale`
SEP_REL_TOL = 1e-9
SEP_ABS_TOL = 1e-12
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    id: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], str | None]
    ref_key: str | None = None
    # output -> the value stored under ref_key when references are recorded
    record: Callable[[Any], Any] | None = None


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _digest_check(out, ref) -> str | None:
    got = sha256(out)
    return None if got == ref else f"sha256 {got[:12]} != reference {str(ref)[:12]}"


def digest_op(op_id: str, run: Callable[[], str | bytes]) -> Op:
    return Op(op_id, run, _digest_check, op_id, sha256)


# ---------------------------------------------------------------------------
# verify-deep


VERIFY_DEEP = {"full": [("carpet", 4), ("koch", 12)], "min": [("carpet", 2), ("koch", 4)]}


def _verify_json(s, depth: int, ratio: float) -> str:
    from porofractal import build_tree
    from porofractal.verifier import full_verify

    return full_verify(build_tree(s, depth), expected_ratio=ratio).to_json()


def verify_deep(size: str) -> list[Op]:
    ops = []
    for name, depth in VERIFY_DEEP[size]:
        s = builtin(name)
        ops.append(digest_op(f"verify-deep/{name}-d{depth}", lambda s=s, d=depth: _verify_json(s, d, EXPECTED_RATIO[s.name])))
    return ops


# ---------------------------------------------------------------------------
# sweep-shallow


SWEEP_DEPTHS = {
    "full": {"carpet": 3, "pascal3": 3, "koch": 9, "cantor": 9},
    "min": {"carpet": 2, "pascal3": 2, "koch": 4, "cantor": 4},
}
CONJUGATES_PER_SCHEME = 2
# Cantor runs unconjugated: its cells are collinear segments, and in a
# rotated frame the crossing test of the segment distance reads rounding
# noise in the cross products as a crossing, so the pairwise separation of
# about one random rotation in ten drops to 0.  The rotated-cantor probe
# below measures that defect.
CONJUGATED = ("carpet", "pascal3", "koch")
# Translations stay within [-SHIFT, SHIFT]^2.  check_ratio compares ratios
# with an absolute tolerance (1e-9), while the shoelace areas of small cells
# far from the origin lose digits as (distance / cell size)^2; at SHIFT = 3
# about one koch d9 conjugate in 25 fails the ratio check by rounding alone.
# That defect is measured by the far-frame probe below, not by the batch.
SHIFT = 0.5


def gap_carpet():
    """Carpet whose center square is shrunk by 0.9 about its center: the
    kept squares no longer touch the complement, so adjacency fails."""
    s = builtin("carpet")
    shrunk = AffineMap2(np.eye(2) * 0.3, np.array([0.35, 0.35]))
    return dataclasses.replace(s, name="carpet-gap", child_maps=s.child_maps[:8] + (shrunk,))


def overlap_carpet():
    """Carpet whose complement map lands on the first kept square, so
    complement cells of different orders share interior."""
    s = builtin("carpet")
    moved = AffineMap2(np.eye(2) / 3.0, np.zeros(2))
    return dataclasses.replace(s, name="carpet-overlap", child_maps=s.child_maps[:8] + (moved,))


def conjugate(s, angle: float, scale: float, shift: np.ndarray, name: str):
    """g o w o g^-1 for every child map w, with the base moved by g."""
    c, sn = math.cos(angle), math.sin(angle)
    g = AffineMap2(scale * np.array([[c, -sn], [sn, c]]), shift)
    g_inv = g.inverse()
    return dataclasses.replace(
        s,
        name=name,
        base=apply(g, s.base),
        child_maps=tuple(compose(g, compose(w, g_inv)) for w in s.child_maps),
    )


def random_conjugates(seed: int) -> list[tuple[Any, str, float]]:
    """(conjugated scheme, built-in name, similarity ratio), from the seed only."""
    rng = np.random.default_rng(seed % (1 << 64))
    out = []
    for name in CONJUGATED:
        for k in range(CONJUGATES_PER_SCHEME):
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            scale = float(math.exp(rng.uniform(math.log(0.25), math.log(4.0))))
            shift = rng.uniform(-SHIFT, SHIFT, size=2)
            out.append((conjugate(builtin(name), angle, scale, shift, f"{name}-conj{k}"), name, scale))
    return out


def verdict(report_json: str) -> dict:
    """Condition statuses and separations by depth of a report."""
    doc = json.loads(report_json)
    return {
        "overall": doc["overall"],
        "statuses": [f"{c['condition']}:{c['extremal'].get('mode', '')}:{c['status']}" for c in doc["conditions"]],
        "by_depth": {
            c["extremal"]["mode"]: c["extremal"]["by_depth"] for c in doc["conditions"] if c["condition"] == "separation"
        },
    }


def _invariance_check(scale: float) -> Callable[[str, dict], str | None]:
    def check(out: str, ref: dict) -> str | None:
        got = verdict(out)
        if got["overall"] != ref["overall"] or got["statuses"] != ref["statuses"]:
            return f"statuses {got['statuses']} differ from the unconjugated {ref['statuses']}"
        for mode, values in ref["by_depth"].items():
            seen = got["by_depth"][mode]
            if len(seen) != len(values):
                return f"{mode} by_depth has {len(seen)} depths, reference {len(values)}"
            for v, r in zip(seen, values):
                if abs(v - scale * r) > SEP_REL_TOL * scale * abs(r) + SEP_ABS_TOL * scale:
                    return f"{mode} separation {v!r} != {scale!r} x {r!r}"
        return None

    return check


def sweep_shallow(seed: int, size: str) -> list[Op]:
    depths = SWEEP_DEPTHS[size]
    ops = []
    for s, name, scale in random_conjugates(seed):
        d = depths[name]
        ops.append(
            Op(
                f"sweep-shallow/{s.name}-d{d}",
                lambda s=s, d=d, r=EXPECTED_RATIO[name]: _verify_json(s, d, r),
                _invariance_check(scale),
                f"sweep-shallow/{name}-d{d}",
            )
        )
    d = depths["cantor"]
    ops.append(digest_op(f"sweep-shallow/cantor-d{d}", lambda: _verify_json(builtin("cantor"), d, EXPECTED_RATIO["cantor"])))
    d = depths["carpet"]
    for s in (gap_carpet(), overlap_carpet()):
        ops.append(digest_op(f"sweep-shallow/{s.name}-d{d}", lambda s=s: _verify_json(s, d, 8.0)))
    return ops


def sweep_reference_ops(size: str) -> list[Op]:
    """The unconjugated built-ins whose verdicts the conjugates must reproduce."""
    ops = []
    for name in CONJUGATED:
        d = SWEEP_DEPTHS[size][name]
        key = f"sweep-shallow/{name}-d{d}"
        ops.append(Op(key, lambda n=name, d=d: _verify_json(builtin(n), d, EXPECTED_RATIO[n]), _invariance_check(1.0), key, verdict))
    return ops


# ---------------------------------------------------------------------------
# chaos-witness


CHAOS = {
    "full": ([("cantor", 8), ("koch", 8), ("pascal3", 4), ("carpet", 3)], 64),
    "min": ([("cantor", 3), ("koch", 3), ("pascal3", 2), ("carpet", 2)], 8),
}


def _chaos_json(s, n: int, horizon: int) -> str:
    from porofractal.dynamics import chaos_report

    return chaos_report(s, n, horizon).to_json()


def _separation_from_maps(s, n: int) -> str:
    from porofractal.ifs import from_scheme, separation_from_maps

    # the same search depth chaos_report uses for its separation estimate
    return repr(separation_from_maps(from_scheme(s), min(n, 4)))


def _words(s, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Depth-n kept cells three ways: the built tree, compose_word on every
    kept word, and iterate_attractor from the base."""
    from porofractal import build_tree
    from porofractal.codespace import enumerate_words
    from porofractal.ifs import SetApproximation, compose_word, from_scheme, iterate_attractor

    tree = build_tree(s, n)
    system = from_scheme(s)
    cells = np.stack([c.polygon.vertices for c in tree.kept_cells(n)])
    words = np.stack([compose_word(system, w).vertices for w in enumerate_words(s.m, n, M=s.m)])
    iterated = iterate_attractor(system, SetApproximation((s.base,), 0), n)
    return cells, words, np.stack([c.vertices for c in iterated.cells])


def _words_check(out, ref) -> str | None:
    cells, words, iterated = out
    for label, other in (("compose_word", words), ("iterate_attractor", iterated)):
        if other.shape != cells.shape:
            return f"{label} gave shape {other.shape}, the tree {cells.shape}"
        err = float(np.abs(other - cells).max())
        if err > COORD_TOL:
            return f"{label} differs from the tree cells by {err!r}"
    return None


def _inverse_shift_round_trip(s, n: int) -> tuple[list, np.ndarray]:
    """Invert the first branch at the periodic point of every depth-n word.

    The point is the centroid of the depth-D cell of w repeated; undoing its
    first map must give the centroid of the depth-(D-1) cell of the shifted
    code, and reapplying the branch map must return the point.
    """
    from porofractal import realize_point
    from porofractal.codespace import enumerate_words, periodic_code, shift
    from porofractal.dynamics import DEFAULT_REALIZE_DEPTH
    from porofractal.ifs import from_scheme, inverse_shift

    system = from_scheme(s)
    depth = max(n, DEFAULT_REALIZE_DEPTH)
    branches = []
    rows = []
    for w in enumerate_words(s.m, n, M=s.M):
        code = periodic_code(w)
        p, _ = realize_point(s, code, depth)
        q, branch = inverse_shift(system, p)
        r, _ = realize_point(s, shift(code), depth - 1)
        back = system.maps[branch - 1].transform_point(q)
        branches.append((w.symbols[0], branch))
        rows.append((q.x - r.x, q.y - r.y, back.x - p.x, back.y - p.y))
    return branches, np.array(rows)


def _inverse_shift_check(out, ref) -> str | None:
    branches, diffs = out
    wrong = [b for b in branches if b[0] != b[1]]
    if wrong:
        return f"{len(wrong)} points inverted through the wrong branch, first {wrong[0]}"
    err = float(np.abs(diffs).max())
    return None if err <= COORD_TOL else f"inverse shift round trip off by {err!r}"


def chaos_witness(size: str) -> list[Op]:
    cases, horizon = CHAOS[size]
    ops = []
    for name, n in cases:
        s = builtin(name)
        base = f"chaos-witness/{name}-n{n}"
        ops.append(digest_op(f"{base}/report-h{horizon}", lambda s=s, n=n: _chaos_json(s, n, horizon)))
        ops.append(digest_op(f"{base}/separation-from-maps", lambda s=s, n=n: _separation_from_maps(s, n)))
        ops.append(Op(f"{base}/words", lambda s=s, n=n: _words(s, n), _words_check))
        if name == "cantor":
            ops.append(Op(f"{base}/inverse-shift", lambda s=s, n=n: _inverse_shift_round_trip(s, n), _inverse_shift_check))
    return ops


# ---------------------------------------------------------------------------
# cli-cold


CLI = {
    "full": [
        ["scheme", "list"],
        ["render", "--scheme", "carpet", "--depth", "4", "--out", "{tmp}/carpet-d4.svg"],
        ["render", "--scheme", "pascal3", "--depth", "5", "--out", "{tmp}/pascal3-d5.svg"],
        ["render", "--scheme", "koch", "--depth", "12", "--subfractal", "12", "--out", "{tmp}/koch-d12-sub12.svg"],
        ["verify", "--scheme", "koch", "--depth", "10", "--expect-ratio", "2"],
        ["dynamics", "--scheme", "koch", "--depth", "8", "--horizon", "64", "--out", "{tmp}/koch-d8-h64.json"],
        ["separation", "--scheme", "pascal3", "--depth", "4", "--mode", "pairwise"],
    ],
    "min": [
        ["scheme", "list"],
        ["render", "--scheme", "carpet", "--depth", "2", "--out", "{tmp}/carpet-d2.svg"],
        ["render", "--scheme", "pascal3", "--depth", "2", "--out", "{tmp}/pascal3-d2.svg"],
        ["render", "--scheme", "koch", "--depth", "4", "--subfractal", "12", "--out", "{tmp}/koch-d4-sub12.svg"],
        ["verify", "--scheme", "koch", "--depth", "4", "--expect-ratio", "2"],
        ["dynamics", "--scheme", "koch", "--depth", "3", "--horizon", "8", "--out", "{tmp}/koch-d3-h8.json"],
        ["separation", "--scheme", "pascal3", "--depth", "2", "--mode", "pairwise"],
    ],
}


def cli_op_id(argv: list[str]) -> str:
    return "cli-cold/" + " ".join(a.replace("{tmp}/", "") for a in argv)


class CliRunner:
    """Runs one CLI invocation in a fresh interpreter.

    Untraced it is `python -m porofractal.cli ...`; traced it goes through
    cli_child.py, which installs the span wrappers first and leaves its span
    summary in a file for the worker to collect.
    """

    def __init__(self, env: dict, tmp: Path):
        self.env = env
        self.tmp = tmp
        self.traced = False
        self.summaries: list[tuple[list[str], dict]] = []

    def __call__(self, argv: list[str]) -> tuple[int, bytes, bytes | None]:
        args = [a.replace("{tmp}", str(self.tmp)) for a in argv]
        out_path = Path(args[args.index("--out") + 1]) if "--out" in args else None
        if self.traced:
            summary = self.tmp / "child-summary.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(summary), *args]
        else:
            cmd = [sys.executable, "-m", "porofractal.cli", *args]
        proc = subprocess.run(cmd, env=self.env, cwd=self.tmp, capture_output=True, timeout=CLI_TIMEOUT_S)
        if self.traced:
            self.summaries.append((argv, json.loads(summary.read_text())))
            summary.unlink()
        written = None
        if out_path is not None and out_path.exists():
            written = out_path.read_bytes()
            out_path.unlink()
        return proc.returncode, proc.stdout, written


def _cli_record(out) -> dict:
    code, stdout, written = out
    return {"exit": code, "stdout": sha256(stdout), "out": None if written is None else sha256(written)}


def _cli_check(out, ref) -> str | None:
    got = _cli_record(out)
    if got == ref:
        return None
    code, stdout, _ = out
    if got["exit"] != ref["exit"]:
        return f"exit {code}, reference {ref['exit']}"
    return f"output digests {got} != reference {ref}"


def cli_cold(size: str, runner: CliRunner) -> list[Op]:
    return [Op(cli_op_id(argv), lambda a=argv: runner(a), _cli_check, cli_op_id(argv), _cli_record) for argv in CLI[size]]


# ---------------------------------------------------------------------------
# known defects


def cantor_d10_cli_passes(runner: CliRunner) -> bool:
    """`verify --scheme cantor --depth 10` should exit 0 with a passing
    report; build_tree raises SingularMapError at depth 10 and the CLI
    exits 1 with a traceback."""
    code, stdout, _ = runner(["verify", "--scheme", "cantor", "--depth", "10"])
    try:
        return code == 0 and json.loads(stdout)["overall"] == "pass"
    except (ValueError, KeyError):
        return False


def far_frame_ratio_passes(runner: CliRunner) -> bool:
    """check_ratio on koch d9 moved by a similarity of ratio 1/4 and
    translation (3, 3) should pass as it does in the original frame; its
    absolute tolerance fails on rounding in the shoelace areas."""
    from porofractal import build_tree
    from porofractal.verifier import check_ratio

    s = conjugate(builtin("koch"), 0.0, 0.25, np.array([3.0, 3.0]), "koch-far")
    return check_ratio(build_tree(s, 9), expected=EXPECTED_RATIO["koch"]).passed


def rotated_cantor_separation_passes(runner: CliRunner) -> bool:
    """The pairwise separation of cantor d9 rotated by 0.02 rad should be
    3^-9 as in the original frame; the segment distance reads the collinear
    cells as crossing and the depth-4 separation drops to 0."""
    from porofractal import build_tree
    from porofractal.verifier import check_separation

    s = conjugate(builtin("cantor"), 0.02, 1.0, np.zeros(2), "cantor-rot")
    return check_separation(build_tree(s, 9), "pairwise").passed


# Run once per run of every workload, after the timed passes, so a fix shows
# as its per-layer count dropping from 1 to 0 without touching the ops.
DEFECT_PROBES = {
    "cli.verify_cantor_d10.failed": cantor_d10_cli_passes,
    "verifier.check_ratio.far_frame_failed": far_frame_ratio_passes,
    "verifier.separation_sweep.rotated_cantor_failed": rotated_cantor_separation_passes,
}


WORKLOADS = ("verify-deep", "sweep-shallow", "chaos-witness", "cli-cold")


def make_ops(workload: str, seed: int, size: str, runner: CliRunner | None) -> list[Op]:
    """The ops of one pass; only sweep-shallow's inputs depend on the seed."""
    if workload == "verify-deep":
        return verify_deep(size)
    if workload == "sweep-shallow":
        return sweep_shallow(seed, size)
    if workload == "chaos-witness":
        return chaos_witness(size)
    if workload == "cli-cold":
        return cli_cold(size, runner)
    raise ValueError(f"unknown workload {workload!r}")
