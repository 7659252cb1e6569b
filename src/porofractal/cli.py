"""Command-line entry point with CI-friendly exit codes.

Exit codes: 0 success or pass, 1 verification or witness failure, 2 usage
error, 3 malformed scheme (including a singular child map), 4 unmet
dynamics prerequisite, 5 any other library error, 6 the --out file could
not be written, 7 internal error (a bug).  File outputs are written
atomically (temp file, then rename) and are deterministic.  The tolerance
flags are the fields of config.Tolerances, with its defaults.

Scheme files given to `verify` are loaded with structural checks only, so
geometric defects surface as named condition failures (exit 1) instead of a
blanket "malformed" error; parse errors and structural violations such as
m >= M still exit 3.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

from . import dynamics, render, verifier
from .codespace import Address
from .config import DEFAULT_CAPS, Caps, Tolerances
from .errors import (
    CapExceededError,
    DepthOutOfRangeError,
    EmptyTreeError,
    FractalError,
    NoSeparationError,
    ParseError,
    SingularMapError,
    UnknownAddressError,
    ValidationError,
)
from .scheme import BUILTIN_NAMES, Scheme, build_tree, builtin, dumps, load

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_MALFORMED = 3
EXIT_PREREQUISITE = 4
EXIT_ERROR = 5
EXIT_OUTPUT = 6
EXIT_INTERNAL = 7


class _UsageError(Exception):
    pass


class _OutputError(Exception):
    pass


def _tolerances(args: argparse.Namespace) -> Tolerances:
    return Tolerances(**{f.name: getattr(args, f.name) for f in fields(Tolerances)})


def _caps(args: argparse.Namespace) -> Caps:
    if args.force_cap is not None:
        return Caps(cells=args.force_cap, words=args.force_cap, pairs=args.force_cap)
    return DEFAULT_CAPS


def _resolve_scheme(value: str, tol: Tolerances) -> Scheme:
    """Builtin name, or path to a scheme document (structural checks only)."""
    if value in BUILTIN_NAMES:
        return builtin(value)
    path = Path(value)
    if not path.is_file():
        raise _UsageError(f"unknown scheme {value!r}: not a built-in name or readable file")
    return load(path.read_text(encoding="utf-8"), check_geometry=False, tol=tol)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    path = Path(out)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise _OutputError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _add_common(p: argparse.ArgumentParser, depth_default: int | None = None) -> None:
    p.add_argument("--scheme", required=True, help="built-in name or scheme JSON path")
    p.add_argument("--depth", type=int, default=depth_default, required=depth_default is None)
    for f in fields(Tolerances):
        flag = "--lambda-max" if f.name == "lambda_max" else f"--tol-{f.name}"
        p.add_argument(flag, dest=f.name, type=float, default=f.default)
    p.add_argument("--force-cap", type=int, default=None, help="override all caps with this value")
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")


def _mode(args: argparse.Namespace) -> str:
    return args.mode.replace("-", "_")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="porofractal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_scheme = sub.add_parser("scheme", help="list built-in schemes or show one as JSON")
    scheme_sub = p_scheme.add_subparsers(dest="scheme_command", required=True)
    scheme_sub.add_parser("list")
    p_show = scheme_sub.add_parser("show")
    p_show.add_argument("name", choices=BUILTIN_NAMES)

    p_verify = sub.add_parser("verify", help="check all subdivision conditions on a scheme")
    _add_common(p_verify)
    p_verify.add_argument("--expect-ratio", type=float, default=None)
    p_verify.add_argument("--mode", choices=("pairwise", "forall-exists"), default="forall-exists")

    p_sep = sub.add_parser("separation", help="estimate the separation constant")
    _add_common(p_sep)
    p_sep.add_argument("--mode", choices=("pairwise", "forall-exists"), default="forall-exists")

    p_dyn = sub.add_parser("dynamics", help="generate finite-horizon chaos witnesses")
    _add_common(p_dyn)
    p_dyn.add_argument("--horizon", type=int, default=64)
    p_dyn.add_argument("--mode", choices=("pairwise", "forall-exists"), default="forall-exists")

    p_render = sub.add_parser("render", help="emit a construction stage as SVG")
    _add_common(p_render)
    p_render.add_argument("--subfractal", default=None, help="kept address prefix to highlight")
    return parser


def _cmd_scheme(args: argparse.Namespace) -> int:
    if args.scheme_command == "list":
        for name in BUILTIN_NAMES:
            print(name)
        return EXIT_OK
    print(dumps(builtin(args.name)))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    caps = _caps(args)
    s = _resolve_scheme(args.scheme, tol)
    tree = build_tree(s, args.depth, caps)
    report = verifier.full_verify(tree, tol, caps, expected_ratio=args.expect_ratio, separation_mode=_mode(args))
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.overall == "pass" else EXIT_FAIL


def _cmd_separation(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    caps = _caps(args)
    s = _resolve_scheme(args.scheme, tol)
    est = dynamics.estimate_separation(s, args.depth, _mode(args), tol, caps)
    print(f"{est.epsilon0!r} mode={args.mode} depth={est.depth} pair={est.word_a!s},{est.word_b!s}")
    return EXIT_OK if est.epsilon0 >= tol.sep else EXIT_FAIL


def _cmd_dynamics(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    caps = _caps(args)
    s = _resolve_scheme(args.scheme, tol)
    report = dynamics.chaos_report(s, args.depth, args.horizon, mode=_mode(args), tol=tol, caps=caps)
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.all_verified else EXIT_FAIL


def _cmd_render(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    caps = _caps(args)
    s = _resolve_scheme(args.scheme, tol)
    tree = build_tree(s, args.depth, caps)
    if args.subfractal is None:
        svg = render.render_construction(tree, args.depth)
    else:
        try:
            prefix = Address.parse(args.subfractal, s.m, s.M)
        except ValueError as exc:
            raise _UsageError(f"bad subfractal prefix {args.subfractal!r}: {exc}") from exc
        svg = render.render_subfractal(tree, prefix, args.depth)
    _emit(svg, args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "scheme": _cmd_scheme,
        "verify": _cmd_verify,
        "separation": _cmd_separation,
        "dynamics": _cmd_dynamics,
        "render": _cmd_render,
    }
    try:
        return handlers[args.command](args)
    except (_UsageError, UnknownAddressError, DepthOutOfRangeError, CapExceededError, EmptyTreeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ValidationError, SingularMapError) as exc:
        print(f"malformed scheme: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except NoSeparationError as exc:
        print(f"separation prerequisite failed: {exc}", file=sys.stderr)
        return EXIT_PREREQUISITE
    except FractalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except _OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except Exception as exc:
        # a bug, not a verdict: never exit 1, which means a condition failed
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
