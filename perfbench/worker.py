"""Runs one workload's ops in this process and writes the measurements as JSON.

Started by run.py with BLAS threads pinned and PYTHONPATH set to the
checkout's src.  With --probe it only imports porofractal and generates the
inputs, and prints the time that took (one set-up sample).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_PASSES = 2  # untraced passes per run, so wall_s is a median of two or more
MAX_FAILURE_NOTES = 8


def probe(args) -> None:
    if args.workload == "cli-cold":
        import porofractal.cli  # noqa: F401
    else:
        import workloads

        workloads.make_ops(args.workload, args.seed, args.size, None)
    print(repr(time.perf_counter() - T0))


def environment() -> dict:
    import platform

    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": blas,
    }


class Pass:
    """Runs every op once, checks each output, and sums the op times."""

    def __init__(self, ops, refs):
        self.ops = ops
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.op_walls: dict[str, list[float]] = {op.id: [] for op in ops}

    def _fail(self, op, msg: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(f"{op.id}: {msg}")

    def run(self, tracer=None) -> float:
        wall = 0.0
        for op in self.ops:
            self.attempted += 1
            sid = tracer.open(f"op:{op.id}") if tracer else None
            t = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an op that raises counts as failed
                out = exc
            dt = time.perf_counter() - t
            wall += dt
            if tracer:
                tracer.close(sid)
            else:
                self.op_walls[op.id].append(dt)
            if isinstance(out, Exception):
                self._fail(op, "".join(traceback.format_exception_only(type(out), out)).strip())
                continue
            if op.ref_key is not None and op.ref_key not in self.refs:
                self._fail(op, f"no reference {op.ref_key!r}")
                continue
            msg = op.check(out, self.refs.get(op.ref_key))
            if msg is not None:
                self._fail(op, msg)
        return wall


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--refs")
    ap.add_argument("--layers", default="", help="comma-separated per-layer metric names")
    ap.add_argument("--result")
    args = ap.parse_args()
    if args.probe:
        probe(args)
        return 0

    src = Path(os.environ["PYTHONPATH"].split(os.pathsep)[0]).resolve()
    import_s = 0.0
    if args.trace:
        t = time.perf_counter()
        import porofractal.cli  # noqa: F401

        import_s = time.perf_counter() - t
    import porofractal

    if not Path(porofractal.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"porofractal imported from {porofractal.__file__}, not from {src}")

    import spans
    import workloads

    tmp = Path(args.tmp)
    env = dict(os.environ)
    runner = workloads.CliRunner(env, tmp)
    ops = workloads.make_ops(args.workload, args.seed, args.size, runner)
    refs = json.loads(Path(args.refs).read_text(encoding="utf-8"))
    p = Pass(ops, refs)

    plain: list[float] = []
    traced: list[float] = []
    layer_rows: list[dict] = []
    layer_names = [n for n in args.layers.split(",") if n]
    start = time.perf_counter()
    cycles = 0
    while True:
        plain.append(p.run())
        if args.trace:
            tracer = spans.Tracer()
            uninstall = spans.install(tracer)
            runner.traced = True
            try:
                traced.append(p.run(tracer))
            finally:
                uninstall()
                runner.traced = False
            summary = tracer.summary()
            del tracer
            children = runner.summaries
            totals = spans.merge([summary["totals"]] + [c["totals"] for _, c in children])
            stages = {root.removeprefix("op:"): row for root, row in summary["stages"].items()}
            for argv, c in children:
                stages[workloads.cli_op_id(argv)] = next(iter(c["stages"].values()), {})
            child_imports = [c["import_s"] for _, c in children]
            runner.summaries.clear()
            cli_import = statistics.median(child_imports) if child_imports else import_s
            layer_rows.append((totals, cli_import))
        cycles += 1
        elapsed = time.perf_counter() - start
        enough = cycles >= (1 if args.trace else MIN_PASSES)
        if enough and elapsed + elapsed / cycles > args.seconds:
            break

    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kb = rss_children if args.workload == "cli-cold" else rss_self

    defects = {}
    for name, passes in workloads.DEFECT_PROBES.items():
        try:
            defects[name] = 0 if passes(runner) else 1
        except Exception:  # a probe that raises shows the defect too
            defects[name] = 1

    result = {
        "attempted": p.attempted,
        "failed": p.failed,
        "notes": p.notes,
        "wall_plain": plain,
        "wall_traced": traced,
        "op_wall_plain": p.op_walls,
        "peak_rss_mb": peak_kb / 1024.0,
        "defects": {name: (fn.__doc__ or "").split(";")[0].strip() for name, fn in workloads.DEFECT_PROBES.items() if defects[name]},
        "env": environment(),
    }
    if args.trace:
        common = {
            "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
            **defects,
        }
        metrics = [
            spans.layer_metrics(layer_names, totals, {"cli.import_s": cli_import, **common})
            for totals, cli_import in layer_rows
        ]
        result["layers"] = {n: statistics.median(m[n] for m in metrics) for n in layer_names}
        result["stages"] = stages
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
