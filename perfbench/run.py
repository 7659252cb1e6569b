"""porofractal benchmark: one workload, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics from a traced pass (plus an untraced pass to
state the tracing overhead).  The last line of standard output is the
result object; lines before it starting with '#' record the environment,
failures, the known-defect probe and, when traced, each op's stage times.

--size min and --refs are for the harness self-test (selftest.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_BUDGET_S = 170.0  # every run must end within 180 s
SETUP_SAMPLES = 9  # fresh interpreters timed per run, after one warm-up
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _run(cmd: list[str], env: dict, timeout: float) -> str:
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(cmd[1]).name} exited with code {proc.returncode}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "min"), default="full")
    ap.add_argument("--refs", default=str(HERE / "refs.json"))
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (SRC / "porofractal" / "__init__.py").is_file():
        print(f"no porofractal sources under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in BLAS_VARS:
        env[var] = "1"
    per_layer = [m["name"] for m in spec["per_layer"]]
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size, "--tmp", str(tmp)]
    worker = [sys.executable, str(HERE / "worker.py"), *common]
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES + 1):
                remaining = RUN_BUDGET_S - (time.perf_counter() - started)
                setup.append(float(_run([*worker, "--probe"], env, remaining).strip()))
            setup = setup[1:]
        result_path = tmp / "result.json"
        cmd = [
            *worker,
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--refs", str(Path(args.refs).resolve()),
            "--layers", ",".join(per_layer),
            "--result", str(result_path),
        ]
        _run(cmd, env, RUN_BUDGET_S - (time.perf_counter() - started))
        res = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("# env " + json.dumps(res["env"], sort_keys=True))
    print("# pass wall_s " + json.dumps({"untraced": res["wall_plain"], "traced": res["wall_traced"]}))
    print("# op wall_s " + json.dumps(res["op_wall_plain"]))
    for note in res["notes"]:
        print(f"# failed: {note}")
    for name, what in res["defects"].items():
        print(f"# known defect ({name} = 1): " + " ".join(what.split()))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        for op, row in res["stages"].items():
            print(f"# stages {op} " + json.dumps({k: round(v, 6) for k, v in row.items()}))
        values = res["layers"]
    else:
        values = {
            "wall_s": statistics.median(res["wall_plain"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    names = per_layer if args.trace else [m["name"] for m in spec["end_to_end"]]
    out = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
