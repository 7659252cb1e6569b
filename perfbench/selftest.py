"""Self-test of the benchmark harness.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Checks, at the smallest input sizes:
  1. every workload, traced and untraced, prints a well-formed result line
     carrying every metric of BENCHMARK.json, with no failed op;
  2. with every reference digest corrupted, every workload reports failed
     ops (fail fraction > 0) instead of aborting;
  3. in a directory holding only BENCHMARK.json and perfbench/, run.py exits
     non-zero without printing a result;
  4. expectations.json names the end-to-end metric and workload each
     per-layer metric should move, for every per-layer metric.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(root: Path, workload: str, trace: int, refs: Path | None = None) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "min"]
    if refs is not None:
        cmd += ["--refs", str(refs)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict:
    res = json.loads(lines[-1])
    if set(res) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(res)}")
    return res


def corrupted(refs: dict) -> dict:
    out = {}
    for key, ref in refs.items():
        if isinstance(ref, str):
            out[key] = "0" * len(ref)
        elif "exit" in ref:
            out[key] = {**ref, "exit": ref["exit"] + 1}
        else:
            out[key] = {**ref, "overall": "pass" if ref["overall"] == "fail" else "fail"}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    workloads = [w["name"] for w in spec["workloads"]]

    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for wl in workloads:
            code, lines = run(ROOT, wl, trace)
            try:
                res = result_of(lines)
            except (ValueError, IndexError) as exc:
                problems.append(f"{wl} trace {trace}: no result line (exit {code}): {exc}")
                continue
            if code != 0 or not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{wl} trace {trace}: exit {code}, {res['failed']}/{res['attempted']} failed")
            got = res["metrics"]
            if set(got) != set(want):
                problems.append(f"{wl} trace {trace}: metrics differ: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
            for name, m in got.items():
                value = m.get("value")
                if m.get("unit") != want.get(name) or not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{wl} trace {trace}: bad metric {name} {m}")
                elif trace == 0 and value <= 0:
                    problems.append(f"{wl}: end-to-end metric {name} is {value}")

    refs = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
        bad_refs = Path(tmp) / "refs.json"
        bad_refs.write_text(json.dumps(corrupted(refs)), encoding="utf-8")
        for wl in workloads:
            code, lines = run(ROOT, wl, 0, bad_refs)
            try:
                res = result_of(lines)
            except (ValueError, IndexError) as exc:
                problems.append(f"{wl} with corrupted references: no result line (exit {code}): {exc}")
                continue
            if res["failed"] == 0 or res["correct"]:
                problems.append(f"{wl} with corrupted references: fail fraction {res['failed']}/{res['attempted']}")

        bare = Path(tmp) / "bare"
        bare.mkdir()
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(bare, workloads[0], 0)
        if code == 0 or any(ln.startswith("{") for ln in lines):
            problems.append(f"without src/ run.py exited {code} with output {lines[-1:]}")

    expectations = json.loads((HERE / "expectations.json").read_text(encoding="utf-8"))["per_layer"]
    e2e = {m["name"] for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        exp = expectations.get(m["name"])
        if exp is None:
            problems.append(f"expectations.json has no entry for {m['name']}")
            continue
        for metric, workload in exp["moves"]:
            if metric not in e2e or workload not in workloads:
                problems.append(f"expectations.json: {m['name']} moves unknown {metric} on {workload}")

    for p in problems:
        print(p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
