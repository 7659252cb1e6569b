"""Records the reference outputs the benchmark checks against into refs.json.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 perfbench/record_refs.py

Run it only at a commit whose outputs are the accepted reference: every
later run of the benchmark fails an op whose output differs from what this
writes.  Seeded conjugates are not recorded; they are checked against the
unconjugated built-ins recorded here.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    refs = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as tmp:
        env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
        runner = workloads.CliRunner(env, Path(tmp))
        for size in ("full", "min"):
            ops = workloads.sweep_reference_ops(size)
            for name in workloads.WORKLOADS:
                ops += workloads.make_ops(name, 0, size, runner)
            for op in ops:
                if op.record is None:
                    continue
                refs[op.ref_key] = op.record(op.run())
                print(op.ref_key, file=sys.stderr)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
