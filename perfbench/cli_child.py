"""Traced stand-in for `python -m porofractal.cli ARGS...`.

Usage: cli_child.py SUMMARY_PATH ARGS...

Times the import of porofractal.cli, installs the span wrappers, runs
`porofractal.cli.main(ARGS)` inside a span named after the command, writes
the span summary to SUMMARY_PATH and exits with main's exit code.
"""

import sys
import time


def run() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    t = time.perf_counter()
    import porofractal.cli

    import_s = time.perf_counter() - t

    import json

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    sid = tracer.open(f"cli.{argv[0]}")
    try:
        code = porofractal.cli.main(argv)
    finally:
        tracer.close(sid)
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(run())
