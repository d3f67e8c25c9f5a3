"""One CLI call, timed with its output captured, in this or a worker process.

``invoke`` is how the benchmark times an op. ``run.py`` calls it in-process
for traced runs. For timed runs it starts two workers of this module, one on
the program in ``src/`` and one on ``baseline/``, the frozen copy of the
program as it was when the benchmark was added, and sends both every op, so
that each op time can be divided by the baseline's time for the same inputs
in an identical process under the same machine load (see README.md).

Worker protocol: ``python3 worker.py DIR`` imports ``kenmotsu3`` from
``DIR``, reads one JSON argv list per line on stdin and answers each with one
JSON line: the fields of ``invoke`` plus ``maxrss_kb``, the worker's peak
resident set so far. It ends at the end of its input.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def invoke(main, argv: list[str]) -> dict:
    """Call ``main(argv)``; return its wall time, exit code and output."""
    stdout, stderr = io.StringIO(), io.StringIO()
    problem = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
    except Exception:  # an op that raises is reported as failed, not fatal
        rc, problem = None, traceback.format_exc(limit=3)
    return {"seconds": time.perf_counter() - start, "rc": rc,
            "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "problem": problem}


def serve(package_parent: Path) -> int:
    sys.path.insert(0, str(package_parent))
    import kenmotsu3.cli
    if Path(kenmotsu3.__file__).resolve().parent != package_parent / "kenmotsu3":
        raise SystemExit(f"kenmotsu3 imported from {kenmotsu3.__file__}")
    for line in sys.stdin:
        reply = invoke(kenmotsu3.cli.main, json.loads(line))
        reply["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(serve(Path(sys.argv[1]).resolve()))
