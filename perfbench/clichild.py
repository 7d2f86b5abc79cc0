"""Run one ecdkit CLI invocation with the benchmark's timing shims.

Usage: clichild.py TRACE_JSON ARG...  (ARG... as for ``python -m ecdkit.cli``)

The parent sets PERFBENCH_T0 to its ``time.monotonic()`` just before the
spawn, so start-up (interpreter plus ``import ecdkit.cli``) is measured on
the same clock, and PERFBENCH_ALLOC=1 to record allocation peaks. Spans
are written to TRACE_JSON once, at exit.
"""

import os
import sys
import time


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = float(os.environ["PERFBENCH_T0"])
    import ecdkit.cli

    startup = time.monotonic() - t0
    from shims import Tracer

    tracer = Tracer(alloc=os.environ.get("PERFBENCH_ALLOC") == "1")
    tracer.install()
    try:
        code = tracer.span("cli", "main", ecdkit.cli.main, argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    tracer.dump(trace_path, {"startup_s": startup})
    return code


if __name__ == "__main__":
    raise SystemExit(main())
