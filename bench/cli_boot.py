"""Traced cold CLI request: ``python3 bench/cli_boot.py <cl-entropy arguments>``.

Does what ``python -m clentropy.cli`` does, with the per-layer tracer
installed between the import and ``main``.  The environment names the
trace file (``CLENTROPY_BENCH_TRACE``) and the parent's ``perf_counter`` at
spawn (``CLENTROPY_BENCH_T0``; the clock is system-wide), so the trace
also records start-up: interpreter start plus ``import clentropy.cli``.
"""

import os
import sys
import time

import clentropy.cli

startup_s = time.perf_counter() - float(os.environ["CLENTROPY_BENCH_T0"])

import tracing  # noqa: E402  (after the timed import)

tracer = tracing.Tracer()
tracer.request = " ".join(sys.argv[1:])
tracing.install(tracer)
try:
    code = clentropy.cli.main(sys.argv[1:])
finally:
    tracer.dump(os.environ["CLENTROPY_BENCH_TRACE"], startup_s=startup_s)
sys.exit(code)
