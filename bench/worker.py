"""Run one pass of CLI ops in this fresh interpreter and report on stdout.

Reads ``{"src": ..., "ops": [argv, ...], "trace": bool}`` as JSON on stdin.
Each op calls ``greenfn.cli.main(argv)`` in this process, one after the
other (a closed loop with one client), with the op's stdout and stderr
captured.  Prints one JSON object: per-op latency, exit code, stdout digest
and last line, calibration times, the pass time (sum of op latencies), peak
RSS, and, when traced, the per-layer metrics of ``tracer.Tracer``.

Every pass runs in its own interpreter so that whatever the program keeps in
process memory is shared by the ops of one pass but never carried into the
next pass: each pass measures the same work.

Around each op, and every CALIB_PERIOD_S during it, ``calibrate`` times a
fixed loop that shares no code with greenfn, so the caller can tell how fast
the host ran while the op ran (see README.md, "Host speed").  The time spent
in the loop during an op is taken out of the op's latency.  Traced passes
sample only around ops, so the loop adds nothing to any span.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction


CALIB_PERIOD_S = 0.2


def calibrate():
    """Seconds taken by a fixed Fraction loop (about 5 ms on a 2-vCPU host),
    with the collector off so the program's heap cannot slow it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 1250):
            total += Fraction(1, i % 97 + 1)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def _run_op(main, argv, sample_during):
    out, err = io.StringIO(), io.StringIO()
    error = None
    during = []
    signal.signal(signal.SIGALRM, lambda *_: during.append(calibrate()))
    before = calibrate()
    t0 = time.perf_counter()
    if sample_during:
        signal.setitimer(signal.ITIMER_REAL, CALIB_PERIOD_S, CALIB_PERIOD_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects argv this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # one failed op must not end the pass
        rc = None
        error = traceback.format_exc(limit=3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - t0 - sum(during)
    after = calibrate()
    text = out.getvalue()
    lines = text.splitlines()
    return {
        "argv": argv,
        "seconds": seconds,
        "calib_s": [before, *during, after],
        "rc": rc,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "last_line": lines[-1] if lines else "",
        "stdout": text,
        "error": error or err.getvalue()[-500:] or None,
    }


def main():
    job = json.load(sys.stdin)
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    import greenfn.cli

    loaded = os.path.realpath(greenfn.cli.__file__)
    if not loaded.startswith(src + os.sep):
        raise SystemExit(f"greenfn was imported from {loaded}, not from {src}")

    tracer = None
    if job["trace"]:
        from tracer import Tracer  # beside this script, so on sys.path

        tracer = Tracer()
        tracer.install()

    ops = [_run_op(greenfn.cli.main, argv, tracer is None) for argv in job["ops"]]
    if not job.get("keep_stdout"):
        for op in ops:
            del op["stdout"]
    report = {
        "ops": ops,
        "pass_s": sum(op["seconds"] for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
