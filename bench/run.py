"""greenfn benchmark: CLI workloads, end-to-end metrics and a traced run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload levi-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` is the timed run.  It measures set-up (a fresh interpreter
until ``greenfn.cli`` is imported) several times, then runs whole passes of
the workload's ops, at least two, until ``--seconds`` of passes have been
measured.  Each pass runs in a fresh interpreter (see ``worker.py``) and
calls ``greenfn.cli.main(argv)`` for each op in turn: a closed loop with one
client.  The seed only permutes the order of the ops within each pass.
Times are reported in reference seconds, which take out the host's speed
swings (``CALIB_REF_S``); the wall-clock values are printed beside them.

``--trace 1`` is the traced run: one untraced pass and two traced passes in
the same order.  It reports per-layer counts and self times, the fresh
interpreter import time of ``greenfn.oracle``, and the tracing overhead.

Every op's output is checked (``expected.json``).  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the conditions and every metric by
name with its unit.  Without a greenfn source tree (``src/greenfn``) beside
this directory the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import signal
import subprocess
import sys
import time

from worker import calibrate

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# Why each workload exists is recorded in README.md beside this file.
def _levi_sweep():
    ops = []
    for n in (2, 3, 4):
        for mask in range(1 << (n - 1)):
            subset = [str(i) for i in range(n - 1) if mask >> i & 1]
            ops.append(["table", f"GL{n}"] + (["--levi", ",".join(subset)] if subset else []))
        ops.append(["verify", f"GL{n}"])
    return ops


WORKLOADS = {
    "levi-sweep": _levi_sweep(),
    "gl5-torus": [["table", "GL5"]],
    "oracle-gl3": [
        ["oracle-compare", "GL3", "--q", str(q)] + (["--levi", levi] if levi else [])
        for q in (2, 3)
        for levi in ("", "0", "1", "0,1")
    ],
}

SETUP_SAMPLES = 5
# Time metrics are given in reference seconds: wall seconds scaled by the
# host speed that worker.calibrate measures around them (README.md, "Host
# speed").  This is the calibration time that makes the two equal.
CALIB_REF_S = 0.005
PASS_TIMEOUT_S = 170
# At least two passes: with one, the median op of levi-sweep is the single
# cheapest GL4 op of that pass, and one op's timing decides op_s.p50.
MIN_PASSES = 2
WALL_BUDGET_S = 150  # no new pass starts if it would likely end past this


def op_key(argv):
    return " ".join(argv)


def load_expected():
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_pass(ops, trace=False, keep_stdout=False):
    """Run one pass in a fresh interpreter; return the worker's report."""
    job = {"src": SRC, "ops": ops, "trace": trace, "keep_stdout": keep_stdout}
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py")],
        input=json.dumps(job), capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S, cwd=ROOT, env=_env(),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass worker failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_s(seconds, calib_s):
    """``seconds`` measured while the calibration loop took ``calib_s``,
    scaled to a host on which it takes CALIB_REF_S."""
    return seconds * CALIB_REF_S / calib_s


def reference_pass_s(report):
    """A pass's time in reference seconds, op by op."""
    return sum(
        reference_s(op["seconds"], statistics.mean(op["calib_s"]))
        for op in report["ops"]
    )


def setup_samples(samples):
    """Wall and reference times of a fresh interpreter importing greenfn.cli,
    after one discarded warm-up run (which may compile bytecode)."""
    wall, ref = [], []
    for i in range(samples + 1):
        before = calibrate()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import greenfn.cli"], check=True,
            timeout=60, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
        )
        seconds = time.perf_counter() - t0
        if i:
            wall.append(seconds)
            ref.append(reference_s(seconds, (before + calibrate()) / 2))
    return wall, ref


def oracle_import_s(samples):
    """Import time of greenfn.oracle alone (sympy included), measured in
    fresh interpreters after the greenfn modules it imports are loaded."""
    code = (
        "import time, greenfn.characters, greenfn.cyclo, greenfn.qpoly, "
        "greenfn.springer\n"
        "t = time.perf_counter()\n"
        "import greenfn.oracle\n"
        "print(time.perf_counter() - t)\n"
    )
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, timeout=60, cwd=ROOT,
            env=_env(), capture_output=True, text=True,
        ).stdout
        times.append(float(out))
    return times


def check_op(op, expected):
    """None if the op's output is right, else the reason it is not."""
    exp = expected.get(op_key(op["argv"]))
    if exp is None:
        return "no expected output recorded"
    if op["rc"] != 0:
        return f"exit code {op['rc']}: {op['error']}"
    if "sha256" in exp:
        if op["sha256"] != exp["sha256"]:
            return "stdout differs from the recorded digest"
    elif op["last_line"] != exp["last_line"]:
        return f"last line {op['last_line']!r}, expected {exp['last_line']!r}"
    return None


def source_identity():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "greenfn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
        commit = proc.stdout.strip() or None
    return commit, digest.hexdigest()


def timed_run(ops, expected, seed, seconds):
    setup_wall, setup = setup_samples(SETUP_SAMPLES)
    rng = random.Random(seed)
    passes, measured, started = [], 0.0, time.perf_counter()
    while len(passes) < MIN_PASSES or measured < seconds:
        last = passes[-1]["pass_s"] if passes else 0.0
        if passes and time.perf_counter() - started + last > WALL_BUDGET_S:
            break
        order = list(ops)
        rng.shuffle(order)
        passes.append(run_pass(order))
        measured += passes[-1]["pass_s"]

    failures, items = [], 0
    all_ops = [op for p in passes for op in p["ops"]]
    for op in all_ops:
        reason = check_op(op, expected)
        if reason is None:
            items += expected[op_key(op["argv"])]["items"]
        else:
            failures.append(f"{op_key(op['argv'])}: {reason}")
    attempted, ok = len(all_ops), len(all_ops) - len(failures)
    latencies = [
        reference_s(op["seconds"], statistics.mean(op["calib_s"])) for op in all_ops
    ]
    metrics = {
        "items_per_s": (items / sum(latencies), "1/s"),
        "op_s.p50": (statistics.median(latencies), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "ops_ok_ratio": (ok / attempted, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
    }
    # Printed but not in BENCHMARK.json: see README.md.
    info = {"ops_failed_ratio": ((attempted - ok) / attempted, "ratio")}
    # a percentile is reported only with at least ten samples beyond it
    if len(latencies) >= 100:
        info["op_s.p90"] = (statistics.quantiles(latencies, n=10)[-1], "s")
    else:
        info["op_s.p90"] = ("omitted", f"({len(latencies)} samples, needs 100)")
    raw = [op["seconds"] for op in all_ops]
    info.update({
        "wall.items_per_s": (items / measured, "1/s"),
        "wall.op_s.p50": (statistics.median(raw), "s"),
        "wall.setup_s": (statistics.median(setup_wall), "s"),
        "host.calib_s": (statistics.mean(c for op in all_ops for c in op["calib_s"]), "s"),
    })
    samples = {
        "passes": len(passes), "measured_s": measured,
        "op_s.p50": len(latencies), "setup_s": len(setup),
    }
    return metrics, info, samples, attempted, attempted - ok, failures


def traced_run(ops, expected, seed):
    import_s = oracle_import_s(SETUP_SAMPLES)
    order = list(ops)
    random.Random(seed).shuffle(order)
    plain = run_pass(order)
    traced = [run_pass(order, trace=True) for _ in range(2)]

    failures = []
    all_ops = [op for p in [plain] + traced for op in p["ops"]]
    for op in all_ops:
        reason = check_op(op, expected)
        if reason is not None:
            failures.append(f"{op_key(op['argv'])}: {reason}")
    attempted, failed = len(all_ops), len(failures)
    digests = [op["sha256"] for op in plain["ops"]]
    for p in traced:
        if [op["sha256"] for op in p["ops"]] != digests:
            failures.append("traced stdout differs from untraced stdout")
    a, b = (p["layers"] for p in traced)
    counts = {k for k in a if not k.endswith("_s")}
    for k in sorted(counts):
        if a[k] != b[k]:
            failures.append(f"{k} differs between traced passes: {a[k]} != {b[k]}")

    metrics = {}
    for k in sorted(a):
        if k.endswith("_s"):
            metrics[k] = ((a[k] + b[k]) / 2, "s")
        else:
            metrics[k] = (a[k], "ratio" if k.endswith(("_ratio", "_share")) else "count")
    metrics["oracle.import_s"] = (statistics.median(import_s), "s")
    untraced_s = reference_pass_s(plain)
    traced_s = (reference_pass_s(traced[0]) + reference_pass_s(traced[1])) / 2
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    info = {
        "untraced_pass_s": (untraced_s, "s"),
        "traced_pass_s": (traced_s, "s"),
    }
    samples = {"passes": 3, "traced_passes": 2, "oracle.import_s": len(import_s)}
    return metrics, info, samples, attempted, failed, failures


def main(argv=None):
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # pass it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "greenfn", "cli.py")):
        print(f"error: no greenfn source tree at {SRC}", file=sys.stderr)
        return 2
    expected = load_expected()
    ops = WORKLOADS[args.workload]
    try:
        if args.trace:
            result = traced_run(ops, expected, args.seed)
        else:
            result = timed_run(ops, expected, args.seed, args.seconds)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, info, samples, attempted, failed, failures = result

    commit, source = source_identity()
    conditions = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "commit": commit, "source_sha256": source,
        "loop": "closed, 1 client, 1 thread", "samples": samples,
    }
    print("conditions " + json.dumps(conditions, sort_keys=True))
    for name, (value, unit) in list(metrics.items()) + list(info.items()):
        print(f"metric {name} {value} {unit}")
    for line in failures:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
