"""Traced-run extras: the size sweep with its scaling slopes, and the CLI
cold-start probe."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

from bsig import (
    DelayParams,
    DetParams,
    and_,
    check_stability,
    didb_simulate,
    didb_verify,
    from_changes,
    indicator,
    nidb_verify,
    not_,
    one_set,
    window,
)

import long_trace
import reference as ref
from spans import breakpoints

SWEEP_SIZES = tuple(100 * 2**k for k in range(7))  # 100 .. 6400 input breakpoints
CALL_CAP_S = 1.0  # an op's sweep stops after the first call slower than this
SHORT_CALL_S = 0.05  # calls faster than this are timed best of three
COLD_STARTS = 5


def _sweep_ops():
    det, band = DetParams(*long_trace.DET), DelayParams(*long_trace.NARROW)
    # name -> (prepare(i, o_det, o_band) -> args, call(*args)); pair ops see both signals
    return {
        "stepfn.window": (lambda i, o, s: (i,), lambda i: window("all", i, 1)),
        "stepfn.indicator": (lambda i, o, s: (one_set(not_(i)),), indicator),
        "stepfn.pointwise": (lambda i, o, s: (i, o), and_),
        "buffer.didb_simulate": (lambda i, o, s: (i,), lambda i: didb_simulate(i, det)),
        "buffer.didb_verify.all": (lambda i, o, s: (i, o), lambda i, o: didb_verify(i, o, det, "all")),
        "buffer.nidb_verify.a": (lambda i, o, s: (i, s), lambda i, o: nidb_verify(i, o, band, "a")),
        "buffer.nidb_verify.b": (lambda i, o, s: (i, s), lambda i, o: nidb_verify(i, o, band, "b")),
        "buffer.check_stability": (lambda i, o, s: (i, o), lambda i, o: check_stability(i, o, band)),
    }


def _time_call(fn, args) -> float:
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
        if best >= SHORT_CALL_S:
            break
    return best


def slope(points) -> float:
    """Least-squares slope of log(seconds) against log(breakpoints)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def sweep(seed: int):
    """Per op: {"slope", "max_bp", "points"} over doubling input sizes.

    Inputs come from the long-trace generator with the ROADMAP item 1
    baseline gaps (k/4, k uniform in 1..12), paired with their simulated and
    eager-sampled outputs; breakpoints count every input signal of the call.
    """
    inputs = []
    for n in SWEEP_SIZES:
        ch = long_trace.gen_changes(Random(seed * 1_000_003 + n), n, "mixed", coprime=False)
        o = from_changes(ref.simulate(ch, *long_trace.DET))
        s = from_changes(ref.sample(ch, long_trace.NARROW, lazy=False))
        inputs.append((from_changes(ch), o, s))
    out = {}
    for name, (prepare, fn) in _sweep_ops().items():
        points = []
        for i, o, s in inputs:
            args = prepare(i, o, s)
            bp = sum(breakpoints(a) for a in args)
            t = _time_call(fn, args)
            points.append((bp, t))
            if t > CALL_CAP_S:
                break
        out[name] = {"slope": slope(points), "max_bp": points[-1][0], "points": points}
    return out


def cold_start_ms(root: Path, src: Path, work_dir: Path) -> tuple[float, list[float]]:
    """Median wall time of `python -m bsig derive` on a tiny file, one
    process at a time; raises if a run fails or prints the wrong points."""
    path = work_dir / "cold.bsig"
    path.write_text("# bsig 1\n1/3 1\n2 0\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    samples = []
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "bsig", "derive", "--kind", "D", "--in", str(path)],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )
        samples.append((time.perf_counter() - t0) * 1000)
        if proc.returncode != 0 or proc.stdout.split() != ["1/3", "2"]:
            raise RuntimeError(f"cold start failed: exit {proc.returncode}: {proc.stderr.strip()}")
    return statistics.median(samples), samples
