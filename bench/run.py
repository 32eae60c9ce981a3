"""bsig benchmark: one workload per run, closed loop, one client, one thread.

    python3 bench/run.py --workload long-trace --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the root of a checkout. The run imports bsig from ./src, builds
the workload's job pool from the seed, and times each job from outside in
whole passes over the pool until about --seconds have been measured (at
least one pass, so every pool job runs). Every result is checked, outside
the timed region, against references in this directory; a later pass must
repeat the first pass's result exactly.

Times are host seconds scaled to a reference speed by a calibration loop
run between jobs (see CAL_REF_S); latency quantiles are Harrell-Davis
estimates over each pool job's mean time.

--trace 0 prints the end-to-end metrics. --trace 1 makes the traced run
instead: one untraced and one traced pass over the pool, a probe, the size
sweep and the cold-start probe, and prints the per-layer metrics listed in
BENCHMARK.json. The last line of standard output is one JSON object with
keys correct, attempted, failed and metrics. A result file (with the Python
version, nproc and the seed) and, for traced runs, the spans go to
bench/_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = {"long-trace": "long_trace", "fuzz-small": "fuzz_small", "waveform-io": "waveform_io"}
SETUP_CHILDREN = 4  # extra set-ups in fresh processes; setup_s is the median of these and our own
# The host's speed drifts by up to 2x over tens of seconds (other tenants share
# the cores), so every timed interval is scaled by CAL_REF_S / (the time the
# calibration loop takes around it). CAL_REF_S is that loop's time on an
# unloaded core of the machine the benchmark was defined on (2 vCPUs,
# Python 3.11.7); raw host times go to the result file as well.
CAL_REF_S = 0.0021


def calibrate() -> float:
    """Time a fixed pure-Python loop (Fraction sums, tuples, a sort), the
    same kind of work bsig does; it never calls bsig."""
    t0 = time.perf_counter()
    s, xs = Fraction(0), []
    for k in range(1, 800):
        s += Fraction(k % 7 + 1, k % 13 + 1)
        xs.append((s, k))
    xs.sort(reverse=True)
    return time.perf_counter() - t0


def parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else {}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.get("run_seconds", 20))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv), spec


def setup(workload: str, seed: int, work_dir: str):
    """import bsig, then build the pool: the work setup_s measures, scaled
    by the calibration loop timed right after it."""
    t0 = time.perf_counter()
    bsig = importlib.import_module("bsig")
    module = importlib.import_module(WORKLOADS[workload])
    jobs = module.build(seed, "full", work_dir)
    elapsed = time.perf_counter() - t0
    elapsed *= CAL_REF_S / statistics.median(calibrate() for _ in range(5))
    origin = Path(bsig.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: imported bsig from {origin}, not from {SRC}")
    return elapsed, jobs


def child_setups(args) -> list[float]:
    samples = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up in a fresh process failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def bytes_out(result) -> int:
    if isinstance(result, str):
        return len(result)
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], str):
        return len(result[1])  # (exit code, printed or written text) of a CLI job
    return 0


class Outcome:
    """Per-job results over all passes: durations, first-pass fingerprints,
    and the reason of every failure."""

    def __init__(self, jobs) -> None:
        self.jobs = jobs
        self.raw: list[float] = []  # host seconds, pass after pass
        self.durations: list[float] = []  # the same, scaled to the reference speed
        self.bp = 0
        self.fps: list[str] = []
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.raw)

    def record(self, index: int, seconds: float, raw, first_pass: bool):
        """Keep the timing, then check the result (untimed); returns it."""
        job = self.jobs[index]
        self.raw.append(seconds)
        self.bp += job.bp
        problem, result = None, raw
        try:
            if isinstance(raw, Exception):
                raise raw
            if job.collect is not None:
                result = job.collect(raw)
            fp = job.fingerprint(result)
            if first_pass:
                problem = job.check(result)
                self.fps.append(fp)
            elif fp != self.fps[index]:
                problem = "result differs from the first pass"
        except Exception as exc:  # a job that raises is a failed job; the run goes on
            problem = f"raised {type(exc).__name__}: {exc}"
            if first_pass:
                self.fps.append(f"E{type(exc).__name__}")
        if problem is not None:
            self.failures.append(f"job {index} {job.name}: {problem}")
        return result, problem is None

    def scale_pass(self, cals: list[float]) -> float:
        """Scale the last pass: job j ran between cals[j] and cals[j+1], and
        the median of the six calibrations nearest to it stands for the
        host's speed then. Returns the pass's scaled seconds."""
        raw = self.raw[len(self.durations):]
        scaled = [d * CAL_REF_S / statistics.median(cals[max(0, j - 2): j + 4]) for j, d in enumerate(raw)]
        self.durations += scaled
        return sum(scaled)

    def per_job(self) -> list[float]:
        """Each pool job's mean scaled duration over the passes."""
        n = len(self.jobs)
        passes = len(self.durations) // n
        return [statistics.fmean(self.durations[p * n + k] for p in range(passes)) for k in range(n)]


def run_pass(out: Outcome, first_pass: bool) -> float:
    """One pass over the pool, calibrating between jobs; returns host seconds."""
    total, cals = 0.0, [calibrate()]
    for index, job in enumerate(out.jobs):
        t0 = time.perf_counter()
        try:
            raw = job.call()
        except Exception as exc:  # recorded as a failure by Outcome.record
            raw = exc
        seconds = time.perf_counter() - t0
        cals.append(calibrate())
        total += seconds
        out.record(index, seconds, raw, first_pass)
    out.scale_pass(cals)
    return total


def traced_pass(out: Outcome, tr, first_pass: bool, job_prefix: str = "") -> float:
    """One pass with a span per job and, after each job, its replay; returns
    the jobs' time as seen from outside, span bookkeeping included, scaled
    like an untraced pass. Span times stay in host seconds."""
    cals = [calibrate()]
    for index, job in enumerate(out.jobs):
        tr.job = f"{job_prefix}{index}"
        t0 = time.perf_counter()
        span = tr.open(job.name)
        try:
            raw = job.call()
            ok = True
        except Exception as exc:  # recorded as a failure by Outcome.record
            raw, ok = exc, False
        tr.close(span, ok)
        seconds = time.perf_counter() - t0
        cals.append(calibrate())
        result, ok = out.record(index, seconds, raw, first_pass)
        span.ok = ok
        span.bp_in, span.trials, span.bytes_in = job.bp, job.trials, job.bytes_in
        span.bytes_out = bytes_out(result)
        span.strictness = getattr(result, "strictness_examples", 0)
        if ok and job.replay is not None:
            replay = tr.open("replay")
            try:
                job.replay(tr, result)
            except Exception as exc:  # the replay is an estimate; its failure fails the job
                out.failures.append(f"job {index} {job.name}: replay raised {exc!r}")
                replay.ok = False
            tr.close(replay, replay.ok)
    return out.scale_pass(cals)


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density. Job costs
    cluster by kind and size, and a plain order statistic jumps when a gap
    between clusters sits at the quantile; this estimate moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule inside each ((i-1)/n, i/n]
    total = weight_sum = 0.0
    for i, x in enumerate(xs):
        w = 0.0
        for k in range(steps):
            u = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
        total += w * x
        weight_sum += w
    return total / weight_sum


def end_to_end(out: Outcome, setup_samples) -> dict:
    busy = sum(out.durations)
    per_job = out.per_job()
    return {
        "jobs_per_s": out.attempted / busy,
        "bp_per_s": out.bp / busy,
        "job_p50_ms": hd_quantile(per_job, 0.5) * 1000,
        "job_p90_ms": hd_quantile(per_job, 0.9) * 1000,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (out.attempted - len(out.failures)) / out.attempted,
    }


def per_layer(names, spans, extras) -> tuple[dict, list[str]]:
    """Each per-layer metric from the workload's spans; one the workload
    never reaches comes from the probe's spans instead, and is listed."""
    work = [s for s in spans if s.source == "workload"]
    probe = [s for s in spans if s.source == "probe"]
    values, from_probe = {}, []
    for name in names:
        if name in extras:
            values[name] = extras[name]
            continue
        value = layer_value(name, work)
        if value is None:
            value = layer_value(name, probe)
            from_probe.append(name)
        if value is None:
            raise RuntimeError(f"no span measures per-layer metric {name}")
        values[name] = value
    return values, from_probe


def layer_value(name: str, spans):
    layer = name.split(".", 1)[0]
    in_layer = [s for s in spans if s.name.startswith(layer + ".")]
    if name == "litcmp.fuzz_claims.s_per_trial":
        fuzz = [s for s in spans if s.name == "litcmp.fuzz_claims"]
        return sum(s.self_s for s in fuzz) / sum(s.trials for s in fuzz) if fuzz else None
    if name == "litcmp.strictness_examples":
        fuzz = [s for s in spans if s.name == "litcmp.fuzz_claims"]
        return sum(s.strictness for s in fuzz) if fuzz else None
    if name == "trace.kernel_share_est":  # one_set and indicator are replayed as pieces of window
        kernel = sum(s.self_s for s in spans
                     if s.name.startswith("stepfn.") and s.name not in ("stepfn.one_set", "stepfn.indicator"))
        jobs = sum(s.end - s.start for s in spans if s.parent is None and s.name != "replay")
        return kernel / jobs if kernel and jobs else None
    if name.endswith(".s"):
        mine = [s.self_s for s in spans if s.name == name[:-2]]
        return statistics.fmean(mine) if mine else None
    stat = name.rsplit(".", 1)[1]
    if stat == "calls":
        return len(in_layer) or None
    if stat in ("bp_in", "bp_out"):
        return sum(getattr(s, stat) for s in in_layer) if in_layer else None
    if stat in ("bytes_in", "bytes_out"):  # text parsed or written by waveio, directly or via the CLI
        return sum(getattr(s, stat) for s in spans if s.name.startswith(("waveio.", "cli."))) or None
    raise RuntimeError(f"no rule computes per-layer metric {name}")


def traced_run(args, spec, jobs, work_dir: Path, record: dict):
    from spans import Tracer

    import extras

    out = Outcome(jobs)
    run_pass(out, first_pass=True)
    untraced = sum(out.durations)
    tr = Tracer()
    traced = traced_pass(out, tr, first_pass=False)
    # the probe: a tiny instance of every workload, for layers this one bypasses
    tr.source = "probe"
    probe_jobs = []
    for key, module in WORKLOADS.items():
        probe_dir = work_dir / f"probe-{key}"
        probe_dir.mkdir()
        probe_jobs += importlib.import_module(module).build(args.seed, "probe", probe_dir)
    probe = Outcome(probe_jobs)
    traced_pass(probe, tr, first_pass=True, job_prefix="probe-")
    swept = extras.sweep(args.seed)
    cold_ms, cold_samples = extras.cold_start_ms(ROOT, SRC, work_dir)
    extra = {"trace.overhead_ratio": untraced / traced, "cli.cold_start_ms": cold_ms}
    for op, fit in swept.items():
        extra[f"{op}.slope"], extra[f"{op}.max_bp"] = fit["slope"], fit["max_bp"]
    names = [m["name"] for m in spec["per_layer"]]
    values, from_probe = per_layer(names, tr.spans, extra)
    if tr.replay_mismatch:
        out.failures.append(f"{tr.replay_mismatch} fuzz replays disagree with their batch")
    record.update(
        sweep=swept, cold_start_ms=cold_samples, from_probe=from_probe, spans=len(tr.spans),
    )
    return out, probe, values, tr


def emit(args, spec, out: Outcome, attempted: int, failures: list[str], values: dict, record: dict):
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    digest = hashlib.sha256("\n".join(out.fps).encode()).hexdigest()
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    print(f"{args.workload} digest (seed {args.seed}) = {digest}")
    for reason in failures[:10]:
        print(f"FAILED {reason}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record.update(
        workload=args.workload, seed=args.seed, trace=args.trace, seconds=args.seconds,
        python=platform.python_version(), implementation=platform.python_implementation(),
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)), machine=platform.machine(),
        digest=digest, pool=len(out.jobs), failures=failures, result=result,
        choices=json.loads((HERE / "workloads.json").read_text())[args.workload],
    )
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    print(json.dumps(result))
    return stem


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    if not (SRC / "bsig" / "__init__.py").is_file():
        print(f"error: {SRC} holds no bsig sources; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    scratch = HERE / "_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        own_setup, jobs = setup(args.workload, args.seed, str(work_dir))
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        record: dict = {}
        if args.trace:
            out, probe, values, tr = traced_run(args, spec, jobs, work_dir, record)
            attempted = out.attempted + probe.attempted
            failures = out.failures + probe.failures
        else:
            out = Outcome(jobs)
            pass_s = [run_pass(out, first_pass=True)]
            for _ in range(max(1, round(args.seconds / pass_s[0])) - 1):
                pass_s.append(run_pass(out, first_pass=False))
            setup_samples = [own_setup] + child_setups(args)
            values = end_to_end(out, setup_samples)
            record.update(pass_seconds=pass_s, setup_samples=setup_samples, durations=out.durations,
                          host_durations=out.raw, host_jobs_per_s=out.attempted / sum(out.raw))
            attempted, failures = out.attempted, out.failures
        stem = emit(args, spec, out, attempted, failures, values, record)
        if args.trace:
            tr.write(HERE / "_results" / f"{stem}.spans.jsonl")
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
