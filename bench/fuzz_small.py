"""fuzz-small: one `fuzz_claims` batch per job, on consecutive seeds.

Bounds are the default FuzzConfig ones (at most 6 switches, horizon 8), so
every signal is tiny and asymptotic cost does not matter: time goes to
Fraction compares, validation, report construction and random_signal.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from bsig import (
    CLAIMS,
    DelayParams,
    DetParams,
    FuzzConfig,
    GenConfig,
    SamplePolicy,
    and_,
    constant,
    derivative,
    didb_verify,
    difference_set,
    from_changes,
    fuzz_claims,
    left_limit,
    lit_verify,
    nidb_sample,
    nidb_verify,
    not_,
    random_signal,
    window,
)

from common import Job

TRIALS = {"full": 10, "probe": 40}  # trials per batch
BATCHES = {"full": 100, "probe": 1}
DEFAULTS = FuzzConfig()


def _draws(batch_seed: int, k: int):
    """Trial k's parameters and generator configs, drawn in the order
    fuzz_claims draws them: (p, det, input config, mode, second seed)."""
    c = DEFAULTS
    rng = Random(batch_seed * 1_000_003 + k)
    g, top = c.delay_granularity, int(c.max_delay * c.delay_granularity)

    def pair():
        a, b = Fraction(rng.randint(1, top), g), Fraction(rng.randint(1, top), g)
        return min(a, b), max(a, b)

    p = DelayParams(*pair(), *pair())
    det = DetParams(Fraction(rng.randint(1, top), g), Fraction(rng.randint(1, top), g))
    gi = GenConfig(c.horizon, c.max_switches, c.granularity, rng.randrange(2**32))
    mode = k % 4
    second = rng.randrange(2**32) if mode else None
    return p, det, gi, mode, second


def _input_breakpoints(batch_seed: int, trials: int) -> int:
    """Breakpoints of the batch's input signals: each trial's i, and its o
    when that is a second random signal rather than a buffer output."""
    c = DEFAULTS
    total = 0
    for k in range(trials):
        _, _, gi, mode, second = _draws(batch_seed, k)
        total += len(random_signal(gi).times)
        if mode == 3:
            total += len(random_signal(GenConfig(c.horizon, c.max_switches, c.granularity, second)).times)
    return total


def replay(tr, batch_seed: int, trials: int, report) -> None:
    """Re-run the batch's trials as separate public calls, each in a span.

    lit_verify c is not part of a batch; it is replayed on the same tiny
    triples to show the event-anchored checker's cost at this size.
    """
    c = DEFAULTS
    strict = 0
    for k in range(trials):
        p, det, gi, mode, second = _draws(batch_seed, k)
        i = tr.call("waveio.random_signal", random_signal, gi)
        tr.call("stepfn.from_changes", from_changes, list(zip(i.times, i.interval_values)))
        if mode == 0:
            o = constant(0)
        elif mode == 3:
            go = GenConfig(c.horizon, c.max_switches, c.granularity, second)
            o = tr.call("waveio.random_signal", random_signal, go)
        else:
            policy = SamplePolicy.random(second, c.delay_granularity)
            o = tr.call("buffer.nidb_sample.narrow", nidb_sample, i, p, policy)
        ra = tr.call("buffer.nidb_verify.a", nidb_verify, i, o, p, "a")
        tr.call("buffer.nidb_verify.b", nidb_verify, i, o, p, "b")
        lb = tr.call("litcmp.lit_verify.b", lit_verify, i, o, p, "b")
        tr.call("litcmp.lit_verify.c", lit_verify, i, o, p, "c")
        strict += lb.passed and not ra.passed
        for form in "abcd":
            tr.call(f"buffer.didb_verify.{form}", didb_verify, i, o, det, form)
        ni = tr.call("stepfn.pointwise", not_, i)
        for f, d in ((i, p.d_r_max), (ni, p.d_f_max)):
            lhs = tr.call("stepfn.window", window, "all", f, d, "co")
            prev = tr.call("stepfn.left_limit", left_limit, f)
            spikes = tr.call("stepfn.derivative", derivative, f)
            seen = tr.call("stepfn.window", window, "any", spikes, d, "oo")
            rhs = tr.call("stepfn.pointwise", and_, prev, tr.call("stepfn.pointwise", not_, seen))
            tr.call("stepfn.difference_set", difference_set, lhs, rhs)
    tr.replay_mismatch += strict != report.strictness_examples


def _check(trials: int, seed: int):
    def check(report):
        if report.config.trials != trials or report.config.seed != seed:
            return "report echoes another config"
        if report.refutations:
            return f"{len(report.refutations)} refutations, first: {report.refutations[0].detail}"
        short = {c: n for c, n in report.confirmations.items() if n != trials}
        if sorted(report.confirmations) != sorted(CLAIMS) or short:
            return f"confirmations short of {trials}: {short}"
        return None

    return check


def _fingerprint(report) -> str:
    conf = ",".join(f"{c}={n}" for c, n in sorted(report.confirmations.items()))
    return (f"F{report.config.seed}:{report.config.trials}|{conf}|"
            f"strict={report.strictness_examples}|refuted={len(report.refutations)}")


def build(seed: int, scale: str = "full", work_dir=None) -> list[Job]:
    trials = TRIALS[scale]
    jobs = []
    for b in range(BATCHES[scale]):
        batch_seed = seed * 1000 + b
        cfg = FuzzConfig(trials=trials, seed=batch_seed)
        jobs.append(Job(
            "litcmp.fuzz_claims",
            lambda cfg=cfg: fuzz_claims(cfg),
            _input_breakpoints(batch_seed, trials),
            _check(trials, batch_seed),
            _fingerprint,
            replay=lambda tr, r, s=batch_seed: replay(tr, s, trials, r),
            trials=trials,
        ))
    return jobs
