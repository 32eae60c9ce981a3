"""long-trace: one checker, simulator or sampler call per job, on waveforms
of a few hundred breakpoints.

The pool is 14 job kinds x 8 variants. A variant fixes three input
properties that cost depends on, so every seed gets the same mix:
density (sparse gaps longer than every delay, so the output tracks the input;
dense gaps of at most 3/2, so most pulses are swallowed), denominators (k/4
against a random pick of 3/5/7/11/13, whose lcm is 15015) and conformance
(a simulated or sampled output, or one planted violation whose first witness
is known). Sizes climb a geometric ladder of 8 rungs per density, each kind
meeting every rung once, so job costs spread smoothly and the latency
quantiles do not sit in a gap between two sizes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from random import Random

from bsig import (
    DelayParams,
    DetParams,
    SamplePolicy,
    and_,
    any_over_offsets,
    check_inertia,
    check_stability,
    didb_simulate,
    didb_verify,
    from_changes,
    indicator,
    left_limit,
    lit_verify,
    nidb_sample,
    nidb_verify,
    not_,
    one_set,
    semi_derivatives,
    violation_set,
    window,
)

import reference as ref
from common import Job, changes_of, expect_changes, expect_verdict, report_fp, signal_fp

DET = (Fraction(1), Fraction(2))
NARROW = (Fraction(1), Fraction(2), Fraction(1), Fraction(2))
WIDE = (Fraction(1), Fraction(16), Fraction(1), Fraction(16))
WIDE_GRANULARITY = 16
COPRIME = (3, 5, 7, 11, 13)
SHIFT = Fraction(1, 2)  # planted early switch; below every minimum delay

KINDS = (
    "buffer.didb_simulate",
    "buffer.nidb_sample.narrow",
    "buffer.nidb_sample.wide",
    "buffer.didb_verify.a",
    "buffer.didb_verify.b",
    "buffer.didb_verify.c",
    "buffer.didb_verify.d",
    "buffer.didb_verify.all",
    "buffer.nidb_verify.a",
    "buffer.nidb_verify.b",
    "litcmp.lit_verify.b",
    "litcmp.lit_verify.c",
    "buffer.check_stability",
    "buffer.check_inertia",
)

# input breakpoints per job: {scale: {dense: (smallest rung, largest rung)}}
SIZES = {"full": {False: (64, 160), True: (128, 320)}, "probe": {False: (32, 32), True: (48, 48)}}


# gap bounds in time units: sparse gaps outlast every narrow-band delay, dense
# ones mostly fall below them; mixed is the ROADMAP item 1 baseline (k/4, k <= 12)
GAPS = {"sparse": (Fraction(5, 2), Fraction(6)), "dense": (0, Fraction(3, 2)), "mixed": (0, Fraction(3))}


def gen_changes(rng: Random, n: int, density: str, coprime: bool):
    lo, hi = GAPS[density]
    t, out = Fraction(0), []
    for k in range(n):
        q = rng.choice(COPRIME) if coprime else 4
        t += Fraction(rng.randint(max(1, math.ceil(lo * q)), math.floor(hi * q)), q)
        out.append((t, 1 - k % 2))
    return out


def _plant_early(rng: Random, o_changes):
    """Move one output switch SHIFT earlier. Every switch sits at least the
    minimum delay after its input run starts, so the moved one is the first
    switch made before its window filled; returns (output, planted time)."""
    if not o_changes:
        return o_changes, None
    k = rng.randrange(len(o_changes))
    t, b = o_changes[k]
    out = list(o_changes)
    out[k] = (t - SHIFT, b)
    return out, t - SHIFT


def _plant_glitch(rng: Random, i_changes, o_changes):
    """Insert a short output pulse into an input run after the output has
    come to agree with it; returns (output, time of the pulse)."""
    spots = []
    for start, end, v in ref.runs(i_changes):
        if end is None:
            continue
        if ref.value_at(o_changes, start) == v:
            spots.append((start, end))
            continue
        k = bisect_right(o_changes, (start, 2))
        if k < len(o_changes) and o_changes[k][0] < end:
            spots.append((o_changes[k][0], end))
    agree, end = spots[rng.randrange(len(spots))]
    g1, g2 = agree + (end - agree) / 2, agree + 3 * (end - agree) / 4
    v = ref.value_at(o_changes, agree)
    return sorted(o_changes + [(g1, 1 - v), (g2, v)]), g1


def replay(tr, i, o, windows, lit_c_band=None):
    """The public kernel calls a checker is built from, timed one by one:
    its held-input windows ((signal, delay) pairs, signal 1 for i and 0 for
    not i), left_limit and semi_derivatives of o, an enable and its
    violation set; lit_verify c adds any_over_offsets. one_set and indicator
    of the input's 0-set are the pieces a window is built from.

    An estimate of the kernel's share from outside: the checkers make more
    such calls than this replays, and on their own intermediate signals.
    """
    ni = tr.call("stepfn.pointwise", not_, i)
    held = [tr.call("stepfn.window", window, "all", i if bit else ni, d) for bit, d in windows]
    tr.call("stepfn.indicator", indicator, tr.call("stepfn.one_set", one_set, ni))
    prev = tr.call("stepfn.left_limit", left_limit, o)
    tr.call("stepfn.semi_derivatives", semi_derivatives, o)
    enable = tr.call("stepfn.pointwise", and_, tr.call("stepfn.pointwise", not_, prev), held[0])
    tr.call("stepfn.violation_set", violation_set, enable, o)
    if lit_c_band is not None:
        _, fall_i = tr.call("stepfn.semi_derivatives", semi_derivatives, i)
        tr.call("stepfn.any_over_offsets", any_over_offsets, fall_i, 0, lit_c_band[1], False, False)


def _windows(band):
    """The held-input windows a checker of this band builds, as (1, d) for
    i and (0, d) for not i, one per distinct delay, max-rise first."""
    r_lo, r_hi, f_lo, f_hi = band
    return sorted({(1, r_lo), (1, r_hi), (0, f_lo), (0, f_hi)}, reverse=True)


def _job(kind: str, rng: Random, ch, planted: bool) -> Job:
    i = from_changes(ch)
    n = len(ch)
    det, narrow = DetParams(*DET), DelayParams(*NARROW)
    det_windows = _windows((DET[0], DET[0], DET[1], DET[1]))

    def job(call, check, fingerprint, windows, o=None, lit_c=False):
        """o is the pair's output; for simulators and samplers, the result."""
        return Job(
            kind, call, n + (len(o.times) if o is not None else 0), check, fingerprint,
            replay=lambda tr, r: replay(tr, i, r if o is None else o, windows, NARROW if lit_c else None),
        )

    if kind == "buffer.didb_simulate":
        want = ref.simulate(ch, *DET)
        return job(lambda: didb_simulate(i, det), lambda o: expect_changes(o, want), signal_fp, det_windows)
    if kind == "buffer.nidb_sample.narrow":
        policy = SamplePolicy.lazy() if planted else SamplePolicy.eager()
        want = ref.sample(ch, NARROW, lazy=planted)
        return job(lambda: nidb_sample(i, narrow, policy), lambda o: expect_changes(o, want), signal_fp,
                   _windows(NARROW))
    if kind == "buffer.nidb_sample.wide":
        wide = DelayParams(*WIDE)
        policy = SamplePolicy.random(rng.randrange(2**32), WIDE_GRANULARITY)
        return job(lambda: nidb_sample(i, wide, policy),
                   lambda o: ref.admissible(ch, changes_of(o), WIDE, WIDE_GRANULARITY), signal_fp,
                   _windows(WIDE))
    if kind == "buffer.check_inertia":
        o = from_changes(ref.simulate(ch, *DET))
        inertia = job(lambda: check_inertia(i, det), lambda r: expect_verdict(r, None), report_fp, det_windows, o)
        inertia.bp = n  # o is replayed, but the checker simulates it itself: not an input
        return inertia
    if kind.startswith("buffer.didb_verify.") or kind == "buffer.check_stability":
        o_ch, first = ref.simulate(ch, *DET), None
        if planted and kind == "buffer.check_stability":
            o_ch, first = _plant_glitch(rng, ch, o_ch)
        elif planted:
            o_ch, first = _plant_early(rng, o_ch)
        o = from_changes(o_ch)
        check = lambda r: expect_verdict(r, first)  # noqa: E731
        if kind == "buffer.check_stability":
            return job(lambda: check_stability(i, o, narrow), check, report_fp, det_windows, o)
        form = kind.rsplit(".", 1)[1]
        return job(lambda: didb_verify(i, o, det, form), check, report_fp, det_windows, o)
    # banded-buffer and event-anchored checkers: an eager sampled output
    o_ch, first = ref.sample(ch, NARROW, lazy=False), None
    if planted:
        o_ch, first = _plant_early(rng, o_ch)
    o = from_changes(o_ch)
    form = kind.rsplit(".", 1)[1]
    if kind.startswith("buffer.nidb_verify."):
        return job(lambda: nidb_verify(i, o, narrow, form), lambda r: expect_verdict(r, first), report_fp,
                   _windows(NARROW), o)
    if form == "b":
        return job(lambda: lit_verify(i, o, narrow, "b"), lambda r: expect_verdict(r, first), report_fp,
                   _windows(NARROW), o)
    unanswered = ref.lit_c_violations(ch, o_ch, NARROW)

    def check_c(r):
        got = sorted(v.witness.lo for v in r.violations)
        return None if got == unanswered else f"5.1c: unanswered edges {got[:3]} differ from the reference's {unanswered[:3]}"

    return job(lambda: lit_verify(i, o, narrow, "c"), check_c, report_fp, _windows(NARROW), o, lit_c=True)


def build(seed: int, scale: str = "full", work_dir=None) -> list[Job]:
    jobs = []
    for v in range(8) if scale == "full" else [None]:
        for k, kind in enumerate(KINDS):
            rng = Random(seed * 1_000_003 + len(jobs))
            bits = k if v is None else v
            dense, coprime, planted = bool(bits & 1), bool(bits & 2), bool(bits & 4)
            lo, hi = SIZES[scale][dense]
            n = round(lo * (hi / lo) ** (((bits + 3 * k) % 8) / 7))
            jobs.append(_job(kind, rng, gen_changes(rng, n, "dense" if dense else "sparse", coprime), planted))
    return jobs
