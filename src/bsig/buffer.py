"""Inertial delay buffers with separate rise and fall delays.

A buffer couples an input signal i to an output signal o, both binary and
right-continuous. The output may rise at t only after the input has held 1
throughout a lookback window [t-d, t); falls are symmetric over held-0
windows. With a delay band (d_min, d_max) per edge the switch is forbidden
before the min window fills, optional while only windows between min and max
fill, and forced once the max window fills. The deterministic buffer is the
min = max special case, and its output is then unique.

Everything here is exact: verdicts come from deciding pointwise orderings of
step functions symbolically, never from sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, lcm
from random import Random
from typing import Callable, Optional, Union

from .stepfn import (
    ConstructionError,
    Interval,
    ParameterError,
    StepFn,
    _minkowski,
    and_,
    as_time,
    constant,
    derivative,
    difference_set,
    left_limit,
    not_,
    or_,
    pick_point,
    require_signal,
    right_continuous_runs,
    semi_derivatives,
    violation_set,
    xor,
)

__all__ = [
    "AutomatonState",
    "DelayParams",
    "DetParams",
    "Report",
    "SamplePolicy",
    "TraceEvent",
    "Violation",
    "automaton_trace",
    "check_inertia",
    "check_stability",
    "didb_simulate",
    "didb_verify",
    "nidb_sample",
    "nidb_verify",
]


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetParams:
    """Deterministic delay pair: exact rise delay d_r and fall delay d_f."""

    d_r: Fraction
    d_f: Fraction

    def __post_init__(self):
        object.__setattr__(self, "d_r", as_time(self.d_r))
        object.__setattr__(self, "d_f", as_time(self.d_f))
        if self.d_r <= 0 or self.d_f <= 0:
            raise ParameterError(f"delays must be positive, got ({self.d_r}, {self.d_f})")


@dataclass(frozen=True)
class DelayParams:
    """Delay bands: rise delay in [d_r_min, d_r_max], fall in [d_f_min, d_f_max]."""

    d_r_min: Fraction
    d_r_max: Fraction
    d_f_min: Fraction
    d_f_max: Fraction

    def __post_init__(self):
        for name in ("d_r_min", "d_r_max", "d_f_min", "d_f_max"):
            object.__setattr__(self, name, as_time(getattr(self, name)))
        if not (0 < self.d_r_min <= self.d_r_max):
            raise ParameterError(
                f"need 0 < d_r_min <= d_r_max, got ({self.d_r_min}, {self.d_r_max})"
            )
        if not (0 < self.d_f_min <= self.d_f_max):
            raise ParameterError(
                f"need 0 < d_f_min <= d_f_max, got ({self.d_f_min}, {self.d_f_max})"
            )

    def deterministic(self) -> bool:
        return self.d_r_min == self.d_r_max and self.d_f_min == self.d_f_max

    def det(self) -> DetParams:
        if not self.deterministic():
            raise ParameterError(f"{self} has non-degenerate delay bands")
        return DetParams(self.d_r_min, self.d_f_min)


def _det_params(p: Union[DetParams, DelayParams]) -> DetParams:
    if isinstance(p, DetParams):
        return p
    if isinstance(p, DelayParams):
        return p.det()
    raise ParameterError(f"expected delay parameters, got {p!r}")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One refuted clause instance: the bit values observed at the witness.

    The witness is a single time for pointwise clauses; checkers that search
    a whole window report the searched interval instead.
    """

    witness: Union[Fraction, Interval]
    lhs: int
    rhs: int
    clause: str


@dataclass(frozen=True)
class Report:
    """Verdict of one conformance condition; FAIL iff violations is nonempty."""

    condition: str
    verdict: str
    violations: tuple[Violation, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "violations", tuple(self.violations))
        if self.verdict not in ("PASS", "FAIL"):
            raise ConstructionError(f"bad verdict {self.verdict!r}")
        if (self.verdict == "FAIL") != bool(self.violations):
            raise ConstructionError("verdict FAIL iff violations nonempty")

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def _report(condition: str, violations: list[Violation]) -> Report:
    return Report(condition, "FAIL" if violations else "PASS", tuple(violations))


def _leq_clause(clause: str, lhs: StepFn, rhs: StepFn, scale: int) -> list[Violation]:
    """All maximal regions where lhs <= rhs fails on t >= 0, one entry each.
    lhs and rhs run on ticks of 1/scale; the witnesses are times."""
    return [
        Violation(pick_point(_unscaled(iv, scale)), 1, 0, clause)
        for iv in violation_set(lhs, rhs)
    ]


def _eq_clause(clause: str, lhs: StepFn, rhs: StepFn, scale: int) -> list[Violation]:
    out = []
    for iv in difference_set(lhs, rhs):
        w = pick_point(_unscaled(iv, scale))
        out.append(Violation(w, lhs.eval(w * scale), rhs.eval(w * scale), clause))
    return out


# ---------------------------------------------------------------------------
# Integer ticks
#
# The clauses only compare and add times. Scaled by the lcm L of every
# denominator in play, times become ints, which compare and add several
# times faster than Fraction. A violation region is mapped back to exact
# rationals before a witness is picked inside it, so reports never see a
# tick. The cost of a tick grows with L's size, Fraction's does not: on
# signals with one prime denominator per time, nidb_verify a on ticks ran
# 1.3-1.7x faster than on Fraction at an 11k-bit L and 0.6x as fast at 25k
# bits (2-vCPU Xeon, Python 3.11). Past _MAX_TICK_BITS L is 1 and the same
# clauses run on the Fraction times.
# ---------------------------------------------------------------------------

_MAX_TICK_BITS = 12_000


def _ticks(signals: tuple, delays: tuple) -> tuple[int, tuple, tuple]:
    """(L, signals, delays) with every time multiplied by L, or unchanged
    with L = 1 when L would have more than _MAX_TICK_BITS bits."""
    denominators = {t.denominator for f in signals for t in f.times}
    denominators.update(d.denominator for d in delays)
    scale = 1
    for q in denominators:
        scale = lcm(scale, q)
        if scale.bit_length() > _MAX_TICK_BITS:
            return 1, signals, delays
    step = {q: scale // q for q in denominators}
    return (
        scale,
        tuple(
            StepFn._of(
                f.before,
                tuple([t.numerator * step[t.denominator] for t in f.times]),
                f.point_values,
                f.interval_values,
            )
            for f in signals
        ),
        tuple(d.numerator * step[d.denominator] for d in delays),
    )


def _unscaled(iv: Interval, scale: int) -> Interval:
    """A region on ticks of 1/scale as an interval of exact times."""
    return Interval(
        None if iv.lo is None else Fraction(iv.lo, scale),
        iv.lo_closed,
        None if iv.hi is None else Fraction(iv.hi, scale),
        iv.hi_closed,
    )


def _rise_at(t) -> StepFn:
    """The signal that is 0 before t and 1 from t on."""
    return StepFn._of(0, (t,), (1,), (1,))


def _held(f: StepFn, d) -> StepFn:
    """window("all", f, d, "co") on a width that is already a valid time:
    1 at t iff f is 1 throughout [t-d, t)."""
    return not_(_minkowski(not_(f), -d, 0, True, False))


# ---------------------------------------------------------------------------
# Deterministic buffer
# ---------------------------------------------------------------------------


def _run_walk(i: StepFn, delay: Callable[[int], Fraction]) -> StepFn:
    """The buffer output for input signal i, one episode per input run.

    Walks the constant runs of i in order. Each run whose value disagrees
    with the current output opens an episode: delay(value) is the delay of
    that edge, and the output switches at run start + delay unless the run
    ends first, which cancels the pending switch. A run of length exactly
    the delay still switches: its held window [end - delay, end) is full.
    """
    times: list[Fraction] = []
    values: list[int] = []
    cur = 0
    for start, end, value in right_continuous_runs(i):
        if value == cur:
            continue
        d = delay(value)
        if end is None or d <= end - start:
            times.append(start + d)
            values.append(value)
            cur = value
    # each switch lands inside its own run, so times increase and every
    # breakpoint flips the value: the fields are already canonical
    return StepFn._of(0, tuple(times), tuple(values), tuple(values))


def didb_simulate(i: StepFn, p: Union[DetParams, DelayParams]) -> StepFn:
    """The unique output of the deterministic buffer for input i.

    o toggles exactly when its current value disagrees with a freshly filled
    held-input window, which happens d_r (d_f) after the start of an input
    1-run (0-run) that lasts at least that long.
    """
    p = _det_params(p)
    require_signal(i, "input")
    return _run_walk(i, lambda value: p.d_r if value else p.d_f)


def didb_verify(
    i: StepFn, o: StepFn, p: Union[DetParams, DelayParams], form: str = "all"
) -> Report:
    """Check an (i, o) pair against the deterministic buffer conditions.

    Forms a-d are four equivalent phrasings of the same behaviour (switch
    equations, derivative equation, implication form, tautology form); 'all'
    runs the four and insists their verdicts agree. Every form also requires
    o to be null before the rise delay.
    """
    p = _det_params(p)
    require_signal(i, "input")
    require_signal(o, "output")
    if form not in ("a", "b", "c", "d", "all"):
        raise ParameterError(f"unknown form {form!r}")

    scale, (i, o), (d_r, d_f) = _ticks((i, o), (p.d_r, p.d_f))
    prev = left_limit(o)
    wr, wf = _held(i, d_r), _held(not_(i), d_f)
    enables = and_(not_(prev), wr), and_(prev, wf)
    init = _leq_clause("init: output not null before rise delay", o, _rise_at(d_r), scale)
    if form != "all":
        return _report(
            f"4.3{form}", init + _didb_clauses(form, scale, o, prev, wr, wf, *enables)
        )

    clauses = [_didb_clauses(f, scale, o, prev, wr, wf, *enables) for f in "abcd"]
    reports = [_report(f"4.3{f}", init + c) for f, c in zip("abcd", clauses)]
    if len({r.verdict for r in reports}) != 1:
        raise RuntimeError(
            "equivalent deterministic-buffer forms disagree: "
            + ", ".join(f"{r.condition}={r.verdict}" for r in reports)
        )
    # the init clause is shared by all four forms: report its first region once
    return _report("4.3all", init[:1] + [v for c in clauses for v in c])


def _didb_clauses(
    form: str,
    scale: int,
    o: StepFn,
    prev: StepFn,
    wr: StepFn,
    wf: StepFn,
    enable_r: StepFn,
    enable_f: StepFn,
) -> list[Violation]:
    """Violations of one deterministic-buffer form, without the init clause,
    on ticks of 1/scale."""
    if form == "a":
        rise_o, fall_o = semi_derivatives(o)
        out = _eq_clause("4.3a.rise: o(t-0)'*o(t) = o(t-0)'*held1", rise_o, enable_r, scale)
        return out + _eq_clause(
            "4.3a.fall: o(t-0)*o(t)' = o(t-0)*held0", fall_o, enable_f, scale
        )
    if form == "b":
        return _eq_clause(
            "4.3b: Do = o(t-0)'*held1 + o(t-0)*held0",
            derivative(o),
            or_(enable_r, enable_f),
            scale,
        )
    if form == "c":
        out = _leq_clause("4.3c.rise: o(t-0)'*held1 <= o(t)", enable_r, o, scale)
        out += _leq_clause("4.3c.fall: o(t-0)*held0 <= o(t)'", enable_f, not_(o), scale)
        return out + _leq_clause(
            "4.3c.hold: neither enabled => o holds",
            and_(not_(enable_r), not_(enable_f)),
            or_(and_(not_(prev), not_(o)), and_(prev, o)),
            scale,
        )
    # form d: the four-way case split is exhaustive
    big = or_(
        or_(and_(and_(not_(prev), o), wr), and_(and_(prev, not_(o)), wf)),
        or_(
            and_(and_(not_(prev), not_(o)), not_(wr)),
            and_(and_(prev, o), not_(wf)),
        ),
    )
    return _eq_clause("4.3d: case split covers every t", big, constant(1), scale)


# ---------------------------------------------------------------------------
# Non-deterministic buffer
# ---------------------------------------------------------------------------


def nidb_verify(i: StepFn, o: StepFn, p: DelayParams, form: str = "a") -> Report:
    """Check an (i, o) pair against the banded-delay buffer conditions.

    Form a bounds the rise and fall semi-derivatives of o separately between
    the max-window (forcing) and min-window (permission) enables; form b
    states the same two-sided bound on the full derivative. The two forms are
    equivalent. Both also require o to be null before d_r_min.
    """
    if not isinstance(p, DelayParams):
        raise ParameterError(f"expected DelayParams, got {p!r}")
    if form not in ("a", "b"):
        raise ParameterError(f"unknown form {form!r}")
    require_signal(i, "input")
    require_signal(o, "output")
    return _nidb_check(i, o, p, form)


def _nidb_check(i: StepFn, o: StepFn, p: DelayParams, form: str) -> Report:
    """nidb_verify on arguments that are already checked."""
    scale, (i, o), (r_min, r_max, f_min, f_max) = _ticks(
        (i, o), (p.d_r_min, p.d_r_max, p.d_f_min, p.d_f_max)
    )
    prev = left_limit(o)
    not_prev, not_i = not_(prev), not_(i)
    rise_max = and_(not_prev, _held(i, r_max))
    rise_min = and_(not_prev, _held(i, r_min))
    fall_max = and_(prev, _held(not_i, f_max))
    fall_min = and_(prev, _held(not_i, f_min))

    violations = _leq_clause("init: output not null before d_r_min", o, _rise_at(r_min), scale)
    if form == "a":
        # the semi-derivatives of o, sharing its left limit
        rise_o, fall_o = and_(not_prev, o), and_(prev, not_(o))
        violations += _leq_clause(
            "4.1a.rise-lower: o(t-0)'*held1(max) <= o(t-0)'*o(t)", rise_max, rise_o, scale
        )
        violations += _leq_clause(
            "4.1a.rise-upper: o(t-0)'*o(t) <= o(t-0)'*held1(min)", rise_o, rise_min, scale
        )
        violations += _leq_clause(
            "4.1a.fall-lower: o(t-0)*held0(max) <= o(t-0)*o(t)'", fall_max, fall_o, scale
        )
        violations += _leq_clause(
            "4.1a.fall-upper: o(t-0)*o(t)' <= o(t-0)*held0(min)", fall_o, fall_min, scale
        )
        return _report("4.1a", violations)
    d_o = xor(prev, o)  # the derivative of o
    violations += _leq_clause(
        "4.1b.lower: max-window enables <= Do", or_(rise_max, fall_max), d_o, scale
    )
    violations += _leq_clause(
        "4.1b.upper: Do <= min-window enables", d_o, or_(rise_min, fall_min), scale
    )
    return _report("4.1b", violations)


# ---------------------------------------------------------------------------
# Sampling admissible outputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplePolicy:
    """How to pick each episode's delay inside [min, max].

    eager = always min, lazy = always max, random = uniform choice from the
    grid multiples of 1/granularity inside the band plus both endpoints.
    """

    kind: str
    seed: Optional[int] = None
    granularity: int = 16

    def __post_init__(self):
        if self.kind not in ("eager", "lazy", "random"):
            raise ParameterError(f"unknown sample policy {self.kind!r}")
        if self.kind == "random":
            if self.seed is None:
                raise ParameterError("random policy needs a seed")
            if self.granularity < 1:
                raise ParameterError(f"granularity must be >= 1, got {self.granularity}")

    @staticmethod
    def eager() -> "SamplePolicy":
        return SamplePolicy("eager")

    @staticmethod
    def lazy() -> "SamplePolicy":
        return SamplePolicy("lazy")

    @staticmethod
    def random(seed: int, granularity: int = 16) -> "SamplePolicy":
        return SamplePolicy("random", seed, granularity)


def _draw_delay(policy: SamplePolicy, rng: Optional[Random], lo: Fraction, hi: Fraction) -> Fraction:
    if policy.kind == "eager":
        return lo
    if policy.kind == "lazy":
        return hi
    # The candidates, in order: lo when off the grid, the grid points
    # ceil(lo*g)/g .. floor(hi*g)/g, then hi when off the grid and not lo.
    # rng.choice depends only on the length, so drawing an index draws the
    # same candidate as choosing from the enumerated list would.
    g = policy.granularity
    first, last = ceil(lo * g), floor(hi * g)
    n_grid = last - first + 1
    lo_extra = lo * g != first
    hi_extra = hi * g != last and hi != lo
    k = rng.choice(range(lo_extra + n_grid + hi_extra))
    if lo_extra:
        if k == 0:
            return lo
        k -= 1
    return Fraction(first + k, g) if k < n_grid else hi


def nidb_sample(i: StepFn, p: DelayParams, policy: SamplePolicy) -> StepFn:
    """One admissible output of the banded-delay buffer for input i.

    The same run walk as didb_simulate, with each episode's delay drawn from
    its band by the policy. Episodes whose run outlives the max delay always
    switch because the drawn delay never exceeds it.

    The result is checked against nidb_verify before being returned.
    """
    if not isinstance(p, DelayParams):
        raise ParameterError(f"expected DelayParams, got {p!r}")
    require_signal(i, "input")
    rng = Random(policy.seed) if policy.kind == "random" else None
    bands = {1: (p.d_r_min, p.d_r_max), 0: (p.d_f_min, p.d_f_max)}
    out = _run_walk(i, lambda value: _draw_delay(policy, rng, *bands[value]))
    report = _nidb_check(i, out, p, "a")
    if not report.passed:  # sampler bug, not a property of the input
        raise RuntimeError(f"sampled output failed conformance: {report}")
    return out


# ---------------------------------------------------------------------------
# State traces and consistency checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AutomatonState:
    """Joint (input, output) bit pair; stable iff the bits agree."""

    i_bit: int
    o_bit: int
    stable: bool = field(init=False)

    def __post_init__(self):
        if self.i_bit not in (0, 1) or self.o_bit not in (0, 1):
            raise ConstructionError(f"bad state bits ({self.i_bit}, {self.o_bit})")
        object.__setattr__(self, "stable", self.i_bit == self.o_bit)


@dataclass(frozen=True)
class TraceEvent:
    time: Fraction
    state: AutomatonState


def automaton_trace(i: StepFn, o: StepFn) -> list[TraceEvent]:
    """The joint state trajectory of a pair, one event per state change.

    The implicit starting state is (0, 0); an event at t = 0 appears only if
    the pair is already elsewhere at time 0.
    """
    require_signal(i, "input")
    require_signal(o, "output")
    # every switch flips its signal's bit, so every switch time is an event
    it, ot = i.times, o.times
    a = b = j = k = 0
    events: list[TraceEvent] = []
    while j < len(it) or k < len(ot):
        t = it[j] if k == len(ot) or (j < len(it) and it[j] <= ot[k]) else ot[k]
        if j < len(it) and it[j] == t:
            a, j = 1 - a, j + 1
        if k < len(ot) and ot[k] == t:
            b, k = 1 - b, k + 1
        events.append(TraceEvent(t, AutomatonState(a, b)))
    return events


def check_stability(i: StepFn, o: StepFn, p: DelayParams) -> Report:
    """No output switch while the pair sits in a stable state.

    On each maximal constant run of i, once o agrees with i the output must
    hold that value through the run, including at the run's right end: an
    output switch may lag an input switch but never coincide with the end of
    a stable stretch. Delay bounds do not enter the property; p is validated
    and otherwise unused.
    """
    if not isinstance(p, (DelayParams, DetParams)):
        raise ParameterError(f"expected delay parameters, got {p!r}")
    require_signal(i, "input")
    require_signal(o, "output")
    o_switches = o.times  # a signal's breakpoints are its switches
    n = len(o_switches)
    k = 0  # first switch of o after the current run's lo; lo never decreases
    violations: list[Violation] = []
    for start, end, value in right_continuous_runs(i):
        lo = Fraction(0) if start is None else max(start, Fraction(0))
        if end is not None and end <= lo:
            continue
        while k < n and o_switches[k] <= lo:
            k += 1
        # o flips at each switch: if it disagrees with the run at lo, it agrees
        # from its first switch after lo, provided that comes before end. The
        # next switch after the agreement leaves the stable state.
        if o.eval(lo) == value:
            nxt = k
        elif k < n and (end is None or o_switches[k] < end):
            nxt = k + 1
        else:
            continue
        if nxt < n and (end is None or o_switches[nxt] <= end):
            t = o_switches[nxt]
            violations.append(
                Violation(
                    t,
                    o.eval(t),
                    value,
                    f"3.4: output leaves stable state at {t} while input "
                    f"holds {value}",
                )
            )
    return _report("3.4", violations)


def check_inertia(i: StepFn, p: Union[DetParams, DelayParams]) -> Report:
    """Deterministic-buffer output switches are backed by long-enough runs.

    Simulates the buffer and checks every output rise sits at the far edge of
    an input 1-run of length >= d_r (falls symmetric over 0-runs); when every
    1-run is shorter than d_r the output must be constant 0.
    """
    p = _det_params(p)
    o_runs = right_continuous_runs(didb_simulate(i, p))[1:]  # didb_simulate checks i
    rises = [start for start, _, value in o_runs if value == 1]
    falls = [start for start, _, value in o_runs if value == 0]
    runs = right_continuous_runs(i)
    ones = [(start, end) for start, end, value in runs if value == 1]
    zeros = [(start, end) for start, end, value in runs if value == 0]
    violations: list[Violation] = []
    for t in _unbacked(rises, ones, p.d_r):
        violations.append(
            Violation(t, 1, 0, f"3.5.rise: rise at {t} without a held-1 run of length {p.d_r}")
        )
    for t in _unbacked(falls, zeros, p.d_f):
        violations.append(
            Violation(t, 1, 0, f"3.5.fall: fall at {t} without a held-0 run of length {p.d_f}")
        )
    all_short = all(end is not None and end - start < p.d_r for start, end in ones)
    if all_short and rises:  # the first switch of a signal is a rise
        t = rises[0]
        violations.append(
            Violation(t, 1, 0, f"3.5.null: every 1-run shorter than {p.d_r} yet output switches at {t}")
        )
    return _report("3.5", violations)


def _unbacked(edges: list[Fraction], runs: list[tuple], d: Fraction) -> list[Fraction]:
    """The sorted edge times t with no (start, end) run covering both t - d
    and t; None marks an unbounded end.

    The runs are sorted and disjoint, so the only run that can reach from
    before t up to t is the first one not ending before t: later runs start
    at or after its end. One pointer therefore serves every edge.
    """
    out = []
    k = 0
    for t in edges:
        while k < len(runs) and runs[k][1] is not None and runs[k][1] < t:
            k += 1
        if k == len(runs) or (runs[k][0] is not None and runs[k][0] > t - d):
            out.append(t)
    return out
