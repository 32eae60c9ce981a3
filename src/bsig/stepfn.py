"""Exact binary step functions on the rational line.

A StepFn is a function R -> {0,1} with finitely many breakpoints. The value
AT a breakpoint is independent from the value on the open interval after it,
which is what lets the same type hold right-continuous signals, their left
limits and their derivatives (spikes at isolated points). All times are
exact rationals; nothing in this module rounds.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

TimeLike = Union[Fraction, int, str]


class ConstructionError(ValueError):
    """Malformed step-function description (non-increasing times, bad bits)."""


class ParameterError(ValueError):
    """Out-of-range operation parameter (e.g. non-positive window width)."""


class DomainError(ValueError):
    """An operation needed a signal but got a general step function."""


# The interpreter's default limit on digits in int <-> str conversion. Literal
# exponents beyond it are refused before 10**exp is built, and so are times
# whose numerator or denominator could not be printed again.
_MAX_DIGITS = 4300
_TOO_MANY_DIGITS = 10**_MAX_DIGITS
_EXPONENT = re.compile(r"[eE][-+]?0*(\d*)$")


def as_time(value: TimeLike) -> Fraction:
    """Coerce to an exact rational time.

    Accepts Fraction, int, and strings 'p/q' or exact decimals like '0.75'
    or '1.5e3'. Floats are rejected: binary floats would silently break
    exactness. String literals with an exponent beyond 4300 in magnitude, or
    whose value has more than 4300 digits above or below the line, are
    rejected too.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ConstructionError(f"cannot interpret {value!r} as a time")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        exp = _EXPONENT.search(text)
        # five significant digits of the exponent already exceed the limit
        if exp and int(exp.group(1)[:5] or 0) > _MAX_DIGITS:
            raise ConstructionError(f"time literal {value!r}: exponent beyond {_MAX_DIGITS}")
        try:
            t = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConstructionError(f"bad time literal {value!r}") from exc
        if abs(t.numerator) >= _TOO_MANY_DIGITS or t.denominator >= _TOO_MANY_DIGITS:
            raise ConstructionError(f"time literal {value!r} has more than {_MAX_DIGITS} digits")
        return t
    raise ConstructionError(f"cannot interpret {value!r} as a time")


def _bit(value) -> int:
    if value is True or value is False:
        return int(value)
    if value in (0, 1):
        return int(value)
    raise ConstructionError(f"bit must be 0 or 1, got {value!r}")


# ---------------------------------------------------------------------------
# Intervals and interval sets
#
# Internally every endpoint maps to a "slot", a point of the line with an
# infinitesimal offset: (t,-1) just below t, (t,0) at t, (t,+1) just above.
# Slots order lexicographically and make union/adjacency of intervals with
# mixed open/closed ends purely combinatorial. A run is a (start, end) slot
# pair; the kernel works on sorted runs of 1-instants.
# ---------------------------------------------------------------------------

_MINUS_INF = (0,)
_PLUS_INF = (2,)


def _slot(t: Fraction, eps: int):
    return (1, t, eps)


def _succ(slot):
    # only end slots (eps in {-1,0}) ever need a successor
    _, t, eps = slot
    return (1, t, eps + 1)


@dataclass(frozen=True)
class Interval:
    """One interval with open/closed endpoint flags; None bound = unbounded."""

    lo: Optional[Fraction]
    lo_closed: bool
    hi: Optional[Fraction]
    hi_closed: bool

    def __post_init__(self):
        if self.lo is None and self.lo_closed:
            raise ConstructionError("unbounded lower end cannot be closed")
        if self.hi is None and self.hi_closed:
            raise ConstructionError("unbounded upper end cannot be closed")
        if self.lo is not None and self.hi is not None:
            if self.lo > self.hi:
                raise ConstructionError(f"empty interval: lo={self.lo} > hi={self.hi}")
            if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
                raise ConstructionError("degenerate interval must be closed on both ends")

    @property
    def degenerate(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, t: Fraction) -> bool:
        if self.lo is not None and (t < self.lo or (t == self.lo and not self.lo_closed)):
            return False
        if self.hi is not None and (t > self.hi or (t == self.hi and not self.hi_closed)):
            return False
        return True

    def _start_slot(self):
        if self.lo is None:
            return _MINUS_INF
        return _slot(self.lo, 0 if self.lo_closed else 1)

    def _end_slot(self):
        if self.hi is None:
            return _PLUS_INF
        return _slot(self.hi, 0 if self.hi_closed else -1)

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "inf" if self.hi is None else str(self.hi)
        return f"{'[' if self.lo_closed else '('}{lo}, {hi}{']' if self.hi_closed else ')'}"


def parse_interval(text: str) -> Interval:
    """Inverse of Interval.__str__ ('[0, 1)', '(-inf, 3]', '[2, 2]')."""
    s = text.strip()
    if len(s) < 2 or s[0] not in "([" or s[-1] not in ")]":
        raise ConstructionError(f"bad interval literal {text!r}")
    body = s[1:-1].split(",")
    if len(body) != 2:
        raise ConstructionError(f"bad interval literal {text!r}")
    lo_s, hi_s = body[0].strip(), body[1].strip()
    lo = None if lo_s == "-inf" else as_time(lo_s)
    hi = None if hi_s == "inf" else as_time(hi_s)
    return Interval(lo, s[0] == "[", hi, s[-1] == "]")


def _interval_from_slots(start, end) -> Interval:
    if start == _MINUS_INF:
        lo, lo_closed = None, False
    else:
        _, t, eps = start
        lo, lo_closed = t, eps == 0
    if end == _PLUS_INF:
        hi, hi_closed = None, False
    else:
        _, t, eps = end
        hi, hi_closed = t, eps == 0
    return Interval(lo, lo_closed, hi, hi_closed)


@dataclass(frozen=True)
class IntervalSet:
    """A view of a set of instants as a union of intervals.

    one_set returns them disjoint, sorted and maximal (no two can be merged);
    indicator accepts any intervals, overlapping or unsorted.
    """

    intervals: tuple[Interval, ...] = ()

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def __str__(self) -> str:
        if not self.intervals:
            return "empty"
        return " u ".join(str(iv) for iv in self.intervals)


# ---------------------------------------------------------------------------
# StepFn
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepFn:
    """Binary step function: value `before` on (-inf, u_1), then for each
    breakpoint u_k an independent point value v_k and interval value w_k on
    (u_k, u_{k+1}) (w_n extends to +inf).

    The representation is canonical: a breakpoint is present only if its
    point value differs from one of the neighbouring interval values, so
    pointwise-equal functions compare equal as dataclasses.
    """

    before: int
    times: tuple[Fraction, ...] = ()
    point_values: tuple[int, ...] = ()
    interval_values: tuple[int, ...] = ()

    def __post_init__(self):
        _bit(self.before)
        n = len(self.times)
        if len(self.point_values) != n or len(self.interval_values) != n:
            raise ConstructionError("times/point_values/interval_values lengths differ")
        prev_t = None
        prev_w = self.before
        for t, v, w in zip(self.times, self.point_values, self.interval_values):
            if not isinstance(t, Fraction):
                raise ConstructionError(f"breakpoint {t!r} is not an exact rational")
            _bit(v)
            _bit(w)
            if prev_t is not None and t <= prev_t:
                raise ConstructionError(f"breakpoints not strictly increasing at {t}")
            if v == prev_w and v == w:
                raise ConstructionError(f"removable breakpoint at {t}: representation not canonical")
            prev_t, prev_w = t, w

    # -- evaluation ---------------------------------------------------------

    def eval(self, t: TimeLike) -> int:
        t = as_time(t)
        i = bisect_left(self.times, t)
        if i < len(self.times) and self.times[i] == t:
            return self.point_values[i]
        if i == 0:
            return self.before
        return self.interval_values[i - 1]

    def value_after(self, t: TimeLike) -> int:
        """Value on (t, t+eps) for small eps."""
        t = as_time(t)
        i = bisect_right(self.times, t)
        if i == 0:
            return self.before
        return self.interval_values[i - 1]

    @property
    def is_constant(self) -> bool:
        return not self.times

    def __str__(self) -> str:
        return f"ones: {one_set(self)}"


def canonical(before, pieces: Iterable[tuple]) -> StepFn:
    """Build the canonical StepFn for `before` plus (time, point, interval)
    triples with strictly increasing times. Removable breakpoints are elided.

    This is the entry point for outside input: times and bits are coerced
    and checked here. Kernel ops build StepFn directly from fields that are
    already valid.
    """
    before = _bit(before)
    times: list[Fraction] = []
    pvals: list[int] = []
    ivals: list[int] = []
    prev_w = before
    prev_t = None
    for raw_t, raw_v, raw_w in pieces:
        t, v, w = as_time(raw_t), _bit(raw_v), _bit(raw_w)
        if prev_t is not None and t <= prev_t:
            raise ConstructionError(f"breakpoint times not strictly increasing at {t}")
        prev_t = t
        if v == prev_w and v == w:
            continue
        times.append(t)
        pvals.append(v)
        ivals.append(w)
        prev_w = w
    return StepFn(before, tuple(times), tuple(pvals), tuple(ivals))


def constant(bit) -> StepFn:
    return StepFn(_bit(bit))


def from_changes(changes: Iterable[tuple], before=0) -> StepFn:
    """Right-continuous function from (time, new value) change points."""
    return canonical(before, [(t, b, b) for t, b in changes])


# truth tables indexed by 2*a + b
_AND = (0, 0, 0, 1)
_OR = (0, 1, 1, 1)
_XOR = (0, 1, 1, 0)
_AND_NOT = (0, 0, 1, 0)  # a and not b: where a <= b fails


def _merge(table: tuple, f: StepFn, g: StepFn) -> StepFn:
    """One two-pointer pass over the breakpoints of f and g.

    a and b are the operands' values on the open interval after the current
    time; a breakpoint of only one operand sees the other's interval value.
    A merged breakpoint whose point value equals the interval values on both
    sides is removable and is dropped on the spot.
    """
    ft, fp, fw = f.times, f.point_values, f.interval_values
    gt, gp, gw = g.times, g.point_values, g.interval_values
    nf, ng = len(ft), len(gt)
    i = j = 0
    a, b = f.before, g.before
    before = prev_w = table[2 * a + b]
    times: list[Fraction] = []
    pvals: list[int] = []
    ivals: list[int] = []
    while i < nf or j < ng:
        if j == ng:
            t = ft[i]
            v = table[2 * fp[i] + b]
            a = fw[i]
            i += 1
        elif i == nf:
            t = gt[j]
            v = table[2 * a + gp[j]]
            b = gw[j]
            j += 1
        else:
            t, u = ft[i], gt[j]
            if t == u:
                v = table[2 * fp[i] + gp[j]]
                a, b = fw[i], gw[j]
                i += 1
                j += 1
            elif t < u:
                v = table[2 * fp[i] + b]
                a = fw[i]
                i += 1
            else:
                t = u
                v = table[2 * a + gp[j]]
                b = gw[j]
                j += 1
        w = table[2 * a + b]
        if v == prev_w and v == w:
            continue
        times.append(t)
        pvals.append(v)
        ivals.append(w)
        prev_w = w
    return StepFn(before, tuple(times), tuple(pvals), tuple(ivals))


def not_(f: StepFn) -> StepFn:
    # negation keeps every breakpoint essential, so f's times carry over
    return StepFn(
        1 - f.before,
        f.times,
        tuple(1 - v for v in f.point_values),
        tuple(1 - w for w in f.interval_values),
    )


def and_(f: StepFn, g: StepFn) -> StepFn:
    return _merge(_AND, f, g)


def or_(f: StepFn, g: StepFn) -> StepFn:
    return _merge(_OR, f, g)


def xor(f: StepFn, g: StepFn) -> StepFn:
    return _merge(_XOR, f, g)


def shift(f: StepFn, delta: TimeLike) -> StepFn:
    """Translate in time: result(t) = f(t - delta)."""
    delta = as_time(delta)
    return StepFn(
        f.before,
        tuple(t + delta for t in f.times),
        f.point_values,
        f.interval_values,
    )


# ---------------------------------------------------------------------------
# Left limit and derivatives
# ---------------------------------------------------------------------------


def left_limit(f: StepFn) -> StepFn:
    """x(t-0): interval values are kept, the value at each breakpoint becomes
    the value of the open interval immediately to its left. A breakpoint
    survives only where the interval value changes."""
    times: list[Fraction] = []
    pvals: list[int] = []
    ivals: list[int] = []
    prev_w = f.before
    for t, w in zip(f.times, f.interval_values):
        if w != prev_w:
            times.append(t)
            pvals.append(prev_w)
            ivals.append(w)
            prev_w = w
    return StepFn(f.before, tuple(times), tuple(pvals), tuple(ivals))


def derivative(f: StepFn) -> StepFn:
    """Dx(t) = x(t-0) xor x(t); 1 exactly where the function just switched."""
    return xor(left_limit(f), f)


def semi_derivatives(f: StepFn) -> tuple[StepFn, StepFn]:
    """(rise, fall) = (x(t-0)'*x(t), x(t-0)*x(t)'); rise|fall = Dx, disjoint."""
    prev = left_limit(f)
    return and_(not_(prev), f), and_(prev, not_(f))


# ---------------------------------------------------------------------------
# One-sets and indicators
#
# Every set operation of the kernel goes through three sweeps over runs:
# _ones reads the maximal 1-runs off a StepFn, _union merges start-sorted
# runs that may overlap and _from_ones turns maximal runs back into the
# canonical StepFn.
# ---------------------------------------------------------------------------


def _union(runs) -> list[tuple]:
    """Merge runs sorted by start slot into disjoint, maximal runs."""
    merged: list[tuple] = []
    for start, end in runs:
        if merged:
            cur_start, cur_end = merged[-1]
            # adjacency counts: (a,b) next to [b,c) has nothing between
            if start <= (cur_end if cur_end == _PLUS_INF else _succ(cur_end)):
                if end > cur_end:
                    merged[-1] = (cur_start, end)
                continue
        merged.append((start, end))
    return merged


def _ones(f: StepFn) -> list[tuple]:
    """The maximal 1-runs of f, in order, read straight off its fields.

    The pieces (-inf, u_1), [u_1, u_1], (u_1, u_2), ... tile the line in
    order, so two 1-pieces touch exactly when they are consecutive: a run
    opens at the first 1-piece after a 0-piece and closes at the next 0-piece.
    """
    runs: list[tuple] = []
    start = _MINUS_INF if f.before else None
    for t, v, w in zip(f.times, f.point_values, f.interval_values):
        if v:
            if start is None:
                start = (1, t, 0)
        elif start is not None:
            runs.append((start, (1, t, -1)))
            start = None
        if w:
            if start is None:
                start = (1, t, 1)
        elif start is not None:  # the run ends with the point [t, t]
            runs.append((start, (1, t, 0)))
            start = None
    if start is not None:
        runs.append((start, _PLUS_INF))
    return runs


def _from_ones(runs) -> StepFn:
    """The canonical StepFn whose 1-set is the given maximal sorted runs.

    Maximality makes every run endpoint a real breakpoint. Two runs share a
    breakpoint time only when one ends open at t and the next starts open at
    t; a degenerate run [t, t] opens and closes at the same time.
    """
    before = 1 if runs and runs[0][0] == _MINUS_INF else 0
    times: list[Fraction] = []
    pvals: list[int] = []
    ivals: list[int] = []
    for start, end in runs:
        if start != _MINUS_INF:
            _, t, eps = start
            if eps == 0:
                times.append(t)
                pvals.append(1)
                ivals.append(1)
            elif times and times[-1] == t:  # only the instant t is missing
                ivals[-1] = 1
            else:
                times.append(t)
                pvals.append(0)
                ivals.append(1)
        if end != _PLUS_INF:
            _, t, eps = end
            if eps == 0 and times and times[-1] == t:  # degenerate run
                ivals[-1] = 0
            else:
                times.append(t)
                pvals.append(1 if eps == 0 else 0)
                ivals.append(0)
    return StepFn(before, tuple(times), tuple(pvals), tuple(ivals))


def one_set(f: StepFn) -> IntervalSet:
    """The exact set {t : f(t) = 1}."""
    return IntervalSet(tuple(_interval_from_slots(s, e) for s, e in _ones(f)))


def indicator(s: IntervalSet) -> StepFn:
    """Characteristic function of a union of intervals; inverse of one_set."""
    return _from_ones(_union(sorted((iv._start_slot(), iv._end_slot()) for iv in s)))


# ---------------------------------------------------------------------------
# Sliding-window operators
# ---------------------------------------------------------------------------

# offsets (lo_closed, hi_closed) of [t-d,t), (t-d,t), (t-d,t] relative to t
_WINDOW_SHAPES = {"co": (True, False), "oo": (False, False), "oc": (False, True)}


def window(mode: str, f: StepFn, d: TimeLike, kind: str = "co") -> StepFn:
    """Pointwise inf ('all') or sup ('any') of f over the sliding window
    ending at t: 'co' = [t-d,t), 'oo' = (t-d,t), 'oc' = (t-d,t].

    Mode 'any' looks back over the offsets <-d, 0>; mode 'all' is its dual
    all(f) = not(any(not f)).
    """
    d = as_time(d)
    if d <= 0:
        raise ParameterError(f"window width must be positive, got {d}")
    if kind not in _WINDOW_SHAPES:
        raise ParameterError(f"unknown window kind {kind!r}")
    if mode == "all":
        return not_(window("any", not_(f), d, kind))
    if mode != "any":
        raise ParameterError(f"unknown window mode {mode!r}")
    return any_over_offsets(f, -d, 0, *_WINDOW_SHAPES[kind])


def any_over_offsets(
    f: StepFn, lo: TimeLike, hi: TimeLike, lo_closed: bool = True, hi_closed: bool = True
) -> StepFn:
    """g(t) = 1 iff f(t + delta) = 1 for some delta in the offset interval.

    Looking ahead by delta in <lo, hi> means t sees the 1-run I exactly when
    t lies in I shifted back by the offsets, so the result's 1-set is the
    union of Minkowski sums I + <-hi, -lo>. An endpoint of a sum is attained
    iff both contributing endpoints are: in slot terms times add, the start
    takes the larger eps and the end the smaller. Adding one interval keeps
    the runs sorted by start.
    """
    lo, hi = as_time(lo), as_time(hi)
    offsets = Interval(-hi, hi_closed, -lo, lo_closed)
    _, a, a_eps = offsets._start_slot()
    _, b, b_eps = offsets._end_slot()
    sums = [
        (
            s if s == _MINUS_INF else (1, s[1] + a, max(s[2], a_eps)),
            e if e == _PLUS_INF else (1, e[1] + b, min(e[2], b_eps)),
        )
        for s, e in _ones(f)
    ]
    return _from_ones(_union(sums))


# ---------------------------------------------------------------------------
# Ordering and signal predicates
# ---------------------------------------------------------------------------


def pick_point(iv: Interval) -> Fraction:
    """A concrete witness inside an interval: closed lower end itself,
    else the midpoint, else lower end + 1 when unbounded above."""
    if iv.lo is None:
        return iv.hi - 1 if iv.hi is not None else Fraction(0)
    if iv.lo_closed:
        return iv.lo
    if iv.hi is None:
        return iv.lo + 1
    return (iv.lo + iv.hi) / 2


_ZERO = _slot(Fraction(0), 0)


def _nonneg_one_set(f: StepFn) -> IntervalSet:
    """one_set(f) restricted to t >= 0: the runs are clipped at 0."""
    return IntervalSet(
        tuple(_interval_from_slots(max(s, _ZERO), e) for s, e in _ones(f) if e >= _ZERO)
    )


def violation_set(lhs: StepFn, rhs: StepFn) -> IntervalSet:
    """The maximal regions where lhs(t) <= rhs(t) fails, restricted to t >= 0."""
    return _nonneg_one_set(_merge(_AND_NOT, lhs, rhs))


def difference_set(f: StepFn, g: StepFn) -> IntervalSet:
    """The maximal regions where f(t) != g(t), restricted to t >= 0."""
    return _nonneg_one_set(_merge(_XOR, f, g))


def require_signal(f: StepFn, role: str = "input") -> None:
    """Raise DomainError naming the first violated clause unless f is a
    signal: null before 0, right-continuous, piecewise constant with finitely
    many breakpoints."""
    if f.before != 0:
        reason = "value 1 before the first breakpoint"
    elif f.times and f.times[0] < 0:  # times increase: only the first can be negative
        reason = f"breakpoint at {f.times[0]} is negative"
    elif f.point_values != f.interval_values:
        reason = f"not right-continuous at {_first_jump(f)}"
    else:
        return
    raise DomainError(f"{role} is not a signal: {reason}")


def _first_jump(f: StepFn) -> Fraction:
    return next(t for t, v, w in zip(f.times, f.point_values, f.interval_values) if v != w)


def switch_points(x: StepFn) -> tuple[Fraction, ...]:
    """The minimal switching set of a signal, the support of its derivative.

    A canonical signal keeps a breakpoint only where its value changes, so
    its breakpoints are exactly its switches.
    """
    require_signal(x)
    return x.times


def right_continuous_runs(f: StepFn) -> list[tuple[Optional[Fraction], Optional[Fraction], int]]:
    """Maximal constant runs [start, end) of a right-continuous StepFn as
    (start, end, value), start None for the initial unbounded run and end
    None for the final one."""
    if f.point_values != f.interval_values:
        raise DomainError(f"not right-continuous at {_first_jump(f)}")
    return list(zip((None, *f.times), (*f.times, None), (f.before, *f.interval_values)))
