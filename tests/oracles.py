"""Independent reference implementations used to cross-check the symbolic
operators. Most work by finite sampling of piecewise-constant functions
(representative points per piece) or by literal quantifier evaluation, never
by reusing the interval-set machinery under test. The last section keeps
earlier, slower implementations of kernel ops and checkers that the fast
ones must match exactly.
"""

from fractions import Fraction

from bsig import (
    AutomatonState,
    IntervalSet,
    Report,
    StepFn,
    TraceEvent,
    Violation,
    canonical,
    and_,
    constant,
    from_changes,
    not_,
    one_set,
    require_signal,
    right_continuous_runs,
    semi_derivatives,
    switch_points,
    window,
    xor,
)
from bsig.stepfn import (
    _MINUS_INF,
    _PLUS_INF,
    _from_ones,
    _interval_from_slots,
    _slot,
    _union,
)

# ---------------------------------------------------------------------------
# Sampling helpers
# ---------------------------------------------------------------------------


def sample_points(lo, lo_closed, hi, hi_closed, breakpoints):
    """Finitely many points meeting every piece of f inside the interval
    <lo, hi>, given f's breakpoints. Unbounded ends are None."""
    inner = sorted({t for t in breakpoints
                    if (lo is None or lo < t or (lo == t and lo_closed))
                    and (hi is None or t < hi or (t == hi and hi_closed))})
    anchors = []
    if lo is not None:
        anchors.append(lo)
    anchors.extend(inner)
    if hi is not None:
        anchors.append(hi)
    pts = set()
    if lo is not None and lo_closed:
        pts.add(lo)
    if hi is not None and hi_closed:
        pts.add(hi)
    pts.update(inner)
    # one interior point per gap between consecutive anchors
    for a, b in zip(anchors, anchors[1:]):
        if a < b:
            pts.add(Fraction(a + b, 2))
    # reach past unbounded ends
    if lo is None:
        first = anchors[0] if anchors else Fraction(0)
        pts.add(first - 1)
    if hi is None:
        last = anchors[-1] if anchors else Fraction(0)
        pts.add(last + 1)
    # drop points outside the interval (closed endpoints already handled)
    keep = []
    for t in pts:
        if lo is not None and (t < lo or (t == lo and not lo_closed)):
            continue
        if hi is not None and (t > hi or (t == hi and not hi_closed)):
            continue
        keep.append(t)
    return sorted(keep)


def left_limit_at(f: StepFn, t: Fraction) -> int:
    """f(t-0) computed by evaluating just left of t, clear of breakpoints."""
    smaller = [u for u in f.times if u < t]
    gap = min((t - u for u in smaller), default=Fraction(1))
    return f.eval(t - gap / 2)


def edges(x: StepFn):
    """(rise times, fall times) straight off the representation; valid for
    right-continuous x."""
    rises, falls = [], []
    value = x.before
    for t, v in zip(x.times, x.point_values):
        if v != value:
            (rises if v == 1 else falls).append(t)
        value = v
    return rises, falls


# ---------------------------------------------------------------------------
# Operator oracles
# ---------------------------------------------------------------------------

_WINDOW_SHAPES = {"co": (True, False), "oo": (False, False), "oc": (False, True)}


def window_at(mode: str, f: StepFn, d: Fraction, kind: str, t: Fraction) -> int:
    """Window-ALL/ANY of f over the width-d window ending at t, by sampling."""
    lo_closed, hi_closed = _WINDOW_SHAPES[kind]
    pts = sample_points(t - d, lo_closed, t, hi_closed, f.times)
    values = [f.eval(p) for p in pts]
    if mode == "all":
        return 1 if all(v == 1 for v in values) else 0
    return 1 if any(v == 1 for v in values) else 0


def exists_all_at(f: StepFn, a: Fraction, b: Fraction, kind: str, t: Fraction) -> int:
    """1 iff some start t' in [t-a, t-b] has f identically 1 on the window
    from t' to t of the given kind (two-level quantifier, literal)."""
    lo_closed, hi_closed = _WINDOW_SHAPES[kind]
    for start in sample_points(t - a, True, t - b, True, f.times):
        pts = sample_points(start, lo_closed, t, hi_closed, f.times)
        if all(f.eval(p) == 1 for p in pts):
            return 1
    return 0


def any_over_offsets_at(f, lo, hi, lo_closed, hi_closed, t):
    pts = sample_points(t + lo, lo_closed, t + hi, hi_closed, f.times)
    return 1 if any(f.eval(p) == 1 for p in pts) else 0


def probe_grid(fs, pad=Fraction(2), step=None):
    """A dense grid covering all breakpoints of the given functions: from
    min-pad to max+pad at the requested step (default min gap / 4), plus the
    breakpoints themselves, both ends min-pad and max+pad, and 0."""
    bps = sorted({t for f in fs for t in f.times})
    if not bps:
        return [Fraction(k, 4) for k in range(-4, 9)]
    if step is None:
        gaps = [b - a for a, b in zip(bps, bps[1:]) if b > a]
        step = min(gaps, default=Fraction(1)) / 4
    t = bps[0] - pad
    end = bps[-1] + pad
    out = {Fraction(0), *bps, t, end}
    while t <= end:
        out.add(t)
        t += step
    return sorted(out)


# ---------------------------------------------------------------------------
# Deterministic buffer recursion on a grid
# ---------------------------------------------------------------------------


def didb_grid(i: StepFn, d_r: Fraction, d_f: Fraction, step: Fraction) -> StepFn:
    """The switching recursion evaluated literally on a time grid.

    Exact whenever i's breakpoints and both delays are multiples of step:
    all signals involved are then constant between grid points, so checking
    held windows at grid points only is enough.
    """
    assert (d_r / step).denominator == 1 and (d_f / step).denominator == 1
    assert all((t / step).denominator == 1 for t in i.times)
    horizon = (max(i.times) if i.times else Fraction(0)) + d_r + d_f + 1
    nr = int(d_r / step)
    nf = int(d_f / step)
    n = int(horizon / step) + 1
    i_vals = [i.eval(k * step) for k in range(n)]
    o_vals = [0] * n
    for k in range(1, n):
        prev = o_vals[k - 1]
        if prev == 0 and k - nr >= 0 and all(v == 1 for v in i_vals[k - nr:k]):
            o_vals[k] = 1
        elif prev == 1 and k - nf >= 0 and all(v == 0 for v in i_vals[k - nf:k]):
            o_vals[k] = 0
        else:
            o_vals[k] = prev
    changes = []
    cur = 0
    for k in range(n):
        if o_vals[k] != cur:
            changes.append((k * step, o_vals[k]))
            cur = o_vals[k]
    return from_changes(changes)


# ---------------------------------------------------------------------------
# Event-anchored condition oracles (literal quantifiers)
# ---------------------------------------------------------------------------


def lit_b_rise_at(i: StepFn, d_min, d_max, t) -> int:
    """Exists t' in [t-d_max, t-d_min] with i(t'-0) = 0 and i = 1 on [t', t)."""
    for start in sample_points(t - d_max, True, t - d_min, True, i.times):
        if left_limit_at(i, start) != 0:
            continue
        pts = sample_points(start, True, t, False, i.times)
        if all(i.eval(p) == 1 for p in pts):
            return 1
    return 0


def lit_b_fall_at(i: StepFn, d_min, d_max, t) -> int:
    for start in sample_points(t - d_max, True, t - d_min, True, i.times):
        if left_limit_at(i, start) != 1:
            continue
        pts = sample_points(start, True, t, False, i.times)
        if all(i.eval(p) == 0 for p in pts):
            return 1
    return 0


def lit_b_verdict(i: StepFn, o: StepFn, p) -> str:
    rises, falls = edges(o)
    for t in rises:
        if t >= 0 and not lit_b_rise_at(i, p.d_r_min, p.d_r_max, t):
            return "FAIL"
    for t in falls:
        if t >= 0 and not lit_b_fall_at(i, p.d_f_min, p.d_f_max, t):
            return "FAIL"
    return "PASS"


def lit_c_verdict(i: StepFn, o: StepFn, p) -> str:
    """Every input edge answered by a reverse input edge in the open future
    window or a matching output edge in the closed delay window."""
    ri, fi = edges(i)
    ro, fo = edges(o)

    def answered(t, d_min, d_max, reverse_edges, out_edges):
        if any(t < u < t + d_max for u in reverse_edges):
            return True
        return any(t + d_min <= u <= t + d_max for u in out_edges)

    for t in ri:
        if t >= 0 and not answered(t, p.d_r_min, p.d_r_max, fi, ro):
            return "FAIL"
    for t in fi:
        if t >= 0 and not answered(t, p.d_f_min, p.d_f_max, ri, fo):
            return "FAIL"
    return "PASS"


# ---------------------------------------------------------------------------
# Earlier kernel and checker implementations, kept as differential oracles
# ---------------------------------------------------------------------------

_BIT_FNS = {
    "not": lambda a, b: 1 - a,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "leq": lambda a, b: (1 - a) | b,
}


def pointwise_eval(op: str, f: StepFn, g: StepFn = None) -> StepFn:
    """pointwise by evaluating both operands at every merged breakpoint and
    canonicalizing the result."""
    fn = _BIT_FNS[op]
    if op == "not":
        return canonical(
            fn(f.before, 0),
            [(t, fn(v, 0), fn(w, 0)) for t, v, w in zip(f.times, f.point_values, f.interval_values)],
        )
    merged = sorted(set(f.times) | set(g.times))
    pieces = [
        (t, fn(f.eval(t), g.eval(t)), fn(f.value_after(t), g.value_after(t)))
        for t in merged
    ]
    return canonical(fn(f.before, g.before), pieces)


def left_limit_pieces(f: StepFn) -> StepFn:
    """x(t-0) through canonical: every breakpoint takes its left interval value."""
    pieces = []
    prev_w = f.before
    for t, w in zip(f.times, f.interval_values):
        pieces.append((t, prev_w, w))
        prev_w = w
    return canonical(f.before, pieces)


def check_stability_nested(i: StepFn, o: StepFn) -> Report:
    """check_stability as a scan of all output switches per input run."""
    require_signal(i, "input")
    require_signal(o, "output")
    o_switches = switch_points(o)
    violations = []
    for start, end, value in right_continuous_runs(i):
        lo = Fraction(0) if start is None else max(start, Fraction(0))
        if end is not None and end <= lo:
            continue
        if o.eval(lo) == value:
            agree = lo
        else:
            agree = None
            for t in o_switches:
                if t > lo and (end is None or t < end) and o.eval(t) == value:
                    agree = t
                    break
        if agree is None:
            continue
        for t in o_switches:
            if t > agree and (end is None or t <= end):
                violations.append(
                    Violation(
                        t,
                        o.eval(t),
                        value,
                        f"3.4: output leaves stable state at {t} while input "
                        f"holds {value}",
                    )
                )
                break
    return Report("3.4", "FAIL" if violations else "PASS", tuple(violations))


def backed_scan(t: Fraction, runs, d: Fraction) -> bool:
    """Some (start, end) run covers both t - d and t (scanning every run)."""
    for lo, hi in runs:
        if (lo is None or lo <= t - d) and (hi is None or t <= hi):
            return True
    return False


def check_inertia_nested(i: StepFn, p) -> Report:
    """check_inertia testing every input run for every output edge."""
    o = didb_simulate_windows(i, p)
    rise_o, fall_o = semi_derivatives(o)
    ones = [(iv.lo, iv.hi) for iv in one_set(i)]
    zeros = [(iv.lo, iv.hi) for iv in one_set(not_(i))]
    violations = []
    for iv in one_set(rise_o):
        t = iv.lo
        if not backed_scan(t, ones, p.d_r):
            violations.append(
                Violation(t, 1, 0, f"3.5.rise: rise at {t} without a held-1 run of length {p.d_r}")
            )
    for iv in one_set(fall_o):
        t = iv.lo
        if not backed_scan(t, zeros, p.d_f):
            violations.append(
                Violation(t, 1, 0, f"3.5.fall: fall at {t} without a held-0 run of length {p.d_f}")
            )
    all_short = all(lo is not None and hi is not None and hi - lo < p.d_r for lo, hi in ones)
    if all_short and o != constant(0):
        t = switch_points(o)[0]
        violations.append(
            Violation(t, 1, 0, f"3.5.null: every 1-run shorter than {p.d_r} yet output switches at {t}")
        )
    return Report("3.5", "FAIL" if violations else "PASS", tuple(violations))


def draw_delay_enumerated(rng, granularity: int, lo: Fraction, hi: Fraction) -> Fraction:
    """The random sampling policy's draw, choosing from the sorted list of
    every candidate: both band ends plus the grid points inside the band."""
    g = granularity
    first = -((-lo * g) // 1)
    last = (hi * g) // 1
    candidates = {lo, hi}
    k = first
    while k <= last:
        candidates.add(Fraction(int(k), g))
        k += 1
    return rng.choice(sorted(candidates))


def didb_simulate_windows(i: StepFn, p) -> StepFn:
    """The deterministic buffer from its held-input windows: o toggles at the
    start of each 1-run of a window enable that disagrees with it."""
    require_signal(i, "input")
    wr, wf = window("all", i, p.d_r, "co"), window("all", not_(i), p.d_f, "co")
    events = []
    for target, w in ((1, wr), (0, wf)):
        for iv in one_set(w):
            if iv.lo is not None:
                events.append((iv.lo, target))
    cur = 0
    changes = []
    for t, target in sorted(events):
        if target != cur:
            changes.append((t, target))
            cur = target
    return from_changes(changes)


def automaton_trace_eval(i: StepFn, o: StepFn) -> list:
    """automaton_trace by evaluating both signals at every switch time and
    keeping the state changes."""
    require_signal(i, "input")
    require_signal(o, "output")
    prev = AutomatonState(0, 0)
    events = []
    for t in sorted(set(switch_points(i)) | set(switch_points(o))):
        state = AutomatonState(i.eval(t), o.eval(t))
        if state != prev:
            events.append(TraceEvent(t, state))
            prev = state
    return events


def pieces(f: StepFn):
    """(start_slot, end_slot, value) for every piece of f, covering the line
    in order: (-inf, u_1), [u_1, u_1], (u_1, u_2), ..."""
    if not f.times:
        yield _MINUS_INF, _PLUS_INF, f.before
        return
    yield _MINUS_INF, _slot(f.times[0], -1), f.before
    n = len(f.times)
    for k in range(n):
        u = f.times[k]
        yield _slot(u, 0), _slot(u, 0), f.point_values[k]
        if k + 1 < n:
            yield _slot(u, 1), _slot(f.times[k + 1], -1), f.interval_values[k]
        else:
            yield _slot(u, 1), _PLUS_INF, f.interval_values[k]


def ones_pieces(f: StepFn) -> list:
    """The 1-runs of f by merging its 1-pieces with the adjacency-aware union."""
    return _union((s, e) for s, e, value in pieces(f) if value == 1)


def one_set_pieces(f: StepFn) -> IntervalSet:
    return IntervalSet(tuple(_interval_from_slots(s, e) for s, e in ones_pieces(f)))


NONNEG = from_changes([(0, 1)])


def violation_set_ops(lhs: StepFn, rhs: StepFn) -> IntervalSet:
    """violation_set as three kernel ops masked by the indicator of t >= 0."""
    return one_set_pieces(and_(and_(lhs, not_(rhs)), NONNEG))


def difference_set_ops(f: StepFn, g: StepFn) -> IntervalSet:
    return one_set_pieces(and_(xor(f, g), NONNEG))


def window_pieces(mode: str, f: StepFn, d: Fraction, kind: str) -> StepFn:
    """window over the merged 1-pieces: 'any' dilates each 1-run by the
    offsets <0, d> with the kind's closures, 'all' is the dual."""
    if mode == "all":
        return not_(window_pieces("any", not_(f), d, kind))
    lo_closed, hi_closed = _WINDOW_SHAPES[kind]
    a_eps, b_eps = (0 if hi_closed else 1), (0 if lo_closed else -1)
    sums = [
        (
            s if s == _MINUS_INF else (1, s[1], max(s[2], a_eps)),
            e if e == _PLUS_INF else (1, e[1] + d, min(e[2], b_eps)),
        )
        for s, e in ones_pieces(f)
    ]
    return _from_ones(_union(sums))
