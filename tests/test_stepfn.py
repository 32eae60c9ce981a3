from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from bsig import (
    ConstructionError,
    DomainError,
    Interval,
    IntervalSet,
    StepFn,
    and_,
    as_time,
    canonical,
    constant,
    derivative,
    difference_set,
    from_changes,
    indicator,
    left_limit,
    not_,
    one_set,
    or_,
    parse_interval,
    pick_point,
    require_signal,
    right_continuous_runs,
    semi_derivatives,
    shift,
    switch_points,
    violation_set,
    window,
    xor,
)
from conftest import bits_st, chi, fractions_st, pos_fractions_st, signals, stepfns
from oracles import (
    NONNEG,
    difference_set_ops,
    left_limit_at,
    left_limit_pieces,
    one_set_pieces,
    pointwise_eval,
    probe_grid,
    violation_set_ops,
    window_pieces,
)

# ---------------------------------------------------------------------------
# Times
# ---------------------------------------------------------------------------


def test_as_time_forms():
    assert as_time("3/4") == Fraction(3, 4)
    assert as_time("0.75") == Fraction(3, 4)
    assert as_time("2") == Fraction(2)
    assert as_time(5) == Fraction(5)
    assert as_time(Fraction(1, 3)) == Fraction(1, 3)
    assert as_time("-1/2") == Fraction(-1, 2)


@pytest.mark.parametrize("bad", [0.5, True, "x", "1/0", "", "1.2.3", None])
def test_as_time_rejects(bad):
    with pytest.raises((ValueError, ZeroDivisionError)):
        as_time(bad)


@pytest.mark.parametrize("bad", ["1e2000000", "1E-2000000", "2e+4301", "1e" + "9" * 5000, "1e4300", "1e-4300"])
def test_as_time_rejects_unprintable_literals(bad):
    with pytest.raises(ConstructionError):
        as_time(bad)


def test_as_time_accepts_literals_at_the_digit_limit():
    assert as_time("1e4299") == 10**4299
    assert as_time("5e-4299") == Fraction(1, 2 * 10**4298)
    assert as_time("0.5e+0003") == 500


# ---------------------------------------------------------------------------
# Intervals and interval sets
# ---------------------------------------------------------------------------


def test_interval_validation():
    with pytest.raises(ConstructionError):
        Interval(Fraction(1), True, Fraction(0), True)  # empty
    with pytest.raises(ConstructionError):
        Interval(Fraction(1), True, Fraction(1), False)  # degenerate must be closed
    with pytest.raises(ConstructionError):
        Interval(None, True, Fraction(0), True)  # unbounded end cannot be closed
    assert Interval(Fraction(1, 2), True, Fraction(1, 2), True).degenerate


@pytest.mark.parametrize(
    "text", ["[0, 1)", "(-inf, 3]", "[2, 2]", "(1/2, inf)", "(-3/4, 7/2]"]
)
def test_interval_str_round_trip(text):
    assert str(parse_interval(text)) == text


def test_parse_interval_rejects():
    for bad in ["", "0, 1", "[0 1)", "[1, 0]", "{0, 1}"]:
        with pytest.raises((ConstructionError, ValueError)):
            parse_interval(bad)


intervals_st = st.builds(
    lambda lo, width, lc, hc: Interval(
        lo, lc if width > 0 else True, lo + width, hc if width > 0 else True
    ),
    fractions_st,
    st.fractions(min_value=0, max_value=8, max_denominator=4),
    st.booleans(),
    st.booleans(),
)


interval_lists = st.lists(intervals_st, max_size=5)


@st.composite
def interval_sets(draw):
    return one_set(indicator(IntervalSet(tuple(draw(interval_lists)))))


@st.composite
def touching_intervals(draw):
    """Intervals chained end to end with random closures, plus a few strays,
    shuffled: neighbours are adjacent, overlap in one closed end, or leave a
    single point out."""
    pts = sorted(draw(st.sets(fractions_st, min_size=2, max_size=6)))
    ivs = [
        Interval(a, draw(st.booleans()), b, draw(st.booleans()))
        for a, b in zip(pts, pts[1:])
    ]
    ivs += draw(st.lists(intervals_st, max_size=2))
    return draw(st.permutations(ivs))


def _member(ivs, t):
    return any(iv.contains(t) for iv in ivs)


def _point(t):
    t = Fraction(t)
    return Interval(t, True, t, True)


def _probes(sets):
    pts = {Fraction(0)}
    for s in sets:
        for iv in s:
            for b in (iv.lo, iv.hi):
                if b is not None:
                    pts.update((b - 1, b - Fraction(1, 16), b, b + Fraction(1, 16), b + 1))
    return pts


def _assert_maximal_and_sorted(s):
    ivs = s.intervals
    for cur, nxt in zip(ivs, ivs[1:]):
        assert cur.hi is not None and nxt.lo is not None
        # disjoint, ordered, and not mergeable (a real gap in between)
        assert cur.hi < nxt.lo or (
            cur.hi == nxt.lo and not cur.hi_closed and not nxt.lo_closed
        )


@given(interval_lists, interval_lists)
def test_interval_set_algebra_matches_membership(a, b):
    fa, fb = indicator(IntervalSet(tuple(a))), indicator(IntervalSet(tuple(b)))
    union, inter, comp = or_(fa, fb), and_(fa, fb), not_(fa)
    for t in _probes([a, b]):
        assert union.eval(t) == (_member(a, t) or _member(b, t))
        assert inter.eval(t) == (_member(a, t) and _member(b, t))
        assert comp.eval(t) == (not _member(a, t))


@given(interval_sets())
def test_interval_set_maximal_and_sorted(s):
    _assert_maximal_and_sorted(s)


@given(touching_intervals())
@example(
    [
        Interval(Fraction(1), True, Fraction(2), False),
        Interval(Fraction(0), False, Fraction(1), False),
        Interval(Fraction(2), False, Fraction(3), True),
    ]
)
def test_indicator_membership_on_raw_intervals(ivs):
    f = indicator(IntervalSet(tuple(ivs)))
    for t in _probes([ivs]):
        assert f.eval(t) == _member(ivs, t)
    _assert_maximal_and_sorted(one_set(f))


def test_union_merges_adjacent():
    a = indicator(IntervalSet((Interval(Fraction(0), False, Fraction(1), False),)))
    b = indicator(IntervalSet((Interval(Fraction(1), True, Fraction(2), True),)))
    assert str(one_set(or_(a, b))) == "(0, 2]"
    # open-open at the same point does not merge: 1 is missing
    c = indicator(IntervalSet((Interval(Fraction(1), False, Fraction(2), False),)))
    assert len(one_set(or_(a, c))) == 2


# ---------------------------------------------------------------------------
# StepFn construction and evaluation
# ---------------------------------------------------------------------------


def test_eval_and_value_after(x_210):
    assert [x_210.eval(t) for t in (-1, 0, Fraction(1, 2), 1, 2, Fraction(5, 2), 3, 4)] == [
        0, 1, 1, 0, 1, 1, 0, 0,
    ]
    assert x_210.value_after(0) == 1
    assert x_210.value_after(1) == 0
    assert x_210.eval("1/2") == 1


def test_canonical_uniqueness():
    # the same function built three ways collapses to one representation
    a = from_changes([(Fraction(0), 1), (Fraction(1), 0)])
    b = canonical(0, [(Fraction(0), 1, 1), (Fraction(1, 2), 1, 1), (Fraction(1), 0, 0)])
    c = from_changes([(Fraction(0), 1), (Fraction(1, 2), 1), (Fraction(1), 0)])
    assert a == b == c
    assert a.times == (0, 1)


def test_noncanonical_rejected():
    with pytest.raises(ConstructionError):
        StepFn(0, (Fraction(1),), (0,), (0,))  # removable breakpoint
    with pytest.raises(ConstructionError):
        StepFn(0, (Fraction(1), Fraction(1)), (1, 1), (1, 1))  # not increasing
    with pytest.raises(ConstructionError):
        StepFn(0, (0.5,), (1,), (1,))  # float breakpoint


def test_isolated_point_and_gap():
    spike = canonical(0, [(Fraction(1), 1, 0)])
    assert spike.eval(1) == 1 and spike.eval(Fraction(9, 10)) == 0
    gap = canonical(1, [(Fraction(1), 0, 1)])
    assert gap.eval(1) == 0 and gap.eval(2) == 1


@given(stepfns(), stepfns())
def test_pointwise_ops_match_truth_tables(f, g):
    for t in probe_grid([f, g]):
        assert not_(f).eval(t) == 1 - f.eval(t)
        assert and_(f, g).eval(t) == (f.eval(t) & g.eval(t))
        assert or_(f, g).eval(t) == (f.eval(t) | g.eval(t))
        assert xor(f, g).eval(t) == (f.eval(t) ^ g.eval(t))
        # violation_set holds the t >= 0 where the implication f <= g fails
        assert _member(violation_set(f, g), t) == (t >= 0 and not ((1 - f.eval(t)) | g.eval(t)))


@st.composite
def overlapping_pairs(draw):
    """Two general StepFns drawing their breakpoints from one shared pool, so
    that coinciding breakpoints are common."""
    pool = sorted(draw(st.sets(fractions_st, max_size=12)))

    def pick():
        times = [t for t in pool if draw(st.booleans())]
        return canonical(draw(bits_st), [(t, draw(bits_st), draw(bits_st)) for t in times])

    return pick(), pick()


@given(overlapping_pairs())
def test_merge_kernel_matches_eval_oracle(pair):
    f, g = pair
    assert and_(f, g) == pointwise_eval("and", f, g)
    assert or_(f, g) == pointwise_eval("or", f, g)
    assert xor(f, g) == pointwise_eval("xor", f, g)
    # violation_set's lhs-and-not-rhs merge is the complement of f <= g
    fails = pointwise_eval("not", pointwise_eval("leq", f, g))
    assert violation_set(f, g) == one_set_pieces(pointwise_eval("and", fails, NONNEG))
    assert not_(f) == pointwise_eval("not", f)
    assert left_limit(f) == left_limit_pieces(f)


@given(stepfns(), stepfns())
def test_boolean_laws(f, g):
    assert not_(not_(f)) == f
    assert and_(f, f) == f
    assert or_(f, f) == f
    assert not_(and_(f, g)) == or_(not_(f), not_(g))
    assert xor(f, g) == and_(or_(f, g), not_(and_(f, g)))
    assert and_(f, not_(f)) == constant(0)
    assert or_(f, not_(f)) == constant(1)


def test_named_ops_on_example(x_210):
    assert not_(x_210) == StepFn(1, x_210.times, (0, 1, 0, 1), (0, 1, 0, 1))
    assert and_(x_210, x_210) == x_210
    assert or_(x_210, not_(x_210)) == constant(1)
    assert xor(x_210, x_210) == constant(0)


@given(stepfns(), fractions_st)
def test_shift(f, d):
    g = shift(f, d)
    for t in probe_grid([g]):
        assert g.eval(t) == f.eval(t - d)
    assert shift(g, -d) == f


# ---------------------------------------------------------------------------
# Left limits and derivatives
# ---------------------------------------------------------------------------


def test_left_limit_frozen(x_210):
    # 1 exactly on (0,1] u (2,3]
    times = tuple(Fraction(t) for t in (0, 1, 2, 3))
    assert left_limit(x_210) == StepFn(0, times, (0, 1, 0, 1), (1, 0, 1, 0))


@given(stepfns())
def test_left_limit_matches_oracle(f):
    g = left_limit(f)
    for t in probe_grid([f]):
        assert g.eval(t) == left_limit_at(f, t)


@given(stepfns())
def test_left_limit_idempotent_and_preserves_intervals(f):
    g = left_limit(f)
    assert left_limit(g) == g
    for t, v, w in zip(f.times, f.point_values, f.interval_values):
        assert g.value_after(t) == w
    assert g.before == f.before


def test_derivative_frozen(x_210):
    times = tuple(Fraction(t) for t in (0, 1, 2, 3))
    assert derivative(x_210) == StepFn(0, times, (1, 1, 1, 1), (0, 0, 0, 0))
    rise, fall = semi_derivatives(x_210)
    assert one_set(rise) == IntervalSet((_point(0), _point(2)))
    assert one_set(fall) == IntervalSet((_point(1), _point(3)))


@given(stepfns())
def test_derivative_decomposition(f):
    rise, fall = semi_derivatives(f)
    assert or_(rise, fall) == derivative(f)
    assert and_(rise, fall) == constant(0)


@given(signals())
def test_switch_points_support(x):
    pts = switch_points(x)
    assert list(pts) == sorted(pts)
    assert one_set(derivative(x)) == IntervalSet(tuple(_point(t) for t in pts))
    # each listed point really is a value change
    for t in pts:
        assert left_limit_at(x, t) != x.eval(t)


# ---------------------------------------------------------------------------
# One-sets and indicators
# ---------------------------------------------------------------------------


@given(stepfns())
def test_indicator_inverts_one_set(f):
    assert indicator(one_set(f)) == f


@given(interval_sets())
def test_one_set_inverts_indicator(s):
    assert one_set(indicator(s)) == s


@st.composite
def around_zero(draw):
    """General StepFns whose breakpoints often include 0, so that runs end
    open or closed at 0 or start open there."""
    times = draw(st.sets(fractions_st, max_size=6))
    if draw(st.booleans()):
        times.add(Fraction(0))
    return canonical(draw(bits_st), [(t, draw(bits_st), draw(bits_st)) for t in sorted(times)])


@given(around_zero(), around_zero(), pos_fractions_st)
@example(canonical(1, [(0, 0, 0)]), constant(0), Fraction(1))  # ends open at 0
@example(canonical(1, [(0, 1, 0)]), constant(0), Fraction(1))  # ends closed at 0
@example(canonical(0, [(0, 0, 1)]), constant(0), Fraction(1))  # starts open at 0
@example(canonical(0, [(0, 1, 0), (1, 1, 0)]), constant(0), Fraction(1, 2))  # isolated points
@example(canonical(1, [(-2, 0, 1), (-1, 1, 0), (3, 0, 1)]), canonical(0, [(-1, 1, 1)]), Fraction(2))
def test_run_reader_matches_pieces_oracle(f, g, d):
    assert one_set(f) == one_set_pieces(f)
    assert violation_set(f, g) == violation_set_ops(f, g)
    assert difference_set(f, g) == difference_set_ops(f, g)
    for mode in ("any", "all"):
        for kind in ("co", "oo", "oc"):
            assert window(mode, f, d, kind) == window_pieces(mode, f, d, kind)


def test_one_set_shapes():
    assert str(one_set(chi((0, 1), (5, 0)))) == "[0, 5)"
    assert str(one_set(constant(1))) == "(-inf, inf)"
    assert one_set(constant(0)).is_empty


# ---------------------------------------------------------------------------
# Ordering
# ---------------------------------------------------------------------------


@given(stepfns(), stepfns())
@example(StepFn(0, (Fraction(-6), Fraction(21, 2)), (1, 0), (0, 1)), constant(0))
@example(StepFn(0, (Fraction(-3), Fraction(66, 5)), (1, 0), (0, 1)), constant(0))
def test_violation_set_matches_pointwise(f, g):
    bad = violation_set(f, g)
    grid = [t for t in probe_grid([f, g]) if t >= 0]
    holds = all(f.eval(t) <= g.eval(t) for t in grid)
    assert bad.is_empty == holds
    if not bad.is_empty:
        first = bad.intervals[0]
        w = pick_point(first)
        assert w >= 0 and f.eval(w) == 1 and g.eval(w) == 0
        assert first.contains(w)
        # least: no violation strictly before the first interval
        for t in grid:
            if f.eval(t) == 1 and g.eval(t) == 0:
                assert not _strictly_before(t, first)


def _strictly_before(t, iv):
    if iv.lo is None:
        return False
    return t < iv.lo or (t == iv.lo and not iv.lo_closed)


def test_violation_set_ignores_negative_times():
    f = canonical(1, [(Fraction(0), 0, 0)])  # 1 only before 0
    assert violation_set(f, constant(0)).is_empty


@given(interval_sets())
def test_pick_point_membership(s):
    for iv in s:
        assert iv.contains(pick_point(iv))


# ---------------------------------------------------------------------------
# Signal predicates
# ---------------------------------------------------------------------------


def test_require_signal_clauses():
    require_signal(chi((0, 1), (3, 0)))
    with pytest.raises(DomainError, match="input is not a signal: value 1 before the first breakpoint"):
        require_signal(constant(1))
    with pytest.raises(DomainError, match="breakpoint at -1 is negative"):
        require_signal(chi((-1, 1)))
    with pytest.raises(DomainError, match="output is not a signal: not right-continuous at 1"):
        require_signal(canonical(0, [(Fraction(1), 1, 0)]), "output")
    require_signal(constant(0))


def test_runs_partition_line(x_210):
    runs = right_continuous_runs(x_210)
    assert runs == [
        (None, 0, 0), (0, 1, 1), (1, 2, 0), (2, 3, 1), (3, None, 0),
    ]
    with pytest.raises(DomainError):
        right_continuous_runs(canonical(0, [(Fraction(0), 1, 0)]))


@given(stepfns())
def test_difference_set_symmetry(f):
    g = not_(f)
    d = difference_set(f, g)
    assert d == difference_set(g, f)
    for t in [t for t in probe_grid([f]) if t >= 0]:
        assert _member(d, t)
