"""The checkers run on integer ticks: their reports must be byte-identical to
the Fraction-path checkers in oracles.py, their witnesses exact rationals,
and every StepFn the kernel builds without checks must pass the checks."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bsig import (
    DelayParams,
    DetParams,
    Interval,
    SamplePolicy,
    StepFn,
    and_,
    any_over_offsets,
    canonical,
    check_inertia,
    check_stability,
    derivative,
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
    or_,
    parse_bsig,
    semi_derivatives,
    shift,
    window,
    write_bsig,
    write_report,
    xor,
)
from bsig.buffer import _MAX_TICK_BITS, _ticks
from conftest import fractions_st, pos_fractions_st, signals, stepfns
from oracles import didb_verify_fractions, lit_verify_fractions, nidb_verify_fractions

QUARTERS = (4,)
COPRIME = (3, 5, 7, 11, 13)


@st.composite
def ticked_times(draw, denominators, horizon=12):
    q = draw(st.sampled_from(denominators))
    return Fraction(draw(st.integers(0, horizon * q)), q)


@st.composite
def ticked_signals(draw, denominators, max_points=8):
    times = sorted(draw(st.sets(ticked_times(denominators), max_size=max_points)))
    return from_changes((t, 1 - k % 2) for k, t in enumerate(times))


@st.composite
def ticked_params(draw, denominators):
    def band():
        q = draw(st.sampled_from(denominators))
        a, b = (Fraction(draw(st.integers(1, 3 * q)), q) for _ in range(2))
        return min(a, b), max(a, b)

    return DelayParams(*band(), *band())


@st.composite
def pairs(draw):
    """(i, o, p): denominators k/4 or a mix of 3/5/7/11/13, and o either
    independent of i or an output the library computes from it."""
    denominators = draw(st.sampled_from((QUARTERS, COPRIME)))
    i = draw(ticked_signals(denominators))
    p = draw(ticked_params(denominators))
    how = draw(st.sampled_from(("general", "simulated", "sampled")))
    if how == "general":
        o = draw(ticked_signals(denominators))
    elif how == "simulated":
        o = didb_simulate(i, DetParams(p.d_r_min, p.d_f_min))
    else:
        o = nidb_sample(i, p, SamplePolicy.random(draw(st.integers(0, 99)), 4))
    return i, o, p


def _reports(i, o, p):
    """(tick report, Fraction report) for every checker and form."""
    det = DetParams(p.d_r_min, p.d_f_min)
    for form in ("a", "b"):
        yield nidb_verify(i, o, p, form), nidb_verify_fractions(i, o, p, form)
    for form in ("a", "b", "c", "d", "all"):
        yield didb_verify(i, o, det, form), didb_verify_fractions(i, o, det, form)
    for cond in ("a", "b", "c"):
        yield lit_verify(i, o, p, cond), lit_verify_fractions(i, o, p, cond)


@given(pairs())
def test_reports_match_fraction_checkers(pair):
    i, o, p = pair
    for tick, fraction in _reports(i, o, p):
        assert write_report(tick) == write_report(fraction)


def _primes(n):
    """The first n primes."""
    limit = 16 * n + 16
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for k in range(2, int(limit**0.5) + 1):
        if sieve[k]:
            sieve[k * k :: k] = bytearray(len(range(k * k, limit, k)))
    return [k for k, bit in enumerate(sieve) if bit][:n]


@pytest.mark.parametrize(
    "exponents, on_ticks",
    [((4253, 4423), True), ((4253, 4423, 9689), False)],  # 8676 and 18365 bits of lcm
)
def test_reports_match_on_huge_denominators(exponents, on_ticks):
    mersenne = [2**e - 1 for e in exponents]  # Mersenne primes
    i = from_changes((2 * k + 1 + Fraction(1, q), 1 - k % 2) for k, q in enumerate(mersenne))
    p = DelayParams(1, 2, 1, 2)
    reports = []
    for o in (didb_simulate(i, DetParams(1, 1)), from_changes([(Fraction(1, mersenne[-1]), 1)])):
        scale, _, _ = _ticks((i, o), (p.d_r_min, p.d_r_max, p.d_f_min, p.d_f_max))
        assert (scale > 1) == on_ticks and scale.bit_length() <= _MAX_TICK_BITS
        reports += _reports(i, o, p)
    assert any(tick.passed for tick, _ in reports) and any(not tick.passed for tick, _ in reports)
    for tick, fraction in reports:
        assert write_report(tick) == write_report(fraction)


def test_scale_bound_keeps_checkers_fast():
    # one prime denominator per breakpoint: without the bound the ticks grow
    # with every prime (3.1 s against 0.34 s on a 2-vCPU Xeon)
    n = 10_000
    primes = _primes(n)
    i = from_changes((2 * k + 1 + Fraction(1, primes[k]), 1 - k % 2) for k in range(n))
    o = didb_simulate(i, DetParams(1, 2))
    assert _ticks((i, o), ())[0] == 1
    start = time.perf_counter()
    assert nidb_verify(i, o, DelayParams(1, 2, 1, 2), "a").passed
    assert didb_verify(i, o, DetParams(1, 2), "all").passed
    assert time.perf_counter() - start < 1.5


def _witness_is_exact(w):
    if isinstance(w, Interval):
        return all(end is None or type(end) is Fraction for end in (w.lo, w.hi))
    return type(w) is Fraction


@given(pairs())
def test_witnesses_are_exact_rationals(pair):
    i, o, p = pair
    reports = [tick for tick, _ in _reports(i, o, p)]
    reports += [check_stability(i, o, p), check_inertia(i, DetParams(p.d_r_min, p.d_f_min))]
    for report in reports:
        for v in report.violations:
            assert _witness_is_exact(v.witness), v


def _checked(f: StepFn) -> StepFn:
    """f rebuilt through the public, checking constructor."""
    return StepFn(f.before, f.times, f.point_values, f.interval_values)


@given(stepfns(), stepfns(), pos_fractions_st, fractions_st, fractions_st)
def test_kernel_results_pass_the_public_checks(f, g, d, a, b):
    lo, hi = min(a, b), max(a, b)
    results = [
        not_(f), and_(f, g), or_(f, g), xor(f, g), shift(f, a), left_limit(f), derivative(f),
        *semi_derivatives(f), indicator(one_set(f)), any_over_offsets(f, lo, hi),
        any_over_offsets(f, lo, hi, lo == hi, lo == hi),
        canonical(f.before, zip(f.times, f.point_values, f.interval_values)),
    ]
    results += [window(mode, f, d, kind) for mode in ("all", "any") for kind in ("co", "oo", "oc")]
    for r in results:
        assert _checked(r) == r


@given(signals(), st.integers(0, 99))
def test_signal_results_pass_the_public_checks(x, seed):
    p = DelayParams(1, 2, Fraction(1, 2), 3)
    for r in (didb_simulate(x, DetParams(1, 2)), nidb_sample(x, p, SamplePolicy.random(seed, 4)),
              parse_bsig(write_bsig(x))):
        assert _checked(r) == r
