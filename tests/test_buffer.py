import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from bsig import (
    AutomatonState,
    ConstructionError,
    DelayParams,
    DetParams,
    DomainError,
    ParameterError,
    Report,
    SamplePolicy,
    Violation,
    automaton_trace,
    check_inertia,
    check_stability,
    constant,
    didb_simulate,
    didb_verify,
    from_changes,
    is_signal,
    nidb_sample,
    nidb_verify,
    one_set,
    switch_points,
)
from bsig.buffer import _draw_delay, _unbacked
from conftest import chi, delay_params, det_params, fractions_st, signals
from oracles import (
    automaton_trace_eval,
    backed_scan,
    check_inertia_nested,
    check_stability_nested,
    didb_grid,
    didb_simulate_windows,
    draw_delay_enumerated,
)

# ---------------------------------------------------------------------------
# Parameters and reports
# ---------------------------------------------------------------------------


def test_param_validation():
    with pytest.raises(ParameterError):
        DetParams(0, 1)
    with pytest.raises(ParameterError):
        DetParams(1, -1)
    with pytest.raises(ParameterError):
        DelayParams(2, 1, 1, 1)  # min > max
    with pytest.raises(ParameterError):
        DelayParams(0, 1, 1, 1)
    p = DelayParams("1/2", "1/2", 3, 3)
    assert p.deterministic() and p.det() == DetParams(Fraction(1, 2), 3)
    assert not DelayParams(1, 2, 1, 2).deterministic()
    with pytest.raises(ParameterError):
        DelayParams(1, 2, 1, 2).det()


def test_report_invariants():
    ok = Report("4.3a", "PASS")
    assert ok.passed and not ok.violations
    v = Violation(Fraction(1), 1, 0, "clause")
    bad = Report("4.3a", "FAIL", (v,))
    assert not bad.passed
    with pytest.raises(ConstructionError):
        Report("4.3a", "FAIL", ())  # FAIL needs violations
    with pytest.raises(ConstructionError):
        Report("4.3a", "PASS", (v,))
    with pytest.raises(ConstructionError):
        Report("4.3a", "maybe", ())


# ---------------------------------------------------------------------------
# Deterministic simulation
# ---------------------------------------------------------------------------


def test_didb_simulate_frozen_examples():
    assert didb_simulate(chi((1, 1), (2, 0)), DetParams(2, 2)) == constant(0)
    assert didb_simulate(constant(0), DetParams(1, 1)) == constant(0)
    assert didb_simulate(chi((0, 1), (5, 0)), DetParams(1, 2)) == chi((1, 1), (7, 0))
    # held-forever input: switch exactly at the rise delay
    assert didb_simulate(chi((0, 1)), DetParams("3/2", 1)) == chi(("3/2", 1))


def test_didb_simulate_rejects_non_signal():
    with pytest.raises(DomainError):
        didb_simulate(constant(1), DetParams(1, 1))


@given(signals(), det_params())
def test_didb_output_is_conformant_signal(i, p):
    o = didb_simulate(i, p)
    assert is_signal(o)[0]
    assert didb_verify(i, o, p, "all").passed


aligned_signals = st.builds(
    lambda ks: from_changes(
        (Fraction(k, 8), 1 - (n % 2)) for n, k in enumerate(sorted(ks))
    ),
    st.sets(st.integers(0, 64), max_size=8),
)
aligned_delays = st.builds(
    lambda a, b: DetParams(Fraction(a, 8), Fraction(b, 8)),
    st.integers(1, 24),
    st.integers(1, 24),
)


@given(aligned_signals, aligned_delays)
def test_didb_matches_grid_recursion(i, p):
    assert didb_simulate(i, p) == didb_grid(i, p.d_r, p.d_f, Fraction(1, 8))


@given(signals(max_points=10), det_params())
def test_didb_simulate_matches_window_oracle(i, p):
    assert didb_simulate(i, p) == didb_simulate_windows(i, p)


# ---------------------------------------------------------------------------
# Deterministic verification
# ---------------------------------------------------------------------------


def test_didb_verify_examples():
    assert didb_verify(chi((1, 1), (2, 0)), constant(0), DetParams(2, 2), "all").passed
    rep = didb_verify(chi((0, 1)), chi(("1/2", 1)), DetParams(1, 1), "a")
    assert not rep.passed
    assert rep.violations[0].witness == Fraction(1, 2)


def test_didb_verify_init_clause():
    # output rises before the rise delay elapses
    rep = didb_verify(chi((0, 1)), chi(("1/4", 1)), DetParams(1, 1), "d")
    assert not rep.passed
    assert any(v.clause.startswith("init") for v in rep.violations)


def test_didb_verify_form_validation():
    with pytest.raises(ParameterError):
        didb_verify(constant(0), constant(0), DetParams(1, 1), "e")
    # DelayParams accepted when degenerate
    assert didb_verify(constant(0), constant(0), DelayParams(1, 1, 2, 2), "a").passed
    with pytest.raises(ParameterError):
        didb_verify(constant(0), constant(0), DelayParams(1, 2, 1, 2), "a")


@given(signals(max_points=5), signals(max_points=5), det_params())
def test_didb_forms_agree(i, o, p):
    verdicts = {didb_verify(i, o, p, f).verdict for f in "abcd"}
    assert len(verdicts) == 1


# ---------------------------------------------------------------------------
# Banded verification
# ---------------------------------------------------------------------------


def test_nidb_verify_examples():
    p = DelayParams(1, 2, 1, 2)
    assert nidb_verify(chi((0, 1)), chi(("3/2", 1)), p, "a").passed
    rep = nidb_verify(chi((0, 1)), constant(0), p, "a")
    assert not rep.passed
    assert rep.violations[0].witness == p.d_r_max
    assert "rise-lower" in rep.violations[0].clause


def test_nidb_verify_init_clause():
    p = DelayParams(1, 2, 1, 2)
    rep = nidb_verify(chi((0, 1)), chi(("1/2", 1)), p, "b")
    assert not rep.passed
    assert any(v.clause.startswith("init") for v in rep.violations)


def test_nidb_verify_rejects():
    with pytest.raises(ParameterError):
        nidb_verify(constant(0), constant(0), DetParams(1, 1), "a")
    with pytest.raises(ParameterError):
        nidb_verify(constant(0), constant(0), DelayParams(1, 2, 1, 2), "c")


@given(signals(max_points=5), signals(max_points=5), delay_params())
def test_nidb_forms_agree(i, o, p):
    assert nidb_verify(i, o, p, "a").verdict == nidb_verify(i, o, p, "b").verdict


@given(signals(), det_params())
def test_deterministic_conformance_is_simulation(i, p):
    # under a degenerate band the only admissible output is the simulator's
    o = didb_simulate(i, p)
    band = DelayParams(p.d_r, p.d_r, p.d_f, p.d_f)
    assert nidb_verify(i, o, band, "a").passed


@given(signals(max_points=4), signals(max_points=4), det_params())
def test_deterministic_conformance_only_simulation(i, o, p):
    band = DelayParams(p.d_r, p.d_r, p.d_f, p.d_f)
    passed = nidb_verify(i, o, band, "a").passed
    assert passed == (o == didb_simulate(i, p))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


@st.composite
def spaced_cases(draw):
    """(p, i) where every constant run of i outlasts the max delay."""
    p = draw(delay_params())
    top = max(p.d_r_max, p.d_f_max)
    t = draw(st.fractions(min_value=0, max_value=2, max_denominator=8))
    changes = []
    for k in range(draw(st.integers(0, 4))):
        changes.append((t, 1 - (k % 2)))
        t += top + Fraction(1, 8) + draw(
            st.fractions(min_value=0, max_value=2, max_denominator=8)
        )
    return p, from_changes(changes)


@given(spaced_cases())
def test_eager_lazy_bracket_didb(case):
    p, i = case
    assert nidb_sample(i, p, SamplePolicy.eager()) == didb_simulate(
        i, DetParams(p.d_r_min, p.d_f_min)
    )
    assert nidb_sample(i, p, SamplePolicy.lazy()) == didb_simulate(
        i, DetParams(p.d_r_max, p.d_f_max)
    )


def test_sample_examples():
    p = DelayParams(1, 2, 1, 2)
    assert nidb_sample(chi((0, 1)), p, SamplePolicy.eager()) == chi((1, 1))
    assert nidb_sample(chi((0, 1)), p, SamplePolicy.lazy()) == chi((2, 1))
    # a pulse shorter than every rise delay is filtered under any policy
    pulse = chi((1, 1), (2, 0))
    wide = DelayParams("3/2", 3, "3/2", 3)
    for policy in (SamplePolicy.eager(), SamplePolicy.lazy(), SamplePolicy.random(5)):
        assert nidb_sample(pulse, wide, policy) == constant(0)


@given(signals(), delay_params(), st.integers(0, 2**32 - 1))
def test_random_sampling_deterministic_and_conformant(i, p, seed):
    a = nidb_sample(i, p, SamplePolicy.random(seed))
    b = nidb_sample(i, p, SamplePolicy.random(seed))
    assert a == b
    assert nidb_verify(i, a, p, "b").passed


@given(signals(), det_params(), st.integers(0, 999))
def test_random_policy_collapses_when_band_degenerate(i, p, seed):
    band = DelayParams(p.d_r, p.d_r, p.d_f, p.d_f)
    assert nidb_sample(i, band, SamplePolicy.random(seed)) == didb_simulate(i, p)


@given(
    st.fractions(min_value=Fraction(1, 8), max_value=6, max_denominator=12),
    st.fractions(min_value=0, max_value=3, max_denominator=12),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_draw_delay_matches_enumeration(lo, width, granularity, seed):
    hi = lo + width
    policy = SamplePolicy.random(seed, granularity)
    fast, slow = Random(seed), Random(seed)
    for _ in range(3):
        assert _draw_delay(policy, fast, lo, hi) == draw_delay_enumerated(slow, granularity, lo, hi)


def test_wide_band_sampling_is_fast():
    start = time.perf_counter()
    o = nidb_sample(chi((0, 1)), DelayParams(1, 10**5, 1, 1), SamplePolicy.random(7, 16))
    assert time.perf_counter() - start < 0.5
    assert len(switch_points(o)) == 1


def test_sample_policy_validation():
    with pytest.raises(ParameterError):
        SamplePolicy("random")  # no seed
    with pytest.raises(ParameterError):
        SamplePolicy("random", 1, 0)
    with pytest.raises(ParameterError):
        SamplePolicy("sometimes")


# ---------------------------------------------------------------------------
# Traces, stability, inertia
# ---------------------------------------------------------------------------


def test_trace_examples():
    ev = automaton_trace(chi((0, 1)), chi((2, 1)))
    assert [(e.time, e.state.i_bit, e.state.o_bit, e.state.stable) for e in ev] == [
        (0, 1, 0, False),
        (2, 1, 1, True),
    ]
    assert automaton_trace(constant(0), constant(0)) == []
    ev = automaton_trace(chi((1, 1), (2, 0)), constant(0))
    assert [(e.time, e.state.i_bit, e.state.o_bit) for e in ev] == [(1, 1, 0), (2, 0, 0)]


@given(signals(), signals())
def test_trace_times_and_states(i, o):
    ev = automaton_trace(i, o)
    allowed = set(switch_points(i)) | set(switch_points(o))
    prev_state = AutomatonState(0, 0)
    prev_time = None
    for e in ev:
        assert e.time in allowed
        assert prev_time is None or e.time > prev_time
        assert e.state != prev_state
        assert e.state.stable == (e.state.i_bit == e.state.o_bit)
        assert (e.state.i_bit, e.state.o_bit) == (i.eval(e.time), o.eval(e.time))
        prev_state, prev_time = e.state, e.time


@given(signals(max_points=10), signals(max_points=10), det_params())
def test_trace_matches_eval_oracle(i, o, p):
    # shared switch times come from the pair (i, o) and from i's own output
    for out in (o, didb_simulate(i, p)):
        assert automaton_trace(i, out) == automaton_trace_eval(i, out)


def test_automaton_state_invariant():
    assert AutomatonState(1, 1).stable
    assert not AutomatonState(1, 0).stable
    with pytest.raises(ConstructionError):
        AutomatonState(2, 0)


def test_stability_examples():
    p = DelayParams(1, 1, 1, 1)
    rep = check_stability(constant(0), chi((5, 1), (6, 0)), p)
    assert not rep.passed and rep.violations[0].witness == 5
    # agreement reached mid-run also pins the output for the rest of the run
    rep = check_stability(chi((0, 1)), chi((1, 1), (2, 0), (3, 1)), p)
    assert not rep.passed and rep.violations[0].witness == 2
    # leaving a stable stretch exactly at the input's switch is still a breach
    rep = check_stability(chi((0, 1), (2, 0)), chi((1, 1), (2, 0)), p)
    assert not rep.passed and rep.violations[0].witness == 2


@given(signals(), det_params())
def test_stability_holds_for_simulator(i, p):
    o = didb_simulate(i, p)
    band = DelayParams(p.d_r, p.d_r, p.d_f, p.d_f)
    assert check_stability(i, o, band).passed


def test_inertia_examples():
    assert check_inertia(chi((1, 1), (2, 0)), DetParams(2, 2)).passed
    assert check_inertia(constant(0), DetParams(1, 1)).passed


@given(signals(), det_params())
def test_inertia_holds_for_simulator(i, p):
    assert check_inertia(i, p).passed


@given(signals(max_points=10), signals(max_points=10), det_params())
def test_stability_matches_nested_oracle(i, o, p):
    assert check_stability(i, o, p) == check_stability_nested(i, o)


@given(signals(max_points=10), det_params())
def test_inertia_matches_nested_oracle(i, p):
    assert check_inertia(i, p) == check_inertia_nested(i, p)


@given(signals(max_points=10), st.lists(fractions_st, max_size=8), st.fractions(min_value=Fraction(1, 8), max_value=4))
def test_unbacked_matches_scan(x, edges, d):
    edges = sorted(edges)
    for runs in ([(iv.lo, iv.hi) for iv in one_set(x)], [(iv.lo, iv.hi) for iv in one_set(~x)]):
        assert _unbacked(edges, runs, d) == [t for t in edges if not backed_scan(t, runs, d)]


def _alternating(n: int, seed: int):
    rng = Random(seed)
    t = Fraction(0)
    changes = []
    for k in range(n):
        t += Fraction(rng.randint(10, 24), 4)
        changes.append((t, 1 - k % 2))
    return from_changes(changes)


def test_stability_and_inertia_scale_linearly():
    # both were quadratic in the breakpoint count (tens of seconds here)
    i = _alternating(4000, seed=1)
    p = DetParams(1, 2)
    o = didb_simulate(i, p)
    start = time.perf_counter()
    assert check_stability(i, o, p).passed
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    assert check_inertia(i, p).passed
    assert time.perf_counter() - start < 1
