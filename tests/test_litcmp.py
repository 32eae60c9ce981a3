from fractions import Fraction

import pytest
from hypothesis import given, settings

from bsig import (
    CLAIMS,
    DelayParams,
    DetParams,
    FuzzConfig,
    Interval,
    ParameterError,
    check_fixture,
    constant,
    counterexample,
    fuzz_claims,
    lit_verify,
)
from conftest import chi, delay_params, signals
from oracles import lit_b_verdict, lit_c_verdict

# ---------------------------------------------------------------------------
# Event-anchored conditions
# ---------------------------------------------------------------------------


def test_lit_verify_trivial_pair():
    p = DelayParams(1, 2, 1, 2)
    for cond in "abc":
        assert lit_verify(constant(0), constant(0), p, cond).passed


def test_lit_verify_held_input_silent_output():
    # no output edge means nothing to anchor, so condition b is vacuous
    fx = counterexample("5.3")
    assert lit_verify(fx.i, fx.o, fx.p, "a").passed
    assert lit_verify(fx.i, fx.o, fx.p, "b").passed
    # but the input rise at 0 is never answered
    assert not lit_verify(fx.i, fx.o, fx.p, "c").passed


def test_lit_verify_pulse_witness_interval():
    fx = counterexample("5.4")
    rep = lit_verify(fx.i, fx.o, fx.p, "c")
    assert not rep.passed
    v = rep.violations[0]
    assert v.witness == Interval(Fraction(2), False, Fraction(4), True)
    assert v.clause.startswith("5.1c.fall")


def test_lit_verify_null_clause():
    p = DelayParams(1, 2, 1, 2)
    rep = lit_verify(chi((0, 1)), chi(("1/2", 1)), p, "a")
    assert not rep.passed and rep.violations[0].witness == Fraction(1, 2)


def test_anchored_window_boundaries():
    i = chi((0, 1))
    p = DelayParams(1, 2, 1, 2)
    for t0 in ("1", "3/2", "2"):
        assert lit_verify(i, chi((t0, 1)), p, "b").passed
    for t0 in ("1/2", "5/2"):
        rep = lit_verify(i, chi((t0, 1)), p, "b")
        assert not rep.passed
        assert rep.violations[0].witness == Fraction(t0)
        assert "rise" in rep.violations[0].clause


def test_lit_verify_rejects():
    with pytest.raises(ParameterError):
        lit_verify(constant(0), constant(0), DelayParams(1, 2, 1, 2), "d")
    with pytest.raises(ParameterError):
        lit_verify(constant(0), constant(0), DetParams(1, 1), "b")


@given(signals(max_points=5), signals(max_points=5), delay_params())
def test_cond_b_matches_quantifier_oracle(i, o, p):
    assert lit_verify(i, o, p, "b").verdict == lit_b_verdict(i, o, p)


@given(signals(max_points=5), signals(max_points=5), delay_params())
def test_cond_c_matches_quantifier_oracle(i, o, p):
    assert lit_verify(i, o, p, "c").verdict == lit_c_verdict(i, o, p)


# ---------------------------------------------------------------------------
# Pinned fixtures
# ---------------------------------------------------------------------------


def test_fixtures_reproduce():
    for cid in ("5.3", "5.4"):
        fx = counterexample(cid)
        assert fx.name == cid
        reports = check_fixture(fx)
        assert set(reports) == set(fx.expected)
        assert {k: r.verdict for k, r in reports.items()} == fx.expected


def test_fixture_with_other_parameters():
    for p in (DelayParams(1, 3, 1, 2), DelayParams("1/2", "5/2", 1, 1)):
        fx = counterexample("5.3", p)
        assert {k: r.verdict for k, r in check_fixture(fx).items()} == fx.expected


def test_fixture_witness_is_max_rise_delay():
    for p in (DelayParams(1, 2, 1, 2), DelayParams(1, 3, 1, 2), DelayParams(2, 5, 1, 1)):
        fx = counterexample("5.3", p)
        rep = check_fixture(fx)["4.1a"]
        assert rep.violations[0].witness == p.d_r_max


def test_counterexample_rejects_unknown_id():
    with pytest.raises(ParameterError):
        counterexample("5.5")


def test_check_fixture_rejects_unknown_condition():
    fx = counterexample("5.3")
    bad = type(fx)(fx.name, fx.i, fx.o, fx.p, {"9.9": "PASS"})
    with pytest.raises(ParameterError):
        check_fixture(bad)


# ---------------------------------------------------------------------------
# Fuzz campaign
# ---------------------------------------------------------------------------


def test_fuzz_config_validation():
    with pytest.raises(ParameterError):
        FuzzConfig(trials=0)


def test_fuzz_claims_deterministic_and_clean():
    cfg = FuzzConfig(trials=60, seed=7)
    a = fuzz_claims(cfg)
    b = fuzz_claims(cfg)
    assert a == b
    assert a.passed and a.refutations == ()
    # the four claims hold universally, so every trial confirms each
    assert a.confirmations == {claim: cfg.trials for claim in CLAIMS}


def test_fuzz_claims_other_seed_also_clean():
    rep = fuzz_claims(FuzzConfig(trials=40, seed=2))
    assert rep.passed and rep.strictness_examples >= 0
