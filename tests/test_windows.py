from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bsig import (
    ParameterError,
    and_,
    any_over_offsets,
    constant,
    derivative,
    left_limit,
    not_,
    one_set,
    window,
)
from conftest import chi, pos_fractions_st, signals, stepfns
from oracles import any_over_offsets_at, exists_all_at, probe_grid, window_at

KINDS = ("co", "oo", "oc")


# ---------------------------------------------------------------------------
# Fixed shapes
# ---------------------------------------------------------------------------


def test_window_all_frozen_shapes():
    f = chi((0, 1), (3, 0))
    assert str(one_set(window("all", f, 1, "co"))) == "[1, 3]"
    assert str(one_set(window("all", f, 1, "oo"))) == "[1, 3]"
    assert str(one_set(window("all", f, 1, "oc"))) == "[1, 3)"
    assert str(one_set(window("any", f, 1, "co"))) == "(0, 4)"
    assert window("all", f, 4, "co") == constant(0)


def test_window_on_constants():
    assert window("all", constant(1), 2) == constant(1)
    assert window("all", constant(0), 2) == constant(0)
    assert window("any", constant(0), 2) == constant(0)


def test_window_rejects():
    with pytest.raises(ParameterError):
        window("all", constant(1), 0)
    with pytest.raises(ParameterError):
        window("all", constant(1), -1)
    with pytest.raises(ParameterError):
        window("sup", constant(1), 1)
    with pytest.raises(ParameterError):
        window("all", constant(1), 1, "cc")


# ---------------------------------------------------------------------------
# Oracle agreement
# ---------------------------------------------------------------------------


@given(stepfns(), pos_fractions_st, st.sampled_from(KINDS), st.sampled_from(("all", "any")))
def test_window_matches_sampling_oracle(f, d, kind, mode):
    w = window(mode, f, d, kind)
    for t in probe_grid([f, w], pad=d + 1):
        assert w.eval(t) == window_at(mode, f, d, kind, t), (t, str(w))


@given(
    stepfns(),
    pos_fractions_st,
    st.fractions(min_value=0, max_value=4, max_denominator=8),
    st.sampled_from(KINDS),
)
def test_window_exists_all_reduces_and_matches(f, b, extra, kind):
    # window-ALL is monotone in its start, so of the starts in [t-a, t-b]
    # the latest one, t-b, decides
    a = b + extra
    w = window("all", f, b, kind)
    for t in probe_grid([f, w], pad=a + 1):
        assert w.eval(t) == exists_all_at(f, a, b, kind, t)


@given(
    stepfns(),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    st.fractions(min_value=0, max_value=4, max_denominator=4),
    st.booleans(),
    st.booleans(),
)
def test_any_over_offsets_matches_oracle(f, lo, width, lo_c, hi_c):
    hi = lo + width
    if width == 0:
        lo_c = hi_c = True
    g = any_over_offsets(f, lo, hi, lo_c, hi_c)
    for t in probe_grid([f, g], pad=abs(lo) + abs(hi) + 1):
        assert g.eval(t) == any_over_offsets_at(f, lo, hi, lo_c, hi_c, t)


# ---------------------------------------------------------------------------
# Algebraic properties
# ---------------------------------------------------------------------------


@given(stepfns(), pos_fractions_st, pos_fractions_st, st.sampled_from(KINDS))
def test_window_monotone_in_width(f, d_small, extra, kind):
    d_big = d_small + extra
    wide = window("all", f, d_big, kind)
    narrow = window("all", f, d_small, kind)
    # a wider held requirement is harder: wide <= narrow everywhere
    assert and_(wide, not_(narrow)) == constant(0)


@given(stepfns(), pos_fractions_st, st.sampled_from(KINDS))
def test_window_duality(f, d, kind):
    assert window("any", f, d, kind) == not_(window("all", not_(f), d, kind))
    assert window("all", f, d, kind) == not_(window("any", not_(f), d, kind))


@given(signals(), pos_fractions_st)
def test_held_window_vs_derivative_identity(i, d):
    # held-1 through [t-d, t) == arrived at 1 and no switch inside (t-d, t)
    quiet = not_(window("any", derivative(i), d, "oo"))
    assert window("all", i, d, "co") == and_(left_limit(i), quiet)
    assert window("all", not_(i), d, "co") == and_(not_(left_limit(i)), quiet)


def test_identity_concrete():
    i = chi((0, 1))
    assert str(one_set(window("all", i, 1, "co"))) == "[1, inf)"
    assert str(one_set(and_(left_limit(i), not_(window("any", derivative(i), 1, "oo"))))) == "[1, inf)"
