"""An event-anchored variant of the delay-buffer conditions, and the bridge
between it and the window-based conditions.

The variant characterizes admissible outputs by where each output edge's
anchoring input edge sits (condition b) and by which future window must
answer each input edge (condition c), instead of by held-input windows. The
two families are not interchangeable: the window conditions imply condition
b but not conversely, and condition c can fail on pairs the window
conditions accept. Both directions are pinned here as executable fixtures
("5.3", "5.4") and exercised by a seeded fuzz campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional

from .buffer import (
    DelayParams,
    DetParams,
    Report,
    SamplePolicy,
    Violation,
    _leq_clause,
    _report,
    didb_verify,
    nidb_sample,
    nidb_verify,
)
from .stepfn import (
    Interval,
    IntervalSet,
    ParameterError,
    StepFn,
    and_,
    any_over_offsets,
    as_time,
    constant,
    derivative,
    difference_set,
    from_changes,
    indicator,
    left_limit,
    not_,
    or_,
    pick_point,
    require_signal,
    right_continuous_runs,
    semi_derivatives,
    violation_set,
    window,
)

__all__ = [
    "Fixture",
    "FuzzConfig",
    "FuzzReport",
    "GenConfig",
    "Refutation",
    "check_fixture",
    "counterexample",
    "fuzz_claims",
    "lit_verify",
    "random_signal",
]


# ---------------------------------------------------------------------------
# Condition checkers
# ---------------------------------------------------------------------------


def _anchored_response(i: StepFn, d_min: Fraction, d_max: Fraction, rise: bool) -> StepFn:
    """1 at t iff some t' in [t-d_max, t-d_min] starts a held run of i.

    The quantified condition asks for an anchor t' where i arrives at the
    run's value and holds it through [t', t); inside a constant run only the
    run's first instant can anchor, so t qualifies iff it lies within
    [s + d_min, s + d_max] for a run [s, e) and the run covers [s, t), i.e.
    t <= e. That collapses the quantifier to one closed interval per run.
    """
    target = 1 if rise else 0
    pieces = []
    for s, e, value in right_continuous_runs(i):
        if value != target or s is None:
            continue
        lo = s + d_min
        hi = s + d_max if e is None else min(s + d_max, e)
        if lo <= hi:
            pieces.append(Interval(lo, True, hi, True))
    return indicator(IntervalSet(tuple(pieces)))


def _future_window_clause(
    clause: str,
    edge_name: str,
    lhs: StepFn,
    rhs: StepFn,
    d_min: Fraction,
    d_max: Fraction,
) -> list[Violation]:
    """Violations of lhs <= rhs where rhs searches the future window after
    each lhs edge; the searched window (t, t+d_max] is reported as the
    witness and the edge instant t appears in the clause text."""
    out = []
    for iv in violation_set(lhs, rhs):
        t = pick_point(iv)
        out.append(
            Violation(
                Interval(t, False, t + d_max, True),
                1,
                0,
                f"{clause}: {edge_name} at {t} unanswered in ({t}, {t + d_max}) "
                f"or [{t + d_min}, {t + d_max}]",
            )
        )
    return out


def lit_verify(i: StepFn, o: StepFn, p: DelayParams, cond: str) -> Report:
    """Check an (i, o) pair against the event-anchored conditions a, b, c.

    a: o is null before d_r_min.
    b: each output edge is anchored: an o-rise at t needs a start t' in
       [t-d_r_max, t-d_r_min] where i arrives at 1 and holds it through
       [t', t); falls dual over held-0 runs.
    c: each input edge is answered: an i-rise at t needs either an i-fall in
       the open window (t, t+d_r_max) or an o-rise in the closed window
       [t+d_r_min, t+d_r_max]; falls dual with the fall delays.
    """
    if not isinstance(p, DelayParams):
        raise ParameterError(f"expected DelayParams, got {p!r}")
    if cond not in ("a", "b", "c"):
        raise ParameterError(f"unknown condition {cond!r}")
    require_signal(i, "input")
    require_signal(o, "output")

    if cond == "a":
        return _report(
            "5.1a",
            _leq_clause("5.1a: output not null before d_r_min", o, from_changes([(p.d_r_min, 1)])),
        )
    rise_i, fall_i = semi_derivatives(i)
    rise_o, fall_o = semi_derivatives(o)
    if cond == "b":
        violations = _leq_clause(
            "5.1b.rise: output rise not anchored to a held-1 run start",
            rise_o,
            _anchored_response(i, p.d_r_min, p.d_r_max, rise=True),
        )
        violations += _leq_clause(
            "5.1b.fall: output fall not anchored to a held-0 run start",
            fall_o,
            _anchored_response(i, p.d_f_min, p.d_f_max, rise=False),
        )
        return _report("5.1b", violations)
    rhs_rise = or_(
        any_over_offsets(fall_i, 0, p.d_r_max, False, False),
        any_over_offsets(rise_o, p.d_r_min, p.d_r_max, True, True),
    )
    rhs_fall = or_(
        any_over_offsets(rise_i, 0, p.d_f_max, False, False),
        any_over_offsets(fall_o, p.d_f_min, p.d_f_max, True, True),
    )
    violations = _future_window_clause(
        "5.1c.rise", "input rise", rise_i, rhs_rise, p.d_r_min, p.d_r_max
    )
    violations += _future_window_clause(
        "5.1c.fall", "input fall", fall_i, rhs_fall, p.d_f_min, p.d_f_max
    )
    return _report("5.1c", violations)


# ---------------------------------------------------------------------------
# Pinned fixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fixture:
    """A named (i, o, p) triple with the verdict each checker must return."""

    name: str
    i: StepFn
    o: StepFn
    p: DelayParams
    expected: dict[str, str]


def counterexample(cid: str, p: Optional[DelayParams] = None) -> Fixture:
    """The two pinned fixtures separating the condition families.

    "5.3": a held-1 input with a forever-0 output satisfies the anchored
    condition b (no output edges to anchor) yet violates the window form's
    forcing bound from t = d_r_max on.
    "5.4": a one-pulse input too short to force any output satisfies the
    window form, yet its input fall at 2 is never answered, violating
    condition c.
    """
    if cid == "5.3":
        return Fixture(
            "5.3",
            from_changes([(Fraction(0), 1)]),
            constant(0),
            p if p is not None else DelayParams(1, 2, 1, 2),
            {"5.1b": "PASS", "4.1a": "FAIL"},
        )
    if cid == "5.4":
        return Fixture(
            "5.4",
            from_changes([(Fraction(1), 1), (Fraction(2), 0)]),
            constant(0),
            p if p is not None else DelayParams(2, 2, 2, 2),
            {"4.1a": "PASS", "5.1c": "FAIL"},
        )
    raise ParameterError(f"unknown counterexample id {cid!r}")


def check_fixture(fx: Fixture) -> dict[str, Report]:
    """Run every checker named in the fixture's expected map."""
    out: dict[str, Report] = {}
    for key in sorted(fx.expected):
        if key in ("4.1a", "4.1b"):
            out[key] = nidb_verify(fx.i, fx.o, fx.p, key[-1])
        elif key.startswith("4.3"):
            out[key] = didb_verify(fx.i, fx.o, fx.p.det(), key[3:])
        elif key in ("5.1a", "5.1b", "5.1c"):
            out[key] = lit_verify(fx.i, fx.o, fx.p, key[-1])
        else:
            raise ParameterError(f"no checker for condition {key!r}")
    return out


# ---------------------------------------------------------------------------
# Random signals for the fuzz campaign
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenConfig:
    """Bounds for the seeded signal generator: switch times are multiples of
    1/granularity inside [0, horizon], at most max_switches of them."""

    horizon: Fraction = Fraction(8)
    max_switches: int = 6
    granularity: int = 4
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "horizon", as_time(self.horizon))
        if self.horizon < 0:
            raise ParameterError(f"horizon must be >= 0, got {self.horizon}")
        if self.max_switches < 0:
            raise ParameterError(f"max_switches must be >= 0, got {self.max_switches}")
        if self.granularity < 1:
            raise ParameterError(f"granularity must be >= 1, got {self.granularity}")


def random_signal(cfg: GenConfig) -> StepFn:
    """Deterministic-in-seed random signal within the config's bounds."""
    rng = Random(cfg.seed)
    slots = int(cfg.horizon * cfg.granularity) + 1
    n = rng.randint(0, min(cfg.max_switches, slots))
    ticks = sorted(rng.sample(range(slots), n))
    return from_changes((Fraction(t, cfg.granularity), 1 - (k % 2)) for k, t in enumerate(ticks))


# ---------------------------------------------------------------------------
# Fuzz campaign
# ---------------------------------------------------------------------------

CLAIMS = (
    "nidb-a-implies-lit-b",
    "nidb-forms-agree",
    "didb-forms-agree",
    "window-derivative-identities",
)


@dataclass(frozen=True)
class FuzzConfig:
    """Bounds for the claims campaign; the report is a pure function of this."""

    trials: int = 1000
    seed: int = 0
    horizon: Fraction = Fraction(8)
    max_switches: int = 6
    granularity: int = 4
    delay_granularity: int = 4
    max_delay: Fraction = Fraction(3)

    def __post_init__(self):
        if self.trials <= 0:
            raise ParameterError(f"trials must be positive, got {self.trials}")
        object.__setattr__(self, "horizon", as_time(self.horizon))
        object.__setattr__(self, "max_delay", as_time(self.max_delay))
        if self.horizon < 0:
            raise ParameterError(f"horizon must be >= 0, got {self.horizon}")
        if self.granularity < 1 or self.delay_granularity < 1:
            raise ParameterError("granularities must be >= 1")
        if self.max_delay <= 0:
            raise ParameterError(f"max_delay must be positive, got {self.max_delay}")


@dataclass(frozen=True)
class Refutation:
    claim: str
    fixture: Fixture
    detail: str


@dataclass(frozen=True)
class FuzzReport:
    config: FuzzConfig
    confirmations: dict[str, int]
    refutations: tuple[Refutation, ...]
    strictness_examples: int

    @property
    def passed(self) -> bool:
        return not self.refutations


def _draw_delay_pair(rng: Random, cfg: FuzzConfig) -> tuple[Fraction, Fraction]:
    g = cfg.delay_granularity
    top = int(cfg.max_delay * g)
    a = Fraction(rng.randint(1, top), g)
    b = Fraction(rng.randint(1, top), g)
    return min(a, b), max(a, b)


def _trial_pair(rng: Random, cfg: FuzzConfig, k: int, p: DelayParams) -> tuple[StepFn, StepFn]:
    i = random_signal(
        GenConfig(cfg.horizon, cfg.max_switches, cfg.granularity, rng.randrange(2**32))
    )
    mode = k % 4
    if mode == 0:
        o = constant(0)
    elif mode == 3:
        o = random_signal(
            GenConfig(cfg.horizon, cfg.max_switches, cfg.granularity, rng.randrange(2**32))
        )
    else:
        o = nidb_sample(
            i, p, SamplePolicy.random(rng.randrange(2**32), cfg.delay_granularity)
        )
    return i, o


def fuzz_claims(config: FuzzConfig) -> FuzzReport:
    """Seeded campaign over random (i, o, p) triples checking four claims:
    the anchored condition b holds whenever window form a does; the two
    window forms agree; the four deterministic forms agree; and the held-
    window / derivative-window identities hold. Also counts trials where
    condition b passes but form a fails, witnessing that the implication is
    strict.
    """
    confirmations = {claim: 0 for claim in CLAIMS}
    refutations: list[Refutation] = []
    strictness = 0

    def refute(claim: str, k: int, i, o, p, expected: dict[str, str], detail: str):
        refutations.append(
            Refutation(claim, Fixture(f"trial-{k}", i, o, p, expected), detail)
        )

    for k in range(config.trials):
        rng = Random(config.seed * 1_000_003 + k)
        p = DelayParams(*_draw_delay_pair(rng, config), *_draw_delay_pair(rng, config))
        g = config.delay_granularity
        top = int(config.max_delay * g)
        det = DetParams(Fraction(rng.randint(1, top), g), Fraction(rng.randint(1, top), g))
        i, o = _trial_pair(rng, config, k, p)

        ra = nidb_verify(i, o, p, "a")
        rb = nidb_verify(i, o, p, "b")
        lit_b = lit_verify(i, o, p, "b")

        if ra.passed and not lit_b.passed:
            refute(
                "nidb-a-implies-lit-b", k, i, o, p,
                {"4.1a": "PASS", "5.1b": "PASS"},
                f"4.1a={ra.verdict} but 5.1b={lit_b.verdict}",
            )
        else:
            confirmations["nidb-a-implies-lit-b"] += 1
        if lit_b.passed and not ra.passed:
            strictness += 1

        if ra.verdict == rb.verdict:
            confirmations["nidb-forms-agree"] += 1
        else:
            refute(
                "nidb-forms-agree", k, i, o, p,
                {"4.1a": rb.verdict, "4.1b": ra.verdict},
                f"4.1a={ra.verdict} but 4.1b={rb.verdict}",
            )

        didb_reports = [didb_verify(i, o, det, f) for f in "abcd"]
        verdicts = {r.verdict for r in didb_reports}
        if len(verdicts) == 1:
            confirmations["didb-forms-agree"] += 1
        else:
            refute(
                "didb-forms-agree", k, i, o,
                DelayParams(det.d_r, det.d_r, det.d_f, det.d_f),
                {f"4.3{f}": didb_reports[0].verdict for f in "abcd"},
                ", ".join(f"{r.condition}={r.verdict}" for r in didb_reports),
            )

        ok = True
        for f, d in ((i, p.d_r_max), (not_(i), p.d_f_max)):
            lhs = window("all", f, d, "co")
            rhs = and_(left_limit(f), not_(window("any", derivative(f), d, "oo")))
            if not difference_set(lhs, rhs).is_empty:
                ok = False
        if ok:
            confirmations["window-derivative-identities"] += 1
        else:
            refute(
                "window-derivative-identities", k, i, o, p,
                {}, f"held-window identity fails for d in ({p.d_r_max}, {p.d_f_max})",
            )

    return FuzzReport(config, confirmations, tuple(refutations), strictness)
