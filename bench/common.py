"""The job record every workload builds, and result fingerprints.

A job is one closed-loop request: `call` is the only timed part; `collect`,
`check` and `fingerprint` run after the measured passes. `bp` counts the
breakpoints of the job's input signals (for report jobs: violations).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional


@dataclass
class Job:
    name: str  # span name: <layer>.<function>[.<form>]
    call: Callable[[], Any]
    bp: int
    check: Callable[[Any], Optional[str]]  # None when the result is right
    fingerprint: Callable[[Any], str]
    replay: Optional[Callable[[Any, Any], None]] = None  # (tracer, result), traced runs only
    collect: Optional[Callable[[Any], Any]] = None  # untimed post-processing of the raw result
    trials: int = 0
    bytes_in: int = 0


def changes_of(f):
    """Change list of a right-continuous StepFn (what a signal's .bsig holds)."""
    return list(zip(f.times, f.interval_values))


def signal_fp(f) -> str:
    return f"S{f.before}|" + ",".join(
        f"{t}:{v}{w}" for t, v, w in zip(f.times, f.point_values, f.interval_values)
    )


def report_fp(r) -> str:
    return f"R{r.condition}:{r.verdict}|" + ";".join(
        f"{v.witness}|{v.lhs}{v.rhs}|{v.clause}" for v in r.violations
    )


def text_fp(text: str) -> str:
    return "T" + hashlib.sha256(text.encode()).hexdigest()


def witness_time(w) -> Fraction:
    return w if isinstance(w, Fraction) else w.lo


def expect_verdict(report, first: Optional[Fraction]) -> Optional[str]:
    """PASS when first is None, else FAIL whose earliest witness is at first."""
    if first is None:
        if report.passed:
            return None
        got = min(witness_time(v.witness) for v in report.violations)
        return f"{report.condition}: expected PASS, got FAIL at {got}"
    if report.passed:
        return f"{report.condition}: expected FAIL at {first}, got PASS"
    got = min(witness_time(v.witness) for v in report.violations)
    return None if got == first else f"{report.condition}: first witness {got}, planted {first}"


def expect_changes(f, want) -> Optional[str]:
    got = changes_of(f)
    if f.before == 0 and got == want and all(v == w for v, w in zip(f.point_values, f.interval_values)):
        return None
    diff = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return f"output differs from the reference walk at change {diff} ({len(got)} vs {len(want)} changes)"
