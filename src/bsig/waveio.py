"""Waveform and report persistence.

The native `.bsig` text format carries exact rational change times, so round
trips are bit-exact; VCD export is lossy at isolated points (widened by one
tick) and exists only for external waveform viewers. Reports serialize with
rationals as strings so no consumer ever sees floating point.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import Optional, Union

from .buffer import DelayParams, Report, Violation
from .litcmp import _CHECKERS, Fixture, FuzzConfig, FuzzReport, Refutation
from .stepfn import (
    _MAX_DIGITS,
    _TOO_MANY_DIGITS,
    ConstructionError,
    Interval,
    ParameterError,
    StepFn,
    as_time,
    parse_interval,
    require_signal,
)

__all__ = [
    "ParseError",
    "export_vcd",
    "parse_bsig",
    "parse_report",
    "summarize_report",
    "write_bsig",
    "write_report",
]


class ParseError(ValueError):
    """Malformed `.bsig` text; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# .bsig text
# ---------------------------------------------------------------------------


def parse_bsig(text: str) -> StepFn:
    """Signal from `.bsig` text; canonicalizes redundant entries away.

    The signal is 0 before the first entry; each entry `<time> <bit>`
    switches the value to bit from time on. Comment lines start with `#`;
    a `# bsig N` line must name version 1.
    """
    times: list[Fraction] = []
    bits: list[int] = []
    prev: Optional[Fraction] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("bsig ") and body[5:].strip() != "1":
                raise ParseError(lineno, f"unsupported version line {raw!r}, expected '# bsig 1'")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(lineno, f"expected '<time> <bit>', got {raw!r}")
        try:
            t = as_time(parts[0])
        except ValueError as exc:
            raise ParseError(lineno, str(exc))
        if parts[1] not in ("0", "1"):
            raise ParseError(lineno, f"bit must be 0 or 1, got {parts[1]!r}")
        if t < 0:
            raise ParseError(lineno, f"negative time {t}")
        if prev is not None and t <= prev:
            raise ParseError(lineno, f"times not strictly increasing at {t}")
        prev = t
        bit = int(parts[1])
        if bit != (bits[-1] if bits else 0):  # else the entry is redundant
            times.append(t)
            bits.append(bit)
    # every line is checked and every kept entry switches the value: the
    # fields are canonical
    values = tuple(bits)
    return StepFn._of(0, tuple(times), values, values)


def write_bsig(x: StepFn, name: Optional[str] = None) -> str:
    """`.bsig` text for a signal; inverse of parse_bsig. The optional name
    goes into a `# name:` comment and must fit on that line."""
    require_signal(x, "waveform")
    if name is not None and "".join(name.splitlines()) != name:
        raise ParameterError(f"name {name!r} contains a line break")
    lines = ["# bsig 1"]
    if name is not None:
        lines.append(f"# name: {name}")
    lines += [f"{t} {b}" for t, b in zip(x.times, x.interval_values)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# VCD export
# ---------------------------------------------------------------------------


def _vcd_id(k: int) -> str:
    """The k-th VCD identifier code over the printable characters '!'..'~':
    '!'..'~' for the first 94 signals, then '!!', '!"', ... (bijective base 94).
    """
    code = ""
    k += 1
    while k:
        k, r = divmod(k - 1, 94)
        code = chr(33 + r) + code
    return code


def _digit_count(n: int) -> int:
    """Decimal digits of n > 0, without printing it."""
    d = int(n.bit_length() * 0.30102999566398120)  # floor(log10 n) or one more
    return d + 1 if n >= 10**d else d


def export_vcd(named: list[tuple[str, StepFn]]) -> str:
    """Value-change-dump text for external waveform viewers.

    All breakpoints are scaled by the least common multiple of their
    denominators so ticks are integers and relative gaps survive exactly; the
    scale (and tick offset, when negative times occur) is recorded in the
    header comment. An isolated point value v_k != w_k becomes a change at
    its tick reverted at the next tick, widening the point by one tick; a
    genuine change at that next tick wins over the revert.
    """
    names = [n for n, _ in named]
    if len(set(names)) != len(names):
        raise ParameterError("signal names must be unique")
    for n in names:
        if not n.isidentifier():
            raise ParameterError(f"name {n!r} is not identifier-safe")

    denoms = [t.denominator for _, f in named for t in f.times]
    scale = lcm(*denoms) if denoms else 1
    all_ticks = [int(t * scale) for _, f in named for t in f.times]
    offset = -min(all_ticks) if all_ticks and min(all_ticks) < 0 else 0
    # the last revert sits one tick past the largest tick
    if max(scale, max(all_ticks, default=0) + offset + 1) >= _TOO_MANY_DIGITS:
        raise ParameterError(
            f"VCD tick scale has {_digit_count(scale)} digits: a tick would exceed "
            f"{_MAX_DIGITS} digits"
        )

    ids = {n: _vcd_id(k) for k, (n, _) in enumerate(named)}
    changes: dict[int, dict[str, int]] = {}
    initial: dict[str, int] = {}
    for n, f in named:
        initial[n] = f.before
        per: dict[int, int] = {}
        for t, v, w in zip(f.times, f.point_values, f.interval_values):
            tick = int(t * scale) + offset
            per[tick] = v
            per[tick + 1] = w  # revert (or be overwritten by the next change)
        running = f.before
        for tick in sorted(per):
            if per[tick] != running:
                changes.setdefault(tick, {})[n] = per[tick]
                running = per[tick]

    lines = [
        "$comment",
        f"scale: {scale} ticks per time unit; tick offset: {offset}",
        "isolated point values are widened to one tick",
        "$end",
        "$timescale 1 s $end",
        "$scope module top $end",
    ]
    for n, _ in named:
        lines.append(f"$var wire 1 {ids[n]} {n} $end")
    lines += ["$upscope $end", "$enddefinitions $end", "$dumpvars"]
    for n, _ in named:
        lines.append(f"{initial[n]}{ids[n]}")
    lines.append("$end")
    for tick in sorted(changes):
        lines.append(f"#{tick}")
        for n, _ in named:
            if n in changes[tick]:
                lines.append(f"{changes[tick][n]}{ids[n]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def _witness_parse(s: str) -> Union[Fraction, Interval]:
    if s and s[0] in "([":
        return parse_interval(s)
    return as_time(s)


def _report_doc(r: Report) -> dict:
    return {
        "kind": "report",
        "verdict": r.verdict.lower(),
        "condition": r.condition,
        "violations": [
            {
                "witness": str(v.witness),
                "lhs": v.lhs,
                "rhs": v.rhs,
                "clause": v.clause,
            }
            for v in r.violations
        ],
    }


def _field(doc, key: str, kind: type, where: str):
    """doc[key] checked to be a `kind`; a malformed document raises
    ParameterError naming the field. JSON booleans are not integers here."""
    if not isinstance(doc, dict):
        raise ParameterError(f"{where} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ParameterError(f"{where}: field {key!r} is missing")
    value = doc[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParameterError(
            f"{where}: field {key!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _parsed(parse, doc, key: str, where: str):
    """parse(doc[key]) for a string field; text that does not parse raises
    ParameterError naming the field."""
    text = _field(doc, key, str, where)
    try:
        return parse(text)
    except ConstructionError as exc:
        raise ParameterError(f"{where}: field {key!r}: {exc}") from exc


def _bit_field(doc, key: str, where: str) -> int:
    """doc[key] checked to be the JSON integer 0 or 1."""
    value = _field(doc, key, int, where)
    if value not in (0, 1):
        raise ParameterError(f"{where}: field {key!r} must be 0 or 1, got {json.dumps(value)}")
    return value


def _report_from_doc(doc: dict) -> Report:
    condition = _field(doc, "condition", str, "report")
    verdict = _field(doc, "verdict", str, "report").upper()
    if verdict not in ("PASS", "FAIL"):
        raise ParameterError(f"report: field 'verdict' must be pass or fail, got {doc['verdict']!r}")
    violations = []
    for k, v in enumerate(_field(doc, "violations", list, "report")):
        where = f"report violations[{k}]"
        violations.append(
            Violation(
                _parsed(_witness_parse, v, "witness", where),
                _bit_field(v, "lhs", where),
                _bit_field(v, "rhs", where),
                _field(v, "clause", str, where),
            )
        )
    if (verdict == "FAIL") != bool(violations):
        raise ParameterError(
            f"report: field 'verdict' is {doc['verdict']!r} with {len(violations)} violations"
        )
    return Report(condition, verdict, tuple(violations))


def write_report(r) -> str:
    """Machine-readable JSON document for a Report or a FuzzReport."""
    if isinstance(r, Report):
        doc = _report_doc(r)
    elif isinstance(r, FuzzReport):
        doc = _fuzz_doc(r)
    else:
        raise ParameterError(f"cannot serialize {r!r}")
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def summarize_report(r) -> str:
    """Human text: verdict line plus one line per violation."""
    if isinstance(r, Report):
        lines = [f"{r.condition}: {r.verdict}"]
        for v in r.violations:
            lines.append(f"  witness {v.witness}: lhs={v.lhs} rhs={v.rhs}  [{v.clause}]")
        return "\n".join(lines) + "\n"
    if isinstance(r, FuzzReport):
        lines = [f"fuzz: {r.config.trials} trials, seed {r.config.seed}: "
                 f"{'PASS' if r.passed else 'FAIL'}"]
        for claim in sorted(r.confirmations):
            lines.append(f"  {claim}: {r.confirmations[claim]} confirmations")
        lines.append(f"  strictness examples: {r.strictness_examples}")
        for ref in r.refutations:
            lines.append(f"  REFUTED {ref.claim} on {ref.fixture.name}: {ref.detail}")
        return "\n".join(lines) + "\n"
    raise ParameterError(f"cannot summarize {r!r}")


def parse_report(text: str):
    """Inverse of write_report for both document kinds."""
    doc = json.loads(text)
    kind = _field(doc, "kind", str, "report document")
    if kind == "report":
        return _report_from_doc(doc)
    if kind == "fuzz-report":
        return _fuzz_from_doc(doc)
    raise ParameterError(f"unknown report kind {kind!r}")


def _fuzz_doc(r) -> dict:
    return {
        "kind": "fuzz-report",
        "config": {
            "trials": r.config.trials,
            "seed": r.config.seed,
            "horizon": str(r.config.horizon),
            "max_switches": r.config.max_switches,
            "granularity": r.config.granularity,
            "delay_granularity": r.config.delay_granularity,
            "max_delay": str(r.config.max_delay),
        },
        "confirmations": dict(sorted(r.confirmations.items())),
        "strictness_examples": r.strictness_examples,
        "refutations": [
            {
                "claim": ref.claim,
                "name": ref.fixture.name,
                "i": write_bsig(ref.fixture.i),
                "o": write_bsig(ref.fixture.o),
                "p": [
                    str(ref.fixture.p.d_r_min),
                    str(ref.fixture.p.d_r_max),
                    str(ref.fixture.p.d_f_min),
                    str(ref.fixture.p.d_f_max),
                ],
                "expected": dict(sorted(ref.fixture.expected.items())),
                "detail": ref.detail,
            }
            for ref in r.refutations
        ],
    }


def _fuzz_from_doc(doc: dict):
    c = _field(doc, "config", dict, "fuzz report")
    config = FuzzConfig(
        trials=_field(c, "trials", int, "fuzz config"),
        seed=_field(c, "seed", int, "fuzz config"),
        horizon=_parsed(as_time, c, "horizon", "fuzz config"),
        max_switches=_field(c, "max_switches", int, "fuzz config"),
        granularity=_field(c, "granularity", int, "fuzz config"),
        delay_granularity=_field(c, "delay_granularity", int, "fuzz config"),
        max_delay=_parsed(as_time, c, "max_delay", "fuzz config"),
    )
    refutations = []
    for k, ref in enumerate(_field(doc, "refutations", list, "fuzz report")):
        where = f"fuzz report refutations[{k}]"
        delays = _field(ref, "p", list, where)
        if len(delays) != 4:
            raise ParameterError(f"{where}: field 'p' must list 4 delays, got {len(delays)}")
        entries = {f"p[{j}]": x for j, x in enumerate(delays)}
        delays = [_parsed(as_time, entries, key, where) for key in entries]
        try:
            p = DelayParams(*delays)
        except ParameterError as exc:
            raise ParameterError(f"{where}: field 'p': {exc}") from exc
        expected = _field(ref, "expected", dict, where)
        for cid, want in expected.items():
            if cid not in _CHECKERS:
                raise ParameterError(f"{where}: field 'expected' names unknown condition {cid!r}")
            if want not in ("PASS", "FAIL"):
                raise ParameterError(
                    f"{where}: field 'expected' maps {cid!r} to {json.dumps(want)}, not PASS or FAIL"
                )
        refutations.append(
            Refutation(
                _field(ref, "claim", str, where),
                Fixture(
                    _field(ref, "name", str, where),
                    parse_bsig(_field(ref, "i", str, where)),
                    parse_bsig(_field(ref, "o", str, where)),
                    p,
                    dict(expected),
                ),
                _field(ref, "detail", str, where),
            )
        )
    confirmations = _field(doc, "confirmations", dict, "fuzz report")
    for claim in confirmations:
        _field(confirmations, claim, int, "fuzz report confirmations")
    return FuzzReport(
        config=config,
        confirmations=dict(confirmations),
        refutations=tuple(refutations),
        strictness_examples=_field(doc, "strictness_examples", int, "fuzz report"),
    )
