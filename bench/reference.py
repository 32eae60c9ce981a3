"""Linear reference walks and independent renderers for the correctness gate.

Everything here works on change lists ``[(t, bit), ...]``: exact rational
times, strictly increasing, bits alternating, value 0 before the first
change. Nothing in this module calls bsig, so a defect in the library's
checkers or serializers cannot hide itself by agreeing with the reference.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from typing import Optional


def runs(changes):
    """(start, end, value) per run with a finite start; end None for the last."""
    return [
        (t, changes[k + 1][0] if k + 1 < len(changes) else None, b)
        for k, (t, b) in enumerate(changes)
    ]


def simulate(changes, d_r: Fraction, d_f: Fraction):
    """Deterministic inertial buffer: a run of value v that lasts at least
    d_v switches the output to v at start + d_v, unless it already is v."""
    cur, out = 0, []
    for start, end, v in runs(changes):
        d = d_r if v else d_f
        if (end is None or end - start >= d) and v != cur:
            out.append((start + d, v))
            cur = v
    return out


def sample(changes, band, lazy: bool):
    """Eager (lazy) banded buffer: each run that disagrees with the output
    switches it after the band's min (max) delay, if the run lasts that long."""
    r_lo, r_hi, f_lo, f_hi = band
    cur, out = 0, []
    for start, end, v in runs(changes):
        if v == cur:
            continue
        lo, hi = (r_lo, r_hi) if v else (f_lo, f_hi)
        d = hi if lazy else lo
        if end is None or d <= end - start:
            out.append((start + d, v))
            cur = v
    return out


def admissible(i_changes, o_changes, band, granularity: int) -> Optional[str]:
    """Why o is not a random-policy banded-buffer output of i, or None.

    Each input run that disagrees with the output either switches it once, at
    a delay drawn from the band (an endpoint or a multiple of 1/granularity),
    or ends before the largest delay; a run that agrees switches nothing. An
    output change at time tau belongs to the run with start < tau <= end.
    """
    r_lo, r_hi, f_lo, f_hi = band
    k, cur = 0, 0
    if o_changes and i_changes and o_changes[0][0] <= i_changes[0][0]:
        return f"output changes at {o_changes[0][0]} before the first input change"
    for start, end, v in runs(i_changes):
        mine = []
        while k < len(o_changes) and (end is None or o_changes[k][0] <= end):
            mine.append(o_changes[k])
            k += 1
        lo, hi = (r_lo, r_hi) if v else (f_lo, f_hi)
        if v == cur:
            if mine:
                return f"output switches at {mine[0][0]} while agreeing with the input"
            continue
        if not mine:
            if end is None or end - start >= hi:
                return f"run [{start}, {end}) forces a switch that never happens"
            continue
        if len(mine) > 1:
            return f"run starting at {start} switches the output {len(mine)} times"
        tau, b = mine[0]
        delay = tau - start
        on_grid = (delay * granularity).denominator == 1
        if b != v or not lo <= delay <= hi or not (on_grid or delay in (lo, hi)):
            return f"switch at {tau} with delay {delay} is not a legal draw"
        cur = v
    if k != len(o_changes):
        return f"output change at {o_changes[k][0]} after the input's last run"
    return None


def lit_c_violations(i_changes, o_changes, band):
    """Input edges left unanswered under the event-anchored condition c.

    An input rise at t is answered by an input fall in the open window
    (t, t + d_r_max) or an output rise in [t + d_r_min, t + d_r_max]; falls
    are dual with the fall band. Returns the unanswered edge times, sorted.
    """
    r_lo, r_hi, f_lo, f_hi = band
    edges = {b: [t for t, x in i_changes if x == b] for b in (0, 1)}
    answers = {b: [t for t, x in o_changes if x == b] for b in (0, 1)}
    bad = []
    for b, lo, hi in ((1, r_lo, r_hi), (0, f_lo, f_hi)):
        opposite = edges[1 - b]
        for t in edges[b]:
            k = bisect_right(opposite, t)
            if k < len(opposite) and opposite[k] < t + hi:
                continue
            m = bisect_left(answers[b], t + lo)
            if m < len(answers[b]) and answers[b][m] <= t + hi:
                continue
            bad.append(t)
    return sorted(bad)


def value_at(changes, t) -> int:
    k = bisect_right(changes, (t, 2))
    return changes[k - 1][1] if k else 0


def trace_lines(i_changes, o_changes):
    """`bsig trace` output: one line per change of the joint (i, o) state."""
    lines, prev = [], (0, 0)
    for t in sorted({t for t, _ in i_changes} | {t for t, _ in o_changes}):
        state = (value_at(i_changes, t), value_at(o_changes, t))
        if state != prev:
            label = "stable" if state[0] == state[1] else "unstable"
            lines.append(f"t={t} state=({state[0]},{state[1]}) {label}")
            prev = state
    return lines


def bsig_text(changes, name: Optional[str] = None) -> str:
    head = ["# bsig 1"] + ([f"# name: {name}"] if name is not None else [])
    return "\n".join(head + [f"{t} {b}" for t, b in changes]) + "\n"


def interval_text(lo, lo_closed, hi, hi_closed) -> str:
    return f"{'[' if lo_closed else '('}{lo}, {hi}{']' if hi_closed else ')'}"


_VAR = re.compile(r"\$var wire 1 (\S+) (\S+) \$end")


def vcd_problem(text: str, named) -> Optional[str]:
    """Why a VCD dump does not carry exactly the named change lists, or None.

    Ticks are times scaled by the lcm of every denominator, as the header
    states; right-continuous signals need no widened points.
    """
    denoms = [t.denominator for _, ch in named for t, _ in ch]
    scale = lcm(*denoms) if denoms else 1
    if f"scale: {scale} ticks per time unit; tick offset: 0" not in text:
        return f"header does not state scale {scale}"
    ids = {m.group(1): m.group(2) for m in _VAR.finditer(text)}
    seen = {name: [] for name, _ in named}
    if sorted(ids.values()) != sorted(seen):
        return f"declared names {sorted(ids.values())} differ from {sorted(seen)}"
    body = text.split("$enddefinitions $end", 1)[1].split("\n")
    tick = None
    for line in body:
        if not line or line.startswith("$"):
            continue
        if line[0] == "#":
            tick = int(line[1:])
        elif tick is None:
            if line[0] != "0":
                return f"initial value {line!r} is not 0"
        else:
            seen[ids[line[1:]]].append((tick, int(line[0])))
    for name, ch in named:
        want = [(int(t * scale), b) for t, b in ch]
        if seen[name] != want:
            return f"signal {name}: dumped changes differ from the input"
    return None
