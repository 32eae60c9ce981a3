"""waveform-io: waveforms are written and parsed instead of checked.

Each round of jobs gets its own waveform, sizes climbing a geometric ladder
from 1000 to 3000 breakpoints (so job costs spread smoothly), with gaps k/q,
q drawn from 3/5/7/11/13, so VCD ticks need the lcm 15015. The kernel only does the
n log n work of `switch_points`, so an I/O change, or a kernel change that
costs serialization, shows here and nowhere else. CLI jobs call
`bsig.cli.main` in process on files in a scratch directory of the checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path
from random import Random

from bsig import (
    Interval,
    Report,
    Violation,
    export_vcd,
    from_changes,
    parse_bsig,
    parse_report,
    write_bsig,
    write_report,
)
from bsig.cli import main as cli_main

import reference as ref
from common import Job, expect_changes, report_fp, signal_fp, text_fp

COPRIME = (3, 5, 7, 11, 13)
DET = (Fraction(1), Fraction(2))
WAVE_SIZES = {"full": (1000, 3000), "probe": (200, 200)}  # ladder ends, breakpoints
ROUNDS = {"full": 13, "probe": 1}  # each round runs every job kind once, on its own waveform
REPORT_VIOLATIONS = {"full": 4000, "probe": 200}
DERIVE_KINDS = ("D", "rise", "fall")


def gen_changes(rng: Random, n: int):
    t, out = Fraction(0), []
    for k in range(n):
        q = rng.choice(COPRIME)
        t += Fraction(rng.randint(1, 3 * q), q)
        out.append((t, 1 - k % 2))
    return out


def _report(rng: Random, n: int, condition: str):
    """A FAIL report with n violations, and its JSON document built by hand."""
    violations, docs = [], []
    t = Fraction(0)
    for k in range(n):
        q = rng.choice(COPRIME)
        t += Fraction(rng.randint(1, 3 * q), q)
        if k % 2:
            w, text = t, str(t)
        else:
            hi = t + Fraction(rng.randint(1, 3 * q), q)
            w, text = Interval(t, False, hi, True), ref.interval_text(t, False, hi, True)
        clause = f"{condition}.clause-{k % 3}: region {k} violates the bound"
        violations.append(Violation(w, 1, 0, clause))
        docs.append({"witness": text, "lhs": 1, "rhs": 0, "clause": clause})
    doc = {"kind": "report", "verdict": "fail", "condition": condition, "violations": docs}
    return Report(condition, "FAIL", tuple(violations)), doc


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(argv)
    return rc, out.getvalue()


def _cli_check(want_lines):
    def check(result):
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        return None if text.splitlines() == want_lines else "printed lines differ from the reference"

    return check


def _vcd_check(named):
    def check(result):
        rc, text = result
        return f"exit code {rc}" if rc != 0 else ref.vcd_problem(text, named)

    return check


def _round_trip_report(report, doc):
    def check(text):
        if json.loads(text) != doc:
            return "JSON document differs from the reference"
        return None if write_report(parse_report(text)) == text else "report does not round-trip"

    return check


def build(seed: int, scale: str = "full", work_dir=None) -> list[Job]:
    rng = Random(seed)
    work = Path(work_dir)
    lo, hi = WAVE_SIZES[scale]
    rounds = ROUNDS[scale]
    # a fixed shuffle of the ladder (7 is prime to 13), so that every seed
    # pairs the same sizes with the same job kinds
    rungs = [(7 * r) % rounds for r in range(rounds)]
    ch = [gen_changes(rng, round(lo * (hi / lo) ** (r / max(1, rounds - 1)))) for r in rungs]
    sim = [ref.simulate(c, *DET) for c in ch]
    sigs = [from_changes(c) for c in ch]
    texts = [ref.bsig_text(c) for c in ch]
    sim_texts = [ref.bsig_text(c) for c in sim]
    traces = [ref.trace_lines(c, o) for c, o in zip(ch, sim)]
    paths, sim_paths = [], []
    for j in range(rounds):
        paths.append(str(work / f"w{j}.bsig"))
        sim_paths.append(str(work / f"o{j}.bsig"))
        Path(paths[j]).write_text(texts[j])
        Path(sim_paths[j]).write_text(sim_texts[j])
    reports = [_report(rng, REPORT_VIOLATIONS[scale], cond) for cond in ("4.1a", "5.1c")]
    report_texts = [json.dumps(doc, indent=2, sort_keys=True) + "\n" for _, doc in reports]

    jobs = []
    for r in range(ROUNDS[scale]):
        j, j1, j2 = r, (r + 1) % rounds, (r + 2) % rounds
        x, text = sigs[j], texts[j]
        report, doc = reports[r % 2]
        named3 = [("a", ch[j]), ("b", ch[j1]), ("c", ch[j2])]

        def check_write(out, x=x, text=text):
            if out != text:
                return ".bsig text differs from the reference"
            return None if parse_bsig(out) == x else ".bsig text does not round-trip"

        kind = DERIVE_KINDS[r % 3]
        want_derive = [str(t) for t, b in ch[j] if kind == "D" or b == (kind == "rise")]
        vcd_out = str(work / f"cli{r}.vcd")
        jobs += [
            Job("waveio.parse_bsig", lambda text=text: parse_bsig(text), len(ch[j]),
                lambda f, c=ch[j]: expect_changes(f, c), signal_fp,
                bytes_in=len(text)),
            Job("waveio.write_bsig", lambda x=x: write_bsig(x), len(ch[j]), check_write, text_fp),
            Job("waveio.export_vcd",
                lambda j=j, j1=j1, j2=j2: export_vcd([("a", sigs[j]), ("b", sigs[j1]), ("c", sigs[j2])]),
                sum(len(c) for _, c in named3),
                lambda out, named=named3: ref.vcd_problem(out, named), text_fp),
            Job("waveio.write_report", lambda report=report: write_report(report), len(report.violations),
                _round_trip_report(report, doc), text_fp),
            Job("waveio.parse_report", lambda t=report_texts[r % 2]: parse_report(t), len(report.violations),
                lambda got, want=report: None if got == want else "parsed report differs",
                report_fp, bytes_in=len(report_texts[r % 2])),
            Job("cli.main.derive", lambda a=["derive", "--kind", kind, "--in", paths[j]]: _cli(a),
                len(ch[j]), _cli_check(want_derive), lambda res: text_fp(res[1]),
                bytes_in=len(text)),
            Job("cli.main.trace", lambda a=["trace", "--in", paths[j], "--out", sim_paths[j]]: _cli(a),
                len(ch[j]) + len(sim[j]), _cli_check(traces[j]),
                lambda res: text_fp(res[1]), bytes_in=len(text) + len(sim_texts[j])),
            Job("cli.main.export-vcd",
                lambda a=["export-vcd", "--in", paths[j], paths[j1], "--names", "a,b", "--out", vcd_out]: _cli(a),
                len(ch[j]) + len(ch[j1]), _vcd_check(named3[:2]), lambda res: text_fp(res[1]),
                collect=lambda res, p=vcd_out: (res[0], Path(p).read_text()),
                bytes_in=len(text) + len(texts[j1])),
        ]
    return jobs

