"""Command-line front end: simulate, verify, sample, trace, fuzz, export.

Exit codes: 0 = success / verdict PASS, 1 = verdict FAIL (or a fixture not
reproduced), 2 = usage, parameter, or I/O errors. All runs are deterministic
given argv and input files; randomness always flows from explicit seeds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .buffer import (
    DelayParams,
    DetParams,
    SamplePolicy,
    automaton_trace,
    didb_simulate,
    didb_verify,
    nidb_sample,
    nidb_verify,
)
from .litcmp import FuzzConfig, check_fixture, counterexample, fuzz_claims, lit_verify
from .stepfn import as_time, right_continuous_runs, switch_points, window
from .waveio import (
    export_vcd,
    parse_bsig,
    summarize_report,
    write_bsig,
    write_report,
)

__all__ = ["main"]


def _rational(text: str):
    return as_time(text)  # ValueError propagates; argparse turns it into exit 2


def _read_signal(path: str):
    return parse_bsig(Path(path).read_text())


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _params4(text: str) -> DelayParams:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"--params needs 4 comma-separated delays, got {text!r}")
    return DelayParams(*[as_time(p) for p in parts])


def _params2(text: str) -> DetParams:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"--params needs 2 comma-separated delays, got {text!r}")
    return DetParams(as_time(parts[0]), as_time(parts[1]))


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _cmd_sim(args) -> int:
    i = _read_signal(args.input)
    o = didb_simulate(i, DetParams(args.dr, args.df))
    _emit(write_bsig(o), args.out)
    return 0


def _cmd_verify(args) -> int:
    i = _read_signal(args.input)
    o = _read_signal(args.output)
    if args.mode == "didb":
        form = args.form or "all"
        report = didb_verify(i, o, _params2(args.params), form)
    elif args.mode == "nidb":
        form = args.form or "a"
        report = nidb_verify(i, o, _params4(args.params), form)
    else:
        form = args.form or "b"
        report = lit_verify(i, o, _params4(args.params), form)
    sys.stdout.write(summarize_report(report))
    if args.json:
        Path(args.json).write_text(write_report(report))
    return 0 if report.passed else 1


def _cmd_derive(args) -> int:
    x = _read_signal(args.input)
    if args.kind == "D":
        points = switch_points(x)
    else:
        # a rise starts each later 1-run, a fall each later 0-run
        bit = 1 if args.kind == "rise" else 0
        points = [start for start, _, value in right_continuous_runs(x)[1:] if value == bit]
    for t in points:
        print(t)
    return 0


def _cmd_window(args) -> int:
    f = _read_signal(args.input)
    print(window(args.mode, f, args.d, args.kind))
    return 0


def _cmd_sample(args) -> int:
    i = _read_signal(args.input)
    if args.policy == "random":
        if args.seed is None:
            raise ValueError("--policy random needs --seed")
        policy = SamplePolicy.random(args.seed, args.granularity)
    else:
        policy = SamplePolicy(args.policy)
    o = nidb_sample(i, _params4(args.params), policy)
    _emit(write_bsig(o), args.out)
    return 0


def _cmd_trace(args) -> int:
    i = _read_signal(args.input)
    o = _read_signal(args.output)
    for ev in automaton_trace(i, o):
        label = "stable" if ev.state.stable else "unstable"
        print(f"t={ev.time} state=({ev.state.i_bit},{ev.state.o_bit}) {label}")
    return 0


def _cmd_counterexample(args) -> int:
    fx = counterexample(args.id)
    reports = check_fixture(fx)
    reproduced = True
    docs = {}
    for cond in sorted(reports):
        rep = reports[cond]
        expected = fx.expected[cond]
        ok = rep.verdict == expected
        reproduced &= ok
        print(f"{cond}: {rep.verdict} (expected {expected})")
        for v in rep.violations:
            print(f"  witness {v.witness}: lhs={v.lhs} rhs={v.rhs}  [{v.clause}]")
        docs[cond] = write_report(rep)
    if args.id == "5.3":
        # the forcing bound must first break exactly at the max rise delay
        viols = reports["4.1a"].violations
        reproduced &= bool(viols) and viols[0].witness == fx.p.d_r_max
    if args.json:
        import json

        Path(args.json).write_text(
            json.dumps(
                {
                    "kind": "counterexample",
                    "id": args.id,
                    "reproduced": reproduced,
                    "reports": {k: json.loads(v) for k, v in docs.items()},
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    print(f"reproduced: {'yes' if reproduced else 'NO'}")
    return 0 if reproduced else 1


def _cmd_fuzz(args) -> int:
    report = fuzz_claims(FuzzConfig(trials=args.trials, seed=args.seed))
    sys.stdout.write(summarize_report(report))
    if args.json:
        Path(args.json).write_text(write_report(report))
    return 0 if report.passed else 1


def _cmd_export_vcd(args) -> int:
    paths = args.input
    if args.names:
        names = [n.strip() for n in args.names.split(",")]
        if len(names) != len(paths):
            raise ValueError(f"--names lists {len(names)} names for {len(paths)} inputs")
    else:
        names = [Path(p).stem for p in paths]
    named = [(n, _read_signal(p)) for n, p in zip(names, paths)]
    _emit(export_vcd(named), args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsig",
        description="Exact binary-signal toolkit: inertial delay buffers, "
        "conformance verification, sampling, and waveform serialization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sim", help="deterministic buffer output for an input signal")
    p.add_argument("--in", dest="input", required=True, metavar="I.BSIG")
    p.add_argument("--dr", type=_rational, required=True, help="rise delay")
    p.add_argument("--df", type=_rational, required=True, help="fall delay")
    p.add_argument("--out", default=None, metavar="O.BSIG")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("verify", help="check an (input, output) pair against a condition family")
    p.add_argument("--mode", choices=("nidb", "didb", "lit"), required=True)
    p.add_argument("--form", choices=("a", "b", "c", "d", "all"), default=None,
                   help="defaults: nidb=a, didb=all, lit=b")
    p.add_argument("--in", dest="input", required=True, metavar="I.BSIG")
    p.add_argument("--out", dest="output", required=True, metavar="O.BSIG",
                   help="the output signal of the pair")
    p.add_argument("--params", required=True,
                   help="didb: d_r,d_f; nidb/lit: d_r_min,d_r_max,d_f_min,d_f_max")
    p.add_argument("--json", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("derive", help="print derivative support points")
    p.add_argument("--kind", choices=("D", "rise", "fall"), required=True)
    p.add_argument("--in", dest="input", required=True, metavar="X.BSIG")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("window", help="sliding-window all/any of a signal")
    p.add_argument("--mode", choices=("all", "any"), required=True)
    p.add_argument("--d", type=_rational, required=True, help="window width")
    p.add_argument("--kind", choices=("co", "oo", "oc"), default="co")
    p.add_argument("--in", dest="input", required=True, metavar="F.BSIG")
    p.set_defaults(func=_cmd_window)

    p = sub.add_parser("sample", help="one admissible banded-delay buffer output")
    p.add_argument("--policy", choices=("eager", "lazy", "random"), required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--granularity", type=int, default=16)
    p.add_argument("--in", dest="input", required=True, metavar="I.BSIG")
    p.add_argument("--params", required=True,
                   help="d_r_min,d_r_max,d_f_min,d_f_max")
    p.add_argument("--out", default=None, metavar="O.BSIG")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("trace", help="joint (input, output) state trajectory")
    p.add_argument("--in", dest="input", required=True, metavar="I.BSIG")
    p.add_argument("--out", dest="output", required=True, metavar="O.BSIG")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("counterexample",
                       help="reproduce a pinned fixture and assert its verdicts")
    p.add_argument("id", choices=("5.3", "5.4"))
    p.add_argument("--json", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("fuzz", help="seeded claims campaign over random triples")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("export-vcd", help="VCD text for external waveform viewers")
    p.add_argument("--in", dest="input", required=True, nargs="+", metavar="X.BSIG")
    p.add_argument("--names", default=None, help="comma-separated signal names")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_export_vcd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
