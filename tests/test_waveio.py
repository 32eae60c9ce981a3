import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bsig import (
    DelayParams,
    FuzzConfig,
    GenConfig,
    Interval,
    ParameterError,
    ParseError,
    Report,
    StepFn,
    Violation,
    constant,
    counterexample,
    export_vcd,
    from_changes,
    fuzz_claims,
    nidb_verify,
    parse_bsig,
    parse_report,
    random_signal,
    require_signal,
    summarize_report,
    switch_points,
    write_bsig,
    write_report,
)
from conftest import chi, signals

# ---------------------------------------------------------------------------
# .bsig text format
# ---------------------------------------------------------------------------


def test_parse_examples():
    assert parse_bsig("0 1\n1 0\n2 1\n3 0") == chi((0, 1), (1, 0), (2, 1), (3, 0))
    assert parse_bsig("") == constant(0)
    assert parse_bsig("1/2 1\n0.75 0") == chi(("1/2", 1), (("3/4"), 0))
    # comments and blank lines are skipped
    assert parse_bsig("# bsig 1\n\n# name: pulse\n1 1\n# mid\n2 0") == chi(
        (1, 1), (2, 0)
    )


def test_parse_errors_carry_line_numbers():
    cases = [
        ("0 1\nnonsense", 2),
        ("0 1 extra", 1),
        ("x 1", 1),
        ("0 2", 1),
        ("1 1\n1/2 0", 2),
        ("2 1\n2 0", 2),
        ("-1 1", 1),
        ("# bsig two", 1),
        ("# bsig 2", 1),
        ("0 1\n# bsig -3", 2),
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as exc:
            parse_bsig(text)
        assert exc.value.line == line
        assert str(exc.value).startswith(f"line {line}:")


def test_write_bsig_shape():
    text = write_bsig(chi((0, 1), (1, 0)), name="step")
    assert text.splitlines() == ["# bsig 1", "# name: step", "0 1", "1 0"]
    assert write_bsig(constant(0)).splitlines() == ["# bsig 1"]


@given(signals())
def test_round_trip_bit_exact(x):
    assert parse_bsig(write_bsig(x)) == x


@pytest.mark.parametrize("name", ["a\n0 1", "a\nb", "a\r", "a\u2028b"])
def test_write_bsig_rejects_multiline_name(name):
    with pytest.raises(ParameterError, match="line break"):
        write_bsig(from_changes([(1, 1)]), name=name)


# ---------------------------------------------------------------------------
# VCD export
# ---------------------------------------------------------------------------

VCD_HEAD = """\
$comment
scale: {scale} ticks per time unit; tick offset: {offset}
isolated point values are widened to one tick
$end
$timescale 1 s $end
$scope module top $end
"""


def test_vcd_unit_scale():
    text = export_vcd([("x", chi((0, 1), (1, 0), (2, 1), (3, 0)))])
    assert text.startswith(VCD_HEAD.format(scale=1, offset=0))
    body = text.split("$enddefinitions $end\n", 1)[1]
    assert body == "$dumpvars\n0!\n$end\n#0\n1!\n#1\n0!\n#2\n1!\n#3\n0!\n"


def test_vcd_scaled_ticks():
    # breakpoints {0, 1/2, 3/2} scale to ticks {0, 1, 3} with scale 2
    text = export_vcd([("h", chi((0, 1), ("1/2", 0), ("3/2", 1)))])
    assert "scale: 2 ticks per time unit" in text
    assert [l for l in text.splitlines() if l.startswith("#")] == ["#0", "#1", "#3"]


def test_vcd_constant_has_no_changes():
    text = export_vcd([("z", constant(0))])
    body = text.split("$enddefinitions $end\n", 1)[1]
    assert body == "$dumpvars\n0!\n$end\n"


def test_vcd_isolated_point_widened():
    f = StepFn(0, (Fraction(1),), (1,), (0,))
    body = export_vcd([("p", f)]).split("$enddefinitions $end\n", 1)[1]
    assert body == "$dumpvars\n0!\n$end\n#1\n1!\n#2\n0!\n"


def test_vcd_negative_times_use_offset():
    f = StepFn(0, (Fraction(-1),), (1,), (1,))
    text = export_vcd([("n", f)])
    assert "tick offset: 1" in text
    assert text.endswith("$dumpvars\n0!\n$end\n#0\n1!\n")


def test_vcd_two_signals_share_timeline():
    a = chi((0, 1), (1, 0), (2, 1), (3, 0))
    b = chi((0, 1), ("1/2", 0), ("3/2", 1))
    text = export_vcd([("a", a), ("b", b)])
    assert export_vcd([("a", a), ("b", b)]) == text  # deterministic
    assert "$var wire 1 ! a $end" in text and '$var wire 1 " b $end' in text
    body = text.split("$enddefinitions $end\n", 1)[1]
    assert body == (
        '$dumpvars\n0!\n0"\n$end\n'
        '#0\n1!\n1"\n#1\n0"\n#2\n0!\n#3\n1"\n#4\n1!\n#6\n0!\n'
    )


def test_vcd_name_validation():
    with pytest.raises(ParameterError):
        export_vcd([("a", constant(0)), ("a", constant(0))])
    with pytest.raises(ParameterError):
        export_vcd([("bad name", constant(0))])


def test_vcd_ids_past_94_signals():
    # identifier codes are made of the printable characters '!'..'~' only
    text = export_vcd([(f"s{k}", chi((k, 1))) for k in range(200)])
    head, body = text.split("$enddefinitions $end\n", 1)
    ids = [line.split()[3] for line in head.splitlines() if line.startswith("$var")]
    assert len(set(ids)) == len(ids) == 200
    assert all("!" <= c <= "~" for code in ids for c in code)
    assert ids[:94] == [chr(33 + k) for k in range(94)]
    changed = {line[1:] for line in body.splitlines() if line[0] in "01"}
    assert changed == set(ids)


# ---------------------------------------------------------------------------
# Random signal generation
# ---------------------------------------------------------------------------


def test_random_signal_examples():
    cfg = GenConfig(seed=3)
    assert random_signal(cfg) == random_signal(cfg)
    assert random_signal(GenConfig(max_switches=0, seed=1)) == constant(0)


genconfigs = st.builds(
    GenConfig,
    horizon=st.integers(0, 10).map(Fraction),
    max_switches=st.integers(0, 8),
    granularity=st.integers(1, 6),
    seed=st.integers(0, 2**20),
)


@given(genconfigs)
def test_random_signal_invariants(cfg):
    x = random_signal(cfg)
    require_signal(x)
    pts = switch_points(x)
    assert len(pts) <= cfg.max_switches
    for t in pts:
        assert 0 <= t <= cfg.horizon
        assert (t * cfg.granularity).denominator == 1


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def test_report_doc_shape():
    doc = json.loads(write_report(Report("4.3a", "PASS")))
    assert doc == {
        "kind": "report",
        "condition": "4.3a",
        "verdict": "pass",
        "violations": [],
    }


def test_fixture_report_witness_string():
    fx = counterexample("5.3")
    rep = nidb_verify(fx.i, fx.o, fx.p, "a")
    doc = json.loads(write_report(rep))
    assert doc["verdict"] == "fail"
    assert doc["violations"][0]["witness"] == "2"
    assert doc["violations"][0]["lhs"] == 1 and doc["violations"][0]["rhs"] == 0


def test_report_round_trip_time_witness():
    rep = Report(
        "4.1a",
        "FAIL",
        (
            Violation(Fraction(7, 3), 1, 0, "4.1a.rise-lower: unanswered"),
            Violation(Fraction(4), 0, 1, "4.1a.rise-upper: early"),
        ),
    )
    assert parse_report(write_report(rep)) == rep


def test_report_round_trip_interval_witness():
    rep = Report(
        "5.1c",
        "FAIL",
        (Violation(Interval(Fraction(2), False, Fraction(4), True), 1, 0, "5.1c.fall"),),
    )
    assert parse_report(write_report(rep)) == rep


def test_fuzz_report_round_trip():
    rep = fuzz_claims(FuzzConfig(trials=25, seed=11))
    text = write_report(rep)
    assert json.loads(text)["kind"] == "fuzz-report"
    assert parse_report(text) == rep


def test_parse_report_rejects_unknown_kind():
    with pytest.raises(ParameterError):
        parse_report(json.dumps({"kind": "mystery"}))


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"kind": "report"}, "'condition'"),
        ({"kind": "report", "condition": "4.1a", "verdict": "fail", "violations": [{}]}, "'witness'"),
        ([1], "JSON object"),
        ({"kind": "report", "condition": "4.1a", "verdict": 1, "violations": []}, "'verdict'"),
        ({"kind": "report", "condition": "4.1a", "verdict": "fail",
          "violations": [{"witness": "1", "lhs": 7, "rhs": 0, "clause": "c"}]}, "'lhs'"),
        ({"kind": "report", "condition": "4.1a", "verdict": "fail",
          "violations": [{"witness": "1", "lhs": 1, "rhs": True, "clause": "c"}]}, "'rhs'"),
    ],
)
def test_parse_report_names_malformed_field(doc, field):
    with pytest.raises(ParameterError, match=field):
        parse_report(json.dumps(doc))


def test_parse_fuzz_report_names_malformed_field():
    text = write_report(fuzz_claims(FuzzConfig(trials=2, seed=0)))
    # JSON booleans are not counts, and every confirmation count is an integer
    for edit, field in (
        (lambda doc: doc["config"].update(trials=True), "'trials' must be int, got bool"),
        (lambda doc: doc.update(strictness_examples=False), "'strictness_examples' must be int, got bool"),
        (lambda doc: doc["confirmations"].update(x="y"), "confirmations: field 'x' must be int, got str"),
        (lambda doc: doc["confirmations"].update(x=True), "confirmations: field 'x' must be int, got bool"),
    ):
        doc = json.loads(text)
        edit(doc)
        with pytest.raises(ParameterError, match=field):
            parse_report(json.dumps(doc))
    doc = json.loads(text)
    doc["refutations"] = [{"claim": "c", "name": "n", "i": "0 1\n", "o": "1 1\n", "p": ["1", "2", "1"]}]
    with pytest.raises(ParameterError, match="'p'"):
        parse_report(json.dumps(doc))
    del doc["config"]["seed"]
    with pytest.raises(ParameterError, match="'seed'"):
        parse_report(json.dumps(doc))


def test_summaries():
    text = summarize_report(Report("4.3a", "PASS"))
    assert "4.3a: PASS" in text
    fx = counterexample("5.3")
    text = summarize_report(nidb_verify(fx.i, fx.o, fx.p, "a"))
    assert "4.1a: FAIL" in text and "witness 2" in text
    fuzz = summarize_report(fuzz_claims(FuzzConfig(trials=10, seed=0)))
    assert "trials" in fuzz and "PASS" in fuzz
