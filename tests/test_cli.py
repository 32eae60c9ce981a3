import json
import time
from fractions import Fraction

from bsig import (
    FuzzConfig,
    constant,
    export_vcd,
    from_changes,
    fuzz_claims,
    parse_bsig,
    parse_report,
    write_bsig,
)
from bsig.cli import main
from conftest import chi


def _put(tmp_path, name, x):
    path = tmp_path / name
    path.write_text(write_bsig(x))
    return str(path)


def test_sim_writes_buffer_output(tmp_path, capsys):
    i = _put(tmp_path, "i.bsig", chi((0, 1), (5, 0)))
    out = tmp_path / "o.bsig"
    assert main(["sim", "--in", i, "--dr", "1", "--df", "2", "--out", str(out)]) == 0
    assert parse_bsig(out.read_text()) == chi((1, 1), (7, 0))


def test_sim_stdout_and_constant_input(tmp_path, capsys):
    i = _put(tmp_path, "i.bsig", constant(0))
    assert main(["sim", "--in", i, "--dr", "1", "--df", "1"]) == 0
    assert parse_bsig(capsys.readouterr().out) == constant(0)


def test_verify_didb_pass(tmp_path, capsys):
    i = _put(tmp_path, "i.bsig", chi((0, 1), (5, 0)))
    o = _put(tmp_path, "o.bsig", chi((1, 1), (7, 0)))
    doc = tmp_path / "r.json"
    code = main(
        ["verify", "--mode", "didb", "--in", i, "--out", o,
         "--params", "1,2", "--json", str(doc)]
    )
    assert code == 0
    assert "4.3all: PASS" in capsys.readouterr().out
    rep = parse_report(doc.read_text())
    assert rep.condition == "4.3all" and rep.passed


def test_verify_nidb_fail(tmp_path, capsys):
    i = _put(tmp_path, "i.bsig", chi((0, 1)))
    o = _put(tmp_path, "o.bsig", constant(0))
    doc = tmp_path / "r.json"
    code = main(
        ["verify", "--mode", "nidb", "--in", i, "--out", o,
         "--params", "1,2,1,2", "--json", str(doc)]
    )
    assert code == 1
    assert "4.1a: FAIL" in capsys.readouterr().out
    rep = parse_report(doc.read_text())
    assert not rep.passed and rep.violations[0].witness == Fraction(2)


def test_verify_lit_pass(tmp_path, capsys):
    i = _put(tmp_path, "i.bsig", chi((0, 1)))
    o = _put(tmp_path, "o.bsig", constant(0))
    code = main(["verify", "--mode", "lit", "--in", i, "--out", o, "--params", "1,2,1,2"])
    assert code == 0
    assert "5.1b: PASS" in capsys.readouterr().out


def test_derive_kinds(tmp_path, capsys):
    x = _put(tmp_path, "x.bsig", chi((0, 1), (1, 0), (2, 1), (3, 0)))
    assert main(["derive", "--kind", "D", "--in", x]) == 0
    assert capsys.readouterr().out.split() == ["0", "1", "2", "3"]
    assert main(["derive", "--kind", "rise", "--in", x]) == 0
    assert capsys.readouterr().out.split() == ["0", "2"]
    assert main(["derive", "--kind", "fall", "--in", x]) == 0
    assert capsys.readouterr().out.split() == ["1", "3"]


def test_window_prints_one_set(tmp_path, capsys):
    f = _put(tmp_path, "f.bsig", chi((0, 1), (3, 0)))
    assert main(["window", "--mode", "all", "--d", "1", "--kind", "co", "--in", f]) == 0
    assert capsys.readouterr().out.strip() == "ones: [1, 3]"


def test_sample_policies(tmp_path, capsys):
    i = _put(tmp_path, "i.bsig", chi((0, 1)))
    out = tmp_path / "o.bsig"
    args = ["sample", "--in", i, "--params", "1,2,1,2", "--out", str(out)]
    assert main(args + ["--policy", "eager"]) == 0
    assert parse_bsig(out.read_text()) == chi((1, 1))
    assert main(args + ["--policy", "lazy"]) == 0
    assert parse_bsig(out.read_text()) == chi((2, 1))
    assert main(args + ["--policy", "random", "--seed", "9"]) == 0
    first = out.read_text()
    assert main(args + ["--policy", "random", "--seed", "9"]) == 0
    assert out.read_text() == first


def test_sample_random_needs_seed(tmp_path, capsys):
    i = _put(tmp_path, "i.bsig", chi((0, 1)))
    code = main(["sample", "--in", i, "--params", "1,2,1,2", "--policy", "random"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_trace_lines(tmp_path, capsys):
    i = _put(tmp_path, "i.bsig", chi((0, 1)))
    o = _put(tmp_path, "o.bsig", chi((2, 1)))
    assert main(["trace", "--in", i, "--out", o]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "t=0 state=(1,0) unstable",
        "t=2 state=(1,1) stable",
    ]


def test_counterexample_subcommands(tmp_path, capsys):
    doc_path = tmp_path / "ce.json"
    assert main(["counterexample", "5.3", "--json", str(doc_path)]) == 0
    out = capsys.readouterr().out
    assert "5.1b: PASS (expected PASS)" in out
    assert "4.1a: FAIL (expected FAIL)" in out
    assert "reproduced: yes" in out
    doc = json.loads(doc_path.read_text())
    assert doc["kind"] == "counterexample" and doc["reproduced"] is True
    assert doc["reports"]["4.1a"]["verdict"] == "fail"
    assert doc["reports"]["4.1a"]["violations"][0]["witness"] == "2"

    assert main(["counterexample", "5.4"]) == 0
    out = capsys.readouterr().out
    assert "4.1a: PASS (expected PASS)" in out
    assert "5.1c: FAIL (expected FAIL)" in out
    assert "reproduced: yes" in out


def test_fuzz_json_matches_library(tmp_path, capsys):
    doc = tmp_path / "fuzz.json"
    assert main(["fuzz", "--trials", "20", "--seed", "3", "--json", str(doc)]) == 0
    assert "PASS" in capsys.readouterr().out
    assert parse_report(doc.read_text()) == fuzz_claims(FuzzConfig(trials=20, seed=3))


def test_export_vcd_matches_library(tmp_path, capsys):
    a = chi((0, 1), (1, 0))
    b = chi(("1/2", 1))
    pa = _put(tmp_path, "a.bsig", a)
    pb = _put(tmp_path, "b.bsig", b)
    out = tmp_path / "w.vcd"
    code = main(["export-vcd", "--in", pa, pb, "--names", "a,b", "--out", str(out)])
    assert code == 0
    assert out.read_text() == export_vcd([("a", a), ("b", b)])
    # default names come from file stems
    assert main(["export-vcd", "--in", pa, pb]) == 0
    assert capsys.readouterr().out == export_vcd([("a", a), ("b", b)])


def test_export_vcd_name_count_mismatch(tmp_path, capsys):
    pa = _put(tmp_path, "a.bsig", constant(0))
    assert main(["export-vcd", "--in", pa, "--names", "x,y"]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_errors(tmp_path, capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()
    # missing input file
    assert main(["sim", "--in", str(tmp_path / "nope.bsig"), "--dr", "1", "--df", "1"]) == 2
    # malformed waveform
    bad = tmp_path / "bad.bsig"
    bad.write_text("1 1\n0 0\n")
    assert main(["sim", "--in", str(bad), "--dr", "1", "--df", "1"]) == 2
    # wrong params arity for the mode
    i = _put(tmp_path, "i.bsig", constant(0))
    o = _put(tmp_path, "o.bsig", constant(0))
    assert main(["verify", "--mode", "didb", "--in", i, "--out", o, "--params", "1,2,1,2"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_huge_exponent_literal_fails_fast(tmp_path, capsys):
    bad = tmp_path / "huge.bsig"
    bad.write_text("1e2000000 1\n")
    start = time.perf_counter()
    assert main(["derive", "--kind", "D", "--in", str(bad)]) == 2
    assert time.perf_counter() - start < 0.5
    assert "exponent" in capsys.readouterr().err


def test_export_vcd_refuses_ticks_past_the_digit_limit(tmp_path, capsys):
    # five Mersenne-prime denominators make an lcm of about 11900 digits
    times = [k + Fraction(1, 2**e - 1) for k, e in enumerate((4253, 4423, 9689, 9941, 11213))]
    x = _put(tmp_path, "x.bsig", from_changes((t, 1 - k % 2) for k, t in enumerate(times)))
    start = time.perf_counter()
    assert main(["export-vcd", "--in", x]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "VCD tick scale has 11897 digits: a tick would exceed 4300 digits" in err
