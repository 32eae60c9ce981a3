import runpy
from pathlib import Path

from bsig import (
    DelayParams,
    DetParams,
    SamplePolicy,
    didb_simulate,
    export_vcd,
    from_changes,
    nidb_sample,
    parse_bsig,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_demo_waveforms_writes_library_signals(tmp_path, monkeypatch, capsys):
    demo = runpy.run_path(str(SCRIPTS / "demo_waveforms.py"))
    monkeypatch.setattr("sys.argv", ["demo_waveforms.py", "--out-dir", str(tmp_path), "--seed", "3"])
    assert demo["main"]() == 0

    i = from_changes([(0, 1), (5, 0)])
    band = DelayParams(1, 2, 1, 2)
    expected = [
        ("input", i),
        ("buffered", didb_simulate(i, DetParams(1, 2))),
        ("eager", nidb_sample(i, band, SamplePolicy.eager())),
        ("lazy", nidb_sample(i, band, SamplePolicy.lazy())),
        ("random_seed3", nidb_sample(i, band, SamplePolicy.random(3))),
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"{name}.bsig" for name, _ in expected] + ["all.vcd"]
    )
    for name, x in expected:
        text = (tmp_path / f"{name}.bsig").read_text()
        assert f"# name: {name}" in text.splitlines()
        assert parse_bsig(text) == x
    assert (tmp_path / "all.vcd").read_text() == export_vcd(expected)
