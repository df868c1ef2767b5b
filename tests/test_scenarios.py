"""The shipped scenarios reproduce their recorded outputs byte for byte.

`tests/golden/` holds the output of each `scenarios/*.json` file. The
floats are printed with 17 significant digits, so the files pin the last
digits that this numpy build produces, whatever kernel OpenBLAS picks and
with or without numpy's AVX2 and AVX-512 loops; a different build may
differ in them without being wrong. Regenerate a golden file only in a
change that says why its numbers move, never to make this test pass.
"""

import json
from pathlib import Path

import pytest

from schmidt_gates.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
GOLDEN = ROOT / "tests" / "golden"


def test_every_scenario_has_a_golden_file():
    stems = sorted(p.stem for p in GOLDEN.iterdir())
    assert stems == [p.stem for p in SCENARIOS]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_output_matches_golden(tmp_path, capsys, scenario):
    (golden,) = GOLDEN.glob(scenario.stem + ".*")
    command = json.loads(scenario.read_text())["command"]
    out = tmp_path / golden.name
    assert main([command, str(scenario), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == golden.read_bytes()


SUMMARIES = {
    "entangler_map": "sweep-map: 625 rows, max closed-form deviation "
                     "6.661e-16, checks pass\n",
    "trotter_errors": "trotter-sweep: 63 rows, max rotation-form residual "
                      "2.770e-16, checks pass\n",
}


@pytest.mark.parametrize("stem", sorted(SUMMARIES))
def test_table_scenario_stderr_summary(tmp_path, capsys, stem):
    scenario = ROOT / "scenarios" / f"{stem}.json"
    command = json.loads(scenario.read_text())["command"]
    assert main([command, str(scenario), "--out", str(tmp_path / "t")]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == SUMMARIES[stem]


def test_help_lists_subcommands_in_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: schmidt-gates [-h] "
                           "{simulate,classify,sweep-map,trotter-sweep} ...\n")
    listed = [line.split()[0] for line in text.splitlines()
              if line.startswith("    ") and not line.startswith("     ")]
    assert listed == ["simulate", "classify", "sweep-map", "trotter-sweep"]
