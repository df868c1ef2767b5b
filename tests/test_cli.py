import csv
import functools
import json
import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import schmidt_gates
from schmidt_gates import cli
from schmidt_gates.cli import main

# Subprocesses import the package the tests import, installed or not.
PACKAGE_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(schmidt_gates.__file__)),
                  os.environ.get("PYTHONPATH")])))

ORANGE = {
    "schema_version": 1,
    "command": "simulate",
    "path": {"preset": "orange_slice", "t1": 1.0, "tau": 2.0},
}


def write_scenario(tmp_path, payload, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run_main(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_orange_slice_report(tmp_path, capsys):
    scn = write_scenario(tmp_path, ORANGE)
    out = tmp_path / "report.json"
    code, _, _ = run_main(["simulate", scn, "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["command"] == "simulate"
    assert report["solid_angle"] == pytest.approx(-np.pi, abs=1e-9)
    assert report["dynamical_phase"]["plus"] == pytest.approx(0.0, abs=1e-10)
    assert report["dynamical_phase_zero"] is True
    assert report["holonomy_fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert report["predicted_gate"]["omega"] == pytest.approx(-np.pi, abs=1e-9)
    assert report["entangler_class"] == "SPE"
    assert report["passed"] is True
    u = np.array([[complex(re, im) for re, im in row]
                  for row in report["propagator"]])
    expect = np.array([
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [0, 0, 0, 1],
    ])
    assert np.max(np.abs(u - expect)) < 1e-10


def test_simulate_orange_slice_lambda_sector(tmp_path, capsys):
    scn = write_scenario(tmp_path, {**ORANGE, "sector": "lambda"})
    code, out, _ = run_main(["simulate", scn], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["sector"] == "lambda"
    assert report["holonomy_fidelity"] >= 1.0 - report["tolerance"]
    assert report["checks"]["holonomy_fidelity"] is True
    u = np.array([[complex(re, im) for re, im in row]
                  for row in report["propagator"]])
    # the gamma pair |01>, |10> is idle; the swap acts on |00>, |11>
    gamma, lam = [1, 2], [0, 3]
    assert np.array_equal(u[np.ix_(gamma, gamma)], np.eye(2))
    assert np.array_equal(u[np.ix_(gamma, lam)], np.zeros((2, 2)))
    assert np.max(np.abs(np.abs(u[np.ix_(lam, lam)])
                         - [[0, 1], [1, 0]])) < 1e-10


def test_nearly_flat_spiral_loop_keeps_its_integrals(tmp_path, capsys):
    # alpha rises by 1e-14 over a full turn: the cos(alpha) d beta integral
    # must not come from a difference of sines divided by that step
    a0, a1, two_pi = 0.3, 0.3 + 1e-14, 2 * np.pi
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "simulate",
        "path": {"segments": [
            {"kind": "linear", "alpha_start": a0, "beta_start": 0.0,
             "alpha_end": a1, "beta_end": two_pi, "duration": 1.0},
            {"kind": "linear", "alpha_start": a1, "beta_start": two_pi,
             "alpha_end": a0, "beta_end": two_pi, "duration": 1.0}]}})
    code, out, _ = run_main(["simulate", scn], capsys)
    assert code == 0
    report = json.loads(out)
    assert abs(report["solid_angle"] - two_pi * (1 - np.cos(a0))) < 1e-12
    assert abs(report["dynamical_phase"]["plus"]
               + np.pi * np.cos(a0)) < 1e-12


def test_simulate_byte_identical_reruns(tmp_path, capsys):
    scn = write_scenario(tmp_path, ORANGE)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_main(["simulate", scn, "--out", str(out1)], capsys)[0] == 0
    assert run_main(["simulate", scn, "--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_open_path_in_loop_mode_fails(tmp_path, capsys):
    scn = write_scenario(tmp_path, {
        "schema_version": 1,
        "command": "simulate",
        "path": {"segments": [{
            "kind": "linear", "alpha_start": 0.3, "beta_start": 0.0,
            "alpha_end": 1.0, "beta_end": 0.5, "duration": 1.0,
        }]},
    })
    code, _, err = run_main(["simulate", scn], capsys)
    assert code == 2
    assert "closed" in err


def test_simulate_open_path_explicit(tmp_path, capsys):
    scn = write_scenario(tmp_path, {
        "schema_version": 1,
        "command": "simulate",
        "loop": False,
        "path": {"segments": [{
            "kind": "linear", "alpha_start": 0.3, "beta_start": 0.0,
            "alpha_end": 1.0, "beta_end": 0.5, "duration": 1.0,
        }], "closed": False},
    })
    out = tmp_path / "open.json"
    code, _, _ = run_main(["simulate", scn, "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["solid_angle"] is None
    assert report["holonomy_fidelity"] is None
    assert report["holonomy_fidelity_applicable"] is False
    assert report["checks"] == {"propagator_unitary": True,
                                "iswap_type": True}


def test_simulate_nonzero_dynamical_phase_not_applicable(tmp_path, capsys):
    scn = write_scenario(tmp_path, {
        "schema_version": 1,
        "command": "simulate",
        "path": {"segments": [{
            "kind": "linear",
            "alpha_start": np.pi / 3, "beta_start": np.pi,
            "alpha_end": np.pi / 3, "beta_end": -np.pi,
            "duration": 1.0,
        }], "closed": True},
    })
    out = tmp_path / "lat.json"
    code, _, _ = run_main(["simulate", scn, "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["dynamical_phase_zero"] is False
    assert report["dynamical_phase"]["plus"] == pytest.approx(np.pi / 2,
                                                              abs=1e-9)
    assert report["holonomy_fidelity_applicable"] is False
    assert "holonomy_fidelity" not in report["checks"]


def test_classify_geometric_gate(tmp_path, capsys):
    scn = write_scenario(tmp_path, {
        "schema_version": 1,
        "command": "classify",
        "gate": {"kind": "geometric", "alpha0": np.pi / 2,
                 "beta0": 0.3, "omega": -np.pi},
    })
    code, out, _ = run_main(["classify", scn], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["entangler_class"] == "SPE"
    assert report["invariants"]["g1_re"] == pytest.approx(0.0, abs=1e-12)
    assert report["invariants"]["g2"] == pytest.approx(-1.0, abs=1e-12)
    assert report["checks"]["matches_closed_form"] is True


def test_classify_lambda_geometric_gate(tmp_path, capsys):
    gate = {"kind": "geometric", "alpha0": np.pi / 2, "beta0": 0.3,
            "omega": -np.pi, "sector": "lambda"}
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "classify", "gate": gate})
    code, out, _ = run_main(["classify", scn], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["gate"] == gate
    assert report["entangler_class"] == "SPE"
    assert report["checks"]["matches_closed_form"] is True


def test_classify_rotation_gate(tmp_path, capsys):
    scn = write_scenario(tmp_path, {
        "schema_version": 1,
        "command": "classify",
        "gate": {"kind": "rotation", "omega": -np.pi},
    })
    code, out, _ = run_main(["classify", scn], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["gate"] == {"kind": "rotation", "omega": -np.pi}
    assert report["entangler_class"] == "SPE"
    assert report["checks"]["matches_closed_form"] is True


def test_classify_matrix_gate(tmp_path, capsys):
    eye = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)]
           for i in range(4)]
    scn = write_scenario(tmp_path, {
        "schema_version": 1,
        "command": "classify",
        "gate": {"kind": "matrix", "matrix": eye},
    })
    code, out, _ = run_main(["classify", scn], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["entangler_class"] == "NOT_PE"
    assert report["closed_form"] is None


def test_classify_rejects_non_unitary_matrix(tmp_path, capsys):
    bad = [[[2.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)]
           for i in range(4)]
    scn = write_scenario(tmp_path, {
        "schema_version": 1,
        "command": "classify",
        "gate": {"kind": "matrix", "matrix": bad},
    })
    code, _, err = run_main(["classify", scn], capsys)
    assert code == 2
    assert "unitary" in err


# A Haar unitary plus a complex perturbation of scale ~3e-11: its
# unitarity defect (9.3e-11) is within the tolerance 1e-10, but the
# imaginary part of its G2 (1.8e-10) is not.
NEAR_UNITARY = [
    [[0.4496104862675303, -0.4035417121075188],
     [-0.140628020012489, 0.06513184606497302],
     [0.36897456731906564, -0.16969408054554894],
     [0.4870787573778518, 0.45694865311407284]],
    [[-0.24948054524473823, -0.4298609633889569],
     [-0.12457434147763619, -0.6675846495255222],
     [0.31527465260680604, 0.42110424276204134],
     [-0.07024296903359757, -0.1006479724137]],
    [[-0.22215969470194086, -0.4623773944699782],
     [-0.3114998599289312, 0.3405140266450544],
     [-0.4792183231001749, 0.259972530661143],
     [-0.24359803053336912, 0.40901629747370616]],
    [[-0.3510965239833976, 0.039584754805809516],
     [0.35203289819881023, -0.4217634945481215],
     [-0.16569269617733026, -0.4833681934127036],
     [-0.05008497286152163, 0.5565476501479435]],
]


def test_classify_rejects_g2_imaginary_part_beyond_tolerance(tmp_path,
                                                             capsys):
    # the imaginary part of G2 is checked against the same tolerance as
    # unitarity, so a gate that passes one check can fail the other
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "classify", "tolerance": 1e-10,
        "gate": {"kind": "matrix", "matrix": NEAR_UNITARY}})
    code, stdout, err = run_main(["classify", scn], capsys)
    assert code == 2 and stdout == ""
    assert err == ("error: G2 has imaginary part 1.802e-10; input is too "
                   "far from unitary\n")


def test_classify_below_rounding_tolerance_reports_failed_checks(
        tmp_path, capsys):
    # a gate the program built is off unitary by rounding (~1.1e-16), and
    # the Gram route on it is off the invariants its pair gives by about
    # 1e-16, with and without AVX2/FMA; below that tolerance those checks
    # fail in the report, as simulate's do, instead of the invariants
    # refusing it. The pair's invariants meet the closed form exactly here
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "classify", "tolerance": 1e-17,
        "gate": {"kind": "geometric", "alpha0": 0.3, "beta0": 0.3,
                 "omega": 1.1},
    })
    code, out, err = run_main(["classify", scn], capsys)
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["checks"] == {"gate_unitary": False,
                                "matches_closed_form": True,
                                "iswap_type": False}
    assert report["passed"] is False
    assert report["closed_form_deviation"] < 1e-17
    # a matrix input is still held to the tolerance itself: in double
    # precision 2 (1/sqrt2)^2 rounds to 1 + 2.2e-16
    h = 1 / np.sqrt(2)
    rows = [[1, 0, 0, 0], [0, h, h, 0], [0, h, -h, 0], [0, 0, 0, 1]]
    matrix = [[[float(x), 0.0] for x in row] for row in rows]
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "classify", "tolerance": 1e-17,
        "gate": {"kind": "matrix", "matrix": matrix},
    }, name="matrix.json")
    code, out, err = run_main(["classify", scn], capsys)
    assert (code, out) == (2, "")
    assert err == "error: gate matrix is not unitary within tolerance\n"


def test_simulate_holds_its_propagator_to_the_report_tolerance(
        tmp_path, capsys, monkeypatch):
    # a propagator whose unitarity defect (5e-10) lies between the
    # pipeline's rounding tolerance (1e-10) and the scenario's (1e-9) is
    # answered, and passes its unitarity check, not refused as not unitary.
    # Its Gram invariants move by about 1.2e-9 from those of its pair
    # scaled to unit norm, whose invariants the report gives, so the
    # iSWAP-type cross-check runs the Gram route on that unit pair's gate
    # and passes too
    from schmidt_gates import dynamics, linalg

    def off_unitary(pulses, sector):
        a, b = dynamics._pair(pulses)
        s = math.sqrt(1.0 + 5e-10)
        return linalg.embed(s * a, s * b, sector)

    monkeypatch.setattr(dynamics, "propagate", off_unitary)
    scn = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                       "latitude_loop.json")
    out = tmp_path / "report.json"
    code, stdout, err = run_main(["simulate", scn, "--out", str(out)], capsys)
    assert (code, stdout, err) == (0, "", "")
    report = json.loads(out.read_text())
    u = np.array([[complex(re, im) for re, im in row]
                  for row in report["propagator"]])
    assert 4e-10 < linalg.unitarity_defect(u) < 6e-10
    assert report["tolerance"] == 1e-9
    assert report["checks"]["propagator_unitary"] is True
    assert report["checks"]["iswap_type"] is True
    assert report["passed"] is True


def test_sweep_map_output(tmp_path, capsys):
    out = tmp_path / "map.csv"
    scn = write_scenario(tmp_path, {
        "schema_version": 1,
        "command": "sweep-map",
        "alpha0": {"start": 0.0, "stop": np.pi / 2, "count": 6},
        "omega": {"start": -np.pi, "stop": np.pi, "count": 7},
        "out": str(out),
    })
    code, _, err = run_main(["sweep-map", scn], capsys)
    assert code == 0
    assert "checks pass" in err
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 42
    assert list(rows[0]) == ["alpha0", "omega", "g1_re", "g1_im", "g2",
                             "entangler_class"]
    # alpha0-major ordering, omega fastest
    assert float(rows[0]["alpha0"]) == float(rows[6]["alpha0"]) == 0.0
    assert float(rows[0]["omega"]) == pytest.approx(-np.pi)
    assert float(rows[1]["omega"]) > float(rows[0]["omega"])
    # the equator row at omega = -pi is the maximal entangler
    last = rows[-7]
    assert float(last["alpha0"]) == pytest.approx(np.pi / 2)
    assert last["entangler_class"] == "SPE"
    # byte-identical rerun
    out2 = tmp_path / "map2.csv"
    assert run_main(["sweep-map", scn, "--out", str(out2)], capsys)[0] == 0
    assert out.read_bytes() == out2.read_bytes()


def test_sweep_map_blocks_match_one_gate_at_a_time(tmp_path, capsys):
    # 23 x 29 = 667 points: one full block and a part-filled second one;
    # each row is the pair route's for its gate alone, and the Gram route
    # on the embedded gate agrees with it within the tolerance
    from schmidt_gates import cli
    from schmidt_gates.gates import schmidt_gate, schmidt_pair
    from schmidt_gates.invariants import (
        classify,
        closed_form_invariants,
        makhlin_invariants,
        pair_invariants,
    )
    assert cli._SWEEP_BLOCK < 23 * 29 < 2 * cli._SWEEP_BLOCK
    out = tmp_path / "map.csv"
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "sweep-map",
        "alpha0": {"start": 0.05, "stop": 3.0, "count": 23},
        "omega": {"start": -6.0, "stop": 5.5, "count": 29},
        "beta0": 0.7, "out": str(out)})
    code, _, err = run_main(["sweep-map", scn], capsys)
    assert code == 0
    lines = ["alpha0,omega,g1_re,g1_im,g2,entangler_class"]
    worst = gram_worst = 0.0
    for a in np.linspace(0.05, 3.0, 23):
        for w in np.linspace(-6.0, 5.5, 29):
            inv = pair_invariants(*schmidt_pair(a, 0.7, w))
            closed = closed_form_invariants(a, w)
            worst = max(worst, abs(inv.g1 - closed.g1),
                        abs(inv.g2 - closed.g2))
            gram = makhlin_invariants(schmidt_gate(a, 0.7, w))
            gram_worst = max(gram_worst, abs(gram.g1 - inv.g1),
                             abs(gram.g2 - inv.g2))
            values = (a, w, inv.g1.real, inv.g1.imag, inv.g2)
            lines.append(",".join([*(format(float(x), ".17g") for x in values),
                                   classify(inv)]))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert err == (f"sweep-map: 667 rows, max closed-form deviation "
                   f"{worst:.3e}, checks pass\n")
    assert gram_worst <= 1e-14


def test_sweep_map_builds_no_gate_and_runs_no_gram_product(
        tmp_path, capsys, monkeypatch):
    # the shipped map is judged from its Cayley-Klein pairs alone: with
    # every binding of embed and the Gram route made to raise, it still
    # writes its golden table
    from schmidt_gates import dynamics, gates, invariants, linalg

    def refused(*args, **kwargs):
        raise AssertionError("sweep-map built a 4x4 gate")

    for module in (linalg, gates, dynamics):
        monkeypatch.setattr(module, "embed", refused)
    monkeypatch.setattr(invariants, "makhlin_invariants", refused)
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    out = tmp_path / "map.csv"
    code, stdout, err = run_main(
        ["sweep-map", os.path.join(root, "scenarios", "entangler_map.json"),
         "--out", str(out)], capsys)
    assert (code, stdout) == (0, ""), err
    with open(os.path.join(root, "tests", "golden", "entangler_map.csv"),
              "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_trotter_sweep_output(tmp_path, capsys):
    out = tmp_path / "trot.csv"
    scn = write_scenario(tmp_path, {
        "schema_version": 1,
        "command": "trotter-sweep",
        "theta": [np.pi / 4],
        "n_values": [8, 16, 32],
        "out": str(out),
    })
    code, _, err = run_main(["trotter-sweep", scn], capsys)
    assert code == 0
    assert "checks pass" in err
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert list(rows[0]) == ["theta", "n", "infidelity", "trotter_error",
                             "omega_empirical"]
    infid = [float(r["infidelity"]) for r in rows]
    terr = [float(r["trotter_error"]) for r in rows]
    assert 3.5 < infid[0] / infid[1] < 4.5
    assert 1.8 < terr[0] / terr[1] < 2.2
    for r in rows:
        assert float(r["omega_empirical"]) == pytest.approx(-np.pi / 2,
                                                            abs=1e-9)


def test_trotter_sweep_errors_match_an_independent_oracle(tmp_path, capsys):
    # both error columns against reference.trotter_distance, which shares
    # no code with su2_exp, su2_product or the closed-form power; at
    # theta = 1e-4, n = 4096 sqrt(2 (1 - F)) read 2.1e-8 for a distance of
    # 2.7e-8. The oracle's matrix_power multiplies the rounding of its step
    # n-fold: at theta = 0, where the splitting is exact, it reads up to
    # 1.8e-13 at n = 4096, hence the n eps in the distance's bound
    thetas = [0.0, 1e-4, 0.1, np.pi / 4, 1.5, 3.0, -2.0]
    n_values = [1, 2, 3, 7, 64, 1000, 4096]
    out = tmp_path / "trot.csv"
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "trotter-sweep", "theta": thetas,
        "n_values": n_values, "out": str(out)})
    code, _, err = run_main(["trotter-sweep", scn], capsys)
    assert code == 0, err
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(thetas) * len(n_values)
    for row in rows:
        n = int(row["n"])
        ref = reference.trotter_distance(float(row["theta"]), n)
        drift = 4 * n * np.finfo(float).eps
        assert (abs(float(row["trotter_error"]) - ref)
                <= 1e-8 * ref + 1e-15 + drift), row
        assert (abs(float(row["infidelity"]) - ref ** 2 / 2)
                <= 1e-8 * ref ** 2 / 2 + 1e-15), row


def _trotter_errors(theta, n):
    """One row's (infidelity, trotter_error), from the gamma pairs of the
    exact and the n-step propagator as the CLI forms them for a block."""
    from schmidt_gates.dynamics import (
        tilted_segment_propagator,
        trotter_propagate,
    )
    diff = np.subtract(tilted_segment_propagator(theta),
                       trotter_propagate(theta, n))
    infid = 0.25 * (diff.real ** 2 + diff.imag ** 2).sum(axis=0)
    return infid, np.sqrt(2.0 * infid)


@pytest.mark.parametrize("theta", [
    [float(x) for x in np.random.default_rng(43).uniform(-3.0, 3.0, 530)],
    {"start": -2.5, "stop": 2.9, "count": 530},
], ids=["list", "grid"])
def test_trotter_sweep_blocks_match_one_row_at_a_time(tmp_path, capsys,
                                                      theta):
    # 530 theta: one full block and a part-filled second one
    from schmidt_gates import cli
    from schmidt_gates.dynamics import (
        composed_tilted_gate,
        extract_rotation_angle,
    )
    assert cli._SWEEP_BLOCK < 530 < 2 * cli._SWEEP_BLOCK
    n_values = [1, 5, 512]
    out = tmp_path / "trot.csv"
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "trotter-sweep", "theta": theta,
        "n_values": n_values, "out": str(out)})
    code, _, err = run_main(["trotter-sweep", scn], capsys)
    assert code == 0
    thetas = (np.asarray(theta, dtype=float) if isinstance(theta, list)
              else np.linspace(theta["start"], theta["stop"], theta["count"]))
    lines = ["theta,n,infidelity,trotter_error,omega_empirical"]
    worst = 0.0
    for th in thetas:
        omega, resid = extract_rotation_angle(*composed_tilted_gate(th))
        worst = max(worst, resid)
        for n in n_values:
            values = (th, n, *_trotter_errors(th, n), omega)
            lines.append(",".join(format(float(x), ".17g") for x in values))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert err == (f"trotter-sweep: {530 * 3} rows, max rotation-form "
                   f"residual {worst:.3e}, checks pass\n")


def test_trotter_sweep_blocks_split_long_n_values(tmp_path, capsys,
                                                 monkeypatch):
    # more n_values than a block holds rows: blocks end inside a theta's
    # rows, each block's working stack stays within _SWEEP_BLOCK rows, and
    # the table is the one the rows give one at a time; n beyond int64 runs
    from schmidt_gates import dynamics
    from schmidt_gates.dynamics import (
        composed_tilted_gate,
        extract_rotation_angle,
        trotter_propagate,
    )
    thetas = [0.0, 0.4, -1.3]
    n_values = [*range(1, 300), 2 ** 70]
    assert 1 < 3 * len(n_values) / cli._SWEEP_BLOCK < 2
    sizes = []

    def recording(theta, n):
        sizes.append(np.shape(n))
        return trotter_propagate(theta, n)

    # the CLI calls the layer through its module
    monkeypatch.setattr(dynamics, "trotter_propagate", recording)
    out = tmp_path / "trot.csv"
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "trotter-sweep", "theta": thetas,
        "n_values": n_values, "out": str(out)})
    code, _, err = run_main(["trotter-sweep", scn], capsys)
    assert code == 0, err
    assert sizes == [(cli._SWEEP_BLOCK,), (3 * 300 - cli._SWEEP_BLOCK,)]
    lines = ["theta,n,infidelity,trotter_error,omega_empirical"]
    for th in thetas:
        omega, _ = extract_rotation_angle(*composed_tilted_gate(th))
        for n in n_values:
            lines.append(",".join([
                format(th, ".17g"), str(n),
                *(format(float(x), ".17g")
                  for x in (*_trotter_errors(th, n), omega))]))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("x", [-0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                               1.7976931348623157e308, -1.7976931348623157e308,
                               1e16, 0.1, 1 / 3, np.pi])
def test_table_cells_print_as_format_float(x):
    from schmidt_gates import cli
    assert "%.17g" % x == format(x, ".17g") == cli.format_float(x)
    block = cli._render("%s,%.17g\n", [np.array(["a", "b"], dtype=object),
                                        np.array([x, -x])])
    assert block == (f"a,{cli.format_float(x)}\n"
                     f"b,{cli.format_float(-x)}\n")
    assert list(cli._cells(np.array([x, x]))) == [cli.format_float(x)] * 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 1])
def test_table_block_with_non_finite_value_rejected(bad, column):
    from schmidt_gates import cli
    numbers = [np.array([0.5, 1.5, 2.5]), np.array([3.0, 4.0, 5.0])]
    numbers[column][2] = bad
    with pytest.raises(cli.ScenarioError) as info:
        cli._render("%s,%.17g,%.17g\n",
                    [np.array(["a", "b", "c"], dtype=object), *numbers])
    assert str(info.value) == cli._NOT_FINITE
    with pytest.raises(cli.ScenarioError):
        cli._cells(numbers[column])


_SAMPLED = {"kind": "sampled", "duration": 1.0,
            "beta": [0.01 * k for k in range(1500)],
            "alpha": [0.5 + 1e-4 * k for k in range(1500)]}


@pytest.mark.parametrize("bad, message", [
    ({700: True}, "True is not of type 'number'"),
    ({700: "0.5"}, "'0.5' is not of type 'number'"),
    ({700: None, 900: True}, "None is not of type 'number'"),
    ({700: 10 ** 400}, f"{10 ** 400!r} is not a finite number"),
    # an integer above the double range that rounds down into it
    ({700: 2 ** 1024 - 2 ** 971 + 1},
     f"{2 ** 1024 - 2 ** 971 + 1!r} is not a finite number"),
    ({700: float("nan")}, "nan is not a finite number"),
    ({700: -float("inf"), 900: "x"}, "-inf is not a finite number"),
])
def test_long_number_array_diagnostic_names_first_bad_item(tmp_path, capsys,
                                                           bad, message):
    # a valid long array is accepted in one pass; an invalid one gets the
    # per-item diagnostic of its first bad element
    segment = {**_SAMPLED, "alpha": list(_SAMPLED["alpha"])}
    for index, value in bad.items():
        segment["alpha"][index] = value
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({
        "schema_version": 1, "command": "simulate", "loop": False,
        "path": {"segments": [segment], "closed": False}}))
    code, out, err = run_main(["simulate", str(scn)], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: scenario field 'path/segments/0/alpha/700': "
                   f"{message}\n")


def test_long_number_array_at_range_edges_accepted():
    from schmidt_gates.cli import _validate
    big = 1.7976931348623157e308
    schema = {"type": "array", "items": {"type": "number"}, "minItems": 1}
    for values in ([0.5] * 1000 + [big, -big, 2 ** 1023, 0, -0.0],
                   [1, 2, 3], [big]):
        _validate(values, schema, ())


_BIG = sys.float_info.max


def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(
        lambda pair: -pair[0] if pair[1] else pair[0])


# ints, floats and bools, with the values at and beyond the double range
# and finite values large enough that a few of them sum past it
_ARRAY_VALUES = st.one_of(
    st.integers(), st.floats(), st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, _BIG, -_BIG,
                     int(_BIG), 2 ** 1024, -(2 ** 1024)]),
    _signed(st.integers(2 ** 1023, 2 ** 1100)),
    _signed(st.floats(_BIG / 4, _BIG)))


def _array_verdict(values, finite_numbers):
    """The validator's diagnostic of `values` as a number array, None if it
    accepts them, with `finite_numbers` as its one-pass check."""
    schema = {"type": "array", "items": {"type": "number"}, "minItems": 1}
    with mock.patch.object(cli, "_finite_numbers", finite_numbers):
        try:
            cli._validate(values, schema, ("path", "segments", 0, "alpha"))
        except cli.ScenarioError as exc:
            return str(exc)
    return None


@settings(deadline=None, derandomize=True, max_examples=400)
@given(values=st.lists(_ARRAY_VALUES, min_size=1, max_size=12))
def test_one_pass_number_check_agrees_with_numpy_check(values):
    # the standard-library check gives the verdict and the diagnostic of the
    # numpy one, and of the per-item walk alone
    verdict = _array_verdict(values, cli._finite_numbers)
    assert verdict == _array_verdict(values, reference.finite_numbers)
    assert verdict == _array_verdict(values, lambda _: False)


def test_scenario_error_paths(tmp_path, capsys):
    # missing file
    code, _, err = run_main(["simulate", str(tmp_path / "nope.json")], capsys)
    assert code == 2 and "cannot read" in err
    # malformed json with line info
    p = tmp_path / "broken.json"
    p.write_text('{"schema_version": 1,\n  "command": ')
    code, _, err = run_main(["simulate", str(p)], capsys)
    assert code == 2 and "line 2" in err
    # command mismatch
    scn = write_scenario(tmp_path, ORANGE)
    code, _, err = run_main(["classify", scn], capsys)
    assert code == 2 and "declares command" in err
    # schema violation names the failing field
    bad = dict(ORANGE, path={"preset": "orange_slice", "t1": -1.0, "tau": 2.0})
    scn = write_scenario(tmp_path, bad, "bad.json")
    code, _, err = run_main(["simulate", scn], capsys)
    assert code == 2 and "t1" in err
    # non-object scenario
    p = tmp_path / "arr.json"
    p.write_text("[1, 2]")
    code, _, err = run_main(["simulate", str(p)], capsys)
    assert code == 2 and "JSON object" in err
    # bad tolerance override
    scn = write_scenario(tmp_path, ORANGE, "tol.json")
    code, _, err = run_main(["simulate", scn, "--tol", "-1"], capsys)
    assert code == 2 and "tolerance" in err
    code, _, err = run_main(["simulate", scn, "--tol", "inf"], capsys)
    assert code == 2 and "tolerance" in err


def test_scenario_not_utf8_gives_one_diagnostic(tmp_path, capsys):
    # the bad byte lies beyond the first read buffer, and its offset is
    # the file's
    head = b'{"schema_version": 1, "command": "classify", "pad": "'
    p = tmp_path / "latin1.json"
    p.write_bytes(head + b"x" * 20000 + b'\xff"}')
    out = tmp_path / "report.json"
    code, stdout, err = run_main(["classify", str(p), "--out", str(out)],
                                 capsys)
    assert code == 2 and stdout == "" and not out.exists()
    assert err == (f"error: scenario is not valid UTF-8 (byte "
                   f"{len(head) + 20000}): invalid start byte\n")


def test_scenario_nested_too_deeply_gives_one_diagnostic(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text('{"schema_version": 1, "command": "classify", "gate": '
                 + "[" * 100000 + "]" * 100000 + "}")
    out = tmp_path / "report.json"
    code, stdout, err = run_main(["classify", str(p), "--out", str(out)],
                                 capsys)
    assert code == 2 and stdout == "" and not out.exists()
    assert err == "error: scenario is not valid JSON: nested too deeply\n"


def test_simulate_rejects_south_pole_loop(tmp_path, capsys):
    # a valid loop whose meridian runs through alpha = pi: the chart solid
    # angle would be off by 2 pi, so the scenario is rejected, not failed
    scn = write_scenario(tmp_path, {
        "schema_version": 1,
        "command": "simulate",
        "path": {"segments": [
            {"kind": "linear", "alpha_start": np.pi / 2,
             "beta_start": np.pi / 2, "alpha_end": np.pi / 2,
             "beta_end": -np.pi / 2, "duration": 1.0},
            {"kind": "linear", "alpha_start": np.pi / 2,
             "beta_start": -np.pi / 2, "alpha_end": 3 * np.pi / 2,
             "beta_end": -np.pi / 2, "duration": 1.0},
        ], "closed": True},
    })
    code, out, err = run_main(["simulate", scn], capsys)
    assert code == 2 and out == ""
    assert "segment 1" in err and "south pole" in err


@pytest.mark.parametrize("gate, field", [
    ({"kind": "rotation", "omega": "1.0"}, "gate/omega"),
    ({"kind": "geometric", "alpha0": 1.0, "beta0": 0.5, "omega": 1.0,
      "sector": 1.5}, "gate/sector"),
    ({"kind": 1.5, "omega": 1.0}, "gate/kind"),
])
def test_classify_diagnostic_names_wrong_typed_field(tmp_path, capsys, gate,
                                                     field):
    # the diagnostic comes from the branch the gate's kind declares, not
    # from whichever oneOf branch looks closest
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "classify", "gate": gate})
    code, out, err = run_main(["classify", scn], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: scenario field '{field}': ")


@pytest.mark.parametrize("override, field", [
    ({"kind": 1.5}, "path/segments/0/kind"),
    ({"alpha_start": "0.3"}, "path/segments/0/alpha_start"),
])
def test_simulate_diagnostic_names_segment_field(tmp_path, capsys, override,
                                                 field):
    # an untagged path branch holding a segment tagged by its kind
    segment = {"kind": "linear", "alpha_start": 0.3, "beta_start": 0.0,
               "alpha_end": 1.0, "beta_end": 0.5, "duration": 1.0}
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "simulate", "loop": False,
        "path": {"segments": [{**segment, **override}]}})
    code, out, err = run_main(["simulate", scn], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: scenario field '{field}': ")


TWO_SPIRAL = {
    "schema_version": 1,
    "command": "simulate",
    "samples_per_segment": 1000,
    "path": {"segments": [
        {"kind": "linear", "alpha_start": 0.5, "beta_start": 0.0,
         "alpha_end": 1.0, "beta_end": np.pi, "duration": 1.0},
        {"kind": "linear", "alpha_start": 1.0, "beta_start": np.pi,
         "alpha_end": 0.5, "beta_end": 2 * np.pi, "duration": 1.0},
    ]},
}

SWEEP = {
    "schema_version": 1,
    "command": "sweep-map",
    "alpha0": {"start": 0.0, "stop": 1.0, "count": 3},
    "omega": {"start": -1.0, "stop": 1.0, "count": 2},
}


@pytest.mark.parametrize("base, path", [
    (SWEEP, ("alpha0", "count")),
    (TWO_SPIRAL, ("samples_per_segment",)),
], ids=["sweep-map-count", "simulate-samples"])
def test_integer_valued_float_runs_like_integer(tmp_path, capsys, base, path):
    # the schema's integer accepts 3.0; the run must not crash on it
    spelled = json.loads(json.dumps(base))
    target = spelled
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = float(target[path[-1]])
    outs = []
    for name, scenario in (("int", base), ("float", spelled)):
        scn = write_scenario(tmp_path, scenario, f"{name}.json")
        out = tmp_path / f"{name}.out"
        code, _, _ = run_main([base["command"], scn, "--out", str(out)],
                              capsys)
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command, text, field", [
    ("classify", '{"schema_version": 1, "command": "classify", '
                 '"gate": {"kind": "rotation", "omega": NaN}}', "gate/omega"),
    ("simulate", '{"schema_version": 1, "command": "simulate", "path": '
                 '{"preset": "orange_slice", "t1": 1.0, "tau": Infinity}}',
     "path/tau"),
])
def test_non_finite_number_rejected(tmp_path, capsys, command, text, field):
    # Python's json reads NaN and Infinity; they are not valid numbers here
    scn = tmp_path / "scn.json"
    scn.write_text(text)
    code, out, err = run_main([command, str(scn)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: scenario field '{field}': ")


def _transport(a0, b0, a1, b1, sector="gamma"):
    """Exact propagator that carries each branch state of the sector from
    (a0, b0) to (a1, b1), sum over +- of |psi(end)><psi(start)|, with the
    idle pair untouched."""
    u = np.zeros((4, 4), dtype=complex)
    for sign in "+-":
        u += np.outer(schmidt_gates.assemble_state(a1, b1, sector + sign),
                      schmidt_gates.assemble_state(a0, b0, sector + sign).conj())
    for k in ((0, 3) if sector == "gamma" else (1, 2)):
        u[k, k] = 1.0
    return u


def _report_propagator(report):
    return np.array([[complex(re, im) for re, im in row]
                     for row in report["propagator"]])


def test_two_sample_rotation_arc_matches_transport(tmp_path, capsys):
    # a step of 1.3 rad is not below pi times this arc's clearance, so two
    # samples could not lift it; the arc is not sampled, and its propagator
    # is the transport one, with the end point from an np.unwrap lift
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "simulate", "loop": False,
        "samples_per_segment": 2,
        "path": {"segments": [{
            "kind": "rotation", "alpha_start": 1.0, "beta_start": 0.2,
            "axis": [0.3, -0.5, 0.8], "angle": 1.3, "duration": 1.0}]},
    })
    out = tmp_path / "report.json"
    code, _, err = run_main(["simulate", scn, "--out", str(out)], capsys)
    assert code == 0, err
    k = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    r0 = schmidt_gates.sphere_point(1.0, 0.2)
    phi = np.linspace(0.0, 1.3, 2001)[:, None]
    r = (np.cos(phi) * r0 + np.sin(phi) * np.cross(k, r0)
         + (1 - np.cos(phi)) * np.dot(k, r0) * k)
    beta = np.unwrap(np.arctan2(r[:, 1], r[:, 0]))
    expect = _transport(1.0, 0.2, np.arctan2(np.hypot(*r[-1, :2]), r[-1, 2]),
                        beta[-1] + 0.2 - beta[0])
    u = _report_propagator(json.loads(out.read_text()))
    assert np.max(np.abs(u - expect)) < 1e-13


def test_great_circle_is_its_holonomy_at_any_sampling(tmp_path, capsys):
    # a full great circle about a tilted axis encloses Omega = 2 pi with no
    # dynamical phase; its report does not depend on samples_per_segment,
    # and its propagator is the Omega = 2 pi gate to rounding
    reports = []
    for samples in (100, 1000):
        scn = write_scenario(tmp_path, {
            "schema_version": 1, "command": "simulate", "loop": True,
            "samples_per_segment": samples,
            "path": {"segments": [{
                "kind": "rotation", "alpha_start": np.pi / 2,
                "beta_start": np.pi / 2, "axis": [0.6, 0.0, 0.8],
                "angle": 2 * np.pi, "duration": 1.0}], "closed": True},
        })
        out = tmp_path / f"{samples}.json"
        code, _, err = run_main(["simulate", scn, "--out", str(out)], capsys)
        assert code == 0, err
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    u = _report_propagator(json.loads(reports[0]))
    v = schmidt_gates.schmidt_gate(np.pi / 2, np.pi / 2, 2 * np.pi)
    # min over phi of ||u - exp(i phi) v||_F / 2, formed directly
    overlap = np.trace(v.conj().T @ u)
    assert np.linalg.norm(u - overlap / abs(overlap) * v) / 2 <= 1e-14


@pytest.mark.parametrize("alpha_start, angle, samples", [
    (1.2, 6.0, 4),
    (0.02, 2 * np.pi, 20000),
], ids=["coarse-latitude-arc", "full-turn-near-pole"])
def test_latitude_arc_clear_of_poles_runs(tmp_path, capsys, alpha_start,
                                          angle, samples):
    # an arc about the z axis is a latitude arc with exact rates, whatever
    # the sampling: no step rule applies to it
    closed = angle == 2 * np.pi
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "simulate", "loop": closed,
        "samples_per_segment": samples,
        "path": {"segments": [dict(_rotation([0.0, 0.0, 1.0], angle),
                                   alpha_start=alpha_start)],
                 "closed": closed},
    })
    out = tmp_path / "report.json"
    code, _, err = run_main(["simulate", scn, "--out", str(out)], capsys)
    assert code == 0, err
    omega = json.loads(out.read_text())["solid_angle"]
    if closed:
        cap = 2 * np.pi * (1 - np.cos(alpha_start))
        assert abs(omega - cap) <= 1e-12


@pytest.mark.parametrize("axis, alpha_start, tol", [
    ([0.0, 0.0, 1.0], 0.02, 1e-12),
    ([0.0, 0.01, 1.0], 0.03, 1e-10),
], ids=["latitude", "tilted"])
def test_ten_turn_arc_near_pole_runs(tmp_path, capsys, axis, alpha_start,
                                     tol):
    # ten turns near the north pole, sampled at the requested 20000 points,
    # where each step is below pi times the arc's clearance; a full turn
    # about k encloses the cap 2 pi (1 - k . r0), in closed form
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "simulate", "loop": True,
        "samples_per_segment": 20000,
        "path": {"segments": [dict(_rotation(axis, 20 * np.pi),
                                   alpha_start=alpha_start, beta_start=0.0)],
                 "closed": True},
    })
    out = tmp_path / "report.json"
    code, _, err = run_main(["simulate", scn, "--out", str(out)], capsys)
    assert code == 0, err
    k = np.asarray(axis) / np.linalg.norm(axis)
    r0 = schmidt_gates.sphere_point(alpha_start, 0.0)
    cap = 20 * np.pi * (1 - float(np.dot(k, r0)))
    assert abs(json.loads(out.read_text())["solid_angle"] - cap) <= tol


def test_sampled_segment_needs_two_samples(tmp_path, capsys):
    # one sample is refused by the schema, which names the field; two are
    # the linear segment between them, driven exactly and reported by its
    # field, as a linear segment is
    segment = {"kind": "sampled", "alpha": [0.5], "beta": [0.0],
               "duration": 1.0}
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "simulate", "loop": False,
        "path": {"segments": [segment]}})
    code, out, err = run_main(["simulate", scn], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: scenario field 'path/segments/0/alpha': ")
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "simulate", "loop": False,
        "path": {"segments": [dict(segment, alpha=[0.5, 0.6],
                                   beta=[0.0, 0.1])]}})
    out = tmp_path / "report.json"
    code, _, err = run_main(["simulate", scn, "--out", str(out)], capsys)
    assert code == 0, err
    report = json.loads(out.read_text())
    (pulse,) = report["schedule"]
    assert list(pulse) == ["kind", "duration", "c_xy", "c_dm", "c_z"]
    assert pulse["kind"] == "rotating"
    assert [pulse["c_xy"], pulse["c_dm"], pulse["c_z"]] == pytest.approx(
        [0.0, 0.05, 0.05], abs=1e-15)
    u = _report_propagator(report)
    assert np.max(np.abs(u - _transport(0.5, 0.0, 0.6, 0.1))) < 1e-15


@pytest.mark.parametrize("sector", ["gamma", "lambda"])
def test_linear_segment_reports_as_its_two_sample_polyline(tmp_path, capsys,
                                                           sector):
    # a linear segment is the polyline of its two ends: the same report, to
    # the byte, as a sampled segment of those two samples; at a start beta
    # in each quadrant, so that the terms of a zero rate, whose products
    # with sin(beta) and cos(beta) carry either sign, report +0
    reports = []
    for beta0 in (0.7, 2.3, -2.3, -0.7):
        for a0, b0, a1, b1 in ((0.4, beta0, 0.4, beta0 + 1.1),
                               (0.4, beta0, 1.3, beta0),
                               (0.4, beta0, 1.3, beta0 - 2.6)):
            segments = [
                {"kind": "linear", "alpha_start": a0, "beta_start": b0,
                 "alpha_end": a1, "beta_end": b1, "duration": 1.5},
                {"kind": "sampled", "alpha": [a0, a1], "beta": [b0, b1],
                 "duration": 1.5}]
            texts = []
            for segment in segments:
                scn = write_scenario(tmp_path, {
                    "schema_version": 1, "command": "simulate",
                    "sector": sector, "loop": False,
                    "path": {"segments": [segment]}})
                code, out, err = run_main(["simulate", scn], capsys)
                assert (code, err) == (0, "")
                texts.append(out)
            assert texts[0] == texts[1]
            reports.append(texts[0])
    kinds = [json.loads(r)["schedule"][0]["kind"] for r in reports]
    assert kinds == ["constant", "constant", "rotating"] * 4
    for text, zeros in zip(reports, [("c_xy", "c_dm"), ("c_z",), ()] * 4):
        for name in zeros:
            assert f'"{name}": 0,' in text or f'"{name}": 0\n' in text


def test_rotation_through_pole_diagnostic(tmp_path, capsys):
    # half a turn about the x axis from (0, 1, 0) crosses the north pole:
    # a rotation arc refuses it and names the segment kinds that take a
    # pole crossing
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "simulate", "loop": False,
        "path": {"segments": [_rotation([1.0, 0.0, 0.0], angle=np.pi)
                              | {"alpha_start": np.pi / 2,
                                 "beta_start": np.pi / 2}]}})
    code, out, err = run_main(["simulate", scn], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: invalid path: rotation segment passes through or "
                   "too close to a pole; use a linear or sampled segment for "
                   "a pole crossing\n")


def test_sampled_schedule_areas_are_exact(tmp_path, capsys):
    # the areas of a sampled pulse are the time integrals of the field the
    # polyline applies, piece by piece from the antiderivatives:
    # -(1/2) d alpha (cos b0 - cos b1) / d beta and
    # (1/2) d alpha (sin b1 - sin b0) / d beta (d beta bounded away from 0)
    rng = np.random.default_rng(17)
    alpha = np.cumsum(rng.uniform(-0.5, 0.5, 200))
    beta = np.cumsum(rng.choice([-1, 1], 200) * rng.uniform(0.1, 0.5, 200))
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "simulate", "loop": False,
        "path": {"segments": [{"kind": "sampled", "alpha": alpha.tolist(),
                               "beta": beta.tolist(), "duration": 2.5}]}})
    out = tmp_path / "report.json"
    code, _, err = run_main(["simulate", scn, "--out", str(out)], capsys)
    assert code == 0, err
    (pulse,) = json.loads(out.read_text())["schedule"]
    assert list(pulse) == ["kind", "duration", "samples", "area_xy",
                           "area_dm", "area_z"]
    assert (pulse["kind"], pulse["duration"], pulse["samples"]) == (
        "sampled", 2.5, 200)
    ratio = np.diff(alpha) / np.diff(beta)
    area_xy = -0.5 * np.sum(ratio * (np.cos(beta[:-1]) - np.cos(beta[1:])))
    area_dm = 0.5 * np.sum(ratio * (np.sin(beta[1:]) - np.sin(beta[:-1])))
    assert pulse["area_xy"] == pytest.approx(area_xy, abs=1e-13)
    assert pulse["area_dm"] == pytest.approx(area_dm, abs=1e-13)
    assert pulse["area_z"] == 0.5 * (beta[-1] - beta[0])


def test_closed_simulate_passes_over_a_polyline_twice(tmp_path, capsys,
                                                     monkeypatch):
    # a polyline's piece integrals are formed once into its record, which
    # solid_angle and dynamical_phase read, and once for its report's areas
    from schmidt_gates import sphere

    passes = []
    piece_integrals = sphere._piece_integrals

    def counted(*args):
        passes.append(len(args[0]))
        return piece_integrals(*args)

    monkeypatch.setattr(sphere, "_piece_integrals", counted)
    t = np.linspace(0.0, 1.0, 40)
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "simulate",
        "path": {"segments": [{
            "kind": "sampled", "duration": 1.0,
            "alpha": (1.0 + 0.2 * np.sin(2 * np.pi * t)).tolist(),
            "beta": (2 * np.pi * t).tolist()}], "closed": True}})
    out = tmp_path / "report.json"
    code, _, err = run_main(["simulate", scn, "--out", str(out)], capsys)
    assert code == 0, err
    assert json.loads(out.read_text())["solid_angle"] is not None
    assert passes == [40, 40]


def test_two_sample_tilted_arc_runs(tmp_path, capsys):
    # neither a tilted arc nor a coordinate spiral is sampled: each runs as
    # one rotating pulse at any sampling, reported by its field at the start
    k = np.array([0.3, 0.0, 1.0]) / np.linalg.norm([0.3, 0.0, 1.0])
    r0 = schmidt_gates.sphere_point(1.0, 0.2)
    # the arc's rates at the start, from r0' = (angle / duration) k x r0:
    # alpha' = -z' / sin(alpha), beta' = (x y' - y x') / sin(alpha)^2
    dr = 0.5 * np.cross(k, r0)
    arc_rates = (-dr[2] / np.sin(1.0),
                 (r0[0] * dr[1] - r0[1] * dr[0]) / np.sin(1.0) ** 2)
    for segment, (da, db), beta in ((_rotation(list(k)), arc_rates, 0.2),
                                    (_linear(0.3, 0.5, 1.0), (0.2, 1.0), 0.0)):
        scn = write_scenario(tmp_path, {
            "schema_version": 1, "command": "simulate", "loop": False,
            "samples_per_segment": 2, "path": {"segments": [segment]},
        })
        out = tmp_path / "report.json"
        code, _, err = run_main(["simulate", scn, "--out", str(out)], capsys)
        assert code == 0, err
        (pulse,) = json.loads(out.read_text())["schedule"]
        assert pulse["kind"] == "rotating"
        # the paper's field at the start: (-alpha' sin b, alpha' cos b, b') / 2
        assert list(pulse) == ["kind", "duration", "c_xy", "c_dm", "c_z"]
        assert [pulse["c_xy"], pulse["c_dm"], pulse["c_z"]] == pytest.approx(
            [-0.5 * da * np.sin(beta), 0.5 * da * np.cos(beta), 0.5 * db],
            abs=1e-15)


def test_loop_mode_with_path_declared_open_rejected(tmp_path, capsys):
    # the refusal names the declaration, also for a latitude loop whose
    # endpoints coincide
    for alpha_end, beta_end in ((1.0, 0.5), (0.3, 2 * np.pi)):
        scn = write_scenario(tmp_path, {
            "schema_version": 1, "command": "simulate", "loop": True,
            "path": {"segments": [{
                "kind": "linear", "alpha_start": 0.3, "beta_start": 0.0,
                "alpha_end": alpha_end, "beta_end": beta_end, "duration": 1.0,
            }], "closed": False},
        })
        out = tmp_path / "report.json"
        code, stdout, err = run_main(["simulate", scn, "--out", str(out)],
                                     capsys)
        assert code == 2 and stdout == ""
        assert err == ("error: simulate in loop mode requires a closed path, "
                       'but the path declares "closed": false\n')
        assert not out.exists()


def _linear(alpha_start, alpha_end, duration):
    return {"kind": "linear", "alpha_start": alpha_start, "beta_start": 0.0,
            "alpha_end": alpha_end, "beta_end": 1.0, "duration": duration}


@pytest.mark.parametrize("scenario", [
    {"schema_version": 1, "command": "sweep-map",
     "alpha0": {"start": 0.0, "stop": 1e308, "count": 2},
     "omega": {"start": -1e308, "stop": 1e308, "count": 3}},
    {"schema_version": 1, "command": "simulate", "loop": False,
     "path": {"segments": [_linear(-1e308, 1e308, 1.0)]}},
    {"schema_version": 1, "command": "simulate", "loop": False,
     "path": {"segments": [_linear(0.3, 0.5, 1e-320)]}},
    {"schema_version": 1, "command": "simulate", "loop": False,
     "path": {"segments": [
         {"kind": "linear", "alpha_start": 0.3, "beta_start": 0.0,
          "alpha_end": 0.5, "beta_end": 0.2, "duration": 1e308},
         {"kind": "linear", "alpha_start": 0.5, "beta_start": 0.2,
          "alpha_end": 0.7, "beta_end": 0.4, "duration": 1e308}]}},
], ids=["sweep-map-grid-overflow", "segment-range-overflow",
        "segment-duration-underflow", "path-duration-overflow"])
def test_non_finite_result_rejected(tmp_path, capsys, scenario):
    # every input is a finite double, but a grid step, a path rate or the
    # path's duration (a sum its serializer refuses) is not
    scn = write_scenario(tmp_path, scenario)
    out = tmp_path / "out.txt"
    code, stdout, err = run_main([scenario["command"], scn, "--out", str(out)],
                                 capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("via", ["flag", "field"])
def test_unwritable_output_rejected(tmp_path, capsys, via):
    target = str(tmp_path / "missing-dir" / "x.json")
    scenario = dict(ORANGE, out=target) if via == "field" else ORANGE
    scn = write_scenario(tmp_path, scenario)
    args = ["simulate", scn] + (["--out", target] if via == "flag" else [])
    code, stdout, err = run_main(args, capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error: cannot write output: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name", ["\ud800.json", "a\x00b.json"],
                         ids=["lone-surrogate", "nul"])
def test_output_path_open_refuses_rejected(tmp_path, capsys, name):
    # open() refuses a path it cannot encode, or one with a NUL, with a
    # ValueError rather than an OSError; both are one diagnostic line
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "classify",
        "gate": {"kind": "rotation", "omega": -np.pi},
        "out": str(tmp_path / name)})
    code, stdout, err = run_main(["classify", scn], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error: cannot write output: ")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == ["scenario.json"]


def test_cli_import_does_not_load_jsonschema():
    code = ("import sys, schmidt_gates.cli; "
            "assert 'jsonschema' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=PACKAGE_ENV)
    assert proc.returncode == 0, proc.stderr


def fresh_run(statement, argv=(), cwd=None):
    """(exit status, stdout, stderr, top-level modules beyond the standard
    library left in sys.modules) of a fresh interpreter that runs
    `statement` with `argv` as its arguments."""
    code = ("import sys\n"
            "try:\n"
            f"    {statement}\n"
            "finally:\n"
            "    print('modules:', *sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=PACKAGE_ENV,
                          cwd=cwd)
    err, _, modules = proc.stderr.rpartition("modules: ")
    top = {name.partition(".")[0] for name in modules.split()}
    return (proc.returncode, proc.stdout, err,
            top - set(sys.stdlib_module_names))


# as `python -m schmidt_gates.cli <argv>` runs it
RUN_CLI = ("import runpy; runpy.run_module('schmidt_gates.cli', "
           "run_name='__main__', alter_sys=True)")


@functools.cache
def bare_modules():
    """What a bare interpreter imports beyond the standard library (for
    instance through .pth files of the environment)."""
    return fresh_run("pass")[3]


@pytest.mark.parametrize("statement, argv, status", [
    ("import schmidt_gates", [], 0),
    ("import schmidt_gates.cli", [], 0),
    (RUN_CLI, ["--help"], 0),
    (RUN_CLI, ["simulate"], 2),
    (RUN_CLI, ["nonsense", "x.json"], 2),
], ids=["package", "cli", "help", "missing-scenario", "unknown-command"])
def test_imports_and_command_line_run_without_numpy(statement, argv, status):
    code, _, err, modules = fresh_run(statement, argv)
    assert code == status, err
    assert modules - bare_modules() == {"schmidt_gates"}


@pytest.mark.parametrize("command, payload", [
    ("simulate", {"schema_version": 1, "command": "classify",
                  "gate": {"kind": "rotation", "omega": 1.0}}),
    ("simulate", dict(ORANGE, bogus=1)),
    ("classify", {"schema_version": 1, "command": "classify",
                  "gate": {"kind": "rotation", "omega": "1.0"}}),
], ids=["command-mismatch", "unknown-field", "wrong-type"])
def test_rejected_scenario_runs_without_numpy(tmp_path, command, payload):
    scn = write_scenario(tmp_path, payload)
    code, stdout, err, modules = fresh_run(
        RUN_CLI, [command, scn, "--out", "out.json"], tmp_path)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: scenario ") and err.count("\n") == 1
    assert modules - bare_modules() == {"schmidt_gates"}
    assert os.listdir(tmp_path) == ["scenario.json"]


def test_valid_scenario_imports_only_numpy_beyond_the_standard_library(
        tmp_path):
    # numpy is the one runtime dependency, imported once the scenario is
    # accepted
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "classify",
        "gate": {"kind": "rotation", "omega": 1.0}})
    code, stdout, err, modules = fresh_run(
        RUN_CLI, ["classify", scn, "--out", "out.json"], tmp_path)
    assert (code, stdout, err) == (0, "", "")
    assert json.loads((tmp_path / "out.json").read_text())["passed"] is True
    assert modules - bare_modules() == {"numpy", "schmidt_gates"}


def test_package_loads_a_submodule_on_first_use():
    code = ("import sys, schmidt_gates as sg; "
            "assert 'schmidt_gates.sphere' not in sys.modules; "
            "f = sg.solid_angle; "
            "assert f is sys.modules['schmidt_gates.sphere'].solid_angle; "
            "assert sg.dynamics is sys.modules['schmidt_gates.dynamics']; "
            "assert 'schmidt_gates.cli' not in sys.modules; "
            "assert not hasattr(sg, 'missing'); "
            "assert set(sg.__all__) <= set(dir(sg)); "
            "namespace = {}; exec('from schmidt_gates import *', namespace); "
            "assert namespace['propagate'] is sg.propagate; "
            "assert set(namespace) - {'__builtins__'} == set(sg.__all__)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=PACKAGE_ENV)
    assert proc.returncode == 0, proc.stderr


def test_package_names_itself_for_an_unknown_name_without_numpy():
    # the lazy package's own __getattr__ and __dir__, which import nothing
    code = ("import sys, schmidt_gates as sg\n"
            "try:\n"
            "    sg.missing\n"
            "except AttributeError as exc:\n"
            "    assert str(exc) == \"module 'schmidt_gates' has no "
            "attribute 'missing'\", exc\n"
            "else:\n"
            "    raise AssertionError('no AttributeError')\n"
            "assert set(sg.__all__) <= set(dir(sg))\n"
            "assert 'numpy' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=PACKAGE_ENV)
    assert proc.returncode == 0, proc.stderr


def test_out_field_in_scenario(tmp_path, capsys):
    out = tmp_path / "from_field.json"
    scn = write_scenario(tmp_path, dict(ORANGE, out=str(out)))
    code, stdout, _ = run_main(["simulate", scn], capsys)
    assert code == 0
    assert stdout == ""
    assert json.loads(out.read_text())["passed"] is True


def test_console_entry_point(tmp_path):
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(ORANGE))
    proc = subprocess.run(
        [sys.executable, "-m", "schmidt_gates.cli", "simulate", str(scn)],
        capture_output=True, text=True, env=PACKAGE_ENV)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["entangler_class"] == "SPE"


def test_simulate_refuses_loop_with_endpoint_gap_above_chart_tol(tmp_path,
                                                                 capsys):
    # an equator loop that overshoots its start by 1e-7 rad, between the
    # chart tolerance 1e-9 and 1e-6, is not closed: loop mode refuses it
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "simulate",
        "path": {"segments": [{
            "kind": "linear", "alpha_start": np.pi / 2, "beta_start": 0.0,
            "alpha_end": np.pi / 2, "beta_end": 2 * np.pi + 1e-7,
            "duration": 1.0}]}})
    code, stdout, err = run_main(["simulate", scn], capsys)
    assert (code, stdout) == (2, "")
    assert err == ("error: invalid path: path is flagged closed but "
                   "endpoints differ by 1.000e-07 on the sphere\n")


def test_sweep_map_grid_list_rejected(tmp_path, capsys):
    # only trotter-sweep's theta takes a list; a sweep-map grid is an object
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "sweep-map", "alpha0": [0.5],
        "omega": {"start": 0.0, "stop": 1.0, "count": 2}})
    code, stdout, err = run_main(["sweep-map", scn], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error: scenario field 'alpha0': ")
    assert err.count("\n") == 1


def run_quietly(args, capsys):
    """run_main plus the warning messages the run issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_main(args, capsys)
    return code, stdout, err, [str(w.message) for w in caught]


def _rotation(axis, angle=0.5, duration=1.0):
    return {"kind": "rotation", "alpha_start": 1.0, "beta_start": 0.2,
            "axis": axis, "angle": angle, "duration": duration}


def test_huge_rotation_axis_is_normalized(tmp_path, capsys):
    # the squares of this axis overflow; it is the axis [1, 1, 0]
    outs = []
    for axis in ([1e308, 1e308, 0.0], [1.0, 1.0, 0.0]):
        scn = write_scenario(tmp_path, {
            "schema_version": 1, "command": "simulate", "loop": False,
            "path": {"segments": [_rotation(axis)]}})
        outs.append(tmp_path / f"{axis[0]:g}.json")
        code, stdout, err, caught = run_quietly(
            ["simulate", scn, "--out", str(outs[-1])], capsys)
        assert (code, stdout, err, caught) == (0, "", "", [])
    assert outs[0].read_bytes() == outs[1].read_bytes()


NOT_FINITE = ("a result is not finite (an input is too large, or a duration "
              "too short, for double precision)")

RATES_OVERFLOW = "invalid path: segment rates overflow double precision"

SPAN = ("invalid path: segment spans more than 8388608 rad, where its "
        "rounded angles miss its end by more than the chart tolerance")


def test_dump_report_refuses_unknown_types():
    from schmidt_gates import cli
    with pytest.raises(TypeError, match="cannot serialize object"):
        cli.dump_report({"x": object()})


@pytest.mark.parametrize("segment, reason", [
    (_rotation([0.3, -0.5, 0.8], angle=1.3, duration=1e-320),
     RATES_OVERFLOW),
    ({"kind": "sampled", "alpha": [0.5, 0.6, 0.7], "beta": [0.1, 0.2, 0.3],
      "duration": 1e-320}, RATES_OVERFLOW),
    ({"kind": "sampled", "alpha": [0.1, 1e300, 0.2], "beta": [0.1, 0.2, 0.3],
      "duration": 1e-300}, RATES_OVERFLOW),
    (_linear(0.3, 1e200, 1.0), SPAN),
], ids=["rotation-duration-1e-320", "sampled-duration-1e-320",
        "sampled-rate-overflow", "spiral-to-1e200"])
def test_overflowing_numerics_give_one_diagnostic(tmp_path, capsys, segment,
                                                  reason):
    # finite inputs whose rates overflow, or whose span is too large for
    # its angles to be rounded within the chart tolerance: one diagnostic
    # line, no numpy warnings before it, and no output file
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "simulate", "loop": False,
        "path": {"segments": [segment]}})
    out = tmp_path / "out.json"
    code, stdout, err, caught = run_quietly(
        ["simulate", scn, "--out", str(out)], capsys)
    assert code == 2 and stdout == "" and caught == []
    assert err == f"error: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("segment", [
    {"kind": "linear", "alpha_start": 0.3, "beta_start": 0.0,
     "alpha_end": 0.3, "beta_end": 1.0, "duration": 1e200},
    _rotation([0.3, -0.5, 0.8], angle=1.3, duration=1e300),
], ids=["equator-latitude-1e200", "tilted-rotation-1e300"])
def test_very_slow_segment_is_its_geometry(tmp_path, capsys, segment):
    # fields below ~1e-154, whose squares underflow: the propagator is the
    # one the path's geometry fixes, the same path's at duration 1
    props = []
    for duration in (segment["duration"], 1.0):
        scn = write_scenario(tmp_path, {
            "schema_version": 1, "command": "simulate", "loop": False,
            "path": {"segments": [dict(segment, duration=duration)]}})
        out = tmp_path / "out.json"
        code, stdout, err, caught = run_quietly(
            ["simulate", scn, "--out", str(out)], capsys)
        assert (code, stdout, err, caught) == (0, "", "", [])
        report = json.loads(out.read_text())
        assert report["checks"]["propagator_unitary"]
        props.append(np.array(report["propagator"]) @ [1, 1j])
    assert np.max(np.abs(props[0] - props[1])) < 1e-14


@pytest.mark.parametrize("segment", [
    _rotation([0.0, 0.0, 1.0], angle=1.3, duration=1e-300),
    {"kind": "linear", "alpha_start": 0.3, "beta_start": 0.2,
     "alpha_end": 1.4, "beta_end": 1.5, "duration": 1e-300},
], ids=["z-rotation-duration-1e-300", "spiral-duration-1e-300"])
def test_very_fast_segment_is_its_transport(tmp_path, capsys, segment):
    # fields above ~1e154, whose squares overflow: the propagator is the
    # transport one of the path's ends, and the same path's at duration 1
    props = []
    for duration in (segment["duration"], 1.0):
        scn = write_scenario(tmp_path, {
            "schema_version": 1, "command": "simulate", "loop": False,
            "path": {"segments": [dict(segment, duration=duration)]}})
        out = tmp_path / "out.json"
        code, stdout, err, caught = run_quietly(
            ["simulate", scn, "--out", str(out)], capsys)
        assert (code, stdout, err, caught) == (0, "", "", [])
        props.append(_report_propagator(json.loads(out.read_text())))
    if segment["kind"] == "rotation":
        ends = (1.0, 0.2, 1.0, 1.5)
    else:
        ends = (0.3, 0.2, 1.4, 1.5)
    assert np.max(np.abs(props[0] - _transport(*ends))) < 1e-15
    assert np.max(np.abs(props[0] - props[1])) < 1e-15


_HUGE = {"start": 0.0, "stop": 1.0, "count": 1e300}


@pytest.mark.parametrize("command, fields", [
    ("sweep-map", {"alpha0": {"start": 0.0, "stop": 1.5, "count": 10**17},
                   "omega": {"start": -3.0, "stop": 3.0, "count": 3}}),
    ("sweep-map", {"alpha0": _HUGE,
                   "omega": {"start": -3.0, "stop": 3.0, "count": 3}}),
    ("sweep-map", {"alpha0": {"start": 0.0, "stop": 1.5, "count": 3},
                   "omega": _HUGE}),
    ("trotter-sweep", {"theta": _HUGE, "n_values": [1, 4]}),
], ids=["sweep-map-count-1e17", "sweep-map-alpha0-count-1e300",
        "sweep-map-omega-count-1e300", "trotter-sweep-theta-count-1e300"])
def test_input_too_large_for_memory_gives_one_diagnostic(tmp_path, capsys,
                                                         command, fields):
    # 1e17 float64 samples need 711 PiB, more than any address space, so
    # the allocation fails at once; a count of 1e300 is past the largest
    # array numpy can index: either way one diagnostic, exit 2, no output
    # file
    scn = write_scenario(tmp_path, {"schema_version": 1, "command": command,
                                    **fields})
    out = tmp_path / "out"
    code, stdout, err, caught = run_quietly(
        [command, scn, "--out", str(out)], capsys)
    assert (code, stdout, caught) == (2, "", [])
    assert err == ("error: the requested sampling or grid does not fit in "
                   "memory\n")
    assert not out.exists()


def test_simulate_out_of_memory_gives_one_diagnostic(tmp_path, capsys,
                                                    monkeypatch):
    # no simulate input allocates by its size any more, so an allocation
    # that fails inside propagate stands in for one: main turns it into
    # the one diagnostic, exit 2, no output file
    def no_memory(schedule, sector):
        raise MemoryError

    monkeypatch.setattr(schmidt_gates.dynamics, "propagate", no_memory)
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "simulate", "loop": False,
        "path": {"segments": [_rotation([0.3, 0.0, 1.0])]}})
    out = tmp_path / "out"
    code, stdout, err, caught = run_quietly(
        ["simulate", scn, "--out", str(out)], capsys)
    assert (code, stdout, caught) == (2, "", [])
    assert err == ("error: the requested sampling or grid does not fit in "
                   "memory\n")
    assert not out.exists()


@pytest.mark.parametrize("matrix", [
    [[[1e200, 1e200]] * 4] * 4,
    [[[1e200, 0.0] if i == j else [0.0, 0.0] for j in range(4)]
     for i in range(4)],
], ids=["every-entry", "diagonal"])
def test_overflowing_matrix_is_not_unitary(tmp_path, capsys, matrix):
    # the product u^dagger u overflows: the matrix is far from unitary, and
    # that is the diagnostic, with no numpy warnings before it
    scn = write_scenario(tmp_path, {
        "schema_version": 1, "command": "classify",
        "gate": {"kind": "matrix", "matrix": matrix}})
    code, stdout, err, caught = run_quietly(["classify", scn], capsys)
    assert (code, stdout, caught) == (2, "", [])
    assert err == "error: gate matrix is not unitary within tolerance\n"


# A meridian at beta = -0.0 drives its constant field at that exact beta,
# so c_xy is -0.45 * sin(-0.0) = +0 and prints as 0, not -0.
MERIDIAN_AT_NEGATIVE_ZERO = """{
  "schema_version": 1,
  "command": "simulate",
  "sector": "gamma",
  "loop": false,
  "base_point": {
    "alpha": 0.29999999999999999,
    "beta": -0
  },
  "duration": 1,
  "schedule": [
    {
      "kind": "constant",
      "duration": 1,
      "c_xy": 0,
      "c_dm": 0.44999999999999996,
      "c_z": 0
    }
  ],
  "solid_angle": null,
  "dynamical_phase": {
    "plus": -0,
    "minus": 0
  },
  "dynamical_phase_zero": true,
  "holonomy_fidelity": null,
  "holonomy_fidelity_applicable": false,
  "predicted_gate": null,
  "propagator": [
    [
      [1, 0],
      [0, 0],
      [0, 0],
      [0, 0]
    ],
    [
      [0, 0],
      [0.90044710235267689, 0],
      [-0.43496553411123018, 0],
      [0, 0]
    ],
    [
      [0, 0],
      [0.43496553411123018, 0],
      [0.90044710235267689, 0],
      [0, 0]
    ],
    [
      [0, 0],
      [0, 0],
      [0, 0],
      [1, 0]
    ]
  ],
  "invariants": {
    "g1_re": 0.65740472229869629,
    "g1_im": 0,
    "g2": 2.2432199365413288
  },
  "entangler_class": "NOT_PE",
  "tolerance": 1.0000000000000001e-09,
  "checks": {
    "propagator_unitary": true,
    "iswap_type": true
  },
  "passed": true
}
"""


def test_meridian_at_negative_zero_beta_report(tmp_path, capsys):
    scn = tmp_path / "scenario.json"
    scn.write_text(
        '{"schema_version": 1, "command": "simulate", "loop": false, '
        '"path": {"segments": [{"kind": "linear", "alpha_start": 0.3, '
        '"beta_start": -0.0, "alpha_end": 1.2, "beta_end": -0.0, '
        '"duration": 1.0}]}}')
    code, stdout, err = run_main(["simulate", str(scn)], capsys)
    assert (code, err) == (0, "")
    assert stdout == MERIDIAN_AT_NEGATIVE_ZERO


def _call(args, capsys, files):
    """Exit status, stdout, stderr and the bytes of `files` after one
    `main(args)`; each file is removed first, so a stale copy cannot pass."""
    for f in files:
        if f.exists():
            f.unlink()
    try:
        code = main(args)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return (code, captured.out, captured.err,
            [f.read_bytes() if f.exists() else None for f in files])


def test_repeated_main_calls_write_what_a_first_call_writes(
        tmp_path, capsys, monkeypatch):
    from schmidt_gates import cli

    out = tmp_path / "out.txt"
    field_out = tmp_path / "field.csv"
    sweep = {"schema_version": 1, "command": "sweep-map",
             "alpha0": {"start": 0.1, "stop": 1.4, "count": 23},
             "omega": {"start": -3.0, "stop": 3.0, "count": 29},
             "beta0": 0.4}
    trotter = {"schema_version": 1, "command": "trotter-sweep",
               "theta": [0.0, 0.3, 1.1], "n_values": [1, 4, 16]}
    classify_scn = {"schema_version": 1, "command": "classify",
                    "gate": {"kind": "geometric", "alpha0": 0.7,
                             "beta0": 0.2, "omega": 2.5}}
    scn = {name: write_scenario(tmp_path, payload, f"{name}.json")
           for name, payload in [
               ("simulate", ORANGE), ("classify", classify_scn),
               ("sweep", sweep), ("trotter", trotter),
               ("sweep_field", dict(sweep, out=str(field_out))),
               ("rejected", dict(ORANGE, extra=1))]}
    calls = [
        ["simulate", scn["simulate"]],
        ["classify", scn["classify"], "--tol", "1e-7"],
        ["sweep-map", scn["sweep"], "--out", str(out)],
        ["simulate", scn["rejected"]],
        ["trotter-sweep", scn["trotter"], "--tol", "1e-3"],
        ["sweep-map"],
        ["sweep-map", scn["sweep_field"]],
        ["classify", scn["classify"], "--out", str(out), "--tol", "1e-12"],
        ["bogus", scn["simulate"]],
        ["trotter-sweep", scn["trotter"], "--out", str(out)],
        ["simulate", scn["simulate"], "--tol", "1e-6", "--out", str(out)],
        ["sweep-map", scn["sweep"]],
    ]
    files = [out, field_out]
    first = []
    for args in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        first.append(_call(args, capsys, files))

    build, built = cli.build_parser, []

    def counted_build_parser():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counted_build_parser)
    for _ in range(2):
        assert [_call(args, capsys, files) for args in calls] == first
    assert built == [1]
    # the public builder still gives a parser of its own
    assert build() is not cli._PARSER
    # the mix covers passing, rejected and bad-argv calls
    codes = [result[0] for result in first]
    assert codes.count(0) >= 6 and 2 in codes
    assert ("SystemExit", 2) in codes
