"""Self-tests of the benchmark: inputs, references and a smoke run.

    python3 bench/selftest.py          # all tests, about two minutes
    python3 bench/selftest.py -k Inputs

Run from the root of a checkout. The file is not named test_*.py so that
the package's own pytest run does not collect it.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import jsonschema  # noqa: E402

import workloads as wl  # noqa: E402
from schmidt_gates import cli  # noqa: E402


def texts(workload, seed):
    return [item.text() for item in wl.make_round(workload, seed, ROOT)]


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                first = texts(workload, 7)
                self.assertEqual(first, texts(workload, 7))
                other = texts(workload, 8)
                self.assertNotEqual(sorted(first), sorted(other))

    def test_round_composition_does_not_depend_on_seed(self):
        for workload in wl.WORKLOADS:
            kinds = [sorted(i.kind for i in wl.make_round(workload, s, ROOT))
                     for s in (1, 2, 3)]
            self.assertEqual(kinds[0], kinds[1])
            self.assertEqual(kinds[0], kinds[2])

    def test_valid_scenarios_pass_schema_and_invalid_fail(self):
        for workload in wl.WORKLOADS:
            for seed in range(5):
                for item in wl.make_round(workload, seed, ROOT):
                    schema = cli.SCENARIO_SCHEMAS[item.command]
                    errors = list(jsonschema.Draft202012Validator(
                        schema).iter_errors(item.scenario))
                    # an open path is schema-valid; the loop-mode closure
                    # check rejects it
                    valid = (not item.kind.startswith("invalid_")
                             or item.kind == "invalid_open_path")
                    with self.subTest(kind=item.kind, seed=seed):
                        self.assertEqual(valid, not errors, errors[:1])


class References(unittest.TestCase):
    def test_hull_criterion_on_known_gates(self):
        cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        pi = math.pi + wl.HULL_TOL  # CNOT lies on the boundary
        self.assertLessEqual(wl.hull_gap(cnot), pi)
        self.assertGreater(wl.hull_gap(np.eye(4, dtype=complex)), pi)
        self.assertGreater(wl.hull_gap(swap), pi)
        a, b = (1 + 1j) / 2, (1 - 1j) / 2
        sqrt_swap = np.array([[1, 0, 0, 0], [0, a, b, 0], [0, b, a, 0],
                              [0, 0, 0, 1]])
        self.assertLessEqual(wl.hull_gap(sqrt_swap), pi)

    def test_threshold_labels(self):
        # s = 2 sin^2(alpha0) (1 - cos omega): SPE at s = 4, PE on [2, 4]
        g1, g2 = wl.closed_form(math.pi / 2, math.pi)
        self.assertEqual(wl.threshold_labels(g1, g2), {"SPE"})
        g1, g2 = wl.closed_form(0.3, 0.1)
        self.assertEqual(wl.threshold_labels(g1, g2), {"NOT_PE"})
        g1, g2 = wl.closed_form(math.pi / 2, math.pi / 2)  # s = 2, boundary
        self.assertEqual(wl.threshold_labels(g1, g2), {"NOT_PE", "PE"})

    def test_matrix_invariants_match_the_package(self):
        from schmidt_gates.invariants import makhlin_invariants

        rng = np.random.default_rng(5)
        for _ in range(20):
            u = wl.haar_unitary(rng)
            g1, g2 = wl.matrix_invariants(u)
            inv = makhlin_invariants(u)
            self.assertAlmostEqual(abs(g1 - inv.g1), 0.0, places=12)
            self.assertAlmostEqual(g2, inv.g2, places=12)

    def test_simulate_check_flags_a_wrong_propagator(self):
        rng = np.random.default_rng(3)
        item = wl.spiral_loop(rng, "lambda", 1000)
        exact = wl.transport_propagator(item.expect)
        check = wl.Checker()

        def report(u):
            return json.dumps({"passed": True, "propagator": [
                [[z.real, z.imag] for z in row] for row in u]})

        self.assertIsNone(check(item, 0, "", report(exact)))
        self.assertEqual(check(item, 0, "", report(exact * 1j)),
                         "propagator")
        self.assertEqual(check(item, 1, "", report(exact)), "exit_status")

    def test_invalid_check_requires_exit_2_and_the_field(self):
        item = wl.Item("invalid_type", "classify", {},
                       {"field": "omega", "branch": "gate"})
        check = wl.Checker()
        named = "error: scenario field 'gate/omega': '1' is not a number\n"
        self.assertIsNone(check(item, 2, named, None))
        self.assertEqual(check(item, 0, named, "{}"), "invalid_accepted")
        self.assertEqual(check(item, 2, "error: invalid scenario\n", None),
                         "diagnostic_unnamed")
        # the known defect: another branch's problem, at the oneOf value
        other = ("error: scenario field 'gate': 'alpha0' is a required "
                 "property\n")
        self.assertEqual(check(item, 2, other, None),
                         "diagnostic_misses_field")
        outside = wl.Item("invalid_type", "sweep-map", {},
                          {"field": "beta0", "branch": None})
        self.assertEqual(check(outside, 2, other, None), "diagnostic_unnamed")
        unknown = wl.Item("invalid_unknown", "classify", {},
                          {"field": "notes"})
        self.assertEqual(check(unknown, 2, other, None), "diagnostic_unnamed")

    def test_wrong_type_records_the_one_of_branch(self):
        branches = set()
        for seed in range(20):
            for item in wl.make_round("cold_cli", seed, ROOT):
                if item.kind == "invalid_type":
                    branch = item.expect["branch"]
                    self.assertRegex(str(branch),
                                     r"^(None|gate|path/segments/\d+)$")
                    branches.add(str(branch).rstrip("0123456789"))
        self.assertEqual(branches, {"None", "gate", "path/segments/"})

    def test_matrix_classify_check(self):
        rng = np.random.default_rng(11)
        check = wl.Checker()

        def outcome(u, label, g1=None, g2=None):
            h1, h2 = wl.matrix_invariants(u)
            g1 = h1 if g1 is None else g1
            g2 = h2 if g2 is None else g2
            item = wl.Item("classify_haar", "classify", {"gate": {
                "kind": "matrix",
                "matrix": [[[z.real, z.imag] for z in row] for row in u]}})
            report = {"entangler_class": label, "invariants": {
                "g1_re": g1.real, "g1_im": g1.imag, "g2": g2}}
            return check(item, 0, "", json.dumps(report))

        pe = mislabel = None
        while pe is None or mislabel is None:
            u = wl.haar_unitary(rng)
            g1, g2 = wl.matrix_invariants(u)
            rule_pe = "PE" in wl.threshold_labels(abs(g1), g2)
            if wl.hull_gap(u) < math.pi:
                pe = u
            elif rule_pe:
                mislabel = u
        self.assertIsNone(outcome(pe, "PE"))
        self.assertEqual(outcome(pe, "NOT_PE"), "class")
        self.assertEqual(outcome(pe, "PE", g2=5.0), "invariants")
        self.assertIsNone(outcome(mislabel, "NOT_PE"))
        self.assertEqual(outcome(mislabel, "PE"), "hull_mislabel")
        self.assertEqual(outcome(mislabel, "SPE"), "class")


class Smoke(unittest.TestCase):
    """One short run of every workload, plain and traced."""

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().split("\n")[-1])

    def test_every_metric_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            for workload in wl.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    # one count per distinct input, whatever the run length
                    self.assertEqual(result["attempted"], len(
                        wl.make_round(workload, 1, ROOT)))
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)


if __name__ == "__main__":
    unittest.main()
