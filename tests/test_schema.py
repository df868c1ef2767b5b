"""The CLI's scenario validator against a JSON Schema 2020-12 engine.

jsonschema is only an oracle here: the package itself does not depend on
it. Non-finite numbers (NaN, Infinity) are deliberately left out: the CLI
rejects them while JSON Schema counts them as numbers.
"""

import copy
import json
from pathlib import Path

import pytest

from schmidt_gates.cli import SCENARIO_SCHEMAS, ScenarioError, _validate

jsonschema = pytest.importorskip("jsonschema")

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

BASES = {p.stem: json.loads(p.read_text())
         for p in sorted(SCENARIOS.glob("*.json"))}
BASES.update({
    "segments": {
        "schema_version": 1, "command": "simulate", "loop": False,
        "path": {"segments": [
            {"kind": "rotation", "alpha_start": 0.7, "beta_start": 0.0,
             "axis": [0.0, 0.0, 1.0], "angle": 1.0, "duration": 1.0},
            {"kind": "sampled", "alpha": [0.7, 0.8, 0.9],
             "beta": [1.0, 1.1, 1.2], "duration": 1.0},
        ], "closed": False},
    },
    "matrix": {
        "schema_version": 1, "command": "classify",
        "gate": {"kind": "matrix",
                 "matrix": [[[1.0, 0.0] if i == j else [0.0, 0.0]
                             for j in range(4)] for i in range(4)]},
    },
    "rotation_gate": {
        "schema_version": 1, "command": "classify",
        "gate": {"kind": "rotation", "omega": 1.0},
    },
    "theta_list": {
        "schema_version": 1, "command": "trotter-sweep",
        "theta": [0.1, 0.2], "n_values": [4, 8],
    },
})

DELETE = object()

SEG0 = ("path", "segments", 0)

MUTATIONS = [
    # a wrong-typed value per field kind
    ("orange_slice", ("path", "t1"), "1.0"),
    ("classify_equator", ("gate", "omega"), "x"),
    ("orange_slice", ("samples_per_segment",), "1000"),
    ("entangler_map", ("alpha0", "count"), 2.5),
    ("orange_slice", ("loop",), 1),
    ("latitude_loop", ("path", "closed"), "true"),
    ("entangler_map", ("out",), 1.5),
    ("orange_slice", ("sector",), "delta"),
    ("classify_equator", ("gate", "sector"), 1.5),
    ("orange_slice", ("schema_version",), 2),
    ("orange_slice", ("schema_version",), "1"),
    ("orange_slice", ("path",), []),
    ("entangler_map", ("omega",), [0.0, 1.0]),
    ("segments", (*SEG0, "axis"), "z"),
    ("trotter_errors", ("n_values",), 8),
    ("trotter_errors", ("theta",), "0.5"),
    ("trotter_errors", ("theta", "start"), "0.0"),
    ("theta_list", ("theta", 0), "0.1"),
    ("classify_equator", ("gate",), "cnot"),
    ("latitude_loop", SEG0, 1.0),
    ("matrix", ("gate", "matrix", 1, 2, 0), "0.0"),
    # a missing required field
    ("orange_slice", ("path", "tau"), DELETE),
    ("orange_slice", ("path", "preset"), DELETE),
    ("classify_equator", ("gate", "kind"), DELETE),
    ("latitude_loop", (*SEG0, "duration"), DELETE),
    ("entangler_map", ("omega", "count"), DELETE),
    ("trotter_errors", ("n_values",), DELETE),
    # an unknown field
    ("orange_slice", ("tolerence",), 1e-9),
    ("classify_equator", ("gate", "extra"), 1),
    ("latitude_loop", (*SEG0, "extra"), 0),
    ("entangler_map", ("alpha0", "step"), 0.1),
    ("orange_slice", ("path", "segments"), []),
    # an unknown or mismatched kind/preset tag
    ("classify_equator", ("gate", "kind"), "unitary"),
    ("classify_equator", ("gate", "kind"), "rotation"),
    ("latitude_loop", (*SEG0, "kind"), "arc"),
    ("segments", (*SEG0, "kind"), "sampled"),
    ("orange_slice", ("path", "preset"), "lemon"),
    # too-short and too-long arrays
    ("segments", (*SEG0, "axis"), [0.0, 1.0]),
    ("segments", (*SEG0, "axis"), [0.0, 0.0, 1.0, 0.0]),
    ("segments", ("path", "segments", 1, "alpha"), [0.7]),
    ("latitude_loop", ("path", "segments"), []),
    ("matrix", ("gate", "matrix", 0), [[1.0, 0.0]] * 3),
    ("matrix", ("gate", "matrix", 4), [[0.0, 0.0]] * 4),
    ("matrix", ("gate", "matrix", 0, 0), [1.0]),
    ("matrix", ("gate", "matrix", 0, 0), [1.0, 0.0, 0.0]),
    ("trotter_errors", ("n_values",), []),
    ("theta_list", ("theta",), []),
    # true where a number is expected
    ("classify_equator", ("gate", "omega"), True),
    ("entangler_map", ("beta0",), True),
    ("entangler_map", ("alpha0", "count"), True),
    ("orange_slice", ("schema_version",), True),
    ("orange_slice", ("tolerance",), True),
    ("trotter_errors", ("n_values",), [True]),
    ("segments", ("path", "segments", 1, "alpha", 0), False),
    # 2.0 where an integer is expected, and integers below their minimum
    ("entangler_map", ("alpha0", "count"), 2.0),
    ("orange_slice", ("samples_per_segment",), 1000.0),
    ("trotter_errors", ("n_values",), [4.0, 8.0]),
    ("orange_slice", ("schema_version",), 1.0),
    ("entangler_map", ("alpha0", "count"), 1),
    ("orange_slice", ("samples_per_segment",), 1),
    ("trotter_errors", ("n_values",), [0]),
    # a zero duration, and other zeros at an exclusive minimum
    ("latitude_loop", (*SEG0, "duration"), 0),
    ("segments", (*SEG0, "duration"), 0.0),
    ("orange_slice", ("path", "t1"), 0),
    ("orange_slice", ("tolerance",), 0.0),
]


def mutated(base, path, value):
    scenario = copy.deepcopy(BASES[base])
    target = scenario
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    elif isinstance(target, list) and path[-1] == len(target):
        target.append(value)
    else:
        target[path[-1]] = value
    return scenario


def verdicts(scenario):
    schema = SCENARIO_SCHEMAS[scenario["command"]]
    try:
        _validate(scenario, schema, ())
        ours = True
    except ScenarioError:
        ours = False
    return ours, jsonschema.Draft202012Validator(schema).is_valid(scenario)


@pytest.mark.parametrize("base", sorted(BASES))
def test_base_scenarios_accepted_by_both(base):
    assert verdicts(BASES[base]) == (True, True)


@pytest.mark.parametrize(
    "base, path, value", MUTATIONS,
    ids=[f"{b}:{'/'.join(map(str, p))}="
         f"{'<deleted>' if v is DELETE else json.dumps(v)}"
         for b, p, v in MUTATIONS])
def test_mutation_verdict_matches_jsonschema(base, path, value):
    ours, oracle = verdicts(mutated(base, path, value))
    assert ours == oracle


def _object_schemas(schema):
    """Every object schema nested in `schema`, itself included."""
    if isinstance(schema, dict):
        if schema.get("type") == "object":
            yield schema
        for value in schema.values():
            yield from _object_schemas(value)
    elif isinstance(schema, list):
        for value in schema:
            yield from _object_schemas(value)


@pytest.mark.parametrize("command", sorted(SCENARIO_SCHEMAS))
def test_every_object_schema_is_closed(command):
    objects = list(_object_schemas(SCENARIO_SCHEMAS[command]))
    assert objects
    for schema in objects:
        assert schema["additionalProperties"] is False
        assert set(schema["required"]) <= set(schema["properties"])


@pytest.mark.parametrize("command", sorted(SCENARIO_SCHEMAS))
def test_command_schema_is_valid_draft_2020_12(command):
    jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMAS[command])
