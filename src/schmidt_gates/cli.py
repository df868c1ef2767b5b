"""Command-line front end: scenario files in, reports and sweep tables out.

Four subcommands (`simulate`, `classify`, `sweep-map`, `trotter-sweep`)
each read a JSON scenario, validate it against `SCENARIO_SCHEMAS` (a JSON
Schema 2020-12 subset), run the corresponding pipeline, and write a JSON
report or a CSV table. All floating-point output is rendered with 17
significant digits so identical scenarios produce byte-identical files.
Exit status is 0 iff every tolerance check requested by the scenario
passes; scenario problems (schema violations, non-finite numbers, paths
that cannot be resolved, results that overflow double precision, a
sampling or grid too large for memory, an output file that cannot be
written) exit with status 2 and a one-line diagnostic.

Every subcommand has one contract: `run_<name>(scenario, tol)` (dashes in
the name become underscores) returns `(text, summary, passed)`, the JSON
report or CSV table, the one-line stderr summary of a table (None for a
report) and whether every check passed. `main` looks the runner up when it
runs, writes the text to `--out`, the scenario's `out` field or stdout,
then prints the summary.

The module imports only the standard library. numpy and the numerical
layers are imported by the functions that use them, reached once `main`
has accepted the scenario, so `--help`, a bad command line and a rejected
scenario are answered without them. A call into a layer goes through the
layer module (`dynamics.propagate`), where a wrapper set on the module is
seen."""

from __future__ import annotations

import argparse
import json
import math
import sys

DEFAULT_TOLERANCE = 1e-9

SCHEMA_VERSION = 1


class ScenarioError(Exception):
    """Problem with the scenario file; reported with exit status 2."""


# --------------------------------------------------------------------------
# Scenario schemas
# --------------------------------------------------------------------------

_NUMBER = {"type": "number"}

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

_BOOLEAN = {"type": "boolean"}

_SECTOR = {"enum": ["gamma", "lambda"]}


def _object(required: dict, optional: dict | None = None) -> dict:
    """Schema of a closed JSON object; each argument maps field names to
    their schemas, and `required` gives the order of the required list."""
    return {"type": "object", "properties": {**required, **(optional or {})},
            "required": list(required), "additionalProperties": False}


def _array(items: dict, min_items: int, max_items: int | None = None) -> dict:
    schema = {"type": "array", "items": items, "minItems": min_items}
    if max_items is not None:
        schema["maxItems"] = max_items
    return schema


def _scenario(command: str, required: dict,
              optional: dict | None = None) -> dict:
    """Schema of a scenario file: the envelope fields around the command's."""
    return _object(
        {"schema_version": {"const": SCHEMA_VERSION},
         "command": {"const": command}, **required},
        {"tolerance": _POSITIVE, "out": {"type": "string"},
         **(optional or {})})


_GRID = _object({"start": _NUMBER, "stop": _NUMBER,
                 "count": {"type": "integer", "minimum": 2}})

_SEGMENT = {"oneOf": [
    _object({"kind": {"const": "linear"}, "alpha_start": _NUMBER,
             "beta_start": _NUMBER, "alpha_end": _NUMBER,
             "beta_end": _NUMBER, "duration": _POSITIVE}),
    _object({"kind": {"const": "rotation"}, "alpha_start": _NUMBER,
             "beta_start": _NUMBER, "axis": _array(_NUMBER, 3, 3),
             "angle": _NUMBER, "duration": _POSITIVE}),
    _object({"kind": {"const": "sampled"}, "alpha": _array(_NUMBER, 2),
             "beta": _array(_NUMBER, 2), "duration": _POSITIVE}),
]}

_PATH = {"oneOf": [
    _object({"preset": {"const": "orange_slice"}, "t1": _POSITIVE,
             "tau": _POSITIVE}),
    _object({"segments": _array(_SEGMENT, 1)}, {"closed": _BOOLEAN}),
]}

_GATE = {"oneOf": [
    _object({"kind": {"const": "geometric"}, "alpha0": _NUMBER,
             "beta0": _NUMBER, "omega": _NUMBER}, {"sector": _SECTOR}),
    _object({"kind": {"const": "rotation"}, "omega": _NUMBER}),
    _object({"kind": {"const": "matrix"},
             "matrix": _array(_array(_array(_NUMBER, 2, 2), 4, 4), 4, 4)}),
]}

SCENARIO_SCHEMAS = {
    "simulate": _scenario(
        "simulate", {"path": _PATH},
        {"sector": _SECTOR, "loop": _BOOLEAN,
         "samples_per_segment": {"type": "integer", "minimum": 2}}),
    "classify": _scenario("classify", {"gate": _GATE}),
    "sweep-map": _scenario("sweep-map", {"alpha0": _GRID, "omega": _GRID},
                           {"beta0": _NUMBER}),
    "trotter-sweep": _scenario(
        "trotter-sweep",
        {"theta": {"oneOf": [_GRID, _array(_NUMBER, 1)]},
         "n_values": _array({"type": "integer", "minimum": 1}, 1)}),
}


def load_scenario(path: str, command: str) -> dict:
    """Read and validate a scenario file for the given subcommand."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"scenario is not valid JSON (line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        # the file is decoded in one piece, so the offset is the file's
        raise ScenarioError(f"scenario is not valid UTF-8 (byte "
                            f"{exc.start}): {exc.reason}") from exc
    except RecursionError as exc:
        raise ScenarioError("scenario is not valid JSON: nested too "
                            "deeply") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    declared = raw.get("command")
    if declared != command:
        raise ScenarioError(
            f"scenario declares command {declared!r} but was run "
            f"under {command!r}")
    _validate(raw, SCENARIO_SCHEMAS[command], ())
    return raw


def _invalid(path, message: str) -> ScenarioError:
    where = "/".join(str(p) for p in path) or "<root>"
    return ScenarioError(f"scenario field {where!r}: {message}")


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": (int, float), "integer": (int, float)}


def _validate(instance, schema: dict, path: tuple) -> None:
    """Check `instance` against a (sub)schema of SCENARIO_SCHEMAS; raise a
    ScenarioError naming the field of the first problem. Only the keywords
    those schemas use are implemented, with the JSON Schema 2020-12 verdicts
    (a bool is not a number, 2.0 is an integer), and numbers must be finite.
    """
    if "oneOf" in schema:
        schema = _declared_branch(instance, schema["oneOf"], path)
    kind = schema.get("type")
    if kind is not None and (
            not isinstance(instance, _TYPES[kind])
            or isinstance(instance, bool) and kind != "boolean"
            or kind == "integer" and instance % 1 != 0):
        raise _invalid(path, f"{instance!r} is not of type {kind!r}")
    if kind in ("number", "integer"):
        if not -sys.float_info.max <= instance <= sys.float_info.max:
            raise _invalid(path, f"{instance!r} is not a finite number")
        if (instance < schema.get("minimum", -math.inf)
                or instance <= schema.get("exclusiveMinimum", -math.inf)):
            raise _invalid(path, f"{instance!r} is too small")
    allowed = schema.get("enum", [schema["const"]] if "const" in schema
                         else None)
    if allowed is not None and not any(
            v == instance and isinstance(v, bool) == isinstance(instance, bool)
            for v in allowed):
        raise _invalid(path, f"{instance!r} is not one of {allowed!r}")
    if kind == "array":
        lo, hi = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        if not lo <= len(instance) <= hi:
            raise _invalid(path, f"{len(instance)} items, need {lo} to {hi}")
        if schema["items"] == _NUMBER and _finite_numbers(instance):
            return
        for i, item in enumerate(instance):
            _validate(item, schema["items"], (*path, i))
    elif kind == "object":
        for key in schema.get("required", ()):
            if key not in instance:
                raise _invalid(path, f"{key!r} is a required property")
        properties = schema.get("properties", {})
        for key, value in instance.items():
            if key in properties:
                _validate(value, properties[key], (*path, key))
            elif schema.get("additionalProperties") is False:
                raise _invalid((*path, key), "unexpected property")


def _finite_numbers(values: list) -> bool:
    """Whether every value is an int or a float (not a bool) strictly inside
    the double range, decided for the whole array in one pass: the sum of
    the magnitudes stays below the largest double only if each one does.
    Anything else, including a value that rounds to the range's edge or
    values whose sum overflows, is left to the per-item walk, which names
    the first bad index."""
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        return sum(map(abs, values)) < sys.float_info.max
    except OverflowError:  # an int too large for a double meets a float
        return False


def _declared_branch(instance, branches: list, path: tuple) -> dict:
    """The oneOf branch the instance declares through a `kind` or `preset`
    constant (the untagged branch if it carries no tag), else the branch of
    its JSON type (the first if none has it). The branches exclude one
    another, so this branch alone gives the oneOf verdict.
    """
    tags = [{k: p["const"] for k, p in branch.get("properties", {}).items()
             if "const" in p} for branch in branches]
    if not any(tags) or not isinstance(instance, dict):
        return next((b for b in branches
                     if isinstance(instance, _TYPES[b["type"]])), branches[0])
    keys = {k for tag in tags for k in tag}
    declared = sorted(keys & instance.keys())
    for branch, tag in zip(branches, tags):
        if (all(instance.get(k) == v for k, v in tag.items())
                and (tag or not declared)):
            return branch
    if not declared:
        raise _invalid(path, f"{min(keys)!r} is a required property")
    key = declared[0]
    values = [tag[key] for tag in tags if key in tag]
    raise _invalid((*path, key), f"{instance[key]!r} is not one of {values!r}")


# --------------------------------------------------------------------------
# Deterministic serialization (17 significant digits)
# --------------------------------------------------------------------------


_NOT_FINITE = ("a result is not finite (an input is too large, or a "
               "duration too short, for double precision)")

_NO_MEMORY = "the requested sampling or grid does not fit in memory"


def format_float(x: float) -> str:
    """17-digit text of one report number; tables use _render instead."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ScenarioError(_NOT_FINITE)
    return format(x, ".17g")


def _dump(obj, indent: int) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    # numpy.float64, the one numpy scalar type a report holds, is a float
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            return "[" + ", ".join(_dump(v, 0) for v in obj) + "]"
        inner = ",\n".join(pad + "  " + _dump(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + _dump(v, indent + 1)
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_report(report: dict) -> str:
    return _dump(report, 0) + "\n"


def matrix_entries(u: np.ndarray) -> list:
    """4x4 complex matrix as nested [re, im] pairs (row-major)."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in u]


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        # a path open() cannot encode, or one with a NUL, is a ValueError
        except (OSError, ValueError) as exc:
            raise ScenarioError(f"cannot write output: {exc}") from exc


# What every `run_*` returns: (text to write, stderr summary or None, passed).
_Result = tuple[str, str | None, bool]


def _json_result(command: str, fields: dict, tol: float,
                 checks: dict) -> _Result:
    """A JSON report with its envelope and checks, and no summary."""
    passed = all(checks.values())
    report = {"schema_version": SCHEMA_VERSION, "command": command, **fields,
              "tolerance": tol, "checks": checks, "passed": passed}
    return dump_report(report), None, passed


def _render(row: str, columns: list) -> str:
    """Lines of a table block: the one-line format `row` filled with the
    equal-length 1-D `columns`, row by row, in one % call. A float column
    takes %.17g, whose text is format_float's; an object column holds
    text cells, such as entangler class names, each value formatted once.
    A non-finite number anywhere in the block is the not-finite
    diagnostic."""
    import numpy as np

    numbers = [column for column in columns if column.dtype != object]
    if not np.isfinite(numbers).all():
        raise ScenarioError(_NOT_FINITE)
    cells = np.column_stack(columns).ravel().tolist()
    return (row * len(columns[0])) % tuple(cells)


def _cells(values: np.ndarray) -> np.ndarray:
    """The 17-digit text of each value, as an object column for _render."""
    import numpy as np

    return np.array(_render("%.17g\n", [values]).splitlines(), dtype=object)


def _table_result(command: str, header: list[str], blocks: list[str],
                  rows: int, measure: str, worst: float,
                  tol: float) -> _Result:
    """A CSV table of `rows` rows rendered as `blocks`, and its summary
    line; the checks pass iff the largest `measure` is within tolerance."""
    passed = worst <= tol
    summary = (f"{command}: {rows} rows, max {measure} {worst:.3e}, "
               f"checks {'pass' if passed else 'FAIL'}")
    return ",".join(header) + "\n" + "".join(blocks), summary, passed


# --------------------------------------------------------------------------
# Scenario -> library objects
# --------------------------------------------------------------------------


def _segment_constructors() -> dict:
    """Segment kind -> constructor of the schema's other fields."""
    from . import sphere

    return {"linear": sphere.linear_segment, "rotation": sphere.rotation_arc,
            "sampled": sphere.SampledSegment}


def _build_path(spec: dict, loop: bool) -> SchmidtPath:
    from . import dynamics, sphere

    try:
        if spec.get("preset") == "orange_slice":
            return dynamics.orange_slice_path(spec["t1"], spec["tau"])
        build = _segment_constructors()
        specs = [dict(s) for s in spec["segments"]]
        segments = tuple(build[s.pop("kind")](**s) for s in specs)
        closed = spec.get("closed", loop)
        return sphere.SchmidtPath(segments, closed=closed)
    except ValueError as exc:
        raise ScenarioError(f"invalid path: {exc}") from exc


def _build_gate(spec: dict):
    """Returns (matrix, echo-dict, closed_form_invariants or None); a
    general matrix gate is the one without a closed form."""
    import numpy as np

    from . import gates, invariants

    if spec["kind"] == "geometric":
        sector = spec.get("sector", "gamma")
        u = gates.schmidt_gate(spec["alpha0"], spec["beta0"], spec["omega"],
                               sector)
        echo = {"kind": "geometric", "alpha0": spec["alpha0"],
                "beta0": spec["beta0"], "omega": spec["omega"],
                "sector": sector}
        closed = invariants.closed_form_invariants(spec["alpha0"],
                                                   spec["omega"])
        return u, echo, closed
    if spec["kind"] == "rotation":
        u = gates.u_general(spec["omega"])
        closed = invariants.closed_form_invariants(math.pi / 2, spec["omega"])
        return u, {"kind": "rotation", "omega": spec["omega"]}, closed
    u = np.array([[complex(re, im) for re, im in row]
                  for row in spec["matrix"]])
    return u, {"kind": "matrix"}, None


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def _pulse_summary(seg) -> dict:
    import numpy as np

    from . import dynamics, sphere

    sampled = isinstance(seg, sphere.SampledSegment)
    if sampled and seg.alpha.size > 2:
        # the exact time integrals of the field the polyline applies: per
        # piece, -(1/2) integral of sin(beta) d alpha, (1/2) integral of
        # cos(beta) d alpha and (1/2) d beta
        _, sin_int = sphere._piece_integrals(seg.beta, seg.alpha, np.sin)
        _, cos_int = sphere._piece_integrals(seg.beta, seg.alpha)
        return {
            "kind": "sampled",
            "duration": float(seg.duration),
            "samples": int(seg.alpha.size),
            "area_xy": float(-0.5 * sin_int.sum()),
            "area_dm": float(0.5 * cos_int.sum()),
            "area_z": float(0.5 * (seg.beta[-1] - seg.beta[0])),
        }
    # the paper's field at the segment's start (a spiral's turns about z at
    # the rate 2 c_z, an arc's about its axis); a polyline of two samples
    # with a zero rate holds its field, and the terms of that rate report
    # +0, whatever the sign of their product with sin or cos of beta
    kind, (da, db) = "rotating", seg.start_rates()
    c_xy, c_dm, c_z = dynamics._field(da, db, seg.start_coords().beta)
    if sampled:
        if da == 0.0:
            kind, c_xy, c_dm = "constant", 0.0, 0.0
        elif db == 0.0:
            kind, c_z = "constant", 0.0
    return {"kind": kind, "duration": seg.duration,
            "c_xy": c_xy, "c_dm": c_dm, "c_z": c_z}


def _invariants_entry(inv) -> dict:
    return {"g1_re": inv.g1.real, "g1_im": inv.g1.imag, "g2": inv.g2}


def _assess(u: np.ndarray, tol: float, closed=None):
    """(invariants, entangler class name, deviation) of the gate `u`, or
    arrays of them for a stack of gates: the one verdict of every command.
    The invariants hold `u` to be unitary within max(tol, ATOL_PIPELINE),
    the report's own tolerance but never below the pipeline's rounding; a
    gate further off is a scenario error. The deviation from the
    closed-form invariants `closed` is None without them. The class comes
    from the invariants alone, by the same rule for a sector block and for
    a `matrix` gate."""
    import numpy as np

    from . import invariants, linalg

    try:
        inv = invariants.makhlin_invariants(
            u, max(tol, linalg.ATOL_PIPELINE))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    deviation = None
    if closed is not None:
        deviation = np.maximum(abs(inv.g1 - closed.g1),
                               abs(inv.g2 - closed.g2))
    label = invariants.classify(inv, tol)
    return inv, label, deviation


def run_simulate(scenario: dict, tol: float) -> _Result:
    from . import dynamics, gates, linalg, sphere

    sector = scenario.get("sector", "gamma")
    loop = scenario.get("loop", True)
    path = _build_path(scenario["path"], loop)
    if loop and not path.closed:
        raise ScenarioError("simulate in loop mode requires a closed path, "
                            'but the path declares "closed": false')
    try:
        omega = sphere.solid_angle(path) if path.closed else None
        schedule = dynamics.reverse_engineer(path)
        phi_plus, phi_minus = dynamics.dynamical_phase(path)
    except ValueError as exc:
        raise ScenarioError(f"invalid path: {exc}") from exc
    u = dynamics.propagate(schedule, sector)
    phase_zero = abs(phi_plus) <= tol
    start = path.start_coords()

    checks = {"propagator_unitary": linalg.unitarity_defect(u) <= tol}
    predicted = None
    fidelity = None
    if path.closed and phase_zero:
        target = gates.schmidt_gate(start.alpha, start.beta, omega, sector)
        fidelity = float(linalg.gate_fidelity(u, target))
        predicted = {"alpha0": start.alpha, "beta0": start.beta,
                     "omega": omega}
        checks["holonomy_fidelity"] = fidelity >= 1.0 - tol

    inv, label, _ = _assess(u, tol)
    return _json_result("simulate", {
        "sector": sector,
        "loop": loop,
        "base_point": {"alpha": start.alpha, "beta": start.beta},
        "duration": path.duration,
        "schedule": [_pulse_summary(seg) for seg in path.segments],
        "solid_angle": omega,
        "dynamical_phase": {"plus": phi_plus, "minus": phi_minus},
        "dynamical_phase_zero": phase_zero,
        "holonomy_fidelity": fidelity,
        "holonomy_fidelity_applicable": path.closed and phase_zero,
        "predicted_gate": predicted,
        "propagator": matrix_entries(u),
        "invariants": _invariants_entry(inv),
        "entangler_class": label,
    }, tol, checks)


def run_classify(scenario: dict, tol: float) -> _Result:
    from . import linalg

    u, echo, closed = _build_gate(scenario["gate"])
    # a matrix gate is input, refused before its invariants are formed
    defect = linalg.unitarity_defect(u)
    if closed is None and defect > tol:
        raise ScenarioError("gate matrix is not unitary within tolerance")
    inv, label, deviation = _assess(u, tol, closed)
    checks = {"gate_unitary": defect <= tol}
    if closed is not None:
        deviation = float(deviation)
        checks["matches_closed_form"] = deviation <= tol
    return _json_result("classify", {
        "gate": echo,
        "invariants": _invariants_entry(inv),
        "closed_form": None if closed is None else _invariants_entry(closed),
        "closed_form_deviation": deviation,
        "entangler_class": label,
    }, tol, checks)


def _grid(scenario: dict, field: str) -> np.ndarray:
    import numpy as np

    spec = scenario[field]
    if isinstance(spec, list):
        return np.asarray(spec, dtype=float)
    if not math.isfinite(float(spec["stop"]) - float(spec["start"])):
        raise _invalid((field,), "grid span overflows double precision")
    # no memory holds 2**53 points (64 PiB); from about 2**60 on, linspace
    # raises a ValueError or an IndexError where it would run out of memory
    if int(spec["count"]) > 2 ** 53:
        raise ScenarioError(_NO_MEMORY)
    return np.linspace(spec["start"], spec["stop"], int(spec["count"]))


# Grid points (sweep-map) or theta values (trotter-sweep) per pipeline call:
# large enough that numpy's per-call cost is spread thin, small enough that
# a large grid's working arrays stay a few hundred kB instead of growing
# with the grid.
_SWEEP_BLOCK = 512


def run_sweep_map(scenario: dict, tol: float) -> _Result:
    import numpy as np

    from . import gates, invariants

    alphas = _grid(scenario, "alpha0")
    omegas = _grid(scenario, "omega")
    beta0 = scenario.get("beta0", 0.0)
    alpha_cells, omega_cells = _cells(alphas), _cells(omegas)
    blocks = []
    max_dev = 0.0
    points = alphas.size * omegas.size
    # the grid in row order (alpha0 slow), one block of points at a time
    for start in range(0, points, _SWEEP_BLOCK):
        i, j = np.divmod(np.arange(start, min(start + _SWEEP_BLOCK, points)),
                         omegas.size)
        a, w = alphas[i], omegas[j]
        inv, labels, deviation = _assess(
            gates.schmidt_gate(a, beta0, w), tol,
            invariants.closed_form_invariants(a, w))
        max_dev = max(max_dev, deviation.max())
        blocks.append(_render("%s,%s,%.17g,%.17g,%.17g,%s\n", [
            alpha_cells[i], omega_cells[j], inv.g1.real, inv.g1.imag, inv.g2,
            labels]))
    return _table_result(
        "sweep-map",
        ["alpha0", "omega", "g1_re", "g1_im", "g2", "entangler_class"], blocks,
        points, "closed-form deviation", max_dev, tol)


def run_trotter_sweep(scenario: dict, tol: float) -> _Result:
    import numpy as np

    from . import dynamics

    thetas = _grid(scenario, "theta")
    n_values = [int(n) for n in scenario["n_values"]]
    n_array = np.array(n_values)
    theta_cells = _cells(thetas)
    n_cells = np.array([str(n) for n in n_values], dtype=object)
    blocks = []
    max_resid = 0.0
    rows = thetas.size * len(n_values)
    # the rows in theta order, each theta's n_values together, one block of
    # rows at a time; the exact gamma pairs of the block's theta, then one
    # trotter_propagate call for all its rows
    for start in range(0, rows, _SWEEP_BLOCK):
        i, j = np.divmod(np.arange(start, min(start + _SWEEP_BLOCK, rows)),
                         len(n_values))
        theta = thetas[i[0]:i[-1] + 1]
        exact = np.take(dynamics.tilted_segment_propagator(theta), i - i[0], 1)
        omega, resid = dynamics.extract_rotation_angle(
            *dynamics.composed_tilted_gate(theta))
        max_resid = max(max_resid, resid.max())
        # the gamma pairs' differences (a - a_n, b - b_n): for two gamma
        # blocks tr(U_exact^dag U_n) = 2 + 2 Re(conj(a) a_n + conj(b) b_n)
        # is real and >= 0, so 1 - |tr| / 4 is (|a - a_n|^2 + |b - b_n|^2)
        # / 4 and the phase-aligned distance ||U_exact - U_n||_F / 2 is the
        # root of twice that, neither formed by a subtraction from 1
        diff = exact - dynamics.trotter_propagate(thetas[i], n_array[j])
        infid = 0.25 * (diff.real ** 2 + diff.imag ** 2).sum(axis=0)
        blocks.append(_render("%s,%s,%.17g,%.17g,%.17g\n", [
            theta_cells[i], n_cells[j], infid, np.sqrt(2.0 * infid),
            omega[i - i[0]]]))
    return _table_result(
        "trotter-sweep",
        ["theta", "n", "infidelity", "trotter_error", "omega_empirical"],
        blocks, rows, "rotation-form residual", max_resid, tol)


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


# Subcommand -> help text; `main` runs the subcommand through `run_<name>`.
_COMMANDS = {
    "simulate": "reverse-engineer and propagate a path scenario",
    "classify": "local invariants and entangler class of a gate",
    "sweep-map": "CSV map of invariants over an (alpha0, omega) grid",
    "trotter-sweep": "CSV table of Trotter errors and the empirical "
                     "rotation-angle curve",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schmidt-gates",
        description="Simulate and classify geometric two-qubit gates "
                    "driven by loops on the Schmidt sphere.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument("scenario", help="path to the JSON scenario file")
        cmd.add_argument("--out", default=None,
                         help="output file (default: scenario's 'out' field, "
                              "else stdout)")
        cmd.add_argument("--tol", type=float, default=None,
                         help="tolerance override for all checks "
                              f"(default {DEFAULT_TOLERANCE:g})")
    return parser


# The parser `main` reuses: built by its first call, not at import, so a
# process that only imports the module does not pay for it.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        scenario = load_scenario(args.scenario, args.command)
        tol = args.tol if args.tol is not None else scenario.get(
            "tolerance", DEFAULT_TOLERANCE)
        if not 0 < tol < math.inf:
            raise ScenarioError("tolerance must be positive and finite")
        out = args.out if args.out is not None else scenario.get("out")
        # the first numerics import: every check above runs on the
        # standard library alone
        import numpy as np

        # looked up at call time, so a wrapper set on the module is used
        run = globals()["run_" + args.command.replace("-", "_")]
        # an overflow or invalid value anywhere in the numerics is the
        # not-finite diagnostic, not a stream of numpy warnings before it
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            try:
                text, summary, passed = run(scenario, tol)
            except MemoryError:
                raise ScenarioError(_NO_MEMORY) from None
        _write_text(text, out)
        if summary is not None:
            print(summary, file=sys.stderr)
    except (ScenarioError, FloatingPointError) as exc:
        reason = exc if isinstance(exc, ScenarioError) else _NOT_FINITE
        print(f"error: {reason}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
