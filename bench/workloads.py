"""Seeded inputs and independent output checks for the three workloads.

Every workload is a *round*: a fixed list of items whose composition (kinds
and size strata) is the same for every seed, while the seed draws the exact
parameters within each stratum and the order of the items. A run repeats
its round, so the item mix never depends on where a run stopped.

The checks do not reuse the code path that produced the output:

* simulate: the propagator is compared with the exact transport propagator
  sum_{+-} |psi_+-(end)><psi_+-(start)| plus the identity on the idle pair,
  built from `sphere.assemble_state` at the path's chart endpoints, which
  the generator knows without asking the program;
* sweep-map and geometric classify: the paper's closed form, evaluated here;
* trotter-sweep: omega_empirical = 2 theta - pi (mod 2 pi);
* matrix classify: the invariants recomputed here from the eigenvalues of
  m, and the convex-hull criterion (PE iff the largest gap between the
  eigenvalue angles of m is at most pi);
* invalid scenarios: exit status 2 and a diagnostic naming the field.

Two failure kinds are known defects of the program at the commit that
introduced this benchmark; they are counted as failed items but do not make
a run incorrect (see README.md): `hull_mislabel` (the |G1|/G2 thresholds
label some non-perfect entanglers PE) and `diagnostic_misses_field` (a
wrong-typed field inside a `oneOf` branch is reported as a problem of
another branch). Each is returned only for the narrow case it names; any
other disagreement is a failure of its own kind.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

WORKLOADS = ("cold_cli", "fine_simulate", "gate_tables")

KNOWN_DEFECTS = frozenset({"hull_mislabel", "diagnostic_misses_field"})

# Propagator error model for the transport check: max|U - U_transport| <=
# C / n^2 per sampled piece of n samples (midpoint stepping is second
# order). The constants are ten times the largest error * n^2 measured at
# n = 1000 over 150 seeds of each loop kind (tilted 1.5e-5 for a rotation
# plus a spiral piece, spiral 6.6e-6 for two spiral pieces, sampled 1.5e-6)
# at the commit that introduced this benchmark.
TRANSPORT_C = {"rotation": 100.0, "spiral": 50.0, "sampled": 15.0}
TRANSPORT_FLOOR = 1e-11

# Closed-form checks on tables and classify reports.
INVARIANT_TOL = 1e-9
# A Haar gate whose largest eigenvalue-angle gap is this close to pi may be
# labelled either way.
HULL_TOL = 1e-9
# Grid values are echoed with 17 significant digits, so they round-trip.
GRID_TOL = 1e-14
OMEGA_TOL = 1e-12


@dataclass
class Item:
    """One scenario run once through `schmidt_gates.cli.main`."""

    kind: str
    command: str
    scenario: dict
    expect: dict = field(default_factory=dict)

    def text(self) -> str:
        return json.dumps(self.scenario, indent=1) + "\n"


# --------------------------------------------------------------------------
# Geometry helpers (independent of the program)
# --------------------------------------------------------------------------


def _point(alpha, beta):
    return np.stack([np.sin(alpha) * np.cos(beta),
                     np.sin(alpha) * np.sin(beta),
                     np.cos(alpha)], axis=-1)


def _rotation_lift(alpha0, beta0, axis, angle, n=4097):
    """Chart lift (alpha, beta) of a rotation arc continuing the start
    coordinates, or None when the arc comes within 0.2 of a pole."""
    k = np.asarray(axis, dtype=float)
    r0 = _point(alpha0, beta0)
    phi = np.linspace(0.0, angle, n)[:, None]
    r = (np.cos(phi) * r0 + np.sin(phi) * np.cross(k, r0)
         + (1.0 - np.cos(phi)) * float(np.dot(k, r0)) * k)
    rho = np.hypot(r[:, 0], r[:, 1])
    if rho.min() < 0.2:
        return None
    alpha = np.arctan2(rho, r[:, 2])
    beta = np.unwrap(np.arctan2(r[:, 1], r[:, 0]))
    beta += TWO_PI * np.round((beta0 - beta[0]) / TWO_PI)
    return float(alpha[-1]), float(beta[-1])


def _linear(a0, b0, a1, b1, duration):
    return {"kind": "linear", "alpha_start": a0, "beta_start": b0,
            "alpha_end": a1, "beta_end": b1, "duration": duration}


def _closing(rng, a1, b1, a0, b0):
    """Linear segment from (a1, b1) back to the start point, winding the
    azimuth by a seeded multiple of 2 pi so that both rates are nonzero."""
    wind = int(rng.integers(-1, 2))
    return _linear(a1, b1, a0, b0 + TWO_PI * wind,
                   float(rng.uniform(0.5, 2.0))), (a0, b0 + TWO_PI * wind)


def _simulate(segments, sector, samples, start, end, pieces, kind):
    scenario = {"schema_version": 1, "command": "simulate", "sector": sector,
                "loop": True, "samples_per_segment": samples,
                "path": {"segments": segments, "closed": True},
                "tolerance": 1e-9}
    return Item(kind, "simulate", scenario,
                {"start": start, "end": end, "sector": sector,
                 "bound": transport_bound(pieces)})


def transport_bound(pieces) -> float:
    """Allowed propagator error for sampled pieces [(kind, n), ...]."""
    return TRANSPORT_FLOOR + sum(TRANSPORT_C[k] / n ** 2 for k, n in pieces)


def tilted_loop(rng, sector, samples):
    """Tilted-axis rotation arc closed by a coordinate spiral."""
    while True:
        a0 = float(rng.uniform(0.7, 2.4))
        b0 = float(rng.uniform(-math.pi, math.pi))
        tilt = float(rng.uniform(0.4, 1.2))
        az = float(rng.uniform(-math.pi, math.pi))
        axis = [math.sin(tilt) * math.cos(az), math.sin(tilt) * math.sin(az),
                math.cos(tilt)]
        angle = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.5, 4.0))
        end = _rotation_lift(a0, b0, axis, angle)
        if end is not None:
            break
    arc = {"kind": "rotation", "alpha_start": a0, "beta_start": b0,
           "axis": axis, "angle": angle,
           "duration": float(rng.uniform(0.5, 2.0))}
    close, stop = _closing(rng, end[0], end[1], a0, b0)
    return _simulate([arc, close], sector, samples, (a0, b0), stop,
                     [("rotation", samples), ("spiral", samples)], "tilted")


def spiral_loop(rng, sector, samples):
    """Two coordinate spirals (both rates nonzero) forming a loop."""
    a0 = float(rng.uniform(0.5, 2.6))
    b0 = float(rng.uniform(-math.pi, math.pi))
    a1 = float(np.clip(a0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0),
                       0.3, 2.8))
    b1 = float(b0 + rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 4.0))
    out = _linear(a0, b0, a1, b1, float(rng.uniform(0.5, 2.0)))
    close, stop = _closing(rng, a1, b1, a0, b0)
    return _simulate([out, close], sector, samples, (a0, b0), stop,
                     [("spiral", samples), ("spiral", samples)], "spiral")


def sampled_loop(rng, sector, samples, points):
    """Densely sampled smooth segment closed by a coordinate spiral."""
    a0 = float(rng.uniform(0.8, 2.3))
    b0 = float(rng.uniform(-math.pi, math.pi))
    da = float(rng.uniform(-0.5, 0.5))
    db = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 3.0))
    wa, wb = float(rng.uniform(0.1, 0.3)), float(rng.uniform(0.2, 0.6))
    t = np.linspace(0.0, 1.0, points)
    alpha = a0 + da * t + wa * np.sin(TWO_PI * t)
    beta = b0 + db * t + wb * np.sin(math.pi * t)
    alpha[0], beta[0] = a0, b0
    seg = {"kind": "sampled", "alpha": alpha.tolist(), "beta": beta.tolist(),
           "duration": float(rng.uniform(0.5, 2.0))}
    close, stop = _closing(rng, float(alpha[-1]), float(beta[-1]), a0, b0)
    return _simulate([seg, close], sector, samples, (a0, b0), stop,
                     [("sampled", points), ("spiral", samples)], "sampled")


def _jitter(rng, n, share=0.02):
    """Seeded size within `share` of its stratum n."""
    return int(round(n * rng.uniform(1.0 - share, 1.0 + share)))


# --------------------------------------------------------------------------
# Table and classify scenarios
# --------------------------------------------------------------------------


def sweep_map(rng, na, nw, kind="map"):
    scenario = {"schema_version": 1, "command": "sweep-map",
                "alpha0": {"start": float(rng.uniform(0.0, 0.5)),
                           "stop": float(rng.uniform(1.0, math.pi)),
                           "count": na},
                "omega": {"start": float(rng.uniform(-TWO_PI, -0.5 * math.pi)),
                          "stop": float(rng.uniform(0.5 * math.pi, TWO_PI)),
                          "count": nw},
                "beta0": float(rng.uniform(-math.pi, math.pi)),
                "tolerance": 1e-9}
    return Item(kind, "sweep-map", scenario)


def trotter_table(rng, thetas, n_count, as_list, kind="trotter"):
    if as_list:
        theta = sorted(float(x) for x in rng.uniform(-3.0, 3.0, thetas))
    else:
        theta = {"start": float(rng.uniform(-3.0, -1.0)),
                 "stop": float(rng.uniform(1.0, 3.0)), "count": thetas}
    n_values = sorted(int(n) for n in
                      rng.choice(np.arange(1, 513), n_count, replace=False))
    scenario = {"schema_version": 1, "command": "trotter-sweep",
                "theta": theta, "n_values": n_values, "tolerance": 1e-9}
    return Item(kind, "trotter-sweep", scenario)


def geometric_classify(rng):
    gate = {"kind": "geometric", "alpha0": float(rng.uniform(0.0, math.pi)),
            "beta0": float(rng.uniform(-math.pi, math.pi)),
            "omega": float(rng.uniform(-TWO_PI, TWO_PI)),
            "sector": str(rng.choice(["gamma", "lambda"]))}
    return Item("classify_geometric", "classify",
                {"schema_version": 1, "command": "classify", "gate": gate,
                 "tolerance": 1e-9})


def rotation_classify(rng):
    gate = {"kind": "rotation", "omega": float(rng.uniform(-TWO_PI, TWO_PI))}
    return Item("classify_rotation", "classify",
                {"schema_version": 1, "command": "classify", "gate": gate,
                 "tolerance": 1e-9})


def haar_unitary(rng) -> np.ndarray:
    z = (rng.standard_normal((4, 4))
         + 1j * rng.standard_normal((4, 4))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_classify(rng):
    u = haar_unitary(rng)
    matrix = [[[float(z.real), float(z.imag)] for z in row] for row in u]
    return Item("classify_haar", "classify",
                {"schema_version": 1, "command": "classify",
                 "gate": {"kind": "matrix", "matrix": matrix},
                 "tolerance": 1e-9})


def orange_slice(rng):
    t1 = float(rng.uniform(0.2, 2.0))
    tau = t1 + float(rng.uniform(0.2, 2.0))
    scenario = {"schema_version": 1, "command": "simulate", "sector":
                str(rng.choice(["gamma", "lambda"])), "loop": True,
                "path": {"preset": "orange_slice", "t1": t1, "tau": tau},
                "samples_per_segment": 1000, "tolerance": 1e-9}
    return Item("orange_slice", "simulate", scenario,
                {"start": (0.5 * math.pi, 0.5 * math.pi),
                 "end": (-0.5 * math.pi, -0.5 * math.pi),
                 "sector": scenario["sector"], "bound": TRANSPORT_FLOOR})


def latitude_loop(rng):
    a = float(rng.uniform(0.3, 2.8))
    b0 = float(rng.uniform(-math.pi, math.pi))
    b1 = b0 + float(rng.choice([-TWO_PI, TWO_PI]))
    sector = str(rng.choice(["gamma", "lambda"]))
    return _simulate([_linear(a, b0, a, b1, float(rng.uniform(0.5, 2.0)))],
                     sector, int(rng.integers(1000, 2001)), (a, b0), (a, b1),
                     [], "latitude")


# --------------------------------------------------------------------------
# Invalid scenarios
# --------------------------------------------------------------------------


def _leaves(obj, prefix=()):
    """(path, value) of every scalar leaf that is not a list element."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, prefix + (key,))
    elif isinstance(obj, list):
        if obj and isinstance(obj[0], (dict, list)):
            for i, value in enumerate(obj):
                yield from _leaves(value, prefix + (i,))
    else:
        yield prefix, obj


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


def wrong_type(rng, base: Item) -> Item:
    """Replace one seeded field of a valid scenario by a value of the wrong
    JSON type; the diagnostic must name that field."""
    scenario = json.loads(json.dumps(base.scenario))
    leaves = [(p, v) for p, v in _leaves(scenario) if p[-1] != "command"]
    path, value = leaves[int(rng.integers(len(leaves)))]
    _set(scenario, path, 1.5 if isinstance(value, str) else str(value))
    return Item("invalid_type", base.command, scenario,
                {"field": str(path[-1]), "branch": _one_of_branch(path)})


def _one_of_branch(path) -> str | None:
    """The diagnostic path of the `oneOf` value (a gate or a path segment)
    that holds the field at `path`, or None."""
    for i, key in enumerate(path[:-1]):
        if key == "gate":
            return "gate"
        if key == "segments":
            return "/".join(str(k) for k in path[:i + 2])
    return None


_TYPOS = ("tolerence", "sampels_per_segment", "secter", "outfile", "comand",
          "schema-version", "looped", "notes")


def unknown_field(rng, base: Item) -> Item:
    scenario = dict(base.scenario)
    name = str(rng.choice(_TYPOS))
    scenario[name] = float(rng.uniform(0.0, 1.0))
    return Item("invalid_unknown", base.command, scenario, {"field": name})


def command_mismatch(rng, base: Item) -> Item:
    others = [c for c in ("simulate", "classify", "sweep-map", "trotter-sweep")
              if c != base.command]
    return Item("invalid_command", str(rng.choice(others)), base.scenario,
                {"field": "command"})


def open_path(rng) -> Item:
    a0 = float(rng.uniform(0.3, 2.8))
    b0 = float(rng.uniform(-math.pi, math.pi))
    seg = _linear(a0, b0, float(rng.uniform(0.3, 2.8)),
                  b0 + float(rng.uniform(0.5, 2.0)), 1.0)
    path = {"segments": [seg]}
    if rng.uniform() < 0.5:
        path["closed"] = False
    scenario = {"schema_version": 1, "command": "simulate", "loop": True,
                "path": path, "samples_per_segment": 1000, "tolerance": 1e-9}
    return Item("invalid_open_path", "simulate", scenario, {"field": "path"})


# --------------------------------------------------------------------------
# Rounds
# --------------------------------------------------------------------------

# Size strata: every round holds one item per stratum, so the cost of a
# round stays within a few percent across seeds. Each round has an odd
# number of items, so that its median item is one stratum, not the mean of
# two.
SIMULATE_SAMPLES = (1000, 1400, 2000, 2800, 4000, 5600, 8000)
SAMPLED_POINTS = (3500, 1500)
MAP_SIZES = (10, 16, 24, 32, 45, 60)
TROTTER_SHAPES = ((6, 4, False), (10, 6, True), (16, 8, False))
HAAR_PER_ROUND = 5


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def shipped_items(root: Path) -> list[Item]:
    items = []
    for path in sorted((root / "scenarios").glob("*.json")):
        scenario = json.loads(path.read_text(encoding="utf-8"))
        items.append(Item("shipped_" + path.stem, scenario["command"],
                          scenario))
    latitude, orange = (next(i for i in items if i.kind == f"shipped_{name}")
                        for name in ("latitude_loop", "orange_slice"))
    path = latitude.scenario["path"]["segments"][0]
    latitude.expect = {"start": (path["alpha_start"], path["beta_start"]),
                       "end": (path["alpha_end"], path["beta_end"]),
                       "sector": "gamma", "bound": TRANSPORT_FLOOR}
    orange.expect = {"start": (0.5 * math.pi, 0.5 * math.pi),
                     "end": (-0.5 * math.pi, -0.5 * math.pi),
                     "sector": "gamma", "bound": TRANSPORT_FLOOR}
    return items


def make_round(workload: str, seed: int, root: Path) -> list[Item]:
    """The seeded item list that a run of `workload` repeats."""
    rng = _rng(workload, seed)
    if workload == "cold_cli":
        items = shipped_items(root)
        variants = [orange_slice(rng), latitude_loop(rng),
                    geometric_classify(rng), rotation_classify(rng),
                    sweep_map(rng, int(rng.integers(4, 9)),
                              int(rng.integers(4, 9)), "map_small"),
                    trotter_table(rng, int(rng.integers(2, 5)),
                                  int(rng.integers(2, 5)), False,
                                  "trotter_small")]
        items += variants
        items += [haar_classify(rng) for _ in range(HAAR_PER_ROUND)]
        items += [unknown_field(rng, variants[int(rng.integers(6))]),
                  wrong_type(rng, variants[int(rng.integers(6))]),
                  wrong_type(rng, variants[int(rng.integers(6))]),
                  command_mismatch(rng, variants[int(rng.integers(6))]),
                  open_path(rng)]
    elif workload == "fine_simulate":
        points = iter(SAMPLED_POINTS)
        items = []
        for i, n in enumerate(SIMULATE_SAMPLES):
            sector = str(rng.choice(["gamma", "lambda"]))
            samples = _jitter(rng, n)
            if i % 3 == 0:
                items.append(tilted_loop(rng, sector, samples))
            elif i % 3 == 1:
                items.append(spiral_loop(rng, sector, samples))
            else:
                items.append(sampled_loop(rng, sector, samples,
                                          _jitter(rng, next(points))))
    elif workload == "gate_tables":
        # seeded aspect ratio at a nearly constant number of grid points
        skew = [int(rng.integers(-n // 5, n // 5 + 1)) for n in MAP_SIZES]
        items = [sweep_map(rng, n + d, n - d) for n, d in zip(MAP_SIZES, skew)]
        items += [trotter_table(rng, th, nn, as_list)
                  for th, nn, as_list in TROTTER_SHAPES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [items[i] for i in rng.permutation(len(items))]


def warmup_items(workload: str, root: Path) -> list[Item]:
    """Small untimed items touching every code path of the workload."""
    rng = np.random.default_rng([2 ** 31 - 1, WORKLOADS.index(workload)])
    if workload == "fine_simulate":
        return [tilted_loop(rng, "gamma", 200), spiral_loop(rng, "lambda", 200),
                sampled_loop(rng, "gamma", 200, 200)]
    if workload == "gate_tables":
        return [sweep_map(rng, 4, 4), trotter_table(rng, 2, 2, True)]
    return [shipped_items(root)[0]]


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

_BELL = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0],
                  [1, 0, 0, -1j]], dtype=complex) / math.sqrt(2.0)


def _m_eigenvalues(u: np.ndarray) -> np.ndarray:
    mb = _BELL.conj().T @ u @ _BELL
    return np.linalg.eigvals(mb.T @ mb)


def hull_gap(u: np.ndarray) -> float:
    """Largest gap between consecutive angles of the eigenvalues of
    m = (Q^dag U Q)^T (Q^dag U Q). By the convex-hull criterion the gate is
    a perfect entangler iff 0 lies in the hull of those eigenvalues, i.e.
    iff this gap is at most pi."""
    angles = np.sort(np.angle(_m_eigenvalues(u)))
    return float(np.diff(np.concatenate([angles, angles[:1] + TWO_PI])).max())


def matrix_invariants(u: np.ndarray):
    """(G1, G2) of a unitary from the eigenvalues lam of m:
    G1 = (sum lam)^2 / (16 det U), G2 = ((sum lam)^2 - sum lam^2) / (4 det U).
    G1 is complex; G2 is returned as its real part."""
    lam = _m_eigenvalues(u)
    det = np.linalg.det(u)
    tr = lam.sum()
    return complex(tr * tr / (16.0 * det)), \
        float(((tr * tr - (lam * lam).sum()) / (4.0 * det)).real)


def closed_form(alpha0, omega):
    """(G1, G2) of the geometric gate at anchor alpha0 and solid angle omega,
    from the paper's closed form; G1 is real."""
    s = 2.0 * np.sin(alpha0) ** 2 * (1.0 - np.cos(omega))
    return (4.0 - s) ** 2 / 16.0, 3.0 - s


LABELS = ("NOT_PE", "PE", "SPE")


def threshold_ok(g1, g2, tol=1e-9) -> np.ndarray:
    """Boolean array (points, LABELS): the labels the paper's rule (PE iff
    |G1| <= 1/4 and -1 <= G2 <= 1, SPE iff also G1 = 0) gives anywhere
    within INVARIANT_TOL of (g1, g2), so a point on a class boundary
    accepts both sides. g1 is real (the closed form) or |G1|."""
    g1 = np.atleast_1d(np.asarray(g1, dtype=float))
    g2 = np.atleast_1d(np.asarray(g2, dtype=float))
    ok = np.zeros((g1.size, len(LABELS)), dtype=bool)
    for d1 in (-INVARIANT_TOL, 0.0, INVARIANT_TOL):
        for d2 in (-INVARIANT_TOL, 0.0, INVARIANT_TOL):
            a1 = np.abs(g1 + d1)
            pe = (a1 <= 0.25 + tol) & (g2 + d2 >= -1.0 - tol) \
                & (g2 + d2 <= 1.0 + tol)
            spe = pe & (a1 <= tol)
            ok[:, 0] |= ~pe
            ok[:, 1] |= pe & ~spe
            ok[:, 2] |= spe
    return ok


def threshold_labels(g1, g2) -> set:
    """The labels of threshold_ok for one point, as a set."""
    return {label for label, ok in zip(LABELS, threshold_ok(g1, g2)[0])
            if ok}


def transport_propagator(expect) -> np.ndarray:
    """Exact propagator of the reverse-engineered schedule of a
    chart-continuous path from its start and end chart coordinates."""
    from schmidt_gates.sphere import assemble_state

    sector = expect["sector"]
    (a0, b0), (a1, b1) = expect["start"], expect["end"]
    u = np.zeros((4, 4), dtype=complex)
    for sign in "+-":
        u += np.outer(assemble_state(a1, b1, sector + sign),
                      assemble_state(a0, b0, sector + sign).conj())
    for k in ((0, 3) if sector == "gamma" else (1, 2)):
        u[k, k] = 1.0
    return u


def _grid(spec):
    if isinstance(spec, list):
        return np.asarray(spec, dtype=float)
    return np.linspace(spec["start"], spec["stop"], spec["count"])


def _csv(text, header, rows, labelled=False):
    """Parse a CSV table of `rows` numeric rows, the last column a class
    label when `labelled`, into (numbers, label indices into LABELS, -1 for
    an unknown label). Rows are parsed one at a time, so the check holds
    less in memory than the program did while writing the table."""
    lines = _lines(text)
    if next(lines, "").split(",") != header:
        raise TableMismatch("table_header")
    width = len(header) - labelled
    num = np.empty((rows, width))
    label = np.empty(rows, dtype=int)
    i = -1
    for i, line in enumerate(lines):
        cells = line.split(",")
        if i >= rows or len(cells) != len(header):
            raise TableMismatch("table_rows")
        num[i] = cells[:width]
        if labelled:
            label[i] = _LABEL_INDEX.get(cells[-1], -1)
    if i + 1 != rows:
        raise TableMismatch("table_rows")
    return num, label


class TableMismatch(ValueError):
    """A table whose header or row count is wrong; the message is the
    failure kind."""


_LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}


def _lines(text):
    """The lines of `text` without their newlines, one copy at a time."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        yield text[start:end]
        start = end + 1


# The best-match diagnostic of a wrong-typed field inside a `oneOf` value:
# it names the value and another branch's problem.
_OTHER_BRANCH = re.compile(
    r"error: scenario field '(?P<branch>[^']+)': (?:'\w+' is a required "
    r"property|Additional properties are not allowed \(.+ (?:was|were) "
    r"unexpected\))$")


class Checker:
    """Checks one item's outcome; returns None if correct, else a failure
    kind. A simulate item's transport propagator is kept in its `expect`."""

    def __call__(self, item: Item, code: int, stderr: str,
                 output: str | None) -> str | None:
        if item.kind.startswith("invalid_"):
            return self._invalid(item, code, stderr, output)
        if code != 0:
            return "exit_status"
        if output is None:
            return "no_output"
        try:
            return getattr(self, "_" + item.command.replace("-", "_"))(
                item, output)
        except TableMismatch as exc:
            return str(exc)
        except (ValueError, KeyError, IndexError, TypeError):
            return "malformed_output"

    @staticmethod
    def _invalid(item, code, stderr, output):
        if code != 2 or output is not None:
            return "invalid_accepted"
        if not stderr.startswith("error:"):
            return "no_diagnostic"
        name = re.escape(item.expect["field"])
        if re.search(rf"(?<![\w-]){name}(?![\w-])", stderr):
            return None
        other = _OTHER_BRANCH.match(stderr.rstrip("\n"))
        if (item.kind == "invalid_type" and other
                and other["branch"] == item.expect.get("branch")):
            return "diagnostic_misses_field"
        return "diagnostic_unnamed"

    def _simulate(self, item, output):
        report = json.loads(output)
        u = np.array([[complex(re, im) for re, im in row]
                      for row in report["propagator"]])
        if "transport" not in item.expect:
            item.expect["transport"] = transport_propagator(item.expect)
        err = float(np.max(np.abs(u - item.expect["transport"])))
        if not report["passed"] or not err <= item.expect["bound"]:
            return "propagator"
        return None

    @staticmethod
    def _classify(item, output):
        report = json.loads(output)
        inv = report["invariants"]
        label = report["entangler_class"]
        gate = item.scenario["gate"]
        if gate["kind"] == "matrix":
            u = np.array([[complex(re, im) for re, im in row]
                          for row in gate["matrix"]])
            g1, g2 = matrix_invariants(u)
        else:
            g1, g2 = closed_form(gate.get("alpha0", 0.5 * math.pi),
                                 gate["omega"])
        if (abs(complex(inv["g1_re"], inv["g1_im"]) - g1) > INVARIANT_TOL
                or abs(inv["g2"] - g2) > INVARIANT_TOL):
            return "invariants"
        by_rule = threshold_labels(abs(g1), g2)
        if gate["kind"] != "matrix":
            return None if label in by_rule else "class"
        # the hull test decides PE against NOT_PE; SPE (G1 = 0) is a PE
        # that the rule also calls SPE
        gap = hull_gap(u)
        by_hull = set()
        if gap <= math.pi + HULL_TOL:
            by_hull |= {"PE"} | (by_rule & {"SPE"})
        if gap >= math.pi - HULL_TOL:
            by_hull.add("NOT_PE")
        if label in by_hull:
            return None
        if label != "NOT_PE" and label in by_rule:
            return "hull_mislabel"
        return "class"

    @staticmethod
    def _sweep_map(item, output):
        alphas = _grid(item.scenario["alpha0"])
        omegas = _grid(item.scenario["omega"])
        num, label = _csv(output, ["alpha0", "omega", "g1_re", "g1_im", "g2",
                                   "entangler_class"],
                          alphas.size * omegas.size, labelled=True)
        a = np.repeat(alphas, omegas.size)
        w = np.tile(omegas, alphas.size)
        if (np.max(np.abs(num[:, 0] - a)) > GRID_TOL
                or np.max(np.abs(num[:, 1] - w)) > GRID_TOL):
            return "table_grid"
        g1, g2 = closed_form(a, w)
        if (np.max(np.abs(num[:, 2] - g1)) > INVARIANT_TOL
                or np.max(np.abs(num[:, 3])) > INVARIANT_TOL
                or np.max(np.abs(num[:, 4] - g2)) > INVARIANT_TOL):
            return "invariants"
        ok = threshold_ok(g1, g2)
        if np.any(label < 0) or not ok[np.arange(label.size), label].all():
            return "class"
        return None

    @staticmethod
    def _trotter_sweep(item, output):
        thetas = _grid(item.scenario["theta"])
        n_values = item.scenario["n_values"]
        num, _ = _csv(output, ["theta", "n", "infidelity", "trotter_error",
                               "omega_empirical"],
                      thetas.size * len(n_values))
        if (np.max(np.abs(num[:, 0] - np.repeat(thetas, len(n_values))))
                > GRID_TOL
                or list(num[:, 1]) != list(n_values) * thetas.size):
            return "table_grid"
        if not np.all(np.isfinite(num[:, 2:4])) or np.min(num[:, 2:4]) < 0:
            return "trotter_error"
        diff = num[:, 4] - (2.0 * num[:, 0] - math.pi)
        if np.max(np.abs(np.angle(np.exp(1j * diff)))) > OMEGA_TOL:
            return "omega_empirical"
        return None


def write_inputs(items: list[Item], directory: Path) -> list[Path]:
    """Write each item's scenario as <directory>/<index>.json."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, item in enumerate(items):
        path = directory / f"{i:03d}.json"
        path.write_text(item.text(), encoding="utf-8")
        paths.append(path)
    return paths
