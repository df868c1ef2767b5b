"""Planted defects that tier-1 must kill.

Each entry of MUTANTS is one change to one line of the package: the file
under src/schmidt_gates, the exact text it replaces (found there exactly
once), the new text, and why the change is a defect. For each entry the
script copies src/ to a temporary directory, applies the change, and runs
tier-1 on the copy with `pytest -x -q`; it fails if tier-1 passes, that is
if a mutant survives.

    python tests/mutants.py            # every mutant
    python tests/mutants.py embed 4    # those whose number or reason matches

The file name keeps pytest from collecting it. The catalogue's rules: an
entry leaves only when the code it changes is deleted; an equivalent
mutant, one that changes no behaviour, is not added; a survivor gets a
test that kills it.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    ("sphere.py",
     "return np.array([-np.conj(v[1]), np.conj(v[0])], dtype=np.complex128)",
     "return np.array([np.conj(v[1]), -np.conj(v[0])], dtype=np.complex128)",
     "the frame partner sign: |-n> flips sign, so every framed state and "
     "gate takes the wrong phase on the partner"),
    ("gates.py",
     "    return local @ u @ local.conj().T",
     "    return local.conj().T @ u @ local",
     "the framed gate conjugated the wrong way: the frame's unitaries are "
     "undone instead of applied"),
    ("sphere.py",
     "np.sinc(dx / (2.0 * np.pi))",
     "np.sinc(dx / np.pi)",
     "the piece sinc argument: a polyline piece's mean of cos(alpha) is "
     "taken over twice its alpha step, so Omega and phi+ are wrong"),
    ("linalg.py",
     "a0, b0, a1, b1 = a[0:n:2], b[0:n:2], a[1:n:2], b[1:n:2]",
     "a1, b1, a0, b0 = a[0:n:2], b[0:n:2], a[1:n:2], b[1:n:2]",
     "the su2_product order: neighbours compose earlier on the left, which "
     "reverses the time order of non-commuting steps"),
    ("sphere.py",
     "float(c0 * self.angle + north - south)",
     "float(c0 * self.angle - north + south)",
     "the arc cos-integral sign: the pole terms of an arc's integral of "
     "cos(alpha) d beta enter with the wrong sign"),
    ("sphere.py",
     "return (-np.sign(self.alpha_start) * rate * (kx * y - ky * x) / rho,",
     "return (np.sign(self.alpha_start) * rate * (kx * y - ky * x) / rho,",
     "the arc start-rate sign: an arc's alpha' at its start has the wrong "
     "sign, and so does the field the CLI reports for it"),
    ("invariants.py",
     "labels[is_pe & (abs(inv.g1) <= tol)] = EntanglerClass.SPE",
     "labels[is_pe & (abs(inv.g1) <= 100 * tol)] = EntanglerClass.SPE",
     "the SPE threshold at 100 x tol: perfect entanglers with G1 up to "
     "100 tol are labelled special"),
    ("invariants.py",
     "is_pe = _hull_gap(gate) <= np.pi + tol",
     "is_pe = _hull_gap(gate) <= np.pi + 1e-3",
     "the hull gap at pi + 1e-3: gates whose eigenvalue gap exceeds pi by "
     "less than 1e-3 are labelled perfect entanglers"),
    ("sphere.py",
     "pole = np.pi * (2.0 * np.ceil(0.5 * (lo / np.pi - 1.0)) + 1.0)",
     "pole = np.pi * (2.0 * np.ceil(0.5 * (lo / np.pi - 1.0)) + 3.0)",
     "the south-pole test: the first south pole at or above a polyline's "
     "least alpha is skipped, so its singular chart integral is answered"),
    ("cli.py",
     '"area_xy": float(-0.5 * sin_int.sum()),',
     '"area_xy": float(0.5 * sin_int.sum()),',
     "the sampled area_xy sign: a sampled segment reports its h_xy area "
     "negated"),
    ("sphere.py",
     "            if gap > CHART_TOL:",
     "            if gap > 1000 * CHART_TOL:",
     "the closure tolerance: a path flagged closed whose ends are 1e-6 "
     "apart on the sphere is accepted"),
    ("dynamics.py",
     "phi = np.arctan2(np.hypot(a.imag, np.hypot(b.real, b.imag)), a.real)",
     "phi = np.arccos(np.minimum(abs(a), 1.0))",
     "the Trotter phi from |a|: cos(phi) is the real part of a, not its "
     "modulus, so a tilted step is powered by the wrong angle"),
    ("cli.py",
     "    if linalg.unitarity_defect(u) > tol:",
     "    if linalg.unitarity_defect(u) > 100 * tol:",
     "the matrix-gate unitarity tolerance: a matrix gate 100 times further "
     "from unitary than the tolerance is classified"),
    ("sphere.py",
     "beta = float(np.angle(g) - np.angle(f))",
     "beta = float(np.angle(f) - np.angle(g))",
     "the decomposition beta sign: schmidt_decompose returns -beta"),
    ("sphere.py",
     "or abs(end.beta - start.beta) > CHART_TOL",
     "or abs(end.alpha - start.alpha) > CHART_TOL",
     "the junction beta check: segments whose beta jumps at a junction are "
     "joined into one path"),
    ("linalg.py",
     "    return np.add(u, 0.0, out=u)\n",
     "    return u\n",
     "embed without + 0: an exact zero such as -conj(0) stays -0, and "
     "reports print -0 where they print 0"),
    ("linalg.py",
     "u[..., j, i], u[..., j, j] = b, np.conj(a)",
     "u[..., i, j], u[..., j, j] = b, np.conj(a)",
     "embed with b at (i, j) instead of (j, i): the block is not unitary"),
]


def run(file: str, old: str, new: str) -> tuple[bool, str]:
    """(killed, the first failing test or the tail of pytest's output) of
    tier-1 on a copy of src/ with `old` replaced by `new` in `file`."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__",
                                                      "*.egg-info"))
        path = src / "schmidt_gates" / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{file}: {old!r} occurs {text.count(old)} "
                             "times, not once")
        path.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        # run from the copy, so that hypothesis keeps its example database
        # there; pythonpath overrides pyproject's, which names the checkout
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "-o", f"pythonpath={src}",
             str(ROOT / "tests")],
            cwd=tmp, env=env, capture_output=True, text=True)
    # node ids are printed relative to the copy; keep them from tests/ on
    failed = re.findall(r"^(?:FAILED|ERROR) \S*?(tests/\S+)", proc.stdout,
                        re.M)
    if proc.returncode not in (0, 1, 2):
        raise SystemExit(f"pytest exited {proc.returncode}:\n{proc.stdout}"
                         f"{proc.stderr}")
    return proc.returncode != 0, (failed[0] if failed
                                  else proc.stdout.strip()[-200:])


def main(argv: list[str]) -> int:
    chosen = [(k, m) for k, m in enumerate(MUTANTS, 1)
              if not argv or any(a == str(k) or a in m[3] for a in argv)]
    survivors = []
    start = time.perf_counter()
    for k, (file, old, new, reason) in chosen:
        t0 = time.perf_counter()
        killed, detail = run(file, old, new)
        print(f"{k:2d} {'killed' if killed else 'SURVIVED':8s} "
              f"{time.perf_counter() - t0:5.1f} s  {reason.split(':')[0]}"
              f"  [{detail}]", flush=True)
        if not killed:
            survivors.append(k)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
