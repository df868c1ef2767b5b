"""Planted defects that tier-1 must kill.

Each entry of MUTANTS is one change to one line of the package: the file
under src/schmidt_gates, the exact text it replaces (found there exactly
once), the new text, and why the change is a defect. For each entry the
script copies src/ to a temporary directory, applies the change, and runs
tier-1 on the copy with `pytest -x -q`; it fails if tier-1 passes, that is
if a mutant survives. A run that outlasts TIMEOUT is stopped and counts as
killed, since a hang fails a test run too.

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
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Seconds one mutant's tier-1 run may take: several times the whole suite's
# run on 2 vCPUs, which a mutant that only slows tier-1 down stays under.
TIMEOUT = 300

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
     "c0 * self.angle + north - south,",
     "c0 * self.angle - north + south,",
     "the arc cos-integral sign: the pole terms of an arc's integral of "
     "cos(alpha) d beta enter with the wrong sign"),
    ("sphere.py",
     "return (-np.sign(self.alpha_start) * rate * (kx * y - ky * x) / rho,",
     "return (np.sign(self.alpha_start) * rate * (kx * y - ky * x) / rho,",
     "the arc start-rate sign: an arc's alpha' at its start has the wrong "
     "sign, and so does the field the CLI reports for it"),
    ("invariants.py",
     'labels[is_pe & (r <= tol)] = "SPE"',
     'labels[is_pe & (r <= 100 * tol)] = "SPE"',
     "the SPE threshold at 100 x tol: perfect entanglers with G1 up to "
     "100 tol are labelled special"),
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
     "        if defect > tol:",
     "        if defect > 100 * tol:",
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
    ("dynamics.py",
     "half = np.arctan2(b.real, a.real)",
     "half = np.arctan2(b.imag, a.real)",
     "the rotation angle from b.imag: the real rotation form keeps its "
     "angle in b.real, so omega_empirical reads 0 or 2 pi"),
    ("dynamics.py",
     "return 2.0 * half, np.hypot(d.real, d.imag).max(axis=0)",
     "return 2.0 * half, np.hypot(d.real, d.imag)[0]",
     "the rotation-form residual without its b term: a pair whose b is "
     "off the form passes as a rotation"),
    ("cli.py",
     "infid = 0.25 * (diff.real ** 2 + diff.imag ** 2).sum(axis=0)",
     "infid = 0.25 * (diff.real ** 2 + diff.imag ** 2)[0]",
     "the Trotter errors without |b - b_n|^2: both error columns miss the "
     "off-diagonal part of the difference"),
    ("linalg.py",
     "np.angle(_overlap(v, u))",
     "np.angle(_overlap(u, v))",
     "the distance's phase from tr(u^dag v): v is turned by the conjugate "
     "of the optimal phase"),
    ("invariants.py",
     "is_pe = ((r <= 0.25 + tol)",
     "is_pe = ((r < 0.25 + tol)",
     "the G1 bound exclusive: a gate with |G1| exactly 1/4 + tol is not "
     "labelled a perfect entangler"),
    ("invariants.py",
     "    if defect > atol:",
     "    if defect >= atol:",
     "the unitarity bound exclusive: a gate whose defect is exactly atol "
     "is refused"),
    ("sphere.py",
     "idx = 0 if abs(v[0]) > _PHASE_CUT else 1",
     "idx = 0 if abs(v[0]) >= _PHASE_CUT else 1",
     "the phase cut inclusive: a first component of modulus exactly "
     "_PHASE_CUT is taken as the phase reference"),
    ("cli.py",
     "return route(*gate, max(tol, linalg.ATOL_PIPELINE))",
     "return route(*gate, linalg.ATOL_PIPELINE)",
     "the invariants at the pipeline tolerance alone: a propagator within "
     "the report's tolerance but off unitary by more than 1e-10 is refused"),
    ("sphere.py",
     "beta += 2 * np.pi * np.round((self.beta_start - beta) / (2 * np.pi))",
     "beta += 2 / np.pi * np.round((self.beta_start - beta) / (2 * np.pi))",
     "the arc's chart lift by 2 / pi: an arc's end lands off its start's "
     "chart copy, so every tilted arc is refused"),
    ("invariants.py",
     "np.array([-1, 1, 1, -1], dtype=complex)",
     "np.array([1, 1, 1, -1], dtype=complex)",
     "a spin-flip sign lost: S U keeps U's last row unnegated, so X is not "
     "U^T S U and the invariants are wrong"),
    ("invariants.py",
     "return (2.0 * (x12 - x03),",
     "return (2.0 * (x12 + x03),",
     "tr m from X12 + X03: the trace of X S takes X03 with the wrong sign, "
     "so G1 and G2 are wrong"),
    ("invariants.py",
     "- 4.0 * (x01 * x23 + x02 * x13))",
     "- 2.0 * (x01 * x23 + x02 * x13))",
     "tr m^2's cross terms at 2, not 4: the off-diagonal products of X S "
     "are counted once instead of twice, so G2 is wrong"),
    ("invariants.py",
     "return a01 * a23 - a02 * a13 + a03 * a12",
     "return a01 * a23 + a02 * a13 + a03 * a12",
     "the Pfaffian's middle sign: A02 A13 enters with the wrong sign, so "
     "det U, and with it G1 and G2, are wrong"),
    ("invariants.py",
     "_J = ([2, 3, 0, 1], np.array([-1j, -1j, 1j, 1j])[:, None, None])",
     "_J = ([2, 3, 0, 1], np.array([-1j, 1j, 1j, 1j])[:, None, None])",
     "a J sign flipped: J is no longer antisymmetric, so U^T J U has no "
     "Pfaffian and det U is wrong"),
    ("invariants.py",
     "one_sided = ((im * im <= 4.0 * r * r * r)",
     "one_sided = ((im * im <= r * r * r)",
     "the clause's sin^2 Gamma <= |G1|, not 4 |G1|: gates the thresholds "
     "admit with |G1| < sin^2 Gamma <= 4 |G1| are labelled perfect "
     "entanglers though 0 lies outside m's hull"),
    ("invariants.py",
     "& (re * (re - g2 * r) < -tol * r * r))",
     "& (re * (re - g2 * r) <= 0.0))",
     "the clause without its tolerance: a gate within tol of the G2 = -1 "
     "bound on the negative real G1 axis is not labelled a perfect "
     "entangler"),
    ("invariants.py",
     "r, re, im = abs(g1), g1.real, g1.imag",
     "r, re, im = abs(g1), g1.imag, g1.real",
     "the clause with Re G1 and Im G1 swapped: it reads cos Gamma as "
     "sin Gamma, so it excludes the wrong gates"),
    ("invariants.py",
     "& (re * (re - g2 * r) < -tol * r * r))",
     "& (re * (re - g2) < -tol * r * r))",
     "the clause's G2 |G1| as G2: cos Gamma - G2 is taken at the scale of "
     "|G1|, so the clause excludes the wrong gates"),
    ("invariants.py",
     "             & ~one_sided)",
     "             )",
     "the thresholds without the clause: gates with 0 outside m's hull "
     "that pass |G1| <= 1/4 and -1 <= G2 <= 1 are labelled perfect "
     "entanglers"),
    ("invariants.py",
     "g1, g2 = np.asarray(inv.g1), np.asarray(inv.g2)",
     "g1, g2 = inv.g1, inv.g2",
     "the invariants taken as given: for Python scalars the masks are "
     "Python bools, ~ on a bool is the int -1 or -2, and classify fails or "
     "answers wrongly"),
    ("sphere.py",
     "alpha[0], beta[0], alpha[-1], beta[-1], beta[-1] - beta[0],",
     "alpha[-1], beta[-1], alpha[-1], beta[-1], beta[-1] - beta[0],",
     "a polyline's start taken from its last sample: its record starts "
     "where it ends, so paths break at its junctions and reports give the "
     "wrong base point"),
    ("sphere.py",
     "return dy * np.cos(mid) * sinc, dy * np.sin(mid) * sinc",
     "return dy * np.sin(mid) * sinc, dy * np.cos(mid) * sinc",
     "the piece integrals' cos and sin swapped: a polyline's integral of "
     "cos(alpha) d beta, and its report's areas, are formed from sin"),
    ("sphere.py",
     "c0 * self.angle + north - south, alpha.min(), alpha.max()))))",
     "c0 * self.angle + north - south, alpha[:2].min(), alpha[:2].max()))))",
     "an arc's alpha range from its ends only: the z-turns are dropped, so "
     "an arc whose alpha peaks mid-way records too narrow a range"),
    ("sphere.py",
     "            alpha.max()))))",
     "            alpha[[0, -1]].max()))))",
     "a polyline's largest alpha from its ends only: a polyline that "
     "reaches the south pole between its ends is answered with a singular "
     "chart solid angle"),
    ("sphere.py",
     "*segments[0]._record[:2], *segments[-1]._record[2:4],",
     "*segments[0]._record[:2], *segments[0]._record[2:4],",
     "a path's end taken from its first segment: a closed path of several "
     "segments seems open, and an open one ends at its first junction"),
    ("invariants.py",
     "g2=(4.0 * p - 1.0)[()])",
     "g2=(4.0 * p + 1.0)[()])",
     "the pair's G2 as 4 p + 1: every sector gate's G2 is 2 too large, so "
     "the maximal entangler reads G2 = 1 and the identity G2 = 5"),
    ("invariants.py",
     "    p = aa / norm",
     "    p = aa",
     "the pair's p without its division by |a|^2 + |b|^2: the invariants "
     "of a pair off unit norm within the tolerance are not those of the "
     "normalized pair"),
    ("cli.py",
     "return inv, bool(_deviation(gram, inv) <= tol)",
     "return inv, bool(_deviation(inv, inv) <= tol)",
     "iswap_type comparing the pair's invariants with themselves: the "
     "Gram route's verdict is dropped, so the check cannot fail"),
]


def run(file: str, old: str, new: str) -> tuple[bool, str]:
    """(killed, the first failing test, the tail of pytest's output or the
    timeout) of tier-1 on a copy of src/ with `old` replaced by `new` in
    `file`."""
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
        # there; pythonpath overrides pyproject's, which names the checkout;
        # in a session of its own, so that a timeout also stops the
        # processes tier-1 starts
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "-o", f"pythonpath={src}",
             str(ROOT / "tests")],
            cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return True, f"timed out after {TIMEOUT} s"
    # node ids are printed relative to the copy; keep them from tests/ on
    failed = re.findall(r"^(?:FAILED|ERROR) \S*?(tests/\S+)", stdout, re.M)
    if proc.returncode not in (0, 1, 2):
        raise SystemExit(f"pytest exited {proc.returncode}:\n{stdout}"
                         f"{stderr}")
    return proc.returncode != 0, (failed[0] if failed
                                  else stdout.strip()[-200:])


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
