"""Local invariants and entangling-power classification of two-qubit gates.

The invariants (G1, G2) are those of Makhlin's matrix m in the Bell (magic)
basis; they are unchanged under single-qubit rotations before and after the
gate. A sector gate, an SU(2) rotation of one sector's pair with the
identity on the other, is known by its Cayley-Klein pair (a, b), and its
invariants are read from the pair alone (`pair_invariants`): it is locally
equivalent to exp(i c (XX + YY) / 2) with cos c = |a|, an iSWAP-type gate.
A general 4x4 gate's are read without a change of basis, from
X = U^T S U with the spin flip S = Y x Y, whose product X S has m's
spectrum. Every 4x4 quantity is one Gram product of U with an exact row
map R of U, U^T R U (`linalg.gram_upper`): X for the traces, and U^T J U
with J = Y x I, whose Pfaffian is det U. Every function here works
elementwise on stacks, of pairs, of (..., 4, 4) gates or of anchors and
solid angles, so a table of gates is one call. A stack of gates is
handled with the gate axis innermost, so that a 4x4 product is a few
operations on length-n rows and the module makes no BLAS or LAPACK call.
LocalInvariants of a stack hold arrays, so invariants compare and hash by
identity, for a stack and for a single gate alike.

A gate is a perfect entangler (PE) when 0 lies in the convex hull of the
eigenvalues of m (Makhlin, QIP 1, 243 (2002); Zhang, Vala, Sastry and
Whaley, PRA 67, 042313 (2003)). (G1, G2) fix a gate's local class, so
this is a function of (G1, G2) alone; `classify` decides it by one rule on
them, for sector blocks and general gates alike. A PE is a special perfect
entangler (SPE) when additionally G1 = 0; both conditions are applied with
a configurable tolerance. A class is its name, "NOT_PE", "PE" or "SPE",
the text the reports and tables print.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ATOL_PIPELINE, gram_upper, unitarity_defect

CLASSIFY_TOL = 1e-9

# row maps R, as R U = U's rows `rows` times `signs`, an exact operation:
# the spin flip S = Y x Y, and J = Y x I, whose Pfaffian is 1; the signs are
# complex and shaped to scale the rows of a stack held with the gate axis
# last, so a map casts and reshapes nothing when it is applied
_SPIN_FLIP = ([3, 2, 1, 0],
              np.array([-1, 1, 1, -1], dtype=complex)[:, None, None])
_J = ([2, 3, 0, 1], np.array([-1j, -1j, 1j, 1j])[:, None, None])


@dataclass(frozen=True, eq=False)
class LocalInvariants:
    """Pair of local invariants; g1 is complex, g2 real for unitary input.
    Both are arrays of the stack's shape when computed for a stack."""

    g1: complex | np.ndarray
    g2: float | np.ndarray


def _gram(u: np.ndarray, row_map) -> np.ndarray:
    """The ten upper-triangle entries of U^T R U for the row map R, as
    (n,) rows, of a gate or of each gate of a stack."""
    rows, signs = row_map
    x = np.reshape(u, (-1, 4, 4)).transpose(1, 2, 0)
    return gram_upper(x, x.take(rows, 0) * signs)


def _det(u: np.ndarray) -> np.ndarray:
    """det U of a gate or of each gate of a stack, as an (n,) array: the
    Pfaffian of the antisymmetric U^T J U, which is det U Pf(J) = det U."""
    *_, a01, a02, a03, a12, a13, a23 = _gram(u, _J)
    return a01 * a23 - a02 * a13 + a03 * a12


def _traces(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tr m, tr m^2) of a gate or of each gate of a stack, as (n,) arrays,
    from the ten upper-triangle entries of X = U^T S U (X is symmetric):
    tr m = 2 (X12 - X03) and
    tr m^2 = 2 (X03^2 + X12^2 + X00 X33 + X11 X22) - 4 (X01 X23 + X02 X13),
    with the terms added in that order."""
    x00, x11, x22, x33, x01, x02, x03, x12, x13, x23 = _gram(u, _SPIN_FLIP)
    return (2.0 * (x12 - x03),
            2.0 * (x03 * x03 + x12 * x12 + x00 * x33 + x11 * x22)
            - 4.0 * (x01 * x23 + x02 * x13))


def makhlin_invariants(u: np.ndarray,
                       atol: float = ATOL_PIPELINE) -> LocalInvariants:
    """Local invariants of a two-qubit gate, or of each gate of a stack.

    With m = (Q^dag U Q)^T (Q^dag U Q) in the Bell basis Q:
    G1 = tr(m)^2 / (16 det U), G2 = (tr(m)^2 - tr(m^2)) / (4 det U).
    Q Q^T = -S for the spin flip S = Y x Y, so m has the spectrum, and the
    traces, of X S with X = U^T S U, and no basis change is needed.
    |det U| is renormalized to one before dividing so near-unitary input
    noise is not amplified. `atol` bounds how far from unitary the input
    may be; the imaginary part of G2 (identically zero for exact unitaries)
    is checked against the same scale; both checks cover every gate of a
    stack, and an empty stack has empty invariants. Any shape other than
    (..., 4, 4) is refused.

    Every quantity is a Gram product of U with an exact row map of U,
    formed with the gate axis last on its ten upper-triangle entries: U^dag U
    for the unitarity check, X, whose S U is U's rows reversed and
    multiplied by the signs (-1, 1, 1, -1), and A = U^T J U for J = Y x I,
    whose J U is U's rows (2, 3, 0, 1) times (-i, -i, i, i): Pf(J) = 1, so
    det U is the Pfaffian A01 A23 - A02 A13 + A03 A12. Each is a few
    operations on whole length-n rows with terms added in a fixed order. So
    a gate alone gives the bits it has in a stack, no step calls BLAS or
    LAPACK, and the textbook gates (I, CNOT, SWAP, sqrt SWAP) give their
    invariants exactly.
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.shape[-2:] != (4, 4):
        raise ValueError(f"expected a (..., 4, 4) gate or stack of gates, "
                         f"got shape {u.shape}")
    defect = unitarity_defect(u)
    if defect > atol:
        raise ValueError(f"matrix is not unitary (max deviation {defect:.3e})")
    det = _det(u)
    det = det / abs(det)
    tr, tr2 = _traces(u)
    g1 = tr * tr / (16.0 * det)
    g2 = (tr * tr - tr2) / (4.0 * det)
    worst = max(g2.imag.min(initial=0.0), g2.imag.max(initial=0.0), key=abs)
    if abs(worst) > atol:
        raise ValueError(f"G2 has imaginary part {worst:.3e}; "
                         "input is too far from unitary")
    shape = u.shape[:-2]
    return LocalInvariants(g1=g1.reshape(shape)[()],
                           g2=g2.real.reshape(shape)[()])


def pair_invariants(a, b, atol: float = ATOL_PIPELINE) -> LocalInvariants:
    """Local invariants of the sector gate of Cayley-Klein pair (a, b), in
    either sector, or of each gate of arrays of pairs (a and b broadcast).

    The gate is locally equivalent to the iSWAP-type gate of Weyl
    coordinates (c, c, 0) with cos c = |a| (Zhang, Vala, Sastry and
    Whaley, PRA 67, 042313 (2003)), so with p = |a|^2 / (|a|^2 + |b|^2),
    G1 = p^2, real, and G2 = 4 p - 1. |a|^2 and |b|^2 are sums of the real
    squares of the parts, with no complex product or modulus, so their bits
    do not depend on the SIMD code numpy dispatches. A pair with
    | |a|^2 + |b|^2 - 1 | beyond `atol`, or not finite, is refused, as
    makhlin_invariants refuses a gate that far from unitary.
    """
    a, b = (np.asarray(x, dtype=np.complex128) for x in (a, b))
    aa = a.real * a.real + a.imag * a.imag
    norm = aa + (b.real * b.real + b.imag * b.imag)
    defect = abs(norm - 1.0).max(initial=0.0)
    if not defect <= atol:
        raise ValueError(f"pair is not unitary (| |a|^2 + |b|^2 - 1 | = "
                         f"{defect:.3e})")
    p = aa / norm
    return LocalInvariants(g1=(p * p).astype(np.complex128)[()],
                           g2=(4.0 * p - 1.0)[()])


def closed_form_invariants(alpha0: float, omega: float) -> LocalInvariants:
    """Invariants of the geometric gate at anchor alpha0 with solid angle
    omega, independent of beta0 (elementwise over broadcast arrays):
    G1 = [4 - 2 sin^2(alpha0) (1 - cos omega)]^2 / 16,
    G2 = 3 - 2 sin^2(alpha0) (1 - cos omega).
    """
    shared = 2.0 * np.sin(alpha0) ** 2 * (1.0 - np.cos(omega))
    g1 = (4.0 - shared) ** 2 / 16.0
    g2 = 3.0 - shared
    return LocalInvariants(g1=np.asarray(g1, dtype=np.complex128)[()], g2=g2)


def classify(inv: LocalInvariants, tol: float = CLASSIFY_TOL):
    """Entangler class name of a gate from its local invariants, "NOT_PE",
    "PE" or "SPE" (SPE implies PE); an object array of names for the
    invariants of a stack.

    A gate is PE when |G1| <= 1/4 + tol and -1 - tol <= G2 <= 1 + tol,
    unless (Im G1)^2 <= 4 |G1|^3 and Re G1 (Re G1 - G2 |G1|) < -tol |G1|^2.
    With G1 = |G1| e^{i Gamma} that exception reads sin^2 Gamma <= 4 |G1|
    and cos Gamma (cos Gamma - G2) < -tol; it removes the gates the two
    thresholds admit although 0 lies outside the convex hull of m's
    eigenvalues, about 2 % of Haar gates. On the real G1 axis, where every
    sector-block gate lies, it removes only gates the thresholds exclude
    already. A PE is SPE when |G1| <= tol.

    The rule was measured, not taken from the literature. It gave the
    convex-hull test's class on 10^6 Haar gates, 20 931 of them admitted by
    the thresholds alone. At tol = 0 it gave the exact class, read from the
    Weyl coordinates (c1, c2, c3), on 510 000 Weyl-chamber gates under
    random local unitaries, 210 000 of them within 1e-8 to 1e-3 of the PE
    faces c1 + c2 = pi/2, c1 - c2 = pi/2 and c2 + c3 = pi/2. It gave the
    thresholds' class on 5 10^5 random blocks of each sector and on a
    721 x 1441 grid of geometric gates of each sector, exact boundary
    points included.
    """
    if not tol >= 0:
        raise ValueError("tolerance must be non-negative")
    g1, g2 = np.asarray(inv.g1), np.asarray(inv.g2)
    r, re, im = abs(g1), g1.real, g1.imag
    # gates the thresholds admit though 0 lies outside m's hull
    one_sided = ((im * im <= 4.0 * r * r * r)
                 & (re * (re - g2 * r) < -tol * r * r))
    is_pe = ((r <= 0.25 + tol) & (-1.0 - tol <= g2) & (g2 <= 1.0 + tol)
             & ~one_sided)
    labels = np.full(np.shape(is_pe), "NOT_PE", dtype=object)
    labels[is_pe] = "PE"
    labels[is_pe & (r <= tol)] = "SPE"
    return labels[()]
