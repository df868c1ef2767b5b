"""Local invariants and entangling-power classification of two-qubit gates.

The invariants (G1, G2) are computed in the Bell (magic) basis; they are
unchanged under single-qubit rotations before and after the gate. Every
function here works elementwise on stacks, of (..., 4, 4) gates or of
anchors and solid angles, so a table of gates is one call. Past the two
matrix products of the basis change, a stack is handled with the gate axis
innermost, so that a 4x4 product is a few operations on length-n rows and
no step makes one BLAS or LAPACK call per gate.

A gate is a perfect entangler (PE) when 0 lies in the convex hull of the
eigenvalues of its Bell-basis matrix m (Makhlin, QIP 1, 243 (2002); Zhang,
Vala, Sastry and Whaley, PRA 67, 042313 (2003)). For the sector-block
gates the pipeline builds this reduces to |G1| <= 1/4 and -1 <= G2 <= 1,
which `classify` applies unless it is given the gate itself. A PE is a
special perfect entangler (SPE) when additionally G1 = 0; both conditions
are applied with a configurable tolerance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import ATOL_PIPELINE, gram_upper, require_unitary

CLASSIFY_TOL = 1e-9

# columns: the Bell (magic) basis (|00>+|11>)/sqrt2, i(|01>+|10>)/sqrt2,
# (|01>-|10>)/sqrt2, i(|00>-|11>)/sqrt2
_BELL = np.array([
    [1, 0, 0, 1j],
    [0, 1j, 1, 0],
    [0, 1j, -1, 0],
    [1, 0, 0, -1j],
], dtype=np.complex128) / np.sqrt(2.0)

_BELL_DAG = _BELL.conj().T


@dataclass(frozen=True)
class LocalInvariants:
    """Pair of local invariants; g1 is complex, g2 real for unitary input.
    Both are arrays of the stack's shape when computed for a stack."""

    g1: complex | np.ndarray
    g2: float | np.ndarray


def _bell(u: np.ndarray) -> np.ndarray:
    """Q^dag U Q of a gate or of each gate of a stack, as a (4, 4, n) view
    with the gate axis last.

    The basis change of a stack of n gates is two matrix products, not 2n:
    Q^dag times the gates side by side as one (4, 4n) matrix, then that
    product's rows, read as one (4n, 4) matrix, times Q. Each entry is the
    same four-term sum as in the per-gate product."""
    u = np.asarray(u)
    n = u.size // 16
    # rebinding frees each (4, 4n) intermediate once it is used
    mb = u.reshape(n, 4, 4).transpose(1, 0, 2).reshape(4, 4 * n)
    mb = _BELL_DAG @ mb
    return (mb.reshape(4 * n, 4) @ _BELL).reshape(4, n, 4).transpose(0, 2, 1)


def _row_sum(p: np.ndarray) -> np.ndarray:
    """p[0] + p[1] + ... + p[-1], added in that order. A numpy reduction
    may pair the terms differently for different lengths of the other
    axes, and then a gate alone would not give its bits within a stack."""
    out = p[0]
    for row in p[1:]:
        out = out + row
    return out


# det U as a Laplace expansion along rows (0, 1): for each pair of columns
# a < b, the 2x2 minor of rows (0, 1) in columns (a, b) times the minor of
# rows (2, 3) in the other two columns, which are listed in the order that
# carries the term's sign. The twelve minors x_ra x_sb - x_rb x_sa as
# (r, s, a, b), the six of rows (0, 1) first:
_MINORS = np.array(
    [(0, 1, a, b)
     for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
    + [(2, 3, a, b)
       for a, b in ((2, 3), (3, 1), (1, 2), (0, 3), (2, 0), (0, 1))])
# ... and the row-major flat indices of their entries (r, a), (s, b),
# (r, b), (s, a)
_MINOR_ENTRIES = tuple(4 * _MINORS[:, row] + _MINORS[:, col]
                       for row, col in ((0, 2), (1, 3), (0, 3), (1, 2)))


def _det(u: np.ndarray) -> np.ndarray:
    """det U of a gate or of each gate of a stack, as an (n,) array."""
    entries = u.reshape(-1, 16).T
    ra, sb, rb, sa = _MINOR_ENTRIES
    minors = entries.take(ra, axis=0) * entries.take(sb, axis=0)
    minors -= entries.take(rb, axis=0) * entries.take(sa, axis=0)
    return _row_sum(minors[:6] * minors[6:])


def makhlin_invariants(u: np.ndarray,
                       atol: float = ATOL_PIPELINE) -> LocalInvariants:
    """Local invariants of a two-qubit gate, or of each gate of a stack.

    With m = (Q^dag U Q)^T (Q^dag U Q) in the Bell basis:
    G1 = tr(m)^2 / (16 det U), G2 = (tr(m)^2 - tr(m^2)) / (4 det U).
    |det U| is renormalized to one before dividing so near-unitary input
    noise is not amplified. `atol` bounds how far from unitary the input
    may be; the imaginary part of G2 (identically zero for exact unitaries)
    is checked against the same scale; both checks cover every gate of a
    stack, and an empty stack has empty invariants.

    The stack is worked on with the gate axis last: the Gram products U^dag U
    (for the unitarity check) and m are formed on their ten upper-triangle
    entries, det U is a Laplace expansion over 2x2 minors, tr m is the sum
    of m's diagonal and tr m^2 = sum m_ii^2 + 2 sum_{i<j} m_ij^2, each a few
    operations on whole length-n rows with terms added in a fixed order.
    So a gate alone gives the bits it has in a stack, and no step makes one
    BLAS or LAPACK call per gate.
    """
    u = np.asarray(u, dtype=np.complex128)
    require_unitary(u, tol=atol)
    # det first, so that its (12, n) temporaries are freed before m's are
    # made: a lower peak keeps a block inside the allocator's reused memory
    det = _det(u)
    det = det / abs(det)
    mb = _bell(u)
    # m's ten upper-triangle entries: its diagonal, then the six above it
    m = gram_upper(mb, mb)
    tr = _row_sum(m[:4])
    squares = m * m
    tr2 = _row_sum(squares[:4]) + 2.0 * _row_sum(squares[4:])
    g1 = tr * tr / (16.0 * det)
    g2 = (tr * tr - tr2) / (4.0 * det)
    worst = max(g2.imag.min(initial=0.0), g2.imag.max(initial=0.0), key=abs)
    if abs(worst) > atol:
        raise ValueError(f"G2 has imaginary part {worst:.3e}; "
                         "input is too far from unitary")
    shape = u.shape[:-2]
    return LocalInvariants(g1=g1.reshape(shape)[()],
                           g2=g2.real.reshape(shape)[()])


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


class EntanglerClass(enum.Enum):
    NOT_PE = "NOT_PE"
    PE = "PE"
    SPE = "SPE"

    def __str__(self) -> str:
        return self._value_


def _hull_gap(u: np.ndarray) -> np.ndarray:
    """Widest angular gap between the eigenvalues of m on the unit circle;
    0 lies in their convex hull iff it is at most pi."""
    mb = _bell(u).transpose(2, 0, 1)
    m = mb.swapaxes(-1, -2) @ mb
    angles = np.sort(np.angle(np.linalg.eigvals(m)), axis=-1)
    wrapped = np.concatenate([angles, angles[..., :1] + 2.0 * np.pi], axis=-1)
    return np.diff(wrapped, axis=-1).max(axis=-1).reshape(np.shape(u)[:-2])


def classify(inv: LocalInvariants, tol: float = CLASSIFY_TOL, gate=None):
    """Entangler class of a gate from its local invariants (SPE implies PE);
    an array of classes for the invariants of a stack.

    Without `gate` a gate is PE when |G1| <= 1/4 and -1 <= G2 <= 1, which is
    exact for sector-block gates but not for general ones. Pass the gate (or
    stack) the invariants belong to and PE is decided by the convex-hull
    test instead, which is exact for every two-qubit gate: no gap between
    the eigenvalues of m wider than pi + tol.
    """
    if not tol >= 0:
        raise ValueError("tolerance must be non-negative")
    if gate is None:
        is_pe = ((abs(inv.g1) <= 0.25 + tol) & (-1.0 - tol <= inv.g2)
                 & (inv.g2 <= 1.0 + tol))
    else:
        is_pe = _hull_gap(gate) <= np.pi + tol
    labels = np.full(np.shape(is_pe), EntanglerClass.NOT_PE, dtype=object)
    labels[is_pe] = EntanglerClass.PE
    labels[is_pe & (abs(inv.g1) <= tol)] = EntanglerClass.SPE
    return labels[()]
