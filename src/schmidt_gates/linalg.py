"""Small dense linear-algebra kernels shared by the whole package.

Gates are explicit 4x4 numpy arrays in the computational product basis
|00>, |01>, |10>, |11> (row-major, qubit a first). Each sector drives one
pair of basis states, so gates and propagators are 2x2 SU(2) blocks
(propagators from su2_exp) that embed places on the sector pair, with the
identity on the other pair. ATOL_PIPELINE is the default tolerance for
quantities assembled from several numerical stages.
"""

from __future__ import annotations

import numpy as np

ATOL_PIPELINE = 1e-10

I2 = np.eye(2, dtype=np.complex128)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with qubit a as the slow (leftmost) index."""
    return np.kron(np.asarray(a, dtype=np.complex128),
                   np.asarray(b, dtype=np.complex128))


def unitarity_defect(u: np.ndarray) -> float:
    """max |u^dagger u - 1|; inf (never nan) when that product overflows."""
    u = np.asarray(u)
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(abs(u.conj().T @ u - np.eye(len(u))).max())
    return defect if defect < np.inf else np.inf


def require_unitary(u: np.ndarray, tol: float = ATOL_PIPELINE) -> None:
    defect = unitarity_defect(u)
    if defect > tol:
        raise ValueError(f"matrix is not unitary (max deviation {defect:.3e})")


def su2_exp(c_xy, c_dm, c_z, t) -> np.ndarray:
    """exp(-i t (c_xy X + c_dm Y + c_z Z)) in closed form.

    The coefficients and t are scalars or arrays of one shape; the result
    has that shape followed by (2, 2). The v -> 0 limit is handled through
    sinc, so vanishing fields give the identity exactly.
    """
    vx, vy, vz, t = (np.asarray(a, dtype=float) for a in (c_xy, c_dm, c_z, t))
    w = np.sqrt(vx * vx + vy * vy + vz * vz)
    cos = np.cos(w * t)
    # sin(w t) / w, finite at w = 0
    snc = t * np.sinc(w * t / np.pi)
    u = np.empty(cos.shape + (2, 2), dtype=np.complex128)
    u[..., 0, 0] = cos - 1j * snc * vz
    u[..., 0, 1] = -1j * snc * (vx - 1j * vy)
    u[..., 1, 0] = -1j * snc * (vx + 1j * vy)
    u[..., 1, 1] = cos + 1j * snc * vz
    return u


# Basis indices of the pair each sector drives; the other pair is idle.
_PAIRS = {"gamma": [1, 2], "lambda": [0, 3]}


def embed(block: np.ndarray, sector: str) -> np.ndarray:
    """4x4 matrix acting as the 2x2 `block` on the sector's pair (gamma:
    |01>, |10>; lambda: |00>, |11>) and as the identity on the other pair.
    """
    if sector not in _PAIRS:
        raise ValueError(f"unknown sector {sector!r}")
    pair = _PAIRS[sector]
    u = np.eye(4, dtype=np.complex128)
    u[np.ix_(pair, pair)] = block
    return u


def gate_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|Tr(U^dag V)| / dim, insensitive to global phase on either gate."""
    u = np.asarray(u)
    v = np.asarray(v)
    return float(abs(np.trace(u.conj().T @ v)) / u.shape[0])


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over phi of ||u - exp(i phi) v||_F / sqrt(dim).

    Equals sqrt(2 (1 - gate_fidelity)); unlike the trace infidelity it is
    linear, not quadratic, in a small traceless defect between the gates.
    """
    return float(np.sqrt(max(0.0, 2.0 * (1.0 - gate_fidelity(u, v)))))
