"""Small dense linear-algebra kernels shared by the whole package.

Gates are 4x4 numpy arrays in the computational product basis |00>, |01>,
|10>, |11> (row-major, qubit a first), or stacks of them of shape
(..., 4, 4); embed gives such a stack, and unitarity_defect,
gate_fidelity and phase_aligned_distance act on its last two axes, so one
gate is the 0-d case of a stack. Each sector drives one pair of basis
states, so gates and propagators are SU(2) rotations of the sector pair,
with the identity on the other pair. A rotation is carried as its
Cayley-Klein pair (a, b), of the block [[a, -conj(b)], [b, conj(a)]], from
su2_exp through su2_product, which composes a stack of pairs along its last
axis (leading axes are a batch); embed is the one place a pair becomes a
4x4 matrix.
gram_upper forms products of stacks held with the gate axis last, one
length-n row per matrix entry; unitarity_defect is built on it.
ATOL_PIPELINE is the default tolerance for quantities assembled from
several stages.
"""

from __future__ import annotations

import functools

import numpy as np

ATOL_PIPELINE = 1e-10

# smallest normal double: a sum of squares below it has lost precision
_TINY = np.finfo(float).tiny


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with qubit a as the slow (leftmost) index."""
    return np.kron(np.asarray(a, dtype=np.complex128),
                   np.asarray(b, dtype=np.complex128))


@functools.cache
def _upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices (i, j), i <= j, of the upper triangle of a
    d x d matrix: the diagonal first, then the entries above it in
    row-major order. Read-only arrays, shared by all callers."""
    above = np.triu_indices(d, 1)
    pairs = tuple(np.concatenate((np.arange(d), k)) for k in above)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def gram_upper(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Upper-triangle entries of x^T y for each matrix of two (d, d, n)
    stacks held with the gate axis last: a (d(d+1)/2, n) array whose first
    d rows are the diagonal, followed by the entries above it in row-major
    order. It is the whole product when x^T y is symmetric (x = y) or
    Hermitian (x = conj y).

    Each term x[k, i] y[k, j] is one product of two gathered (d(d+1)/2, n)
    arrays, added for k = 0, 1, ... in that order, so every entry is the
    same arithmetic whatever n is: a matrix alone gives the bits it has in
    a stack, and there is no per-matrix BLAS call. No temporary is larger
    than the result, which keeps a block of a few hundred gates inside the
    allocator's reused memory.
    """
    i, j = _upper_pairs(len(x))
    # take() copies rows for a fraction of the cost of x[k, i]'s indexing
    out = x[0].take(i, axis=0) * y[0].take(j, axis=0)
    for k in range(1, len(x)):
        out += x[k].take(i, axis=0) * y[k].take(j, axis=0)
    return out


def unitarity_defect(u: np.ndarray) -> float:
    """max |u^dagger u - 1| over a matrix or a stack of them; 0.0 for an
    empty stack, and inf (never nan, never a floating-point exception)
    when that product overflows."""
    u = np.asarray(u)
    d = u.shape[-1]
    x = u.reshape(-1, d, d).transpose(1, 2, 0)
    with np.errstate(all="ignore"):
        g = gram_upper(x.conj(), x)
        g[:len(x)] -= 1.0
        defect = float(abs(g).max(initial=0.0))
    return defect if defect < np.inf else np.inf


def require_unitary(u: np.ndarray, tol: float = ATOL_PIPELINE) -> None:
    defect = unitarity_defect(u)
    if defect > tol:
        raise ValueError(f"matrix is not unitary (max deviation {defect:.3e})")


def su2_exp(c_xy, c_dm, c_z, t) -> tuple[np.ndarray, np.ndarray]:
    """Cayley-Klein pair (a, b) of exp(-i t (c_xy X + c_dm Y + c_z Z)):
    a = cos(w t) - i s v_z, b = -i s (v_x + i v_y), w = |v|, s = sin(w t)/w,
    for scalars or arrays of one shape. The v -> 0 limit is handled through
    sinc, so vanishing fields give the identity pair (1, 0) exactly. Where
    the squares of a nonzero field underflow (below about 1e-154, as on a
    very slow segment) or overflow (above about 1e154, as on a very fast
    one), w is the norm of the field scaled by its largest component;
    elsewhere it is the plain root of the sum of squares.
    """
    vx, vy, vz, t = (np.asarray(a, dtype=float) for a in (c_xy, c_dm, c_z, t))
    # squares that overflow are inf, and are rescaled below
    with np.errstate(over="ignore"):
        ss = vx * vx + vy * vy + vz * vz
    w = np.sqrt(ss)
    lost = (ss < _TINY) | (ss == np.inf)
    if lost.any():
        v = np.stack(np.broadcast_arrays(vx, vy, vz))[:, lost]
        m = abs(v).max(axis=0)
        # an all-zero field keeps its norm 0, and so the pair (1, 0)
        m[m == 0.0] = 1.0
        x, y, z = v / m
        w = np.array(w)
        w[lost] = m * np.sqrt(x * x + y * y + z * z)
    cos = np.cos(w * t)
    snc = t * np.sinc(w * t / np.pi)
    return cos - 1j * (snc * vz), snc * (vy - 1j * vx)


def su2_product(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Cayley-Klein pair of the time-ordered product of a stack of pairs
    along the last axis, the first acting first; leading axes are a batch,
    the shape of the two arrays returned. An empty stack gives the identity
    pair (1, 0). Each pass combines neighbours, later on the left, as
    a = a1 a0 - conj(b1) b0 and b = b1 a0 + conj(a1) b0, and carries an odd
    last pair over.
    """
    # .T puts the pair axis first (a no-op on one stack), so each pass
    # slices it as one stack whatever the batch
    a, b = (np.atleast_1d(np.asarray(x, dtype=np.complex128)).T
            for x in (a, b))
    if len(a) == 0:
        return np.ones(a.shape[:0:-1]), np.zeros(a.shape[:0:-1])
    while len(a) > 1:
        n = len(a) - len(a) % 2
        a0, b0, a1, b1 = a[0:n:2], b[0:n:2], a[1:n:2], b[1:n:2]
        a, b = (np.concatenate((a1 * a0 - b1.conj() * b0, a[n:])),
                np.concatenate((b1 * a0 + a1.conj() * b0, b[n:])))
    return a[0].T, b[0].T


# Basis indices of the pair each sector drives; the other pair is idle.
_PAIRS = {"gamma": slice(1, 3), "lambda": slice(0, 4, 3)}


def embed(a, b, sector: str) -> np.ndarray:
    """4x4 matrix acting as the block [[a, -conj(b)], [b, conj(a)]] of the
    Cayley-Klein pair (a, b) on the sector's pair (gamma: |01>, |10>;
    lambda: |00>, |11>) and as the identity on the other pair. a and b
    broadcast, and their shape comes first in a (..., 4, 4) stack. Every
    exact zero of the matrix is +0.
    """
    if sector not in _PAIRS:
        raise ValueError(f"unknown sector {sector!r}")
    i, j = range(4)[_PAIRS[sector]]
    u = np.tile(np.eye(4, dtype=complex), (*np.broadcast(a, b).shape, 1, 1))
    u[..., i, i], u[..., i, j] = a, -np.conj(b)
    u[..., j, i], u[..., j, j] = b, np.conj(a)
    # adding +0 turns every exact -0 (as in -conj(0)) into +0; in place, as
    # a fresh stack of a few thousand gates costs more in page faults
    return np.add(u, 0.0, out=u)


def gate_fidelity(u: np.ndarray, v: np.ndarray):
    """|Tr(U^dag V)| / dim, insensitive to global phase on either gate, for
    two gates or elementwise over stacks (..., dim, dim). The modulus is
    np.hypot, which rounds as a complex scalar's abs does; numpy's array abs
    can differ from both in the last bit.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    t = np.trace(u.conj().swapaxes(-1, -2) @ v, axis1=-2, axis2=-1)
    return np.hypot(t.real, t.imag) / u.shape[-1]


def phase_aligned_distance(u: np.ndarray, v: np.ndarray):
    """min over phi of ||u - exp(i phi) v||_F / sqrt(dim), for two gates or
    elementwise over stacks.

    Equals sqrt(2 (1 - gate_fidelity)); unlike the trace infidelity it is
    linear, not quadratic, in a small traceless defect between the gates.
    """
    return np.sqrt(np.maximum(0.0, 2.0 * (1.0 - gate_fidelity(u, v))))
