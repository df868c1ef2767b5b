"""Reference objects the tests compare the package against: the sector and
Pauli operators as literal matrices, chart samples of linear segments (the
polylines of two samples) and rotation arcs with their exact rates, which
share no rate formula with the package, and the midpoint rule stepping the
paper's field on such samples."""

import numpy as np

from schmidt_gates.linalg import embed, su2_exp, su2_product
from schmidt_gates.sphere import SampledSegment

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# the gamma-sector triple on span{|01>, |10>}, the lambda one on
# span{|00>, |11>}
H_XY = np.array([[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]],
                dtype=complex)
H_DM = np.array([[0, 0, 0, 0], [0, 0, -1j, 0], [0, 1j, 0, 0], [0, 0, 0, 0]],
                dtype=complex)
H_Z = np.diag([0, 1, -1, 0]).astype(complex)
L_XY = np.array([[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
                dtype=complex)
L_DM = np.array([[0, 0, 0, -1j], [0, 0, 0, 0], [0, 0, 0, 0], [1j, 0, 0, 0]],
                dtype=complex)
L_Z = np.diag([1, 0, 0, -1]).astype(complex)


def chart(seg, n):
    """(t, alpha, beta, alpha', beta') of a linear segment or a rotation arc
    at n uniform times, with exact rates: a linear segment's are scalars,
    its ends' differences over its duration; an arc's come from the
    velocity r' = (angle / duration) k x r at the arc's own lifted points,
    as alpha' = -z' / sin(alpha) and beta' = (x y' - y x') / rho^2. An arc
    refuses a step of |angle| / (n - 1) not below pi times its clearance,
    which np.unwrap could not follow, since |d beta / d phi| <= 1 / rho."""
    t = np.linspace(0.0, seg.duration, n)
    if isinstance(seg, SampledSegment):
        (a0, a1), (b0, b1) = seg.alpha, seg.beta
        da, db = (a1 - a0) / seg.duration, (b1 - b0) / seg.duration
        return t, a0 + da * t, b0 + db * t, da, db
    if abs(seg.angle) / max(n - 1, 1) >= np.pi * seg.clearance:
        raise ValueError(f"rotation segment comes within {seg.clearance:.3e} "
                         f"of a pole, too close to lift at {n} samples")
    alpha, beta, rho, point = seg._lift(np.linspace(0.0, seg.angle, n))
    r = np.array(point)
    dr = seg.angle / seg.duration * np.cross(seg.axis, r, axis=0)
    return (t, alpha, beta, -dr[2] / np.sin(alpha),
            (r[0] * dr[1] - r[1] * dr[0]) / rho ** 2)


def midpoint_propagator(seg, n, sector):
    """The paper's field sampled from the segment's chart at n points and
    stepped by the midpoint rule between consecutive samples."""
    t, _, beta, da, db = chart(seg, n)
    c = np.array(np.broadcast_arrays(-0.5 * da * np.sin(beta),
                                     0.5 * da * np.cos(beta), 0.5 * db))
    mid = 0.5 * (c[:, :-1] + c[:, 1:])
    return embed(su2_product(*su2_exp(*mid, np.diff(t))), sector)
