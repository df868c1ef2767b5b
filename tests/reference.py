"""Reference objects the tests compare the package against: the sector and
Pauli operators and the magic basis as literal matrices, the Schmidt
quadruple of a frame as sums of product states, an arc's chart
lift by Rodrigues' formula, chart samples of linear segments (the
polylines of two samples) and rotation arcs with their exact rates, which
share no lift or rate formula with the package, the midpoint rule stepping
the paper's field on such samples, and a path run backwards, built from the
public constructors."""

import numpy as np

from schmidt_gates.linalg import embed, su2_exp, su2_product
from schmidt_gates.sphere import (
    SampledSegment,
    SchmidtPath,
    rotation_arc,
    sphere_point,
)

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

# columns: the magic basis (|00>+|11>)/sqrt2, i(|01>+|10>)/sqrt2,
# (|01>-|10>)/sqrt2, i(|00>-|11>)/sqrt2
BELL = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0],
                 [1, 0, 0, -1j]], dtype=complex) / np.sqrt(2.0)


def framed_state(alpha, beta, branch, frame):
    """A Schmidt quadruple member in the frame (n, m), summed from tensor
    products of n, m and their partners -n = (-conj n1, conj n0) and
    -m = (conj m1, -conj m0): the gamma branches on |n,m>, |-n,-m>, the
    lambda branches on |n,-m>, |-n,m>, the "+" state with amplitudes
    (f, g) and the "-" state with (-conj g, conj f)."""
    n, m = (np.asarray(v, dtype=complex) for v in frame)
    neg_n = np.array([-np.conj(n[1]), np.conj(n[0])])
    neg_m = np.array([np.conj(m[1]), -np.conj(m[0])])
    f = np.exp(-0.5j * beta) * np.cos(0.5 * alpha)
    g = np.exp(0.5j * beta) * np.sin(0.5 * alpha)
    if branch.startswith("gamma"):
        first, second = np.kron(n, m), np.kron(neg_n, neg_m)
    else:
        first, second = np.kron(n, neg_m), np.kron(neg_n, m)
    if branch.endswith("-"):
        f, g = -np.conj(g), np.conj(f)
    return f * first + g * second


def lift(alpha0, beta0, axis, angle, n):
    """(alpha, beta, r) of a rotation arc at n points: r by Rodrigues'
    formula as a (3, n) array, alpha and beta by atan2 and np.unwrap, on the
    start's chart copy (alpha < 0 is the copy (-alpha, beta + pi)) with beta
    moved onto the start's 2 pi copy."""
    k = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    r0 = sphere_point(alpha0, beta0)
    phi = np.linspace(0.0, angle, n)[:, None]
    r = (np.cos(phi) * r0 + np.sin(phi) * np.cross(k, r0)
         + (1 - np.cos(phi)) * np.dot(k, r0) * k).T
    alpha = np.arctan2(np.hypot(r[0], r[1]), r[2])
    beta = np.unwrap(np.arctan2(r[1], r[0]))
    if alpha0 < 0:
        alpha, beta = -alpha, beta + np.pi
    beta += 2 * np.pi * np.round((beta0 - beta[0]) / (2 * np.pi))
    return alpha, beta, r


def chart(seg, n):
    """(t, alpha, beta, alpha', beta') of a linear segment or a rotation arc
    at n uniform times, with exact rates: a linear segment's are scalars,
    its ends' differences over its duration; an arc's come from the
    velocity r' = (angle / duration) k x r at the points of `lift`,
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
    alpha, beta, r = lift(seg.alpha_start, seg.beta_start, seg.axis,
                          seg.angle, n)
    dr = seg.angle / seg.duration * np.cross(seg.axis, r, axis=0)
    return (t, alpha, beta, -dr[2] / np.sin(alpha),
            (r[0] * dr[1] - r[1] * dr[0]) / (r[0] ** 2 + r[1] ** 2))


def midpoint_propagator(seg, n, sector):
    """The paper's field sampled from the segment's chart at n points and
    stepped by the midpoint rule between consecutive samples."""
    t, _, beta, da, db = chart(seg, n)
    c = np.array(np.broadcast_arrays(-0.5 * da * np.sin(beta),
                                     0.5 * da * np.cos(beta), 0.5 * db))
    mid = 0.5 * (c[:, :-1] + c[:, 1:])
    return embed(su2_product(*su2_exp(*mid, np.diff(t))), sector)


def reverse(seg):
    """The segment run backwards: a polyline through its samples in reverse
    order, an arc from its end point by the negated angle."""
    if isinstance(seg, SampledSegment):
        return SampledSegment(seg.alpha[::-1], seg.beta[::-1], seg.duration)
    end = seg.end_coords()
    return rotation_arc(end.alpha, end.beta, seg.axis, -seg.angle,
                        seg.duration)


def reverse_path(path):
    """The path run backwards, segment by segment, closed if it is."""
    return SchmidtPath(tuple(reverse(seg) for seg in path.segments[::-1]),
                       closed=path.closed)
