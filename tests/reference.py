"""Reference objects the tests compare the package against: the sector and
Pauli operators and the magic basis as literal matrices, the 2x2 block of a
Cayley-Klein pair stacked entry by entry, the Schmidt
quadruple of a frame as sums of product states, an arc's chart
lift by Rodrigues' formula, chart samples of linear segments (the
polylines of two samples) and rotation arcs with their exact rates, which
share no lift or rate formula with the package, the midpoint rule stepping
the paper's field on such samples, and a path run backwards, built from the
public constructors, the CLI's one-pass check of a number array as
numpy made it, random closed loops of polylines and tilted arcs, and two
oracles for a loop's integrals that read only its samples and declared arc
parameters: a triangle fan for the solid angle and Gauss-Legendre
quadrature for the integral of cos(alpha) d beta, and the phase-aligned
Trotter error of the tilted pulse from eigh exponentials and
matrix_power, which shares no code with su2_exp, su2_product or the
closed-form power."""

import math
import sys

import numpy as np

from schmidt_gates.linalg import embed, su2_exp, su2_product
from schmidt_gates.sphere import (
    SampledSegment,
    SchmidtPath,
    linear_segment,
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


def su2_block(a, b):
    """The block [[a, -conj(b)], [b, conj(a)]] of Cayley-Klein pairs, with
    the stack shape of a and b in front."""
    a, b = np.asarray(a), np.asarray(b)
    return np.stack([np.stack([a, -b.conj()], -1),
                     np.stack([b, a.conj()], -1)], -2)


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


def rodrigues(axis, r0, phi):
    """r0 rotated about `axis` by each angle of `phi`, as a (3, n) array."""
    k = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    phi = np.asarray(phi, dtype=float)[:, None]
    return (np.cos(phi) * r0 + np.sin(phi) * np.cross(k, r0)
            + (1 - np.cos(phi)) * np.dot(k, r0) * k).T


def lift(alpha0, beta0, axis, angle, n):
    """(alpha, beta, r) of a rotation arc at n points: r by Rodrigues'
    formula as a (3, n) array, alpha and beta by atan2 and np.unwrap, on the
    start's chart copy (alpha < 0 is the copy (-alpha, beta + pi)) with beta
    moved onto the start's 2 pi copy."""
    r = rodrigues(axis, sphere_point(alpha0, beta0),
                  np.linspace(0.0, angle, n))
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
    return embed(*su2_product(*su2_exp(*mid, np.diff(t))), sector)


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


def finite_numbers(values: list) -> bool:
    """The numpy form of the CLI's one-pass number-array check: every value
    an int or a float (not a bool) whose double magnitude lies strictly
    below the largest double; an int too large for a double fails."""
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        numbers = np.array(values, dtype=float)
    except OverflowError:
        return False
    return bool(np.abs(numbers).max() < sys.float_info.max)


# Draws a random arc gets before the test that asks for it fails. Seeds
# 0-2999 of random_loop need at most 8 draws for all of a loop's arcs, and
# 20 000 arcs of test_dynamics' _random_arc at most 2; without a bound, a
# defect that refuses every arc would draw forever.
ARC_DRAWS = 100


def random_loop(rng):
    """A closed path of one to three random segments, polylines of 2, 3 or
    300 samples and tilted rotation arcs, closed by the linear segment back
    to its start. Polylines keep alpha in [0.21, pi - 0.21] and arcs are at
    least 0.2 from the z axis, so every segment is 0.2 clear of the poles;
    each segment starts where the Rodrigues lift of the one before ends."""
    a0, b0 = rng.uniform(0.3, np.pi - 0.3), rng.uniform(-np.pi, np.pi)
    a, b = a0, b0
    segments = []
    for _ in range(rng.integers(1, 4)):
        duration = rng.uniform(0.5, 3.0)
        if rng.random() < 0.5:
            n = int(rng.choice([2, 3, 300]))
            step = 1.5 if n < 300 else 0.05
            alpha = np.clip(a + np.cumsum(rng.uniform(-step, step, n)),
                            0.21, np.pi - 0.21)
            beta = b + np.cumsum(rng.uniform(-2 * step, 2 * step, n))
            alpha[0], beta[0] = a, b
            segments.append(SampledSegment(alpha, beta, duration))
            a, b = alpha[-1], beta[-1]
            continue
        for _ in range(ARC_DRAWS):
            axis = rng.normal(size=3)
            axis[:2] += 0.1 * np.sign(axis[:2])
            try:
                arc = rotation_arc(a, b, axis, rng.uniform(-7.0, 7.0),
                                   duration)
            except ValueError:
                continue
            if arc.clearance >= 0.2:
                break
        else:
            raise RuntimeError(f"no arc 0.2 clear of the poles in "
                               f"{ARC_DRAWS} draws")
        segments.append(arc)
        alpha, beta, _ = lift(a, b, arc.axis, arc.angle, 8193)
        a, b = alpha[-1], beta[-1]
    segments.append(linear_segment(a, b, a0, b0, 1.0))
    return SchmidtPath(tuple(segments), closed=True)


def _point(alpha, beta):
    """Sphere points of chart coordinates, a (3, n) array for arrays."""
    return np.array([np.sin(alpha) * np.cos(beta),
                     np.sin(alpha) * np.sin(beta), np.cos(alpha)])


def curve_points(seg, h):
    """Points of the segment's exact curve as a (3, 2 m + 1) array: chord
    ends in the even columns, the end point last, and between each two the
    curve's point at the middle parameter. A polyline piece, alpha and beta
    linear in time, gets chords of at most h in (alpha, beta); an arc,
    Rodrigues points at uniform angles, chords of at most h rad of
    rotation (its points move at most 1 per rad)."""
    if isinstance(seg, SampledSegment):
        pieces = []
        for a0, a1, b0, b1 in zip(seg.alpha, seg.alpha[1:], seg.beta,
                                  seg.beta[1:]):
            m = max(1, math.ceil(math.hypot(a1 - a0, b1 - b0) / h))
            u = np.arange(2 * m) / (2 * m)
            pieces.append(_point(a0 + (a1 - a0) * u, b0 + (b1 - b0) * u))
        pieces.append(_point(seg.alpha[-1:], seg.beta[-1:]))
        return np.concatenate(pieces, axis=1)
    m = max(1, math.ceil(abs(seg.angle) / h))
    return rodrigues(seg.axis, _point(seg.alpha_start, seg.beta_start),
                     np.linspace(0.0, seg.angle, 2 * m + 1))


def fan_solid_angle(path, h=2e-3):
    """(fan, bound): the solid angle of a closed path as a Van Oosterom-
    Strackee triangle fan (IEEE TBME 30, 125 (1983)) over chords of its
    exact curve, each chord of at most about h, and a bound on how far the
    fan is from the curve's solid angle (mod 4 pi).

    Each triangle (p, r1, r2) spans 2 atan2(p.(r1 x r2),
    1 + p.r1 + p.r2 + r1.r2); the apex p is the one of 256 spread
    directions farthest from every point of the loop and its antipode. A
    chord cuts off the sliver between it and the curve, about 2/3 of its
    length s times the curve's distance d from the chord's great circle at
    the middle parameter, which shrinks as h^2 over the loop; the bound is
    the sum of s d over the chords."""
    points = np.concatenate([curve_points(seg, h)[:, :-1]
                             for seg in path.segments], axis=1)
    points = np.concatenate([points, points[:, :1]], axis=1)
    ends, mids = points[:, 0::2], points[:, 1::2]
    r1, r2 = ends[:, :-1], ends[:, 1:]
    k = np.arange(256) + 0.5
    z = 1.0 - 2.0 * k / 256
    turn = np.pi * (3.0 - np.sqrt(5.0)) * k
    rho = np.sqrt(1.0 - z * z)
    apexes = np.array([rho * np.cos(turn), rho * np.sin(turn), z])
    reach = abs(apexes.T @ points).max(axis=1)
    assert reach.min() < 0.99, "no apex clear of the loop"
    p = apexes[:, reach.argmin()]
    cross = np.cross(r1, r2, axis=0)
    fan = 2.0 * np.arctan2(p @ cross, 1.0 + p @ r1 + p @ r2
                           + (r1 * r2).sum(axis=0)).sum()
    normal = cross / np.linalg.norm(cross, axis=0)
    s = 2.0 * np.arcsin(0.5 * np.linalg.norm(r2 - r1, axis=0))
    return float(fan), float((s * abs((normal * mids).sum(axis=0))).sum())


def quadrature_cos_beta_integral(path, nodes=20):
    """The integral of cos(alpha) d beta along the exact curve of a path by
    Gauss-Legendre quadrature of `nodes` points per span. A polyline piece
    is integrated in its time parameter, cos(alpha0 + d alpha t) d beta dt,
    in spans of at most 1 rad of alpha; an arc in its rotation angle, as
    z (x y' - y x') / (x^2 + y^2) with r' = k x r at Rodrigues points, in
    spans of at most 0.2 rad, inside the distance from the real axis of the
    integrand's complex poles for arcs 0.2 clear of the z axis."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for seg in path.segments:
        if isinstance(seg, SampledSegment):
            for a0, a1, b0, b1 in zip(seg.alpha, seg.alpha[1:], seg.beta,
                                      seg.beta[1:]):
                spans = max(1, math.ceil(abs(a1 - a0)))
                t = (np.arange(spans)[:, None] + 0.5 * (x + 1.0)) / spans
                mean = (w * np.cos(a0 + (a1 - a0) * t)).sum() / (2 * spans)
                total += (b1 - b0) * mean
            continue
        spans = max(1, math.ceil(abs(seg.angle) / 0.2))
        phi = seg.angle * (np.arange(spans)[:, None]
                           + 0.5 * (x + 1.0)) / spans
        r = rodrigues(seg.axis, _point(seg.alpha_start, seg.beta_start),
                      phi.ravel())
        dr = np.cross(np.asarray(seg.axis, dtype=float), r, axis=0)
        f = r[2] * (r[0] * dr[1] - r[1] * dr[0]) / (r[0] ** 2 + r[1] ** 2)
        total += seg.angle * (np.tile(w, spans) * f).sum() / (2 * spans)
    return total


def _expm_i(h):
    """exp(-i h) of a Hermitian matrix h, from its eigh decomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _gamma_gate(block):
    """The 4x4 gate that acts as the 2x2 block on |01>, |10>."""
    u = np.eye(4, dtype=complex)
    u[1:3, 1:3] = block
    return u


def trotter_distance(theta, n):
    """min over phi of ||U - exp(i phi) U_n||_F / 2 for the tilted pulse's
    exact propagator U = exp(+i (pi/2) (cos(theta) h_xy - sin(theta) h_z))
    and its n-step splitting U_n = S^n,
    S = exp(+i (pi/2n) cos(theta) h_xy) exp(-i (pi/2n) sin(theta) h_z): the
    2x2 exponentials from eigh, the power by matrix_power, and the distance
    at the phase of tr(U_n^dag U) on the embedded 4x4 gates."""
    k = 0.5 * np.pi
    c, s = np.cos(theta), np.sin(theta)
    exact = _expm_i(-k * (c * PAULI_X - s * PAULI_Z))
    step = _expm_i(-k / n * c * PAULI_X) @ _expm_i(k / n * s * PAULI_Z)
    u = _gamma_gate(exact)
    v = _gamma_gate(np.linalg.matrix_power(step, n))
    t = np.trace(v.conj().T @ u)
    phase = t / abs(t) if t != 0 else 1.0
    return np.linalg.norm(u - phase * v) / 2.0
