"""Schmidt-sphere geometry for two-qubit pure states.

A normalized state is written as f |n>|m> + g |-n>|-m| with
f = exp(-i beta/2) cos(alpha/2) and g = exp(+i beta/2) sin(alpha/2); the
pair (alpha, beta) parametrizes a point

    r = (sin(alpha) cos(beta), sin(alpha) sin(beta), cos(alpha))

on the Schmidt sphere. Paths through a pole are represented in an
extended-alpha chart where alpha may leave [0, pi]; the identification
(alpha, beta) ~ (-alpha, beta + pi) maps back to the same sphere point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import _PAIRS, ATOL_PIPELINE, tensor_product

# Chart-level agreement required at segment junctions and loop closure.
CHART_TOL = 1e-9

# Largest span, in radians, of a segment's coordinates or of a sampled
# segment's piece: the pulse that drives a segment turns by its rate times
# its duration, which rounds by about 2.2e-16 of the span, so beyond 2**23
# its propagator is off by more than CHART_TOL (a spiral to alpha = 1e16
# would be 0.13 away from its end).
MAX_SPAN = 2.0 ** 23

_SPAN_ERROR = (f"segment spans more than {MAX_SPAN:.0f} rad, where its "
               "rounded angles miss its end by more than the chart tolerance")

# Singular values below this are treated as exactly zero (product state).
_PRODUCT_CUT = 1e-12

# Components below this count as vanishing when fixing local-state phases.
_PHASE_CUT = 1e-9

BRANCHES = ("gamma+", "gamma-", "lambda+", "lambda-")


@dataclass(frozen=True)
class SchmidtCoordinates:
    """Extended-chart coordinates (alpha, beta) of a Schmidt-sphere point."""

    alpha: float
    beta: float

    def point(self) -> np.ndarray:
        return sphere_point(self.alpha, self.beta)


def sphere_point(alpha: float, beta: float) -> np.ndarray:
    """Cartesian point for extended-chart coordinates.

    Invariant under the identification (alpha, beta) -> (-alpha, beta + pi).
    """
    return np.array([
        np.sin(alpha) * np.cos(beta),
        np.sin(alpha) * np.sin(beta),
        np.cos(alpha),
    ])


def _amplitudes(alpha: float, beta: float) -> tuple[complex, complex]:
    """Canonical-gauge amplitudes (f, g) of the "+" state at (alpha, beta)."""
    return (np.exp(-0.5j * beta) * np.cos(0.5 * alpha),
            np.exp(+0.5j * beta) * np.sin(0.5 * alpha))


def _perp_a(v: np.ndarray) -> np.ndarray:
    """Orthonormal partner on qubit a; maps |0> to |1>."""
    return np.array([-np.conj(v[1]), np.conj(v[0])], dtype=np.complex128)


def _perp_b(v: np.ndarray) -> np.ndarray:
    """Orthonormal partner on qubit b; maps |1> to |0>."""
    return np.array([np.conj(v[1]), -np.conj(v[0])], dtype=np.complex128)


def _check_frame(frame) -> tuple[np.ndarray, np.ndarray]:
    n_state = np.asarray(frame[0], dtype=np.complex128).reshape(2)
    m_state = np.asarray(frame[1], dtype=np.complex128).reshape(2)
    for name, state in (("n", n_state), ("m", m_state)):
        if abs(np.linalg.norm(state) - 1.0) > ATOL_PIPELINE:
            raise ValueError(f"frame state {name} is not normalized")
    return n_state, m_state


def frame_unitaries(frame) -> tuple[np.ndarray, np.ndarray]:
    """Local unitaries (A, B) carrying the standard frame to `frame`.

    A maps (|0>, |1>) to (|n>, |-n>); B maps (|0>, |1>) to (|-m>, |m>).
    With frame = (|0>, |1>) both are the identity.
    """
    n_state, m_state = _check_frame(frame)
    a = np.column_stack([n_state, _perp_a(n_state)])
    b = np.column_stack([_perp_b(m_state), m_state])
    return a, b


def assemble_state(alpha: float, beta: float, branch: str = "gamma+",
                   frame=None) -> np.ndarray:
    """One member of the orthonormal Schmidt quadruple at (alpha, beta).

    The gamma branches live in span{|n,m>, |-n,-m>}, the lambda branches in
    span{|n,-m>, |-n,m>}; within each pair the "+" state carries amplitudes
    (f, g) and the "-" state (-conj(g), conj(f)). In the default frame
    (|0>, |1>) the pairs are the sectors' pairs of linalg.embed (gamma:
    |01>, |10>; lambda: |00>, |11>); another frame applies its local
    unitaries, frame_unitaries(frame), to that state.
    """
    if branch not in BRANCHES:
        raise ValueError(f"unknown branch {branch!r}; expected one of {BRANCHES}")
    f, g = _amplitudes(alpha, beta)
    state = np.zeros(4, dtype=np.complex128)
    state[_PAIRS[branch[:-1]]] = ((f, g) if branch.endswith("+")
                                  else (-np.conj(g), np.conj(f)))
    if frame is None:
        return state
    return tensor_product(*frame_unitaries(frame)) @ state


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Canonical-gauge Schmidt data of a two-qubit pure state."""

    coords: SchmidtCoordinates
    n_state: np.ndarray
    m_state: np.ndarray

    def reassemble(self) -> np.ndarray:
        return assemble_state(self.coords.alpha, self.coords.beta, "gamma+",
                              frame=(self.n_state, self.m_state))


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """v rotated so its first non-vanishing component is real positive."""
    idx = 0 if abs(v[0]) > _PHASE_CUT else 1
    return v * (np.conj(v[idx]) / abs(v[idx]))


def schmidt_decompose(state: np.ndarray) -> SchmidtDecomposition:
    """Schmidt decomposition with the package's fixed gauge.

    Local states carry real-positive leading components, the residual phase
    is split symmetrically over (f, g) as exp(-+ i beta / 2), the global
    phase is discarded, and alpha lies in [0, pi/2] (so f >= |g|). (f, g)
    are the gamma-pair amplitudes of the state in its own frame (n, m), up
    to that global phase. Product states take beta = 0; a near-degenerate
    Schmidt spectrum leaves the local states arbitrary, and the gauge is
    still applied as-is.
    """
    state = np.asarray(state, dtype=np.complex128).reshape(4)
    if abs(np.linalg.norm(state) - 1.0) > ATOL_PIPELINE:
        raise ValueError("state is not normalized")
    u, s, vh = np.linalg.svd(state.reshape(2, 2))
    alpha = 2.0 * np.arctan2(s[1], s[0])
    n_state, m_state = _fix_phase(u[:, 0]), _fix_phase(vh[0, :])
    if s[1] < _PRODUCT_CUT:
        beta = 0.0
    else:
        local = tensor_product(*frame_unitaries((n_state, m_state)))
        f, g = (local.conj().T @ state)[_PAIRS["gamma"]]
        beta = float(np.angle(g) - np.angle(f))
        beta = float(np.arctan2(np.sin(beta), np.cos(beta)))
    return SchmidtDecomposition(
        coords=SchmidtCoordinates(float(alpha), beta),
        n_state=n_state,
        m_state=m_state,
    )


def concurrence(state: np.ndarray) -> float:
    """Concurrence of a pure two-qubit state: 2 |det M| for M = reshape(2,2).

    Equals sin(alpha) on the Schmidt sphere.
    """
    state = np.asarray(state, dtype=np.complex128).reshape(2, 2)
    return float(2.0 * abs(np.linalg.det(state)))


# --------------------------------------------------------------------------
# Paths on the sphere
# --------------------------------------------------------------------------


def _piece_integrals(x: np.ndarray, y: np.ndarray, f=np.cos):
    """(integral of d y, integral of f(x) d y) on each piece of the polyline
    through the samples (x, y), x and y linear in one parameter between
    consecutive samples. f is cos or sin, whose mean over a piece is f at
    the piece's midpoint times sinc(d x / 2 pi): for cos the integral is
    d y (sin(x1) - sin(x0)) / d x, written so that a vanishing d x cancels
    nothing.
    """
    dx, dy = np.diff(x), np.diff(y)
    return dy, dy * f(x[:-1] + 0.5 * dx) * np.sinc(dx / (2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class SampledSegment:
    """Chart samples (alpha, beta) at uniform times over the duration, at
    least two, joined as a polyline: alpha and beta are linear in time
    between consecutive samples, so each piece is a coordinate spiral (or a
    coordinate-aligned arc, or a hold) and the segment is exactly that
    curve. Its end point and beta integrals are the pieces' closed forms."""

    alpha: np.ndarray
    beta: np.ndarray
    duration: float
    # rows alpha' and beta' on each piece, the sample steps over the time
    # step
    _rates: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if alpha.shape != beta.shape or alpha.ndim != 1 or alpha.size < 2:
            raise ValueError("alpha and beta must be matching 1-d arrays "
                             "with at least two samples")
        if not self.duration > 0:
            raise ValueError("segment duration must be positive")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        # a step too short for double precision gives an inf or nan rate
        dt = self.duration / (alpha.size - 1)
        with np.errstate(all="ignore"):
            steps = np.diff((alpha, beta))
            rates = steps / dt
        if not np.isfinite(rates).all():
            raise ValueError("segment rates overflow double precision")
        if abs(steps).max() > MAX_SPAN:
            raise ValueError(_SPAN_ERROR)
        object.__setattr__(self, "_rates", rates)

    def start_coords(self) -> SchmidtCoordinates:
        return SchmidtCoordinates(float(self.alpha[0]), float(self.beta[0]))

    def end_coords(self) -> SchmidtCoordinates:
        return SchmidtCoordinates(float(self.alpha[-1]), float(self.beta[-1]))

    def start_rates(self) -> tuple[float, float]:
        """(alpha', beta') at the start, the first piece's rates."""
        return tuple(self._rates[:, 0])

    def __eq__(self, other):
        return (isinstance(other, SampledSegment)
                and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def _key(self) -> tuple:
        """Samples and duration as plain floats, to compare and hash by."""
        return (tuple(self.alpha.tolist()), tuple(self.beta.tolist()),
                self.duration)

    def _beta_integrals(self) -> tuple[float, float]:
        """(integral of d beta, integral of cos(alpha) d beta), the sum of
        the pieces' closed forms."""
        return (float(self.beta[-1] - self.beta[0]),
                float(_piece_integrals(self.alpha, self.beta)[1].sum()))


def linear_segment(alpha_start: float, beta_start: float, alpha_end: float,
                   beta_end: float, duration: float) -> SampledSegment:
    """Alpha and beta linear in time (extended chart): the polyline of two
    samples. Covers equator and latitude arcs (alpha constant), meridian
    arcs through a pole (beta constant, alpha running beyond [0, pi]), and
    coordinate spirals; zero rates give a static hold."""
    return SampledSegment((alpha_start, alpha_end), (beta_start, beta_end),
                          duration)


def equator_arc(beta_start: float, beta_end: float,
                duration: float) -> SampledSegment:
    return linear_segment(np.pi / 2, beta_start, np.pi / 2, beta_end, duration)


def meridian_arc(beta: float, alpha_start: float, alpha_end: float,
                 duration: float) -> SampledSegment:
    return linear_segment(alpha_start, beta, alpha_end, beta, duration)


@dataclass(frozen=True)
class ArcSegment:
    """The start point rotated by `angle` about a fixed axis (kept as a unit
    vector) at a constant rate, continuing the start coordinates in the
    chart. Its clearance, the least distance from the z axis, must be at
    least 1e-9. Its end point and beta integrals are closed forms."""

    alpha_start: float
    beta_start: float
    axis: tuple
    angle: float
    duration: float
    clearance: float = field(init=False)
    # end coordinates, then the integrals of d beta and of cos(alpha) d beta
    _closed: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("segment duration must be positive")
        k = np.asarray(self.axis, dtype=float)
        if not np.any(k):
            raise ValueError("rotation axis must be nonzero")
        k = k / np.max(np.abs(k))  # now its squares cannot overflow
        k = k / np.linalg.norm(k)
        r0 = sphere_point(self.alpha_start, self.beta_start)
        c0 = float(k @ r0)
        a, b = r0 - c0 * k, np.cross(k, r0)
        object.__setattr__(self, "axis", tuple(k.tolist()))
        # z is extremal at phi_top + m pi: these and the ends bound rho
        phi_top = np.arctan2(b[2], a[2])
        lo, hi = sorted((0.0, self.angle))
        turns = np.minimum(lo + np.mod(phi_top - lo, np.pi) + [0.0, np.pi], hi)
        # r(phi) = c0 k + cos(phi) a + sin(phi) b at the start, the end and
        # the turns, lifted to the start's chart copy
        phi = np.array([0.0, self.angle, *turns])
        x, y, z = (np.array([c0 * k, a, b]).T
                   @ [np.ones_like(phi), np.cos(phi), np.sin(phi)])
        rho = np.hypot(x, y)
        alpha, beta = np.arctan2(rho, z), np.arctan2(y[0], x[0])
        if self.alpha_start < 0:
            alpha, beta = -alpha, beta + np.pi
        beta += 2 * np.pi * np.round((self.beta_start - beta) / (2 * np.pi))
        object.__setattr__(self, "clearance", float(np.min(rho)))
        if self.clearance < 1e-9:
            raise ValueError("rotation segment passes through or too close "
                             "to a pole; use a linear or sampled segment "
                             "for a pole crossing")
        if max(abs(self.alpha_start - alpha[0]),
               abs(self.beta_start - beta)) > 1e-6:
            raise ValueError("start coordinates do not lie on the declared arc")
        # |alpha'| <= |rate| and |beta'| <= |rate| / rho bound the chart rates
        if not np.isfinite(self.angle / self.duration / self.clearance):
            raise ValueError("segment rates overflow double precision")
        if abs(self.angle) > MAX_SPAN:
            raise ValueError(_SPAN_ERROR)
        # With z = cos(alpha), P = -sin(e) sin(d), Q = cos(e) cos(d) and d, e =
        # (theta_k -+ gamma) / 2 (the angles from k to the z axis and to r0),
        # d beta / d phi = P / (1 - z) + Q / (1 + z) and cos(alpha) d beta /
        # d phi = c0 + P / (1 - z) - Q / (1 + z). P / (1 - z) integrates to
        # -sign(d) atan(q tan(u / 2)), q = sin(e) / |sin(d)|, u = phi -
        # phi_top (Q alike): u / 2 plus an atan2, continuous, free of
        # subtractions near a pole.
        theta_k = np.arctan2(np.hypot(k[0], k[1]), k[2])
        gamma = np.arctan2(np.linalg.norm(b), c0)
        d, e = 0.5 * (theta_k - gamma), 0.5 * (theta_k + gamma)
        num = np.array([[np.sin(e)], [abs(np.cos(e))]])
        den = np.array([[abs(np.sin(d))], [np.cos(d)]])
        u = np.array([0.0, self.angle]) - phi_top
        w = np.arctan2((num - den) * np.sin(u),
                       (num + den) - (num - den) * np.cos(u))
        north, south = ([-np.sign(d), np.sign(np.cos(e))]
                        * (0.5 * self.angle + w[:, 1] - w[:, 0]))
        object.__setattr__(self, "_closed", (
            float(alpha[1]), float(self.beta_start + north + south),
            float(north + south), float(c0 * self.angle + north - south)))

    def start_coords(self) -> SchmidtCoordinates:
        return SchmidtCoordinates(self.alpha_start, self.beta_start)

    def end_coords(self) -> SchmidtCoordinates:
        return SchmidtCoordinates(*self._closed[:2])

    def start_rates(self) -> tuple[float, float]:
        """(alpha', beta') at the start: the exact rates of
        r' = (angle / duration) k x r at r0, in the arc's chart copy."""
        x, y, z = sphere_point(self.alpha_start, self.beta_start)
        rho = np.hypot(x, y)
        (kx, ky, kz), rate = self.axis, self.angle / self.duration
        # alpha' = -z' / sin(alpha) (on the principal copy) and
        # beta' = (x y' - y x') / rho^2
        return (-np.sign(self.alpha_start) * rate * (kx * y - ky * x) / rho,
                rate * (kz - z * (kx * x + ky * y) / rho ** 2))

    def _beta_integrals(self) -> tuple[float, float]:
        """(integral of d beta, integral of cos(alpha) d beta), closed form."""
        return self._closed[2:]


def rotation_arc(alpha_start: float, beta_start: float, axis, angle: float,
                 duration: float):
    """ArcSegment of the start rotated by `angle` about `axis`; about the z
    axis, the latitude linear_segment. Both stay 1e-9 clear of the poles."""
    arc = ArcSegment(alpha_start, beta_start, axis, angle, duration)
    if arc.axis[:2] == (0.0, 0.0):
        return linear_segment(alpha_start, beta_start, alpha_start,
                              beta_start + arc.axis[2] * angle, duration)
    return arc


@dataclass(frozen=True)
class SchmidtPath:
    """Piecewise path of Schmidt coordinates in the extended-alpha chart.

    Segments must be chart-continuous at the junctions (strictly, in both
    alpha and beta, so the (f, g) bookkeeping never jumps). A path flagged
    closed must return to its starting sphere point, though its chart
    endpoint may be the identified copy, as in a pole-crossing loop.
    """

    segments: tuple
    closed: bool = False

    def __post_init__(self):
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("path needs at least one segment")
        object.__setattr__(self, "segments", segments)
        for i in range(len(segments) - 1):
            end = segments[i].end_coords()
            start = segments[i + 1].start_coords()
            if (abs(end.alpha - start.alpha) > CHART_TOL
                    or abs(end.beta - start.beta) > CHART_TOL):
                raise ValueError(
                    f"path is discontinuous between segments {i} and {i + 1}")
        if self.closed:
            gap = np.linalg.norm(self.start_coords().point()
                                 - self.end_coords().point())
            if gap > CHART_TOL:
                raise ValueError("path is flagged closed but endpoints differ "
                                 f"by {gap:.3e} on the sphere")

    def start_coords(self) -> SchmidtCoordinates:
        return self.segments[0].start_coords()

    def end_coords(self) -> SchmidtCoordinates:
        return self.segments[-1].end_coords()

    @property
    def duration(self) -> float:
        return float(sum(seg.duration for seg in self.segments))


def solid_angle(path: SchmidtPath) -> float:
    """Signed solid angle enclosed by a closed path.

    Evaluates the loop integral of (1 - cos(alpha)) d(beta) over the
    continuous extended-alpha chart, in closed form for every segment (for
    a polyline, piece by piece). The chart form is singular at the south
    pole (a crossing shifts it by 2*pi), so a segment whose alpha range
    reaches an odd multiple of pi raises ValueError; pole crossings must
    run through alpha = 0. Rotation arcs never meet a pole, and alpha is
    linear between a polyline's samples, so its samples bound its alpha
    range.
    """
    if not path.closed:
        raise ValueError("solid angle requires a closed path")
    total = 0.0
    for i, seg in enumerate(path.segments):
        if isinstance(seg, SampledSegment):
            lo, hi = seg.alpha.min(), seg.alpha.max()
            # smallest odd multiple of pi at or above lo
            pole = np.pi * (2.0 * np.ceil(0.5 * (lo / np.pi - 1.0)) + 1.0)
            if pole <= hi:
                raise ValueError(
                    f"segment {i} reaches the south pole (alpha = "
                    f"{pole:.6g}), where the chart solid angle is singular; "
                    "route pole crossings through alpha = 0")
        dbeta, cos_int = seg._beta_integrals()
        total += dbeta - cos_int
    return float(total)
