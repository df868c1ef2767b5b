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

from dataclasses import dataclass

import numpy as np

from .linalg import ATOL_PIPELINE, tensor_product

# Chart-level agreement required at segment junctions and loop closure.
CHART_TOL = 1e-9

# Singular values below this are treated as exactly zero (product state).
_PRODUCT_CUT = 1e-12

# Components below this count as vanishing when fixing local-state phases.
_PHASE_CUT = 1e-9

DEGENERACY_TOL = 1e-9

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


def assemble_state(alpha: float, beta: float, branch: str = "gamma+",
                   frame=None) -> np.ndarray:
    """One member of the orthonormal Schmidt quadruple at (alpha, beta).

    The gamma branches live in span{|n,m>, |-n,-m>}, the lambda branches in
    span{|n,-m>, |-n,m>}; within each pair the "+" state carries amplitudes
    (f, g) and the "-" state (-conj(g), conj(f)). The default frame is
    (|0>, |1>), for which the lambda pair couples |00> and |11>.
    """
    if branch not in BRANCHES:
        raise ValueError(f"unknown branch {branch!r}; expected one of {BRANCHES}")
    if frame is None:
        n_state = np.array([1, 0], dtype=np.complex128)
        m_state = np.array([0, 1], dtype=np.complex128)
    else:
        n_state, m_state = _check_frame(frame)
    f, g = _amplitudes(alpha, beta)
    neg_n = _perp_a(n_state)
    neg_m = _perp_b(m_state)
    if branch.startswith("gamma"):
        first = tensor_product(n_state, m_state)
        second = tensor_product(neg_n, neg_m)
    else:
        first = tensor_product(n_state, neg_m)
        second = tensor_product(neg_n, m_state)
    if branch.endswith("+"):
        return f * first + g * second
    return -np.conj(g) * first + np.conj(f) * second


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Canonical-gauge Schmidt data of a two-qubit pure state."""

    coords: SchmidtCoordinates
    f: complex
    g: complex
    n_state: np.ndarray
    m_state: np.ndarray
    degenerate: bool

    def reassemble(self) -> np.ndarray:
        return assemble_state(self.coords.alpha, self.coords.beta, "gamma+",
                              frame=(self.n_state, self.m_state))


def _fix_phase(v: np.ndarray) -> tuple[np.ndarray, complex]:
    """Rotate v so its first non-vanishing component is real positive.

    Returns the fixed vector and the phase that was removed.
    """
    idx = 0 if abs(v[0]) > _PHASE_CUT else 1
    phase = v[idx] / abs(v[idx])
    return v * np.conj(phase), phase


def schmidt_decompose(state: np.ndarray) -> SchmidtDecomposition:
    """Schmidt decomposition with the package's fixed gauge.

    Local states carry real-positive leading components, the residual phase
    is split symmetrically over (f, g) as exp(-+ i beta / 2), the global
    phase is discarded, and alpha lies in [0, pi/2] (so f >= |g|). Product
    states take beta = 0; a near-degenerate Schmidt spectrum only raises
    the `degenerate` flag, the gauge is still applied as-is.
    """
    state = np.asarray(state, dtype=np.complex128).reshape(4)
    if abs(np.linalg.norm(state) - 1.0) > ATOL_PIPELINE:
        raise ValueError("state is not normalized")
    m = state.reshape(2, 2)
    u, s, vh = np.linalg.svd(m)
    alpha = 2.0 * np.arctan2(s[1], s[0])
    n_state, phase_n = _fix_phase(u[:, 0])
    m_state, phase_m = _fix_phase(vh[0, :])
    if s[1] < _PRODUCT_CUT:
        beta = 0.0
    else:
        f_raw = s[0] * phase_n * phase_m
        # The second Schmidt pair equals the canonical partners up to a phase.
        c_a = np.vdot(_perp_a(n_state), u[:, 1])
        c_b = np.vdot(_perp_b(m_state), vh[1, :])
        g_raw = s[1] * c_a * c_b
        beta = float(np.angle(g_raw) - np.angle(f_raw))
        beta = float(np.arctan2(np.sin(beta), np.cos(beta)))
    f, g = _amplitudes(alpha, beta)
    return SchmidtDecomposition(
        coords=SchmidtCoordinates(float(alpha), beta),
        f=complex(f),
        g=complex(g),
        n_state=n_state,
        m_state=m_state,
        degenerate=bool(s[0] - s[1] < DEGENERACY_TOL),
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


@dataclass(frozen=True)
class LinearSegment:
    """Arc with alpha and beta linear in time (extended chart).

    Covers equator and latitude arcs (alpha constant), meridian arcs through
    a pole (beta constant, alpha running beyond [0, pi]), and coordinate
    spirals. Zero rates give a static hold.
    """

    alpha_start: float
    beta_start: float
    alpha_end: float
    beta_end: float
    duration: float

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("segment duration must be positive")
        spans = (float(self.alpha_end) - float(self.alpha_start),
                 float(self.beta_end) - float(self.beta_start))
        if not all(np.isfinite(d / float(self.duration)) for d in spans):
            raise ValueError("segment rates overflow double precision")

    @property
    def alpha_rate(self) -> float:
        return (self.alpha_end - self.alpha_start) / self.duration

    @property
    def beta_rate(self) -> float:
        return (self.beta_end - self.beta_start) / self.duration

    def start_coords(self) -> SchmidtCoordinates:
        return SchmidtCoordinates(self.alpha_start, self.beta_start)

    def end_coords(self) -> SchmidtCoordinates:
        return SchmidtCoordinates(self.alpha_end, self.beta_end)

    def sample(self, n: int):
        t = np.linspace(0.0, self.duration, n)
        alpha = self.alpha_start + self.alpha_rate * t
        beta = self.beta_start + self.beta_rate * t
        return t, alpha, beta

    def chart(self, n: int):
        """(t, alpha, beta, alpha', beta'); the rates are exact scalars."""
        return *self.sample(n), self.alpha_rate, self.beta_rate

    def reversed(self) -> "LinearSegment":
        return LinearSegment(self.alpha_end, self.beta_end, self.alpha_start,
                             self.beta_start, self.duration)

    def _beta_integrals(self, samples: int) -> tuple[float, float]:
        """(integral of d beta, integral of cos(alpha) d beta), closed form."""
        dbeta = self.beta_end - self.beta_start
        da = self.alpha_end - self.alpha_start
        if da == 0.0:
            return dbeta, np.cos(self.alpha_start) * dbeta
        cos_int = dbeta * (np.sin(self.alpha_end) - np.sin(self.alpha_start)) / da
        return dbeta, cos_int


def equator_arc(beta_start: float, beta_end: float, duration: float) -> LinearSegment:
    return LinearSegment(np.pi / 2, beta_start, np.pi / 2, beta_end, duration)


def meridian_arc(beta: float, alpha_start: float, alpha_end: float,
                 duration: float) -> LinearSegment:
    return LinearSegment(alpha_start, beta, alpha_end, beta, duration)


def _gradient_chart(t: np.ndarray, alpha: np.ndarray, beta: np.ndarray):
    """Sampled chart coordinates and their rates by np.gradient."""
    return (t, alpha, beta, np.gradient(alpha, t, edge_order=2),
            np.gradient(beta, t, edge_order=2))


def _trapezoid_integrals(alpha, beta) -> tuple[float, float]:
    """(integral of d beta, integral of cos(alpha) d beta), trapezoid rule."""
    return (float(beta[-1] - beta[0]),
            float(np.trapezoid(np.cos(alpha), x=beta)))


def _rodrigues(axis: np.ndarray, angle, r0: np.ndarray) -> np.ndarray:
    """Rotate r0 about the unit axis; angle may be an array."""
    angle = np.asarray(angle, dtype=float)
    c = np.cos(angle)[..., None]
    s = np.sin(angle)[..., None]
    k = axis
    cross = np.cross(np.broadcast_to(k, (angle.size, 3)), r0)
    dot = float(np.dot(k, r0))
    return c * r0 + s * cross + (1.0 - c[..., 0])[..., None] * dot * k


@dataclass(frozen=True)
class RotationSegment:
    """Great- or small-circle arc: rotation of the start point about a fixed axis.

    The arc must stay clear of both poles (use LinearSegment meridians for
    pole crossings); its chart lift continues the declared start coordinates.
    """

    alpha_start: float
    beta_start: float
    axis: tuple[float, float, float]
    angle: float
    duration: float

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("segment duration must be positive")
        axis = np.asarray(self.axis, dtype=float)
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(axis)
        if np.isinf(norm):
            # the squares overflow: scale by the largest component first
            axis = axis / np.max(np.abs(axis))
            norm = np.linalg.norm(axis)
        if norm < 1e-12:
            raise ValueError("rotation axis must be nonzero")
        object.__setattr__(self, "axis", tuple(axis / norm))

    def start_coords(self) -> SchmidtCoordinates:
        return SchmidtCoordinates(self.alpha_start, self.beta_start)

    def sample(self, n: int):
        """Chart coordinates along the arc, continuous from the start coords."""
        t = np.linspace(0.0, self.duration, n)
        angles = self.angle * t / self.duration
        r = _rodrigues(np.asarray(self.axis), angles,
                       sphere_point(self.alpha_start, self.beta_start))
        rho = np.hypot(r[:, 0], r[:, 1])
        # resolution-aware guard: an arc passing within about one sampling
        # step of a pole cannot be lifted reliably at this resolution
        step = abs(self.angle) / max(n - 1, 1)
        if np.min(rho) < max(1e-9, 2.0 * step):
            raise ValueError("rotation segment passes through or too close "
                             "to a pole; represent pole crossings with "
                             "LinearSegment")
        alpha_std = np.arctan2(rho, r[:, 2])
        beta_std = np.unwrap(np.arctan2(r[:, 1], r[:, 0]))
        # Pick the extended-chart branch matching the declared start.
        if abs(_wrap(self.alpha_start) - alpha_std[0]) < 1e-6:
            alpha, beta = alpha_std, beta_std
        else:
            alpha, beta = -alpha_std, beta_std + np.pi
        offset_a = self.alpha_start - alpha[0]
        if abs(offset_a) > 1e-6:
            raise ValueError("start coordinates do not lie on the declared arc")
        beta = beta + 2.0 * np.pi * np.round((self.beta_start - beta[0])
                                             / (2.0 * np.pi))
        if abs(beta[0] - self.beta_start) > 1e-6:
            raise ValueError("start coordinates do not lie on the declared arc")
        if np.max(np.abs(np.diff(beta))) > 0.5 * np.pi:
            raise ValueError("rotation segment is too poorly resolved near "
                             "a pole; increase the sampling density")
        return t, alpha, beta

    def end_coords(self) -> SchmidtCoordinates:
        _, alpha, beta = self.sample(513)
        return SchmidtCoordinates(float(alpha[-1]), float(beta[-1]))

    def chart(self, n: int):
        """(t, alpha, beta, alpha', beta'). About the z axis the arc is a
        latitude circle with exact rates (0, angle / duration k_z). About a
        tilted axis, the axis field would add a parallel component (a
        spurious phase), so the rates are differences of the lift."""
        kx, ky, kz = self.axis
        if kx == 0.0 and ky == 0.0:
            return *self.sample(n), 0.0, self.angle / self.duration * kz
        return _gradient_chart(*self.sample(n))

    def reversed(self) -> "RotationSegment":
        end = self.end_coords()
        return RotationSegment(end.alpha, end.beta, self.axis, -self.angle,
                               self.duration)

    def _beta_integrals(self, samples: int) -> tuple[float, float]:
        return _trapezoid_integrals(*self.sample(samples)[1:])


def _wrap(angle: float) -> float:
    """Wrap into (-pi, pi]."""
    return float(np.arctan2(np.sin(angle), np.cos(angle)))


@dataclass(frozen=True)
class SampledSegment:
    """Uniformly time-sampled chart coordinates (alpha(t), beta(t))."""

    alpha: np.ndarray
    beta: np.ndarray
    duration: float

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

    def start_coords(self) -> SchmidtCoordinates:
        return SchmidtCoordinates(float(self.alpha[0]), float(self.beta[0]))

    def end_coords(self) -> SchmidtCoordinates:
        return SchmidtCoordinates(float(self.alpha[-1]), float(self.beta[-1]))

    def sample(self, n: int):
        t = np.linspace(0.0, self.duration, self.alpha.size)
        return t, self.alpha, self.beta

    def chart(self, n: int):
        """(t, alpha, beta, alpha', beta') on the segment's own samples."""
        return _gradient_chart(*self.sample(n))

    def reversed(self) -> "SampledSegment":
        return SampledSegment(self.alpha[::-1], self.beta[::-1], self.duration)

    def _beta_integrals(self, samples: int) -> tuple[float, float]:
        return _trapezoid_integrals(self.alpha, self.beta)


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

    def reversed(self) -> "SchmidtPath":
        return SchmidtPath(tuple(s.reversed() for s in self.segments[::-1]),
                           closed=self.closed)


def solid_angle(path: SchmidtPath, samples: int = 1000) -> float:
    """Signed solid angle enclosed by a closed path.

    Evaluates the loop integral of (1 - cos(alpha)) d(beta) over the
    continuous extended-alpha parametrization; linear segments contribute in
    closed form, rotation and sampled segments by the trapezoid rule
    (`samples` points for rotation arcs). This chart form is singular at the
    south pole, where a crossing would shift the result by 2*pi, so a
    segment whose alpha range reaches an odd multiple of pi raises
    ValueError; pole crossings must run through alpha = 0. Rotation arcs
    stay clear of both poles by construction.
    """
    if not path.closed:
        raise ValueError("solid angle requires a closed path")
    total = 0.0
    for i, seg in enumerate(path.segments):
        if not isinstance(seg, RotationSegment):
            alpha = ((seg.alpha_start, seg.alpha_end)
                     if isinstance(seg, LinearSegment) else seg.alpha)
            lo, hi = np.min(alpha), np.max(alpha)
            # smallest odd multiple of pi at or above lo
            pole = np.pi * (2.0 * np.ceil(0.5 * (lo / np.pi - 1.0)) + 1.0)
            if pole <= hi:
                raise ValueError(
                    f"segment {i} reaches the south pole (alpha = "
                    f"{pole:.6g}), where the chart solid angle is singular; "
                    "route pole crossings through alpha = 0")
        dbeta, cos_int = seg._beta_integrals(samples)
        total += dbeta - cos_int
    return float(total)
