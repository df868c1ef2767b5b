"""Hamiltonian schedules that drive loops on the Schmidt sphere.

A path (alpha(t), beta(t)) is generated by

    H(t) = -(alpha'/2) sin(beta) h_xy + (alpha'/2) cos(beta) h_dm
           + (beta'/2) h_z,

equivalently by the effective field B = (2 c_xy, 2 c_dm, 2 c_z) about
which the sphere point precesses (r' = B x r). The gamma-sector triple
(h_xy, h_dm, h_z) acts as the Pauli triple on span{|01>, |10>} and
annihilates |00>, |11>; the lambda-sector triple is its analog on
span{|00>, |11>}.

The transmon pulse family is tilted_schedule(theta, t1, tau), whose
theta = 0 member drives the orange-slice loop, and
trotter_propagate(theta, n) is the n-step Trotter splitting of its tilted
pulse. The tilted and Trotter propagators, extract_rotation_angle and the
gate comparisons of linalg take a stack of theta (or of gates) as well as
one, so trotter-sweep computes a block of table rows per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import u_general
from .linalg import _PAIRS, embed, su2_exp, su2_product
from .sphere import SchmidtPath, equator_arc, meridian_arc

H_XY = np.zeros((4, 4), dtype=np.complex128)
H_XY[1, 2] = H_XY[2, 1] = 1.0

H_DM = np.zeros((4, 4), dtype=np.complex128)
H_DM[1, 2] = -1j
H_DM[2, 1] = 1j

H_Z = np.diag([0, 1, -1, 0]).astype(np.complex128)

L_XY = np.zeros((4, 4), dtype=np.complex128)
L_XY[0, 3] = L_XY[3, 0] = 1.0

L_DM = np.zeros((4, 4), dtype=np.complex128)
L_DM[0, 3] = -1j
L_DM[3, 0] = 1j

L_Z = np.diag([1, 0, 0, -1]).astype(np.complex128)


@dataclass(frozen=True)
class ConstantPulse:
    """Pulse with time-independent coefficients (c_xy, c_dm, c_z)."""

    duration: float
    c_xy: float
    c_dm: float
    c_z: float

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("pulse duration must be positive")

    def steps(self) -> np.ndarray:
        """Column (c_xy, c_dm, c_z, dt) of the pulse as one exact step."""
        return np.array([[self.c_xy, self.c_dm, self.c_z, self.duration]]).T


@dataclass(frozen=True)
class SampledPulse:
    """Pulse with coefficients sampled on a uniform time grid."""

    times: np.ndarray
    c_xy: np.ndarray
    c_dm: np.ndarray
    c_z: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("a sampled pulse needs at least two samples")
        object.__setattr__(self, "times", times)
        for name in ("c_xy", "c_dm", "c_z"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != times.shape:
                raise ValueError(f"{name} must match the time grid")
            object.__setattr__(self, name, arr)

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def steps(self) -> np.ndarray:
        """Midpoint steps between samples, as columns (c_xy, c_dm, c_z, dt)."""
        c = np.array([self.c_xy, self.c_dm, self.c_z])
        return np.vstack([0.5 * (c[:, :-1] + c[:, 1:]), np.diff(self.times)])


@dataclass(frozen=True)
class HamiltonianSchedule:
    """Time-ordered pulses (first entry acts first) within one sector."""

    pulses: tuple
    sector: str = "gamma"

    def __post_init__(self):
        object.__setattr__(self, "pulses", tuple(self.pulses))
        if self.sector not in _PAIRS:
            raise ValueError(f"unknown sector {self.sector!r}")

    @property
    def duration(self) -> float:
        return float(sum(p.duration for p in self.pulses))


def _field(da, db, beta):
    """(c_xy, c_dm, c_z) of H for chart rates (alpha', beta') at beta."""
    return -0.5 * da * np.sin(beta), 0.5 * da * np.cos(beta), 0.5 * db


def _segment_pulse(seg, samples: int) -> ConstantPulse | SampledPulse:
    """The field that drives one segment, from its chart rates."""
    t, _, beta, da, db = seg.chart(samples)
    if np.ndim(da) == 0 and (da == 0.0 or db == 0.0):
        # A coordinate-aligned arc has a constant field, read at the exact
        # start beta; the terms of the vanishing rate are exact zeros.
        c_xy, c_dm, c_z = _field(da, db, seg.start_coords().beta)
        if da == 0.0:
            c_xy = c_dm = 0.0
        else:
            c_z = 0.0
        return ConstantPulse(seg.duration, c_xy, c_dm, c_z)
    c_xy, c_dm, c_z = _field(da, db, beta)
    return SampledPulse(t, c_xy, c_dm, np.broadcast_to(c_z, t.shape))


def reverse_engineer(path: SchmidtPath, sector: str = "gamma",
                     samples_per_segment: int = 1000) -> HamiltonianSchedule:
    """Hamiltonian schedule whose evolution drags the Schmidt vectors along
    the path with no extra phase.

    Coordinate-aligned segments (constant alpha or constant beta, rotation
    arcs about the z axis among them) have exact constant chart rates and
    become constant pulses. Linear spirals are sampled at
    `samples_per_segment` points with their exact rates. Sampled segments
    (tilted rotation arcs among them, lifted when they were built) keep
    their own samples, with rates by np.gradient (one-sided second order
    at the endpoints). Doubling the sampling should leave the resulting
    propagator unchanged at the 1e-8 level; increase it until it does.
    """
    pulses = [_segment_pulse(seg, samples_per_segment)
              for seg in path.segments]
    return HamiltonianSchedule(tuple(pulses), sector=sector)


def propagate(schedule: HamiltonianSchedule) -> np.ndarray:
    """Time-ordered propagator of a schedule (latest pulse leftmost): the
    steps of all its pulses, on the sector pair alone, are exponentiated as
    one stack of Cayley-Klein pairs, composed by su2_product and embedded
    once. A schedule without pulses gives the identity."""
    pairs = su2_exp(*np.hstack([np.empty((4, 0))]
                               + [p.steps() for p in schedule.pulses]))
    return embed(su2_product(*pairs), schedule.sector)


def dynamical_phase(path: SchmidtPath) -> tuple[float, float]:
    """Accumulated dynamical phases (phi_plus, phi_minus) of the entangled
    pair under the reverse-engineered schedule.

    phi_plus = -(1/2) * integral of cos(alpha) d(beta) along the path and
    phi_minus = -phi_plus; both vanish on geodesic-pair loops. Linear
    segments contribute in closed form, sampled segments (tilted rotation
    arcs among them) by the trapezoid rule on their own samples.
    """
    cos_int = 0.0
    for seg in path.segments:
        _, seg_cos = seg._beta_integrals()
        cos_int += seg_cos
    phi_plus = -0.5 * cos_int
    return float(phi_plus), float(-phi_plus)


def _check_times(t1: float, tau: float) -> None:
    if not 0.0 < t1 < tau:
        raise ValueError("times must satisfy 0 < t1 < tau")


def orange_slice_path(t1: float, tau: float) -> SchmidtPath:
    """Closed loop from (0,1,0): half equator to (0,-1,0) during [0, t1],
    then the meridian through the north pole back to the start. Solid
    angle -pi.
    """
    _check_times(t1, tau)
    return SchmidtPath((
        equator_arc(np.pi / 2, -np.pi / 2, t1),
        meridian_arc(-np.pi / 2, np.pi / 2, -np.pi / 2, tau - t1),
    ), closed=True)


def tilted_schedule(theta, t1: float, tau: float) -> HamiltonianSchedule:
    """Two-pulse schedule: -(pi/(2 t1)) h_z during [0, t1], then the
    second pulse tilted by theta,
    -(pi/(2 (tau-t1))) (cos(theta) h_xy - sin(theta) h_z). theta = 0 gives
    the plain two-pulse schedule that generates the orange-slice loop. A
    stack of theta gives a tilted pulse with stacked coefficients, which
    the tilted propagators below take; propagate takes scalar pulses.
    """
    _check_times(t1, tau)
    k = np.pi / (2.0 * (tau - t1))
    return HamiltonianSchedule((
        ConstantPulse(t1, 0.0, 0.0, -np.pi / (2.0 * t1)),
        ConstantPulse(tau - t1, -k * np.cos(theta), 0.0, k * np.sin(theta)),
    ))


def _tilted_propagator(theta, first: int) -> np.ndarray:
    """Propagator of the pulses of tilted_schedule(theta, 1, 2) from index
    `first` on, for a scalar theta or elementwise over a stack: each
    coefficient of the pulses is stacked on the last axis, exponentiated by
    one su2_exp call and composed by one su2_product call."""
    pulses = tilted_schedule(theta, 1.0, 2.0).pulses[first:]
    steps = (np.stack(np.broadcast_arrays(*(getattr(p, name) for p in pulses)),
                      axis=-1)
             for name in ("c_xy", "c_dm", "c_z", "duration"))
    return embed(su2_product(*su2_exp(*steps)), "gamma")


def tilted_segment_propagator(theta) -> np.ndarray:
    """Exact propagator of the tilted second pulse,
    exp(+i (pi/2) (cos(theta) h_xy - sin(theta) h_z)); a stack of theta
    gives a (..., 4, 4) stack.
    """
    return _tilted_propagator(theta, 1)


def composed_tilted_gate(theta) -> np.ndarray:
    """Exact propagator of the full tilted sequence (both pulses); a stack
    of theta gives a (..., 4, 4) stack."""
    return _tilted_propagator(theta, 0)


def trotter_propagate(theta, n: int) -> np.ndarray:
    """First-order splitting of the tilted pulse into n alternating steps
    exp(+i (pi/2n) cos(theta) h_xy) exp(-i (pi/2n) sin(theta) h_z): the
    product of the pair stack (z, xy), embedded and raised to the n-th
    power by binary powering; n must be a positive integer. A stack of
    theta gives a (..., 4, 4) stack, powered by one matrix_power call.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("step count n must be a positive integer")
    k = np.pi / (2.0 * n)
    zero = np.zeros(np.shape(theta))
    z_then_xy = su2_exp(np.stack([zero, -k * np.cos(theta)], axis=-1), 0.0,
                        np.stack([k * np.sin(theta), zero], axis=-1), 1.0)
    step = embed(su2_product(*z_then_xy), "gamma")
    return np.linalg.matrix_power(step, n)


def extract_rotation_angle(u: np.ndarray):
    """Rotation angle omega of a gate of the real middle-block rotation
    form, plus the residual max|u - rebuilt form|; for a (..., 4, 4) stack,
    arrays of both.
    """
    u = np.asarray(u, dtype=np.complex128)
    omega = 2.0 * np.arctan2(u[..., 2, 1].real, u[..., 1, 1].real)
    residual = np.abs(u - u_general(omega)).max(axis=(-2, -1))
    return omega, residual
