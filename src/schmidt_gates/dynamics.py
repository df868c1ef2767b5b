"""Hamiltonian schedules that drive loops on the Schmidt sphere.

A path (alpha(t), beta(t)) is generated by

    H(t) = -(alpha'/2) sin(beta) h_xy + (alpha'/2) cos(beta) h_dm
           + (beta'/2) h_z,

equivalently by the effective field B = (2 c_xy, 2 c_dm, 2 c_z) about
which the sphere point precesses (r' = B x r). The gamma-sector triple
(h_xy, h_dm, h_z) acts as the Pauli triple on span{|01>, |10>} and
annihilates |00>, |11>; the lambda-sector triple is its analog on
span{|00>, |11>}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import u_general
from .linalg import _PAIRS, I2, embed, su2_exp
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


Pulse = ConstantPulse | SampledPulse


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


def _segment_pulse(seg, samples: int) -> Pulse:
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

    Coordinate-aligned segments (constant alpha or constant beta, and
    rotation arcs about the z axis) have exact constant chart rates and
    become constant pulses; everything else is sampled, with derivatives by
    np.gradient (one-sided second order at the endpoints). Doubling
    `samples_per_segment` should leave the resulting propagator unchanged
    at the 1e-8 level; increase it until it does.
    """
    pulses = [_segment_pulse(seg, samples_per_segment)
              for seg in path.segments]
    return HamiltonianSchedule(tuple(pulses), sector=sector)


def propagate(schedule: HamiltonianSchedule) -> np.ndarray:
    """Time-ordered propagator of a schedule (latest pulse leftmost).

    Every pulse acts on the schedule's sector pair alone, so the product
    is formed on 2x2 blocks and embedded into 4x4 once at the end.
    Constant pulses exponentiate exactly; sampled pulses step between
    consecutive samples using the midpoint (averaged) coefficients.
    """
    u = I2
    for pulse in schedule.pulses:
        if isinstance(pulse, ConstantPulse):
            u = su2_exp(pulse.c_xy, pulse.c_dm, pulse.c_z, pulse.duration) @ u
        else:
            mid = [0.5 * (c[:-1] + c[1:])
                   for c in (pulse.c_xy, pulse.c_dm, pulse.c_z)]
            for step in su2_exp(*mid, np.diff(pulse.times)):
                u = step @ u
    return embed(u, schedule.sector)


def dynamical_phase(path: SchmidtPath, samples: int = 1000) -> tuple[float, float]:
    """Accumulated dynamical phases (phi_plus, phi_minus) of the entangled
    pair under the reverse-engineered schedule.

    phi_plus = -(1/2) * integral of cos(alpha) d(beta) along the path and
    phi_minus = -phi_plus; both vanish on geodesic-pair loops.
    """
    cos_int = 0.0
    for seg in path.segments:
        _, seg_cos = seg._beta_integrals(samples)
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


def two_pulse_schedule(t1: float, tau: float) -> HamiltonianSchedule:
    """The two constant pulses generating the orange-slice loop:
    -(pi/(2 t1)) h_z during [0, t1], then -(pi/(2 (tau-t1))) h_xy.
    """
    _check_times(t1, tau)
    return HamiltonianSchedule((
        ConstantPulse(t1, 0.0, 0.0, -np.pi / (2.0 * t1)),
        ConstantPulse(tau - t1, -np.pi / (2.0 * (tau - t1)), 0.0, 0.0),
    ))


def tilted_schedule(theta: float, t1: float, tau: float) -> HamiltonianSchedule:
    """Two-pulse schedule with the second pulse tilted by theta:
    -(pi/(2 (tau-t1))) (cos(theta) h_xy - sin(theta) h_z). theta = 0
    recovers the plain two-pulse schedule.
    """
    _check_times(t1, tau)
    k = np.pi / (2.0 * (tau - t1))
    return HamiltonianSchedule((
        ConstantPulse(t1, 0.0, 0.0, -np.pi / (2.0 * t1)),
        ConstantPulse(tau - t1, -k * np.cos(theta), 0.0, k * np.sin(theta)),
    ))


def tilted_segment_propagator(theta: float) -> np.ndarray:
    """Exact propagator of the tilted second pulse,
    exp(+i (pi/2) (cos(theta) h_xy - sin(theta) h_z)).
    """
    k = 0.5 * np.pi
    return embed(su2_exp(-k * np.cos(theta), 0.0, k * np.sin(theta), 1.0),
                 "gamma")


def composed_tilted_gate(theta: float) -> np.ndarray:
    """Exact propagator of the full tilted sequence (both pulses)."""
    return propagate(tilted_schedule(theta, 1.0, 2.0))


@dataclass(frozen=True)
class TrotterPlan:
    """First-order splitting of the tilted pulse into n alternating steps
    exp(+i (pi/2n) cos(theta) h_xy) exp(-i (pi/2n) sin(theta) h_z).
    """

    theta: float
    n: int

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError("step count n must be a positive integer")


def trotter_propagate(plan: TrotterPlan) -> np.ndarray:
    """n-fold repetition of the Trotter step, formed as a 4x4 matrix and
    raised to the n-th power by binary powering.
    """
    k = np.pi / (2.0 * plan.n)
    xy = embed(su2_exp(-k * np.cos(plan.theta), 0.0, 0.0, 1.0), "gamma")
    z = embed(su2_exp(0.0, 0.0, k * np.sin(plan.theta), 1.0), "gamma")
    return np.linalg.matrix_power(xy @ z, plan.n)


def extract_rotation_angle(u: np.ndarray) -> tuple[float, float]:
    """Rotation angle omega of a gate of the real middle-block rotation
    form, plus the residual max|u - rebuilt form|.
    """
    u = np.asarray(u, dtype=np.complex128)
    omega = 2.0 * np.arctan2(u[2, 1].real, u[1, 1].real)
    residual = float(np.max(np.abs(u - u_general(omega))))
    return float(omega), residual
