"""Pulse schedules that drive loops on the Schmidt sphere.

A path (alpha(t), beta(t)) is generated by

    H(t) = -(alpha'/2) sin(beta) h_xy + (alpha'/2) cos(beta) h_dm
           + (beta'/2) h_z,

equivalently by the effective field B = (2 c_xy, 2 c_dm, 2 c_z) about
which the sphere point precesses (r' = B x r). The gamma-sector triple
(h_xy, h_dm, h_z) acts as the Pauli triple on span{|01>, |10>} and
annihilates |00>, |11>; the lambda-sector triple is its analog on
span{|00>, |11>}. The coefficients (c_xy, c_dm, c_z) are the same in both
sectors, so a schedule is a plain tuple of pulses (first entry acts
first) and the sector is chosen once, when propagate embeds the composed
Cayley-Klein pair.

A segment is a polyline in the chart, alpha and beta linear in t between
consecutive samples (a linear segment is the polyline of two), or a
rotation arc. Both are exact in a turning frame (the rotating-frame
reduction of Rabi, Ramsey and Schwinger, Rev. Mod. Phys. 26, 167 (1954)),
so the propagator of a piece or an arc is the product of two exponentials:

* on a coordinate spiral (alpha and beta both linear in t) the field turns
  about z with beta, H(t) = R(beta' t) H(0) R(beta' t)^dag for
  R(phi) = exp(-i phi Z / 2); in the frame that turns with it the field is
  constant, and the propagator is
  exp(-i T c_z Z) exp(-i T (c_xy X + c_dm Y)) with (c_xy, c_dm) the field
  at the start; where alpha or beta is constant the field is constant and
  one of the two factors is the identity;
* on a rotation arc about a tilted unit axis k, r' = w k x r with
  w = angle / T, so B = w k + lam(t) r with lam = beta' cos(alpha) - w k.r0;
  in the frame turning about k with the arc, r stays at r0 and the field
  lam(t) r0 keeps its direction, so the propagator is
  exp(-i (angle / 2) k.sigma) exp(-i (Lam / 2) r0.sigma) with
  Lam = integral of cos(alpha) d beta - (k.r0) angle.

So every segment is one Pulse(duration, frame, turn), two exact steps per
piece, and nothing is stepped by a quadrature rule; a pulse that does not
turn, such as the tilted pulses below, states turn = (0, 0, 0). Two pulses
of equal length that do not turn are one pulse whose frame holds the
first's field and whose turn is the second's, so the composed tilted gate
and the Trotter step, exp(-i xy X) exp(-i z Z), are each one pulse of two
steps.

The transmon pulse family is tilted_schedule(theta, t1, tau), whose
theta = 0 member drives the orange-slice loop, and
trotter_propagate(theta, n) is the n-step Trotter splitting of its tilted
pulse: the Cayley-Klein pair of its step raised to the n-th power in
closed form. propagate(pulses, sector) is the one road from a schedule to
a gate. The tilted family lives in the gamma sector, so
tilted_segment_propagator, composed_tilted_gate and trotter_propagate
return the gamma pair (a, b) and embed nothing; extract_rotation_angle
reads such a pair.
The pulses of a schedule share one batch shape; a stack of theta gives
pulses with a batch of fields, which are exponentiated as one stack, so
trotter-sweep computes a block of table rows per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import embed, su2_exp, su2_product
from .sphere import (
    ArcSegment,
    SchmidtPath,
    equator_arc,
    meridian_arc,
    sphere_point,
)

@dataclass(frozen=True, eq=False)
class Pulse:
    """Pulse that holds the field `frame` in the frame turning as
    exp(-i t turn.sigma), each piece of length T propagating as
    exp(-i T turn.sigma) exp(-i T frame.sigma). The entries of `frame` and
    `turn` broadcast: the last axis counts the pieces, of equal length and
    acting in turn, and leading axes are a batch of one duration. Pulses
    compare and hash by identity, since their entries may be arrays."""

    duration: float
    frame: tuple
    turn: tuple

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("pulse duration must be positive")

    def steps(self) -> np.ndarray:
        """Two exact steps per piece, (*frame, dt) and then (*turn, dt), dt
        the duration over the number of pieces: (4, *batch, 2 pieces)."""
        # the [0.0] gives a pulse of scalar entries its one piece
        *batch, pieces = np.broadcast(*self.frame, *self.turn, [0.0]).shape
        steps = np.empty((4, *batch, 2 * pieces))
        for row, (frame, turn) in enumerate(zip(self.frame, self.turn)):
            steps[row, ..., 0::2], steps[row, ..., 1::2] = frame, turn
        steps[3] = self.duration / pieces
        return steps


def _field(da, db, beta):
    """(c_xy, c_dm, c_z) of H for chart rates (alpha', beta') at beta."""
    return -0.5 * da * np.sin(beta), 0.5 * da * np.cos(beta), 0.5 * db


def _segment_pulse(seg) -> Pulse:
    """The pulse that drives one segment, from its exact rates."""
    if isinstance(seg, ArcSegment):
        # B = w k + lam(t) r: the frame turns with the arc, w k / 2, and
        # holds r at r0, where the field integrates to Lam r0 / 2 over T
        r0 = sphere_point(seg.alpha_start, seg.beta_start)
        k = np.array(seg.axis)
        lam = seg._beta_integrals()[1] - (k @ r0) * seg.angle
        half = 0.5 / seg.duration
        return Pulse(seg.duration, frame=tuple(half * lam * r0),
                     turn=tuple(half * seg.angle * k))
    # each piece of a polyline is a coordinate spiral: its field at its
    # start beta without the z part is its frame, the z part its turn; on a
    # coordinate-aligned piece the terms of the zero rate are exact zeros,
    # so one of the two steps is the identity
    c_xy, c_dm, c_z = _field(*seg._rates, seg.beta[:-1])
    return Pulse(seg.duration, frame=(c_xy, c_dm, 0.0), turn=(0.0, 0.0, c_z))


def reverse_engineer(path: SchmidtPath) -> tuple:
    """Pulses, one per segment and in the path's order, whose evolution
    drags the Schmidt vectors along the path with no extra phase, in either
    sector.

    A polyline, a linear segment among them, becomes one pulse of a
    spiral piece between each pair of consecutive samples; on a piece with
    constant alpha the frame field is zero, on one with constant beta the
    turn. A rotation arc becomes a pulse exact in the frame that turns with
    it about its axis, its integral of cos(alpha) d beta in closed form. Every
    pulse is exact: its propagator carries the sector's branch states from
    the segment's start to its end to rounding, however the segment is
    sampled.
    """
    return tuple(_segment_pulse(seg) for seg in path.segments)


def _pair(pulses) -> tuple[np.ndarray, np.ndarray]:
    """Cayley-Klein pair of the time-ordered product of a sequence of
    pulses (first acts first, so the latest is leftmost): the steps of all
    the pulses are exponentiated as one stack by su2_exp and composed by
    su2_product. The pulses share one batch shape, the shape of the pair;
    pulses of different batches raise numpy's ValueError. The steps die
    before the exponentials are composed. No pulses give the identity pair
    (1, 0)."""
    return su2_product(*su2_exp(*np.concatenate(
        [p.steps() for p in pulses] or [np.empty((4, 0))], axis=-1)))


def propagate(pulses, sector: str = "gamma") -> np.ndarray:
    """Time-ordered propagator of a sequence of pulses (first acts first,
    so the latest is leftmost) in one sector: their composed Cayley-Klein
    pair embedded once on the sector's pair. The pulses of a schedule share
    one batch shape, and stacked coefficients give a (*batch, 4, 4) stack
    of propagators. No pulses give the identity."""
    return embed(*_pair(pulses), sector)


def dynamical_phase(path: SchmidtPath) -> tuple[float, float]:
    """Accumulated dynamical phases (phi_plus, phi_minus) of the entangled
    pair under the reverse-engineered schedule.

    phi_plus = -(1/2) * integral of cos(alpha) d(beta) along the path and
    phi_minus = -phi_plus; both vanish on geodesic-pair loops. Every
    segment contributes in closed form, a sampled segment piece by piece.
    """
    phi_plus = -0.5 * path._beta_integrals()[1]
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


def tilted_schedule(theta, t1: float, tau: float) -> tuple:
    """Two pulses that do not turn: -(pi/(2 t1)) h_z during [0, t1], then
    the second pulse tilted by theta,
    -(pi/(2 (tau-t1))) (cos(theta) h_xy - sin(theta) h_z). theta = 0 gives
    the plain two-pulse schedule that generates the orange-slice loop. Both
    pulses take theta's shape as their batch (of one piece), so a stack of
    theta is one schedule per element and propagate gives a stack of
    propagators.
    """
    _check_times(t1, tau)
    k = np.pi / (2.0 * (tau - t1))
    theta = np.asarray(theta)[..., None]
    z = np.full(theta.shape, -np.pi / (2.0 * t1))
    return (
        Pulse(t1, frame=(0.0, 0.0, z), turn=(0.0, 0.0, 0.0)),
        Pulse(tau - t1, frame=(-k * np.cos(theta), 0.0, k * np.sin(theta)),
              turn=(0.0, 0.0, 0.0)),
    )


def tilted_segment_propagator(theta) -> tuple[np.ndarray, np.ndarray]:
    """Cayley-Klein pair (a, b), of the gamma block
    [[a, -conj(b)], [b, conj(a)]], of the exact propagator of the tilted
    second pulse, exp(+i (pi/2) (cos(theta) h_xy - sin(theta) h_z)); a
    stack of theta gives arrays of its shape.
    """
    return _pair(tilted_schedule(theta, 1.0, 2.0)[1:])


def composed_tilted_gate(theta) -> tuple[np.ndarray, np.ndarray]:
    """Cayley-Klein pair (a, b) of the gamma block of the full tilted
    sequence, the tilted pulse after the h_z pulse: both last one unit, so
    the sequence is one pulse that holds the h_z field in the frame turning
    by the tilted one, two SU(2) steps. A stack of theta gives arrays of
    its shape."""
    first, second = tilted_schedule(theta, 1.0, 2.0)
    return _pair((Pulse(1.0, frame=first.frame, turn=second.frame),))


def trotter_propagate(theta, n) -> tuple[np.ndarray, np.ndarray]:
    """First-order splitting of the tilted pulse into n alternating steps
    exp(+i (pi/2n) cos(theta) h_xy) exp(-i (pi/2n) sin(theta) h_z), as the
    Cayley-Klein pair (a, b) of its gamma block.

    The step S, one pulse that holds the z field in the frame turning by
    the xy field (z, then xy), is the pair (a, b) that su2_exp and
    su2_product give: a rotation cos(phi) I - i sin(phi) (m.sigma), so its
    n-th power is cos(n phi) I - i sin(n phi) (m.sigma), the pair
    (cos(n phi) + i r a.imag, r b) with r = sin(n phi) / sin(phi), in
    closed form for any n. n is a positive integer or an integer array
    (Python integers beyond int64 too) that broadcasts against theta; a and
    b take the broadcast shape.
    """
    n = np.asarray(n)
    integer = n.dtype.kind in "iu" or (
        n.dtype == object and all(type(k) is int for k in n.flat))
    if not (integer and np.all(n >= 1)):
        raise ValueError("step count n must be a positive integer")
    n = n.astype(float)
    # pi / (2 n), without forming 2 n, which overflows for n near the
    # largest double
    k = 0.5 * np.pi / n
    # the batch of theta and n, with a trailing axis of one piece
    z, xy = (k * np.sin(theta))[..., None], (-k * np.cos(theta))[..., None]
    a, b = _pair((Pulse(1.0, frame=(0.0, 0.0, z), turn=(xy, 0.0, 0.0)),))
    # sin(phi) = |(a.imag, b)|; a.real = cos(phi) >= 0, as each factor
    # turns by at most pi/2
    phi = np.arctan2(np.hypot(a.imag, np.hypot(b.real, b.imag)), a.real)
    # sin(n phi) / sin(phi), with its limit n at phi = 0
    ratio = n * np.sinc(n * phi / np.pi) / np.sinc(phi / np.pi)
    return np.cos(n * phi) + 1j * (ratio * a.imag), ratio * b


def extract_rotation_angle(a, b):
    """Rotation angle omega of the gamma pair (a, b) of a gate of the real
    rotation form, a = cos(omega/2) and b = sin(omega/2), read as
    omega = 2 atan2(b.real, a.real), plus the residual
    max(|a - cos(omega/2)|, |b - sin(omega/2)|), which is max|u - rebuilt
    form| over the embedded 4x4 gate u; for arrays of pairs, arrays of
    both.
    """
    half = np.arctan2(b.real, a.real)
    d = np.subtract((a, b), (np.cos(half), np.sin(half)))
    # np.hypot rounds alike for one pair and for arrays of them; numpy's
    # array abs can differ from it in the last bit
    return 2.0 * half, np.hypot(d.real, d.imag).max(axis=0)
