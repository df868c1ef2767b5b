import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidt_gates.dynamics import (
    Pulse,
    _field,
    composed_tilted_gate,
    dynamical_phase,
    extract_rotation_angle,
    orange_slice_path,
    propagate,
    reverse_engineer,
    tilted_schedule,
    tilted_segment_propagator,
    trotter_propagate,
)
from schmidt_gates.gates import schmidt_gate, u_general
from schmidt_gates.linalg import embed, gate_fidelity, su2_exp
from schmidt_gates.sphere import (
    ArcSegment,
    SampledSegment,
    SchmidtPath,
    assemble_state,
    equator_arc,
    linear_segment,
    meridian_arc,
    rotation_arc,
    solid_angle,
    sphere_point,
)

from reference import (
    ARC_DRAWS,
    H_DM,
    H_XY,
    H_Z,
    L_DM,
    L_XY,
    L_Z,
    chart,
    midpoint_propagator,
    quadrature_cos_beta_integral,
    random_loop,
    reverse_path,
)

TOL = 1e-12


# -------------------------------------------------------------- operators


def test_spin_operator_commutators_exact():
    for xy, dm, z in [(H_XY, H_DM, H_Z), (L_XY, L_DM, L_Z)]:
        assert np.array_equal(xy @ dm - dm @ xy, 2j * z)
        assert np.array_equal(dm @ z - z @ dm, 2j * xy)
        assert np.array_equal(z @ xy - xy @ z, 2j * dm)
        for op in (xy, dm, z):
            assert np.array_equal(op, op.conj().T)


def test_sector_operators_commute_across_sectors():
    for a in (H_XY, H_DM, H_Z):
        for b in (L_XY, L_DM, L_Z):
            assert np.max(np.abs(a @ b - b @ a)) == 0.0


def test_pulses_compare_and_hash_by_identity():
    # a polyline's pulse holds arrays, which have no truth value: comparing
    # or hashing pulses must not read them
    p = Pulse(1.0, (np.zeros(2), 0.0, 0.0), (0.0, 0.0, 0.0))
    q = Pulse(1.0, (np.zeros(2), 0.0, 0.0), (0.0, 0.0, 0.0))
    assert p == p and p != q and not p == q
    assert hash(p) == hash(p)
    assert len({p, q}) == 2


def test_pulse_and_schedule_validation():
    with pytest.raises(ValueError):
        Pulse(0.0, frame=(1.0, 0.0, 0.0), turn=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        Pulse(-1.0, frame=(1.0, 0.0, 0.0), turn=(0.0, 0.0, 0.5))
    with pytest.raises(ValueError, match="unknown sector 'nu'"):
        propagate((Pulse(1.0, frame=(0, 0, 0), turn=(0, 0, 0)),), "nu")
    sched = tilted_schedule(0.3, 1.0, 1.5)
    assert sum(p.duration for p in sched) == pytest.approx(1.5)


# ------------------------------------------------- reverse engineering


def _is_zero(field):
    """Whether every entry of a pulse's frame or turn is zero."""
    return not np.any(np.broadcast_arrays(*field))


def _pieces(field):
    """A pulse's frame or turn as a (3, pieces) array."""
    return np.array(np.broadcast_arrays(*field, [0.0])[:3])


def test_reverse_engineer_constant_pulse_coefficients():
    # equator arc: pure splitting pulse at half the beta rate, a pulse whose
    # frame is zero, so that it is its constant turn
    sched = reverse_engineer(SchmidtPath((equator_arc(0.2, 1.4, 2.0),)))
    (p,) = sched
    assert p.duration == 2.0 and _is_zero(p.frame)
    assert np.allclose(_pieces(p.turn), [[0.0], [0.0], [0.5 * 1.2 / 2.0]],
                       atol=TOL)

    # meridian arc: exchange mix at half the alpha rate, a pulse that does
    # not turn, so that it is its constant frame
    beta = -0.8
    sched = reverse_engineer(SchmidtPath((meridian_arc(beta, 0.3, 1.7, 2.0),)))
    (p,) = sched
    assert _is_zero(p.turn)
    rate = (1.7 - 0.3) / 2.0
    assert np.allclose(_pieces(p.frame), [[-0.5 * rate * np.sin(beta)],
                                          [+0.5 * rate * np.cos(beta)],
                                          [0.0]], atol=TOL)

    # rotation about z is a latitude arc: constant splitting pulse
    seg = rotation_arc(0.9, 0.1, (0.0, 0.0, -1.0), 0.5, 2.0)
    sched = reverse_engineer(SchmidtPath((seg,)))
    (p,) = sched
    assert _is_zero(p.frame)
    assert np.allclose(_pieces(p.turn), [[0.0], [0.0], [-0.5 * 0.25]],
                       atol=TOL)

    # a tilted rotation axis gives a pulse whose frame turns with the arc,
    # (angle / 2T) k, and in which the field keeps the direction r0; the
    # arc's start rates give the paper's field at the start, and
    # B = 2 (c_xy, c_dm, c_z) turns the sphere point as the rotation does,
    # B x r0 = (angle / duration) k x r0
    k, rate = np.array([0.6, 0.0, 0.8]), 0.25
    seg = rotation_arc(0.9, 0.1, tuple(k), 0.5, 2.0)
    (p,) = reverse_engineer(SchmidtPath((seg,)))
    assert p.duration == 2.0 and p.steps().shape == (4, 2)
    r0 = sphere_point(0.9, 0.1)
    assert np.allclose(p.turn, 0.5 * rate * k, atol=TOL)
    assert np.allclose(np.cross(p.frame, r0), 0.0, atol=TOL)
    dbeta, cos_int = seg._beta_integrals()
    assert np.allclose(p.frame, (cos_int - 0.5 * (k @ r0)) / 4.0 * r0,
                       atol=TOL)
    # alpha' = -z' / sin(alpha) and beta' = (x y' - y x') / rho^2 at r0
    dr = rate * np.cross(k, r0)
    da = -dr[2] / np.sin(0.9)
    db = (r0[0] * dr[1] - r0[1] * dr[0]) / np.sin(0.9) ** 2
    assert np.allclose(seg.start_rates(), [da, db], atol=TOL)
    field = 2.0 * np.array(_field(*seg.start_rates(), 0.1))
    assert np.allclose(field, [-da * np.sin(0.1), da * np.cos(0.1), db],
                       atol=TOL)
    assert np.allclose(np.cross(field, r0), dr, atol=TOL)


def _rotating_field(p, t):
    """(c_xy, c_dm, c_z) at times t of a one-piece pulse that turns about
    z: H(t) = turn + R(t) frame R(t)^dag with R(t) = exp(-i t turn.sigma),
    its frame field turned about z by 2 c_z t."""
    (f_xy, f_dm, f_z), (t_xy, t_dm, c_z) = _pieces(p.frame), _pieces(p.turn)
    assert not np.any([f_z, t_xy, t_dm])
    phi = 2.0 * c_z * t
    cos, sin = np.cos(phi), np.sin(phi)
    return (f_xy * cos - f_dm * sin, f_xy * sin + f_dm * cos,
            np.broadcast_to(c_z, np.shape(t)))


def test_reverse_engineer_sampled_coefficients():
    # a coordinate spiral: the rotating pulse's field at the sample times
    # is the paper's field at the chart's points
    seg = linear_segment(0.3, 0.0, 1.2, 3.0, 1.0)
    da, db = 1.2 - 0.3, 3.0 - 0.0
    sched = reverse_engineer(SchmidtPath((seg,)))
    (p,) = sched
    assert p.duration == seg.duration
    t, _, beta, *_ = chart(seg, 501)
    c_xy, c_dm, c_z = _rotating_field(p, t)
    assert np.allclose(c_xy, -0.5 * da * np.sin(beta), atol=TOL)
    assert np.allclose(c_dm, +0.5 * da * np.cos(beta), atol=TOL)
    assert np.allclose(c_z, 0.5 * db, atol=TOL)


def test_effective_field_precesses_sphere_point():
    # r' = B x r with B = 2 (c_xy, c_dm, c_z) along the driven path
    rng = np.random.default_rng(61)
    for _ in range(10):
        seg = linear_segment(rng.uniform(0.3, 1.3), rng.uniform(-2, 2),
                            rng.uniform(0.3, 1.3), rng.uniform(-2, 2),
                            rng.uniform(0.5, 2.0))
        sched = reverse_engineer(SchmidtPath((seg,)))
        (p,) = sched
        t, alpha, beta, *_ = chart(seg, 2001)
        r = np.stack([sphere_point(a, b) for a, b in zip(alpha, beta)])
        dr = np.gradient(r, t, axis=0, edge_order=2)
        field = 2 * np.stack(_rotating_field(p, t), axis=1)
        assert np.max(np.abs(dr - np.cross(field, r))) < 1e-5


def test_omega22_identity():
    # i (f' conj(f) + g conj(g')) equals beta'/2 along any chart path
    seg = linear_segment(0.2, -1.0, 1.4, 2.0, 1.0)
    db = 2.0 - -1.0
    t, alpha, beta, *_ = chart(seg, 100001)
    f = np.exp(-0.5j * beta) * np.cos(0.5 * alpha)
    g = np.exp(+0.5j * beta) * np.sin(0.5 * alpha)
    df = np.gradient(f, t, edge_order=2)
    dg = np.gradient(g, t, edge_order=2)
    omega22 = 1j * (df * np.conj(f) + g * np.conj(dg))
    assert np.max(np.abs(omega22 - 0.5 * db)) < 1e-8


# ------------------------------------------------------------ propagation


@pytest.mark.parametrize("sector", ["gamma", "lambda"])
def test_propagate_empty_schedule_is_identity(sector):
    u = propagate((), sector)
    assert u.dtype == np.complex128
    assert np.array_equal(u, np.eye(4))


def _element(p, batch, index):
    """The pulse of one element of a pulse stacked over `batch`: each entry
    of its frame and turn with leading axes is broadcast to the batch and
    indexed, keeping its pieces."""
    def pick(x):
        if np.ndim(x) < 2:
            return x
        return np.broadcast_to(x, (*batch, np.shape(x)[-1]))[index]
    return Pulse(p.duration, tuple(map(pick, p.frame)),
                 tuple(map(pick, p.turn)))


@pytest.mark.parametrize("sector", ["gamma", "lambda"])
def test_pulse_that_does_not_turn_is_its_held_field(sector):
    # the turn's zero-field step is the identity pair exactly, so a pulse
    # that does not turn is one su2_exp step of its field, to the bit, for
    # random fields with signed zeros and components of 1e+-300 mixed in
    rng = np.random.default_rng(45)
    specials = np.array([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300])
    for _ in range(2000):
        f = rng.normal(size=3) * 10.0 ** rng.integers(-3, 4, 3)
        mask = rng.random(3) < 0.4
        f[mask] = rng.choice(specials, mask.sum())
        t = rng.uniform(0.1, 3.0)
        u = propagate((Pulse(t, tuple(f), (0.0, 0.0, 0.0)),), sector)
        v = embed(*su2_exp(*f, t), sector)
        assert u.tobytes() == v.tobytes()
    # a stack of theta in tilted_schedule is each theta's own schedule
    thetas = np.concatenate([rng.uniform(-4.0, 4.0, 40),
                             [0.0, -0.0, np.pi / 2, 5e-324]])
    schedule = tilted_schedule(thetas, 0.7, 1.9)
    assert [p.steps().shape for p in schedule] == [(4, thetas.size, 2)] * 2
    u = propagate(schedule, sector)
    assert u.shape == (thetas.size, 4, 4)
    for k, theta in enumerate(thetas):
        one = propagate(tilted_schedule(theta, 0.7, 1.9), sector)
        assert u[k].tobytes() == one.tobytes()


@pytest.mark.parametrize("sector", ["gamma", "lambda"])
def test_propagate_stacked_pulses_equal_per_element_calls(sector):
    # pulses whose frame and turn entries stack a (3, 4) batch on their
    # leading axes and count pieces on the last, scalar entries and entries
    # that broadcast mixed in, give the stack of the propagators of each
    # element's schedule
    rng = np.random.default_rng(43)
    c = rng.normal(size=(3, 6, 3, 4, 2))
    c[0, :, 0, 0] = 0.0
    c[1, :2, 2, 1] = -0.0
    stacked = [
        Pulse(0.4, tuple(c[0, :3, ..., :1]), (0.0, 0.0, 0.0)),
        Pulse(1.3, (c[1, 0], 0.0, c[1, 2, :1, :, :1]), (0.0, 0.0, c[1, 5])),
        Pulse(0.7, tuple(c[2, :3]), (c[2, 3], c[2, 4, :, :1, 0:1], 0.2)),
    ]
    u = propagate(stacked, sector)
    assert u.shape == (3, 4, 4, 4)
    for i in range(3):
        for j in range(4):
            v = propagate([_element(p, (3, 4), (i, j)) for p in stacked],
                          sector)
            assert u[i, j].tobytes() == v.tobytes()


@pytest.mark.parametrize("sector", ["gamma", "lambda"])
def test_propagate_refuses_pulses_of_different_batches(sector):
    # the pulses of a schedule share one batch: a stacked pulse next to a
    # scalar one or the pulse of a sampled segment, or two stacks whose
    # batch shapes would broadcast, are refused, never broadcast
    rng = np.random.default_rng(44)
    t = np.linspace(0.0, 0.8, 7)
    (sampled,) = reverse_engineer(SchmidtPath((
        SampledSegment(0.5 + np.sin(t), np.cos(t) + t ** 2, 0.8),)))
    assert sampled.steps().shape == (4, 12)
    scalar = Pulse(0.4, (0.3, -0.2, 0.5), (0.0, 0.0, 0.0))
    stacked = Pulse(1.1, (rng.normal(size=(2, 3, 1)), 0.7, -0.1),
                    (0.0, 0.0, 0.0))
    column = Pulse(0.9, (rng.normal(size=(2, 1, 1)), 0.0, 0.2),
                   (0.0, 0.0, 0.0))
    for schedule in ((scalar, stacked), (stacked, sampled),
                     (scalar, stacked, sampled), (stacked, column)):
        with pytest.raises(ValueError):
            propagate(schedule, sector)
    assert propagate((stacked, stacked), sector).shape == (2, 3, 4, 4)


def test_propagate_drags_schmidt_vectors_exactly():
    # constant-coefficient pulses are exponentiated in closed form, so the
    # transported branch states match the chart states to rounding error
    segments = [
        equator_arc(0.4, 2.1, 1.0),
        meridian_arc(0.7, 0.2, 2.4, 1.0),
        meridian_arc(-1.1, np.pi / 2, -np.pi / 2, 1.0),  # through the pole
        rotation_arc(1.1, 0.4, (0.0, 0.0, 1.0), 1.3, 1.0),
    ]
    for seg in segments:
        path = SchmidtPath((seg,))
        u = propagate(reverse_engineer(path))
        start, end = path.start_coords(), path.end_coords()
        for br in ("gamma+", "gamma-"):
            psi0 = assemble_state(start.alpha, start.beta, br)
            psi1 = assemble_state(end.alpha, end.beta, br)
            assert np.max(np.abs(u @ psi0 - psi1)) < TOL
        for k in (0, 3):
            e = np.zeros(4)
            e[k] = 1.0
            assert np.max(np.abs(u @ e - e)) < TOL


def test_propagate_drags_tilted_rotation_arc():
    seg = rotation_arc(1.1, 0.4, (0.3, -0.5, 0.8), 1.3, 1.0)
    path = SchmidtPath((seg,))
    u = propagate(reverse_engineer(path))
    start, end = path.start_coords(), path.end_coords()
    for br in ("gamma+", "gamma-"):
        psi0 = assemble_state(start.alpha, start.beta, br)
        psi1 = assemble_state(end.alpha, end.beta, br)
        assert np.max(np.abs(u @ psi0 - psi1)) < TOL


def test_propagate_drags_sampled_segment():
    # a curved sampled segment, through the north pole: each piece is a
    # spiral, driven exactly, so the branch states land on the last sample
    s = np.linspace(0.0, 1.0, 41)
    seg = SampledSegment(1.2 - 2.0 * s ** 2, 3.0 * np.sin(2.0 * s), 1.0)
    path = SchmidtPath((seg,))
    u = propagate(reverse_engineer(path))
    start, end = path.start_coords(), path.end_coords()
    for br in ("gamma+", "gamma-"):
        psi0 = assemble_state(start.alpha, start.beta, br)
        psi1 = assemble_state(end.alpha, end.beta, br)
        assert np.max(np.abs(u @ psi0 - psi1)) < TOL


def test_propagate_sampled_convergence_under_doubling():
    # the samples of a tilted arc at n and 2n points: two polylines through
    # the arc's points, each driven exactly from the same start to the same
    # end, so their propagators agree to rounding
    seg = rotation_arc(1.1, 0.4, (0.3, -0.5, 0.8), 1.3, 1.0)
    u1, u2 = (propagate(reverse_engineer(SchmidtPath((SampledSegment(
        *chart(seg, n)[1:3], seg.duration),)))) for n in (10000, 20000))
    assert np.max(np.abs(u1 - u2)) < 1e-12


def _phase_aligned(u, v):
    """min over phi of ||u - exp(i phi) v||_F / 2, formed directly rather
    than through the fidelity."""
    overlap = np.trace(v.conj().T @ u)
    return np.linalg.norm(u - overlap / abs(overlap) * v) / 2


def test_sampled_meridian_closes_the_orange_slice_exactly():
    # the orange slice with its meridian given as 100 samples timed by a
    # smoothstep, alpha = pi/2 - pi (3 s^2 - 2 s^3): the polyline's
    # propagator, solid angle and dynamical phase describe one curve, so
    # the loop is the Omega = -pi gate to rounding, not just to a fidelity
    # that passes at tolerance 1e-9
    s = np.linspace(0.0, 1.0, 100)
    meridian = SampledSegment(np.pi / 2 - np.pi * (3 * s ** 2 - 2 * s ** 3),
                              np.full(100, -np.pi / 2), 1.0)
    path = SchmidtPath((equator_arc(np.pi / 2, -np.pi / 2, 1.0), meridian),
                       closed=True)
    omega = solid_angle(path)
    assert omega == pytest.approx(-np.pi, abs=1e-15)
    assert np.max(np.abs(dynamical_phase(path))) < 1e-15
    for sector in ("gamma", "lambda"):
        u = propagate(reverse_engineer(path), sector)
        v = schmidt_gate(np.pi / 2, np.pi / 2, omega, sector=sector)
        assert _phase_aligned(u, v) <= 1e-14


def _random_polyline(rng, n):
    """n samples of a random walk in the chart, through the north pole
    about half the time, of steps up to 0.5 rad."""
    alpha = rng.uniform(-1.5, 1.5) + np.cumsum(rng.uniform(-0.5, 0.5, n))
    beta = rng.uniform(-3.0, 3.0) + np.cumsum(rng.uniform(-0.5, 0.5, n))
    return SampledSegment(alpha, beta, rng.uniform(0.3, 3.0))


@pytest.mark.parametrize("n", [2, 3, 100, 1000, 8000])
@pytest.mark.parametrize("sector", ["gamma", "lambda"])
def test_sampled_propagator_is_transport(sector, n):
    # a sampled segment is its polyline, every piece driven exactly: on the
    # samples of a tilted arc and on random walks its propagator is the
    # transport one, which shares no code with it
    rng = np.random.default_rng(90 + n)
    arc = rotation_arc(1.1, 0.4, (0.3, -0.5, 0.8), 1.3, 1.0)
    segments = [SampledSegment(*chart(arc, n)[1:3], 1.0)]
    segments += [_random_polyline(rng, n) for _ in range(3)]
    for seg in segments:
        (p,) = reverse_engineer(SchmidtPath((seg,)))
        assert p.steps().shape == (4, 2 * (n - 1))
        u = propagate((p,), sector)
        assert np.max(np.abs(u - _transport(seg, sector))) < 1e-13


def _transport(seg, sector):
    """Exact propagator of the reverse-engineered schedule of one segment:
    each branch state of the sector is carried from the segment's start to
    its end, sum over +- of |psi(end)><psi(start)|, and the idle pair is
    untouched."""
    start, end = seg.start_coords(), seg.end_coords()
    return _transport_between(start.alpha, start.beta, end.alpha, end.beta,
                              sector)


def _transport_between(a0, b0, a1, b1, sector):
    """_transport of a segment from (a0, b0) to (a1, b1)."""
    u = np.zeros((4, 4), dtype=complex)
    for sign in "+-":
        u += np.outer(assemble_state(a1, b1, sector + sign),
                      assemble_state(a0, b0, sector + sign).conj())
    for k in ((0, 3) if sector == "gamma" else (1, 2)):
        u[k, k] = 1.0
    return u


def _random_spiral(rng, beta_span):
    """A coordinate spiral, both rates nonzero; about a third of them run
    alpha through 0."""
    if rng.integers(3) == 0:
        a0, a1 = -rng.uniform(0.1, 2.5), rng.uniform(0.1, 2.5)
    else:
        a0, a1 = rng.uniform(-3.0, 3.0, 2)
    b0 = rng.uniform(-np.pi, np.pi)
    b1 = b0 + rng.choice([-1, 1]) * rng.uniform(0.5, beta_span)
    if rng.integers(2):
        a0, a1 = a1, a0
    return linear_segment(a0, b0, a1, b1, rng.uniform(0.3, 3.0))


@pytest.mark.parametrize("sector", ["gamma", "lambda"])
def test_spiral_propagator_is_transport(sector):
    # the two-step rotating-frame form against the transport propagator,
    # which shares no code with it, on spirals of up to ~13 turns
    rng = np.random.default_rng(71)
    for _ in range(300):
        seg = _random_spiral(rng, 80.0)
        sched = reverse_engineer(SchmidtPath((seg,)))
        (p,) = sched
        assert p.steps().shape == (4, 2)
        u = propagate(sched, sector)
        assert np.max(np.abs(u - _transport(seg, sector))) < 1e-13


@pytest.mark.parametrize("sector", ["gamma", "lambda"])
def test_spiral_propagator_is_limit_of_time_stepping(sector):
    # the paper's field sampled from the chart and stepped by the midpoint
    # rule converges to the closed form at second order: its distance falls
    # by ~4 per doubling of the sampling
    rng = np.random.default_rng(72)
    for _ in range(6):
        seg = _random_spiral(rng, 8.0)
        exact = propagate(reverse_engineer(SchmidtPath((seg,))), sector)
        errors = []
        for n in (200, 400):
            u = midpoint_propagator(seg, n, sector)
            errors.append(np.max(np.abs(u - exact)))
        assert errors[1] > 1e-11
        assert 3.5 < errors[0] / errors[1] < 4.5


def _random_arc(rng, clearance=1e-3):
    """A tilted rotation arc of up to two turns either way, from a start in
    the extended chart, at least `clearance` from both poles."""
    for _ in range(ARC_DRAWS):
        try:
            arc = rotation_arc(rng.uniform(-3.0, 3.0), rng.uniform(-7.0, 7.0),
                               tuple(rng.normal(size=3)),
                               rng.uniform(-4 * np.pi, 4 * np.pi),
                               rng.uniform(0.3, 3.0))
        except ValueError:
            continue
        if isinstance(arc, ArcSegment) and arc.clearance >= clearance:
            return arc
    raise RuntimeError(f"no arc {clearance} clear of the poles in "
                       f"{ARC_DRAWS} draws")


@pytest.mark.parametrize("sector", ["gamma", "lambda"])
def test_arc_propagator_is_transport(sector):
    # the two-step form in the frame turning about the axis against the
    # transport propagator, which shares no code with it
    rng = np.random.default_rng(81)
    for _ in range(1000):
        arc = _random_arc(rng)
        sched = reverse_engineer(SchmidtPath((arc,)))
        (p,) = sched
        assert p.steps().shape == (4, 2)
        u = propagate(sched, sector)
        assert np.max(np.abs(u - _transport(arc, sector))) < 1e-13


def _rodrigues(k, r, phi):
    """r rotated by each angle of phi about the unit axis k."""
    phi = np.asarray(phi)[..., None]
    return (np.cos(phi) * r + np.sin(phi) * np.cross(k, r)
            + (1 - np.cos(phi)) * np.dot(k, r) * k)


@pytest.mark.parametrize("clearance", [1e-8, 1e-6, 1e-4, 1e-2])
def test_near_pole_arc_propagator_is_transport(clearance):
    # arcs that pass either pole at the given clearance, where beta turns
    # by nearly pi within a few clearances of the closest approach; the
    # transport's end point is an independent np.unwrap lift on a grid
    # graded towards the closest approach, run in the arc's direction
    rng = np.random.default_rng(82)
    for _ in range(20):
        pole, tilt = rng.choice([1.0, -1.0]), rng.uniform(0.2, 1.3)
        az = rng.uniform(-np.pi, np.pi)
        k = np.array([np.sin(tilt) * np.cos(az), np.sin(tilt) * np.sin(az),
                      pole * np.cos(tilt)])
        top = np.array([-clearance * np.cos(az), -clearance * np.sin(az),
                        pole * np.sqrt(1.0 - clearance ** 2)])
        before, after = rng.uniform(0.05, 2.5, 2)
        sign = rng.choice([1.0, -1.0])
        r0 = _rodrigues(k, top, -sign * before)
        a0, b0 = np.arctan2(np.hypot(r0[0], r0[1]), r0[2]), np.arctan2(r0[1],
                                                                      r0[0])
        arc = rotation_arc(a0, b0, tuple(k), sign * (before + after), 1.0)
        assert arc.clearance == pytest.approx(clearance, rel=1e-6)
        near = np.geomspace(1e-3 * clearance, before + after, 3000)
        grid = np.unique(np.clip(np.concatenate([
            np.linspace(0.0, before + after, 2001), before - near,
            before + near]), 0.0, before + after))
        r = _rodrigues(np.array(arc.axis), sphere_point(a0, b0), sign * grid)
        beta = np.unwrap(np.arctan2(r[:, 1], r[:, 0]))
        beta += 2 * np.pi * np.round((b0 - beta[0]) / (2 * np.pi))
        a1 = np.arctan2(np.hypot(r[-1, 0], r[-1, 1]), r[-1, 2])
        for sector in ("gamma", "lambda"):
            u = propagate(reverse_engineer(SchmidtPath((arc,))), sector)
            expect = _transport_between(a0, b0, a1, beta[-1], sector)
            assert np.max(np.abs(u - expect)) < 1e-13


@pytest.mark.parametrize("sector", ["gamma", "lambda"])
def test_arc_propagator_is_limit_of_time_stepping(sector):
    # the paper's field sampled from the arc's chart and stepped by the
    # midpoint rule converges to the closed form at second order
    rng = np.random.default_rng(83)
    for _ in range(6):
        arc = _random_arc(rng, clearance=0.2)
        exact = propagate(reverse_engineer(SchmidtPath((arc,))), sector)
        errors = []
        for n in (400, 800):
            u = midpoint_propagator(arc, n, sector)
            errors.append(np.max(np.abs(u - exact)))
        assert errors[1] > 1e-11
        assert 3.5 < errors[0] / errors[1] < 4.5


def test_closed_loop_propagator_is_geometric_gate():
    # for a chart-closed loop the propagator equals the geometric gate with
    # effective angle (solid angle - 2 phi_plus); the two bookkeeping pieces
    # always recombine into the chart holonomy
    rng = np.random.default_rng(63)
    for _ in range(15):
        a0 = rng.uniform(0.2, np.pi - 0.2)
        b0 = rng.uniform(-np.pi, np.pi)
        turns = rng.choice([-1, 1])
        loop = SchmidtPath(
            (linear_segment(a0, b0, a0, b0 + 2 * np.pi * turns, 1.0),),
            closed=True)
        u = propagate(reverse_engineer(loop))
        omega = solid_angle(loop)
        phi_plus, phi_minus = dynamical_phase(loop)
        assert phi_minus == -phi_plus
        target = schmidt_gate(a0, b0, omega - 2 * phi_plus)
        assert np.max(np.abs(u - target)) < TOL


def test_orange_slice_path_properties():
    path = orange_slice_path(1.0, 2.0)
    assert path.closed
    assert solid_angle(path) == pytest.approx(-np.pi, abs=1e-12)
    phi_plus, phi_minus = dynamical_phase(path)
    assert abs(phi_plus) < 1e-15 and abs(phi_minus) < 1e-15
    with pytest.raises(ValueError):
        orange_slice_path(2.0, 1.0)
    with pytest.raises(ValueError):
        orange_slice_path(0.0, 1.0)


def test_two_pulse_schedule_gives_rotation_gate():
    sched = tilted_schedule(0.0, 1.0, 2.0)
    assert len(sched) == 2
    assert _is_zero(sched[0].turn) and _is_zero(sched[1].turn)
    assert np.allclose(_pieces(sched[0].frame), [[0.0], [0.0], [-np.pi / 2]])
    assert np.allclose(_pieces(sched[1].frame), [[-np.pi / 2], [0.0], [0.0]])
    u = propagate(sched)
    assert gate_fidelity(u, u_general(-np.pi)) > 1 - TOL
    # and the reverse-engineered orange slice gives the same propagator
    v = propagate(reverse_engineer(orange_slice_path(1.0, 2.0)))
    assert np.max(np.abs(u - v)) < TOL
    with pytest.raises(ValueError):
        tilted_schedule(0.0, 1.0, 1.0)


def test_orange_slice_lambda_sector():
    sched = reverse_engineer(orange_slice_path(1.0, 2.0))
    u = propagate(sched, "lambda")
    assert np.max(np.abs(u - schmidt_gate(np.pi / 2, np.pi / 2, -np.pi,
                                             sector="lambda"))) < TOL


def test_sampled_lambda_loop_is_lambda_gate():
    # a coordinate spiral closed by a meridian (a rotating pulse whose turn
    # is zero) in the lambda sector; the idle gamma pair is untouched exactly
    a0, b0, a1 = 0.6, 0.3, 1.4
    loop = SchmidtPath((
        linear_segment(a0, b0, a1, b0 + 2 * np.pi, 1.0),
        linear_segment(a1, b0 + 2 * np.pi, a0, b0 + 2 * np.pi, 0.7),
    ), closed=True)
    sched = reverse_engineer(loop)
    assert not _is_zero(sched[0].frame) and not _is_zero(sched[0].turn)
    assert _is_zero(sched[1].turn)
    u = propagate(sched, "lambda")
    phi_plus, _ = dynamical_phase(loop)
    target = schmidt_gate(a0, b0, solid_angle(loop) - 2 * phi_plus,
                          sector="lambda")
    assert np.max(np.abs(u - target)) < TOL
    gamma, lam = [1, 2], [0, 3]
    assert np.array_equal(u[np.ix_(gamma, gamma)], np.eye(2))
    assert np.array_equal(u[np.ix_(gamma, lam)], np.zeros((2, 2)))
    assert np.array_equal(u[np.ix_(lam, gamma)], np.zeros((2, 2)))


def test_reversed_loop_inverts_propagator():
    path = orange_slice_path(1.0, 2.0)
    u = propagate(reverse_engineer(path))
    v = propagate(reverse_engineer(reverse_path(path)))
    assert np.max(np.abs(u @ v - np.eye(4))) < TOL


def test_reversed_mixed_loop_negates_solid_angle_and_inverts_propagator():
    # a tilted arc, a sampled segment and a linear closing segment
    a0, b0 = 1.0, 0.4
    arc = rotation_arc(a0, b0, (0.3, -0.5, 0.8), 0.9, 1.0)
    end = arc.end_coords()
    s = np.linspace(0.0, 1.0, 301)
    sampled = SampledSegment(end.alpha + 0.4 * s + 0.1 * np.sin(np.pi * s),
                             end.beta - 0.7 * s, 1.5)
    mid = sampled.end_coords()
    closing = linear_segment(mid.alpha, mid.beta, a0, b0, 0.8)
    path = SchmidtPath((arc, sampled, closing), closed=True)
    back = reverse_path(path)
    assert back.closed
    assert solid_angle(back) == pytest.approx(-solid_angle(path), abs=1e-12)
    u = propagate(reverse_engineer(path))
    v = propagate(reverse_engineer(back))
    assert np.max(np.abs(v @ u - np.eye(4))) < 1e-9


def test_dynamical_phase_latitude_loop():
    a0, b0 = np.pi / 3, np.pi
    loop = SchmidtPath((linear_segment(a0, b0, a0, b0 - 2 * np.pi, 1.0),),
                       closed=True)
    phi_plus, _ = dynamical_phase(loop)
    assert phi_plus == pytest.approx(np.pi * np.cos(a0), abs=TOL)
    assert phi_plus == pytest.approx(np.pi / 2, abs=TOL)
    back_plus, _ = dynamical_phase(reverse_path(loop))
    assert back_plus == pytest.approx(-phi_plus, abs=TOL)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**63 - 1))
def test_dynamical_phase_matches_quadrature_along_the_exact_curve(seed):
    # phi+ = -(1/2) integral of cos(alpha) d beta, by Gauss-Legendre
    # quadrature along the exact curve of a random loop of polylines and
    # tilted arcs, 0.2 clear of the poles
    path = random_loop(np.random.default_rng(seed))
    phi_plus, phi_minus = dynamical_phase(path)
    expect = -0.5 * quadrature_cos_beta_integral(path)
    assert abs(phi_plus - expect) <= 1e-12
    assert phi_minus == -phi_plus


# ------------------------------------------------------- tilted and trotter


def _gamma(pair):
    """The gamma-sector 4x4 gate, or stack, of a Cayley-Klein pair."""
    return embed(*pair, "gamma")


def test_tilted_schedule_limits():
    assert gate_fidelity(_gamma(composed_tilted_gate(0.0)),
                         u_general(-np.pi)) > 1 - TOL
    assert gate_fidelity(_gamma(composed_tilted_gate(np.pi / 2)),
                         np.eye(4)) > 1 - TOL


def test_tilted_gate_rotation_angle_map():
    for theta in np.linspace(0.0, np.pi, 21):
        omega, residual = extract_rotation_angle(*composed_tilted_gate(theta))
        assert residual < TOL
        expect = np.arctan2(np.sin(2 * theta - np.pi),
                            np.cos(2 * theta - np.pi))
        assert abs(np.arctan2(np.sin(omega - expect),
                              np.cos(omega - expect))) < TOL


def test_extract_rotation_angle_round_trip():
    for w in np.linspace(-np.pi, np.pi, 17):
        u = u_general(w)
        omega, residual = extract_rotation_angle(u[1, 1], u[2, 1])
        assert abs(omega - w) < TOL
        assert residual < TOL
    # pairs outside the real rotation form report a large residual: a Z
    # rotation, whose a is imaginary, and an X rotation, whose a is the
    # cosine of the angle atan2 reads but whose b is imaginary
    for a, b in ((1j, 0.0), (np.sqrt(0.5), -1j * np.sqrt(0.5))):
        _, residual = extract_rotation_angle(a, b)
        assert residual > 0.5


def test_trotter_plan_validation():
    with pytest.raises(ValueError):
        trotter_propagate(0.3, 0)
    with pytest.raises(ValueError):
        trotter_propagate(0.3, 2.0)
    trotter_propagate(0.3, np.int64(4))


def test_trotter_step_counts_broadcast_against_theta():
    # an integer array of n broadcasts against theta, each element the
    # same arithmetic as its own call; n beyond int64 is a Python integer
    thetas = np.array([[0.0], [0.3], [-2.1], [np.pi / 2]])
    n = np.array([1, 2, 7, 4096, 2 ** 62])
    a, b = trotter_propagate(thetas, n)
    assert a.shape == b.shape == (4, 5)
    for i, theta in enumerate(thetas[:, 0]):
        for j, k in enumerate(n):
            assert (a[i, j], b[i, j]) == trotter_propagate(theta, int(k))
    huge = trotter_propagate(thetas[:, 0], 2 ** 70)
    assert np.array_equal(huge, trotter_propagate(thetas[:, 0],
                                                  [2 ** 70] * 4))
    # the splitting error is O(1/n), far below rounding, up to the largest
    # n a double holds
    exact = _gamma(tilted_segment_propagator(thetas[:, 0]))
    for u in (huge, trotter_propagate(thetas[:, 0], 10 ** 308)):
        assert np.max(np.abs(_gamma(u) - exact)) < 1e-15
    for bad in (np.array([3, 0]), [2.0], True, [2 ** 70, 1.5]):
        with pytest.raises(ValueError):
            trotter_propagate(0.3, bad)


def test_trotter_exact_at_axis_aligned_angles():
    for theta in (0.0, np.pi / 2):
        exact = _gamma(tilted_segment_propagator(theta))
        for n in (1, 3, 16, 257):
            u = _gamma(trotter_propagate(theta, n))
            assert np.max(np.abs(u - exact)) < 1e-13


def test_trotter_error_scales_quadratically():
    theta = np.pi / 4
    exact = _gamma(tilted_segment_propagator(theta))
    e32 = 1 - gate_fidelity(exact, _gamma(trotter_propagate(theta, 32)))
    e64 = 1 - gate_fidelity(exact, _gamma(trotter_propagate(theta, 64)))
    assert 3.5 < e32 / e64 < 4.5


def test_trotter_approaches_tilted_propagator():
    theta = 0.9
    exact = _gamma(tilted_segment_propagator(theta))
    u = _gamma(trotter_propagate(theta, 4096))
    assert gate_fidelity(u, exact) > 1 - 1e-7


def test_tilted_and_trotter_stacks_equal_per_theta_calls():
    # a stack of theta runs the same array arithmetic as one theta per call
    rng = np.random.default_rng(41)
    thetas = np.concatenate([rng.uniform(-4.0, 4.0, 60),
                             [0.0, -0.0, np.pi / 2, 5e-324]])
    exact = tilted_segment_propagator(thetas)
    composed = composed_tilted_gate(thetas)
    # the one pulse of the composed gate is the two-pulse schedule
    assert np.array_equal(_gamma(composed),
                          propagate(tilted_schedule(thetas, 1.0, 2.0)))
    omega, residual = extract_rotation_angle(*composed)
    for pair in (exact, composed):
        assert pair[0].shape == pair[1].shape == thetas.shape
    for n in (1, 2, 7, 512):
        approx = trotter_propagate(thetas, n)
        fidelity = gate_fidelity(_gamma(exact), _gamma(approx))
        for k, theta in enumerate(thetas):
            one = trotter_propagate(theta, n)
            assert (approx[0][k], approx[1][k]) == one
            assert fidelity[k] == gate_fidelity(
                _gamma((exact[0][k], exact[1][k])), _gamma(one))
    for k, theta in enumerate(thetas):
        assert (exact[0][k], exact[1][k]) == tilted_segment_propagator(theta)
        assert (composed[0][k], composed[1][k]) == composed_tilted_gate(theta)
        assert (omega[k], residual[k]) == extract_rotation_angle(
            composed[0][k], composed[1][k])
    # leading axes of any shape
    grid = thetas[:60].reshape(3, 4, 5)
    assert np.array_equal(trotter_propagate(grid, 9),
                          [x.reshape(3, 4, 5)
                           for x in trotter_propagate(thetas[:60], 9)])


def test_trotter_powers_match_closed_form():
    # One step S = exp(+i k cos(theta) X) exp(-i k sin(theta) Z), k = pi/2n,
    # is cos(phi) I - i sin(phi) (n.sigma) with, from the SU(2) product
    # rule, cos(phi) = cos(k c) cos(k s) and sin(phi) n =
    # (-sin(k c) cos(k s), sin(k c) sin(k s), cos(k c) sin(k s)); so S^n
    # is cos(n phi) I - i sin(n phi) (n.sigma), embedded on |01>, |10>.
    # trotter_propagate powers the step in closed form too, so the two
    # agree to rounding at any n (binary powering drifted by ~n eps).
    thetas = np.linspace(-np.pi, np.pi, 41)
    for n in (1, 2, 3, 16, 255, 1024, 4096, 65536):
        k = np.pi / (2.0 * n)
        kc, ks = k * np.cos(thetas), k * np.sin(thetas)
        v = np.stack([-np.sin(kc) * np.cos(ks), np.sin(kc) * np.sin(ks),
                      np.cos(kc) * np.sin(ks)], axis=-1)
        sin_phi = np.linalg.norm(v, axis=-1)
        phi = np.arctan2(sin_phi, np.cos(kc) * np.cos(ks))
        axis = v / sin_phi[:, None]
        x, y, z = axis.T
        c, s = np.cos(n * phi), np.sin(n * phi)
        closed = np.zeros((thetas.size, 4, 4), dtype=complex)
        closed[:, 0, 0] = closed[:, 3, 3] = 1.0
        closed[:, 1, 1] = c - 1j * s * z
        closed[:, 1, 2] = -1j * s * (x - 1j * y)
        closed[:, 2, 1] = -1j * s * (x + 1j * y)
        closed[:, 2, 2] = c + 1j * s * z
        assert np.max(np.abs(_gamma(trotter_propagate(thetas, n))
                              - closed)) < 1e-14
