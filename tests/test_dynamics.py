import numpy as np
import pytest

from schmidt_gates.dynamics import (
    H_DM,
    H_XY,
    H_Z,
    L_DM,
    L_XY,
    L_Z,
    ConstantPulse,
    HamiltonianSchedule,
    SampledPulse,
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
from schmidt_gates.linalg import gate_fidelity
from schmidt_gates.sphere import (
    LinearSegment,
    SampledSegment,
    SchmidtPath,
    assemble_state,
    equator_arc,
    meridian_arc,
    rotation_arc,
    solid_angle,
    sphere_point,
)

TOL = 1e-12
TOL_SAMPLED = 1e-6


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


def test_pulse_and_schedule_validation():
    with pytest.raises(ValueError):
        ConstantPulse(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        SampledPulse(np.array([0.0]), np.array([1.0]), np.array([1.0]),
                     np.array([1.0]))
    with pytest.raises(ValueError):
        SampledPulse(np.linspace(0, 1, 4), np.zeros(3), np.zeros(4),
                     np.zeros(4))
    with pytest.raises(ValueError):
        HamiltonianSchedule((ConstantPulse(1.0, 0, 0, 0),), sector="nu")
    sched = HamiltonianSchedule((ConstantPulse(1.0, 0, 0, 0),
                                 ConstantPulse(0.5, 0, 0, 0)))
    assert sched.duration == pytest.approx(1.5)


# ------------------------------------------------- reverse engineering


def test_reverse_engineer_constant_pulse_coefficients():
    # equator arc: pure splitting pulse at half the beta rate
    sched = reverse_engineer(SchmidtPath((equator_arc(0.2, 1.4, 2.0),)))
    (p,) = sched.pulses
    assert isinstance(p, ConstantPulse)
    assert p.c_xy == pytest.approx(0.0, abs=TOL)
    assert p.c_dm == pytest.approx(0.0, abs=TOL)
    assert p.c_z == pytest.approx(0.5 * 1.2 / 2.0, abs=TOL)

    # meridian arc: exchange mix at half the alpha rate
    beta = -0.8
    sched = reverse_engineer(SchmidtPath((meridian_arc(beta, 0.3, 1.7, 2.0),)))
    (p,) = sched.pulses
    rate = (1.7 - 0.3) / 2.0
    assert p.c_xy == pytest.approx(-0.5 * rate * np.sin(beta), abs=TOL)
    assert p.c_dm == pytest.approx(+0.5 * rate * np.cos(beta), abs=TOL)
    assert p.c_z == pytest.approx(0.0, abs=TOL)

    # rotation about z is a latitude arc: constant splitting pulse
    seg = rotation_arc(0.9, 0.1, (0.0, 0.0, -1.0), 0.5, 2.0)
    sched = reverse_engineer(SchmidtPath((seg,)))
    (p,) = sched.pulses
    assert isinstance(p, ConstantPulse)
    assert np.allclose([p.c_xy, p.c_dm, p.c_z], [0.0, 0.0, -0.5 * 0.25],
                       atol=TOL)

    # a tilted rotation axis is resampled through the chart lift
    seg = rotation_arc(0.9, 0.1, (0.6, 0.0, 0.8), 0.5, 2.0, samples=401)
    sched = reverse_engineer(SchmidtPath((seg,)), samples_per_segment=401)
    (p,) = sched.pulses
    assert isinstance(p, SampledPulse)
    t, alpha, beta = seg.sample(401)
    da = np.gradient(alpha, t, edge_order=2)
    db = np.gradient(beta, t, edge_order=2)
    assert np.allclose(p.c_xy, -0.5 * da * np.sin(beta), atol=TOL)
    assert np.allclose(p.c_dm, +0.5 * da * np.cos(beta), atol=TOL)
    assert np.allclose(p.c_z, 0.5 * db, atol=TOL)


def test_reverse_engineer_sampled_coefficients():
    seg = LinearSegment(0.3, 0.0, 1.2, 3.0, 1.0)
    sched = reverse_engineer(SchmidtPath((seg,)), samples_per_segment=501)
    (p,) = sched.pulses
    assert isinstance(p, SampledPulse)
    t, _, beta = seg.sample(501)
    assert np.allclose(p.times, t, atol=TOL)
    assert np.allclose(p.c_xy, -0.5 * seg.alpha_rate * np.sin(beta), atol=TOL)
    assert np.allclose(p.c_dm, +0.5 * seg.alpha_rate * np.cos(beta), atol=TOL)
    assert np.allclose(p.c_z, 0.5 * seg.beta_rate, atol=TOL)


def test_effective_field_precesses_sphere_point():
    # r' = B x r with B = 2 (c_xy, c_dm, c_z) along the driven path
    rng = np.random.default_rng(61)
    for _ in range(10):
        seg = LinearSegment(rng.uniform(0.3, 1.3), rng.uniform(-2, 2),
                            rng.uniform(0.3, 1.3), rng.uniform(-2, 2),
                            rng.uniform(0.5, 2.0))
        sched = reverse_engineer(SchmidtPath((seg,)), samples_per_segment=2001)
        (p,) = sched.pulses
        t, alpha, beta = seg.sample(2001)
        r = np.stack([sphere_point(a, b) for a, b in zip(alpha, beta)])
        dr = np.gradient(r, t, axis=0, edge_order=2)
        if isinstance(p, ConstantPulse):
            field = np.broadcast_to(
                2 * np.array([p.c_xy, p.c_dm, p.c_z]), r.shape)
        else:
            field = 2 * np.stack([p.c_xy, p.c_dm, p.c_z], axis=1)
        assert np.max(np.abs(dr - np.cross(field, r))) < 1e-5


def test_omega22_identity():
    # i (f' conj(f) + g conj(g')) equals beta'/2 along any chart path
    seg = LinearSegment(0.2, -1.0, 1.4, 2.0, 1.0)
    t, alpha, beta = seg.sample(100001)
    f = np.exp(-0.5j * beta) * np.cos(0.5 * alpha)
    g = np.exp(+0.5j * beta) * np.sin(0.5 * alpha)
    df = np.gradient(f, t, edge_order=2)
    dg = np.gradient(g, t, edge_order=2)
    omega22 = 1j * (df * np.conj(f) + g * np.conj(dg))
    assert np.max(np.abs(omega22 - 0.5 * seg.beta_rate)) < 1e-8


# ------------------------------------------------------------ propagation


@pytest.mark.parametrize("sector", ["gamma", "lambda"])
def test_propagate_empty_schedule_is_identity(sector):
    u = propagate(HamiltonianSchedule((), sector=sector))
    assert u.dtype == np.complex128
    assert np.array_equal(u, np.eye(4))


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
    seg = rotation_arc(1.1, 0.4, (0.3, -0.5, 0.8), 1.3, 1.0, samples=4000)
    path = SchmidtPath((seg,))
    u = propagate(reverse_engineer(path, samples_per_segment=4000))
    start, end = path.start_coords(), path.end_coords()
    for br in ("gamma+", "gamma-"):
        psi0 = assemble_state(start.alpha, start.beta, br)
        psi1 = assemble_state(end.alpha, end.beta, br)
        assert np.max(np.abs(u @ psi0 - psi1)) < TOL_SAMPLED


def test_propagate_drags_sampled_segment():
    seg = LinearSegment(0.3, 0.0, 1.2, 3.0, 1.0)
    path = SchmidtPath((seg,))
    u = propagate(reverse_engineer(path, samples_per_segment=4000))
    start, end = path.start_coords(), path.end_coords()
    for br in ("gamma+", "gamma-"):
        psi0 = assemble_state(start.alpha, start.beta, br)
        psi1 = assemble_state(end.alpha, end.beta, br)
        assert np.max(np.abs(u @ psi0 - psi1)) < TOL_SAMPLED


def test_propagate_sampled_convergence_under_doubling():
    seg = LinearSegment(0.3, 0.0, 1.2, 3.0, 1.0)
    path = SchmidtPath((seg,))
    u1 = propagate(reverse_engineer(path, samples_per_segment=10000))
    u2 = propagate(reverse_engineer(path, samples_per_segment=20000))
    assert np.max(np.abs(u1 - u2)) < 1e-8


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
            (LinearSegment(a0, b0, a0, b0 + 2 * np.pi * turns, 1.0),),
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
    assert len(sched.pulses) == 2
    assert sched.pulses[0].c_z == pytest.approx(-np.pi / 2)
    assert sched.pulses[1].c_xy == pytest.approx(-np.pi / 2)
    u = propagate(sched)
    assert gate_fidelity(u, u_general(-np.pi)) > 1 - TOL
    # and the reverse-engineered orange slice gives the same propagator
    v = propagate(reverse_engineer(orange_slice_path(1.0, 2.0)))
    assert np.max(np.abs(u - v)) < TOL
    with pytest.raises(ValueError):
        tilted_schedule(0.0, 1.0, 1.0)


def test_orange_slice_lambda_sector():
    sched = reverse_engineer(orange_slice_path(1.0, 2.0), sector="lambda")
    u = propagate(sched)
    assert np.max(np.abs(u - schmidt_gate(np.pi / 2, np.pi / 2, -np.pi,
                                             sector="lambda"))) < TOL


def test_sampled_lambda_loop_is_lambda_gate():
    # a coordinate spiral (sampled pulse) closed by a meridian (constant
    # pulse) in the lambda sector; the idle gamma pair is untouched exactly
    a0, b0, a1 = 0.6, 0.3, 1.4
    loop = SchmidtPath((
        LinearSegment(a0, b0, a1, b0 + 2 * np.pi, 1.0),
        LinearSegment(a1, b0 + 2 * np.pi, a0, b0 + 2 * np.pi, 0.7),
    ), closed=True)
    sched = reverse_engineer(loop, sector="lambda", samples_per_segment=4000)
    assert isinstance(sched.pulses[0], SampledPulse)
    u = propagate(sched)
    phi_plus, _ = dynamical_phase(loop)
    target = schmidt_gate(a0, b0, solid_angle(loop) - 2 * phi_plus,
                          sector="lambda")
    assert np.max(np.abs(u - target)) < TOL_SAMPLED
    gamma, lam = [1, 2], [0, 3]
    assert np.array_equal(u[np.ix_(gamma, gamma)], np.eye(2))
    assert np.array_equal(u[np.ix_(gamma, lam)], np.zeros((2, 2)))
    assert np.array_equal(u[np.ix_(lam, gamma)], np.zeros((2, 2)))


def test_reversed_loop_inverts_propagator():
    path = orange_slice_path(1.0, 2.0)
    u = propagate(reverse_engineer(path))
    v = propagate(reverse_engineer(path.reversed()))
    assert np.max(np.abs(u @ v - np.eye(4))) < TOL


def test_reversed_mixed_loop_negates_solid_angle_and_inverts_propagator():
    # a tilted arc, a sampled segment and a linear closing segment
    a0, b0 = 1.0, 0.4
    arc = rotation_arc(a0, b0, (0.3, -0.5, 0.8), 0.9, 1.0, samples=2000)
    end = arc.end_coords()
    s = np.linspace(0.0, 1.0, 301)
    sampled = SampledSegment(end.alpha + 0.4 * s + 0.1 * np.sin(np.pi * s),
                             end.beta - 0.7 * s, 1.5)
    mid = sampled.end_coords()
    closing = LinearSegment(mid.alpha, mid.beta, a0, b0, 0.8)
    path = SchmidtPath((arc, sampled, closing), closed=True)
    back = path.reversed()
    assert back.closed
    assert solid_angle(back) == pytest.approx(-solid_angle(path), abs=1e-9)
    u = propagate(reverse_engineer(path, samples_per_segment=2000))
    v = propagate(reverse_engineer(back, samples_per_segment=2000))
    assert np.max(np.abs(v @ u - np.eye(4))) < 1e-9
    again = back.reversed().segments
    assert again[2] == closing
    assert np.array_equal(again[1].alpha, sampled.alpha)
    assert np.array_equal(again[1].beta, sampled.beta)
    assert again[1].duration == sampled.duration
    assert np.array_equal(again[0].alpha, arc.alpha)
    assert np.array_equal(again[0].beta, arc.beta)
    assert again[0].duration == arc.duration
    assert again[0].start_coords().alpha == pytest.approx(a0, abs=1e-12)
    assert again[0].start_coords().beta == pytest.approx(b0, abs=1e-12)


def test_dynamical_phase_latitude_loop():
    a0, b0 = np.pi / 3, np.pi
    loop = SchmidtPath((LinearSegment(a0, b0, a0, b0 - 2 * np.pi, 1.0),),
                       closed=True)
    phi_plus, _ = dynamical_phase(loop)
    assert phi_plus == pytest.approx(np.pi * np.cos(a0), abs=TOL)
    assert phi_plus == pytest.approx(np.pi / 2, abs=TOL)
    back_plus, _ = dynamical_phase(loop.reversed())
    assert back_plus == pytest.approx(-phi_plus, abs=TOL)


# ------------------------------------------------------- tilted and trotter


def test_tilted_schedule_limits():
    assert gate_fidelity(composed_tilted_gate(0.0), u_general(-np.pi)) > 1 - TOL
    assert gate_fidelity(composed_tilted_gate(np.pi / 2), np.eye(4)) > 1 - TOL


def test_tilted_gate_rotation_angle_map():
    for theta in np.linspace(0.0, np.pi, 21):
        omega, residual = extract_rotation_angle(composed_tilted_gate(theta))
        assert residual < TOL
        expect = np.arctan2(np.sin(2 * theta - np.pi),
                            np.cos(2 * theta - np.pi))
        assert abs(np.arctan2(np.sin(omega - expect),
                              np.cos(omega - expect))) < TOL


def test_extract_rotation_angle_round_trip():
    for w in np.linspace(-np.pi, np.pi, 17):
        omega, residual = extract_rotation_angle(u_general(w))
        assert abs(omega - w) < TOL
        assert residual < TOL
    # a gate outside the family reports a large residual
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    _, residual = extract_rotation_angle(cnot)
    assert residual > 0.5


def test_trotter_plan_validation():
    with pytest.raises(ValueError):
        trotter_propagate(0.3, 0)
    with pytest.raises(ValueError):
        trotter_propagate(0.3, 2.0)
    trotter_propagate(0.3, np.int64(4))


def test_trotter_exact_at_axis_aligned_angles():
    for theta in (0.0, np.pi / 2):
        exact = tilted_segment_propagator(theta)
        for n in (1, 3, 16, 257):
            u = trotter_propagate(theta, n)
            assert np.max(np.abs(u - exact)) < 1e-13


def test_trotter_error_scales_quadratically():
    theta = np.pi / 4
    exact = tilted_segment_propagator(theta)
    e32 = 1 - gate_fidelity(exact, trotter_propagate(theta, 32))
    e64 = 1 - gate_fidelity(exact, trotter_propagate(theta, 64))
    assert 3.5 < e32 / e64 < 4.5


def test_trotter_approaches_tilted_propagator():
    theta = 0.9
    exact = tilted_segment_propagator(theta)
    u = trotter_propagate(theta, 4096)
    assert gate_fidelity(u, exact) > 1 - 1e-7


def test_tilted_and_trotter_stacks_equal_per_theta_calls():
    # a stack of theta runs the same array arithmetic as one theta per call
    rng = np.random.default_rng(41)
    thetas = np.concatenate([rng.uniform(-4.0, 4.0, 60),
                             [0.0, -0.0, np.pi / 2, 5e-324]])
    exact = tilted_segment_propagator(thetas)
    composed = composed_tilted_gate(thetas)
    omega, residual = extract_rotation_angle(composed)
    assert exact.shape == composed.shape == (thetas.size, 4, 4)
    for n in (1, 2, 7, 512):
        approx = trotter_propagate(thetas, n)
        fidelity = gate_fidelity(exact, approx)
        for k, theta in enumerate(thetas):
            one = trotter_propagate(theta, n)
            assert np.array_equal(approx[k], one)
            assert fidelity[k] == gate_fidelity(exact[k], one)
    for k, theta in enumerate(thetas):
        assert np.array_equal(exact[k], tilted_segment_propagator(theta))
        assert np.array_equal(composed[k], composed_tilted_gate(theta))
        assert (omega[k], residual[k]) == extract_rotation_angle(composed[k])
    # leading axes of any shape
    grid = thetas[:60].reshape(3, 4, 5)
    assert np.array_equal(trotter_propagate(grid, 9),
                          trotter_propagate(thetas[:60], 9).reshape(3, 4, 5,
                                                                    4, 4))


def test_trotter_powers_match_closed_form():
    # One step S = exp(+i k cos(theta) X) exp(-i k sin(theta) Z), k = pi/2n,
    # is cos(phi) I - i sin(phi) (n.sigma) with, from the SU(2) product
    # rule, cos(phi) = cos(k c) cos(k s) and sin(phi) n =
    # (-sin(k c) cos(k s), sin(k c) sin(k s), cos(k c) sin(k s)); so S^n
    # is cos(n phi) I - i sin(n phi) (n.sigma), embedded on |01>, |10>.
    thetas = np.linspace(-np.pi, np.pi, 41)
    for n in (1, 2, 3, 16, 255, 1024, 4096):
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
        assert np.max(np.abs(trotter_propagate(thetas, n) - closed)) < 1e-11
