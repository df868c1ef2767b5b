"""Acceptance suite: twelve numbered criteria, one test per criterion.

Each test prints a single `criterion NN: PASS` line with the measured
numbers once its assertions have passed; run with `pytest -v` (add `-s`
to see the lines inline).
"""

import time
from functools import lru_cache

import numpy as np

from schmidt_gates.dynamics import (
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
from schmidt_gates.invariants import (
    classify,
    closed_form_invariants,
    makhlin_invariants,
)
from schmidt_gates.linalg import embed, gate_fidelity, phase_aligned_distance
from schmidt_gates.sphere import (
    SchmidtPath,
    concurrence,
    equator_arc,
    meridian_arc,
    schmidt_decompose,
    solid_angle,
)

from reference import H_DM, H_XY, H_Z

ISWAP_LIKE = np.array([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, -1, 0, 0],
    [0, 0, 0, 1],
], dtype=complex)


@lru_cache(maxsize=1)
def entangling_map_grid():
    """Classified 200x200 (alpha0, omega) grid used by criteria 4 and 5."""
    alphas = np.linspace(0.0, np.pi / 2, 200)
    omegas = np.linspace(-np.pi, np.pi, 200)
    inv = makhlin_invariants(schmidt_gate(alphas[:, None], 0.0, omegas))
    return alphas, omegas, inv.g1.real, classify(inv)


def test_criterion_01_two_pulse_reproduces_rotation_gate():
    t0 = time.perf_counter()
    u = propagate(tilted_schedule(0.0, 1.0, 2.0))
    elapsed = time.perf_counter() - t0
    fid = gate_fidelity(u, ISWAP_LIKE)
    assert fid >= 1.0 - 1e-12
    assert elapsed < 1.0
    print(f"criterion 01: PASS - two-pulse propagator matches the rotation "
          f"gate, fidelity deficit {1 - fid:.2e}, {elapsed * 1e3:.1f} ms")


def test_criterion_02_equator_closed_form_invariants():
    worst = 0.0
    for w in np.linspace(-2 * np.pi, 2 * np.pi, 101):
        inv = makhlin_invariants(u_general(w))
        worst = max(worst,
                    abs(inv.g1 - np.cos(0.5 * w) ** 4),
                    abs(inv.g2 - (1.0 + 2.0 * np.cos(w))))
    assert worst <= 1e-12
    print(f"criterion 02: PASS - equator invariants match "
          f"(cos^4(omega/2), 1+2cos(omega)) on 101 points, "
          f"max deviation {worst:.2e}")


def test_criterion_03_general_invariants_closed_form():
    rng = np.random.default_rng(103)
    worst = 0.0
    worst_beta = 0.0
    for _ in range(1000):
        a0 = rng.uniform(0.0, np.pi)
        b0 = rng.uniform(-np.pi, np.pi)
        w = rng.uniform(-2 * np.pi, 2 * np.pi)
        inv = makhlin_invariants(schmidt_gate(a0, b0, w))
        ref = closed_form_invariants(a0, w)
        worst = max(worst, abs(inv.g1 - ref.g1), abs(inv.g2 - ref.g2))
        alt = makhlin_invariants(schmidt_gate(a0, rng.uniform(-np.pi, np.pi), w))
        worst_beta = max(worst_beta, abs(inv.g1 - alt.g1), abs(inv.g2 - alt.g2))
    assert worst <= 1e-10
    assert worst_beta <= 1e-12
    print(f"criterion 03: PASS - 1000 random gates match the closed form "
          f"(max {worst:.2e}); beta0-independent to {worst_beta:.2e}")


def test_criterion_04_entangling_map():
    alphas, omegas, _, cls = entangling_map_grid()
    entangling = np.array([[c != "NOT_PE" for c in row]
                           for row in cls])
    spe = np.array([[c == "SPE" for c in row] for row in cls])

    # entangling classes appear only at alpha0 >= pi/4 (up to 1e-6)
    bad_rows = entangling.any(axis=1) & (alphas < np.pi / 4 - 1e-6)
    assert not bad_rows.any()

    # SPE appears only in the equator column
    spe_rows = spe.any(axis=1)
    assert np.all(np.abs(alphas[spe_rows] - np.pi / 2) <= 1e-6)
    assert spe.sum() == spe[-1].sum() == 2

    # equator window: pi/2 <= |omega| <= pi within one grid step
    step = omegas[1] - omegas[0]
    eq = entangling[-1]
    inside = np.abs(omegas) >= np.pi / 2 + step
    outside = np.abs(omegas) <= np.pi / 2 - step
    assert eq[inside].all()
    assert not eq[outside].any()
    print(f"criterion 04: PASS - 200x200 map: entangling only above "
          f"alpha0 = pi/4, SPE confined to the equator column "
          f"({int(spe.sum())} points), equator window "
          f"pi/2 <= |omega| <= pi")


def test_criterion_05_g1_lower_bound():
    alphas, _, g1, _ = entangling_map_grid()
    margin = g1 - np.cos(alphas)[:, None] ** 4
    assert margin.min() >= -1e-10
    print(f"criterion 05: PASS - G1 >= cos^4(alpha0) across the map, "
          f"smallest margin {margin.min():.2e}")


def test_criterion_06_orange_slice_geometry():
    path = orange_slice_path(1.0, 2.0)
    omega = solid_angle(path)
    phi_plus, phi_minus = dynamical_phase(path)
    assert abs(omega + np.pi) <= 1e-9
    assert abs(phi_plus) <= 1e-10 and abs(phi_minus) <= 1e-10
    print(f"criterion 06: PASS - orange slice: solid angle "
          f"{omega:.12f} (-pi {omega + np.pi:+.2e}), dynamical phase "
          f"{phi_plus:.2e}")


def test_criterion_07_holonomy_of_geodesic_pair_loops():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(50):
        b0 = rng.uniform(-np.pi, np.pi)
        sign = rng.choice([-1.0, 1.0])
        t1 = rng.uniform(0.2, 2.0)
        t2 = rng.uniform(0.2, 2.0)
        # equator chord to the antipodal meridian, then return through the
        # north pole; the chart end is the identified copy of the start
        path = SchmidtPath((
            equator_arc(b0, b0 + sign * np.pi, t1),
            meridian_arc(b0 + sign * np.pi, np.pi / 2, -np.pi / 2, t2),
        ), closed=True)
        omega = solid_angle(path)
        u = propagate(reverse_engineer(path))
        fid = gate_fidelity(u, schmidt_gate(np.pi / 2, b0, omega))
        worst = max(worst, 1.0 - fid)
    assert worst <= 1e-8
    print(f"criterion 07: PASS - 50 geodesic-pair loops reproduce the "
          f"geometric gate, worst fidelity deficit {worst:.2e}")


def test_criterion_08_operator_algebra_and_gate_commutation():
    algebra = max(
        np.max(np.abs(H_XY @ H_DM - H_DM @ H_XY - 2j * H_Z)),
        np.max(np.abs(H_DM @ H_Z - H_Z @ H_DM - 2j * H_XY)),
        np.max(np.abs(H_Z @ H_XY - H_XY @ H_Z - 2j * H_DM)),
    )
    assert algebra <= 1e-15

    rng = np.random.default_rng(108)

    def unit2():
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        return v / np.linalg.norm(v)

    worst = 0.0
    for k in range(100):
        frame = (unit2(), unit2()) if k % 2 else None
        g = schmidt_gate(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi),
                         rng.uniform(-2 * np.pi, 2 * np.pi), frame=frame)
        l = schmidt_gate(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi),
                         rng.uniform(-2 * np.pi, 2 * np.pi), sector="lambda",
                         frame=frame)
        worst = max(worst, np.max(np.abs(g @ l - l @ g)))
    assert worst <= 1e-12
    print(f"criterion 08: PASS - su(2) relations exact to {algebra:.1e}; "
          f"sector gates commute to {worst:.2e} over 100 draws")


def test_criterion_09_rotation_gate_entangles_product_basis():
    worst = 1.0
    for sa in (+1.0, -1.0):
        for sb in (+1.0, -1.0):
            psi = 0.5 * np.kron([1.0, sa], [1.0, sb])
            c = concurrence(ISWAP_LIKE @ psi)
            worst = min(worst, c)
            assert abs(c - 1.0) <= 1e-12
    print(f"criterion 09: PASS - the rotation gate sends all four "
          f"(|0>+-|1>)x(|0>+-|1>) states to concurrence 1 "
          f"(worst {worst:.15f})")


def test_criterion_10_trotter_error_halves_per_doubling():
    theta = np.pi / 4
    exact = embed(*tilted_segment_propagator(theta), "gamma")
    ns = [4, 8, 16, 32, 64, 128, 256]
    dist = {}
    infid = {}
    for n in ns:
        u = embed(*trotter_propagate(theta, n), "gamma")
        dist[n] = phase_aligned_distance(exact, u)
        infid[n] = max(0.0, 1.0 - gate_fidelity(exact, u))
    ratios = [dist[n] / dist[2 * n] for n in ns[:-1]]
    for r in ratios:
        assert 1.7 <= r <= 2.3
    # the squared measure falls four-fold per doubling, consistent with the
    # linear measure halving
    sq_ratios = [infid[n] / infid[2 * n] for n in ns[:-1]]

    worst_exact = 0.0
    for th in (0.0, np.pi / 2):
        ref = embed(*tilted_segment_propagator(th), "gamma")
        for n in ns:
            u = embed(*trotter_propagate(th, n), "gamma")
            worst_exact = max(worst_exact, np.max(np.abs(u - ref)))
    assert worst_exact <= 1e-13
    print(f"criterion 10: PASS - phase-aligned Trotter error halves per "
          f"doubling (ratios {min(ratios):.3f}..{max(ratios):.3f}; squared "
          f"trace measure {min(sq_ratios):.2f}..{max(sq_ratios):.2f}); "
          f"axis-aligned angles exact to {worst_exact:.1e}")


def test_criterion_11_decompose_assemble_round_trip():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(1000):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        dec = schmidt_decompose(psi)
        fid = abs(np.vdot(dec.reassemble(), psi))
        worst = max(worst, 1.0 - fid)
    assert worst <= 1e-12
    print(f"criterion 11: PASS - 1000 random states survive the "
          f"decompose/assemble round trip, worst fidelity deficit "
          f"{worst:.2e}")


def test_criterion_12_empirical_rotation_angle_curve():
    thetas = np.linspace(0.0, np.pi / 2, 19)
    worst_line = 0.0
    worst_residual = 0.0
    worst_inv = 0.0
    curve = []
    for th in thetas:
        pair = composed_tilted_gate(th)
        omega, residual = extract_rotation_angle(*pair)
        curve.append(omega)
        worst_residual = max(worst_residual, residual)
        worst_line = max(worst_line, abs(omega - (2.0 * th - np.pi)))
        # self-consistency: the emitted angle reproduces the measured
        # invariants of the composed gate through the closed form
        inv = makhlin_invariants(embed(*pair, "gamma"))
        ref = closed_form_invariants(np.pi / 2, omega)
        worst_inv = max(worst_inv, abs(inv.g1 - ref.g1), abs(inv.g2 - ref.g2))
    assert worst_residual <= 1e-9
    assert worst_line <= 1e-9
    assert worst_inv <= 1e-10
    print(f"criterion 12: PASS - emitted rotation-angle curve follows "
          f"2*theta - pi (max deviation {worst_line:.2e}) and is "
          f"self-consistent with the measured invariants to {worst_inv:.2e}")
