import numpy as np
import pytest

from schmidt_gates.gates import schmidt_gate, u_general
from schmidt_gates.invariants import (
    EntanglerClass,
    LocalInvariants,
    bell_transform,
    classify,
    closed_form_invariants,
    makhlin_invariants,
)
from schmidt_gates.linalg import (
    embed,
    su2_product,
    tensor_product,
    unitarity_defect,
)

TOL = 1e-12

CNOT = np.array([
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
], dtype=complex)

SWAP = np.array([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
], dtype=complex)

SQRT_SWAP = np.array([
    [1, 0, 0, 0],
    [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
    [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
    [0, 0, 0, 1],
], dtype=complex)


def random_unitary2(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_bell_transform_is_unitary_magic_basis():
    q = bell_transform()
    assert unitarity_defect(q) < TOL
    s = 1 / np.sqrt(2)
    cols = np.array([
        [s, 0, 0, s],
        [0, 1j * s, 1j * s, 0],
        [0, s, -s, 0],
        [1j * s, 0, 0, -1j * s],
    ]).T
    assert np.max(np.abs(q - cols)) < TOL


def test_reference_gate_invariants():
    cases = [
        (np.eye(4, dtype=complex), 1.0 + 0j, 3.0),
        (CNOT, 0.0 + 0j, 1.0),
        (u_general(-np.pi), 0.0 + 0j, -1.0),
        (SWAP, -1.0 + 0j, -3.0),
        (SQRT_SWAP, -0.25j, 0.0),
    ]
    for u, g1, g2 in cases:
        inv = makhlin_invariants(u)
        assert abs(inv.g1 - g1) < TOL
        assert abs(inv.g2 - g2) < TOL


def test_invariance_under_local_unitaries():
    rng = np.random.default_rng(51)
    for _ in range(40):
        u = schmidt_gate(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi),
                         rng.uniform(-2 * np.pi, 2 * np.pi))
        before = tensor_product(random_unitary2(rng), random_unitary2(rng))
        after = tensor_product(random_unitary2(rng), random_unitary2(rng))
        inv0 = makhlin_invariants(u)
        inv1 = makhlin_invariants(after @ u @ before)
        assert abs(inv0.g1 - inv1.g1) < TOL
        assert abs(inv0.g2 - inv1.g2) < TOL


def test_invariance_under_global_phase():
    rng = np.random.default_rng(52)
    u = u_general(1.1)
    inv0 = makhlin_invariants(u)
    for _ in range(10):
        inv = makhlin_invariants(np.exp(1j * rng.uniform(-np.pi, np.pi)) * u)
        assert abs(inv.g1 - inv0.g1) < TOL
        assert abs(inv.g2 - inv0.g2) < TOL


def test_closed_form_matches_pipeline():
    rng = np.random.default_rng(53)
    for _ in range(60):
        a0 = rng.uniform(0, np.pi)
        b0 = rng.uniform(-np.pi, np.pi)
        w = rng.uniform(-2 * np.pi, 2 * np.pi)
        inv = makhlin_invariants(schmidt_gate(a0, b0, w))
        ref = closed_form_invariants(a0, w)
        assert abs(inv.g1 - ref.g1) < TOL
        assert abs(inv.g2 - ref.g2) < TOL


@pytest.mark.parametrize("sector", ["gamma", "lambda"])
def test_sector_block_invariants_closed_form(sector):
    # any SU(2) block U = [[a, -conj(b)], [b, conj(a)]] on a sector pair has
    # G1 = |a|^4 and G2 = 3 - 4 |b|^2, a route that shares no code with the
    # Bell-basis computation
    x = np.random.default_rng(57).normal(size=(4, 2000))
    x /= np.linalg.norm(x, axis=0)
    for a, b in zip(x[0] + 1j * x[1], x[2] + 1j * x[3]):
        inv = makhlin_invariants(embed(su2_product(a, b), sector))
        assert abs(inv.g1 - abs(a) ** 4) <= 1e-14
        assert abs(inv.g2 - (3.0 - 4.0 * abs(b) ** 2)) <= 1e-14


def test_closed_form_beta_independence():
    rng = np.random.default_rng(54)
    for _ in range(20):
        a0 = rng.uniform(0, np.pi)
        w = rng.uniform(-2 * np.pi, 2 * np.pi)
        invs = [makhlin_invariants(schmidt_gate(a0, b0, w))
                for b0 in rng.uniform(-np.pi, np.pi, size=3)]
        for inv in invs[1:]:
            assert abs(inv.g1 - invs[0].g1) < TOL
            assert abs(inv.g2 - invs[0].g2) < TOL


def test_closed_form_equator_values():
    rng = np.random.default_rng(55)
    for w in rng.uniform(-2 * np.pi, 2 * np.pi, size=25):
        ref = closed_form_invariants(np.pi / 2, w)
        assert abs(ref.g1 - np.cos(0.5 * w) ** 4) < TOL
        assert abs(ref.g2 - (1.0 + 2.0 * np.cos(w))) < TOL


def test_g1_lower_bound():
    rng = np.random.default_rng(56)
    for _ in range(200):
        a0 = rng.uniform(0, np.pi / 2)
        w = rng.uniform(-np.pi, np.pi)
        ref = closed_form_invariants(a0, w)
        assert ref.g1.real >= np.cos(a0) ** 4 - TOL


def test_makhlin_rejects_non_unitary():
    with pytest.raises(ValueError):
        makhlin_invariants(np.diag([2.0, 1.0, 1.0, 1.0]))
    # a matrix inside a looser atol is accepted
    u = np.eye(4, dtype=complex)
    u[0, 0] = 1.0 + 3e-10
    with pytest.raises(ValueError):
        makhlin_invariants(u)
    inv = makhlin_invariants(u, atol=1e-8)
    assert abs(inv.g1 - 1.0) < 1e-8


def test_classify_anchors():
    assert classify(makhlin_invariants(np.eye(4))) is EntanglerClass.NOT_PE
    assert classify(makhlin_invariants(SWAP)) is EntanglerClass.NOT_PE
    assert classify(makhlin_invariants(CNOT)) is EntanglerClass.SPE
    assert classify(makhlin_invariants(u_general(-np.pi))) is EntanglerClass.SPE
    assert classify(makhlin_invariants(SQRT_SWAP)) is EntanglerClass.PE


def test_classify_tolerance_boundaries():
    tol = 1e-9
    assert classify(LocalInvariants(0.25 + 0.5e-9, 0.0), tol) is EntanglerClass.PE
    assert classify(LocalInvariants(0.25 + 2e-9, 0.0), tol) is EntanglerClass.NOT_PE
    assert classify(LocalInvariants(0.1, 1.0 + 0.5e-9), tol) is EntanglerClass.PE
    assert classify(LocalInvariants(0.1, 1.0 + 2e-9), tol) is EntanglerClass.NOT_PE
    assert classify(LocalInvariants(0.1, -1.0 - 2e-9), tol) is EntanglerClass.NOT_PE
    assert classify(LocalInvariants(0.5e-9, 0.3), tol) is EntanglerClass.SPE
    assert classify(LocalInvariants(2e-9, 0.3), tol) is EntanglerClass.PE
    with pytest.raises(ValueError):
        classify(LocalInvariants(0.0, 0.0), tol=-1.0)
