import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidt_gates.gates import schmidt_gate, u_general
from schmidt_gates.invariants import (
    EntanglerClass,
    LocalInvariants,
    _bell,
    classify,
    closed_form_invariants,
    makhlin_invariants,
)
from schmidt_gates.linalg import (
    _upper_pairs,
    embed,
    gram_upper,
    tensor_product,
    unitarity_defect,
)

from reference import BELL

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


def haar_unitary(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unitary2(rng):
    return haar_unitary(rng, 2)


def test_bell_transform_is_unitary_magic_basis():
    # the reference's literal Q has the magic states as its columns, and
    # _bell is the change to that basis, Q^dag u Q
    k0, k1 = np.eye(2)
    s = 1 / np.sqrt(2)
    magic = [s * (np.kron(k0, k0) + np.kron(k1, k1)),
             1j * s * (np.kron(k0, k1) + np.kron(k1, k0)),
             s * (np.kron(k0, k1) - np.kron(k1, k0)),
             1j * s * (np.kron(k0, k0) - np.kron(k1, k1))]
    assert np.max(np.abs(BELL - np.array(magic).T)) < TOL
    assert unitarity_defect(BELL) < TOL
    for u in (np.eye(4), CNOT, SWAP, SQRT_SWAP, u_general(0.7)):
        expect = BELL.conj().T @ u @ BELL
        assert np.max(np.abs(_bell(u)[..., 0] - expect)) < TOL


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
        inv = makhlin_invariants(embed(a, b, sector))
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


def test_stacked_invariants_equal_per_gate_calls():
    # one call on a stack prints the same 17-digit values as one call per
    # gate: 500 Haar gates and 500 geometric gates of each sector
    rng = np.random.default_rng(58)
    haar = np.array([haar_unitary(rng) for _ in range(500)])
    a0, b0, w = rng.uniform(-2 * np.pi, 2 * np.pi, size=(3, 500))
    for stack in (haar, schmidt_gate(a0, b0, w),
                  schmidt_gate(a0, b0, w, "lambda")):
        inv = makhlin_invariants(stack)
        assert inv.g1.shape == inv.g2.shape == (500,)
        for u, g1, g2 in zip(stack, inv.g1, inv.g2):
            one = makhlin_invariants(u)
            assert repr(complex(g1)) == repr(complex(one.g1))
            assert repr(float(g2)) == repr(float(one.g2))
    grid = makhlin_invariants(schmidt_gate(a0.reshape(20, 25), 0.3,
                                           w.reshape(20, 25)))
    assert grid.g1.shape == (20, 25)


def _per_gate_bell(u):
    return BELL.conj().T @ u @ BELL


@pytest.mark.parametrize("shape", [(1,), (777,), (20, 25)])
def test_batched_bell_transform_is_the_per_gate_product(shape):
    # the goldens' last digits rest on this: the two matrix products over a
    # whole stack give the bits of Q^dag u Q gate by gate, and the upper
    # triangle of m = (Q^dag u Q)^T (Q^dag u Q) formed with the gate axis
    # last has the same bits for a gate inside a stack as for the gate alone
    rng = np.random.default_rng(61)
    a0, b0, w = rng.uniform(-2 * np.pi, 2 * np.pi, size=(3, *shape))
    haar = np.array([haar_unitary(rng) for _ in range(a0.size)])
    rows, cols = _upper_pairs(4)
    for stack in (schmidt_gate(a0, b0, w), schmidt_gate(a0, b0, w, "lambda"),
                  haar.reshape(*shape, 4, 4)):
        mb = _bell(stack)
        m = gram_upper(mb, mb)
        gates = stack.reshape(-1, 4, 4)
        assert mb.shape == (4, 4, len(gates)) and m.shape == (10, len(gates))
        bad = [k for k, u in enumerate(gates)
               if not np.array_equal(mb[..., k], _per_gate_bell(u))]
        assert not bad, f"{len(bad)} of {len(gates)} gates differ"
        alone = [gram_upper(_bell(u), _bell(u))[:, 0] for u in gates]
        bad = [k for k, mk in enumerate(alone)
               if not np.array_equal(m[:, k], mk)]
        assert not bad, f"{len(bad)} of {len(gates)} gates differ"
        product = np.array([(v.T @ v)[rows, cols]
                            for v in map(_per_gate_bell, gates)])
        assert np.max(np.abs(m.T - product)) < 4e-15
    u = haar_unitary(rng)
    assert np.array_equal(_bell(u)[..., 0], _per_gate_bell(u))


def _oracle_invariants(u):
    """(G1, G2) of one gate from the eigenvalues lam of its Bell-basis m:
    G1 = (sum lam)^2 / (16 det U), G2 = ((sum lam)^2 - sum lam^2) / (4 det U),
    with the basis and the determinant written out here."""
    s = 1 / np.sqrt(2)
    q = np.array([[s, 0, 0, 1j * s], [0, 1j * s, s, 0],
                  [0, 1j * s, -s, 0], [s, 0, 0, -1j * s]])
    mb = q.conj().T @ u @ q
    lam = np.linalg.eigvals(mb.T @ mb)
    det = np.linalg.det(u)
    return (lam.sum() ** 2 / (16 * det),
            (lam.sum() ** 2 - (lam ** 2).sum()) / (4 * det))


def test_invariants_match_eigenvalue_oracle():
    rng = np.random.default_rng(62)
    haar = np.array([haar_unitary(rng) for _ in range(500)])
    a0, b0, w = rng.uniform(-2 * np.pi, 2 * np.pi, size=(3, 500))
    for stack in (haar, schmidt_gate(a0, b0, w),
                  schmidt_gate(a0, b0, w, "lambda")):
        inv = makhlin_invariants(stack)
        oracle = np.array([_oracle_invariants(u) for u in stack])
        assert np.max(np.abs(inv.g1 - oracle[:, 0])) < 1e-13
        assert np.max(np.abs(inv.g2 - oracle[:, 1])) < 1e-13


def test_empty_stack_has_empty_invariants():
    inv = makhlin_invariants(np.empty((0, 4, 4)))
    assert inv.g1.shape == inv.g2.shape == (0,)
    assert inv.g1.dtype == np.complex128 and inv.g2.dtype == np.float64
    assert classify(inv).shape == (0,)


def test_overflowing_gate_in_stack_is_not_unitary():
    # the unitarity check answers for a gate whose products overflow; it
    # does not let the overflow escape as a floating-point exception
    stack = schmidt_gate(np.linspace(0.1, 3.0, 5), 0.2, 1.3)
    stack[3] = 1e200
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="not unitary"):
            makhlin_invariants(stack)


def test_stack_with_one_non_unitary_gate_rejected():
    stack = schmidt_gate(np.linspace(0.1, 3.0, 40), 0.2, 1.3)
    stack[17, 0, 0] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="not unitary"):
        makhlin_invariants(stack)
    makhlin_invariants(np.delete(stack, 17, axis=0))


def test_classify_stack_equals_per_gate_calls():
    rng = np.random.default_rng(59)
    a0 = rng.uniform(0.0, np.pi, size=300)
    w = rng.uniform(-np.pi, np.pi, size=300)
    # include exact SPE and boundary points of the equator column
    a0[:4] = np.pi / 2
    w[:4] = [-np.pi, np.pi, np.pi / 2, 0.0]
    inv = makhlin_invariants(schmidt_gate(a0, 0.0, w))
    labels = classify(inv)
    assert labels.shape == (300,)
    for k in range(300):
        one = classify(makhlin_invariants(schmidt_gate(a0[k], 0.0, w[k])))
        assert labels[k] is one
    assert set(labels) == set(EntanglerClass)
    closed = closed_form_invariants(a0, w)
    assert closed.g1.shape == closed.g2.shape == (300,)
    for k in range(300):
        one = closed_form_invariants(a0[k], w[k])
        assert complex(closed.g1[k]) == complex(one.g1)
        assert float(closed.g2[k]) == float(one.g2)


def hull_contains_zero(points) -> bool:
    """Oracle: 0 lies in the convex hull of four points in the plane iff it
    lies in one of the triangles of three of them (Caratheodory), where a
    triangle contains it iff the three edge cross products share a sign."""
    for a, b, c in itertools.combinations(points, 3):
        cross = [(p.conjugate() * q).imag for p, q in ((a, b), (b, c), (c, a))]
        if min(cross) >= 0.0 or max(cross) <= 0.0:
            return True
    return False


SPIN_FLIP = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def hull_class(u) -> EntanglerClass:
    """Oracle class of a general gate: the spectrum of m is that of
    U (Y x Y) U^T (Y x Y), computed without the Bell basis."""
    spectrum = np.linalg.eigvals(u @ SPIN_FLIP @ u.T @ SPIN_FLIP)
    if not hull_contains_zero(spectrum):
        return EntanglerClass.NOT_PE
    inv = makhlin_invariants(u)
    return EntanglerClass.SPE if abs(inv.g1) <= 1e-9 else EntanglerClass.PE


def test_classify_general_gate_by_hull():
    for u, label in ((np.eye(4), EntanglerClass.NOT_PE),
                     (SWAP, EntanglerClass.NOT_PE),
                     (CNOT, EntanglerClass.SPE),
                     (SQRT_SWAP, EntanglerClass.PE),
                     (u_general(-np.pi), EntanglerClass.SPE)):
        assert classify(makhlin_invariants(u), gate=u) is label
    # on Haar gates the |G1|, G2 thresholds call some gates PE that are
    # not; the hull test answers like the oracle on all of them
    rng = np.random.default_rng(0)
    stack = np.array([haar_unitary(rng) for _ in range(2000)])
    inv = makhlin_invariants(stack)
    by_hull = classify(inv, gate=stack)
    by_rule = classify(inv)
    assert list(by_hull) == [hull_class(u) for u in stack]
    wrong = (by_rule != EntanglerClass.NOT_PE) & (
        by_hull == EntanglerClass.NOT_PE)
    assert wrong.sum() >= 10
    assert not np.any((by_hull != EntanglerClass.NOT_PE)
                      & (by_rule == EntanglerClass.NOT_PE))


@pytest.mark.parametrize("sector", ["gamma", "lambda"])
def test_threshold_rule_is_exact_for_sector_blocks(sector):
    x = np.random.default_rng(60).normal(size=(4, 2000))
    x /= np.linalg.norm(x, axis=0)
    stack = np.array([embed(a, b, sector)
                      for a, b in zip(x[0] + 1j * x[1], x[2] + 1j * x[3])])
    inv = makhlin_invariants(stack)
    assert list(classify(inv)) == list(classify(inv, gate=stack))


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**63 - 1))
def test_hull_class_of_haar_gates(seed):
    # the class is the oracle's, is unchanged by local unitaries before and
    # after the gate, and a PE always passes the necessary |G1|, G2 rule
    rng = np.random.default_rng(seed)
    u = haar_unitary(rng)
    inv = makhlin_invariants(u)
    label = classify(inv, gate=u)
    assert label is hull_class(u)
    before = tensor_product(random_unitary2(rng), random_unitary2(rng))
    after = tensor_product(random_unitary2(rng), random_unitary2(rng))
    moved = after @ u @ before
    assert classify(makhlin_invariants(moved), gate=moved) is label
    if label is not EntanglerClass.NOT_PE:
        assert classify(inv) is not EntanglerClass.NOT_PE
