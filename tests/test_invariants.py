import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidt_gates.gates import schmidt_gate, u_general
from schmidt_gates.invariants import (
    LocalInvariants,
    _det,
    _traces,
    classify,
    closed_form_invariants,
    makhlin_invariants,
    pair_invariants,
)
from schmidt_gates.linalg import embed, tensor_product, unitarity_defect

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

ISWAP = np.array([
    [1, 0, 0, 0],
    [0, 0, 1j, 0],
    [0, 1j, 0, 0],
    [0, 0, 0, 1],
], dtype=complex)


SPIN_FLIP = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])

# XX, YY and ZZ
PAULI_PRODUCTS = [np.kron(p, p) for p in ([[0, 1], [1, 0]],
                                          [[0, -1j], [1j, 0]],
                                          [[1, 0], [0, -1]])]


def haar_unitary(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unitary2(rng):
    return haar_unitary(rng, 2)


def _magic_m(u):
    """m = (Q^dag u Q)^T (Q^dag u Q) of one gate, with the reference's
    literal Bell basis Q."""
    mb = BELL.conj().T @ u @ BELL
    return mb.T @ mb


def _same_spectrum(a, b, tol):
    """The four eigenvalues a and b agree within tol as multisets."""
    return min(np.max(np.abs(a - b[list(p)]))
               for p in itertools.permutations(range(4))) < tol


def test_spin_flip_form_matches_magic_basis():
    # the reference's literal Q has the magic states as its columns, and
    # Q Q^T = -S for the spin flip S = Y x Y: so m = (Q^dag u Q)^T (Q^dag u Q)
    # = -Q^T X Q with X = u^T S u has the spectrum and the traces of X S
    k0, k1 = np.eye(2)
    s = 1 / np.sqrt(2)
    magic = [s * (np.kron(k0, k0) + np.kron(k1, k1)),
             1j * s * (np.kron(k0, k1) + np.kron(k1, k0)),
             s * (np.kron(k0, k1) - np.kron(k1, k0)),
             1j * s * (np.kron(k0, k0) - np.kron(k1, k1))]
    assert np.max(np.abs(BELL - np.array(magic).T)) < TOL
    assert unitarity_defect(BELL) < TOL
    assert np.max(np.abs(BELL @ BELL.T + SPIN_FLIP)) < TOL
    rng = np.random.default_rng(63)
    gates = [np.eye(4), CNOT, SWAP, SQRT_SWAP, u_general(0.7)]
    gates += [haar_unitary(rng) for _ in range(200)]
    for u in gates:
        m = _magic_m(u)
        xs = u.T @ SPIN_FLIP @ u @ SPIN_FLIP
        (tr,), (tr2,) = _traces(u)
        assert abs(tr - np.trace(m)) < 1e-14
        assert abs(tr2 - np.trace(m @ m)) < 1e-14
        assert abs(np.trace(xs) - np.trace(m)) < 1e-14
        assert abs(np.trace(xs @ xs) - np.trace(m @ m)) < 1e-14
        assert _same_spectrum(np.linalg.eigvals(xs), np.linalg.eigvals(m),
                              1e-12)


def test_reference_gate_invariants():
    # S u only reorders u's rows and flips signs, so on these gates every
    # step is exact and the invariants are the textbook values to the bit
    cases = [
        (np.eye(4, dtype=complex), 1.0 + 0j, 3.0),
        (CNOT, 0.0 + 0j, 1.0),
        (u_general(-np.pi), 0.0 + 0j, -1.0),
        (SWAP, -1.0 + 0j, -3.0),
        (SQRT_SWAP, -0.25j, 0.0),
    ]
    for u, g1, g2 in cases:
        inv = makhlin_invariants(u)
        assert inv.g1 == g1 and inv.g2 == g2


def test_det_is_numpys_on_haar_gates():
    # the Pfaffian of u^T J u against LAPACK's LU determinant
    rng = np.random.default_rng(64)
    stack = np.array([haar_unitary(rng) for _ in range(2000)])
    assert np.max(np.abs(_det(stack) - np.linalg.det(stack))) < 1e-14


def test_det_of_textbook_gates_is_exact():
    # J u only reorders u's rows and multiplies them by +-i, so the
    # Pfaffian of these gates is their determinant to the bit
    cases = [(np.eye(4, dtype=complex), 1.0), (CNOT, -1.0), (SWAP, -1.0),
             (ISWAP, 1.0), (SQRT_SWAP, 1j)]
    for u, det in cases:
        (value,) = _det(u)
        assert value == det


@pytest.mark.parametrize("shape", [(2, 2), (16, 16), (4, 2)])
def test_makhlin_refuses_shapes_other_than_4x4(shape):
    with pytest.raises(ValueError, match=re.escape(
            f"expected a (..., 4, 4) gate or stack of gates, got shape "
            f"{shape}")):
        makhlin_invariants(np.eye(*shape))


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
    # spin-flip computation
    x = np.random.default_rng(57).normal(size=(4, 2000))
    x /= np.linalg.norm(x, axis=0)
    for a, b in zip(x[0] + 1j * x[1], x[2] + 1j * x[3]):
        inv = makhlin_invariants(embed(a, b, sector))
        assert abs(inv.g1 - abs(a) ** 4) <= 1e-14
        assert abs(inv.g2 - (3.0 - 4.0 * abs(b) ** 2)) <= 1e-14


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**63 - 1),
       edge=st.floats(0.0, 1e-6),
       sector=st.sampled_from(["gamma", "lambda"]))
def test_pair_invariants_are_the_gram_routes(seed, edge, sector):
    # a stack of random SU(2) pairs, |a| = cos(theta) with theta uniform on
    # [0, pi/2] and its first two within `edge` of |a| = 1 and of |a| = 0:
    # the pair's invariants are the Gram route's on the embedded gates to a
    # few units of rounding, G1 is real, and one pair alone gives the bits
    # it has in the stack
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, np.pi / 2, 256)
    theta[:2] = edge, np.pi / 2 - edge
    phase = rng.uniform(-np.pi, np.pi, (2, 256))
    a = np.cos(theta) * np.exp(1j * phase[0])
    b = np.sin(theta) * np.exp(1j * phase[1])
    inv = pair_invariants(a, b)
    gram = makhlin_invariants(embed(a, b, sector))
    assert not inv.g1.imag.any()
    bound = 16 * np.finfo(float).eps
    assert abs(inv.g1 - gram.g1).max() <= bound
    assert abs(inv.g2 - gram.g2).max() <= bound
    for k in (0, 1, 2):
        one = pair_invariants(a[k], b[k])
        assert repr(complex(one.g1)) == repr(complex(inv.g1[k]))
        assert repr(float(one.g2)) == repr(float(inv.g2[k]))


def test_pair_invariants_of_textbook_pairs_are_exact():
    # the identity, iSWAP's block and sqrt(iSWAP)'s, for scalars and for
    # Python numbers
    inv = pair_invariants(1.0, 0.0)
    assert (complex(inv.g1), float(inv.g2)) == (1.0, 3.0)
    inv = pair_invariants(np.array([0.0, 0.5 + 0.5j]),
                          np.array([1j, 0.5 - 0.5j]))
    assert list(inv.g1) == [0.0, 0.25]
    assert list(inv.g2) == [-1.0, 1.0]
    assert inv.g1.dtype == np.complex128


def test_pair_invariants_refuse_a_pair_off_unit_norm():
    # | |a|^2 + |b|^2 - 1 | is held to atol, inclusively, over the whole
    # stack; a pair that is not finite is refused too
    with pytest.raises(ValueError, match=r"^pair is not unitary "
                       r"\(\| \|a\|\^2 \+ \|b\|\^2 - 1 \| = "
                       r"3\.000e\+00\)$"):
        pair_invariants(2.0, 0.0)
    a = np.array([1.0, 0.6, 0.6 * (1.0 + 2.5e-10)])
    b = np.array([0.0, 0.8j, 0.8j * (1.0 + 2.5e-10)])
    with pytest.raises(ValueError, match="not unitary"):
        pair_invariants(a, b)
    # within atol, a pair's invariants are those of the normalized pair
    scaled = pair_invariants(a, b, atol=1e-9)
    assert scaled.g1[2] == scaled.g1[1] and scaled.g2[2] == scaled.g2[1]
    # the bound is inclusive: a pair whose defect is exactly atol is
    # answered, and one a step further off is refused
    defect = (1.0 + 1e-10) ** 2 - 1.0
    pair_invariants(1.0 + 1e-10, 0.0, atol=defect)
    with pytest.raises(ValueError, match="not unitary"):
        pair_invariants(1.0 + 1e-10, 0.0, atol=np.nextafter(defect, 0.0))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not unitary"):
            pair_invariants(bad, 0.0, atol=1.0)
    empty = pair_invariants(np.empty(0), np.empty(0))
    assert empty.g1.shape == empty.g2.shape == (0,)


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
    with pytest.raises(ValueError, match=r"^matrix is not unitary "
                       r"\(max deviation 3\.000e\+00\)$"):
        makhlin_invariants(np.diag([2.0, 1.0, 1.0, 1.0]))
    # a matrix inside a looser atol is accepted
    u = np.eye(4, dtype=complex)
    u[0, 0] = 1.0 + 3e-10
    with pytest.raises(ValueError):
        makhlin_invariants(u)
    inv = makhlin_invariants(u, atol=1e-8)
    assert abs(inv.g1 - 1.0) < 1e-8
    # the bound is inclusive: a gate whose unitarity defect is exactly atol
    # is answered, and one a step further off is refused
    u = (1.0 + 1e-10) * CNOT
    defect = unitarity_defect(u)
    assert defect > 0.0
    makhlin_invariants(u, atol=defect)
    with pytest.raises(ValueError, match="not unitary"):
        makhlin_invariants(u, atol=np.nextafter(defect, 0.0))


def test_classify_anchors():
    assert classify(makhlin_invariants(np.eye(4))) == "NOT_PE"
    assert classify(makhlin_invariants(SWAP)) == "NOT_PE"
    assert classify(makhlin_invariants(CNOT)) == "SPE"
    assert classify(makhlin_invariants(u_general(-np.pi))) == "SPE"
    assert classify(makhlin_invariants(SQRT_SWAP)) == "PE"


def test_classify_tolerance_boundaries():
    # each bound pinned on both sides, for invariants given as Python
    # scalars and as 0-d arrays alike
    for form in (lambda x: x, np.asarray):
        _pin_classify_boundaries(form)


def _pin_classify_boundaries(form):
    tol = 1e-9

    def label(g1, g2):
        return classify(LocalInvariants(form(g1), form(g2)), tol)

    assert label(0.25 + 0.5e-9, 0.0) == "PE"
    # the bound is inclusive: |G1| exactly 1/4 + tol is a perfect entangler
    assert label(0.25 + tol, 0.0) == "PE"
    assert label(0.25 + 2e-9, 0.0) == "NOT_PE"
    assert label(0.1, 1.0 + 0.5e-9) == "PE"
    assert label(0.1, 1.0 + 2e-9) == "NOT_PE"
    assert label(0.1, -1.0 - 2e-9) == "NOT_PE"
    assert label(0.5e-9, 0.3) == "SPE"
    assert label(2e-9, 0.3) == "PE"
    with pytest.raises(ValueError):
        classify(LocalInvariants(form(0.0), form(0.0)), tol=-1.0)
    # the clause excludes sin^2 Gamma <= 4 |G1| with
    # cos Gamma (cos Gamma - G2) < -tol, G1 = |G1| e^{i Gamma}; on the
    # negative real axis cos Gamma (cos Gamma - G2) = 1 + G2
    assert label(-0.2, -1.0 - 0.5e-9) == "PE"
    assert label(-0.2 + 0j, -1.0 - 0.5e-9) == "PE"
    assert label(-0.2, -1.0 - 2e-9) == "NOT_PE"
    # on the positive real axis it is 1 - G2; at G1 = 0 the clause is void
    assert label(0.2, 1.0 + 0.5e-9) == "PE"
    assert label(0.2, 1.0 + 2e-9) == "NOT_PE"
    assert label(0.0, -1.0) == "SPE"
    # Gamma = 2 pi / 3, |G1| = 0.2: sin^2 Gamma = 0.75 <= 0.8, and
    # cos Gamma (cos Gamma - G2) = 1/4 + G2 / 2 is -tol at G2 = -1/2 - 2 tol
    g1 = complex(-0.1, 0.1 * np.sqrt(3.0))
    assert label(g1, -0.5 - 1e-9) == "PE"
    assert label(g1, -0.5 - 3e-9) == "NOT_PE"
    assert label(g1.conjugate(), -0.5 - 3e-9) == "NOT_PE"
    # sin^2 Gamma = 4 |G1| at |G1| = 0.1875; below it the clause is void
    assert label(0.1876 / 0.2 * g1, -0.9) == "NOT_PE"
    assert label(0.1874 / 0.2 * g1, -0.9) == "PE"


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


def _m_traces(gates):
    """(tr m, tr m^2) of each gate, as rows, with the literal Bell basis."""
    return np.array([(np.trace(m), np.trace(m @ m))
                     for m in map(_magic_m, gates)]).T


@pytest.mark.parametrize("quantity, reference", [
    (_traces, _m_traces), (_det, np.linalg.det)], ids=["traces", "det"])
@pytest.mark.parametrize("shape", [(1,), (777,), (20, 25)])
def test_batched_gram_quantities_are_the_per_gate_ones(shape, quantity,
                                                        reference):
    # the goldens' last digits rest on this: tr m and tr m^2 from
    # X = u^T S u, and det u from u^T J u, formed with the gate axis last
    # have the same bits for a gate inside a stack as for the gate alone,
    # and are m's traces and LAPACK's determinant
    rng = np.random.default_rng(61)
    a0, b0, w = rng.uniform(-2 * np.pi, 2 * np.pi, size=(3, *shape))
    haar = np.array([haar_unitary(rng) for _ in range(a0.size)])
    for stack in (schmidt_gate(a0, b0, w), schmidt_gate(a0, b0, w, "lambda"),
                  haar.reshape(*shape, 4, 4)):
        values = np.atleast_2d(quantity(stack))
        gates = stack.reshape(-1, 4, 4)
        assert values.shape[1:] == (len(gates),)
        alone = [np.atleast_2d(quantity(u))[:, 0] for u in gates]
        bad = [k for k, vk in enumerate(alone)
               if not np.array_equal(values[:, k], vk)]
        assert not bad, f"{len(bad)} of {len(gates)} gates differ"
        assert np.max(np.abs(values - reference(gates))) < 1e-14


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


def test_stacked_invariants_compare_and_hash_by_identity():
    # invariants of a stack hold arrays, which have no truth value
    stack = schmidt_gate(np.linspace(0.1, 3.0, 5), 0.2, 1.3)
    one, twin = makhlin_invariants(stack), makhlin_invariants(stack)
    assert one == one and one != twin and not one == twin
    assert hash(one) == hash(one) and len({one, twin}) == 2


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
        assert labels[k] == one
    assert set(labels) == {"NOT_PE", "PE", "SPE"}
    closed = closed_form_invariants(a0, w)
    assert closed.g1.shape == closed.g2.shape == (300,)
    for k in range(300):
        one = closed_form_invariants(a0[k], w[k])
        assert complex(closed.g1[k]) == complex(one.g1)
        assert float(closed.g2[k]) == float(one.g2)


def hull_contains_zero(points) -> bool:
    """Oracle: 0 lies in the convex hull of four points in the plane iff it
    lies in one of the triangles of three of them (Caratheodory), where a
    triangle contains it iff the three edge cross products share a sign;
    a triangle whose corners all lie on one line through 0 (every cross
    product 0, as for the coincident eigenvalues of SWAP) contains it iff
    two of them point opposite ways."""
    for a, b, c in itertools.combinations(points, 3):
        edges = ((a, b), (b, c), (c, a))
        cross = [(p.conjugate() * q).imag for p, q in edges]
        if min(cross) >= 0.0 or max(cross) <= 0.0:
            if any(cross) or min((p.conjugate() * q).real
                                 for p, q in edges) < 0.0:
                return True
    return False


def hull_class(u) -> str:
    """Oracle class of a general gate: the spectrum of m is that of
    U (Y x Y) U^T (Y x Y), the package's U^T S U S taken in the other
    order, with S as a literal matrix and a hull test of its own."""
    spectrum = np.linalg.eigvals(u @ SPIN_FLIP @ u.T @ SPIN_FLIP)
    if not hull_contains_zero(spectrum):
        return "NOT_PE"
    inv = makhlin_invariants(u)
    return "SPE" if abs(inv.g1) <= 1e-9 else "PE"


def _thresholds(inv, tol=1e-9):
    """The |G1| and G2 thresholds alone, without classify's clause."""
    return ((abs(inv.g1) <= 0.25 + tol) & (-1.0 - tol <= inv.g2)
            & (inv.g2 <= 1.0 + tol))


def test_classify_general_gate_by_hull():
    for u, label in ((np.eye(4), "NOT_PE"),
                     (SWAP, "NOT_PE"),
                     (CNOT, "SPE"),
                     (SQRT_SWAP, "PE"),
                     (u_general(-np.pi), "SPE")):
        assert classify(makhlin_invariants(u)) == label
    # on Haar gates the |G1|, G2 thresholds alone admit some gates that are
    # not perfect entanglers; classify answers like the oracle on all of
    # them, so its clause is what excludes those
    rng = np.random.default_rng(0)
    stack = np.array([haar_unitary(rng) for _ in range(2000)])
    inv = makhlin_invariants(stack)
    labels = classify(inv)
    oracle = np.array([hull_class(u) for u in stack], dtype=object)
    assert list(labels) == list(oracle)
    admitted = _thresholds(inv) & (oracle == "NOT_PE")
    assert admitted.sum() >= 10
    assert set(labels[admitted]) == {"NOT_PE"}
    assert not np.any((oracle != "NOT_PE") & ~_thresholds(inv))


@pytest.mark.parametrize("sector", ["gamma", "lambda"])
def test_threshold_rule_is_exact_for_sector_blocks(sector):
    # a sector block's class is the thresholds' and the oracle's
    x = np.random.default_rng(60).normal(size=(4, 2000))
    x /= np.linalg.norm(x, axis=0)
    stack = np.array([embed(a, b, sector)
                      for a, b in zip(x[0] + 1j * x[1], x[2] + 1j * x[3])])
    inv = makhlin_invariants(stack)
    labels = classify(inv)
    assert list(labels) == [hull_class(u) for u in stack]
    assert list(labels != "NOT_PE") == list(_thresholds(inv))


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**63 - 1))
def test_hull_class_of_haar_gates(seed):
    # the class is the oracle's, is unchanged by local unitaries before and
    # after the gate, and a PE always passes the necessary |G1|, G2 rule
    rng = np.random.default_rng(seed)
    u = haar_unitary(rng)
    inv = makhlin_invariants(u)
    label = classify(inv)
    assert label == hull_class(u)
    before = tensor_product(random_unitary2(rng), random_unitary2(rng))
    after = tensor_product(random_unitary2(rng), random_unitary2(rng))
    moved = after @ u @ before
    assert classify(makhlin_invariants(moved)) == label
    if label != "NOT_PE":
        assert _thresholds(inv)


def weyl_gate(c1, c2, c3):
    """exp(i (c1 XX + c2 YY + c3 ZZ) / 2), the product of
    cos(c/2) I + i sin(c/2) P over the three commuting Pauli products P."""
    u = np.eye(4, dtype=complex)
    for c, p in zip((c1, c2, c3), PAULI_PRODUCTS):
        u = u @ (np.cos(c / 2) * np.eye(4) + 1j * np.sin(c / 2) * p)
    return u


def test_textbook_gates_keep_their_class():
    s = 1 / np.sqrt(2)
    cnot_reversed = SWAP @ CNOT @ SWAP
    gates = {
        "CNOT": (CNOT, "SPE"),
        "CZ": (np.diag([1, 1, 1, -1]).astype(complex), "SPE"),
        "iSWAP": (ISWAP, "SPE"),
        "sqrt iSWAP": (np.array([[1, 0, 0, 0], [0, s, 1j * s, 0],
                                 [0, 1j * s, s, 0], [0, 0, 0, 1]]), "PE"),
        "sqrt SWAP": (SQRT_SWAP, "PE"),
        "sqrt SWAP dagger": (SQRT_SWAP.conj().T, "PE"),
        "B": (weyl_gate(np.pi / 2, np.pi / 4, 0.0), "SPE"),
        "DCNOT": (CNOT @ cnot_reversed, "SPE"),
        "SWAP": (SWAP, "NOT_PE"),
        "CP(pi/2)": (np.diag([1, 1, 1, 1j]), "NOT_PE"),
        # the Moelmer-Soerensen gate exp(-i pi/4 XX)
        "XX(pi/4)": (s * (np.eye(4) - 1j * PAULI_PRODUCTS[0]), "SPE"),
    }
    for name, (u, label) in gates.items():
        assert classify(makhlin_invariants(u)) == label, name
        assert hull_class(u) == label, name


@pytest.mark.parametrize("face", ["c1+c2", "c1-c2", "c2+c3"])
def test_classify_near_the_pe_faces(face):
    # Weyl-chamber gates on either side of a face of the PE polyhedron
    # (Zhang, Vala, Sastry and Whaley), at 1e-3 and 1e-6 from it, under
    # random local unitaries; inside is PE and outside NOT_PE, like the
    # oracle says
    rng = np.random.default_rng(34)
    half = np.pi / 2
    for t, s in rng.uniform(0.1, 0.9, size=(10, 2)):
        # a point on the face, and the face's normal pointing inside
        if face == "c1+c2":
            c1 = half * (1 + t) / 2
            point, normal = (c1, half - c1, s * (half - c1)), (1, 1, 0)
        elif face == "c1-c2":
            c1 = half * (1 + t / 2)
            point, normal = (c1, c1 - half, s * (c1 - half)), (-1, 1, 0)
        else:
            c2 = half * (1 + t) / 2
            point, normal = (c2 + s * (half - c2), c2, half - c2), (0, -1, -1)
        for offset in (1e-3, -1e-3, 1e-6, -1e-6):
            c = np.add(point, offset / 2 * np.array(normal))
            before = tensor_product(random_unitary2(rng), random_unitary2(rng))
            after = tensor_product(random_unitary2(rng), random_unitary2(rng))
            u = after @ weyl_gate(*c) @ before
            label = classify(makhlin_invariants(u))
            assert label == ("PE" if offset > 0 else "NOT_PE"), (face, c)
            assert hull_class(u) == label, (face, c)
