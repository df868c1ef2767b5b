import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidt_gates import linalg
from schmidt_gates.linalg import (
    embed,
    gate_fidelity,
    phase_aligned_distance,
    su2_exp,
    su2_product,
    tensor_product,
    unitarity_defect,
)

import pytest

from reference import (
    H_DM,
    H_XY,
    H_Z,
    L_DM,
    L_XY,
    L_Z,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    su2_block,
)

TOL = 1e-12


def series_exp(h, t, terms=40):
    """Taylor-series oracle for exp(-i h t), scaled and squared so the
    series is summed far inside its well-conditioned range."""
    a = -1j * t * np.asarray(h, dtype=np.complex128)
    squarings = max(0, int(np.ceil(np.log2(max(np.linalg.norm(a), 1e-30)))) + 2)
    a = a / 2 ** squarings
    out = np.eye(h.shape[0], dtype=np.complex128)
    term = np.eye(h.shape[0], dtype=np.complex128)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pairs(rng, n):
    """n Haar-random SU(2) pairs (a, b) with |a|^2 + |b|^2 = 1."""
    x = rng.normal(size=(4, n))
    x /= np.linalg.norm(x, axis=0)
    return x[0] + 1j * x[1], x[2] + 1j * x[3]


def random_field(rng):
    """Random (c_xy, c_dm, c_z) and the 2x2 generator they define."""
    c = rng.normal(size=3)
    return c, c[0] * PAULI_X + c[1] * PAULI_Y + c[2] * PAULI_Z


def test_pauli_algebra():
    assert np.allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z, atol=0)
    assert np.allclose(PAULI_Y @ PAULI_Z, 1j * PAULI_X, atol=0)
    assert np.allclose(PAULI_Z @ PAULI_X, 1j * PAULI_Y, atol=0)
    for p in (PAULI_X, PAULI_Y, PAULI_Z):
        assert np.allclose(p @ p, np.eye(2), atol=0)


def test_tensor_product_layout():
    # qubit a is the slow index: (A x B)[2i+k, 2j+l] = A[i,j] B[k,l]
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[5, 6], [7, 8]])
    ab = tensor_product(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert ab[2 * i + k, 2 * j + l] == a[i, j] * b[k, l]


def test_tensor_product_mixed_product():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                      for _ in range(4))
        lhs = tensor_product(a, b) @ tensor_product(c, d)
        rhs = tensor_product(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < TOL


def test_defects_and_requires():
    assert unitarity_defect(np.eye(3)) == 0.0
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    assert unitarity_defect(bad) == 1.0
    assert unitarity_defect(2 * np.eye(2)) == 3.0
    assert unitarity_defect(PAULI_X) == 0.0


def test_defect_of_empty_and_overflowing_stacks():
    assert unitarity_defect(np.empty((0, 4, 4))) == 0.0
    assert unitarity_defect(np.empty((0, 3, 3), dtype=complex)) == 0.0
    assert unitarity_defect(np.empty((2, 0, 4, 4))) == 0.0
    with np.errstate(all="raise"):
        assert unitarity_defect(np.full((2, 4, 4), 1e200)) == np.inf
        big = np.tile(np.eye(3, dtype=complex), (3, 1, 1))
        big[1, 2, 0] = 1e300
        assert unitarity_defect(big) == np.inf


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_defect_is_the_largest_entry_of_u_dag_u_minus_one(d):
    rng = np.random.default_rng(25)
    u = rng.normal(size=(7, d, d)) + 1j * rng.normal(size=(7, d, d))
    for k in range(7):
        # a matrix alone, against the full product written out
        full = u[k].conj().T @ u[k] - np.eye(d)
        assert abs(unitarity_defect(u[k]) - np.abs(full).max()) < 1e-13
    whole = max(np.abs(v.conj().T @ v - np.eye(d)).max() for v in u)
    assert abs(unitarity_defect(u.reshape(7, 1, d, d)) - whole) < 1e-13


@pytest.mark.parametrize("n", [1, 5, 512, 777])
def test_gram_upper_of_a_stack_is_per_matrix_and_exact(n):
    # the upper triangle of x^T y, diagonal first, for every matrix; a
    # matrix alone gives the bits it has in the stack
    rng = np.random.default_rng(26)
    x, y = (rng.normal(size=(4, 4, n)) + 1j * rng.normal(size=(4, 4, n))
            for _ in range(2))
    g = linalg.gram_upper(x, y)
    rows, cols = linalg._upper_pairs(4)
    assert list(rows[:4]) == list(cols[:4]) == [0, 1, 2, 3]
    assert g.shape == (10, n)
    for k in range(n):
        alone = linalg.gram_upper(x[..., k:k + 1], y[..., k:k + 1])
        assert np.array_equal(g[:, k], alone[:, 0])
        product = x[..., k].T @ y[..., k]
        assert np.max(np.abs(g[:, k] - product[rows, cols])) < 1e-14


def test_herm_exp_2x2_against_series():
    rng = np.random.default_rng(21)
    for _ in range(50):
        c, h = random_field(rng)
        t = rng.uniform(-2, 2)
        u = su2_block(*su2_exp(*c, t))
        assert np.max(np.abs(u - series_exp(h, t))) < TOL


def test_herm_exp_pair_block_against_series():
    # the embedded block is the exponential of the 4x4 sector Hamiltonian
    rng = np.random.default_rng(22)
    sectors = {"gamma": (H_XY, H_DM, H_Z), "lambda": (L_XY, L_DM, L_Z)}
    for sector, ops in sectors.items():
        for _ in range(25):
            c = rng.normal(size=3)
            h = sum(ck * op for ck, op in zip(c, ops))
            t = rng.uniform(-2, 2)
            u = embed(*su2_exp(*c, t), sector)
            assert np.max(np.abs(u - series_exp(h, t))) < TOL
    with pytest.raises(ValueError):
        embed(1.0, 0.0, "mu")


def test_herm_exp_group_property_and_unitarity():
    rng = np.random.default_rng(24)
    for _ in range(20):
        c, _ = random_field(rng)
        t1 = rng.uniform(-1, 1)
        t2 = rng.uniform(-1, 1)
        u1, u2, u12 = (su2_block(*su2_exp(*c, t)) for t in (t1, t2, t1 + t2))
        assert np.max(np.abs(u1 @ u2 - u12)) < TOL
        assert unitarity_defect(u1) < TOL


def test_herm_exp_degenerate_limits():
    # a vanishing field or a vanishing time hits the sinc branch exactly
    i2 = np.eye(2)
    assert np.max(np.abs(su2_block(*su2_exp(0.0, 0.0, 0.0, 1.7)) - i2)) == 0.0
    assert np.max(np.abs(su2_block(*su2_exp(0.3, -0.2, 0.9, 0.0)) - i2)) == 0.0
    u = su2_block(*su2_exp(0.0, 0.0, 3.0, 0.5))
    assert np.max(np.abs(u - np.diag([np.exp(-1.5j), np.exp(1.5j)]))) < TOL
    u = su2_block(*su2_exp(1e-300, 0.0, 0.0, 2.0))
    assert np.all(np.isfinite(u))
    assert np.max(np.abs(u - i2)) < TOL


def test_su2_exp_of_a_field_whose_squares_underflow():
    # a field scaled by s over a time scaled by 1/s is the same rotation;
    # below ~1e-154 the squares underflow, and the norm is taken of the
    # field scaled by its largest component
    rng = np.random.default_rng(29)
    c = rng.normal(size=(3, 50))
    c[:, :3] = np.array([[1.0, 0, 0], [0, 0, -1.0], [0, 5e-9, 1.0]]).T
    t = rng.uniform(-2, 2, size=50)
    expect = su2_block(*su2_exp(*c, t))
    for s in (1e-155, 1e-200, 1e-300):
        u = su2_block(*su2_exp(*(c * s), t / s))
        assert np.max(np.abs(u - expect)) < 1e-14
    # the all-zero field stays exactly the identity pair, also in a stack
    # whose other fields take the scaled road
    a, b = su2_exp([0.0, 1e-300], 0.0, 0.0, [1e300, 1e300])
    assert (a[0], b[0]) == (1.0, 0.0)
    assert abs(a[1] - np.cos(1.0)) < 1e-15


def test_su2_exp_of_a_field_whose_squares_overflow():
    # the same rotations as fields scaled by s >= 1e155 over times scaled
    # by 1/s: above ~1e154 the squares overflow, and the norm is taken of
    # the field scaled by its largest component, with no floating-point
    # exception even where overflow raises
    rng = np.random.default_rng(31)
    c = rng.normal(size=(3, 50))
    c[:, :3] = np.array([[1.0, 0, 0], [0, 0, -1.0], [0, 5e-9, 1.0]]).T
    t = rng.uniform(-2, 2, size=50)
    expect = su2_block(*su2_exp(*c, t))
    for s in (1e155, 1e200, 1e300):
        with np.errstate(all="raise"):
            u = su2_block(*su2_exp(*(c * s), t / s))
        assert np.max(np.abs(u - expect)) < 1e-14
    # a stack that mixes both roads with plain fields
    a, b = su2_exp([1e300, 1e-300, 2.0], 0.0, 0.0, [1e-300, 1e300, 0.5])
    assert np.max(np.abs(a - np.cos(1.0))) < 1e-15
    assert np.max(np.abs(b + 1j * np.sin(1.0))) < 1e-15


def test_su2_exp_of_a_normal_field_is_the_plain_formula():
    # a field whose squares do not underflow gets w = sqrt(sum of squares)
    # to the last bit, the formula the golden outputs were made with
    rng = np.random.default_rng(30)
    c = rng.normal(size=(3, 200)) * 10.0 ** rng.uniform(-150, 150, 200)
    t = rng.uniform(-2, 2, size=200) / np.abs(c).max(axis=0)
    vx, vy, vz = c
    w = np.sqrt(vx * vx + vy * vy + vz * vz)
    snc = t * np.sinc(w * t / np.pi)
    a, b = su2_exp(*c, t)
    assert a.tobytes() == (np.cos(w * t) - 1j * (snc * vz)).tobytes()
    assert b.tobytes() == (snc * (vy - 1j * vx)).tobytes()


def test_su2_exp_stacked_matches_elementwise():
    rng = np.random.default_rng(27)
    c = rng.normal(size=(3, 200))
    c[:, :5] = 0.0
    t = rng.uniform(-2, 2, size=200)
    stacked = su2_block(*su2_exp(*c, t))
    assert stacked.shape == (200, 2, 2)
    for k in range(200):
        assert np.array_equal(stacked[k], su2_block(*su2_exp(*c[:, k], t[k])))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 1001])
def test_su2_product_matches_sequential_fold(n):
    # the pairwise product keeps the time order (first pair rightmost) and
    # carries odd stacks; random pairs do not commute
    a, b = random_pairs(np.random.default_rng(28 + n), n)
    fold = np.eye(2, dtype=complex)
    for block in su2_block(a, b):
        fold = block @ fold
    assert np.max(np.abs(su2_block(*su2_product(a, b)) - fold)) < 1e-13
    if n == 1:
        assert su2_product(a, b) == (a[0], b[0])


@pytest.mark.parametrize("sector", ["gamma", "lambda"])
def test_embed_broadcasts_a_scalar_against_a_stack(sector):
    a, b = random_pairs(np.random.default_rng(31), 12)
    a, b = a.reshape(3, 4), b.reshape(3, 4)
    u = embed(a, 0.25, sector)
    assert u.shape == (3, 4, 4, 4) and u.dtype == np.complex128
    assert np.array_equal(u, embed(a, np.full((3, 4), 0.25), sector))
    assert np.array_equal(embed(0.5, b, sector),
                          embed(np.full((3, 4), 0.5), b, sector))


@pytest.mark.parametrize("sector", ["gamma", "lambda"])
def test_embed_zeros_are_positive(sector):
    # every sign of zero in either part of a and of b, next to nonzero parts
    parts = [0.0, -0.0, 1.0, -1.0]
    a, b = np.meshgrid(*[[complex(re, im) for re in parts for im in parts]] * 2)
    u = embed(a, b, sector)
    for part in (u.real, u.imag):
        assert (part == 0).any()
        assert not np.signbit(part[part == 0]).any()


# entries of a Cayley-Klein pair at the edges of double precision: signed
# zeros, subnormals, +-1e+-300, and plain values
_EDGE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                         1e-300, -1e-300, 1e300, -1e300])
_PART = st.one_of(_EDGE, st.floats(-2.0, 2.0))
_ENTRY = st.one_of(st.builds(complex, _PART, _PART), _PART)
_STACK = st.lists(_ENTRY, min_size=1, max_size=6)


@settings(deadline=None)
@given(a=st.one_of(_ENTRY, _STACK), b=st.one_of(_ENTRY, _STACK),
       sector=st.sampled_from(["gamma", "lambda"]))
def test_embed_is_the_block_on_the_literal_indices_byte_for_byte(a, b,
                                                                 sector):
    # the reference block written onto the sector's indices, gamma (1, 2)
    # and lambda (0, 3), of the identity, every exact zero +0; a scalar, a
    # stack, and a scalar against a stack (two stacks of different lengths
    # are broadcast against one another as a column and a row); block_pair
    # reads the pair back, with its zeros +0
    if np.ndim(a) and np.ndim(b):
        a, b = np.array(a)[:, None], np.array(b)
    i, j = {"gamma": (1, 2), "lambda": (0, 3)}[sector]
    a, b = np.broadcast_arrays(np.asarray(a, complex), np.asarray(b, complex))
    block = su2_block(a, b) + 0.0
    expect = np.zeros((*a.shape, 4, 4), complex)
    for k in range(4):
        expect[..., k, k] = 1.0
    expect[..., i, i], expect[..., i, j] = block[..., 0, 0], block[..., 0, 1]
    expect[..., j, i], expect[..., j, j] = block[..., 1, 0], block[..., 1, 1]
    u = embed(a, b, sector)
    assert u.tobytes() == expect.tobytes()
    pair = linalg.block_pair(u, sector)
    assert [x.tobytes() for x in pair] == [(a + 0.0).tobytes(),
                                           (b + 0.0).tobytes()]


def test_su2_product_of_one_pair_is_that_pair_bit_for_bit():
    a, b = random_pairs(np.random.default_rng(32), 6)
    a[:2], b[2:4] = -0.0, 0.0 - 0.0j
    for k in range(6):
        pa, pb = su2_product(a[k:k + 1], b[k:k + 1])
        assert pa.tobytes() + pb.tobytes() == a[k].tobytes() + b[k].tobytes()
    pa, pb = su2_product(a[:, None], b[:, None])
    assert pa.tobytes() + pb.tobytes() == a.tobytes() + b.tobytes()


def test_su2_product_of_empty_stack_is_identity():
    # the identity pair (1, 0), in the batch shape
    for batch in ((), (3,), (2, 5)):
        pa, pb = su2_product(np.empty((*batch, 0)), np.empty((*batch, 0)))
        assert pa.shape == pb.shape == batch
        assert np.all(pa == 1.0) and np.all(pb == 0.0)
    u = embed(*su2_product(np.empty(0), np.empty(0)), "lambda")
    assert u.tobytes() == np.eye(4, dtype=complex).tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_su2_product_batch_equals_per_batch_calls(n):
    # leading axes are a batch; each batch element is its own product
    a, b = random_pairs(np.random.default_rng(29 + n), 3 * 4 * n)
    a, b = a.reshape(3, 4, n), b.reshape(3, 4, n)
    pa, pb = su2_product(a, b)
    assert pa.shape == pb.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            one = su2_product(a[i, j], b[i, j])
            assert (pa[i, j], pb[i, j]) == one


def test_gate_comparisons_of_stacks_equal_per_gate_calls():
    rng = np.random.default_rng(30)
    u = np.array([random_unitary(rng, 4) for _ in range(50)])
    v = np.array([random_unitary(rng, 4) for _ in range(50)])
    fidelity, distance = gate_fidelity(u, v), phase_aligned_distance(u, v)
    assert fidelity.shape == distance.shape == (50,)
    for k in range(50):
        assert fidelity[k] == gate_fidelity(u[k], v[k])
        assert distance[k] == phase_aligned_distance(u[k], v[k])
        # tr(u^dag v) is the sum of conj(u) v over the flattened gate, and
        # the modulus rounds as the scalar complex abs does
        assert gate_fidelity(u[k], v[k]) == abs(
            complex((u[k].conj() * v[k]).sum())) / 4


def test_gate_fidelity_phase_invariance():
    rng = np.random.default_rng(25)
    for _ in range(20):
        u = random_unitary(rng, 4)
        phase = np.exp(1j * rng.uniform(-np.pi, np.pi))
        assert abs(gate_fidelity(u, phase * u) - 1.0) < TOL
        v = random_unitary(rng, 4)
        f = gate_fidelity(u, v)
        assert 0.0 <= f <= 1.0 + TOL
        assert abs(f - gate_fidelity(v, u)) < TOL


def test_phase_aligned_distance_matches_fidelity():
    rng = np.random.default_rng(26)
    for _ in range(20):
        u = random_unitary(rng, 4)
        v = random_unitary(rng, 4)
        d = phase_aligned_distance(u, v)
        f = gate_fidelity(u, v)
        assert abs(d - np.sqrt(2.0 * (1.0 - f))) < TOL
        # the minimum over phases is attained at the trace phase
        phi = np.angle(np.trace(u.conj().T @ v))
        direct = np.linalg.norm(u - np.exp(-1j * phi) * v) / 2.0
        assert abs(d - direct) < 1e-7


def test_phase_aligned_distance_linear_in_defect():
    # for a small traceless perturbation the distance is first order, down
    # to defects whose squares vanish beside 1
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    u = np.eye(4, dtype=complex)
    for eps in (1e-4, 1e-9):
        d1 = phase_aligned_distance(u, np.diag(np.exp(-1j * eps * signs)))
        d2 = phase_aligned_distance(u, np.diag(np.exp(-2j * eps * signs)))
        assert abs(d2 / d1 - 2.0) < 1e-3
