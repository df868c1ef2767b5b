import numpy as np
import pytest

from schmidt_gates.gates import schmidt_gate, u_general
from schmidt_gates.linalg import unitarity_defect
from schmidt_gates.sphere import BRANCHES, assemble_state, frame_unitaries

from reference import framed_state

TOL = 1e-12

ISWAP_TYPE = np.array([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, -1, 0, 0],
    [0, 0, 0, 1],
], dtype=complex)


def random_frame(rng):
    def unit2():
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        return v / np.linalg.norm(v)
    return unit2(), unit2()


def test_u_general_anchors():
    assert np.max(np.abs(u_general(0.0) - np.eye(4))) < TOL
    assert np.max(np.abs(u_general(-np.pi) - ISWAP_TYPE)) < TOL
    # omega and omega + 4 pi give the same matrix; omega + 2 pi flips sign
    # of the rotation block only
    rng = np.random.default_rng(41)
    for _ in range(10):
        w = rng.uniform(-6, 6)
        assert np.max(np.abs(u_general(w) - u_general(w + 4 * np.pi))) < 1e-10


def test_u_general_matches_schmidt_gate_on_equator():
    rng = np.random.default_rng(42)
    for _ in range(20):
        w = rng.uniform(-2 * np.pi, 2 * np.pi)
        g = schmidt_gate(np.pi / 2, np.pi / 2, w)
        assert np.max(np.abs(g - u_general(w))) < TOL


def test_schmidt_gate_eigenstructure():
    rng = np.random.default_rng(43)
    for _ in range(25):
        a0 = rng.uniform(0, np.pi)
        b0 = rng.uniform(-np.pi, np.pi)
        w = rng.uniform(-2 * np.pi, 2 * np.pi)
        frame = random_frame(rng)
        u = schmidt_gate(a0, b0, w, frame=frame)
        assert unitarity_defect(u) < TOL
        gp = assemble_state(a0, b0, "gamma+", frame=frame)
        gm = assemble_state(a0, b0, "gamma-", frame=frame)
        lp = assemble_state(a0, b0, "lambda+", frame=frame)
        lm = assemble_state(a0, b0, "lambda-", frame=frame)
        assert np.max(np.abs(u @ gp - np.exp(-0.5j * w) * gp)) < TOL
        assert np.max(np.abs(u @ gm - np.exp(+0.5j * w) * gm)) < TOL
        assert np.max(np.abs(u @ lp - lp)) < TOL
        assert np.max(np.abs(u @ lm - lm)) < TOL


def test_lambda_gate_eigenstructure():
    rng = np.random.default_rng(44)
    for _ in range(25):
        a0 = rng.uniform(0, np.pi)
        b0 = rng.uniform(-np.pi, np.pi)
        w = rng.uniform(-2 * np.pi, 2 * np.pi)
        frame = random_frame(rng)
        u = schmidt_gate(a0, b0, w, sector="lambda", frame=frame)
        lp = assemble_state(a0, b0, "lambda+", frame=frame)
        lm = assemble_state(a0, b0, "lambda-", frame=frame)
        gp = assemble_state(a0, b0, "gamma+", frame=frame)
        gm = assemble_state(a0, b0, "gamma-", frame=frame)
        assert np.max(np.abs(u @ lp - np.exp(-0.5j * w) * lp)) < TOL
        assert np.max(np.abs(u @ lm - np.exp(+0.5j * w) * lm)) < TOL
        assert np.max(np.abs(u @ gp - gp)) < TOL
        assert np.max(np.abs(u @ gm - gm)) < TOL


def test_gates_are_exact_sector_blocks():
    # the idle pair is the identity and nothing couples it to the sector
    # pair: exact ones and zeros, not values within a tolerance
    rng = np.random.default_rng(47)
    for sector, pair, idle in (("gamma", [1, 2], [0, 3]),
                               ("lambda", [0, 3], [1, 2])):
        for _ in range(200):
            a0, b0, w = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
            u = schmidt_gate(a0, b0, w, sector)
            assert np.all(u[idle, idle] == 1.0)
            outside = np.ones((4, 4), dtype=bool)
            outside[np.ix_(pair, pair)] = False
            outside[idle, idle] = False
            assert np.all(u[outside] == 0.0)


def test_gate_independent_of_antipodal_state_signs():
    # the gate is built from projectors, so replacing a branch state by any
    # phase-rotated copy leaves it unchanged; spot-check via the chart
    # identification (alpha, beta) -> (-alpha, beta + pi)
    rng = np.random.default_rng(45)
    for _ in range(20):
        a0 = rng.uniform(0, np.pi)
        b0 = rng.uniform(-np.pi, np.pi)
        w = rng.uniform(-2 * np.pi, 2 * np.pi)
        u1 = schmidt_gate(a0, b0, w)
        u2 = schmidt_gate(-a0, b0 + np.pi, w)
        assert np.max(np.abs(u1 - u2)) < TOL


def test_frame_unitaries_are_unitary_and_consistent():
    rng = np.random.default_rng(46)
    for _ in range(20):
        frame = random_frame(rng)
        a, b = frame_unitaries(frame)
        assert unitarity_defect(a) < TOL
        assert unitarity_defect(b) < TOL
        # the gate in the frame is the projector sum over the reference's
        # framed quadruple: e^(-+i w/2) on the sector's "+-" states, the
        # identity on the idle pair
        a0, b0, w = rng.uniform(0.2, 1.4), rng.uniform(-2, 2), rng.uniform(-4, 4)
        for sector, idle in (("gamma", "lambda"), ("lambda", "gamma")):
            expect = np.zeros((4, 4), dtype=complex)
            for branch, phase in ((sector + "+", np.exp(-0.5j * w)),
                                  (sector + "-", np.exp(0.5j * w)),
                                  (idle + "+", 1.0), (idle + "-", 1.0)):
                psi = framed_state(a0, b0, branch, frame)
                expect += phase * np.outer(psi, psi.conj())
            direct = schmidt_gate(a0, b0, w, sector, frame=frame)
            assert np.max(np.abs(direct - expect)) < TOL


def test_frame_unitaries_map_standard_quadruple():
    # the framed quadruple is the standard one under frame_unitaries; the
    # reference sums it from product states of the frame and its partners
    rng = np.random.default_rng(47)
    for _ in range(20):
        frame = random_frame(rng)
        a0, b0 = rng.uniform(-np.pi, np.pi, 2)
        for br in BRANCHES:
            framed = assemble_state(a0, b0, br, frame=frame)
            expect = framed_state(a0, b0, br, frame)
            assert np.max(np.abs(framed - expect)) < TOL


def test_gamma_and_lambda_gates_commute():
    rng = np.random.default_rng(48)
    for _ in range(25):
        a1, a2 = rng.uniform(0, np.pi, size=2)
        b1, b2 = rng.uniform(-np.pi, np.pi, size=2)
        w1, w2 = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
        frame = random_frame(rng)
        g = schmidt_gate(a1, b1, w1, frame=frame)
        l = schmidt_gate(a2, b2, w2, sector="lambda", frame=frame)
        assert np.max(np.abs(g @ l - l @ g)) < TOL


def test_unknown_sector_rejected():
    with pytest.raises(ValueError, match="unknown sector 'delta'"):
        schmidt_gate(0.7, 0.2, 1.0, sector="delta")


@pytest.mark.parametrize("sector", ["gamma", "lambda"])
@pytest.mark.parametrize("framed", [False, True], ids=["standard", "frame"])
def test_broadcast_gates_equal_scalar_calls_bitwise(sector, framed):
    # a stack is the same arithmetic as one gate at a time, to the last bit
    rng = np.random.default_rng(49)
    frame = random_frame(rng) if framed else None
    alphas = rng.uniform(-2 * np.pi, 2 * np.pi, size=(7, 1))
    omegas = rng.uniform(-4 * np.pi, 4 * np.pi, size=(1, 9))
    beta0 = rng.uniform(-np.pi, np.pi)
    stack = schmidt_gate(alphas, beta0, omegas, sector, frame)
    assert stack.shape == (7, 9, 4, 4)
    for i, a0 in enumerate(alphas[:, 0]):
        for j, w in enumerate(omegas[0]):
            one = schmidt_gate(a0, beta0, w, sector, frame)
            assert one.shape == (4, 4)
            assert one.tobytes() == stack[i, j].tobytes()
    # per-gate anchors along one axis
    betas = rng.uniform(-np.pi, np.pi, size=9)
    flat = schmidt_gate(alphas[np.arange(9) % 7, 0], betas, omegas[0],
                        sector, frame)
    for k in range(9):
        one = schmidt_gate(alphas[k % 7, 0], betas[k], omegas[0, k],
                           sector, frame)
        assert one.tobytes() == flat[k].tobytes()
