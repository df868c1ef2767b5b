import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidt_gates.sphere import (
    BRANCHES,
    ArcSegment,
    MAX_SPAN,
    SampledSegment,
    SchmidtCoordinates,
    SchmidtPath,
    assemble_state,
    concurrence,
    equator_arc,
    linear_segment,
    meridian_arc,
    rotation_arc,
    schmidt_decompose,
    solid_angle,
    sphere_point,
)

from reference import (
    chart,
    fan_solid_angle,
    lift,
    random_loop,
    reverse,
    reverse_path,
)

TOL = 1e-12
TOL_PIPE = 1e-10


def wrap(angle):
    return np.arctan2(np.sin(angle), np.cos(angle))


def random_state(rng):
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    return psi / np.linalg.norm(psi)


def random_frame(rng):
    def unit2():
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        return v / np.linalg.norm(v)
    return unit2(), unit2()


# ---------------------------------------------------------------- geometry


def test_sphere_point_anchors():
    assert np.allclose(sphere_point(0.0, 1.3), [0, 0, 1], atol=TOL)
    assert np.allclose(sphere_point(np.pi, 0.4), [0, 0, -1], atol=TOL)
    assert np.allclose(sphere_point(np.pi / 2, 0.0), [1, 0, 0], atol=TOL)
    assert np.allclose(sphere_point(np.pi / 2, np.pi / 2), [0, 1, 0], atol=TOL)


def test_sphere_point_chart_identification():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a = rng.uniform(-2 * np.pi, 2 * np.pi)
        b = rng.uniform(-2 * np.pi, 2 * np.pi)
        assert np.max(np.abs(sphere_point(a, b)
                             - sphere_point(-a, b + np.pi))) < TOL


# ------------------------------------------------------------------ states


def test_assemble_state_default_frame_layout():
    a, b = 0.9, -0.4
    f = np.exp(-0.5j * b) * np.cos(0.5 * a)
    g = np.exp(+0.5j * b) * np.sin(0.5 * a)
    # default frame: the gamma pair lives on |01>, |10>, the lambda pair
    # on |00>, |11>
    gp = assemble_state(a, b, "gamma+")
    assert np.allclose(gp, [0, f, g, 0], atol=TOL)
    gm = assemble_state(a, b, "gamma-")
    assert np.allclose(gm, [0, -np.conj(g), np.conj(f), 0], atol=TOL)
    lp = assemble_state(a, b, "lambda+")
    assert np.allclose(lp, [f, 0, 0, g], atol=TOL)
    lm = assemble_state(a, b, "lambda-")
    assert np.allclose(lm, [-np.conj(g), 0, 0, np.conj(f)], atol=TOL)


def test_assemble_state_quadruple_orthonormal():
    rng = np.random.default_rng(32)
    for _ in range(20):
        a = rng.uniform(0, np.pi)
        b = rng.uniform(-np.pi, np.pi)
        frame = random_frame(rng)
        basis = np.array([assemble_state(a, b, br, frame=frame)
                          for br in BRANCHES])
        gram = basis.conj() @ basis.T
        assert np.max(np.abs(gram - np.eye(4))) < TOL


def test_assemble_state_pole_identification_phase():
    # (alpha, beta) -> (-alpha, beta + pi) returns the same ray; the branch
    # states pick up only a global phase
    rng = np.random.default_rng(33)
    for _ in range(20):
        a = rng.uniform(0, np.pi)
        b = rng.uniform(-np.pi, np.pi)
        for br in BRANCHES:
            s1 = assemble_state(a, b, br)
            s2 = assemble_state(-a, b + np.pi, br)
            assert abs(abs(np.vdot(s1, s2)) - 1.0) < TOL


def test_assemble_state_rejects_bad_input():
    with pytest.raises(ValueError):
        assemble_state(0.3, 0.1, "sigma+")
    with pytest.raises(ValueError):
        assemble_state(0.3, 0.1, frame=([2.0, 0.0], [0.0, 1.0]))


def test_schmidt_decompose_recovers_chart_coordinates():
    rng = np.random.default_rng(34)
    for _ in range(200):
        a = rng.uniform(0.05, np.pi / 2 - 0.05)
        b = rng.uniform(-np.pi + 0.05, np.pi - 0.05)
        dec = schmidt_decompose(assemble_state(a, b, "gamma+"))
        assert abs(dec.coords.alpha - a) < 1e-10
        assert abs(wrap(dec.coords.beta - b)) < 1e-10


def test_schmidt_decompose_round_trip_random_states():
    rng = np.random.default_rng(35)
    for _ in range(300):
        psi = random_state(rng)
        dec = schmidt_decompose(psi)
        assert 0.0 <= dec.coords.alpha <= np.pi / 2 + TOL
        assert abs(abs(np.vdot(dec.reassemble(), psi)) - 1.0) < TOL
        assert abs(np.sin(dec.coords.alpha) - concurrence(psi)) < TOL_PIPE
        # gauge: leading components of the local states are real positive
        for v in (dec.n_state, dec.m_state):
            lead = v[0] if abs(v[0]) > 1e-9 else v[1]
            assert lead.imag == pytest.approx(0.0, abs=TOL)
            assert lead.real > 0


def test_schmidt_decompose_global_phase_invariance():
    rng = np.random.default_rng(36)
    for _ in range(50):
        psi = random_state(rng)
        d1 = schmidt_decompose(psi)
        d2 = schmidt_decompose(np.exp(1j * rng.uniform(-np.pi, np.pi)) * psi)
        assert abs(d1.coords.alpha - d2.coords.alpha) < TOL
        assert abs(wrap(d1.coords.beta - d2.coords.beta)) < TOL
        assert np.max(np.abs(d1.n_state - d2.n_state)) < TOL
        assert np.max(np.abs(d1.m_state - d2.m_state)) < TOL


def test_schmidt_decompose_product_and_bell():
    prod = schmidt_decompose([0, 1, 0, 0])
    assert prod.coords.alpha == pytest.approx(0.0, abs=TOL)
    assert prod.coords.beta == 0.0
    assert concurrence([0, 1, 0, 0]) == pytest.approx(0.0, abs=TOL)
    bell = schmidt_decompose(np.array([0, 1, 1, 0]) / np.sqrt(2))
    assert bell.coords.alpha == pytest.approx(np.pi / 2, abs=TOL)
    assert concurrence(np.array([0, 1, 1, 0]) / np.sqrt(2)) == pytest.approx(1.0, abs=TOL)


def test_schmidt_decompose_rejects_unnormalized():
    with pytest.raises(ValueError):
        schmidt_decompose([1, 0, 0, 1])


# ------------------------------------------------------------------- paths


def test_linear_segment_basics():
    # the polyline of its two ends
    seg = linear_segment(0.2, -0.3, 1.4, 0.9, 2.0)
    assert isinstance(seg, SampledSegment)
    assert seg.alpha.tolist() == [0.2, 1.4]
    assert seg.beta.tolist() == [-0.3, 0.9]
    assert seg.duration == 2.0
    assert seg.start_coords() == SchmidtCoordinates(0.2, -0.3)
    assert seg.end_coords() == SchmidtCoordinates(1.4, 0.9)
    with pytest.raises(ValueError, match="duration must be positive"):
        linear_segment(0, 0, 1, 1, 0.0)


@pytest.mark.parametrize("axis", [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)])
@pytest.mark.parametrize("duration", [0.0, -1.0])
def test_rotation_arc_duration_must_be_positive(axis, duration):
    # the scenario schema refuses such a duration before the CLI builds a
    # segment, so only a library call reaches this check
    with pytest.raises(ValueError, match="segment duration must be positive"):
        rotation_arc(0.5, 0.0, axis, 1.0, duration=duration)


def test_segment_span_beyond_double_precision_refused():
    # a span above 2**23 rad rounds by more than the chart tolerance, so
    # the pulse would end elsewhere than the segment; up to it, accepted
    assert MAX_SPAN == 2.0 ** 23
    linear_segment(0.3, 0.0, 0.3 + MAX_SPAN, 1.0, 1.0)
    ArcSegment(1.0, 0.2, (0.3, -0.5, 0.8), -MAX_SPAN, 1.0)
    SampledSegment([0.3, 0.3 + MAX_SPAN, 0.3], [0.0, 0.0, 0.0], 2.0)
    refused = [
        lambda: linear_segment(0.3, 0.0, 1e16, 1.0, 1.0),
        lambda: linear_segment(0.3, 0.0, 0.3, -2.0 * MAX_SPAN, 1e-6),
        lambda: rotation_arc(1.0, 0.2, (0.0, 0.0, 1.0), 1e10, 1.0),
        lambda: rotation_arc(1.0, 0.2, (0.3, -0.5, 0.8), 1e10, 1.0),
        lambda: SampledSegment([0.3, 0.4, 0.5], [0.0, 1e10, 0.0], 1.0),
    ]
    for build in refused:
        with pytest.raises(ValueError, match="segment spans more than"):
            build()


def test_sampled_integrals_are_the_sum_of_their_pieces():
    # the polyline's integrals piece by piece, each from the antiderivative
    # of cos(alpha) d beta on a piece where both are linear in time:
    # d beta (sin(a1) - sin(a0)) / d alpha (d alpha bounded away from 0)
    rng = np.random.default_rng(36)
    alpha = np.cumsum(rng.choice([-1, 1], 50) * rng.uniform(0.1, 0.5, 50))
    beta = rng.uniform(-3, 3, 50)
    seg = SampledSegment(alpha, beta, 1.0)
    dbeta, cos_int = seg._beta_integrals()
    assert dbeta == beta[-1] - beta[0]
    assert cos_int == pytest.approx(np.sum(
        np.diff(beta) * np.diff(np.sin(alpha)) / np.diff(alpha)), abs=1e-13)


def test_linear_segment_integrals_match_trapezoid():
    rng = np.random.default_rng(37)
    segments = [linear_segment(rng.uniform(-3, 3), rng.uniform(-3, 3),
                              rng.uniform(-3, 3), rng.uniform(-3, 3),
                              rng.uniform(0.5, 2.0)) for _ in range(30)]
    # alpha steps far below the spacing of sin(alpha) near its value
    segments += [linear_segment(a, -1.0, a + da, 2 * np.pi, 1.0)
                 for a in (0.3, 1.2, -2.5) for da in (1e-14, -3e-13, 1e-10)]
    for seg in segments:
        _, alpha, beta, *_ = chart(seg, 200001)
        dbeta, cos_int = seg._beta_integrals()
        assert abs(dbeta - (beta[-1] - beta[0])) < TOL
        assert abs(cos_int - np.trapezoid(np.cos(alpha), x=beta)) < 1e-9


def test_equator_and_meridian_constructors():
    eq = equator_arc(0.3, 1.7, 2.5)
    assert eq.alpha.tolist() == [np.pi / 2, np.pi / 2]
    assert eq.beta.tolist() == [0.3, 1.7]
    assert eq.duration == 2.5
    mer = meridian_arc(-0.5, 0.1, 2.9, 1.0)
    assert mer.beta.tolist() == [-0.5, -0.5]
    assert mer.alpha.tolist() == [0.1, 2.9]


def test_rotation_segment_about_z_is_latitude():
    seg = rotation_arc(np.pi / 3, 0.2, (0, 0, 1), 1.1, 1.0)
    assert isinstance(seg, SampledSegment) and seg.alpha.size == 2
    end = seg.end_coords()
    assert end.alpha == pytest.approx(np.pi / 3, abs=1e-9)
    assert end.beta == pytest.approx(0.2 + 1.1, abs=1e-9)


def test_rotation_segment_matches_rodrigues_pointwise():
    rng = np.random.default_rng(38)
    for _ in range(20):
        a0 = rng.uniform(0.4, np.pi - 0.4)
        b0 = rng.uniform(-np.pi, np.pi)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-1.0, 1.0)
        try:
            seg = rotation_arc(a0, b0, tuple(axis), angle, 1.0)
            _, alpha, beta, *_ = chart(seg, 64)
        except ValueError:
            continue  # arc wandered over a pole; rejection is the contract
        r0 = sphere_point(a0, b0)
        for k in (0, 21, 63):
            phi = angle * k / 63
            c, s = np.cos(phi), np.sin(phi)
            expect = (c * r0 + s * np.cross(axis, r0)
                      + (1 - c) * np.dot(axis, r0) * axis)
            assert np.max(np.abs(sphere_point(alpha[k], beta[k]) - expect)) < 1e-9


def test_rotation_segment_extended_branch():
    # declared on the alpha < 0 copy of the chart
    seg = rotation_arc(-np.pi / 3, 0.2 + np.pi, (0, 0, 1), 0.7, 1.0)
    end = seg.end_coords()
    assert end.alpha == pytest.approx(-np.pi / 3, abs=1e-9)
    assert end.beta == pytest.approx(0.2 + np.pi + 0.7, abs=1e-9)


def test_rotation_segment_rejections():
    with pytest.raises(ValueError):
        rotation_arc(0.3, 0.0, (0, 0, 0), 1.0, 1.0)
    # arc through the north pole
    with pytest.raises(ValueError):
        rotation_arc(np.pi / 2, np.pi / 2, (1, 0, 0), np.pi, 1.0)
    # a start wound past the principal chart copies cannot be lifted
    with pytest.raises(ValueError):
        rotation_arc(np.pi / 3 + 2 * np.pi, 0.2, (0, 0, 1), 1.0, 1.0)


def test_rotation_segment_start_past_south_pole_refused():
    # the lift's alpha lands within 1e-6 of the declared start, but on the
    # chart copy whose beta is off by pi
    for alpha_start in (np.pi + 4e-7, -np.pi - 4e-7):
        with pytest.raises(ValueError, match="start coordinates"):
            rotation_arc(alpha_start, 0.3, (0.3, 0.2, 1.0), 1e-5, 1.0)


_AXES = st.one_of(
    st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda v: np.linalg.norm(v) > 1e-3))


@settings(deadline=None)
@given(alpha0=st.floats(-3.1, 3.1), beta0=st.floats(-7.0, 7.0), axis=_AXES,
       angle=st.floats(-15.0, 15.0), n=st.integers(2, 2000))
def test_accepted_rotation_lift_is_exact(alpha0, beta0, axis, angle, n):
    # a z axis gives a latitude linear segment, any other an ArcSegment
    # lifted by its chart at any n its clearance allows
    try:
        seg = rotation_arc(alpha0, beta0, axis, angle, 1.0)
        _, alpha, beta, *_ = chart(seg, n)
    except ValueError:
        return  # refused: too close to a pole for this step
    _, fine_alpha, fine_beta, *_ = chart(seg, 64 * (n - 1) + 1)
    assert np.max(np.abs(alpha - fine_alpha[::64])) <= 1e-9
    assert np.max(np.abs(beta - fine_beta[::64])) <= 1e-9
    k = np.asarray(axis) / np.linalg.norm(axis)
    r0 = sphere_point(alpha0, beta0)
    phi = angle * np.linspace(0.0, 1.0, n)[:, None]
    expect = (np.cos(phi) * r0 + np.sin(phi) * np.cross(k, r0)
              + (1 - np.cos(phi)) * np.dot(k, r0) * k)
    assert np.max(np.abs(sphere_point(alpha, beta).T - expect)) <= 1e-9
    assert np.max(np.abs(seg.end_coords().point() - expect[-1])) <= 1e-9


def _random_arcs(seed, count, turns=1.0):
    """Tilted arcs that stay at least 0.05 from both poles."""
    rng = np.random.default_rng(seed)
    arcs = []
    while len(arcs) < count:
        a0, b0 = rng.uniform(0.2, np.pi - 0.2), rng.uniform(-7.0, 7.0)
        axis = rng.normal(size=3)
        angle = turns * rng.uniform(-2 * np.pi, 2 * np.pi)
        try:
            arc = rotation_arc(a0, b0, tuple(axis), angle, 1.0)
        except ValueError:
            continue
        if arc.clearance > 0.05:
            arcs.append(arc)
    return arcs


def test_tilted_rotation_is_an_arc_segment():
    arc = rotation_arc(1.1, 0.4, (0.3, -0.5, 0.8), 1.3, 2.0)
    assert isinstance(arc, ArcSegment)
    assert np.linalg.norm(arc.axis) == pytest.approx(1.0, abs=1e-15)
    assert (arc.angle, arc.duration) == (1.3, 2.0)
    alpha, *_ = lift(1.1, 0.4, arc.axis, 1.3, 100001)
    assert arc.clearance == pytest.approx(np.min(np.sin(alpha)), abs=1e-10)


@pytest.mark.parametrize("turns", [1, 3])
def test_full_turn_from_extremal_height_encloses_the_cap(turns):
    # the start sits at the circle's extremal height (r0 in the plane of k
    # and the z axis), where a tan-based antiderivative picks up a 2 pi
    # branch error; the cap about k has area 2 pi (1 - k . r0) per turn
    for a0, b0, axis in [(1.2, 0.0, (0.6, 0.0, 0.8)),
                         (0.2, 0.0, (0.6, 0.0, 0.8)),
                         (2.0, np.pi, (-0.6, 0.0, -0.8))]:
        arc = rotation_arc(a0, b0, axis, 2 * np.pi * turns, 1.0)
        dbeta, cos_int = arc._beta_integrals()
        cap = 2 * np.pi * (1 - np.dot(axis, sphere_point(a0, b0)))
        assert abs(dbeta - cos_int - turns * cap) <= 1e-12 * turns
        # beta winds by a whole number of turns and alpha returns
        assert dbeta / (2 * np.pi) == pytest.approx(round(dbeta / (2 * np.pi)),
                                                    abs=1e-13)
        end = arc.end_coords()
        assert end.alpha == pytest.approx(a0, abs=1e-13)
        assert end.beta == pytest.approx(b0 + dbeta, abs=1e-13)


@pytest.mark.parametrize("pole", [1.0, -1.0], ids=["north", "south"])
def test_arc_passing_a_pole_at_1e6_ends_where_a_fine_lift_ends(pole):
    # a circle about k whose highest (or lowest) point is 1e-6 from the
    # pole; the arc runs 0.1 rad to either side of that point, where beta
    # turns by nearly pi
    k = np.array([np.sin(0.5), 0.0, pole * np.cos(0.5)])
    top = np.array([-np.sin(1e-6), 0.0, pole * np.cos(1e-6)])
    r0 = (np.cos(0.1) * top - np.sin(0.1) * np.cross(k, top)
          + (1 - np.cos(0.1)) * np.dot(k, top) * k)
    a0, b0 = np.arctan2(np.hypot(r0[0], r0[1]), r0[2]), np.arctan2(r0[1], r0[0])
    arc = rotation_arc(a0, b0, tuple(k), 0.2, 1.0)
    assert arc.clearance == pytest.approx(1e-6, rel=1e-6)
    alpha, beta, _ = lift(a0, b0, k, 0.2, 200001)
    assert abs(beta[-1] - beta[0]) > 3.0
    end = arc.end_coords()
    assert abs(end.beta - beta[-1]) <= 1e-11
    assert abs(end.alpha - alpha[-1]) <= 1e-12


def test_arc_on_the_negative_alpha_copy():
    # (-alpha, beta + pi) is the same sphere point: the copy's chart is the
    # principal chart with alpha and alpha' negated and beta moved by pi
    for arc in _random_arcs(41, 10, turns=2.0):
        start = arc.start_coords()
        copy = rotation_arc(-start.alpha, start.beta + np.pi, arc.axis,
                            arc.angle, arc.duration)
        t, alpha, beta, da, db = chart(arc, 501)
        t2, alpha2, beta2, da2, db2 = chart(copy, 501)
        assert np.array_equal(t, t2)
        assert np.max(np.abs(alpha2 + alpha)) <= 1e-12
        assert np.max(np.abs(beta2 - beta - np.pi)) <= 1e-12
        assert np.max(np.abs(da2 + da)) <= 1e-12 * np.max(np.abs(da))
        assert np.max(np.abs(db2 - db)) <= 1e-12 * np.max(np.abs(db))
        end, end2 = arc.end_coords(), copy.end_coords()
        assert end2.alpha == pytest.approx(-end.alpha, abs=1e-12)
        assert end2.beta == pytest.approx(end.beta + np.pi, abs=1e-12)
        assert copy._beta_integrals() == pytest.approx(arc._beta_integrals(),
                                                       abs=1e-12)
        assert copy.clearance == pytest.approx(arc.clearance, abs=1e-15)


def test_multi_turn_arc_and_its_reverse():
    for arc in _random_arcs(42, 20, turns=3.0):
        start, end = arc.start_coords(), arc.end_coords()
        alpha, beta, _ = lift(start.alpha, start.beta, arc.axis, arc.angle,
                              20001)
        assert end.alpha == pytest.approx(alpha[-1], abs=1e-12)
        assert end.beta == pytest.approx(beta[-1], abs=1e-11)
        back = reverse(arc)
        assert isinstance(back, ArcSegment)
        assert back.angle == -arc.angle and back.duration == arc.duration
        assert back.axis == pytest.approx(arc.axis, abs=1e-15)
        assert back.start_coords() == end
        assert back.end_coords().alpha == pytest.approx(start.alpha, abs=1e-12)
        assert back.end_coords().beta == pytest.approx(start.beta, abs=1e-11)
        assert np.array(back._beta_integrals()) == pytest.approx(
            -np.array(arc._beta_integrals()), abs=1e-11)
        # the reverse runs through the same points backwards
        _, alpha_b, beta_b, *_ = chart(back, 2001)
        _, alpha_f, beta_f, *_ = chart(arc, 2001)
        assert np.max(np.abs(alpha_b[::-1] - alpha_f)) <= 1e-12
        assert np.max(np.abs(beta_b[::-1] - beta_f)) <= 1e-11


@pytest.mark.parametrize("n", [300, 1000, 8000])
def test_arc_end_coords_are_the_last_chart_sample(n):
    for arc in _random_arcs(43, 20, turns=0.2):
        _, alpha, beta, *_ = chart(arc, n)
        end = arc.end_coords()
        assert abs(end.alpha - alpha[-1]) <= 1e-12
        assert abs(end.beta - beta[-1]) <= 1e-12
        assert (alpha[0], beta[0]) == pytest.approx(
            (arc.alpha_start, arc.beta_start), abs=1e-12)


def test_arc_rates_are_exact():
    # central differences of an independent lift, step h: error O(h^2); the
    # arc's own start rates are the reference's at t = 0
    h = 1e-5
    for arc in _random_arcs(44, 10):
        start = arc.start_coords()
        t, _, _, da, db = chart(arc, 101)
        scale = max(abs(da).max(), abs(db).max())
        assert np.allclose(arc.start_rates(), (da[0], db[0]), rtol=0,
                           atol=1e-13 * scale)
        for i in range(10, 100, 10):
            phi = arc.angle * np.array([t[i] - h, t[i] + h]) / arc.duration
            a_lo, b_lo, _ = lift(start.alpha, start.beta, arc.axis, phi[0], 2)
            a_hi, b_hi, _ = lift(start.alpha, start.beta, arc.axis, phi[1], 2)
            assert da[i] == pytest.approx((a_hi[-1] - a_lo[-1]) / (2 * h),
                                          rel=1e-7, abs=1e-8)
            assert db[i] == pytest.approx((b_hi[-1] - b_lo[-1]) / (2 * h),
                                          rel=1e-7, abs=1e-8)


def test_segments_and_paths_compare_and_hash_by_value():
    # polylines compare by their samples and duration, as arcs do by their
    # fields, and equal segments, and paths of them, hash equal
    seg = linear_segment(0.1, 0.2, 0.3, 0.4, 1.0)
    same = linear_segment(0.1, 0.2, 0.3, 0.4, 1.0)
    assert seg == same and hash(seg) == hash(same)
    signed = (SampledSegment([0.1, -0.0], [0.2, 0.4], 1),
              SampledSegment([0.1, 0.0], [0.2, 0.4], 1.0))
    assert signed[0] == signed[1] and hash(signed[0]) == hash(signed[1])
    arc = rotation_arc(0.3, 0.4, (1.0, 0.0, 1.0), 0.1, 1.0)
    others = [linear_segment(0.1, 0.2, 0.3, 0.5, 1.0),
              linear_segment(0.1, 0.2, 0.3, 0.4, 2.0),
              SampledSegment([0.1, 0.2, 0.3], [0.2, 0.3, 0.4], 1.0), arc]
    for other in others:
        assert seg != other and not seg == other
    assert seg != "segment"
    assert len({seg, same, *others}) == 5
    path = SchmidtPath((seg, arc))
    again = SchmidtPath((same, rotation_arc(0.3, 0.4, (1.0, 0.0, 1.0), 0.1,
                                            1.0)))
    assert path == again and hash(path) == hash(again)
    assert path != SchmidtPath((others[1], arc))


def test_sampled_segment_validation():
    with pytest.raises(ValueError):
        SampledSegment(np.zeros(3), np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        SampledSegment(np.zeros(3), np.zeros(3), 0.0)
    with pytest.raises(ValueError, match="at least two samples"):
        SampledSegment(np.zeros(1), np.zeros(1), 1.0)
    seg = SampledSegment(np.array([0.1, 0.2]), np.array([0.0, 0.5]), 1.0)
    assert seg.start_coords().alpha == pytest.approx(0.1)
    assert seg.end_coords().beta == pytest.approx(0.5)
    # a step too short for double precision, or one whose span rounds
    # coarser than the chart tolerance
    with pytest.raises(ValueError, match="rates overflow"):
        SampledSegment(np.array([0.1, 0.2, 0.3]), np.zeros(3), 1e-320)
    with pytest.raises(ValueError, match="rates overflow"):
        SampledSegment(np.array([-1e308, 1e308]), np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="segment spans more than"):
        SampledSegment(np.array([0.1, 0.2, 1e9]), np.zeros(3), 1.0)


def test_path_junction_and_closure_validation():
    s1 = linear_segment(0.5, 0.0, 0.5, 1.0, 1.0)
    s2 = linear_segment(0.5, 1.0 + 1e-6, 0.5, 2.0, 1.0)
    with pytest.raises(ValueError):
        SchmidtPath((s1, s2))
    with pytest.raises(ValueError):
        SchmidtPath((s1,), closed=True)
    with pytest.raises(ValueError):
        SchmidtPath(())
    SchmidtPath((s1, linear_segment(0.5, 1.0, 0.5, 2.0, 1.0)))


@pytest.mark.parametrize("gap", [1e-7, 2e-9])
def test_closed_path_with_endpoint_gap_above_chart_tol_refused(gap):
    # an equator loop that overshoots by `gap` ends that far from its start
    # on the sphere: above CHART_TOL it is not a closed loop
    loop = (linear_segment(np.pi / 2, 0.0, np.pi / 2, 2 * np.pi + gap, 1.0),)
    with pytest.raises(ValueError, match="flagged closed but endpoints "
                                         f"differ by {gap:.3e}"):
        SchmidtPath(loop, closed=True)
    SchmidtPath(loop)


def test_closed_path_with_endpoint_gap_below_chart_tol_accepted():
    loop = (linear_segment(np.pi / 2, 0.0, np.pi / 2, 2 * np.pi + 5e-10,
                           1.0),)
    assert SchmidtPath(loop, closed=True).closed


def test_path_closes_through_pole_identification():
    # half equator plus a meridian through the north pole: chart endpoints
    # differ but the sphere points agree
    path = SchmidtPath((
        equator_arc(np.pi / 2, -np.pi / 2, 1.0),
        meridian_arc(-np.pi / 2, np.pi / 2, -np.pi / 2, 1.0),
    ), closed=True)
    assert path.duration == pytest.approx(2.0)
    assert solid_angle(path) == pytest.approx(-np.pi, abs=1e-12)
    assert solid_angle(reverse_path(path)) == pytest.approx(np.pi, abs=1e-12)


def test_solid_angle_latitude_loops():
    for a0 in (0.3, np.pi / 3, 1.2):
        loop = SchmidtPath(
            (linear_segment(a0, 0.0, a0, 2 * np.pi, 1.0),), closed=True)
        assert solid_angle(loop) == pytest.approx(
            2 * np.pi * (1 - np.cos(a0)), abs=TOL)
        assert solid_angle(reverse_path(loop)) == pytest.approx(
            -2 * np.pi * (1 - np.cos(a0)), abs=TOL)


def test_solid_angle_small_circles_match_cap_area():
    # a full turn about a unit axis k encloses the cap centered on k:
    # area 2 pi (1 - k . r0)
    rng = np.random.default_rng(39)
    done = 0
    while done < 12:
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        if abs(k[2]) > 0.5:
            continue
        # start point within 0.3 rad of the axis keeps the circle off the poles
        tilt = rng.uniform(0.05, 0.3)
        ortho = np.cross(k, [0.0, 0.0, 1.0])
        ortho /= np.linalg.norm(ortho)
        r0 = np.cos(tilt) * k + np.sin(tilt) * ortho
        alpha0 = np.arctan2(np.hypot(r0[0], r0[1]), r0[2])
        beta0 = np.arctan2(r0[1], r0[0])
        loop = SchmidtPath((rotation_arc(alpha0, beta0, tuple(k), 2 * np.pi,
                                         1.0),), closed=True)
        expect = 2 * np.pi * (1 - float(np.dot(k, r0)))
        assert solid_angle(loop) == pytest.approx(expect, abs=1e-12)
        done += 1


def test_solid_angle_sampled_segment_loop():
    a0 = 0.8
    beta = np.linspace(0.0, 2 * np.pi, 4001)
    loop = SchmidtPath(
        (SampledSegment(np.full_like(beta, a0), beta, 1.0),), closed=True)
    assert solid_angle(loop) == pytest.approx(2 * np.pi * (1 - np.cos(a0)),
                                              abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**63 - 1))
def test_solid_angle_matches_a_triangle_fan(seed):
    # a triangle fan over chords of the exact curve of a random loop of
    # polylines and tilted arcs, 0.2 clear of the poles, agrees mod 4 pi to
    # within the slivers its chords cut off (O(h^2) for chords of h = 2e-3)
    path = random_loop(np.random.default_rng(seed))
    fan, bound = fan_solid_angle(path)
    gap = (solid_angle(path) - fan + 2 * np.pi) % (4 * np.pi) - 2 * np.pi
    assert abs(gap) <= bound + 1e-11


def test_solid_angle_requires_closed_path():
    with pytest.raises(ValueError):
        solid_angle(SchmidtPath((equator_arc(0.0, 1.0, 1.0),)))


def test_solid_angle_rejects_south_pole_crossing():
    # through alpha = pi the chart integral is off by 2 pi; such loops are
    # rejected with the offending segment named
    path = SchmidtPath((
        equator_arc(np.pi / 2, -np.pi / 2, 1.0),
        meridian_arc(-np.pi / 2, np.pi / 2, 3 * np.pi / 2, 1.0),
    ), closed=True)
    with pytest.raises(ValueError, match="segment 1"):
        solid_angle(path)
    touching = SampledSegment(np.array([2.0, np.pi, 2.0]),
                              np.array([0.0, 1.0, 0.0]), 1.0)
    with pytest.raises(ValueError, match="segment 0"):
        solid_angle(SchmidtPath((touching,), closed=True))

