"""Developing maps, holonomy generators, rescaling and chart matching."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btzgeo.develop import (
    boost_conjugate,
    btz_holonomy_generator,
    deck_generator,
    develop_btz,
    develop_btz_inverse,
    develop_btz_jacobian,
    develop_massive,
    develop_massive_jacobian,
    developing_report,
    match_cone_charts,
    rescale_btz,
)
from btzgeo.errors import InvalidIsometryError
from btzgeo.lorentz import (
    MINKOWSKI_METRIC,
    classify_isometry,
    fixed_null_direction,
    rotation_about_t_axis,
)
from btzgeo.models import TWO_PI, is_singular, metric_at

RNG = np.random.default_rng(2024)


def _cover_points(n, theta_span=8.0):
    return np.stack(
        [
            RNG.uniform(-2.0, 2.0, n),
            RNG.uniform(0.05, 3.0, n),
            RNG.uniform(-theta_span, theta_span, n),
        ],
        axis=-1,
    )


def _pullback(jac):
    return np.einsum("...ji,jk,...kl->...il", jac, MINKOWSKI_METRIC, jac)


class TestDevelopBtz:
    def test_known_images(self):
        assert np.array_equal(develop_btz([1.0, 1.0, 0.0]), [1.0, 0.0, 0.0])
        # t = tau + r theta^2/2, x = t - r, y = -r theta
        assert np.array_equal(develop_btz([0.0, 2.0, 1.0]), [1.0, -1.0, -2.0])

    def test_image_law_exact(self):
        pts = _cover_points(500)
        image = develop_btz(pts)
        assert np.max(np.abs(image[:, 0] - image[:, 1] - pts[:, 1])) < 1e-12

    def test_isometry_exact_jacobian(self):
        pts = _cover_points(300)
        pulled = _pullback(develop_btz_jacobian(pts))
        target = np.array([metric_at(0.0, r) for r in pts[:, 1]])
        assert np.max(np.abs(pulled - target)) < 1e-9

    def test_jacobian_determinant_is_radius(self):
        pts = _cover_points(100)
        dets = np.linalg.det(develop_btz_jacobian(pts))
        assert np.max(np.abs(dets - pts[:, 1])) < 1e-10

    def test_inverse_round_trip(self):
        pts = _cover_points(200)
        back = develop_btz_inverse(develop_btz(pts))
        assert np.max(np.abs(back - pts)) < 1e-9

    def test_inverse_needs_positive_depth(self):
        with pytest.raises(ValueError):
            develop_btz_inverse([0.0, 0.5, 0.0])

    @given(st.floats(-2.0, 2.0), st.floats(0.05, 2.0), st.floats(-6.0, 6.0))
    @settings(max_examples=50)
    def test_local_injectivity_round_trip(self, tau, r, theta):
        p = np.array([tau, r, theta])
        q = develop_btz_inverse(develop_btz(p))
        assert np.max(np.abs(q - p)) < 1e-9 * max(1.0, abs(theta))


class TestBtzHolonomy:
    def test_exact_matrix(self):
        b = TWO_PI
        expected = np.array(
            [
                [1.0 + b * b / 2.0, -b * b / 2.0, -b],
                [b * b / 2.0, 1.0 - b * b / 2.0, -b],
                [-b, b, 1.0],
            ]
        )
        assert np.array_equal(btz_holonomy_generator().linear, expected)

    def test_parabolic_trace(self):
        gamma = btz_holonomy_generator()
        assert abs(float(np.trace(gamma.linear)) - 3.0) < 1e-12
        assert classify_isometry(gamma)["kind"] == "parabolic"

    def test_fixes_null_ray(self):
        gamma = btz_holonomy_generator()
        v = np.array([1.0, 1.0, 0.0])
        assert np.max(np.abs(gamma.apply_linear(v) - v)) < 1e-12
        assert np.max(np.abs(fixed_null_direction(gamma) - v)) < 1e-9

    def test_equivariance(self):
        pts = _cover_points(500)
        gamma = btz_holonomy_generator()
        lhs = develop_btz(pts + np.array([0.0, 0.0, TWO_PI]))
        rhs = develop_btz(pts) @ gamma.linear.T
        assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestDevelopMassive:
    def test_known_image(self):
        # angle pi has angular contraction 1/2
        out = develop_massive(math.pi, [0.5, 2.0, math.pi])
        expected = [0.5, 2.0 * math.cos(math.pi / 2), 2.0 * math.sin(math.pi / 2)]
        assert np.max(np.abs(out - expected)) < 1e-15

    def test_isometry_exact_jacobian(self):
        for alpha in (0.4, math.pi, TWO_PI):
            pts = _cover_points(200)
            pulled = _pullback(develop_massive_jacobian(alpha, pts))
            target = np.array([metric_at(alpha, r) for r in pts[:, 1]])
            assert np.max(np.abs(pulled - target)) < 1e-9, f"alpha={alpha}"

    def test_deck_transformation_is_rotation(self):
        alpha = 1.1
        pts = _cover_points(200)
        gamma = deck_generator(alpha)
        lhs = develop_massive(alpha, pts + np.array([0.0, 0.0, TWO_PI]))
        rhs = develop_massive(alpha, pts) @ gamma.linear.T
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_holonomy_class(self):
        info = classify_isometry(deck_generator(1.1))
        assert info["kind"] == "elliptic"
        assert abs(info["angle"] - 1.1) < 1e-12
        # reflex cone angles fold onto the principal representative
        info = classify_isometry(deck_generator(5.0))
        assert abs(info["angle"] - (TWO_PI - 5.0)) < 1e-12

    def test_regular_angle_gives_identity(self):
        info = classify_isometry(deck_generator(TWO_PI))
        assert info["kind"] == "identity"

    def test_rejects_extremal(self):
        with pytest.raises(ValueError):
            develop_massive(0.0, [0.0, 1.0, 0.0])


class TestDeckGenerator:
    def test_extremal_is_the_cached_parabolic_generator(self):
        assert deck_generator(0.0) is btz_holonomy_generator()

    @pytest.mark.parametrize("alpha", [1e-3, 1.2, math.pi, 5.0, TWO_PI])
    def test_massive_is_the_rotation(self, alpha):
        assert np.array_equal(deck_generator(alpha).linear, rotation_about_t_axis(alpha).linear)

    @pytest.mark.parametrize("alpha", [-1.0, TWO_PI + 0.1, math.nan, math.inf])
    def test_invalid_angle_raises(self, alpha):
        with pytest.raises(ValueError, match="invalid cone angle"):
            deck_generator(alpha)


class TestRescale:
    def test_unit_scaling_is_isometry(self):
        report = rescale_btz(1.0)
        assert report.is_isometry
        assert report.max_residual == 0.0

    def test_sign_flip_is_isometry(self):
        assert rescale_btz(-1.0).is_isometry

    def test_dilation_is_not(self):
        report = rescale_btz(2.0)
        assert not report.is_isometry
        assert report.angular_factor == 4.0
        assert report.max_residual == 3.0

    @pytest.mark.parametrize("lam", [1.0 + 1e-13, 0.5, -3.0, 1e-300])
    def test_residual_is_the_unit_circle_value(self, lam):
        # |lam^2 - 1| r^2 over radii up to 1, as sampled before the closed form
        radii = np.linspace(0.1, 1.0, 10)
        report = rescale_btz(lam)
        assert report.max_residual == float(np.max(np.abs(lam**2 - 1.0) * radii**2))
        assert report.is_isometry == (report.max_residual <= 1.0e-12)


class TestBoostConjugate:
    def test_stays_parabolic(self):
        gamma = btz_holonomy_generator()
        for mu in (-1.0, 0.3, 2.0):
            conj = boost_conjugate(gamma, mu)
            assert classify_isometry(conj)["kind"] == "parabolic", f"mu={mu}"

    def test_fixed_direction_is_null(self):
        conj = boost_conjugate(btz_holonomy_generator(), 0.8)
        v = fixed_null_direction(conj)
        assert abs(v[0] - 1.0) < 1e-12
        assert abs(-v[0] ** 2 + v[1] ** 2 + v[2] ** 2) < 1e-9

    @pytest.mark.parametrize("mu", [800.0, -800.0, math.nan])
    def test_overflowing_rapidity_is_not_an_isometry(self, mu):
        with pytest.raises(InvalidIsometryError, match="non-finite"):
            boost_conjugate(btz_holonomy_generator(), mu)

    def test_zero_rapidity_is_identity_conjugation(self):
        gamma = btz_holonomy_generator()
        conj = boost_conjugate(gamma, 0.0)
        assert np.max(np.abs(conj.linear - gamma.linear)) < 1e-12


class TestChartMatching:
    def test_equal_angles_match(self):
        assert match_cone_charts(1.0, 1.0)
        assert match_cone_charts(1.0, 1.0 + 1e-12)

    def test_distinct_angles_do_not(self):
        assert not match_cone_charts(1.0, 1.5)
        assert not match_cone_charts(0.0, 1.0)

    def test_regular_angle_rejected(self):
        # a full-angle chart carries no singular line to compare
        with pytest.raises(ValueError):
            match_cone_charts(TWO_PI, 1.0)

    def test_regular_means_not_singular(self):
        # "regular" is decided by models.is_singular: 5e-10 below 2 pi is a
        # singular cone, 5e-13 below is the regular tube
        near = TWO_PI - 5e-10
        assert is_singular(near) and match_cone_charts(near, near)
        with pytest.raises(ValueError, match="no singular line"):
            match_cone_charts(TWO_PI - 5e-13, 1.0)


class TestReport:
    def test_extremal_report(self):
        report = developing_report(0.0)
        assert report["model"] == "extremal"
        assert report["holonomy_class"] == "parabolic"
        assert abs(report["trace"] - 3.0) < 1e-12

    def test_massive_report(self):
        report = developing_report(1.2)
        assert report["model"] == "massive"
        assert report["holonomy_class"] == "elliptic"
        assert abs(report["angle"] - 1.2) < 1e-15


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: rescale_btz(0), "must be nonzero", id="rescale-zero"),
    pytest.param(lambda: rescale_btz(math.nan), "finite square, got nan", id="rescale-nan"),
    pytest.param(lambda: rescale_btz(-math.inf), "finite square, got -inf", id="rescale-inf"),
    pytest.param(lambda: rescale_btz(1e200), "finite square, got 1e+200",
                 id="rescale-square-overflows"),
    pytest.param(lambda: match_cone_charts(-1.0, 1.0), "invalid cone angle -1.0",
                 id="match-invalid-angle"),
    pytest.param(lambda: match_cone_charts(1.0, 7.0), "invalid cone angle 7.0",
                 id="match-invalid-second-angle"),
])
def test_input_guards(call, fragment):
    with pytest.raises(ValueError) as err:
        call()
    assert fragment in str(err.value)
