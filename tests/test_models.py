"""Model cone metrics, the omega family, and the chart map between them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btzgeo.errors import SingularPointError
from btzgeo.models import (
    TWO_PI,
    chart_form,
    ModelPoint,
    TubeRegion,
    circle_circumference,
    in_region,
    is_singular,
    is_valid_cone_angle,
    metric_at,
    omega_metric_at,
    omega_transform,
)


class TestAngles:
    def test_valid_range(self):
        assert is_valid_cone_angle(0.0)
        assert is_valid_cone_angle(TWO_PI)
        assert is_valid_cone_angle(1.0)
        assert not is_valid_cone_angle(-0.1)
        assert not is_valid_cone_angle(TWO_PI + 0.1)
        assert not is_valid_cone_angle(float("nan"))

    def test_special_flags(self):
        assert is_singular(0.0) and is_singular(1.0) and not is_singular(TWO_PI)


class TestModelPoint:
    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            ModelPoint(0.0, 0.0, -0.5, 0.0)

    def test_region_membership(self):
        region = TubeRegion(0.0, 1.0, 0.0, 2.0)
        assert in_region(region, ModelPoint(0.0, 1.0, 0.5, 0.1))
        assert not in_region(region, ModelPoint(0.0, 3.0, 0.5, 0.1))
        assert not in_region(region, ModelPoint(0.0, 1.0, 1.5, 0.1))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", range(4))
def test_non_finite_fields_rejected(field, value):
    # a NaN radius or time would otherwise lie in every region
    point = [0.0, 1.0, 0.5, 0.1]
    point[field] = value
    with pytest.raises(ValueError):
        ModelPoint(*point)
    region = [0.0, 1.0, 0.0, 2.0]
    region[field] = value
    with pytest.raises(ValueError):
        TubeRegion(*region)


class TestConeMetrics:
    def test_regular_is_cylindrical_minkowski(self):
        assert np.array_equal(metric_at(TWO_PI, 2.0), np.diag([-1.0, 1.0, 4.0]))

    def test_massive_squared_angular_factor(self):
        g = metric_at(math.pi, 3.0)
        assert np.array_equal(g, np.diag([-1.0, 1.0, (0.5 * 3.0) ** 2]))

    def test_extremal_entries(self):
        g = metric_at(0.0, 2.0)
        expected = np.array(
            [[0.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 4.0]]
        )
        assert np.array_equal(g, expected)

    @pytest.mark.parametrize("alpha", [0.0, math.pi, TWO_PI])
    def test_axis_is_singular_chart_point(self, alpha):
        with pytest.raises(SingularPointError):
            metric_at(alpha, 0.0)
        with pytest.raises(SingularPointError):
            metric_at(alpha, -1.0)

    @given(st.floats(0.05, TWO_PI), st.floats(0.01, 5.0))
    @settings(max_examples=50)
    def test_determinant(self, alpha, r):
        a = alpha / TWO_PI
        det = np.linalg.det(metric_at(alpha, r))
        assert abs(det + (a * r) ** 2) < 1e-9 * max(1.0, (a * r) ** 2)


class TestOmegaFamily:
    def test_omega_zero_is_minkowski(self):
        r = 1.75
        assert np.array_equal(omega_metric_at(0.0, r), np.diag([-1.0, 1.0, r * r]))

    def test_omega_one_is_extremal(self):
        r = 0.8
        assert np.array_equal(omega_metric_at(1.0, r), metric_at(0.0, r))

    def test_defined_on_axis(self):
        g = omega_metric_at(0.5, 0.0)
        assert np.array_equal(
            g, np.array([[-0.75, -0.5, 0.0], [-0.5, 1.0, 0.0], [0.0, 0.0, 0.0]])
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            omega_metric_at(1.5, 1.0)

    @given(st.floats(-1.0, 1.0), st.floats(0.0, 4.0))
    @settings(max_examples=50)
    def test_lorentzian_determinant(self, omega, r):
        det = np.linalg.det(omega_metric_at(omega, r))
        assert abs(det + r * r) < 1e-9 * max(1.0, r * r)


class TestOmegaTransform:
    def test_regular_angle_is_identity(self):
        tr = omega_transform(TWO_PI)
        assert tr.omega == 0.0
        assert np.array_equal(tr.jacobian(), np.eye(3))

    def test_half_angle_values(self):
        tr = omega_transform(math.pi)
        assert abs(tr.beta - math.acosh(2.0)) < 1e-15
        assert abs(tr.omega - math.sqrt(3.0) / 2.0) < 1e-15

    def test_extremal_has_no_chart_map(self):
        with pytest.raises(ValueError):
            omega_transform(0.0)

    @given(st.floats(0.05, TWO_PI), st.floats(0.01, 4.0))
    @settings(max_examples=60)
    def test_pullback_recovers_cone_metric(self, alpha, r):
        tr = omega_transform(alpha)
        jac = tr.jacobian()
        rho = r / math.cosh(tr.beta)
        pulled = jac.T @ omega_metric_at(tr.omega, rho) @ jac
        assert np.max(np.abs(pulled - metric_at(alpha, r))) < 1e-9


class TestArrays:
    ALPHAS = np.array([0.0, 0.05, 1.0, math.pi, 5.5, TWO_PI])
    RADII = np.array([1e-3, 0.5, 1.375, 3.0])

    def test_chart_form_entries(self):
        forms = chart_form(self.ALPHAS)
        for i, alpha in enumerate(self.ALPHAS.tolist()):
            assert tuple(c[i] for c in forms) == chart_form(alpha)

    def test_metrics_broadcast_angles_against_radii(self):
        stack = metric_at(self.ALPHAS[:, None], self.RADII)
        assert stack.shape == (6, 4, 3, 3)
        for i, alpha in enumerate(self.ALPHAS.tolist()):
            assert np.array_equal(stack[i], metric_at(alpha, self.RADII))
        omegas = np.array([-1.0, -0.25, 0.0, math.sqrt(0.5), 1.0])
        radii = np.concatenate([[0.0], self.RADII])
        stack = omega_metric_at(omegas[:, None], radii)
        for i, omega in enumerate(omegas.tolist()):
            assert np.array_equal(stack[i], omega_metric_at(omega, radii))

    def test_omega_transform_entries(self):
        alphas = self.ALPHAS[1:].reshape(5, 1)
        tr = omega_transform(alphas)
        jac = tr.jacobian()
        assert tr.beta.shape == tr.omega.shape == (5, 1) and jac.shape == (5, 1, 3, 3)
        for i, alpha in enumerate(alphas.ravel().tolist()):
            one = omega_transform(alpha)
            assert (tr.beta[i, 0], tr.omega[i, 0]) == (one.beta, one.omega)
            assert np.array_equal(jac[i, 0], one.jacobian())

    @pytest.mark.parametrize("seed", [7, 104])
    def test_stacked_pullback_keeps_the_worst_residual_of_the_loop(self, seed):
        alpha, r = np.random.default_rng(seed).uniform([1e-3, 1e-3], [TWO_PI, 3.0], (500, 2)).T
        worst = 0.0
        for a, x in zip(alpha.tolist(), r.tolist()):
            tr = omega_transform(a)
            jac = tr.jacobian()
            pulled = jac.T @ omega_metric_at(tr.omega, x / math.cosh(tr.beta)) @ jac
            worst = max(worst, float(np.max(np.abs(pulled - metric_at(a, x)))))
        tr = omega_transform(alpha)
        jac = tr.jacobian()
        pulled = np.swapaxes(jac, -1, -2) @ omega_metric_at(tr.omega, r / jac[:, 0, 0]) @ jac
        assert float(np.max(np.abs(pulled - metric_at(alpha, r)))) == worst


class TestCircumference:
    def test_massive(self):
        assert circle_circumference(1.5, 2.0) == 3.0

    def test_extremal(self):
        assert circle_circumference(0.0, 2.0) == 2.0 * TWO_PI

    def test_regular(self):
        assert circle_circumference(TWO_PI, 1.0) == TWO_PI


@pytest.mark.parametrize("call, fragment", [
    pytest.param(
        lambda: in_region(TubeRegion(0.0, 1.0, 0.0, 2.0), ModelPoint(math.pi, 1.0, 0.5, 0.0)),
        "cone angle mismatch", id="in-region-angle",
    ),
    pytest.param(lambda: omega_metric_at(0.5, -1.0), "negative radius", id="omega-metric-r"),
    pytest.param(lambda: circle_circumference(math.pi, -1.0), "negative radius",
                 id="circumference-r"),
    pytest.param(lambda: metric_at(0.0, math.nan), "radius must be finite", id="metric-nan-r"),
    pytest.param(lambda: metric_at(1.0, [1.0, math.inf]), "radius must be finite",
                 id="metric-inf-r-entry"),
    pytest.param(lambda: metric_at(np.array([0.0, math.nan]), 1.0), "invalid cone angle",
                 id="metric-nan-angle-entry"),
    pytest.param(lambda: chart_form(np.array([0.0, 7.0])), "invalid cone angle",
                 id="chart-form-angle-entry"),
    pytest.param(lambda: omega_metric_at(math.nan, 1.0), "omega must lie in [-1, 1]",
                 id="omega-metric-nan"),
    pytest.param(lambda: omega_metric_at(np.array([0.5, math.inf]), 1.0),
                 "omega must lie in [-1, 1]", id="omega-metric-inf-entry"),
    pytest.param(lambda: omega_metric_at(np.array([0.5, -1.5]), 1.0),
                 "omega must lie in [-1, 1]", id="omega-metric-large-entry"),
    pytest.param(lambda: omega_metric_at(0.5, -math.inf), "radius must be finite",
                 id="omega-metric-inf-r"),
    pytest.param(lambda: omega_transform(np.array([1.0, 0.0])), "alpha = 0 is the omega = 1",
                 id="omega-transform-extremal-entry"),
    pytest.param(lambda: omega_transform(np.array([1.0, -math.inf])), "invalid cone angle",
                 id="omega-transform-inf-entry"),
])
def test_input_guards(call, fragment):
    with pytest.raises(ValueError) as err:
        call()
    assert fragment in str(err.value)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: ModelPoint(np.array([0.0, 1.0]), 1.0, 0.5, 0.1), id="point-angle-array"),
    pytest.param(lambda: TubeRegion(np.array([0.0, 1.0]), 1.0, 0.0, 2.0),
                 id="region-angle-array"),
    pytest.param(lambda: is_singular(np.array([0.0, TWO_PI])), id="singular-angle-array"),
    pytest.param(lambda: circle_circumference(np.array([0.0, 1.0]), 1.0),
                 id="circumference-angle-array"),
])
def test_one_angle_callables_reject_arrays(call):
    # these take one angle; an array would fail later as an ambiguous truth value
    with pytest.raises(TypeError, match="expected one cone angle"):
        call()
