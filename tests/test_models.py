"""Model cone metrics, the omega family, and the chart map between them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btzgeo.errors import SingularPointError
from btzgeo.models import (
    TWO_PI,
    ModelPoint,
    TubeRegion,
    circle_circumference,
    in_region,
    is_extremal,
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
        assert is_extremal(0.0) and not is_extremal(1.0)
        assert is_singular(0.0) and is_singular(1.0) and not is_singular(TWO_PI)


class TestModelPoint:
    def test_on_line(self):
        assert ModelPoint(0.0, 1.0, 0.0, 0.0).on_line
        assert not ModelPoint(0.0, 1.0, 0.5, 0.0).on_line

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

    def test_apply_matches_jacobian(self):
        # the map is linear, so the jacobian is exactly the difference map
        tr = omega_transform(1.0)
        p = np.array([0.7, 1.3, 2.0])
        assert np.max(np.abs(tr.apply(p) - tr.jacobian() @ p)) < 1e-15


class TestCircumference:
    def test_massive(self):
        assert circle_circumference(1.5, 2.0) == 3.0

    def test_extremal(self):
        assert circle_circumference(0.0, 2.0) == 2.0 * TWO_PI

    def test_regular(self):
        assert circle_circumference(TWO_PI, 1.0) == TWO_PI
