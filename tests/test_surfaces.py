"""Spacelike graph surfaces: slack criterion, surgeries, length/completeness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from btzgeo import surfaces
from btzgeo.errors import BoundaryMismatchError, CertificationError
from btzgeo.models import TWO_PI
from btzgeo.surfaces import (
    _CAP_GRID,
    _CAP_MAX_DOUBLINGS,
    BoundaryCurve,
    GraphSurface,
    _r2_delta,
    assemble_cauchy,
    completeness_certificate,
    delta_field,
    extend_boundary_cap,
    extend_boundary_complete,
    hyperbolic_plane_surface,
    induced_metric,
    is_spacelike,
    min_spacelike_slack,
    surface_length,
)

RNG = np.random.default_rng(17)


def random_boundary(rng, degree=5, scale=0.25):
    return BoundaryCurve.from_trig(
        rng.normal(),
        rng.normal(size=degree) * scale,
        rng.normal(size=degree) * scale,
    )


def counting_boundary(curve):
    """``curve`` with a tally of the angles its value and derivative see."""
    seen = [0]

    def counted(fn):
        def evaluate(th):
            seen[0] += np.size(th)
            return fn(th)

        return evaluate

    return BoundaryCurve(counted(curve.value), counted(curve.derivative)), seen


def flat_surface(alpha=0.0, radius=1.0, level=0.0, punctured=False):
    zero = lambda r, th: np.zeros(np.broadcast(r, th).shape)
    return GraphSurface.from_functions(
        alpha, radius,
        lambda r, th: np.full(np.broadcast(r, th).shape, level),
        zero, zero, punctured=punctured,
    )


class TestBoundaryCurve:
    def test_trig_values(self):
        b = BoundaryCurve.from_trig(1.0, [0.5], [0.25])
        th = 0.7
        assert abs(b.value(th) - (1.0 + 0.5 * math.cos(th) + 0.25 * math.sin(th))) < 1e-15

    def test_derivative_matches_finite_difference(self):
        b = random_boundary(np.random.default_rng(3))
        th = np.linspace(0.0, TWO_PI, 50)
        h = 1e-6
        fd = (b.value(th + h) - b.value(th - h)) / (2.0 * h)
        assert np.max(np.abs(b.derivative(th) - fd)) < 1e-7

    def test_periodic(self):
        b = random_boundary(np.random.default_rng(4))
        th = np.linspace(0.0, TWO_PI, 17)
        assert np.max(np.abs(b.value(th) - b.value(th + TWO_PI))) < 1e-12


class TestSlackCriterion:
    """delta > 0 iff the induced metric is positive definite (exactly)."""

    @staticmethod
    def _jet_surface(alpha, f_r, f_th, radius=2.0):
        mk = lambda c: lambda r, th: np.full(np.broadcast(r, th).shape, c)
        return GraphSurface.from_functions(alpha, radius, mk(0.0), mk(f_r), mk(f_th))

    def test_exact_equivalence_extremal(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            r = rng.uniform(0.05, 3.0)
            f_r, f_th = rng.normal(scale=0.8), rng.normal(scale=0.8)
            surf = self._jet_surface(0.0, f_r, f_th)
            delta = float(delta_field(surf)(r, 0.0))
            eigs = np.linalg.eigvalsh(induced_metric(surf, r, 0.0))
            assert (delta > 0.0) == bool(eigs.min() > 0.0)

    def test_exact_equivalence_massive(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            alpha = rng.uniform(0.1, TWO_PI)
            r = rng.uniform(0.05, 3.0)
            f_r, f_th = rng.normal(scale=0.7), rng.normal(scale=0.7)
            surf = self._jet_surface(alpha, f_r, f_th)
            delta = float(delta_field(surf)(r, 0.0))
            eigs = np.linalg.eigvalsh(induced_metric(surf, r, 0.0))
            assert (delta > 0.0) == bool(eigs.min() > 0.0)

    @given(st.floats(0.05, 3.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=80)
    def test_determinant_factorization_extremal(self, r, f_r, f_th):
        surf = self._jet_surface(0.0, f_r, f_th)
        det = np.linalg.det(induced_metric(surf, r, 0.0))
        delta = float(delta_field(surf)(r, 0.0))
        assert abs(det - r * r * delta) < 1e-9 * max(1.0, abs(det))


class TestHyperbolicCap:
    def test_slack_is_inverse_square(self):
        cap = hyperbolic_plane_surface(1.0)
        r = np.geomspace(1e-4, 1.0, 300)
        delta = delta_field(cap)(r, np.zeros_like(r))
        assert np.max(np.abs(delta * r * r - 1.0)) < 1e-12

    def test_completeness_certificate_is_one(self):
        cap = hyperbolic_plane_surface(1.0)
        assert abs(completeness_certificate(cap) - 1.0) < 1e-6

    def test_radial_length_is_logarithmic(self):
        cap = hyperbolic_plane_surface(1.0)
        for eps in (1e-2, 1e-3):
            path = np.stack(
                [np.geomspace(eps, 1.0, 129), np.zeros(129)], axis=-1
            )
            length = surface_length(cap, path)
            assert abs(length - math.log(1.0 / eps)) < 1e-6, f"eps={eps}"

    def test_flat_cap_is_not_complete(self):
        surf = flat_surface(punctured=True)
        assert completeness_certificate(surf) is None


class TestCompleteSurgery:
    def test_boundary_match_is_exact(self):
        for seed in range(5):
            b = random_boundary(np.random.default_rng(seed))
            surf = extend_boundary_complete(b, 1.0)
            th = np.linspace(0.0, TWO_PI, 128, endpoint=False)
            vals = surf.tau(np.ones_like(th), th)
            assert np.max(np.abs(vals - b.value(th))) == 0.0

    def test_slack_bound(self):
        # tau = b + M (1/r - 1/R) with M = 1 + max b'^2 gives
        # r^2 delta = r^2 + 2M - b'(theta)^2 >= 2 everywhere
        b = random_boundary(np.random.default_rng(12))
        surf = extend_boundary_complete(b, 1.0)
        _, min_r2 = min_spacelike_slack(surf, n_r=256, n_theta=256)
        assert min_r2 > 2.0 - 1e-9

    def test_certificate_and_divergence(self):
        b = random_boundary(np.random.default_rng(13))
        surf = extend_boundary_complete(b, 1.0)
        assert surf.punctured
        cert = completeness_certificate(surf)
        assert cert is not None and cert >= 1.0

    def test_radial_length_bound(self):
        # sqrt(1 - 2 f_r) <= 1 - f_r pointwise, so the radial length is at
        # most (R - r0) + (tau(r0) - tau(R))
        b = random_boundary(np.random.default_rng(14))
        surf = extend_boundary_complete(b, 1.0)
        r0 = 1e-3
        path = np.stack([np.geomspace(r0, 1.0, 257), np.zeros(257)], axis=-1)
        length = surface_length(surf, path)
        drop = float(surf.tau(r0, 0.0) - surf.tau(1.0, 0.0))
        assert length <= (1.0 - r0) + drop + 1e-9
        assert length >= drop * (1.0 - 1e-12) ** 2 / (drop + 1.0)  # sanity: positive scale


class TestCapSurgery:
    def test_continuity_at_interface(self):
        b = random_boundary(np.random.default_rng(15))
        surf = extend_boundary_cap(b, 1.0)
        th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        inner_level = surf.params["cap_constant"] / 1.0
        vals = surf.tau(np.full_like(th, 0.5), th)
        assert np.max(np.abs(vals - inner_level)) < 1e-12

    def test_certified_positive_slack(self):
        for seed in range(5):
            b = random_boundary(np.random.default_rng(100 + seed))
            surf = extend_boundary_cap(b, 1.0)
            assert surf.params["certified_min_delta"] > 1e-9

    def test_inner_disc_is_flat(self):
        b = random_boundary(np.random.default_rng(16))
        surf = extend_boundary_cap(b, 1.0)
        r = np.linspace(1e-3, 0.49, 40)
        delta = delta_field(surf)(r, np.zeros_like(r))
        assert np.max(np.abs(delta - 1.0)) < 1e-12

    def test_fields_on_the_line(self):
        # the cap crosses r = 0, where the discarded outer branch would divide by zero
        b = random_boundary(np.random.default_rng(16))
        surf = extend_boundary_cap(b, 0.37)
        th = np.linspace(0.0, TWO_PI, 16, endpoint=False)
        with np.errstate(all="raise"):
            tau, tau_r = surf.tau(0.0, th), surf.tau_r(0.0, th)
            tau_th = surf.tau_theta(0.0, th)
        assert np.all(tau == surf.params["cap_constant"] / 0.37)
        assert np.all(tau_r == 0.0) and np.all(tau_th == 0.0)

    def test_boundary_match(self):
        b = random_boundary(np.random.default_rng(18))
        surf = extend_boundary_cap(b, 1.0)
        th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        assert np.max(np.abs(surf.tau(np.ones_like(th), th) - b.value(th))) < 1e-12

    def test_wild_boundary_still_certifies(self):
        b = BoundaryCurve.from_trig(0.0, [2.5, 0.0, 1.0], [0.0, 1.5])
        surf = extend_boundary_cap(b, 1.0)
        assert surf.params["certified_min_delta"] > 1e-9

    def test_certified_constants_are_bit_exact(self):
        # the first two boundaries of criterion 6
        rng = np.random.default_rng(106)
        for m, delta_hex in ((32.0, "0x1.daf3090c2593ap+4"), (1.0, "0x1.5fdb11115d25cp+0")):
            b = BoundaryCurve.from_trig(
                rng.normal(), rng.normal(size=5) * 0.3, rng.normal(size=5) * 0.3
            )
            surf = extend_boundary_cap(b, 1.0)
            assert surf.params["cap_constant"] == m
            assert float(surf.params["certified_min_delta"]).hex() == delta_hex

    def test_boundary_evaluated_once_per_angle(self):
        # the fields separate in (r, theta): a grid of radii against angles
        # evaluates the boundary trace on the angles only
        # and once whatever the slope constant
        b, seen = counting_boundary(random_boundary(np.random.default_rng(19), scale=1.0))
        surf = extend_boundary_cap(b, 1.0)
        assert surf.params["cap_constant"] > 2.0
        assert seen[0] <= 2 * _CAP_GRID

        b, seen = counting_boundary(random_boundary(np.random.default_rng(19)))
        min_spacelike_slack(extend_boundary_complete(b, 1.0), n_r=256, n_theta=256)
        assert seen[0] <= 4096 + 256

    def test_certification_failure_reported(self):
        # a boundary slope of 1e10 needs M beyond the last doubling, 2^60,
        # before the blended slack clears the floor
        b = BoundaryCurve.from_trig(0.0, [1e10])
        with pytest.raises(CertificationError):
            doubling_loop_cap(b, 1.0)
        with pytest.raises(CertificationError):
            extend_boundary_cap(b, 1.0)


def reference_min_delta(rr, f_r, f_th):
    """(min delta, min r^2 delta) of extremal jets, as one expression.

    The arithmetic that :func:`btzgeo.surfaces._r2_delta` performs in place:
    r^2 delta = r^2 (1 - 2 f_r) - f_th^2, then divided by r^2.
    """
    r2delta = rr**2 * (1.0 - 2.0 * f_r) - f_th**2
    return float((r2delta / rr**2).min()), float(r2delta.min())


def doubling_loop_cap(boundary, radius):
    """The cap search as a loop over M = 1, 2, 4, ...: (cap_constant, min delta).

    The reference for :func:`extend_boundary_cap`, which must find the same
    doubling with the same bits without evaluating every one.
    """
    rr = np.linspace(0.5 * radius, radius, _CAP_GRID)[:, None]
    tt = np.linspace(0.0, TWO_PI, _CAP_GRID, endpoint=False)[None, :]
    blend = ((2.0 * rr - radius) / radius) ** 2
    blend_d = 4.0 * (2.0 * rr - radius) / radius**2
    m = 1.0
    for _ in range(_CAP_MAX_DOUBLINGS + 1):
        f_r = blend_d * boundary.value(tt) - m / rr**2
        f_th = blend * boundary.derivative(tt)
        min_delta, _ = reference_min_delta(rr, f_r, f_th)
        if min_delta > 1.0e-9:
            return m, min_delta
        m *= 2.0
    raise CertificationError("no cap")


def criterion_6_boundaries():
    rng = np.random.default_rng(106)
    return [
        BoundaryCurve.from_trig(rng.normal(), rng.normal(size=5) * 0.3, rng.normal(size=5) * 0.3)
        for _ in range(100)
    ]


@pytest.fixture
def passes(monkeypatch):
    """The slope constants at which the cap predicate is evaluated, in order."""
    seen = []
    evaluate = surfaces._cap_min_delta

    def recorded(m, *grids):
        seen.append(m)
        return evaluate(m, *grids)

    monkeypatch.setattr(surfaces, "_cap_min_delta", recorded)
    return seen


def assert_same_cap(boundary, radius=1.0):
    m, min_delta = doubling_loop_cap(boundary, radius)
    surf = extend_boundary_cap(boundary, radius)
    assert surf.params["cap_constant"] == m
    assert float(surf.params["certified_min_delta"]).hex() == min_delta.hex()
    return m


class TestCapSearch:
    def test_criterion_6_boundaries_match_the_loop(self, passes):
        constants = set()
        for b in criterion_6_boundaries():
            passes.clear()
            m = assert_same_cap(b)
            constants.add(m)
            # the prediction was exact: 2^k passes and 2^(k-1), if any, fails
            assert passes == ([m] if m == 1.0 else [m, m / 2])
        assert {2.0**k for k in range(7)} <= constants

    @pytest.mark.parametrize("radius", [0.37, 3.0])
    def test_other_radii_match_the_loop(self, radius):
        # at R = 1 the slack is often least at r = 1, where multiplying and
        # dividing by r^2 is exact and hides a change of operation order
        for b in criterion_6_boundaries()[:20]:
            assert_same_cap(b, radius)

    @pytest.mark.parametrize(
        "constant, m", [("0x1.07ffffffdda3fp+2", 32.0), ("0x1.01fffffff7690p+4", 128.0)]
    )
    def test_prediction_one_too_low_steps_up(self, passes, constant, m):
        # near a tie M* rounds to at most 2^(k-1), yet 2^(k-1) fails
        b = BoundaryCurve.from_trig(float.fromhex(constant))
        assert assert_same_cap(b) == m
        assert passes == [m / 2, m]

    def test_prediction_one_too_high_steps_down(self, passes, monkeypatch):
        # no boundary tried rounds the prediction up a doubling, so force it
        predict = surfaces._predicted_doublings
        monkeypatch.setattr(surfaces, "_predicted_doublings", lambda *grids: predict(*grids) + 1)
        for b in criterion_6_boundaries()[:10]:
            passes.clear()
            m = assert_same_cap(b)
            assert passes == ([2 * m, m] if m == 1.0 else [2 * m, m, m / 2])

    @pytest.mark.parametrize("start", [0, 3, 59, _CAP_MAX_DOUBLINGS])
    def test_any_start_finds_the_same_doubling(self, passes, monkeypatch, start):
        b = criterion_6_boundaries()[0]  # cap constant 2^5
        monkeypatch.setattr(surfaces, "_predicted_doublings", lambda *grids: start)
        assert assert_same_cap(b) == 32.0
        steps = range(start, 6) if start < 5 else range(start, 3, -1)
        assert passes == [2.0**k for k in steps]

    def test_wrapped_callables_give_the_same_bits(self):
        # a curve rebuilt from its two callables, as a traced benchmark run
        # builds every boundary, must certify the same constants bit for bit
        def constants(b):
            comp, cap = extend_boundary_complete(b, 1.0), extend_boundary_cap(b, 1.0)
            slack = min_spacelike_slack(comp, n_r=256, n_theta=256)
            values = (comp.params["slope"], *slack, *cap.params.values())
            return [float(v).hex() for v in values]

        for b in criterion_6_boundaries():
            assert constants(counting_boundary(b)[0]) == constants(b)

    def test_nan_boundary_raises_like_the_loop(self):
        b = BoundaryCurve(
            lambda th: np.full(np.shape(th), np.nan), lambda th: np.zeros(np.shape(th))
        )
        with pytest.raises(CertificationError):
            doubling_loop_cap(b, 1.0)
        with pytest.raises(CertificationError):
            extend_boundary_cap(b, 1.0)


class TestLength:
    def test_flat_radial_length(self):
        surf = flat_surface(radius=2.0)
        path = np.array([[0.5, 0.0], [1.5, 0.0]])
        assert abs(surface_length(surf, path) - 1.0) < 1e-12

    def test_flat_circle_length(self):
        surf = flat_surface(radius=2.0)
        th = np.linspace(0.0, TWO_PI, 513)
        path = np.stack([np.ones_like(th), th], axis=-1)
        assert abs(surface_length(surf, path) - TWO_PI) < 1e-9

    def test_rejects_non_spacelike_path(self):
        mk = lambda c: lambda r, th: np.full(np.broadcast(r, th).shape, c)
        steep = GraphSurface.from_functions(
            0.0, 2.0, lambda r, th: 2.0 * np.asarray(r), mk(2.0), mk(0.0)
        )
        with pytest.raises(ValueError):
            surface_length(steep, np.array([[0.5, 0.0], [1.5, 0.0]]))


class TestGridSurfaces:
    def test_partials_recovered(self):
        b = BoundaryCurve.from_trig(0.5, [0.3], [0.2])
        r_nodes = np.linspace(0.2, 1.0, 161)
        th_nodes = np.linspace(0.0, TWO_PI, 128, endpoint=False)
        values = (r_nodes[:, None] ** 2) / 2.0 + b.value(th_nodes)[None, :]
        surf = GraphSurface.from_grid(0.0, r_nodes, th_nodes, values)
        r, th = 0.6, 1.1
        assert abs(surf.tau_r(r, th) - r) < 1e-3
        assert abs(surf.tau_theta(r, th) - b.derivative(th)) < 1e-3

    def test_rejects_nonuniform_theta(self):
        with pytest.raises(ValueError):
            GraphSurface.from_grid(
                0.0,
                np.linspace(0.1, 1.0, 4),
                np.array([0.0, 1.0, 2.0, 5.0]),
                np.zeros((4, 4)),
            )

    def test_rejects_theta_nodes_not_starting_at_zero(self):
        # uniform nodes from 0.3 would extrapolate across the wrap instead of
        # interpolating through theta = 0
        r_nodes = np.linspace(0.5, 1.0, 5)
        th_nodes = 0.3 + TWO_PI * np.arange(16) / 16
        with pytest.raises(ValueError, match="from 0"):
            GraphSurface.from_grid(0.0, r_nodes, th_nodes, np.tile(np.sin(th_nodes), (5, 1)))

    @pytest.mark.parametrize("seed", range(12))
    def test_fields_match_regular_grid_interpolator(self, seed):
        # the reader's bilinear formula is scipy's linear RegularGridInterpolator
        # over the grid closed by 2 pi, bit for bit: nodes, cells, radii outside
        # the nodes, angles past the wrap, NaN
        rng = np.random.default_rng(seed)
        n_r, n_th = int(rng.integers(3, 40)), int(rng.integers(1, 90))
        if seed % 2:
            r_nodes = np.geomspace(rng.uniform(1e-4, 0.5), rng.uniform(1.0, 4.0), n_r)
        else:
            r_nodes = np.cumsum(rng.uniform(0.01, 1.0, n_r))
        th_nodes = np.linspace(0.0, TWO_PI, n_th, endpoint=False)
        values = rng.normal(size=(n_r, n_th)) * 10.0 ** rng.uniform(-3, 3)
        surf = GraphSurface.from_grid(0.0, r_nodes, th_nodes, values)

        h_th = TWO_PI / n_th
        th_closed = np.append(th_nodes, TWO_PI)
        grids = {
            "tau": values,
            "tau_r": np.gradient(values, r_nodes, axis=0, edge_order=2),
            "tau_theta": (np.roll(values, -1, axis=1) - np.roll(values, 1, axis=1)) / (2 * h_th),
        }
        r = np.concatenate([
            r_nodes, rng.uniform(r_nodes[0] - 1.0, r_nodes[-1] + 1.0, 400),
            [np.nan, 0.0, -0.0, 10.0 * r_nodes[-1]],
        ])
        th = np.concatenate([
            th_nodes, rng.uniform(-20.0, 20.0, 400),
            [TWO_PI, -0.0, -1e-20, 1e6, np.nan],
        ])
        rr, tt = np.meshgrid(r, th, indexing="ij")
        for name, grid in grids.items():
            oracle = RegularGridInterpolator(
                (r_nodes, th_closed), np.concatenate([grid, grid[:, :1]], axis=1),
                method="linear", bounds_error=False, fill_value=None,
            )
            want = oracle(np.stack([rr.ravel(), np.mod(tt, TWO_PI).ravel()], axis=-1))
            got = getattr(surf, name)(rr, tt)
            assert got.shape == rr.shape
            assert np.array_equal(got.ravel().view(np.int64), want.view(np.int64)), name

    def test_disc_starts_at_zero(self):
        # a surface that is not punctured may start at the line itself
        surf = GraphSurface.from_grid(0.0, [0.0, 0.5, 1.0], _TH8, np.ones((3, 8)))
        assert surf.r_inner == 0.0 and not surf.punctured
        assert np.all(surf.tau(0.0, _TH8) == 1.0)

    def test_spacelike_scan(self):
        surf = flat_surface(radius=1.0)
        min_delta, min_r2 = min_spacelike_slack(surf, 64, 64)
        assert abs(min_delta - 1.0) < 1e-12
        assert is_spacelike(surf, 64, 64)


class TestMinDelta:
    """The in-place kernel :func:`_r2_delta` against :func:`reference_min_delta`."""

    @staticmethod
    def kernel_min_delta(rr, f_r, f_th):
        out = _r2_delta(rr**2, f_r, f_th**2, np.empty(np.broadcast(rr, f_r, f_th).shape))
        return float((out / rr**2).min()), float(out.min())

    def test_known_values(self):
        r = np.array([[0.5], [1.0], [2.0]])
        f_r = np.zeros((3, 4))
        f_th = np.zeros((3, 4))
        assert self.kernel_min_delta(r, f_r, f_th) == reference_min_delta(r, f_r, f_th)
        assert self.kernel_min_delta(r, f_r, f_th) == (1.0, 0.25)

    def test_negative_slack_detected(self):
        r = np.array([[1.0]])
        f_r = np.array([[0.9]])
        f_th = np.array([[0.0]])
        d, r2 = self.kernel_min_delta(r, f_r, f_th)
        assert d < 0.0 and r2 < 0.0

    def test_same_bits_as_the_expression(self):
        rng = np.random.default_rng(23)
        rr = rng.uniform(0.01, 3.0, (64, 1))
        f_r, f_th = rng.normal(size=(64, 48)), rng.normal(size=(1, 48))
        want = rr**2 * (1.0 - 2.0 * f_r) - f_th**2
        got = _r2_delta(rr**2, f_r, f_th**2, np.empty((64, 48)))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # in place over f_r, as the cap predicate runs it
        assert np.array_equal(_r2_delta(rr**2, f_r, f_th**2, f_r).view(np.int64),
                              want.view(np.int64))


class TestAssemble:
    @staticmethod
    def _pair(inner_level=None):
        b = BoundaryCurve.from_trig(2.0, [0.1], [0.05])
        outer = extend_boundary_cap(b, 1.0)
        level = outer.params["cap_constant"] if inner_level is None else inner_level
        zero = lambda r, th: np.zeros(np.broadcast(r, th).shape)
        inner = GraphSurface.from_functions(
            0.0, 0.5,
            lambda r, th: np.full(np.broadcast(r, th).shape, level),
            zero, zero,
        )
        return outer, inner

    def test_happy_path(self):
        outer, inner = self._pair()
        # restrict the cap to its outer ring before gluing
        ring = GraphSurface.from_functions(
            0.0, outer.radius,
            outer.tau, outer.tau_r, outer.tau_theta,
            r_inner=0.5, params=outer.params,
        )
        comp = assemble_cauchy(ring, inner)
        assert comp.spacelike
        assert comp.crosses_line
        assert comp.max_mismatch < 1e-9
        assert comp.interface_radius == 0.5

    def test_trace_mismatch_raises(self):
        outer, inner = self._pair(inner_level=123.0)
        ring = GraphSurface.from_functions(
            0.0, outer.radius,
            outer.tau, outer.tau_r, outer.tau_theta,
            r_inner=0.5, params=outer.params,
        )
        with pytest.raises(BoundaryMismatchError):
            assemble_cauchy(ring, inner)

    def test_interface_radius_mismatch(self):
        outer, inner = self._pair()
        ring = GraphSurface.from_functions(
            0.0, outer.radius,
            outer.tau, outer.tau_r, outer.tau_theta,
            r_inner=0.7, params=outer.params,
        )
        with pytest.raises(ValueError):
            assemble_cauchy(ring, inner)


def _flat(alpha=0.0, radius=1.0, punctured=False, r_inner=0.0):
    def zero(r, th):
        return np.zeros(np.broadcast(r, th).shape)

    return GraphSurface.from_functions(
        alpha, radius, zero, zero, zero, punctured=punctured, r_inner=r_inner
    )


_TH8 = np.linspace(0.0, TWO_PI, 8, endpoint=False)
_FLAT_TRACE = BoundaryCurve.from_trig()


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: _flat(alpha=-1.0), "invalid cone angle", id="surface-angle"),
    pytest.param(lambda: _flat(r_inner=1.0), "0 <= r_inner < radius", id="surface-radii"),
    pytest.param(lambda: _flat(punctured=True, r_inner=0.5), "r_inner == 0",
                 id="surface-punctured-inner"),
    pytest.param(lambda: GraphSurface.from_grid(0.0, [0.5, 1.0], _TH8, np.zeros((3, 8))),
                 "shaped (n_r, n_theta)", id="grid-shape"),
    pytest.param(lambda: GraphSurface.from_grid(0.0, [0.0, 1.0], _TH8, np.zeros((2, 8)),
                                                punctured=True),
                 "r_nodes must be positive", id="grid-r-zero"),
    pytest.param(lambda: GraphSurface.from_grid(0.0, [-0.5, 0.5, 1.0], _TH8, np.zeros((3, 8))),
                 "r_nodes must be positive", id="grid-disc-below-zero"),
    pytest.param(lambda: GraphSurface.from_grid(0.0, [1.0, 0.5], _TH8, np.zeros((2, 8))),
                 "r_nodes must be positive and increasing", id="grid-r-decreasing"),
    pytest.param(lambda: GraphSurface.from_grid(0.0, [0.5, 1.0], _TH8, np.zeros((2, 8))),
                 "need at least 3 radial nodes", id="grid-two-radial-nodes"),
    pytest.param(lambda: BoundaryCurve.from_trig(0.0, [math.nan]),
                 "coefficients must be finite", id="trig-nan"),
    pytest.param(lambda: BoundaryCurve.from_trig(math.inf), "coefficients must be finite",
                 id="trig-inf"),
    pytest.param(lambda: BoundaryCurve.from_trig(0.0, [], [1.0, -math.inf]),
                 "coefficients must be finite", id="trig-sin-inf"),
    *(
        pytest.param(lambda surgery=surgery, radius=radius: surgery(_FLAT_TRACE, radius),
                     "radius must be finite and positive", id=f"{name}-radius-{radius}")
        for name, surgery in (("complete", extend_boundary_complete),
                              ("cap", extend_boundary_cap))
        for radius in (math.inf, math.nan, 0.0, -1.0)
    ),
    pytest.param(lambda: surface_length(hyperbolic_plane_surface(), [[0.5, 0.0]]),
                 "(n, 2) path", id="length-one-node"),
    pytest.param(lambda: surface_length(hyperbolic_plane_surface(), np.zeros((3, 3))),
                 "(n, 2) path", id="length-3-columns"),
    pytest.param(lambda: completeness_certificate(_flat()), "punctured surfaces",
                 id="certificate-unpunctured"),
    pytest.param(lambda: completeness_certificate(_flat(alpha=math.pi, punctured=True)),
                 "extremal ambient", id="certificate-massive"),
    pytest.param(
        lambda: assemble_cauchy(_flat(radius=2.0, r_inner=1.0), _flat(alpha=math.pi)),
        "ambient cone angles differ", id="assemble-two-ambients",
    ),
])
def test_input_guards(call, fragment):
    with pytest.raises(ValueError) as err:
        call()
    assert fragment in str(err.value)
