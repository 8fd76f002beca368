"""Causal structure of the extremal tube.

The closed-form relation is cross-checked against two independent oracles:

* a winding search through the developing map (lift the target over a range
  of deck translates, test the flat Minkowski causal relation on each lift);
* breadth-first reachability over a chart grid using only secant steps that
  pass the tangent-cone test.

The Monte Carlo volume time is checked against an exactly integrable case:
the causal future of a line point (t0, 0) inside the tube r < R, t in [a, b]
has regular-stratum volume  integral over theta, r of r (b - t0 - r/2),
which for R = 1, b - t0 = 2 equals 5 pi / 3.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btzgeo.causal import (
    MeasureConfig,
    _count_members,
    _sample_pool,
    btz_causal_future,
    btz_causally_reachable,
    btz_connecting_curve,
    decompose_btz,
    grid_reachability,
    reachability_closed_form,
    sample_causal_curves,
    tangent_class,
    validate_causal,
    validate_causal_batch,
    volume_time,
    volume_time_report,
)
from btzgeo.develop import develop_btz
from btzgeo.errors import DegenerateMeasureError, MalformedCurveError
from btzgeo.models import TWO_PI, TubeRegion

RNG = np.random.default_rng(11)


def winding_oracle(p, q, windings=4):
    """Flat-cover oracle: q is causally after p iff some lift of q is.

    Both points regular.  Returns "inside", "boundary" or "outside" with an
    exact-arithmetic-style margin convention (strict / zero / negative), so
    agreement is asserted away from the boundary.
    """
    tp, rp, hp = p
    tq, rq, hq = q
    best = -np.inf
    for k in range(-windings, windings + 1):
        a = develop_btz(np.array([tp, rp, hp]))
        b = develop_btz(np.array([tq, rq, hq + TWO_PI * k]))
        d = b - a
        if d[0] <= 0.0:
            continue
        best = max(best, float(d[0] ** 2 - d[1] ** 2 - d[2] ** 2))
    if best > 0.0:
        return "inside"
    if best == -np.inf or best < 0.0:
        return "outside"
    return "boundary"


class TestTangentClass:
    def test_extremal_vertical_is_null(self):
        # the chart's time lines are null in the extremal model
        assert tangent_class(0.0, 1.0, [1.0, 0.0, 0.0]) == "lightlike-future"

    def test_extremal_interior_cone(self):
        assert tangent_class(0.0, 1.0, [1.0, 1.0, 0.0]) == "timelike-future"
        assert tangent_class(0.0, 1.0, [1.0, 2.0, 0.0]) == "lightlike-future"
        assert tangent_class(0.0, 1.0, [1.0, 2.5, 0.0]) == "spacelike"
        assert tangent_class(0.0, 1.0, [0.0, 0.0, 1.0]) == "spacelike"
        assert tangent_class(0.0, 1.0, [-1.0, -1.0, 0.0]) == "timelike-past"

    def test_massive_round_cone(self):
        assert tangent_class(math.pi, 2.0, [1.0, 0.0, 0.0]) == "timelike-future"
        assert tangent_class(math.pi, 2.0, [1.0, 1.0, 0.0]) == "lightlike-future"
        assert tangent_class(math.pi, 2.0, [1.0, 0.0, 1.0]) == "lightlike-future"

    def test_zero_vector(self):
        assert tangent_class(0.0, 1.0, [0.0, 0.0, 0.0]) == "zero"

    def test_axis_rejected(self):
        from btzgeo.errors import SingularPointError

        with pytest.raises(SingularPointError):
            tangent_class(0.0, 0.0, [1.0, 0.0, 0.0])


# =========================================================================
# Closed-form relation
# =========================================================================


class TestCausalFuture:
    def test_line_to_line(self):
        assert btz_causal_future((0.0, 0.0, 0.0), (1.0, 0.0, 2.0)) == "inside"
        assert btz_causal_future((0.0, 0.0, 0.0), (-1.0, 0.0, 0.0)) == "outside"
        assert btz_causal_future((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)) == "boundary"

    def test_line_exit(self):
        # null exit boundary: dt = r/2
        assert btz_causal_future((0.0, 0.0, 0.0), (0.5, 1.0, 2.0)) == "boundary"
        assert btz_causal_future((0.0, 0.0, 0.0), (0.6, 1.0, 2.0)) == "inside"
        assert btz_causal_future((0.0, 0.0, 0.0), (0.4, 1.0, 2.0)) == "outside"

    def test_never_back_to_line(self):
        assert btz_causal_future((0.0, 1.0, 0.0), (10.0, 0.0, 0.0)) == "outside"

    def test_radius_never_decreases(self):
        assert btz_causal_future((0.0, 1.0, 0.0), (10.0, 0.5, 0.0)) == "outside"

    def test_regular_radial(self):
        assert btz_causal_future((0.0, 1.0, 0.0), (1.0, 1.5, 0.0)) == "inside"
        # vertical chart lines are null
        assert btz_causal_future((0.0, 1.0, 0.0), (1.0, 1.0, 0.0)) == "boundary"

    def test_angular_cost(self):
        # with dt, dr fixed, enough angle pushes q outside
        p = (0.0, 1.0, 0.0)
        assert btz_causal_future(p, (1.0, 1.5, 0.5)) == "inside"
        assert btz_causal_future(p, (1.0, 1.5, 3.0)) == "outside"

    def test_same_point(self):
        assert btz_causal_future((0.3, 0.7, 1.0), (0.3, 0.7, 1.0)) == "boundary"

    def test_angle_wraps(self):
        p = (0.0, 1.0, 0.1)
        q_in = (1.0, 1.5, TWO_PI - 0.1)
        # going the short way around costs |0.2| of angle, not 2 pi - 0.2
        assert btz_causal_future(p, q_in) == "inside"

    @given(
        st.floats(-1.0, 1.0),
        st.floats(0.05, 2.0),
        st.floats(0.0, TWO_PI),
        st.floats(-1.0, 2.5),
        st.floats(0.05, 2.5),
        st.floats(0.0, TWO_PI),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_winding_oracle(self, tp, rp, hp, tq, rq, hq):
        p, q = (tp, rp, hp), (tq, rq, hq)
        got = btz_causal_future(p, q)
        expected = winding_oracle(p, q)
        if got == "boundary" or expected == "boundary":
            return  # measure-zero fence; tolerances differ there by design
        assert got == expected, f"{p} -> {q}: closed form {got}, oracle {expected}"

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, TWO_PI),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_transitive(self, t1, r1, h1, dt, dr):
        p = (t1, r1 if r1 > 0.1 else 0.0, h1)
        q = (t1 + 1.0 + dt, p[1] + dr, h1 + 0.3)
        s = (q[0] + 1.5, q[1] + 0.4, h1 + 0.5)
        if btz_causally_reachable(p, q) and btz_causally_reachable(q, s):
            assert btz_causal_future(p, s) != "outside"


class TestConnectingCurve:
    def test_regular_endpoints(self):
        p, q = (0.0, 1.0, 0.2), (1.5, 1.8, 1.0)
        assert btz_causal_future(p, q) == "inside"
        curve = btz_connecting_curve(p, q)
        assert np.max(np.abs(curve[0] - p)) < 1e-12
        assert np.max(np.abs(curve[-1] - q)) < 1e-12
        # consecutive samples stay causally ordered under the closed form
        for a, b in zip(curve[:-1], curve[1:]):
            assert btz_causal_future(tuple(a), tuple(b)) != "outside"

    def test_line_start(self):
        p, q = (0.0, 0.0, 0.0), (2.0, 1.0, 1.5)
        curve = btz_connecting_curve(p, q)
        assert curve[0, 1] == 0.0
        assert np.max(np.abs(curve[-1] - q)) < 1e-12
        assert np.all(np.diff(curve[:, 1]) >= -1e-15)

    def test_rejects_unreachable(self):
        with pytest.raises(ValueError):
            btz_connecting_curve((0.0, 1.0, 0.0), (-1.0, 1.5, 0.0))


# =========================================================================
# Curve validation
# =========================================================================


class TestValidateCausal:
    def test_chronological(self):
        pts = [[0.0, 1.0, 0.0], [1.0, 1.5, 0.1], [2.0, 2.0, 0.2]]
        assert validate_causal(0.0, pts).kind == "valid-chronological"

    def test_null_vertical_segments_are_causal(self):
        pts = [[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
        verdict = validate_causal(0.0, pts)
        assert verdict.kind == "valid-causal"

    def test_decreasing_radius_is_violation(self):
        pts = [[0.0, 1.0, 0.0], [1.0, 0.9, 0.0]]
        verdict = validate_causal(0.0, pts)
        assert verdict.kind == "violation" and verdict.index == 0

    def test_shallow_line_exit_is_violation(self):
        pts = [[0.0, 0.0, 0.0], [0.4, 1.0, 0.0]]
        assert validate_causal(0.0, pts).kind == "violation"

    def test_line_segment_is_causal_not_chronological(self):
        pts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
        assert validate_causal(0.0, pts).kind == "valid-causal"

    def test_massive_chronology(self):
        pts = [[0.0, 1.0, 0.0], [1.0, 1.2, 0.1]]
        assert validate_causal(math.pi, pts).kind == "valid-chronological"
        # massive cones allow decreasing radius, unlike the extremal tube
        pts = [[0.0, 1.0, 0.0], [1.0, 0.5, 0.0]]
        assert validate_causal(math.pi, pts).kind == "valid-chronological"

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            validate_causal(0.0, [[0.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            validate_causal(0.0, [[0.0, -1.0, 0.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            validate_causal(0.0, [[0.0, np.nan, 0.0], [1.0, 1.0, 0.0]])

    @pytest.mark.parametrize("alpha, pts", [
        (-1.0, [[0.0, 0.5, 0.0], [1.0, 0.6, 0.0]]),  # invalid cone angle
        (TWO_PI + 0.1, [[0.0, 0.5, 0.0], [1.0, 0.6, 0.0]]),
        (0.0, [[0.0, -0.5, 0.0], [1.0, 0.6, 0.0]]),  # negative radius
        (0.0, [[0.0, 0.5, 0.0], [np.inf, 0.6, 0.0]]),  # non-finite sample
        (0.0, [[0.0, 0.5, np.nan], [1.0, 0.6, 0.0]]),
    ])
    def test_bad_input_rejected_by_both_paths(self, alpha, pts):
        with pytest.raises(ValueError):
            validate_causal(alpha, pts)
        with pytest.raises(ValueError):
            validate_causal_batch(alpha, [pts])

    def test_batch_agrees_with_scalar(self):
        region = TubeRegion(0.0, 1.0, 0.0, 2.0)
        curves = sample_causal_curves(region, 40, seed=5)
        kinds, first_bad = validate_causal_batch(0.0, np.stack(curves))
        for i, c in enumerate(curves):
            assert validate_causal(0.0, c).kind == kinds[i]
        assert np.all(first_bad == -1)


class TestDecompose:
    def test_split(self):
        pts = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.5, 0.5, 0.1], [2.0, 0.8, 0.1]]
        )
        line, regular = decompose_btz(pts)
        assert line.shape == (2, 3) and regular.shape == (2, 3)

    def test_all_regular(self):
        pts = np.array([[0.0, 1.0, 0.0], [1.0, 1.2, 0.0]])
        line, regular = decompose_btz(pts)
        assert line.shape == (0, 3) and regular.shape == (2, 3)

    def test_return_to_line_is_malformed(self):
        pts = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(MalformedCurveError):
            decompose_btz(pts)


class TestSampledCurves:
    def test_all_valid_and_monotone(self):
        region = TubeRegion(0.0, 1.0, 0.0, 2.0)
        curves = sample_causal_curves(region, 100, seed=3)
        assert len(curves) == 100
        stack = np.stack(curves)
        kinds, _ = validate_causal_batch(0.0, stack)
        assert np.all(kinds != "violation")
        assert np.all(np.diff(stack[:, :, 1], axis=1) >= 0.0)
        # stays inside the open tube
        assert np.all(stack[:, :, 1] < 1.0)
        assert np.all((stack[:, :, 0] >= 0.0) & (stack[:, :, 0] <= 2.0))

    def test_line_fraction(self):
        region = TubeRegion(0.0, 1.0, 0.0, 2.0)
        curves = sample_causal_curves(region, 50, seed=9, line_fraction=0.5)
        n_line = sum(c[0, 1] == 0.0 for c in curves)
        assert n_line == 25


# =========================================================================
# Grid reachability
# =========================================================================


class TestGridReachability:
    def test_default_base_matches_closed_form(self):
        grid = grid_reachability(n_tau=21, n_r=21, n_theta=9)
        assert np.array_equal(grid.reach, reachability_closed_form(grid))

    def test_higher_base_matches_closed_form(self):
        grid = grid_reachability(base=(10, 0, 0), n_tau=21, n_r=21, n_theta=9)
        assert np.array_equal(grid.reach, reachability_closed_form(grid))
        # nothing below the base is reachable
        assert not grid.reach[:10].any()

    def test_reach_is_theta_symmetric_from_line(self):
        grid = grid_reachability(n_tau=15, n_r=15, n_theta=7)
        assert np.all(grid.reach == grid.reach[:, :, :1])

    def test_regular_base_rejected(self):
        with pytest.raises(ValueError):
            reachability_closed_form(grid_reachability(base=(0, 3, 0), n_tau=9, n_r=9, n_theta=5))


# =========================================================================
# Volume time
# =========================================================================


class TestVolumeTime:
    REGION = TubeRegion(0.0, 1.0, 0.0, 2.0)

    def test_future_volume_of_line_point_analytic(self):
        # exact 3d volume of J+((0,0)) in the tube: 5 pi / 3
        config = MeasureConfig(weight3=1.0, weight1=1.0, n_samples=400_000)
        region = TubeRegion(0.0, 1.0, -0.5, 2.0)
        res = volume_time_report(region, (0.0, 0.0, 0.0), config, seed=42)
        mc_future_3d = res.future_volume - 1.0 * 2.0  # strip the line stratum
        assert res.future_stderr > 0.0
        assert abs(mc_future_3d - 5.0 * math.pi / 3.0) < 4.0 * res.future_stderr

    def test_past_of_line_point_is_line_only(self):
        # no regular point reaches the line, so the past is exactly the
        # weighted line segment below the point: zero Monte Carlo variance
        config = MeasureConfig(weight3=1.0, weight1=1.0, n_samples=50_000)
        region = TubeRegion(0.0, 1.0, -0.5, 2.0)
        res = volume_time_report(region, (0.0, 0.0, 0.0), config, seed=1)
        assert res.past_volume == 0.5
        assert res.past_stderr == 0.0

    def test_degenerate_without_line_weight(self):
        with pytest.raises(DegenerateMeasureError) as exc:
            volume_time(self.REGION, (1.0, 0.0, 0.0), MeasureConfig(weight1=0.0))
        assert exc.value.side == "past"
        assert exc.value.estimate == 0.0

    def test_degenerate_at_bottom_of_region(self):
        config = MeasureConfig(weight3=1.0, weight1=1.0, n_samples=1000)
        with pytest.raises(DegenerateMeasureError):
            volume_time(self.REGION, (0.0, 0.0, 0.0), config)

    def test_strictly_increasing_on_line(self):
        config = MeasureConfig(weight3=1.0, weight1=1.0, n_samples=50_000)
        vals = [
            volume_time(self.REGION, (t, 0.0, 0.0), config, seed=8)
            for t in (0.5, 1.0, 1.5)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_monotone_along_sampled_curves(self):
        config = MeasureConfig(weight3=1.0, weight1=0.5, n_samples=50_000)
        curves = sample_causal_curves(self.REGION, 10, seed=21)
        for curve in curves:
            reports = [
                volume_time_report(self.REGION, p, config, seed=4) for p in curve
            ]
            for a, b in zip(reports[:-1], reports[1:]):
                slack = 3.0 * (a.stderr + b.stderr)
                assert b.value >= a.value - slack

    def test_point_outside_region_rejected(self):
        with pytest.raises(ValueError):
            volume_time(self.REGION, (5.0, 0.5, 0.0))

    def test_shared_pool_is_deterministic(self):
        config = MeasureConfig(n_samples=10_000, weight1=1.0)
        a = volume_time(self.REGION, (1.0, 0.3, 0.0), config, seed=6)
        b = volume_time(self.REGION, (1.0, 0.3, 0.0), config, seed=6)
        assert a == b


class TestCountMembers:
    @staticmethod
    def random_pool(rng, n, line_fraction=0.1):
        tau = rng.uniform(-2.0, 2.0, n)
        r = rng.uniform(0.0, 2.0, n)
        r[rng.uniform(0.0, 1.0, n) < line_fraction] = 0.0
        th = rng.uniform(0.0, 20.0, n)
        return tau, r, th

    @staticmethod
    def scalar_counts(tau, r, th, q):
        pool = list(zip(tau, r, th))
        past = sum(btz_causal_future(p, q) != "outside" for p in pool)
        future = sum(btz_causal_future(q, p) != "outside" for p in pool)
        return past, future

    def test_matches_scalar_classifier(self):
        rng = np.random.default_rng(31)
        tau, r, th = self.random_pool(rng, 400)
        for q in [(0.3, 0.7, 1.0), (0.0, 0.0, 0.0), (-1.0, 1.5, 9.0)]:
            # the count applies the inequalities exactly while the
            # classifier keeps a tolerance fence; random pools do not
            # land inside the fence
            assert _count_members(tau, r, th, *q) == self.scalar_counts(tau, r, th, q)

    def test_planted_boundary_points(self):
        # dyadic coordinates make every margin exact, so these points lie
        # exactly on the boundaries of J-(q) and J+(q), where the count and
        # the classifier must agree without the fence
        rng = np.random.default_rng(32)
        for q in [(0.5, 0.0, 0.0), (0.75, 0.5, 1.0)]:
            tp, rp, hp = q
            steps = (0.25, 0.5, 1.0)
            planted = np.array(
                [(tp + d / 2, rp + d, hp) for d in steps]  # null rays out of q
                + [(tp - d / 2, rp - d, hp) for d in steps if d <= rp]  # into q
                + [(tp, 0.0, h) for h in (0.0, 2.0)]  # the line at dt = 0
                + [(tp - rp / 2, 0.0, h) for h in (0.0, 2.0)]  # exits reaching q
                + [(tp + d, rp, hp) for d in (-1.0, 1.0)]  # vertical null lines
            )
            pools = [planted.T, np.concatenate([self.random_pool(rng, 400), planted.T], axis=1)]
            for tau, r, th in pools:
                assert _count_members(tau, r, th, *q) == self.scalar_counts(tau, r, th, q)

    def test_golden_counts(self):
        # raw (past, future) pool hits behind perfbench's volume_time digest
        region = TubeRegion(0.0, 1.0, 0.0, 2.0)
        pool = _sample_pool(region, 100_000, 5)
        curves = sample_causal_curves(region, 10, seed=109)
        counts = [_count_members(*pool, *p) for c in (curves[0], curves[-1]) for p in c]
        assert counts == [
            (121, 37201), (189, 31135), (262, 28489), (347, 26518), (824, 15023),
            (1664, 9098), (2203, 7520), (3937, 2962), (4934, 1486), (0, 75947),
            (0, 73836), (0, 71536), (22, 62856), (248, 37749), (781, 19829),
            (1470, 13895), (1609, 12854), (2020, 10599),
        ]

    def test_angle_wrap_many_turns(self):
        # same physical points, angles separated by whole turns: one point
        # on the vertical null line above the query and one below it
        tau = np.array([-1.0, 1.0])
        r = np.array([1.0, 1.0])
        for k in range(-3, 4):
            th = np.full(2, 2.0 * np.pi * k)
            assert _count_members(tau, r, th, 0.0, 1.0, 0.0) == (1, 1)

    def test_empty_pool(self):
        z = np.zeros(0)
        assert _count_members(z, z, z, 0.0, 1.0, 0.0) == (0, 0)
