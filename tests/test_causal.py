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
    _count_pool,
    _sample_pool,
    _sort_pool,
    btz_causal_future,
    btz_connecting_curve,
    grid_reachability,
    reachability_closed_form,
    sample_causal_curves,
    tangent_class,
    validate_causal,
    volume_time_report,
)
from btzgeo.develop import develop_btz
from btzgeo.errors import DegenerateMeasureError
from btzgeo.extensions import chain_membership
from btzgeo.models import TWO_PI, ModelPoint, TubeRegion

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

    def test_point_of_another_angle_rejected(self):
        # a pi-cone point must not be classified in the extremal metric
        with pytest.raises(ValueError, match="angle mismatch"):
            tangent_class(0.0, ModelPoint(math.pi, 0.0, 1.0, 0.0), [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="angle mismatch"):
            tangent_class(math.pi, ModelPoint(0.0, 0.0, 1.0, 0.0), [1.0, 0.0, 0.0])
        point = ModelPoint(math.pi, 0.0, 1.0, 0.0)
        assert tangent_class(math.pi, point, [1.0, 0.0, 0.0]) == "timelike-future"


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
        if btz_causal_future(p, q) != "outside" and btz_causal_future(q, s) != "outside":
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

    def test_line_to_line(self):
        p, q = (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)
        curve = btz_connecting_curve(p, q)
        assert curve.shape == (65, 3)
        assert np.all(curve[:, 1] == 0.0)
        assert tuple(curve[0]) == p and tuple(curve[-1]) == q
        assert validate_causal(0.0, curve)[0] == "valid-causal"

    def test_rejects_unreachable(self):
        with pytest.raises(ValueError):
            btz_connecting_curve((0.0, 1.0, 0.0), (-1.0, 1.5, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_non_finite_tuple_points_raise(bad, slot):
    # tuple points are validated as ModelPoints: no verdict on NaN or inf
    point = [0.5, 0.5, 0.0]
    point[slot] = bad
    point = tuple(point)
    region = TubeRegion(0.0, 1.0, 0.0, 2.0)
    calls = (
        lambda: btz_causal_future((0.0, 1.0, 0.0), point),
        lambda: btz_causal_future(point, (1.0, 1.0, 0.0)),
        lambda: btz_connecting_curve((0.0, 0.0, 0.0), point),
        lambda: volume_time_report(region, point, MeasureConfig(n_samples=100)),
    )
    for call in calls:
        with pytest.raises(ValueError, match="non-finite"):
            call()


@pytest.mark.parametrize("call", [
    lambda p: btz_causal_future(p, ModelPoint(0.0, 0.8, 1.0, 0.0)),
    lambda p: btz_causal_future((0.0, 1.0, 0.0), p),
    lambda p: btz_connecting_curve((0.0, 1.0, 0.0), p),
    lambda p: volume_time_report(
        TubeRegion(0.0, 2.0, 0.0, 2.0), p, MeasureConfig(n_samples=100)
    ),
    chain_membership,
], ids=["causal-future-p", "causal-future-q", "connecting-curve", "volume-time", "chain"])
def test_massive_points_raise(call):
    # a vertical step is timelike at a pi-cone point and null in the
    # extremal tube, so the extremal relation must not judge it
    with pytest.raises(ValueError, match="cone angle mismatch"):
        call(ModelPoint(math.pi, 0.8, 1.0, 0.0))


# =========================================================================
# Curve validation
# =========================================================================


class TestValidateCausal:
    def test_chronological(self):
        pts = [[0.0, 1.0, 0.0], [1.0, 1.5, 0.1], [2.0, 2.0, 0.2]]
        assert validate_causal(0.0, pts)[0] == "valid-chronological"

    def test_null_vertical_segments_are_causal(self):
        pts = [[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
        assert validate_causal(0.0, pts) == ("valid-causal", -1)

    def test_decreasing_radius_is_violation(self):
        pts = [[0.0, 1.0, 0.0], [1.0, 0.9, 0.0]]
        assert validate_causal(0.0, pts) == ("violation", 0)

    def test_shallow_line_exit_is_violation(self):
        pts = [[0.0, 0.0, 0.0], [0.4, 1.0, 0.0]]
        assert validate_causal(0.0, pts)[0] == "violation"

    def test_line_segment_is_causal_not_chronological(self):
        pts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
        assert validate_causal(0.0, pts)[0] == "valid-causal"

    def test_massive_chronology(self):
        pts = [[0.0, 1.0, 0.0], [1.0, 1.2, 0.1]]
        assert validate_causal(math.pi, pts)[0] == "valid-chronological"
        # massive cones allow decreasing radius, unlike the extremal tube
        pts = [[0.0, 1.0, 0.0], [1.0, 0.5, 0.0]]
        assert validate_causal(math.pi, pts)[0] == "valid-chronological"

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
            validate_causal(alpha, [pts])

    @pytest.mark.parametrize("alpha, pts", [
        (math.pi, [[0.0, 1.0, 0.0], [1e200, 1.0, 0.0]]),  # -dt^2 overflows
        (0.0, [[0.0, 1.0, 0.0], [1e200, 1e200, 0.0]]),
        (0.0, [[-1e308, 1.0, 0.0], [1e308, 1.0, 0.0]]),  # dt overflows
        (math.pi, [[0.0, 1e200, 0.0], [1.0, 1e200, 1.0]]),  # angle term
    ])
    def test_overflowing_secant_rejected(self, alpha, pts):
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="overflows"):
                validate_causal(alpha, pts)
            with pytest.raises(ValueError, match="overflows"):
                validate_causal(alpha, [pts])

    def test_batch_agrees_with_scalar(self):
        region = TubeRegion(0.0, 1.0, 0.0, 2.0)
        curves = sample_causal_curves(region, 40, seed=5)
        kinds, first_bad = validate_causal(0.0, curves)
        for i, c in enumerate(curves):
            assert validate_causal(0.0, c)[0] == kinds[i]
        assert np.all(first_bad == -1)

    def test_one_curve_gives_a_str_and_an_int(self):
        kind, first_bad = validate_causal(0.0, [[0.0, 1.0, 0.0], [1.0, 1.5, 0.1]])
        assert (type(kind), type(first_bad)) == (str, int)
        assert (kind, first_bad) == ("valid-chronological", -1)
        kind, first_bad = validate_causal(0.0, [[0.0, 1.0, 0.0], [1.0, 1.5, 0.1], [0.5, 1.5, 0.1]])
        assert (type(kind), type(first_bad)) == (str, int)
        assert (kind, first_bad) == ("violation", 1)

    def test_stack_of_stacks_matches_each_curve(self):
        curves = sample_causal_curves(TubeRegion(0.0, 1.0, 0.0, 2.0), 6, seed=9)
        curves[1, 5:, 0] -= 0.5  # time runs back at segment 4
        curves[2, 2, 1] = 0.0  # radius drops to the line at segment 1
        curves[5] = curves[5, ::-1]  # past directed from segment 0
        stack = curves.reshape(2, 3, 9, 3)
        kinds, first_bad = validate_causal(0.0, stack)
        assert kinds.shape == first_bad.shape == (2, 3)
        per_curve = [validate_causal(0.0, c) for c in curves]
        assert list(zip(kinds.ravel(), first_bad.ravel())) == per_curve
        assert first_bad.ravel().tolist() == [-1, 4, 1, -1, -1, 0]


class TestSampledCurves:
    def test_all_valid_and_monotone(self):
        region = TubeRegion(0.0, 1.0, 0.0, 2.0)
        stack = sample_causal_curves(region, 100, seed=3)
        assert stack.shape == (100, 9, 3)
        kinds, _ = validate_causal(0.0, stack)
        assert np.all(kinds != "violation")
        assert np.all(np.diff(stack[:, :, 1], axis=1) >= 0.0)
        # stays inside the open tube
        assert np.all(stack[:, :, 1] < 1.0)
        assert np.all((stack[:, :, 0] >= 0.0) & (stack[:, :, 0] <= 2.0))

    def test_line_fraction(self):
        region = TubeRegion(0.0, 1.0, 0.0, 2.0)
        curves = sample_causal_curves(region, 50, seed=9)
        n_line = sum(c[0, 1] == 0.0 for c in curves)
        assert n_line == 15


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

    @pytest.mark.parametrize("base, shape", [
        ((0, 0, 0), (41, 41, 17)),
        ((0, 0, 0), (21, 21, 9)),
        ((3, 5, 2), (21, 21, 9)),
        ((0, 1, 0), (30, 3, 4)),
        ((2, 0, 3), (30, 3, 4)),
        ((4, 7, 0), (13, 29, 1)),
        ((1, 2, 1), (25, 11, 2)),
    ])
    def test_matches_the_per_step_loop(self, base, shape):
        # off-line bases and unequal spacings, where the closed form is not an
        # oracle: the BFS keeps the reach of a per-step np.roll loop
        grid = grid_reachability(base, *shape)
        assert np.array_equal(grid.reach, _roll_loop_reach(base, *shape))

    def test_two_radial_nodes(self):
        grid = grid_reachability(n_tau=3, n_r=2, n_theta=4)
        assert np.array_equal(grid.reach, reachability_closed_form(grid))


def _roll_loop_reach(base, n_tau, n_r, n_theta):
    """Grid BFS written one np.roll copy per stencil edge and tau slice."""
    i0, j0, k0 = base
    taus = np.linspace(0.0, 1.0, n_tau)
    radii = np.linspace(0.0, 1.0, n_r)
    h_tau = taus[1] - taus[0]
    h_th = TWO_PI / n_theta
    djs = (0, 1, 2)
    dks = (-1, 0, 1)
    allowed = np.zeros((n_r, len(djs), len(dks)), dtype=bool)
    for a, dj in enumerate(djs):
        for b, dk in enumerate(dks):
            dr = radii[dj] - radii[0] if dj else 0.0
            dphi = dk * h_th
            q = -2.0 * h_tau * dr + dr**2 + (radii * dphi) ** 2
            scale = h_tau**2 + dr**2 + (radii * dphi) ** 2
            allowed[:, a, b] = q <= 1.0e-9 * scale
    exit_ok = np.zeros(n_r, dtype=bool)
    for j in (1, 2):
        if j < n_r:
            dr = radii[j]
            exit_ok[j] = dr * (dr - 2.0 * h_tau) <= 1.0e-9 * (h_tau**2 + dr**2)
    reach = np.zeros((n_tau, n_r, n_theta), dtype=bool)
    if j0 == 0:
        reach[i0, 0, :] = True
    else:
        reach[i0, j0, k0] = True
    for i in range(i0 + 1, n_tau):
        prev = reach[i - 1]
        cur = np.zeros((n_r, n_theta), dtype=bool)
        cur[0, :] = prev[0, 0]
        for a, dj in enumerate(djs):
            for b, dk in enumerate(dks):
                rolled = np.roll(prev, dk, axis=1)
                contrib = np.zeros((n_r, n_theta), dtype=bool)
                if dj:
                    contrib[dj:, :] = rolled[:-dj, :]
                else:
                    contrib = rolled.copy()
                contrib[0, :] = False
                contrib[:dj, :] = False
                cur |= contrib & allowed[:, a, b][:, None]
        if prev[0, 0]:
            for j in (1, 2):
                if j < n_r and exit_ok[j]:
                    cur[j, :] = True
        reach[i] = cur
    return reach


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
            volume_time_report(self.REGION, (1.0, 0.0, 0.0), MeasureConfig(weight1=0.0))
        assert exc.value.side == "past"
        assert exc.value.estimate == 0.0

    def test_degenerate_at_bottom_of_region(self):
        config = MeasureConfig(weight3=1.0, weight1=1.0, n_samples=1000)
        with pytest.raises(DegenerateMeasureError):
            volume_time_report(self.REGION, (0.0, 0.0, 0.0), config)

    def test_strictly_increasing_on_line(self):
        config = MeasureConfig(weight3=1.0, weight1=1.0, n_samples=50_000)
        vals = [
            volume_time_report(self.REGION, (t, 0.0, 0.0), config, seed=8).value
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
            volume_time_report(self.REGION, (5.0, 0.5, 0.0))

    def test_shared_pool_is_deterministic(self):
        config = MeasureConfig(n_samples=10_000, weight1=1.0)
        a = volume_time_report(self.REGION, (1.0, 0.3, 0.0), config, seed=6).value
        b = volume_time_report(self.REGION, (1.0, 0.3, 0.0), config, seed=6).value
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

    PLANTED_QUERIES = [(0.5, 0.0, 0.0), (0.75, 0.5, 1.0)]

    @staticmethod
    def planted(q):
        """(3, k) points exactly on the boundaries of J-(q) and J+(q)."""
        tp, rp, hp = q
        steps = (0.25, 0.5, 1.0)
        return np.array(
            [(tp + d / 2, rp + d, hp) for d in steps]  # null rays out of q
            + [(tp - d / 2, rp - d, hp) for d in steps if d <= rp]  # into q
            + [(tp, 0.0, h) for h in (0.0, 2.0)]  # the line at dt = 0
            + [(tp - rp / 2, 0.0, h) for h in (0.0, 2.0)]  # exits reaching q
            + [(tp + d, rp, hp) for d in (-1.0, 1.0)]  # vertical null lines
        ).T

    def test_planted_boundary_points(self):
        # dyadic coordinates make every margin exact, so these points lie
        # exactly on the boundaries of J-(q) and J+(q), where the count and
        # the classifier must agree without the fence
        rng = np.random.default_rng(32)
        for q in self.PLANTED_QUERIES:
            planted = self.planted(q)
            pools = [planted, np.concatenate([self.random_pool(rng, 400), planted], axis=1)]
            for tau, r, th in pools:
                assert _count_members(tau, r, th, *q) == self.scalar_counts(tau, r, th, q)

    def test_query_point_is_in_both_cones(self):
        # J-(p) and J+(p) are closed: a pool point equal to the query counts in
        # both, for a query on the line and off it, as the classifier says
        region = TubeRegion(0.0, 2.0, -1.0, 2.0)
        rng = np.random.default_rng(36)
        for q in self.PLANTED_QUERIES:
            own = np.array([q], dtype=float).T
            assert _count_members(*own, *q) == (1, 1) == self.scalar_counts(*own, q)
            tau, r, th = np.concatenate([self.random_pool(rng, 400), own], axis=1)
            counts = self.scalar_counts(tau, r, th, q)
            assert _count_members(tau, r, th, *q) == counts
            pool = TestSortedPool.sorted_pool(region, tau, r, th)
            assert _count_pool(pool, *q) == counts

    def test_golden_counts(self):
        # raw (past, future) pool hits behind perfbench's volume_time digest
        region = TubeRegion(0.0, 1.0, 0.0, 2.0)
        pool = _sample_pool(region, 100_000, 5)
        curves = sample_causal_curves(region, 10, seed=109)
        points = [p for c in (curves[0], curves[-1]) for p in c]
        golden = [
            (121, 37201), (189, 31135), (262, 28489), (347, 26518), (824, 15023),
            (1664, 9098), (2203, 7520), (3937, 2962), (4934, 1486), (0, 75947),
            (0, 73836), (0, 71536), (22, 62856), (248, 37749), (781, 19829),
            (1470, 13895), (1609, 12854), (2020, 10599),
        ]
        # the banded count and the full scan of the same pool
        assert [_count_pool(pool, *p) for p in points] == golden
        assert [_count_members(pool.tau, pool.r, pool.th, *p) for p in points] == golden

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


class TestSortedPool:
    """The banded count of :func:`_count_pool` against the full scan."""

    REGION = TubeRegion(0.0, 2.0, 0.0, 1.0)

    @staticmethod
    def sorted_pool(region, tau, r, th):
        # _sort_pool sorts in place: hand it copies
        return _sort_pool(region, *(np.array(a, dtype=float) for a in (tau, r, th)))

    @staticmethod
    def full_scan(pool, q):
        return _count_members(pool.tau, pool.r, pool.th, *q)

    def test_planted_points_through_sorted_pool(self):
        # the planted boundary and line points of TestCountMembers, alone
        # and mixed into a random pool of the region with 10% line points
        region = TubeRegion(0.0, 2.0, -1.0, 2.0)
        rng = np.random.default_rng(32)
        for q in TestCountMembers.PLANTED_QUERIES:
            planted = TestCountMembers.planted(q)
            noise = np.stack([
                rng.uniform(-1.0, 2.0, 400),
                np.where(rng.uniform(0.0, 1.0, 400) < 0.1, 0.0, rng.uniform(0.0, 2.0, 400)),
                rng.uniform(0.0, TWO_PI, 400),
            ])
            for tau, r, th in (planted, np.concatenate([noise, planted], axis=1)):
                pool = self.sorted_pool(region, tau, r, th)
                expected = TestCountMembers.scalar_counts(tau, r, th, q)
                assert _count_pool(pool, *q) == expected

    def test_line_points_in_a_large_pool(self):
        # line points (r = 0) mixed into a pool large enough that most
        # buckets are banded
        rng = np.random.default_rng(33)
        n = 50_000
        tau = rng.uniform(0.0, 1.0, n)
        r = 2.0 * np.sqrt(rng.uniform(0.0, 1.0, n))
        r[rng.uniform(0.0, 1.0, n) < 0.02] = 0.0
        th = rng.uniform(0.0, TWO_PI, n)
        pool = self.sorted_pool(self.REGION, tau, r, th)
        assert np.count_nonzero(pool.r == 0.0) > 500
        for q in [(0.5, 0.0, 0.0), (0.3, 1e-5, 1.0), (0.6, 0.7, 3.0), (0.9, 1.9, 6.0)]:
            assert _count_pool(pool, *q) == self.full_scan(pool, q)

    def edge_queries(self, pool):
        nominal_r = [k * 2.0 / 32 for k in range(33)]
        data_r = sorted(set(pool.r_lo[::37]) | set(pool.r_hi[::41]))
        radii = [0.0, 1e-5, 1e-4, 2.0] + nominal_r + data_r
        radii += [min(2.0, max(0.0, x + d)) for x in nominal_r[::3] + data_r[::3]
                  for d in (-1.01e-4, -1e-4, -0.99e-4, 0.99e-4, 1e-4, 1.01e-4)]
        thetas = [0.0, math.pi, -math.pi, TWO_PI, TWO_PI - 1e-12, 1e-12, 100.0 * TWO_PI + 1.0]
        thetas += [k * TWO_PI / 32 for k in range(1, 32, 5)]
        thetas += [float(h) for h in pool.h_lo[::97]] + [float(h) for h in pool.h_hi[::89]]
        rng = np.random.default_rng(34)
        for i, rp in enumerate(radii):
            yield float(rng.uniform(0.0, 1.0)), float(rp), thetas[i % len(thetas)]
        for i, hp in enumerate(thetas):
            yield float(rng.uniform(0.0, 1.0)), radii[(7 * i) % len(radii)], hp

    def test_bucket_edges_and_wrap(self):
        pool = _sample_pool(self.REGION, 100_000, 5)
        assert pool.banded
        queries = list(self.edge_queries(pool))
        assert len(queries) > 150
        for q in queries:
            assert _count_pool(pool, *q) == self.full_scan(pool, q), q

    def test_random_queries_match_full_scan(self):
        # seeded property test over the whole tube, including its rims
        pool = _sample_pool(self.REGION, 100_000, 6)
        rng = np.random.default_rng(35)
        tps = rng.uniform(0.0, 1.0, 300)
        rps = 2.0 * np.sqrt(rng.uniform(0.0, 1.0, 300))
        hps = rng.uniform(-10.0, 20.0, 300)
        for q in zip(tps, rps, hps):
            q = tuple(float(v) for v in q)
            assert _count_pool(pool, *q) == self.full_scan(pool, q), q

    def test_small_radius_queries_around_the_wrap(self):
        # at small r_p the far side phi ~ +-pi is reachable within the tube,
        # so the bucket across phi = +-pi decides counts near its T_lo
        pool = _sample_pool(self.REGION, 100_000, 5)
        for rp in (0.01, 0.03, 0.1):
            for hp in np.linspace(0.0, TWO_PI, 97):
                q = (0.2, rp, float(hp))
                assert _count_pool(pool, *q) == self.full_scan(pool, q), q

    def test_points_on_the_time_rims(self):
        # tau = t_max and tau = t_min in every bucket: the key stride keeps
        # each bucket's points together though tau - t_min reaches span
        region = TubeRegion(0.0, 2.0, -0.5, 0.5)
        ring = (np.arange(32) + 0.5) * (2.0 / 32)
        sector = (np.arange(32) + 0.5) * (TWO_PI / 32)
        r = np.repeat(ring, 64)
        th = np.tile(np.repeat(sector, 2), 32)
        tau = np.tile([-0.5, 0.5], 32 * 32)
        shuffle = np.random.default_rng(37).permutation(tau.size)
        tau, r, th = tau[shuffle], r[shuffle], th[shuffle]
        pool = self.sorted_pool(region, tau, r, th)
        assert pool.start.size == 32 * 32
        for k, (a, b) in enumerate(zip(pool.start, pool.stop)):
            assert list(pool.tau[a:b]) == [-0.5, 0.5]
            assert pool.r_lo[k] == pool.r_hi[k] and pool.h_lo[k] == pool.h_hi[k]
        for q in [(0.0, 0.0, 0.0), (0.0, 0.5, 1.0), (0.2, 1.5, 5.0)]:
            assert _count_pool(pool, *q) == TestCountMembers.scalar_counts(tau, r, th, q)

    def test_shifted_region(self):
        # a region away from t = 0: the key offsets and thresholds carry t_min
        region = TubeRegion(0.0, 1.5, 10.0, 13.0)
        pool = _sample_pool(region, 50_000, 7)
        assert pool.banded
        rng = np.random.default_rng(36)
        for _ in range(100):
            q = tuple(float(rng.uniform(a, b)) for a, b in ((10.0, 13.0), (0.0, 1.5), (0.0, 7.0)))
            assert _count_pool(pool, *q) == self.full_scan(pool, q), q

    def test_large_region_evaluates_whole_buckets(self):
        # at this scale rounding could reach the band, so nothing is banded
        region = TubeRegion(0.0, 1000.0, 0.0, 2000.0)
        pool = _sample_pool(region, 20_000, 8)
        assert not pool.banded
        for q in [(1000.0, 300.0, 1.0), (1500.0, 0.0, 0.0), (500.0, 900.0, 4.0)]:
            counts = _count_pool(pool, *q)
            assert counts == self.full_scan(pool, q)
        assert counts[0] > 0 and counts[1] > 0

    def test_pool_is_sorted_by_bucket_then_tau(self):
        pool = _sample_pool(self.REGION, 20_000, 9)
        assert np.all(np.diff(pool.key) >= 0.0)
        for a, b in zip(pool.start, pool.stop):
            assert np.all(np.diff(pool.tau[a:b]) >= 0.0)
        assert pool.stop[-1] == 20_000
        for arr in (pool.tau, pool.r, pool.th, pool.key):
            assert not arr.flags.writeable


# =========================================================================
# Input guards
# =========================================================================

_MASSIVE = TubeRegion(math.pi, 1.0, 0.0, 2.0)


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: MeasureConfig(weight3=0.0, weight1=0.0),
                 "at least one weight", id="zero-weights"),
    pytest.param(lambda: MeasureConfig(n_samples=0), "at least one sample", id="no-samples"),
    pytest.param(lambda: MeasureConfig(weight3=math.nan), "weights must be finite",
                 id="nan-weight3"),
    pytest.param(lambda: MeasureConfig(weight1=math.inf), "weights must be finite",
                 id="inf-weight1"),
    pytest.param(lambda: volume_time_report(_MASSIVE, (1.0, 0.5, 0.0)),
                 "extremal tube regions", id="volume-time-massive"),
    pytest.param(lambda: sample_causal_curves(_MASSIVE, 5),
                 "targets extremal tube regions", id="curves-massive"),
    pytest.param(lambda: validate_causal(0.0, np.zeros(3)),
                 "(n, 3) curve or (..., n, 3) stack", id="curve-1d"),
    pytest.param(lambda: validate_causal(0.0, np.zeros((2, 1, 3))),
                 "(n, 3) curve or (..., n, 3) stack with n >= 2", id="batch-one-sample"),
    pytest.param(lambda: grid_reachability(n_tau=1), "got (1, 41, 17)", id="grid-one-slice"),
    pytest.param(lambda: grid_reachability(n_r=1), "got (41, 1, 17)", id="grid-one-radius"),
    pytest.param(lambda: grid_reachability(n_theta=0), "n_theta >= 1, got (41, 41, 0)",
                 id="grid-no-angle"),
    pytest.param(lambda: grid_reachability(base=(50, 0, 0)), "outside the grid",
                 id="grid-base-tau"),
    pytest.param(lambda: grid_reachability(base=(0, -1, 0)), "outside the grid",
                 id="grid-base-negative-r"),
    pytest.param(lambda: grid_reachability(base=(0, 0, 99)), "outside the grid",
                 id="grid-base-theta"),
])
def test_input_guards(call, fragment):
    with pytest.raises(ValueError) as err:
        call()
    assert fragment in str(err.value)


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: MeasureConfig(n_samples=1.5), "n_samples must be an integer, got 1.5",
                 id="fractional-samples"),
    pytest.param(lambda: grid_reachability(base=(0, 1.5, 0)), "cannot be interpreted as an integer",
                 id="grid-fractional-base"),
])
def test_non_integer_counts_are_type_errors(call, fragment):
    with pytest.raises(TypeError) as err:
        call()
    assert fragment in str(err.value)
