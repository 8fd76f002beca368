"""Line surgeries and the nested chain where extendability is not monotone."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btzgeo.develop import boost_conjugate, btz_holonomy_generator, massive_holonomy_generator
from btzgeo.errors import NotBTZExtendableError
from btzgeo.extensions import (
    CHAIN_STAGES,
    TubeChart,
    adjoin_btz,
    chain_membership,
    extremal_chart,
    remove_btz,
    sample_chain_monotone,
)
from btzgeo.lorentz import LorentzIsometry, boost_tx, classify_isometry, rotation_about_t_axis
from btzgeo.models import TWO_PI, ModelPoint, TubeRegion, is_singular
from btzgeo.modular import psl2z_generators
from btzgeo.surfaces import BoundaryCurve, completeness_certificate


def massive_chart(alpha, with_line=True):
    return TubeChart(
        angle=alpha,
        radius=1.0,
        t_min=-1.0,
        t_max=1.0,
        has_singular_line=with_line,
        holonomy=massive_holonomy_generator(alpha),
    )


def regular_chart():
    return TubeChart(
        angle=TWO_PI,
        radius=1.0,
        t_min=-1.0,
        t_max=1.0,
        has_singular_line=False,
        holonomy=LorentzIsometry.identity(),
    )


class TestTubeChartInvariants:
    def test_valid_charts_construct(self):
        extremal_chart(with_line=True)
        extremal_chart(with_line=False)
        massive_chart(1.3)
        regular_chart()

    @pytest.mark.parametrize("angle", [-0.1, 7.0, float("nan")])
    def test_invalid_angle(self, angle):
        with pytest.raises(ValueError):
            TubeChart(angle, 1.0, -1.0, 1.0, False, LorentzIsometry.identity())

    def test_bad_extents(self):
        with pytest.raises(ValueError):
            extremal_chart(radius=0.0)
        with pytest.raises(ValueError):
            extremal_chart(t_min=1.0, t_max=1.0)

    def test_regular_tube_cannot_contain_line(self):
        with pytest.raises(ValueError, match="no singular line"):
            TubeChart(TWO_PI, 1.0, -1.0, 1.0, True, LorentzIsometry.identity())

    def test_extremal_requires_parabolic_holonomy(self):
        with pytest.raises(ValueError, match="parabolic"):
            TubeChart(0.0, 1.0, -1.0, 1.0, False, LorentzIsometry.identity())

    def test_regular_requires_trivial_holonomy(self):
        with pytest.raises(ValueError, match="trivial"):
            TubeChart(TWO_PI, 1.0, -1.0, 1.0, False, btz_holonomy_generator())

    def test_massive_requires_matching_angle(self):
        with pytest.raises(ValueError, match="elliptic"):
            TubeChart(1.3, 1.0, -1.0, 1.0, True, rotation_about_t_axis(0.7))
        with pytest.raises(ValueError, match="elliptic"):
            TubeChart(1.3, 1.0, -1.0, 1.0, True, btz_holonomy_generator())

    def test_regular_means_not_singular(self):
        # 5e-10 below 2 pi is a singular angle by models.is_singular, so the
        # chart takes the massive branch, whose rotation is too small to
        # classify as anything but the identity; 5e-13 below 2 pi is the
        # regular tube
        near = TWO_PI - 5e-10
        assert is_singular(near)
        TubeChart(near, 1.0, -1.0, 1.0, True, massive_holonomy_generator(near))
        TubeChart(near, 1.0, -1.0, 1.0, False, LorentzIsometry.identity())
        TubeChart(TWO_PI - 5e-13, 1.0, -1.0, 1.0, False, LorentzIsometry.identity())

    @pytest.mark.parametrize("angle", [1e-6, 3e-5, TWO_PI - 1e-5])
    def test_massive_angle_near_zero_or_full_turn(self, angle):
        # the deck rotation classifies as the identity, and the chart takes
        # the class of its own generator
        assert massive_chart(angle).angle == angle
        with pytest.raises(ValueError, match="identity holonomy"):
            TubeChart(angle, 1.0, -1.0, 1.0, True, rotation_about_t_axis(0.7))

    @pytest.mark.parametrize("extent", [
        {"radius": math.inf}, {"t_min": -math.inf}, {"t_max": math.inf},
        {"t_min": math.nan},
    ])
    def test_non_finite_extent(self, extent):
        with pytest.raises(ValueError, match="non-finite"):
            extremal_chart(**extent)

    def test_massive_reflex_angle_folds(self):
        # the elliptic class only sees the rotation angle mod sign, so the
        # deck generator of a 5.0-cone classifies as 2 pi - 5.0
        massive_chart(5.0)


def three_branch_reference(angle, radius, t_min, t_max, has_line, holonomy):
    """The chart invariants as three branches, one per kind of tube.

    The rule that ``TubeChart`` applied before it took the class from
    ``develop.check_holonomy``; kept as the reference for the one rule.
    """
    TubeRegion(angle, radius, t_min, t_max)
    if has_line and not is_singular(angle):
        raise ValueError("regular tubes contain no singular line")
    info = classify_isometry(holonomy)
    if angle == 0.0:
        if info["kind"] != "parabolic":
            raise ValueError("extremal charts need parabolic holonomy")
    elif not is_singular(angle):
        if info["kind"] != "identity":
            raise ValueError("regular tubes need trivial holonomy")
    else:
        generator = classify_isometry(massive_holonomy_generator(angle))
        expected = min(angle % TWO_PI, TWO_PI - angle % TWO_PI)
        if info["kind"] != generator["kind"] or (
            info["kind"] == "elliptic" and abs(info["angle"] - expected) > 1.0e-9
        ):
            raise ValueError("massive charts need the holonomy of the cone angle")


def _accepts(build, *args):
    try:
        build(*args)
    except ValueError:
        return False
    return True


class TestOneHolonomyRule:
    NAMED_ANGLES = [
        0.0, 1e-6, 3e-5, 4e-5, math.pi, TWO_PI - 5e-10, TWO_PI - 5e-13, TWO_PI,
        0.5, 1.3, math.pi / 2, TWO_PI / 3, 5.0, TWO_PI - 1e-5, TWO_PI - 4e-5, TWO_PI + 5e-13,
    ]

    @staticmethod
    def holonomies(angle):
        generators = psl2z_generators()
        return [
            LorentzIsometry.identity(),
            btz_holonomy_generator(),
            boost_conjugate(btz_holonomy_generator(), 0.8),
            generators["S"],
            generators["T"],
            boost_tx(0.9),
            rotation_about_t_axis(angle),
            rotation_about_t_axis(-angle),
            rotation_about_t_axis(angle + 1e-8),
        ]

    def test_agrees_with_the_three_branches(self):
        angles = self.NAMED_ANGLES + np.random.default_rng(24).uniform(0.0, TWO_PI, 210).tolist()
        cases = accepted = 0
        for angle in angles:
            for holonomy in self.holonomies(angle):
                for has_line in (False, True):
                    args = (angle, 1.0, -1.0, 1.0, has_line, holonomy)
                    want = _accepts(three_branch_reference, *args)
                    assert _accepts(TubeChart, *args) == want, (angle, has_line, holonomy.linear)
                    cases, accepted = cases + 1, accepted + want
        assert cases >= 4_000 and 600 <= accepted <= cases - 3_000

    @pytest.mark.parametrize("offset", [3e-9, 1e-8, -1e-8])
    def test_own_generator_accepted_near_a_half_turn(self, offset):
        # near pi the trace resolves the elliptic angle of the cone's own
        # rotation only to about 1e-16 / |angle - pi|, so it reads pi here; the
        # three branches compared that with the cone angle and refused the
        # chart's own generator, the one rule compares like with like
        angle = math.pi + offset
        args = (angle, 1.0, -1.0, 1.0, True, massive_holonomy_generator(angle))
        assert _accepts(TubeChart, *args)
        assert not _accepts(three_branch_reference, *args)


class TestAdjoin:
    def test_adds_line(self):
        chart = extremal_chart(with_line=False)
        full = adjoin_btz(chart)
        assert full.has_singular_line
        assert (full.angle, full.radius, full.t_min, full.t_max) == (
            chart.angle, chart.radius, chart.t_min, chart.t_max,
        )
        assert np.array_equal(full.holonomy.linear, chart.holonomy.linear)

    def test_idempotent(self):
        chart = extremal_chart(with_line=True)
        assert adjoin_btz(chart) is chart
        once = adjoin_btz(extremal_chart(with_line=False))
        assert adjoin_btz(once) is once

    def test_massive_not_extendable(self):
        with pytest.raises(NotBTZExtendableError):
            adjoin_btz(massive_chart(1.3, with_line=False))

    def test_regular_not_extendable(self):
        with pytest.raises(NotBTZExtendableError):
            adjoin_btz(regular_chart())


class TestRemove:
    def test_round_trip(self):
        chart = extremal_chart(radius=2.0, with_line=True)
        punctured, surf = remove_btz(chart)
        assert not punctured.has_singular_line
        restored = adjoin_btz(punctured)
        assert restored.has_singular_line
        assert restored.angle == chart.angle and restored.radius == chart.radius
        assert np.array_equal(restored.holonomy.linear, chart.holonomy.linear)

    def test_end_is_complete(self):
        _, surf = remove_btz(extremal_chart(with_line=True))
        assert surf.punctured
        cert = completeness_certificate(surf)
        assert cert is not None and cert >= 1.0

    def test_custom_boundary_trace(self):
        b = BoundaryCurve.from_trig(0.5, [0.2], [0.1])
        _, surf = remove_btz(extremal_chart(radius=1.0, with_line=True), b)
        th = np.linspace(0.0, TWO_PI, 32, endpoint=False)
        assert np.max(np.abs(surf.tau(np.ones_like(th), th) - b.value(th))) == 0.0

    def test_requires_line(self):
        with pytest.raises(ValueError):
            remove_btz(extremal_chart(with_line=False))

    def test_targets_extremal(self):
        with pytest.raises(ValueError):
            remove_btz(massive_chart(1.3))


class TestChain:
    def test_region_names(self):
        assert CHAIN_STAGES == ("M0", "M1", "M2", "M3")

    @pytest.mark.parametrize(
        "point, expected",
        [
            ((-1.0, 0.0, 0.0), [False, False, True, True]),
            ((-1.0, 1.0, 0.0), [True, True, True, True]),
            ((1.0, 1.0, 0.0), [False, False, False, True]),
            ((0.0, 0.0, 0.0), [False, False, False, True]),
        ],
    )
    def test_cited_points(self, point, expected):
        assert chain_membership(point) == expected

    def test_future_of_line_point_excluded_from_m1(self):
        # boundary of the closed future (dt exactly r/2) is excluded too
        pattern = chain_membership([(0.5, 1.0, 0.0), (0.49, 1.0, 0.0)])
        m1, m2 = pattern[:, 1], pattern[:, 2]
        assert not m1[0]
        assert not m2[0]
        assert m1[1]

    def test_past_half_line_only_in_m2(self):
        pattern = chain_membership([(-0.5, 0.0, 1.0), (0.5, 0.0, 1.0)])
        m1, m2 = pattern[:, 1], pattern[:, 2]
        assert not m1[0]
        assert m2[0]
        assert not m2[1]

    def test_massive_points_rejected(self):
        with pytest.raises(ValueError, match="cone angle mismatch"):
            chain_membership(ModelPoint(math.pi, 0.0, 1.0, 0.0))

    def test_extremal_model_point_accepted(self):
        assert chain_membership(ModelPoint(0.0, -1.0, 1.0, 0.0)) == [True] * 4

    @pytest.mark.parametrize("bad, match", [
        ((math.nan, 1.0, 0.0), "non-finite"),
        ((0.0, math.inf, 0.0), "non-finite"),
        ((0.0, 1.0, -math.inf), "non-finite"),
        ((0.0, -1.0, 0.0), "negative radius"),
    ])
    def test_bad_points_raise_for_one_point_and_arrays(self, bad, match):
        with pytest.raises(ValueError, match=match):
            chain_membership(bad)
        with pytest.raises(ValueError, match=match):
            chain_membership([[(0.0, 1.0, 0.0), (1.0, 0.0, 2.0)], [(0.0, 1.0, 0.0), bad]])

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError, match="shape"):
            chain_membership((0.0, 1.0))

    def test_arrays_match_the_stage_inequalities_point_by_point(self):
        def stages(t, r):
            m1 = r > 0.0 and t < 0.5 * r
            return [r > 0.0 and t < 0.0, m1, m1 or (r == 0.0 and t < 0.0), True]

        # t on the horizon t = r/2, on t = 0 and on the line r = 0
        rng = np.random.default_rng(4)
        pts = np.column_stack([
            rng.choice([-1.0, -0.25, 0.0, 0.25, 0.5, 1.0], 400),
            rng.choice([0.0, 0.5, 1.0, 2.0], 400),
            rng.uniform(0.0, TWO_PI, 400),
        ])
        pattern = chain_membership(pts.reshape(20, 20, 3))
        assert pattern.shape == (20, 20, 4) and pattern.dtype == bool
        assert pattern.reshape(-1, 4).tolist() == [stages(t, r) for t, r, _ in pts.tolist()]
        assert chain_membership(pts[0]) == stages(*pts[0, :2].tolist())

    @given(
        st.floats(-2.0, 2.0),
        st.floats(0.0, 2.0),
        st.floats(0.0, TWO_PI),
    )
    @settings(max_examples=200)
    def test_membership_monotone(self, t, r, theta):
        pattern = chain_membership((t, r, theta))
        assert not any(a and not b for a, b in zip(pattern, pattern[1:]))
        assert pattern[-1]

    def test_sampled_monotone_count(self):
        assert sample_chain_monotone(n=2000, seed=11) == 0
