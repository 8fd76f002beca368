"""Modular-group suspension: adjoint representation, gluing, polyhedral slice."""

import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull, Delaunay

from btzgeo.lorentz import classify_isometry, q_form
from btzgeo.models import TWO_PI
from btzgeo.modular import (
    S_MATRIX,
    T_MATRIX,
    build_complex,
    fundamental_triangles,
    hyperbolic_angle,
    ideal_boundary_ray,
    polyhedral_cauchy_surface,
    psl2z_generators,
    ray_intersection_count,
    representation_checks,
    sample_interior_rays,
    sl2_adjoint,
    uhp_to_hyperboloid,
)

RHO = complex(-0.5, 0.5 * math.sqrt(3.0))

# adjoint images in the (e_t, e_x, e_y) basis; all arithmetic is dyadic,
# so the equalities are exact
ADJ_S = np.diag([1.0, -1.0, -1.0])
ADJ_T = np.array(
    [[1.5, 1.0, 0.5], [1.0, 1.0, 1.0], [-0.5, -1.0, 0.5]]
)


class TestAdjointRepresentation:
    def test_frozen_generator_matrices(self):
        assert np.array_equal(sl2_adjoint(S_MATRIX), ADJ_S)
        assert np.array_equal(sl2_adjoint(T_MATRIX), ADJ_T)

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            sl2_adjoint(2.0 * np.eye(2))

    @pytest.mark.parametrize("a", [
        [[math.nan, 0.0], [0.0, math.nan]], [[1.0, math.inf], [0.0, 1.0]],
    ])
    def test_rejects_non_finite(self, a):
        with pytest.raises(ValueError, match="finite"):
            sl2_adjoint(a)

    def test_defining_relations(self):
        checks = representation_checks()
        assert set(checks) == {
            "s_squared", "st_cubed", "t_parabolic_trace", "cusp_ray_fixed",
        }
        assert all(res < 1e-12 for res in checks.values())

    def test_s_squared_exact(self):
        s = sl2_adjoint(S_MATRIX)
        assert np.array_equal(s @ s, np.eye(3))

    def test_classification(self):
        gen = psl2z_generators()
        info_s = classify_isometry(gen["S"])
        assert info_s["kind"] == "elliptic"
        assert abs(info_s["angle"] - math.pi) < 1e-12
        assert classify_isometry(gen["T"])["kind"] == "parabolic"

    def test_cusp_ray_fixed_exactly(self):
        t = sl2_adjoint(T_MATRIX)
        ray = ideal_boundary_ray()
        assert np.array_equal(t @ ray, ray)

    def test_minus_identity_acts_trivially(self):
        assert np.array_equal(sl2_adjoint(-np.eye(2)), np.eye(3))


class TestEmbedding:
    def test_i_maps_to_apex(self):
        assert np.array_equal(uhp_to_hyperboloid(1j), np.array([1.0, 0.0, 0.0]))

    def test_lands_on_hyperboloid(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=200) + 1j * rng.uniform(0.05, 4.0, 200)
        pts = uhp_to_hyperboloid(z)
        assert np.max(np.abs(q_form(pts) + 1.0)) < 1e-9
        assert np.all(pts[:, 0] > 0.0)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            uhp_to_hyperboloid(1.0 - 0.5j)

    @pytest.mark.parametrize("z", [
        complex(math.nan, 1.0), complex(0.0, math.nan), complex(math.inf, 1.0),
        complex(0.0, math.inf),
    ])
    def test_rejects_non_finite(self, z):
        with pytest.raises(ValueError, match="finite"):
            uhp_to_hyperboloid(z)
        with pytest.raises(ValueError, match="finite"):
            uhp_to_hyperboloid([1j, z])

    @pytest.mark.parametrize("word", ["S", "T", "ST", "TS", "TTS", "STS"])
    def test_equivariance(self, word):
        mats = {"S": S_MATRIX, "T": T_MATRIX}
        a = np.eye(2)
        for ch in word:
            a = a @ mats[ch]
        rng = np.random.default_rng(9)
        z = rng.normal(size=50) + 1j * rng.uniform(0.1, 3.0, 50)
        # the fractional linear action of a on the upper half plane
        lhs = uhp_to_hyperboloid((a[0, 0] * z + a[0, 1]) / (a[1, 0] * z + a[1, 1]))
        rhs = uhp_to_hyperboloid(z) @ sl2_adjoint(a).T
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_boundary_rays_are_null(self):
        for x in (None, 0.0, 1.0, -2.5, 0.3):
            ray = ideal_boundary_ray(x)
            assert abs(float(q_form(ray))) < 1e-12
            assert ray[0] > 0.0

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_boundary_ray_rejects_non_finite(self, x):
        with pytest.raises(ValueError, match="finite"):
            ideal_boundary_ray(x)

    def test_inversion_swaps_boundary_points(self):
        s = sl2_adjoint(S_MATRIX)
        assert np.array_equal(s @ ideal_boundary_ray(1.0), ideal_boundary_ray(-1.0))


class TestAngles:
    def test_straight_angle_at_b(self):
        t1, t2 = fundamental_triangles()
        a, b, inf = t1.vertices
        c = t2.vertices[0]
        assert abs(hyperbolic_angle(b, a, c) - math.pi) < 1e-12

    def test_right_angles_at_b(self):
        t1, t2 = fundamental_triangles()
        a, b, inf = t1.vertices
        c = t2.vertices[0]
        assert abs(hyperbolic_angle(b, a, inf) - math.pi / 2.0) < 1e-12
        assert abs(hyperbolic_angle(b, c, inf) - math.pi / 2.0) < 1e-12

    def test_corner_angle_is_pi_over_three(self):
        t1, _ = fundamental_triangles()
        a, b, inf = t1.vertices
        assert abs(hyperbolic_angle(a, b, inf) - math.pi / 3.0) < 1e-9

    def test_vertex_must_be_on_hyperboloid(self):
        with pytest.raises(ValueError):
            hyperbolic_angle([1.0, 0.5, 0.0], [1.0, 0.0, 0.0], [2.0, 1.0, 0.0])

    @pytest.mark.parametrize("v", [
        [math.nan, 0.0, 0.0], [1.0, math.nan, 0.0], [math.inf, math.inf, 0.0],
    ])
    def test_rejects_non_finite_vertex(self, v):
        with pytest.raises(ValueError, match="finite"):
            hyperbolic_angle(v, [2.0, 1.0, 0.0], [1.0, 0.0, -1.0])

    @pytest.mark.parametrize("w", [[math.nan, 1.0, 0.0], [math.inf, 1.0, 0.0]])
    def test_rejects_non_finite_target(self, w):
        with pytest.raises(ValueError, match="finite"):
            hyperbolic_angle([1.0, 0.0, 0.0], w, [1.0, 0.0, -1.0])

    @pytest.mark.parametrize("w", [[2.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    def test_rejects_target_on_the_vertex_ray(self, w):
        # the target projects to zero in the tangent plane: no direction
        with pytest.raises(ValueError, match="vertex's ray"):
            hyperbolic_angle([1.0, 0.0, 0.0], w, [2.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="vertex's ray"):
            hyperbolic_angle([1.0, 0.0, 0.0], [2.0, 1.0, 0.0], w)


class TestComplex:
    def test_builds_clean(self):
        cx = build_complex()
        assert [p.word for p in cx.pairings] == ["1", "S", "T"]
        assert [e.label for e in cx.edge_classes] == ["B", "A~C", "INF"]

    def test_edge_kinds_and_angles(self):
        cx = build_complex()
        by_label = {e.label: e for e in cx.edge_classes}
        assert by_label["B"].kind == "massive"
        assert abs(by_label["B"].cone_angle - math.pi) < 1e-9
        assert by_label["A~C"].kind == "massive"
        assert abs(by_label["A~C"].cone_angle - TWO_PI / 3.0) < 1e-9
        assert by_label["INF"].kind == "extremal"
        assert by_label["INF"].cone_angle is None

    def test_holonomy_words(self):
        cx = build_complex()
        by_label = {e.label: e for e in cx.edge_classes}
        assert by_label["B"].holonomy_word == "S"
        assert by_label["A~C"].holonomy_word == "T^-1 S"
        assert by_label["INF"].holonomy_word == "T"

    def test_order_three_holonomy_trace(self):
        # elliptic of angle 2 pi/3 has trace 1 + 2 cos(2 pi/3) = 0
        cx = build_complex()
        hol = {e.label: e.holonomy for e in cx.edge_classes}["A~C"]
        assert abs(float(np.trace(hol.linear))) < 1e-12
        cube = hol.linear @ hol.linear @ hol.linear
        assert np.max(np.abs(cube - np.eye(3))) < 1e-12

    def test_slice_reads_the_same_gluing(self):
        cx = build_complex()
        surf = polyhedral_cauchy_surface(1.7)
        assert surf.edge_pairs == tuple((p.src, p.dst) for p in cx.pairings)
        assert list(surf.cone_angles) == [e.label for e in cx.edge_classes]
        assert surf.labels == tuple(t.label for t in cx.triangles)
        assert surf.corner_names == tuple(t.names for t in cx.triangles)


class TestPolyhedralSlice:
    def test_frozen_coordinates(self):
        surf = polyhedral_cauchy_surface(1.0)
        assert surf.corner_names == (("A", "B", "INF"), ("C", "B", "INF"))
        a, b, inf = surf.coords[0]
        c = surf.coords[1][0]
        assert np.max(np.abs(a - [-0.5, 0.0])) < 1e-12
        assert np.array_equal(b, np.zeros(2))
        assert np.array_equal(inf, np.array([0.0, -1.0]))
        assert np.max(np.abs(c - [0.5, 0.0])) < 1e-12

    def test_cone_angles(self):
        surf = polyhedral_cauchy_surface()
        assert abs(surf.cone_angles["B"] - math.pi) < 1e-12
        assert abs(surf.cone_angles["A~C"] - 2.0 * math.acos(1.0 / math.sqrt(5.0))) < 1e-12
        assert abs(surf.cone_angles["INF"] - 2.0 * math.acos(2.0 / math.sqrt(5.0))) < 1e-12

    def test_angle_sum_is_full_turn(self):
        surf = polyhedral_cauchy_surface()
        assert abs(sum(surf.cone_angles.values()) - TWO_PI) < 1e-12

    def test_euler_characteristic(self):
        surf = polyhedral_cauchy_surface()
        assert surf.euler == (3, 3, 2, 2)

    def test_glued_edges_have_equal_length(self):
        surf = polyhedral_cauchy_surface(1.7)
        for (fa, pa), (fb, pb) in surf.edge_pairs:
            la = surf.edge_lengths[(fa, pa)]
            lb = surf.edge_lengths[(fb, pb)]
            assert abs(la - lb) < 1e-12

    def test_slice_scales_linearly(self):
        s1 = polyhedral_cauchy_surface(1.0)
        s2 = polyhedral_cauchy_surface(2.0)
        assert np.max(np.abs(s2.coords - 2.0 * s1.coords)) < 1e-12
        for key, val in s1.cone_angles.items():
            assert abs(s2.cone_angles[key] - val) < 1e-12
        for key, val in s1.edge_lengths.items():
            assert abs(s2.edge_lengths[key] - 2.0 * val) < 1e-12

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            polyhedral_cauchy_surface(0.0)

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, t0):
        with pytest.raises(ValueError, match="positive and finite"):
            polyhedral_cauchy_surface(t0)


class TestRayCounts:
    def test_known_directions(self):
        surf = polyhedral_cauchy_surface(1.0)
        assert ray_intersection_count(surf, (1.0, 0.0, 1.0)) == 0
        assert ray_intersection_count(surf, (1.0, -0.2, -0.3)) == 1

    def test_shared_edge_counted_once(self):
        surf = polyhedral_cauchy_surface(1.0)
        assert ray_intersection_count(surf, (1.0, 0.0, -0.5)) == 1

    def test_vertex_counted_once(self):
        surf = polyhedral_cauchy_surface(1.0)
        assert ray_intersection_count(surf, (1.0, 0.0, 0.0)) == 1

    def test_requires_future_direction(self):
        surf = polyhedral_cauchy_surface(1.0)
        with pytest.raises(ValueError):
            ray_intersection_count(surf, (0.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            ray_intersection_count(surf, (-1.0, 0.0, -0.5))

    @pytest.mark.parametrize("d", [
        (math.nan, 0.0, -0.5), (1.0, math.inf, 0.0), (1.0, 0.0, math.nan),
    ])
    def test_non_finite_direction_raises(self, d):
        with pytest.raises(ValueError, match="finite"):
            ray_intersection_count(polyhedral_cauchy_surface(1.0), d)

    def test_interior_rays_hit_exactly_once(self):
        surf = polyhedral_cauchy_surface(1.3)
        dirs = sample_interior_rays(surf, 300, seed=5)
        counts = [ray_intersection_count(surf, d) for d in dirs]
        assert counts == [1] * 300

    @pytest.mark.parametrize("t0", [0.5, 1.0, 1.7, 2.5])
    def test_triangles_fill_the_hull_of_their_corners(self, t0):
        # area(T1) + area(T2) = area(hull): no gap and no overlap, so a ray
        # through the hull meets the slice exactly once
        surf = polyhedral_cauchy_surface(t0)
        e1, e2 = (surf.coords[:, k] - surf.coords[:, 0] for k in (1, 2))
        areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        hull = ConvexHull(surf.coords.reshape(-1, 2))
        assert areas.sum() == pytest.approx(hull.volume, rel=1e-12, abs=0.0)
        # the hull is the triangle A, C, INF: B lies on AC
        names = [n for names in surf.corner_names for n in names]
        assert sorted({names[i] for i in hull.vertices}) == ["A", "C", "INF"]

    def test_rays_are_drawn_over_the_whole_hull(self):
        surf = polyhedral_cauchy_surface(1.7)
        dirs = sample_interior_rays(surf, 20_000, seed=4)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0) and np.all(dirs[:, 0] > 0.0)
        pts = surf.t0 * dirs[:, 1:] / dirs[:, :1]
        corners = surf.coords.reshape(-1, 2)
        assert np.all(Delaunay(corners[ConvexHull(corners).vertices]).find_simplex(pts) >= 0)
        # both triangles and the neighbourhood of every hull corner are reached
        in_t1 = Delaunay(surf.coords[0]).find_simplex(pts) >= 0
        assert 0.4 < in_t1.mean() < 0.6
        for corner in corners:
            assert np.min(np.linalg.norm(pts - corner, axis=1)) < 0.05 * surf.t0

    def test_scaling_does_not_change_counts(self):
        d = (1.0, -0.2, -0.3)
        for t0 in (0.5, 1.0, 3.0):
            assert ray_intersection_count(polyhedral_cauchy_surface(t0), d) == 1

    @pytest.mark.parametrize("d", [(1.0, 0.0), [(1.0, 0.0)] * 4, 1.0])
    def test_rejects_directions_that_are_not_3_vectors(self, d):
        with pytest.raises(ValueError, match="3-vector"):
            ray_intersection_count(polyhedral_cauchy_surface(1.0), d)

    @pytest.mark.parametrize("row, message", [
        ((1.0, math.nan, 0.0), "finite"),
        ((-1.0, 0.0, -0.5), "future pointing"),
        ((0.0, 0.0, -0.5), "future pointing"),
    ])
    def test_one_bad_row_rejects_the_stack(self, row, message):
        dirs = np.tile([1.0, -0.2, -0.3], (5, 1))
        dirs[3] = row
        with pytest.raises(ValueError, match=message):
            ray_intersection_count(polyhedral_cauchy_surface(1.0), dirs)

    @pytest.mark.parametrize("t0", [0.3, 1.0, 1.7, 5.0])
    def test_stack_matches_one_direction_at_a_time(self, t0):
        surf = polyhedral_cauchy_surface(t0)
        corners = surf.coords.reshape(-1, 2)
        midpoints = (surf.coords + np.roll(surf.coords, 1, axis=1)).reshape(-1, 2) / 2.0
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        span = hi - lo
        gx, gy = np.meshgrid(
            np.linspace(lo[0] - 0.2 * span[0], hi[0] + 0.2 * span[0], 41),
            np.linspace(lo[1] - 0.2 * span[1], hi[1] + 0.2 * span[1], 41),
        )
        points = np.concatenate([corners, midpoints, np.stack([gx, gy], -1).reshape(-1, 2)])
        planted = np.column_stack([np.full(len(points), t0), points])
        interior = sample_interior_rays(surf, 500, seed=11)
        dirs = np.concatenate([interior, planted, 2.5 * planted])
        counts = ray_intersection_count(surf, dirs)
        assert counts.shape == (len(dirs),)
        one_by_one = [ray_intersection_count(surf, d) for d in dirs]
        assert all(type(c) is int for c in one_by_one)
        assert counts.tolist() == one_by_one
        assert counts.tolist() == [_reference_count(surf, d) for d in dirs]
        # every count is seen: misses, single hits and shared edges/corners
        assert {0, 1} <= set(one_by_one)

    def test_stack_shape_is_kept(self):
        surf = polyhedral_cauchy_surface(1.0)
        dirs = sample_interior_rays(surf, 12, seed=2).reshape(3, 4, 3)
        counts = ray_intersection_count(surf, dirs)
        assert counts.shape == (3, 4)
        assert np.all(counts == 1)
        assert ray_intersection_count(surf, np.empty((0, 3))).shape == (0,)


def _reference_count(surface, direction):
    """The per-ray count in Python floats: the oracle for the array predicate."""
    t, x, y = map(float, direction)
    px, py = surface.t0 / t * x, surface.t0 / t * y
    bary = []
    for (ax, ay), (bx, by), (cx, cy) in surface.coords.tolist():
        v0x, v0y, v1x, v1y = bx - ax, by - ay, cx - ax, cy - ay
        v2x, v2y = px - ax, py - ay
        den = v0x * v1y - v0y * v1x
        b1 = (v2x * v1y - v2y * v1x) / den
        b2 = (v0x * v2y - v0y * v2x) / den
        bary.append((1.0 - b1 - b2, b1, b2))
    interior = sum(all(c > 1e-12 for c in b) for b in bary)
    return interior or int(any(all(c >= -1e-12 for c in b) for b in bary))
