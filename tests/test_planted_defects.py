"""Planted defects: each test breaks one piece and asserts that a check fails."""

import dataclasses

from btzgeo import modular, verify


def test_overlapping_slice_triangles_fail_rays_hit_once(monkeypatch):
    # a slice whose two triangles coincide covers each interior point twice
    build = modular.polyhedral_cauchy_surface

    def doubled(t0):
        surf = build(t0)
        return dataclasses.replace(surf, coords=surf.coords[[0, 0]])

    monkeypatch.setattr(modular, "polyhedral_cauchy_surface", doubled)
    slice_ = doubled(1.0)
    rays = modular.sample_interior_rays(slice_, 50, seed=3)
    assert [modular.ray_intersection_count(slice_, d) for d in rays] == [2] * 50
    (check,) = [c for c in verify.suite_modular(7) if c.name == "rays_hit_once"]
    assert not check.passed
