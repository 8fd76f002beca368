"""Planted defects: each test breaks one piece and asserts that a check fails."""

import dataclasses
import json

import numpy as np
import pytest
import test_acceptance

from btzgeo import (
    causal, cli, develop, extensions, lorentz, models, modular, surfaces, verify,
)
from btzgeo.errors import GluingMismatchError


def _failed(results):
    return {c.name for c in results if not c.passed}


def test_boosted_holonomy_generator_fails_the_holonomy_checks(monkeypatch):
    # gamma composed with a boost of rapidity 1e-6 is still an isometry, but
    # no longer the deck transformation of the tube
    generator = develop.btz_holonomy_generator

    def boosted():
        return generator() @ lorentz.boost_tx(1e-6)

    monkeypatch.setattr(develop, "btz_holonomy_generator", boosted)
    monkeypatch.setattr(test_acceptance, "btz_holonomy_generator", boosted)
    failed = _failed(verify.suite_develop(7))
    assert {"holonomy_equivariance", "holonomy_fixed_null"} <= failed
    with pytest.raises(AssertionError, match="criterion 02"):
        test_acceptance.test_criterion_02_holonomy_equivariance()


def test_perturbed_developing_jacobian_fails_the_pullback_checks(monkeypatch):
    # the pushforward of d/dth scaled by 1 + 1e-6: the pulled-back metric
    # gains 2e-6 r^2 in its th-th entry, which only the exact Jacobian sees
    jacobian = develop.develop_btz_jacobian

    def perturbed(points):
        jac = jacobian(points)
        jac[..., 2] *= 1.0 + 1e-6
        return jac

    monkeypatch.setattr(develop, "develop_btz_jacobian", perturbed)
    monkeypatch.setattr(test_acceptance, "develop_btz_jacobian", perturbed)
    failed = _failed(verify.suite_develop(7))
    assert "btz_pullback_exact" in failed and "btz_pullback_fd" not in failed
    with pytest.raises(AssertionError, match="criterion 01"):
        test_acceptance.test_criterion_01_developing_map_isometry()


def test_shifted_developing_map_fails_the_image_law(monkeypatch):
    # a time translation by 1e-6 is still an isometry onto its image, so the
    # pullback checks pass, but the image leaves the null plane t - x = r
    develop_btz = develop.develop_btz

    def shifted(points):
        return develop_btz(points) + np.array([1e-6, 0.0, 0.0])

    monkeypatch.setattr(develop, "develop_btz", shifted)
    monkeypatch.setattr(test_acceptance, "develop_btz", shifted)
    failed = _failed(verify.suite_develop(7))
    assert "image_law_t_minus_x" in failed and "btz_pullback_fd" not in failed
    with pytest.raises(AssertionError, match="criterion 03"):
        test_acceptance.test_criterion_03_image_law()


def test_inverse_without_eta_fails_inverse_exact(monkeypatch):
    # L^T is itself a Lorentz isometry (L^T = eta L^-1 eta), so the
    # constructor accepts it; only the inverse check sees the missing eta
    def transposed(self):
        return lorentz.LorentzIsometry(np.swapaxes(self.linear, -1, -2))

    monkeypatch.setattr(lorentz.LorentzIsometry, "inverse", transposed)
    failed = _failed(verify.suite_lorentz(7))
    assert failed == {"inverse_exact"}


def test_wrong_extremal_chart_form_fails_the_metric_checks(monkeypatch):
    # c_tr = -1.9 in place of -2: every reader of chart_form sees the defect
    form = models.chart_form

    def wrong(alpha):
        c_tt, c_tr, s = form(alpha)
        return c_tt, np.where(np.asarray(alpha) == 0.0, -1.9, c_tr)[()], s

    for module in (models, causal, surfaces, cli):
        monkeypatch.setattr(module, "chart_form", wrong)
    assert "omega_one_extremal" in _failed(verify.suite_models(7))
    assert {"btz_pullback_exact", "btz_pullback_fd"} <= _failed(verify.suite_develop(7))
    with pytest.raises(AssertionError, match="criterion 04"):
        test_acceptance.test_criterion_04_omega_family()


def test_flipped_slack_sign_fails_the_delta_checks(monkeypatch):
    # delta_field with the sign of c_tr flipped: 1 + 2 f_r - ... in the
    # extremal ambient, unchanged in a massive one (c_tr = 0)
    def flipped(surface):
        c_tt, c_tr, s = models.chart_form(surface.alpha)

        def slack(r, th):
            r = np.asarray(r, dtype=float)
            f_r, f_th = surface.tau_r(r, th), surface.tau_theta(r, th)
            return 1.0 + f_r * (-c_tr + c_tt * f_r) - (f_th / (s * r)) ** 2

        return slack

    monkeypatch.setattr(surfaces, "delta_field", flipped)
    monkeypatch.setattr(test_acceptance, "delta_field", flipped)
    failed = _failed(verify.suite_surfaces(7))
    assert "cap_delta_formula" in failed
    # the completeness certificate and the surgeries take r^2 delta from
    # surfaces._r2_delta, not from delta_field, so they do not see this defect
    assert "cap_certificate" not in failed and "complete_surgery_slack" not in failed
    with pytest.raises(AssertionError, match="criterion 05"):
        test_acceptance.test_criterion_05_delta_criterion()
    with pytest.raises(AssertionError, match="criterion 07"):
        test_acceptance.test_criterion_07_hyperbolic_cap_benchmark()


def test_skewed_omega_fails_the_pullback_checks(monkeypatch):
    # the chart map lands on the slice omega (1 - 1e-6), not on tanh(beta)
    transform = models.omega_transform

    def skewed(alpha):
        tr = transform(alpha)
        return dataclasses.replace(tr, omega=tr.omega * (1.0 - 1e-6))

    monkeypatch.setattr(verify, "omega_transform", skewed)
    monkeypatch.setattr(test_acceptance, "omega_transform", skewed)
    assert "omega_pullback" in _failed(verify.suite_models(7))
    with pytest.raises(AssertionError, match="criterion 04"):
        test_acceptance.test_criterion_04_omega_family()


def test_grid_without_the_two_step_edge_fails_the_causal_checks(monkeypatch):
    # one radial step per slice is timelike: the null boundary of J+ is lost
    monkeypatch.setattr(causal, "_RADIAL_STEPS", (0, 1))
    (check,) = [c for c in verify.suite_causal(7) if c.name == "grid_vs_closed_form"]
    assert check.residual == 729.0
    with pytest.raises(AssertionError, match="criterion 08"):
        test_acceptance.test_criterion_08_causal_structure()


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


def test_gap_between_slice_triangles_fails_rays_hit_once(monkeypatch, capsys):
    # T2's corner B moved halfway to C: the triangles no longer share the
    # edge B-INF, and the triangle B, B', INF between them is covered by none
    build = modular.polyhedral_cauchy_surface

    def gapped(t0):
        surf = build(t0)
        coords = surf.coords.copy()
        coords[1, 1] += 0.5 * (coords[1, 0] - coords[1, 1])
        return dataclasses.replace(surf, coords=coords)

    monkeypatch.setattr(modular, "polyhedral_cauchy_surface", gapped)
    monkeypatch.setattr(cli, "polyhedral_cauchy_surface", gapped)
    slice_ = gapped(1.0)
    counts = modular.ray_intersection_count(slice_, modular.sample_interior_rays(slice_, 400))
    assert 0 < np.count_nonzero(counts == 0) < 400 and set(counts.tolist()) <= {0, 1}
    (check,) = [c for c in verify.suite_modular(7) if c.name == "rays_hit_once"]
    assert not check.passed
    assert cli.main(["modular", "rays", "--n", "1000"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "fail"


def test_non_monotone_chain_region_fails_chain_monotone(monkeypatch, capsys):
    # an M0 that also holds r > 0, r/2 <= t < 1 reaches outside M1
    membership = extensions.chain_membership

    def widened(points):
        pts = np.asarray(points, dtype=float)
        t, r = pts[..., 0], pts[..., 1]
        pattern = np.array(membership(points))
        pattern[..., 0] |= (r > 0.0) & (0.5 * r <= t) & (t < 1.0)
        return pattern.tolist() if pts.ndim == 1 else pattern

    monkeypatch.setattr(extensions, "chain_membership", widened)
    (check,) = [c for c in verify.suite_extensions(7) if c.name == "chain_monotone"]
    assert not check.passed
    assert cli.main(["extend", "example-chain"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "fail"
    assert extensions.sample_chain_monotone(10_000, seed=111) > 0


def _swapped_words(pairings):
    swap = {"S": "T", "T": "S"}
    return tuple((swap.get(word, word), src, dst) for word, src, dst in pairings)


def _wrong_corner(lines):
    # A~C takes T2's corner B in place of its corner C
    return tuple(
        (label, (("T1", "A"), ("T2", "B")) if label == "A~C" else members, kind, word)
        for label, members, kind, word in lines
    )


@pytest.mark.parametrize("table, defect", [
    ("_PAIRINGS", _swapped_words), ("_LINES", _wrong_corner),
])
def test_wrong_gluing_fails_the_modular_checks(monkeypatch, capsys, table, defect):
    # criterion 10 and the modular suite both start from build_complex
    monkeypatch.setattr(modular, table, defect(getattr(modular, table)))
    with pytest.raises(GluingMismatchError):
        modular.build_complex()
    for argv in (["verify", "--suite", "modular", "--no-timing"], ["modular", "build"]):
        assert cli.main(argv) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "GluingMismatchError"
