"""Verification suites behind the command line ``verify`` subcommand.

Each suite is a function that runs a handful of quick quantitative checks
and returns :class:`CheckResult` records.  Suites are deliberately small
(seconds, not minutes); the exhaustive versions of these properties live in
the test suite.  Report ordering follows the declaration order in
``SUITES`` regardless of how the checks are executed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import causal, develop, extensions, lorentz, modular, surfaces
from .errors import DegenerateMeasureError, SingularPointError
from .models import (
    TWO_PI,
    TubeRegion,
    circle_circumference,
    metric_at,
    omega_metric_at,
    omega_transform,
)


@dataclass(frozen=True)
class CheckResult:
    """One verification check: a measured residual against a tolerance.

    ``residual``/``tolerance`` are None only for structural (pass/fail)
    checks with nothing numeric to report.
    """

    suite: str
    name: str
    passed: bool
    residual: float | None
    tolerance: float | None
    detail: str = ""
    time_s: float | None = None


class _Recorder:
    """Collects checks for one suite, timing the gap between records."""

    def __init__(self, suite):
        self.suite = suite
        self.results = []
        self._mark = time.perf_counter()

    def quantitative(self, name, residual, tolerance, detail=""):
        now = time.perf_counter()
        self.results.append(
            CheckResult(
                self.suite, name, bool(residual <= tolerance), float(residual),
                float(tolerance), detail, now - self._mark,
            )
        )
        self._mark = now

    def structural(self, name, passed, detail=""):
        now = time.perf_counter()
        self.results.append(
            CheckResult(
                self.suite, name, bool(passed), None, None, detail, now - self._mark
            )
        )
        self._mark = now


def _random_isometries(rng, n):
    out = []
    for _ in range(n):
        g = lorentz.LorentzIsometry.identity()
        for _ in range(4):
            if rng.random() < 0.5:
                g = g @ lorentz.rotation_about_t_axis(rng.uniform(0.0, TWO_PI))
            else:
                g = g @ lorentz.boost_tx(rng.uniform(-0.75, 0.75))
        out.append(g)
    return out


def suite_lorentz(seed):
    rec = _Recorder("lorentz")
    rng = np.random.default_rng(seed)
    eta = lorentz.MINKOWSKI_METRIC
    sample = _random_isometries(rng, 50)

    ortho = max(
        float(np.max(np.abs(g.linear.T @ eta @ g.linear - eta))) for g in sample
    )
    rec.quantitative("isometry_orthogonality", ortho, 1.0e-12)

    inv = max(
        float(np.max(np.abs(g.inverse().linear @ g.linear - np.eye(3))))
        for g in sample
    )
    rec.quantitative("inverse_exact", inv, 1.0e-12)

    worst = 0.0
    for _ in range(25):
        phi = rng.uniform(0.05, math.pi - 0.05)
        info = lorentz.classify_isometry(lorentz.rotation_about_t_axis(phi))
        worst = max(worst, abs(info["angle"] - phi))
        mu = rng.uniform(0.1, 1.5)
        info = lorentz.classify_isometry(lorentz.boost_tx(mu))
        worst = max(worst, abs(info["stretch"] - math.exp(mu)) / math.exp(mu))
    rec.quantitative("classification_roundtrip", worst, 1.0e-9)

    pts = rng.uniform(-0.65, 0.65, size=(200, 2))
    emb = lorentz.hyperboloid_embed(pts[:, 0], pts[:, 1])
    rec.quantitative(
        "hyperboloid_on_sheet",
        float(np.max(np.abs(lorentz.q_form(emb) + 1.0))),
        1.0e-12,
    )
    return rec.results


def suite_models(seed):
    rec = _Recorder("models")
    rng = np.random.default_rng(seed)

    worst = 0.0
    for _ in range(200):
        alpha = rng.uniform(0.05, TWO_PI)
        r = rng.uniform(0.05, 3.0)
        tr = omega_transform(alpha)
        jac = tr.jacobian()
        rho = r / math.cosh(tr.beta)
        pulled = jac.T @ omega_metric_at(tr.omega, rho) @ jac
        worst = max(worst, float(np.max(np.abs(pulled - metric_at(alpha, r)))))
    rec.quantitative("omega_pullback", worst, 1.0e-9)

    r = 1.375
    res0 = float(np.max(np.abs(omega_metric_at(0.0, r) - np.diag([-1.0, 1.0, r * r]))))
    rec.quantitative("omega_zero_minkowski", res0, 0.0)
    res1 = float(np.max(np.abs(omega_metric_at(1.0, r) - metric_at(0.0, r))))
    rec.quantitative("omega_one_extremal", res1, 0.0)

    circ = max(
        abs(circle_circumference(1.5, 2.0) - 3.0),
        abs(circle_circumference(0.0, 2.0) - 2.0 * TWO_PI),
    )
    rec.quantitative("circumference_values", circ, 1.0e-12)

    try:
        metric_at(1.0, 0.0)
        ok = False
    except SingularPointError:
        ok = True
    rec.structural("metric_rejects_axis", ok)
    return rec.results


def suite_causal(seed):
    rec = _Recorder("causal")

    grid = causal.grid_reachability(n_tau=21, n_r=21, n_theta=9)
    mism = int(np.count_nonzero(grid.reach != causal.reachability_closed_form(grid)))
    rec.quantitative(
        "grid_vs_closed_form", float(mism), 0.0, detail=f"{grid.reach.size} nodes"
    )

    region = TubeRegion(0.0, 1.0, 0.0, 2.0)
    curves = causal.sample_causal_curves(region, 50, seed=seed)
    kinds, _ = causal.validate_causal_batch(0.0, np.stack(curves))
    bad = int(np.count_nonzero(kinds == "violation"))
    nondec = all(np.all(np.diff(c[:, 1]) >= 0.0) for c in curves)
    rec.quantitative(
        "random_curves_causal", float(bad + (0 if nondec else 1)), 0.0,
        detail="50 curves, radii non-decreasing",
    )

    config = causal.MeasureConfig(weight3=1.0, weight1=1.0, n_samples=20_000)
    values = [
        causal.volume_time(region, (t, 0.0, 0.0), config, seed=seed)
        for t in (0.5, 1.0, 1.5)
    ]
    min_gap = min(values[1] - values[0], values[2] - values[1])
    rec.quantitative(
        "volume_time_increasing",
        max(0.0, -min_gap),
        0.0,
        detail="values " + ", ".join(f"{v:.6f}" for v in values),
    )

    try:
        causal.volume_time(
            region, (1.0, 0.0, 0.0), causal.MeasureConfig(weight1=0.0), seed=seed
        )
        ok = False
    except DegenerateMeasureError as err:
        ok = err.side == "past" and err.estimate == 0.0
    rec.structural("degenerate_line_past", ok)
    return rec.results


def suite_develop(seed):
    rec = _Recorder("develop")
    rng = np.random.default_rng(seed)
    pts = np.stack(
        [
            rng.uniform(-2.0, 2.0, 200),
            rng.uniform(0.05, 3.0, 200),
            rng.uniform(-8.0, 8.0, 200),
        ],
        axis=-1,
    )

    target = np.zeros((pts.shape[0], 3, 3))
    for i, r in enumerate(pts[:, 1]):
        target[i] = metric_at(0.0, r)
    jac = develop.develop_btz_jacobian(pts)
    eta = lorentz.MINKOWSKI_METRIC
    pulled = np.einsum("nji,jk,nkl->nil", jac, eta, jac)
    rec.quantitative(
        "btz_pullback_exact", float(np.max(np.abs(pulled - target))), 1.0e-9
    )

    h = 1.0e-4
    fd = np.empty_like(jac)
    for col in range(3):
        dp = np.zeros(3)
        dp[col] = h
        fd[:, :, col] = (develop.develop_btz(pts + dp) - develop.develop_btz(pts - dp)) / (
            2.0 * h
        )
    pulled_fd = np.einsum("nji,jk,nkl->nil", fd, eta, fd)
    rec.quantitative(
        "btz_pullback_fd", float(np.max(np.abs(pulled_fd - target))), 1.0e-5
    )

    alpha = 0.5 * math.pi
    jac_m = develop.develop_massive_jacobian(alpha, pts)
    pulled_m = np.einsum("nji,jk,nkl->nil", jac_m, eta, jac_m)
    target_m = np.zeros_like(pulled_m)
    for i, r in enumerate(pts[:, 1]):
        target_m[i] = metric_at(alpha, r)
    rec.quantitative(
        "massive_pullback_exact", float(np.max(np.abs(pulled_m - target_m))), 1.0e-9
    )

    gamma = develop.btz_holonomy_generator()
    shift = develop.develop_btz(pts + np.array([0.0, 0.0, TWO_PI]))
    rec.quantitative(
        "holonomy_equivariance",
        float(np.max(np.abs(shift - develop.develop_btz(pts) @ gamma.linear.T))),
        1.0e-9,
    )
    rec.quantitative(
        "holonomy_trace", abs(float(np.trace(gamma.linear)) - 3.0), 1.0e-12
    )
    fixed = np.array([1.0, 1.0, 0.0])
    rec.quantitative(
        "holonomy_fixed_null",
        float(np.max(np.abs(gamma.apply_linear(fixed) - fixed))),
        1.0e-12,
    )

    image = develop.develop_btz(pts)
    rec.quantitative(
        "image_law_t_minus_x",
        float(np.max(np.abs(image[:, 0] - image[:, 1] - pts[:, 1]))),
        1.0e-12,
    )

    rec.structural(
        "rescale_isometry_iff_unit",
        develop.rescale_btz(1.0).is_isometry and not develop.rescale_btz(2.0).is_isometry,
    )

    conj = develop.boost_conjugate(gamma, 0.7)
    info = lorentz.classify_isometry(conj)
    rec.structural("boost_conjugate_parabolic", info["kind"] == "parabolic")
    rec.structural(
        "cone_chart_matching",
        develop.match_cone_charts(0.5 * math.pi, 0.5 * math.pi)
        and not develop.match_cone_charts(0.5 * math.pi, math.pi / 3.0),
    )
    return rec.results


def suite_surfaces(seed):
    rec = _Recorder("surfaces")
    rng = np.random.default_rng(seed)

    cap = surfaces.hyperbolic_plane_surface(radius=1.0)
    r = np.geomspace(1.0e-4, 1.0, 200)
    delta = surfaces.delta_field(cap)(r, np.zeros_like(r))
    rec.quantitative(
        "cap_delta_formula",
        float(np.max(np.abs(delta * r**2 - 1.0))),
        1.0e-9,
    )
    cert = surfaces.completeness_certificate(cap)
    rec.quantitative("cap_certificate", abs(cert - 1.0), 1.0e-6)
    # geometric nodes: the radial line element is 1/r, so equal ratios keep
    # the per-segment quadrature error uniformly tiny
    eps = 1.0e-3
    path = np.stack([np.geomspace(eps, 1.0, 129), np.zeros(129)], axis=-1)
    length = surfaces.surface_length(cap, path)
    rec.quantitative("cap_radial_length", abs(length - math.log(1.0 / eps)), 1.0e-6)

    boundary = surfaces.BoundaryCurve.from_trig(
        rng.normal(), rng.normal(size=3) / 4.0, rng.normal(size=3) / 4.0
    )
    comp = surfaces.extend_boundary_complete(boundary, 1.0)
    _, min_r2d = surfaces.min_spacelike_slack(comp)
    rec.quantitative(
        "complete_surgery_slack",
        max(0.0, 1.0 - min_r2d),
        0.0,
        detail=f"min r^2 delta = {min_r2d:.6f}",
    )
    th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    rec.quantitative(
        "complete_boundary_match",
        float(np.max(np.abs(comp.tau(np.full_like(th, 1.0), th) - boundary.value(th)))),
        0.0,
    )

    capped = surfaces.extend_boundary_cap(boundary, 1.0)
    rec.structural(
        "cap_surgery_certified",
        capped.params["certified_min_delta"] > 1.0e-9,
        detail=f"certified delta {capped.params['certified_min_delta']:.3e}, "
        f"cap constant {capped.params['cap_constant']:.1f}",
    )
    inner_val = capped.params["cap_constant"] / 1.0
    rec.quantitative(
        "cap_surgery_continuity",
        float(np.max(np.abs(capped.tau(np.full_like(th, 0.5), th) - inner_val))),
        1.0e-12,
    )
    return rec.results


def suite_extensions(seed):
    rec = _Recorder("extensions")

    ok = all(
        tuple(extensions.chain_membership(p)) == expected
        for p, expected in extensions.CITED_CHAIN_POINTS.items()
    )
    rec.structural("chain_cited_points", ok)

    failures = extensions.sample_chain_monotone(500, seed=seed)
    rec.quantitative("chain_monotone", float(failures), 0.0, detail="500 points")

    chart = extensions.extremal_chart(with_line=False)
    full = extensions.adjoin_btz(chart)
    stripped, surface = extensions.remove_btz(full)
    rec.structural(
        "adjoin_remove_roundtrip",
        full.has_singular_line
        and not stripped.has_singular_line
        and surfaces.is_spacelike(surface, n_r=128, n_theta=64),
    )

    try:
        extensions.adjoin_btz(
            extensions.TubeChart(
                math.pi, 1.0, -1.0, 1.0, False,
                develop.massive_holonomy_generator(math.pi),
            )
        )
        ok = False
    except extensions.NotBTZExtendableError:
        ok = True
    rec.structural("adjoin_rejects_massive", ok)
    return rec.results


def suite_modular(seed):
    rec = _Recorder("modular")

    checks = modular.representation_checks()
    rec.quantitative("modular_relations", max(checks.values()), 1.0e-9)

    complex_ = modular.build_complex()
    kinds = tuple(e.kind for e in complex_.edge_classes)
    rec.structural(
        "complex_builds", kinds == ("massive", "massive", "extremal"),
        detail="edge kinds " + ", ".join(kinds),
    )
    angles = {e.label: e.cone_angle for e in complex_.edge_classes}
    rec.quantitative(
        "singular_cone_angles",
        max(abs(angles["B"] - math.pi), abs(angles["A~C"] - TWO_PI / 3.0)),
        1.0e-9,
    )

    slice_ = modular.polyhedral_cauchy_surface(1.0)
    rec.quantitative(
        "slice_angle_sum",
        abs(sum(slice_.cone_angles.values()) - TWO_PI),
        1.0e-6,
    )
    v, e, f, chi = slice_.euler
    rec.structural(
        "slice_euler", (v, e, f, chi) == (3, 3, 2, 2), detail=f"V,E,F = {v},{e},{f}"
    )
    len_mismatch = max(
        abs(slice_.edge_lengths[a] - slice_.edge_lengths[b])
        for a, b in slice_.edge_pairs
    )
    rec.quantitative("glued_edge_lengths", len_mismatch, 1.0e-9)

    rays = modular.sample_interior_rays(slice_, 200, seed=seed)
    counts = [modular.ray_intersection_count(slice_, d) for d in rays]
    rec.quantitative(
        "rays_hit_once",
        float(sum(c != 1 for c in counts)),
        0.0,
        detail="200 rays",
    )
    return rec.results


SUITES = {
    "lorentz": suite_lorentz,
    "models": suite_models,
    "causal": suite_causal,
    "develop": suite_develop,
    "surfaces": suite_surfaces,
    "extensions": suite_extensions,
    "modular": suite_modular,
}


def run_suites(names, seed):
    """Run the named suites in declaration order; returns CheckResults."""
    ordered = [n for n in SUITES if n in set(names)]
    results = []
    for name in ordered:
        results.extend(SUITES[name](seed))
    return results
