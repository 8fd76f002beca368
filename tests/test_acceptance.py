"""Acceptance gate: twelve package-level criteria, one test and one line each.

Each test prints a single pass/fail line with the measured residuals at the
stated tolerances, then asserts.  Sizes (sample counts, grids, seeds) are
fixed so the whole module stays well under the overall two-minute budget.
"""

import json
import math

import numpy as np
import pytest

from btzgeo import cli
from btzgeo.causal import (
    MeasureConfig,
    btz_causal_future,
    btz_connecting_curve,
    grid_reachability,
    sample_causal_curves,
    tangent_class,
    validate_causal,
    volume_time_report,
)
from btzgeo.develop import (
    btz_holonomy_generator,
    develop_btz,
    develop_btz_jacobian,
    develop_massive,
    develop_massive_jacobian,
)
from btzgeo.errors import DegenerateMeasureError
from btzgeo.lorentz import MINKOWSKI_METRIC
from btzgeo.models import (
    TWO_PI,
    TubeRegion,
    metric_at,
    omega_metric_at,
    omega_transform,
)
from btzgeo.modular import (
    build_complex,
    polyhedral_cauchy_surface,
    ray_intersection_count,
    representation_checks,
    sample_interior_rays,
)
from btzgeo.extensions import chain_membership, sample_chain_monotone
from btzgeo.surfaces import (
    BoundaryCurve,
    GraphSurface,
    completeness_certificate,
    delta_field,
    extend_boundary_cap,
    extend_boundary_complete,
    hyperbolic_plane_surface,
    induced_metric,
    min_spacelike_slack,
    surface_length,
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} [{name}]: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _pullback(jac, target):
    pull = np.einsum("nji,jk,nkl->nil", jac, MINKOWSKI_METRIC, jac)
    return float(np.max(np.abs(pull - target)))


def _fd_jacobians(mapping, pts, h=1.0e-4):
    cols = []
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        cols.append((mapping(pts + step) - mapping(pts - step)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def _cover_points(rng, n, r_lo=5.0e-3, r_hi=2.0):
    tau = rng.uniform(-1.0, 1.0, n)
    r = rng.uniform(r_lo, r_hi, n)
    th = rng.uniform(-TWO_PI, TWO_PI, n)
    return np.stack([tau, r, th], axis=-1)


def _extremal_targets(r):
    g = np.zeros((r.size, 3, 3))
    g[:, 0, 1] = g[:, 1, 0] = -1.0
    g[:, 1, 1] = 1.0
    g[:, 2, 2] = r**2
    return g


def test_criterion_01_developing_map_isometry():
    rng = np.random.default_rng(101)
    pts = _cover_points(rng, 10_000)
    target = _extremal_targets(pts[:, 1])
    exact = _pullback(develop_btz_jacobian(pts), target)
    fd = _pullback(_fd_jacobians(develop_btz, pts), target)

    for alpha in rng.uniform(0.05, TWO_PI, 5):
        mpts = _cover_points(rng, 2_000)
        a = alpha / TWO_PI
        mtarget = np.zeros((2_000, 3, 3))
        mtarget[:, 0, 0] = -1.0
        mtarget[:, 1, 1] = 1.0
        mtarget[:, 2, 2] = (a * mpts[:, 1]) ** 2
        exact = max(exact, _pullback(develop_massive_jacobian(alpha, mpts), mtarget))
        fd = max(
            fd,
            _pullback(_fd_jacobians(lambda p: develop_massive(alpha, p), mpts), mtarget),
        )
    ok = exact < 1e-9 and fd < 1e-5
    _report(1, "developing-map isometry", ok,
            f"exact {exact:.3g} < 1e-9, fd(h=1e-4) {fd:.3g} < 1e-5, 1e4 points each")


def test_criterion_02_holonomy_equivariance():
    rng = np.random.default_rng(102)
    pts = _cover_points(rng, 1_000)
    gamma = btz_holonomy_generator()
    shifted = pts + np.array([0.0, 0.0, TWO_PI])
    res = float(
        np.max(np.abs(develop_btz(shifted) - develop_btz(pts) @ gamma.linear.T))
    )
    trace_res = abs(float(np.trace(gamma.linear)) - 3.0)
    fix_res = float(
        np.max(np.abs(gamma.apply_linear([1.0, 1.0, 0.0]) - [1.0, 1.0, 0.0]))
    )
    ok = res < 1e-9 and trace_res <= 1e-12 and fix_res <= 1e-12
    _report(2, "holonomy equivariance", ok,
            f"equivariance {res:.3g} < 1e-9 on 1e3 points, "
            f"trace {trace_res:.3g} <= 1e-12, fixes (1,1,0) {fix_res:.3g} <= 1e-12")


def test_criterion_03_image_law():
    rng = np.random.default_rng(103)
    pts = _cover_points(rng, 10_000)
    image = develop_btz(pts)
    res = float(np.max(np.abs(image[:, 0] - image[:, 1] - pts[:, 1])))
    ok = res <= 1e-12
    _report(3, "developed image satisfies t - x = r", ok,
            f"max residual {res:.3g} <= 1e-12 on 1e4 points")


def test_criterion_04_omega_family():
    # rng.uniform(lo, hi) is lo + (hi - lo) u: alternating alpha, r draws
    u = np.random.default_rng(104).random((1_000, 2))
    alpha = 1.0e-3 + (TWO_PI - 1.0e-3) * u[:, 0]
    r = 1.0e-3 + (3.0 - 1.0e-3) * u[:, 1]
    tf = omega_transform(alpha)
    jac = tf.jacobian()
    pull = np.swapaxes(jac, -1, -2) @ omega_metric_at(tf.omega, r / jac[:, 0, 0]) @ jac
    res = float(np.max(np.abs(pull - metric_at(alpha, r))))
    r = np.linspace(0.0, 2.0, 64)
    mink = np.zeros((64, 3, 3))
    mink[:, 0, 0] = -1.0
    mink[:, 1, 1] = 1.0
    mink[:, 2, 2] = r**2
    omega0_exact = np.array_equal(omega_metric_at(0.0, r), mink)
    r_pos = r[1:]
    omega1_exact = np.array_equal(omega_metric_at(1.0, r_pos), metric_at(0.0, r_pos))
    ok = res < 1e-9 and omega0_exact and omega1_exact
    _report(4, "omega-family consistency", ok,
            f"pullback residual {res:.3g} < 1e-9 on 1e3 draws, "
            f"omega=0 Minkowski exact: {omega0_exact}, omega=1 entrywise: {omega1_exact}")


def test_criterion_05_delta_criterion():
    rng = np.random.default_rng(105)
    mk = lambda c: lambda r, th: np.full(np.broadcast(r, th).shape, c)
    agree = 0
    n = 10_000
    for i in range(n):
        alpha = 0.0 if i % 2 == 0 else rng.uniform(0.05, TWO_PI)
        r = rng.uniform(0.05, 3.0)
        surf = GraphSurface.from_functions(
            alpha, 4.0, mk(0.0), mk(rng.normal(scale=0.8)), mk(rng.normal(scale=0.8))
        )
        delta = float(delta_field(surf)(r, 0.0))
        eigs = np.linalg.eigvalsh(induced_metric(surf, r, 0.0))
        agree += (delta > 0.0) == bool(eigs.min() > 0.0)
    ok = agree == n
    _report(5, "delta-criterion equals positive-definiteness", ok,
            f"{agree}/{n} jets agree exactly")


def test_criterion_06_surgery_certificates():
    rng = np.random.default_rng(106)
    worst_r2 = np.inf
    worst_match = 0.0
    worst_cont = 0.0
    worst_cert = np.inf
    ths = np.linspace(0.0, TWO_PI, 128, endpoint=False)
    for _ in range(100):
        b = BoundaryCurve.from_trig(
            rng.normal(), rng.normal(size=5) * 0.3, rng.normal(size=5) * 0.3
        )
        comp = extend_boundary_complete(b, 1.0)
        _, min_r2 = min_spacelike_slack(comp, n_r=256, n_theta=256)
        worst_r2 = min(worst_r2, min_r2)
        worst_match = max(
            worst_match,
            float(np.max(np.abs(comp.tau(np.ones_like(ths), ths) - b.value(ths)))),
        )
        cap = extend_boundary_cap(b, 1.0)
        level = cap.params["cap_constant"]
        worst_cont = max(
            worst_cont,
            float(np.max(np.abs(cap.tau(np.full_like(ths, 0.5), ths) - level))),
        )
        worst_cert = min(worst_cert, cap.params["certified_min_delta"])
    ok = (
        worst_r2 > 1.0
        and worst_match == 0.0
        and worst_cont <= 1e-12
        and worst_cert > 1e-9
    )
    _report(6, "surgery certificates on 100 random boundaries", ok,
            f"min r^2 delta {worst_r2:.3g} > 1 on 256x256, "
            f"boundary residual {worst_match:.3g} == 0, "
            f"cap continuity {worst_cont:.3g} <= 1e-12, "
            f"certified delta {worst_cert:.3g} > 1e-9")


def test_criterion_07_hyperbolic_cap_benchmark():
    cap = hyperbolic_plane_surface(1.0)
    r = np.geomspace(1.0e-2, 1.0, 4096)
    delta_res = float(np.max(np.abs(delta_field(cap)(r, np.zeros_like(r)) - 1.0 / r**2)))
    cert = completeness_certificate(cap)
    cert_res = abs(cert - 1.0)
    eps = 1.0e-3
    path = np.stack([np.geomspace(eps, 1.0, 129), np.zeros(129)], axis=-1)
    length_res = abs(surface_length(cap, path) - math.log(1.0 / eps))
    ok = delta_res < 1e-9 and cert_res <= 1e-6 and length_res <= 1e-6
    _report(7, "hyperbolic cap benchmark", ok,
            f"delta vs 1/r^2 {delta_res:.3g} < 1e-9, certificate C-1 {cert_res:.3g} "
            f"<= 1e-6, radial length vs ln(1/eps) {length_res:.3g} <= 1e-6")


def test_criterion_08_causal_structure():
    mismatches = 0
    nodes = 0
    for i0 in (0, 8, 16, 24, 32):
        grid = grid_reachability(base=(i0, 0, 0), n_tau=41, n_r=41, n_theta=17)
        base_pt = (float(grid.taus[i0]), 0.0, 0.0)
        closed = np.zeros_like(grid.reach)
        for i, t in enumerate(grid.taus):
            for j, r in enumerate(grid.radii):
                for k, h in enumerate(grid.thetas):
                    rel = btz_causal_future(base_pt, (float(t), float(r), float(h)))
                    closed[i, j, k] = rel != "outside"
        mismatches += int(np.count_nonzero(closed != grid.reach))
        nodes += grid.reach.size

    region = TubeRegion(0.0, 1.0, 0.0, 2.0)
    curves = sample_causal_curves(region, 10_000, seed=108)
    kinds, _ = validate_causal(0.0, curves)
    n_valid = int(np.count_nonzero(kinds != "violation"))
    nondecreasing = bool(np.all(np.diff(curves[:, :, 1], axis=1) >= 0.0))

    # the closed-form relation is realised: a connecting curve between the
    # ends of every 50th sampled curve (60 of the 200 start on the line)
    witness_bad = 0
    for first, last in zip(curves[::50, 0], curves[::50, -1]):
        witness = btz_connecting_curve(tuple(first), tuple(last))
        ends_ok = (
            np.array_equal(witness[[0, -1], :2], [first[:2], last[:2]])
            and math.remainder(witness[-1, 2] - last[2], TWO_PI) == 0.0
            and (first[1] == 0.0 or math.remainder(witness[0, 2] - first[2], TWO_PI) == 0.0)
        )
        steps_ok = all(
            btz_causal_future(tuple(a), tuple(b)) != "outside"
            for a, b in zip(witness[:-1], witness[1:])
        )
        witness_bad += not (ends_ok and steps_ok and validate_causal(0.0, witness)[0] != "violation")
    # the null generators of the boundary of J+ from a line point
    generators_null = all(
        tangent_class(0.0, r, v) == "lightlike-future"
        for r in (1.0e-3, 0.5, 1.0)
        for v in ((0.5, 1.0, 0.0), (1.0, 0.0, 0.0))
    )
    ok = (mismatches == 0 and n_valid == 10_000 and nondecreasing
          and witness_bad == 0 and generators_null)
    _report(8, "causal structure", ok,
            f"grid vs closed form: {mismatches}/{nodes} mismatches over 5 bases "
            f"(41x41x17), {n_valid}/10000 sampled curves valid, "
            f"radii non-decreasing: {nondecreasing}, {witness_bad}/200 "
            f"connecting curves failed, exit generators null: {generators_null}")


def test_criterion_09_volume_time():
    region = TubeRegion(0.0, 1.0, 0.0, 2.0)
    config = MeasureConfig(weight3=1.0, weight1=1.0, n_samples=1_000_000)
    curves = sample_causal_curves(region, 100, seed=109)
    violations = 0
    for curve in curves:
        prev = None
        for p in curve:
            res = volume_time_report(region, tuple(p), config, seed=5)
            if prev is not None:
                lo = prev.value - 3.0 * (prev.stderr + res.stderr)
                if res.value < lo:
                    violations += 1
            prev = res

    with pytest.raises(DegenerateMeasureError) as err:
        volume_time_report(
            region, (0.5, 0.0, 0.0),
            MeasureConfig(weight3=1.0, weight1=0.0, n_samples=10_000),
            seed=5,
        )
    degenerate_ok = err.value.side == "past" and err.value.estimate == 0.0

    line_vals = [
        volume_time_report(region, (t, 0.0, 0.0), config, seed=5).value
        for t in (0.5, 1.0, 1.5)
    ]
    increasing = line_vals[0] < line_vals[1] < line_vals[2]
    ok = violations == 0 and degenerate_ok and increasing
    _report(9, "volume time", ok,
            f"monotone within 3 SE at N=1e6 on 100 curves ({violations} violations), "
            f"weight1=0 line point degenerate past estimate 0: {degenerate_ok}, "
            f"line values {line_vals[0]:.4f} < {line_vals[1]:.4f} < {line_vals[2]:.4f}")


def test_criterion_10_modular_example():
    checks = representation_checks()
    rel_res = max(checks["s_squared"], checks["st_cubed"])
    cx = build_complex()
    by_label = {e.label: e for e in cx.edge_classes}
    kinds_ok = (
        by_label["B"].kind == "massive"
        and by_label["A~C"].kind == "massive"
        and by_label["INF"].kind == "extremal"
    )
    angle_res = max(
        abs(by_label["B"].cone_angle - math.pi),
        abs(by_label["A~C"].cone_angle - TWO_PI / 3.0),
    )
    surf = polyhedral_cauchy_surface(1.0)
    v, e, f, _ = surf.euler
    euler_ok = (v, e, f) == (3, 3, 2)
    sum_res = abs(sum(surf.cone_angles.values()) - TWO_PI)
    rays = sample_interior_rays(surf, 1_000, seed=10)
    hits = [ray_intersection_count(surf, d) for d in rays]
    rays_ok = hits == [1] * 1_000
    ok = (
        rel_res < 1e-9 and kinds_ok and angle_res < 1e-9
        and euler_ok and sum_res <= 1e-6 and rays_ok
    )
    _report(10, "modular example", ok,
            f"relation residuals {rel_res:.3g} < 1e-9, line classes massive "
            f"pi / massive 2pi/3 / extremal: {kinds_ok} (angle err {angle_res:.3g}), "
            f"V,E,F = {v},{e},{f}, angle sum residual {sum_res:.3g} <= 1e-6, "
            f"1e3 rays hit once: {rays_ok}")


def test_criterion_11_extension_chain():
    failures = sample_chain_monotone(n=10_000, seed=111)
    cited = {
        (-1.0, 0.0, 0.0): [False, False, True, True],
        (-1.0, 1.0, 0.0): [True, True, True, True],
        (1.0, 1.0, 0.0): [False, False, False, True],
    }
    cited_ok = all(chain_membership(p) == want for p, want in cited.items())
    ok = failures == 0 and cited_ok
    _report(11, "mixed-extension chain", ok,
            f"{failures}/10000 monotonicity failures, cited points exact: {cited_ok}")


def test_criterion_12_determinism(capsys):
    argv = ["verify", "--suite", "all", "--seed", "7", "--no-timing"]
    code1 = cli.main(argv)
    first = capsys.readouterr().out
    code2 = cli.main(argv)
    second = capsys.readouterr().out
    identical = first == second
    status = json.loads(first)["summary"]["status"]
    ok = identical and code1 == 0 and code2 == 0 and status == "pass"
    _report(12, "verify determinism", ok,
            f"byte-identical: {identical} ({len(first)} bytes), exit codes "
            f"{code1}/{code2}, summary {status}")
