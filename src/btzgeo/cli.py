"""Command line interface.

Subcommands: ``verify`` (run the check suites), ``causal`` (curve
validation, causal relation queries, volume time), ``develop`` (developing
map point clouds, holonomy report), ``surface`` (spacelike checks and the
two boundary surgeries), ``extend`` (tube chart surgery and the extension
chain), ``modular`` (the modular-group example) and ``conefield`` (samples
of the future light cones near a singular line).

Reports are JSON (stdout, or ``--out``); point clouds are CSV.  Exit code 0
means every selected check passed, 1 a failed check or degenerate input,
2 a usage error.  With ``--no-timing`` the ``verify`` report is
byte-for-byte reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .causal import (
    MeasureConfig,
    btz_causal_future,
    validate_causal,
    volume_time_report,
)
from .develop import develop_btz, develop_massive, developing_report
from .errors import (
    BoundaryMismatchError,
    CertificationError,
    DegenerateMeasureError,
    NotBTZExtendableError,
)
from .extensions import (
    TubeChart,
    adjoin_btz,
    chain_membership,
    mixed_extension_chain,
    remove_btz,
    sample_chain_monotone,
)
from .lorentz import LorentzIsometry, classify_isometry
from .models import TWO_PI, TubeRegion
from .modular import (
    build_complex,
    polyhedral_cauchy_surface,
    psl2z_generators,
    ray_intersection_count,
    representation_checks,
    sample_interior_rays,
)
from .surfaces import (
    BoundaryCurve,
    GraphSurface,
    assemble_cauchy,
    completeness_certificate,
    extend_boundary_cap,
    extend_boundary_complete,
    min_spacelike_slack,
)
from .verify import SUITES, run_suites


def _dump(report, out=None):
    text = json.dumps(report, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# =========================================================================
# Argument types: a bad value is a usage error (exit 2), not a traceback
# =========================================================================


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _json_file(build):
    """Argument type that reads a JSON file and returns ``build(data)``.

    A missing or unreadable file, malformed JSON, a non-finite number, or
    data that ``build`` rejects all become usage errors.
    """

    def load(path):
        try:
            data = json.loads(
                Path(path).read_text(),
                parse_float=_finite_float,
                parse_constant=_finite_float,
            )
            return build(data)
        except (
            argparse.ArgumentTypeError, OSError, ArithmeticError,
            AttributeError, LookupError, TypeError, ValueError,
        ) as err:
            raise argparse.ArgumentTypeError(f"cannot load {path}: {err}") from None

    return load


# =========================================================================
# File formats
# =========================================================================


def _boundary_from_data(data):
    """Boundary file: {"constant": c, "cos": [a1, ...], "sin": [b1, ...]}."""
    return BoundaryCurve.from_trig(
        data.get("constant", 0.0), data.get("cos", ()), data.get("sin", ())
    )


def _surface_to_file(surface, path, n_r=128, n_theta=128):
    """Sample a surface to JSON: header fields plus (r, theta, tau) rows."""
    if surface.r_inner <= 0.0 and surface.punctured:
        rs = np.geomspace(surface.radius * 1.0e-4, surface.radius, n_r)
    else:
        lo = surface.r_inner if surface.r_inner > 0.0 else surface.radius * 1.0e-4
        rs = np.linspace(lo, surface.radius, n_r)
    ths = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    tau = np.broadcast_to(
        surface.tau(rs[:, None], ths[None, :]), (n_r, n_theta)
    )
    grid = [
        [float(r), float(t), float(tau[i, j])]
        for i, r in enumerate(rs)
        for j, t in enumerate(ths)
    ]
    payload = {
        "R": surface.radius,
        "punctured": surface.punctured,
        "alpha": surface.alpha,
        "kind": "grid",
        "params": {k: v for k, v in surface.params.items() if k != "grid_shape"},
        "grid_shape": [n_r, n_theta],
        "grid": grid,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _surface_from_data(data) -> GraphSurface:
    n_r, n_theta = data["grid_shape"]
    rows = np.asarray(data["grid"], dtype=float).reshape(n_r, n_theta, 3)
    return GraphSurface.from_grid(
        data["alpha"],
        rows[:, 0, 0],
        rows[0, :, 1],
        rows[:, :, 2],
        punctured=data["punctured"],
        params=data.get("params"),
    )


def _chart_to_dict(chart: TubeChart) -> dict:
    return {
        "angle": chart.angle,
        "radius": chart.radius,
        "t_min": chart.t_min,
        "t_max": chart.t_max,
        "has_singular_line": chart.has_singular_line,
        "holonomy": chart.holonomy.linear.tolist(),
    }


def _chart_from_data(d) -> TubeChart:
    return TubeChart(
        d["angle"],
        d["radius"],
        d["t_min"],
        d["t_max"],
        d["has_singular_line"],
        LorentzIsometry(np.asarray(d["holonomy"], dtype=float)),
    )


_boundary_file = _json_file(_boundary_from_data)
_surface_file = _json_file(_surface_from_data)
_chart_file = _json_file(_chart_from_data)
_FLAT_BOUNDARY = BoundaryCurve.from_trig()


def _write_csv(path, header, rows):
    lines = [header] + [",".join(str(c) for c in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# =========================================================================
# Handlers
# =========================================================================


def _cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, args.seed, args.tol)
    checks = [
        {
            "suite": r.suite,
            "check": r.name,
            "status": "pass" if r.passed else "fail",
            "residual": r.residual,
            "tolerance": r.tolerance,
            "seed": args.seed,
            "detail": r.detail,
            "time_s": None if args.no_timing else round(r.time_s, 6),
        }
        for r in results
    ]
    failed = sum(c["status"] == "fail" for c in checks)
    report = {
        "command": "verify",
        "suites": names,
        "seed": args.seed,
        "checks": checks,
        "summary": {
            "total": len(checks),
            "passed": len(checks) - failed,
            "failed": failed,
            "status": "pass" if failed == 0 else "fail",
        },
    }
    _dump(report, args.out)
    return 0 if failed == 0 else 1


def _cmd_causal_check(args):
    pts = np.atleast_2d(np.loadtxt(args.curve, delimiter=",", comments="#"))
    verdict = validate_causal(args.alpha, pts, tol=args.tol)
    report = {
        "command": "causal check",
        "curve": str(args.curve),
        "alpha": args.alpha,
        "n_samples": int(pts.shape[0]),
        "kind": verdict.kind,
        "first_violation": verdict.index,
    }
    _dump(report, args.out)
    return 0 if verdict.ok else 1


def _cmd_causal_jplus(args):
    relation = btz_causal_future(tuple(args.point), tuple(args.target), tol=args.tol)
    report = {
        "command": "causal jplus",
        "point": list(args.point),
        "target": list(args.target),
        "relation": relation,
    }
    _dump(report, args.out)
    return 0


def _cmd_causal_volumetime(args):
    region = TubeRegion(0.0, args.radius, args.t_min, args.t_max)
    config = MeasureConfig(
        weight3=args.weight3, weight1=args.weight1, n_samples=args.n
    )
    base = {
        "command": "causal volumetime",
        "point": list(args.point),
        "radius": args.radius,
        "t_interval": [args.t_min, args.t_max],
        "weights": [args.weight3, args.weight1],
        "n_samples": args.n,
        "seed": args.seed,
    }
    try:
        res = volume_time_report(region, tuple(args.point), config, seed=args.seed)
    except DegenerateMeasureError as err:
        base.update(
            {"error": "degenerate-measure", "side": err.side, "estimate": err.estimate}
        )
        _dump(base, args.out)
        return 1
    base.update(
        {
            "value": res.value,
            "stderr": res.stderr,
            "past_volume": res.past_volume,
            "future_volume": res.future_volume,
        }
    )
    _dump(base, args.out)
    return 0


def _cmd_develop_sample(args):
    rng = np.random.default_rng(args.seed)
    n = args.n
    tau = rng.uniform(-args.t_span, args.t_span, n)
    r = rng.uniform(1.0e-3 * args.r_max, args.r_max, n)
    if args.alpha == 0.0:
        theta = rng.uniform(-TWO_PI, TWO_PI, n)
        image = develop_btz(np.stack([tau, r, theta], axis=-1))
    else:
        theta = rng.uniform(0.0, TWO_PI, n)
        image = develop_massive(args.alpha, np.stack([tau, r, theta], axis=-1))
    rows = np.concatenate([np.stack([tau, r, theta], axis=-1), image], axis=1)
    _write_csv(
        args.out, "tau,r,theta,t,x,y", [[f"{v:.17g}" for v in row] for row in rows]
    )
    return 0


def _cmd_develop_holonomy(args):
    report = {"command": "develop holonomy"}
    report.update(developing_report(args.alpha))
    _dump(report, args.out)
    return 0


def _cmd_surface_check(args):
    surface = args.surface
    n = args.grid or 256
    min_delta, min_r2delta = min_spacelike_slack(surface, n_r=n, n_theta=n)
    report = {
        "command": "surface check",
        "alpha": surface.alpha,
        "R": surface.radius,
        "punctured": surface.punctured,
        "min_delta": min_delta,
        "min_r2_delta": min_r2delta,
        "spacelike": min_delta > 0.0,
    }
    if surface.punctured and surface.alpha == 0.0:
        cert = completeness_certificate(surface, n_r=n, n_theta=n)
        report["completeness_certificate"] = cert
    _dump(report, args.out)
    return 0 if report["spacelike"] else 1


def _cmd_surface_extend(args):
    surface = extend_boundary_complete(args.boundary, args.R)
    n = args.grid or 128
    _, min_r2delta = min_spacelike_slack(surface, n_r=256, n_theta=256)
    if args.out:
        _surface_to_file(surface, args.out, n_r=n, n_theta=n)
    report = {
        "command": "surface extend",
        "R": args.R,
        "slope": surface.params["slope"],
        "min_r2_delta": min_r2delta,
        "certified": min_r2delta > 1.0,
        "out": str(args.out) if args.out else None,
    }
    _dump(report, None)
    return 0 if min_r2delta > 1.0 else 1


def _cmd_surface_cap(args):
    try:
        surface = extend_boundary_cap(args.boundary, args.R)
    except CertificationError as err:
        _dump({"command": "surface cap", "error": str(err)}, None)
        return 1
    if args.out:
        n = args.grid or 128
        _surface_to_file(surface, args.out, n_r=n, n_theta=n)
    report = {
        "command": "surface cap",
        "R": args.R,
        "cap_constant": surface.params["cap_constant"],
        "certified_min_delta": surface.params["certified_min_delta"],
        "out": str(args.out) if args.out else None,
    }
    _dump(report, None)
    return 0


def _cmd_surface_assemble(args):
    try:
        comp = assemble_cauchy(args.outer, args.inner)
    except (BoundaryMismatchError, ValueError) as err:
        _dump({"command": "surface assemble", "error": str(err)}, args.out)
        return 1
    report = {
        "command": "surface assemble",
        "interface_radius": comp.interface_radius,
        "max_mismatch": comp.max_mismatch,
        "outer_min_slack": comp.outer_min_slack,
        "inner_min_slack": comp.inner_min_slack,
        "spacelike": comp.spacelike,
        "crosses_line": comp.crosses_line,
    }
    _dump(report, args.out)
    return 0 if comp.spacelike else 1


def _cmd_extend_adjoin(args):
    try:
        full = adjoin_btz(args.chart)
    except NotBTZExtendableError as err:
        _dump({"command": "extend adjoin", "error": str(err)}, args.out)
        return 1
    report = {"command": "extend adjoin", "chart": _chart_to_dict(full)}
    _dump(report, args.out)
    return 0


def _cmd_extend_remove(args):
    try:
        stripped, surface = remove_btz(args.chart, args.boundary)
    except ValueError as err:
        _dump({"command": "extend remove", "error": str(err)}, args.out)
        return 1
    if args.surface_out:
        _surface_to_file(surface, args.surface_out, n_r=args.grid or 128)
    report = {
        "command": "extend remove",
        "chart": _chart_to_dict(stripped),
        "surface_slope": surface.params["slope"],
        "surface_out": str(args.surface_out) if args.surface_out else None,
    }
    _dump(report, args.out)
    return 0


def _cmd_extend_chain(args):
    chain = mixed_extension_chain()
    cited = {
        "(-1, 0, 0)": chain_membership((-1.0, 0.0, 0.0)),
        "(-1, 1, 0)": chain_membership((-1.0, 1.0, 0.0)),
        "(1, 1, 0)": chain_membership((1.0, 1.0, 0.0)),
    }
    expected = {
        "(-1, 0, 0)": [False, False, True, True],
        "(-1, 1, 0)": [True, True, True, True],
        "(1, 1, 0)": [False, False, False, True],
    }
    failures = sample_chain_monotone(args.n, seed=args.seed)
    cited_ok = all(list(cited[k]) == expected[k] for k in cited)
    report = {
        "command": "extend example-chain",
        "stages": [s.name for s in chain],
        "cited_points": {k: list(v) for k, v in cited.items()},
        "cited_ok": cited_ok,
        "n_sampled": args.n,
        "monotonicity_failures": failures,
        "status": "pass" if cited_ok and failures == 0 else "fail",
    }
    _dump(report, args.out)
    return 0 if report["status"] == "pass" else 1


def _cmd_modular_build(args):
    complex_ = build_complex()
    gens = psl2z_generators()
    report = {
        "command": "modular build",
        "generators": {k: g.linear.tolist() for k, g in gens.items()},
        "relation_residuals": representation_checks(),
        "triangles": [
            {
                "label": t.label,
                "corners": list(t.names),
                "vertices": t.vertices.tolist(),
                "ideal": list(t.ideal),
            }
            for t in complex_.triangles
        ],
        "pairings": [
            {"word": p.word, "src": [p.src[0], list(p.src[1])],
             "dst": [p.dst[0], list(p.dst[1])]}
            for p in complex_.pairings
        ],
        "edges": [
            {
                "label": e.label,
                "kind": e.kind,
                "cone_angle": e.cone_angle,
                "holonomy_word": e.holonomy_word,
                "holonomy": e.holonomy.linear.tolist(),
                "classification": classify_isometry(e.holonomy),
            }
            for e in complex_.edge_classes
        ],
    }
    _dump(report, args.out)
    return 0


def _cmd_modular_surface(args):
    slice_ = polyhedral_cauchy_surface(args.t0)
    v, e, f, chi = slice_.euler
    angle_sum = float(sum(slice_.cone_angles.values()))
    report = {
        "command": "modular surface",
        "t0": slice_.t0,
        "triangles": {
            label: {
                "corners": list(names),
                "coords": slice_.coords[i].tolist(),
            }
            for i, (label, names) in enumerate(
                zip(slice_.labels, slice_.corner_names)
            )
        },
        "cone_angles": slice_.cone_angles,
        "cone_angle_sum": angle_sum,
        "euler": {"V": v, "E": e, "F": f, "chi": chi},
        "angle_sum_ok": abs(angle_sum - TWO_PI) <= 1.0e-6,
    }
    if args.csv:
        rows = []
        for i, label in enumerate(slice_.labels):
            for j, name in enumerate(slice_.corner_names[i]):
                x, y = slice_.coords[i, j]
                rows.append([label, name, f"{x:.17g}", f"{y:.17g}"])
        _write_csv(args.csv, "face,corner,x,y", rows)
    _dump(report, args.out)
    return 0 if report["angle_sum_ok"] else 1


def _cmd_modular_rays(args):
    slice_ = polyhedral_cauchy_surface(args.t0)
    rays = sample_interior_rays(slice_, args.n, seed=args.seed)
    counts = np.array([ray_intersection_count(slice_, d) for d in rays])
    hits_once = int(np.count_nonzero(counts == 1))
    report = {
        "command": "modular rays",
        "t0": args.t0,
        "n": args.n,
        "seed": args.seed,
        "hits_once": hits_once,
        "status": "pass" if hits_once == args.n else "fail",
    }
    _dump(report, args.out)
    return 0 if hits_once == args.n else 1


def _cmd_conefield(args):
    radii = np.geomspace(args.r_min, args.r_max, args.n_radii)
    psi = np.linspace(0.0, TWO_PI, args.n_dirs, endpoint=False)
    rows = []
    max_vtheta = []
    for r in radii:
        if args.alpha == 0.0:
            v_r = 1.0 + np.cos(psi)
            v_th = np.sin(psi) / r
        else:
            a = args.alpha / TWO_PI
            v_r = np.cos(psi)
            v_th = np.sin(psi) / (a * r)
        max_vtheta.append(float(np.max(np.abs(v_th))))
        for p, vr, vt in zip(psi, v_r, v_th):
            rows.append(
                [f"{r:.17g}", f"{p:.17g}", "1", f"{vr:.17g}", f"{vt:.17g}", "regular"]
            )
    if args.alpha == 0.0:
        line_dirs = [("line-tangent", 0.0), ("line-exit", 2.0)]
        note = (
            "null cones tilt toward +r with angular width ~ 1/r; on the line "
            "only the tangent direction and exit directions with "
            "0 <= v_r <= 2 v_t remain"
        )
    else:
        line_dirs = [("line-cone", -1.0), ("line-cone", 1.0)]
        note = (
            "cone width in v_theta grows like 1/r toward the axis while the "
            "on-line cone is the ordinary round cone of the singular line"
        )
    for kind, vr in line_dirs:
        rows.append(["0", "nan", "1", f"{vr:.17g}", "0", kind])
    if args.out:
        _write_csv(args.out, "r,psi,v_t,v_r,v_theta,kind", rows)
    report = {
        "command": "conefield",
        "alpha": args.alpha,
        "radii": [float(r) for r in radii],
        "max_abs_v_theta": max_vtheta,
        "on_line_v_theta": 0.0,
        "note": note,
        "rows": len(rows),
        "out": str(args.out) if args.out else None,
    }
    _dump(report, None)
    return 0


# =========================================================================
# Parser
# =========================================================================


def _add_common(p, seed=0):
    p.add_argument("--seed", type=int, default=seed, help="RNG seed")
    p.add_argument("--tol", type=_finite_float, default=None, help="tolerance override")
    p.add_argument("--out", type=Path, default=None, help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btzgeo",
        description="Verification and sampling tools for flat singular spacetimes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument(
        "--suite", default="all", choices=["all", *SUITES], help="suite to run"
    )
    _add_common(p, seed=7)
    p.add_argument("--no-timing", action="store_true", help="omit timings")
    p.set_defaults(func=_cmd_verify)

    causal = sub.add_parser("causal", help="causal structure tools")
    csub = causal.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("check", help="validate a sampled curve")
    p.add_argument("--curve", type=Path, required=True, help="CSV of (t, r, theta)")
    p.add_argument("--alpha", type=_finite_float, default=0.0, help="cone angle")
    p.add_argument("--tol", type=_finite_float, default=1.0e-9)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_causal_check)
    p = csub.add_parser("jplus", help="relation of a target to J+(point)")
    p.add_argument("--point", type=_finite_float, nargs=3, required=True, metavar=("T", "R", "TH"))
    p.add_argument("--target", type=_finite_float, nargs=3, required=True, metavar=("T", "R", "TH"))
    p.add_argument("--tol", type=_finite_float, default=1.0e-9)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_causal_jplus)
    p = csub.add_parser("volumetime", help="volume time at a point")
    p.add_argument("--point", type=_finite_float, nargs=3, required=True, metavar=("T", "R", "TH"))
    p.add_argument("--radius", type=_finite_float, default=1.0)
    p.add_argument("--t-min", type=_finite_float, default=0.0)
    p.add_argument("--t-max", type=_finite_float, default=2.0)
    p.add_argument("--n", type=_positive_int, default=100_000)
    p.add_argument("--weight3", type=_finite_float, default=1.0)
    p.add_argument("--weight1", type=_finite_float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_causal_volumetime)

    dev = sub.add_parser("develop", help="developing map tools")
    dsub = dev.add_subparsers(dest="subcommand", required=True)
    p = dsub.add_parser("sample", help="CSV point cloud (tau, r, theta, t, x, y)")
    p.add_argument("--alpha", type=_finite_float, default=0.0)
    p.add_argument("--n", type=_positive_int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r-max", type=_finite_float, default=1.0)
    p.add_argument("--t-span", type=_finite_float, default=1.0)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_develop_sample)
    p = dsub.add_parser("holonomy", help="holonomy generator report")
    p.add_argument("--alpha", type=_finite_float, default=0.0)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_develop_holonomy)

    surf = sub.add_parser("surface", help="spacelike surface tools")
    ssub = surf.add_subparsers(dest="subcommand", required=True)
    p = ssub.add_parser("check", help="spacelike slack of a surface file")
    p.add_argument("--surface", type=_surface_file, required=True)
    p.add_argument("--grid", type=_positive_int, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_surface_check)
    p = ssub.add_parser("extend", help="complete-end surgery from a boundary file")
    p.add_argument("--boundary", type=_boundary_file, default=_FLAT_BOUNDARY)
    p.add_argument("--R", type=_finite_float, default=1.0)
    p.add_argument("--grid", type=_positive_int, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_surface_extend)
    p = ssub.add_parser("cap", help="compact cap surgery from a boundary file")
    p.add_argument("--boundary", type=_boundary_file, default=_FLAT_BOUNDARY)
    p.add_argument("--R", type=_finite_float, default=1.0)
    p.add_argument("--grid", type=_positive_int, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_surface_cap)
    p = ssub.add_parser("assemble", help="glue an outer ring to an inner disc")
    p.add_argument("--outer", type=_surface_file, required=True)
    p.add_argument("--inner", type=_surface_file, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_surface_assemble)

    ext = sub.add_parser("extend", help="tube chart surgery")
    esub = ext.add_subparsers(dest="subcommand", required=True)
    p = esub.add_parser("adjoin", help="complete a punctured extremal chart")
    p.add_argument("--chart", type=_chart_file, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_extend_adjoin)
    p = esub.add_parser("remove", help="strip the line, return a complete surface")
    p.add_argument("--chart", type=_chart_file, required=True)
    p.add_argument("--boundary", type=_boundary_file, default=None)
    p.add_argument("--grid", type=_positive_int, default=None)
    p.add_argument("--surface-out", type=Path, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_extend_remove)
    p = esub.add_parser("example-chain", help="nested extension chain report")
    p.add_argument("--n", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_extend_chain)

    mod = sub.add_parser("modular", help="modular group example")
    msub = mod.add_subparsers(dest="subcommand", required=True)
    p = msub.add_parser("build", help="complex description JSON")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_modular_build)
    p = msub.add_parser("surface", help="polyhedral Cauchy slice")
    p.add_argument("--t0", type=_finite_float, default=1.0)
    p.add_argument("--csv", type=Path, default=None, help="triangle soup CSV")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_modular_surface)
    p = msub.add_parser("rays", help="ray intersection counts")
    p.add_argument("--n", type=_positive_int, default=1000)
    p.add_argument("--t0", type=_finite_float, default=1.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_modular_rays)

    p = sub.add_parser("conefield", help="future cone samples near a singular line")
    p.add_argument("--alpha", type=_finite_float, default=0.0)
    p.add_argument("--r-min", type=_finite_float, default=1.0e-3)
    p.add_argument("--r-max", type=_finite_float, default=1.0)
    p.add_argument("--n-radii", type=_positive_int, default=7)
    p.add_argument("--n-dirs", type=_positive_int, default=32)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_conefield)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
