"""Command line interface.

Subcommands: ``verify`` (run the check suites), ``causal`` (curve
validation, causal relation queries, volume time), ``develop`` (developing
map point clouds, holonomy report), ``surface`` (spacelike checks and the
two boundary surgeries), ``extend`` (tube chart surgery and the extension
chain), ``modular`` (the modular-group example) and ``conefield`` (samples
of the future light cones near a singular line).

Reports are JSON, first key ``"command"``, on stdout or in ``--out``; for
``develop sample``, ``surface extend``, ``surface cap`` and ``conefield``
``--out`` names the data file (CSV or surface JSON) instead.  Handlers
return ``(report, passed)``; :func:`main` alone writes reports and turns a
domain error (``GeometryError``, ``ValueError``, or ``ArithmeticError``: numpy
raises on overflow, invalid or divide-by-zero operations of an extreme but
finite input, and warns on none) into
``{"command", "error": {"type", "message", ...}}``.  JSON is strict: a
report or surface file that would hold a NaN or infinity is such a
``ValueError``.
Exit code 0 means every selected check passed, 1 a failed check or a domain
error, 2 a usage error (bad option value, unreadable or malformed input
file, missing output directory).  With ``--no-timing`` the ``verify``
report is byte-for-byte reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import math
import re
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
from .errors import GeometryError
from .extensions import (
    CHAIN_STAGES,
    CITED_CHAIN_POINTS,
    TubeChart,
    adjoin_btz,
    chain_membership,
    remove_btz,
    sample_chain_monotone,
)
from .lorentz import LorentzIsometry, classify_isometry
from .models import TWO_PI, TubeRegion, chart_form
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


def _write(text, path=None):
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _json(report):
    """Strict JSON: a NaN or infinity raises ``ValueError`` instead of being
    written as the non-standard ``NaN``/``Infinity``."""
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _write_csv(path, header, rows):
    lines = [header] + [",".join(str(c) for c in row) for row in rows]
    _write("\n".join(lines) + "\n", path)


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


def _grid_size(text):
    """A surface file's nodes per axis: ``from_grid``'s radial derivative needs 3."""
    value = _positive_int(text)
    if value < 3:
        raise argparse.ArgumentTypeError(f"a surface file needs at least 3 nodes, got {text!r}")
    return value


def _out_path(text):
    path = Path(text)
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"no such directory: {str(path.parent)!r}")
    return path


def _file_type(load):
    """Argument type that returns ``load(path)``.

    A missing or unreadable file, malformed content, a non-finite number, or
    data that the builder rejects all become usage errors.
    """

    def parse(path):
        try:
            return load(path)
        except (
            argparse.ArgumentTypeError, OSError, ArithmeticError,
            AttributeError, LookupError, TypeError, ValueError, GeometryError,
        ) as err:
            raise argparse.ArgumentTypeError(f"cannot load {path}: {err}") from None

    return parse


def _json_file(build):
    """Argument type that reads a JSON file and returns ``build(data)``."""
    return _file_type(lambda path: build(json.loads(
        Path(path).read_text(),
        parse_float=_finite_float,
        parse_constant=_finite_float,
    )))


# =========================================================================
# File formats
# =========================================================================


def _boundary_from_data(data):
    """Boundary file: {"constant": c, "cos": [a1, ...], "sin": [b1, ...]}."""
    return BoundaryCurve.from_trig(
        data.get("constant", 0.0), data.get("cos", ()), data.get("sin", ())
    )


def _surface_to_file(surface, path, n_r=128, n_theta=128):
    """Sample a surface to JSON: header fields plus (r, theta, tau) rows.

    Radii are geometric from radius * 1e-4 on a punctured surface and uniform
    from r_inner otherwise, so a disc is written from r = 0 and reloads as one.
    """
    if surface.punctured:
        rs = np.geomspace(surface.radius * 1.0e-4, surface.radius, n_r)
    else:
        rs = np.linspace(surface.r_inner, surface.radius, n_r)
    ths = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    tau = np.broadcast_to(
        surface.tau(rs[:, None], ths[None, :]), (n_r, n_theta)
    )
    grid = np.column_stack([np.repeat(rs, n_theta), np.tile(ths, n_r), tau.ravel()])
    payload = {
        "R": surface.radius,
        "punctured": surface.punctured,
        "alpha": surface.alpha,
        "kind": "grid",
        "params": surface.params,
        "grid_shape": [n_r, n_theta],
        "grid": grid.tolist(),
    }
    _write(_json(payload), path)


def _surface_from_data(data) -> GraphSurface:
    n_r, n_theta = data["grid_shape"]
    rows = np.asarray(data["grid"], dtype=float).reshape(n_r, n_theta, 3)
    rs, ths = rows[:, :1, 0], rows[:1, :, 1]
    if np.any(rows[:, :, 0] != rs) or np.any(rows[:, :, 1] != ths):
        raise ValueError("grid rows are not the tensor grid of their r and theta")
    return GraphSurface.from_grid(
        data["alpha"],
        rs[:, 0],
        ths[0],
        rows[:, :, 2],
        punctured=data["punctured"],
        params=data.get("params"),
    )


def _chart_to_dict(chart: TubeChart) -> dict:
    """Chart file: the TubeChart fields, with the holonomy as a 3x3 matrix."""
    return {**vars(chart), "holonomy": chart.holonomy.linear.tolist()}


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
_curve_file = _file_type(
    lambda path: np.atleast_2d(np.loadtxt(path, delimiter=",", comments="#"))
)
_FLAT_BOUNDARY = BoundaryCurve.from_trig()


# =========================================================================
# Handlers: each returns (report body, passed), or (None, passed) when its
# only output is a data file
# =========================================================================


def _cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, args.seed)
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
    return report, failed == 0


def _cmd_causal_check(args):
    kind, first_bad = validate_causal(args.alpha, args.curve, tol=args.tol)
    report = {
        "alpha": args.alpha,
        "n_samples": int(args.curve.shape[0]),
        "kind": kind,
        "first_violation": first_bad if first_bad >= 0 else None,
    }
    return report, kind != "violation"


def _cmd_causal_jplus(args):
    relation = btz_causal_future(tuple(args.point), tuple(args.target), tol=args.tol)
    report = {
        "point": list(args.point),
        "target": list(args.target),
        "relation": relation,
    }
    return report, True


def _cmd_causal_volumetime(args):
    region = TubeRegion(0.0, args.radius, args.t_min, args.t_max)
    config = MeasureConfig(
        weight3=args.weight3, weight1=args.weight1, n_samples=args.n
    )
    res = volume_time_report(region, tuple(args.point), config, seed=args.seed)
    report = {
        "point": list(args.point),
        "radius": args.radius,
        "t_interval": [args.t_min, args.t_max],
        "weights": [args.weight3, args.weight1],
        "n_samples": args.n,
        "seed": args.seed,
        "value": res.value,
        "stderr": res.stderr,
        "past_volume": res.past_volume,
        "future_volume": res.future_volume,
    }
    return report, True


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
        args.data_out, "tau,r,theta,t,x,y", [[f"{v:.17g}" for v in row] for row in rows]
    )
    return None, True


def _cmd_develop_holonomy(args):
    return developing_report(args.alpha), True


def _cmd_surface_check(args):
    surface = args.surface
    n = args.grid or 256
    min_delta, min_r2delta = min_spacelike_slack(surface, n_r=n, n_theta=n)
    report = {
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
    return report, report["spacelike"]


def _cmd_surface_extend(args):
    surface = extend_boundary_complete(args.boundary, args.R)
    n = args.grid or 128
    _, min_r2delta = min_spacelike_slack(surface, n_r=256, n_theta=256)
    if args.data_out:
        _surface_to_file(surface, args.data_out, n_r=n, n_theta=n)
    report = {
        "R": args.R,
        "slope": surface.params["slope"],
        "min_r2_delta": min_r2delta,
        "certified": min_r2delta > 1.0,
        "out": str(args.data_out) if args.data_out else None,
    }
    return report, report["certified"]


def _cmd_surface_cap(args):
    surface = extend_boundary_cap(args.boundary, args.R)
    if args.data_out:
        n = args.grid or 128
        _surface_to_file(surface, args.data_out, n_r=n, n_theta=n)
    report = {
        "R": args.R,
        "cap_constant": surface.params["cap_constant"],
        "certified_min_delta": surface.params["certified_min_delta"],
        "out": str(args.data_out) if args.data_out else None,
    }
    return report, True


def _cmd_surface_assemble(args):
    comp = assemble_cauchy(args.outer, args.inner)
    report = {
        "interface_radius": comp.interface_radius,
        "max_mismatch": comp.max_mismatch,
        "outer_min_slack": comp.outer_min_slack,
        "inner_min_slack": comp.inner_min_slack,
        "spacelike": comp.spacelike,
        "crosses_line": comp.crosses_line,
    }
    return report, comp.spacelike


def _cmd_extend_adjoin(args):
    return {"chart": _chart_to_dict(adjoin_btz(args.chart))}, True


def _cmd_extend_remove(args):
    stripped, surface = remove_btz(args.chart, args.boundary)
    if args.surface_out:
        n = args.grid or 128
        _surface_to_file(surface, args.surface_out, n_r=n, n_theta=n)
    report = {
        "chart": _chart_to_dict(stripped),
        "surface_slope": surface.params["slope"],
        "surface_out": str(args.surface_out) if args.surface_out else None,
    }
    return report, True


def _cmd_extend_chain(args):
    cited = {p: chain_membership(p) for p in CITED_CHAIN_POINTS}
    cited_ok = all(tuple(cited[p]) == want for p, want in CITED_CHAIN_POINTS.items())
    failures = sample_chain_monotone(args.n, seed=args.seed)
    passed = cited_ok and failures == 0
    report = {
        "stages": list(CHAIN_STAGES),
        "cited_points": {
            "(" + ", ".join(f"{v:g}" for v in p) + ")": m for p, m in cited.items()
        },
        "cited_ok": cited_ok,
        "n_sampled": args.n,
        "monotonicity_failures": failures,
        "status": "pass" if passed else "fail",
    }
    return report, passed


def _cmd_modular_build(args):
    complex_ = build_complex()
    gens = psl2z_generators()
    report = {
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
    return report, True


def _cmd_modular_surface(args):
    slice_ = polyhedral_cauchy_surface(args.t0)
    v, e, f, chi = slice_.euler
    angle_sum = float(sum(slice_.cone_angles.values()))
    report = {
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
    return report, report["angle_sum_ok"]


def _cmd_modular_rays(args):
    slice_ = polyhedral_cauchy_surface(args.t0)
    rays = sample_interior_rays(slice_, args.n, seed=args.seed)
    counts = ray_intersection_count(slice_, rays)
    hits_once = int(np.count_nonzero(counts == 1))
    report = {
        "t0": args.t0,
        "n": args.n,
        "seed": args.seed,
        "hits_once": hits_once,
        "status": "pass" if hits_once == args.n else "fail",
    }
    return report, hits_once == args.n


def _cmd_conefield(args):
    c_tt, c_tr, s = chart_form(args.alpha)
    if min(args.r_min, args.r_max) <= 0.0:
        raise ValueError("radii must be positive")
    # at v_t = 1 the null directions form the circle
    # (v_r - centre)^2 + (s r v_theta)^2 = rho^2 of the chart form
    centre, rho = -0.5 * c_tr, math.sqrt(0.25 * c_tr**2 - c_tt)
    radii = np.geomspace(args.r_min, args.r_max, args.n_radii)
    psi = np.linspace(0.0, TWO_PI, args.n_dirs, endpoint=False)
    v_r = centre + rho * np.cos(psi)
    rows = []
    max_vtheta = []
    for r in radii:
        v_th = rho * np.sin(psi) / (s * r)
        max_vtheta.append(float(np.max(np.abs(v_th))))
        for p, vr, vt in zip(psi, v_r, v_th):
            rows.append(
                [f"{r:.17g}", f"{p:.17g}", "1", f"{vr:.17g}", f"{vt:.17g}", "regular"]
            )
    # on the line only the circle's two ends along v_theta = 0 remain
    if c_tt == 0.0:
        line_dirs = [("line-tangent", centre - rho), ("line-exit", centre + rho)]
        note = (
            "null cones tilt toward +r with angular width ~ 1/r; on the line "
            "only the tangent direction and exit directions with "
            "0 <= v_r <= 2 v_t remain"
        )
    else:
        line_dirs = [("line-cone", centre - rho), ("line-cone", centre + rho)]
        note = (
            "cone width in v_theta grows like 1/r toward the axis while the "
            "on-line cone is the ordinary round cone of the singular line"
        )
    for kind, vr in line_dirs:
        rows.append(["0", "nan", "1", f"{vr:.17g}", "0", kind])
    if args.data_out:
        _write_csv(args.data_out, "r,psi,v_t,v_r,v_theta,kind", rows)
    report = {
        "alpha": args.alpha,
        "radii": [float(r) for r in radii],
        "max_abs_v_theta": max_vtheta,
        "on_line_v_theta": 0.0,
        "note": note,
        "rows": len(rows),
        "out": str(args.data_out) if args.data_out else None,
    }
    return report, True


# =========================================================================
# Parser
# =========================================================================


def _command(sub, name, func, help, out="report"):
    """Add subcommand ``name`` run by ``func``, with its ``--out`` option.

    ``--out`` names the report file (default stdout).  With ``out="data"``
    it names the command's data file instead, stored as ``args.data_out``,
    and the report goes to stdout.
    """
    p = sub.add_parser(name, help=help)
    if out == "data":
        p.add_argument("--out", dest="data_out", type=_out_path, default=None,
                       metavar="OUT", help="data file (CSV or surface JSON; default stdout)")
    else:
        p.add_argument("--out", type=_out_path, default=None,
                       help="report file (default stdout)")
    p.set_defaults(func=func, out=None)
    return p


def _point(p, name):
    p.add_argument(name, type=_finite_float, nargs=3, required=True, metavar=("T", "R", "TH"))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Python 3.11 takes "-1e-5" for an option; read it as a number, as later Pythons do
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="btzgeo",
        description="Verification and sampling tools for flat singular spacetimes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "verify", _cmd_verify, "run verification suites")
    p.add_argument(
        "--suite", default="all", choices=["all", *SUITES], help="suite to run"
    )
    p.add_argument("--seed", type=int, default=7, help="RNG seed")
    p.add_argument("--no-timing", action="store_true", help="omit timings")

    causal = sub.add_parser("causal", help="causal structure tools")
    csub = causal.add_subparsers(dest="subcommand", required=True)
    p = _command(csub, "check", _cmd_causal_check, "validate a sampled curve")
    p.add_argument("--curve", type=_curve_file, required=True, help="CSV of (t, r, theta)")
    p.add_argument("--alpha", type=_finite_float, default=0.0, help="cone angle")
    p.add_argument("--tol", type=_finite_float, default=1.0e-9)
    p = _command(csub, "jplus", _cmd_causal_jplus, "relation of a target to J+(point)")
    _point(p, "--point")
    _point(p, "--target")
    p.add_argument("--tol", type=_finite_float, default=1.0e-9)
    p = _command(csub, "volumetime", _cmd_causal_volumetime, "volume time at a point")
    _point(p, "--point")
    p.add_argument("--radius", type=_finite_float, default=1.0)
    p.add_argument("--t-min", type=_finite_float, default=0.0)
    p.add_argument("--t-max", type=_finite_float, default=2.0)
    p.add_argument("--n", type=_positive_int, default=100_000)
    p.add_argument("--weight3", type=_finite_float, default=1.0)
    p.add_argument("--weight1", type=_finite_float, default=1.0)
    p.add_argument("--seed", type=int, default=0)

    dev = sub.add_parser("develop", help="developing map tools")
    dsub = dev.add_subparsers(dest="subcommand", required=True)
    p = _command(dsub, "sample", _cmd_develop_sample,
                 "CSV point cloud (tau, r, theta, t, x, y)", out="data")
    p.add_argument("--alpha", type=_finite_float, default=0.0)
    p.add_argument("--n", type=_positive_int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r-max", type=_finite_float, default=1.0)
    p.add_argument("--t-span", type=_finite_float, default=1.0)
    p = _command(dsub, "holonomy", _cmd_develop_holonomy, "holonomy generator report")
    p.add_argument("--alpha", type=_finite_float, default=0.0)

    surf = sub.add_parser("surface", help="spacelike surface tools")
    ssub = surf.add_subparsers(dest="subcommand", required=True)
    p = _command(ssub, "check", _cmd_surface_check, "spacelike slack of a surface file")
    p.add_argument("--surface", type=_surface_file, required=True)
    p.add_argument("--grid", type=_positive_int, default=None)
    for name, func, help in (
        ("extend", _cmd_surface_extend, "complete-end surgery from a boundary file"),
        ("cap", _cmd_surface_cap, "compact cap surgery from a boundary file"),
    ):
        p = _command(ssub, name, func, help, out="data")
        p.add_argument("--boundary", type=_boundary_file, default=_FLAT_BOUNDARY)
        p.add_argument("--R", type=_finite_float, default=1.0)
        p.add_argument("--grid", type=_grid_size, default=None)
    p = _command(ssub, "assemble", _cmd_surface_assemble, "glue an outer ring to an inner disc")
    p.add_argument("--outer", type=_surface_file, required=True)
    p.add_argument("--inner", type=_surface_file, required=True)

    ext = sub.add_parser("extend", help="tube chart surgery")
    esub = ext.add_subparsers(dest="subcommand", required=True)
    p = _command(esub, "adjoin", _cmd_extend_adjoin, "complete a punctured extremal chart")
    p.add_argument("--chart", type=_chart_file, required=True)
    p = _command(esub, "remove", _cmd_extend_remove,
                 "strip the line, return a complete surface")
    p.add_argument("--chart", type=_chart_file, required=True)
    p.add_argument("--boundary", type=_boundary_file, default=None)
    p.add_argument("--grid", type=_grid_size, default=None)
    p.add_argument("--surface-out", type=_out_path, default=None)
    p = _command(esub, "example-chain", _cmd_extend_chain, "nested extension chain report")
    p.add_argument("--n", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=7)

    mod = sub.add_parser("modular", help="modular group example")
    msub = mod.add_subparsers(dest="subcommand", required=True)
    _command(msub, "build", _cmd_modular_build, "complex description JSON")
    p = _command(msub, "surface", _cmd_modular_surface, "polyhedral Cauchy slice")
    p.add_argument("--t0", type=_finite_float, default=1.0)
    p.add_argument("--csv", type=_out_path, default=None, help="triangle soup CSV")
    p = _command(msub, "rays", _cmd_modular_rays, "ray intersection counts")
    p.add_argument("--n", type=_positive_int, default=1000)
    p.add_argument("--t0", type=_finite_float, default=1.0)
    p.add_argument("--seed", type=int, default=7)

    p = _command(sub, "conefield", _cmd_conefield,
                 "future cone samples near a singular line", out="data")
    p.add_argument("--alpha", type=_finite_float, default=0.0)
    p.add_argument("--r-min", type=_finite_float, default=1.0e-3)
    p.add_argument("--r-max", type=_finite_float, default=1.0)
    p.add_argument("--n-radii", type=_positive_int, default=7)
    p.add_argument("--n-dirs", type=_positive_int, default=32)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            body, passed = args.func(args)
        text = None if body is None else _json({"command": command, **body})
    except (GeometryError, ValueError, ArithmeticError) as err:
        error = {"type": type(err).__name__, "message": str(err), **vars(err)}
        text, passed = _json({"command": command, "error": error}), False
    if text is not None:
        _write(text, args.out)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
