"""The shared chart form of both model families and its consumers.

The digests pin, bit for bit, what the metric, tangent, secant and slack
code returned on fixed seeded inputs before the models were joined behind
:func:`btzgeo.models.chart_form`; exact nulls and line segments are included
on purpose, since they sit on the tolerance fences.
"""

import csv
import hashlib
import math

import numpy as np
import pytest

from btzgeo import cli
from btzgeo.causal import _segment_codes, sample_causal_curves, tangent_class
from btzgeo.lorentz import classify_vector
from btzgeo.models import TWO_PI, TubeRegion, chart_form, metric_at, omega_metric_at
from btzgeo.surfaces import (
    BoundaryCurve,
    GraphSurface,
    delta_field,
    extend_boundary_cap,
    extend_boundary_complete,
    hyperbolic_plane_surface,
    induced_metric,
    min_spacelike_slack,
)

ANGLES = (0.0, 0.5, math.pi / 3, math.pi, 5.0, TWO_PI)
TOL = 1.0e-9


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            a = np.ascontiguousarray(part)
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


# -- seeded inputs ----------------------------------------------------------


def metric_radii():
    rng = np.random.default_rng(101)
    return np.concatenate([rng.uniform(1.0e-3, 5.0, 61), [1.0e-300, 1.0, 1.0e150]])


def tangent_inputs(alpha):
    """(r, v) pairs: random vectors, exact nulls, cone directions and their
    perturbations across the tolerance fence, and zero vectors."""
    rng = np.random.default_rng(202)
    c_tt, c_tr, s = (0.0, -2.0, 1.0) if alpha == 0.0 else (-1.0, 0.0, alpha / TWO_PI)
    out = []
    for r in np.concatenate([rng.uniform(0.01, 4.0, 12), [1.0, 0.5]]):
        for v in rng.normal(size=(60, 3)) * 10.0 ** rng.uniform(-3, 3, (60, 1)):
            out.append((r, v))
        psi = np.linspace(0.0, TWO_PI, 32, endpoint=False)
        rho = math.sqrt(0.25 * c_tr**2 - c_tt)
        v_r = -0.5 * c_tr + rho * np.cos(psi)
        cone = np.stack([np.ones_like(psi), v_r, rho * np.sin(psi) / (s * r)], axis=1)
        for v in np.concatenate([cone, -cone, 3.0 * cone]):
            out.append((r, v))
        for v in cone:
            for eps in (1e-12, 5e-10, 2e-9):
                out.append((r, v + eps * rng.normal(size=3)))
        exact = [(1.0, 0.0, 0.0), (1.0, 2.0, 0.0), (2.0, 4.0, 0.0), (-1.0, -2.0, 0.0),
                 (1.0, 1.0, 0.0), (1.0, -1.0, 0.0), (-1.0, 1.0, 0.0), (0.0, 0.0, 0.0),
                 (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, -0.0, 0.0)]
        out.extend((r, np.array(v)) for v in exact)
    return out


def segment_inputs():
    """(m, n, 3) stacks: sampled causal curves, noisy copies, random segments
    with ends on the line, and exits at dt = r / 2 in both directions."""
    region = TubeRegion(0.0, 1.0, 0.0, 2.0)
    rng = np.random.default_rng(303)
    stacks = []
    for seed in range(20):
        curves = sample_causal_curves(region, 12, seed=seed)
        stacks.append(curves)
        noisy = curves + 1.0e-3 * rng.normal(size=curves.shape)
        noisy[..., 1] = np.where(curves[..., 1] == 0.0, 0.0, np.abs(noisy[..., 1]))
        stacks.append(noisy)
    m = 400
    seg = np.empty((m, 2, 3))
    seg[:, 0, 0] = rng.uniform(-1.0, 1.0, m)
    seg[:, 1, 0] = seg[:, 0, 0] + rng.uniform(-0.5, 1.5, m)
    seg[:, :, 1] = rng.uniform(0.0, 1.0, (m, 2))
    seg[:, :, 2] = rng.uniform(-4.0, 4.0, (m, 2))
    kind = rng.integers(0, 4, m)
    seg[kind == 1, 0, 1] = 0.0
    seg[kind == 2, 1, 1] = 0.0
    seg[kind == 3, :, 1] = 0.0
    stacks.append(seg)
    r = rng.uniform(0.01, 2.0, 200)
    exits = np.zeros((200, 2, 3))
    exits[:, 1, 0] = 0.5 * r
    exits[:, 1, 1] = r
    exits[:, 1, 2] = rng.uniform(0.0, TWO_PI, 200)
    stacks.append(exits)
    stacks.append(exits[:, ::-1] * np.array([-1.0, 1.0, 1.0]))
    return stacks


def surface_inputs():
    """Extremal surfaces from the surgeries and massive height fields, among
    them fields with f_r = 0 or f_theta = 0 exactly."""
    rng = np.random.default_rng(404)
    out = [hyperbolic_plane_surface(1.0)]
    for _ in range(3):
        b = BoundaryCurve.from_trig(
            rng.normal(), rng.normal(size=4) * 0.3, rng.normal(size=4) * 0.3
        )
        out.append(extend_boundary_complete(b, 1.0))
    out.append(extend_boundary_cap(b, 1.0))
    for alpha in ANGLES:
        c = rng.normal(size=4) * 0.3
        out.append(GraphSurface.from_functions(
            alpha, 1.0,
            lambda r, th, c=c: c[0] * r**2 + c[1] * r * np.sin(2.0 * th) + c[2],
            lambda r, th, c=c: 2.0 * c[0] * r + c[1] * np.sin(2.0 * th),
            lambda r, th, c=c: 2.0 * c[1] * r * np.cos(2.0 * th),
        ))
        out.append(GraphSurface.from_functions(
            alpha, 1.0,
            lambda r, th, c=c: c[3] * np.cos(th),
            lambda r, th: np.zeros(np.broadcast_shapes(np.shape(r), np.shape(th))),
            lambda r, th, c=c: -c[3] * np.sin(th) + 0.0 * r,
        ))
        out.append(GraphSurface.from_functions(
            alpha, 1.0,
            lambda r, th, c=c: c[3] * r,
            lambda r, th, c=c: np.full(np.shape(r), c[3]),
            lambda r, th: np.zeros(np.broadcast_shapes(np.shape(r), np.shape(th))),
        ))
    return out


# -- digests ----------------------------------------------------------------


def metric_digest():
    r = metric_radii()
    parts = []
    for alpha in ANGLES:
        parts += [metric_at(alpha, r), metric_at(alpha, r[:64].reshape(8, 8)),
                  metric_at(alpha, 2.0)]
    for omega in (-1.0, -0.25, 0.0, 0.5, math.sqrt(0.5), 1.0):
        parts += [omega_metric_at(omega, np.concatenate([[0.0], r])),
                  omega_metric_at(omega, 0.0)]
    return _digest(*parts)


def tangent_digest():
    labels = [
        tangent_class(alpha, r, v) for alpha in ANGLES for r, v in tangent_inputs(alpha)
    ]
    return _digest("\n".join(labels))


def segment_digest():
    return _digest(*(
        _segment_codes(alpha, pts, TOL) for alpha in ANGLES for pts in segment_inputs()
    ))


def surface_digest():
    rr = np.geomspace(1.0e-3, 1.0, 17)[:, None]
    tt = np.linspace(0.0, TWO_PI, 16, endpoint=False)[None, :]
    pts = np.random.default_rng(505).uniform([0.01, -7.0], [1.0, 7.0], (50, 2))
    parts = []
    for surf in surface_inputs():
        slack = delta_field(surf)
        parts += [
            slack(rr, tt), slack(pts[:, 0], pts[:, 1]), np.asarray(slack(0.5, 1.0)),
            induced_metric(surf, rr, tt), induced_metric(surf, pts[:, 0], pts[:, 1]),
            np.array(min_spacelike_slack(surf, n_r=32, n_theta=32)),
        ]
    return _digest(*parts)


DIGESTS = {
    "metric": "760684249e08c0d4aef26670c0740eba06d2e48241094528965eef5e6e54075e",
    "tangent": "59e8af35e9f8fdf3b84ddb0bf4bd47d78d36a2e43cea5f8f5e956fecbfc3174e",
    "segment": "f74d2b6fc9eddfaaece4f557feb4bb061983012c9a53ae9845fde0fe0bff36af",
    "surface": "d0771fbf0adb11ba59760f7d39e965b5a121a98e9553b800f3513b8526877033",
}


@pytest.mark.parametrize("name, compute", [
    ("metric", metric_digest),
    ("tangent", tangent_digest),
    ("segment", segment_digest),
    ("surface", surface_digest),
])
def test_outputs_are_bit_identical(name, compute):
    assert compute() == DIGESTS[name]


class TestChartForm:
    def test_coefficients(self):
        assert chart_form(0.0) == (0.0, -2.0, 1.0)
        assert chart_form(TWO_PI) == (-1.0, 0.0, 1.0)
        assert chart_form(math.pi) == (-1.0, 0.0, 0.5)

    @pytest.mark.parametrize("alpha", [-1.0, 7.0, math.nan, math.inf])
    def test_invalid_angle(self, alpha):
        with pytest.raises(ValueError, match="invalid cone angle"):
            chart_form(alpha)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, math.pi / 2, math.pi, TWO_PI])
    def test_conefield_directions_are_future_null(self, tmp_path, alpha):
        out = tmp_path / "cones.csv"
        assert cli.main(
            ["conefield", "--alpha", repr(alpha), "--r-min", "0.01", "--r-max", "3",
             "--n-radii", "4", "--n-dirs", "24", "--out", str(out)]
        ) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * 24 + 2
        for row in rows:
            v = [float(row["v_t"]), float(row["v_r"]), float(row["v_theta"])]
            # the on-line rows have v_theta = 0, so any radius tests them
            r = float(row["r"]) or 1.0
            assert tangent_class(alpha, r, v) == "lightlike-future", row


@pytest.mark.parametrize("classify", [
    lambda v: classify_vector(v),
    lambda v: tangent_class(0.0, 1.0, v),
    lambda v: tangent_class(math.pi, 2.0, v),
])
@pytest.mark.parametrize("v", [
    [math.inf, 0.0, 0.0],
    [math.nan, 0.0, 0.0],
    [1.0, -math.inf, 0.0],
    [math.inf, math.inf, 0.0],
    [0.0, 0.0, math.nan],
    [1.0e200, 1.0e200, 0.0],  # finite, but the form overflows
])
def test_non_finite_vectors_get_no_label(classify, v):
    with pytest.raises(ValueError, match="non-finite"):
        classify(v)
