"""Developing maps of the model tubes into Minkowski space.

The regular part of each model tube is flat, so its universal cover admits
an isometric immersion (a developing map) into E^{1,2}, unique up to an
isometry, together with a holonomy representation of the deck group.  Both
families are realised explicitly here.

Extremal tube (cone angle 0).  In cover coordinates (tau, r, th), th real,

    D(tau, r, th) = (tau + r th^2 / 2,  tau + r th^2 / 2 - r,  -r th).

D is an orientation-preserving isometry onto the half-space {t - x > 0};
the image of the forward singular line is the null ray {t = x, y = 0}.  The
identity t - x = r holds exactly along the image.  The deck generator
th -> th + 2 pi corresponds to the parabolic element returned by
:func:`btz_holonomy_generator`, which fixes the null direction (1, 1, 0).

Massive cone (angle alpha in (0, 2pi]).  With a = alpha / 2 pi,

    D(t, r, th) = (t,  r cos(a th),  r sin(a th)),

and the deck generator is the rotation by alpha about the time axis.

Every singular line obeys one holonomy rule, :func:`check_holonomy`: the class
of the alpha-model's own deck generator (parabolic at 0, else the rotation by
alpha, elliptic of that angle or, within ~3e-5 of 0 or 2 pi, the identity).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lorentz import (
    LorentzIsometry,
    boost_tx,
    classify_isometry,
    fixed_null_direction,
    rotation_about_t_axis,
)
from .models import TWO_PI, is_singular, is_valid_cone_angle

_MATCH_TOL = 1.0e-9

# =========================================================================
# Extremal (BTZ-type) tube
# =========================================================================


def develop_btz(points):
    """Developing map of the extremal tube cover; ``points`` shaped (..., 3).

    Input rows are (tau, r, th) with r >= 0 and th the *unwrapped* angle of
    the universal cover.  The x output is computed as t - r so that the
    null-plane identity t - x = r holds to one rounding error.
    """
    points = np.asarray(points, dtype=float)
    tau, r, th = points[..., 0], points[..., 1], points[..., 2]
    t = tau + 0.5 * r * th**2
    out = np.empty_like(points)
    out[..., 0] = t
    out[..., 1] = t - r
    out[..., 2] = -r * th
    return out


def develop_btz_jacobian(points):
    """Exact Jacobian of :func:`develop_btz`, shaped (..., 3, 3).

    Columns are the pushforwards of d/dtau, d/dr, d/dth; det = r.
    """
    points = np.asarray(points, dtype=float)
    r, th = points[..., 1], points[..., 2]
    jac = np.zeros(points.shape[:-1] + (3, 3))
    jac[..., 0, 0] = 1.0
    jac[..., 1, 0] = 1.0
    jac[..., 0, 1] = 0.5 * th**2
    jac[..., 1, 1] = 0.5 * th**2 - 1.0
    jac[..., 2, 1] = -th
    jac[..., 0, 2] = r * th
    jac[..., 1, 2] = r * th
    jac[..., 2, 2] = -r
    return jac


def develop_btz_inverse(points):
    """Inverse of :func:`develop_btz` on the half-space {t - x > 0}."""
    points = np.asarray(points, dtype=float)
    t, x, y = points[..., 0], points[..., 1], points[..., 2]
    r = t - x
    if np.any(r <= 0.0):
        raise ValueError("developing image of the regular part requires t - x > 0")
    th = -y / r
    out = np.empty_like(points)
    out[..., 0] = t - 0.5 * r * th**2
    out[..., 1] = r
    out[..., 2] = th
    return out


@functools.cache
def btz_holonomy_generator() -> LorentzIsometry:
    """Deck transformation of the extremal tube for one full 2 pi turn.

    A parabolic element gamma = I + N with trace 3 fixing the null vector
    (1, 1, 0); explicitly, with b = 2 pi:

        [[1 + b^2/2,   -b^2/2,  -b],
         [    b^2/2, 1 - b^2/2, -b],
         [       -b,         b,  1]].

    It satisfies D(tau, r, th + 2 pi) = gamma D(tau, r, th) exactly.  Built
    once: every call returns the same (immutable) isometry.
    """
    b = TWO_PI
    h = 0.5 * b * b
    lin = np.array(
        [
            [1.0 + h, -h, -b],
            [h, 1.0 - h, -b],
            [-b, b, 1.0],
        ]
    )
    return LorentzIsometry(lin)


# =========================================================================
# Massive cones
# =========================================================================


def _check_massive(alpha):
    if not is_valid_cone_angle(alpha) or alpha == 0.0:
        raise ValueError(f"expected a massive cone angle in (0, 2pi], got {alpha!r}")


def develop_massive(alpha, points):
    """Developing map of the massive cone cover of angle ``alpha``."""
    _check_massive(alpha)
    points = np.asarray(points, dtype=float)
    a = alpha / TWO_PI
    t, r, th = points[..., 0], points[..., 1], points[..., 2]
    out = np.empty_like(points)
    out[..., 0] = t
    out[..., 1] = r * np.cos(a * th)
    out[..., 2] = r * np.sin(a * th)
    return out


def develop_massive_jacobian(alpha, points):
    """Exact Jacobian of :func:`develop_massive`, shaped (..., 3, 3)."""
    _check_massive(alpha)
    points = np.asarray(points, dtype=float)
    a = alpha / TWO_PI
    r, th = points[..., 1], points[..., 2]
    c, s = np.cos(a * th), np.sin(a * th)
    jac = np.zeros(points.shape[:-1] + (3, 3))
    jac[..., 0, 0] = 1.0
    jac[..., 1, 1] = c
    jac[..., 2, 1] = s
    jac[..., 1, 2] = -r * a * s
    jac[..., 2, 2] = r * a * c
    return jac


def massive_holonomy_generator(alpha) -> LorentzIsometry:
    """Deck transformation of the massive cone: rotation by ``alpha``."""
    _check_massive(alpha)
    return rotation_about_t_axis(alpha)


# =========================================================================
# Chart comparisons
# =========================================================================


@dataclass(frozen=True)
class RescaleReport:
    """Effect of the angular rescaling (tau, r, th) -> (tau, r, lam * th).

    The pullback of the extremal metric under this map has angular
    coefficient lam^2 r^2 instead of r^2, so the map is an isometry of the
    tube exactly when |lam| = 1.  ``max_residual`` is |lam^2 - 1|, the largest
    entrywise deviation |lam^2 - 1| r^2 of the pulled-back metric from the
    extremal one on the unit tube, reached at r = 1.
    """

    lam: float
    angular_factor: float
    max_residual: float
    is_isometry: bool


def rescale_btz(lam) -> RescaleReport:
    """Report on the angular rescaling of the extremal tube by ``lam``."""
    lam = float(lam)
    if lam == 0.0 or not math.isfinite(lam * lam):
        raise ValueError(f"rescaling factor must be nonzero with a finite square, got {lam!r}")
    residual = abs(lam**2 - 1.0)
    return RescaleReport(
        lam=lam,
        angular_factor=lam**2,
        max_residual=residual,
        is_isometry=residual <= 1.0e-12,
    )


def boost_conjugate(g: LorentzIsometry, rapidity) -> LorentzIsometry:
    """Conjugate a parabolic element by a boost along its fixed direction.

    The fixed null vector of ``g``, normalized to (1, cos psi, sin psi),
    determines the boost plane; the result h g h^-1 is again parabolic with
    the same fixed null vector.  The products are accumulated in extended
    precision so the constructor's orthogonality validation is met.
    """
    v = fixed_null_direction(g)
    psi = math.atan2(v[2], v[1])
    c, s = math.cos(psi), math.sin(psi)
    ch, sh = boost_tx(rapidity).linear[0, :2]
    rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]], dtype=np.longdouble)
    boost = np.array(
        [[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]], dtype=np.longdouble
    )
    lin = g.linear.astype(np.longdouble)
    h = rot @ boost @ rot.T
    h_inv = rot @ np.array(
        [[ch, -sh, 0.0], [-sh, ch, 0.0], [0.0, 0.0, 1.0]], dtype=np.longdouble
    ) @ rot.T
    out = (h @ lin @ h_inv).astype(float)
    result = LorentzIsometry(out)
    if classify_isometry(result)["kind"] != "parabolic":
        raise ValueError("conjugation left the parabolic class; check the input")
    return result


def match_cone_charts(alpha, beta) -> bool:
    """Whether two singular model tubes are isometric preserving the line.

    The cone angle is a complete invariant of the singular models: the
    circumference law (massive) and the rescaling obstruction recorded by
    :func:`rescale_btz` (extremal) leave no moduli.  Regular tubes (angle
    2 pi, as decided by :func:`btzgeo.models.is_singular`) are excluded: they
    carry no distinguished line.  Angles are compared to within 1e-9.
    """
    for val in (alpha, beta):
        if not is_valid_cone_angle(val):
            raise ValueError(f"invalid cone angle {val!r}")
        if not is_singular(val):
            raise ValueError("regular tubes (angle 2 pi) have no singular line")
    return abs(alpha - beta) <= _MATCH_TOL


def _deck_generator(alpha) -> LorentzIsometry:
    """The alpha-model's own deck generator: parabolic at 0, else the rotation by alpha."""
    if not is_valid_cone_angle(alpha):
        raise ValueError(f"invalid cone angle {alpha!r}")
    return rotation_about_t_axis(alpha) if alpha else btz_holonomy_generator()


def _describe(info) -> str:
    trivial = " (trivial)" if info["kind"] == "identity" else ""
    angle = f" of angle {info['angle']!r}" if "angle" in info else ""
    return f"{info['kind']} holonomy{trivial}{angle}"


def check_holonomy(alpha, g) -> None:
    """Raise ``ValueError`` unless ``g`` has the class of the alpha-model's deck generator.

    The generator is :func:`btz_holonomy_generator` at alpha = 0, else the
    rotation by alpha, whose elliptic angle ``g`` must also match to 1e-9.
    """
    own = classify_isometry(_deck_generator(alpha))
    info = classify_isometry(g)
    angle_gap = abs(info.get("angle", 0.0) - own.get("angle", 0.0))
    if info["kind"] != own["kind"] or angle_gap > _MATCH_TOL:
        raise ValueError(f"cone angle {alpha!r} needs {_describe(own)}, got {_describe(info)}")


def developing_report(alpha) -> dict:
    """Summary of the developing data for one model; used by the CLI.

    The generator is the model's own, as in :func:`check_holonomy`, with the
    deck parameter pinned to the full 2 pi period (conventions differ in the
    literature); the extremal report adds the fixed null direction.
    """
    gamma = _deck_generator(alpha)
    info = classify_isometry(gamma)
    null = fixed_null_direction(gamma).tolist() if info["kind"] == "parabolic" else None
    report = {
        "model": "massive" if alpha else "extremal",
        "angle": float(alpha) or None,
        "holonomy_matrix": gamma.linear.tolist(),
        "holonomy_class": info["kind"],
        "trace": info["trace"],
        "holonomy_angle": info.get("angle"),
        "fixed_null_direction": null,
    }
    return {key: value for key, value in report.items() if value is not None}
