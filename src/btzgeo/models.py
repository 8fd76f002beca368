"""Model spacetimes: massive cones and the extremal (BTZ-type) tube.

Two families of flat singular model metrics on the solid tube
{(time, r, theta) : r >= 0, theta periodic}:

* cone angle ``alpha`` in (0, 2pi]: the massive cone metric

      -dt^2 + dr^2 + (alpha/2pi)^2 r^2 dtheta^2,

  which is smooth Minkowski space for alpha = 2pi and has a conical
  singularity along r = 0 otherwise;

* ``alpha = 0``: the extremal tube metric (BTZ-type)

      -2 dtau dr + dr^2 + r^2 dtheta^2

  in coordinates (tau, r, theta), whose singular line r = 0 is null.

The two families are joined by a one-parameter deformation indexed by
``omega`` in [0, 1],

      g_omega = -(1 - omega^2) dt^2 - 2 omega dt dr + dr^2 + r^2 dtheta^2,

with omega = 0 giving cylindrical Minkowski space and omega = 1 the extremal
metric.  :func:`omega_transform` realises each massive cone inside this
family: the linear change of chart with rapidity beta = arccosh(2pi/alpha)
pulls g_omega at omega = tanh(beta) back to the alpha-cone metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularPointError

TWO_PI = 2.0 * math.pi

_ANGLE_TOL = 1.0e-12


def is_valid_cone_angle(alpha) -> bool:
    """Cone angles are 0 (extremal tube) or values in (0, 2pi]."""
    return alpha == 0.0 or 0.0 < alpha <= TWO_PI + _ANGLE_TOL


def is_extremal(alpha) -> bool:
    """True for the BTZ-type tube (alpha = 0)."""
    _check_angle(alpha)
    return alpha == 0.0


def is_singular(alpha) -> bool:
    """True when r = 0 is a genuine singular line (alpha != 2pi)."""
    _check_angle(alpha)
    return alpha == 0.0 or abs(alpha - TWO_PI) > _ANGLE_TOL


def _check_angle(alpha):
    if not is_valid_cone_angle(alpha):
        raise ValueError(f"invalid cone angle {alpha!r}: expected 0 or (0, 2pi]")


@dataclass(frozen=True)
class ModelPoint:
    """A point of a model tube, tagged with its cone angle.

    ``time`` is the t coordinate for massive cones and tau for the extremal
    tube.  ``theta`` is stored as given; functions that compare angles reduce
    differences mod 2pi.
    """

    angle: float
    time: float
    r: float
    theta: float

    def __post_init__(self):
        _check_angle(self.angle)
        if not all(map(math.isfinite, (self.time, self.r, self.theta))):
            raise ValueError(f"non-finite coordinate in {self!r}")
        if self.r < 0.0:
            raise ValueError(f"negative radius {self.r!r}")

    @property
    def on_line(self) -> bool:
        return self.r == 0.0

    def coords(self) -> np.ndarray:
        return np.array([self.time, self.r, self.theta], dtype=float)


@dataclass(frozen=True)
class TubeRegion:
    """A solid finite tube {time in [t_min, t_max], 0 <= r <= radius}.

    The region is closed: boundary points and the singular line r = 0 belong
    to it.
    """

    angle: float
    radius: float
    t_min: float
    t_max: float

    def __post_init__(self):
        _check_angle(self.angle)
        if not all(map(math.isfinite, (self.radius, self.t_min, self.t_max))):
            raise ValueError(f"non-finite field in {self!r}")
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        if not self.t_min < self.t_max:
            raise ValueError("empty time interval")


def in_region(region: TubeRegion, p: ModelPoint) -> bool:
    """Membership of a model point in a tube region (same cone angle)."""
    if p.angle != region.angle:
        raise ValueError(
            f"cone angle mismatch: point {p.angle!r}, region {region.angle!r}"
        )
    if p.r > region.radius:
        return False
    return region.t_min <= p.time <= region.t_max


# =========================================================================
# Metrics
# =========================================================================


def metric_at(alpha, r):
    """Model metric in chart coordinates at radius ``r`` (one point or a stack).

    Rows/columns are ordered (time, r, theta).  Raises
    :class:`SingularPointError` at r = 0: even for alpha = 2pi the polar
    chart degenerates there.
    """
    _check_angle(alpha)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise SingularPointError("metric tensor is undefined at r = 0")
    g = np.zeros(r.shape + (3, 3))
    if alpha == 0.0:
        g[..., 0, 1] = -1.0
        g[..., 1, 0] = -1.0
        g[..., 1, 1] = 1.0
        g[..., 2, 2] = r**2
    else:
        a = alpha / TWO_PI
        g[..., 0, 0] = -1.0
        g[..., 1, 1] = 1.0
        g[..., 2, 2] = (a * r) ** 2
    return g


def omega_metric_at(omega, r):
    """Interpolating metric g_omega at radius ``r``.

    Defined for |omega| <= 1; determinant is -r^2 independently of omega.
    omega = 0 is cylindrical Minkowski space, omega = 1 the extremal tube.
    Unlike :func:`metric_at` this is evaluated at r = 0 too (the formal
    limit), where the theta-theta entry vanishes.
    """
    if abs(omega) > 1.0:
        raise ValueError(f"omega must lie in [-1, 1], got {omega!r}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("negative radius")
    g = np.zeros(r.shape + (3, 3))
    g[..., 0, 0] = -(1.0 - omega**2)
    g[..., 0, 1] = -omega
    g[..., 1, 0] = -omega
    g[..., 1, 1] = 1.0
    g[..., 2, 2] = r**2
    return g


@dataclass(frozen=True)
class OmegaTransform:
    """Linear change of chart carrying the alpha-cone onto an omega-slice.

    With beta = arccosh(2pi/alpha) the map

        tau = t cosh(beta) - r sinh(beta),   rho = r / cosh(beta)

    (theta unchanged) pulls the omega-family metric at
    omega = tanh(beta) = sqrt(1 - (alpha/2pi)^2) back to the massive cone
    metric of angle alpha.  For alpha = 2pi it is the identity with omega = 0.
    """

    alpha: float
    beta: float
    omega: float

    def apply(self, points):
        """Map (t, r, theta) points, shaped (..., 3), to (tau, rho, theta)."""
        points = np.asarray(points, dtype=float)
        c, s = math.cosh(self.beta), math.sinh(self.beta)
        out = np.empty_like(points)
        out[..., 0] = points[..., 0] * c - points[..., 1] * s
        out[..., 1] = points[..., 1] / c
        out[..., 2] = points[..., 2]
        return out

    def jacobian(self) -> np.ndarray:
        c, s = math.cosh(self.beta), math.sinh(self.beta)
        return np.array(
            [[c, -s, 0.0], [0.0, 1.0 / c, 0.0], [0.0, 0.0, 1.0]]
        )


def omega_transform(alpha) -> OmegaTransform:
    """Build the chart map of :class:`OmegaTransform` for a massive angle.

    Requires 0 < alpha <= 2pi; the extremal tube (alpha = 0) is the
    omega -> 1 endpoint and is not reached by a finite rapidity.
    """
    _check_angle(alpha)
    if alpha == 0.0:
        raise ValueError("alpha = 0 is the omega = 1 limit; no finite chart map")
    a = alpha / TWO_PI
    beta = float(np.arccosh(1.0 / a))
    omega = math.tanh(beta)
    return OmegaTransform(alpha=alpha, beta=beta, omega=omega)


def circle_circumference(alpha, r0) -> float:
    """Length of the circle {time = const, r = r0} in the alpha-model.

    Massive cones give alpha * r0 (the defining property of the cone angle);
    the extremal tube keeps the undeformed angular part g_thth = r^2, so its
    circles have length 2pi * r0.
    """
    _check_angle(alpha)
    if r0 < 0.0:
        raise ValueError("negative radius")
    if alpha == 0.0:
        return TWO_PI * r0
    return alpha * r0
