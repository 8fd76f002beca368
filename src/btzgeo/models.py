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

Chart form
----------
Every metric here has the shape

      c_tt dt^2 + c_tr dt dr + dr^2 + (s r dtheta)^2,

with (c_tt, c_tr, s) = (0, -2, 1) for the extremal tube, (-1, 0, alpha/2pi)
for a massive cone and (-(1 - omega^2), -2 omega, 1) on the omega-family.
:func:`chart_form` is the one place that holds these coefficients; the
metric tensors, tangent and secant classes (:mod:`btzgeo.causal`), the
spacelike slack of graph surfaces (:mod:`btzgeo.surfaces`) and the null
cones of the CLI's ``conefield`` are all evaluated from it.  The singular
line is null exactly when c_tt = 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import SingularPointError

TWO_PI = 2.0 * math.pi

_ANGLE_TOL = 1.0e-12


def is_valid_cone_angle(alpha):
    """Cone angles are 0 (extremal tube) or values in (0, 2pi]; entrywise."""
    return (alpha == 0.0) | ((0.0 < alpha) & (alpha <= TWO_PI + _ANGLE_TOL))


def is_singular(alpha) -> bool:
    """True when r = 0 is a genuine singular line (alpha != 2pi)."""
    _check_one_angle(alpha)
    return alpha == 0.0 or abs(alpha - TWO_PI) > _ANGLE_TOL


def _check_angle(alpha):
    if not np.all(is_valid_cone_angle(alpha)):
        raise ValueError(f"invalid cone angle {alpha!r}: expected 0 or (0, 2pi]")


def _check_one_angle(alpha):
    # the tube dataclasses, is_singular and circle_circumference take one angle
    if not isinstance(alpha, numbers.Real):
        raise TypeError(f"expected one cone angle, got {alpha!r}")
    _check_angle(alpha)


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
        _check_one_angle(self.angle)
        if not all(map(math.isfinite, (self.time, self.r, self.theta))):
            raise ValueError(f"non-finite coordinate in {self!r}")
        if self.r < 0.0:
            raise ValueError(f"negative radius {self.r!r}")


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
        _check_one_angle(self.angle)
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


def chart_form(alpha):
    """Coefficients (c_tt, c_tr, s) of the alpha-model's chart metric.

    The metric is c_tt dt^2 + c_tr dt dr + dr^2 + (s r dtheta)^2: (0, -2, 1)
    for the extremal tube and (-1, 0, alpha/2pi) for a massive cone.  An
    array of angles gives three arrays of its shape.  Raises ``ValueError``
    for an invalid cone angle.
    """
    _check_angle(alpha)
    line = alpha == 0.0  # a bool or bool array; "0.0 -" keeps c_tr = +0.0 on cones
    return line - 1.0, 0.0 - 2.0 * line, alpha / TWO_PI + line


def _entrywise(f, x):
    # math and Python's x**2 per entry: numpy's may differ from them in the last place
    x = np.asarray(x, dtype=float)
    return np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _finite_radius(r):
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("radius must be finite")
    return r


def _form_metric(c_tt, c_tr, s, r):
    g = np.zeros(np.broadcast(c_tt, c_tr, s, r).shape + (3, 3))
    g[..., 0, 0] = c_tt
    g[..., 0, 1] = g[..., 1, 0] = 0.5 * c_tr
    g[..., 1, 1] = 1.0
    g[..., 2, 2] = (s * r) ** 2
    return g


def metric_at(alpha, r):
    """Model metric in chart coordinates at radius ``r``, shaped (..., 3, 3).

    ``alpha`` and ``r`` are each one value or an array, broadcast against
    each other.  Rows/columns are ordered (time, r, theta).  Raises
    :class:`SingularPointError` at r = 0: even for alpha = 2pi the polar
    chart degenerates there.  A non-finite radius raises ``ValueError``.
    """
    form = chart_form(alpha)
    r = _finite_radius(r)
    if np.any(r <= 0.0):
        raise SingularPointError("metric tensor is undefined at r = 0")
    return _form_metric(*form, r)


def omega_metric_at(omega, r):
    """Interpolating metric g_omega at radius ``r``, shaped (..., 3, 3).

    ``omega`` and ``r`` are each one value or an array, broadcast against
    each other.  Defined for |omega| <= 1 (NaN and infinite omega or radii
    raise ``ValueError``); determinant is -r^2 independently of omega.
    omega = 0 is cylindrical Minkowski space, omega = 1 the extremal tube.
    Unlike :func:`metric_at` this is evaluated at r = 0 too (the formal
    limit), where the theta-theta entry vanishes.
    """
    w = np.asarray(omega, dtype=float)
    if not np.all(np.abs(w) <= 1.0):
        raise ValueError(f"omega must lie in [-1, 1], got {omega!r}")
    r = _finite_radius(r)
    if np.any(r < 0.0):
        raise ValueError("negative radius")
    return _form_metric(-(1.0 - _entrywise(lambda v: v**2, w)), -2.0 * w, 1.0, r)


@dataclass(frozen=True)
class OmegaTransform:
    """Linear change of chart carrying the alpha-cone onto an omega-slice.

    With beta = arccosh(2pi/alpha) the map

        tau = t cosh(beta) - r sinh(beta),   rho = r / cosh(beta)

    (theta unchanged) pulls the omega-family metric at
    omega = tanh(beta) = sqrt(1 - (alpha/2pi)^2) back to the massive cone
    metric of angle alpha.  For alpha = 2pi it is the identity with omega = 0.
    The map is linear, so :meth:`jacobian` is the map itself.  Built from an
    array of angles, ``beta`` and ``omega`` are arrays of its shape and the
    jacobian is a (..., 3, 3) stack.
    """

    alpha: float
    beta: float
    omega: float

    def jacobian(self) -> np.ndarray:
        c = _entrywise(math.cosh, self.beta)
        jac = np.broadcast_to(np.eye(3), c.shape + (3, 3)).copy()
        jac[..., 0, 0], jac[..., 1, 1] = c, 1.0 / c
        jac[..., 0, 1] = -_entrywise(math.sinh, self.beta)
        return jac


def omega_transform(alpha) -> OmegaTransform:
    """The chart map of :class:`OmegaTransform` for a massive angle or an array.

    Requires 0 < alpha <= 2pi; the extremal tube (alpha = 0) is the
    omega -> 1 endpoint and is not reached by a finite rapidity.
    """
    _check_angle(alpha)
    a = np.asarray(alpha, dtype=float)
    if np.any(a == 0.0):
        raise ValueError("alpha = 0 is the omega = 1 limit; no finite chart map")
    beta = np.arccosh(1.0 / (a / TWO_PI))
    return OmegaTransform(alpha, beta[()], _entrywise(math.tanh, beta)[()])


def circle_circumference(alpha, r0) -> float:
    """Length of the circle {time = const, r = r0} in the alpha-model.

    Massive cones give alpha * r0 (the defining property of the cone angle);
    the extremal tube keeps the undeformed angular part g_thth = r^2, so its
    circles have length 2pi * r0.
    """
    _check_one_angle(alpha)
    if r0 < 0.0:
        raise ValueError("negative radius")
    if alpha == 0.0:
        return TWO_PI * r0
    return alpha * r0
