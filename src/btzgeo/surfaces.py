"""Graph Cauchy surfaces over the model tubes and their surgeries.

A graph surface over radius coordinates is {time = f(r, theta)}.  In the
extremal ambient the induced metric of the graph is

    [[1 - 2 f_r, -f_th], [-f_th, r^2]],

with determinant r^2 * delta where

    delta(r, theta) = 1 - 2 f_r - (f_th / r)^2;

the graph is spacelike exactly where delta > 0.  In a massive ambient of
angle alpha (a = alpha / 2 pi) the induced metric is

    [[1 - f_r^2, -f_r f_th], [-f_r f_th, (a r)^2 - f_th^2]],

spacelike exactly where 1 - f_r^2 - (f_th / (a r))^2 > 0.

Toward a puncture at r = 0 the radial part of the extremal induced metric is
at least delta dr^2, so a positive lower bound C^2 <= r^2 delta forces radial
length >= C * ln(r1/r0): :func:`completeness_certificate` reports
C = sqrt(inf r^2 delta) sampled on a grid.  The two surgeries attach to a
boundary trace b(theta) at r = R either a complete end (slope field
M (1/r - 1/R) with M = 1 + max b'^2, giving r^2 delta = r^2 + 2M - b'^2 > 1)
or a compact cap (blended field, constant inside r = R/2, with the slope
constant doubled until the spacelike slack is certified on a grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .errors import BoundaryMismatchError, CertificationError
from .models import TWO_PI, is_valid_cone_angle


# cap certification (extend_boundary_cap): slack floor, grid size, doubling limit
_CAP_DELTA_FLOOR = 1.0e-9
_CAP_GRID = 512
_CAP_MAX_DOUBLINGS = 60


# =========================================================================
# Boundary curves
# =========================================================================


@dataclass(frozen=True)
class BoundaryCurve:
    """A smooth 2 pi periodic height trace with its derivative."""

    value: callable
    derivative: callable

    @staticmethod
    def from_trig(constant=0.0, cos_coeffs=(), sin_coeffs=()):
        """Trigonometric polynomial sum_k (c_k cos k th + s_k sin k th)."""
        cos_coeffs = tuple(float(c) for c in cos_coeffs)
        sin_coeffs = tuple(float(s) for s in sin_coeffs)
        constant = float(constant)

        def value(th):
            th = np.asarray(th, dtype=float)
            out = np.full(th.shape, constant)
            for k, c in enumerate(cos_coeffs, start=1):
                out = out + c * np.cos(k * th)
            for k, s in enumerate(sin_coeffs, start=1):
                out = out + s * np.sin(k * th)
            return out

        def derivative(th):
            th = np.asarray(th, dtype=float)
            out = np.zeros(th.shape)
            for k, c in enumerate(cos_coeffs, start=1):
                out = out - c * k * np.sin(k * th)
            for k, s in enumerate(sin_coeffs, start=1):
                out = out + s * k * np.cos(k * th)
            return out

        return BoundaryCurve(value=value, derivative=derivative)

    def max_derivative_sq(self) -> float:
        th = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        return float(np.max(self.derivative(th) ** 2))


# =========================================================================
# Graph surfaces
# =========================================================================


@dataclass(frozen=True, eq=False)
class GraphSurface:
    """Height field time = f(r, theta) over an annulus or disc of a model tube.

    The domain is r in [r_inner, radius]; ``punctured`` marks surfaces whose
    inner boundary is the missing line r = 0 (so r_inner == 0 but the line
    itself is not part of the surface).  The three callables evaluate the
    field and its first partials at (r, theta).  Their results broadcast
    against ``(r, theta)`` but need not have its full shape: a factor in r
    alone or theta alone is evaluated on that axis only, so a column of radii
    against a row of angles evaluates a boundary trace once per angle.
    Callers that need the full shape broadcast the result themselves.
    """

    alpha: float
    radius: float
    punctured: bool
    _tau: callable
    _tau_r: callable
    _tau_th: callable
    r_inner: float = 0.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not is_valid_cone_angle(self.alpha):
            raise ValueError(f"invalid cone angle {self.alpha!r}")
        if not self.radius > self.r_inner >= 0.0:
            raise ValueError("need 0 <= r_inner < radius")
        if self.punctured and self.r_inner != 0.0:
            raise ValueError("punctured surfaces have r_inner == 0")

    def tau(self, r, th):
        return self._tau(np.asarray(r, dtype=float), np.asarray(th, dtype=float))

    def tau_r(self, r, th):
        return self._tau_r(np.asarray(r, dtype=float), np.asarray(th, dtype=float))

    def tau_theta(self, r, th):
        return self._tau_th(np.asarray(r, dtype=float), np.asarray(th, dtype=float))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_functions(
        alpha, radius, tau, tau_r, tau_theta, punctured=False, r_inner=0.0, params=None
    ) -> "GraphSurface":
        return GraphSurface(
            alpha=float(alpha),
            radius=float(radius),
            punctured=bool(punctured),
            _tau=tau,
            _tau_r=tau_r,
            _tau_th=tau_theta,
            r_inner=float(r_inner),
            params=dict(params or {}),
        )

    @staticmethod
    def from_grid(
        alpha, r_nodes, theta_nodes, values, punctured=False, params=None
    ) -> "GraphSurface":
        """Sampled surface; partials by second-order finite differences.

        ``theta_nodes`` must be uniform on [0, 2 pi) (the angular direction
        is treated as periodic); ``r_nodes`` strictly increasing and
        positive.  Values between nodes are obtained by bilinear
        interpolation.
        """
        r_nodes = np.asarray(r_nodes, dtype=float)
        theta_nodes = np.asarray(theta_nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.shape != (r_nodes.size, theta_nodes.size):
            raise ValueError("values must be shaped (n_r, n_theta)")
        if np.any(np.diff(r_nodes) <= 0.0) or r_nodes[0] <= 0.0:
            raise ValueError("r_nodes must be positive and increasing")
        h_th = TWO_PI / theta_nodes.size
        if not np.allclose(np.diff(theta_nodes), h_th, rtol=0, atol=1e-12):
            raise ValueError("theta_nodes must be uniform over [0, 2 pi)")

        d_r = np.gradient(values, r_nodes, axis=0, edge_order=2)
        d_th = (np.roll(values, -1, axis=1) - np.roll(values, 1, axis=1)) / (2 * h_th)

        def interp(grid_values):
            th_ext = np.concatenate([theta_nodes, [theta_nodes[0] + TWO_PI]])
            v_ext = np.concatenate([grid_values, grid_values[:, :1]], axis=1)
            rgi = RegularGridInterpolator(
                (r_nodes, th_ext), v_ext, method="linear",
                bounds_error=False, fill_value=None,
            )

            def ev(r, th):
                rr, tt = np.broadcast_arrays(
                    np.asarray(r, dtype=float), np.mod(th, TWO_PI)
                )
                pts = np.stack([rr.ravel(), tt.ravel()], axis=-1)
                return rgi(pts).reshape(rr.shape)

            return ev

        return GraphSurface(
            alpha=float(alpha),
            radius=float(r_nodes[-1]),
            punctured=bool(punctured),
            _tau=interp(values),
            _tau_r=interp(d_r),
            _tau_th=interp(d_th),
            r_inner=0.0 if punctured else float(r_nodes[0]),
            params=dict(params or {}),
        )


def hyperbolic_plane_surface(radius=1.0) -> GraphSurface:
    """The punctured graph tau = (1 + r^2) / (2 r) in the extremal tube.

    An isometric copy of the hyperbolic plane: delta = 1/r^2 so r^2 delta = 1,
    the completeness certificate is exactly 1, and radial length from r to 1
    is ln(1/r).
    """

    def tau(r, th):
        return (1.0 + r**2) / (2.0 * r)

    def tau_r(r, th):
        return 0.5 - 1.0 / (2.0 * r**2)

    def tau_th(r, th):
        return np.zeros(r.shape)

    return GraphSurface.from_functions(
        0.0, radius, tau, tau_r, tau_th, punctured=True,
        params={"name": "hyperbolic-plane"},
    )


# =========================================================================
# Spacelike slack and induced geometry
# =========================================================================


def delta_field(surface: GraphSurface):
    """The spacelike slack as a callable of (r, theta); positive iff spacelike.

    Extremal ambient: 1 - 2 f_r - (f_th/r)^2.  Massive ambient of angle
    alpha: 1 - f_r^2 - (f_th / (a r))^2 with a = alpha/2pi.
    """
    if surface.alpha == 0.0:

        def slack(r, th):
            r = np.asarray(r, dtype=float)
            return (
                1.0
                - 2.0 * surface.tau_r(r, th)
                - (surface.tau_theta(r, th) / r) ** 2
            )

        return slack

    a = surface.alpha / TWO_PI

    def slack(r, th):
        r = np.asarray(r, dtype=float)
        return (
            1.0
            - surface.tau_r(r, th) ** 2
            - (surface.tau_theta(r, th) / (a * r)) ** 2
        )

    return slack


def induced_metric(surface: GraphSurface, r, th):
    """Induced 2-metric of the graph at (r, theta), shaped (..., 2, 2)."""
    r = np.asarray(r, dtype=float)
    th = np.asarray(th, dtype=float)
    f_r = surface.tau_r(r, th)
    f_th = surface.tau_theta(r, th)
    r, th, f_r, f_th = np.broadcast_arrays(r, th, f_r, f_th)
    g = np.zeros(r.shape + (2, 2))
    if surface.alpha == 0.0:
        g[..., 0, 0] = 1.0 - 2.0 * f_r
        g[..., 0, 1] = -f_th
        g[..., 1, 0] = -f_th
        g[..., 1, 1] = r**2
    else:
        a = surface.alpha / TWO_PI
        g[..., 0, 0] = 1.0 - f_r**2
        g[..., 0, 1] = -f_r * f_th
        g[..., 1, 0] = -f_r * f_th
        g[..., 1, 1] = (a * r) ** 2 - f_th**2
    return g


def _certification_grid(surface: GraphSurface, n_r, n_theta):
    if surface.r_inner == 0.0:
        rs = np.geomspace(surface.radius * 1.0e-4, surface.radius, n_r)
    else:
        rs = np.linspace(surface.r_inner, surface.radius, n_r)
    ths = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    return rs, ths


def _min_delta(rr, f_r, f_th):
    """(min delta, min r^2 delta) of extremal jets on an (n_r, n_theta) grid.

    ``rr`` holds the positive grid radii as a column.  r^2 delta =
    r^2 (1 - 2 f_r) - f_th^2 is formed first and then divided by r^2: certified
    cap constants are computed in this order, which rounds differently from
    :func:`delta_field`.
    """
    r2delta = rr**2 * (1.0 - 2.0 * f_r) - f_th**2
    return float((r2delta / rr**2).min()), float(r2delta.min())


def min_spacelike_slack(surface: GraphSurface, n_r=256, n_theta=256):
    """(min delta, min r^2 delta) over a sampling grid of the domain.

    For surfaces reaching r = 0 the radial grid is geometric down to
    radius * 1e-4, probing the end; otherwise it is uniform on the domain.
    """
    rs, ths = _certification_grid(surface, n_r, n_theta)
    rr = rs[:, None]
    tt = ths[None, :]
    if surface.alpha == 0.0:
        return _min_delta(rr, surface.tau_r(rr, tt), surface.tau_theta(rr, tt))
    slack = delta_field(surface)(rr, tt)
    m = float(np.min(slack))
    return m, float(np.min(rr**2 * slack))


def is_spacelike(surface: GraphSurface, n_r=256, n_theta=256) -> bool:
    """Grid check that the spacelike slack is positive on the domain."""
    return min_spacelike_slack(surface, n_r, n_theta)[0] > 0.0


def surface_length(surface: GraphSurface, path):
    """Length of a piecewise-linear chart path on the surface.

    ``path`` is an (n, 2) array of (r, theta) with theta unwrapped;
    each straight chart segment is integrated with 8-point
    Gauss-Legendre quadrature of the induced line element.  Raises
    ``ValueError`` if a quadrature node sees a non-spacelike direction.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[1] != 2 or path.shape[0] < 2:
        raise ValueError("expected an (n, 2) path of (r, theta) nodes")
    nodes, weights = np.polynomial.legendre.leggauss(8)
    s = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    p0, p1 = path[:-1], path[1:]
    dseg = p1 - p0
    # (n_seg, order, 2) sample points along every segment
    pts = p0[:, None, :] + s[None, :, None] * dseg[:, None, :]
    g = induced_metric(surface, pts[..., 0], pts[..., 1])
    dr = dseg[:, None, 0]
    dth = dseg[:, None, 1]
    form = (
        g[..., 0, 0] * dr**2
        + 2.0 * g[..., 0, 1] * dr * dth
        + g[..., 1, 1] * dth**2
    )
    scale = dr**2 + dth**2
    if np.any(form < -1.0e-12 * scale):
        raise ValueError("path leaves the spacelike cone of the surface")
    return float(np.sum(np.sqrt(np.maximum(form, 0.0)) * w[None, :]))


# =========================================================================
# End behaviour
# =========================================================================


def completeness_certificate(surface: GraphSurface, n_r=256, n_theta=256):
    """Certified lower bound C with radial length >= C ln(r1/r0) at the end.

    Returns sqrt(min r^2 delta) sampled on a geometric grid down to
    radius * 1e-4, or ``None`` when the sampled infimum falls below
    1e-6 (no certificate; e.g. bounded height fields).  Only
    punctured surfaces in the extremal ambient have such an end.
    """
    if not surface.punctured:
        raise ValueError("completeness certificates apply to punctured surfaces")
    if surface.alpha != 0.0:
        raise ValueError("completeness certificates target the extremal ambient")
    _, min_r2 = min_spacelike_slack(surface, n_r, n_theta)
    if min_r2 < 1.0e-6:
        return None
    return math.sqrt(min_r2)


def divergence_check(surface: GraphSurface) -> bool:
    """Heuristic test that the height field grows without bound at the end.

    Samples m_k = min over 256 angles of the field at dyadic radii
    r_k = radius * 2^-k, k = 1..20.  Divergence is reported when the tail
    of m_k is strictly increasing and the dyadic increments do not decay
    (the last increment is at least 0.9 of a mid-tail reference increment).  This
    catches 1/r- and log-type growth and rejects bounded fields, whose
    dyadic increments are summable.
    """
    if not surface.punctured:
        raise ValueError("divergence check applies to punctured surfaces")
    ths = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    rs = surface.radius * 0.5 ** np.arange(1, 21)
    mins = np.broadcast_to(
        surface.tau(rs[:, None], ths), (rs.size, ths.size)
    ).min(axis=1)
    half = rs.size // 2
    tail = mins[half - 1 :]
    if np.any(np.diff(tail) <= 0.0):
        return False
    inc_ref = mins[half] - mins[half - 1]
    inc_last = mins[-1] - mins[-2]
    return inc_last >= 0.9 * inc_ref


# =========================================================================
# Surgeries
# =========================================================================


def extend_boundary_complete(boundary: BoundaryCurve, radius) -> GraphSurface:
    """Attach a complete spacelike end to a boundary trace at r = radius.

    The field is tau = b(theta) + M (1/r - 1/radius) with
    M = 1 + max b'^2, giving r^2 delta = r^2 + 2M - b'(theta)^2 >= 2 on the
    whole punctured domain; the boundary trace is matched exactly.
    """
    radius = float(radius)
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    slope = 1.0 + boundary.max_derivative_sq()

    def tau(r, th):
        return boundary.value(th) + slope * (1.0 / r - 1.0 / radius)

    def tau_r(r, th):
        return -slope / r**2

    def tau_th(r, th):
        return boundary.derivative(th)

    return GraphSurface.from_functions(
        0.0, radius, tau, tau_r, tau_th, punctured=True, params={"slope": slope}
    )


def extend_boundary_cap(boundary: BoundaryCurve, radius) -> GraphSurface:
    """Attach a compact cap crossing the line to a boundary trace at r = radius.

    The field blends the trace to a constant: with phi(r) = ((2r - R)/R)^2,

        tau = phi(r) b(theta) + M (1/r - 1/R)   on R/2 <= r <= R,
        tau = M / R                             on r <= R/2,

    continuous at r = R/2 (exactly, since 2/R - 1/R = 1/R in binary floats).
    The slope constant M doubles from 1 until the spacelike slack sampled on
    a ``_CAP_GRID`` x ``_CAP_GRID`` grid of [R/2, R] x [0, 2 pi) exceeds
    ``_CAP_DELTA_FLOOR`` = 1e-9 (the inner part is flat, delta = 1);
    :class:`CertificationError` is raised once M = 2^``_CAP_MAX_DOUBLINGS``
    fails too.
    """
    radius = float(radius)
    if radius <= 0.0:
        raise ValueError("radius must be positive")

    def make_fields(m):
        def blend(r):
            return ((2.0 * r - radius) / radius) ** 2

        def blend_d(r):
            return 4.0 * (2.0 * r - radius) / radius**2

        def tau(r, th):
            outer = blend(r) * boundary.value(th) + m * (1.0 / r - 1.0 / radius)
            return np.where(r >= 0.5 * radius, outer, m / radius)

        def tau_r(r, th):
            outer = blend_d(r) * boundary.value(th) - m / r**2
            return np.where(r >= 0.5 * radius, outer, 0.0)

        def tau_th(r, th):
            return np.where(r >= 0.5 * radius, blend(r) * boundary.derivative(th), 0.0)

        return tau, tau_r, tau_th

    rr = np.linspace(0.5 * radius, radius, _CAP_GRID)[:, None]
    tt = np.linspace(0.0, TWO_PI, _CAP_GRID, endpoint=False)[None, :]
    m = 1.0
    for _ in range(_CAP_MAX_DOUBLINGS + 1):
        tau, tau_r, tau_th = make_fields(m)
        min_delta, _ = _min_delta(rr, tau_r(rr, tt), tau_th(rr, tt))
        if min_delta > _CAP_DELTA_FLOOR:
            return GraphSurface.from_functions(
                0.0, radius, tau, tau_r, tau_th, punctured=False,
                params={"cap_constant": m, "certified_min_delta": min_delta},
            )
        m *= 2.0
    raise CertificationError(
        f"no spacelike cap found with slope constant up to 2^{_CAP_MAX_DOUBLINGS}"
    )


# =========================================================================
# Composite surfaces
# =========================================================================


@dataclass(frozen=True)
class CompositeSurface:
    """Report on a two-piece Cauchy surface glued along a circle."""

    outer: GraphSurface
    inner: GraphSurface
    interface_radius: float
    max_mismatch: float
    outer_min_slack: float
    inner_min_slack: float
    spacelike: bool
    crosses_line: bool


def assemble_cauchy(outer: GraphSurface, inner: GraphSurface) -> CompositeSurface:
    """Glue an annular outer piece to an inner piece sharing a circle.

    The pieces must live in the same ambient model; the outer inner radius
    must equal the inner piece's outer radius, and the two height traces on
    that circle must agree within 1e-9 at 512 angles (otherwise
    :class:`BoundaryMismatchError`).  The report records sampled spacelike
    slack minima for both pieces and whether the composite crosses the line.
    """
    if outer.alpha != inner.alpha:
        raise ValueError("ambient cone angles differ")
    ri = outer.r_inner
    if abs(inner.radius - ri) > 1.0e-12 * max(1.0, ri):
        raise ValueError(
            f"interface radii differ: outer starts at {ri!r}, inner ends at {inner.radius!r}"
        )
    ths = np.linspace(0.0, TWO_PI, 512, endpoint=False)
    trace_outer = np.broadcast_to(outer.tau(ri, ths), ths.shape)
    trace_inner = np.broadcast_to(inner.tau(ri, ths), ths.shape)
    mismatch = float(np.max(np.abs(trace_outer - trace_inner)))
    if mismatch > 1.0e-9:
        raise BoundaryMismatchError(
            f"boundary traces differ by {mismatch:.3e} at r = {ri!r}"
        )
    outer_min = min_spacelike_slack(outer)[0]
    inner_min = min_spacelike_slack(inner)[0]
    return CompositeSurface(
        outer=outer,
        inner=inner,
        interface_radius=ri,
        max_mismatch=mismatch,
        outer_min_slack=outer_min,
        inner_min_slack=inner_min,
        spacelike=outer_min > 0.0 and inner_min > 0.0,
        crosses_line=inner.r_inner == 0.0 and not inner.punctured,
    )
