"""Graph Cauchy surfaces over the model tubes and their surgeries.

A graph surface over radius coordinates is {time = f(r, theta)}.  In the
extremal ambient the induced metric of the graph is

    [[1 - 2 f_r, -f_th], [-f_th, r^2]],

with determinant r^2 * delta where

    delta(r, theta) = 1 - 2 f_r - (f_th / r)^2;

the graph is spacelike exactly where delta > 0.  In a massive ambient of
angle alpha (a = alpha / 2 pi) the induced metric is

    [[1 - f_r^2, -f_r f_th], [-f_r f_th, (a r)^2 - f_th^2]],

spacelike exactly where 1 - f_r^2 - (f_th / (a r))^2 > 0.  Both are the
pullback of the chart form of :func:`btzgeo.models.chart_form`, from which
:func:`delta_field` and :func:`induced_metric` are evaluated.

Toward a puncture at r = 0 the radial part of the extremal induced metric is
at least delta dr^2, so a positive lower bound C^2 <= r^2 delta forces radial
length >= C * ln(r1/r0): :func:`completeness_certificate` reports
C = sqrt(inf r^2 delta) sampled on a grid.  The two surgeries attach to a
boundary trace b(theta) at r = R either a complete end (slope field
M (1/r - 1/R) with M = 1 + max b'^2, giving r^2 delta = r^2 + 2M - b'^2 > 1)
or a compact cap (blended field, constant inside r = R/2, with the least
slope constant M = 2^k whose spacelike slack is certified on a grid).  On the
cap's blend ring r^2 delta = 2M + g(r, theta) with g free of M, so k is
predicted from M-free grids and then checked exactly; since every float step
of the slack is monotone in M, this finds the doubling, and the certified
slack bits, that trying M = 1, 2, 4, ... in turn would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryMismatchError, CertificationError
from .models import TWO_PI, chart_form, is_valid_cone_angle


# cap certification (extend_boundary_cap): slack floor, grid size, largest k of M = 2^k
_CAP_DELTA_FLOOR = 1.0e-9
_CAP_GRID = 512
_CAP_MAX_DOUBLINGS = 60


# =========================================================================
# Boundary curves
# =========================================================================


@dataclass(frozen=True)
class BoundaryCurve:
    """A smooth 2 pi periodic height trace and its derivative: two callables of angles."""

    value: callable
    derivative: callable

    @staticmethod
    def from_trig(constant=0.0, cos_coeffs=(), sin_coeffs=()):
        """Trigonometric polynomial sum_k (c_k cos k th + s_k sin k th), finite c_k, s_k."""
        cos_coeffs = tuple(float(c) for c in cos_coeffs)
        sin_coeffs = tuple(float(s) for s in sin_coeffs)
        constant = float(constant)
        if not all(map(math.isfinite, (constant, *cos_coeffs, *sin_coeffs))):
            raise ValueError("trig coefficients must be finite")

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
        """Sampled surface, bilinear between nodes; partials by finite differences.

        ``r_nodes`` are at least 3 (tau_r is a second-order difference) and
        increase from r > 0 (from r >= 0 unless punctured),
        ``theta_nodes`` are uniform on [0, 2 pi) from 0 and closed by 2 pi
        (theta is taken mod 2 pi).  On each axis the cell is i =
        clip(searchsorted(nodes, x, side="right") - 1, 0, n - 2) with
        y = (x - nodes[i]) / (nodes[i+1] - nodes[i]); the value
        v[i,j](1-y0)(1-y1) + v[i,j+1](1-y0)y1 + v[i+1,j]y0(1-y1) + v[i+1,j+1]y0y1
        is added left to right; radii outside the nodes extrapolate the edge cell.
        """
        r_nodes = np.asarray(r_nodes, dtype=float)
        theta_nodes = np.asarray(theta_nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.shape != (r_nodes.size, theta_nodes.size):
            raise ValueError("values must be shaped (n_r, n_theta)")
        # no nodes at all pass here and fail the count check below
        r_first_ok = not r_nodes.size or r_nodes[0] > 0.0 or (r_nodes[0] == 0.0 and not punctured)
        if not (r_first_ok and np.all(np.diff(r_nodes) > 0.0)):
            raise ValueError("r_nodes must be positive and increasing (0 starts a disc)")
        if r_nodes.size < 3:
            raise ValueError(f"need at least 3 radial nodes for tau_r, got {r_nodes.size}")
        h_th = TWO_PI / theta_nodes.size
        if theta_nodes[0] != 0.0 or not np.all(abs(np.diff(theta_nodes) - h_th) <= 1e-12):
            raise ValueError("theta_nodes must be uniform over [0, 2 pi) from 0")
        th_closed = np.append(theta_nodes, TWO_PI)

        d_r = np.gradient(values, r_nodes, axis=0, edge_order=2)
        d_th = (np.roll(values, -1, axis=1) - np.roll(values, 1, axis=1)) / (2 * h_th)

        def cell(nodes, x):
            i = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, nodes.size - 2)
            return i, (x - nodes[i]) / (nodes[i + 1] - nodes[i])

        def interp(grid_values):
            v = np.concatenate([grid_values, grid_values[:, :1]], axis=1)

            def ev(r, th):
                (i, y0), (j, y1) = cell(r_nodes, r), cell(th_closed, np.mod(th, TWO_PI))
                return (v[i, j] * (1 - y0) * (1 - y1) + v[i, j + 1] * (1 - y0) * y1
                        + v[i + 1, j] * y0 * (1 - y1) + v[i + 1, j + 1] * y0 * y1)

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

    From the chart form (c_tt, c_tr, s) of :func:`btzgeo.models.chart_form`:
    1 + f_r (c_tr + c_tt f_r) - (f_th / (s r))^2, which is 1 - 2 f_r -
    (f_th/r)^2 in the extremal ambient and 1 - f_r^2 - (f_th / (a r))^2 with
    a = alpha/2pi in a massive one.
    """
    c_tt, c_tr, s = chart_form(surface.alpha)

    def slack(r, th):
        r = np.asarray(r, dtype=float)
        f_r, f_th = surface.tau_r(r, th), surface.tau_theta(r, th)
        return 1.0 + f_r * (c_tr + c_tt * f_r) - (f_th / (s * r)) ** 2

    return slack


def induced_metric(surface: GraphSurface, r, th):
    """Induced 2-metric of the graph at (r, theta), shaped (..., 2, 2).

    The pullback of the chart form along time = f(r, theta); every c_tt term
    multiplies a single field factor, so a vanishing c_tt cannot meet an
    overflowed square.
    """
    c_tt, c_tr, s = chart_form(surface.alpha)
    r = np.asarray(r, dtype=float)
    th = np.asarray(th, dtype=float)
    f_r = surface.tau_r(r, th)
    f_th = surface.tau_theta(r, th)
    r, th, f_r, f_th = np.broadcast_arrays(r, th, f_r, f_th)
    g = np.zeros(r.shape + (2, 2))
    g[..., 0, 0] = 1.0 + f_r * (c_tr + c_tt * f_r)
    # f_th (c_tt f_r + c_tr / 2), arranged so that a zero keeps the sign of
    # the closed forms -f_th and -f_r f_th
    g[..., 0, 1] = g[..., 1, 0] = -f_th * (-0.5 * c_tr - c_tt * f_r)
    g[..., 1, 1] = (s * r) ** 2 + c_tt * f_th * f_th
    return g


def _r2_delta(rr2, f_r, f_th2, out):
    """Extremal r^2 delta = r^2 (1 - 2 f_r) - f_th^2 into ``out`` (may be ``f_r``).

    Every extremal slack scan and cap step takes it from here, in this order;
    certified cap constants depend on these bits, which round differently
    from :func:`delta_field`."""
    np.multiply(2.0, f_r, out=out)
    np.subtract(1.0, out, out=out)
    np.multiply(rr2, out, out=out)
    np.subtract(out, f_th2, out=out)
    return out


def min_spacelike_slack(surface: GraphSurface, n_r=256, n_theta=256):
    """(min delta, min r^2 delta) over a sampling grid of the domain.

    For surfaces reaching r = 0 the radial grid is geometric down to
    radius * 1e-4, probing the end; otherwise it is uniform on the domain.
    Extremal minima come from :func:`_r2_delta`, divided by r^2 for delta.
    """
    if surface.r_inner == 0.0:
        rs = np.geomspace(surface.radius * 1.0e-4, surface.radius, n_r)
    else:
        rs = np.linspace(surface.r_inner, surface.radius, n_r)
    rr = rs[:, None]
    tt = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)[None, :]
    if surface.alpha != 0.0:
        slack = delta_field(surface)(rr, tt)
        return float(np.min(slack)), float(np.min(rr**2 * slack))
    rr2 = rr**2
    f_r, f_th2 = surface.tau_r(rr, tt), surface.tau_theta(rr, tt) ** 2
    out = np.empty(np.broadcast_shapes(rr2.shape, np.shape(f_r), np.shape(f_th2)))
    min_r2 = float(_r2_delta(rr2, f_r, f_th2, out).min())
    return float(np.divide(out, rr2, out=out).min()), min_r2


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


# =========================================================================
# Surgeries
# =========================================================================


def extend_boundary_complete(boundary: BoundaryCurve, radius) -> GraphSurface:
    """Attach a complete spacelike end to a boundary trace at r = radius.

    The field is tau = b(theta) + M (1/r - 1/radius) with
    M = 1 + max b'^2, giving r^2 delta = r^2 + 2M - b'(theta)^2 >= 2 on the
    whole punctured domain (max b'^2 over 4096 angles); the boundary trace is
    matched exactly.  ``ValueError`` unless the radius is finite and positive.
    """
    radius = float(radius)
    if not 0.0 < radius < math.inf:
        raise ValueError("radius must be finite and positive")
    th = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    slope = 1.0 + float(np.max(boundary.derivative(th) ** 2))

    def tau(r, th):
        return boundary.value(th) + slope * (1.0 / r - 1.0 / radius)

    def tau_r(r, th):
        return -slope / r**2

    def tau_th(r, th):
        return boundary.derivative(th)

    return GraphSurface.from_functions(
        0.0, radius, tau, tau_r, tau_th, punctured=True, params={"slope": slope}
    )


def _cap_min_delta(m, rr2, p, f_th2, out):
    """Min delta on the cap grid at slope constant ``m``, written into ``out``:
    :func:`_r2_delta` at f_r = p - m / r^2 over r^2, from the M-free grids ``p`` =
    blend_d(r) b(theta) and ``f_th2`` = (blend(r) b'(theta))^2, ``rr2`` = r^2."""
    np.subtract(p, m / rr2, out=out)
    _r2_delta(rr2, out, f_th2, out)
    np.divide(out, rr2, out=out)
    return float(out.min())


def _predicted_doublings(rr2, p, f_th2, out):
    """Least k in [0, _CAP_MAX_DOUBLINGS] with 2^k >= M*, from the M-free grids.

    r^2 delta = r^2 (1 - 2 p) + 2M - f_th^2 is linear in M, so the floor
    delta > _CAP_DELTA_FLOOR holds at a node once M exceeds
    (_CAP_DELTA_FLOOR r^2 - :func:`_r2_delta` at f_r = p) / 2; M* is the
    largest of these over the grid.  Rounding can put the answer one doubling
    off and a non-finite M* gives the last doubling; :func:`extend_boundary_cap`
    checks the predicate exactly, so this only decides where the search starts.
    """
    with np.errstate(all="ignore"):  # a prediction must not raise under the caller's errstate
        _r2_delta(rr2, p, f_th2, out)
        np.subtract(_CAP_DELTA_FLOOR * rr2, out, out=out)
        m_star = 0.5 * float(out.max())
    if not math.isfinite(m_star):
        return _CAP_MAX_DOUBLINGS
    if m_star <= 1.0:
        return 0
    mantissa, exponent = math.frexp(m_star)  # m_star = mantissa 2^exponent, mantissa in [1/2, 1)
    return min(exponent - (mantissa == 0.5), _CAP_MAX_DOUBLINGS)


def extend_boundary_cap(boundary: BoundaryCurve, radius) -> GraphSurface:
    """Attach a compact cap crossing the line to a boundary trace at r = radius.

    The field blends the trace to a constant: with phi(r) = ((2r - R)/R)^2,

        tau = phi(r) b(theta) + M (1/r - 1/R)   on R/2 <= r <= R,
        tau = M / R                             on r <= R/2,

    continuous at r = R/2 (exactly, since 2/R - 1/R = 1/R in binary floats).
    The slope constant is the least M = 2^k, 0 <= k <= ``_CAP_MAX_DOUBLINGS``,
    whose spacelike slack sampled on a ``_CAP_GRID`` x ``_CAP_GRID`` grid of
    [R/2, R] x [0, 2 pi) exceeds ``_CAP_DELTA_FLOOR`` = 1e-9 (the inner part
    is flat, delta = 1); :class:`CertificationError` is raised when 2^60
    fails too, and ``ValueError`` unless the radius is finite and positive.

    The search uses that r^2 delta = 2M + g(r, theta) with g free of M.  The
    grids of blend_d(r) b(theta) and f_th^2 are built once (the trace and its
    derivative are evaluated once per angle), :func:`_predicted_doublings`
    guesses k, and the float predicate is then evaluated exactly at 2^k,
    stepping down while 2^(k-1) passes too, or up until a doubling passes.

    This finds the doubling that trying M = 1, 2, 4, ... in turn would, with
    the same ``certified_min_delta`` bits, because passing is monotone in M.
    Each step of the predicate is a correctly rounded operation monotone in
    its M-dependent operand: m / r^2 with r^2 > 0 grows with m, p - x falls
    with x, doubling and 1 - x preserve and reverse order, and the product
    with and the quotient by r^2 > 0 and the difference with f_th^2 keep it,
    so each grid value of delta, and their min, is non-decreasing in M.  The
    min propagates a NaN, which fails; a NaN at a larger M comes only from an
    infinite p, f_th^2 or r^2 or a zero r^2, each of which already fails, or
    leaves delta free of M, at every smaller M.  The prediction therefore
    decides only how many grid passes are made, never the result.
    """
    radius = float(radius)
    if not 0.0 < radius < math.inf:
        raise ValueError("radius must be finite and positive")

    def blend(r):
        return ((2.0 * r - radius) / radius) ** 2

    def blend_d(r):
        return 4.0 * (2.0 * r - radius) / radius**2

    # every grid radius is >= R/2, where tau_r and tau_th take their outer branch
    rr = np.linspace(0.5 * radius, radius, _CAP_GRID)[:, None]
    tt = np.linspace(0.0, TWO_PI, _CAP_GRID, endpoint=False)[None, :]
    rr2 = rr**2
    p = blend_d(rr) * boundary.value(tt)
    f_th2 = (blend(rr) * boundary.derivative(tt)) ** 2
    out = np.empty(np.broadcast_shapes(p.shape, f_th2.shape))

    def min_delta_at(k):
        return _cap_min_delta(math.ldexp(1.0, k), rr2, p, f_th2, out)

    k = _predicted_doublings(rr2, p, f_th2, out)
    min_delta = min_delta_at(k)
    if min_delta > _CAP_DELTA_FLOOR:
        while k > 0 and (lower := min_delta_at(k - 1)) > _CAP_DELTA_FLOOR:
            k, min_delta = k - 1, lower
    while not min_delta > _CAP_DELTA_FLOOR:
        if k == _CAP_MAX_DOUBLINGS:
            raise CertificationError(
                f"no spacelike cap found with slope constant up to 2^{_CAP_MAX_DOUBLINGS}"
            )
        k += 1
        min_delta = min_delta_at(k)
    m = math.ldexp(1.0, k)

    # outer branches at max(r, R/2): np.where drops them inside, where r = 0 would divide
    def tau(r, th):
        ro = np.maximum(r, 0.5 * radius)
        outer = blend(ro) * boundary.value(th) + m * (1.0 / ro - 1.0 / radius)
        return np.where(r >= 0.5 * radius, outer, m / radius)

    def tau_r(r, th):
        ro = np.maximum(r, 0.5 * radius)
        outer = blend_d(ro) * boundary.value(th) - m / ro**2
        return np.where(r >= 0.5 * radius, outer, 0.0)

    def tau_th(r, th):
        return np.where(r >= 0.5 * radius, blend(r) * boundary.derivative(th), 0.0)

    return GraphSurface.from_functions(
        0.0, radius, tau, tau_r, tau_th, punctured=False,
        params={"cap_constant": m, "certified_min_delta": min_delta},
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
