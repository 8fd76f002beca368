"""Causal structure of the model tubes.

Chart conventions follow :mod:`btzgeo.models`: the extremal (BTZ-type) tube
carries ``-2 dtau dr + dr^2 + r^2 dtheta^2`` and its singular line r = 0 is
null; massive cones carry ``-dt^2 + dr^2 + (alpha/2pi)^2 r^2 dtheta^2`` with
a timelike line.  Tangent and secant classes evaluate both through the
chart form of :func:`btzgeo.models.chart_form`, with no case per model.
Time orientation is by the time coordinate.

Closed-form causal relation of the extremal tube
------------------------------------------------
The developing map ``D`` of :mod:`btzgeo.develop` is an isometry of the
regular cover onto the Minkowski half-space {t - x > 0}, so causality
questions reduce to Minkowski ones over the possible windings.  For regular
points p, q with dt = tau_q - tau_p, dr = r_q - r_p and phi the angle
difference reduced to [-pi, pi), the displacement of the winding-n lift has

    q-form = dr^2 - 2 dt dr + r_p r_q (phi + 2 pi n)^2,

minimised by n = 0.  Hence q lies in the causal future of p iff

    dt > 0,  dr >= 0,  r_p r_q phi^2 <= dr (2 dt - dr),

(with the chronological relation given by strict inequalities), and a
radius-decreasing displacement is never causal.  From a point on the line
the relation is ``dt >= r_q / 2`` (the boundary null curves are the radial
exits (tau + s/2, s, theta)); along the line it is ``dt >= 0``; a regular
point never reaches the line again.  These formulas are cross-checked in the
tests against a winding-search oracle built directly on the developing map
and against breadth-first search over grid secants
(:func:`grid_reachability`).

Volume time
-----------
The volume time ln mu(J-(p)) / mu(J+(p)) counts the points of a shared
random pool in each cone of p.  The cones are closed, so both hold p
itself.  Both counts come from one margin taken in p's frame,
dt = tau - tau_p and dr = r - r_p: q is reached when
r_p r phi^2 <= dr (2 dt - dr), and lies in J+(p) if also dt >= 0 (the
relation above, closed: at dt = 0 the margin leaves only q = p) and in
J-(p) if dt <= 0 (p in J+(q): the margin is even under (dt, dr) ->
(-dt, -dr)).  Once q is reached, dr > 0 forces dt >= dr / 2 > 0 and dr < 0
forces dt <= dr / 2 < 0, so dt decides only at dr = 0 and the sign of dr
needs no test.  Nor does the line: at r_p = 0 the inequality is the exit
relation dt >= r / 2, and a pool point on the line has dr = -r_p and an
angular term of 0 exactly, so its margin -r_p (2 dt + r_p) >= 0 is the
exit relation dt <= -r_p / 2 (0 for p on the line: dt alone decides).
This holds for the computed dt and dr, as 2 dt is exact and a float
difference has the sign of the exact one; only when both factors of the
margin are below about 1e-154 can their product round to -0.0 and pass,
for regular and line points alike.

Counting on a sorted pool.  For r > r_p the relation reads dt >= T with

    T(r, phi) = dr / 2 + r_p r phi^2 / (2 dr),

which grows with |phi| while, in r, the term dr / 2 grows and r / dr falls;
for r < r_p, J-(p) is the mirror case with -dt, rp - r and r / (r_p - r),
which grows in r.  The pool is bucketed into 32 r x 32 theta buckets and
sorted by bucket, then by tau (one argsort of the float key
bucket * 2 span + (tau - t_min)).  Each bucket keeps the actual min and max
of r and theta of its points, so its T_lo and T_hi are closed forms of its
(r, |phi|) corners; a bucket whose theta range crosses phi = +-pi has
|phi| up to pi.  Per query, points past T_hi + eps (eps = 1e-7) are surely
in and are counted by ``searchsorted`` on the key; points short of
T_lo - eps are surely out; only the band between goes through
:func:`_count_members`, with the elementwise arithmetic of a full scan.  A
bucket whose r range comes within 1e-4 of r_p is evaluated whole; a line
point's threshold T = r_p / 2 is its bucket's r = 0 corner.

Why the bands are exact.  With u = 2^-53, the rounding of the key, of the
thresholds and of the margin (divided by 2 |dr|) comes to at most

    delta = u (8 (1024 span + max |t|) + 64 (R^2 pi^2 + R span) / 1e-4)

in units of dt, about 3e-9 on the tube R = 2, span = 1; the |phi| bounds
are widened by 16 u (|theta_p| + 4 pi), which covers the rounding of the
angle reduction.  A sure point has |dr| > 1e-4, so its float margin
dr (2 dt - dr) - r_p r phi^2 = 2 |dr| (|dt| - T) clears zero by at least
2e-4 (eps - delta), about 2e-11, where the margin's own rounding is below
3e-13; the full scan gives it the same verdict, and its dt and dr signs
hold because T >= |dr| / 2.  A pool whose delta exceeds eps / 2 (a region of a much
larger scale) evaluates every bucket whole.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateMeasureError, SingularPointError
from .develop import develop_btz, develop_btz_inverse
from .lorentz import causal_label
from .models import ModelPoint, TubeRegion, TWO_PI, chart_form, in_region

_DEFAULT_TOL = 1.0e-9


def _wrap_pi(x):
    """Reduce angles to [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + math.pi, TWO_PI) - math.pi


def _as_point(p) -> ModelPoint:
    """A point of the extremal tube as a :class:`ModelPoint`; tuples are
    (tau, r, theta) and are validated there, other cone angles raise."""
    if isinstance(p, ModelPoint):
        if p.angle != 0.0:
            raise ValueError(f"cone angle mismatch: point {p.angle!r}, extremal tube 0.0")
        return p
    t, r, h = (float(v) for v in p)
    return ModelPoint(0.0, t, r, h)


def _as_triple(p):
    p = _as_point(p)
    return float(p.time), float(p.r), float(p.theta)


# =========================================================================
# Tangent vectors
# =========================================================================


def tangent_class(alpha, point_or_r, v):
    """Causal class of a chart tangent vector at radius r > 0.

    ``point_or_r`` is a :class:`ModelPoint` or a bare radius.  Returns the
    same labels as :func:`btzgeo.lorentz.classify_vector`, from the chart
    form of the alpha-model; the future side is decided by the time
    component (any causal vector with vanishing time component is zero in
    these metrics); the null cut is 1e-9 of the vector's squared size.
    Non-finite vectors and a point of another cone angle raise
    ``ValueError``.
    """
    c_tt, c_tr, s = chart_form(alpha)
    if isinstance(point_or_r, ModelPoint):
        if point_or_r.angle != alpha:
            raise ValueError(
                f"cone angle mismatch: point {point_or_r.angle!r}, model {alpha!r}"
            )
        r = point_or_r.r
    else:
        r = float(point_or_r)
    if r <= 0.0:
        raise SingularPointError("tangent classification requires r > 0")
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if float(np.dot(v, v)) == 0.0:
            return "zero"
        q = v[0] * (c_tt * v[0] + c_tr * v[1]) + v[1] ** 2 + (s * r * v[2]) ** 2
        cut = _DEFAULT_TOL * (v[0] ** 2 + v[1] ** 2 + (r * v[2]) ** 2)
    return causal_label(q, cut, v[0])


# =========================================================================
# Curve validation
# =========================================================================


def _segment_codes(alpha, pts, tol):
    """Per-segment codes for sampled curves: 2 chronological, 1 causal, 0 bad.

    ``pts`` is (..., n, 3); codes come back shaped (..., n-1).  Every
    segment gets the secant test of the chart form at its larger radius.  A
    segment touching the line has no angle term (the line is one point per
    time), and one along the line is null when the line is (c_tt = 0) and
    timelike otherwise.  On a null line the radius never decreases along a
    causal curve, so a decreasing secant is a violation outright.  Angle
    differences between consecutive samples are reduced to [-pi, pi)
    (nearest-lift convention: curves are expected to be sampled finely enough
    that no segment winds half a turn).  A secant form or cut that is not
    finite raises ``ValueError``.
    """
    c_tt, c_tr, s = chart_form(alpha)
    t1, r1, h1 = pts[..., :-1, 0], pts[..., :-1, 1], pts[..., :-1, 2]
    t2, r2, h2 = pts[..., 1:, 0], pts[..., 1:, 1], pts[..., 1:, 2]
    line1, line2 = r1 == 0.0, r2 == 0.0
    rmax = np.where(line1 | line2, 0.0, np.maximum(r1, r2))
    with np.errstate(over="ignore", invalid="ignore"):
        dt = t2 - t1
        dr = r2 - r1
        dphi = _wrap_pi(h2 - h1)
        q = dt * (c_tt * dt + c_tr * dr) + dr**2 + (s * rmax * dphi) ** 2
        cut = tol * (dt**2 + dr**2 + (rmax * dphi) ** 2)
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(cut))):
        raise ValueError("secant form overflows: curve coordinates are too large")
    codes = np.where(q < -cut, 2, np.where(q <= cut, 1, 0)).astype(np.int8)
    codes[~(dt > 0.0) | ((c_tt == 0.0) & (dr < 0.0))] = 0
    codes[line1 & line2 & (dt > 0.0)] = 1 if c_tt == 0.0 else 2
    return codes


def validate_causal(alpha, samples, tol=_DEFAULT_TOL):
    """Classify an (n, 3) sampled curve of chart points (time, r, theta),
    n >= 2, or a (..., n, 3) stack of them, as chronological, causal or invalid.

    Returns ``(kind, first_bad)``, a str and an int for one curve and arrays
    shaped (...) for a stack: ``kind`` is ``"valid-chronological"`` (every
    segment strictly timelike), ``"valid-causal"`` or ``"violation"``, and
    ``first_bad`` the first violating segment, or -1.  For the extremal tube
    a regular segment with decreasing radius is a violation, which makes
    "validated causal curves have non-decreasing radius" exact.  Non-finite
    samples, secant forms that overflow, negative radii and invalid cone
    angles raise ``ValueError``.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim < 2 or pts.shape[-1] != 3 or pts.shape[-2] < 2:
        raise ValueError("expected an (n, 3) curve or (..., n, 3) stack with n >= 2")
    if not np.all(np.isfinite(pts)):
        raise ValueError("curve samples must be finite")
    if np.any(pts[..., 1] < 0.0):
        raise ValueError("negative radius in curve samples")
    codes = _segment_codes(alpha, pts, tol)
    has_bad = np.any(codes == 0, axis=-1)
    first_bad = np.where(has_bad, np.argmax(codes == 0, axis=-1), -1)
    all_chron = np.all(codes == 2, axis=-1)
    kinds = np.where(
        has_bad,
        "violation",
        np.where(all_chron, "valid-chronological", "valid-causal"),
    )
    if pts.ndim == 2:
        return str(kinds), int(first_bad)
    return kinds, first_bad


# =========================================================================
# Closed-form causal relation (extremal tube)
# =========================================================================


def btz_causal_future(p, q, tol=_DEFAULT_TOL) -> str:
    """Locate q relative to the causal future of p in the extremal tube.

    Returns ``"inside"`` (interior point of J+(p)), ``"boundary"`` or
    ``"outside"``.  See the module docstring for the closed forms; the
    tolerance separates the three verdicts by relative margins.
    """
    tp, rp, hp = _as_triple(p)
    tq, rq, hq = _as_triple(q)
    dt = tq - tp
    if (tp, rp, hp) == (tq, rq, hq):
        return "boundary"
    if rp == 0.0:
        if rq == 0.0:
            s = tol * (1.0 + abs(dt))
            if dt > s:
                return "inside"
            return "boundary" if dt >= -s else "outside"
        val = dt - 0.5 * rq
        s = tol * (1.0 + abs(dt) + rq)
        if val > s:
            return "inside"
        return "boundary" if val >= -s else "outside"
    if rq == 0.0:
        return "outside"
    dr = rq - rp
    phi = float(_wrap_pi(hq - hp))
    margin = dr * (2.0 * dt - dr) - rp * rq * phi**2
    s_len = tol * (1.0 + abs(dt) + abs(dr) + math.sqrt(rp * rq) * abs(phi))
    s_q = tol * (1.0 + dt**2 + dr**2 + rp * rq * phi**2)
    if dt > s_len and dr > s_len and margin > s_q:
        return "inside"
    if dt >= -s_len and dr >= -s_len and margin >= -s_q:
        return "boundary"
    return "outside"


def btz_connecting_curve(p, q):
    """An explicit causal curve from p to q, sampled as an (m, 3) array.

    For regular endpoints the curve is the pullback under the developing map
    of the straight Minkowski segment joining the minimal-winding lifts; for
    a start on the line it is a radial null exit followed by a vertical null
    segment.  Raises ``ValueError`` when q is outside the causal future.
    Consecutive samples always satisfy the closed-form relation; note that
    the coordinate secants of a coarsely sampled causal curve need not pass
    the conservative secant test of :func:`validate_causal`.
    """
    if btz_causal_future(p, q) == "outside":
        raise ValueError("q is not in the causal future of p")
    tp, rp, hp = _as_triple(p)
    tq, rq, hq = _as_triple(q)
    n = 65
    if rp == 0.0:
        if rq == 0.0:
            taus = np.linspace(tp, tq, n)
            return np.stack([taus, np.zeros(n), np.full(n, hp)], axis=1)
        m1 = max(2, n // 2)
        s = np.linspace(0.0, rq, m1)
        exit_part = np.stack([tp + 0.5 * s, s, np.full(m1, hq)], axis=1)
        m2 = max(2, n - m1)
        taus = np.linspace(tp + 0.5 * rq, tq, m2)
        vert = np.stack([taus, np.full(m2, rq), np.full(m2, hq)], axis=1)
        return np.concatenate([exit_part, vert[1:]], axis=0)
    phi = float(_wrap_pi(hq - hp))
    start = develop_btz(np.array([tp, rp, hp]))
    end = develop_btz(np.array([tq, rq, hp + phi]))
    s = np.linspace(0.0, 1.0, n)[:, None]
    seg = start[None, :] * (1.0 - s) + end[None, :] * s
    curve = develop_btz_inverse(seg)
    curve[:, 2] = np.mod(curve[:, 2], TWO_PI)
    curve[0] = (tp, rp, hp % TWO_PI)
    curve[-1] = (tq, rq, hq % TWO_PI)
    return curve


# =========================================================================
# Volume time
# =========================================================================


@dataclass(frozen=True)
class MeasureConfig:
    """Weights and sample count for the two-stratum volume measure.

    The measure is ``weight3 * (r dtau dr dtheta)`` on the regular part plus
    ``weight1 * dtau`` on the singular line.  Weights are finite and
    nonnegative, not both zero; ``n_samples`` is a positive integer.
    """

    weight3: float = 1.0
    weight1: float = 0.0
    n_samples: int = 100_000

    def __post_init__(self):
        if not (math.isfinite(self.weight3) and math.isfinite(self.weight1)):
            raise ValueError("weights must be finite")
        if self.weight3 < 0.0 or self.weight1 < 0.0:
            raise ValueError("weights must be nonnegative")
        if self.weight3 == 0.0 and self.weight1 == 0.0:
            raise ValueError("at least one weight must be positive")
        if not isinstance(self.n_samples, numbers.Integral):
            raise TypeError(f"n_samples must be an integer, got {self.n_samples!r}")
        if self.n_samples < 1:
            raise ValueError("need at least one sample")


@dataclass(frozen=True)
class VolumeTimeResult:
    """Estimate of the volume time ln(mu(J-)/mu(J+)) with its uncertainty.

    The 3d strata are Monte Carlo estimates sharing one fixed pool per
    (region, n_samples, seed); the line stratum is computed exactly, so it
    contributes no variance.  ``stderr`` propagates the binomial standard
    errors of both volume estimates through the logarithm.
    """

    value: float
    stderr: float
    past_volume: float
    future_volume: float
    past_stderr: float
    future_stderr: float
    n_samples: int
    seed: int


# The sorted pool: radial and angular bucket counts, the band half-width in
# tau, and the radial gap to r_p below which a bucket is evaluated whole.
_R_BUCKETS = 32
_TH_BUCKETS = 32
_BAND_EPS = 1.0e-7
_BAND_DR = 1.0e-4
_ULP = 2.0**-53  # unit roundoff of float64

# Radial steps of the grid BFS stencil per tau slice (see grid_reachability).
_RADIAL_STEPS = (0, 1, 2)


@dataclass(frozen=True, eq=False)
class _SortedPool:
    """A volume-time pool sorted by (r, theta) bucket, then by tau.

    ``key`` is the sort key bucket * stride + (tau - t_min).  The per-bucket
    arrays cover the non-empty buckets in key order: ``offset`` is the
    bucket's key offset, [start, stop) its slice of the pool, and
    ``r_lo``..``h_hi`` the actual ranges of its r and theta.  ``banded`` is
    False when the region's scale would let rounding reach the band
    half-width (see the module docstring); then every bucket is evaluated
    whole.
    """

    tau: np.ndarray
    r: np.ndarray
    th: np.ndarray
    key: np.ndarray
    t_min: float
    offset: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    r_lo: np.ndarray
    r_hi: np.ndarray
    h_lo: np.ndarray
    h_hi: np.ndarray
    banded: bool


@lru_cache(maxsize=16)
def _sample_pool(region: TubeRegion, n: int, seed: int) -> _SortedPool:
    rng = np.random.default_rng(seed)
    tau = rng.uniform(region.t_min, region.t_max, n)
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    r *= region.radius
    th = rng.uniform(0.0, TWO_PI, n)
    return _sort_pool(region, tau, r, th)


def _sort_pool(region: TubeRegion, tau, r, th) -> _SortedPool:
    """Sort pool arrays in place by bucket, then tau, and index the buckets.

    The points must lie in ``region`` with theta in [0, 2pi).  Temporaries
    are freed as soon as they are used (int32 bucket ids, one array at a
    time through the permutation), so the build peaks near the pool's own
    size plus a key and a permutation.
    """
    span = region.t_max - region.t_min
    stride = 2.0 * span  # tau - t_min may round up to span
    bucket = (r * (_R_BUCKETS / region.radius)).astype(np.int32)
    np.minimum(bucket, _R_BUCKETS - 1, out=bucket)
    bucket *= _TH_BUCKETS
    col = (th * (_TH_BUCKETS / TWO_PI)).astype(np.int32)
    np.minimum(col, _TH_BUCKETS - 1, out=col)
    bucket += col
    del col
    sizes = np.bincount(bucket, minlength=_R_BUCKETS * _TH_BUCKETS)
    key = tau - region.t_min
    key += bucket * stride
    del bucket
    order = np.argsort(key)
    key.sort()
    for arr in (tau, r, th):
        arr[:] = arr[order]
    del order
    for arr in (tau, r, th, key):
        arr.setflags(write=False)
    ids = np.flatnonzero(sizes)
    stop = np.cumsum(sizes[ids])
    start = stop - sizes[ids]
    t_abs = max(abs(region.t_min), abs(region.t_max))
    scale = region.radius * (region.radius * math.pi**2 + span)
    delta = _ULP * (8.0 * (_R_BUCKETS * _TH_BUCKETS * span + t_abs) + 64.0 * scale / _BAND_DR)
    return _SortedPool(
        tau=tau, r=r, th=th, key=key, t_min=region.t_min,
        offset=ids * stride, start=start, stop=stop,
        r_lo=np.minimum.reduceat(r, start), r_hi=np.maximum.reduceat(r, start),
        h_lo=np.minimum.reduceat(th, start), h_hi=np.maximum.reduceat(th, start),
        banded=delta <= 0.5 * _BAND_EPS,
    )


def _count_members(tau, r, th, tp, rp, hp):
    """Pool points in J-(p) and in J+(p) of the query p = (tp, rp, hp).

    Returns ``(past, future)`` from one margin taken in the query's frame
    (see the module docstring); the relation is applied exactly, without the
    tolerance fence of :func:`btz_causal_future`.  Both cones are closed: a
    pool point equal to p counts in each, for a query on the line or off it.
    :func:`_count_pool` runs it on the bands of a sorted pool.
    """
    # the angular term first: its temporaries are gone before dt and dr exist
    angular = rp * r * _wrap_pi(th - hp) ** 2
    dt = tau - tp
    dr = r - rp
    reach = angular <= dr * (2.0 * dt - dr)
    past = reach & (dt <= 0.0)
    future = reach & (dt >= 0.0)
    return int(np.count_nonzero(past)), int(np.count_nonzero(future))


def _count_pool(pool: _SortedPool, tp, rp, hp):
    """Pool points in J-(p) and in J+(p), equal to :func:`_count_members`
    over the whole pool: sure points are counted by ``searchsorted`` and only
    the bands go through the elementwise predicate (see the module
    docstring)."""
    future = pool.r_lo > rp + _BAND_DR
    past = pool.r_hi < rp - _BAND_DR
    banded = np.flatnonzero((future | past) & pool.banded)
    fut = future[banded]
    # |phi| over each banded bucket; a theta range across phi = +-pi reaches pi
    h_lo, h_hi = pool.h_lo[banded], pool.h_hi[banded]
    d0 = _wrap_pi(h_lo - hp)
    d1 = d0 + (h_hi - h_lo)
    inside = np.maximum(np.maximum(d0, -d1), 0.0)
    a_min = np.where(d1 >= math.pi, np.minimum(d0, TWO_PI - d1), inside)
    a_max = np.maximum(-d0, d1)
    slack = 16.0 * _ULP * (abs(hp) + 4.0 * math.pi)
    a_min = np.maximum(a_min - slack, 0.0)
    a_max = np.minimum(a_max + slack, math.pi)
    # T = |dr| / 2 + (r_p / 2) phi^2 r / |dr|: the first term is largest at
    # the far radius, the second at the near one (r_lo for J+, r_hi for J-)
    r_near = np.where(fut, pool.r_lo[banded], pool.r_hi[banded])
    r_far = np.where(fut, pool.r_hi[banded], pool.r_lo[banded])
    g_near, g_far = np.abs(r_near - rp), np.abs(r_far - rp)
    t_hi = 0.5 * g_far + 0.5 * rp * a_max**2 * r_near / g_near
    t_lo = 0.5 * g_near + 0.5 * rp * a_min**2 * r_far / g_far
    # the band in tau: [tp + T_lo - eps, tp + T_hi + eps) in J+ buckets with
    # the sure points above it, [tp - T_hi - eps, tp - T_lo + eps) in J-
    # buckets with the sure points below it; whole buckets are one band
    m = pool.start.size
    lo = np.full(m, -np.inf)
    hi = np.full(m, np.inf)
    lo[banded] = np.where(fut, tp + t_lo - _BAND_EPS, tp - t_hi - _BAND_EPS)
    hi[banded] = np.where(fut, tp + t_hi + _BAND_EPS, tp - t_lo + _BAND_EPS)
    keys = np.concatenate([lo, hi]) - pool.t_min + np.tile(pool.offset, 2)
    idx = np.clip(np.searchsorted(pool.key, keys), np.tile(pool.start, 2), np.tile(pool.stop, 2))
    lo_i, hi_i = idx[:m], np.maximum(idx[m:], idx[:m])
    sure_future = int(np.sum((pool.stop - hi_i)[future]))
    sure_past = int(np.sum((lo_i - pool.start)[past]))
    # one gather index over every band
    lens = hi_i - lo_i
    ends = np.cumsum(lens)
    take = np.arange(int(lens.sum())) + np.repeat(lo_i - (ends - lens), lens)
    past_n, future_n = _count_members(pool.tau[take], pool.r[take], pool.th[take], tp, rp, hp)
    return sure_past + past_n, sure_future + future_n


def _line_lengths(region: TubeRegion, tp, rp):
    """Lengths of J-(p) and J+(p) on the line: the radial null exit from line
    time tp - rp/2 reaches p; only a line point has line points in its future."""
    a, b = region.t_min, region.t_max
    past = max(0.0, min(b, tp - 0.5 * rp) - a)
    return past, (max(0.0, b - max(a, tp)) if rp == 0.0 else 0.0)


def volume_time_report(
    region: TubeRegion, point, config: MeasureConfig = MeasureConfig(), seed=0
) -> VolumeTimeResult:
    """Estimate the volume time at a point of an extremal tube region.

    Membership uses the causal-closure relation (J+/J-); the 3d parts of J
    and I differ by a measure-zero set, and the closure convention puts p in
    both cones and gives the line stratum of a point on the line its full
    past ray.  Raises :class:`DegenerateMeasureError` when either side has
    zero measure.
    """
    if region.angle != 0.0:
        raise ValueError("volume time is defined on extremal tube regions")
    p = _as_point(point)
    if not in_region(region, p):
        raise ValueError("point lies outside the region")
    tp, rp, hp = _as_triple(p)

    n = config.n_samples
    past, future = _count_pool(_sample_pool(region, n, int(seed)), tp, rp, hp)
    vol3 = (region.t_max - region.t_min) * math.pi * region.radius**2
    scale = config.weight3 * vol3
    frac_past, frac_future = past / n, future / n
    se_past = scale * math.sqrt(frac_past * (1.0 - frac_past) / n)
    se_future = scale * math.sqrt(frac_future * (1.0 - frac_future) / n)
    line_past, line_future = _line_lengths(region, tp, rp)
    mu_past = scale * frac_past + config.weight1 * line_past
    mu_future = scale * frac_future + config.weight1 * line_future

    for side, mu in (("past", mu_past), ("future", mu_future)):
        if mu <= 0.0:
            raise DegenerateMeasureError(side, mu)

    value = math.log(mu_past) - math.log(mu_future)
    stderr = math.sqrt((se_past / mu_past) ** 2 + (se_future / mu_future) ** 2)
    return VolumeTimeResult(
        value=value,
        stderr=stderr,
        past_volume=mu_past,
        future_volume=mu_future,
        past_stderr=se_past,
        future_stderr=se_future,
        n_samples=n,
        seed=int(seed),
    )


# =========================================================================
# Random causal curves
# =========================================================================

_LINE_FRACTION = 0.3  # share of sampled curves that start on the line


def sample_causal_curves(region: TubeRegion, n_curves, seed=0):
    """Random validated causal curves inside an extremal tube region.

    Returns an (n_curves, 9, 3) array of samples (8 steps).  The last 30%
    of the curves (rounded) start on the singular line (two line steps and
    a null-bounded exit), the rest start at regular points; every generated
    segment satisfies the secant test by construction, and radii never
    decrease.
    """
    if region.angle != 0.0:
        raise ValueError("causal curve sampling targets extremal tube regions")
    n_steps = 8
    rng = np.random.default_rng(seed)
    span = region.t_max - region.t_min
    radius = region.radius
    n_line = int(round(_LINE_FRACTION * n_curves))
    n_reg = n_curves - n_line

    def grow_regular(tau, r, th, steps):
        rows = [np.stack([tau, r, th], axis=1)]
        step_cap = 0.7 * span / n_steps
        # hard rim margin: points keep r <= 0.9 R and tau <= t_min + 0.9 span,
        # so both causal cones retain volume resolvable by modest MC pools
        rim = 0.9 * radius
        for _ in range(steps):
            dtau = rng.uniform(0.1, 1.0, tau.shape) * step_cap
            dr_max = np.minimum(1.9 * dtau, 0.9 * (rim - r))
            dr = rng.uniform(0.0, 1.0, tau.shape) * np.maximum(dr_max, 0.0)
            rmax = r + dr
            slack = np.maximum(2.0 * dtau * dr - dr**2, 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                dphi_max = np.where(rmax > 0.0, np.sqrt(slack) / rmax, 0.0)
            dphi = rng.uniform(-0.95, 0.95, tau.shape) * dphi_max
            tau = tau + dtau
            r = rmax
            th = np.mod(th + dphi, TWO_PI)
            rows.append(np.stack([tau, r, th], axis=1))
        return np.stack(rows, axis=1)

    tau0 = region.t_min + rng.uniform(0.02, 0.2, n_reg) * span
    r0 = rng.uniform(0.05, 0.5, n_reg) * radius
    th0 = rng.uniform(0.0, TWO_PI, n_reg)
    regular = grow_regular(tau0, r0, th0, n_steps)

    tau0 = region.t_min + rng.uniform(0.02, 0.1, n_line) * span
    th0 = np.zeros(n_line)
    line1 = tau0 + rng.uniform(0.01, 0.04, n_line) * span
    line2 = line1 + rng.uniform(0.01, 0.04, n_line) * span
    dtau_exit = rng.uniform(0.02, 0.06, n_line) * span
    r_exit = rng.uniform(0.2, 1.0, n_line) * np.minimum(
        1.9 * dtau_exit, 0.3 * radius
    )
    th_exit = rng.uniform(0.0, TWO_PI, n_line)
    head = np.stack(
        [
            np.stack([tau0, np.zeros(n_line), th0], axis=1),
            np.stack([line1, np.zeros(n_line), th0], axis=1),
            np.stack([line2, np.zeros(n_line), th0], axis=1),
            np.stack([line2 + dtau_exit, r_exit, th_exit], axis=1),
        ],
        axis=1,
    )
    tail = grow_regular(
        head[:, -1, 0].copy(), head[:, -1, 1].copy(), head[:, -1, 2].copy(),
        n_steps - 3,
    )
    line = np.concatenate([head, tail[:, 1:]], axis=1)
    return np.concatenate([regular, line])


# =========================================================================
# Grid reachability oracle
# =========================================================================


@dataclass(frozen=True)
class ReachabilityGrid:
    """Breadth-first causal reachability over a tube grid.

    ``reach[i, j, k]`` says node (tau_i, r_j, theta_k) is reachable from the
    base node through steps of one tau slice whose secants pass the
    conservative causality test (q-form at the larger radius).  The r = 0
    column holds a single physical node per slice, stored replicated over k.
    """

    reach: np.ndarray
    taus: np.ndarray
    radii: np.ndarray
    thetas: np.ndarray
    base: tuple


def grid_reachability(
    base=(0, 0, 0),
    n_tau=41,
    n_r=41,
    n_theta=17,
) -> ReachabilityGrid:
    """BFS causal reachability on the extremal tube grid.

    The grid covers tau and r in [0, 1] with n_tau, n_r >= 2 and n_theta >= 1
    nodes.  The step stencil moves one tau slice forward, by one of
    ``_RADIAL_STEPS`` radial steps and at most one angular step; with equal
    tau and r spacing the purely radial steps (0 null vertical, 1 timelike,
    2 exactly null) realise the boundary of the causal future exactly.  Exits
    from the line reach every angle (the line is a single point per slice).
    The decision per edge is only the secant q-form test, independent of the
    closed-form relation.
    """
    if n_tau < 2 or n_r < 2 or n_theta < 1:
        raise ValueError(f"grid needs n_tau, n_r >= 2, n_theta >= 1, got {n_tau, n_r, n_theta}")
    i0, j0, k0 = map(operator.index, base)
    if not (0 <= i0 < n_tau and 0 <= j0 < n_r and 0 <= k0 < n_theta):
        raise ValueError(f"base node {tuple(base)} lies outside the grid")
    taus = np.linspace(0.0, 1.0, n_tau)
    radii = np.linspace(0.0, 1.0, n_r)
    thetas = np.arange(n_theta) * (TWO_PI / n_theta)
    h_tau = taus[1] - taus[0]
    h_th = TWO_PI / n_theta

    # Edge admissibility per (target j, radial step, angular step -1/0/+1):
    # q-form of the secant at the larger radius (the target, since radii
    # never decrease along edges).  linspace makes radii[dj] = dj * radii[1].
    dr = np.array(_RADIAL_STEPS)[None, :, None] * radii[1]
    rdphi = radii[:, None, None] * (np.array((-1, 0, 1)) * h_th)
    q = -2.0 * h_tau * dr + dr**2 + rdphi**2
    allowed = q <= _DEFAULT_TOL * (h_tau**2 + dr**2 + rdphi**2)
    exit_r = radii[1:3]  # exits from the line reach rows 1 and 2
    exit_ok = exit_r * (exit_r - 2.0 * h_tau) <= _DEFAULT_TOL * (h_tau**2 + exit_r**2)

    reach = np.zeros((n_tau, n_r, n_theta), dtype=bool)
    reach[i0, j0, k0 if j0 else slice(None)] = True  # a line base holds every angle

    for i in range(i0 + 1, n_tau):
        prev, cur = reach[i - 1], reach[i]
        # column 1 + k of pad is theta node k, wrapped one node each way
        pad = np.concatenate([prev[:, -1:], prev, prev[:, :1]], axis=1)
        cur[0, :] = prev[0, 0]
        for a, dj in enumerate(_RADIAL_STEPS):
            lo = max(dj, 1)  # the line row is handled separately
            for b, dk in enumerate((-1, 0, 1)):
                src = pad[lo - dj : n_r - dj, 1 - dk : 1 - dk + n_theta]
                cur[lo:] |= src & allowed[lo:, a, b, None]
        if prev[0, 0]:
            cur[1:3][exit_ok] = True
    return ReachabilityGrid(reach=reach, taus=taus, radii=radii, thetas=thetas, base=tuple(base))


def reachability_closed_form(grid: ReachabilityGrid) -> np.ndarray:
    """Idealised reachable set from a line base node via the closed form."""
    i0, j0, _ = grid.base
    if j0 != 0:
        raise ValueError("closed-form comparison targets line base nodes")
    t0 = grid.taus[i0]
    dt = grid.taus[:, None] - t0
    ok = dt >= 0.5 * grid.radii[None, :] - 1.0e-12
    return np.broadcast_to(ok[:, :, None], grid.reach.shape).copy()
