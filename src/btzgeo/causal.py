"""Causal structure of the model tubes.

Chart conventions follow :mod:`btzgeo.models`: the extremal (BTZ-type) tube
carries ``-2 dtau dr + dr^2 + r^2 dtheta^2`` and its singular line r = 0 is
null; massive cones carry ``-dt^2 + dr^2 + (alpha/2pi)^2 r^2 dtheta^2`` with
a timelike line.  Time orientation is by the time coordinate.

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
random pool in each cone of p.  Both counts come from one margin taken in
p's frame, dt = tau - tau_p and dr = r - r_p: a pool point q lies in J+(p)
by the relation above, and in J-(p) iff p lies in J+(q), which is the same
inequality r_p r phi^2 <= dr (2 dt - dr) with dt < 0 and dr <= 0 (the
margin is even under (dt, dr) -> (-dt, -dr)).  A query on the line needs no
case of its own: at r_p = 0 the inequality reads r (2 dt - r) >= 0, which is
the exit relation dt >= r / 2.  Only pool points on the line are treated
apart: they lie in J-(p) iff dt <= -r_p / 2 (the exit from there reaches p)
and in J+(p) only for p on the line, with dt >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateMeasureError, MalformedCurveError, SingularPointError
from .develop import develop_btz, develop_btz_inverse
from .models import ModelPoint, TubeRegion, TWO_PI, in_region, is_valid_cone_angle

_DEFAULT_TOL = 1.0e-9


def _wrap_pi(x):
    """Reduce angles to [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + math.pi, TWO_PI) - math.pi


def _as_triple(p):
    if isinstance(p, ModelPoint):
        return float(p.time), float(p.r), float(p.theta)
    t, r, h = (float(v) for v in p)
    if r < 0.0:
        raise ValueError(f"negative radius {r!r}")
    return t, r, h


# =========================================================================
# Tangent vectors
# =========================================================================


def tangent_class(alpha, point_or_r, v, tol=_DEFAULT_TOL):
    """Causal class of a chart tangent vector at radius r > 0.

    ``point_or_r`` is a :class:`ModelPoint` or a bare radius.  Returns the
    same labels as :func:`btzgeo.lorentz.classify_vector`; the future side is
    decided by the time component (any causal vector with vanishing time
    component is zero in these metrics).
    """
    if not is_valid_cone_angle(alpha):
        raise ValueError(f"invalid cone angle {alpha!r}")
    r = point_or_r.r if isinstance(point_or_r, ModelPoint) else float(point_or_r)
    if r <= 0.0:
        raise SingularPointError("tangent classification requires r > 0")
    v = np.asarray(v, dtype=float)
    norm2 = float(np.dot(v, v))
    if norm2 == 0.0:
        return "zero"
    if alpha == 0.0:
        q = -2.0 * v[0] * v[1] + v[1] ** 2 + (r * v[2]) ** 2
    else:
        a = alpha / TWO_PI
        q = -v[0] ** 2 + v[1] ** 2 + (a * r * v[2]) ** 2
    scale = tol * (v[0] ** 2 + v[1] ** 2 + (r * v[2]) ** 2)
    if q > scale:
        return "spacelike"
    side = "future" if v[0] > 0.0 else "past"
    if abs(q) <= scale:
        return f"lightlike-{side}"
    return f"timelike-{side}"


# =========================================================================
# Curve validation
# =========================================================================


@dataclass(frozen=True)
class CurveVerdict:
    """Outcome of :func:`validate_causal`.

    ``kind`` is one of ``"valid-chronological"``, ``"valid-causal"`` or
    ``"violation"``; for violations ``index`` is the first offending segment.
    """

    kind: str
    index: int | None = None

    @property
    def ok(self) -> bool:
        return self.kind != "violation"


def _segment_codes(alpha, pts, tol):
    """Per-segment codes for sampled curves: 2 chronological, 1 causal, 0 bad.

    ``pts`` is (..., n, 3); codes come back shaped (..., n-1).  Angle
    differences between consecutive samples are reduced to [-pi, pi)
    (nearest-lift convention: curves are expected to be sampled finely enough
    that no segment winds half a turn).
    """
    t1, r1, h1 = pts[..., :-1, 0], pts[..., :-1, 1], pts[..., :-1, 2]
    t2, r2, h2 = pts[..., 1:, 0], pts[..., 1:, 1], pts[..., 1:, 2]
    dt = t2 - t1
    dphi = _wrap_pi(h2 - h1)
    line1, line2 = r1 == 0.0, r2 == 0.0
    a = 1.0 if alpha == 0.0 else alpha / TWO_PI
    rmax = np.maximum(r1, r2)

    codes = np.zeros(dt.shape, dtype=np.int8)

    # Segments along the singular line: null for the extremal tube,
    # timelike for massive cones (including the regular axis alpha = 2 pi).
    on_line = line1 & line2
    line_code = 1 if alpha == 0.0 else 2
    codes = np.where(on_line & (dt > 0.0), line_code, codes)

    # Segments leaving or entering the line: radial secants.  For the
    # extremal tube entering the line means decreasing radius: violation.
    if alpha == 0.0:
        exit_ = line1 & ~line2
        qx = r2 * (r2 - 2.0 * dt)
        sx = tol * (dt**2 + r2**2)
        codes = np.where(exit_ & (dt > 0.0) & (qx < -sx), 2, codes)
        codes = np.where(exit_ & (dt > 0.0) & (qx >= -sx) & (qx <= sx), 1, codes)
    else:
        cross = line1 ^ line2
        rend = np.where(line1, r2, r1)
        qx = -(dt**2) + rend**2
        sx = tol * (dt**2 + rend**2)
        codes = np.where(cross & (dt > 0.0) & (qx < -sx), 2, codes)
        codes = np.where(cross & (dt > 0.0) & (qx >= -sx) & (qx <= sx), 1, codes)

    # Regular segments.
    reg = ~line1 & ~line2
    dr = r2 - r1
    if alpha == 0.0:
        q = -2.0 * dt * dr + dr**2 + (rmax * dphi) ** 2
        radial_ok = dr >= 0.0
    else:
        q = -(dt**2) + dr**2 + (a * rmax * dphi) ** 2
        radial_ok = np.ones_like(dt, dtype=bool)
    s = tol * (dt**2 + dr**2 + (rmax * dphi) ** 2)
    good = reg & (dt > 0.0) & radial_ok
    codes = np.where(good & (q < -s), 2, codes)
    codes = np.where(good & (q >= -s) & (q <= s), 1, codes)
    return codes


def validate_causal(alpha, samples, tol=_DEFAULT_TOL) -> CurveVerdict:
    """Classify a finely sampled curve as chronological, causal or invalid.

    ``samples`` is an (n, 3) array of chart points (time, r, theta), n >= 2.
    Every segment must be future directed; the verdict is chronological only
    when every segment is strictly timelike.  For the extremal tube a
    regular segment with decreasing radius is a violation outright, which
    makes "validated causal curves have non-decreasing radius" exact.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
        raise ValueError("expected an (n, 3) sample array with n >= 2")
    kinds, first_bad = validate_causal_batch(alpha, pts[None], tol)
    return CurveVerdict(str(kinds[0]), int(first_bad[0]) if first_bad[0] >= 0 else None)


def validate_causal_batch(alpha, batch, tol=_DEFAULT_TOL):
    """Vectorized :func:`validate_causal` over a (m, n, 3) sample stack.

    Returns (kinds, first_bad) where ``kinds`` is an array of the verdict
    strings and ``first_bad[i]`` is the first violating segment or -1.
    Non-finite samples, negative radii and invalid cone angles raise
    ``ValueError``.
    """
    pts = np.asarray(batch, dtype=float)
    if pts.ndim != 3 or pts.shape[2] != 3 or pts.shape[1] < 2:
        raise ValueError("expected an (m, n, 3) sample stack")
    if not np.all(np.isfinite(pts)):
        raise ValueError("curve samples must be finite")
    if not is_valid_cone_angle(alpha):
        raise ValueError(f"invalid cone angle {alpha!r}")
    if np.any(pts[..., 1] < 0.0):
        raise ValueError("negative radius in curve samples")
    codes = _segment_codes(alpha, pts, tol)
    has_bad = np.any(codes == 0, axis=1)
    first_bad = np.where(has_bad, np.argmax(codes == 0, axis=1), -1)
    all_chron = np.all(codes == 2, axis=1)
    kinds = np.where(
        has_bad,
        "violation",
        np.where(all_chron, "valid-chronological", "valid-causal"),
    )
    return kinds, first_bad


def decompose_btz(samples):
    """Split a curve of the extremal tube into its line prefix and regular tail.

    Singular samples (r = 0) of a causal curve can only form a contiguous
    initial segment (the radius never decreases); otherwise
    :class:`MalformedCurveError` is raised.  Either part may be empty.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("expected an (n, 3) sample array")
    on_line = pts[:, 1] == 0.0
    k = int(np.argmax(~on_line)) if np.any(~on_line) else pts.shape[0]
    if np.any(on_line[k:]):
        bad = k + int(np.argmax(on_line[k:]))
        raise MalformedCurveError(
            f"singular sample at index {bad} after regular samples"
        )
    return pts[:k], pts[k:]


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


def btz_causally_reachable(p, q, tol=_DEFAULT_TOL) -> bool:
    """Membership of q in the (closed) causal future J+(p)."""
    return btz_causal_future(p, q, tol=tol) != "outside"


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
    ``weight1 * dtau`` on the singular line.
    """

    weight3: float = 1.0
    weight1: float = 0.0
    n_samples: int = 100_000

    def __post_init__(self):
        if self.weight3 < 0.0 or self.weight1 < 0.0:
            raise ValueError("weights must be nonnegative")
        if self.weight3 == 0.0 and self.weight1 == 0.0:
            raise ValueError("at least one weight must be positive")
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


@lru_cache(maxsize=16)
def _sample_pool(region: TubeRegion, n: int, seed: int):
    rng = np.random.default_rng(seed)
    tau = rng.uniform(region.t_min, region.t_max, n)
    r = region.radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    th = rng.uniform(0.0, TWO_PI, n)
    for arr in (tau, r, th):
        arr.setflags(write=False)
    return tau, r, th


def _count_members(tau, r, th, tp, rp, hp):
    """Pool points in J-(p) and in J+(p) of the query p = (tp, rp, hp).

    Returns ``(past, future)`` from one margin taken in the query's frame
    (see the module docstring); the relation is applied exactly, without the
    tolerance fence of :func:`btz_causal_future`.
    """
    # the angular term first: its temporaries are gone before dt and dr exist
    angular = rp * r * _wrap_pi(th - hp) ** 2
    dt = tau - tp
    dr = r - rp
    on_line = r == 0.0
    reach = ~on_line & (angular <= dr * (2.0 * dt - dr))
    past = reach & (dt < 0.0) & (dr <= 0.0)
    past |= on_line & (dt <= -0.5 * rp)
    future = reach & (dt > 0.0) & (dr >= 0.0)
    future |= on_line & (dt >= 0.0) & (rp == 0.0)
    return int(np.count_nonzero(past)), int(np.count_nonzero(future))


def volume_time_report(
    region: TubeRegion, point, config: MeasureConfig = MeasureConfig(), seed=0
) -> VolumeTimeResult:
    """Estimate the volume time at a point of an extremal tube region.

    Membership uses the causal-closure relation (J+/J-); the 3d parts of J
    and I differ by a measure-zero set, and the closure convention gives the
    line stratum of a point on the line its full past ray.  Raises
    :class:`DegenerateMeasureError` when either side has zero measure.
    """
    if region.angle != 0.0:
        raise ValueError("volume time is defined on extremal tube regions")
    tp, rp, hp = _as_triple(point)
    probe = ModelPoint(0.0, tp, rp, hp)
    if not in_region(region, probe):
        raise ValueError("point lies outside the region")

    tau, r, th = _sample_pool(region, config.n_samples, int(seed))
    n = config.n_samples
    past, future = _count_members(tau, r, th, tp, rp, hp)
    vol3 = (region.t_max - region.t_min) * math.pi * region.radius**2
    scale = config.weight3 * vol3
    frac_past, frac_future = past / n, future / n
    se_past = scale * math.sqrt(frac_past * (1.0 - frac_past) / n)
    se_future = scale * math.sqrt(frac_future * (1.0 - frac_future) / n)
    # exact lengths of J-(p) and J+(p) on the line: the radial null exit
    # from line time tp - rp/2 reaches p, and only a line point has line
    # points in its future
    a, b = region.t_min, region.t_max
    line_past = max(0.0, min(b, tp - 0.5 * rp) - a)
    line_future = max(0.0, b - max(a, tp)) if rp == 0.0 else 0.0
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


def volume_time(
    region: TubeRegion, point, config: MeasureConfig = MeasureConfig(), seed=0
) -> float:
    """Value-only wrapper around :func:`volume_time_report`."""
    return volume_time_report(region, point, config, seed).value


# =========================================================================
# Random causal curves
# =========================================================================


def sample_causal_curves(region: TubeRegion, n_curves, seed=0, line_fraction=0.3):
    """Random validated causal curves inside an extremal tube region.

    Returns a list of (9, 3) sample arrays (8 steps).  A ``line_fraction``
    share of the curves starts on the singular line (two line steps and a
    null-bounded exit), the rest start at regular points; every generated
    segment satisfies the secant test by construction, and radii never
    decrease.
    """
    if region.angle != 0.0:
        raise ValueError("causal curve sampling targets extremal tube regions")
    n_steps = 8
    rng = np.random.default_rng(seed)
    span = region.t_max - region.t_min
    radius = region.radius
    n_line = int(round(line_fraction * n_curves))
    n_reg = n_curves - n_line
    curves = []

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

    if n_reg > 0:
        tau0 = region.t_min + rng.uniform(0.02, 0.2, n_reg) * span
        r0 = rng.uniform(0.05, 0.5, n_reg) * radius
        th0 = rng.uniform(0.0, TWO_PI, n_reg)
        batch = grow_regular(tau0, r0, th0, n_steps)
        curves.extend(batch[i] for i in range(n_reg))

    if n_line > 0:
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
        batch = np.concatenate([head, tail[:, 1:]], axis=1)
        curves.extend(batch[i] for i in range(n_line))
    return curves


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

    The grid covers tau and r in [0, 1].  The step stencil moves one tau
    slice forward and at most two radial steps and one angular step; with
    equal tau and r spacing the purely radial steps (1 null vertical, 1 timelike, 2 exactly null) realise the
    boundary of the causal future exactly.  Exits from the line reach every
    angle (the line is a single point per slice).  The decision per edge is
    only the secant q-form test, independent of the closed-form relation.
    """
    i0, j0, k0 = base
    taus = np.linspace(0.0, 1.0, n_tau)
    radii = np.linspace(0.0, 1.0, n_r)
    thetas = np.arange(n_theta) * (TWO_PI / n_theta)
    h_tau = taus[1] - taus[0]
    h_th = TWO_PI / n_theta

    # Edge admissibility per (target j, dj, dk): q-form of the secant at the
    # larger radius (the target, since radii never decrease along edges).
    djs = (0, 1, 2)
    dks = (-1, 0, 1)
    allowed = np.zeros((n_r, len(djs), len(dks)), dtype=bool)
    for a, dj in enumerate(djs):
        for b, dk in enumerate(dks):
            dr = radii[dj] - radii[0] if dj else 0.0
            dphi = dk * h_th
            q = -2.0 * h_tau * dr + dr**2 + (radii * dphi) ** 2
            scale = h_tau**2 + dr**2 + (radii * dphi) ** 2
            allowed[:, a, b] = q <= _DEFAULT_TOL * scale
    exit_ok = np.zeros(n_r, dtype=bool)
    for j in (1, 2):
        if j < n_r:
            dr = radii[j]
            q = dr * (dr - 2.0 * h_tau)
            exit_ok[j] = q <= _DEFAULT_TOL * (h_tau**2 + dr**2)

    reach = np.zeros((n_tau, n_r, n_theta), dtype=bool)
    if j0 == 0:
        reach[i0, 0, :] = True
    else:
        reach[i0, j0, k0] = True

    for i in range(i0 + 1, n_tau):
        prev = reach[i - 1]
        cur = np.zeros((n_r, n_theta), dtype=bool)
        cur[0, :] = prev[0, 0]
        for a, dj in enumerate(djs):
            for b, dk in enumerate(dks):
                rolled = np.roll(prev, dk, axis=1)
                contrib = np.zeros((n_r, n_theta), dtype=bool)
                if dj:
                    contrib[dj:, :] = rolled[:-dj, :]
                else:
                    contrib = rolled.copy()
                contrib[0, :] = False  # line handled separately
                contrib[:dj, :] = False
                cur |= contrib & allowed[:, a, b][:, None]
        if prev[0, 0]:
            for j in (1, 2):
                if j < n_r and exit_ok[j]:
                    cur[j, :] = True
        reach[i] = cur
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
