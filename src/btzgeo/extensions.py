"""Adding and removing singular lines; the nested-extension example.

A :class:`TubeChart` records a solid-tube chart of a flat spacetime: its
cone angle, radial and time extent, whether the singular line itself is part
of the chart, and the holonomy of the deck generator of its regular part.
The holonomy class is tied to the angle: parabolic for the extremal tube,
elliptic of the cone angle for massive cones, trivial for regular tubes.

The two surgeries are inverse to one another: :func:`adjoin_btz` completes a
punctured extremal chart with its null line (idempotent; massive or regular
charts raise :class:`NotBTZExtendableError`), and :func:`remove_btz` deletes
the line, returning the punctured chart together with a complete spacelike
surface of the punctured part produced by
:func:`btzgeo.surfaces.extend_boundary_complete`.

:func:`chain_membership` decides, for arrays of points, the strictly nested
sequence of spacetimes showing that extendability is not monotone under
inclusion: a globally hyperbolic piece below a horizon, the full complement
of a causal future, that complement with the past half-line adjoined, and
the whole extremal tube.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .develop import btz_holonomy_generator, massive_holonomy_generator
from .errors import NotBTZExtendableError
from .lorentz import LorentzIsometry, classify_isometry
from .models import TWO_PI, ModelPoint, TubeRegion, is_singular
from .surfaces import BoundaryCurve, extend_boundary_complete

_ANGLE_TOL = 1.0e-9


@dataclass(frozen=True)
class TubeChart:
    """A solid-tube chart with its deck holonomy.

    Invariants enforced on construction: the angle, radius and time extent
    obey :class:`btzgeo.models.TubeRegion`'s rules, a chart containing its
    singular line must have a singular angle, and the holonomy class must
    match the angle (parabolic iff angle 0; for massive cones the class of
    the cone's own rotation, elliptic of the cone angle unless the rotation
    is too small to classify as anything but the identity; identity for
    regular tubes).
    """

    angle: float
    radius: float
    t_min: float
    t_max: float
    has_singular_line: bool
    holonomy: LorentzIsometry

    def __post_init__(self):
        TubeRegion(self.angle, self.radius, self.t_min, self.t_max)
        if self.has_singular_line and not is_singular(self.angle):
            raise ValueError("regular tubes contain no singular line")
        info = classify_isometry(self.holonomy)
        if self.angle == 0.0:
            if info["kind"] != "parabolic":
                raise ValueError(
                    f"extremal charts need parabolic holonomy, got {info['kind']}"
                )
        elif not is_singular(self.angle):
            if info["kind"] != "identity":
                raise ValueError(
                    f"regular tubes need trivial holonomy, got {info['kind']}"
                )
        else:
            # within ~3e-5 of 0 or 2 pi the cone's own rotation classifies as
            # the identity, so the holonomy must match that class instead
            generator = classify_isometry(massive_holonomy_generator(self.angle))
            expected = min(self.angle % TWO_PI, TWO_PI - self.angle % TWO_PI)
            if info["kind"] != generator["kind"] or (
                info["kind"] == "elliptic" and abs(info["angle"] - expected) > _ANGLE_TOL
            ):
                raise ValueError(
                    f"massive charts need {generator['kind']} holonomy of the cone "
                    f"angle; got {info['kind']} ({info.get('angle')})"
                )


def extremal_chart(radius=1.0, t_min=-1.0, t_max=1.0, with_line=False) -> TubeChart:
    """Convenience constructor for an extremal tube chart."""
    return TubeChart(
        angle=0.0,
        radius=float(radius),
        t_min=float(t_min),
        t_max=float(t_max),
        has_singular_line=bool(with_line),
        holonomy=btz_holonomy_generator(),
    )


def adjoin_btz(chart: TubeChart) -> TubeChart:
    """Complete a punctured extremal chart with its null singular line.

    Idempotent: a chart already containing the line is returned unchanged.
    Charts of nonzero angle (massive or regular) are never extendable this
    way and raise :class:`NotBTZExtendableError`.
    """
    if chart.has_singular_line:
        return chart
    if chart.angle != 0.0:
        raise NotBTZExtendableError(
            f"cone angle {chart.angle!r} does not admit a null line"
        )
    return dataclasses.replace(chart, has_singular_line=True)


def remove_btz(chart: TubeChart, boundary: BoundaryCurve | None = None):
    """Delete the singular line, certifying completeness of what remains.

    Returns the punctured chart together with a complete spacelike graph
    surface of the punctured part (the surgery end attached to ``boundary``
    at the chart radius; a flat trace by default).
    """
    if not chart.has_singular_line:
        raise ValueError("chart has no singular line to remove")
    if chart.angle != 0.0:
        raise ValueError("line removal with a complete end targets extremal charts")
    if boundary is None:
        boundary = BoundaryCurve.from_trig(constant=0.0)
    surface = extend_boundary_complete(boundary, chart.radius)
    return dataclasses.replace(chart, has_singular_line=False), surface


# =========================================================================
# Nested extension chain
# =========================================================================

CHAIN_STAGES = ("M0", "M1", "M2", "M3")

# Points (time, r, theta) cited for the chain, with their M0..M3 membership.
CITED_CHAIN_POINTS = {
    (-1.0, 0.0, 0.0): (False, False, True, True),
    (-1.0, 1.0, 0.0): (True, True, True, True),
    (1.0, 1.0, 0.0): (False, False, False, True),
}


def chain_membership(points):
    """Membership of extremal-tube points in the chain M0 < M1 < M2 < M3.

    With p0 the line point at time 0:

    * M0: the regular points below time 0 (globally hyperbolic slab);
    * M1: all regular points outside the closed causal future of p0;
    * M2: M1 with the past half of the line adjoined;
    * M3: the whole extremal tube.

    M0 extends to M1 without touching a singular line, M2 adds one, and M3
    shows the ambient maximal extension.  The closed causal future of a line
    point is exactly {dt >= r/2}, so membership is decided by that strict
    inequality rather than the toleranced classifier (the chain regions are
    sets, not fuzzy fences).

    ``points`` is a :class:`ModelPoint` of the extremal tube, a
    (time, r, theta) triple or a (..., 3) array of them.  Returns the M0..M3
    pattern: a list of four bools for one point, a (..., 4) bool array
    otherwise.  Points are checked by :class:`ModelPoint`'s rules (finite
    coordinates, r >= 0); a point of another cone angle raises ``ValueError``.
    """
    if isinstance(points, ModelPoint):
        if points.angle != 0.0:
            raise ValueError(f"cone angle mismatch: point {points.angle!r}, extremal tube 0.0")
        points = (points.time, points.r, points.theta)
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1:] != (3,):
        raise ValueError("expected (time, r, theta) points of shape (..., 3)")
    t, r = pts[..., 0], pts[..., 1]
    bad = ~np.isfinite(pts).all(axis=-1) | (r < 0.0)
    if bad.any():  # the first bad point raises ModelPoint's own ValueError
        ModelPoint(0.0, *map(float, pts.reshape(-1, 3)[bad.ravel().argmax()]))
    regular = r > 0.0
    m1 = regular & (t < 0.5 * r)
    pattern = np.stack(
        [regular & (t < 0.0), m1, m1 | (~regular & (t < 0.0)), np.ones_like(m1)], axis=-1
    )
    return pattern.tolist() if pts.ndim == 1 else pattern


def sample_chain_monotone(n=1000, seed=0):
    """Sampled verification that the chain is monotone under inclusion.

    Draws n random points (including some on the line) and returns the
    number whose membership pattern is not monotone nondecreasing along the
    chain: 0 for the chain as defined, more when a stage region is broken.
    """
    rng = np.random.default_rng(seed)
    times = rng.uniform(-2.0, 2.0, n)
    radii = rng.uniform(0.0, 2.0, n)
    radii[rng.uniform(0.0, 1.0, n) < 0.1] = 0.0
    thetas = rng.uniform(0.0, TWO_PI, n)
    pattern = chain_membership(np.column_stack([times, radii, thetas]))
    return int(np.count_nonzero((pattern[:, :-1] & ~pattern[:, 1:]).any(axis=1)))
