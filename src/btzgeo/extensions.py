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

:func:`mixed_extension_chain` builds the strictly nested sequence of
spacetimes showing that extendability is not monotone under inclusion: a
globally hyperbolic piece below a horizon, the full complement of a causal
future, that complement with the past half-line adjoined, and the whole
extremal tube.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .develop import btz_holonomy_generator
from .errors import NotBTZExtendableError
from .lorentz import LorentzIsometry, classify_isometry
from .models import TWO_PI, ModelPoint, is_singular, is_valid_cone_angle
from .surfaces import BoundaryCurve, GraphSurface, extend_boundary_complete

_ANGLE_TOL = 1.0e-9


@dataclass(frozen=True)
class TubeChart:
    """A solid-tube chart with its deck holonomy.

    Invariants enforced on construction: a chart containing its singular
    line must have a singular angle, and the holonomy class must match the
    angle (parabolic iff angle 0; elliptic of the cone angle for massive
    singular cones; identity for regular tubes).
    """

    angle: float
    radius: float
    t_min: float
    t_max: float
    has_singular_line: bool
    holonomy: LorentzIsometry

    def __post_init__(self):
        if not is_valid_cone_angle(self.angle):
            raise ValueError(f"invalid cone angle {self.angle!r}")
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if not self.t_min < self.t_max:
            raise ValueError("empty time interval")
        if self.has_singular_line and not is_singular(self.angle):
            raise ValueError("regular tubes contain no singular line")
        info = classify_isometry(self.holonomy)
        if self.angle == 0.0:
            if info["kind"] != "parabolic":
                raise ValueError(
                    f"extremal charts need parabolic holonomy, got {info['kind']}"
                )
        elif abs(self.angle - TWO_PI) <= _ANGLE_TOL:
            if info["kind"] != "identity":
                raise ValueError(
                    f"regular tubes need trivial holonomy, got {info['kind']}"
                )
        else:
            expected = min(self.angle % TWO_PI, TWO_PI - self.angle % TWO_PI)
            if info["kind"] != "elliptic" or abs(info["angle"] - expected) > _ANGLE_TOL:
                raise ValueError(
                    "massive charts need elliptic holonomy of the cone angle; "
                    f"got {info['kind']} ({info.get('angle')})"
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
    way and raise :class:`NotBTZExtendableError`; the parabolic-holonomy
    requirement is re-checked defensively.
    """
    if chart.has_singular_line:
        return chart
    if chart.angle != 0.0:
        raise NotBTZExtendableError(
            f"cone angle {chart.angle!r} does not admit a null line"
        )
    if classify_isometry(chart.holonomy)["kind"] != "parabolic":
        raise NotBTZExtendableError("holonomy is not parabolic")
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


@dataclass(frozen=True)
class RegionSpacetime:
    """A named region of the extremal tube with a membership predicate."""

    name: str
    description: str
    contains: callable

    def __contains__(self, point) -> bool:
        return bool(self.contains(point))


def _coerce_point(p) -> ModelPoint:
    if isinstance(p, ModelPoint):
        if p.angle != 0.0:
            raise ValueError("chain regions live in the extremal tube")
        return p
    t, r, h = (float(v) for v in p)
    return ModelPoint(0.0, t, r, h)


def mixed_extension_chain():
    """The strictly nested chain M0 < M1 < M2 < M3 inside the extremal tube.

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
    """

    def in_m0(p):
        q = _coerce_point(p)
        return q.r > 0.0 and q.time < 0.0

    def in_m1(p):
        q = _coerce_point(p)
        return q.r > 0.0 and q.time < 0.5 * q.r

    def in_m2(p):
        q = _coerce_point(p)
        if q.r == 0.0:
            return q.time < 0.0
        return in_m1(q)

    def in_m3(p):
        _coerce_point(p)
        return True

    return [
        RegionSpacetime("M0", "regular slab below time 0", in_m0),
        RegionSpacetime("M1", "complement of the closed causal future of p0", in_m1),
        RegionSpacetime("M2", "M1 with the past half-line adjoined", in_m2),
        RegionSpacetime("M3", "the full extremal tube", in_m3),
    ]


# Points (time, r, theta) cited for the chain, with their M0..M3 membership.
CITED_CHAIN_POINTS = {
    (-1.0, 0.0, 0.0): (False, False, True, True),
    (-1.0, 1.0, 0.0): (True, True, True, True),
    (1.0, 1.0, 0.0): (False, False, False, True),
}


def chain_membership(point):
    """Membership pattern of ``point`` across the nested chain."""
    return [region.contains(point) for region in mixed_extension_chain()]


def sample_chain_monotone(n=1000, seed=0):
    """Sampled verification that the chain is monotone under inclusion.

    Draws n random points (including some on the line) and returns the
    number whose membership pattern fails to be monotone nondecreasing
    along the chain (always 0; kept as a counted check for reports).
    """
    rng = np.random.default_rng(seed)
    times = rng.uniform(-2.0, 2.0, n)
    radii = rng.uniform(0.0, 2.0, n)
    radii[rng.uniform(0.0, 1.0, n) < 0.1] = 0.0
    thetas = rng.uniform(0.0, TWO_PI, n)
    regions = mixed_extension_chain()
    bad = 0
    for t, r, h in zip(times, radii, thetas):
        pattern = [reg.contains((t, r, h)) for reg in regions]
        if any(a and not b for a, b in zip(pattern, pattern[1:])):
            bad += 1
    return bad
