"""Quadrature oracle for the Monte Carlo volume time of the extremal tube.

For a regular query p = (tp, rp) and a pool radius r > rp, the points of
J+(p) at angle difference phi are tau >= tp + T(r, phi) with
T = dr/2 + rp r phi^2 / (2 dr), so their tau-extent in the tube is
max(0, A - k phi^2) with A = t_max - tp - dr/2 and k = rp r / (2 dr).  Over
|phi| <= pi that integrates to

    2 (A phi* - k phi*^3 / 3),   phi* = min(pi, sqrt(A / k)),

and mu(J+(p)) = integral of r times it over rp < r < R, a 1-D quadrature.
J-(p) is the mirror case over r < rp with A = tp - t_min - (rp - r)/2.
The oracle shares nothing with the pool count but the relation itself.
"""

import math

import numpy as np
from scipy.integrate import quad

from btzgeo.causal import MeasureConfig, volume_time_report
from btzgeo.models import TubeRegion


def _angular_extent(a, k):
    """Integral of max(0, a - k phi^2) over |phi| <= pi."""
    if a <= 0.0:
        return 0.0
    phi = math.pi if k * math.pi**2 <= a else math.sqrt(a / k)
    return 2.0 * (a * phi - k * phi**3 / 3.0)


def cone_volumes(region, tp, rp):
    """(mu(J-(p)), mu(J+(p))) of the regular stratum, measure r dtau dr dtheta,
    by quadrature over r; returns the two values and their error estimates."""

    def future(r):
        dr = r - rp
        return r * _angular_extent(region.t_max - tp - 0.5 * dr, rp * r / (2.0 * dr))

    def past(r):
        dr = rp - r
        return r * _angular_extent(tp - region.t_min - 0.5 * dr, rp * r / (2.0 * dr))

    mu_past, err_past = quad(past, 0.0, rp, epsabs=1e-11, limit=200) if rp > 0.0 else (0.0, 0.0)
    mu_future, err_future = quad(future, rp, region.radius, epsabs=1e-11, limit=200)
    return mu_past, mu_future, err_past, err_future


def test_oracle_matches_closed_form_on_the_line():
    # J+ of (0, 0) in the tube R = 1, tau <= 2: 2 pi * int r (2 - r/2) dr = 5 pi / 3
    region = TubeRegion(0.0, 1.0, -0.5, 2.0)
    mu_past, mu_future, _, err = cone_volumes(region, 0.0, 0.0)
    assert mu_past == 0.0
    assert abs(mu_future - 5.0 * math.pi / 3.0) < 1e-9
    assert err < 1e-9


def test_oracle_angular_cut():
    # a vertical line's worth of J+: with A / k >= pi^2 the whole circle counts
    assert _angular_extent(1.0, 0.0) == 2.0 * math.pi
    assert abs(_angular_extent(1.0, 1.0) - 4.0 / 3.0) < 1e-15
    assert _angular_extent(-1.0, 1.0) == 0.0


def test_mc_standard_errors_are_calibrated():
    # seeds and bounds fixed in advance: 60 regular points, both cones, one
    # shared pool of 10^6; z = (MC - quadrature) / reported standard error
    region = TubeRegion(0.0, 2.0, 0.0, 1.0)
    config = MeasureConfig(weight3=1.0, weight1=0.0, n_samples=1_000_000)
    rng = np.random.default_rng(12)
    z = []
    for _ in range(60):
        tp = float(rng.uniform(0.2, 0.8))
        rp = float(rng.uniform(0.2, 1.6))
        h = float(rng.uniform(0.0, 2.0 * math.pi))
        res = volume_time_report(region, (tp, rp, h), config, seed=11)
        mu_past, mu_future, err_past, err_future = cone_volumes(region, tp, rp)
        assert max(err_past, err_future) < 1e-3 * min(res.past_stderr, res.future_stderr)
        z.append((res.past_volume - mu_past) / res.past_stderr)
        z.append((res.future_volume - mu_future) / res.future_stderr)
    z = np.array(z)
    assert abs(z.mean()) <= 0.5
    assert 0.7 <= z.std(ddof=1) <= 1.3
    assert np.max(np.abs(z)) < 4.0
