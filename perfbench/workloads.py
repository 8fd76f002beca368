"""The three benchmark workloads: inputs from the seed, one operation, its checks.

Each workload builds all of its inputs from ``--seed`` in the constructor (so
input generation is part of set-up), warms up once, and then serves
operations by index: ``make_input(i, tracer)`` outside the timed region,
``run(input)`` inside it, ``check(i, input, output)`` after it.  ``check``
returns ``(ok, digest)``; the digest covers the exact outputs that the
project promises to keep bit-identical, so two commits can be compared op by
op.  ``golden()`` runs fixed inputs whose digests are stored in
``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from btzgeo import causal, cli, surfaces
from btzgeo.models import TubeRegion

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def _digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


# =========================================================================
# volume_time: criterion 9 at N = 10^6
# =========================================================================


class VolumeTime:
    """One op is one volume-time query on a shared pool of 10^6 points.

    The query points are the vertices of random causal curves (30% start on
    the singular line).  Line-start curves are interleaved evenly with the
    regular ones, because ``sample_causal_curves`` returns them last and a
    run only reaches the first few dozen curves.
    """

    tail_pct = 95
    region = TubeRegion(0.0, 1.0, 0.0, 2.0)
    config = causal.MeasureConfig(weight3=1.0, weight1=1.0, n_samples=10**6)
    n_curves = 400

    def __init__(self, seed):
        pool_seed, curve_seed = np.random.SeedSequence(seed).generate_state(2)
        self.pool_seed = int(pool_seed)
        curves = causal.sample_causal_curves(self.region, self.n_curves, seed=int(curve_seed))
        self.points, self.steps = self._interleave(curves)
        self._prev = None

    @staticmethod
    def _interleave(curves):
        line = [c for c in curves if c[0, 1] == 0.0]
        regular = [c for c in curves if c[0, 1] != 0.0]
        keyed = [((i + 0.5) / len(regular), c) for i, c in enumerate(regular)]
        keyed += [((j + 0.5) / len(line), c) for j, c in enumerate(line)]
        keyed.sort(key=lambda kc: kc[0])
        points = [tuple(float(v) for v in p) for _, c in keyed for p in c]
        return points, len(curves[0])

    def _query(self, point, config=None, pool_seed=None):
        return causal.volume_time_report(
            self.region, point, config or self.config,
            seed=self.pool_seed if pool_seed is None else pool_seed,
        )

    def warm_up(self):
        # the cold first query builds the pool
        self._query(self.points[0])

    def make_input(self, i, tracer):
        return self.points[i % len(self.points)]

    def run(self, point):
        return self._query(point)

    def raw_counts(self, point, res, config=None):
        """Pool hits of J- and J+, recovered exactly from the reported volumes.

        mu = weight3 * vol3 * hits / n + weight1 * (line overlap); the line
        overlap is closed-form, so hits is an integer up to rounding.
        """
        config = config or self.config
        region = self.region
        vol3 = (region.t_max - region.t_min) * math.pi * region.radius**2
        tp, rp, _ = point
        a, b = region.t_min, region.t_max
        if rp == 0.0:
            line = (max(0.0, min(b, tp) - a), max(0.0, b - max(a, tp)))
        else:
            line = (max(0.0, min(b, tp - 0.5 * rp) - a), 0.0)
        counts = []
        for mu, ln in zip((res.past_volume, res.future_volume), line):
            x = (mu - config.weight1 * ln) / (config.weight3 * vol3) * config.n_samples
            if abs(x - round(x)) > 1e-6:
                raise ValueError(f"volume {mu!r} is not a whole number of pool hits")
            counts.append(int(round(x)))
        return tuple(counts)

    def check(self, i, point, res):
        ok = math.isfinite(res.value) and math.isfinite(res.stderr) and res.stderr >= 0.0
        # the estimate must not fall by more than 3 SE along a causal curve
        if i % len(self.points) % self.steps and self._prev is not None:
            prev = self._prev
            ok = ok and res.value >= prev.value - 3.0 * (prev.stderr + res.stderr)
        self._prev = res
        return ok, _digest(self.raw_counts(point, res))

    def golden(self):
        ref = REFERENCE["volume_time"]
        config = causal.MeasureConfig(1.0, 1.0, ref["n_samples"])
        curves = causal.sample_causal_curves(self.region, 10, seed=ref["curve_seed"])
        points = [tuple(float(v) for v in p) for c in (curves[0], curves[-1]) for p in c]
        counts = [
            self.raw_counts(p, self._query(p, config, ref["pool_seed"]), config)
            for p in points
        ]
        return [(_digest(counts), ref["digest"])]


# =========================================================================
# surgery: criterion 6, complete end + slack scan + certified cap
# =========================================================================


class Surgery:
    """One op is one random trig boundary through both boundary surgeries.

    Boundaries follow the criterion-6 distribution: constant ~ N(0, 1) and
    5 cos and 5 sin coefficients ~ 0.3 N(0, 1).  The normals come from
    Latin-hypercube blocks of ``block`` ops.  Each boundary still has
    exactly that distribution, but every block covers it evenly, so the mix
    of cap constants (1 to 6 doublings, the bulk of an op) and with it the
    op-time quantiles vary much less from seed to seed.
    """

    tail_pct = 85
    block = 8
    radius = 1.0

    def __init__(self, seed):
        self.seed = seed
        self._blocks = {}
        self._thetas = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)

    def _coefficients(self, i):
        j, k = divmod(i, self.block)
        if j not in self._blocks:
            rng = np.random.default_rng([self.seed, j])
            ranks = np.argsort(rng.random((11, self.block)), axis=1).T
            self._blocks[j] = ndtri((ranks + rng.random((self.block, 11))) / self.block)
        z = self._blocks[j][k]
        return float(z[0]), 0.3 * z[1:6], 0.3 * z[6:11]

    def warm_up(self):
        self.run(surfaces.BoundaryCurve.from_trig(0.0))

    def make_input(self, i, tracer):
        curve = surfaces.BoundaryCurve.from_trig(*self._coefficients(i))
        if tracer is None:
            return curve

        def counted(fn):
            def evaluate(th):
                tracer.count("surfaces.boundary_evals", np.size(th))
                return fn(th)

            return evaluate

        return surfaces.BoundaryCurve(counted(curve.value), counted(curve.derivative))

    def run(self, curve):
        comp = surfaces.extend_boundary_complete(curve, self.radius)
        _, min_r2 = surfaces.min_spacelike_slack(comp, n_r=256, n_theta=256)
        cap = surfaces.extend_boundary_cap(curve, self.radius)
        return comp, min_r2, cap

    def check(self, i, curve, out):
        comp, min_r2, cap = out
        ths = self._thetas
        match = np.max(np.abs(comp.tau(np.full_like(ths, self.radius), ths) - curve.value(ths)))
        level = cap.params["cap_constant"] / self.radius
        cont = np.max(np.abs(cap.tau(np.full_like(ths, 0.5 * self.radius), ths) - level))
        cert = cap.params["certified_min_delta"]
        ok = bool(min_r2 > 1.0 and match == 0.0 and cont <= 1e-12 and cert > 1e-9)
        return ok, _digest(float(cap.params["cap_constant"]).hex(), float(cert).hex())

    def golden(self):
        out = []
        rng = np.random.default_rng(REFERENCE["surgery"]["rng_seed"])
        for expected in REFERENCE["surgery"]["digests"]:
            curve = surfaces.BoundaryCurve.from_trig(
                rng.normal(), rng.normal(size=5) * 0.3, rng.normal(size=5) * 0.3
            )
            ok, digest = self.check(None, curve, self.run(curve))
            out.append((digest if ok else "check failed", expected))
        return out


# =========================================================================
# verify_all: the whole verify command, in process
# =========================================================================


class VerifyAll:
    """One op is ``btzgeo verify --suite all --no-timing`` with a fresh seed.

    Every op has its own seed and starts with the package's caches empty,
    as a fresh CLI process would; the traced run, which repeats each seed,
    thus pays for the volume-time pools on both ops of a pair.  The report
    goes to a scratch file inside the checkout.
    """

    tail_pct = 90

    def __init__(self, seed, scratch):
        self.base = seed * 100_000
        self.out = Path(scratch) / f"verify_{os.getpid()}.json"

    def _verify(self, s):
        return cli.main(
            ["verify", "--suite", "all", "--seed", str(s), "--no-timing", "--out", str(self.out)]
        )

    def warm_up(self):
        # a fixed seed: the surfaces suite's cap costs 1 to 5 doublings
        # depending on the seed, and set-up time should not depend on it
        self._verify(REFERENCE["verify_all"]["seed"])

    def make_input(self, i, tracer):
        for name, module in list(sys.modules.items()):
            if name.startswith("btzgeo."):
                for value in vars(module).values():
                    if callable(getattr(value, "cache_clear", None)):
                        value.cache_clear()
        return self.base + 1 + i

    def run(self, s):
        return self._verify(s)

    def check(self, i, s, rc):
        data = self.out.read_bytes()
        report = json.loads(data)
        ok = (
            rc == 0
            and report["seed"] == s
            and report["summary"]["status"] == "pass"
            and all(c["status"] == "pass" for c in report["checks"])
        )
        return ok, hashlib.sha256(data).hexdigest()[:16]

    def golden(self):
        ref = REFERENCE["verify_all"]
        rc = self._verify(ref["seed"])
        ok, digest = self.check(None, ref["seed"], rc)
        return [(digest if ok else "check failed", ref["digest"])]

    def close(self):
        self.out.unlink(missing_ok=True)


def make(name, seed, scratch):
    if name == "volume_time":
        return VolumeTime(seed)
    if name == "surgery":
        return Surgery(seed)
    return VerifyAll(seed, scratch)
