"""Linear algebra of 3d Minkowski space and its isometry group.

Minkowski space here is R^3 with coordinates (t, x, y) and quadratic form

    q(v) = -t^2 + x^2 + y^2,

i.e. signature (-, +, +).  Every isometry used here is linear, an element of
the identity component SO0(1,2).  Its elements fall into three conjugacy
types, distinguished by the trace:

* elliptic   (trace < 3): conjugate to a rotation about a timelike axis,
* parabolic  (trace = 3, not identity): fixes a single null line,
* hyperbolic (trace > 3): conjugate to a boost, eigenvalues (1, l, 1/l).

Every function in this module is pure; matrices are validated on
construction of :class:`LorentzIsometry` and never mutated afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidIsometryError

# Metric of signature (-, +, +) in the (t, x, y) basis.
MINKOWSKI_METRIC = np.diag([-1.0, 1.0, 1.0])
MINKOWSKI_METRIC.setflags(write=False)

_ORTHO_TOL = 1.0e-12
_DET_TOL = 1.0e-9
_CLASSIFY_TOL = 1.0e-9


def q_form(v):
    """Evaluate q(v) = -t^2 + x^2 + y^2 on one vector or a stack of them."""
    v = np.asarray(v, dtype=float)
    return -v[..., 0] ** 2 + v[..., 1] ** 2 + v[..., 2] ** 2


def minkowski_inner(u, v):
    """Polarization of :func:`q_form`: <u, v> = -u_t v_t + u_x v_x + u_y v_y."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return -u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def causal_label(q, cut, t):
    """Causal label of a nonzero vector from its form ``q``, null cut and time.

    Spacelike when q > cut, lightlike when |q| <= cut and timelike otherwise;
    the side is future when the time component ``t`` is positive.  Raises
    ``ValueError`` when any of the three is not finite: a vector with a
    non-finite entry, or whose form overflows, gets no label.
    """
    if not all(map(math.isfinite, (q, cut, t))):
        raise ValueError("cannot classify a vector with a non-finite entry or form")
    if q > cut:
        return "spacelike"
    side = "future" if t > 0.0 else "past"
    if abs(q) <= cut:
        return f"lightlike-{side}"
    return f"timelike-{side}"


def classify_vector(v):
    """Classify a single vector of E^{1,2}.

    Returns one of ``"zero"``, ``"spacelike"``, ``"lightlike-future"``,
    ``"lightlike-past"``, ``"timelike-future"``, ``"timelike-past"``.

    The tolerance is relative to the Euclidean size of ``v``: a vector is
    treated as null when ``|q(v)| <= 1e-9 |v|^2``.  Non-finite vectors raise
    ``ValueError`` (see :func:`causal_label`).
    """
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        norm2 = float(np.dot(v, v))
        if norm2 == 0.0:
            return "zero"
        q = float(q_form(v))
    return causal_label(q, _CLASSIFY_TOL * norm2, v[0])


def hyperboloid_embed(x, y):
    """Lift a point of the open unit disc (Klein model) to the hyperboloid.

    The image of (x, y) is (1, x, y) / sqrt(1 - x^2 - y^2), which satisfies
    q = -1 and has positive time component.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s2 = 1.0 - x**2 - y**2
    if np.any(s2 <= 0.0):
        raise ValueError("point is not inside the open unit disc")
    scale = 1.0 / np.sqrt(s2)
    return np.stack([scale, x * scale, y * scale], axis=-1)


# =========================================================================
# Isometries
# =========================================================================


@dataclass(frozen=True, eq=False)
class LorentzIsometry:
    """An orientation- and time-orientation-preserving linear isometry of
    E^{1,2}, an element of SO0(1,2), or a stack of them.

    ``linear`` is a 3x3 matrix or a (..., 3, 3) stack.  Each matrix must have
    finite entries small enough (below about 1e154) for the checks not to
    overflow, satisfy ``L^T eta L = eta`` to 1e-12 (relative to the squared
    matrix magnitude once entries exceed 1, since evaluating the residual
    itself costs eps * |L|^2 in floats), and have ``det L = +1`` and
    ``L[0,0] >= 1 - 1e-12`` (time orientation).  One failing matrix rejects
    the stack: the constructor raises :class:`InvalidIsometryError` naming
    the first failing check of the first failing matrix.
    """

    linear: np.ndarray

    def __post_init__(self):
        lin = np.array(self.linear, dtype=float)
        if lin.shape[-2:] != (3, 3):
            raise ValueError(f"expected a 3x3 matrix or a stack, got shape {lin.shape}")
        eta = MINKOWSKI_METRIC
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.maximum(1.0, np.square(lin).max(axis=(-2, -1)))
            residual = np.abs(np.swapaxes(lin, -1, -2) @ eta @ lin - eta).max(
                axis=(-2, -1)
            )
            det = np.linalg.det(lin)
            # NaN fails every comparison; an infinite scale needs its own test
            ok = np.isfinite(scale) & (residual <= _ORTHO_TOL * scale)
            ok &= abs(det - 1.0) <= _DET_TOL * scale
            ok &= lin[..., 0, 0] >= 1.0 - _ORTHO_TOL
        if not ok.all():
            i = np.unravel_index(np.argmin(ok), np.shape(ok))
            raise InvalidIsometryError(_fault(lin[i], scale[i], residual[i], det[i]))
        lin.setflags(write=False)
        object.__setattr__(self, "linear", lin)

    # -- group structure ---------------------------------------------------

    def apply_linear(self, v):
        """Apply to one vector or a stack shaped (..., 3)."""
        v = np.asarray(v, dtype=float)
        return v @ np.swapaxes(self.linear, -1, -2)

    def __matmul__(self, other):
        """self after other: (self @ other)(v) = self(other(v)), matrix by matrix."""
        if isinstance(other, LorentzIsometry):
            return LorentzIsometry(self.linear @ other.linear)
        return NotImplemented

    def inverse(self) -> "LorentzIsometry":
        # eta-orthogonality gives L^-1 = eta L^T eta exactly.
        eta = MINKOWSKI_METRIC
        return LorentzIsometry(eta @ np.swapaxes(self.linear, -1, -2) @ eta)

    # -- convenience -------------------------------------------------------

    @staticmethod
    def identity() -> "LorentzIsometry":
        return LorentzIsometry(np.eye(3))


def _fault(lin, scale, residual, det):
    """Message for the first check that the 3x3 matrix ``lin`` fails."""
    if not all(map(math.isfinite, (scale, residual, det))):
        return f"non-finite entry or overflowing check in L = {lin.tolist()!r}"
    if residual > _ORTHO_TOL * scale:
        return f"not eta-orthogonal: |L^T eta L - eta| = {residual:.3e}"
    if abs(det - 1.0) > _DET_TOL * scale:
        return f"det(L) = {float(det)!r}, expected +1"
    return f"time orientation reversed: L[0,0] = {lin[0, 0]!r}"


def rotation_about_t_axis(angle) -> LorentzIsometry:
    """Elliptic element: Euclidean rotation of the (x, y) plane.

    An array of angles gives the stack of their rotations; a non-finite
    angle raises ``ValueError``.
    """
    x = np.asarray(angle, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"rotation angle must be finite, got {angle!r}")
    cs = ((math.cos(v), math.sin(v)) for v in x.ravel().tolist())
    lin = np.array([[[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]] for c, s in cs])
    return LorentzIsometry(lin.reshape(x.shape + (3, 3)))


def boost_tx(rapidity) -> LorentzIsometry:
    """Hyperbolic element: boost in the (t, x) plane, fixing the y axis.

    An array of rapidities gives the stack of their boosts; one that
    overflows raises :class:`InvalidIsometryError`.
    """
    x = np.asarray(rapidity, dtype=float)
    # math, entry by entry: numpy's cosh and sinh may differ in the last place
    cs = ((math.cosh(v), math.sinh(v)) for v in x.ravel().tolist())
    try:
        lin = np.array([[[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]] for c, s in cs])
    except OverflowError:
        raise InvalidIsometryError(f"non-finite boost at rapidity {rapidity!r}") from None
    return LorentzIsometry(lin.reshape(x.shape + (3, 3)))


def classify_isometry(g):
    """Conjugacy class of ``g``, one :class:`LorentzIsometry` (not a stack).

    Returns a dict with keys ``kind`` (``"identity"``, ``"elliptic"``,
    ``"parabolic"`` or ``"hyperbolic"``), ``trace`` and, when applicable,
    ``angle`` (elliptic rotation angle in (0, pi]) or ``stretch`` (hyperbolic
    expansion factor lambda >= 1).

    The trace decides the class, with tol = 1e-9: trace < 3 - tol is
    elliptic with angle = arccos((trace - 1)/2); |trace - 3| <= tol is the
    identity when the matrix is within sqrt(tol) of I and parabolic
    otherwise; trace > 3 + tol is hyperbolic with
    lambda = ((trace-1) + sqrt((trace-1)^2 - 4)) / 2.  A raw matrix raises
    ``TypeError`` (wrap it in :class:`LorentzIsometry`, which checks it); a
    stack raises ``ValueError``.
    """
    if not isinstance(g, LorentzIsometry):
        raise TypeError(f"expected a LorentzIsometry, got {type(g).__name__}")
    lin = g.linear
    if lin.ndim != 2:
        raise ValueError(f"expected one isometry, got a stack of shape {lin.shape}")
    tr = float(np.trace(lin))
    out = {"kind": None, "trace": tr}
    if tr < 3.0 - _CLASSIFY_TOL:
        # arccos argument clipped: trace -1 (half-turn) may round below -1.
        arg = np.clip((tr - 1.0) / 2.0, -1.0, 1.0)
        out["kind"] = "elliptic"
        out["angle"] = float(np.arccos(arg))
    elif tr <= 3.0 + _CLASSIFY_TOL:
        if np.max(np.abs(lin - np.eye(3))) <= math.sqrt(_CLASSIFY_TOL):
            out["kind"] = "identity"
        else:
            out["kind"] = "parabolic"
    else:
        m = tr - 1.0
        lam = (m + math.sqrt(m * m - 4.0)) / 2.0
        out["kind"] = "hyperbolic"
        out["stretch"] = lam
    return out


def fixed_null_direction(g):
    """A future null vector fixed by a parabolic element, scaled to t = 1.

    Computed as the null space of (L - I) via SVD, to the tolerance 1e-9.
    Raises ``ValueError`` if the input is not parabolic or the fixed
    direction is not null-future.
    """
    info = classify_isometry(g)
    if info["kind"] != "parabolic":
        raise ValueError(f"expected a parabolic isometry, got {info['kind']}")
    _, sing, vt = np.linalg.svd(g.linear - np.eye(3))
    if sing[-1] > _CLASSIFY_TOL:
        raise ValueError("no fixed direction found within tolerance")
    v = vt[-1]
    if abs(v[0]) < _CLASSIFY_TOL:
        raise ValueError("fixed direction has vanishing time component")
    v = v / v[0]
    if classify_vector(v) != "lightlike-future":
        raise ValueError("fixed direction is not null")
    return v
