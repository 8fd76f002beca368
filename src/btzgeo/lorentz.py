"""Linear algebra of 3d Minkowski space and its isometry group.

Minkowski space here is R^3 with coordinates (t, x, y) and quadratic form

    q(v) = -t^2 + x^2 + y^2,

i.e. signature (-, +, +).  The identity component of its isometry group is
SO0(1,2) (linear part) extended by translations.  Elements of SO0(1,2) fall
into three conjugacy types, distinguished by the trace of the linear part:

* elliptic   (trace < 3): conjugate to a rotation about a timelike axis,
* parabolic  (trace = 3, not identity): fixes a single null line,
* hyperbolic (trace > 3): conjugate to a boost, eigenvalues (1, l, 1/l).

Every function in this module is pure; matrices are validated on
construction of :class:`LorentzIsometry` and never mutated afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def classify_vector(v, tol=_CLASSIFY_TOL):
    """Classify a single vector of E^{1,2}.

    Returns one of ``"zero"``, ``"spacelike"``, ``"lightlike-future"``,
    ``"lightlike-past"``, ``"timelike-future"``, ``"timelike-past"``.

    The tolerance is relative to the Euclidean size of ``v``: a vector is
    treated as null when ``|q(v)| <= tol * |v|^2``.
    """
    v = np.asarray(v, dtype=float)
    norm2 = float(np.dot(v, v))
    if norm2 == 0.0:
        return "zero"
    q = float(q_form(v))
    cut = tol * norm2
    if q > cut:
        return "spacelike"
    side = "future" if v[0] > 0.0 else "past"
    if abs(q) <= cut:
        return f"lightlike-{side}"
    return f"timelike-{side}"


def minkowski_causal(u, v, tol=_CLASSIFY_TOL):
    """Whether the displacement ``v - u`` is future causal (q <= 0, dt > 0).

    Points equal within exact float comparison are causally related
    (reflexivity of J+).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.array_equal(u, v):
        return True
    kind = classify_vector(v - u, tol=tol)
    return kind in ("lightlike-future", "timelike-future")


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


def _as_float_matrix(m):
    out = np.array(m, dtype=float)
    if out.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {out.shape}")
    return out


@dataclass(frozen=True, eq=False)
class LorentzIsometry:
    """An orientation- and time-orientation-preserving isometry of E^{1,2}.

    ``linear`` must satisfy ``L^T eta L = eta`` to 1e-12 (relative to the
    squared matrix magnitude once entries exceed 1, since evaluating the
    residual itself costs eps * |L|^2 in floats), ``det L = +1`` and
    ``L[0,0] >= 1 - 1e-12`` (time orientation); otherwise the constructor
    raises :class:`InvalidIsometryError`.  ``translation`` defaults to zero.
    """

    linear: np.ndarray
    translation: np.ndarray = field(default=None)

    def __post_init__(self):
        lin = _as_float_matrix(self.linear)
        trn = (
            np.zeros(3)
            if self.translation is None
            else np.array(self.translation, dtype=float).reshape(3)
        )
        eta = MINKOWSKI_METRIC
        scale = max(1.0, float(np.max(np.abs(lin))) ** 2)
        residual = np.max(np.abs(lin.T @ eta @ lin - eta))
        if residual > _ORTHO_TOL * scale:
            raise InvalidIsometryError(
                f"not eta-orthogonal: |L^T eta L - eta| = {residual:.3e}"
            )
        det = float(np.linalg.det(lin))
        if abs(det - 1.0) > _DET_TOL * scale:
            raise InvalidIsometryError(f"det(L) = {det!r}, expected +1")
        if lin[0, 0] < 1.0 - _ORTHO_TOL:
            raise InvalidIsometryError(
                f"time orientation reversed: L[0,0] = {lin[0, 0]!r}"
            )
        lin.setflags(write=False)
        trn.setflags(write=False)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "translation", trn)

    # -- group structure ---------------------------------------------------

    def apply(self, v):
        """Apply to one point/vector or a stack shaped (..., 3)."""
        v = np.asarray(v, dtype=float)
        return v @ self.linear.T + self.translation

    def apply_linear(self, v):
        """Apply only the linear part (for tangent vectors)."""
        v = np.asarray(v, dtype=float)
        return v @ self.linear.T

    def compose(self, other: "LorentzIsometry") -> "LorentzIsometry":
        """self after other: (self @ other)(v) = self(other(v))."""
        lin = self.linear @ other.linear
        trn = self.linear @ other.translation + self.translation
        return LorentzIsometry(lin, trn)

    def __matmul__(self, other):
        if isinstance(other, LorentzIsometry):
            return self.compose(other)
        return NotImplemented

    def inverse(self) -> "LorentzIsometry":
        # eta-orthogonality gives L^-1 = eta L^T eta exactly.
        eta = MINKOWSKI_METRIC
        lin_inv = eta @ self.linear.T @ eta
        return LorentzIsometry(lin_inv, -(lin_inv @ self.translation))

    def isclose(self, other: "LorentzIsometry", tol=1.0e-9) -> bool:
        return (
            np.max(np.abs(self.linear - other.linear)) <= tol
            and np.max(np.abs(self.translation - other.translation)) <= tol
        )

    # -- convenience -------------------------------------------------------

    @staticmethod
    def identity() -> "LorentzIsometry":
        return LorentzIsometry(np.eye(3))


def rotation_about_t_axis(angle) -> LorentzIsometry:
    """Elliptic element: Euclidean rotation of the (x, y) plane."""
    c, s = math.cos(angle), math.sin(angle)
    return LorentzIsometry(
        np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    )


def boost_tx(rapidity) -> LorentzIsometry:
    """Hyperbolic element: boost in the (t, x) plane, fixing the y axis."""
    c, s = math.cosh(rapidity), math.sinh(rapidity)
    return LorentzIsometry(
        np.array([[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    )


def classify_isometry(g, tol=_CLASSIFY_TOL):
    """Conjugacy class of the linear part of ``g``.

    Returns a dict with keys ``kind`` (``"identity"``, ``"elliptic"``,
    ``"parabolic"`` or ``"hyperbolic"``), ``trace`` and, when applicable,
    ``angle`` (elliptic rotation angle in (0, pi]) or ``stretch`` (hyperbolic
    expansion factor lambda >= 1).

    The trace decides the class: trace < 3 - tol is elliptic with
    angle = arccos((trace - 1)/2); |trace - 3| <= tol is the identity when the
    matrix is close to I and parabolic otherwise; trace > 3 + tol is
    hyperbolic with lambda = ((trace-1) + sqrt((trace-1)^2 - 4)) / 2.
    """
    lin = g.linear if isinstance(g, LorentzIsometry) else _as_float_matrix(g)
    tr = float(np.trace(lin))
    out = {"kind": None, "trace": tr}
    if tr < 3.0 - tol:
        # arccos argument clipped: trace -1 (half-turn) may round below -1.
        arg = np.clip((tr - 1.0) / 2.0, -1.0, 1.0)
        out["kind"] = "elliptic"
        out["angle"] = float(np.arccos(arg))
    elif tr <= 3.0 + tol:
        if np.max(np.abs(lin - np.eye(3))) <= math.sqrt(tol):
            out["kind"] = "identity"
        else:
            out["kind"] = "parabolic"
    else:
        m = tr - 1.0
        lam = (m + math.sqrt(m * m - 4.0)) / 2.0
        out["kind"] = "hyperbolic"
        out["stretch"] = lam
    return out


def fixed_null_direction(g, tol=1.0e-9):
    """A future null vector fixed by a parabolic element, scaled to t = 1.

    Computed as the null space of (L - I) via SVD.  Raises ``ValueError`` if
    the input is not parabolic or the fixed direction is not null-future.
    """
    info = classify_isometry(g)
    if info["kind"] != "parabolic":
        raise ValueError(f"expected a parabolic isometry, got {info['kind']}")
    lin = g.linear if isinstance(g, LorentzIsometry) else _as_float_matrix(g)
    _, sing, vt = np.linalg.svd(lin - np.eye(3))
    if sing[-1] > tol:
        raise ValueError("no fixed direction found within tolerance")
    v = vt[-1]
    if abs(v[0]) < tol:
        raise ValueError("fixed direction has vanishing time component")
    v = v / v[0]
    if abs(float(q_form(v))) > tol * float(np.dot(v, v)):
        raise ValueError("fixed direction is not null")
    return v
