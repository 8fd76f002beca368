"""A singular flat spacetime built from the modular group.

The adjoint action of PSL(2, Z) on the traceless 2x2 matrices sl(2, R),
with the quadratic form q(X) = 2 tr(X^2) of signature (-, +, +) in the basis

    e_t = [[0, -1], [1, 0]] / 2,
    e_x = [[1,  0], [0, -1]] / 2,
    e_y = [[0,  1], [1, 0]] / 2,

realises the modular group inside SO0(1, 2).  The upper half plane embeds
equivariantly onto the hyperboloid q = -1 by

    z = x + i y  ->  ((1 + |z|^2) / 2y,  x / y,  (1 - |z|^2) / 2y),

and real boundary points onto null rays.  The standard fundamental domain,
cut along the imaginary axis into two hyperbolic triangles

    T1 = (A, B, inf),  T2 = (C, B, inf),
    A = embed(exp(2 pi i/3)),  B = embed(i),  C = embed(exp(pi i/3)),

is glued by the generators: S identifies [C, B] with [A, B], T identifies
[A, inf] with [C, inf], and [B, inf] is shared.  Suspending to the light
cone produces a flat spacetime with three singular lines: two massive ones
over B (cone angle pi, holonomy the adjoint of S) and over the identified
pair A ~ C (cone angle 2 pi/3, holonomy of order three), and one extremal
line over the cusp (parabolic holonomy, the adjoint of T).

Slicing the suspension at time t0 yields a polyhedral Cauchy surface of two
Euclidean triangles whose cone angles sum to 2 pi and whose angle defects
satisfy the combinatorial curvature count with Euler characteristic 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GluingMismatchError
from .lorentz import LorentzIsometry, classify_isometry, minkowski_inner, q_form

S_MATRIX = np.array([[0.0, -1.0], [1.0, 0.0]])
T_MATRIX = np.array([[1.0, 1.0], [0.0, 1.0]])

_RAY_TOL = 1.0e-12

_BASIS = (
    0.5 * np.array([[0.0, -1.0], [1.0, 0.0]]),  # e_t
    0.5 * np.array([[1.0, 0.0], [0.0, -1.0]]),  # e_x
    0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]),  # e_y
)


def sl2_adjoint(a) -> np.ndarray:
    """Matrix of Ad(a) on sl(2, R) in the (e_t, e_x, e_y) basis."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("expected a finite matrix")
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if not abs(det - 1.0) <= 1.0e-9:
        raise ValueError(f"expected det = 1, got {det!r}")
    a_inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
    cols = []
    for e in _BASIS:
        m = a @ e @ a_inv
        t = m[1, 0] - m[0, 1]
        x = 2.0 * m[0, 0]
        y = m[1, 0] + m[0, 1]
        cols.append((t, x, y))
    return np.array(cols).T


def psl2z_generators() -> dict:
    """The adjoint images of the modular generators as Lorentz isometries."""
    return {
        "S": LorentzIsometry(sl2_adjoint(S_MATRIX)),
        "T": LorentzIsometry(sl2_adjoint(T_MATRIX)),
    }


def uhp_to_hyperboloid(z) -> np.ndarray:
    """Equivariant embedding of the upper half plane onto {q = -1, t > 0}."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    if not np.all(np.isfinite(z) & (y > 0.0)):
        raise ValueError("points must be finite and lie in the open upper half plane")
    return np.stack(
        [(1.0 + x**2 + y**2) / (2.0 * y), x / y, (1.0 - x**2 - y**2) / (2.0 * y)],
        axis=-1,
    )


def ideal_boundary_ray(x=None) -> np.ndarray:
    """Future null ray of a boundary point of the half plane (None = cusp)."""
    if x is None:
        return np.array([1.0, 0.0, -1.0])
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"boundary point must be finite, got {x!r}")
    return np.array([1.0 + x**2, 2.0 * x, 1.0 - x**2])


def representation_checks() -> dict:
    """Residuals of the defining modular relations under the adjoint action."""
    gen = psl2z_generators()
    s, t = gen["S"].linear, gen["T"].linear
    eye = np.eye(3)
    st = s @ t
    return {
        "s_squared": float(np.max(np.abs(s @ s - eye))),
        "st_cubed": float(np.max(np.abs(st @ st @ st - eye))),
        "t_parabolic_trace": abs(float(np.trace(t)) - 3.0),
        "cusp_ray_fixed": float(
            np.max(np.abs(t @ ideal_boundary_ray() - ideal_boundary_ray()))
        ),
    }


# =========================================================================
# Fundamental triangles and their gluing
# =========================================================================

# The example's combinatorics, written once.  Each triangle lists its
# corners (INF, the cusp, is the ideal one); each pairing maps a source edge
# onto a target edge by a word in S and T; each singular line lists the
# corners it identifies, its kind and its holonomy word.
_FACES = (("T1", ("A", "B", "INF")), ("T2", ("C", "B", "INF")))
_PAIRINGS = (
    ("1", ("T1", ("B", "INF")), ("T2", ("B", "INF"))),
    ("S", ("T2", ("C", "B")), ("T1", ("A", "B"))),
    ("T", ("T1", ("A", "INF")), ("T2", ("C", "INF"))),
)
_LINES = (
    ("B", (("T1", "B"), ("T2", "B")), "massive", "S"),
    ("A~C", (("T1", "A"), ("T2", "C")), "massive", "T^-1 S"),
    ("INF", (("T1", "INF"), ("T2", "INF")), "extremal", "T"),
)
_GLUING_TOL = 1.0e-9


@dataclass(frozen=True)
class IdealTriangle:
    """A hyperbolic triangle given by vertex representatives.

    Rows of ``vertices`` are hyperboloid points (q = -1) for finite vertices
    and future null vectors for ideal ones, flagged by ``ideal``.
    """

    label: str
    names: tuple
    vertices: np.ndarray
    ideal: tuple


def fundamental_triangles():
    """The two halves of the modular fundamental domain on the hyperboloid."""
    rho = complex(-0.5, 0.5 * math.sqrt(3.0))
    points = {
        "A": uhp_to_hyperboloid(rho),
        "B": uhp_to_hyperboloid(1j),
        "C": uhp_to_hyperboloid(rho + 1.0),
        "INF": ideal_boundary_ray(),
    }
    return tuple(
        IdealTriangle(
            label, names, np.stack([points[n] for n in names]),
            tuple(n == "INF" for n in names),
        )
        for label, names in _FACES
    )


def _corner(face, name):
    """(triangle index, corner index) of the corner ``name`` of ``face``."""
    f = [label for label, _ in _FACES].index(face)
    return f, _FACES[f][1].index(name)


def _angle_sum(angle, vertices, members):
    """Total angle at the corners ``members`` of the triangles ``vertices``.

    ``vertices[f]`` holds triangle f's corners in table order; at corner i
    ``angle`` is taken between corners i + 1 and i + 2.
    """
    total = 0.0
    for face, name in members:
        f, i = _corner(face, name)
        tri = vertices[f]
        total += angle(tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3])
    return total


def hyperbolic_angle(v, w1, w2) -> float:
    """Angle at a hyperboloid point v between the directions to w1 and w2.

    The targets may be finite points or null rays; their projections onto
    the tangent plane at v are compared with the induced (positive definite)
    inner product.  A target on the vertex's ray has no direction and raises
    ``ValueError``.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite([v, w1, w2])):
        raise ValueError("vertex and targets must be finite")
    if abs(float(q_form(v)) + 1.0) > 1.0e-9:
        raise ValueError("vertex must lie on the hyperboloid q = -1")

    def project(w):
        w = np.asarray(w, dtype=float)
        return w + minkowski_inner(w, v) * v

    p1, p2 = project(w1), project(w2)
    sq1, sq2 = float(minkowski_inner(p1, p1)), float(minkowski_inner(p2, p2))
    if not (sq1 > 0.0 and sq2 > 0.0):
        raise ValueError("targets must not lie on the vertex's ray")
    cosang = float(minkowski_inner(p1, p2)) / (math.sqrt(sq1) * math.sqrt(sq2))
    return float(np.arccos(np.clip(cosang, -1.0, 1.0)))


@dataclass(frozen=True)
class FacePairing:
    """Identification of one triangle edge with another by a group element."""

    word: str
    src: tuple
    dst: tuple
    isometry: LorentzIsometry


@dataclass(frozen=True)
class EdgeClass:
    """A singular line of the suspension: identified vertices of the slice.

    ``kind`` is "massive" (elliptic holonomy, cone angle the sum of the
    incident hyperbolic angles) or "extremal" (parabolic holonomy over an
    ideal vertex class).
    """

    label: str
    members: tuple
    kind: str
    cone_angle: float | None
    holonomy: LorentzIsometry
    holonomy_word: str


@dataclass(frozen=True)
class SuspensionComplex:
    triangles: tuple
    pairings: tuple
    edge_classes: tuple


def build_complex() -> SuspensionComplex:
    """Assemble and verify the two-triangle suspension complex.

    Every face pairing is checked on its edge endpoints
    (:class:`GluingMismatchError` on failure), and for the massive edge
    classes the elliptic rotation angle of the holonomy is checked against
    the incident angle sum.
    """
    triangles = fundamental_triangles()
    gen = psl2z_generators()
    s, t = gen["S"], gen["T"]
    words = {"1": LorentzIsometry.identity(), "S": s, "T": t, "T^-1 S": t.inverse() @ s}
    vertices = [tri.vertices for tri in triangles]

    pairings = []
    for word, src, dst in _PAIRINGS:
        g = words[word]
        for u, w in zip(src[1], dst[1]):
            (f, i), (h, j) = _corner(src[0], u), _corner(dst[0], w)
            image, target = g.apply_linear(vertices[f][i]), vertices[h][j]
            if triangles[f].ideal[i]:
                image, target = image / image[0], target / target[0]
            res = float(np.max(np.abs(image - target)))
            if res > _GLUING_TOL:
                raise GluingMismatchError(
                    f"pairing {word}: vertex {u} -> {w} residual {res:.3e}"
                )
        pairings.append(FacePairing(word, src, dst, g))

    edge_classes = []
    for label, members, kind, word in _LINES:
        info = classify_isometry(words[word])
        angle = None
        if kind == "massive":
            angle = _angle_sum(hyperbolic_angle, vertices, members)
            if info["kind"] != "elliptic" or abs(info["angle"] - angle) > _GLUING_TOL:
                raise GluingMismatchError(
                    f"edge {label}: angle sum {angle!r} does not match holonomy ({info})"
                )
        elif info["kind"] != "parabolic":
            raise GluingMismatchError(
                f"edge {label}: expected parabolic holonomy, got {info['kind']}"
            )
        edge_classes.append(EdgeClass(label, members, kind, angle, words[word], word))
    return SuspensionComplex(triangles, tuple(pairings), tuple(edge_classes))


# =========================================================================
# Polyhedral Cauchy slice
# =========================================================================


@dataclass(frozen=True)
class PolyhedralSurface:
    """The time = t0 slice of the suspension: two Euclidean triangles.

    Vertex coordinates live in the slice plane (scaled Klein coordinates);
    ``cone_angles`` maps each singular line's label to its total angle,
    ``edge_pairs`` lists the glued (triangle label, edge) pairs, and
    ``euler`` holds (V, E, F, chi) of the identified complex.
    """

    t0: float
    labels: tuple
    corner_names: tuple
    coords: np.ndarray
    cone_angles: dict
    edge_pairs: tuple
    edge_lengths: dict
    euler: tuple


def _euclidean_angle(p, q1, q2) -> float:
    u, w = q1 - p, q2 - p
    cosang = float(np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w)))
    return float(np.arccos(np.clip(cosang, -1.0, 1.0)))


def polyhedral_cauchy_surface(t0=1.0) -> PolyhedralSurface:
    """Slice the suspension at a finite time t0 > 0."""
    t0 = float(t0)
    if not t0 > 0.0 or not math.isfinite(t0):
        raise ValueError("slice time must be positive and finite")
    vertices = np.stack([tri.vertices for tri in fundamental_triangles()])
    coords = t0 * (vertices[..., 1:] / vertices[..., :1])
    edge_pairs = tuple((src, dst) for _, src, dst in _PAIRINGS)

    def edge_len(face, edge):
        (f, i), (_, j) = (_corner(face, name) for name in edge)
        return float(np.linalg.norm(coords[f][i] - coords[f][j]))

    v, e, f = len(_LINES), len(_PAIRINGS), len(_FACES)
    return PolyhedralSurface(
        t0=t0,
        labels=tuple(label for label, _ in _FACES),
        corner_names=tuple(names for _, names in _FACES),
        coords=coords,
        cone_angles={
            label: _angle_sum(_euclidean_angle, coords, members)
            for label, members, _, _ in _LINES
        },
        edge_pairs=edge_pairs,
        edge_lengths={side: edge_len(*side) for pair in edge_pairs for side in pair},
        euler=(v, e, f, v - e + f),
    )


def ray_intersection_count(surface: PolyhedralSurface, directions) -> int | np.ndarray:
    """Number of distinct intersection points of future rays with the slice.

    ``directions`` is one future-pointing vector (d_t > 0), giving an int,
    or a (..., 3) stack of them, giving an int array shaped (...).  The ray
    {s * d : s > 0} meets the slice plane time = t0 once, at a point p.  The
    count is the number of triangles holding p in their interior
    (barycentric coordinates all > 1e-12), so overlapping triangles count
    twice; else 1 when p lies on the closure of a triangle (to barycentric
    coordinates of -1e-12, so shared edges and vertices count once), and 0
    otherwise.  Any non-finite or past-pointing row raises ``ValueError``.
    """
    d = np.asarray(directions, dtype=float)
    if d.shape[-1:] != (3,):
        raise ValueError("direction must be a 3-vector")
    if not np.all(np.isfinite(d)):
        raise ValueError("direction must be finite")
    if np.any(d[..., 0] <= 0.0):
        raise ValueError("direction must be future pointing (positive time)")
    p = (surface.t0 / d[..., :1]) * d[..., 1:]
    a, b, c = surface.coords.swapaxes(0, 1)
    v0, v1, v2 = b - a, c - a, p[..., None, :] - a
    den = v0[:, 0] * v1[:, 1] - v0[:, 1] * v1[:, 0]
    b1 = (v2[..., 0] * v1[:, 1] - v2[..., 1] * v1[:, 0]) / den
    b2 = (v0[:, 0] * v2[..., 1] - v0[:, 1] * v2[..., 0]) / den
    bary = np.stack([1.0 - b1 - b2, b1, b2], axis=-1)
    interior = np.count_nonzero(np.all(bary > _RAY_TOL, axis=-1), axis=-1)
    closure = np.any(np.all(bary >= -_RAY_TOL, axis=-1), axis=-1)
    counts = np.where(interior > 0, interior, closure)
    return int(counts) if d.ndim == 1 else counts


def sample_interior_rays(surface: PolyhedralSurface, n, seed=0) -> np.ndarray:
    """Future directions through random interior points of the slice."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet((1.0, 1.0, 1.0), size=n)
    faces = rng.integers(0, 2, size=n)
    pts = np.einsum("ni,nij->nj", weights, surface.coords[faces])
    dirs = np.concatenate([np.full((n, 1), surface.t0), pts], axis=1)
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
