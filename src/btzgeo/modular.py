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
from .models import TWO_PI

S_MATRIX = np.array([[0.0, -1.0], [1.0, 0.0]])
T_MATRIX = np.array([[1.0, 1.0], [0.0, 1.0]])

_BASIS = (
    0.5 * np.array([[0.0, -1.0], [1.0, 0.0]]),  # e_t
    0.5 * np.array([[1.0, 0.0], [0.0, -1.0]]),  # e_x
    0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]),  # e_y
)


def sl2_adjoint(a) -> np.ndarray:
    """Matrix of Ad(a) on sl(2, R) in the (e_t, e_x, e_y) basis."""
    a = np.asarray(a, dtype=float)
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if abs(det - 1.0) > 1.0e-9:
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


def mobius(a, z):
    """Fractional linear action of a 2x2 matrix on the upper half plane."""
    a = np.asarray(a, dtype=float)
    return (a[0, 0] * z + a[0, 1]) / (a[1, 0] * z + a[1, 1])


def uhp_to_hyperboloid(z) -> np.ndarray:
    """Equivariant embedding of the upper half plane onto {q = -1, t > 0}."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    if np.any(y <= 0.0):
        raise ValueError("points must lie in the open upper half plane")
    return np.stack(
        [(1.0 + x**2 + y**2) / (2.0 * y), x / y, (1.0 - x**2 - y**2) / (2.0 * y)],
        axis=-1,
    )


def ideal_boundary_ray(x=None) -> np.ndarray:
    """Future null ray of a boundary point of the half plane (None = cusp)."""
    if x is None:
        return np.array([1.0, 0.0, -1.0])
    x = float(x)
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
    a = uhp_to_hyperboloid(rho)
    b = uhp_to_hyperboloid(1j)
    c = uhp_to_hyperboloid(rho + 1.0)
    inf = ideal_boundary_ray()
    t1 = IdealTriangle(
        "T1", ("A", "B", "INF"), np.stack([a, b, inf]), (False, False, True)
    )
    t2 = IdealTriangle(
        "T2", ("C", "B", "INF"), np.stack([c, b, inf]), (False, False, True)
    )
    return t1, t2


def hyperbolic_angle(v, w1, w2) -> float:
    """Angle at a hyperboloid point v between the directions to w1 and w2.

    The targets may be finite points or null rays; their projections onto
    the tangent plane at v are compared with the induced (positive definite)
    inner product.
    """
    v = np.asarray(v, dtype=float)
    if abs(float(q_form(v)) + 1.0) > 1.0e-9:
        raise ValueError("vertex must lie on the hyperboloid q = -1")

    def project(w):
        w = np.asarray(w, dtype=float)
        p = w + minkowski_inner(w, v) * v
        return p

    p1, p2 = project(w1), project(w2)
    n1 = math.sqrt(float(minkowski_inner(p1, p1)))
    n2 = math.sqrt(float(minkowski_inner(p2, p2)))
    cosang = float(minkowski_inner(p1, p2)) / (n1 * n2)
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


def _match_vertex(g: LorentzIsometry, src, dst, ideal):
    image = g.apply_linear(src)
    if ideal:
        image = image / image[0]
        target = dst / dst[0]
    else:
        target = dst
    return float(np.max(np.abs(image - target)))


def build_complex(tol=1.0e-9) -> SuspensionComplex:
    """Assemble and verify the two-triangle suspension complex.

    Every face pairing is checked on its edge endpoints
    (:class:`GluingMismatchError` on failure), and for the massive edge
    classes the elliptic rotation angle of the holonomy is checked against
    the incident angle sum.
    """
    t1, t2 = fundamental_triangles()
    gen = psl2z_generators()
    s, t = gen["S"], gen["T"]
    verts = {
        "A": t1.vertices[0],
        "B": t1.vertices[1],
        "C": t2.vertices[0],
        "INF": t1.vertices[2],
    }
    ideal = {"A": False, "B": False, "C": False, "INF": True}

    pairings = (
        FacePairing(
            "1",
            ("T1", ("B", "INF")),
            ("T2", ("B", "INF")),
            LorentzIsometry.identity(),
        ),
        FacePairing("S", ("T2", ("C", "B")), ("T1", ("A", "B")), s),
        FacePairing("T", ("T1", ("A", "INF")), ("T2", ("C", "INF")), t),
    )
    for pairing in pairings:
        _, src_edge = pairing.src
        _, dst_edge = pairing.dst
        for u, w in zip(src_edge, dst_edge):
            res = _match_vertex(pairing.isometry, verts[u], verts[w], ideal[u])
            if res > tol:
                raise GluingMismatchError(
                    f"pairing {pairing.word}: vertex {u} -> {w} residual {res:.3e}"
                )

    angle_b = hyperbolic_angle(verts["B"], verts["A"], verts["INF"]) + hyperbolic_angle(
        verts["B"], verts["C"], verts["INF"]
    )
    angle_ac = hyperbolic_angle(verts["A"], verts["B"], verts["INF"]) + hyperbolic_angle(
        verts["C"], verts["B"], verts["INF"]
    )
    hol_ac = t.inverse() @ s

    edge_classes = (
        EdgeClass("B", (("T1", "B"), ("T2", "B")), "massive", angle_b, s, "S"),
        EdgeClass(
            "A~C", (("T1", "A"), ("T2", "C")), "massive", angle_ac, hol_ac, "T^-1 S"
        ),
        EdgeClass("INF", (("T1", "INF"), ("T2", "INF")), "extremal", None, t, "T"),
    )
    for edge in edge_classes:
        info = classify_isometry(edge.holonomy)
        if edge.kind == "massive":
            if info["kind"] != "elliptic" or abs(info["angle"] - edge.cone_angle) > tol:
                raise GluingMismatchError(
                    f"edge {edge.label}: angle sum {edge.cone_angle!r} does not "
                    f"match holonomy ({info})"
                )
        elif info["kind"] != "parabolic":
            raise GluingMismatchError(
                f"edge {edge.label}: expected parabolic holonomy, got {info['kind']}"
            )
    return SuspensionComplex((t1, t2), pairings, edge_classes)


# =========================================================================
# Polyhedral Cauchy slice
# =========================================================================


@dataclass(frozen=True)
class PolyhedralSurface:
    """The time = t0 slice of the suspension: two Euclidean triangles.

    Vertex coordinates live in the slice plane (scaled Klein coordinates);
    ``cone_angles`` maps each identified vertex class to its total angle,
    and ``euler`` holds (V, E, F, chi) of the identified complex.
    """

    t0: float
    labels: tuple
    corner_names: tuple
    coords: np.ndarray
    vertex_classes: tuple
    cone_angles: dict
    edge_pairs: tuple
    edge_lengths: dict
    euler: tuple


def _euclidean_angle(p, q1, q2) -> float:
    u, w = q1 - p, q2 - p
    cosang = float(np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w)))
    return float(np.arccos(np.clip(cosang, -1.0, 1.0)))


def polyhedral_cauchy_surface(t0=1.0) -> PolyhedralSurface:
    """Slice the suspension at time t0 > 0."""
    t0 = float(t0)
    if t0 <= 0.0:
        raise ValueError("slice time must be positive")
    t1, t2 = fundamental_triangles()

    def slice_point(v):
        return t0 * np.array([v[1] / v[0], v[2] / v[0]])

    corner_names = (("A", "B", "INF"), ("C", "B", "INF"))
    coords = np.stack(
        [
            np.stack([slice_point(v) for v in t1.vertices]),
            np.stack([slice_point(v) for v in t2.vertices]),
        ]
    )
    vertex_classes = (("B",), ("A", "C"), ("INF",))
    corner_lookup = {}
    for f, names in enumerate(corner_names):
        for i, name in enumerate(names):
            corner_lookup[name] = corner_lookup.get(name, ()) + ((f, i),)
    cone_angles = {}
    for cls in vertex_classes:
        total = 0.0
        for name in cls:
            for f, i in corner_lookup[name]:
                tri = coords[f]
                total += _euclidean_angle(tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3])
        cone_angles["~".join(cls)] = total

    edge_pairs = (
        ((0, ("B", "INF")), (1, ("B", "INF"))),
        ((1, ("C", "B")), (0, ("A", "B"))),
        ((0, ("A", "INF")), (1, ("C", "INF"))),
    )
    name_to_idx = ({"A": 0, "B": 1, "INF": 2}, {"C": 0, "B": 1, "INF": 2})

    def edge_len(face, pair):
        i, j = (name_to_idx[face][n] for n in pair)
        return float(np.linalg.norm(coords[face][i] - coords[face][j]))

    edge_lengths = {
        (face, pair): edge_len(face, pair)
        for gluing in edge_pairs
        for face, pair in gluing
    }
    v, e, f = len(vertex_classes), len(edge_pairs), len(corner_names)
    return PolyhedralSurface(
        t0=t0,
        labels=("T1", "T2"),
        corner_names=corner_names,
        coords=coords,
        vertex_classes=vertex_classes,
        cone_angles=cone_angles,
        edge_pairs=edge_pairs,
        edge_lengths=edge_lengths,
        euler=(v, e, f, v - e + f),
    )


def gauss_bonnet_defect(surface: PolyhedralSurface) -> float:
    """Total angle defect sum(2 pi - cone angle) over vertex classes."""
    return float(sum(TWO_PI - k for k in surface.cone_angles.values()))


def _barycentric(p, tri):
    v0 = tri[1] - tri[0]
    v1 = tri[2] - tri[0]
    v2 = p - tri[0]
    den = v0[0] * v1[1] - v0[1] * v1[0]
    b1 = (v2[0] * v1[1] - v2[1] * v1[0]) / den
    b2 = (v0[0] * v2[1] - v0[1] * v2[0]) / den
    return np.array([1.0 - b1 - b2, b1, b2])


def ray_intersection_count(surface: PolyhedralSurface, direction, tol=1.0e-12) -> int:
    """Number of distinct intersection points of a future ray with the slice.

    ``direction`` is a future-pointing vector (d_t > 0); the ray is
    {s * direction : s > 0}.  Both slice triangles lie in the plane
    time = t0, so the ray meets the plane once and the count is 1 when that
    point lies in the union of the triangles (points on shared edges or
    vertices are counted once) and 0 otherwise.
    """
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    if d[0] <= 0.0:
        raise ValueError("direction must be future pointing (positive time)")
    scale = surface.t0 / d[0]
    p = scale * d[1:]
    for tri in surface.coords:
        if np.all(_barycentric(p, tri) >= -tol):
            return 1
    return 0


def sample_interior_rays(surface: PolyhedralSurface, n, seed=0) -> np.ndarray:
    """Future directions through random interior points of the slice."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet((1.0, 1.0, 1.0), size=n)
    faces = rng.integers(0, 2, size=n)
    pts = np.einsum("ni,nij->nj", weights, surface.coords[faces])
    dirs = np.concatenate([np.full((n, 1), surface.t0), pts], axis=1)
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
