"""Corner sets: subsets of a manifold described by adapted local charts.

A corner set ``K`` of dimension ``k`` inside an ``n``-manifold is described
pointwise: at each ``q`` in ``K`` an adapted chart centered at ``q`` maps
``K`` onto ``{x : A_hat x_{1..k} <= 0, x_{k+1..n} = 0}`` where the ``l x k``
matrix ``A_hat`` has full row rank.  The number ``l`` of inequality rows is
the corner index of ``q`` and does not depend on the adapted chart chosen.

Corner sets are defined by their adapted-chart suppliers; :func:`validate`
checks a supplied description for consistency (rank, index bound, and
membership agreement on sampled points) instead of constructing charts from
implicit descriptions automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cones import PolyhedralCone, matrix_rank, null_space, sample_cone
from .errors import (BadParamsError, NotInSetError, ValidationFailureError)
from .geometry import (Chart, CircleCotangent, CircleProduct, Euclidean,
                       LinearizingMap, Manifold, Product, Sphere, _point_tag,
                       _zero_hess_contract)

TOL_FEAS = 1e-9  # membership tolerance for "q is in K"


@dataclass(frozen=True)
class AdaptedChartData:
    """Local corner description ``(n, k, l, A_hat)`` tied to an adapted chart."""

    n: int
    k: int
    ell: int
    a_hat: np.ndarray
    chart: Chart

    def __post_init__(self):
        a_hat = np.asarray(self.a_hat, dtype=float).reshape(self.ell, self.k if self.ell else max(self.k, 1))
        if self.ell:
            object.__setattr__(self, "a_hat", a_hat.reshape(self.ell, self.k))
        else:
            object.__setattr__(self, "a_hat", np.zeros((0, self.k)))

    def inequality_rows(self) -> np.ndarray:
        """Rows ``[A_hat 0]`` acting on full chart coordinates."""
        rows = np.zeros((self.ell, self.n))
        rows[:, :self.k] = self.a_hat
        return rows

    def equality_rows(self) -> np.ndarray:
        """Rows selecting the trailing ``n - k`` coordinates."""
        rows = np.zeros((self.n - self.k, self.n))
        rows[:, self.k:] = np.eye(self.n - self.k)
        return rows

    def cone(self) -> PolyhedralCone:
        """Inner tangent cone in this chart's coordinates."""
        return PolyhedralCone.from_rows(self.inequality_rows(),
                                        self.equality_rows(), self.n)


class CornerSet:
    """Base class: a submanifold-with-corners known through adapted charts."""

    ambient: Manifold
    dim: int
    chart_kinds: tuple = ("default",)
    linmap_kinds: tuple = ("chart",)

    def contains(self, q: np.ndarray, tol: float = TOL_FEAS) -> bool:
        raise NotImplementedError

    def adapted_chart(self, q: np.ndarray, kind: str = "default") -> AdaptedChartData:
        raise NotImplementedError

    def linearizing_map(self, q: np.ndarray, kind: str = "chart") -> LinearizingMap:
        """An adapted linearizing map at ``q``: ``chart`` is the one induced
        by the default adapted chart, and ``bent``, where ``linmap_kinds``
        lists it, its curved rescaling."""
        data = self.adapted_chart(q)
        if kind == "chart":
            return chart_linearizing_map(data)
        if kind == "bent" and kind in self.linmap_kinds:
            return scaling_linearizing_map(data)
        raise ValueError(f"unknown linearizing map kind {kind!r}")

    def project(self, q: np.ndarray) -> np.ndarray:
        """Nearest-point heuristic used by the solver's restoration step."""
        raise NotImplementedError(f"{type(self).__name__} supplies no projection")

    def solver_reference(self, q: np.ndarray, band: float) -> np.ndarray:
        """Corner point at which the solver centers its local description.

        Centering on the face whose rows are within ``band`` of activity lets
        the chart image of ``q`` carry the true slacks into the linearized
        subproblem.  The default ignores the band and projects.
        """
        del band
        if self.contains(q):
            return np.asarray(q, dtype=float)
        return self.project(q)

    def sample_near(self, q: np.ndarray, rng: np.random.Generator, n: int,
                    scale: float = 0.3) -> np.ndarray:
        """Points of K near ``q`` drawn through the adapted chart."""
        data = self.adapted_chart(q)
        cone = data.cone()
        dirs = sample_cone(cone, rng, n)
        radii = rng.uniform(0.05, 1.0, n) * scale * min(data.chart.radius, 1.0)
        pts = np.zeros((n, self.ambient.ambient_dim))
        for i in range(n):
            pts[i] = data.chart.inverse(radii[i] * dirs[i])
        return pts

    def _require_member(self, q: np.ndarray, tol: float = TOL_FEAS) -> None:
        if not self.contains(q, tol):
            raise NotInSetError(f"point is not in the corner set {type(self).__name__}")


def chart_linearizing_map(data: AdaptedChartData, name: str = "chart") -> LinearizingMap:
    """The adapted linearizing map induced by an adapted chart."""
    chart = data.chart
    return LinearizingMap(
        base=chart.center, dim=data.n,
        map_fn=chart.forward,
        chart=chart,
        inverse_fn=chart.inverse,
        cone=data.cone(),
        name=name,
        domain_radius=chart.radius,
        differential_fn=chart.forward_jacobian_fn,
        hess_contract_fn=chart.forward_hess_contract_fn)


def scaling_linearizing_map(data: AdaptedChartData, gamma: float = 0.4,
                            name: str = "bent") -> LinearizingMap:
    """A curved adapted map: chart coordinates scaled by ``1 + gamma * sum(x)``.

    Positive rescaling preserves every homogeneous cone constraint, so the
    map stays adapted while its transition to the chart-induced map has a
    non-vanishing second derivative.
    """
    chart = data.chart
    radius = min(chart.radius, 0.5 / (abs(gamma) * math.sqrt(max(data.n, 1))))

    def fwd(q, chart=chart, gamma=gamma):
        x = chart.forward(q)
        return x * (1.0 + gamma * float(np.sum(x)))

    def inv(v, chart=chart, gamma=gamma):
        v = np.asarray(v, dtype=float)
        s_img = float(np.sum(v))
        disc = 1.0 + 4.0 * gamma * s_img
        if disc <= 0.0:
            raise ValueError("scaled linearizing map: coordinates leave the domain")
        s = (-1.0 + math.sqrt(disc)) / (2.0 * gamma)
        return chart.inverse(v / (1.0 + gamma * s))

    jac = hess = None
    if chart.forward_jacobian_fn is not None:
        def jac(q, chart=chart, gamma=gamma):
            x = chart.forward(q)
            dpsi = chart.forward_differential(q)
            return (1.0 + gamma * float(np.sum(x))) * dpsi \
                + gamma * np.outer(x, np.sum(dpsi, axis=0))

        if chart.forward_hess_contract_fn is not None:
            def hess(q, mu, chart=chart, gamma=gamma):
                # S = s(x) x with s = 1 + gamma 1^T x and x = psi(q): in x the
                # contraction is gamma (mu 1^T + 1 mu^T), and psi's own second
                # derivative takes the covector (s I + gamma 1 x^T) mu
                x = chart.forward(q)
                dpsi = chart.forward_differential(q)
                mu = np.asarray(mu, dtype=float)
                ones = np.ones(x.size)
                inner = gamma * (np.outer(mu, ones) + np.outer(ones, mu))
                covec = (1.0 + gamma * float(np.sum(x))) * mu + gamma * float(x @ mu) * ones
                return dpsi.T @ inner @ dpsi + chart.forward_hess_contract_fn(q, covec)

    return LinearizingMap(
        base=chart.center, dim=data.n,
        map_fn=fwd, chart=chart, inverse_fn=inv,
        cone=data.cone(), name=name, domain_radius=radius,
        differential_fn=jac, hess_contract_fn=hess)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def corner_index(corner_set: CornerSet, q: np.ndarray, kind: str = "default") -> int:
    """Number of active inequality rows at ``q``; chart-independent."""
    corner_set._require_member(q)
    return corner_set.adapted_chart(q, kind=kind).ell


def inner_tangent_cone(corner_set: CornerSet, q: np.ndarray,
                       kind: str = "default") -> PolyhedralCone:
    """The cone of inner tangent vectors in adapted chart coordinates."""
    corner_set._require_member(q)
    return corner_set.adapted_chart(q, kind=kind).cone()


def tangent_space_basis(corner_set: CornerSet, q: np.ndarray,
                        kind: str = "default") -> np.ndarray:
    """Orthonormal basis of T_q K (dimension k) in adapted chart coordinates."""
    corner_set._require_member(q)
    data = corner_set.adapted_chart(q, kind=kind)
    return null_space(data.equality_rows(), data.n)


def zero_tangent_space(corner_set: CornerSet, q: np.ndarray,
                       kind: str = "default") -> np.ndarray:
    """Basis of the subspace ``{v : A_hat v = 0, W v = 0}`` (dimension k - l)."""
    corner_set._require_member(q)
    data = corner_set.adapted_chart(q, kind=kind)
    stacked = np.vstack([data.inequality_rows(), data.equality_rows()])
    return null_space(stacked, data.n)


@dataclass
class CornerValidationReport:
    ell: int
    k: int
    n: int
    rank_a_hat: int
    center_residual: float
    membership_checked: int
    membership_mismatches: int

    @property
    def passed(self) -> bool:
        return self.membership_mismatches == 0


def validate(corner_set: CornerSet, q: np.ndarray, tol: float = 1e-7,
             kind: str = "default", n_samples: int = 200,
             seed: int = 0) -> CornerValidationReport:
    """Check an adapted-chart description for structural consistency.

    Verifies ``rank(A_hat) = l``, ``l <= k <= n``, chart centering, and that
    membership of sampled nearby points agrees with the chart-coordinate
    description ``{A_hat x <= tol, |W x| <= tol}``.  Raises
    :class:`ValidationFailureError` naming the violated condition.
    """
    corner_set._require_member(q)
    data = corner_set.adapted_chart(q, kind=kind)
    if not (0 <= data.ell <= data.k <= data.n):
        raise ValidationFailureError(
            f"index bound violated: need 0 <= l <= k <= n, got "
            f"l={data.ell}, k={data.k}, n={data.n}")
    rank = matrix_rank(data.a_hat) if data.ell else 0
    if rank != data.ell:
        raise ValidationFailureError(
            f"surjectivity violated: rank(A_hat) = {rank} != l = {data.ell}")
    center_residual = float(np.linalg.norm(data.chart.forward(q)))
    if center_residual > tol:
        raise ValidationFailureError(
            f"chart not centered at the query point: |psi(q)| = {center_residual:.3g}")

    rng = np.random.default_rng(seed)
    rows_i = data.inequality_rows()
    rows_e = data.equality_rows()
    mismatches = 0
    checked = 0
    sample_radius = min(data.chart.radius, 1.0)
    for _ in range(n_samples):
        x = rng.standard_normal(data.n)
        x *= rng.uniform(0.0, 0.4) * sample_radius / max(np.linalg.norm(x), 1e-12)
        if rng.uniform() < 0.5:
            # bias half the samples onto the model set, equalities included
            if rows_e.size:
                basis = null_space(rows_e, data.n)
                x = basis @ (basis.T @ x)
            if rows_i.size:
                viol = rows_i @ x
                for j in np.flatnonzero(viol > 0):
                    x = x - viol[j] * rows_i[j] / float(rows_i[j] @ rows_i[j])
        try:
            point = data.chart.inverse(x)
        except Exception:
            continue
        scale = tol * (1.0 + float(np.linalg.norm(x)))
        in_chart_model = True
        if rows_i.size and np.max(rows_i @ x) > scale:
            in_chart_model = False
        if rows_e.size and np.max(np.abs(rows_e @ x)) > scale:
            in_chart_model = False
        in_set = corner_set.contains(point, tol)
        checked += 1
        if in_chart_model != in_set:
            # skip knife-edge samples within tolerance of the boundary
            boundary_gap = min(
                abs(float(np.max(rows_i @ x))) if rows_i.size else np.inf,
                abs(float(np.max(np.abs(rows_e @ x)))) if rows_e.size else np.inf)
            if boundary_gap <= 10.0 * scale:
                continue
            mismatches += 1
    report = CornerValidationReport(
        ell=data.ell, k=data.k, n=data.n, rank_a_hat=rank,
        center_residual=center_residual,
        membership_checked=checked, membership_mismatches=mismatches)
    if mismatches:
        raise ValidationFailureError(
            f"membership disagrees with the adapted description on "
            f"{mismatches}/{checked} sampled points")
    return report


@dataclass
class AdaptednessReport:
    n_member: int
    member_violations: int
    n_outside: int
    outside_misses: int
    max_member_residual: float

    @property
    def adapted(self) -> bool:
        return self.member_violations == 0 and self.outside_misses == 0


def check_adapted(linmap: LinearizingMap, corner_set: CornerSet, q: np.ndarray,
                  n_samples: int = 200, seed: int = 0, tol: float = 1e-7,
                  scale: float = 0.25) -> AdaptednessReport:
    """Sampling check of ``S(K cap U) = S(U) cap cone``.

    Points of K must land in the cone; points off K must not.  Samples far
    enough from the boundary are used for the negative direction so that a
    genuinely non-adapted map is exposed rather than tolerated.
    """
    corner_set._require_member(q)
    rng = np.random.default_rng(seed)
    data = corner_set.adapted_chart(q)
    cone = linmap.cone
    if cone is None:
        # candidate map without a declared cone: test it against the
        # canonical description; frames must agree for that to make sense
        if linmap.chart is not None and linmap.chart.chart_id != data.chart.chart_id:
            raise ValueError(
                "cannot infer a target cone: the map's frame differs from the "
                "canonical adapted chart")
        cone = data.cone()
    member_pts = corner_set.sample_near(q, rng, n_samples, scale=scale)
    member_viol = 0
    max_resid = 0.0
    for pt in member_pts:
        image = linmap(pt)
        resid = 0.0
        if cone.n_ineq:
            resid = max(resid, float(np.max(cone.a_ineq @ image)))
        if cone.n_eq:
            resid = max(resid, float(np.max(np.abs(cone.a_eq @ image))))
        max_resid = max(max_resid, resid)
        if not cone.contains(image, tol):
            member_viol += 1
    outside = 0
    misses = 0
    attempts = 0
    while outside < n_samples and attempts < 20 * n_samples:
        attempts += 1
        x = rng.standard_normal(data.n)
        x *= rng.uniform(0.05, 1.0) * scale * min(data.chart.radius, 1.0) \
            / np.linalg.norm(x)
        # require a clear margin outside the chart model of K
        margin = tol * 100.0 * (1.0 + np.linalg.norm(x))
        rows_i = data.inequality_rows()
        rows_e = data.equality_rows()
        clear = False
        if rows_i.size and np.max(rows_i @ x) > margin:
            clear = True
        if rows_e.size and np.max(np.abs(rows_e @ x)) > margin:
            clear = True
        if not clear:
            continue
        try:
            pt = data.chart.inverse(x)
        except Exception:
            continue
        if corner_set.contains(pt, tol):
            continue
        outside += 1
        if cone.contains(linmap(pt), tol):
            misses += 1
    return AdaptednessReport(
        n_member=len(member_pts), member_violations=member_viol,
        n_outside=outside, outside_misses=misses,
        max_member_residual=max_resid)


# ---------------------------------------------------------------------------
# Built-in corner sets
# ---------------------------------------------------------------------------

class EuclideanCornerSet(CornerSet):
    """``K = {y in R^n : y_i <= 0 (i in ineq), y_j = 0 (j in eq)}``.

    The equality coordinates must form the trailing block so that the
    identity-shift chart is adapted without reordering: the first
    ``k = n - n_eq`` coordinates span K, and ``A_hat`` consists of the unit
    rows selecting active inequality coordinates.  Covers the classical
    nonlinear-programming cone and zero sections of trivialized cotangent
    spaces.
    """

    chart_kinds = ("default", "scaled")
    linmap_kinds = ("chart", "bent")

    def __init__(self, n: int, ineq: Sequence[int], eq: Sequence[int]):
        ineq = tuple(sorted(int(i) for i in ineq))
        eq = tuple(sorted(int(j) for j in eq))
        if set(ineq) & set(eq):
            raise BadParamsError("inequality and equality index sets overlap")
        if any(i < 0 or i >= n for i in ineq + eq):
            raise BadParamsError("constraint index outside 0..n-1")
        k = n - len(eq)
        if eq != tuple(range(k, n)):
            raise BadParamsError("equality coordinates must form the trailing block")
        if any(i >= k for i in ineq):
            raise BadParamsError("inequality coordinates must lie in the leading block")
        self.ambient = Euclidean(n)
        self.n = n
        self.ineq = ineq
        self.eq = eq
        self.dim = k

    def contains(self, q, tol: float = TOL_FEAS) -> bool:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.n,):
            return False
        if self.ineq and np.max(q[list(self.ineq)]) > tol:
            return False
        if self.eq and np.max(np.abs(q[list(self.eq)])) > tol:
            return False
        return True

    def project(self, q):
        q = np.asarray(q, dtype=float).copy()
        if self.ineq:
            idx = list(self.ineq)
            q[idx] = np.minimum(q[idx], 0.0)
        if self.eq:
            q[list(self.eq)] = 0.0
        return q

    def snap_to_face(self, q, active):
        q = np.asarray(self.project(q), dtype=float).copy()
        for i in active:
            q[i] = 0.0
        return q

    def solver_reference(self, q, band):
        q = np.asarray(q, dtype=float)
        near = [i for i in self.ineq if q[i] >= -band]
        return self.snap_to_face(q, near)

    def _active(self, q, tol: float = TOL_FEAS):
        q = np.asarray(q, dtype=float)
        return tuple(i for i in self.ineq if abs(q[i]) <= tol)

    def adapted_chart(self, q, kind: str = "default",
                      active_tol: float = TOL_FEAS) -> AdaptedChartData:
        if kind not in self.chart_kinds:
            raise ValueError(f"unknown adapted chart kind {kind!r}")
        self._require_member(q)
        q = np.asarray(q, dtype=float)
        active = self._active(q, active_tol)
        inactive = tuple(i for i in self.ineq if i not in active)
        k = self.dim
        ell = len(active)
        # chart domain: keep inactive rows inactive; without any the shift
        # chart describes K globally
        if inactive:
            radius = min(1.0, float(np.min(np.abs(q[list(inactive)]))))
        else:
            radius = 1e8
        if kind == "scaled":
            diag = 1.0 + 0.5 * (np.arange(self.n) % 3)
        else:
            diag = np.ones(self.n)

        def fwd(pt, q=q, diag=diag):
            return diag * (np.asarray(pt, dtype=float) - q)

        def inv(x, q=q, diag=diag):
            return q + np.asarray(x, dtype=float) / diag

        def inv_jac(x, diag=diag):
            return np.diag(1.0 / diag)

        def fwd_jac(pt, diag=diag):
            return np.diag(diag)

        chart = Chart(center=q, dim=self.n, radius=radius,
                      forward_fn=fwd, inverse_fn=inv,
                      inverse_jacobian_fn=inv_jac, forward_jacobian_fn=fwd_jac,
                      forward_hess_contract_fn=_zero_hess_contract(self.n),
                      chart_id=f"corner:{kind}@{_point_tag(q)}")
        a_hat = np.zeros((ell, k))
        for r, i in enumerate(active):
            a_hat[r, i] = 1.0
        return AdaptedChartData(n=self.n, k=k, ell=ell, a_hat=a_hat, chart=chart)


class SphereTriangleCornerSet(CornerSet):
    """A geodesic triangle on S^2, stored by oriented edge normals.

    An edge through vertices ``a, b`` is the great circle with unit normal
    ``n = (a x b)/|a x b|``; feasibility at ``p`` is ``<log_q p, n> <= 0`` in
    any vertex log chart on the edge, which carries the same sign as
    ``<p, n>`` within the chart domain (the global half-space form is only a
    computational shortcut for that local convention).
    """

    chart_kinds = ("log", "gnomonic", "default")
    linmap_kinds = ("log", "gnomonic", "chart")

    def __init__(self, vertices: np.ndarray):
        vertices = np.asarray(vertices, dtype=float)
        if vertices.shape != (3, 3):
            raise BadParamsError("need three vertices in R^3")
        norms = np.linalg.norm(vertices, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise BadParamsError("vertices must be unit vectors")
        self.vertices = vertices
        self.ambient = Sphere(2)
        self.dim = 2
        normals = []
        for (ia, ib, ic) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            nvec = np.cross(vertices[ia], vertices[ib])
            norm = np.linalg.norm(nvec)
            if norm < 1e-9:
                raise BadParamsError("degenerate triangle: two vertices are (anti)parallel")
            nvec = nvec / norm
            side = float(vertices[ic] @ nvec)
            if abs(side) < 1e-9:
                raise BadParamsError("degenerate triangle: vertex on opposite edge")
            normals.append(-np.sign(side) * nvec)
        self.normals = np.array(normals)
        for v in vertices:
            if np.max(self.normals @ v) > 1e-9:
                raise BadParamsError("vertices are not a consistently oriented triangle")

    def contains(self, q, tol: float = TOL_FEAS) -> bool:
        q = np.asarray(q, dtype=float)
        if not self.ambient.is_point(q, 1e-7):
            return False
        return bool(np.max(self.normals @ q) <= tol)

    def edge_values(self, q) -> np.ndarray:
        return self.normals @ np.asarray(q, dtype=float)

    def active_edges(self, q, tol: float = TOL_FEAS):
        vals = self.edge_values(q)
        return tuple(int(i) for i in np.flatnonzero(np.abs(vals) <= tol))

    def adapted_chart(self, q, kind: str = "default",
                      active_tol: float = TOL_FEAS) -> AdaptedChartData:
        if kind == "default":
            kind = "log"
        if kind not in ("log", "gnomonic"):
            raise ValueError(f"unknown adapted chart kind {kind!r}")
        self._require_member(q)
        q = np.asarray(q, dtype=float)
        active = self.active_edges(q, active_tol)
        chart = self.ambient.chart(q, kind)
        # keep inactive edges outside the chart ball
        vals = self.edge_values(q)
        inactive_gap = [math.asin(min(1.0, abs(vals[i])))
                        for i in range(3) if i not in active]
        radius = chart.radius
        if inactive_gap:
            gap = 0.9 * min(inactive_gap)
            radius = min(radius, gap if kind == "log" else math.tan(min(gap, 1.2)))
        chart = Chart(center=chart.center, dim=chart.dim, radius=radius,
                      forward_fn=chart.forward_fn, inverse_fn=chart.inverse_fn,
                      inverse_jacobian_fn=chart.inverse_jacobian_fn,
                      forward_jacobian_fn=chart.forward_jacobian_fn,
                      chart_id=chart.chart_id)
        basis = chart.differential_at(np.zeros(2))  # frame of both chart kinds at 0
        a_hat = np.array([self.normals[i] @ basis for i in active]).reshape(len(active), 2)
        # normalize rows for a well-scaled description
        if a_hat.size:
            a_hat = a_hat / np.linalg.norm(a_hat, axis=1, keepdims=True)
        return AdaptedChartData(n=2, k=2, ell=len(active), a_hat=a_hat, chart=chart)

    def linearizing_map(self, q, kind: str = "chart") -> LinearizingMap:
        if kind == "chart":
            kind = "log"
        data = self.adapted_chart(q, kind=kind)
        return chart_linearizing_map(data, name=kind)

    def snap_to_face(self, q, active):
        q = np.asarray(q, dtype=float)
        q = q / np.linalg.norm(q)
        active = sorted(active)
        if len(active) == 1:
            nvec = self.normals[active[0]]
            w = q - float(q @ nvec) * nvec
            if np.linalg.norm(w) > 1e-12:
                q = w / np.linalg.norm(w)
        elif len(active) >= 2:
            vert = np.cross(self.normals[active[0]], self.normals[active[1]])
            norm = np.linalg.norm(vert)
            if norm > 1e-12:
                vert = vert / norm
                q = vert if float(vert @ q) >= 0 else -vert
        return self.project(q)

    def solver_reference(self, q, band):
        vals = self.edge_values(q)
        near = [i for i in range(3) if vals[i] >= -band]
        if not near:
            return self.project(q)
        return self.snap_to_face(q, near)

    def project(self, q):
        q = np.asarray(q, dtype=float)
        q = q / np.linalg.norm(q)
        if self.contains(q):
            return q
        candidates = list(self.vertices)
        for nvec in self.normals:
            proj = q - (q @ nvec) * nvec
            norm = np.linalg.norm(proj)
            if norm < 1e-12:
                continue
            proj = proj / norm
            if self.contains(proj, 1e-9):
                candidates.append(proj)
        scores = [q @ c for c in candidates]
        return candidates[int(np.argmax(scores))]


class DiagonalCornerSet(CornerSet):
    """The diagonal ``{(q, q)}`` inside a product ``N x N``."""

    chart_kinds = ("default", "alt")
    linmap_kinds = ("chart", "bent")

    def __init__(self, factor: Manifold, factor_chart_kinds: Optional[tuple] = None):
        self.factor = factor
        self.ambient = Product(factor, factor)
        self.dim = factor.dim
        if factor_chart_kinds is None:
            kinds = factor.chart_kinds
            factor_chart_kinds = (kinds[0], kinds[1] if len(kinds) > 1 else kinds[0])
        self._factor_kinds = {"default": factor_chart_kinds[0],
                              "alt": factor_chart_kinds[1]}

    def contains(self, q, tol: float = TOL_FEAS) -> bool:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.ambient.ambient_dim,):
            return False
        q1, q2 = self.ambient.parts(q)
        if not (self.factor.is_point(q1, 1e-7) and self.factor.is_point(q2, 1e-7)):
            return False
        return bool(np.linalg.norm(q1 - q2) <= max(tol, 1e-9) * 10.0)

    def project(self, q):
        q1, q2 = self.ambient.parts(q)
        mid = q1 + 0.5 * (q2 - q1)
        if hasattr(self.factor, "project"):
            mid = self.factor.project(mid)
        return self.ambient.join([mid, mid])

    def adapted_chart(self, q, kind: str = "default") -> AdaptedChartData:
        if kind not in self.chart_kinds:
            raise ValueError(f"unknown adapted chart kind {kind!r}")
        self._require_member(q)
        q = np.asarray(q, dtype=float)
        q1, _ = self.ambient.parts(q)
        factor_chart = self.factor.chart(q1, self._factor_kinds[kind])
        d = self.factor.dim
        amb = self.factor.ambient_dim

        def fwd(pt, c=factor_chart, self=self):
            a, b = self.ambient.parts(pt)
            xa = c.forward(a)
            xb = c.forward(b)
            return np.concatenate([xa, xb - xa])

        def inv(x, c=factor_chart, d=d, self=self):
            x = np.asarray(x, dtype=float)
            a = c.inverse(x[:d])
            b = c.inverse(x[:d] + x[d:])
            return self.ambient.join([a, b])

        chart = Chart(center=q, dim=2 * d, radius=factor_chart.radius * 0.45,
                      forward_fn=fwd, inverse_fn=inv,
                      chart_id=f"diagonal:{kind}@{_point_tag(q)}")
        return AdaptedChartData(n=2 * d, k=d, ell=0,
                                a_hat=np.zeros((0, d)), chart=chart)


class CircleZeroSection(CornerSet):
    """The zero section ``{w = 0}`` of the trivialized bundle T*(S^1)^N."""

    chart_kinds = ("default", "alt")
    linmap_kinds = ("chart", "pullback")

    def __init__(self, bundle: CircleCotangent):
        self.bundle = bundle
        self.ambient = bundle
        self.dim = bundle.n_nodes

    def contains(self, q, tol: float = TOL_FEAS) -> bool:
        q = np.asarray(q, dtype=float)
        if not self.bundle.is_point(q, 1e-7):
            return False
        _, fibre = self.bundle.split(q)
        return bool(np.max(np.abs(fibre)) <= tol)

    def project(self, q):
        base, _ = self.bundle.split(q)
        norms = np.linalg.norm(base.reshape(-1, 2), axis=1, keepdims=True)
        base = (base.reshape(-1, 2) / norms).ravel()
        return self.bundle.join(base, np.zeros(self.bundle.n_nodes))

    def adapted_chart(self, q, kind: str = "default") -> AdaptedChartData:
        self._require_member(q)
        chart = self.bundle.chart(q, kind)
        n = self.bundle.dim
        k = self.bundle.n_nodes
        return AdaptedChartData(n=n, k=k, ell=0, a_hat=np.zeros((0, k)), chart=chart)

    def linearizing_map(self, q, kind: str = "chart") -> LinearizingMap:
        data = self.adapted_chart(q)
        if kind == "chart":
            return chart_linearizing_map(data)
        if kind != "pullback":
            raise ValueError(f"unknown linearizing map kind {kind!r}")
        # Adapted map built from the per-node projection retraction R on the
        # base: (y, w) -> (R^{-1}(y), w o DR(R^{-1}(y))).
        bundle = self.bundle
        base0, _ = bundle.split(q)
        theta0 = CircleProduct._angles(base0)
        n_nodes = bundle.n_nodes

        def fwd(pt, theta0=theta0, bundle=bundle):
            base, fibre = bundle.split(pt)
            d = CircleProduct._angles(base) - theta0
            d = (d + math.pi) % (2.0 * math.pi) - math.pi
            v = np.tan(d)
            return np.concatenate([v, fibre / (1.0 + v * v)])

        def inv(x, theta0=theta0, bundle=bundle, n=n_nodes):
            x = np.asarray(x, dtype=float)
            v = x[:n]
            d = np.arctan(v)
            fibre = x[n:] * (1.0 + v * v)
            return bundle.join(CircleProduct._from_angles(theta0 + d), fibre)

        return LinearizingMap(
            base=np.asarray(q, dtype=float), dim=bundle.dim,
            map_fn=fwd, chart=data.chart, inverse_fn=inv,
            cone=data.cone(), name="pullback",
            domain_radius=math.pi / 2 * 0.9)


class ProductCornerSet(CornerSet):
    """Product of two corner sets; the corner index adds up."""

    def __init__(self, first: CornerSet, second: CornerSet):
        self.first = first
        self.second = second
        self.ambient = Product(first.ambient, second.ambient)
        self.dim = first.dim + second.dim
        self.chart_kinds = tuple(sorted(set(first.chart_kinds) & set(second.chart_kinds)))

    def contains(self, q, tol: float = TOL_FEAS) -> bool:
        q1, q2 = self.ambient.parts(q)
        return self.first.contains(q1, tol) and self.second.contains(q2, tol)

    def adapted_chart(self, q, kind: str = "default") -> AdaptedChartData:
        self._require_member(q)
        q1, q2 = self.ambient.parts(q)
        d1 = self.first.adapted_chart(q1, kind)
        d2 = self.second.adapted_chart(q2, kind)
        n = d1.n + d2.n
        k = d1.k + d2.k
        ell = d1.ell + d2.ell
        # stack chart coordinates, then reorder to (k-block of 1, k-block of 2, rest)
        perm = np.concatenate([
            np.arange(d1.k),
            d1.n + np.arange(d2.k),
            d1.k + np.arange(d1.n - d1.k),
            d1.n + d2.k + np.arange(d2.n - d2.k)]).astype(int)

        def fwd(pt, d1=d1, d2=d2, self=self):
            a, b = self.ambient.parts(pt)
            stacked = np.concatenate([d1.chart.forward(a), d2.chart.forward(b)])
            return stacked[perm]

        def inv(x, d1=d1, d2=d2, self=self, perm=perm):
            x = np.asarray(x, dtype=float)
            stacked = np.empty(n)
            stacked[perm] = x
            return self.ambient.join([
                d1.chart.inverse(stacked[:d1.n]),
                d2.chart.inverse(stacked[d1.n:])])

        chart = Chart(center=np.asarray(q, dtype=float), dim=n,
                      radius=min(d1.chart.radius, d2.chart.radius),
                      forward_fn=fwd, inverse_fn=inv,
                      chart_id=f"product({d1.chart.chart_id},{d2.chart.chart_id})")
        a_hat = np.zeros((ell, k))
        if d1.ell:
            a_hat[:d1.ell, :d1.k] = d1.a_hat
        if d2.ell:
            a_hat[d1.ell:, d1.k:] = d2.a_hat
        return AdaptedChartData(n=n, k=k, ell=ell, a_hat=a_hat, chart=chart)
