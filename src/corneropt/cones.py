"""Polyhedral-cone algebra in explicit tangent-space coordinates.

A cone is stored as ``{v : A_I v <= 0, A_E v = 0}``.  Cones are never stored
chart-free; transporting one to another chart means transporting its rows
with the inverse-transpose transition Jacobian (:func:`transport_cone`).

Polar membership is decided by nonnegative least squares so that a
certificate ``(lambda_I, lambda_E)`` comes out of the test for free.
Implicit inequality rows (rows that vanish on the whole cone) are detected
with per-row linear programs and moved to the equality block before span or
ray computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import (DimensionMismatchError, DimensionTooLargeError,
                     IndexOutOfRangeError)

_RANK_RTOL = 1e-8          # singular-value threshold relative to sigma_max
_IMPLICIT_LP_TOL = 1e-9    # slack below which a row is an implicit equality
_RAY_DIM_LIMIT = 12        # double description beyond this raises


def matrix_rank(mat: np.ndarray, rtol: float = _RANK_RTOL) -> int:
    """Rank via singular values with a scale-invariant threshold."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return 0
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > rtol * svals[0]))


def null_space(mat: np.ndarray, dim: int, rtol: float = _RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the null space of ``mat`` acting on R^dim."""
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return np.eye(dim)
    return scipy.linalg.null_space(mat.reshape(-1, dim), rcond=rtol)


@dataclass(frozen=True)
class PolyhedralCone:
    """The cone ``{v in R^dim : a_ineq v <= 0, a_eq v = 0}``."""

    a_ineq: np.ndarray
    a_eq: np.ndarray

    def __post_init__(self):
        a_i = np.atleast_2d(np.asarray(self.a_ineq, dtype=float))
        a_e = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
        if a_i.size == 0 and a_e.size == 0:
            raise ValueError("cone needs at least one row or an explicit dimension; "
                             "use PolyhedralCone.full(dim) for the whole space")
        dim = a_i.shape[1] if a_i.size else a_e.shape[1]
        object.__setattr__(self, "a_ineq", a_i.reshape(-1, dim) if a_i.size else np.zeros((0, dim)))
        object.__setattr__(self, "a_eq", a_e.reshape(-1, dim) if a_e.size else np.zeros((0, dim)))

    @staticmethod
    def full(dim: int) -> "PolyhedralCone":
        cone = object.__new__(PolyhedralCone)
        object.__setattr__(cone, "a_ineq", np.zeros((0, dim)))
        object.__setattr__(cone, "a_eq", np.zeros((0, dim)))
        return cone

    @staticmethod
    def from_rows(a_ineq: Optional[np.ndarray], a_eq: Optional[np.ndarray],
                  dim: int) -> "PolyhedralCone":
        cone = object.__new__(PolyhedralCone)
        a_i = np.zeros((0, dim)) if a_ineq is None or np.size(a_ineq) == 0 \
            else np.asarray(a_ineq, dtype=float).reshape(-1, dim)
        a_e = np.zeros((0, dim)) if a_eq is None or np.size(a_eq) == 0 \
            else np.asarray(a_eq, dtype=float).reshape(-1, dim)
        object.__setattr__(cone, "a_ineq", a_i)
        object.__setattr__(cone, "a_eq", a_e)
        return cone

    @property
    def dim(self) -> int:
        return self.a_ineq.shape[1]

    @property
    def n_ineq(self) -> int:
        return self.a_ineq.shape[0]

    @property
    def n_eq(self) -> int:
        return self.a_eq.shape[0]

    def contains(self, v: np.ndarray, tol: float = 1e-9) -> bool:
        return contains(self, v, tol)

    def is_subspace(self, tol: float = _IMPLICIT_LP_TOL) -> bool:
        """True when every inequality row is an implicit equality."""
        return len(implicit_equalities(self, tol)) == self.n_ineq


@dataclass
class PolarCertificate:
    """Representation ``mu = A_I^T lambda_I + A_E^T lambda_E`` with lambda_I >= 0."""

    lambda_ineq: np.ndarray
    lambda_eq: np.ndarray
    residual: float


def contains(cone: PolyhedralCone, v: np.ndarray, tol: float = 1e-9) -> bool:
    """Membership with a relative slack ``tol * (1 + |v|)``."""
    v = np.asarray(v, dtype=float)
    if v.shape != (cone.dim,):
        raise DimensionMismatchError(
            f"vector of length {v.size} against cone of dimension {cone.dim}")
    slack = tol * (1.0 + float(np.linalg.norm(v)))
    if cone.n_ineq and np.max(cone.a_ineq @ v) > slack:
        return False
    if cone.n_eq and np.max(np.abs(cone.a_eq @ v)) > slack:
        return False
    return True


def nnls_mixed(columns_nonneg: np.ndarray, columns_free: np.ndarray,
               target: np.ndarray):
    """Minimize ``|target - N x - F y|`` over ``x >= 0`` and free ``y``.

    The free block is eliminated by orthogonal projection, the reduced
    problem goes through Lawson--Hanson NNLS, and ``y`` is recovered by
    least squares.  This is the exact joint minimizer.
    """
    target = np.asarray(target, dtype=float)
    m = target.size
    n_cols = columns_nonneg.shape[1] if columns_nonneg.size else 0
    f_cols = columns_free.shape[1] if columns_free.size else 0
    if f_cols:
        basis = scipy.linalg.orth(columns_free)
        proj = np.eye(m) - basis @ basis.T
    else:
        proj = np.eye(m)
    if n_cols:
        x, _ = scipy.optimize.nnls(proj @ columns_nonneg, proj @ target)
    else:
        x = np.zeros(0)
    resid_vec = target - (columns_nonneg @ x if n_cols else 0.0)
    if f_cols:
        y, *_ = np.linalg.lstsq(columns_free, resid_vec, rcond=None)
        resid_vec = resid_vec - columns_free @ y
    else:
        y = np.zeros(0)
    return x, y, float(np.linalg.norm(resid_vec))


def polar_contains(cone: PolyhedralCone, mu: np.ndarray,
                   tol: Optional[float] = None):
    """Decide ``mu in cone^polar`` and return the representation certificate.

    Solves ``min |mu - A_I^T lambda_I - A_E^T lambda_E|`` over
    ``lambda_I >= 0``; membership holds iff the optimal residual is below
    ``tol`` (default ``1e-8 * (1 + |mu|)``).
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (cone.dim,):
        raise DimensionMismatchError(
            f"covector of length {mu.size} against cone of dimension {cone.dim}")
    if tol is None:
        tol = 1e-8 * (1.0 + float(np.linalg.norm(mu)))
    lam_i, lam_e, residual = nnls_mixed(cone.a_ineq.T, cone.a_eq.T, mu)
    cert = PolarCertificate(lambda_ineq=lam_i, lambda_eq=lam_e, residual=residual)
    return residual <= tol, cert


def cone_disagreements(cone_a: PolyhedralCone, cone_b: PolyhedralCone,
                       transition_jac: np.ndarray) -> int:
    """Number of rows of either cone that are not valid on the other.

    Vectors transport as ``v_b = J v_a``, so ``cone_b``'s rows act in
    ``cone_a``'s chart as ``rows @ J``.  A cone lies in another iff every
    inequality row of the other, and both signs of every equality row, is in
    its polar (Farkas), one :func:`polar_contains` per sign; the count is 0
    iff the two cones are the same.
    """
    moved = PolyhedralCone.from_rows(cone_b.a_ineq @ transition_jac,
                                     cone_b.a_eq @ transition_jac, cone_a.dim)

    def invalid_rows(inner, outer):
        failures = sum(not polar_contains(inner, row)[0] for row in outer.a_ineq)
        return failures + sum(not (polar_contains(inner, row)[0]
                                   and polar_contains(inner, -row)[0])
                              for row in outer.a_eq)

    return invalid_rows(cone_a, moved) + invalid_rows(moved, cone_a)


def face(cone: PolyhedralCone, active: Iterable[int]) -> PolyhedralCone:
    """The face obtained by turning the ``active`` inequality rows into equalities."""
    active = sorted(set(int(i) for i in active))
    for i in active:
        if i < 0 or i >= cone.n_ineq:
            raise IndexOutOfRangeError(
                f"face index {i} outside 0..{cone.n_ineq - 1}")
    keep = [i for i in range(cone.n_ineq) if i not in active]
    return PolyhedralCone.from_rows(
        cone.a_ineq[keep], np.vstack([cone.a_eq, cone.a_ineq[active]]), cone.dim)


def _row_minimum_over_cone(cone: PolyhedralCone, row: np.ndarray) -> float:
    """Minimum of ``row . v`` over the cone intersected with the unit box."""
    res = scipy.optimize.linprog(
        c=row,
        A_ub=cone.a_ineq if cone.n_ineq else None,
        b_ub=np.zeros(cone.n_ineq) if cone.n_ineq else None,
        A_eq=cone.a_eq if cone.n_eq else None,
        b_eq=np.zeros(cone.n_eq) if cone.n_eq else None,
        bounds=[(-1.0, 1.0)] * cone.dim,
        method="highs")
    if not res.success:
        raise RuntimeError(f"implicit-equality LP failed: {res.message}")
    return float(res.fun)


def implicit_equalities(cone: PolyhedralCone,
                        tol: float = _IMPLICIT_LP_TOL) -> list:
    """Indices of inequality rows that vanish on the whole cone.

    Each row satisfies ``a_j v <= 0`` on the cone, so it is an implicit
    equality exactly when its minimum over the cone (boxed to keep the LP
    bounded) is zero as well.
    """
    out = []
    for j in range(cone.n_ineq):
        if _row_minimum_over_cone(cone, cone.a_ineq[j]) >= -tol:
            out.append(j)
    return out


def canonicalize(cone: PolyhedralCone, tol: float = _IMPLICIT_LP_TOL) -> PolyhedralCone:
    """Move implicit equality rows into the equality block."""
    implicit = implicit_equalities(cone, tol)
    if not implicit:
        return cone
    return face(cone, implicit)


def span_basis(cone: PolyhedralCone) -> np.ndarray:
    """Orthonormal basis (columns) of the linear span of the cone."""
    canon = canonicalize(cone)
    return null_space(canon.a_eq, canon.dim)


def lineality_basis(cone: PolyhedralCone) -> np.ndarray:
    """Orthonormal basis of the largest subspace contained in the cone."""
    stacked = np.vstack([cone.a_ineq, cone.a_eq])
    return null_space(stacked, cone.dim)


def _combinatorial_adjacent(active_i: frozenset, active_j: frozenset,
                            actives: Sequence[frozenset], i: int, j: int) -> bool:
    common = active_i & active_j
    for k, other in enumerate(actives):
        if k in (i, j):
            continue
        if common <= other:
            return False
    return True


def _dd_pointed(rows: np.ndarray, dim: int, tol: float = 1e-11):
    """Double description for ``{v : rows v <= 0}``: returns (rays, lineality).

    Starts from the full space as pure lineality and inserts one halfspace at
    a time.  Ray adjacency uses the combinatorial test on active sets.
    """
    lineality = [np.eye(dim)[:, i] for i in range(dim)]
    rays: list = []
    active: list = []  # per ray: set of processed row indices with a.r == 0
    processed: list = []

    for idx in range(rows.shape[0]):
        a = rows[idx]
        scale = max(1.0, float(np.linalg.norm(a)))
        lin_vals = [float(a @ l) for l in lineality]
        pivot = int(np.argmax(np.abs(lin_vals))) if lineality else -1
        if lineality and abs(lin_vals[pivot]) > tol * scale:
            # The halfspace cuts the lineality space: one direction becomes a
            # ray, the rest of the generators are shifted onto a v = 0.
            piv_vec = lineality[pivot]
            piv_val = lin_vals[pivot]
            new_lineality = []
            for l, val in zip(lineality, lin_vals):
                if l is piv_vec:
                    continue
                new_lineality.append(l - (val / piv_val) * piv_vec)
            new_rays = []
            new_active = []
            for r, act in zip(rays, active):
                shifted = r - (float(a @ r) / piv_val) * piv_vec
                new_rays.append(shifted)
                new_active.append(act | {idx})
            ray_from_line = -np.sign(piv_val) * piv_vec
            new_rays.append(ray_from_line)
            new_active.append(frozenset(act_idx for act_idx in processed
                                        if abs(rows[act_idx] @ ray_from_line) <= tol))
            lineality = new_lineality
            rays = [r / np.linalg.norm(r) for r in new_rays]
            active = [frozenset(a0) for a0 in new_active]
        else:
            vals = [float(a @ r) for r in rays]
            pos = [i for i, v in enumerate(vals) if v > tol * scale]
            neg = [i for i, v in enumerate(vals) if v < -tol * scale]
            zero = [i for i, v in enumerate(vals) if abs(v) <= tol * scale]
            if not pos:
                active = [active[i] | ({idx} if i in zero else set()) for i in range(len(rays))]
                processed.append(idx)
                continue
            new_rays = [rays[i] for i in neg] + [rays[i] for i in zero]
            new_active = [active[i] for i in neg] + [active[i] | {idx} for i in zero]
            for ip in pos:
                for im in neg:
                    if not _combinatorial_adjacent(active[ip], active[im], active, ip, im):
                        continue
                    combo = vals[ip] * rays[im] - vals[im] * rays[ip]
                    norm = np.linalg.norm(combo)
                    if norm <= tol:
                        continue
                    combo /= norm
                    new_rays.append(combo)
                    new_active.append((active[ip] & active[im]) | {idx})
            rays = new_rays
            active = new_active
        processed.append(idx)

    # Deduplicate rays (combinations can coincide in degenerate insertions).
    unique: list = []
    for r in rays:
        if not any(np.linalg.norm(r - u) < 1e-9 for u in unique):
            unique.append(r)
    return unique, lineality


def extreme_rays(cone: PolyhedralCone):
    """Generators of the cone: ``cone = {sum lambda_i r_i : lambda >= 0} + span(L)``.

    Returns ``(rays, lineality)`` where ``rays`` is a list of unit vectors and
    ``lineality`` an orthonormal ``(dim, s)`` basis.  Uses the double
    description method; limited to ``dim <= 12``.
    """
    if cone.dim > _RAY_DIM_LIMIT:
        raise DimensionTooLargeError(
            f"extreme ray enumeration limited to dim <= {_RAY_DIM_LIMIT}, got {cone.dim}")
    canon = canonicalize(cone)
    lin = lineality_basis(canon)

    # Work inside span(null(A_E)) orthogonal to the lineality space, where the
    # remaining cone is pointed.
    span_free = null_space(canon.a_eq, canon.dim)
    if span_free.shape[1] == 0:
        return [], lin
    if lin.shape[1]:
        coeff = lin.T @ span_free
        reduced = span_free - lin @ coeff
        basis = scipy.linalg.orth(reduced) if np.linalg.norm(reduced) > 1e-12 else np.zeros((cone.dim, 0))
    else:
        basis = span_free
    if basis.shape[1] == 0:
        return [], lin
    rows = canon.a_ineq @ basis
    rows = rows[np.linalg.norm(rows, axis=1) > 1e-13]
    rays_reduced, lin_reduced = _dd_pointed(rows, basis.shape[1])
    # A pointed reduction must not contain lines; residual lineality would
    # indicate the canonicalization missed an implicit equality.
    if lin_reduced:
        residual = [l for l in lin_reduced if np.linalg.norm(l) > 1e-9]
        if residual and rows.size:
            raise RuntimeError("double description found unexpected lineality")
        for l in residual:
            extra = basis @ (l / np.linalg.norm(l))
            lin = np.column_stack([lin, extra]) if lin.size else extra.reshape(-1, 1)
        lin = scipy.linalg.orth(lin) if lin.size else lin
    rays = [basis @ r for r in rays_reduced]
    return [r / np.linalg.norm(r) for r in rays], lin


def sample_cone(cone: PolyhedralCone, rng: np.random.Generator, n: int,
                rays=None, lineality=None) -> np.ndarray:
    """Random unit vectors inside the cone, generated from rays + lineality.

    Subspace cones (no inequality rows) are sampled directly from a null-space
    basis, which keeps high-dimensional equality-only cones out of the
    ray-enumeration path.
    """
    if rays is None and lineality is None and cone.n_ineq == 0:
        rays, lineality = [], null_space(cone.a_eq, cone.dim)
    if rays is None or lineality is None:
        rays, lineality = extreme_rays(cone)
    dim = cone.dim
    out = np.zeros((n, dim))
    n_rays = len(rays)
    n_lin = lineality.shape[1] if lineality is not None and lineality.size else 0
    for i in range(n):
        v = np.zeros(dim)
        if n_rays:
            weights = rng.exponential(size=n_rays)
            v = v + np.sum([w * r for w, r in zip(weights, rays)], axis=0)
        if n_lin:
            v = v + lineality @ rng.standard_normal(n_lin)
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            out[i] = 0.0
        else:
            out[i] = v / norm
    return out


def transport_cone(cone: PolyhedralCone, transition_jac: np.ndarray) -> PolyhedralCone:
    """Express the cone in the target chart of a transition with Jacobian ``J``.

    Vectors transport as ``v2 = J v1``; rows must transport with ``J^{-T}``
    so that row-vector pairings are preserved.
    """
    inv_t = np.linalg.inv(transition_jac).T
    return PolyhedralCone.from_rows(
        cone.a_ineq @ inv_t.T, cone.a_eq @ inv_t.T, cone.dim)


def linearizing_cone(loc) -> PolyhedralCone:
    """The cone of directions whose constraint linearization stays in the corner cone.

    In the chart of the local representation ``loc``
    (:meth:`ProblemInstance.local`) this is ``{v : A G v <= 0, W G v = 0}``
    where ``G`` is the chart Jacobian of the constraint and ``(A, W)`` come
    from the adapted chart at ``g(p)``.
    """
    data, jac = loc.corner, loc.jacobian
    return PolyhedralCone.from_rows(
        data.inequality_rows() @ jac, data.equality_rows() @ jac, loc.chart.dim)
