"""Independent brute-force and finite-difference oracles.

Everything here exists to derive and verify reference values; nothing in the
solve path depends on this module.  The constrained projections used by the
tangent-cone probe go through SciPy's SLSQP so that the check stays
independent of the cone algebra it validates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.optimize

from .cones import linearizing_cone
from .errors import DimensionTooLargeError, DomainError, InfeasiblePointError
from .geometry import transition_jacobian
from .problem import LocalRepresentation, ProblemInstance


def fd_jacobian(fn: Callable, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued map."""
    if h <= 0:
        raise DomainError("finite-difference step must be positive")
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(fn(x), dtype=float))
    jac = np.zeros((f0.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        fp = np.atleast_1d(np.asarray(fn(x + e), dtype=float))
        fm = np.atleast_1d(np.asarray(fn(x - e), dtype=float))
        jac[:, j] = (fp - fm) / (2.0 * h)
    return jac


def fd_hessian(fn: Callable, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Symmetrized central-difference Hessian of a scalar map."""
    if h <= 0:
        raise DomainError("finite-difference step must be positive")
    x = np.asarray(x, dtype=float)
    n = x.size
    hess = np.zeros((n, n))
    f0 = float(fn(x))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        hess[i, i] = (float(fn(x + ei)) - 2.0 * f0 + float(fn(x - ei))) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            cross = (float(fn(x + ei + ej)) - float(fn(x + ei - ej))
                     - float(fn(x - ei + ej)) + float(fn(x - ei - ej))) / (4.0 * h * h)
            hess[i, j] = cross
            hess[j, i] = cross
    return 0.5 * (hess + hess.T)


def fd_second_tensor(fn: Callable, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Second derivative tensor ``T[a, i, j]`` of a vector-valued map."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(fn(x), dtype=float))
    n = x.size
    tensor = np.zeros((f0.size, n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        tensor[:, i, i] = (np.asarray(fn(x + ei)) - 2.0 * f0 + np.asarray(fn(x - ei))) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            cross = (np.asarray(fn(x + ei + ej)) - np.asarray(fn(x + ei - ej))
                     - np.asarray(fn(x - ei + ej)) + np.asarray(fn(x - ei - ej))) / (4.0 * h * h)
            tensor[:, i, j] = cross
            tensor[:, j, i] = cross
    return tensor


def tangent_cone_oracle(prob: ProblemInstance, p: np.ndarray, v_rep: np.ndarray,
                        trials: int = 8, chart_kind: str = "default",
                        adapted_kind: str = "default",
                        target: float = 1e-3) -> bool:
    """Search for a feasible tangential sequence for the direction ``v_rep``.

    For shrinking ``t_k`` the point ``t_k v`` is projected onto the local
    chart image of the feasible set by constrained least squares; the
    direction is accepted when the rescaled projections trend back to ``v``
    (monotone decrease of the gap below ``target``).  This is a
    semi-decision procedure: near the cone boundary the trend may be
    ambiguous, so callers should probe directions with a clear margin.
    """
    loc = prob.local(p, chart_kind, adapted_kind)
    chart_m, data = loc.chart, loc.corner
    gfun = prob.constraint_in_charts(chart_m, data.chart)
    rows_i = data.inequality_rows()
    rows_e = data.equality_rows()
    v = np.asarray(v_rep, dtype=float)
    norm_v = np.linalg.norm(v)
    if norm_v < 1e-14:
        return True
    constraints = []
    if rows_i.size:
        constraints.append({"type": "ineq", "fun": lambda x: -(rows_i @ gfun(x))})
    if rows_e.size:
        constraints.append({"type": "eq", "fun": lambda x: rows_e @ gfun(x)})

    gaps = []
    x_prev = None
    for k in range(1, trials + 1):
        t = 0.5 ** k
        scale = min(1.0, 0.5 * data.chart.radius / (t * norm_v),
                    0.5 * chart_m.radius / (t * norm_v))
        tv = t * scale * v
        x0 = x_prev * 0.5 if x_prev is not None else tv
        res = scipy.optimize.minimize(
            lambda x: float(np.sum((x - tv) ** 2)),
            x0, jac=lambda x: 2.0 * (x - tv),
            method="SLSQP", constraints=constraints,
            options={"maxiter": 80, "ftol": 1e-14})
        x_star = res.x
        # reject projections that are not actually feasible
        g_val = gfun(x_star)
        infeas = 0.0
        if rows_i.size:
            infeas = max(infeas, float(np.max(rows_i @ g_val)))
        if rows_e.size:
            infeas = max(infeas, float(np.max(np.abs(rows_e @ g_val))))
        if infeas > 1e-6:
            gaps.append(np.inf)
            x_prev = None
            continue
        x_prev = x_star
        gaps.append(float(np.linalg.norm(x_star / (t * scale) - v)) / norm_v)
        if len(gaps) >= 2 and gaps[-1] < target / 4 and gaps[-2] < target / 2:
            return True
        if len(gaps) >= 3 and all(g > 30 * target for g in gaps[-3:]) \
                and gaps[-1] >= gaps[-2] * 0.9:
            return False
    decreasing = all(gaps[i + 1] <= gaps[i] * 1.1 + 1e-12 for i in range(len(gaps) - 1))
    return bool(decreasing and gaps[-1] < target)


def zkrcq_primal(jac: np.ndarray, rows_ineq: np.ndarray, rows_eq: np.ndarray) -> bool:
    """ZKRCQ by direct feasibility of ``y = G w - u``, ``A u <= 0``, ``W u = 0``.

    The cone ``image G - T^i`` is convex, so it equals the whole space iff it
    contains every signed unit vector; that gives ``2n`` feasibility LPs, a
    path independent of the polar (Gordan) form in ``firstorder``.
    """
    n, m = jac.shape
    ell = rows_ineq.shape[0]
    for j in range(n):
        for sign in (1.0, -1.0):
            target = np.zeros(n)
            target[j] = sign
            # variables z = (w, u): G w - u = target, A u <= 0, W u = 0
            a_eq = np.hstack([jac, -np.eye(n)])
            b_eq = target
            if rows_eq.size:
                a_eq = np.vstack([a_eq, np.hstack([np.zeros((rows_eq.shape[0], m)), rows_eq])])
                b_eq = np.concatenate([b_eq, np.zeros(rows_eq.shape[0])])
            a_ub = np.hstack([np.zeros((ell, m)), rows_ineq]) if ell else None
            b_ub = np.zeros(ell) if ell else None
            res = scipy.optimize.linprog(
                np.zeros(m + n), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                bounds=[(None, None)] * (m + n), method="highs")
            if not res.success:
                return False
    return True


def cone_membership_sampled(loc_a: LocalRepresentation, loc_b: LocalRepresentation,
                            n_samples: int, seed: int) -> int:
    """Disagreements of linearizing-cone membership across two representations.

    Random unit directions are drawn in the first representation,
    transported with the transition Jacobian, and classified in both.
    """
    chart_a = loc_a.chart
    cone_a = linearizing_cone(loc_a)
    cone_b = linearizing_cone(loc_b)
    trans = transition_jacobian(chart_a, loc_b.chart)
    rng = np.random.default_rng(seed)
    disagreements = 0
    for _ in range(n_samples):
        v = rng.standard_normal(chart_a.dim)
        v /= np.linalg.norm(v)
        if cone_a.contains(v, 1e-9) != cone_b.contains(trans @ v, 1e-9):
            disagreements += 1
    return disagreements


@dataclass
class SearchRegion:
    """Candidate generator for :func:`grid_minimize`.

    ``batch_points`` produces vectorized candidate arrays when the model can;
    otherwise candidates come from a chart-coordinate grid around ``center``.
    Boundary curves (parametrized at the same resolution) and explicit points
    let the grid resolve constrained minimizers to the stated tolerance.
    """

    center: np.ndarray
    radius: float
    chart_kind: str = "default"
    batch_points: Optional[Callable[[float], np.ndarray]] = None
    boundary_curves: tuple = ()
    include_points: tuple = ()


def grid_minimize(prob: ProblemInstance, region: SearchRegion, resolution: float):
    """Exhaustive search over a feasibility-filtered candidate grid.

    Returns ``(point, value)``.  Dimension is capped at 3; this routine is a
    reference oracle, not a solver.
    """
    dim = prob.domain.dim
    if dim > 3:
        raise DimensionTooLargeError(f"grid_minimize supports dim <= 3, got {dim}")
    candidates = []
    if region.batch_points is not None:
        candidates.append(np.asarray(region.batch_points(resolution), dtype=float))
    else:
        chart = prob.domain.chart(region.center, region.chart_kind)
        axes = [np.arange(-region.radius, region.radius + resolution / 2, resolution)
                for _ in range(dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.column_stack([m.ravel() for m in mesh])
        coords = coords[np.linalg.norm(coords, axis=1) <= region.radius]
        pts = []
        for x in coords:
            try:
                pts.append(chart.inverse(x))
            except DomainError:
                continue
        if pts:
            candidates.append(np.asarray(pts))
    for curve, (t0, t1) in region.boundary_curves:
        ts = np.arange(t0, t1 + resolution / 2, resolution)
        candidates.append(np.asarray([curve(t) for t in ts]))
    if region.include_points:
        candidates.append(np.asarray(region.include_points, dtype=float))
    if not candidates:
        raise InfeasiblePointError("search region produced no candidates")
    points = np.vstack(candidates)
    if prob.membership_batch is not None:
        mask = np.asarray(prob.membership_batch(points), dtype=bool)
    else:
        mask = np.array([prob.feasible(pt) for pt in points])
    feasible = points[mask]
    if feasible.shape[0] == 0:
        raise InfeasiblePointError("no feasible grid point in the search region")
    if prob.objective_batch is not None:
        values = np.asarray(prob.objective_batch(feasible), dtype=float)
    else:
        values = np.array([prob.objective(pt) for pt in feasible])
    best = int(np.argmin(values))
    return feasible[best], float(values[best])


def enumerate_qp_solution(h_mat: np.ndarray, grad: np.ndarray,
                          c_ineq: np.ndarray, d_ineq: np.ndarray,
                          c_eq: np.ndarray, d_eq: np.ndarray):
    """Exact solution of a small convex QP by active-set enumeration.

    Minimizes ``1/2 v^T H v + g^T v`` subject to ``C_I v <= d_I`` and
    ``C_E v = d_E`` by trying every subset of active inequalities and keeping
    the best KKT-consistent candidate.  Exponential and therefore strictly a
    test oracle.
    """
    import itertools

    n = grad.size
    n_ineq = c_ineq.shape[0] if c_ineq.size else 0
    if n_ineq > 14:
        raise DimensionTooLargeError("active-set enumeration capped at 14 inequalities")
    best = None
    for r in range(n_ineq + 1):
        for subset in itertools.combinations(range(n_ineq), r):
            rows = [c_eq] if c_eq.size else []
            rhs = [d_eq] if c_eq.size else []
            if subset:
                rows.append(c_ineq[list(subset)])
                rhs.append(d_ineq[list(subset)])
            a_mat = np.vstack(rows) if rows else np.zeros((0, n))
            b_vec = np.concatenate(rhs) if rhs else np.zeros(0)
            kkt = np.zeros((n + a_mat.shape[0], n + a_mat.shape[0]))
            kkt[:n, :n] = h_mat
            if a_mat.shape[0]:
                kkt[:n, n:] = a_mat.T
                kkt[n:, :n] = a_mat
            rhs_full = np.concatenate([-grad, b_vec])
            try:
                sol = np.linalg.lstsq(kkt, rhs_full, rcond=None)[0]
            except np.linalg.LinAlgError:
                continue
            v = sol[:n]
            lam = sol[n:]
            if np.linalg.norm(kkt @ sol - rhs_full) > 1e-8 * (1 + np.linalg.norm(rhs_full)):
                continue
            if c_ineq.size and np.max(c_ineq @ v - d_ineq) > 1e-9:
                continue
            n_eq_rows = c_eq.shape[0] if c_eq.size else 0
            lam_ineq = lam[n_eq_rows:]
            if lam_ineq.size and np.min(lam_ineq) < -1e-9:
                continue
            val = 0.5 * float(v @ h_mat @ v) + float(grad @ v)
            if best is None or val < best[1] - 1e-12:
                best = (v, val)
    if best is None:
        raise InfeasiblePointError("QP enumeration found no KKT-consistent point")
    return best
