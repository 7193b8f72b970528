"""Local SQP through pull-backs.

Each iteration re-centers the problem: a fresh chart and retraction at the
current iterate, a fresh adapted corner description at (the projection of)
its constraint value.  The problem is pulled back with the
:class:`~corneropt.secondorder.PulledBackProblem` the certifier uses; its
linearizing map is the codomain's default chart at that projection.  In
``fd-lagrangian`` mode its Hessian is the pull-back's exact one (the
``analytic`` source of :mod:`corneropt.secondorder`) when the model supplies
the second-derivative hooks ``objective_hess_ambient`` and
``constraint_hess_contract`` and the retraction and chart have closed-form
second derivatives, as every built-in Euclidean one has; otherwise it is one
:func:`~corneropt.secondorder.hessian_at_step`, with no Richardson step.  The
mode keeps its name either way.  The linearized subproblem

    min  1/2 v^T H v + grad^T v
    s.t. A_I (G v + g0) <= 0,   A_E (G v + g0) = 0

is solved by a primal active-set method, the step is safeguarded by a
backtracking line search on the l1 merit function, and the iterate is moved
with the retraction.  No global chart is ever assumed and no globalization
guarantee is claimed; this is a local method with a merit safeguard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.optimize

from .cones import null_space, transport_cone
from .errors import (BreakdownError, DomainError, InfeasiblePointError,
                     LineSearchFailureError, NoMultiplierError, QPInfeasibleError)
from .firstorder import KKTCertificate, solve_kkt
from .geometry import FD_STEP, LinearizingMap, fd_gradient_of, transition_jacobian
from .problem import ProblemInstance
from .secondorder import hessian_at_step, pull_back

_QP_TOL = 1e-11


@dataclass
class SolveOptions:
    max_iter: int = 100
    tol_kkt: float = 1e-8
    tol_step: float = 1e-11
    hessian_mode: str = "fd-lagrangian"  # "fd-lagrangian" | "bfgs" | "identity"
    merit_penalty: float = 10.0
    armijo: float = 1e-4
    max_halvings: int = 30
    retraction_kind: str = "default"
    adapted_kind: str = "default"

    def __post_init__(self):
        if self.tol_kkt <= 0 or self.tol_step <= 0:
            raise ValueError("tolerances must be positive")
        if self.hessian_mode not in ("fd-lagrangian", "bfgs", "identity"):
            raise ValueError(f"unknown hessian mode {self.hessian_mode!r}")


@dataclass
class IterationRecord:
    objective: float
    kkt_residual: float
    feasibility_residual: float
    step_norm: float
    merit_before: float
    merit_after: float
    step_length: float


@dataclass
class SolveResult:
    point: np.ndarray
    certificate: Optional[KKTCertificate]
    iterations: list
    status: str  # "converged" | "max_iter" | "breakdown"
    message: str = ""

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)


def solve_qp_active_set(h_mat, grad, c_ineq, d_ineq, c_eq, d_eq,
                        max_iter: int = 300):
    """Primal active-set method for a strictly convex dense QP.

    Returns ``(v, lambda_ineq, lambda_eq)`` with ``lambda_ineq >= 0``
    covering all inequality rows (zeros off the active set).  Needs a
    positive definite ``h_mat``; feasibility of the constraint system is
    established by a phase-1 LP when the equality-consistent least-norm
    point violates an inequality.
    """
    n = grad.size
    c_ineq = np.asarray(c_ineq, dtype=float).reshape(-1, n)
    c_eq = np.asarray(c_eq, dtype=float).reshape(-1, n)
    d_ineq = np.asarray(d_ineq, dtype=float).reshape(c_ineq.shape[0])
    d_eq = np.asarray(d_eq, dtype=float).reshape(c_eq.shape[0])
    n_ineq = c_ineq.shape[0]

    # feasible start
    if c_eq.shape[0]:
        v, *_ = np.linalg.lstsq(c_eq, d_eq, rcond=None)
        if np.linalg.norm(c_eq @ v - d_eq) > 1e-8 * (1.0 + np.linalg.norm(d_eq)):
            raise QPInfeasibleError("equality rows are inconsistent")
    else:
        v = np.zeros(n)
    if n_ineq and np.max(c_ineq @ v - d_ineq) > 1e-10:
        res = scipy.optimize.linprog(
            c=np.concatenate([np.zeros(n), np.ones(n_ineq)]),
            A_ub=np.hstack([c_ineq, -np.eye(n_ineq)]),
            b_ub=d_ineq,
            A_eq=np.hstack([c_eq, np.zeros((c_eq.shape[0], n_ineq))]) if c_eq.shape[0] else None,
            b_eq=d_eq if c_eq.shape[0] else None,
            bounds=[(None, None)] * n + [(0.0, None)] * n_ineq,
            method="highs")
        if not res.success or res.fun > 1e-8:
            raise QPInfeasibleError("linearized constraints are infeasible")
        v = res.x[:n]
        v = _restore_feasibility(v, c_ineq, d_ineq, c_eq, d_eq)

    scale = 1.0 + float(np.linalg.norm(v))
    working = [i for i in range(n_ineq)
               if c_ineq[i] @ v - d_ineq[i] > -1e-9 * scale]

    for _ in range(max_iter):
        a_rows = np.vstack([c_eq, c_ineq[working]]) if (c_eq.shape[0] or working) \
            else np.zeros((0, n))
        z_basis = null_space(a_rows, n) if a_rows.shape[0] else np.eye(n)
        resid = h_mat @ v + grad
        if z_basis.shape[1]:
            reduced = z_basis.T @ h_mat @ z_basis
            rhs = -z_basis.T @ resid
            try:
                q_step = np.linalg.solve(reduced, rhs)
            except np.linalg.LinAlgError:
                q_step = np.linalg.lstsq(reduced, rhs, rcond=None)[0]
            p_step = z_basis @ q_step
        else:
            p_step = np.zeros(n)
        if np.linalg.norm(p_step) <= _QP_TOL * (1.0 + np.linalg.norm(v)):
            lam = np.linalg.lstsq(a_rows.T, -resid, rcond=None)[0] \
                if a_rows.shape[0] else np.zeros(0)
            lam_eq = lam[:c_eq.shape[0]]
            lam_work = lam[c_eq.shape[0]:]
            if lam_work.size == 0 or np.min(lam_work) >= -1e-9:
                lam_ineq = np.zeros(n_ineq)
                for idx, j in enumerate(working):
                    lam_ineq[j] = max(lam_work[idx], 0.0)
                return v, lam_ineq, lam_eq
            working.pop(int(np.argmin(lam_work)))
            continue
        alpha = 1.0
        blocker = None
        for i in range(n_ineq):
            if i in working:
                continue
            ci_p = float(c_ineq[i] @ p_step)
            if ci_p > 1e-12:
                ratio = (d_ineq[i] - float(c_ineq[i] @ v)) / ci_p
                if ratio < alpha:
                    alpha = max(ratio, 0.0)
                    blocker = i
        v = v + alpha * p_step
        if blocker is not None:
            working.append(blocker)
    raise QPInfeasibleError("active-set iteration limit reached")


def _restore_feasibility(v, c_ineq, d_ineq, c_eq, d_eq):
    """Clean LP round-off so the active-set start is strictly workable."""
    if c_eq.shape[0]:
        correction, *_ = np.linalg.lstsq(c_eq, d_eq - c_eq @ v, rcond=None)
        v = v + correction
    return v


def _positive_definite(mat: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    mat = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(mat)
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
    vals = np.maximum(vals, floor * scale)
    return vecs @ np.diag(vals) @ vecs.T


def merit_value(pb, v, penalty: float) -> float:
    """l1 merit ``f_bar(v) + rho * (|max(A_I g, 0)|_1 + |A_E g|_1)``."""
    g_val = pb.g_bar(v)
    cone = pb.cone_bar
    viol = 0.0
    if cone.n_ineq:
        viol += float(np.sum(np.maximum(cone.a_ineq @ g_val, 0.0)))
    if cone.n_eq:
        viol += float(np.sum(np.abs(cone.a_eq @ g_val)))
    return pb.f_bar(v) + penalty * viol


def merit_and_linesearch(pb, v, opts: SolveOptions, grad: np.ndarray) -> float:
    """Backtracking on the l1 merit with Armijo parameter ``opts.armijo``.

    ``grad`` is the gradient of ``pb.f_bar`` at 0.  Returns the accepted
    step length from ``{1, 1/2, 1/4, ...}``; steps leaving the retraction
    domain are halved before evaluation.  Raises
    :class:`LineSearchFailureError` after ``opts.max_halvings`` halvings.
    """
    v = np.asarray(v, dtype=float)
    t = 1.0
    domain = pb.retraction.domain_radius
    norm_v = float(np.linalg.norm(v))
    while norm_v * t >= domain:
        t *= 0.5
    phi0 = merit_value(pb, np.zeros(v.size), opts.merit_penalty)
    # directional model: objective slope minus the full violation (the QP step
    # zeroes the linearized violation)
    viol0 = (phi0 - pb.f_bar(np.zeros(v.size)))
    slope = float(grad @ v) - viol0
    for _ in range(opts.max_halvings):
        try:
            phi_t = merit_value(pb, t * v, opts.merit_penalty)
        except DomainError:
            t *= 0.5
            continue
        if slope < 0.0:
            accept = phi_t <= phi0 + opts.armijo * t * slope
        else:
            accept = phi_t <= phi0 - opts.armijo * t * t * max(norm_v, 1.0) ** 2 \
                or phi_t < phi0
        if accept:
            return t
        t *= 0.5
    raise LineSearchFailureError(
        f"no acceptable step after {opts.max_halvings} halvings")


def _elastic_step(jac, g0, cone, trust: float):
    """l1 restoration: minimize the linearized violation inside a trust box."""
    n = jac.shape[1]
    rows_e = cone.a_eq @ jac
    rhs_e = -(cone.a_eq @ g0)
    rows_i = cone.a_ineq @ jac
    rhs_i = -(cone.a_ineq @ g0)
    n_e = rows_e.shape[0]
    n_i = rows_i.shape[0]
    # variables (v, s_plus, s_minus, s_i)
    cost = np.concatenate([np.zeros(n), np.ones(2 * n_e + n_i)])
    a_eq = np.hstack([rows_e, -np.eye(n_e), np.eye(n_e), np.zeros((n_e, n_i))]) \
        if n_e else None
    b_eq = rhs_e if n_e else None
    a_ub = np.hstack([rows_i, np.zeros((n_i, 2 * n_e)), -np.eye(n_i)]) if n_i else None
    b_ub = rhs_i if n_i else None
    bounds = [(-trust, trust)] * n + [(0.0, None)] * (2 * n_e + n_i)
    res = scipy.optimize.linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                                 bounds=bounds, method="highs")
    if not res.success:
        raise BreakdownError("feasibility restoration LP failed")
    return res.x[:n]


def _local_pullback(prob: ProblemInstance, p, opts: SolveOptions, band: float):
    """The pull-back at the iterate ``p``, which need not be feasible.

    Its linearizing map, not an adapted one, is the codomain's own chart at
    a face reference snapped into the corner set (the map's ``base``), and
    ``cone_bar`` is the corner cone carried into that chart.
    """
    q = prob.constraint(p)
    corner = prob.constraint_set
    retraction = prob.domain.retraction(p, opts.retraction_kind)

    # Center the corner description on the face whose rows sit within the
    # activity band: at that reference the description is exact and the chart
    # image of g(p) carries the true slacks of the nearby rows into the
    # linearized constraints.
    data = None
    q_ref = None
    attempt_band = band
    for _ in range(10):
        try:
            q_ref = corner.solver_reference(q, attempt_band)
        except NotImplementedError:
            raise BreakdownError(
                "iterate left the corner set and the model supplies no projection")
        if not corner.contains(q_ref, 1e-7):
            raise BreakdownError("face reference left the corner set")
        candidate = corner.adapted_chart(q_ref, kind=opts.adapted_kind)
        try:
            candidate.chart.forward(q)
            data = candidate
            break
        except DomainError:
            # widening the band pulls more rows onto the reference face,
            # which grows the chart (fewer inactive rows bound its radius)
            attempt_band *= 4.0
    if data is None:
        raise BreakdownError("no adapted chart covers the current iterate")

    # Evaluate the constraint through the codomain's own chart (valid on a
    # wide ball) and carry the corner rows over to that frame; the adapted
    # chart's radius only certifies where the corner description is exact,
    # which the trust box and line search respect.
    eval_chart = prob.codomain.chart(q_ref, "default")
    trans = transition_jacobian(data.chart, eval_chart)
    cone = transport_cone(data.cone(), trans)
    linmap = LinearizingMap(base=eval_chart.center, dim=eval_chart.dim,
                            map_fn=eval_chart.forward, chart=eval_chart, name="default",
                            differential_fn=eval_chart.forward_jacobian_fn,
                            hess_contract_fn=eval_chart.forward_hess_contract_fn)
    return pull_back(prob, p, retraction, linmap, cone)


def _lagrangian_hessian(pb, mu: np.ndarray) -> np.ndarray:
    """Hessian at ``v = 0`` of the pulled-back Lagrangian: the pull-back's
    exact one when it has one, else one
    :func:`~corneropt.secondorder.hessian_at_step`, at ``FD_STEP`` on the
    analytic Lagrangian gradient and at ``1e-4`` on Lagrangian values."""
    if pb.exact_hessian is not None:
        return pb.exact_hessian(mu)
    return hessian_at_step(pb, mu, FD_STEP if pb.lagrangian_gradient is not None else 1e-4)


def _feasibility_residual(pb) -> float:
    g0 = pb.g_bar(np.zeros(pb.dim))
    cone = pb.cone_bar
    viol = 0.0
    if cone.n_ineq:
        viol = max(viol, float(np.max(np.maximum(cone.a_ineq @ g0, 0.0))))
    if cone.n_eq:
        viol = max(viol, float(np.max(np.abs(cone.a_eq @ g0))))
    return viol


def solve(prob: ProblemInstance, p0, opts: Optional[SolveOptions] = None) -> SolveResult:
    """Run the local SQP iteration from ``p0``.

    On convergence the returned certificate comes from
    :func:`corneropt.firstorder.solve_kkt` at ``opts.tol_kkt``, so the
    result is certified by the same machinery the checker commands use, and
    the returned point is the one the certificate was computed at.
    """
    opts = opts or SolveOptions()
    p = np.asarray(p0, dtype=float)
    if not prob.domain.is_point(p, 1e-9):
        snapped = prob.domain.project(p)
        if np.linalg.norm(snapped - p) > 1e-3 * (1.0 + np.linalg.norm(p)):
            raise BreakdownError("start point is not on the domain manifold")
        p = snapped
    trace: list = []
    mu_est: Optional[np.ndarray] = None
    penalty = opts.merit_penalty
    active_band = 0.3
    status = "max_iter"
    message = ""
    certificate = None
    bfgs = _BfgsState()

    for _ in range(opts.max_iter):
        try:
            pb = _local_pullback(prob, p, opts, active_band)
        except BreakdownError as err:
            status, message = "breakdown", str(err)
            break
        feas = _feasibility_residual(pb)
        kkt_resid = math.inf
        if prob.feasible(p):
            try:
                certificate = solve_kkt(prob, p, opts.tol_kkt,
                                        adapted_kind=opts.adapted_kind)
                kkt_resid = certificate.stationarity_residual
                if feas <= opts.tol_kkt:
                    status = "converged"
                    trace.append(IterationRecord(
                        objective=float(prob.objective(p)), kkt_residual=kkt_resid,
                        feasibility_residual=feas, step_norm=0.0,
                        merit_before=merit_value(pb, np.zeros(pb.dim), penalty),
                        merit_after=merit_value(pb, np.zeros(pb.dim), penalty),
                        step_length=0.0))
                    break
            except NoMultiplierError as err:
                certificate = None
                kkt_resid = err.residual if err.residual is not None else math.inf
            except InfeasiblePointError:
                # membership can flip right at the tolerance boundary; keep
                # iterating until the feasibility residual is genuinely small
                certificate = None

        grad = fd_gradient_of(pb.f_bar, pb.dim) if prob.objective_grad_ambient is None \
            else prob.objective_gradient(p, pb.retraction.chart)
        g0 = pb.g_bar(np.zeros(pb.dim))
        jac = prob.constraint_jacobian(p, pb.retraction.chart, pb.linmap.chart)
        cone = pb.cone_bar

        mu_vec = mu_est if mu_est is not None and mu_est.size == g0.size \
            else np.zeros(g0.size)
        if opts.hessian_mode == "identity":
            h_mat = np.eye(pb.dim)
        elif opts.hessian_mode == "bfgs":
            grad_lagr = grad + jac.T @ mu_vec
            h_mat = bfgs.update(grad_lagr, pb.dim)
        else:
            h_mat = _lagrangian_hessian(pb, mu_vec)
        h_pd = _positive_definite(h_mat)

        # trust box: keep the step inside retraction and evaluation domains
        sigma = float(np.linalg.svd(jac, compute_uv=False)[0]) if jac.size else 0.0
        delta = min(1.0, 0.45 * pb.retraction.domain_radius,
                    0.45 * pb.linmap.chart.radius / (1.0 + sigma))
        box = np.vstack([np.eye(pb.dim), -np.eye(pb.dim)])
        c_ineq = np.vstack([cone.a_ineq @ jac, box])
        d_ineq = np.concatenate([-(cone.a_ineq @ g0), np.full(2 * pb.dim, delta)])
        try:
            v_step, lam_i, lam_e = solve_qp_active_set(
                h_pd, grad, c_ineq, d_ineq,
                cone.a_eq @ jac, -(cone.a_eq @ g0))
            lam_i = lam_i[:cone.n_ineq]
        except QPInfeasibleError:
            try:
                v_step = _elastic_step(jac, g0, cone, trust=delta)
                lam_i = np.zeros(cone.n_ineq)
                lam_e = np.zeros(cone.n_eq)
            except BreakdownError as err:
                status, message = "breakdown", str(err)
                break

        multiplier_scale = max(
            float(np.max(lam_i)) if lam_i.size else 0.0,
            float(np.max(np.abs(lam_e))) if lam_e.size else 0.0)
        penalty = max(penalty, 2.0 * multiplier_scale + 1.0)

        merit_before = merit_value(pb, np.zeros(pb.dim), penalty)
        opts_ls = opts if penalty == opts.merit_penalty else \
            replace(opts, merit_penalty=penalty)
        try:
            t = merit_and_linesearch(pb, v_step, opts_ls, grad=grad)
        except LineSearchFailureError as err:
            status, message = "breakdown", str(err)
            break
        merit_after = merit_value(pb, t * v_step, penalty)
        p_new = pb.retraction(t * v_step)
        step_norm = float(np.linalg.norm(t * v_step))
        mu_est = cone.a_ineq.T @ lam_i + cone.a_eq.T @ lam_e \
            if (cone.n_ineq or cone.n_eq) else np.zeros(g0.size)
        bfgs.remember(t * v_step)
        trace.append(IterationRecord(
            objective=float(prob.objective(p)), kkt_residual=kkt_resid,
            feasibility_residual=feas, step_norm=step_norm,
            merit_before=merit_before, merit_after=merit_after, step_length=t))
        p = p_new
        active_band = max(1e-8, min(0.3, 10.0 * step_norm))
        if step_norm <= opts.tol_step:
            # stagnation: accept only if a certificate already exists
            if certificate is not None and feas <= opts.tol_kkt:
                status = "converged"
            break

    if certificate is not None and not np.array_equal(certificate.point, p):
        # a certificate is only ever returned with the point it certifies: the
        # stagnation exit returns that point, the other exits drop it
        if status == "converged":
            p = certificate.point
        else:
            certificate = None
    return SolveResult(point=p, certificate=certificate, iterations=trace,
                       status=status, message=message)


class _BfgsState:
    """Damped BFGS on the re-centered chart frames.

    Successive frames of the built-in retractions differ by O(step), so the
    update skips vector transport; the Powell damping keeps the matrix
    positive definite regardless.
    """

    def __init__(self):
        self.matrix = None
        self.prev_grad = None
        self.step = None

    def remember(self, step):
        self.step = np.asarray(step, dtype=float).copy()

    def update(self, grad_lagr, dim):
        if self.matrix is None or self.matrix.shape[0] != dim:
            self.matrix = np.eye(dim)
            self.prev_grad = grad_lagr.copy()
            self.step = None
            return self.matrix
        if self.step is not None and np.linalg.norm(self.step) > 1e-14:
            s = self.step
            y = grad_lagr - self.prev_grad
            b_mat = self.matrix
            bs = b_mat @ s
            sbs = float(s @ bs)
            sy = float(s @ y)
            if sbs > 1e-14:
                if sy < 0.2 * sbs:
                    theta = 0.8 * sbs / (sbs - sy)
                    y = theta * y + (1.0 - theta) * bs
                    sy = float(s @ y)
                if sy > 1e-14:
                    self.matrix = b_mat - np.outer(bs, bs) / sbs + np.outer(y, y) / sy
        self.prev_grad = grad_lagr.copy()
        self.step = None
        return self.matrix
