"""Constraint qualifications and first-order KKT certification.

All checks read one local representation (:meth:`ProblemInstance.local`):
the chart data ``G = (psi o g o phi^{-1})'(0)`` together with the adapted
corner description ``(A_hat, W)`` at ``g(p)``:

* transversality:  ``rank [G | basis(T_q K)] = n``
* MFCQ:            ``W G`` surjective and a strictly feasible direction
                   exists (found by a small LP with a margin variable)
* ZKRCQ:           rank test + <=1 Gordan LP: ``image G - T^i`` is the
                   whole space iff its polar is ``{0}``
* LICQ:            ``rank(B G) = l + (n - k)`` with ``B = [A; W]``

Cross-chart membership compares linearizing cones exactly, by row
certificates of the polar (:func:`cone_membership_agreement`).

Multiplier recovery solves the nonnegatively constrained least-squares
problem ``min | grad f + G^T (A^T lambda_I + W^T lambda_E) |`` over
``lambda_I >= 0``, which yields a certificate and degrades gracefully near
non-KKT points: :func:`kkt_certificate` in a representation already built,
:func:`solve_kkt` from a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.optimize

from .cones import (cone_disagreements, linearizing_cone, matrix_rank, nnls_mixed,
                    null_space)
from .errors import ModelMismatchError, NoMultiplierError
from .geometry import push_covector, transition_jacobian
from .problem import LocalRepresentation, ProblemInstance

TOL_KKT = 1e-8
TOL_ACT = 1e-7
TOL_FEAS_CLASSICAL = 1e-9


@dataclass
class CQReport:
    transversal: bool
    zkrcq: bool
    mfcq: bool
    licq: bool
    mfcq_witness: Optional[np.ndarray]
    rank_data: dict

    @property
    def consistent(self) -> bool:
        """The implication chain LICQ => ZKRCQ => transversality."""
        return (not self.licq or self.zkrcq) and (not self.zkrcq or self.transversal)


@dataclass
class KKTCertificate:
    """Multiplier data at a point, expressed in the adapted chart of ``local``."""

    mu_chart: np.ndarray
    lambda_ineq: np.ndarray
    lambda_eq: np.ndarray
    stationarity_residual: float
    activity: tuple
    local: LocalRepresentation

    @property
    def point(self) -> np.ndarray:
        return self.local.point

    @property
    def chart_kind(self) -> str:
        return self.local.chart_kind

    @property
    def adapted_kind(self) -> str:
        return self.local.adapted_kind


def _corner_rows(loc: LocalRepresentation) -> np.ndarray:
    """``B = [A; W]``, the inequality rows stacked on the equality rows."""
    return np.vstack([loc.corner.inequality_rows(), loc.corner.equality_rows()])


def _wg_surjective(loc: LocalRepresentation, tol) -> bool:
    data = loc.corner
    wg = data.equality_rows() @ loc.jacobian
    return not wg.size or matrix_rank(wg, rtol=tol) == data.n - data.k


def check_transversality(loc: LocalRepresentation, tol: float = 1e-8) -> bool:
    """True iff ``image g'(p) - T_q K`` spans the whole tangent space at g(p)."""
    data, jac = loc.corner, loc.jacobian
    tk_basis = null_space(data.equality_rows(), data.n)
    stacked = np.hstack([jac, tk_basis]) if tk_basis.size else jac
    return matrix_rank(stacked, rtol=tol) == data.n


def check_mfcq(loc: LocalRepresentation, tol: float = 1e-8):
    """Surjectivity of ``W G`` plus a strictly feasible direction.

    Returns ``(holds, witness)`` where the witness solves the margin LP
    ``max s`` subject to ``W G x = 0``, ``A G x + s <= 0`` and
    ``|x|_inf <= 1``.
    """
    data, jac = loc.corner, loc.jacobian
    m = jac.shape[1]
    if not _wg_surjective(loc, tol):
        return False, None
    if data.ell == 0:
        return True, np.zeros(m)
    wg = data.equality_rows() @ jac
    ag = data.inequality_rows() @ jac
    # variables (x, s); maximize s
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_ub = np.hstack([ag, np.ones((data.ell, 1))])
    b_ub = np.zeros(data.ell)
    a_eq = np.hstack([wg, np.zeros((wg.shape[0], 1))]) if wg.size else None
    b_eq = np.zeros(wg.shape[0]) if wg.size else None
    bounds = [(-1.0, 1.0)] * m + [(None, None)]
    res = scipy.optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                                 bounds=bounds, method="highs")
    if not res.success:
        return False, None
    margin = -float(res.fun)
    if margin <= tol:
        return False, None
    return True, res.x[:m]


def check_zkrcq(loc: LocalRepresentation, tol: float = 1e-8) -> bool:
    """Whether ``image G - T^i`` (``T^i`` the inner tangent cone) is the whole
    space: a rank test on ``W G`` plus, when ``l > 0``, one Gordan LP.

    ``image G - T^i = R^n`` iff its polar, the ``y = -(A^T lam + W^T nu)``
    with ``lam >= 0`` and ``G^T y = 0``, is ``{0}``.  The rows of ``[A; W]``
    are independent, so ``lam = 0`` gives ``y != 0`` iff ``W G`` is not
    surjective, and ``lam != 0`` scales to ``1^T lam = 1`` (Gordan's LP).
    """
    data, jac = loc.corner, loc.jacobian
    if not _wg_surjective(loc, tol):
        return False
    if data.ell == 0:
        return True
    rows = _corner_rows(loc)
    n_free = data.n - data.k
    a_eq = np.vstack([jac.T @ rows.T, np.r_[np.ones(data.ell), np.zeros(n_free)]])
    res = scipy.optimize.linprog(
        np.zeros(rows.shape[0]), A_eq=a_eq, b_eq=np.r_[np.zeros(jac.shape[1]), 1.0],
        bounds=[(0.0, None)] * data.ell + [(None, None)] * n_free, method="highs")
    return res.status == 2  # proven infeasible: the polar is {0}


def check_licq(loc: LocalRepresentation, tol: float = 1e-8) -> bool:
    """Surjectivity of ``B G`` with ``B`` stacking the corner rows."""
    rows = _corner_rows(loc)
    return rows.size == 0 or matrix_rank(rows @ loc.jacobian, rtol=tol) == rows.shape[0]


def cq_report(loc: LocalRepresentation, tol: float = 1e-8) -> CQReport:
    data, jac = loc.corner, loc.jacobian
    mfcq, witness = check_mfcq(loc, tol)
    rows = _corner_rows(loc)
    rank_bg = matrix_rank(rows @ jac) if rows.size else 0
    return CQReport(
        transversal=check_transversality(loc, tol),
        zkrcq=check_zkrcq(loc, tol),
        mfcq=mfcq,
        licq=check_licq(loc, tol),
        mfcq_witness=witness,
        rank_data={
            "rank_constraint_jacobian": matrix_rank(jac),
            "rank_corner_rows_jacobian": rank_bg,
            "corner_index": data.ell,
            "n": data.n, "k": data.k, "m": jac.shape[1],
        })


def solve_kkt(prob: ProblemInstance, p, tol: float = TOL_KKT,
              chart_kind: str = "default", adapted_kind: str = "default",
              tol_act: float = TOL_ACT) -> KKTCertificate:
    """:func:`kkt_certificate` in the local representation ``prob.local(p,
    chart_kind, adapted_kind)``."""
    return kkt_certificate(prob.local(p, chart_kind, adapted_kind), tol, tol_act)


def kkt_certificate(loc: LocalRepresentation, tol: float = TOL_KKT,
                    tol_act: float = TOL_ACT) -> KKTCertificate:
    """Recover a Lagrange multiplier by nonnegative least squares.

    Minimizes the stationarity residual over ``lambda_I >= 0`` and free
    ``lambda_E`` in the local representation ``loc``, which the certificate
    carries; succeeds iff the optimum is below ``tol * (1 + |grad f|)``.
    Raises :class:`NoMultiplierError` otherwise -- the point is not KKT.
    """
    data, jac, grad = loc.corner, loc.jacobian, loc.gradient
    rows_i = data.inequality_rows()
    rows_e = data.equality_rows()
    cols_nonneg = jac.T @ rows_i.T if rows_i.size else np.zeros((jac.shape[1], 0))
    cols_free = jac.T @ rows_e.T if rows_e.size else np.zeros((jac.shape[1], 0))
    lam_i, lam_e, residual = nnls_mixed(cols_nonneg, cols_free, -grad)
    threshold = tol * (1.0 + float(np.linalg.norm(grad)))
    mu_chart = (rows_i.T @ lam_i if rows_i.size else 0.0) \
        + (rows_e.T @ lam_e if rows_e.size else 0.0)
    mu_chart = np.asarray(mu_chart, dtype=float).reshape(data.n) \
        if np.ndim(mu_chart) else np.zeros(data.n)
    if residual > threshold:
        raise NoMultiplierError(
            f"no multiplier at tolerance {tol:g}: best stationarity residual "
            f"{residual:.3e}", residual=residual, best_multiplier=mu_chart)
    activity = tuple("strong" if lam > tol_act else "weak" for lam in lam_i)
    return KKTCertificate(
        mu_chart=mu_chart, lambda_ineq=lam_i, lambda_eq=lam_e,
        stationarity_residual=residual, activity=activity, local=loc)


def stationarity_residual(loc: LocalRepresentation, mu_chart) -> float:
    """``| grad f + G^T mu |`` for a given multiplier in adapted coordinates."""
    return float(np.linalg.norm(loc.gradient
                                + loc.jacobian.T @ np.asarray(mu_chart, dtype=float)))


def multiplier_set_probe(loc: LocalRepresentation) -> dict:
    """Estimate the affine dimension of the multiplier set at a KKT point.

    Null-space analysis of the stacked stationarity system in the
    ``(lambda_I, lambda_E)`` variables; dimension zero means the multiplier
    is unique (always the case under LICQ).
    """
    rows = _corner_rows(loc)
    if rows.size == 0:
        return {"unique": True, "dim_estimate": 0}
    design = loc.jacobian.T @ rows.T  # m x (l + n - k)
    dim_null = design.shape[1] - matrix_rank(design)
    return {"unique": dim_null == 0, "dim_estimate": int(dim_null)}


def chart_switch_residual(cert: KKTCertificate, loc: LocalRepresentation) -> float:
    """Stationarity residual after re-expressing the certificate in the
    charts of ``loc``, a representation at the same point.

    The multiplier moves between adapted charts with the inverse-transpose
    transition Jacobian; a valid certificate stays small in every
    representation.
    """
    chart_old = cert.local.corner.chart
    chart_new = loc.corner.chart
    if chart_old.chart_id == chart_new.chart_id:
        mu_new = cert.mu_chart
    else:
        mu_new = push_covector(chart_old, chart_new, cert.mu_chart)
    return stationarity_residual(loc, mu_new)


def cone_membership_agreement(loc_a: LocalRepresentation,
                              loc_b: LocalRepresentation) -> dict:
    """Exact equality of the linearizing cones of two representations at one
    point.

    ``disagreements`` counts the rows of either cone that are not valid on
    the other once both act in the chart of ``loc_a``
    (:func:`cones.cone_disagreements`); it is 0 iff the cones describe the
    same object.
    """
    cone_a = linearizing_cone(loc_a)
    cone_b = linearizing_cone(loc_b)
    trans = transition_jacobian(loc_a.chart, loc_b.chart)
    return {"disagreements": cone_disagreements(cone_a, cone_b, trans)}


@dataclass
class ClassicalKKT:
    """Classical multipliers with complementarity for Euclidean NLP models."""

    eta_ineq: np.ndarray
    eta_eq: np.ndarray
    complementarity: np.ndarray
    gradient_residual: float
    constraint_values_ineq: np.ndarray


def classical_report(cert: KKTCertificate, prob: ProblemInstance, p) -> ClassicalKKT:
    """Expand an adapted-chart certificate to componentwise NLP multipliers.

    Active-row multipliers spread back onto the full inequality list with
    zeros at inactive components, making complementarity exact; verifies the
    classical dual equation ``grad f + g_I'^T eta_I + g_E'^T eta_E = 0``.
    """
    info = prob.extras.get("classical")
    if info is None:
        raise ModelMismatchError(
            "classical_report needs a Euclidean NLP model built by build_classical_nlp")
    p = np.asarray(p, dtype=float)
    g_val = np.asarray(prob.constraint(p), dtype=float)
    n_ineq = len(info["ineq_idx"])
    corner = prob.constraint_set
    active = [i for i, gi in enumerate(info["ineq_idx"]) if abs(g_val[gi]) <= TOL_FEAS_CLASSICAL]
    if len(active) != cert.lambda_ineq.size:
        raise ModelMismatchError(
            f"certificate has {cert.lambda_ineq.size} active rows, model shows {len(active)}")
    eta_i = np.zeros(n_ineq)
    for lam, idx in zip(cert.lambda_ineq, active):
        eta_i[idx] = lam
    eta_e = cert.lambda_eq.copy()
    jac_amb = np.asarray(prob.constraint_jac_ambient(p), dtype=float)
    grad_amb = np.asarray(prob.objective_grad_ambient(p), dtype=float)
    rows_ineq = jac_amb[list(info["ineq_idx"])]
    rows_eq = jac_amb[list(info["eq_idx"])] if info["eq_idx"] else np.zeros((0, p.size))
    residual = grad_amb + rows_ineq.T @ eta_i
    if rows_eq.size:
        residual = residual + rows_eq.T @ eta_e
    comp = eta_i * g_val[list(info["ineq_idx"])]
    return ClassicalKKT(
        eta_ineq=eta_i, eta_eq=eta_e, complementarity=comp,
        gradient_residual=float(np.linalg.norm(residual)),
        constraint_values_ineq=g_val[list(info["ineq_idx"])])

