"""Constraint qualifications and first-order KKT certification.

All checks work on the chart data ``G = (psi o g o phi^{-1})'(0)`` together
with the adapted corner description ``(A_hat, W)`` at ``g(p)``:

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
non-KKT points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.optimize

from .cones import matrix_rank, nnls_mixed, null_space
from .errors import ModelMismatchError, NoMultiplierError
from .problem import ProblemInstance

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
    """Multiplier data at a point, expressed in adapted chart coordinates."""

    mu_chart: np.ndarray
    lambda_ineq: np.ndarray
    lambda_eq: np.ndarray
    stationarity_residual: float
    activity: tuple
    point: np.ndarray
    chart_kind: str = "default"
    adapted_kind: str = "default"


def _chart_data(prob: ProblemInstance, p, chart_kind: str, adapted_kind: str):
    chart_m, data = prob.chart_pair(p, chart_kind, adapted_kind)
    jac = prob.constraint_jacobian(p, chart_m, data.chart)
    return chart_m, data, jac


def _transversal(data, jac, tol) -> bool:
    tk_basis = null_space(data.equality_rows(), data.n)
    stacked = np.hstack([jac, tk_basis]) if tk_basis.size else jac
    return matrix_rank(stacked, rtol=tol) == data.n


def _wg_surjective(data, jac, tol) -> bool:
    wg = data.equality_rows() @ jac
    return not wg.size or matrix_rank(wg, rtol=tol) == data.n - data.k


def _mfcq(data, jac, tol):
    m = jac.shape[1]
    if not _wg_surjective(data, jac, tol):
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


def _zkrcq(data, jac, tol) -> bool:
    """``image G - T^i = R^n`` iff its polar, the ``y = -(A^T lam + W^T nu)``
    with ``lam >= 0`` and ``G^T y = 0``, is ``{0}``.  The rows of ``[A; W]``
    are independent, so ``lam = 0`` gives ``y != 0`` iff ``W G`` is not
    surjective, and ``lam != 0`` scales to ``1^T lam = 1`` (Gordan's LP).
    """
    if not _wg_surjective(data, jac, tol):
        return False
    if data.ell == 0:
        return True
    rows = np.vstack([data.inequality_rows(), data.equality_rows()])
    n_free = data.n - data.k
    a_eq = np.vstack([jac.T @ rows.T, np.r_[np.ones(data.ell), np.zeros(n_free)]])
    res = scipy.optimize.linprog(
        np.zeros(rows.shape[0]), A_eq=a_eq, b_eq=np.r_[np.zeros(jac.shape[1]), 1.0],
        bounds=[(0.0, None)] * data.ell + [(None, None)] * n_free, method="highs")
    return res.status == 2  # proven infeasible: the polar is {0}


def _licq(data, jac, tol) -> bool:
    rows = np.vstack([data.inequality_rows(), data.equality_rows()])
    return rows.size == 0 or matrix_rank(rows @ jac, rtol=tol) == rows.shape[0]


def check_transversality(prob: ProblemInstance, p, tol: float = 1e-8,
                         chart_kind: str = "default",
                         adapted_kind: str = "default") -> bool:
    """True iff ``image g'(p) - T_q K`` spans the whole tangent space at g(p)."""
    return _transversal(*_chart_data(prob, p, chart_kind, adapted_kind)[1:], tol)


def check_mfcq(prob: ProblemInstance, p, tol: float = 1e-8,
               chart_kind: str = "default", adapted_kind: str = "default"):
    """Surjectivity of ``W G`` plus a strictly feasible direction.

    Returns ``(holds, witness)`` where the witness solves the margin LP
    ``max s`` subject to ``W G x = 0``, ``A G x + s <= 0`` and
    ``|x|_inf <= 1``.
    """
    return _mfcq(*_chart_data(prob, p, chart_kind, adapted_kind)[1:], tol)


def check_zkrcq(prob: ProblemInstance, p, tol: float = 1e-8,
                chart_kind: str = "default", adapted_kind: str = "default") -> bool:
    """Whether ``image G - T^i`` (``T^i`` the inner tangent cone) is the whole
    space: a rank test on ``W G`` plus, when ``l > 0``, one Gordan LP."""
    return _zkrcq(*_chart_data(prob, p, chart_kind, adapted_kind)[1:], tol)


def check_licq(prob: ProblemInstance, p, tol: float = 1e-8,
               chart_kind: str = "default", adapted_kind: str = "default") -> bool:
    """Surjectivity of ``B G`` with ``B`` stacking the corner rows."""
    return _licq(*_chart_data(prob, p, chart_kind, adapted_kind)[1:], tol)


def cq_report(prob: ProblemInstance, p, tol: float = 1e-8,
              chart_kind: str = "default", adapted_kind: str = "default") -> CQReport:
    _, data, jac = _chart_data(prob, p, chart_kind, adapted_kind)
    mfcq, witness = _mfcq(data, jac, tol)
    rows = np.vstack([data.inequality_rows(), data.equality_rows()])
    rank_bg = matrix_rank(rows @ jac) if rows.size else 0
    return CQReport(
        transversal=_transversal(data, jac, tol),
        zkrcq=_zkrcq(data, jac, tol),
        mfcq=mfcq,
        licq=_licq(data, jac, tol),
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
    """Recover a Lagrange multiplier by nonnegative least squares.

    Minimizes the stationarity residual over ``lambda_I >= 0`` and free
    ``lambda_E``; succeeds iff the optimum is below ``tol * (1 + |grad f|)``.
    Raises :class:`NoMultiplierError` otherwise -- the point is not KKT.
    """
    chart_m, data, jac = _chart_data(prob, p, chart_kind, adapted_kind)
    grad = prob.objective_gradient(p, chart_m)
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
        stationarity_residual=residual, activity=activity,
        point=np.asarray(p, dtype=float),
        chart_kind=chart_kind, adapted_kind=adapted_kind)


def stationarity_residual(prob: ProblemInstance, p, mu_chart,
                          chart_kind: str = "default",
                          adapted_kind: str = "default") -> float:
    """``| grad f + G^T mu |`` for a given multiplier in adapted coordinates."""
    chart_m, data, jac = _chart_data(prob, p, chart_kind, adapted_kind)
    grad = prob.objective_gradient(p, chart_m)
    return float(np.linalg.norm(grad + jac.T @ np.asarray(mu_chart, dtype=float)))


def multiplier_set_probe(prob: ProblemInstance, p, cert: KKTCertificate,
                         chart_kind: str = "default",
                         adapted_kind: str = "default") -> dict:
    """Estimate the affine dimension of the multiplier set at a KKT point.

    Null-space analysis of the stacked stationarity system in the
    ``(lambda_I, lambda_E)`` variables; dimension zero means the multiplier
    is unique (always the case under LICQ).
    """
    _, data, jac = _chart_data(prob, p, chart_kind, adapted_kind)
    rows = np.vstack([data.inequality_rows(), data.equality_rows()])
    if rows.size == 0:
        return {"unique": True, "dim_estimate": 0}
    design = jac.T @ rows.T  # m x (l + n - k)
    dim_null = design.shape[1] - matrix_rank(design)
    return {"unique": dim_null == 0, "dim_estimate": int(dim_null)}


def chart_switch_residual(prob: ProblemInstance, p, cert: KKTCertificate,
                          chart_kind: str, adapted_kind: str) -> float:
    """Stationarity residual after re-expressing the certificate in new charts.

    The multiplier moves between adapted charts with the inverse-transpose
    transition Jacobian; a valid certificate stays small in every
    representation.
    """
    from .geometry import push_covector

    q = prob.constraint(p)
    chart_old = prob.constraint_set.adapted_chart(q, kind=cert.adapted_kind).chart
    chart_new = prob.constraint_set.adapted_chart(q, kind=adapted_kind).chart
    if chart_old.chart_id == chart_new.chart_id:
        mu_new = cert.mu_chart
    else:
        mu_new = push_covector(chart_old, chart_new, cert.mu_chart)
    return stationarity_residual(prob, p, mu_new, chart_kind, adapted_kind)


def cone_membership_agreement(prob: ProblemInstance, p,
                              pair_a=("default", "default"),
                              pair_b=("alt", "alt")) -> dict:
    """Exact equality of the linearizing cones of two chart representations.

    ``disagreements`` counts the rows of either cone that are not valid on
    the other once both act in the first chart (:func:`cones.cone_disagreements`);
    it is 0 iff the cones describe the same object.
    """
    from .cones import cone_disagreements, linearizing_cone
    from .geometry import transition_jacobian

    cone_a = linearizing_cone(prob, p, chart_kind=pair_a[0], adapted_kind=pair_a[1])
    cone_b = linearizing_cone(prob, p, chart_kind=pair_b[0], adapted_kind=pair_b[1])
    trans = transition_jacobian(prob.domain.chart(p, pair_a[0]),
                                prob.domain.chart(p, pair_b[0]))
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

