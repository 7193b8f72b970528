"""Second-order analysis through pull-backs.

At a KKT point the pulled-back Lagrangian
``Lbar(v, mu) = f(R(v)) + mu(S(g(R(v))))`` has a well-defined symmetric
Hessian at ``0``, and for adapted linearizing maps its quadratic form is
invariant on the critical cone.  This module builds pull-backs (one
constructor, :func:`pull_back`, serves the certifier's feasible points and
the solver's iterates), forms the Hessian, checks the invariance
numerically, and decides second-order sufficient/necessary conditions
exactly: by an eigenvalue test on subspaces and by a walk over the faces of
genuine cones, whose restricted eigenvectors contain the minimiser (a
Pareto eigenvalue).  No verdict reads a seed.  The
invariance check compares every pair of a list of pull-backs but forms each
pull-back's Hessian, and the critical cone and its samples, only once.

A Hessian comes from one of three sources, recorded in
:attr:`HessianForm.source`:

* ``analytic``: the exact Hessian, when the model supplies first and second
  ambient derivatives (``objective_grad_ambient``, ``constraint_jac_ambient``,
  ``objective_hess_ambient``, ``constraint_hess_contract``) and the
  retraction and the linearizing map supply closed-form differentials and
  second-derivative contractions (``differential_fn``,
  ``hess_contract_fn``).  At ``v = 0``, with ``w = DS(g(p))^T mu`` and
  ``c = grad f(p) + Dg(p)^T w``, it is the chain rule

      ``H = DR(0)^T [Hess f + sum_i w_i Hess g_i
                     + Dg^T (sum_j mu_j Hess S_j) Dg] DR(0)
            + sum_k c_k Hess R_k(0)``,

  a contraction of matrices with no third-order tensor and no difference
  step (:attr:`PulledBackProblem.exact_hessian`);
* ``grad-fd``: otherwise, when the model supplies ambient gradients and the
  linearizing map a closed-form differential, central differences of the
  analytic gradient ``grad Lbar(v) = DR(v)^T (grad f(x) + Dg(x)^T DS(g(x))^T
  mu)``, ``x = R(v)``, at steps ``h`` and ``h/2``, each symmetrised, with
  Richardson extrapolation;
* ``fd``: otherwise, second differences of Lagrangian values at ``h`` and
  ``h/2`` with Richardson extrapolation.

Both difference sources run the one stencil :func:`hessian_at_step`, which
the solver calls at a single step when a pull-back has no exact Hessian.
``fd_discrepancy`` is the largest entry of the difference between the two
step levels (0 for ``analytic``).  A user model gets exact Hessians on the
built-in Euclidean retractions and linearizing maps by supplying the two
second-derivative hooks next to its gradient hooks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .cones import PolyhedralCone, canonicalize, null_space, sample_cone
from .errors import (DimensionTooLargeError, InvalidCertificateError,
                     NotStationaryError)
from .firstorder import TOL_ACT, TOL_KKT, KKTCertificate
from .geometry import (LinearizingMap, Retraction, fd_gradient_of, fd_hessian_of,
                       fd_jacobian_of, push_covector, transition_jacobian)
from .problem import ProblemInstance

FD_HESS_STEP = 1e-4


@dataclass(frozen=True)
class PulledBackProblem:
    """A problem pulled back through a retraction and a linearizing map.

    ``f_bar = f o R`` and ``g_bar = S o g o R`` with ``R = retraction`` and
    ``S = linmap``; ``cone_bar`` is the corner cone in the frame of ``S``.
    """

    base: np.ndarray
    retraction: Retraction
    linmap: LinearizingMap
    f_bar: Callable[[np.ndarray], float]
    g_bar: Callable[[np.ndarray], np.ndarray]
    cone_bar: PolyhedralCone
    name: str = ""
    # (v, mu) -> gradient of the pulled-back Lagrangian, when the model and
    # the linearizing map supply the derivatives it needs
    lagrangian_gradient: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    # mu -> Hessian at v = 0 of the pulled-back Lagrangian by the chain rule,
    # when the model, the retraction and the linearizing map supply every
    # first and second derivative it needs
    exact_hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def dim(self) -> int:
        return self.retraction.chart.dim


def pull_back(prob: ProblemInstance, p, retraction: Retraction, linmap: LinearizingMap,
              cone: PolyhedralCone) -> PulledBackProblem:
    """The pull-back of ``prob`` at ``p`` through ``retraction`` and ``linmap``.

    Wires ``f_bar``, ``g_bar``, the Lagrangian gradient ``(v, mu) -> DR(v)^T
    (grad f(x) + Dg(x)^T DS(g(x))^T mu)``, ``x = R(v)``, one retraction per
    call, and the exact Hessian at ``v = 0`` (see the module docstring).
    The gradient is ``None`` when the model supplies no ambient gradients or
    ``S`` no closed-form differential; the exact Hessian is ``None`` unless
    every first- and second-derivative hook is present.  ``p`` need not be
    feasible: the solver pulls back at its iterates.
    """
    def f_bar(v):
        return float(prob.objective(retraction(v)))

    def g_bar(v):
        return linmap(prob.constraint(retraction(v)))

    gradient = exact = None
    if (prob.objective_grad_ambient is not None and prob.constraint_jac_ambient is not None
            and linmap.differential_fn is not None):
        def gradient(v, mu):
            x = retraction(v)
            covec = np.asarray(prob.objective_grad_ambient(x), dtype=float) \
                + np.asarray(prob.constraint_jac_ambient(x), dtype=float).T \
                @ (linmap.differential(prob.constraint(x)).T @ mu)
            return retraction.differential(v).T @ covec

        if (prob.objective_hess_ambient is not None
                and prob.constraint_hess_contract is not None
                and retraction.differential_fn is not None
                and retraction.hess_contract_fn is not None
                and linmap.hess_contract_fn is not None):
            def exact(mu):
                mu = np.asarray(mu, dtype=float)
                x = retraction.base
                q = prob.constraint(x)
                dg = np.asarray(prob.constraint_jac_ambient(x), dtype=float)
                w = linmap.differential(q).T @ mu
                c = np.asarray(prob.objective_grad_ambient(x), dtype=float) + dg.T @ w
                inner = np.asarray(prob.objective_hess_ambient(x), dtype=float) \
                    + np.asarray(prob.constraint_hess_contract(x, w), dtype=float) \
                    + dg.T @ np.asarray(linmap.hess_contract_fn(q, mu), dtype=float) @ dg
                dr = retraction.differential(np.zeros(retraction.chart.dim))
                return dr.T @ inner @ dr + np.asarray(retraction.hess_contract_fn(c),
                                                      dtype=float)

    return PulledBackProblem(
        base=np.asarray(p, dtype=float), retraction=retraction, linmap=linmap,
        f_bar=f_bar, g_bar=g_bar, cone_bar=cone,
        name=f"{prob.name}:{retraction.name}/{linmap.name}",
        lagrangian_gradient=gradient, exact_hessian=exact)


def build_pullback(prob: ProblemInstance, p, retraction: Optional[Retraction] = None,
                   linmap: Optional[LinearizingMap] = None,
                   retraction_kind: str = "default", linmap_kind: str = "chart",
                   adapted_kind: str = "default") -> PulledBackProblem:
    """:func:`pull_back` at a feasible point, with the domain's retraction
    and the corner set's linearizing map of the given kinds by default; a
    map that is not adapted takes the cone of the adapted chart."""
    prob.require_feasible(p)
    q = prob.constraint(p)
    if retraction is None:
        retraction = prob.domain.retraction(p, retraction_kind)
    if linmap is None:
        linmap = prob.constraint_set.linearizing_map(q, linmap_kind)
    cone = linmap.cone
    if cone is None:
        cone = prob.constraint_set.adapted_chart(q, adapted_kind).cone()
    return pull_back(prob, p, retraction, linmap, cone)


@dataclass
class CriticalCone:
    """Critical cones on both sides of the constraint map."""

    cone_m: PolyhedralCone
    cone_n: PolyhedralCone
    jacobian: np.ndarray
    mu_chart: np.ndarray


def critical_cone(cert: KKTCertificate, tol_act: float = TOL_ACT) -> CriticalCone:
    """Critical cones at a certified KKT point, in the certificate's local
    representation.

    ``cone_m`` collects the linearizing-cone rows plus the equality row
    ``f'(p)``; ``cone_n`` is the inner tangent cone with the strongly active
    rows (multiplier above ``tol_act``) turned into equalities, so that
    ``<mu, w> = 0`` holds throughout.  Ties at the threshold count as weakly
    active, which keeps the cone on the large (conservative) side.
    """
    loc = cert.local
    data, jac, grad = loc.corner, loc.jacobian, loc.gradient
    resid = float(np.linalg.norm(grad + jac.T @ cert.mu_chart))
    if resid > 1e2 * TOL_KKT * (1.0 + np.linalg.norm(grad)):
        raise InvalidCertificateError(
            f"certificate stationarity residual {resid:.3e} too large at this point")
    if cert.lambda_ineq.size != data.ell:
        raise InvalidCertificateError(
            f"certificate carries {cert.lambda_ineq.size} inequality rows, "
            f"adapted chart has {data.ell}")
    rows_i = data.inequality_rows()
    rows_e = data.equality_rows()
    strong = [j for j in range(data.ell) if cert.lambda_ineq[j] > tol_act]
    weak = [j for j in range(data.ell) if j not in strong]
    cone_n = PolyhedralCone.from_rows(
        rows_i[weak],
        np.vstack([rows_e, rows_i[strong]]),
        data.n)
    cone_m = PolyhedralCone.from_rows(
        rows_i @ jac,
        np.vstack([rows_e @ jac, grad.reshape(1, -1)]),
        loc.chart.dim)
    return CriticalCone(cone_m=cone_m, cone_n=cone_n, jacobian=jac,
                        mu_chart=cert.mu_chart.copy())


def lagrangian_value(pb: PulledBackProblem, v, mu) -> float:
    """``f_bar(v) + <mu, g_bar(v)>``; equals ``f(p*)`` at ``v = 0``."""
    v = np.asarray(v, dtype=float)
    return pb.f_bar(v) + float(np.asarray(mu, dtype=float) @ pb.g_bar(v))


@dataclass
class HessianForm:
    """Symmetric bilinear form of the pulled-back Lagrangian at the base point."""

    base: np.ndarray
    chart_id: str
    matrix: np.ndarray
    # "analytic" (the exact chain-rule Hessian), "grad-fd" (differences of
    # the analytic Lagrangian gradient) or "fd" (second differences of
    # Lagrangian values)
    source: str = "fd"
    # largest entry of |H(h/2) - H(h)| between the two step levels; 0 when
    # analytic
    fd_discrepancy: float = 0.0

    def __call__(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        return float(v @ self.matrix @ v)


def hessian_at_step(pb: PulledBackProblem, mu, h: float) -> np.ndarray:
    """One finite-difference Hessian at ``v = 0`` of ``v -> Lbar(v, mu)``,
    step ``h``: the symmetrised central difference of the pull-back's
    Lagrangian gradient when it has one, second differences of Lagrangian
    values otherwise."""
    if pb.lagrangian_gradient is not None:
        jac = fd_jacobian_of(lambda v: pb.lagrangian_gradient(v, mu), np.zeros(pb.dim), h)
        return 0.5 * (jac + jac.T)
    return fd_hessian_of(lambda v: lagrangian_value(pb, v, mu), pb.dim, h)


def lagrangian_hessian(pb: PulledBackProblem, mu, h: float = FD_HESS_STEP,
                       stationarity_tol: float = 1e-6) -> HessianForm:
    """Hessian of ``v -> Lbar(v, mu)`` at 0.

    Requires stationarity (the bilinear form is only chart-independent
    there); raises :class:`NotStationaryError` otherwise.  The gradient
    tested is the pull-back's analytic one when it has one, central
    differences of values otherwise.  The Hessian is the pull-back's exact
    one when it has one; otherwise :func:`hessian_at_step`
    at ``h`` and ``h/2`` (``grad-fd`` or ``fd``), Richardson extrapolated,
    with the largest difference between the two levels recorded as
    ``fd_discrepancy``.
    """
    mu = np.asarray(mu, dtype=float)
    fn = lambda v: lagrangian_value(pb, v, mu)
    zero = np.zeros(pb.dim)
    if pb.lagrangian_gradient is not None:
        grad = pb.lagrangian_gradient(zero, mu)
    else:
        grad = fd_gradient_of(fn, pb.dim)
    scale = 1.0 + abs(fn(zero))
    if np.linalg.norm(grad) > stationarity_tol * scale:
        raise NotStationaryError(
            f"pulled-back Lagrangian gradient {np.linalg.norm(grad):.3e} "
            f"exceeds {stationarity_tol:g}; Hessian undefined off stationary points")
    if pb.exact_hessian is not None:
        mat = pb.exact_hessian(mu)
        mat = 0.5 * (mat + mat.T)
        return HessianForm(base=pb.base, chart_id=pb.retraction.chart.chart_id,
                           matrix=mat, source="analytic", fd_discrepancy=0.0)
    source = "grad-fd" if pb.lagrangian_gradient is not None else "fd"
    coarse, fine = (hessian_at_step(pb, mu, step) for step in (h, h / 2.0))
    mat = (4.0 * fine - coarse) / 3.0
    mat = 0.5 * (mat + mat.T)
    discrepancy = float(np.max(np.abs(fine - coarse))) if mat.size else 0.0
    return HessianForm(base=pb.base, chart_id=pb.retraction.chart.chart_id,
                       matrix=mat, source=source, fd_discrepancy=discrepancy)


@dataclass
class InvarianceReport:
    """On-cone and off-cone quadratic-form discrepancies of two pull-backs."""

    max_on_cone: float
    max_off_cone: float
    n_on_cone: int
    tol: float
    hessian_1: HessianForm
    hessian_2: HessianForm

    @property
    def passed(self) -> bool:
        return self.max_on_cone <= self.tol


def invariance_check(cert: KKTCertificate, pullbacks: Sequence[PulledBackProblem],
                     tol: float = 1e-5, n_samples: int = 200, seed: int = 0,
                     crit: Optional[CriticalCone] = None) -> list[InvarianceReport]:
    """Compare the pulled-back Hessians of every pair of ``pullbacks`` on the
    critical cone.

    Returns one report per pair ``i < j``, in the order ``(0, 1), (0, 2),
    ..., (1, 2), ...``.  The critical cone and the sampled directions are
    built once, and each pull-back's Hessian and its values on those
    directions once, whatever the number of pairs.  ``crit`` is the critical
    cone of ``cert`` when the caller has formed it already.

    The multiplier is transported from the certificate's adapted chart into
    each linearizing map's frame with the inverse-transpose transition
    Jacobian; sampled critical-cone directions are transported from the
    certificate's chart into each retraction's frame the same way.  Off-cone
    directions are evaluated as well and their (expected, permitted)
    discrepancy is recorded without being asserted.
    """
    if len(pullbacks) < 2:
        return []
    if crit is None:
        crit = critical_cone(cert)
    cert_chart = cert.local.corner.chart
    # cone_m lives in the chart of the certificate's representation
    cone_chart = cert.local.chart
    rng = np.random.default_rng(seed)
    on_cone = []
    for v in sample_cone(crit.cone_m, rng, n_samples):
        if np.linalg.norm(v) < 1e-12:
            continue
        on_cone.append(v)
    off_cone = []
    for _ in range(n_samples // 2):
        v = rng.standard_normal(cone_chart.dim)
        v /= np.linalg.norm(v)
        off_cone.append(v)

    forms, on_values, off_values = [], [], []
    for pb in pullbacks:
        mu = cert.mu_chart
        if pb.linmap.chart is not None and pb.linmap.chart.chart_id != cert_chart.chart_id:
            mu = push_covector(cert_chart, pb.linmap.chart, cert.mu_chart)
        hess = lagrangian_hessian(pb, mu)
        jac = None
        if pb.retraction.chart.chart_id != cone_chart.chart_id:
            jac = transition_jacobian(cone_chart, pb.retraction.chart)
        forms.append(hess)
        on_values.append([hess(v if jac is None else jac @ v) for v in on_cone])
        off_values.append([hess(v if jac is None else jac @ v) for v in off_cone])

    return [InvarianceReport(max_on_cone=_max_gap(on_values[i], on_values[j]),
                             max_off_cone=_max_gap(off_values[i], off_values[j]),
                             n_on_cone=len(on_cone), tol=tol,
                             hessian_1=forms[i], hessian_2=forms[j])
            for i, j in itertools.combinations(range(len(forms)), 2)]


def _max_gap(values_1, values_2) -> float:
    gap = 0.0
    for a, b in zip(values_1, values_2):
        gap = max(gap, abs(a - b))
    return gap


def transition_second_derivative(lm1: LinearizingMap, lm2: LinearizingMap,
                                 h: float = 1e-4) -> np.ndarray:
    """Second derivative tensor of ``Theta = lm1 o lm2^{-1}`` at 0."""
    if not np.allclose(lm1.base, lm2.base, atol=1e-10):
        raise ValueError("transition needs linearizing maps with a shared base point")
    theta = lambda v: lm1(lm2.inverse(v))
    return fd_hessian_of(theta, lm1.dim, h)


def second_order_consistent(lm1: LinearizingMap, lm2: LinearizingMap,
                            h: float = 1e-4, tol: float = 1e-6) -> bool:
    """True iff the transition ``Theta = lm1 o lm2^{-1}`` has vanishing
    second derivative at the shared base point."""
    tensor = transition_second_derivative(lm1, lm2, h)
    return float(np.max(np.abs(tensor))) <= tol


@dataclass
class SecondOrderVerdict:
    status: str  # "holds" | "fails" | "inconclusive"
    min_value: Optional[float]
    witness: Optional[np.ndarray]

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def _quadratic_minimum_on_cone(matrix: np.ndarray, cone: PolyhedralCone):
    """Minimum of ``v^T H v`` over the cone intersected with the unit sphere.

    The minimum is a Pareto eigenvalue of ``H`` on the cone, so it is
    attained at an eigenvector of ``H`` restricted to the span of some face
    (Seeger, Linear Algebra Appl. 292 (1999)).  The walk over every face
    span, keeping each eigenvector that lies in the cone, is therefore
    exact.  Returns ``(min_value, argmin)`` or ``None`` when the cone is
    ``{0}``.
    """
    canon = canonicalize(cone)
    dim = canon.dim
    best = None

    def consider(v):
        nonlocal best
        norm = np.linalg.norm(v)
        if norm < 1e-10:
            return
        v = v / norm
        if not canon.contains(v, 1e-9):
            return
        val = float(v @ matrix @ v)
        if best is None or val < best[0]:
            best = (val, v)

    if canon.n_ineq == 0:
        basis = null_space(canon.a_eq, dim)
        if basis.shape[1] == 0:
            return None
        reduced = basis.T @ matrix @ basis
        vals, vecs = np.linalg.eigh(0.5 * (reduced + reduced.T))
        return float(vals[0]), basis @ vecs[:, 0]

    # face enumeration: stationary points of the form live on face spans
    n_rows = canon.n_ineq
    if n_rows > 16:
        raise DimensionTooLargeError("face enumeration capped at 16 inequality rows")
    for r in range(n_rows + 1):
        for subset in itertools.combinations(range(n_rows), r):
            rows = np.vstack([canon.a_eq, canon.a_ineq[list(subset)]]) \
                if subset else canon.a_eq
            basis = null_space(rows, dim)
            if basis.shape[1] == 0:
                continue
            reduced = basis.T @ matrix @ basis
            vals, vecs = np.linalg.eigh(0.5 * (reduced + reduced.T))
            for i in range(vals.size):
                cand = basis @ vecs[:, i]
                consider(cand)
                consider(-cand)

    return best


def _cone_verdict(hessian: HessianForm, crit: CriticalCone,
                  holds: Callable[[float], bool]) -> SecondOrderVerdict:
    """The verdict of ``hessian`` on ``crit.cone_m``; ``holds`` decides the
    minimum of the form on the unit sphere."""
    cone = crit.cone_m
    if cone.dim > 12 and not cone.is_subspace():
        return SecondOrderVerdict(status="inconclusive", min_value=None, witness=None)
    result = _quadratic_minimum_on_cone(hessian.matrix, cone)
    if result is None:
        return SecondOrderVerdict(status="holds", min_value=None, witness=None)
    min_val, witness = result
    if holds(min_val):
        return SecondOrderVerdict(status="holds", min_value=min_val, witness=None)
    return SecondOrderVerdict(status="fails", min_value=min_val, witness=witness)


def sosc_check(hessian: HessianForm, crit: CriticalCone,
               tol: float = 1e-8) -> SecondOrderVerdict:
    """Decide ``H[v, v] > 0`` on the critical cone minus the origin: ``holds``
    when the minimum on the unit sphere exceeds ``tol``."""
    return _cone_verdict(hessian, crit, lambda min_val: min_val > tol)


def sonc_check(hessian: HessianForm, crit: CriticalCone,
               tol: float = 1e-8) -> SecondOrderVerdict:
    """Decide ``H[v, v] >= 0`` on the critical cone: ``holds`` when the
    minimum on the unit sphere is at least ``-tol``."""
    return _cone_verdict(hessian, crit, lambda min_val: min_val >= -tol)
