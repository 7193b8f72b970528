"""Problem instances: objective, constraint map, and the corner set they target.

A :class:`ProblemInstance` bundles ``(M, N, K, f, g)`` with optional analytic
ambient derivatives: first derivatives, and second derivatives as the
contractions ``Hess f`` and ``sum_i w_i Hess g_i`` that the exact pulled-back
Lagrangian Hessian needs.  Chart representations ``f o phi^{-1}`` and
``psi o g o phi^{-1}`` and their derivatives at the chart center are derived
here; analytic ambient derivatives are chained through the chart Jacobians
when available, otherwise central finite differences (step ``fd_step``) are
used.  :meth:`ProblemInstance.local` builds the local representation at a
feasible point once, and every first- and second-order check reads it.
Pull-backs through retractions and linearizing maps are built in
:mod:`corneropt.secondorder`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .corners import AdaptedChartData, CornerSet, TOL_FEAS
from .errors import InfeasiblePointError
from .geometry import Chart, Manifold, fd_gradient_of, fd_jacobian_of


@dataclass(frozen=True)
class LocalRepresentation:
    """The problem at a feasible point ``p`` in one pair of charts.

    ``chart`` is the chart ``phi`` at ``p``, ``corner`` the adapted chart
    ``psi`` at ``g(p)`` with its corner rows ``(A_hat, W)``, ``jacobian`` is
    ``G = (psi o g o phi^{-1})'(0)`` and ``gradient`` is
    ``grad (f o phi^{-1})(0)``.  Built only by :meth:`ProblemInstance.local`.
    """

    point: np.ndarray
    chart: Chart
    corner: AdaptedChartData
    jacobian: np.ndarray
    gradient: np.ndarray
    chart_kind: str
    adapted_kind: str


@dataclass(frozen=True)
class ProblemInstance:
    """An optimization problem ``min f(p) s.t. g(p) in K`` on manifolds."""

    domain: Manifold
    codomain: Manifold
    constraint_set: CornerSet
    objective: Callable[[np.ndarray], float]
    constraint: Callable[[np.ndarray], np.ndarray]
    objective_grad_ambient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constraint_jac_ambient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # second derivatives, as contractions: p -> Hess f(p) (m x m) and
    # (p, w) -> sum_i w_i Hess g_i(p) (m x m), both of the ambient extensions
    # that objective and constraint evaluate
    objective_hess_ambient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constraint_hess_contract: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = "problem"
    fd_step: float = 1e-5
    # optional vectorized callbacks used only by brute-force oracles
    objective_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    membership_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # model-specific payloads (classical NLP expansion data, references, ...)
    extras: dict = field(default_factory=dict)

    def feasible(self, p: np.ndarray, tol: float = TOL_FEAS) -> bool:
        return self.constraint_set.contains(self.constraint(p), tol)

    def require_feasible(self, p: np.ndarray, tol: float = TOL_FEAS) -> None:
        if not self.feasible(p, tol):
            raise InfeasiblePointError(f"g(p) is not in the corner set of {self.name!r}")

    # -- chart representations ------------------------------------------------

    def objective_in_chart(self, chart_m: Chart) -> Callable[[np.ndarray], float]:
        return lambda x: float(self.objective(chart_m.inverse(x)))

    def constraint_in_charts(self, chart_m: Chart, chart_n: Chart) -> Callable:
        return lambda x: chart_n.forward(self.constraint(chart_m.inverse(x)))

    def objective_gradient(self, p: np.ndarray, chart_m: Chart) -> np.ndarray:
        """Gradient of ``f o phi^{-1}`` at the chart center."""
        if self.objective_grad_ambient is not None:
            grad_amb = np.asarray(self.objective_grad_ambient(p), dtype=float)
            return chart_m.differential_at(np.zeros(chart_m.dim)).T @ grad_amb
        return fd_gradient_of(self.objective_in_chart(chart_m), chart_m.dim,
                              self.fd_step)

    def constraint_jacobian(self, p: np.ndarray, chart_m: Chart,
                            chart_n: Chart) -> np.ndarray:
        """Jacobian of ``psi o g o phi^{-1}`` at the chart center."""
        if (self.constraint_jac_ambient is not None
                and chart_n.forward_jacobian_fn is not None):
            jac_amb = np.asarray(self.constraint_jac_ambient(p), dtype=float)
            fwd = chart_n.forward_differential(self.constraint(p))
            return fwd @ jac_amb @ chart_m.differential_at(np.zeros(chart_m.dim))
        fn = self.constraint_in_charts(chart_m, chart_n)
        return fd_jacobian_of(fn, np.zeros(chart_m.dim), h=self.fd_step)

    def local(self, p: np.ndarray, chart_kind: str = "default",
              adapted_kind: str = "default") -> LocalRepresentation:
        """The local representation at ``p`` in charts of the given kinds;
        raises :class:`InfeasiblePointError` when ``g(p)`` is not in ``K``."""
        p = np.asarray(p, dtype=float)
        q = self.constraint(p)
        if not self.constraint_set.contains(q):
            raise InfeasiblePointError(f"g(p) is not in the corner set of {self.name!r}")
        chart = self.domain.chart(p, kind=chart_kind)
        corner = self.constraint_set.adapted_chart(q, kind=adapted_kind)
        return LocalRepresentation(
            point=p, chart=chart, corner=corner,
            jacobian=self.constraint_jacobian(p, chart, corner.chart),
            gradient=self.objective_gradient(p, chart),
            chart_kind=chart_kind, adapted_kind=adapted_kind)
