import dataclasses

import numpy as np
import pytest

from corneropt.corners import EuclideanCornerSet
from corneropt.errors import LineSearchFailureError, QPInfeasibleError
from corneropt.firstorder import solve_kkt
from corneropt.geometry import Euclidean, Sphere, fd_hessian_of, fd_jacobian_of
from corneropt import secondorder as secondorder_module
from corneropt.models import (build_classical_nlp, build_control_model,
                              build_diagonal_constraint, build_remark_counterexample,
                              build_sphere_polygon)
from corneropt.oracles import enumerate_qp_solution, grid_minimize
from corneropt.problem import ProblemInstance
from corneropt.secondorder import build_pullback
from corneropt.solver import (SolveOptions, _lagrangian_hessian,
                              _local_pullback, merit_and_linesearch, merit_value,
                              solve, solve_qp_active_set)


class TestActiveSetQP:
    def test_unconstrained_newton(self):
        grad = np.array([1.0, -2.0])
        v, lam_i, lam_e = solve_qp_active_set(np.eye(2), grad,
                                              np.zeros((0, 2)), np.zeros(0),
                                              np.zeros((0, 2)), np.zeros(0))
        np.testing.assert_allclose(v, -grad, atol=1e-12)
        assert lam_i.size == 0 and lam_e.size == 0

    def test_projected_steepest_descent(self):
        # single active inequality a^T v <= 0 with a^T(-grad) > 0
        grad = np.array([-1.0, -1.0])
        a_row = np.array([[1.0, 0.0]])
        v, lam_i, _ = solve_qp_active_set(np.eye(2), grad, a_row, np.zeros(1),
                                          np.zeros((0, 2)), np.zeros(0))
        projected = -grad - (a_row[0] @ -grad) * a_row[0]
        np.testing.assert_allclose(v, projected, atol=1e-10)
        assert lam_i[0] > 0

    def test_equality_only_kkt_system(self):
        rng = np.random.default_rng(0)
        h_mat = np.eye(3) * 2.0
        grad = rng.standard_normal(3)
        c_eq = rng.standard_normal((1, 3))
        d_eq = np.array([0.3])
        v, _, lam_e = solve_qp_active_set(h_mat, grad, np.zeros((0, 3)),
                                          np.zeros(0), c_eq, d_eq)
        kkt = np.block([[h_mat, c_eq.T], [c_eq, np.zeros((1, 1))]])
        sol = np.linalg.solve(kkt, np.concatenate([-grad, d_eq]))
        np.testing.assert_allclose(v, sol[:3], atol=1e-10)
        np.testing.assert_allclose(lam_e, sol[3:], atol=1e-10)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(1, 5))
            n_i = int(rng.integers(0, 5))
            n_e = int(rng.integers(0, min(n, 2) + 1))
            a_fac = rng.standard_normal((n, n))
            h_mat = a_fac.T @ a_fac + np.eye(n)
            grad = rng.standard_normal(n)
            c_i = rng.standard_normal((n_i, n))
            d_i = rng.uniform(0.1, 1.0, n_i)
            c_e = rng.standard_normal((n_e, n))
            d_e = 0.3 * rng.standard_normal(n_e)
            try:
                v, lam_i, lam_e = solve_qp_active_set(h_mat, grad, c_i, d_i, c_e, d_e)
            except QPInfeasibleError:
                with pytest.raises(Exception):
                    enumerate_qp_solution(h_mat, grad, c_i, d_i, c_e, d_e)
                continue
            checked += 1
            _, val_ref = enumerate_qp_solution(h_mat, grad, c_i, d_i, c_e, d_e)
            val = 0.5 * float(v @ h_mat @ v) + float(grad @ v)
            assert abs(val - val_ref) <= 1e-7
            resid = h_mat @ v + grad
            if n_i:
                resid = resid + c_i.T @ lam_i
            if n_e:
                resid = resid + c_e.T @ lam_e
            assert np.linalg.norm(resid) <= 1e-7
        assert checked >= 40


def _linearized_qp(pb, h_mat, grad):
    """The local QP of a pull-back: its cone rows applied to the linearized
    constraint map ``g_bar(0) + g_bar'(0) v``."""
    zero = np.zeros(pb.dim)
    g0 = pb.g_bar(zero)
    jac = fd_jacobian_of(pb.g_bar, zero)
    cone = pb.cone_bar
    return solve_qp_active_set(h_mat, grad, cone.a_ineq @ jac, -(cone.a_ineq @ g0),
                               cone.a_eq @ jac, -(cone.a_eq @ g0))


class TestQpSubproblem:
    def test_interior_point_sees_no_rows(self):
        # at an interior reference the local corner description is rowless,
        # so the subproblem reduces to the Newton step
        prob = build_remark_counterexample()
        point = np.array([-0.5, 0.3])
        pb = build_pullback(prob, point)
        grad = prob.objective_gradient(point, pb.retraction.chart)
        v, lam_i, _ = _linearized_qp(pb, np.eye(2), grad)
        np.testing.assert_allclose(v, -grad, atol=1e-8)
        assert lam_i.size == 0

    def test_boundary_point_active_row(self):
        prob = build_remark_counterexample()
        point = np.array([0.0, 0.3])
        pb = build_pullback(prob, point)
        grad = prob.objective_gradient(point, pb.retraction.chart)
        v, lam_i, _ = _linearized_qp(pb, np.eye(2), grad)
        np.testing.assert_allclose(v, np.zeros(2), atol=1e-9)
        assert lam_i[0] == pytest.approx(1.0, abs=1e-9)


class TestLineSearch:
    def test_full_step_on_quadratic(self):
        prob = build_classical_nlp({"m": 2, "n_ineq": 0, "n_eq": 0, "seed": 1})
        x = prob.extras["reference"]["point"] + np.array([0.3, -0.2])
        pb = build_pullback(prob, x)
        grad = prob.objective_gradient(x, pb.retraction.chart)
        quad = prob.extras["quad"]
        v = np.linalg.solve(quad, -grad)
        t = merit_and_linesearch(pb, v, SolveOptions(), grad=grad)
        assert t == 1.0

    def test_domain_guard_reduces_step(self):
        prob = build_sphere_polygon()
        start = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        pb = build_pullback(prob, start)
        grad = prob.objective_gradient(start, pb.retraction.chart)
        huge = -80.0 * grad  # descent direction far beyond the chart
        t = merit_and_linesearch(pb, huge, SolveOptions(), grad=grad)
        assert t * np.linalg.norm(huge) < pb.retraction.domain_radius

    def test_backtracking_decreases_merit(self):
        prob = build_sphere_polygon()
        start = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        pb = build_pullback(prob, start)
        grad = prob.objective_gradient(start, pb.retraction.chart)
        v = -2.5 * grad  # overshooting step
        opts = SolveOptions()
        t = merit_and_linesearch(pb, v, opts, grad=grad)
        assert merit_value(pb, t * v, opts.merit_penalty) < \
            merit_value(pb, np.zeros(2), opts.merit_penalty)

    def test_failure_after_max_halvings(self):
        prob = build_remark_counterexample()
        pb = build_pullback(prob, np.zeros(2))
        uphill = np.array([-1.0, 0.0])  # increases f, no violation to offset
        with pytest.raises(LineSearchFailureError):
            merit_and_linesearch(pb, -uphill * 0.0 + np.array([-1.0, 0.0]),
                                 SolveOptions(max_halvings=8),
                                 grad=np.array([-1.0, 0.0]))


class TestSolve:
    def test_convex_qp_reaches_planted_solution(self):
        prob = build_classical_nlp({"m": 4, "n_ineq": 3, "n_eq": 1,
                                    "seed": 5, "n_active": 2})
        ref = prob.extras["reference"]
        rng = np.random.default_rng(0)
        result = solve(prob, ref["point"] + 0.3 * rng.standard_normal(4))
        assert result.status == "converged"
        assert result.n_iterations <= 20
        assert np.linalg.norm(result.point - ref["point"]) <= 1e-8 * 100

    def test_remark_model_from_interior(self):
        prob = build_remark_counterexample()
        result = solve(prob, np.array([-0.5, 0.3]))
        assert result.status == "converged"
        np.testing.assert_allclose(result.point, [0.0, 0.3], atol=1e-9)
        np.testing.assert_allclose(result.certificate.mu_chart, [1.0, 0.0],
                                   atol=1e-9)

    def test_sphere_triangle_matches_grid_oracle(self):
        prob = build_sphere_polygon()
        start = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        result = solve(prob, start)
        assert result.status == "converged"
        point, value = grid_minimize(prob, prob.extras["search_region"], 1e-3)
        assert prob.objective(result.point) <= value + 1e-4

    def test_monotone_merit_on_accepted_steps(self):
        prob = build_sphere_polygon()
        start = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        result = solve(prob, start)
        for rec in result.iterations:
            if rec.step_length > 0:
                assert rec.merit_after <= rec.merit_before + 1e-12

    def test_single_iteration_from_certified_minimizer(self):
        prob = build_classical_nlp({"m": 3, "seed": 9})
        ref = prob.extras["reference"]
        result = solve(prob, ref["point"])
        assert result.status == "converged"
        assert result.n_iterations <= 1
        steps = [rec.step_norm for rec in result.iterations]
        assert all(s <= 1e-8 for s in steps)

    def test_multiplier_handoff_under_licq(self):
        prob = build_classical_nlp({"m": 4, "n_ineq": 2, "n_eq": 1,
                                    "seed": 23, "n_active": 2})
        ref = prob.extras["reference"]
        rng = np.random.default_rng(3)
        result = solve(prob, ref["point"] + 0.1 * rng.standard_normal(4))
        assert result.status == "converged"
        cert = result.certificate
        pb = build_pullback(prob, result.point)
        grad = prob.objective_gradient(result.point, pb.retraction.chart)
        quad = prob.extras["quad"]
        _, lam_i, lam_e = _linearized_qp(pb, quad, grad)
        active = [i for i, lam in enumerate(lam_i) if lam > 1e-9]
        np.testing.assert_allclose(np.asarray(lam_i)[active],
                                   cert.lambda_ineq[cert.lambda_ineq > 1e-9],
                                   atol=1e-6)
        np.testing.assert_allclose(lam_e, cert.lambda_eq, atol=1e-6)

    def test_retraction_invariance_of_converged_point(self):
        prob = build_sphere_polygon()
        start = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        r_exp = solve(prob, start, SolveOptions(retraction_kind="exp"))
        r_proj = solve(prob, start, SolveOptions(retraction_kind="proj"))
        assert r_exp.status == r_proj.status == "converged"
        assert Sphere(2).distance(r_exp.point, r_proj.point) <= 1e-6

    def test_max_iter_status_with_absurd_tolerance(self):
        prob = build_sphere_polygon()
        start = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        result = solve(prob, start, SolveOptions(tol_kkt=1e-30, max_iter=15))
        assert result.status == "max_iter"

    def test_breakdown_without_projection(self):
        class NoProjectCorner(EuclideanCornerSet):
            def project(self, q):
                raise NotImplementedError

            def solver_reference(self, q, band):
                if self.contains(q):
                    return np.asarray(q, dtype=float)
                raise NotImplementedError

        corner = NoProjectCorner(2, ineq=(0,), eq=())
        prob = ProblemInstance(
            domain=Euclidean(2), codomain=Euclidean(2), constraint_set=corner,
            objective=lambda x: float(x[0]),
            constraint=lambda x: np.asarray(x, dtype=float),
            objective_grad_ambient=lambda x: np.array([1.0, 0.0]),
            constraint_jac_ambient=lambda x: np.eye(2))
        result = solve(prob, np.array([1.0, 0.0]))
        assert result.status == "breakdown"

    def test_control_model_with_nonlinear_energy(self):
        prob = build_control_model({"n_nodes": 6, "beta": 0.4})
        rng = np.random.default_rng(8)
        start = 0.3 * rng.standard_normal(12)
        result = solve(prob, start, SolveOptions(max_iter=60))
        assert result.status == "converged"
        cert = solve_kkt(prob, result.point)
        assert cert.stationarity_residual <= 1e-8 * 10

    def test_bfgs_and_identity_modes(self):
        prob = build_classical_nlp({"m": 3, "n_ineq": 2, "n_eq": 0, "seed": 3})
        ref = prob.extras["reference"]
        for mode, cap in (("bfgs", 60), ("identity", 120)):
            result = solve(prob, ref["point"] + 0.2,
                           SolveOptions(hessian_mode=mode, max_iter=cap))
            assert result.status == "converged", mode
            assert np.linalg.norm(result.point - ref["point"]) <= 1e-6


def _pullback(prob, point):
    return _local_pullback(prob, np.asarray(point, dtype=float), SolveOptions(), 0.3)


class TestLagrangianHessian:
    """The solver's Hessian differences the analytic Lagrangian gradient."""

    def test_control_model_matches_closed_form(self):
        n = 6
        prob = build_control_model({"n_nodes": n, "beta": 0.5})
        rng = np.random.default_rng(3)
        point = 0.3 * rng.standard_normal(2 * n)
        pb = _pullback(prob, point)
        mu = rng.standard_normal(2 * n)
        # f = |y - y_d|^2 / 2 + alpha |u|^2 / 2, g = (y, Q y + beta y^3 - u),
        # translation retraction and shift charts: only the cubic term curves g
        y = point[:n]
        closed = np.diag(np.concatenate([np.ones(n) + 6.0 * 0.5 * y * mu[n:],
                                         np.ones(n)]))
        np.testing.assert_allclose(_lagrangian_hessian(pb, mu), closed,
                                   atol=1e-8, rtol=0)

    @pytest.mark.parametrize("prob, point", [
        (build_classical_nlp({"m": 4, "n_ineq": 3, "n_eq": 1, "seed": 5}),
         np.array([0.3, -0.2, 0.5, 0.1])),
        (build_sphere_polygon(), np.array([0.6, 0.5, 0.2]) / np.linalg.norm([0.6, 0.5, 0.2])),
    ], ids=["classical-nlp", "sphere-polygon"])
    def test_matches_value_differences(self, prob, point):
        pb = _pullback(prob, point)
        mu = np.random.default_rng(4).standard_normal(pb.g_bar(np.zeros(pb.dim)).size)
        lag = lambda v: pb.f_bar(v) + float(mu @ pb.g_bar(v))
        # second differences of values at h = 1e-4 are accurate to ~1e-7
        np.testing.assert_allclose(_lagrangian_hessian(pb, mu),
                                   fd_hessian_of(lag, pb.dim, 1e-4), atol=1e-6, rtol=0)

    def test_control_solve_objective_budget(self, monkeypatch):
        # value differences took 64,038 objective calls for this solve; the
        # budget may only go down
        fallbacks = _count_fallbacks(monkeypatch)
        calls = [0]
        prob = build_control_model({"n_nodes": 40, "beta": 0.5})

        def counted(p, objective=prob.objective):
            calls[0] += 1
            return objective(p)

        prob = dataclasses.replace(prob, objective=counted)
        start = 0.3 * np.random.default_rng(0).standard_normal(80)
        result = solve(prob, start)
        assert result.status == "converged"
        assert calls[0] <= 250
        assert fallbacks[0] == 0

    def test_models_without_gradients_use_value_differences(self, monkeypatch):
        fallbacks = _count_fallbacks(monkeypatch)
        prob = build_control_model({"n_nodes": 3, "variant": "circle"})
        assert prob.objective_grad_ambient is None
        solve(prob, prob.domain.random_point(np.random.default_rng(0)),
              SolveOptions(max_iter=2))
        assert fallbacks[0] >= 1


def _count_fallbacks(monkeypatch):
    count = [0]
    original = secondorder_module.fd_hessian_of

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(secondorder_module, "fd_hessian_of", counted)
    return count


class TestCertificatePairing:
    @pytest.mark.parametrize("seed", [8, 37, 94])
    @pytest.mark.parametrize("mode", ["fd-lagrangian", "bfgs"])
    def test_converged_point_is_the_certified_point(self, seed, mode):
        # near starts whose iterates step off the diagonal after a certificate
        # was computed; the stagnation exit used to pair that certificate with
        # the moved point, which solve_kkt rejects as infeasible
        prob = build_diagonal_constraint()
        q = np.array([0.0, 0.0, 1.0]) + 0.2 * np.random.default_rng(seed).standard_normal(3)
        result = solve(prob, q / np.linalg.norm(q), SolveOptions(hessian_mode=mode))
        assert result.status == "converged"
        np.testing.assert_array_equal(result.certificate.point, result.point)
        solve_kkt(prob, result.point)
