import math

import numpy as np
import pytest

from corneropt.corners import corner_index, validate
from corneropt.errors import BadParamsError
from corneropt.firstorder import check_licq, solve_kkt
from corneropt.geometry import Sphere, axiom_check, fd_jacobian_of
from corneropt.models import (MODELS, build_classical_nlp, build_control_model,
                              build_diagonal_constraint,
                              build_remark_counterexample, build_sphere_polygon,
                              build_model, get_model)


class TestRegistry:
    def test_expected_names(self):
        for name in ("classical-nlp", "sphere-polygon", "remark-counterexample",
                     "diagonal-constraint", "control-model"):
            assert name in MODELS

    def test_unknown_model(self):
        with pytest.raises(BadParamsError):
            get_model("does-not-exist")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(BadParamsError):
            build_model("remark-counterexample", {"gamma": 2})


def _instances_with_points():
    out = []
    prob = build_classical_nlp({"seed": 14})
    out.append((prob, prob.extras["reference"]["point"]))
    prob = build_sphere_polygon()
    out.append((prob, prob.extras["reference"]["point"]))
    prob = build_remark_counterexample()
    out.append((prob, np.zeros(2)))
    prob = build_diagonal_constraint({"variant": "same"})
    out.append((prob, Sphere(2).random_point(np.random.default_rng(3))))
    prob = build_control_model({"n_nodes": 6})
    out.append((prob, prob.extras["reference"]["point"]))
    return out


class TestDerivativeConsistency:
    @pytest.mark.parametrize("prob,point", _instances_with_points(),
                             ids=lambda x: getattr(x, "name", ""))
    def test_analytic_derivatives_match_fd(self, prob, point):
        if prob.objective_grad_ambient is None:
            pytest.skip("finite-difference model")
        rng = np.random.default_rng(10)
        chart_p = prob.domain.chart(point)
        for _ in range(50):
            x = rng.uniform(-0.05, 0.05, chart_p.dim)
            p = chart_p.inverse(x)
            chart = prob.domain.chart(p)
            grad = prob.objective_gradient(p, chart)
            fobj = prob.objective_in_chart(chart)
            fd = np.zeros(chart.dim)
            for j in range(chart.dim):
                e = np.zeros(chart.dim)
                e[j] = 1e-6
                fd[j] = (fobj(e) - fobj(-e)) / 2e-6
            scale = 1.0 + np.linalg.norm(fd)
            assert np.linalg.norm(grad - fd) <= 1e-5 * scale
            q = prob.constraint(p)
            if not prob.constraint_set.contains(q):
                continue
            data = prob.constraint_set.adapted_chart(q)
            jac = prob.constraint_jacobian(p, chart, data.chart)
            fd_jac = fd_jacobian_of(prob.constraint_in_charts(chart, data.chart),
                                    np.zeros(chart.dim), h=1e-6)
            assert np.max(np.abs(jac - fd_jac)) <= 1e-5 * (1.0 + np.abs(fd_jac).max())


class TestAdaptedChartsValidate:
    def test_reference_points_validate(self):
        for prob, point in _instances_with_points():
            q = prob.constraint(point)
            for kind in prob.constraint_set.chart_kinds:
                assert validate(prob.constraint_set, q, kind=kind).passed


class TestClassicalModel:
    def test_chart_structure_matches_worked_example(self):
        # K = R^2_- (two inequalities, no equalities)
        prob = build_classical_nlp({"m": 2, "n_ineq": 2, "n_eq": 0, "seed": 0})
        corner = prob.constraint_set
        data = corner.adapted_chart(np.array([-1.0, -2.0]))
        assert data.ell == 0 and data.chart.radius == pytest.approx(1.0)
        data = corner.adapted_chart(np.zeros(2))
        assert data.ell == 2
        np.testing.assert_allclose(data.a_hat, np.eye(2))
        data = corner.adapted_chart(np.array([0.0, -1.0]))
        assert data.ell == 1
        np.testing.assert_allclose(data.a_hat, [[1.0, 0.0]])

    def test_planted_point_is_kkt(self):
        prob = build_classical_nlp({"seed": 31})
        ref = prob.extras["reference"]
        cert = solve_kkt(prob, ref["point"])
        np.testing.assert_allclose(cert.mu_chart, ref["mu_chart"], atol=1e-9)

    def test_indefinite_curvature_saddle(self):
        prob = build_classical_nlp({"m": 2, "n_ineq": 0, "n_eq": 0, "seed": 0,
                                    "curvature": "indefinite"})
        ref = prob.extras["reference"]
        cert = solve_kkt(prob, ref["point"])
        assert cert.stationarity_residual <= 1e-10
        np.testing.assert_allclose(prob.extras["quad"], np.diag([1.0, -1.0]))

    def test_too_many_active_rejected(self):
        with pytest.raises(BadParamsError):
            build_classical_nlp({"m": 2, "n_ineq": 3, "n_eq": 1, "n_active": 3})


class TestSpherePolygon:
    def test_interior_target_minimizer(self):
        target = np.array([1.0, 1.0, 1.0])
        prob = build_sphere_polygon({"target": tuple(target)})
        ref = prob.extras["reference"]
        np.testing.assert_allclose(ref["point"], target / np.linalg.norm(target),
                                   atol=1e-12)
        assert ref["active_edges"] == ()
        cert = solve_kkt(prob, ref["point"])
        np.testing.assert_allclose(cert.mu_chart, np.zeros(2), atol=1e-9)
        assert corner_index(prob.constraint_set, ref["point"]) == 0

    def test_edge_target_minimizer(self):
        prob = build_sphere_polygon()  # default target crosses edge z = 0
        ref = prob.extras["reference"]
        assert ref["active_edges"] == (0,)
        assert corner_index(prob.constraint_set, ref["point"]) == 1
        cert = solve_kkt(prob, ref["point"])
        assert cert.lambda_ineq[0] > 1e-7

    def test_vertex_target_minimizer(self):
        prob = build_sphere_polygon({"target": (1.0, -0.4, -0.4)})
        ref = prob.extras["reference"]
        np.testing.assert_allclose(ref["point"], [1.0, 0.0, 0.0], atol=1e-12)
        assert corner_index(prob.constraint_set, ref["point"]) == 2

    def test_reference_agrees_with_dense_search(self):
        # closed-form candidates against an exhaustive edge/vertex search
        prob = build_sphere_polygon()
        ref = prob.extras["reference"]
        corner = prob.constraint_set
        best = None
        for (ia, ib) in ((0, 1), (1, 2), (2, 0)):
            a, b = corner.vertices[ia], corner.vertices[ib]
            omega = math.acos(float(a @ b))
            for t in np.linspace(0.0, 1.0, 4001):
                p = (math.sin((1 - t) * omega) * a + math.sin(t * omega) * b) \
                    / math.sin(omega)
                val = prob.objective(p)
                if best is None or val < best:
                    best = val
        assert ref["value"] <= best + 1e-7

    def test_degenerate_target_rejected(self):
        with pytest.raises(BadParamsError):
            build_sphere_polygon({"target": (0.0, 0.0, 0.0)})


class TestDiagonalModel:
    def test_same_variant_everywhere_feasible(self):
        prob = build_diagonal_constraint({"variant": "same"})
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = Sphere(2).random_point(rng)
            assert prob.feasible(p)
        # constraint Jacobian difference vanishes on tangent directions
        p = Sphere(2).random_point(rng)
        chart = prob.domain.chart(p)
        data = prob.constraint_set.adapted_chart(prob.constraint(p))
        jac = prob.constraint_jacobian(p, chart, data.chart)
        rows_w = data.equality_rows()
        assert np.max(np.abs(rows_w @ jac)) <= 1e-9

    def test_const_variant_single_feasible_point(self):
        anchor = np.array([0.0, 0.0, 1.0])
        prob = build_diagonal_constraint({"variant": "const"})
        assert prob.feasible(anchor)
        assert not prob.feasible(np.array([1.0, 0.0, 0.0]))

    def test_rotation_fixed_points(self):
        prob = build_diagonal_constraint({"variant": "rotation", "angle": 0.7})
        for pole in (np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])):
            assert prob.feasible(pole)
        assert not prob.feasible(np.array([1.0, 0.0, 0.0]))

    def test_rotation_kkt_matches_direct_equality_formulation(self):
        prob = build_diagonal_constraint({"variant": "rotation", "angle": 0.7})
        pole = np.array([0.0, 0.0, 1.0])
        assert check_licq(prob.local(pole))
        cert = solve_kkt(prob, pole)
        # direct reformulation h(x) = chart(R p(x)) - chart(p(x)) = 0
        sphere = Sphere(2)
        chart = sphere.chart(pole)
        angle = 0.7
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

        def residual(x):
            p = chart.inverse(x)
            return chart.forward(sphere.project(rot @ p)) - x

        jac_h = fd_jacobian_of(residual, np.zeros(2), h=1e-6)
        grad = prob.objective_gradient(pole, chart)
        eta, res, *_ = np.linalg.lstsq(jac_h.T, -grad, rcond=None)
        direct_residual = np.linalg.norm(jac_h.T @ eta + grad)
        assert direct_residual <= 1e-6
        assert cert.stationarity_residual <= 1e-8


class TestControlModel:
    def test_adjoint_reference_solves_kkt_system(self):
        prob = build_control_model({"n_nodes": 8})
        ref = prob.extras["reference"]
        q_mat = prob.extras["q_mat"]
        alpha = prob.extras["alpha"]
        y, u, lam = ref["state"], ref["control"], ref["adjoint"]
        y_target = prob.extras["y_target"]
        np.testing.assert_allclose(q_mat @ y, u, atol=1e-12)
        np.testing.assert_allclose(alpha * u, lam, atol=1e-12)
        np.testing.assert_allclose(y - y_target + q_mat @ lam,
                                   np.zeros(8), atol=1e-12)

    def test_generic_kkt_matches_adjoint(self):
        prob = build_control_model({"n_nodes": 8})
        ref = prob.extras["reference"]
        cert = solve_kkt(prob, ref["point"])
        n = 8
        assert np.max(np.abs(cert.mu_chart[:n])) <= 1e-10
        np.testing.assert_allclose(cert.lambda_eq, ref["adjoint"], atol=1e-8)

    def test_specialized_system_residuals_vanish(self):
        prob = build_control_model({"n_nodes": 8})
        ref = prob.extras["reference"]
        blocks = prob.extras["kkt_residuals"](ref["state"], ref["control"],
                                              ref["adjoint"])
        for block in blocks:
            assert np.max(np.abs(block)) <= 1e-10

    @pytest.mark.parametrize("beta", [0.0, 0.5, -0.3])
    def test_constraint_jacobian_is_the_block_formula(self, beta):
        # built from constant blocks plus the 3 beta y^2 diagonal, bit for
        # bit the value of the block formula, and a fresh array per call
        n = 7
        prob = build_control_model({"n_nodes": n, "beta": beta})
        q_mat = prob.extras["q_mat"]
        rng = np.random.default_rng(5)
        for _ in range(4):
            p = rng.standard_normal(2 * n)
            y = p[:n]
            formula = np.vstack([
                np.hstack([np.eye(n), np.zeros((n, n))]),
                np.hstack([q_mat + 3.0 * beta * np.diag(y ** 2), -np.eye(n)])])
            jac = prob.constraint_jac_ambient(p)
            assert jac.tobytes() == formula.tobytes()
            # the next call must not see this one's writes
            jac[:] = np.nan

    def test_licq_iff_surjective(self):
        prob = build_control_model({"n_nodes": 5})
        ref = prob.extras["reference"]
        assert check_licq(prob.local(ref["point"]))

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            build_control_model({"n_nodes": 1})

    def test_circle_variant_feasibility_and_axioms(self):
        prob = build_control_model({"n_nodes": 4, "variant": "circle"})
        corner = prob.constraint_set
        rng = np.random.default_rng(2)
        # feasible points: state on circles, fibre forced to zero by control
        theta = 0.3 * rng.standard_normal(4)
        from corneropt.geometry import CircleProduct
        y_amb = CircleProduct._from_angles(theta)
        # choose u so that the fibre force vanishes: u_i = kappa[...] / cos
        padded = np.concatenate([[0.0], theta, [0.0]])
        u = np.array([(math.sin(padded[i + 1] - padded[i])
                       + math.sin(padded[i + 1] - padded[i + 2]))
                      / math.cos(theta[i]) for i in range(4)])
        point = np.concatenate([y_amb, u])
        assert prob.feasible(point)
        q = prob.constraint(point)
        for kind in corner.linmap_kinds:
            lm = corner.linearizing_map(q, kind)
            assert axiom_check(lm).passed


class TestRemarkModel:
    def test_adapted_flags(self):
        prob = build_remark_counterexample()
        flags = prob.extras["adapted_flags"]
        assert flags == {"S01": True, "S02": False, "S03": True}

    def test_adapted_flags_verified_by_sampling(self):
        from corneropt.corners import check_adapted

        prob = build_remark_counterexample()
        for name, lm in prob.extras["linmaps"].items():
            report = check_adapted(lm, prob.constraint_set, np.zeros(2), seed=3)
            assert report.adapted == prob.extras["adapted_flags"][name], name

    def test_maps_invert(self):
        prob = build_remark_counterexample()
        rng = np.random.default_rng(0)
        for name, lm in prob.extras["linmaps"].items():
            for _ in range(20):
                p = 0.3 * rng.standard_normal(2)
                np.testing.assert_allclose(lm.inverse(lm(p)), p, atol=1e-12)

    def test_alpha_parameter(self):
        prob = build_remark_counterexample({"alpha": 2.5})
        s02 = prob.extras["linmaps"]["S02"]
        p = np.array([0.1, 0.2])
        assert s02(p)[0] == pytest.approx(0.1 + 2.5 * 0.04)
