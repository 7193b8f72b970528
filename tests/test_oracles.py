import math

import numpy as np
import pytest

from corneropt.cones import linearizing_cone
from corneropt.errors import DimensionTooLargeError, DomainError
from corneropt.models import (build_classical_nlp, build_control_model,
                              build_remark_counterexample, build_sphere_polygon)
from corneropt.oracles import (SearchRegion, fd_hessian, fd_jacobian,
                               fd_second_tensor, grid_minimize,
                               tangent_cone_oracle)


class TestFiniteDifferences:
    def test_linear_map_exact(self):
        mat = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]])
        jac = fd_jacobian(lambda x: mat @ x, np.array([0.3, -0.7]))
        np.testing.assert_allclose(jac, mat, atol=1e-12)

    def test_quadratic_form_hessian(self):
        rng = np.random.default_rng(0)
        q_mat = rng.standard_normal((3, 3))
        q_mat = 0.5 * (q_mat + q_mat.T)
        hess = fd_hessian(lambda x: 0.5 * float(x @ q_mat @ x),
                          rng.standard_normal(3))
        np.testing.assert_allclose(hess, q_mat, atol=1e-6)

    def test_sine_second_derivative(self):
        hess = fd_hessian(lambda x: math.sin(x[0]), np.array([0.3]))
        assert hess[0, 0] == pytest.approx(-math.sin(0.3), abs=1e-6)

    def test_negative_step_rejected(self):
        with pytest.raises(DomainError):
            fd_jacobian(lambda x: x, np.zeros(2), h=-1.0)

    def test_second_tensor_symmetry(self):
        fn = lambda x: np.array([x[0] * x[1], x[0] ** 2])
        tensor = fd_second_tensor(fn, np.zeros(2))
        np.testing.assert_allclose(tensor[0], [[0, 1], [1, 0]], atol=1e-6)
        np.testing.assert_allclose(tensor[1], [[2, 0], [0, 0]], atol=1e-6)


class TestTangentConeOracle:
    def test_interior_direction_accepted(self):
        prob = build_remark_counterexample()
        assert tangent_cone_oracle(prob, np.zeros(2), np.array([-1.0, 0.2]))

    def test_boundary_tangent_accepted(self):
        prob = build_remark_counterexample()
        assert tangent_cone_oracle(prob, np.zeros(2), np.array([0.0, 1.0]))

    def test_outward_direction_rejected(self):
        prob = build_remark_counterexample()
        assert not tangent_cone_oracle(prob, np.zeros(2), np.array([1.0, 0.0]))

    def test_equality_violation_rejected(self):
        # under ZKRCQ the linearizing cone is the reference (the two cones
        # coincide), so a direction with c'(y,u) v != 0 must be rejected
        prob = build_control_model({"n_nodes": 3})
        point = prob.extras["reference"]["point"]
        cone = linearizing_cone(prob.local(point))
        rng = np.random.default_rng(1)
        rejected = 0
        for _ in range(5):
            v = rng.standard_normal(6)
            v /= np.linalg.norm(v)
            if cone.contains(v, 1e-6):
                continue
            rejected += 1
            assert not tangent_cone_oracle(prob, point, v)
        assert rejected >= 3

    def test_agrees_with_linearizing_cone_on_remark(self):
        prob = build_remark_counterexample()
        cone = linearizing_cone(prob.local(np.zeros(2)))
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = rng.standard_normal(2)
            v /= np.linalg.norm(v)
            if abs(v[0]) < 1e-2:  # skip boundary-ambiguous directions
                continue
            assert tangent_cone_oracle(prob, np.zeros(2), v) == \
                cone.contains(v, 1e-9)


class TestGridMinimize:
    def test_unconstrained_quadratic_matches_planted_minimum(self):
        prob = build_classical_nlp({"m": 2, "n_ineq": 0, "n_eq": 0, "seed": 5})
        ref = prob.extras["reference"]
        region = SearchRegion(center=ref["point"], radius=0.5)
        point, value = grid_minimize(prob, region, resolution=1e-2)
        assert np.linalg.norm(point - ref["point"]) <= 2e-2
        assert value <= prob.objective(ref["point"]) + 1e-3

    def test_sphere_triangle_boundary_reference(self):
        prob = build_sphere_polygon()
        ref = prob.extras["reference"]
        point, value = grid_minimize(prob, prob.extras["search_region"], 1e-3)
        assert abs(value - ref["value"]) <= 1e-4

    def test_constant_objective(self):
        prob = build_classical_nlp({"m": 2, "n_ineq": 0, "n_eq": 0, "seed": 5})
        flat = type(prob)(
            domain=prob.domain, codomain=prob.codomain,
            constraint_set=prob.constraint_set,
            objective=lambda x: 4.25, constraint=prob.constraint,
            objective_grad_ambient=lambda x: np.zeros(2),
            constraint_jac_ambient=prob.constraint_jac_ambient)
        region = SearchRegion(center=np.zeros(2), radius=0.3)
        _, value = grid_minimize(flat, region, resolution=0.1)
        assert value == 4.25

    def test_dimension_cap(self):
        prob = build_classical_nlp({"m": 4, "n_ineq": 0, "n_eq": 0, "seed": 1})
        region = SearchRegion(center=prob.extras["reference"]["point"], radius=0.5)
        with pytest.raises(DimensionTooLargeError):
            grid_minimize(prob, region, resolution=0.1)

    def test_resolution_self_consistency(self):
        prob = build_sphere_polygon()
        region = prob.extras["search_region"]
        _, coarse = grid_minimize(prob, region, 2e-3)
        _, fine = grid_minimize(prob, region, 1e-3)
        assert fine <= coarse + 1e-12
        assert coarse - fine <= 1e-4


def test_oracle_trend_resolution_consistency():
    # halving the probe depth must not flip clear-cut oracle answers
    prob = build_remark_counterexample()
    for v, expected in ((np.array([-1.0, 0.5]), True),
                        (np.array([0.6, 0.8]), False)):
        assert tangent_cone_oracle(prob, np.zeros(2), v, trials=6) == expected
        assert tangent_cone_oracle(prob, np.zeros(2), v, trials=12) == expected
