import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from corneropt.cones import (PolyhedralCone, cone_disagreements, face,
                             linearizing_cone, sample_cone, transport_cone)
from corneropt.corners import EuclideanCornerSet
from corneropt.errors import InfeasiblePointError, ModelMismatchError, NoMultiplierError
from corneropt.firstorder import (chart_switch_residual, check_licq, check_mfcq,
                                  check_transversality, check_zkrcq,
                                  classical_report, cone_membership_agreement,
                                  cq_report, multiplier_set_probe, solve_kkt,
                                  stationarity_residual)
from corneropt.geometry import Euclidean, Sphere
from corneropt.models import (build_classical_nlp, build_control_model,
                              build_remark_counterexample, build_sphere_polygon)
from corneropt.oracles import cone_membership_sampled, zkrcq_primal
from corneropt.problem import ProblemInstance


def simple_instance(g_mat, ineq, eq, objective=None, grad=None, m=None):
    m = m if m is not None else g_mat.shape[1]
    n = g_mat.shape[0]
    corner = EuclideanCornerSet(n, ineq=ineq, eq=eq)
    return ProblemInstance(
        domain=Euclidean(m), codomain=Euclidean(n), constraint_set=corner,
        objective=objective or (lambda x: 0.0),
        constraint=lambda x: g_mat @ np.asarray(x, dtype=float),
        objective_grad_ambient=grad or (lambda x: np.zeros(m)),
        constraint_jac_ambient=lambda x: g_mat)


class TestTransversality:
    def test_identity_full_dimensional(self):
        prob = build_remark_counterexample()
        assert check_transversality(prob.local(np.zeros(2)))

    def test_zero_jacobian_point_target(self):
        g_mat = np.zeros((1, 2))
        prob = simple_instance(g_mat, ineq=(), eq=(0,))
        assert not check_transversality(prob.local(np.zeros(2)))

    def test_sphere_triangle_edge(self):
        prob = build_sphere_polygon()
        edge = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        assert check_transversality(prob.local(edge))

    def test_infeasible_point_rejected(self):
        prob = build_remark_counterexample()
        with pytest.raises(InfeasiblePointError):
            check_transversality(prob.local(np.array([1.0, 0.0])))


class TestMfcqZkrcq:
    def test_single_inequality_witness(self):
        prob = build_remark_counterexample()
        holds, witness = check_mfcq(prob.local(np.zeros(2)))
        assert holds
        assert witness[0] == pytest.approx(-1.0, abs=1e-9)
        assert check_zkrcq(prob.local(np.zeros(2)))

    def test_opposing_constraints(self):
        g_mat = np.array([[1.0, 0.0], [-1.0, 0.0]])
        prob = simple_instance(g_mat, ineq=(0, 1), eq=())
        holds, _ = check_mfcq(prob.local(np.zeros(2)))
        assert not holds
        assert not check_zkrcq(prob.local(np.zeros(2)))

    def test_equivalence_on_random_instances(self):
        rng = np.random.default_rng(77)
        for trial in range(40):
            m = int(rng.integers(1, 5))
            n_i = int(rng.integers(0, 4))
            n_e = int(rng.integers(0, min(m, 2) + 1))
            prob = build_classical_nlp({"m": m, "n_ineq": n_i, "n_eq": n_e,
                                        "seed": int(rng.integers(10 ** 6))})
            x = prob.extras["reference"]["point"]
            mfcq, _ = check_mfcq(prob.local(x))
            assert mfcq == check_zkrcq(prob.local(x)), trial


class LinearCornerSet(EuclideanCornerSet):
    """``K = {y : A_hat y_{1..k} <= 0, y_{k+1..n} = 0}`` for any full-row-rank
    ``A_hat``; its adapted chart at 0 is the identity."""

    def __init__(self, n, a_hat):
        super().__init__(n, ineq=(), eq=range(a_hat.shape[1], n))
        self.a_hat = a_hat

    def adapted_chart(self, q, kind="default", active_tol=1e-9):
        data = super().adapted_chart(q, kind, active_tol)
        return dataclasses.replace(data, ell=self.a_hat.shape[0], a_hat=self.a_hat)


SMALL_INTS = st.integers(-3, 3)
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                             database=None,
                             suppress_health_check=[HealthCheck.filter_too_much])
CQ_PLANTS = ("random", "ell0", "surjective", "wg-deficient", "gordan")


def int_matrix(draw, rows, cols):
    return draw(hnp.arrays(np.int64, (rows, cols), elements=SMALL_INTS)).astype(float)


@st.composite
def cq_instances(draw):
    """``(G, A_hat, n - k, plant)`` with small integer entries, so that every
    planted degeneracy is exact in floating point."""
    plant = draw(st.sampled_from(CQ_PLANTS))
    n = draw(st.integers(1, 5))
    n_eq = draw(st.integers(1 if plant == "wg-deficient" else 0,
                            n - 1 if plant == "gordan" else n))
    k = n - n_eq
    ell = 0 if plant == "ell0" else draw(st.integers(1 if plant == "gordan" else 0, k))
    a_hat = int_matrix(draw, ell, k)
    assume(np.linalg.matrix_rank(a_hat) == ell)
    m = draw(st.integers(n if plant == "surjective" else 1, 6))
    g_mat = int_matrix(draw, n, m)
    if plant == "surjective":
        # a unit lower-triangular block makes G onto
        g_mat[:, :n] = np.tril(g_mat[:, :n], -1) + np.eye(n)
    elif plant == "wg-deficient":
        # the last row of W G repeats a multiple of another (or vanishes)
        g_mat[-1] = draw(SMALL_INTS) * g_mat[k] if n_eq > 1 else 0.0
    elif plant == "gordan":
        # G^T y = 0 for y = A^T lam + W^T nu with lam >= 0, lam != 0
        lam = draw(hnp.arrays(np.int64, ell, elements=st.integers(0, 3))).astype(float)
        lam[0] += 1.0
        y = np.concatenate([a_hat.T @ lam, int_matrix(draw, n_eq, 1).ravel()])
        g_mat = (y @ y) * g_mat - np.outer(y, y @ g_mat)
    return g_mat, a_hat, n_eq, plant


class TestZkrcqProperties:
    @PROPERTY_SETTINGS
    @given(cq_instances())
    def test_gordan_form_matches_primal_oracle(self, instance):
        g_mat, a_hat, n_eq, plant = instance
        n, m = g_mat.shape
        prob = ProblemInstance(
            domain=Euclidean(m), codomain=Euclidean(n),
            constraint_set=LinearCornerSet(n, a_hat),
            objective=lambda x: 0.0, constraint=lambda x: g_mat @ x,
            objective_grad_ambient=lambda x: np.zeros(m),
            constraint_jac_ambient=lambda x: g_mat)
        point = np.zeros(m)
        rows_i = np.hstack([a_hat, np.zeros((a_hat.shape[0], n_eq))])
        rows_e = np.hstack([np.zeros((n_eq, n - n_eq)), np.eye(n_eq)])
        zkrcq = check_zkrcq(prob.local(point))
        assert zkrcq == zkrcq_primal(g_mat, rows_i, rows_e)
        assert zkrcq == check_mfcq(prob.local(point))[0]
        if plant == "surjective":
            assert zkrcq
        elif plant in ("wg-deficient", "gordan"):
            assert not zkrcq


@st.composite
def cone_and_transition(draw):
    """An irredundant cone (rows of full row rank) and a well-conditioned
    transition Jacobian ``J``."""
    dim = draw(st.integers(1, 5))
    n_ineq = draw(st.integers(0, dim))
    n_eq = draw(st.integers(0 if n_ineq else 1, dim - n_ineq))
    rows = int_matrix(draw, n_ineq + n_eq, dim)
    assume(np.linalg.matrix_rank(rows) == n_ineq + n_eq)
    jac = 3.0 * np.eye(dim) + int_matrix(draw, dim, dim) / 3.0
    assume(np.linalg.cond(jac) < 1e2)
    return PolyhedralCone.from_rows(rows[:n_ineq], rows[n_ineq:], dim), jac


class TestConeEqualityProperties:
    @PROPERTY_SETTINGS
    @given(cone_and_transition())
    def test_transported_cone_is_equal(self, case):
        cone, jac = case
        assert cone_disagreements(cone, transport_cone(cone, jac), jac) == 0

    @PROPERTY_SETTINGS
    @given(cone_and_transition(), st.data())
    def test_dropped_flipped_or_tightened_row_is_found(self, case, data):
        cone, jac = case
        moved = transport_cone(cone, jac)
        n_rows = cone.n_ineq + cone.n_eq
        drop = data.draw(st.integers(0, n_rows - 1))
        keep_i = [i for i in range(cone.n_ineq) if i != drop]
        keep_e = [j for j in range(cone.n_eq) if j + cone.n_ineq != drop]
        dropped = PolyhedralCone.from_rows(moved.a_ineq[keep_i], moved.a_eq[keep_e],
                                           cone.dim)
        assert cone_disagreements(cone, dropped, jac) >= 1
        if cone.n_ineq:
            flip = data.draw(st.integers(0, cone.n_ineq - 1))
            flipped_rows = moved.a_ineq.copy()
            flipped_rows[flip] *= -1.0
            flipped = PolyhedralCone.from_rows(flipped_rows, moved.a_eq, cone.dim)
            assert cone_disagreements(cone, flipped, jac) >= 1
            # a proper face: the row becomes an equality
            assert cone_disagreements(cone, face(moved, [flip]), jac) >= 1


class TestLicq:
    def test_independent_gradients(self):
        prob = build_classical_nlp({"m": 3, "n_ineq": 2, "n_eq": 1, "seed": 1})
        assert check_licq(prob.local(prob.extras["reference"]["point"]))

    def test_duplicated_rows_fail(self):
        g_mat = np.array([[1.0, 0.0], [1.0, 0.0]])
        prob = simple_instance(g_mat, ineq=(), eq=(0, 1))
        assert not check_licq(prob.local(np.zeros(2)))

    def test_control_licq_iff_full_rank(self):
        prob = build_control_model({"n_nodes": 6})
        point = prob.extras["reference"]["point"]
        n = prob.extras["n_nodes"]
        q_mat = prob.extras["q_mat"]
        c_prime = np.hstack([q_mat, -np.eye(n)])
        full_rank = np.linalg.matrix_rank(c_prime) == n
        assert check_licq(prob.local(point)) == full_rank
        assert full_rank


class TestCqChain:
    def test_chain_on_models(self):
        cases = [
            (build_remark_counterexample(), np.zeros(2)),
            (build_classical_nlp({"seed": 4}),
             build_classical_nlp({"seed": 4}).extras["reference"]["point"]),
            (build_sphere_polygon(), np.array([1.0, 1.0, 0.0]) / math.sqrt(2)),
        ]
        for prob, point in cases:
            report = cq_report(prob.local(point))
            assert report.consistent
            assert report.mfcq == report.zkrcq


class TestSolveKKT:
    def test_remark_multiplier(self):
        prob = build_remark_counterexample()
        cert = solve_kkt(prob, np.zeros(2))
        np.testing.assert_allclose(cert.mu_chart, [1.0, 0.0], atol=1e-12)
        assert cert.stationarity_residual <= 1e-10
        assert cert.activity == ("strong",)

    def test_unconstrained_stationary_point(self):
        prob = build_classical_nlp({"m": 3, "n_ineq": 0, "n_eq": 0, "seed": 2})
        cert = solve_kkt(prob, prob.extras["reference"]["point"])
        np.testing.assert_allclose(cert.mu_chart, np.zeros(0), atol=1e-12)
        assert cert.lambda_ineq.size == 0

    def test_no_multiplier_raises(self):
        prob = build_remark_counterexample()
        with pytest.raises(NoMultiplierError) as excinfo:
            solve_kkt(prob, np.array([-1.0, 0.0]))
        assert excinfo.value.residual == pytest.approx(1.0, abs=1e-9)

    def test_sphere_edge_multiplier_vs_sensitivity_oracle(self):
        """The active-edge multiplier equals the sensitivity of the optimal
        value to relaxing the edge, estimated by dense 1D searches on
        shifted edges."""
        prob = build_sphere_polygon()
        ref = prob.extras["reference"]
        point = ref["point"]
        assert ref["active_edges"] == (0,)
        cert = solve_kkt(prob, point)
        assert cert.lambda_ineq.size == 1 and cert.lambda_ineq[0] > 0

        corner = prob.constraint_set
        nvec = corner.normals[0]
        target = -np.asarray(prob.objective_grad_ambient(point), dtype=float)

        def best_on_shifted_edge(eps):
            # circle {<p, n> = eps} on the sphere, parametrized densely
            basis = np.linalg.svd(nvec.reshape(1, 3))[2][1:]
            radius = math.sqrt(1.0 - eps * eps)
            ts = np.linspace(0, 2 * math.pi, 20001)
            pts = (eps * nvec[None, :]
                   + radius * (np.cos(ts)[:, None] * basis[0]
                               + np.sin(ts)[:, None] * basis[1]))
            vals = -(pts @ target)
            return float(np.min(vals))

        h = 1e-4
        lam_oracle = -(best_on_shifted_edge(h) - best_on_shifted_edge(-h)) / (2 * h)
        # scale: the cert multiplier refers to the normalized chart row
        assert cert.lambda_ineq[0] == pytest.approx(lam_oracle, rel=1e-3)


class TestMultiplierSetProbe:
    def test_licq_unique(self):
        prob = build_classical_nlp({"seed": 8})
        x = prob.extras["reference"]["point"]
        cert = solve_kkt(prob, x)
        assert multiplier_set_probe(cert.local) == {"unique": True, "dim_estimate": 0}

    def test_redundant_constraint_dimension(self):
        g_mat = np.array([[1.0], [1.0]])
        prob = simple_instance(g_mat, ineq=(), eq=(0, 1),
                               objective=lambda x: 0.5 * float(x[0] ** 2),
                               grad=lambda x: np.array([float(x[0])]), m=1)
        cert = solve_kkt(prob, np.zeros(1))
        probe = multiplier_set_probe(cert.local)
        assert probe == {"unique": False, "dim_estimate": 1}

    def test_remark_unique(self):
        prob = build_remark_counterexample()
        cert = solve_kkt(prob, np.zeros(2))
        assert multiplier_set_probe(cert.local)["unique"]


class TestClassicalReport:
    def test_planted_instances_reproduce_multipliers(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            prob = build_classical_nlp({"m": int(rng.integers(2, 6)),
                                        "n_ineq": int(rng.integers(1, 5)),
                                        "n_eq": int(rng.integers(0, 3)),
                                        "seed": int(rng.integers(10 ** 6))})
            ref = prob.extras["reference"]
            x = ref["point"]
            cert = solve_kkt(prob, x)
            report = classical_report(cert, prob, x)
            np.testing.assert_allclose(report.eta_ineq, ref["eta_ineq"], atol=1e-8)
            np.testing.assert_allclose(report.eta_eq, ref["eta_eq"], atol=1e-8)
            assert report.gradient_residual <= 1e-8
            np.testing.assert_allclose(report.complementarity, 0.0, atol=1e-12)

    def test_inactive_constraint_zero_multiplier(self):
        prob = build_classical_nlp({"m": 3, "n_ineq": 2, "n_eq": 0,
                                    "seed": 10, "n_active": 1})
        ref = prob.extras["reference"]
        cert = solve_kkt(prob, ref["point"])
        report = classical_report(cert, prob, ref["point"])
        inactive = [i for i in range(2) if i not in ref["active_set"]]
        for i in inactive:
            assert report.eta_ineq[i] == 0.0

    def test_model_mismatch(self):
        prob = build_sphere_polygon()
        point = prob.extras["reference"]["point"]
        cert = solve_kkt(prob, point)
        with pytest.raises(ModelMismatchError):
            classical_report(cert, prob, point)


class TestChartIndependence:
    def test_kkt_residual_survives_chart_switch(self):
        cases = [
            (build_remark_counterexample(), np.zeros(2), "alt", "scaled"),
            (build_classical_nlp({"seed": 3}), None, "alt", "scaled"),
            (build_sphere_polygon(), None, "log", "gnomonic"),
        ]
        for prob, point, chart_kind, adapted_kind in cases:
            if point is None:
                point = prob.extras["reference"]["point"]
            cert = solve_kkt(prob, point, tol=1e-8)
            resid = chart_switch_residual(cert, prob.local(point, chart_kind,
                                                           adapted_kind))
            assert resid <= 10 * 1e-8

    def test_membership_agreement(self):
        prob = build_classical_nlp({"seed": 6})
        point = prob.extras["reference"]["point"]
        loc_a, loc_b = prob.local(point), prob.local(point, "alt", "scaled")
        assert cone_membership_agreement(loc_a, loc_b) == {"disagreements": 0}
        assert cone_membership_sampled(loc_a, loc_b, 200, 1) == 0


class TestFirstOrderNecessity:
    def test_objective_nonnegative_on_tangent_cone(self):
        # at certified minimizers, f'(p) v >= 0 for cone directions
        prob = build_sphere_polygon()
        point = prob.extras["reference"]["point"]
        cert = solve_kkt(prob, point)
        assert cert.stationarity_residual <= 1e-9
        cone = linearizing_cone(prob.local(point))
        chart = prob.domain.chart(point)
        grad = prob.objective_gradient(point, chart)
        rng = np.random.default_rng(0)
        for v in sample_cone(cone, rng, 100):
            assert float(grad @ v) >= -1e-6

    def test_descent_direction_when_not_kkt(self):
        prob = build_remark_counterexample()
        point = np.array([-1.0, 0.0])
        assert check_zkrcq(prob.local(point))
        with pytest.raises(NoMultiplierError):
            solve_kkt(prob, point)
        cone = linearizing_cone(prob.local(point))
        chart = prob.domain.chart(point)
        grad = prob.objective_gradient(point, chart)
        rng = np.random.default_rng(1)
        descent = [v for v in sample_cone(cone, rng, 50) if float(grad @ v) < 0]
        assert descent


def test_stationarity_residual_helper():
    loc = build_remark_counterexample().local(np.zeros(2))
    assert stationarity_residual(loc, np.array([1.0, 0.0])) <= 1e-12
    assert stationarity_residual(loc, np.zeros(2)) == pytest.approx(1.0)
