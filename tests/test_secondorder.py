import dataclasses
import math

import numpy as np
import pytest

from corneropt.cones import PolyhedralCone, sample_cone
from corneropt.corners import EuclideanCornerSet
from corneropt.errors import InvalidCertificateError, NotStationaryError
from corneropt.firstorder import solve_kkt
from corneropt.geometry import Chart, Euclidean, Retraction, Sphere
from corneropt.models import (build_classical_nlp, build_control_model,
                              build_diagonal_constraint,
                              build_remark_counterexample, build_sphere_polygon)
from corneropt.secondorder import (CriticalCone, HessianForm, PulledBackProblem,
                                   build_pullback, critical_cone,
                                   invariance_check, lagrangian_hessian,
                                   lagrangian_value, second_order_consistent,
                                   sonc_check, sosc_check,
                                   transition_second_derivative)
from corneropt.problem import ProblemInstance


@pytest.fixture(scope="module")
def remark():
    prob = build_remark_counterexample()
    cert = solve_kkt(prob, np.zeros(2))
    return prob, cert


def fd_only(pb):
    """Copy of a pull-back with the analytic Hessian hook and the analytic
    Lagrangian gradient removed: its Hessians come from value differences."""
    return PulledBackProblem(
        base=pb.base, retraction=pb.retraction, linmap=pb.linmap,
        f_bar=pb.f_bar, g_bar=pb.g_bar, cone_bar=pb.cone_bar,
        analytic_hessian=None, name=pb.name)


class TestCriticalCone:
    def test_remark_cone_is_v1_zero(self, remark):
        prob, cert = remark
        crit = critical_cone(cert)
        for v, inside in [((0.0, 1.0), True), ((0.0, -2.0), True),
                          ((1.0, 0.0), False), ((-1.0, 0.0), False)]:
            assert crit.cone_m.contains(np.array(v), 1e-9) == inside
            assert crit.cone_n.contains(np.array(v), 1e-9) == inside

    def test_unconstrained_cone_is_whole_space(self):
        prob = build_classical_nlp({"m": 3, "n_ineq": 0, "n_eq": 0, "seed": 2})
        x = prob.extras["reference"]["point"]
        cert = solve_kkt(prob, x)
        crit = critical_cone(cert)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert crit.cone_m.contains(rng.standard_normal(3), 1e-9)

    def test_strongly_active_row_becomes_equality(self):
        prob = build_classical_nlp({"m": 3, "n_ineq": 1, "n_eq": 0,
                                    "seed": 11, "n_active": 1})
        x = prob.extras["reference"]["point"]
        cert = solve_kkt(prob, x)
        assert cert.activity == ("strong",)
        crit = critical_cone(cert)
        # direct construction: {v : row . g'v = 0}
        chart = prob.domain.chart(x)
        data = prob.constraint_set.adapted_chart(prob.constraint(x))
        jac = prob.constraint_jacobian(x, chart, data.chart)
        row = data.inequality_rows() @ jac
        rng = np.random.default_rng(1)
        for _ in range(100):
            v = rng.standard_normal(3)
            lhs = crit.cone_m.contains(v, 1e-9)
            rhs = abs(float((row @ v)[0])) <= 1e-9 * (1 + np.linalg.norm(v))
            assert lhs == rhs

    def test_weakly_active_row_stays_an_inequality(self):
        # min -x1 + x2^2 s.t. x <= 0 at 0: grad f = (-1, 0), so lambda = (1, 0).
        # Row 0 is strongly active and becomes an equality; row 1 is weakly
        # active and stays an inequality, so cone_n = {w1 = 0, w2 <= 0}.
        plane = Euclidean(2)
        prob = ProblemInstance(
            domain=plane, codomain=plane,
            constraint_set=EuclideanCornerSet(2, ineq=(0, 1), eq=()),
            objective=lambda x: -float(x[0]) + float(x[1]) ** 2,
            constraint=lambda x: np.asarray(x, dtype=float),
            objective_grad_ambient=lambda x: np.array([-1.0, 2.0 * x[1]]),
            constraint_jac_ambient=lambda x: np.eye(2), name="weak-row")
        cert = solve_kkt(prob, np.zeros(2))
        np.testing.assert_allclose(cert.lambda_ineq, [1.0, 0.0], atol=1e-12)
        crit = critical_cone(cert)
        assert crit.cone_n.contains(np.array([0.0, -1.0]), 1e-9)
        assert not crit.cone_n.contains(np.array([0.0, 1.0]), 1e-9)
        assert not crit.cone_n.contains(np.array([1.0, -1.0]), 1e-9)

    def test_two_definitions_agree_on_samples(self, remark):
        prob, cert = remark
        crit = critical_cone(cert)
        # alternative description: linearizing rows + equality row mu g'
        chart = prob.domain.chart(np.zeros(2))
        data = prob.constraint_set.adapted_chart(np.zeros(2))
        jac = prob.constraint_jacobian(np.zeros(2), chart, data.chart)
        mu_row = (cert.mu_chart @ jac).reshape(1, -1)
        alt = PolyhedralCone.from_rows(
            data.inequality_rows() @ jac,
            np.vstack([data.equality_rows() @ jac, mu_row]), 2)
        rng = np.random.default_rng(2)
        for _ in range(200):
            v = rng.standard_normal(2)
            assert crit.cone_m.contains(v, 1e-9) == alt.contains(v, 1e-9)

    def test_multiplier_that_does_not_fit_is_rejected(self, remark):
        _, cert = remark
        with pytest.raises(InvalidCertificateError, match="stationarity residual"):
            critical_cone(dataclasses.replace(cert, mu_chart=2 * cert.mu_chart))

    def test_wrong_number_of_inequality_rows_is_rejected(self, remark):
        _, cert = remark
        with pytest.raises(InvalidCertificateError, match="inequality rows"):
            critical_cone(dataclasses.replace(
                cert, lambda_ineq=np.append(cert.lambda_ineq, 0.0)))

    def test_image_lands_in_cone_n(self):
        prob = build_sphere_polygon()
        point = prob.extras["reference"]["point"]
        cert = solve_kkt(prob, point)
        crit = critical_cone(cert)
        rng = np.random.default_rng(3)
        for v in sample_cone(crit.cone_m, rng, 100):
            w = crit.jacobian @ v
            assert crit.cone_n.contains(w, 1e-7)
            assert abs(float(cert.mu_chart @ w)) <= 1e-7


class TestPullbackInvariants:
    def test_value_and_jacobian_at_zero(self):
        from corneropt.geometry import fd_jacobian_of

        cases = [
            (build_sphere_polygon(), None, ("exp", "proj"), ("log", "gnomonic")),
            (build_classical_nlp({"seed": 6}), None,
             ("translation", "quadratic"), ("chart", "bent")),
        ]
        for prob, point, retr_kinds, lm_kinds in cases:
            if point is None:
                point = prob.extras["reference"]["point"]
            for retr in retr_kinds:
                for lm in lm_kinds:
                    pb = build_pullback(prob, point, retraction_kind=retr,
                                        linmap_kind=lm)
                    assert pb.f_bar(np.zeros(pb.dim)) == \
                        pytest.approx(prob.objective(point), abs=1e-12)
                    assert np.linalg.norm(pb.g_bar(np.zeros(pb.dim))) <= 1e-10
                    jac_pb = fd_jacobian_of(pb.g_bar, np.zeros(pb.dim), h=1e-6)
                    chart_m = pb.retraction.chart
                    chart_n = pb.linmap.chart
                    jac_direct = prob.constraint_jacobian(point, chart_m, chart_n)
                    assert np.max(np.abs(jac_pb - jac_direct)) <= 1e-6


class TestLagrangianValue:
    def test_zero_gives_objective(self, remark):
        prob, cert = remark
        pb = build_pullback(prob, np.zeros(2))
        assert lagrangian_value(pb, np.zeros(2), cert.mu_chart) == \
            pytest.approx(prob.objective(np.zeros(2)), abs=1e-14)

    def test_euclidean_linear_matches_classical(self):
        prob = build_classical_nlp({"seed": 4})
        x = prob.extras["reference"]["point"]
        cert = solve_kkt(prob, x)
        pb = build_pullback(prob, x)
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = 0.1 * rng.standard_normal(x.size)
            classical = prob.objective(x + v) + float(
                cert.mu_chart @ (prob.constraint(x + v) - prob.constraint(x)))
            assert lagrangian_value(pb, v, cert.mu_chart) == \
                pytest.approx(classical, abs=1e-12)

    def test_remark_s03_closed_form(self, remark):
        prob, cert = remark
        maps = prob.extras["linmaps"]
        pb = build_pullback(prob, np.zeros(2), linmap=maps["S03"])
        for v in (np.array([0.2, 0.1]), np.array([-0.3, 0.25])):
            # f(v) + mu o S03(v) = -v1 + (v1 + v1 v2) = v1 v2
            assert lagrangian_value(pb, v, cert.mu_chart) == \
                pytest.approx(v[0] * v[1], abs=1e-12)


class TestLagrangianHessian:
    def test_remark_closed_forms_fd(self, remark):
        prob, cert = remark
        maps = prob.extras["linmaps"]
        expected = {
            "S01": np.zeros((2, 2)),
            "S02": np.array([[0.0, 0.0], [0.0, 2.0]]),
            "S03": np.array([[0.0, 1.0], [1.0, 0.0]]),
        }
        for name, want in expected.items():
            pb = fd_only(build_pullback(prob, np.zeros(2), linmap=maps[name]))
            hess = lagrangian_hessian(pb, cert.mu_chart)
            assert hess.source == "fd"
            np.testing.assert_allclose(hess.matrix, want, atol=1e-6)

    def test_analytic_path_agrees_with_fd(self, remark):
        prob, cert = remark
        maps = prob.extras["linmaps"]
        for name in ("S01", "S02", "S03"):
            pb = build_pullback(prob, np.zeros(2), linmap=maps[name])
            analytic = lagrangian_hessian(pb, cert.mu_chart)
            assert analytic.source == "analytic"
            fd = lagrangian_hessian(fd_only(pb), cert.mu_chart)
            np.testing.assert_allclose(analytic.matrix, fd.matrix, atol=1e-7)

    def test_not_stationary_raises(self, remark):
        prob, _ = remark
        pb = build_pullback(prob, np.array([-0.5, 0.0]))
        with pytest.raises(NotStationaryError):
            lagrangian_hessian(pb, np.zeros(2))

    def test_not_stationary_raises_on_gradient_path(self):
        prob = build_sphere_polygon()
        point = np.array([0.6, 0.5, 0.2]) / np.linalg.norm([0.6, 0.5, 0.2])
        pb = build_pullback(prob, point)
        assert pb.lagrangian_gradient is not None
        with pytest.raises(NotStationaryError):
            lagrangian_hessian(pb, np.zeros(2))

    @pytest.mark.parametrize("model, params", [
        ("sphere-polygon", {}),
        ("classical-nlp", {"seed": 14}),
        ("control-model", {"n_nodes": 4, "beta": 0.0}),
    ])
    def test_gradient_differences_agree_with_value_differences(self, model, params):
        from corneropt.models import build_model
        prob = build_model(model, params)
        point = prob.extras["reference"]["point"]
        cert = solve_kkt(prob, point)
        kinds = [k for k in prob.domain.retraction_kinds if k != "default"][:2]
        for retr in kinds:
            for lm in prob.constraint_set.linmap_kinds[:2]:
                pb = build_pullback(prob, point, retraction_kind=retr, linmap_kind=lm)
                grad_fd = lagrangian_hessian(pb, cert.mu_chart)
                assert grad_fd.source in ("grad-fd", "analytic")
                value_fd = lagrangian_hessian(fd_only(pb), cert.mu_chart)
                assert value_fd.source == "fd"
                np.testing.assert_allclose(grad_fd.matrix, value_fd.matrix, atol=1e-6)

    def test_symmetry_invariant(self):
        prob = build_sphere_polygon()
        point = prob.extras["reference"]["point"]
        cert = solve_kkt(prob, point)
        for retr in ("exp", "proj"):
            for lm in ("log", "gnomonic"):
                pb = build_pullback(prob, point, retraction_kind=retr,
                                    linmap_kind=lm)
                hess = lagrangian_hessian(pb, cert.mu_chart)
                asym = np.linalg.norm(hess.matrix - hess.matrix.T)
                assert asym <= 1e-8 * max(1.0, np.linalg.norm(hess.matrix))


class TestFirstDerivativeInvariance:
    def test_gradient_matches_for_every_retraction(self):
        prob = build_sphere_polygon()
        point = prob.extras["reference"]["point"]
        cert = solve_kkt(prob, point)
        chart = prob.domain.chart(point)
        data = prob.constraint_set.adapted_chart(prob.constraint(point))
        jac = prob.constraint_jacobian(point, chart, data.chart)
        reference = prob.objective_gradient(point, chart) + jac.T @ cert.mu_chart
        for retr in ("exp", "proj"):
            pb = build_pullback(prob, point, retraction_kind=retr)
            fn = lambda v: lagrangian_value(pb, v, cert.mu_chart)
            grad = np.zeros(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = 1e-6
                grad[j] = (fn(e) - fn(-e)) / 2e-6
            assert np.linalg.norm(grad - reference) <= 1e-6


class TestInvariance:
    def test_adapted_pair_agrees_on_cone(self, remark):
        prob, cert = remark
        maps = prob.extras["linmaps"]
        pb1 = build_pullback(prob, np.zeros(2), linmap=maps["S01"])
        pb3 = build_pullback(prob, np.zeros(2), linmap=maps["S03"])
        [report] = invariance_check(cert, [pb1, pb3], tol=1e-8, n_samples=200, seed=0)
        assert report.passed
        assert report.max_on_cone <= 1e-8
        # off the cone the quadratic forms genuinely differ (value 2 at (1,1))
        h3 = report.hessian_2
        assert abs(h3(np.array([1.0, 1.0])) - 2.0) <= 1e-6
        assert report.max_off_cone > 0.5

    def test_non_adapted_map_breaks_on_cone_invariance(self, remark):
        prob, cert = remark
        maps = prob.extras["linmaps"]
        alpha = prob.extras["alpha"]
        pb1 = build_pullback(prob, np.zeros(2), linmap=maps["S01"])
        pb2 = build_pullback(prob, np.zeros(2), linmap=maps["S02"])
        [report] = invariance_check(cert, [pb1, pb2], tol=1e-8, n_samples=200, seed=0)
        assert not report.passed
        # the discrepancy on {v1 = 0} is exactly 2 alpha at unit samples
        assert report.max_on_cone == pytest.approx(2.0 * alpha, abs=1e-6)
        # and H_S02[(1,0)] vanishes: the violation lives on the v2 axis
        assert abs(report.hessian_2(np.array([1.0, 0.0]))) <= 1e-8
        assert report.hessian_2(np.array([0.0, 1.0])) == \
            pytest.approx(2.0 * alpha, abs=1e-6)

    def test_sphere_pullback_pairs(self):
        prob = build_sphere_polygon()
        point = prob.extras["reference"]["point"]
        cert = solve_kkt(prob, point)
        pbs = [build_pullback(prob, point, retraction_kind=r, linmap_kind=lm)
               for r in ("exp", "proj") for lm in ("log", "gnomonic")]
        reports = invariance_check(cert, pbs, tol=1e-5, n_samples=100, seed=0)
        pairs = [(i, j) for i in range(len(pbs)) for j in range(i + 1, len(pbs))]
        assert len(reports) == len(pairs)
        for (i, j), report in zip(pairs, reports):
            assert report.passed, (i, j, report.max_on_cone)
            # sharing the cone, samples and Hessians across pairs changes no
            # bit of a pair's report
            [alone] = invariance_check(cert, [pbs[i], pbs[j]], tol=1e-5,
                                       n_samples=100, seed=0)
            assert (report.max_on_cone, report.max_off_cone, report.n_on_cone) == \
                (alone.max_on_cone, alone.max_off_cone, alone.n_on_cone), (i, j)
            for shared, single in ((report.hessian_1, alone.hessian_1),
                                   (report.hessian_2, alone.hessian_2)):
                assert shared.source == single.source
                assert shared.fd_discrepancy == single.fd_discrepancy
                assert np.array_equal(shared.matrix, single.matrix)
        assert invariance_check(cert, pbs[:1]) == []

    def test_directions_are_transported_into_rotated_retraction_charts(self):
        # f = (x1^2 + 3 x2^2) / 2 at its minimiser 0, with the inactive row
        # x1 - 1 <= 0: the critical cone is the whole plane.  A retraction
        # R(v) = Q v whose chart rotates by theta gives the Hessian Q^T H Q in
        # its own frame; on a direction v of the default chart, transported
        # to Q^T v, both pull-backs give v^T H v.
        hess = np.diag([1.0, 3.0])
        plane = Euclidean(2)
        prob = ProblemInstance(
            domain=plane, codomain=Euclidean(1),
            constraint_set=EuclideanCornerSet(1, ineq=(0,), eq=()),
            objective=lambda x: 0.5 * float(x @ hess @ x),
            constraint=lambda x: np.array([x[0] - 1.0]),
            objective_grad_ambient=lambda x: hess @ x,
            constraint_jac_ambient=lambda x: np.array([[1.0, 0.0]]),
            name="rotated-retractions")
        point = np.zeros(2)
        cert = solve_kkt(prob, point)

        def rotated(theta):
            c, s = math.cos(theta), math.sin(theta)
            rot = np.array([[c, -s], [s, c]])
            chart = Chart(center=point, dim=2, radius=1e8,
                          forward_fn=lambda q: rot.T @ q, inverse_fn=lambda x: rot @ x,
                          inverse_jacobian_fn=lambda x: rot.copy(),
                          forward_jacobian_fn=lambda q: rot.T.copy(),
                          chart_id=f"rot{theta}")
            return rot, Retraction(base=point, chart=chart, map_fn=lambda v: rot @ v,
                                   domain_radius=math.inf, name=f"rot{theta}",
                                   differential_fn=lambda v: rot.copy())

        (rot_a, retr_a), (rot_b, retr_b) = rotated(0.4), rotated(1.1)
        pbs = [build_pullback(prob, point, retraction=retr_a),
               build_pullback(prob, point, retraction=retr_b)]
        [report] = invariance_check(cert, pbs, tol=1e-6, n_samples=100, seed=0)
        np.testing.assert_allclose(report.hessian_1.matrix, rot_a.T @ hess @ rot_a,
                                   atol=1e-7)
        np.testing.assert_allclose(report.hessian_2.matrix, rot_b.T @ hess @ rot_b,
                                   atol=1e-7)
        assert report.n_on_cone > 0
        assert report.max_on_cone <= 1e-6
        assert report.passed


class TestSecondOrderConsistent:
    def test_identical_maps(self, remark):
        prob, _ = remark
        maps = prob.extras["linmaps"]
        assert second_order_consistent(maps["S01"], maps["S01"])

    def test_s01_vs_s03_not_consistent(self, remark):
        prob, _ = remark
        maps = prob.extras["linmaps"]
        assert not second_order_consistent(maps["S01"], maps["S03"])
        tensor = transition_second_derivative(maps["S03"], maps["S01"])
        # Theta = S03 o S01^{-1} = S03: mixed second derivative of the first
        # component is 1
        assert tensor[0, 0, 1] == pytest.approx(1.0, abs=1e-5)

    def test_linear_maps_consistent(self, remark):
        prob, _ = remark
        maps = prob.extras["linmaps"]
        assert second_order_consistent(maps["S01"], maps["S01"])


class TestVerdicts:
    def test_identity_on_subspace_holds(self):
        hess = HessianForm(base=np.zeros(2), chart_id="", matrix=np.eye(2))
        cone = PolyhedralCone.from_rows(None, np.array([[1.0, 0.0]]), 2)
        crit = CriticalCone(cone_m=cone, cone_n=cone, jacobian=np.eye(2),
                            mu_chart=np.zeros(2))
        assert sosc_check(hess, crit).holds

    def test_indefinite_fails_with_witness(self):
        hess = HessianForm(base=np.zeros(2), chart_id="",
                           matrix=np.diag([1.0, -1.0]))
        cone = PolyhedralCone.full(2)
        crit = CriticalCone(cone_m=cone, cone_n=cone, jacobian=np.eye(2),
                            mu_chart=np.zeros(2))
        verdict = sosc_check(hess, crit)
        assert verdict.status == "fails"
        np.testing.assert_allclose(np.abs(verdict.witness), [0.0, 1.0], atol=1e-9)
        assert hess(verdict.witness) < -1e-6
        assert sonc_check(hess, crit).status == "fails"

    def test_zero_hessian_sonc_holds(self, remark):
        prob, cert = remark
        crit = critical_cone(cert)
        pb = build_pullback(prob, np.zeros(2),
                            linmap=prob.extras["linmaps"]["S01"])
        hess = lagrangian_hessian(pb, cert.mu_chart)
        verdict = sonc_check(hess, crit)
        assert verdict.holds
        assert verdict.min_value == pytest.approx(0.0, abs=1e-9)

    def test_convex_qp_sosc_holds(self):
        prob = build_classical_nlp({"m": 3, "seed": 13})
        x = prob.extras["reference"]["point"]
        cert = solve_kkt(prob, x)
        crit = critical_cone(cert)
        pb = build_pullback(prob, x)
        hess = lagrangian_hessian(pb, cert.mu_chart)
        assert sosc_check(hess, crit).holds

    def test_minimum_on_a_face_of_two_rows(self):
        # orthant v >= 0 in R^3; the off-diagonal entries are positive, so
        # v^T H v >= H_11 v_1^2 + ... >= 0 on the orthant, with 0 only at e_1:
        # a ray cut out by the two rows v_2 = 0 and v_3 = 0
        hess = HessianForm(base=np.zeros(3), chart_id="",
                           matrix=np.array([[0.0, 1.0, 1.0],
                                            [1.0, 3.0, 1.0],
                                            [1.0, 1.0, 3.0]]))
        cone = PolyhedralCone.from_rows(-np.eye(3), None, 3)
        crit = CriticalCone(cone_m=cone, cone_n=cone, jacobian=np.eye(3),
                            mu_chart=np.zeros(3))
        sosc = sosc_check(hess, crit)
        assert sosc.status == "fails"
        np.testing.assert_allclose(sosc.witness, [1.0, 0.0, 0.0], atol=1e-12)
        sonc = sonc_check(hess, crit)
        assert sonc.status == "holds"
        assert sonc.min_value == 0.0

    def test_agrees_with_grid_oracle(self):
        rng = np.random.default_rng(21)
        cases = []
        for _ in range(25):
            dim = int(rng.integers(2, 4))
            mat = rng.standard_normal((dim, dim))
            n_rows = int(rng.integers(0, 3))
            rows = rng.standard_normal((n_rows, dim)) if n_rows else None
            cases.append((0.5 * (mat + mat.T), rows))
        # small integers: repeated eigenvalues are common, and there eigh
        # returns an arbitrary basis of each eigenspace
        for _ in range(25):
            dim = int(rng.integers(2, 4))
            mat = rng.integers(-2, 3, (dim, dim)).astype(float)
            n_rows = int(rng.integers(0, 4))
            rows = rng.integers(-1, 2, (n_rows, dim)).astype(float) if n_rows else None
            cases.append((np.triu(mat) + np.triu(mat, 1).T, rows))
        for mat, rows in cases:
            dim = mat.shape[0]
            cone = PolyhedralCone.from_rows(rows, None, dim)
            hess = HessianForm(base=np.zeros(dim), chart_id="", matrix=mat)
            crit = CriticalCone(cone_m=cone, cone_n=cone,
                                jacobian=np.eye(dim), mu_chart=np.zeros(dim))
            verdict = sosc_check(hess, crit, tol=1e-8)
            oracle_min = _grid_min(mat, cone)
            if oracle_min is None:
                continue
            # the exact minimum can only undercut the finite grid; at a facet
            # the form varies linearly, so the gap scales with the grid
            # resolution times the form's slope
            resolution = 1e-3 if dim == 2 else 8e-3
            grid_err = 4.0 * np.linalg.norm(mat, 2) * resolution
            assert verdict.min_value <= oracle_min + 1e-9
            assert oracle_min - verdict.min_value <= grid_err
            if abs(oracle_min) > grid_err:
                assert verdict.holds == (oracle_min > 0)


def _grid_min(mat, cone, resolution=1e-3):
    """Brute-force minimum of v^T M v over cone intersect unit sphere."""
    dim = mat.shape[0]
    if dim == 2:
        ts = np.arange(0.0, 2 * math.pi, resolution)
        pts = np.column_stack([np.cos(ts), np.sin(ts)])
    else:
        n_pts = 200000
        idx = np.arange(n_pts)
        phi = math.pi * (3.0 - math.sqrt(5.0))
        z = 1.0 - 2.0 * (idx + 0.5) / n_pts
        r = np.sqrt(1.0 - z * z)
        pts = np.column_stack([r * np.cos(phi * idx), r * np.sin(phi * idx), z])
    mask = np.ones(len(pts), dtype=bool)
    if cone.n_ineq:
        mask &= np.max(pts @ cone.a_ineq.T, axis=1) <= 1e-12
    if cone.n_eq:
        mask &= np.max(np.abs(pts @ cone.a_eq.T), axis=1) <= 1e-12
    pts = pts[mask]
    if len(pts) == 0:
        return None
    return float(np.min(np.einsum("ij,jk,ik->i", pts, mat, pts)))


class TestThetaIntoCone:
    def test_transition_curvature_stays_in_tangent_space(self):
        # zero-section corner set: T_q K is a proper subspace (w = 0)
        prob = build_control_model({"n_nodes": 4})
        point = prob.extras["reference"]["point"]
        q = prob.constraint(point)
        corner = prob.constraint_set
        lm1 = corner.linearizing_map(q, "chart")
        lm2 = corner.linearizing_map(q, "bent")
        tensor = transition_second_derivative(lm1, lm2)
        data = corner.adapted_chart(q)
        rows_w = data.equality_rows()
        cone = data.cone()
        rng = np.random.default_rng(5)
        for v in sample_cone(cone, rng, 50):
            curv = np.einsum("aij,i,j->a", tensor, v, v)
            assert np.linalg.norm(rows_w @ curv) <= 1e-5 * (1 + np.linalg.norm(curv))

    def test_critical_cone_span_on_diagonal(self):
        prob = build_diagonal_constraint({"variant": "same"})
        sphere = Sphere(2)
        point = sphere.random_point(np.random.default_rng(2))
        q = prob.constraint(point)
        corner = prob.constraint_set
        lm1 = corner.linearizing_map(q, "chart")
        lm2 = corner.linearizing_map(q, "bent")
        tensor = transition_second_derivative(lm1, lm2)
        data = corner.adapted_chart(q)
        rows_w = data.equality_rows()
        rng = np.random.default_rng(6)
        for v in sample_cone(data.cone(), rng, 50):
            curv = np.einsum("aij,i,j->a", tensor, v, v)
            assert np.linalg.norm(rows_w @ curv) <= 1e-5 * (1 + np.linalg.norm(curv))


class TestStrictMinimalityProxy:
    def test_sosc_implies_local_increase(self):
        prob = build_classical_nlp({"m": 3, "n_ineq": 2, "n_eq": 0, "seed": 17,
                                    "n_active": 1})
        ref = prob.extras["reference"]
        x = ref["point"]
        cert = solve_kkt(prob, x)
        crit = critical_cone(cert)
        pb = build_pullback(prob, x)
        hess = lagrangian_hessian(pb, cert.mu_chart)
        assert sosc_check(hess, crit).holds
        f_star = prob.objective(x)
        rng = np.random.default_rng(7)
        count = 0
        for _ in range(5000):
            if count >= 100:
                break
            v = rng.standard_normal(3)
            v *= rng.uniform(1e-4, 1e-2) / np.linalg.norm(v)
            candidate = pb.retraction(v)
            if not prob.feasible(candidate):
                continue
            count += 1
            assert prob.objective(candidate) > f_star
        assert count >= 100
