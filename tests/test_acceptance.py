"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
failure output) and enforces the stated tolerances and runtime budgets.
"""

import json
import math
import time

import numpy as np
import pytest

from corneropt.cli import main as cli_main
from corneropt.cones import PolyhedralCone, linearizing_cone, sample_cone
from corneropt.corners import (CircleZeroSection, EuclideanCornerSet,
                               inner_tangent_cone)
from corneropt.firstorder import (chart_switch_residual, check_licq, check_mfcq,
                                  check_transversality, check_zkrcq,
                                  classical_report, cone_membership_agreement,
                                  solve_kkt)
from corneropt.geometry import (CircleCotangent, CircleProduct, Euclidean,
                                Product, Sphere)
from corneropt.models import (build_classical_nlp, build_control_model,
                              build_diagonal_constraint,
                              build_remark_counterexample, build_sphere_polygon)
from corneropt.oracles import (cone_membership_sampled, grid_minimize,
                               tangent_cone_oracle, zkrcq_primal)
from corneropt.problem import ProblemInstance
from corneropt.secondorder import (build_pullback, critical_cone,
                                   invariance_check, lagrangian_hessian,
                                   sonc_check, sosc_check)
from corneropt.solver import SolveOptions, solve


class _Criterion:
    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{verdict} criterion {self.number} "
              f"({time.time() - self.start:.1f}s): {self.description}")
        return False


def test_criterion_1_remark_fixture_exactness():
    with _Criterion(1, "worked-example fixture: multiplier and Hessian forms"):
        start = time.time()
        prob = build_remark_counterexample({"alpha": 1.0})
        origin = np.zeros(2)
        cert = solve_kkt(prob, origin)
        np.testing.assert_allclose(cert.mu_chart, [1.0, 0.0], atol=1e-12)
        assert cert.stationarity_residual <= 1e-10

        maps = prob.extras["linmaps"]
        hessians = {}
        for name in ("S01", "S02", "S03"):
            pb = build_pullback(prob, origin, linmap=maps[name])
            hessians[name] = lagrangian_hessian(pb, cert.mu_chart)

        # closed forms recomputed from the model's own map definitions:
        # H_S01 = 0;  H_S02[v, v] = 2 alpha v_2^2;  H_S03[v, v] = 2 v_1 v_2.
        h1, h2, h3 = hessians["S01"], hessians["S02"], hessians["S03"]
        assert np.max(np.abs(h1.matrix)) <= 1e-6
        assert h2(np.array([0.0, 1.0])) == pytest.approx(2.0, abs=1e-6)
        assert h2(np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-6)
        assert h3(np.array([1.0, 1.0])) == pytest.approx(2.0, abs=1e-6)

        # adapted pair agrees on 200 samples of the critical cone {v1 = 0}
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = np.array([0.0, rng.standard_normal()])
            assert abs(h1(v) - h3(v)) <= 1e-8
        # and disagrees by exactly 2 at v = (1, 1)
        v_off = np.array([1.0, 1.0])
        assert abs(h1(v_off) - h3(v_off)) == pytest.approx(2.0, abs=1e-6)
        assert time.time() - start < 1.0


def test_criterion_2_classical_reduction():
    with _Criterion(2, "200 random Euclidean NLPs reproduce classical KKT data"):
        start = time.time()
        rng = np.random.default_rng(2024)
        for trial in range(200):
            m = int(rng.integers(1, 6))
            n_ineq = int(rng.integers(0, 5))
            n_eq = int(rng.integers(0, min(m, 2) + 1))
            prob = build_classical_nlp({
                "m": m, "n_ineq": n_ineq, "n_eq": n_eq,
                "seed": int(rng.integers(10 ** 9))})
            ref = prob.extras["reference"]
            point = ref["point"]
            assert check_licq(prob.local(point)), trial
            cert = solve_kkt(prob, point)
            report = classical_report(cert, prob, point)
            assert np.max(np.abs(report.eta_ineq - ref["eta_ineq"]),
                          initial=0.0) <= 1e-8, trial
            assert np.max(np.abs(report.eta_eq - ref["eta_eq"]),
                          initial=0.0) <= 1e-8, trial
            assert report.gradient_residual <= 1e-8, trial
            # exact complementarity labeling: positive multipliers exactly on
            # the planted active set, zeros elsewhere
            positive = {i for i, eta in enumerate(report.eta_ineq) if eta > 1e-9}
            assert positive == set(ref["active_set"]), trial
            comp = report.eta_ineq * report.constraint_values_ineq
            assert np.max(np.abs(comp), initial=0.0) <= 1e-12, trial
        assert time.time() - start < 30.0


def _builtin_certified_points():
    """(instance, certified point) for every built-in model family."""
    out = []
    prob = build_classical_nlp({"seed": 14})
    out.append(("classical-nlp", prob, prob.extras["reference"]["point"]))
    prob = build_sphere_polygon()
    out.append(("sphere-polygon", prob, prob.extras["reference"]["point"]))
    prob = build_remark_counterexample()
    out.append(("remark-counterexample", prob, np.zeros(2)))
    prob = build_diagonal_constraint({"variant": "rotation", "angle": 0.7})
    out.append(("diagonal-constraint", prob, np.array([0.0, 0.0, 1.0])))
    prob = build_control_model({"n_nodes": 20})
    out.append(("control-model", prob, prob.extras["reference"]["point"]))
    prob = build_control_model({"n_nodes": 3, "variant": "circle"})
    rng = np.random.default_rng(0)
    theta = 0.2 * rng.standard_normal(3)
    padded = np.concatenate([[0.0], theta, [0.0]])
    u = np.array([(math.sin(padded[i + 1] - padded[i])
                   + math.sin(padded[i + 1] - padded[i + 2]))
                  / math.cos(theta[i]) for i in range(3)])
    start = np.concatenate([CircleProduct._from_angles(theta), u])
    result = solve(prob, start, SolveOptions(max_iter=80))
    assert result.status == "converged"
    out.append(("control-model-circle", prob, result.point))
    return out


def _zkrcq_oracle(loc) -> bool:
    return zkrcq_primal(loc.jacobian, loc.corner.inequality_rows(),
                        loc.corner.equality_rows())


def test_criterion_3_cq_equivalence_and_chain():
    with _Criterion(3, "MFCQ == ZKRCQ == 2n-LP oracle, LICQ => ZKRCQ => transversality"):
        rng = np.random.default_rng(33)
        disagreements = 0
        for _ in range(200):
            m = int(rng.integers(1, 6))
            prob = build_classical_nlp({
                "m": m,
                "n_ineq": int(rng.integers(0, 5)),
                "n_eq": int(rng.integers(0, min(m, 2) + 1)),
                "seed": int(rng.integers(10 ** 9))})
            loc = prob.local(prob.extras["reference"]["point"])
            mfcq, _ = check_mfcq(loc)
            zkrcq = check_zkrcq(loc)
            licq = check_licq(loc)
            trans = check_transversality(loc)
            if mfcq != zkrcq or zkrcq != _zkrcq_oracle(loc):
                disagreements += 1
            assert (not licq) or zkrcq
            assert (not zkrcq) or trans
        assert disagreements == 0
        for name, prob, point in _builtin_certified_points():
            loc = prob.local(point)
            mfcq, _ = check_mfcq(loc)
            zkrcq = check_zkrcq(loc)
            licq = check_licq(loc)
            trans = check_transversality(loc)
            assert mfcq == zkrcq, name
            assert zkrcq == _zkrcq_oracle(loc), name
            assert (not licq) or zkrcq, name
            assert (not zkrcq) or trans, name


MODEL_ALT_KINDS = {
    # model -> (alt chart kind on M, alt adapted kind on N, retractions, linmaps)
    "classical-nlp": ("alt", "scaled", ("translation", "quadratic"), ("chart", "bent")),
    "sphere-polygon": ("alt", "gnomonic", ("exp", "proj"), ("log", "gnomonic")),
    "remark-counterexample": ("alt", "scaled", ("translation", "quadratic"),
                              ("S01", "S03")),
    "diagonal-constraint": ("alt", "alt", ("exp", "proj"), ("chart", "bent")),
    "control-model": ("alt", "scaled", ("translation", "quadratic"),
                      ("chart", "bent")),
    "control-model-circle": ("alt", "alt", ("default", "alt"), ("chart", "pullback")),
}


def test_criterion_4_chart_and_retraction_invariance():
    with _Criterion(4, "invariance across charts, retractions, linearizing maps"):
        for name, prob, point in _builtin_certified_points():
            chart_alt, adapted_alt, retr_kinds, linmap_kinds = MODEL_ALT_KINDS[name]
            cert = solve_kkt(prob, point, tol=1e-7)
            loc_alt = prob.local(point, chart_alt, adapted_alt)
            # (a) alternate-representation residual
            resid = chart_switch_residual(cert, loc_alt)
            assert resid <= 1e-7, (name, resid)
            # (b) pulled-back Hessian invariance on the critical cone
            pullbacks = []
            for retr in retr_kinds:
                for lm_kind in linmap_kinds:
                    if name == "remark-counterexample":
                        lm = prob.extras["linmaps"][lm_kind]
                        pb = build_pullback(prob, point, retraction_kind=retr,
                                            linmap=lm)
                    else:
                        pb = build_pullback(prob, point, retraction_kind=retr,
                                            linmap_kind=lm_kind)
                    pullbacks.append(pb)
            reports = invariance_check(cert, pullbacks, n_samples=200, seed=4)
            for k, report in enumerate(reports):
                analytic = (report.hessian_1.source == "analytic"
                            and report.hessian_2.source == "analytic")
                tol = 1e-9 if analytic else 1e-5
                assert report.max_on_cone <= tol, (name, k, report.max_on_cone)
            # (c) cone membership across representations: exact, and sampled
            agree = cone_membership_agreement(cert.local, loc_alt)
            assert agree["disagreements"] == 0, name
            assert cone_membership_sampled(cert.local, loc_alt, 500, 4) == 0, name


def test_criterion_5_sphere_polygon_end_to_end(tmp_path, capsys):
    with _Criterion(5, "sphere polygon: cmd_solve vs grid oracle, 20 targets"):
        start = time.time()
        rng = np.random.default_rng(55)
        corner = build_sphere_polygon().constraint_set
        targets = []
        while len(targets) < 20:
            t = rng.standard_normal(3)
            t /= np.linalg.norm(t)
            if not corner.contains(t):  # exterior target
                targets.append(t)
        start_point = "0.5773502691896258,0.5773502691896258,0.5773502691896258"
        for k, target in enumerate(targets):
            cfg = tmp_path / f"target{k}.cfg"
            cfg.write_text(
                'model.name = "sphere-polygon"\n'
                f'model.params.target = {json.dumps(target.tolist())}\n'
                'solver.max_iter = 50\n')
            code = cli_main(["solve", "--config", str(cfg),
                             "--point", start_point, "--output", "json"])
            out = capsys.readouterr().out
            assert code == 0, (k, target)
            data = json.loads(out)
            assert data["status"] == "converged"
            assert len(data["iterations"]) <= 50
            assert data["certificate"]["stationarity_residual"] <= 1e-8 * 10
            solved = np.asarray(data["point"], dtype=float)

            prob = build_sphere_polygon({"target": tuple(target)})
            _, grid_value = grid_minimize(prob, prob.extras["search_region"], 1e-3)
            assert abs(prob.objective(solved) - grid_value) <= 1e-4, k
            # active-set identification against the closed-form reference
            ref = prob.extras["reference"]
            assert corner.active_edges(solved, 1e-7) == ref["active_edges"], k
        assert time.time() - start < 60.0


def test_criterion_6_control_model_adjoint():
    with _Criterion(6, "control model matches the directly solved adjoint system"):
        prob = build_control_model({"n_nodes": 20})
        ref = prob.extras["reference"]
        n = 20
        point = ref["point"]
        cert = solve_kkt(prob, point)
        np.testing.assert_allclose(point[:n], ref["state"], atol=1e-8)
        np.testing.assert_allclose(point[n:], ref["control"], atol=1e-8)
        np.testing.assert_allclose(cert.lambda_eq, ref["adjoint"], atol=1e-8)
        # pair structure: the base component of the multiplier vanishes
        assert np.max(np.abs(cert.mu_chart[:n])) <= 1e-10
        # LICQ verdict equals the direct full-rank test of c'(y, u)
        q_mat = prob.extras["q_mat"]
        c_prime = np.hstack([q_mat, -np.eye(n)])
        assert check_licq(prob.local(point)) == (np.linalg.matrix_rank(c_prime) == n)


def _grid_form_minimum(matrix, cone, resolution=1e-3):
    dim = matrix.shape[0]
    if dim == 2:
        ts = np.arange(0.0, 2 * math.pi, resolution)
        pts = np.column_stack([np.cos(ts), np.sin(ts)])
    elif dim == 3:
        n_pts = 300000
        idx = np.arange(n_pts)
        phi = math.pi * (3.0 - math.sqrt(5.0))
        z = 1.0 - 2.0 * (idx + 0.5) / n_pts
        r = np.sqrt(1.0 - z * z)
        pts = np.column_stack([r * np.cos(phi * idx), r * np.sin(phi * idx), z])
    else:
        return None
    mask = np.ones(len(pts), dtype=bool)
    if cone.n_ineq:
        mask &= np.max(pts @ cone.a_ineq.T, axis=1) <= 1e-9
    if cone.n_eq:
        mask &= np.max(np.abs(pts @ cone.a_eq.T), axis=1) <= 1e-6
    pts = pts[mask]
    if len(pts) == 0:
        return None
    return float(np.min(np.einsum("ij,jk,ik->i", pts, matrix, pts)))


def test_criterion_7_second_order_verdicts():
    with _Criterion(7, "SOSC/SONC verdicts with certified witnesses + grid oracle"):
        # convex minimizer: SOSC holds
        prob = build_classical_nlp({"m": 3, "seed": 7})
        point = prob.extras["reference"]["point"]
        cert = solve_kkt(prob, point)
        crit = critical_cone(cert)
        hess = lagrangian_hessian(build_pullback(prob, point), cert.mu_chart)
        assert sosc_check(hess, crit).holds

        # indefinite saddle: SOSC fails with a certified witness
        saddle = build_classical_nlp({"m": 2, "n_ineq": 0, "n_eq": 0,
                                      "seed": 0, "curvature": "indefinite"})
        point_s = saddle.extras["reference"]["point"]
        cert_s = solve_kkt(saddle, point_s)
        crit_s = critical_cone(cert_s)
        hess_s = lagrangian_hessian(build_pullback(saddle, point_s), cert_s.mu_chart)
        verdict = sosc_check(hess_s, crit_s)
        assert verdict.status == "fails"
        assert hess_s(verdict.witness) < -1e-6

        # verdicts agree with the brute-force grid oracle on low-dim instances
        cases = [
            (build_remark_counterexample(), np.zeros(2)),
            (build_classical_nlp({"m": 2, "n_ineq": 1, "n_eq": 0, "seed": 3,
                                  "n_active": 1}), None),
            (build_classical_nlp({"m": 3, "seed": 7}), None),
            (build_sphere_polygon(), None),
            (saddle, point_s),
        ]
        for prob_i, point_i in cases:
            if point_i is None:
                point_i = prob_i.extras["reference"]["point"]
            cert_i = solve_kkt(prob_i, point_i)
            crit_i = critical_cone(cert_i)
            hess_i = lagrangian_hessian(build_pullback(prob_i, point_i),
                                        cert_i.mu_chart)
            verdict_i = sosc_check(hess_i, crit_i)
            oracle_min = _grid_form_minimum(hess_i.matrix, crit_i.cone_m)
            if oracle_min is None:
                assert verdict_i.min_value is None \
                    or crit_i.cone_m.is_subspace()
                continue
            slack = 4.0 * max(1.0, np.linalg.norm(hess_i.matrix, 2)) * 8e-3
            if oracle_min > slack:
                assert verdict_i.holds
            elif oracle_min < -slack:
                assert verdict_i.status == "fails"


def _oracle_instances():
    """Identity-constrained instances over every built-in corner set."""
    out = []
    corner = EuclideanCornerSet(3, ineq=(0, 1), eq=(2,))
    out.append(("euclidean-corner", ProblemInstance(
        domain=Euclidean(3), codomain=Euclidean(3), constraint_set=corner,
        objective=lambda x: 0.0,
        constraint=lambda x: np.asarray(x, dtype=float),
        objective_grad_ambient=lambda x: np.zeros(3),
        constraint_jac_ambient=lambda x: np.eye(3)), np.zeros(3)))

    poly = build_sphere_polygon()
    edge = poly.extras["reference"]["point"]
    out.append(("sphere-triangle", poly, edge))

    sphere = Sphere(2)
    diag_prob = build_diagonal_constraint({"variant": "same"})
    diag = diag_prob.constraint_set
    q1 = sphere.random_point(np.random.default_rng(8))
    prod = diag.ambient
    out.append(("diagonal", ProblemInstance(
        domain=prod, codomain=prod, constraint_set=diag,
        objective=lambda x: 0.0,
        constraint=lambda x: np.asarray(x, dtype=float),
        objective_grad_ambient=lambda x: np.zeros(prod.ambient_dim),
        constraint_jac_ambient=lambda x: np.eye(prod.ambient_dim)),
        prod.join([q1, q1])))

    bundle = CircleCotangent(2)
    zero = CircleZeroSection(bundle)
    base = zero.project(bundle.random_point(np.random.default_rng(9)))
    out.append(("circle-zero-section", ProblemInstance(
        domain=bundle, codomain=bundle, constraint_set=zero,
        objective=lambda x: 0.0,
        constraint=lambda x: np.asarray(x, dtype=float),
        objective_grad_ambient=lambda x: np.zeros(bundle.ambient_dim),
        constraint_jac_ambient=lambda x: np.eye(bundle.ambient_dim)), base))
    return out


def test_criterion_8_tangent_cone_equals_inner_cone():
    with _Criterion(8, "tangential-sequence oracle agrees with the inner cone"):
        for name, prob, point in _oracle_instances():
            corner = prob.constraint_set
            cone = inner_tangent_cone(corner, prob.constraint(point))
            lin_cone = linearizing_cone(prob.local(point))
            chart = prob.domain.chart(point)
            rng = np.random.default_rng(88)
            dim = chart.dim
            checked = 0
            attempts = 0
            while checked < 500 and attempts < 5000:
                attempts += 1
                if attempts % 2 == 0:
                    v = sample_cone(lin_cone, rng, 1)[0]
                    if np.linalg.norm(v) < 1e-9:
                        continue
                else:
                    v = rng.standard_normal(dim)
                    v /= np.linalg.norm(v)
                expected = lin_cone.contains(v, 1e-9)
                if not expected:
                    # require a clear margin so the semi-decision is well-posed
                    viol = 0.0
                    if lin_cone.n_ineq:
                        viol = max(viol, float(np.max(lin_cone.a_ineq @ v)))
                    if lin_cone.n_eq:
                        viol = max(viol, float(np.max(np.abs(lin_cone.a_eq @ v))))
                    if viol < 1e-2:
                        continue
                checked += 1
                got = tangent_cone_oracle(prob, point, v)
                assert got == expected, (name, v, expected)
            assert checked == 500, name


def test_criterion_9_deterministic_reports(capsys):
    with _Criterion(9, "identical seeds give byte-identical JSON reports"):
        runs = [
            ["certify", "--model", "remark-counterexample", "--point", "0,0",
             "--seed", "42", "--output", "json"],
            ["solve", "--model", "sphere-polygon",
             "--point", "0.5773502691896258,0.5773502691896258,0.5773502691896258",
             "--seed", "42", "--output", "json"],
            ["list-models", "--output", "json"],
        ]
        for argv in runs:
            code_a = cli_main(list(argv))
            out_a = capsys.readouterr().out
            code_b = cli_main(list(argv))
            out_b = capsys.readouterr().out
            assert code_a == code_b
            assert out_a == out_b
            json.loads(out_a)
