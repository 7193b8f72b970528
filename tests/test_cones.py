import numpy as np
import pytest
import scipy.optimize

from corneropt.cones import (PolyhedralCone, canonicalize, contains,
                             extreme_rays, face, implicit_equalities,
                             linearizing_cone, lineality_basis, polar_contains,
                             sample_cone, span_basis, transport_cone)
from corneropt.errors import (DimensionMismatchError, DimensionTooLargeError,
                              IndexOutOfRangeError)
from corneropt.models import build_remark_counterexample, build_sphere_polygon


def orthant_cone():
    return PolyhedralCone.from_rows(np.eye(2), None, 2)


class TestContains:
    def test_orthant_member(self):
        assert contains(orthant_cone(), np.array([-1.0, -1.0]))

    def test_zero_always_member(self):
        cones = [orthant_cone(),
                 PolyhedralCone.from_rows(np.array([[1.0, 0.0]]), None, 2),
                 PolyhedralCone.from_rows(None, np.eye(2), 2)]
        for cone in cones:
            assert contains(cone, np.zeros(2))

    def test_equality_violation(self):
        cone = PolyhedralCone.from_rows(np.array([[1.0, 0.0]]),
                                        np.array([[0.0, 1.0]]), 2)
        assert not contains(cone, np.array([-1.0, 0.5]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            contains(orthant_cone(), np.zeros(3))


class TestPolar:
    def test_halfplane_polar_member(self):
        cone = PolyhedralCone.from_rows(np.array([[1.0, 0.0]]), None, 2)
        ok, cert = polar_contains(cone, np.array([1.0, 0.0]))
        assert ok
        np.testing.assert_allclose(cert.lambda_ineq, [1.0], atol=1e-12)

    def test_sign_forced_rejection(self):
        cone = PolyhedralCone.from_rows(np.array([[1.0, 0.0]]), None, 2)
        ok, cert = polar_contains(cone, np.array([-1.0, 0.0]))
        assert not ok
        assert cert.residual > 0.5

    def test_construct_then_verify(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            n_i = int(rng.integers(1, 4))
            n_e = int(rng.integers(0, 2))
            a_i = rng.standard_normal((n_i, dim))
            a_e = rng.standard_normal((n_e, dim))
            cone = PolyhedralCone.from_rows(a_i, a_e, dim)
            lam_i = rng.uniform(0.0, 2.0, n_i)
            lam_e = rng.standard_normal(n_e)
            mu = a_i.T @ lam_i + (a_e.T @ lam_e if n_e else 0.0)
            ok, cert = polar_contains(cone, mu)
            assert ok
            assert cert.residual <= 1e-10

    def test_polar_duality_pairing(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            a_i = rng.standard_normal((int(rng.integers(1, 4)), dim))
            cone = PolyhedralCone.from_rows(a_i, None, dim)
            rays, lin = extreme_rays(cone)
            v = sample_cone(cone, rng, 1, rays=rays, lineality=lin)[0]
            lam = rng.uniform(0, 1, a_i.shape[0])
            mu = a_i.T @ lam
            ok, _ = polar_contains(cone, mu)
            assert ok
            assert float(mu @ v) <= 1e-9


class TestFace:
    def test_single_face(self):
        result = face(orthant_cone(), [0])
        np.testing.assert_allclose(result.a_ineq, np.array([[0.0, 1.0]]))
        np.testing.assert_allclose(result.a_eq, np.array([[1.0, 0.0]]))

    def test_empty_face_is_identity(self):
        result = face(orthant_cone(), [])
        np.testing.assert_allclose(result.a_ineq, np.eye(2))
        assert result.n_eq == 0

    def test_total_face_is_origin(self):
        result = face(orthant_cone(), [0, 1])
        assert result.n_ineq == 0
        assert span_basis(result).shape[1] == 0

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            face(orthant_cone(), [2])

    def test_face_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            a_i = rng.standard_normal((3, dim))
            cone = PolyhedralCone.from_rows(a_i, None, dim)
            sub = face(cone, [1])
            v = rng.standard_normal(dim)
            lhs = contains(sub, v, 1e-9)
            rhs = contains(cone, v, 1e-9) and abs(a_i[1] @ v) <= 1e-9 * (1 + np.linalg.norm(v))
            assert lhs == rhs


class TestSpan:
    def test_halfplane_spans_everything(self):
        cone = PolyhedralCone.from_rows(np.array([[1.0, 0.0]]), None, 2)
        assert span_basis(cone).shape[1] == 2

    def test_implicit_equality_detected(self):
        cone = PolyhedralCone.from_rows(np.array([[1.0, 0.0], [-1.0, 0.0]]), None, 2)
        assert implicit_equalities(cone) == [0, 1]
        basis = span_basis(cone)
        assert basis.shape[1] == 1
        np.testing.assert_allclose(np.abs(basis[:, 0]), [0.0, 1.0], atol=1e-12)

    def test_point_cone_empty_span(self):
        cone = PolyhedralCone.from_rows(None, np.eye(2), 2)
        assert span_basis(cone).shape[1] == 0


class TestExtremeRays:
    def test_orthant_rays(self):
        rays, lin = extreme_rays(orthant_cone())
        assert lin.shape[1] == 0
        found = sorted(tuple(np.round(r, 9)) for r in rays)
        assert found == [(-1.0, 0.0), (0.0, -1.0)]

    def test_halfplane_ray_and_lineality(self):
        cone = PolyhedralCone.from_rows(np.array([[1.0, 0.0]]), None, 2)
        rays, lin = extreme_rays(cone)
        assert len(rays) == 1
        np.testing.assert_allclose(rays[0], [-1.0, 0.0], atol=1e-12)
        assert lin.shape[1] == 1
        np.testing.assert_allclose(np.abs(lin[:, 0]), [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_double_inclusion_random(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(15):
            n_rows = int(rng.integers(2, dim + 3))
            a_i = rng.standard_normal((n_rows, dim))
            cone = PolyhedralCone.from_rows(a_i, None, dim)
            rays, lin = extreme_rays(cone)
            for r in rays:
                assert contains(cone, r, 1e-8)
            for j in range(lin.shape[1]):
                assert contains(cone, lin[:, j], 1e-8)
                assert contains(cone, -lin[:, j], 1e-8)
            cols = list(rays)
            for j in range(lin.shape[1]):
                cols.extend([lin[:, j], -lin[:, j]])
            gen = np.column_stack(cols) if cols else np.zeros((dim, 0))
            hits = 0
            for _ in range(40):
                v = rng.standard_normal(dim)
                if not contains(cone, v, 1e-10):
                    continue
                hits += 1
                if gen.shape[1] == 0:
                    assert np.linalg.norm(v) <= 1e-8
                    continue
                _, resid = scipy.optimize.nnls(gen, v)
                assert resid <= 1e-8 * (1 + np.linalg.norm(v))
            if hits == 0:
                # accept sparse-membership draws; rays were still verified
                continue

    def test_dimension_cap(self):
        cone = PolyhedralCone.from_rows(np.eye(13), None, 13)
        with pytest.raises(DimensionTooLargeError):
            extreme_rays(cone)


class TestTransport:
    def test_pairings_preserved(self):
        rng = np.random.default_rng(3)
        cone = PolyhedralCone.from_rows(rng.standard_normal((3, 4)),
                                        rng.standard_normal((1, 4)), 4)
        jac = np.linalg.qr(rng.standard_normal((4, 4)))[0] + 0.1 * np.eye(4)
        moved = transport_cone(cone, jac)
        for _ in range(50):
            v = rng.standard_normal(4)
            assert contains(cone, v, 1e-8) == contains(moved, jac @ v, 1e-8)


class TestLinearizingCone:
    def test_identity_constraint(self):
        prob = build_remark_counterexample()
        cone = linearizing_cone(prob.local(np.zeros(2)))
        assert contains(cone, np.array([-1.0, 0.3]))
        assert not contains(cone, np.array([1.0, 0.0]))

    def test_equality_constraint_null_space(self):
        from corneropt.corners import EuclideanCornerSet
        from corneropt.geometry import Euclidean
        from corneropt.problem import ProblemInstance

        g_mat = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
        corner = EuclideanCornerSet(2, ineq=(), eq=(0, 1))
        prob = ProblemInstance(
            domain=Euclidean(3), codomain=Euclidean(2), constraint_set=corner,
            objective=lambda x: 0.0,
            constraint=lambda x: g_mat @ np.asarray(x, dtype=float),
            constraint_jac_ambient=lambda x: g_mat,
            objective_grad_ambient=lambda x: np.zeros(3))
        cone = linearizing_cone(prob.local(np.zeros(3)))
        basis = span_basis(cone)
        np.testing.assert_allclose(g_mat @ basis, np.zeros((2, 1)), atol=1e-9)

    def test_sphere_triangle_edge_row(self):
        prob = build_sphere_polygon()
        edge_point = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        cone = linearizing_cone(prob.local(edge_point))
        assert cone.n_ineq == 1
        assert cone.n_eq == 0


def test_canonicalize_moves_implicit_rows():
    cone = PolyhedralCone.from_rows(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), None, 2)
    canon = canonicalize(cone)
    assert canon.n_eq == 2
    assert canon.n_ineq == 1


def test_lineality_basis():
    cone = PolyhedralCone.from_rows(np.array([[1.0, 0.0, 0.0]]), None, 3)
    lin = lineality_basis(cone)
    assert lin.shape[1] == 2
