import math

import numpy as np
import pytest

from corneropt.cones import matrix_rank, null_space
from corneropt.corners import (AdaptedChartData, CornerSet, CircleZeroSection,
                               DiagonalCornerSet, EuclideanCornerSet,
                               ProductCornerSet, SphereTriangleCornerSet,
                               check_adapted, corner_index, inner_tangent_cone,
                               tangent_space_basis, validate,
                               zero_tangent_space)
from corneropt.errors import (BadParamsError, NotInSetError,
                              ValidationFailureError)
from corneropt.geometry import (Chart, CircleCotangent, Euclidean, Sphere, axiom_check,
                                fd_jacobian_of)


def orthant2():
    return EuclideanCornerSet(2, ineq=(0, 1), eq=())


def octant_triangle():
    return SphereTriangleCornerSet(np.eye(3))


class TestCornerIndex:
    def test_orthant_at_origin(self):
        assert corner_index(orthant2(), np.zeros(2)) == 2

    def test_orthant_on_facet(self):
        assert corner_index(orthant2(), np.array([-1.0, 0.0])) == 1

    def test_interior_point(self):
        assert corner_index(orthant2(), np.array([-1.0, -2.0])) == 0

    def test_not_in_set(self):
        with pytest.raises(NotInSetError):
            corner_index(orthant2(), np.array([1.0, 0.0]))

    def test_chart_independence(self):
        corner = orthant2()
        for q in (np.zeros(2), np.array([-1.0, 0.0]), np.array([-0.5, -0.25])):
            indices = {corner_index(corner, q, kind=k) for k in corner.chart_kinds}
            assert len(indices) == 1

    def test_triangle_vertex_edge_interior(self):
        tri = octant_triangle()
        vertex = np.array([1.0, 0.0, 0.0])
        edge = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        interior = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
        assert corner_index(tri, vertex) == 2
        assert corner_index(tri, edge) == 1
        assert corner_index(tri, interior) == 0
        for kind in ("log", "gnomonic"):
            assert corner_index(tri, edge, kind=kind) == 1


class TestAdaptedCharts:
    def test_classical_chart_radius(self):
        corner = orthant2()
        data = corner.adapted_chart(np.array([-1.0, -2.0]))
        assert data.ell == 0
        assert data.chart.radius == pytest.approx(1.0)

    def test_identity_a_hat_at_origin(self):
        data = orthant2().adapted_chart(np.zeros(2))
        np.testing.assert_allclose(data.a_hat, np.eye(2))

    def test_single_active_row(self):
        data = orthant2().adapted_chart(np.array([0.0, -1.0]))
        assert data.ell == 1
        np.testing.assert_allclose(data.a_hat, np.array([[1.0, 0.0]]))


class TestCones:
    def test_classical_cone_rows(self):
        corner = EuclideanCornerSet(3, ineq=(0, 1), eq=(2,))
        cone = inner_tangent_cone(corner, np.zeros(3))
        np.testing.assert_allclose(cone.a_ineq, np.array([[1, 0, 0], [0, 1, 0.0]]))
        np.testing.assert_allclose(cone.a_eq, np.array([[0, 0, 1.0]]))

    def test_interior_cone_is_subspace(self):
        cone = inner_tangent_cone(orthant2(), np.array([-1.0, -2.0]))
        assert cone.n_ineq == 0

    def test_triangle_vertex_cone_matches_sampled_feasibility(self):
        tri = octant_triangle()
        vertex = np.array([0.0, 0.0, 1.0])
        data = tri.adapted_chart(vertex)
        cone = data.cone()
        assert cone.n_ineq == 2
        rng = np.random.default_rng(0)
        # log-map images of triangle points must satisfy the cone rows
        pts = tri.sample_near(vertex, rng, 100, scale=0.3)
        for pt in pts:
            x = data.chart.forward(pt)
            assert cone.contains(x, 1e-8)
        # images of points outside must violate them
        violations = 0
        for _ in range(200):
            x = rng.standard_normal(2)
            x *= rng.uniform(0.05, 0.3) * data.chart.radius / np.linalg.norm(x)
            pt = data.chart.inverse(x)
            if not tri.contains(pt):
                violations += 1
                assert not cone.contains(x, 1e-8)
        assert violations > 20

    def test_cone_spans_tangent_space(self):
        corner = EuclideanCornerSet(4, ineq=(0, 1), eq=(3,))
        q = np.array([0.0, -0.5, 2.0, 0.0])
        data = corner.adapted_chart(q)
        tk = tangent_space_basis(corner, q)
        assert tk.shape[1] == data.k
        z = zero_tangent_space(corner, q)
        assert z.shape[1] == data.k - data.ell


class TestZeroTangentSpace:
    def test_full_corner_is_zero(self):
        basis = zero_tangent_space(orthant2(), np.zeros(2))
        assert basis.shape[1] == 0

    def test_facet_point(self):
        basis = zero_tangent_space(orthant2(), np.array([-1.0, 0.0]))
        assert basis.shape[1] == 1
        np.testing.assert_allclose(np.abs(basis[:, 0]), np.array([1.0, 0.0]),
                                   atol=1e-12)

    def test_interior_full_tangent(self):
        basis = zero_tangent_space(orthant2(), np.array([-1.0, -2.0]))
        assert basis.shape[1] == 2


class _BrokenCornerSet(CornerSet):
    """Deliberately inconsistent descriptions for validate() tests."""

    def __init__(self, mode):
        self.mode = mode
        self.ambient = Euclidean(3)
        self.dim = 3

    def contains(self, q, tol=1e-9):
        return True

    def adapted_chart(self, q, kind="default"):
        q = np.asarray(q, dtype=float)
        chart = Chart(center=q, dim=3, radius=1.0,
                      forward_fn=lambda pt: np.asarray(pt, dtype=float) - q,
                      inverse_fn=lambda x: q + np.asarray(x, dtype=float),
                      chart_id="broken")
        if self.mode == "rank":
            a_hat = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
            return AdaptedChartData(n=3, k=3, ell=2, a_hat=a_hat, chart=chart)
        # pyramid tip: four planes meeting in R^3 declared as one corner
        a_hat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        return AdaptedChartData(n=3, k=3, ell=4, a_hat=a_hat, chart=chart)


class TestValidate:
    def test_well_formed_passes(self):
        report = validate(orthant2(), np.zeros(2))
        assert report.passed
        assert report.membership_checked > 100

    def test_duplicated_row_fails_surjectivity(self):
        with pytest.raises(ValidationFailureError, match="surjectivity"):
            validate(_BrokenCornerSet("rank"), np.zeros(3))

    def test_pyramid_tip_fails_index_bound(self):
        with pytest.raises(ValidationFailureError, match="index bound"):
            validate(_BrokenCornerSet("pyramid"), np.zeros(3))

    def test_builtin_sets_validate(self):
        rng = np.random.default_rng(9)
        tri = octant_triangle()
        for q in (np.array([1.0, 0.0, 0.0]),
                  np.array([1.0, 1.0, 0.0]) / math.sqrt(2),
                  np.array([1.0, 1.0, 1.0]) / math.sqrt(3)):
            for kind in ("log", "gnomonic"):
                assert validate(tri, q, kind=kind).passed
        diag = DiagonalCornerSet(Sphere(2), ("log", "gnomonic"))
        q1 = Sphere(2).random_point(rng)
        qd = diag.ambient.join([q1, q1])
        for kind in ("default", "alt"):
            assert validate(diag, qd, kind=kind).passed
        zero = CircleZeroSection(CircleCotangent(3))
        y = zero.project(CircleCotangent(3).random_point(rng))
        for kind in ("default", "alt"):
            assert validate(zero, y, kind=kind).passed


class TestProducts:
    def test_index_adds(self):
        corner = ProductCornerSet(orthant2(), orthant2())
        q = np.array([0.0, -1.0, 0.0, 0.0])
        assert corner_index(corner, q) == 1 + 2

    def test_product_validates(self):
        corner = ProductCornerSet(orthant2(), orthant2())
        q = np.array([0.0, -1.0, -0.5, 0.0])
        assert validate(corner, q).passed

    def test_product_cone_structure(self):
        corner = ProductCornerSet(EuclideanCornerSet(2, ineq=(0,), eq=(1,)),
                                  orthant2())
        q = np.array([0.0, 0.0, -1.0, 0.0])
        data = corner.adapted_chart(q)
        assert data.n == 4 and data.k == 3
        assert data.ell == 1 + 1
        assert matrix_rank(data.a_hat) == data.ell


class TestAdaptedness:
    def test_chart_and_bent_maps_are_adapted(self):
        corner = EuclideanCornerSet(3, ineq=(0, 1), eq=(2,))
        q = np.array([0.0, -0.4, 0.0])
        for kind in corner.linmap_kinds:
            lm = corner.linearizing_map(q, kind)
            assert axiom_check(lm).passed
            assert check_adapted(lm, corner, q).adapted

    def test_triangle_maps_are_adapted(self):
        tri = octant_triangle()
        q = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        for kind in ("log", "gnomonic"):
            lm = tri.linearizing_map(q, kind)
            assert axiom_check(lm).passed
            assert check_adapted(lm, tri, q).adapted

    def test_zero_section_pullback_map_adapted(self):
        zero = CircleZeroSection(CircleCotangent(2))
        rng = np.random.default_rng(1)
        y = zero.project(CircleCotangent(2).random_point(rng))
        for kind in ("chart", "pullback"):
            lm = zero.linearizing_map(y, kind)
            assert axiom_check(lm).passed
            assert check_adapted(lm, zero, y).adapted


def _model_constraint_points():
    """``(model, g(p))`` at a feasible point of every built-in model."""
    from corneropt.models import build_model
    out = []
    for name, params in (("classical-nlp", {}), ("sphere-polygon", {}),
                         ("control-model", {"n_nodes": 4}),
                         ("remark-counterexample", {})):
        prob = build_model(name, params)
        out.append((prob, prob.constraint(prob.extras["reference"]["point"])))
    prob = build_model("diagonal-constraint")
    out.append((prob, prob.constraint(np.array([0.0, 0.0, 1.0]))))
    prob = build_model("control-model", {"n_nodes": 3, "variant": "circle"})
    out.append((prob, prob.constraint_set.project(
        prob.codomain.random_point(np.random.default_rng(2)))))
    return out


@pytest.mark.parametrize("prob, q", _model_constraint_points(),
                         ids=lambda x: getattr(x, "name", ""))
def test_linearizing_map_differential_matches_fd(prob, q):
    # closed forms exist where the adapted chart has an analytic forward
    # Jacobian: not on the diagonal's chart nor on the trivialised bundle
    closed = prob.name not in ("diagonal-constraint", "control-model-circle")
    chart = prob.codomain.chart(q, "default")
    rng = np.random.default_rng(5)
    for kind in prob.constraint_set.linmap_kinds:
        lm = prob.constraint_set.linearizing_map(q, kind)
        assert (lm.differential_fn is not None) == closed, (kind, lm.name)
        if not closed:
            continue
        assert lm.name in ("chart", "bent", "log", "gnomonic")
        for _ in range(3):
            # points of the codomain near q, parametrised by its own chart
            x = rng.standard_normal(chart.dim)
            x *= 0.1 * min(lm.domain_radius, chart.radius, 1.0) / np.linalg.norm(x)
            along = lm.differential(chart.inverse(x)) @ chart.differential_at(x)
            np.testing.assert_allclose(
                along, fd_jacobian_of(lambda z: lm(chart.inverse(z)), x),
                atol=1e-8)


class TestBadParams:
    def test_overlapping_index_sets(self):
        with pytest.raises(BadParamsError):
            EuclideanCornerSet(3, ineq=(0,), eq=(0, 2))

    def test_equalities_must_trail(self):
        with pytest.raises(BadParamsError):
            EuclideanCornerSet(3, ineq=(2,), eq=(0,))

    def test_degenerate_triangle(self):
        with pytest.raises(BadParamsError):
            SphereTriangleCornerSet(np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 0, 1.0]]))
