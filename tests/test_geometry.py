import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corneropt.errors import ChartMismatchError, DomainError
from corneropt.geometry import (Chart, CircleCotangent, CircleProduct,
                                Euclidean, Product, Retraction, Sphere,
                                TangentVec, axiom_check, chart_transition,
                                fd_jacobian_of, push_covector, push_tangent,
                                tangent_basis, transition_jacobian)

RNG = np.random.default_rng(20240601)


def all_manifolds():
    return [Euclidean(3), Sphere(2), Sphere(3), CircleProduct(3),
            CircleCotangent(2), Product(Sphere(2), Euclidean(2))]


@pytest.mark.parametrize("manifold", all_manifolds(), ids=lambda m: m.name)
def test_chart_roundtrip(manifold):
    rng = np.random.default_rng(7)
    for kind in manifold.chart_kinds:
        p = manifold.random_point(rng)
        chart = manifold.chart(p, kind)
        for _ in range(100):
            x = rng.standard_normal(chart.dim)
            x *= rng.uniform(0, 0.4) * min(chart.radius, 2.0) / max(np.linalg.norm(x), 1e-12)
            err = np.linalg.norm(chart.forward(chart.inverse(x)) - x)
            assert err <= 1e-10
        assert np.linalg.norm(chart.forward(p)) <= 1e-12


def test_chart_transition_euclidean_rotation():
    plane = Euclidean(2)
    p = np.array([0.3, -1.2])
    c1 = plane.chart(p, "default")
    c2 = plane.chart(p, "alt")
    rot = plane._rotation
    x = np.array([0.4, -0.7])
    np.testing.assert_allclose(chart_transition(c1, c2, x), rot @ x, atol=1e-12)
    np.testing.assert_allclose(chart_transition(c1, c1, x), x, atol=1e-14)


def test_chart_transition_sphere_stereo_vs_proj():
    sphere = Sphere(2)
    pole = np.array([0.0, 0.0, 1.0])
    stereo = sphere.chart(pole, "stereo")
    proj = sphere.chart(pole, "proj")
    x = np.array([0.1, 0.0])
    got = chart_transition(stereo, proj, x)
    # independent composition of the closed-form maps
    basis = tangent_basis(pole)
    r2 = float(x @ x)
    point = ((1.0 - r2) * pole + 2.0 * basis @ x) / (1.0 + r2)
    expected = basis.T @ point
    np.testing.assert_allclose(got, expected, atol=1e-12)
    # round-trip cross-check: both charts parametrize the same point
    np.testing.assert_allclose(stereo.inverse(x), proj.inverse(got), atol=1e-12)


def test_push_tangent_rotation_and_identity():
    plane = Euclidean(2)
    p = np.zeros(2)
    c1 = plane.chart(p, "default")
    c2 = plane.chart(p, "alt")
    v = TangentVec(base=p, chart_id=c1.chart_id, rep=np.array([1.0, 0.0]))
    pushed = push_tangent(c1, c2, v)
    np.testing.assert_allclose(pushed.rep, plane._rotation @ np.array([1.0, 0.0]),
                               atol=1e-9)
    same = push_tangent(c1, c1, v)
    np.testing.assert_allclose(same.rep, v.rep, atol=1e-12)


def test_push_tangent_sphere_fd_oracle():
    sphere = Sphere(2)
    pole = np.array([0.0, 0.0, 1.0])
    c1 = sphere.chart(pole, "stereo")
    c2 = sphere.chart(pole, "log")
    v = TangentVec(base=pole, chart_id=c1.chart_id, rep=np.array([1.0, 0.0]))
    pushed = push_tangent(c1, c2, v)
    jac = fd_jacobian_of(lambda x: chart_transition(c1, c2, x), np.zeros(2))
    np.testing.assert_allclose(pushed.rep, jac @ v.rep, atol=1e-6)


def test_push_tangent_chart_mismatch():
    plane = Euclidean(2)
    c1 = plane.chart(np.zeros(2), "default")
    c2 = plane.chart(np.zeros(2), "alt")
    v = TangentVec(base=np.zeros(2), chart_id="elsewhere", rep=np.ones(2))
    with pytest.raises(ChartMismatchError):
        push_tangent(c1, c2, v)


@pytest.mark.parametrize("manifold", all_manifolds(), ids=lambda m: m.name)
def test_cocycle_property(manifold):
    rng = np.random.default_rng(3)
    kinds = list(manifold.chart_kinds)
    if len(kinds) < 2:
        pytest.skip("needs at least two chart kinds")
    p = manifold.random_point(rng)
    charts = [manifold.chart(p, k) for k in (kinds * 3)[:3]]
    c1, c2, c3 = charts
    for _ in range(20):
        rep = rng.standard_normal(c1.dim)
        v = TangentVec(base=p, chart_id=c1.chart_id, rep=rep)
        direct = push_tangent(c1, c3, v)
        via = push_tangent(c2, c3, push_tangent(c1, c2, v))
        assert np.linalg.norm(direct.rep - via.rep) <= 1e-8 * (1 + np.linalg.norm(rep))


def test_retract_at_zero_and_euclidean():
    plane = Euclidean(3)
    p = np.array([1.0, -2.0, 0.5])
    for kind in plane.retraction_kinds:
        r = plane.retraction(p, kind)
        np.testing.assert_allclose(r(np.zeros(3)), p, atol=1e-14)
    r = plane.retraction(p, "translation")
    v = np.array([0.3, 0.1, -0.2])
    np.testing.assert_allclose(r(v), p + v, atol=1e-14)


def test_retract_sphere_quarter_circle():
    sphere = Sphere(2)
    rng = np.random.default_rng(5)
    p = sphere.random_point(rng)
    r = sphere.retraction(p, "exp")
    v = np.array([math.pi / 2, 0.0])
    q = r(v)
    assert sphere.is_point(q, 1e-12)
    # great-circle formula gives the geodesic distance directly
    assert abs(sphere.distance(p, q) - math.pi / 2) <= 1e-12


def test_retract_domain_error():
    sphere = Sphere(2)
    r = sphere.retraction(np.array([0.0, 0.0, 1.0]), "exp")
    with pytest.raises(DomainError):
        r(np.array([math.pi, 0.0]))


@pytest.mark.parametrize("manifold", all_manifolds(), ids=lambda m: m.name)
def test_axiom_check_builtin_retractions(manifold):
    rng = np.random.default_rng(11)
    p = manifold.random_point(rng)
    for kind in manifold.retraction_kinds:
        report = axiom_check(manifold.retraction(p, kind), h=1e-5, tol=1e-6)
        assert report.passed, (manifold.name, kind, report)


def test_axiom_check_scaled_map_fails():
    plane = Euclidean(2)
    base = np.array([0.5, -0.5])
    chart = plane.chart(base, "default")
    bad = Retraction(base=base, chart=chart,
                     map_fn=lambda v: base + 2.0 * np.asarray(v, dtype=float),
                     domain_radius=10.0, name="doubled")
    report = axiom_check(bad, h=1e-5, tol=1e-6)
    assert not report.passed
    assert abs(report.differential_residual - 1.0) <= 1e-6


def test_covector_transport_preserves_pairing():
    sphere = Sphere(2)
    rng = np.random.default_rng(2)
    p = sphere.random_point(rng)
    c1 = sphere.chart(p, "proj")
    c2 = sphere.chart(p, "stereo")
    jac = transition_jacobian(c1, c2)
    for _ in range(20):
        mu = rng.standard_normal(2)
        v = rng.standard_normal(2)
        mu2 = push_covector(c1, c2, mu)
        assert abs(mu @ v - mu2 @ (jac @ v)) <= 1e-9


def test_analytic_chart_jacobians_match_fd():
    sphere = Sphere(2)
    rng = np.random.default_rng(4)
    p = sphere.random_point(rng)
    for kind in ("proj", "log", "gnomonic", "stereo"):
        chart = sphere.chart(p, kind)
        x = rng.uniform(-0.3, 0.3, 2)
        np.testing.assert_allclose(chart.differential_at(x),
                                   fd_jacobian_of(chart.inverse_fn, x),
                                   atol=1e-7)


def test_chart_domain_error_is_hard():
    sphere = Sphere(2)
    chart = sphere.chart(np.array([0.0, 0.0, 1.0]), "proj")
    with pytest.raises(DomainError):
        chart.inverse(np.array([2.0, 0.0]))
    with pytest.raises(DomainError):
        chart.forward(np.array([0.0, 0.0, -1.0]))


@pytest.mark.parametrize(
    "manifold", all_manifolds() + [Product(CircleProduct(2), Euclidean(2))],
    ids=lambda m: m.name)
def test_retraction_differential_matches_fd(manifold):
    rng = np.random.default_rng(12)
    for kind in manifold.retraction_kinds:
        for _ in range(5):
            r = manifold.retraction(manifold.random_point(rng), kind)
            v = rng.standard_normal(r.chart.dim)
            v *= rng.uniform(0.05, 0.8) * min(r.domain_radius, 2.0) / np.linalg.norm(v)
            # only the trivialised cotangent bundle lacks a closed form
            assert (r.differential_fn is None) == isinstance(manifold, CircleCotangent)
            np.testing.assert_allclose(r.differential(v), fd_jacobian_of(r.map_fn, v),
                                       atol=1e-6)


def test_tangent_basis_one_ulp_outside_the_sphere_near_the_pole():
    # a diagonal-constraint solve iterate: forming p - e_d cancelled here,
    # and the frame was 4e-4 away from orthogonal to p
    p = np.array([7.5e-13, -5.1e-13, 1.0000000000000002])
    basis = tangent_basis(p)
    assert np.linalg.norm(basis.T @ p) <= 1e-15
    np.testing.assert_allclose(basis.T @ basis, np.eye(2), rtol=0, atol=1e-15)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 5), st.integers(-300, -6), st.sampled_from([1.0, -1.0]),
       st.integers(-2, 2), st.data())
def test_tangent_basis_is_orthonormal_near_the_poles(d, exponent, pole, ulps, data):
    """Frames at points within ``10^exponent`` of a pole, with ``|p|`` moved
    by up to two ulp, are orthonormal and orthogonal to ``p``."""
    head = 10.0 ** exponent * np.array(
        data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d - 1, max_size=d - 1)))
    last = pole * math.sqrt(1.0 - float(head @ head))
    for _ in range(abs(ulps)):
        last = np.nextafter(last, math.copysign(2.0, ulps * last))
    p = np.r_[head, last]
    basis = tangent_basis(p)
    np.testing.assert_allclose(basis.T @ basis, np.eye(d - 1), rtol=0, atol=1e-14)
    assert np.linalg.norm(basis.T @ p) <= 1e-13
