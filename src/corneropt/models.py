"""Built-in problem instances with analytic derivatives and reference data.

Every model builder returns a :class:`ProblemInstance`; reference values and
auxiliary objects (extra linearizing maps, grid-search regions) ride along in
``instance.extras``.  Reference data carries a ``provenance`` tag naming the
independent computation that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .corners import (CircleZeroSection, DiagonalCornerSet, EuclideanCornerSet,
                      SphereTriangleCornerSet)
from .errors import BadParamsError
from .geometry import (CircleCotangent, CircleProduct, Euclidean, LinearizingMap,
                       Product, Sphere, tangent_basis)
from .oracles import SearchRegion
from .problem import ProblemInstance


@dataclass(frozen=True)
class ModelDescriptor:
    name: str
    summary: str
    defaults: dict
    build: Callable[[dict], ProblemInstance]
    has_reference: bool


def _merge_params(defaults: dict, params: Optional[dict]) -> dict:
    merged = dict(defaults)
    if params:
        unknown = set(params) - set(defaults)
        if unknown:
            raise BadParamsError(f"unknown parameters: {sorted(unknown)}")
        merged.update(params)
    return merged


# ---------------------------------------------------------------------------
# classical Euclidean NLP
# ---------------------------------------------------------------------------

CLASSICAL_DEFAULTS = {
    "m": 3, "n_ineq": 2, "n_eq": 1, "seed": 0,
    "n_active": None, "curvature": "convex",
}


def build_classical_nlp(params: Optional[dict] = None) -> ProblemInstance:
    """A Euclidean NLP with a planted KKT point.

    ``f`` is quadratic, ``g`` affine, and the corner set is the product of a
    nonpositive orthant and a zero block.  The instance is constructed
    backwards from a chosen point, active set and multipliers, so the exact
    classical KKT data is known and shipped as reference.  With
    ``curvature = "indefinite"`` the planted point is a stationary saddle
    instead of a minimizer.
    """
    opts = _merge_params(CLASSICAL_DEFAULTS, params)
    m = int(opts["m"])
    n_ineq = int(opts["n_ineq"])
    n_eq = int(opts["n_eq"])
    if n_eq > m:
        raise BadParamsError("more equality constraints than variables")
    rng = np.random.default_rng(int(opts["seed"]))
    n = n_ineq + n_eq
    x_star = rng.standard_normal(m)
    max_active = max(0, min(n_ineq, m - n_eq))
    if opts["n_active"] is None:
        n_active = int(rng.integers(0, max_active + 1))
    else:
        n_active = int(opts["n_active"])
        if n_active > max_active:
            raise BadParamsError(f"n_active > {max_active} breaks LICQ")
    active = sorted(rng.choice(n_ineq, size=n_active, replace=False).tolist()) \
        if n_active else []

    # constraint rows with full row rank on active + equality rows
    for _ in range(100):
        g_mat = rng.standard_normal((n, m))
        rows = g_mat[active + list(range(n_ineq, n))]
        if rows.size == 0:
            break
        svals = np.linalg.svd(rows, compute_uv=False)
        if svals.size == 0 or svals[-1] > 1e-3:
            break
    else:
        raise BadParamsError("failed to sample a well-conditioned constraint matrix")
    offset = np.zeros(n)
    inactive = [i for i in range(n_ineq) if i not in active]
    offset[inactive] = -rng.uniform(0.5, 2.0, size=len(inactive))

    lam_active = rng.uniform(0.2, 2.0, size=n_active)
    eta_eq = rng.standard_normal(n_eq)
    grad_star = np.zeros(m)
    if n_active:
        grad_star -= g_mat[active].T @ lam_active
    if n_eq:
        grad_star -= g_mat[n_ineq:].T @ eta_eq

    if opts["curvature"] == "convex":
        a_fac = rng.standard_normal((m, m))
        quad = a_fac.T @ a_fac + np.eye(m)
    elif opts["curvature"] == "indefinite":
        quad = np.diag([1.0 if i % 2 == 0 else -1.0 for i in range(m)])
    else:
        raise BadParamsError(f"unknown curvature {opts['curvature']!r}")

    def objective(x, quad=quad, grad_star=grad_star, x_star=x_star):
        d = np.asarray(x, dtype=float) - x_star
        return 0.5 * float(d @ quad @ d) + float(grad_star @ d)

    def objective_grad(x, quad=quad, grad_star=grad_star, x_star=x_star):
        d = np.asarray(x, dtype=float) - x_star
        return quad @ d + grad_star

    def constraint(x, g_mat=g_mat, x_star=x_star, offset=offset):
        return g_mat @ (np.asarray(x, dtype=float) - x_star) + offset

    corner = EuclideanCornerSet(n, ineq=tuple(range(n_ineq)),
                                eq=tuple(range(n_ineq, n)))
    eta_full = np.zeros(n_ineq)
    for lam, idx in zip(lam_active, active):
        eta_full[idx] = lam
    mu_chart = np.zeros(n)
    mu_chart[:n_ineq] = eta_full
    mu_chart[n_ineq:] = eta_eq

    region = SearchRegion(center=x_star, radius=1.0)
    extras = {
        "classical": {"ineq_idx": tuple(range(n_ineq)),
                      "eq_idx": tuple(range(n_ineq, n))},
        "reference": {
            "point": x_star,
            "eta_ineq": eta_full,
            "eta_eq": eta_eq,
            "mu_chart": mu_chart,
            "active_set": tuple(active),
            "provenance": "derived: planted-multiplier construction",
        },
        "search_region": region,
        "quad": quad,
    }
    return ProblemInstance(
        domain=Euclidean(m), codomain=Euclidean(n), constraint_set=corner,
        objective=objective, constraint=constraint,
        objective_grad_ambient=objective_grad,
        constraint_jac_ambient=lambda x, g_mat=g_mat: g_mat,
        objective_hess_ambient=lambda x, quad=quad: quad,
        constraint_hess_contract=lambda x, w, m=m: np.zeros((m, m)),
        name="classical-nlp", extras=extras)


# ---------------------------------------------------------------------------
# geodesic triangle on the sphere
# ---------------------------------------------------------------------------

SPHERE_POLYGON_DEFAULTS = {
    "vertices": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    "target": (1.0, 0.8, -0.6),
}


def _slerp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    omega = math.acos(max(-1.0, min(1.0, float(a @ b))))
    if omega < 1e-12:
        return a.copy()
    return (math.sin((1.0 - t) * omega) * a + math.sin(t * omega) * b) / math.sin(omega)


def sphere_polygon_reference(corner: SphereTriangleCornerSet,
                             target: np.ndarray) -> dict:
    """Closed-form minimizer of ``-<p, target>`` over the triangle.

    Candidates: the normalized target (if feasible), the great-circle
    projection of the target onto each edge, and the vertices.
    """
    target = np.asarray(target, dtype=float)
    cands = []
    tn = target / np.linalg.norm(target)
    if corner.contains(tn, 1e-12):
        cands.append(tn)
    for nvec in corner.normals:
        w = target - float(target @ nvec) * nvec
        norm = np.linalg.norm(w)
        if norm < 1e-12:
            continue
        w = w / norm
        if corner.contains(w, 1e-12):
            cands.append(w)
    cands.extend(corner.vertices)
    scores = [float(c @ target) for c in cands]
    best = cands[int(np.argmax(scores))]
    return {
        "point": best,
        "value": -float(best @ target),
        "active_edges": corner.active_edges(best, 1e-9),
        "provenance": "derived: closed-form great-circle projection + vertex comparison",
    }


def build_sphere_polygon(params: Optional[dict] = None) -> ProblemInstance:
    """Minimize ``-<p, target>`` over a geodesic triangle on S^2 with g = id."""
    opts = _merge_params(SPHERE_POLYGON_DEFAULTS, params)
    vertices = np.asarray(opts["vertices"], dtype=float)
    target = np.asarray(opts["target"], dtype=float)
    if target.shape != (3,) or np.linalg.norm(target) < 1e-12:
        raise BadParamsError("target must be a nonzero vector in R^3")
    corner = SphereTriangleCornerSet(vertices)
    sphere = Sphere(2)

    def objective(p, target=target):
        return -float(np.asarray(p, dtype=float) @ target)

    centroid = vertices.sum(axis=0)
    centroid = centroid / np.linalg.norm(centroid)
    spread = max(sphere.distance(centroid, v) for v in vertices)
    basis = tangent_basis(centroid)

    def batch_points(resolution, centroid=centroid, basis=basis, spread=spread):
        r = spread + 0.15
        axis = np.arange(-r, r + resolution / 2, resolution)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        coords = np.column_stack([gx.ravel(), gy.ravel()])
        norms = np.linalg.norm(coords, axis=1)
        keep = norms <= r
        coords, norms = coords[keep], norms[keep]
        norms = np.maximum(norms, 1e-14)
        amb = coords @ basis.T
        return (np.cos(norms)[:, None] * centroid
                + (np.sin(norms) / norms)[:, None] * amb)

    curves = []
    for (ia, ib) in ((0, 1), (1, 2), (2, 0)):
        a, b = vertices[ia], vertices[ib]
        omega = math.acos(max(-1.0, min(1.0, float(a @ b))))
        curves.append((lambda t, a=a, b=b, omega=omega: _slerp(a, b, t / omega),
                       (0.0, omega)))
    region = SearchRegion(
        center=centroid, radius=spread + 0.15, chart_kind="log",
        batch_points=batch_points, boundary_curves=tuple(curves),
        include_points=tuple(map(tuple, vertices)))

    extras = {
        "reference": sphere_polygon_reference(corner, target),
        "search_region": region,
    }
    return ProblemInstance(
        domain=sphere, codomain=sphere, constraint_set=corner,
        objective=objective,
        constraint=lambda p: np.asarray(p, dtype=float),
        objective_grad_ambient=lambda p, target=target: -target,
        constraint_jac_ambient=lambda p: np.eye(3),
        objective_batch=lambda pts, target=target: -(np.asarray(pts) @ target),
        membership_batch=lambda pts, corner=corner: (
            np.max(np.asarray(pts) @ corner.normals.T, axis=1) <= 1e-9),
        name="sphere-polygon", extras=extras)


# ---------------------------------------------------------------------------
# diagonal constraint g_l(p) = g_r(p) on the sphere
# ---------------------------------------------------------------------------

DIAGONAL_DEFAULTS = {
    "variant": "rotation",   # "same" | "const" | "rotation"
    "angle": 0.7,
    "target": (0.2, -0.4, 1.0),
    "anchor": (0.0, 0.0, 1.0),
}


def build_diagonal_constraint(params: Optional[dict] = None) -> ProblemInstance:
    """Equality constraint ``g_l(p) = g_r(p)`` via the diagonal of S^2 x S^2."""
    opts = _merge_params(DIAGONAL_DEFAULTS, params)
    variant = opts["variant"]
    sphere = Sphere(2)
    corner = DiagonalCornerSet(sphere, ("log", "gnomonic"))
    target = np.asarray(opts["target"], dtype=float)
    if variant == "same":
        g_left = lambda p: np.asarray(p, dtype=float)
        g_right = lambda p: np.asarray(p, dtype=float)
        jac = lambda p: np.vstack([np.eye(3), np.eye(3)])
    elif variant == "const":
        anchor = np.asarray(opts["anchor"], dtype=float)
        anchor = anchor / np.linalg.norm(anchor)
        g_left = lambda p: np.asarray(p, dtype=float)
        g_right = lambda p, anchor=anchor: anchor.copy()
        jac = lambda p: np.vstack([np.eye(3), np.zeros((3, 3))])
    elif variant == "rotation":
        angle = float(opts["angle"])
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        g_left = lambda p, rot=rot: rot @ np.asarray(p, dtype=float)
        g_right = lambda p: np.asarray(p, dtype=float)
        jac = lambda p, rot=rot: np.vstack([rot, np.eye(3)])
    else:
        raise BadParamsError(f"unknown variant {variant!r}")

    def constraint(p):
        return np.concatenate([g_left(p), g_right(p)])

    extras = {"variant": variant}
    if variant == "rotation":
        extras["reference"] = {
            "fixed_points": (np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])),
            "provenance": "trivial: fixed-point set of a z-axis rotation",
        }
    return ProblemInstance(
        domain=sphere, codomain=corner.ambient, constraint_set=corner,
        objective=lambda p, target=target: -float(np.asarray(p) @ target),
        constraint=constraint,
        objective_grad_ambient=lambda p, target=target: -target,
        constraint_jac_ambient=jac,
        name="diagonal-constraint", extras=extras)


# ---------------------------------------------------------------------------
# control of a discretized variational problem
# ---------------------------------------------------------------------------

CONTROL_DEFAULTS = {
    "n_nodes": 20,
    "alpha": 1.0,
    "beta": 0.0,
    "variant": "euclidean",   # "euclidean" | "circle"
    "stiffness": 1.0,
    "target_amplitude": 1.0,
}


def _chain_stiffness(n: int, kappa: float) -> np.ndarray:
    q_mat = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return kappa * q_mat


def control_adjoint_reference(q_mat: np.ndarray, y_target: np.ndarray,
                              alpha: float) -> dict:
    """Exact solution of the quadratic-energy control problem.

    Eliminating the adjoint system by hand: the stationarity conditions
    ``(y - y_d) + Q lambda = 0`` and ``alpha u = lambda`` together with the
    state equation ``Q y = u`` give ``(I + alpha Q^2) y = y_d``.
    """
    n = y_target.size
    y_opt = np.linalg.solve(np.eye(n) + alpha * q_mat @ q_mat, y_target)
    u_opt = q_mat @ y_opt
    lam = alpha * u_opt
    return {
        "state": y_opt, "control": u_opt, "adjoint": lam,
        "point": np.concatenate([y_opt, u_opt]),
        "provenance": "derived: direct adjoint linear solve",
    }


def build_control_model(params: Optional[dict] = None) -> ProblemInstance:
    """Control of a discretized elastic chain through its stationarity system.

    The state equation is ``c(y, u) = dE/dy = Q y + beta y^3 - u = 0``; the
    constraint map ``g(y, u) = (y, c(y, u))`` targets the zero section of the
    (trivialized) cotangent space.  The Euclidean variant with ``beta = 0``
    carries the exact adjoint reference; the circle-valued variant has no
    closed form and is exercised through the generic invariance machinery.
    """
    opts = _merge_params(CONTROL_DEFAULTS, params)
    n = int(opts["n_nodes"])
    if n < 2:
        raise BadParamsError("need at least two chain nodes")
    alpha = float(opts["alpha"])
    beta = float(opts["beta"])
    if opts["variant"] == "euclidean":
        q_mat = _chain_stiffness(n, float(opts["stiffness"]))
        y_target = float(opts["target_amplitude"]) * np.sin(
            2.0 * math.pi * np.arange(1, n + 1) / (n + 1))

        def energy_grad(y, u, q_mat=q_mat, beta=beta):
            return q_mat @ y + beta * y ** 3 - u

        def constraint(p, n=n):
            p = np.asarray(p, dtype=float)
            y, u = p[:n], p[n:]
            return np.concatenate([y, energy_grad(y, u)])

        # Dg = [[I, 0], [Q + 3 beta diag(y^2), -I]]: the blocks are built
        # once, and each call writes only the diagonal of the lower-left one
        jac_blocks = np.vstack([
            np.hstack([np.eye(n), np.zeros((n, n))]),
            np.hstack([q_mat + 3.0 * beta * np.zeros((n, n)), -np.eye(n)])])
        q_diag = np.diag(q_mat).copy()
        rows, cols = np.arange(n, 2 * n), np.arange(n)

        def constraint_jac(p, n=n, beta=beta):
            p = np.asarray(p, dtype=float)
            y = p[:n]
            jac = jac_blocks.copy()
            jac[rows, cols] = q_diag + 3.0 * beta * y ** 2
            return jac

        def constraint_hess(p, w, n=n, beta=beta):
            # only the cubic term of the state equation curves g
            p = np.asarray(p, dtype=float)
            w = np.asarray(w, dtype=float)
            diag = np.zeros(2 * n)
            diag[:n] = 6.0 * beta * p[:n] * w[n:]
            return np.diag(diag)

        objective_hess = np.diag(np.concatenate([np.ones(n), np.full(n, alpha)]))

        def objective(p, n=n, y_target=y_target, alpha=alpha):
            p = np.asarray(p, dtype=float)
            y, u = p[:n], p[n:]
            return 0.5 * float(np.sum((y - y_target) ** 2)) \
                + 0.5 * alpha * float(np.sum(u ** 2))

        def objective_grad(p, n=n, y_target=y_target, alpha=alpha):
            p = np.asarray(p, dtype=float)
            return np.concatenate([p[:n] - y_target, alpha * p[n:]])

        corner = EuclideanCornerSet(2 * n, ineq=(), eq=tuple(range(n, 2 * n)))

        def kkt_residuals(y, u, adjoint, q_mat=q_mat, beta=beta,
                          y_target=y_target, alpha=alpha):
            """The three blocks of the specialized optimality system:
            state stationarity, control stationarity, state equation."""
            y = np.asarray(y, dtype=float)
            u = np.asarray(u, dtype=float)
            adjoint = np.asarray(adjoint, dtype=float)
            hess_yy = q_mat + 3.0 * beta * np.diag(y ** 2)
            return (
                (y - y_target) + hess_yy @ adjoint,
                alpha * u - adjoint,
                energy_grad(y, u),
            )

        extras = {"n_nodes": n, "alpha": alpha, "beta": beta, "q_mat": q_mat,
                  "y_target": y_target, "kkt_residuals": kkt_residuals}
        if beta == 0.0:
            extras["reference"] = control_adjoint_reference(q_mat, y_target, alpha)
        return ProblemInstance(
            domain=Euclidean(2 * n), codomain=Euclidean(2 * n),
            constraint_set=corner,
            objective=objective, constraint=constraint,
            objective_grad_ambient=objective_grad,
            constraint_jac_ambient=constraint_jac,
            objective_hess_ambient=lambda p, hess=objective_hess: hess,
            constraint_hess_contract=constraint_hess,
            name="control-model", extras=extras)

    if opts["variant"] != "circle":
        raise BadParamsError(f"unknown variant {opts['variant']!r}")
    kappa = float(opts["stiffness"])
    circles = CircleProduct(n)
    controls = Euclidean(n)
    domain = Product(circles, controls)
    bundle = CircleCotangent(n)
    corner = CircleZeroSection(bundle)
    theta_target = 0.4 * float(opts["target_amplitude"]) * np.sin(
        2.0 * math.pi * np.arange(1, n + 1) / (n + 1))
    d_target = CircleProduct._from_angles(theta_target)

    def split(p, n=n):
        p = np.asarray(p, dtype=float)
        return p[:2 * n], p[2 * n:]

    def fibre_force(theta, u, kappa=kappa, n=n):
        padded = np.concatenate([[0.0], theta, [0.0]])
        out = np.zeros(n)
        for i in range(n):
            out[i] = kappa * (math.sin(padded[i + 1] - padded[i])
                              + math.sin(padded[i + 1] - padded[i + 2]))
            out[i] -= u[i] * math.cos(theta[i])
        return out

    def constraint(p, bundle=bundle):
        y_amb, u = split(p)
        theta = CircleProduct._angles(y_amb)
        return bundle.join(y_amb, fibre_force(theta, u))

    def objective(p, d_target=d_target, alpha=alpha, n=n):
        y_amb, u = split(p)
        mism = 1.0 - np.sum(y_amb.reshape(-1, 2) * d_target.reshape(-1, 2), axis=1)
        return float(np.sum(mism)) + 0.5 * alpha * float(np.sum(u ** 2))

    extras = {"n_nodes": n, "alpha": alpha, "variant": "circle"}
    return ProblemInstance(
        domain=domain, codomain=bundle, constraint_set=corner,
        objective=objective, constraint=constraint,
        name="control-model-circle", extras=extras)


# ---------------------------------------------------------------------------
# the two-variable counterexample with three linearizing maps
# ---------------------------------------------------------------------------

REMARK_DEFAULTS = {"alpha": 1.0}


def build_remark_counterexample(params: Optional[dict] = None) -> ProblemInstance:
    """``min -p_1`` subject to ``p_1 <= 0`` on R^2, with three local maps.

    The three linearizing maps at the minimizer 0 are the identity (adapted),
    an additive-quadratic perturbation (not adapted), and a multiplicative
    bending (adapted for ``|p_2| < 1``).  Their pulled-back Lagrangian
    Hessians differ off the critical cone; the non-adapted map differs on it.
    """
    opts = _merge_params(REMARK_DEFAULTS, params)
    alpha = float(opts["alpha"])
    corner = EuclideanCornerSet(2, ineq=(0,), eq=())
    plane = Euclidean(2)
    origin = np.zeros(2)
    data = corner.adapted_chart(origin)
    cone = data.cone()
    chart = data.chart

    # each map with its Jacobian and its (constant) second-derivative
    # contraction sum_j mu_j Hess S_j
    maps = {
        "S01": LinearizingMap(
            base=origin, dim=2,
            map_fn=lambda p: np.asarray(p, dtype=float).copy(),
            chart=chart,
            inverse_fn=lambda v: np.asarray(v, dtype=float).copy(),
            cone=cone, name="S01",
            differential_fn=lambda p: np.eye(2),
            hess_contract_fn=lambda p, mu: np.zeros((2, 2))),
        "S02": LinearizingMap(
            base=origin, dim=2,
            map_fn=lambda p, a=alpha: np.array([p[0] + a * p[1] ** 2, p[1]]),
            chart=chart,
            inverse_fn=lambda v, a=alpha: np.array([v[0] - a * v[1] ** 2, v[1]]),
            cone=None, name="S02",
            differential_fn=lambda p, a=alpha: np.array([[1.0, 2.0 * a * p[1]],
                                                         [0.0, 1.0]]),
            hess_contract_fn=lambda p, mu, a=alpha: np.array([[0.0, 0.0],
                                                              [0.0, 2.0 * a * mu[0]]])),
        "S03": LinearizingMap(
            base=origin, dim=2,
            map_fn=lambda p: np.array([p[0] + p[0] * p[1], p[1]]),
            chart=chart,
            inverse_fn=lambda v: np.array([v[0] / (1.0 + v[1]), v[1]]),
            cone=cone, name="S03", domain_radius=0.9,
            differential_fn=lambda p: np.array([[1.0 + p[1], p[0]], [0.0, 1.0]]),
            hess_contract_fn=lambda p, mu: np.array([[0.0, mu[0]], [mu[0], 0.0]])),
    }

    extras = {
        "linmaps": maps,
        "adapted_flags": {"S01": True, "S02": False, "S03": True},
        "alpha": alpha,
        "reference": {
            "point": origin,
            "mu_chart": np.array([1.0, 0.0]),
            "critical_cone": "v_1 = 0",
            "provenance": "verified: worked example, multiplier and Hessian forms "
                          "recomputed from the map definitions",
        },
        "classical": {"ineq_idx": (0,), "eq_idx": ()},
        "search_region": SearchRegion(center=origin, radius=1.0),
    }
    return ProblemInstance(
        domain=plane, codomain=plane, constraint_set=corner,
        objective=lambda p: -float(p[0]),
        constraint=lambda p: np.asarray(p, dtype=float),
        objective_grad_ambient=lambda p: np.array([-1.0, 0.0]),
        constraint_jac_ambient=lambda p: np.eye(2),
        objective_hess_ambient=lambda p: np.zeros((2, 2)),
        constraint_hess_contract=lambda p, w: np.zeros((2, 2)),
        name="remark-counterexample", extras=extras)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

MODELS = {
    "classical-nlp": ModelDescriptor(
        name="classical-nlp",
        summary="Euclidean NLP with planted KKT point (affine g, quadratic f)",
        defaults=CLASSICAL_DEFAULTS,
        build=build_classical_nlp,
        has_reference=True),
    "sphere-polygon": ModelDescriptor(
        name="sphere-polygon",
        summary="linear objective over a geodesic triangle on S^2 (g = id)",
        defaults=SPHERE_POLYGON_DEFAULTS,
        build=build_sphere_polygon,
        has_reference=True),
    "diagonal-constraint": ModelDescriptor(
        name="diagonal-constraint",
        summary="equality g_l(p) = g_r(p) through the diagonal of S^2 x S^2",
        defaults=DIAGONAL_DEFAULTS,
        build=build_diagonal_constraint,
        has_reference=False),
    "control-model": ModelDescriptor(
        name="control-model",
        summary="discretized elastic-chain control via its stationarity system",
        defaults=CONTROL_DEFAULTS,
        build=build_control_model,
        has_reference=True),
    "remark-counterexample": ModelDescriptor(
        name="remark-counterexample",
        summary="min -p1 s.t. p1 <= 0 with three local linearizing maps",
        defaults=REMARK_DEFAULTS,
        build=build_remark_counterexample,
        has_reference=True),
}


def get_model(name: str) -> ModelDescriptor:
    if name not in MODELS:
        raise BadParamsError(f"unknown model {name!r}; known: {sorted(MODELS)}")
    return MODELS[name]


def build_model(name: str, params: Optional[dict] = None) -> ProblemInstance:
    return get_model(name).build(params)
