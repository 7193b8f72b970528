"""Charts, tangent representatives, retractions and linearizing maps.

Points live in ambient coordinates (unit vectors in R^{n+1} for the sphere,
plain vectors for Euclidean space).  Charts are supplied per point and are
always centered: ``forward(center) = 0``.  Tangent vectors and covectors are
stored as coordinate representatives tied to an explicit chart; transporting
them between charts goes through the transition Jacobian.

Built-in manifolds: :class:`Euclidean`, :class:`Sphere`, :class:`CircleProduct`,
:class:`CircleCotangent` and :class:`Product`.  Every built-in supplies at
least two charts and two retractions per point so that invariance claims can
be exercised across genuinely different local representations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ChartMismatchError, DomainError

# Central finite-difference step used whenever a chart or map does not supply
# an analytic differential.
FD_STEP = 1e-5


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def fd_jacobian_of(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                   h: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of ``fn`` at ``x``."""
    x = _as_float_array(x)
    f0 = _as_float_array(fn(x))
    jac = np.zeros((f0.size, x.size))
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        jac[:, j] = (_as_float_array(fn(x + step)) - _as_float_array(fn(x - step))) / (2.0 * h)
    return jac


def fd_gradient_of(fn: Callable[[np.ndarray], float], dim: int,
                   h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient at ``0`` of a scalar ``fn`` on ``R^dim``."""
    grad = np.zeros(dim)
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        grad[j] = (fn(e) - fn(-e)) / (2.0 * h)
    return grad


def fd_hessian_of(fn: Callable[[np.ndarray], np.ndarray], dim: int,
                  h: float) -> np.ndarray:
    """Second-difference Hessian at ``0`` of ``fn`` on ``R^dim``: the
    three-point stencil on the diagonal, the four-point stencil off it.

    A scalar ``fn`` gives a ``(dim, dim)`` matrix; an ``ndarray``-valued one
    gives one such matrix per output entry, shape ``fn(0).shape + (dim, dim)``.
    """
    f0 = fn(np.zeros(dim))
    hess = np.zeros(np.shape(f0) + (dim, dim))
    for i in range(dim):
        ei = np.zeros(dim)
        ei[i] = h
        hess[..., i, i] = (fn(ei) - 2.0 * f0 + fn(-ei)) / (h * h)
        for j in range(i + 1, dim):
            ej = np.zeros(dim)
            ej[j] = h
            val = (fn(ei + ej) - fn(ei - ej) - fn(-ei + ej) + fn(-ei - ej)) / (4.0 * h * h)
            hess[..., i, j] = val
            hess[..., j, i] = val
    return hess


@dataclass(frozen=True)
class Chart:
    """A local chart centered at a point: ``forward(center) = 0``.

    ``radius`` bounds the chart-coordinate ball; evaluations outside it raise
    :class:`DomainError` rather than extrapolating silently.
    """

    center: np.ndarray
    dim: int
    radius: float
    forward_fn: Callable[[np.ndarray], np.ndarray]
    inverse_fn: Callable[[np.ndarray], np.ndarray]
    chart_id: str = ""
    # Analytic Jacobian of inverse_fn (ambient_dim x dim); finite differences
    # when absent.
    inverse_jacobian_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # Analytic Jacobian of forward_fn at an ambient point (dim x ambient_dim).
    forward_jacobian_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # (point, mu) -> sum_j mu_j Hess forward_j(point) (ambient_dim x
    # ambient_dim), the second derivative of forward_fn contracted with a
    # covector; absent when no closed form is known.
    forward_hess_contract_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def forward(self, point: np.ndarray) -> np.ndarray:
        x = _as_float_array(self.forward_fn(_as_float_array(point)))
        if np.linalg.norm(x) > self.radius:
            raise DomainError(
                f"point leaves chart {self.chart_id!r}: |x| = {np.linalg.norm(x):.3g} "
                f"> radius {self.radius:.3g}")
        return x

    def inverse(self, x: np.ndarray) -> np.ndarray:
        x = _as_float_array(x)
        if np.linalg.norm(x) > self.radius:
            raise DomainError(
                f"coordinates leave chart {self.chart_id!r}: |x| = {np.linalg.norm(x):.3g} "
                f"> radius {self.radius:.3g}")
        return _as_float_array(self.inverse_fn(x))

    def differential_at(self, x: np.ndarray) -> np.ndarray:
        """Jacobian of the inverse parametrization at chart coordinates ``x``."""
        x = _as_float_array(x)
        if self.inverse_jacobian_fn is not None:
            return _as_float_array(self.inverse_jacobian_fn(x))
        return fd_jacobian_of(self.inverse_fn, x)

    def forward_differential(self, point: np.ndarray) -> Optional[np.ndarray]:
        """Analytic Jacobian of the forward map at an ambient point, if known.

        Only its action on manifold-tangent directions is specified; off-manifold
        extensions may differ between the analytic formula and ``forward_fn``.
        """
        if self.forward_jacobian_fn is None:
            return None
        return _as_float_array(self.forward_jacobian_fn(_as_float_array(point)))


@dataclass(frozen=True)
class TangentVec:
    """A tangent vector as a coordinate representative in a named chart."""

    base: np.ndarray
    chart_id: str
    rep: np.ndarray


def chart_transition(c1: Chart, c2: Chart, x: np.ndarray) -> np.ndarray:
    """Change of charts: coordinates of ``c1.inverse(x)`` in chart ``c2``."""
    return c2.forward(c1.inverse(x))


def transition_jacobian(c1: Chart, c2: Chart, x: Optional[np.ndarray] = None) -> np.ndarray:
    """Jacobian of the chart transition ``c2.forward o c1.inverse`` at ``x``.

    Uses the charts' analytic differentials when both are available, central
    finite differences otherwise.
    """
    if x is None:
        x = np.zeros(c1.dim)
    x = _as_float_array(x)
    point = c1.inverse(x)
    fwd = c2.forward_differential(point)
    if fwd is not None and c1.inverse_jacobian_fn is not None:
        return fwd @ c1.differential_at(x)
    return fd_jacobian_of(lambda z: chart_transition(c1, c2, z), x)


def push_tangent(c1: Chart, c2: Chart, v: TangentVec) -> TangentVec:
    """Re-express a tangent representative through the chart transition."""
    if v.chart_id != c1.chart_id:
        raise ChartMismatchError(
            f"tangent vector lives in chart {v.chart_id!r}, not {c1.chart_id!r}")
    if not np.allclose(c1.center, c2.center, atol=1e-12):
        raise ChartMismatchError("push_tangent requires charts with a shared center")
    jac = transition_jacobian(c1, c2)
    return TangentVec(base=v.base, chart_id=c2.chart_id, rep=jac @ v.rep)


def push_covector(c1: Chart, c2: Chart, mu: np.ndarray) -> np.ndarray:
    """Transport a covector representative with the inverse-transpose Jacobian."""
    jac = transition_jacobian(c1, c2)
    return np.linalg.solve(jac.T, _as_float_array(mu))


@dataclass(frozen=True)
class Retraction:
    """A local retraction: ``map_fn(0) = base`` with identity differential.

    Input tangent coordinates are interpreted in ``chart`` (a chart centered
    at ``base``); this pins down what "identity differential" means.
    """

    base: np.ndarray
    chart: Chart
    map_fn: Callable[[np.ndarray], np.ndarray]
    domain_radius: float
    name: str = ""
    # Analytic Jacobian of map_fn (ambient_dim x dim); finite differences
    # when absent.
    differential_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # c -> sum_k c_k Hess R_k(0) (dim x dim), the second derivative of map_fn
    # at 0 contracted with an ambient covector; absent when no closed form is
    # known.
    hess_contract_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = _as_float_array(v)
        if np.linalg.norm(v) >= self.domain_radius:
            raise DomainError(
                f"retraction {self.name!r}: |v| = {np.linalg.norm(v):.3g} "
                f">= domain radius {self.domain_radius:.3g}")
        return _as_float_array(self.map_fn(v))

    def differential(self, v: np.ndarray) -> np.ndarray:
        """Jacobian ``DR(v)`` of the retraction at tangent coordinates ``v``."""
        v = _as_float_array(v)
        if self.differential_fn is not None:
            return _as_float_array(self.differential_fn(v))
        return fd_jacobian_of(self.map_fn, v)


@dataclass(frozen=True)
class LinearizingMap:
    """A local linearizing map: point near ``base`` -> tangent coordinates.

    Satisfies ``map_fn(base) = 0`` with identity differential at ``base``.
    The output frame is the one of ``chart`` (a chart centered at ``base``);
    the identity-differential axiom is checked against that frame.  When
    ``cone`` is set the map is declared adapted: it straightens the corner
    set onto ``cone`` (in this map's output coordinates).
    """

    base: np.ndarray
    dim: int
    map_fn: Callable[[np.ndarray], np.ndarray]
    chart: Optional[Chart] = None
    inverse_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    cone: object = None  # PolyhedralCone when adapted
    name: str = ""
    domain_radius: float = math.inf
    # Analytic Jacobian of map_fn at an ambient point (dim x ambient_dim);
    # finite differences when absent.
    differential_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # (point, mu) -> sum_j mu_j Hess S_j(point) (ambient_dim x ambient_dim),
    # the second derivative of map_fn contracted with a covector in this
    # map's frame; absent when no closed form is known.
    hess_contract_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __call__(self, point: np.ndarray) -> np.ndarray:
        return _as_float_array(self.map_fn(_as_float_array(point)))

    def differential(self, point: np.ndarray) -> np.ndarray:
        """Jacobian ``DS(q)`` of the map at an ambient point ``q``.

        As for :meth:`Chart.forward_differential`, only its action on
        directions tangent to the codomain is specified.
        """
        point = _as_float_array(point)
        if self.differential_fn is not None:
            return _as_float_array(self.differential_fn(point))
        return fd_jacobian_of(self.map_fn, point)

    def inverse(self, v: np.ndarray) -> np.ndarray:
        if self.inverse_fn is None:
            raise DomainError(f"linearizing map {self.name!r} has no inverse")
        v = _as_float_array(v)
        if np.linalg.norm(v) >= self.domain_radius:
            raise DomainError(
                f"linearizing map {self.name!r}: |v| = {np.linalg.norm(v):.3g} "
                f">= domain radius {self.domain_radius:.3g}")
        return _as_float_array(self.inverse_fn(v))


@dataclass
class AxiomReport:
    """Result of checking the defining properties of a retraction or map."""

    name: str
    value_residual: float
    differential_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.value_residual <= self.tol and self.differential_residual <= self.tol


def axiom_check(obj, h: float = 1e-5, tol: float = 1e-6) -> AxiomReport:
    """Verify value-at-zero and identity-differential axioms by central differences.

    Accepts a :class:`Retraction` (checked through its chart) or a
    :class:`LinearizingMap` (checked directly on its output coordinates).
    """
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    if isinstance(obj, Retraction):
        value_residual = float(
            np.linalg.norm(obj.chart.forward(obj(np.zeros(obj.chart.dim)))))
        jac = fd_jacobian_of(lambda v: obj.chart.forward(obj(v)),
                             np.zeros(obj.chart.dim), h=h)
        diff_residual = float(np.linalg.norm(jac - np.eye(obj.chart.dim), ord=2))
        return AxiomReport(obj.name or "retraction", value_residual, diff_residual, tol)
    if isinstance(obj, LinearizingMap):
        if obj.chart is None:
            raise ValueError("axiom_check needs the linearizing map's reference chart")
        value_residual = float(np.linalg.norm(obj(obj.base)))
        jac = fd_jacobian_of(lambda x: obj(obj.chart.inverse(x)), np.zeros(obj.dim), h=h)
        diff_residual = float(np.linalg.norm(jac - np.eye(obj.dim), ord=2))
        return AxiomReport(obj.name or "linearizing map", value_residual, diff_residual, tol)
    raise TypeError(f"axiom_check expects a Retraction or LinearizingMap, got {type(obj)!r}")


# ---------------------------------------------------------------------------
# Built-in manifolds
# ---------------------------------------------------------------------------

class Manifold:
    """A finite-dimensional manifold with per-point chart and retraction suppliers."""

    name: str = "manifold"
    dim: int = 0
    ambient_dim: int = 0

    chart_kinds: tuple = ("default",)
    retraction_kinds: tuple = ("default",)

    def is_point(self, p: np.ndarray, tol: float = 1e-9) -> bool:
        raise NotImplementedError

    def chart(self, p: np.ndarray, kind: str = "default") -> Chart:
        raise NotImplementedError

    def retraction(self, p: np.ndarray, kind: str = "default") -> Retraction:
        raise NotImplementedError

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def distance(self, p: np.ndarray, q: np.ndarray) -> float:
        """Ambient distance; subclasses override with intrinsic metrics."""
        return float(np.linalg.norm(_as_float_array(p) - _as_float_array(q)))

    def project(self, ambient: np.ndarray) -> np.ndarray:
        """Closest-point map onto the manifold (identity for flat spaces)."""
        return _as_float_array(ambient).copy()

    def _check_kind(self, kind: str, kinds: Sequence[str], what: str) -> None:
        if kind not in kinds:
            raise ValueError(f"unknown {what} kind {kind!r} for {self.name}; "
                             f"available: {tuple(kinds)}")


def _fixed_rotation(dim: int) -> np.ndarray:
    """A deterministic non-trivial rotation used by alternate Euclidean charts."""
    if dim == 1:
        return np.eye(1)
    rng = np.random.default_rng(20240817)
    mat = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(mat)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _zero_hess_contract(dim: int) -> Callable:
    """The second-derivative contraction of an affine map on ``R^dim``."""
    return lambda *_: np.zeros((dim, dim))


class Euclidean(Manifold):
    """R^d with translation charts; the alternate chart adds a fixed rotation.

    Both charts and the translation retraction are affine, so their
    second-derivative contractions vanish; the quadratic retraction's is
    ``(c . curl) I``.
    """

    chart_kinds = ("default", "alt")
    retraction_kinds = ("translation", "quadratic", "default", "alt")

    def __init__(self, dim: int, name: Optional[str] = None):
        self.dim = dim
        self.ambient_dim = dim
        self.name = name or f"R^{dim}"
        self._rotation = _fixed_rotation(dim)
        curl = np.ones(dim) / math.sqrt(dim)
        self._curl = curl

    def is_point(self, p, tol: float = 1e-9) -> bool:
        p = _as_float_array(p)
        return p.shape == (self.ambient_dim,) and bool(np.all(np.isfinite(p)))

    def random_point(self, rng) -> np.ndarray:
        return rng.standard_normal(self.dim)

    def chart(self, p, kind: str = "default") -> Chart:
        self._check_kind(kind, self.chart_kinds, "chart")
        p = _as_float_array(p)
        if kind == "default":
            return Chart(
                center=p, dim=self.dim, radius=1e8,
                forward_fn=lambda q, p=p: _as_float_array(q) - p,
                inverse_fn=lambda x, p=p: p + _as_float_array(x),
                inverse_jacobian_fn=lambda x: np.eye(self.dim),
                forward_jacobian_fn=lambda q: np.eye(self.dim),
                forward_hess_contract_fn=_zero_hess_contract(self.dim),
                chart_id=f"{self.name}:shift@{_point_tag(p)}")
        rot = self._rotation
        return Chart(
            center=p, dim=self.dim, radius=1e8,
            forward_fn=lambda q, p=p: rot @ (_as_float_array(q) - p),
            inverse_fn=lambda x, p=p: p + rot.T @ _as_float_array(x),
            inverse_jacobian_fn=lambda x: rot.T.copy(),
            forward_jacobian_fn=lambda q: rot.copy(),
            forward_hess_contract_fn=_zero_hess_contract(self.dim),
            chart_id=f"{self.name}:rot@{_point_tag(p)}")

    def retraction(self, p, kind: str = "default") -> Retraction:
        self._check_kind(kind, self.retraction_kinds, "retraction")
        if kind == "alt":
            kind = "quadratic"
        p = _as_float_array(p)
        chart = self.chart(p, "default")
        if kind in ("translation", "default"):
            return Retraction(base=p, chart=chart,
                              map_fn=lambda v, p=p: p + _as_float_array(v),
                              domain_radius=1e8, name="translation",
                              differential_fn=lambda v: np.eye(self.dim),
                              hess_contract_fn=_zero_hess_contract(self.dim))
        curl = self._curl

        def quad(v, p=p, curl=curl):
            v = _as_float_array(v)
            return p + v + 0.5 * float(v @ v) * curl

        return Retraction(base=p, chart=chart, map_fn=quad,
                          domain_radius=10.0, name="quadratic",
                          differential_fn=lambda v, curl=curl: (
                              np.eye(self.dim) + np.outer(curl, v)),
                          hess_contract_fn=lambda c, curl=curl: (
                              float(np.asarray(c, dtype=float) @ curl) * np.eye(self.dim)))


def _point_tag(p: np.ndarray) -> str:
    return ",".join(f"{x:.6g}" for x in np.atleast_1d(p))


def tangent_basis(p: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to ``p``.

    Columns of the returned ``(d, d-1)`` matrix complete ``p / |p|`` to an
    orthonormal frame, built from the Householder reflection mapping the
    last coordinate vector onto it.  The reflection vector ``w = p - e_d``
    is formed without cancellation: near the last axis its last entry is
    ``-|p_{1..d-1}|^2 / (1 + p_d)``.
    """
    p = _as_float_array(p)
    p = p / np.linalg.norm(p)
    d = p.size
    w = p.copy()
    head = p[:-1]
    w[-1] = -float(head @ head) / (1.0 + p[-1]) if p[-1] > 0 else p[-1] - 1.0
    nw = np.linalg.norm(w)
    if nw < 1e-13:
        house = np.eye(d)
    else:
        w = w / nw
        house = np.eye(d) - 2.0 * np.outer(w, w)
    return house[:, :d - 1]


def _sphere_exp_jacobian(p: np.ndarray, basis: np.ndarray, x) -> np.ndarray:
    """Jacobian of ``x -> exp_p(B x)`` on the unit sphere."""
    x = _as_float_array(x)
    r = float(np.linalg.norm(x))
    if r < 1e-8:
        # exp_p(Bx) = cos(r) p + sinc(r) Bx; to O(r^2) the Jacobian is B - p x^T.
        return basis - np.outer(p, x)
    sinc = math.sin(r) / r
    dsinc = (r * math.cos(r) - math.sin(r)) / (r * r)
    xhat = x / r
    u = basis @ x
    return -math.sin(r) * np.outer(p, xhat) + sinc * basis + dsinc * np.outer(u, xhat)


def _sphere_normalized_jacobian(p: np.ndarray, basis: np.ndarray, x) -> np.ndarray:
    """Jacobian of ``x -> (p + B x) / |p + B x|`` on the unit sphere."""
    v = p + basis @ _as_float_array(x)
    nv = np.linalg.norm(v)
    q = v / nv
    return (np.eye(p.size) - np.outer(q, q)) @ basis / nv


class Sphere(Manifold):
    """The unit sphere S^n embedded in R^{n+1}.

    Charts (all centered, all sharing the tangent frame of
    :func:`tangent_basis` so their differentials at the center agree up to the
    documented scale factors): orthogonal projection (``proj``), azimuthal
    log map (``log``), central/gnomonic projection (``gnomonic``) and
    stereographic projection from the antipode (``stereo``).
    Retractions: exponential map (``exp``) and metric projection (``proj``).
    """

    chart_kinds = ("proj", "log", "gnomonic", "stereo", "default", "alt")
    retraction_kinds = ("exp", "proj", "default", "alt")

    def __init__(self, dim: int):
        self.dim = dim
        self.ambient_dim = dim + 1
        self.name = f"S^{dim}"

    def is_point(self, p, tol: float = 1e-9) -> bool:
        p = _as_float_array(p)
        return p.shape == (self.ambient_dim,) and abs(np.linalg.norm(p) - 1.0) <= tol

    def random_point(self, rng) -> np.ndarray:
        v = rng.standard_normal(self.ambient_dim)
        return v / np.linalg.norm(v)

    def distance(self, p, q) -> float:
        c = float(np.clip(_as_float_array(p) @ _as_float_array(q), -1.0, 1.0))
        return math.acos(c)

    def project(self, ambient: np.ndarray) -> np.ndarray:
        ambient = _as_float_array(ambient)
        return ambient / np.linalg.norm(ambient)

    def log_map(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Riemannian logarithm log_p(q) as an ambient tangent vector."""
        p = _as_float_array(p)
        q = _as_float_array(q)
        c = float(p @ q)
        perp = q - c * p
        norm_perp = float(np.linalg.norm(perp))
        if norm_perp < 1e-14:
            return np.zeros_like(p)
        # atan2 keeps the angle accurate near the chart center where
        # arccos(p.q) suffers cancellation.
        theta = math.atan2(norm_perp, c)
        return (theta / norm_perp) * perp

    def exp_map(self, p: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Riemannian exponential of an ambient tangent vector ``w`` at ``p``."""
        p = _as_float_array(p)
        w = _as_float_array(w)
        r = np.linalg.norm(w)
        if r < 1e-14:
            return p.copy()
        return math.cos(r) * p + math.sin(r) / r * w

    def chart(self, p, kind: str = "default") -> Chart:
        self._check_kind(kind, self.chart_kinds, "chart")
        if kind == "default":
            kind = "proj"
        elif kind == "alt":
            kind = "log"
        p = _as_float_array(p)
        basis = tangent_basis(p)
        tag = f"{self.name}:{kind}@{_point_tag(p)}"
        if kind == "proj":
            def fwd(q, p=p, basis=basis):
                q = _as_float_array(q)
                if float(p @ q) <= 0.0:
                    raise DomainError("projection chart: point outside the open hemisphere")
                return basis.T @ q

            def inv(x, p=p, basis=basis):
                x = _as_float_array(x)
                s = 1.0 - float(x @ x)
                if s <= 0.0:
                    raise DomainError("projection chart: coordinates leave the hemisphere")
                return math.sqrt(s) * p + basis @ x

            def inv_jac(x, p=p, basis=basis):
                x = _as_float_array(x)
                s = 1.0 - float(x @ x)
                return basis - np.outer(p, x) / math.sqrt(s)

            def fwd_jac(q, basis=basis):
                return basis.T.copy()

            return Chart(center=p, dim=self.dim, radius=0.9,
                         forward_fn=fwd, inverse_fn=inv,
                         inverse_jacobian_fn=inv_jac, forward_jacobian_fn=fwd_jac,
                         chart_id=tag)
        if kind == "log":
            def fwd(q, p=p, basis=basis, self=self):
                return basis.T @ self.log_map(p, _as_float_array(q))

            def inv(x, p=p, basis=basis, self=self):
                return self.exp_map(p, basis @ _as_float_array(x))

            def inv_jac(x, p=p, basis=basis):
                return _sphere_exp_jacobian(p, basis, x)

            def fwd_jac(q, p=p, basis=basis):
                q = _as_float_array(q)
                c = float(np.clip(p @ q, -1.0, 1.0))
                s2 = 1.0 - c * c
                if s2 < 1e-16:
                    f = 1.0
                    df = -1.0 / 3.0
                else:
                    theta = math.acos(c)
                    s = math.sqrt(s2)
                    f = theta / s
                    df = (-1.0 + theta * c / s) / s2
                return basis.T @ (df * np.outer(q - c * p, p) + f * (np.eye(p.size) - np.outer(p, p)))

            return Chart(center=p, dim=self.dim, radius=math.pi - 0.1,
                         forward_fn=fwd, inverse_fn=inv,
                         inverse_jacobian_fn=inv_jac, forward_jacobian_fn=fwd_jac,
                         chart_id=tag)
        if kind == "gnomonic":
            def fwd(q, p=p, basis=basis):
                q = _as_float_array(q)
                c = float(p @ q)
                if c <= 1e-9:
                    raise DomainError("gnomonic chart: point outside the open hemisphere")
                return basis.T @ (q / c)

            def inv(x, p=p, basis=basis):
                v = p + basis @ _as_float_array(x)
                return v / np.linalg.norm(v)

            def inv_jac(x, p=p, basis=basis):
                return _sphere_normalized_jacobian(p, basis, x)

            def fwd_jac(q, p=p, basis=basis):
                q = _as_float_array(q)
                c = float(p @ q)
                return basis.T @ (np.eye(p.size) / c - np.outer(q, p) / (c * c))

            return Chart(center=p, dim=self.dim, radius=2.5,
                         forward_fn=fwd, inverse_fn=inv,
                         inverse_jacobian_fn=inv_jac, forward_jacobian_fn=fwd_jac,
                         chart_id=tag)
        # stereographic from the antipode: x = tan(theta/2) * direction
        def fwd(q, p=p, basis=basis):
            q = _as_float_array(q)
            c = float(p @ q)
            if c <= -0.9:
                raise DomainError("stereographic chart: too close to the antipode")
            return basis.T @ (q / (1.0 + c))

        def inv(x, p=p, basis=basis):
            x = _as_float_array(x)
            r2 = float(x @ x)
            return ((1.0 - r2) * p + 2.0 * basis @ x) / (1.0 + r2)

        def inv_jac(x, p=p, basis=basis):
            x = _as_float_array(x)
            r2 = float(x @ x)
            denom = 1.0 + r2
            q = ((1.0 - r2) * p + 2.0 * basis @ x) / denom
            return (-2.0 * np.outer(p, x) + 2.0 * basis - np.outer(q, 2.0 * x)) / denom

        def fwd_jac(q, p=p, basis=basis):
            q = _as_float_array(q)
            c = float(p @ q)
            return basis.T @ (np.eye(p.size) / (1.0 + c) - np.outer(q, p) / (1.0 + c) ** 2)

        return Chart(center=p, dim=self.dim, radius=3.5,
                     forward_fn=fwd, inverse_fn=inv,
                     inverse_jacobian_fn=inv_jac, forward_jacobian_fn=fwd_jac,
                     chart_id=tag)

    def retraction(self, p, kind: str = "default") -> Retraction:
        self._check_kind(kind, self.retraction_kinds, "retraction")
        if kind == "default":
            kind = "exp"
        elif kind == "alt":
            kind = "proj"
        p = _as_float_array(p)
        basis = tangent_basis(p)
        chart = self.chart(p, "proj")
        if kind == "exp":
            return Retraction(
                base=p, chart=chart,
                map_fn=lambda v, p=p, basis=basis, self=self: self.exp_map(p, basis @ _as_float_array(v)),
                domain_radius=math.pi - 1e-2, name="exp",
                differential_fn=lambda v, p=p, basis=basis: _sphere_exp_jacobian(p, basis, v))

        def proj_retract(v, p=p, basis=basis):
            w = p + basis @ _as_float_array(v)
            return w / np.linalg.norm(w)

        return Retraction(base=p, chart=chart, map_fn=proj_retract,
                          domain_radius=1e8, name="proj",
                          differential_fn=lambda v, p=p, basis=basis: (
                              _sphere_normalized_jacobian(p, basis, v)))


class CircleProduct(Manifold):
    """(S^1)^N with per-node angle charts; ambient stores (cos, sin) pairs."""

    chart_kinds = ("default", "alt")
    retraction_kinds = ("exp", "proj", "default", "alt")

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.dim = n_nodes
        self.ambient_dim = 2 * n_nodes
        self.name = f"(S^1)^{n_nodes}"

    @staticmethod
    def _angles(p: np.ndarray) -> np.ndarray:
        p = _as_float_array(p).reshape(-1, 2)
        return np.arctan2(p[:, 1], p[:, 0])

    @staticmethod
    def _from_angles(theta: np.ndarray) -> np.ndarray:
        return np.column_stack([np.cos(theta), np.sin(theta)]).ravel()

    def is_point(self, p, tol: float = 1e-9) -> bool:
        p = _as_float_array(p)
        if p.shape != (self.ambient_dim,):
            return False
        norms = np.linalg.norm(p.reshape(-1, 2), axis=1)
        return bool(np.all(np.abs(norms - 1.0) <= tol))

    def random_point(self, rng) -> np.ndarray:
        return self._from_angles(rng.uniform(-math.pi, math.pi, self.n_nodes))

    def distance(self, p, q) -> float:
        d = self._angles(p) - self._angles(q)
        d = (d + math.pi) % (2.0 * math.pi) - math.pi
        return float(np.linalg.norm(d))

    def project(self, ambient) -> np.ndarray:
        pairs = _as_float_array(ambient).reshape(-1, 2)
        return (pairs / np.linalg.norm(pairs, axis=1, keepdims=True)).ravel()

    def chart(self, p, kind: str = "default") -> Chart:
        self._check_kind(kind, self.chart_kinds, "chart")
        theta0 = self._angles(p)
        scale = 1.0 if kind == "default" else 0.5

        def fwd(q, theta0=theta0, scale=scale, self=self):
            d = self._angles(q) - theta0
            d = (d + math.pi) % (2.0 * math.pi) - math.pi
            return scale * d

        def inv(x, theta0=theta0, scale=scale, self=self):
            return self._from_angles(theta0 + _as_float_array(x) / scale)

        def inv_jac(x, theta0=theta0, scale=scale):
            theta = theta0 + _as_float_array(x) / scale
            jac = np.zeros((self.ambient_dim, self.dim))
            for i, t in enumerate(theta):
                jac[2 * i, i] = -math.sin(t) / scale
                jac[2 * i + 1, i] = math.cos(t) / scale
            return jac

        def fwd_jac(q, scale=scale, self=self):
            q = _as_float_array(q).reshape(-1, 2)
            jac = np.zeros((self.dim, self.ambient_dim))
            for i, (c, s) in enumerate(q):
                r2 = c * c + s * s
                jac[i, 2 * i] = -s / r2 * scale
                jac[i, 2 * i + 1] = c / r2 * scale
            return jac

        return Chart(center=_as_float_array(p), dim=self.dim, radius=math.pi * 0.9 * scale,
                     forward_fn=fwd, inverse_fn=inv,
                     inverse_jacobian_fn=inv_jac, forward_jacobian_fn=fwd_jac,
                     chart_id=f"{self.name}:{kind}@{_point_tag(p)}")

    def retraction(self, p, kind: str = "default") -> Retraction:
        self._check_kind(kind, self.retraction_kinds, "retraction")
        if kind == "default":
            kind = "exp"
        elif kind == "alt":
            kind = "proj"
        theta0 = self._angles(p)
        chart = self.chart(p, "default")
        if kind == "exp":
            # the default chart's inverse is this same map
            return Retraction(
                base=_as_float_array(p), chart=chart,
                map_fn=lambda v, theta0=theta0, self=self: self._from_angles(theta0 + _as_float_array(v)),
                domain_radius=math.pi * 0.9, name="exp",
                differential_fn=chart.inverse_jacobian_fn)

        def proj_map(v, theta0=theta0, self=self):
            # per-node projection retraction: theta0 + arctan(v)
            return self._from_angles(theta0 + np.arctan(_as_float_array(v)))

        def proj_jac(v, chart=chart):
            v = _as_float_array(v)
            return chart.inverse_jacobian_fn(np.arctan(v)) / (1.0 + v * v)

        return Retraction(base=_as_float_array(p), chart=chart, map_fn=proj_map,
                          domain_radius=10.0, name="proj", differential_fn=proj_jac)


class CircleCotangent(Manifold):
    """The cotangent bundle of (S^1)^N, trivialized as (S^1 x R)^N.

    Ambient layout per node: (cos, sin, w) where ``w`` is the coefficient of
    the angular covector basis.
    """

    chart_kinds = ("default", "alt")
    retraction_kinds = ("default", "alt")

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.dim = 2 * n_nodes
        self.ambient_dim = 3 * n_nodes
        self.name = f"T*(S^1)^{n_nodes}"

    def split(self, q: np.ndarray):
        q = _as_float_array(q).reshape(-1, 3)
        base = q[:, :2].ravel()
        fibre = q[:, 2].copy()
        return base, fibre

    def join(self, base: np.ndarray, fibre: np.ndarray) -> np.ndarray:
        out = np.zeros((self.n_nodes, 3))
        out[:, :2] = _as_float_array(base).reshape(-1, 2)
        out[:, 2] = fibre
        return out.ravel()

    def is_point(self, q, tol: float = 1e-9) -> bool:
        q = _as_float_array(q)
        if q.shape != (self.ambient_dim,):
            return False
        base, _ = self.split(q)
        norms = np.linalg.norm(base.reshape(-1, 2), axis=1)
        return bool(np.all(np.abs(norms - 1.0) <= tol))

    def random_point(self, rng) -> np.ndarray:
        circ = CircleProduct(self.n_nodes)
        return self.join(circ.random_point(rng), rng.standard_normal(self.n_nodes))

    def project(self, ambient) -> np.ndarray:
        base, fibre = self.split(ambient)
        pairs = base.reshape(-1, 2)
        base = (pairs / np.linalg.norm(pairs, axis=1, keepdims=True)).ravel()
        return self.join(base, fibre)

    def chart(self, q, kind: str = "default") -> Chart:
        self._check_kind(kind, self.chart_kinds, "chart")
        base0, fibre0 = self.split(q)
        theta0 = CircleProduct._angles(base0)
        scale = 1.0 if kind == "default" else 2.0
        n = self.n_nodes

        def fwd(qq, theta0=theta0, fibre0=fibre0, scale=scale, self=self):
            b, w = self.split(qq)
            d = CircleProduct._angles(b) - theta0
            d = (d + math.pi) % (2.0 * math.pi) - math.pi
            return np.concatenate([d, scale * (w - fibre0)])

        def inv(x, theta0=theta0, fibre0=fibre0, scale=scale, self=self):
            x = _as_float_array(x)
            theta = theta0 + x[:n]
            w = fibre0 + x[n:] / scale
            return self.join(CircleProduct._from_angles(theta), w)

        return Chart(center=_as_float_array(q), dim=self.dim, radius=math.pi * 0.9,
                     forward_fn=fwd, inverse_fn=inv,
                     chart_id=f"{self.name}:{kind}@{_point_tag(q)}")

    def retraction(self, q, kind: str = "default") -> Retraction:
        self._check_kind(kind, self.retraction_kinds, "retraction")
        del kind  # single retraction; "alt" aliases it for product manifolds
        chart = self.chart(q, "default")
        return Retraction(base=_as_float_array(q), chart=chart,
                          map_fn=lambda v: chart.inverse(v),
                          domain_radius=chart.radius, name="chart")


class Product(Manifold):
    """Cartesian product of manifolds, points stored as concatenated ambients."""

    def __init__(self, *factors: Manifold):
        self.factors = tuple(factors)
        self.dim = sum(f.dim for f in factors)
        self.ambient_dim = sum(f.ambient_dim for f in factors)
        self.name = " x ".join(f.name for f in factors)
        self._amb_slices = []
        self._dim_slices = []
        a = d = 0
        for f in factors:
            self._amb_slices.append(slice(a, a + f.ambient_dim))
            self._dim_slices.append(slice(d, d + f.dim))
            a += f.ambient_dim
            d += f.dim
        self.chart_kinds = tuple(sorted(set.intersection(*(set(f.chart_kinds) for f in factors))))
        self.retraction_kinds = tuple(sorted(set.intersection(*(set(f.retraction_kinds) for f in factors))))

    def parts(self, p: np.ndarray):
        p = _as_float_array(p)
        return [p[s] for s in self._amb_slices]

    def join(self, parts) -> np.ndarray:
        return np.concatenate([_as_float_array(x) for x in parts])

    def is_point(self, p, tol: float = 1e-9) -> bool:
        p = _as_float_array(p)
        if p.shape != (self.ambient_dim,):
            return False
        return all(f.is_point(x, tol) for f, x in zip(self.factors, self.parts(p)))

    def random_point(self, rng) -> np.ndarray:
        return self.join([f.random_point(rng) for f in self.factors])

    def distance(self, p, q) -> float:
        return math.sqrt(sum(f.distance(a, b) ** 2 for f, a, b in
                             zip(self.factors, self.parts(p), self.parts(q))))

    def project(self, ambient) -> np.ndarray:
        return self.join([f.project(x) for f, x in
                          zip(self.factors, self.parts(ambient))])

    def chart(self, p, kind: str = "default") -> Chart:
        charts = [f.chart(x, kind) for f, x in zip(self.factors, self.parts(p))]
        radius = min(c.radius for c in charts)
        dim_slices = self._dim_slices

        def fwd(q, charts=charts, self=self):
            return np.concatenate([c.forward_fn(x) for c, x in zip(charts, self.parts(q))])

        def inv(x, charts=charts, dim_slices=dim_slices):
            x = _as_float_array(x)
            return np.concatenate([c.inverse_fn(x[s]) for c, s in zip(charts, dim_slices)])

        inv_jac = None
        if all(c.inverse_jacobian_fn is not None for c in charts):
            def inv_jac(x, charts=charts, dim_slices=dim_slices, self=self):
                x = _as_float_array(x)
                out = np.zeros((self.ambient_dim, self.dim))
                for c, ds, As in zip(charts, dim_slices, self._amb_slices):
                    out[As, ds] = c.inverse_jacobian_fn(x[ds])
                return out

        fwd_jac = None
        if all(c.forward_jacobian_fn is not None for c in charts):
            def fwd_jac(q, charts=charts, self=self):
                out = np.zeros((self.dim, self.ambient_dim))
                for c, ds, As, qq in zip(charts, self._dim_slices, self._amb_slices, self.parts(q)):
                    out[ds, As] = c.forward_jacobian_fn(qq)
                return out

        return Chart(center=_as_float_array(p), dim=self.dim, radius=radius,
                     forward_fn=fwd, inverse_fn=inv,
                     inverse_jacobian_fn=inv_jac, forward_jacobian_fn=fwd_jac,
                     chart_id=" x ".join(c.chart_id for c in charts))

    def retraction(self, p, kind: str = "default") -> Retraction:
        rets = [f.retraction(x, kind) for f, x in zip(self.factors, self.parts(p))]
        chart = self.chart(p, "default")
        dim_slices = self._dim_slices

        def mapped(v, rets=rets, dim_slices=dim_slices):
            v = _as_float_array(v)
            return np.concatenate([r.map_fn(v[s]) for r, s in zip(rets, dim_slices)])

        def mapped_jac(v, rets=rets, dim_slices=dim_slices, self=self):
            v = _as_float_array(v)
            out = np.zeros((self.ambient_dim, self.dim))
            for r, ds, As in zip(rets, dim_slices, self._amb_slices):
                out[As, ds] = r.differential(v[ds])
            return out

        return Retraction(base=_as_float_array(p), chart=chart, map_fn=mapped,
                          domain_radius=min(r.domain_radius for r in rets),
                          name="+".join(r.name for r in rets),
                          differential_fn=mapped_jac)
