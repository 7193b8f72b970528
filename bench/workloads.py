"""The benchmark's workloads: inputs built from a seed, the ops, their checks.

An op is one call a user of corneropt would make: ``solve()`` on a model
from a start point, or ``corneropt certify`` through ``corneropt.cli.main``.
Each op is timed on its own and then classified, outside the timed region,
into an outcome:

* ``converged`` / ``ok`` -- the call succeeded and its answer passed the
  independent check (``ok`` is the certify counterpart of ``converged``);
* ``max_iter`` / ``breakdown`` -- the solver's own non-success status;
* ``exception:<Type>`` -- the call raised;
* ``wrong`` -- the call claimed success but its answer failed the check, or
  a certify report had the wrong exit code, a wrong verdict, or differed
  from the report rendered for the same input during set-up.

Every outcome other than ``converged``/``ok`` is a failed op.  Starts are
never filtered: a start on which the solver fails is counted, not redrawn.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from corneropt import cli, firstorder, models, solver
from corneropt.errors import CornerOptError
from corneropt.geometry import CircleProduct

SUCCESS = ("converged", "ok")
TOL_POINT = 1e-6       # distance to a planted or adjoint reference point
TOL_REDUCED = 1e-6     # reduced-gradient and state-equation residuals
TOL_CURV = 1e-8        # matches the sosc/sonc tolerance of the CLI


def _identity(prob):
    return prob


def _csv(point) -> str:
    return ",".join(repr(float(x)) for x in point)


def _min_eig(mat) -> float:
    if mat.size == 0:
        return math.inf
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])


def _null_basis(rows: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of ``{v : rows v = 0}`` by a plain SVD."""
    if rows.shape[0] == 0:
        return np.eye(dim)
    _, svals, vt = np.linalg.svd(rows)
    rank = int(np.sum(svals > 1e-10 * max(1.0, svals[0])))
    return vt[rank:].T


class Op:
    """One timed call plus its check."""

    kind = ""
    reason = ""

    def execute(self, prepare=_identity):
        raise NotImplementedError

    def classify(self, result, exc) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# solve ops
# ---------------------------------------------------------------------------

class SolveOp(Op):
    """``solver.solve(prob, start, options)``; ``check(point)`` returns a
    failure reason or ``""``."""

    def __init__(self, kind, prob, start, mode, check):
        self.kind = f"{kind}/{mode}"
        self.prob = prob
        self.start = np.array(start, dtype=float)
        self.options = solver.SolveOptions(hessian_mode=mode)
        self.check = check

    def execute(self, prepare=_identity):
        return solver.solve(prepare(self.prob), self.start.copy(), self.options)

    def classify(self, result, exc) -> str:
        if exc is not None:
            self.reason = f"{type(exc).__name__}: {exc}"
            return f"exception:{type(exc).__name__}"
        if result.status != "converged":
            self.reason = result.message
            return result.status
        self.reason = self.check(result.point)
        return "wrong" if self.reason else "converged"


def near_reference(reference):
    def check(point):
        dist = float(np.linalg.norm(point - reference))
        return f"{dist:.3e} from the reference point" if dist > TOL_POINT else ""
    return check


def kkt_certified(prob):
    def check(point):
        try:
            firstorder.solve_kkt(prob, point)
        except CornerOptError as err:
            return f"solve_kkt rejects the returned point: {type(err).__name__}: {err}"
        return ""
    return check


def control_reduced_check(prob):
    """Stationarity of the reduced control problem, recomputed by hand.

    On ``{Q y + beta y^3 = u}`` the objective reduces to
    ``F(y) = |y - y_d|^2 / 2 + alpha |Q y + beta y^3|^2 / 2`` with gradient
    ``(y - y_d) + alpha M^T u``, ``M = Q + 3 beta diag(y^2)``.
    """
    ex = prob.extras
    n, q_mat, beta, alpha, y_target = (ex["n_nodes"], ex["q_mat"], ex["beta"],
                                       ex["alpha"], ex["y_target"])
    certified = kkt_certified(prob)

    def check(point):
        y, u = point[:n], point[n:]
        state = q_mat @ y + beta * y ** 3
        resid = float(np.max(np.abs(state - u)))
        if resid > TOL_REDUCED:
            return f"state equation residual {resid:.3e}"
        m_mat = q_mat + 3.0 * beta * np.diag(y ** 2)
        grad = (y - y_target) + alpha * m_mat.T @ state
        gnorm = float(np.linalg.norm(grad))
        if gnorm > TOL_REDUCED * (1.0 + float(np.linalg.norm(y_target))):
            return f"reduced gradient {gnorm:.3e}"
        return certified(point)
    return check


# ---------------------------------------------------------------------------
# certify ops
# ---------------------------------------------------------------------------

class CertifyOp(Op):
    """``corneropt certify --config=<cfg> --point=<csv> --output=json``.

    The point is passed as ``--point=<csv>``: with ``--point <csv>`` argparse
    reads a leading minus sign as an option and exits 3.  ``prepare`` is not
    used: a traced run instruments the model the CLI builds itself.
    """

    def __init__(self, kind, config_path, point, cli_seed, expected):
        self.kind = kind
        self.argv = ["certify", f"--config={config_path}", f"--point={_csv(point)}",
                     "--output=json", f"--seed={cli_seed}"]
        self.expected = expected
        self.reference = None

    def execute(self, prepare=_identity):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def classify(self, result, exc) -> str:
        if exc is not None:
            self.reason = f"{type(exc).__name__}: {exc}"
            return f"exception:{type(exc).__name__}"
        self.reason = self._verify(*result)
        return "wrong" if self.reason else "ok"

    def _verify(self, code, text, err) -> str:
        exp = self.expected
        if code != exp["exit"]:
            return f"exit {code}, expected {exp['exit']} {err.strip()[:120]}"
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            return "report differs from the first rendering of the same input"
        report = json.loads(text)
        if not report.get("feasible") or not report.get("kkt", {}).get("holds"):
            return "point not reported feasible and KKT"
        for check in ("sosc", "sonc"):
            status = report.get(check, {}).get("status")
            if status != exp[check]:
                return f"{check} {status}, expected {exp[check]}"
        if not report.get("invariance", {}).get("passed"):
            return "invariance section did not pass"
        return ""


def _verdicts(min_curvature: float) -> dict:
    """Expected certify outcome from the least curvature on the critical cone."""
    sosc = "holds" if min_curvature > TOL_CURV else "fails"
    sonc = "holds" if min_curvature >= -TOL_CURV else "fails"
    return {"sosc": sosc, "sonc": sonc, "exit": 0 if sonc == "holds" else 1}


def classical_curvature(prob) -> float:
    """Least eigenvalue of the planted quadratic on the planted critical cone.

    Every planted multiplier is at least 0.2, so the critical cone is the
    null space of the active and equality rows of the affine constraint.
    """
    ref = prob.extras["reference"]
    x_star = ref["point"]
    rows = np.asarray(prob.constraint_jac_ambient(x_star), dtype=float)
    keep = list(ref["active_set"]) + list(prob.extras["classical"]["eq_idx"])
    basis = _null_basis(rows[keep], x_star.size)
    return _min_eig(basis.T @ prob.extras["quad"] @ basis)


def control_curvature(prob, point) -> float:
    """Least eigenvalue of the reduced Hessian of the Euclidean control model:
    ``I + alpha (M^T M + 6 beta diag(u * y))``."""
    ex = prob.extras
    n, q_mat, beta, alpha = ex["n_nodes"], ex["q_mat"], ex["beta"], ex["alpha"]
    y = point[:n]
    u = q_mat @ y + beta * y ** 3
    m_mat = q_mat + 3.0 * beta * np.diag(y ** 2)
    return _min_eig(np.eye(n) + alpha * (m_mat.T @ m_mat + 6.0 * beta * np.diag(u * y)))


def circle_curvature(params: dict, point) -> float:
    """Least eigenvalue of the reduced circle-chain objective, by central
    differences in the angles.

    The zero-section constraint fixes ``u_i = k (sin(t_i - t_{i-1})
    + sin(t_i - t_{i+1})) / cos(t_i)``, leaving
    ``F(t) = sum(1 - cos(t - t_d)) + alpha |u(t)|^2 / 2``.
    """
    opts = {**models.CONTROL_DEFAULTS, **params}
    n = int(opts["n_nodes"])
    kappa, alpha = float(opts["stiffness"]), float(opts["alpha"])
    t_target = 0.4 * float(opts["target_amplitude"]) * np.sin(
        2.0 * math.pi * np.arange(1, n + 1) / (n + 1))

    def reduced(theta):
        padded = np.concatenate([[0.0], theta, [0.0]])
        u = kappa * (np.sin(padded[1:-1] - padded[:-2])
                     + np.sin(padded[1:-1] - padded[2:])) / np.cos(theta)
        return float(np.sum(1.0 - np.cos(theta - t_target))) + 0.5 * alpha * float(u @ u)

    theta0 = CircleProduct._angles(point[:2 * n])
    h = 1e-4
    hess = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            hess[i, j] = (reduced(theta0 + ei + ej) - reduced(theta0 + ei - ej)
                          - reduced(theta0 - ei + ej) + reduced(theta0 - ei - ej)) / (4 * h * h)
    return _min_eig(hess)


def sphere_curvature(prob, point) -> float:
    """``f = -<p, t>`` restricted to S^2 has Riemannian Hessian ``<p, t> I``."""
    target = -np.asarray(prob.objective_grad_ambient(point), dtype=float)
    return float(point @ target)


def diagonal_curvature(angle: float) -> float:
    """At the pole the linearized constraint ``(R - I) v = 0`` has only
    ``v = 0`` when ``det`` of its planar block is nonzero: the critical cone is
    ``{0}`` and both conditions hold.  Returns ``+inf`` then, ``0`` otherwise."""
    det = 2.0 - 2.0 * math.cos(angle)
    return math.inf if det > 1e-12 else 0.0


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Inputs from ``seed``; ``setup()`` builds models and runs one warm-up op
    of each kind; ``rounds()`` is the endless stream of rounds (lists of
    ops) a timed run walks in whole passes, and ``trace_ops()`` the fixed
    prefix a traced run executes."""

    name = ""
    trace_rounds = 1
    # rounds in one pass over the inputs; a timed run is whole passes
    pass_rounds = 1
    # seconds one round takes at the reference pace: a 2-core x86-64 VM,
    # BLAS on one thread, corneropt as of the benchmark's first version
    round_s = 1.0

    @staticmethod
    def dominant_layer(m) -> tuple:
        """``(description, holds)`` for the layer this workload is meant to
        stress, from the per-layer metric values ``m`` of a traced run."""
        raise NotImplementedError

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int, rng) -> list:
        raise NotImplementedError

    def rounds(self):
        """The endless sequence of rounds (lists of ops) of this seed."""
        rng = np.random.default_rng([self.seed, 1])
        index = 0
        while True:
            yield self.round(index, rng)
            index += 1

    def timed_passes(self, seconds: int) -> int:
        """Whole passes whose reference time is closest to ``seconds``."""
        return max(1, round(seconds / (self.round_s * self.pass_rounds)))

    def trace_ops(self) -> list:
        return [op for ops in itertools.islice(self.rounds(), self.trace_rounds)
                for op in ops]

    @staticmethod
    def warm_up(ops) -> None:
        for op in ops:
            try:
                result, exc = op.execute(), None
            except Exception as err:  # classified like any op
                result, exc = None, err
            op.classify(result, exc)


class SolveControl(Workload):
    """``solve()`` on the Euclidean control model, default ``fd-lagrangian``.

    One round holds the four configurations in the ratio 2:2:1:1 for
    ``(20, 0)``, ``(20, 0.5)``, ``(40, 0)``, ``(40, 0.5)`` (``n_nodes``,
    ``beta``), which keeps the median inside the ``n_nodes=20, beta=0.5``
    group and the 90th percentile inside the ``n_nodes=40, beta=0.5`` group.
    """

    name = "solve-control"
    trace_rounds = 2
    round_s = 1.97

    @staticmethod
    def dominant_layer(m):
        share = m["solver.self_f_evals"] / max(m["problem.f_evals"], 1.0)
        return f"solver.self_f_evals / problem.f_evals = {share:.4f} (>= 0.9)", share >= 0.9

    ORDER = ((20, 0.0), (40, 0.0), (20, 0.5), (20, 0.0), (40, 0.5), (20, 0.5))

    def setup(self):
        self.models = {}
        for n, beta in set(self.ORDER):
            prob = models.build_model("control-model", {"n_nodes": n, "beta": beta})
            check = near_reference(prob.extras["reference"]["point"]) if beta == 0.0 \
                else control_reduced_check(prob)
            self.models[(n, beta)] = (prob, check)
        rng = np.random.default_rng(0)
        self.warm_up(self._op(key, rng) for key in sorted(self.models))

    def _op(self, key, rng):
        prob, check = self.models[key]
        start = 0.3 * rng.standard_normal(prob.domain.ambient_dim)
        return SolveOp(f"control-n{key[0]}-beta{key[1]:g}", prob, start,
                       "fd-lagrangian", check)

    def round(self, index, rng):
        return [self._op(key, rng) for key in self.ORDER]


class CertifySweep(Workload):
    """``corneropt certify --output json`` on certified points of every model.

    The points are those of the acceptance suite's built-in certified set,
    with ``control-model`` at ``n_nodes=6``; the sweep adds two indefinite
    ``classical-nlp`` saddles (one where SONC fails with exit 1, one where the
    critical cone misses the negative directions and SONC holds) and
    ``control-model`` with ``beta=0.4``.  The inputs are fixed; the seed draws
    each input's ``--seed``, which drives the CLI's sampling.  A round is the
    nine inputs: with an odd count the median falls inside one input's
    block of latencies instead of on the edge between two.
    """

    name = "certify-sweep"
    trace_rounds = 5
    round_s = 0.55

    @staticmethod
    def dominant_layer(m):
        # invariance_ms is left out: it encloses 12 of the 13 Hessians
        others = {k: v for k, v in m.items() if k.endswith("_ms")
                  and k not in ("secondorder.hessian_ms", "secondorder.invariance_ms")}
        top = max(others, key=others.get)
        return (f"secondorder.hessian_ms = {m['secondorder.hessian_ms']:.2f} ms/op, "
                f"next {top} = {others[top]:.2f} ms/op",
                m["secondorder.hessian_ms"] > others[top])

    def setup(self):
        rng = np.random.default_rng([self.seed, 0])
        self.workdir.mkdir(parents=True, exist_ok=True)
        inputs = []

        def add(kind, params, point, curvature):
            params = dict(params)
            name = params.pop("model")
            path = self.workdir / f"{kind}.cfg"
            lines = [f"model.name = {json.dumps(name)}"]
            lines += [f"model.params.{k} = {json.dumps(v)}" for k, v in params.items()]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            inputs.append((kind, path, np.asarray(point, dtype=float),
                           int(rng.integers(0, 10 ** 6)), _verdicts(curvature)))

        for kind, params in (
                ("classical-convex", {"seed": 14}),
                # planted saddle whose critical cone misses the negative
                # directions: SONC holds although the curvature is indefinite
                ("classical-indefinite-m3", {"seed": 5, "curvature": "indefinite"}),
                # m = 6 with diag(+1, -1, ...) has three negative directions and
                # at most two constraint rows: SONC fails at the planted point
                ("classical-indefinite-m6", {"seed": 5, "curvature": "indefinite",
                                             "m": 6, "n_ineq": 2, "n_eq": 0})):
            prob = models.build_model("classical-nlp", params)
            add(kind, {"model": "classical-nlp", **params},
                prob.extras["reference"]["point"], classical_curvature(prob))

        prob = models.build_model("sphere-polygon")
        point = prob.extras["reference"]["point"]
        add("sphere-polygon", {"model": "sphere-polygon"}, point,
            sphere_curvature(prob, point))
        # the worked example: the pulled-back Hessian of the identity map is 0
        # on the critical cone {v_1 = 0}, so SOSC fails and SONC holds
        add("remark-counterexample", {"model": "remark-counterexample"},
            np.zeros(2), 0.0)
        add("diagonal-constraint",
            {"model": "diagonal-constraint", "variant": "rotation", "angle": 0.7},
            np.array([0.0, 0.0, 1.0]), diagonal_curvature(0.7))

        base = models.build_model("control-model", {"n_nodes": 6})
        point = base.extras["reference"]["point"]
        add("control-n6", {"model": "control-model", "n_nodes": 6}, point,
            control_curvature(base, point))
        prob = models.build_model("control-model", {"n_nodes": 6, "beta": 0.4})
        result = solver.solve(prob, point)
        if result.status != "converged":
            raise RuntimeError(f"control-model beta=0.4 input: solve {result.status}")
        add("control-n6-beta0.4",
            {"model": "control-model", "n_nodes": 6, "beta": 0.4}, result.point,
            control_curvature(prob, result.point))

        circle = {"n_nodes": 3, "variant": "circle"}
        prob = models.build_model("control-model", circle)
        theta = 0.2 * np.random.default_rng(0).standard_normal(3)
        padded = np.concatenate([[0.0], theta, [0.0]])
        u = (np.sin(padded[1:-1] - padded[:-2])
             + np.sin(padded[1:-1] - padded[2:])) / np.cos(theta)
        start = np.concatenate([CircleProduct._from_angles(theta), u])
        result = solver.solve(prob, start, solver.SolveOptions(max_iter=80))
        if result.status != "converged":
            raise RuntimeError(f"circle control-model input: solve {result.status}")
        add("control-circle-n3", {"model": "control-model", **circle},
            result.point, circle_curvature(circle, result.point))

        self.ops_round = [CertifyOp(*item) for item in inputs]
        # first rendering: the reference every later report must equal
        self.warm_up(self.ops_round)

    def round(self, index, rng):
        return self.ops_round


class SolveSmall(Workload):
    """``solve()`` on small random instances of every solvable model family.

    A round holds two ``classical-nlp`` instances (m 4-10, 2-8 inequality
    rows, 0-2 equality rows; the shapes cycle through a fixed 21-step
    pattern) and one random and one near-planted start each for
    ``sphere-polygon`` and ``diagonal-constraint``; every other round adds
    one start of the circle ``control-model`` (``n_nodes`` 3 and 6 in turn).
    Starts come unfiltered from ``domain.random_point`` or from the planted
    point plus noise, and each start runs in both ``fd-lagrangian`` and
    ``bfgs`` modes.

    The inputs are a fixed corpus: ``CORPUS_ROUNDS`` rounds (round ``i`` is
    drawn from the generator ``[CORPUS_SEED, i]``) walked in an order the
    seed sets, and ``CIRCLE_STARTS`` circle starts walked in a fixed order.
    Solve times of random instances have a long continuous tail (iteration
    limits and breakdowns take 10-1000x a typical solve, a circle start up to
    1 s), so runs that each drew their own instances disagreed by up to 25%
    on the 90th percentile and 7% on throughput.
    """

    name = "solve-small"
    trace_rounds = 16

    @staticmethod
    def dominant_layer(m):
        qp_lp = m["solver.qp_ms"] + m["cones.lp_ms"]
        return (f"solver.qp_ms + cones.lp_ms = {qp_lp:.2f} ms/op, "
                f"solver.self_ms = {m['solver.self_ms']:.2f} ms/op",
                qp_lp > m["solver.self_ms"])
    MODES = ("fd-lagrangian", "bfgs")
    CORPUS_SEED = 20240817
    CORPUS_ROUNDS = 64
    CIRCLE_STARTS = 32
    # a pass walks every round and every circle start once, so each pass
    # runs the same 1088 ops and fails on the same ones, whatever the seed
    pass_rounds = CORPUS_ROUNDS
    round_s = 0.294

    def setup(self):
        self.sphere = models.build_model("sphere-polygon")
        self.diagonal = models.build_model("diagonal-constraint")
        self.circles = {n: models.build_model("control-model",
                                              {"n_nodes": n, "variant": "circle"})
                        for n in (3, 6)}
        self.checks = {id(p): kkt_certified(p) for p in
                       (self.sphere, self.diagonal, *self.circles.values())}
        rng = np.random.default_rng(0)
        prob = models.build_model("classical-nlp",
                                  {"m": 6, "n_ineq": 4, "n_eq": 1, "seed": 3})
        x_star = prob.extras["reference"]["point"]
        warm = self._both("classical", prob, x_star + 0.3 * rng.standard_normal(6),
                          near_reference(x_star))
        warm += self._both("sphere-near", self.sphere, self._near(
            self.sphere.extras["reference"]["point"], rng),
            self.checks[id(self.sphere)])
        warm += self._both("diagonal-near", self.diagonal,
                           self._near(np.array([0.0, 0.0, 1.0]), rng),
                           self.checks[id(self.diagonal)])
        circle = self.circles[3]
        warm += self._both("circle-n3", circle, circle.domain.random_point(rng),
                           self.checks[id(circle)])
        self.warm_up(warm)

    @staticmethod
    def _near(point, rng):
        q = point + 0.2 * rng.standard_normal(point.size)
        return q / np.linalg.norm(q)

    def _both(self, kind, prob, start, check):
        return [SolveOp(kind, prob, start, mode, check) for mode in self.MODES]

    def rounds(self):
        order = np.random.default_rng([self.seed, 1]).permutation(self.CORPUS_ROUNDS)
        for position in itertools.count():
            index = int(order[position % self.CORPUS_ROUNDS])
            ops = self.round(index, np.random.default_rng([self.CORPUS_SEED, index]))
            if position % 2 == 0:
                ops += self.circle_ops(position // 2 % self.CIRCLE_STARTS)
            yield ops

    def round(self, index, rng):
        ops = []
        for k in (2 * index, 2 * index + 1):
            params = {"m": 4 + k % 7, "n_ineq": 2 + (3 * k) % 7, "n_eq": k % 3,
                      "seed": int(rng.integers(10 ** 9))}
            prob = models.build_model("classical-nlp", params)
            x_star = prob.extras["reference"]["point"]
            check = near_reference(x_star)
            ops += self._both("classical-random", prob, prob.domain.random_point(rng), check)
            ops += self._both("classical-near", prob,
                              x_star + 0.3 * rng.standard_normal(x_star.size), check)
        for kind, prob, planted in (
                ("sphere", self.sphere, self.sphere.extras["reference"]["point"]),
                ("diagonal", self.diagonal, np.array([0.0, 0.0, 1.0]))):
            check = self.checks[id(prob)]
            ops += self._both(f"{kind}-random", prob, prob.domain.random_point(rng), check)
            ops += self._both(f"{kind}-near", prob, self._near(planted, rng), check)
        return ops

    def circle_ops(self, index):
        circle = self.circles[3 if index % 2 == 0 else 6]
        rng = np.random.default_rng([self.CORPUS_SEED, self.CORPUS_ROUNDS + index])
        return self._both(f"circle-n{circle.extras['n_nodes']}-random", circle,
                          circle.domain.random_point(rng), self.checks[id(circle)])


WORKLOADS = {cls.name: cls for cls in (SolveControl, CertifySweep, SolveSmall)}
