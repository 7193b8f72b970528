"""Golden ``--output json`` reports of ``corneropt certify``, ``invariance``
and ``solve``.

``PYTHONPATH=src python tests/golden/regen.py`` rewrites the ``*.json`` files
in this directory from the current code; ``tests/test_golden.py`` renders the
same cases and requires the same bytes.  Rewrite them only in a change that
means to alter the reports, and say so there.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from corneropt import cli
from corneropt.models import build_model

GOLDEN_DIR = Path(__file__).resolve().parent

SADDLE_M6 = {"seed": 5, "curvature": "indefinite", "m": 6, "n_ineq": 2, "n_eq": 0}
SADDLE_M3 = {"seed": 5, "curvature": "indefinite"}
DIAGONAL = {"variant": "rotation", "angle": 0.7}
CONTROL_BETA = {"n_nodes": 6, "beta": 0.4}
CONTROL_CIRCLE = {"n_nodes": 3, "variant": "circle"}
CLASSICAL_M6 = {"m": 6, "n_ineq": 4, "n_eq": 1, "seed": 3}

# Solved points, written out so that a change to the solver cannot move them:
# ``solve`` on CONTROL_BETA from the beta = 0 reference point, and ``solve``
# (``max_iter=80``) on CONTROL_CIRCLE from the angles
# ``0.2 * default_rng(0).standard_normal(3)`` with the controls that zero the
# fibre force.
CONTROL_BETA_POINT = [
    0.4248204126262628, 0.5223896202668672, 0.24064166320819838,
    -0.24064166320819835, -0.5223896202668672, -0.42482041262626274,
    0.3579185458684118, 0.4363393173594816, 0.20510943980307741,
    -0.20510943980307744, -0.43633931735948167, -0.3579185458684117]
CONTROL_CIRCLE_POINT = [
    0.9969298239773566, 0.07830023029644738, 1.0, 2.5169682615943848e-12,
    0.9969298239770096, -0.07830023030086605, 0.15708273222844552,
    9.43839758723102e-12, -0.1570827322423772]


def _near(center, scale, unit=False):
    """Start ``center + scale * default_rng(0).standard_normal``, normalised
    when ``unit``; a ``center`` of None is the model's reference point."""
    def start(prob):
        base = prob.extras["reference"]["point"] if center is None else center
        point = np.asarray(base, dtype=float) \
            + scale * np.random.default_rng(0).standard_normal(len(base))
        return point / np.linalg.norm(point) if unit else point
    return start


def _random_start(scale):
    return lambda prob: scale * prob.domain.random_point(np.random.default_rng(0))


# name -> (command, model, params, point, solver options, exit code); a point
# of None is the model's reference point, a callable maps the model to one
CASES = {
    "certify-remark-counterexample":
        ("certify", "remark-counterexample", {}, [0.0, 0.0], {}, cli.EXIT_OK),
    "certify-sphere-polygon":
        ("certify", "sphere-polygon", {}, None, {}, cli.EXIT_OK),
    "certify-classical-nlp-seed14":
        ("certify", "classical-nlp", {"seed": 14}, None, {}, cli.EXIT_OK),
    "certify-control-model-n6":
        ("certify", "control-model", {"n_nodes": 6}, None, {}, cli.EXIT_OK),
    # SONC fails at this planted saddle
    "certify-classical-nlp-saddle-m6":
        ("certify", "classical-nlp", SADDLE_M6, None, {}, cli.EXIT_FAIL),
    # SONC holds: the critical cone misses the negative directions
    "certify-classical-nlp-saddle-m3":
        ("certify", "classical-nlp", SADDLE_M3, None, {}, cli.EXIT_OK),
    "certify-diagonal-constraint-rotation":
        ("certify", "diagonal-constraint", DIAGONAL, [0.0, 0.0, 1.0], {}, cli.EXIT_OK),
    "certify-control-model-n6-beta0.4":
        ("certify", "control-model", CONTROL_BETA, CONTROL_BETA_POINT, {}, cli.EXIT_OK),
    "certify-control-model-circle-n3":
        ("certify", "control-model", CONTROL_CIRCLE, CONTROL_CIRCLE_POINT, {},
         cli.EXIT_OK),
    "invariance-remark-counterexample":
        ("invariance", "remark-counterexample", {}, [0.0, 0.0], {}, cli.EXIT_OK),
}

# solve: every built-in model in both Hessian modes; a golden records what
# the solver does, its known defects included
SOLVE_STARTS = {
    "classical-nlp-seed14": ("classical-nlp", {"seed": 14}, _near(None, 0.3),
                             (cli.EXIT_OK, cli.EXIT_OK)),
    # bfgs stops on a step below tol_step without a certificate, reported
    # as max_iter
    "sphere-polygon": ("sphere-polygon", {}, _near(None, 0.2, unit=True),
                       (cli.EXIT_OK, cli.EXIT_FAIL)),
    "diagonal-constraint": ("diagonal-constraint", {},
                            _near([0.0, 0.0, 1.0], 0.2, unit=True),
                            (cli.EXIT_OK, cli.EXIT_OK)),
    "control-model-n6-beta0.5": ("control-model", {"n_nodes": 6, "beta": 0.5},
                                 _near(np.zeros(12), 0.3), (cli.EXIT_OK, cli.EXIT_OK)),
    "remark-counterexample": ("remark-counterexample", {}, [-0.5, 0.2],
                              (cli.EXIT_OK, cli.EXIT_OK)),
}
CASES.update({
    f"solve-{tag}-{mode}": ("solve", model, params, start, {"hessian_mode": mode}, code)
    for tag, (model, params, start, codes) in SOLVE_STARTS.items()
    for mode, code in zip(("fd-lagrangian", "bfgs"), codes)})
# known failures: no acceptable step after 30 halvings on the circle, and a
# stagnating bfgs run reported as max_iter
CASES["solve-control-model-circle-n6-fd-lagrangian"] = (
    "solve", "control-model", {"n_nodes": 6, "variant": "circle"}, _random_start(1.0),
    {"hessian_mode": "fd-lagrangian"}, cli.EXIT_BREAKDOWN)
CASES["solve-classical-nlp-m6-seed3-bfgs"] = (
    "solve", "classical-nlp", CLASSICAL_M6, _random_start(0.3),
    {"hessian_mode": "bfgs"}, cli.EXIT_FAIL)


def render(name: str, workdir) -> tuple:
    """Exit code and JSON text of ``cli.main`` on case ``name``; the model
    parameters and solver options go through a config file written to
    ``workdir``."""
    command, model, params, point, solver, _ = CASES[name]
    if point is None:
        point = build_model(model, params).extras["reference"]["point"]
    elif callable(point):
        point = point(build_model(model, params))
    cfg = Path(workdir) / f"{name}.cfg"
    lines = [f"model.name = {json.dumps(model)}"]
    lines += [f"model.params.{k} = {json.dumps(v)}" for k, v in params.items()]
    lines += [f"solver.{k} = {json.dumps(v)}" for k, v in solver.items()]
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [command, f"--config={cfg}",
            "--point=" + ",".join(repr(float(x)) for x in point), "--output=json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        for name, case in CASES.items():
            code, text = render(name, workdir)
            if code != case[-1]:
                raise SystemExit(f"{name}: exit {code}, expected {case[-1]}")
            (GOLDEN_DIR / f"{name}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
