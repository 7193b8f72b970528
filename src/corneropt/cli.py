"""Command-line front end.

Subcommands: ``list-models``, ``check``, ``certify``, ``solve``,
``invariance``.  Configuration comes from a flat key--value file with dotted
paths (``model.name``, ``solver.tol_kkt``) and JSON-encoded values, with
command-line flags taking precedence.  Reports are emitted as text or as a
versioned JSON document; identical configuration and seed produce
byte-identical JSON.

Exit codes: 0 success / condition holds, 1 condition fails (no multiplier,
SONC fails, iteration limit), 2 infeasible point, 3 configuration error,
4 solver breakdown.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Optional

import numpy as np

from . import __version__
from .errors import (BadParamsError, ConfigError, CornerOptError,
                     InfeasiblePointError, NoMultiplierError)
from .firstorder import (chart_switch_residual, cone_membership_agreement,
                         cq_report, kkt_certificate)
from .models import MODELS, get_model
from .secondorder import (build_pullback, critical_cone, invariance_check,
                          lagrangian_hessian, sonc_check, sosc_check)
from .solver import SolveOptions, solve

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3
EXIT_BREAKDOWN = 4


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def load_config(path: str) -> dict:
    """Parse a flat dotted-key configuration file with JSON scalar values."""
    tree: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path!r}: {err}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        try:
            parsed = json.loads(value.strip())
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}:{lineno}: invalid JSON value ({err})")
        node = tree
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"{path}:{lineno}: key {key!r} conflicts with a scalar")
        node[parts[-1]] = parsed
    return tree


def _parse_point(text: Optional[str]):
    if text is None:
        return None
    try:
        return np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError as err:
        raise ConfigError(f"cannot parse point {text!r}: {err}")


class RunConfig:
    """Resolved run configuration: model, parameters, point, tolerances."""

    def __init__(self, args):
        tree = load_config(args.config) if args.config else {}
        model_tree = tree.get("model", {})
        self.model_name = args.model or model_tree.get("name")
        if not self.model_name:
            raise ConfigError("no model given (use --model or model.name)")
        if self.model_name not in MODELS:
            raise ConfigError(f"unknown model {self.model_name!r}; "
                              f"known: {sorted(MODELS)}")
        self.params = dict(model_tree.get("params", {}))
        point = tree.get("point")
        self.point = _parse_point(args.point) if args.point is not None else (
            np.asarray(point, dtype=float) if point is not None else None)
        self.seed = args.seed if args.seed is not None else int(tree.get("seed", 0))
        self.output = args.output or tree.get("output", "text")
        if self.output not in ("text", "json"):
            raise ConfigError(f"unknown output mode {self.output!r}")
        self.tol = args.tol if args.tol is not None else float(tree.get("tol", 1e-8))
        solver_tree = dict(tree.get("solver", {}))
        self.solver = SolveOptions(
            max_iter=int(solver_tree.get("max_iter", 100)),
            tol_kkt=float(solver_tree.get("tol_kkt", self.tol)),
            tol_step=float(solver_tree.get("tol_step", 1e-11)),
            hessian_mode=str(solver_tree.get("hessian_mode", "fd-lagrangian")),
            merit_penalty=float(solver_tree.get("merit_penalty", 10.0)))

    def build(self):
        try:
            return get_model(self.model_name).build(self.params)
        except BadParamsError as err:
            raise ConfigError(str(err))

    def require_point(self, prob):
        if self.point is None:
            raise ConfigError("this command needs a point (--point or 'point = [...]')")
        if self.point.shape != (prob.domain.ambient_dim,):
            raise ConfigError(
                f"point has {self.point.size} coordinates, model expects "
                f"{prob.domain.ambient_dim}")
        return self.point


def _emit(report: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(_jsonable(report), sort_keys=True, indent=2))
        return
    _emit_text(report)


def _emit_text(node, prefix: str = "") -> None:
    if isinstance(node, dict):
        for key in node:
            value = node[key]
            if isinstance(value, (dict, list, np.ndarray)) and not _is_scalar_list(value):
                print(f"{prefix}{key}:")
                _emit_text(value, prefix + "  ")
            else:
                print(f"{prefix}{key}: {_fmt(value)}")
    elif isinstance(node, (list, np.ndarray)):
        # a matrix prints one row per item
        for item in node:
            if isinstance(item, (dict, list)):
                print(f"{prefix}-")
                _emit_text(item, prefix + "  ")
            else:
                print(f"{prefix}- {_fmt(item)}")


def _is_scalar_list(value) -> bool:
    if isinstance(value, np.ndarray):
        return value.ndim <= 1 or len(value) == 0
    return isinstance(value, (list, tuple)) and all(
        not isinstance(v, (dict, list, tuple)) for v in value)


def _fmt(value):
    if isinstance(value, np.ndarray):
        return "[" + ", ".join(repr(float(x)) for x in value) + "]"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(str(_fmt(v)) for v in value) + "]"
    return value


def cmd_list_models(args) -> int:
    pattern = (args.filter or "").lower()
    entries = []
    for name in sorted(MODELS):
        if pattern and pattern not in name.lower():
            continue
        desc = MODELS[name]
        entries.append({
            "name": desc.name,
            "summary": desc.summary,
            "parameters": {k: _jsonable(v) for k, v in desc.defaults.items()},
            "has_reference": desc.has_reference,
        })
    report = {"schema_version": SCHEMA_VERSION, "command": "list-models",
              "models": entries}
    _emit(report, args.output or "text")
    return EXIT_OK


def _certificate_report(cert) -> dict:
    return {
        "mu_chart": cert.mu_chart,
        "lambda_ineq": cert.lambda_ineq,
        "lambda_eq": cert.lambda_eq,
        "stationarity_residual": cert.stationarity_residual,
        "activity": list(cert.activity),
    }


def _cq_dict(report) -> dict:
    return {
        "transversal": report.transversal,
        "zkrcq": report.zkrcq,
        "mfcq": report.mfcq,
        "licq": report.licq,
        "rank_data": report.rank_data,
    }


def _certified(config: RunConfig, command: str, first_order: bool = True):
    """The steps ``check``, ``certify`` and ``invariance`` share.

    Builds the report header, tests feasibility, builds the default local
    representation once, adds the CQ section (when ``first_order``) and
    recovers the KKT certificate in that representation.  Returns ``(prob,
    report, cert, None)``, with the certificate in the report when
    ``first_order``; or ``(prob, report, None, code)`` once the report is
    emitted, when the point is infeasible or has no multiplier.
    """
    prob = config.build()
    point = config.require_point(prob)
    report = {"schema_version": SCHEMA_VERSION, "command": command,
              "model": config.model_name, "seed": config.seed, "point": point}
    if not prob.feasible(point):
        report["feasible"] = False
        _emit(report, config.output)
        return prob, report, None, EXIT_INFEASIBLE
    loc = prob.local(point)
    if first_order:
        report["feasible"] = True
        report["cq"] = _cq_dict(cq_report(loc, config.tol))
    try:
        cert = kkt_certificate(loc, config.tol)
    except NoMultiplierError as err:
        report["kkt"] = {"holds": False, "best_residual": err.residual}
        _emit(report, config.output)
        return prob, report, None, EXIT_FAIL
    if first_order:
        report["kkt"] = {"holds": True, **_certificate_report(cert)}
    return prob, report, cert, None


def cmd_check(config: RunConfig) -> int:
    _, report, cert, code = _certified(config, "check")
    if cert is None:
        return code
    _emit(report, config.output)
    return EXIT_OK


def _model_alt_kinds(prob):
    """Second chart/retraction/linearizing-map kinds of a built-in model."""
    domain_kinds = prob.domain.chart_kinds
    chart_alt = "alt" if "alt" in domain_kinds else domain_kinds[0]
    corner_kinds = prob.constraint_set.chart_kinds
    adapted_alt = next((k for k in corner_kinds if k not in ("default",)),
                       corner_kinds[0])
    retr_kinds = [k for k in prob.domain.retraction_kinds if k != "default"]
    linmap_kinds = list(prob.constraint_set.linmap_kinds)
    return chart_alt, adapted_alt, retr_kinds, linmap_kinds


def _pullback_key(pb) -> tuple:
    """Resolved retraction and linearizing-map names of a pull-back."""
    return pb.retraction.name, pb.linmap.name


def _invariance_section(prob, cert, seed: int, crit=None):
    """The report's invariance section, and the Hessian of each compared
    pull-back keyed by :func:`_pullback_key`."""
    chart_alt, adapted_alt, retr_kinds, linmap_kinds = _model_alt_kinds(prob)
    point = cert.point
    loc_alt = prob.local(point, chart_alt, adapted_alt)
    section = {}
    section["kkt_residual_alternate_charts"] = chart_switch_residual(cert, loc_alt)
    section["cone_membership"] = cone_membership_agreement(cert.local, loc_alt)
    labels, pullbacks = [], []
    for retr in retr_kinds[:2] or ["default"]:
        for lm in linmap_kinds[:2]:
            labels.append(f"{retr}/{lm}")
            pullbacks.append(build_pullback(prob, point, retraction_kind=retr,
                                            linmap_kind=lm))
    reports = invariance_check(cert, pullbacks, tol=1e-5, n_samples=200, seed=seed,
                               crit=crit)
    hessians = {}
    for (pb_a, pb_b), rep in zip(itertools.combinations(pullbacks, 2), reports):
        hessians[_pullback_key(pb_a)] = rep.hessian_1
        hessians[_pullback_key(pb_b)] = rep.hessian_2
    comparisons = [{
        "pullback_a": label_a, "pullback_b": label_b,
        "max_on_cone": rep.max_on_cone,
        "max_off_cone": rep.max_off_cone,
        "passed": rep.passed,
    } for (label_a, label_b), rep in zip(itertools.combinations(labels, 2), reports)]
    section["hessian_comparisons"] = comparisons
    section["passed"] = all(c["passed"] for c in comparisons) and \
        section["cone_membership"]["disagreements"] == 0 and \
        section["kkt_residual_alternate_charts"] <= 1e-7
    return section, hessians


def cmd_certify(config: RunConfig) -> int:
    prob, report, cert, code = _certified(config, "certify")
    if cert is None:
        return code
    crit = critical_cone(cert)
    report["critical_cone"] = {
        "inequality_rows": crit.cone_m.a_ineq,
        "equality_rows": crit.cone_m.a_eq,
    }
    # the invariance section shares this critical cone and usually compares
    # the default pull-back too; its Hessian is then taken from there
    invariance, hessians = _invariance_section(prob, cert, config.seed, crit)
    pb = build_pullback(prob, cert.point)
    hess = hessians.get(_pullback_key(pb))
    if hess is None:
        hess = lagrangian_hessian(pb, cert.mu_chart)
    report["hessian"] = {"matrix": hess.matrix, "source": hess.source,
                         "fd_discrepancy": hess.fd_discrepancy}
    sosc = sosc_check(hess, crit)
    sonc = sonc_check(hess, crit)
    report["sosc"] = {"status": sosc.status, "min_value": sosc.min_value,
                      "witness": sosc.witness}
    report["sonc"] = {"status": sonc.status, "min_value": sonc.min_value,
                      "witness": sonc.witness}
    report["invariance"] = invariance
    _emit(report, config.output)
    return EXIT_OK if sonc.holds else EXIT_FAIL


def cmd_solve(config: RunConfig) -> int:
    prob = config.build()
    point = config.require_point(prob)
    result = solve(prob, point, config.solver)
    trace = [{
        "iteration": i,
        "objective": rec.objective,
        "kkt_residual": None if rec.kkt_residual == float("inf") else rec.kkt_residual,
        "feasibility_residual": rec.feasibility_residual,
        "step_norm": rec.step_norm,
        "merit_before": rec.merit_before,
        "merit_after": rec.merit_after,
        "step_length": rec.step_length,
    } for i, rec in enumerate(result.iterations)]
    report = {"schema_version": SCHEMA_VERSION, "command": "solve",
              "model": config.model_name, "seed": config.seed,
              "start": point, "status": result.status,
              "point": result.point, "iterations": trace}
    if result.certificate is not None:
        report["certificate"] = _certificate_report(result.certificate)
    if result.message:
        report["message"] = result.message
    _emit(report, config.output)
    if result.status == "converged":
        return EXIT_OK
    if result.status == "breakdown":
        return EXIT_BREAKDOWN
    return EXIT_FAIL


def cmd_invariance(config: RunConfig) -> int:
    prob, report, cert, code = _certified(config, "invariance", first_order=False)
    if cert is None:
        return code
    section, _ = _invariance_section(prob, cert, config.seed)
    report["invariance"] = section
    _emit(report, config.output)
    return EXIT_OK if section["passed"] else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """Argument parser whose failures map onto the config-error exit code."""

    def error(self, message):
        raise ConfigError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="corneropt",
        description="analyze and locally solve optimization problems with "
                    "corner-set constraints on manifolds")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    lm = sub.add_parser("list-models", help="print the model registry")
    lm.add_argument("--filter", default=None)
    lm.add_argument("--output", choices=("text", "json"), default=None)

    for name, helptext in (("check", "first-order KKT check at a point"),
                           ("certify", "full first/second-order certification"),
                           ("solve", "run the local SQP solver"),
                           ("invariance", "chart/retraction invariance checks")):
        cmd = sub.add_parser(name, help=helptext)
        cmd.error = parser.error
        cmd.add_argument("--config", default=None, help="flat key=value config file")
        cmd.add_argument("--model", default=None)
        cmd.add_argument("--point", default=None, help="comma-separated coordinates")
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--tol", type=float, default=None)
        cmd.add_argument("--output", choices=("text", "json"), default=None)
    return parser


def _attach_point_values(argv):
    """Rewrite ``--point <csv>`` as ``--point=<csv>``: argparse would read a
    leading minus sign of the coordinates as an option."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token == "--point" else None
        out.append(token if value is None else f"--point={value}")
    return out


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(
            _attach_point_values(sys.argv[1:] if argv is None else argv))
        if args.command == "list-models":
            return cmd_list_models(args)
        config = RunConfig(args)
        if args.command == "check":
            return cmd_check(config)
        if args.command == "certify":
            return cmd_certify(config)
        if args.command == "solve":
            return cmd_solve(config)
        if args.command == "invariance":
            return cmd_invariance(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasiblePointError as err:
        print(f"infeasible point: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CornerOptError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BREAKDOWN


if __name__ == "__main__":
    sys.exit(main())
