import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from corneropt.cli import (EXIT_BREAKDOWN, EXIT_CONFIG, EXIT_FAIL,
                           EXIT_INFEASIBLE, EXIT_OK, load_config, main)
from corneropt.errors import ConfigError


_SPEC = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py")
REGEN = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(REGEN)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _certify_json(capsys, tmp_path, model, params, point) -> dict:
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"model.name = {json.dumps(model)}\n" + "".join(
        f"model.params.{k} = {json.dumps(v)}\n" for k, v in params.items()))
    code, out, err = run(capsys, "certify", f"--config={cfg}",
                         "--point=" + ",".join(repr(float(x)) for x in point),
                         "--output=json")
    assert code == EXIT_OK, err
    return json.loads(out)


class TestListModels:
    def test_registry_names_listed(self, capsys):
        code, out, _ = run(capsys, "list-models")
        assert code == EXIT_OK
        for name in ("classical-nlp", "sphere-polygon", "remark-counterexample"):
            assert name in out

    def test_empty_filter_lists_all(self, capsys):
        code, out, _ = run(capsys, "list-models", "--output", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert len(data["models"]) == 5

    def test_unknown_filter_empty_exit_zero(self, capsys):
        code, out, _ = run(capsys, "list-models", "--filter", "zzz",
                           "--output", "json")
        assert code == EXIT_OK
        assert json.loads(out)["models"] == []


class TestCheck:
    def test_kkt_point_exit_zero(self, capsys):
        code, out, _ = run(capsys, "check", "--model", "remark-counterexample",
                           "--point", "0,0", "--output", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["kkt"]["holds"]
        np.testing.assert_allclose(data["kkt"]["mu_chart"], [1.0, 0.0], atol=1e-12)

    def test_feasible_non_stationary_exit_one(self, capsys):
        code, out, _ = run(capsys, "check", "--model", "remark-counterexample",
                           "--point=-1,0", "--output", "json")
        assert code == EXIT_FAIL
        data = json.loads(out)
        assert not data["kkt"]["holds"]

    def test_infeasible_exit_two(self, capsys):
        code, _, _ = run(capsys, "check", "--model", "remark-counterexample",
                         "--point", "1,0")
        assert code == EXIT_INFEASIBLE

    def test_unknown_model_exit_three(self, capsys):
        code, _, err = run(capsys, "check", "--model", "nope", "--point", "0,0")
        assert code == EXIT_CONFIG
        assert "unknown model" in err

    def test_missing_point_exit_three(self, capsys):
        code, _, _ = run(capsys, "check", "--model", "remark-counterexample")
        assert code == EXIT_CONFIG

    def test_bad_point_dimension_exit_three(self, capsys):
        code, _, _ = run(capsys, "check", "--model", "remark-counterexample",
                         "--point", "0,0,0")
        assert code == EXIT_CONFIG


class TestCertify:
    def test_convex_minimizer_exit_zero(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text('model.name = "classical-nlp"\n'
                       'model.params.seed = 13\n')
        from corneropt.models import build_classical_nlp
        point = build_classical_nlp({"seed": 13}).extras["reference"]["point"]
        code, out, _ = run(capsys, "certify", "--config", str(cfg),
                           "--point", ",".join(map(str, point)),
                           "--output", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["sosc"]["status"] == "holds"
        assert data["invariance"]["passed"]

    def test_indefinite_saddle_exit_one(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text('model.name = "classical-nlp"\n'
                       'model.params.m = 2\n'
                       'model.params.n_ineq = 0\n'
                       'model.params.n_eq = 0\n'
                       'model.params.seed = 0\n'
                       'model.params.curvature = "indefinite"\n')
        from corneropt.models import build_classical_nlp
        point = build_classical_nlp(
            {"m": 2, "n_ineq": 0, "n_eq": 0, "seed": 0,
             "curvature": "indefinite"}).extras["reference"]["point"]
        code, out, _ = run(capsys, "certify", "--config", str(cfg),
                           "--point", ",".join(map(str, point)),
                           "--output", "json")
        assert code == EXIT_FAIL
        data = json.loads(out)
        assert data["sosc"]["status"] == "fails"
        assert data["sonc"]["status"] == "fails"
        witness = np.asarray(data["sosc"]["witness"], dtype=float)
        hess = np.asarray(data["hessian"]["matrix"], dtype=float)
        assert float(witness @ hess @ witness) < -1e-6

    def test_point_with_leading_minus_as_separate_argument(self, capsys, tmp_path):
        params = {"m": 6, "n_ineq": 2, "n_eq": 0, "seed": 5, "curvature": "indefinite"}
        cfg = tmp_path / "c.cfg"
        cfg.write_text('model.name = "classical-nlp"\n' + "".join(
            f"model.params.{k} = {json.dumps(v)}\n" for k, v in params.items()))
        from corneropt.models import build_classical_nlp
        point = build_classical_nlp(params).extras["reference"]["point"]
        csv = ",".join(map(str, point))
        assert csv.startswith("-")
        code, out, err = run(capsys, "certify", "--config", str(cfg),
                             "--point", csv, "--output", "json")
        # an indefinite saddle: SONC fails, so the exit code is 1, not 3
        assert code == EXIT_FAIL, err
        assert json.loads(out)["sonc"]["status"] == "fails"
        _, same, _ = run(capsys, "certify", f"--config={cfg}", f"--point={csv}",
                         "--output=json")
        assert same == out

    def test_remark_sonc_holds(self, capsys):
        code, out, _ = run(capsys, "certify", "--model", "remark-counterexample",
                           "--point", "0,0", "--output", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["sonc"]["status"] == "holds"

    def test_text_output_prints_matrices_row_by_row(self, capsys):
        code, out, _ = run(capsys, "certify", "--model", "remark-counterexample",
                           "--point", "0,0")
        assert code == EXIT_OK
        lines = out.splitlines()
        start = lines.index("hessian:")
        assert lines[start + 1:start + 4] == [
            "  matrix:", "    - [0.0, 0.0]", "    - [0.0, 0.0]"]
        assert "  inequality_rows:" in lines and "    - [1.0, 0.0]" in lines

    @pytest.mark.parametrize("params, point", [
        ({"n_nodes": 6}, None),
        ({"n_nodes": 6, "beta": 0.4}, REGEN.CONTROL_BETA_POINT),
    ], ids=["beta0", "beta0.4"])
    def test_control_model_hessian_matches_closed_form(self, capsys, tmp_path,
                                                       params, point):
        from corneropt.models import build_control_model
        if point is None:
            point = build_control_model(params).extras["reference"]["point"]
        data = _certify_json(capsys, tmp_path, "control-model", params, point)
        # translation retraction and shift charts: f contributes diag(1, alpha)
        # and only the cubic term of the state equation curves g
        n, beta = params["n_nodes"], params.get("beta", 0.0)
        mu = np.asarray(data["kkt"]["mu_chart"])
        closed = np.diag(np.concatenate([1.0 + 6.0 * beta * np.asarray(point[:n]) * mu[n:],
                                         np.ones(n)]))
        assert data["hessian"]["source"] == "analytic"
        np.testing.assert_allclose(data["hessian"]["matrix"], closed, atol=1e-9, rtol=0)

    def test_sphere_polygon_hessian_matches_closed_form(self, capsys, tmp_path):
        # exp retraction and log map at the same point: the constraint term is
        # linear in v and f(exp_p(v)) = -cos|v| <p, t> - sinc|v| <v, t>
        from corneropt.models import SPHERE_POLYGON_DEFAULTS, build_sphere_polygon
        point = build_sphere_polygon().extras["reference"]["point"]
        data = _certify_json(capsys, tmp_path, "sphere-polygon", {}, point)
        closed = float(point @ np.asarray(SPHERE_POLYGON_DEFAULTS["target"])) * np.eye(2)
        assert data["hessian"]["source"] == "grad-fd"
        np.testing.assert_allclose(data["hessian"]["matrix"], closed, atol=1e-9, rtol=0)

    def test_circle_model_keeps_value_differences(self, capsys, tmp_path):
        data = _certify_json(capsys, tmp_path, "control-model",
                             {"n_nodes": 3, "variant": "circle"},
                             REGEN.CONTROL_CIRCLE_POINT)
        assert data["hessian"]["source"] == "fd"

    def test_control_model_hessian_and_cone_budget(self, capsys, monkeypatch, tmp_path):
        # five pull-backs (the certificate's and four in the invariance
        # section), four of them distinct: comparing them pairwise once took
        # 13 Hessians and 7 critical cones, and value differences took 3,015
        # Lagrangian values.  Two local representations are in play, in the
        # default and the alternate charts: cq_report and the certificate
        # share the default one, the invariance section builds the alternate
        # one.  Rebuilding them per check took 6 constraint Jacobians, and
        # building the default one twice took 3
        from corneropt import cli, secondorder
        from corneropt.models import build_control_model
        from corneropt.problem import ProblemInstance
        counts = {"lagrangian_hessian": 0, "critical_cone": 0, "lagrangian_value": 0,
                  "constraint_jacobian": 0}
        jacobian = ProblemInstance.constraint_jacobian

        def counted_jacobian(*args, **kwargs):
            counts["constraint_jacobian"] += 1
            return jacobian(*args, **kwargs)

        monkeypatch.setattr(ProblemInstance, "constraint_jacobian", counted_jacobian)
        for name in ("lagrangian_hessian", "critical_cone", "lagrangian_value"):
            original = getattr(secondorder, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(secondorder, name, counted)
            if hasattr(cli, name):
                monkeypatch.setattr(cli, name, counted)
        cfg = tmp_path / "c.cfg"
        cfg.write_text('model.name = "control-model"\nmodel.params.n_nodes = 6\n')
        point = build_control_model({"n_nodes": 6}).extras["reference"]["point"]
        code, out, _ = run(capsys, "certify", f"--config={cfg}",
                           "--point=" + ",".join(map(str, point)), "--output=json")
        assert code == EXIT_OK
        assert json.loads(out)["invariance"]["passed"]
        assert counts["lagrangian_hessian"] <= 4, counts
        assert counts["critical_cone"] <= 1
        assert counts["lagrangian_value"] <= 10, counts
        assert counts["constraint_jacobian"] <= 2, counts

    @staticmethod
    def _first_order_counts(monkeypatch):
        """Count HiGHS calls made from ``firstorder`` and cone membership tests
        made inside ``cone_membership_agreement``."""
        import sys

        import scipy.optimize

        from corneropt import cli, cones
        counts = {"firstorder_lps": 0, "agreement_contains": 0, "inside": False}
        linprog, contains = scipy.optimize.linprog, cones.PolyhedralCone.contains
        agreement = cli.cone_membership_agreement

        def counted_linprog(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "corneropt.firstorder":
                counts["firstorder_lps"] += 1
            return linprog(*args, **kwargs)

        def counted_contains(self, *args, **kwargs):
            counts["agreement_contains"] += counts["inside"]
            return contains(self, *args, **kwargs)

        def counted_agreement(*args, **kwargs):
            counts["inside"] = True
            try:
                return agreement(*args, **kwargs)
            finally:
                counts["inside"] = False

        monkeypatch.setattr(scipy.optimize, "linprog", counted_linprog)
        monkeypatch.setattr(cones.PolyhedralCone, "contains", counted_contains)
        monkeypatch.setattr(cli, "cone_membership_agreement", counted_agreement)
        return counts

    def test_control_model_first_order_budget(self, capsys, monkeypatch, tmp_path):
        # no inequality rows: ZKRCQ is the rank test alone (2n = 24 LPs once),
        # and cone agreement is exact (1,000 sampled membership tests once)
        from corneropt.models import build_control_model
        counts = self._first_order_counts(monkeypatch)
        data = _certify_json(capsys, tmp_path, "control-model", {"n_nodes": 6},
                             build_control_model({"n_nodes": 6}).extras["reference"]["point"])
        assert data["cq"]["zkrcq"] and data["invariance"]["passed"]
        assert counts["firstorder_lps"] == 0, counts
        assert counts["agreement_contains"] == 0, counts

    def test_classical_first_order_budget(self, capsys, monkeypatch, tmp_path):
        # the MFCQ margin LP plus at most one Gordan LP (2n + 1 LPs once)
        from corneropt.models import build_classical_nlp
        counts = self._first_order_counts(monkeypatch)
        data = _certify_json(capsys, tmp_path, "classical-nlp", {"seed": 14},
                             build_classical_nlp({"seed": 14}).extras["reference"]["point"])
        assert data["cq"]["zkrcq"] and data["cq"]["mfcq"]
        assert counts["firstorder_lps"] <= 2, counts


class TestSolve:
    def test_sphere_polygon_converges(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", "sphere-polygon",
                           "--point", "0.577350269,0.577350269,0.577350269",
                           "--output", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["status"] == "converged"
        merits = [(r["merit_before"], r["merit_after"]) for r in data["iterations"]
                  if r["step_length"] > 0]
        for before, after in merits:
            assert after <= before + 1e-12

    def test_optimal_start_short_run(self, capsys):
        from corneropt.models import build_sphere_polygon
        point = build_sphere_polygon().extras["reference"]["point"]
        code, out, _ = run(capsys, "solve", "--model", "sphere-polygon",
                           "--point", ",".join(map(str, point)),
                           "--output", "json")
        assert code == EXIT_OK
        assert len(json.loads(out)["iterations"]) <= 1

    def test_absurd_tolerance_hits_iteration_limit(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text('model.name = "sphere-polygon"\n'
                       'solver.tol_kkt = 1e-30\n'
                       'solver.max_iter = 10\n')
        code, out, _ = run(capsys, "solve", "--config", str(cfg),
                           "--point", "0.577350269,0.577350269,0.577350269",
                           "--output", "json")
        assert code == EXIT_FAIL
        assert json.loads(out)["status"] == "max_iter"

    def test_breakdown_exit_code(self, capsys, monkeypatch):
        from corneropt import cli as cli_module
        from corneropt.solver import SolveResult

        def fake_solve(prob, p0, opts):
            return SolveResult(point=np.asarray(p0, dtype=float), certificate=None,
                               iterations=[], status="breakdown", message="stub")

        monkeypatch.setattr(cli_module, "solve", fake_solve)
        code, out, _ = run(capsys, "solve", "--model", "remark-counterexample",
                           "--point", "0,0", "--output", "json")
        assert code == EXIT_BREAKDOWN
        assert json.loads(out)["message"] == "stub"


class TestInvariance:
    def test_remark_invariance_passes(self, capsys):
        code, out, _ = run(capsys, "invariance", "--model", "remark-counterexample",
                           "--point", "0,0", "--output", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["invariance"]["kkt_residual_alternate_charts"] <= 1e-7
        assert data["invariance"]["cone_membership"]["disagreements"] == 0


class TestConfigFile:
    def test_round_trip_values(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text('model.name = "sphere-polygon"\n'
                       '# a comment line\n'
                       'model.params.target = [1.0, 0.5, -0.25]\n'
                       'seed = 99\n'
                       'tol = 1e-9\n')
        tree = load_config(str(cfg))
        assert tree["model"]["name"] == "sphere-polygon"
        assert tree["model"]["params"]["target"] == [1.0, 0.5, -0.25]
        assert tree["seed"] == 99

    def test_invalid_json_value(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("model.name = sphere-polygon\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg))

    def test_missing_file_exit_three(self, capsys):
        code, _, _ = run(capsys, "check", "--config", "/nonexistent.cfg",
                         "--model", "remark-counterexample", "--point", "0,0")
        assert code == EXIT_CONFIG

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text('model.name = "classical-nlp"\npoint = [9, 9]\n')
        code, out, _ = run(capsys, "check", "--config", str(cfg),
                           "--model", "remark-counterexample",
                           "--point", "0,0", "--output", "json")
        assert code == EXIT_OK
        assert json.loads(out)["model"] == "remark-counterexample"


class TestJsonContract:
    def test_round_trip(self, capsys):
        _, out, _ = run(capsys, "certify", "--model", "remark-counterexample",
                        "--point", "0,0", "--output", "json")
        data = json.loads(out)
        assert data["schema_version"] == 1
        assert json.loads(json.dumps(data)) == data

    def test_byte_identical_reports_for_same_seed(self, capsys):
        argv = ["certify", "--model", "sphere-polygon", "--seed", "11",
                "--output", "json", "--point",
                "0.780868809,0.624695047,0.0"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_different_seed_changes_nothing_structural(self, capsys):
        argv = lambda s: ["check", "--model", "remark-counterexample",
                          "--point", "0,0", "--seed", str(s), "--output", "json"]
        _, a, _ = run(capsys, *argv(1))
        _, b, _ = run(capsys, *argv(2))
        da, db = json.loads(a), json.loads(b)
        assert da["kkt"] == db["kkt"]
