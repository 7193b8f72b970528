"""Golden ``--output json`` reports of ``corneropt certify`` and ``invariance``.

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

from corneropt import cli
from corneropt.models import build_model

GOLDEN_DIR = Path(__file__).resolve().parent

SADDLE_M6 = {"seed": 5, "curvature": "indefinite", "m": 6, "n_ineq": 2, "n_eq": 0}

# name -> (command, model, params, point, exit code); a point of None is the
# model's reference point
CASES = {
    "certify-remark-counterexample":
        ("certify", "remark-counterexample", {}, [0.0, 0.0], cli.EXIT_OK),
    "certify-sphere-polygon":
        ("certify", "sphere-polygon", {}, None, cli.EXIT_OK),
    "certify-classical-nlp-seed14":
        ("certify", "classical-nlp", {"seed": 14}, None, cli.EXIT_OK),
    "certify-control-model-n6":
        ("certify", "control-model", {"n_nodes": 6}, None, cli.EXIT_OK),
    # SONC fails at this planted saddle
    "certify-classical-nlp-saddle-m6":
        ("certify", "classical-nlp", SADDLE_M6, None, cli.EXIT_FAIL),
    "invariance-remark-counterexample":
        ("invariance", "remark-counterexample", {}, [0.0, 0.0], cli.EXIT_OK),
}


def render(name: str, workdir) -> tuple:
    """Exit code and JSON text of ``cli.main`` on case ``name``; the model
    parameters go through a config file written to ``workdir``."""
    command, model, params, point, _ = CASES[name]
    if point is None:
        point = build_model(model, params).extras["reference"]["point"]
    cfg = Path(workdir) / f"{name}.cfg"
    lines = [f"model.name = {json.dumps(model)}"]
    lines += [f"model.params.{k} = {json.dumps(v)}" for k, v in params.items()]
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
