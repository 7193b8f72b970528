"""Mutants of the verdict and first-order logic and the tests that are
expected to catch them.

``python tests/mutants.py [NAME ...]`` copies ``src/`` and ``tests/`` into a
temporary directory once per mutant, applies the mutant's one-line source
patch there, runs the mutant's tests with pytest (stopping at the first
failure) and prints ``killed`` or ``survived`` next to the expected fate.  A
mutant whose code no longer exists is ``retired``.  The exit status is 1 when
any fate differs from the expected one, or a patch no longer matches the
source.  The working tree is never modified.  Uses only the standard library
(and pytest, run as a subprocess).

A mutant is never edited to escape a test; a surviving mutant asks for a
test, or, when it is equivalent, for the code it mutates to be deleted.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (what it breaks, (file, old text, new text) or None when retired,
#          tests to run, expected fate)
MUTANTS = {
    "M1": ("every active row strong in critical_cone",
           ("src/corneropt/secondorder.py",
            "strong = [j for j in range(data.ell) if cert.lambda_ineq[j] > tol_act]",
            "strong = list(range(data.ell))"),
           ["tests/test_secondorder.py::TestCriticalCone::"
            "test_weakly_active_row_stays_an_inequality"], "killed"),
    "M2": ("every active row weak in critical_cone",
           ("src/corneropt/secondorder.py",
            "strong = [j for j in range(data.ell) if cert.lambda_ineq[j] > tol_act]",
            "strong = []"),
           ["tests/test_secondorder.py"], "killed"),
    "M3": ("sosc_check accepts a minimum above -tol",
           ("src/corneropt/secondorder.py",
            "lambda min_val: min_val > tol)",
            "lambda min_val: min_val > -tol)"),
           ["tests/test_golden.py"], "killed"),
    "M4": ("no projected multi-start after the face walk (the multi-start "
           "is deleted; the walk alone is exact)",
           None, [], "retired"),
    "M5": ("the face walk visits only subsets of at most one row",
           ("src/corneropt/secondorder.py",
            "for r in range(n_rows + 1):",
            "for r in range(min(n_rows, 1) + 1):"),
           ["tests/test_secondorder.py"], "killed"),
    "M6": ("no Richardson step: the coarse FD Hessian only",
           ("src/corneropt/secondorder.py",
            "mat = (4.0 * fine - coarse) / 3.0",
            "mat = coarse"),
           ["tests/test_cli.py"], "killed"),
    "M7": ("critical-cone directions not transported into each retraction "
           "chart in invariance_check",
           ("src/corneropt/secondorder.py",
            "jac = transition_jacobian(cone_chart, pb.retraction.chart)",
            "jac = None"),
           ["tests/test_secondorder.py::TestInvariance::"
            "test_directions_are_transported_into_rotated_retraction_charts"],
           "killed"),
    "M8": ("the multiplier is not pushed into the new adapted chart in "
           "chart_switch_residual",
           ("src/corneropt/firstorder.py",
            "mu_new = push_covector(chart_old, chart_new, cert.mu_chart)",
            "mu_new = cert.mu_chart"),
           ["tests/test_firstorder.py::TestChartIndependence::"
            "test_kkt_residual_survives_chart_switch"], "killed"),
    "M9": ("cone_membership_agreement compares the cones through the identity "
           "instead of the chart transition",
           ("src/corneropt/firstorder.py",
            "cone_disagreements(cone_a, cone_b, trans)",
            "cone_disagreements(cone_a, cone_b, np.eye(trans.shape[0]))"),
           ["tests/test_firstorder.py::TestChartIndependence::"
            "test_membership_agreement"], "killed"),
}


def run(name: str) -> str:
    """The fate of mutant ``name``: killed, survived, retired, stale (the
    patch no longer matches the source) or error (pytest could not run)."""
    _, patch, tests, _ = MUTANTS[name]
    if patch is None:
        return "retired"
    rel, old, new = patch
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        target = work / rel
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "stale"
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *tests], cwd=work, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
    # pytest exits 0 when every test passed and 1 when some test failed
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main(argv) -> int:
    names = argv or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    fates = {}
    for name in names:
        what, _, _, expected = MUTANTS[name]
        fates[name] = run(name)
        print(f"{name}: {fates[name]:8s} (expected {expected}; {what})", flush=True)
    live = [n for n in names if fates[n] != "retired"]
    print(f"killed {sum(fates[n] == 'killed' for n in live)} of {len(live)}")
    return int(any(fates[n] != MUTANTS[n][-1] for n in names))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
