"""corneropt benchmark: one closed-loop client calling the library in-process.

Usage (from the repository root)::

    python3 bench/run.py --workload solve-control --seed 1 --seconds 25 --trace 0

``--trace 0`` times a fixed number of ops, sized so that they take about
``--seconds`` seconds (and at least ``MIN_OPS`` ops), and prints the
end-to-end metrics.  ``--trace 1`` runs a fixed prefix of
the same op stream three times -- untraced, then twice under the span tracer
-- checks that the two traced passes agree on every count and outcome and
that tracing changed no outcome, and prints the per-layer metrics.  The last
line of standard output is one JSON object; see ``bench/README.md``.
"""

from __future__ import annotations

import os

# One closed-loop client with no worker threads: keep BLAS single-threaded.
# This has to happen before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracer import Instrumentation, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
MIN_OPS = 100   # the 90th percentile needs ten samples beyond it
WORKLOAD_NAMES = ("solve-control", "certify-sweep", "solve-small")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_corneropt() -> float:
    """Import corneropt from this checkout's ``src/``; return the seconds taken."""
    if not (SRC / "corneropt" / "__init__.py").is_file():
        raise SystemExit(f"bench: no corneropt sources under {SRC}")
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import corneropt
    elapsed = perf_counter() - start
    if Path(corneropt.__file__).resolve().parent != SRC / "corneropt":
        raise SystemExit(f"bench: imported corneropt from {corneropt.__file__}, "
                         f"not from {SRC}")
    return elapsed


def run_op(op, prepare):
    """Execute one op; return ``(seconds, result, exception)``."""
    start = perf_counter()
    try:
        result, exc = op.execute(prepare), None
    except Exception as err:  # an op that raises is a failed op, not a crash
        result, exc = None, err
    return perf_counter() - start, result, exc


class Tally:
    """Latencies and outcomes of a sequence of ops."""

    def __init__(self):
        from workloads import SUCCESS

        self.success = SUCCESS
        self.latencies: list = []
        self.outcomes: list = []
        self.by_kind: Counter = Counter()
        self.reasons: dict = {}

    def add(self, op, seconds, result, exc):
        outcome = op.classify(result, exc)
        self.latencies.append(seconds)
        self.outcomes.append(outcome)
        self.by_kind[(op.kind, outcome)] += 1
        if outcome not in self.success and op.reason:
            self.reasons.setdefault((op.kind, outcome), op.reason)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o not in self.success)

    def p50_ms(self) -> float:
        return 1e3 * statistics.median(self.latencies)

    def p90_ms(self) -> float:
        return 1e3 * statistics.quantiles(self.latencies, n=10)[-1]

    def summary(self) -> list:
        lines = []
        kinds = sorted({k for k, _ in self.by_kind})
        for kind in kinds:
            parts = [f"{o}={c}" for (k, o), c in sorted(self.by_kind.items())
                     if k == kind]
            lines.append(f"  {kind}: {' '.join(parts)}")
        for (kind, outcome), reason in sorted(self.reasons.items()):
            lines.append(f"  first {outcome} on {kind}: {reason[:160]}")
        return lines


def timed_run(workload, seconds: int) -> Tally:
    """Run whole passes of the op stream, as many as ``--seconds`` asks for
    at the workload's reference pace and at least ``MIN_OPS`` ops.  The ops
    run depend only on the workload, the seed and ``--seconds``, never on the
    clock, so ``attempted`` and ``failed`` repeat exactly from run to run."""
    tally = Tally()
    rounds = workload.rounds()
    passes = workload.timed_passes(seconds)
    while passes > 0 or len(tally.latencies) < MIN_OPS:
        for ops in itertools.islice(rounds, workload.pass_rounds):
            for op in ops:
                tally.add(op, *run_op(op, lambda prob: prob))
        passes -= 1
    return tally


def traced_pass(ops):
    tracer = Tracer()
    tally = Tally()
    with Instrumentation(tracer) as inst:
        for i, op in enumerate(ops):
            tracer.begin_op(i)
            try:
                measured = run_op(op, inst.problem)
            finally:
                tracer.end_op()
            tally.add(op, *measured)
    return tracer, tally, inst.missing


def per_layer_metrics(tr, n_ops: int, overhead: float) -> dict:
    """Per-op layer metrics of one traced pass (see bench/README.md)."""
    ev = tr.events

    def per_op(value):
        return value / n_ops

    def ms(seconds):
        return 1e3 * seconds / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    hessians = tr.n_calls("secondorder.lagrangian_hessian")
    values = {
        ("problem.f_evals", "count/op"): per_op(tr.n_calls("problem.f")),
        ("problem.g_evals", "count/op"): per_op(tr.n_calls("problem.g")),
        ("problem.eval_ms", "ms/op"): ms(tr.total_s("problem.f") + tr.total_s("problem.g")),
        ("problem.chart_pair_calls", "count/op"): per_op(tr.n_calls("problem.chart_pair")),
        ("solver.self_ms", "ms/op"): ms(tr.self_s("solver.solve")),
        ("solver.self_f_evals", "count/op"): per_op(ev["solver.self_f_evals"]),
        ("solver.qp_solves", "count/op"): per_op(tr.n_calls("solver.qp")),
        ("solver.qp_ms", "ms/op"): ms(tr.total_s("solver.qp")),
        ("solver.sqp_iters", "count/op"): per_op(ev["solver.iterations"]),
        ("solver.ls_halvings", "count/op"): per_op(ev["ls.halvings"]),
        ("solver.ls_first_accept_frac", "frac"): ratio(ev["ls.first_accept"], ev["ls.calls"]),
        ("solver.linesearch_ms", "ms/op"): ms(tr.total_s("solver.linesearch")),
        ("secondorder.hessians_fd", "count/op"): per_op(ev["hessian.fd"]),
        ("secondorder.hessians_analytic", "count/op"): per_op(ev["hessian.analytic"]),
        ("secondorder.hessians_per_pullback", "ratio"):
            ratio(hessians, tr.n_calls("secondorder.build_pullback")),
        ("secondorder.hessian_ms", "ms/op"): ms(tr.total_s("secondorder.lagrangian_hessian")),
        ("secondorder.cone_min_ms", "ms/op"):
            ms(tr.total_s("secondorder.sosc_check") + tr.total_s("secondorder.sonc_check")),
        ("secondorder.invariance_ms", "ms/op"): ms(tr.total_s("secondorder.invariance_check")),
        ("firstorder.cq_report_ms", "ms/op"): ms(tr.total_s("firstorder.cq_report")),
        ("firstorder.solve_kkt_calls", "count/op"): per_op(tr.n_calls("firstorder.solve_kkt")),
        ("firstorder.solve_kkt_ms", "ms/op"): ms(tr.total_s("firstorder.solve_kkt")),
        ("cones.lp_solves", "count/op"): per_op(tr.n_calls("highs.linprog")),
        ("cones.lp_solves.firstorder", "count/op"): per_op(ev["lp.firstorder"]),
        ("cones.lp_solves.cones", "count/op"): per_op(ev["lp.cones"]),
        ("cones.lp_solves.solver", "count/op"): per_op(ev["lp.solver"]),
        ("cones.lp_ms", "ms/op"): ms(tr.total_s("highs.linprog")),
        ("cones.nnls_solves", "count/op"): per_op(tr.n_calls("nnls.nnls")),
        ("cones.nnls_solves.cones", "count/op"): per_op(ev["nnls.cones"]),
        ("cones.nnls_solves.secondorder", "count/op"): per_op(ev["nnls.secondorder"]),
        ("cones.extreme_rays_calls", "count/op"): per_op(tr.n_calls("cones.extreme_rays")),
        ("cones.self_ms", "ms/op"): ms(tr.layer_self_s("cones")),
        ("geometry.chart_calls", "count/op"): per_op(tr.n_calls("geometry.chart")),
        ("geometry.retraction_builds", "count/op"): per_op(tr.n_calls("geometry.retraction")),
        ("geometry.retract_calls", "count/op"): per_op(tr.n_calls("geometry.retract")),
        ("geometry.fd_jacobian_calls", "count/op"): per_op(tr.n_calls("geometry.fd_jacobian_of")),
        ("geometry.self_ms", "ms/op"): ms(tr.layer_self_s("geometry")),
        ("corners.adapted_chart_calls", "count/op"): per_op(tr.n_calls("corners.adapted_chart")),
        ("corners.self_ms", "ms/op"): ms(tr.layer_self_s("corners")),
        ("cli.self_ms", "ms/op"): ms(tr.self_s("cli.main")),
        ("trace_overhead_frac", "frac"): overhead,
    }
    return {name: {"value": value, "unit": unit} for (name, unit), value in values.items()}


def traced_run(workload):
    ops = workload.trace_ops()
    plain = Tally()
    for op in ops:
        plain.add(op, *run_op(op, lambda prob: prob))
    first, tally, missing = traced_pass(ops)
    second, tally2, _ = traced_pass(ops)
    problems = []
    counts, counts2 = first.count_snapshot(), second.count_snapshot()
    if counts != counts2:
        diff = sorted(set(counts.items()) ^ set(counts2.items()))
        problems.append(f"traced passes disagree on counts: {diff[:6]}")
    if tally.outcomes != tally2.outcomes:
        problems.append("traced passes disagree on outcomes")
    if tally.outcomes != plain.outcomes:
        problems.append("tracing changed outcomes")
    overhead = tally.p50_ms() / plain.p50_ms() - 1.0
    metrics = per_layer_metrics(first, len(ops), overhead)
    OUT_DIR.mkdir(exist_ok=True)
    dump = first.span_dump()
    dump["workload"] = workload.name
    dump["seed"] = workload.seed
    dump["outcomes"] = tally.outcomes
    (OUT_DIR / f"trace-{workload.name}-seed{workload.seed}.json").write_text(
        json.dumps(dump), encoding="utf-8")
    notes = [f"  not traced (missing in corneropt): {', '.join(missing)}"] if missing else []
    text, holds = workload.dominant_layer({k: v["value"] for k, v in metrics.items()})
    notes.append(f"  dominant layer {'confirmed' if holds else 'NOT confirmed'}: {text}")
    return tally, metrics, problems, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_corneropt()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, OUT_DIR / f"cfg-{args.workload}")
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"setup {setup_s:.3f} s (import {import_s:.3f} s)"]
    if args.trace:
        tally, metrics, problems, notes = traced_run(workload)
        lines += notes + [f"  self-check: {p}" for p in problems]
        correct = not problems
    else:
        tally = timed_run(workload, args.seconds)
        busy = sum(tally.latencies)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "ops_per_s": {"value": len(tally.latencies) / busy, "unit": "1/s"},
            "op_ms_p50": {"value": tally.p50_ms(), "unit": "ms"},
            "op_ms_p90": {"value": tally.p90_ms(), "unit": "ms"},
            "ok_frac": {"value": 1.0 - tally.failed / len(tally.outcomes), "unit": "frac"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
        correct = True
    n = len(tally.outcomes)
    lines.append(f"  {n} ops, {tally.failed} failed "
                 f"(failed_frac {tally.failed / n:.4f}), "
                 f"p50 {tally.p50_ms():.2f} ms, p90 {tally.p90_ms():.2f} ms")
    lines += tally.summary()
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": n, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
