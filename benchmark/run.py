"""Reanalysis campaign benchmark: one workload per process, closed loop.

    python3 benchmark/run.py --workload ladder-highrank --seed 1 --seconds 30 --trace 0

Run from the root of a checkout, with BLAS pinned to one thread as
BENCHMARK.json's command does; the package is imported from its src/.
The run builds the workload's original, prepares it several times, then
solves whole rounds of seeded designs, one call after the other, until
the next round would end past --seconds.  The last line of standard output is
one JSON object: correct, attempted, failed and the metrics (end-to-end ones
with --trace 0, per-layer ones with --trace 1).  Details, and in traced mode
every span, go to benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

LINEAR = ("conventional_s", "pcg_s", "sri_s", "fdp_s")

END_TO_END = {"setup_s": "s", "conventional_s": "s", "pcg_s": "s", "sri_s": "s",
              "fdp_s": "s", "campaign_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(campaign, rec, seconds):
    """Build, prepare campaign.SETUP_REPEATS times, then solve rounds; return timings."""
    start = time.perf_counter()
    _, build_s = rec.timed("build", campaign.build)
    for _ in range(campaign.SETUP_REPEATS):
        campaign.prepare()
    rounds = []
    while True:
        rec.round_s = 0.0
        t0 = time.perf_counter()
        campaign.round(len(rounds))
        rounds.append(rec.round_s)
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            return build_s, campaign.setups, rounds


def nbytes(obj) -> int:
    """Bytes held in the numpy and scipy.sparse arrays of an object's fields."""
    import numpy as np
    import scipy.sparse as sp

    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if sp.issparse(obj):
        obj = obj.tocsr() if obj.format not in ("csr", "csc") else obj
        return obj.data.nbytes + obj.indices.nbytes + obj.indptr.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(nbytes(x) for x in obj)
    if hasattr(obj, "L") and hasattr(obj, "U"):  # SuperLU factors
        return nbytes(obj.L) + nbytes(obj.U) + obj.perm_r.nbytes + obj.perm_c.nbytes
    if hasattr(obj, "__dict__") or hasattr(obj, "__dataclass_fields__"):
        fields = getattr(obj, "__dataclass_fields__", None) or vars(obj)
        return sum(nbytes(getattr(obj, f)) for f in fields)
    return 0


def trimmed_mean(samples, share=0.1):
    """Mean of the samples without the lowest and the highest share of them,
    and at least the lowest and the highest one of three or more.

    The machine slows every call by up to 1.7x in phases of seconds, so a
    run's samples gather in two groups; a median jumps between the groups
    with the share of slow samples, a trimmed mean moves with it smoothly,
    and trimming keeps a rare stall out.
    """
    xs = sorted(samples)
    k = max(int(len(xs) * share), 1) if len(xs) >= 3 else 0
    return statistics.fmean(xs[k:len(xs) - k])


def end_to_end(rec, build_s, setups, rounds):
    setup = trimmed_mean(setups)
    out = {"setup_s": setup}
    for m in LINEAR:
        out[m] = trimmed_mean(rec.samples[m]) if rec.samples[m] else float("nan")
    out["campaign_s"] = build_s + setup + statistics.median(rounds)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def per_layer(tracer, rec, campaign, rounds):
    """Per-layer metrics from the spans and the reports of the traced run."""
    solves = max(sum(len(tracer.durations(m)) for m in LINEAR), 1)

    def per_call(name):
        d = tracer.durations(name)
        return (sum(d) / len(d) if d else 0.0), "s/call"

    def per_op(name, op):
        ops = len(tracer.durations(op))
        return len(tracer.durations(name, {op})) / max(ops, 1), "count/solve"

    def mean_count(metric, pos, unit):
        vals = [c[pos] for c in rec.counts[metric]]
        return (sum(vals) / len(vals) if vals else 0), unit

    newton = [m for m in rec.counts if m.startswith("newton_")]
    newton_iters = [c[0] for m in newton for c in rec.counts[m]]
    inner = tracer.kept_iterations("solvers.solve_sri", {"newton_sri_s"})
    sri_runs = len(tracer.durations("newton_sri_s"))
    element_calls, element_s = tracer.tallied("elements", set(LINEAR))
    build_model_s, round_model_s = tracer.outermost("model.", "build")

    out = {
        # the model layer's share of campaign_s: the originals' build, and one round
        "model.build_s": (build_model_s + round_model_s / len(rounds), "s"),
        "elements.calls": (element_calls / solves, "count/solve"),
        "elements.s": (element_s / solves, "s/solve"),
    }
    for name in ("assemble_global", "factorize_stiffness", "make_partition",
                 "update_partition", "reduced_rhs", "reduced_apply", "reduced_gram"):
        out[f"assembly.{name}_s"] = per_call(f"assembly.{name}")
    out["assembly.reduced_apply_calls"] = per_op("assembly.reduced_apply", "sri_s")
    out["assembly.partition_mb"] = (nbytes(campaign.part0) / 2**20, "MB")
    out["solvers.build_sri_preconditioner_s"] = per_call("solvers.build_sri_preconditioner")
    out["solvers.precond_apply_s"] = per_call("solvers.precond_apply")
    out["solvers.precond_apply_calls"] = per_op("solvers.precond_apply", "sri_s")
    out["solvers.precond_mb"] = (nbytes(campaign.precond) / 2**20, "MB")
    out["solvers.recover_displacements_s"] = per_call("solvers.recover_displacements")
    out["solvers.sri_iterations"] = mean_count("sri_s", 0, "count/solve")
    out["solvers.pcg_iterations"] = mean_count("pcg_s", 0, "count/solve")
    out["costmodel.sri_flops"] = mean_count("sri_s", 1, "flop/solve")
    out["costmodel.pcg_flops"] = mean_count("pcg_s", 1, "flop/solve")
    out["costmodel.fdp_flops"] = mean_count("fdp_s", 1, "flop/solve")
    out["nonlinear.newton_iterations"] = (
        sum(newton_iters) / len(newton_iters) if newton_iters else 0, "count/run")
    out["nonlinear.inner_sri_iterations"] = (sum(inner) / max(sri_runs, 1), "count/run")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "reanalyze" / "__init__.py").is_file():
        print(f"reanalyze package not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reanalyze.assembly
    import reanalyze.model
    import reanalyze.nonlinear
    import reanalyze.solvers

    import campaigns
    from tracing import Tracer

    if args.workload not in campaigns.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(campaigns.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install({"assembly": reanalyze.assembly, "model": reanalyze.model,
                        "nonlinear": reanalyze.nonlinear, "solvers": reanalyze.solvers})
    rec = campaigns.Recorder(tracer)
    campaign = campaigns.WORKLOADS[args.workload](rec, args.seed)
    try:
        build_s, setups, rounds = run(campaign, rec, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()

    e2e = end_to_end(rec, build_s, setups, rounds)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "designs": rec.designs,
        "end_to_end": e2e, "setups_s": setups, "rounds_s": rounds,
        "operations": {m: {"median_s": statistics.median(v), "samples_s": v}
                       for m, v in rec.samples.items()},
        "errors": rec.errors,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if tracer is not None:
        layer = per_layer(tracer, rec, campaign, rounds)
        detail["per_layer"] = {k: v for k, (v, _) in layer.items()}
        detail["spans_by_name"] = tracer.by_name()
        detail["spans"] = tracer.spans
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail))

    print(json.dumps({"correct": rec.correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
