#!/usr/bin/env python3
"""Per-call times of the library's set-up and solve paths at fixed scales.

    python scripts/bench_trajectory.py --label change --out . --repeats 15

Writes BENCH_<date>_<label>.json into --out: for each scenario the median
and quartiles, over --repeats interleaved rounds, of make_partition (of the
original; next to it the nonzeros of the influence matrix C_s it builds and
the dependency levels of the basis triangle, the steps of that build),
update_partition (original partition to the design),
solve_sri, solve_pcg_full (assembly of the design included),
solve_conventional, its two stages assemble_global and factorize_stiffness
(assembly included) of the design, and solve_fdp (the design's partition
given) with its two stages reduced_gram and the Cholesky factor of the
reduced operator, with SRI's iterations and C_s route, PCG's iterations,
the Gram's heavy rows (assembly.heavy_rows), the multiply-adds it
executes (q^2 per heavy row plus nnz^2 per light row of C_s^T) and the
paper's dense n q^2, FDP's route (the factor solvers.fdp_factor returns:
dense or banded Cholesky, or sparse LU) with the nonzeros and reverse
Cuthill-McKee bandwidth of the reduced operator, each method's relative
error against the direct solve, the basis factor's fill (its nonzeros
beyond those of C_b plus a unit diagonal) and pivot ratio, and the
stiffness route of the original and of the design: the factor
factorize_stiffness returns (banded Cholesky or sparse LU), the reverse
Cuthill-McKee bandwidth u and the band share n (u + 1) / nnz(K) that
assembly.BAND_SHARE bounds.  It also times the Newton-Raphson runs of the
bilinear 30 x 30 ladder at sigma_y 5 under every backend and of the
30 x 150 ladder at sigma_y 45 under "regular" (ladder-nonlinear's runs)
and "sri", with their Newton and inner SRI iterations, the tangent
factors they build (for the reduced backends, the bases of the low-rank
update), factor_s, the median time a run spends inside its backend's
factor or base builder (BUILDER), the largest rank of that update and
the final yield count.  The
file also records the machine: core count, the BLAS numpy was built
against, the thread environment variables and the process's peak
resident set.  Run with BLAS pinned to
one thread (OPENBLAS_NUM_THREADS=1) to compare with the benchmark's
figures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

from reanalyze import assembly, nonlinear, solvers
from reanalyze.model import (
    MaterialSpec,
    apply_floor_grading,
    build_frame_grid,
    build_truss_grid,
    default_additional_set,
)

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def ladder():
    """The 31 x 64 ladder and its published grading (ladder-highrank, round 0)."""
    orig = build_truss_grid(31, 64)
    return orig, apply_floor_grading(orig, 5000.0, 35000.0, "E")


def damaged_frame():
    """The graded 50 x 20 frame (n_sb = 1) with 5 members softened to 0.2-0.9 E
    (frame-lowrank's make-up, default_rng(5))."""
    orig = apply_floor_grading(build_frame_grid(50, 20), 4000.0, 36000.0, "E")
    rng = np.random.default_rng(5)
    members = rng.choice(len(orig.elements), size=5, replace=False)
    factors = rng.uniform(0.2, 0.9, size=5)
    materials = {}
    for idx, f in zip(members, factors):
        mat = orig.elements[idx].material
        materials[int(idx)] = dataclasses.replace(mat, e=mat.e * f)
    return orig, orig.replace_materials(materials)


def c08c():
    """The depth-graded 10 x 20 frame (n_sb = n_sc = 8) of the acceptance
    test that times SRI against a complete analysis, E_US floor-graded."""
    orig = build_frame_grid(10, 20, n_sb=8, n_sc=8,
                            material=MaterialSpec(e_us=20000.0, e_ls=20000.0, p=1.0))
    return orig, apply_floor_grading(orig, 4000.0, 36000.0, "E_US")


SCENARIOS = {"ladder-31x64": ladder, "frame-50x20-damaged5": damaged_frame, "c08c": c08c}

# Newton runs: (floors, sigma_y, backends) of the bilinear 30-span ladder
NEWTON = {"ladder-30x30-sy5": (30, 5.0, ("regular", "reduction", "sri")),
          "ladder-30x150-sy45": (150, 45.0, ("regular", "sri"))}

# the name each Newton backend's tangent factor or low-rank base is built by,
# as the driver binds it: an "sri" base is an SriPreconditioner on one
# tangent factor
BUILDER = {"regular": "factor_tangent", "reduction": "fdp_factor", "sri": "factor_tangent"}


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def summary(times: list[float]) -> dict:
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "runs": len(times)}


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def route(factor) -> str:
    """The route a factor took: dense or banded Cholesky, or sparse LU."""
    return {"DenseCholesky": "dense", "BandedCholesky": "banded"}.get(
        type(factor).__name__, "sparse")


def stiffness_route(model) -> dict:
    """The route of a model's stiffness factor, and the reverse Cuthill-McKee
    bandwidth and band share of the layout (assembly._band_layout) that
    decides it."""
    layout = assembly._band_layout(assembly.assemble_global(model))[0]
    return {"route": route(assembly.factorize_stiffness(model)),
            "rcm_bandwidth": layout.width, "band_share": layout.share}


def fdp_route(part) -> dict:
    """The route of solvers.fdp_factor on a partition, and the nonzeros and
    reverse Cuthill-McKee bandwidth of its reduced operator K_La^-1 + G."""
    operator = sp.csr_matrix(assembly.reduced_gram(part)) + part.k_la_inv
    return {"route": route(solvers.fdp_factor(part)), "nnz": operator.nnz,
            "rcm_bandwidth": assembly._band_layout(operator)[0].width}


def gram_work(part) -> dict:
    """The heavy rows of a partition's Gram, the multiply-adds reduced_gram
    executes and the n q^2 of the dense product."""
    c_s_t = part.c_s.T.tocsr()
    heavy = assembly.heavy_rows(c_s_t, part.blocks.shape[1])
    light_nnz = np.diff(c_s_t.indptr)[~heavy].astype(float)
    return {"heavy_rows": int(heavy.sum()),
            "multiply_adds": float(heavy.sum() * part.q ** 2 + light_nnz @ light_nnz),
            "dense_multiply_adds": float(part.n * part.q ** 2)}


def fdp_cholesky(part, gram) -> float:
    """Time of solvers.fdp_factor, solve_fdp's factor of K_La^-1 + G, given
    the Gram G in place of its reduced_gram call: the sum and its factor, a
    dense G factored in place (overwritten), a sparse one into a new sum."""
    real = solvers.reduced_gram
    solvers.reduced_gram = lambda _: gram
    try:
        return timed(solvers.fdp_factor, part)[1]
    finally:
        solvers.reduced_gram = real


def run_scenario(build, repeats: int) -> dict:
    orig, design = build()
    spec = default_additional_set(orig)
    part0 = assembly.make_partition(orig, spec)
    precond = solvers.build_sri_preconditioner(part0)
    k0 = assembly.factorize_stiffness(orig)
    r = design.load_vector()
    times = {name: [] for name in ("make_partition", "update_partition", "solve_sri",
                                   "solve_pcg_full", "solve_conventional", "assemble_global",
                                   "factorize_stiffness", "solve_fdp", "reduced_gram",
                                   "fdp_cholesky")}
    for _ in range(repeats):
        _, t = timed(assembly.make_partition, orig, spec)
        times["make_partition"].append(t)
        part, t = timed(assembly.update_partition, part0, design)
        times["update_partition"].append(t)
        sri, t = timed(solvers.solve_sri, part, r, precond, tol=1e-12)
        times["solve_sri"].append(t)
        pcg, t = timed(solvers.solve_pcg_full, design, k0, tol=1e-12)
        times["solve_pcg_full"].append(t)
        direct, t = timed(solvers.solve_conventional, design)
        times["solve_conventional"].append(t)
        _, t = timed(assembly.assemble_global, design)
        times["assemble_global"].append(t)
        _, t = timed(assembly.factorize_stiffness, design)
        times["factorize_stiffness"].append(t)
        fdp, t = timed(solvers.solve_fdp, part, r)
        times["solve_fdp"].append(t)
        gram, t = timed(assembly.reduced_gram, part)
        times["reduced_gram"].append(t)
        times["fdp_cholesky"].append(fdp_cholesky(part, gram))
    lu = part0.c_b_lu.lu
    return {
        "n": part0.n, "q": part0.q, "elements": len(orig.elements),
        # the levels of L^T are those of the basis triangle, whose rows here
        # never depend on one another in a cycle
        "c_s_nnz": int(part0.c_s.nnz),
        "levels": len(assembly._LevelSchedule.of(lu.L.T).bounds) - 1,
        "c_s_route": "stored" if part0.c_s_stored else "c_b",
        "c_b_fill": int(lu.L.nnz + lu.U.nnz - np.count_nonzero(part0.c_b.data) - part0.n),
        "basis_pivot_ratio": assembly.pivot_ratio(lu),
        "stiffness": {"original": stiffness_route(orig), "design": stiffness_route(design)},
        "gram": gram_work(part0),
        "fdp": fdp_route(part),
        "sri_iterations": sri.iterations, "pcg_iterations": pcg.iterations,
        "rel_err": {"sri": rel_err(sri.d, direct.d), "pcg": rel_err(pcg.d, direct.d),
                    "fdp": rel_err(fdp.d, direct.d)},
        "calls": {name: summary(t) for name, t in times.items()},
    }


def timed_run(backend: str, *args) -> tuple:
    """run_newton_raphson(*args, backend=backend), its wall time and the
    seconds spent inside the backend's builder, wrapped on the driver."""
    name = BUILDER[backend]
    real = getattr(nonlinear, name)
    inside = []

    def wrapper(*a, **kw):
        t0 = time.perf_counter()
        try:
            return real(*a, **kw)
        finally:
            inside.append(time.perf_counter() - t0)

    setattr(nonlinear, name, wrapper)
    try:
        run, t = timed(nonlinear.run_newton_raphson, *args, backend=backend)
    finally:
        setattr(nonlinear, name, real)
    return run, t, sum(inside)


def run_newton(floors: int, sigma_y: float, backends, repeats: int) -> dict:
    """Wall times of run_newton_raphson on the bilinear 30-span ladder, one
    run per backend in each of repeats interleaved rounds, with each run's
    Newton and inner iterations, tangent factors or low-rank bases built
    (factorizations), the median time inside their builder (factor_s), the
    largest rank of its low-rank update and final yield count."""
    material = MaterialSpec(e0=2e5, et=0.3e5, sigma_y=sigma_y)
    model = build_truss_grid(30, floors, area=200.0, load=500.0, material=material)
    p0 = model.load_vector()
    times = {backend: [] for backend in backends}
    factor_times = {backend: [] for backend in backends}
    runs = {}
    for _ in range(repeats):
        for backend in backends:
            runs[backend], t, inside = timed_run(backend, model, p0)
            times[backend].append(t)
            factor_times[backend].append(inside)
    return {"n": model.n, "backends": {backend: {
        "run": summary(times[backend]), "converged": run.converged,
        "factor_s": float(np.median(factor_times[backend])),
        "outer_iterations": sum(run.outer_iterations),
        "inner_iterations": sum(run.inner_iterations),
        "factorizations": sum(run.factorizations),
        "max_update_rank": max(run.update_ranks),
        "n_nle_final": run.n_nle[-1]} for backend, run in runs.items()}}


def library(config: dict) -> dict:
    """A BLAS or LAPACK entry of numpy's build configuration, without the
    directories it was found in."""
    return {k: v for k, v in config.items() if "directory" not in k}


def machine() -> dict:
    config = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "cores": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": library(config["blas"]),
        "lapack": library(config["lapack"]),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="file name suffix, e.g. parent or change")
    ap.add_argument("--out", required=True, help="directory to write the JSON file into")
    ap.add_argument("--repeats", type=int, default=15, help="interleaved rounds per scenario")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    date = time.strftime("%Y-%m-%d")
    result = {"label": args.label, "date": date, "repeats": args.repeats,
              "machine": machine(), "scenarios": {}, "newton": {}}
    for name, build in SCENARIOS.items():
        result["scenarios"][name] = run_scenario(build, args.repeats)
        calls = result["scenarios"][name]["calls"]
        print(name, " ".join(f"{k}={v['median_s'] * 1e3:.1f}ms" for k, v in calls.items()),
              flush=True)
    for name, (floors, sigma_y, backends) in NEWTON.items():
        result["newton"][name] = run_newton(floors, sigma_y, backends, args.repeats)
        runs = result["newton"][name]["backends"]
        print(name, " ".join(f"{k}={v['run']['median_s'] * 1e3:.0f}ms"
                             f"(factor {v['factor_s'] * 1e3:.0f}ms)/"
                             f"{v['factorizations']}of{v['outer_iterations']}"
                             f"/rank{v['max_update_rank']}"
                             for k, v in runs.items()), flush=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{date}_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
