"""The three reanalysis campaigns and the checks on their outputs.

A campaign builds its original structure, prepares it once (partition,
SRI preconditioner, stiffness factorization) and then runs rounds: every
round makes one or more modified designs from the seeded generator and solves
each with all four linear methods (the nonlinear campaign adds its
Newton-Raphson runs).  Every result is checked against the reference solver in
oracle.py or against a property the method must have; the checks are not
timed.  Calls go through the reanalyze module attributes, so traced mode sees
them.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import time
from collections import defaultdict

import numpy as np
from reanalyze import assembly, model as rmodel, nonlinear, solvers

import oracle
from references import (
    FRAME_NODE_B,
    FULL_SCALE_YIELDED,
    SEVEN_DIGITS,
    TRUSS_NODES_AB,
)

TOL = 1e-12  # stated tolerance of every iterative solve

# Largest displacement error against the reference solver, relative to its
# max-norm.  Direct solves agree to ~2e-12; FDP's dense LU of I + (K_La G)^T
# loses up to ~3e-10 on the frame.  SRI stops on the reduced residual, which
# bounds the displacement error only through the conditioning: ~2e-10 is the
# worst seen on ladders, 2.4e-8 over 80 damaged frames.  Each limit keeps a
# 40x margin or more over the worst value seen.
AGREE = {"conventional_s": 1e-10, "pcg_s": 1e-10, "fdp_s": 1e-8, "sri_s": 1e-8}
AGREE_SRI_FRAME = 1e-6

# A design that changes k members perturbs the reduced and full operators by
# rank 3k (3 stiffness parameters per beam), so preconditioned CG ends within
# 3k + 1 iterations in exact arithmetic; rounding may add a few.
RANK_SLACK = 2

# PCG recomputes r - alpha K p after its one exact step; on the graded frame
# that leaves 3.6e-12 of the load from rounding, above the 1e-12 tolerance, so
# self-reanalysis takes a second step.  The first step must still reach the
# rounding level.
SELF_STEP_RESIDUAL = 1e-10

BACKEND_AGREEMENT = 1e-6  # nonlinear backends against "regular", per step
OUTER_TOL = 1e-8  # run_newton_raphson's default outer tolerance
# the reference internal force may differ from run_newton_raphson's own by
# summation order (it matched bit for bit on the 30x30 ladder); 1e-10 of the
# load leaves room for that
EQUILIBRIUM_SLACK = 1e-10


class Recorder:
    """Times program calls and counts operations and failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, list[tuple]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list[str] = []
        self.round_s = 0.0
        self.designs = 0

    def _open(self, label):
        return self.tracer.open(label) if self.tracer else None

    def _close(self, span):
        if span is not None:
            self.tracer.close(span)

    def timed(self, label, fn, *args):
        """Run program calls that are not an operation; return (result, seconds)."""
        span = self._open(label)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            elapsed = time.perf_counter() - t0
            self._close(span)
        return out, elapsed

    def call(self, label, fn, *args):
        """A program call inside a round: counts towards the round's time."""
        out, elapsed = self.timed(label, fn, *args)
        self.round_s += elapsed
        return out

    def operation(self, metric, body, check=None, converged=None):
        """One solve or one nonlinear run: time body(), then check its output.

        An operation fails when it raises, reports no convergence or fails its
        check; only a failed check means a wrong result (correct = False).
        """
        self.attempted += 1
        gc.collect()  # garbage left by earlier operations is not charged to this one
        span = self._open(metric)
        t0 = time.perf_counter()
        try:
            out = body()
        except Exception as exc:  # counted as a failed operation; the run goes on
            self._close(span)
            self._fail(metric, f"raised {exc!r}", wrong=False)
            return None
        elapsed = time.perf_counter() - t0
        self._close(span)
        self.round_s += elapsed
        if converged is not None and not converged(out):
            self._fail(metric, "did not converge", wrong=False)
            return None
        problem = check(out) if check is not None else None
        if problem:
            self._fail(metric, problem, wrong=True)
            return None
        self.samples[metric].append(elapsed)
        if hasattr(out, "outer_iterations"):
            self.counts[metric].append((sum(out.outer_iterations),))
        elif hasattr(out, "iterations"):
            self.counts[metric].append((out.iterations, out.flops_estimate))
        return out

    def skip(self, metric, reason):
        """An operation that could not be attempted counts as failed."""
        self.attempted += 1
        self._fail(metric, reason, wrong=False)

    def _fail(self, metric, message, wrong):
        self.failed += 1
        self.correct = self.correct and not wrong
        self.errors.append(f"{metric}: {message}")
        print(f"operation failed: {metric}: {message}", file=sys.stderr)


# -- checks ----------------------------------------------------------------------


def agrees(ref, limit, extra=None):
    def check(rep):
        err = oracle.rel_err(rep.d, ref)
        if not err <= limit:
            return f"differs from the reference solver by {err:.2e} > {limit:.0e}"
        return extra(rep) if extra is not None else None
    return check


def published(model, values, nodes):
    """Check that the named nodes reproduce the published 7-digit values."""
    def check(rep):
        got = sum((oracle.node_values(model, rep.d, n) for n in nodes), ())
        for g, want in zip(got, values):
            if not abs(g - want) <= SEVEN_DIGITS * abs(want):
                return f"published value {want!r} read as {g!r}"
        return None
    return check


def both(first, second):
    return lambda rep: first(rep) or second(rep)


def converged(rep):
    return rep.converged


def one_iteration(rep):
    if rep.iterations != 1:
        return f"self-reanalysis took {rep.iterations} iterations, not 1"
    return None


def one_exact_step(rep):
    res = rep.residual_history[1] if len(rep.residual_history) > 1 else None
    if rep.iterations > 2 or res is None or not res <= SELF_STEP_RESIDUAL:
        return (f"self-reanalysis: residual {res} after the first step, "
                f"{rep.iterations} iterations")
    return None


# -- the campaigns ----------------------------------------------------------------


class Campaign:
    """Shared set-up and the four-method solve of one design."""

    # methods in the order one design runs them; the cheaper ones repeat so
    # that every per-solve time has samples spread over the whole run
    ORDER = ("conventional_s", "pcg_s", "sri_s", "fdp_s")
    SETUP_REPEATS = 3

    def __init__(self, rec: Recorder, seed: int):
        self.rec = rec
        self.rng = np.random.default_rng(seed)
        self.original = None
        self.part0 = self.precond = self.k0 = None
        self.setups: list[float] = []  # seconds of every preparation

    def setup(self):
        spec = rmodel.default_additional_set(self.original)
        self.part0 = assembly.make_partition(self.original, spec)
        self.precond = solvers.build_sri_preconditioner(self.part0)
        self.k0 = assembly.factorize_stiffness(self.original)

    def prepare(self):
        """Time one preparation; the previous one is freed before it starts."""
        self.part0 = self.precond = self.k0 = None
        self.setups.append(self.rec.timed("setup", self.setup)[1])

    def solve_design(self, design, sri_agree=AGREE["sri_s"], extra=None):
        """All four methods on one design, each checked against the reference.

        extra maps a method's metric to one more check on its report.
        """
        extra = extra or {}
        ref = oracle.solve(design)
        rec = self.rec
        self.rec.designs += 1

        def pcg():
            k = assembly.assemble_global(design)
            return solvers.solve_pcg_full(design, self.k0, tol=TOL, k_matrix=k)

        def sri():
            part = assembly.update_partition(self.part0, design)
            return solvers.solve_sri(part, design.load_vector(), self.precond, tol=TOL)

        def fdp():
            part = assembly.update_partition(self.part0, design)
            return solvers.solve_fdp(part, design.load_vector())

        bodies = {"conventional_s": lambda: solvers.solve_conventional(design),
                  "pcg_s": pcg, "sri_s": sri, "fdp_s": fdp}
        for metric in self.ORDER:
            limit = sri_agree if metric == "sri_s" else AGREE[metric]
            rec.operation(metric, bodies[metric],
                          check=agrees(ref, limit, extra.get(metric)), converged=converged)


class LadderHighRank(Campaign):
    """Floor-graded 31-span ladder: every element changes in every design."""

    N_FLOOR = 64
    ORDER = ("conventional_s", "pcg_s", "sri_s", "fdp_s", "conventional_s", "pcg_s")

    def build(self):
        self.original = rmodel.build_truss_grid(31, self.N_FLOOR)

    def round(self, i):
        if i == 0:
            lower, upper = 5000.0, 35000.0
        else:
            # around the published grading, so SRI needs a similar count (~30)
            lower, upper = self.rng.uniform(4000.0, 6000.0), self.rng.uniform(30000.0, 40000.0)
        design = self.rec.call("design", rmodel.apply_floor_grading,
                               self.original, lower, upper, "E")
        extra = {}
        if i == 0:
            check = published(design, TRUSS_NODES_AB[self.N_FLOOR],
                              (design.meta["node_a"], design.meta["node_b"]))
            extra = dict.fromkeys(AGREE, check)
        self.solve_design(design, extra=extra)


class FrameLowRank(Campaign):
    """Graded 50 x 20 frame with seeded local damage of 1 to 10 members."""

    ORDER = ("conventional_s", "pcg_s", "sri_s", "fdp_s", "conventional_s", "pcg_s", "sri_s")
    # damaged-member counts in round order; any run's first rounds hold
    # counts from both ends, so a run's SRI and PCG times do not hang on the seed
    K_ORDER = (5, 6, 4, 7, 3, 8, 2, 9, 1, 10)

    def build(self):
        frame = rmodel.build_frame_grid(50, 20, n_sb=1)
        self.original = rmodel.apply_floor_grading(frame, 4000.0, 36000.0, "E")

    def round(self, i):
        if i == 0:
            # the original itself: published values, and the exact
            # preconditioner ends the iteration after one step
            check = published(self.original, FRAME_NODE_B, (self.original.meta["node_b"],))
            extra = {m: check for m in AGREE}
            extra["sri_s"] = both(check, one_iteration)
            extra["pcg_s"] = both(check, one_exact_step)
            self.solve_design(self.original, sri_agree=AGREE_SRI_FRAME, extra=extra)
            return
        k = self.K_ORDER[(i - 1) % len(self.K_ORDER)]
        members = self.rng.choice(len(self.original.elements), size=k, replace=False)
        factors = self.rng.uniform(0.2, 0.9, size=k)
        materials = {}
        for idx, f in zip(members, factors):
            mat = self.original.elements[idx].material
            materials[int(idx)] = dataclasses.replace(mat, e=mat.e * f)
        design = self.rec.call("design", self.original.replace_materials, materials)
        bound = 3 * k + 1 + RANK_SLACK
        within = lambda rep: None if rep.iterations <= bound else \
            f"{rep.iterations} iterations for {k} changed members (bound {bound})"
        self.solve_design(design, sri_agree=AGREE_SRI_FRAME,
                          extra={"sri_s": within, "pcg_s": within})


class LadderNonlinear(Campaign):
    """Bilinear ladders: Newton-Raphson runs under every backend, plus tangent
    designs solved by the linear methods from the elastic original."""

    # the preparation is cheap here (~0.5 s) and is repeated before every
    # tangent design, so that its samples spread over the run as the solves do
    SETUP_REPEATS = 1
    ORDER = LadderHighRank.ORDER
    E0, ET, SIGMA_Y = 2e5, 0.3e5, 5.0

    def build(self):
        def ladder(n_floor, sigma_y):
            mat = rmodel.MaterialSpec(e0=self.E0, et=self.ET, sigma_y=sigma_y)
            return rmodel.build_truss_grid(30, n_floor, area=200.0, load=500.0, material=mat)
        self.original = ladder(30, self.SIGMA_Y)
        self.full_scale = ladder(150, 45.0)
        self.p0 = oracle.load_vector(self.original)
        self.p0_full = oracle.load_vector(self.full_scale)

    def round(self, i):
        rec = self.rec
        runs = {}
        picks = None
        for backend in ("regular", "reduction", "sri", "full_scale"):
            if backend == "full_scale":
                body = lambda: nonlinear.run_newton_raphson(self.full_scale, self.p0_full)
                check = both(equilibrium(self.full_scale, self.p0_full),
                             yielded(self.full_scale, FULL_SCALE_YIELDED))
            else:
                body = lambda b=backend: nonlinear.run_newton_raphson(
                    self.original, self.p0, backend=b)
                check = equilibrium(self.original, self.p0)
                if backend != "regular":
                    check = both(check, matches(runs.get("regular")))
            runs[backend] = rec.operation(f"newton_{backend}_s", body, check=check,
                                          converged=converged)
            if backend == "regular":
                picks = self.yield_patterns(runs["regular"])
            if backend != "full_scale":
                # one tangent design after each run of the 30x30 ladder
                self.solve_tangent(picks.pop(0) if picks else None)

    def yield_patterns(self, run):
        """The bars yielded at the first, the middle and the last plastic step
        of the regular run, as the reference's bilinear law reads them.

        The steps are the same in every round and for every seed, so the
        designs' difficulty (2 to 26 SRI iterations) does not move the times.
        """
        if run is None:
            return None
        masks = []
        for d in run.displacements:
            _, over = oracle.bilinear_stress(oracle.bar_strains(self.original, d),
                                             self.E0, self.ET, self.SIGMA_Y)
            if over.any():
                masks.append(over)
        if not masks:
            return None
        return [masks[0], masks[len(masks) // 2], masks[-1]]

    def solve_tangent(self, mask):
        """The original with the given bars at the hardening modulus: the
        tangent stiffness a Newton iteration reanalyses at that state."""
        if mask is None:
            for metric in self.ORDER:
                self.rec.skip(metric, "no regular run to take the yielded bars from")
            return
        materials = {int(b): dataclasses.replace(self.original.elements[b].material, e=self.ET)
                     for b in np.flatnonzero(mask)}
        design = self.rec.call("design", self.original.replace_materials, materials)
        self.prepare()
        self.solve_design(design)


def equilibrium(model, p0):
    """At every converged step the reference internal force balances lambda P0."""
    def check(run):
        for lam, d in zip(run.lambdas, run.displacements):
            force, _ = oracle.bilinear_internal_force(model, d)
            target = lam * p0
            ratio = np.linalg.norm(force - target) / np.linalg.norm(target)
            if not ratio < OUTER_TOL + EQUILIBRIUM_SLACK:
                return f"step lambda={lam}: out of balance by {ratio:.2e} of the load"
        return None
    return check


def matches(reference):
    def check(run):
        if reference is None:
            return "no regular run to compare with"
        if len(run.displacements) != len(reference.displacements):
            return "step count differs from the regular backend"
        for d, d_ref in zip(run.displacements, reference.displacements):
            err = oracle.rel_err(d, d_ref)
            if not err <= BACKEND_AGREEMENT:
                return f"differs from the regular backend by {err:.2e}"
        return None
    return check


def yielded(model, expected):
    """The reference count of yielded bars at the final step."""
    def check(run):
        _, count = oracle.bilinear_internal_force(model, run.displacements[-1])
        return None if count == expected else f"{count} yielded bars, published {expected}"
    return check


WORKLOADS = {
    "ladder-highrank": LadderHighRank,
    "frame-lowrank": FrameLowRank,
    "ladder-nonlinear": LadderNonlinear,
}
