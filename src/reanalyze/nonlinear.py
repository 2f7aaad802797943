"""Load-controlled Newton-Raphson analysis of bilinear-material trusses.

Each equal load step scales the base load vector; the incremental equations
K_t(d) delta_d = -(F(d) - lambda P0) are solved by one of three backends:
"regular" factorizes the assembled tangent (factor_tangent: banded Cholesky
where its reverse Cuthill-McKee band is narrow, sparse LU otherwise),
"reduction" solves the tangent reduced system directly, "sri" runs the
reduced preconditioned iteration on it.  The material law is total-strain
bilinear (monotonic loading, no unloading hysteresis), so the state is a
pure function of the current displacement field.

A run holds its last tangent and takes a new one only when the tangent
moduli differ in any bar from the held ones (np.array_equal), that is when
some bar has crossed its yield strain.  The "regular" backend then drops
its factor and factors the new tangent, so at most one tangent factor is
alive, and a reused factor is the factor the same moduli would rebuild:
reuse changes no result.  The reduced backends treat the yielded bars as a
reanalysis of a base structure (solvers.LowRankTangent): they hold a base,
solvers.fdp_factor's factor of K_La^-1 + G for "reduction" or an
SriPreconditioner on factor_tangent's factor for "sri", and a Woodbury
update over the bars whose stiffness differs from the base's.  The base is
built from the first tangent and rebuilt at the current one only when the
update's columns gathered since the last base would cost more than one base
build, so on the 30x30 ladder "reduction" factors one operator for the whole
run, and "sri" preconditions each solve with the current tangent, about one
CG iteration per Newton solve.  The update solves with the same operators in
another order, so the reduced backends agree with factoring every tangent
to rounding, not bitwise.

Bars go through the linear path's element layer and factorization
K = C^T K_L C: assembly.mode_matrix gives the unit axial mode rows C,
assembly.element_geometry the bar lengths, whence the strains
sqrt(2) C d / L and the internal force C^T (sqrt(2) A sigma), and
assembly._fields reads the bar records, so a bar lacking a field fails as
in the linear assembly.  A tangent state only changes the 1x1 parameter
blocks 2 E_t A / L, one (bars, 1, 1) array from the bar kernel
elements.truss_decomposition.  The topology does not change in a run, so
a run's Bars build the model's assembly.StiffnessPlan once, at its first
use, and every tangent stiffness, assembled (assemble_tangent) or factored
(factor_tangent), is its slot sums scattered into the pattern and band the
plan fixed: no sparse product, ordering or band layout is recomputed per
tangent.  The tangent partition goes through SystemPartition.with_blocks.  The
"reduction" backend solves as solvers.solve_fdp does: reduced_rhs, a solve
with the held base and update, then recover_displacements.  The helpers
below take the Bars a run builds once from its model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

# reduced_gram and build_sri_preconditioner are unused here but stay bound:
# benchmark/tracing.py patches them on this module by name, as it does
# reduced_rhs and recover_displacements
from .assembly import (
    StiffnessPlan,
    SystemPartition,
    _fields,
    element_geometry,
    make_partition,
    mode_matrix,
    reduced_gram,
    reduced_rhs,
)
from .elements import SQRT2, bilinear_stress, truss_decomposition
from .errors import (
    InvalidParameterError,
    InvalidStateError,
    UnstableStructureError,
    UnsupportedModelError,
)
from .model import ElementKind, StructuralModel, default_additional_set
from .solvers import (
    LowRankTangent,
    SriPreconditioner,
    _check_inputs,
    build_sri_preconditioner,
    fdp_factor,
    recover_displacements,
    solve_sri,
)

OUTER_CAP = 50


@dataclass
class MaterialState:
    """Per-element bilinear state arrays evaluated at one displacement field."""

    strain: np.ndarray
    stress: np.ndarray
    tangent: np.ndarray
    yielded: np.ndarray

    @property
    def n_nonlinear(self) -> int:
        return int(np.count_nonzero(self.yielded))


@dataclass(frozen=True)
class Bars:
    """Unit mode rows, stiffness plan and bilinear material data of a truss
    model's bars.

    c is the (bars, n) matrix of the axial mode rows on the free DOFs,
    assembly.mode_matrix(model); of reads the record fields through
    assembly._fields, as element_blocks does.  plan is the model's
    StiffnessPlan, which assembles and factors every tangent of a run.  It
    is built at its first use and kept, so a "reduction" run, which factors
    no stiffness, never builds it, and an "sri" run builds it after its
    partition, whose build is the run's largest transient.
    """

    c: sp.csr_matrix
    length: np.ndarray
    area: np.ndarray
    e0: np.ndarray
    et: np.ndarray
    sigma_y: np.ndarray
    model: StructuralModel = field(repr=False, compare=False)

    @cached_property
    def plan(self) -> StiffnessPlan:
        return StiffnessPlan.of(self.model)

    @staticmethod
    def of(model: StructuralModel) -> "Bars":
        flat = []
        for elem in model.elements:
            if elem.kind is not ElementKind.TRUSS_BAR:
                raise UnsupportedModelError("nonlinear driver handles truss models only")
            m = elem.material
            if m.e0 is None or m.et is None or m.sigma_y is None:
                raise UnsupportedModelError(
                    f"element {elem.id} lacks bilinear material data")
            flat += (elem.section.area, m.e0, m.et, m.sigma_y)
        area, e0, et, sigma_y = _fields(flat, range(len(model.elements)),
                                        (("bar section needs area", [0]),))
        return Bars(c=mode_matrix(model), length=element_geometry(model)[1],
                    area=area, e0=e0, et=et, sigma_y=sigma_y, model=model)


def evaluate_state(bars: Bars, d: np.ndarray) -> MaterialState:
    """Bilinear stress/tangent state of every bar at displacement d."""
    strain = SQRT2 * (bars.c @ d) / bars.length
    return MaterialState(strain, *bilinear_stress(strain, bars.e0, bars.et, bars.sigma_y))


def internal_force(bars: Bars, state: MaterialState) -> np.ndarray:
    """Assembled internal nodal force vector F(d) = C^T (sqrt(2) A sigma) on
    the free DOFs, sigma being the stresses of the state at d."""
    return bars.c.T @ (SQRT2 * bars.area * state.stress)


def _tangent_blocks(bars: Bars, state: MaterialState) -> np.ndarray:
    """(bars, 1, 1) parameter blocks 2 E_t A / L of a state; raises
    InvalidStateError on a non-positive tangent modulus."""
    if np.any(state.tangent <= 0.0):
        raise InvalidStateError("non-positive tangent modulus")
    return truss_decomposition(state.tangent, bars.area, bars.length)[:, None, None]


def assemble_tangent(bars: Bars, state: MaterialState) -> sp.csr_matrix:
    """Assembled tangent stiffness C^T diag(2 E_t A / L) C, by the run's plan."""
    return bars.plan.assemble(_tangent_blocks(bars, state))


def factor_tangent(bars: Bars, blocks: np.ndarray):
    """Factor of the tangent stiffness under the (bars, 1, 1) parameter
    blocks, by the run's plan: the "regular" backend's factor, and the
    stiffness factor of each "sri" base.  Raises UnstableStructureError when
    the tangent is singular or nearly so."""
    return bars.plan.factor(blocks, UnstableStructureError, "tangent stiffness")


def tangent_partition(bars: Bars, state: MaterialState,
                      partition: SystemPartition) -> SystemPartition:
    """Partition with parameter blocks rebuilt from the tangent moduli.

    The topology (basis factorization, influence matrix) is element-layout
    bound and is reused untouched; only the 1x1 bar blocks change.
    """
    return partition.with_blocks(_tangent_blocks(bars, state))


@dataclass
class NonlinearRun:
    """History of one load-controlled run."""

    backend: str
    lambdas: list[float] = field(default_factory=list)
    displacements: list[np.ndarray] = field(default_factory=list)
    outer_iterations: list[int] = field(default_factory=list)
    inner_iterations: list[int] = field(default_factory=list)  # SRI iterations per step
    factorizations: list[int] = field(default_factory=list)  # factors or bases built per step
    update_ranks: list[int] = field(default_factory=list)  # largest low-rank update per step
    n_nle: list[int] = field(default_factory=list)
    converged: bool = True
    failed_step: int | None = None
    final_state: MaterialState | None = None
    wall_time: float = 0.0
    step_times: list[float] = field(default_factory=list)  # wall time per converged step


def _fail(run: NonlinearRun, step: int, state: MaterialState, t0: float) -> NonlinearRun:
    """End a run unconverged at the given load step."""
    run.converged = False
    run.failed_step = step
    run.final_state = state
    run.wall_time = time.perf_counter() - t0
    return run


def run_newton_raphson(model: StructuralModel, p0: np.ndarray, n_steps: int = 20,
                       backend: str = "regular", tol_outer: float = 1e-8,
                       tol_inner: float = 1e-15) -> NonlinearRun:
    """Equal-increment load-controlled Newton-Raphson run.

    backend "regular" solves the assembled tangent directly, "reduction" the
    tangent reduced system directly, "sri" the reduced system iteratively,
    preconditioned with the current tangent (residuals normalized by the
    step load norm); both reduced backends partition the model with its
    default_additional_set.  The factor of a tangent is built once and
    reused by every later Newton iteration whose tangent moduli are
    np.array_equal to those it was built from, and the held one is dropped
    before the next is built; the reduced backends hold a base and a
    low-rank update to it (solvers.LowRankTangent) in place of the factor,
    and build a new base only by its rebuild rule.  run.factorizations
    counts the factors or bases built per step, run.update_ranks the
    largest rank of the update, run.step_times each step's wall time.  A
    step that fails to converge within OUTER_CAP iterations, or
    whose inner SRI solve ends unconverged, terminates the run with the
    history accumulated so far.  A p0 that is not a finite n-vector,
    n_steps < 1 or a tolerance that is not positive and finite raises
    InvalidParameterError before anything is built.
    """
    if backend not in ("regular", "reduction", "sri"):
        raise UnsupportedModelError(f"unknown backend {backend!r}")
    if n_steps < 1:
        raise InvalidParameterError(f"need at least one load step, got n_steps={n_steps}")
    _check_inputs(p0, model.n, tol_outer=tol_outer, tol_inner=tol_inner)
    bars = Bars.of(model)
    t0 = time.perf_counter()

    partition = tangent = None
    if backend != "regular":
        partition = make_partition(model, default_additional_set(model))
        tangent = LowRankTangent(
            fdp_factor if backend == "reduction"
            else lambda part: SriPreconditioner(part, factor_tangent(bars, part.blocks)))

    run = NonlinearRun(backend=backend)
    d = np.zeros(model.n)
    # the moduli of the held tangent; factor is the regular backend's
    # factor_tangent factor, tangent the reduced backends' held operator
    moduli = factor = None
    for step in range(1, n_steps + 1):
        t_step = time.perf_counter()
        lam = step / n_steps
        target = lam * p0
        target_norm = float(np.linalg.norm(target))
        iters = inner = built = rank = 0
        while True:
            state = evaluate_state(bars, d)
            residual = internal_force(bars, state) - target
            res_norm = float(np.linalg.norm(residual))
            if res_norm < tol_outer * target_norm or res_norm == 0.0:
                break
            if iters >= OUTER_CAP:
                return _fail(run, step, state, t0)
            if not np.array_equal(state.tangent, moduli):
                if backend == "regular":
                    factor = None  # release the old factor first
                    factor = factor_tangent(bars, _tangent_blocks(bars, state))
                    built += 1
                else:
                    built += tangent.update(tangent_partition(bars, state, partition))
                moduli = state.tangent
            if tangent is not None:
                rank = max(rank, tangent.rank)
            if backend == "regular":
                delta = factor.solve(-residual)
            elif backend == "reduction":
                b, b_s = reduced_rhs(tangent.partition, -residual)
                delta = recover_displacements(tangent.partition, tangent.solve(b), b_s)
            else:
                rep = solve_sri(tangent.partition, -residual, tangent, tol=tol_inner,
                                norm_ref=target_norm)
                if not rep.converged:
                    return _fail(run, step, state, t0)
                delta = rep.d
                inner += rep.iterations
            d = d + delta
            iters += 1
        run.lambdas.append(lam)
        run.displacements.append(d.copy())
        run.outer_iterations.append(iters)
        run.inner_iterations.append(inner)
        run.factorizations.append(built)
        run.update_ranks.append(rank)
        run.n_nle.append(state.n_nonlinear)
        run.step_times.append(time.perf_counter() - t_step)
    run.final_state = state
    run.wall_time = time.perf_counter() - t0
    return run
