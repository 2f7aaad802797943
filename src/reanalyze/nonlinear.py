"""Load-controlled Newton-Raphson analysis of bilinear-material trusses.

Each equal load step scales the base load vector; the incremental equations
K_t(d) delta_d = -(F(d) - lambda P0) are solved by one of three backends:
"regular" factorizes the assembled tangent by assembly.factor_spd (banded
Cholesky where its reverse Cuthill-McKee band is narrow, sparse LU
otherwise), "reduction" solves the tangent reduced system directly, "sri"
runs the reduced preconditioned iteration with the elastic-state
preconditioner held fixed for the whole run.  The material law is
total-strain bilinear (monotonic loading, no unloading hysteresis), so the
state is a pure function of the current displacement field.

A run keeps the factor of its last tangent: the "regular" backend's
factor_spd factor, the "reduction" backend's Cholesky factor of
K_La^-1 + G (solvers.fdp_factor) and the "sri" backend's tangent partition.
It builds a new one only when the tangent moduli differ in any bar from
those the held factor was built from (np.array_equal), that is when some bar
has crossed its yield strain, and drops the held factor first, so at most
one tangent factor is alive.  A reused factor is the factor the same moduli
would rebuild, so reuse changes no result.

Bars go through the linear path's element layer and factorization
K = C^T K_L C: assembly.mode_matrix gives the unit axial mode rows C,
assembly.element_geometry the bar lengths, whence the strains
sqrt(2) C d / L and the internal force C^T (sqrt(2) A sigma), and
assembly._fields reads the bar records, so a bar lacking a field fails as
in the linear assembly.  A tangent state only changes the 1x1 parameter
blocks 2 E_t A / L, one (bars, 1, 1) array from the bar kernel
elements.truss_decomposition, which the assembled tangent takes through
assembly.stiffness as the linear stiffness does, and the tangent partition
through SystemPartition.with_blocks.  The "reduction" backend solves as
solvers.solve_fdp does: reduced_rhs, cho_solve with the held factor, then
recover_displacements.  The helpers below take the Bars a run builds once
from its model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

# reduced_gram is unused here but stays bound: benchmark/tracing.py patches it
# on this module by name, as it does reduced_rhs and recover_displacements
from .assembly import (
    SystemPartition,
    _fields,
    element_geometry,
    factor_spd,
    make_partition,
    mode_matrix,
    reduced_gram,
    reduced_rhs,
    stiffness,
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
    """Unit mode rows and bilinear material data of a truss model's bars.

    c is the (bars, n) matrix of the axial mode rows on the free DOFs,
    assembly.mode_matrix(model); of reads the record fields through
    assembly._fields, as element_blocks does.
    """

    c: sp.csr_matrix
    length: np.ndarray
    area: np.ndarray
    e0: np.ndarray
    et: np.ndarray
    sigma_y: np.ndarray

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
                    area=area, e0=e0, et=et, sigma_y=sigma_y)


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
    """Assembled tangent stiffness C^T diag(2 E_t A / L) C."""
    return stiffness(bars.c, _tangent_blocks(bars, state))


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
    factorizations: list[int] = field(default_factory=list)  # tangent factors built per step
    n_nle: list[int] = field(default_factory=list)
    converged: bool = True
    failed_step: int | None = None
    final_state: MaterialState | None = None
    wall_time: float = 0.0


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
    tangent reduced system directly, "sri" the reduced system iteratively with
    the elastic preconditioner kept for the whole run (residuals normalized by
    the step load norm); both reduced backends partition the model with its
    default_additional_set.  The factor of a tangent (for "sri", its
    partition) is built once and reused by every later Newton iteration whose
    tangent moduli are np.array_equal to those it was built from, so only a
    change of some bar's state costs a new factor, and the held one is
    dropped before the next is built; run.factorizations counts them per
    step.  A step that fails to converge within OUTER_CAP iterations, or
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

    partition = precond = None
    if backend in ("reduction", "sri"):
        partition = make_partition(model, default_additional_set(model))
        if backend == "sri":
            precond = build_sri_preconditioner(partition)

    run = NonlinearRun(backend=backend)
    d = np.zeros(model.n)
    # the moduli the held factor was built from; factor is the regular
    # backend's factor_spd factor or the reduction backend's Cholesky factor,
    # part_t the reduced backends' tangent partition
    moduli = factor = part_t = None
    for step in range(1, n_steps + 1):
        lam = step / n_steps
        target = lam * p0
        target_norm = float(np.linalg.norm(target))
        iters = inner = built = 0
        while True:
            state = evaluate_state(bars, d)
            residual = internal_force(bars, state) - target
            res_norm = float(np.linalg.norm(residual))
            if res_norm < tol_outer * target_norm or res_norm == 0.0:
                break
            if iters >= OUTER_CAP:
                return _fail(run, step, state, t0)
            if not np.array_equal(state.tangent, moduli):
                moduli = factor = part_t = None  # release the old factor first
                if backend == "regular":
                    factor = factor_spd(assemble_tangent(bars, state), UnstableStructureError,
                                        "tangent stiffness")
                else:
                    part_t = tangent_partition(bars, state, partition)
                    if backend == "reduction":
                        factor = fdp_factor(part_t)
                moduli = state.tangent
                built += 1
            if backend == "regular":
                delta = factor.solve(-residual)
            elif backend == "reduction":
                b, b_s = reduced_rhs(part_t, -residual)
                delta = recover_displacements(part_t, sla.cho_solve(factor, b), b_s)
            else:
                rep = solve_sri(part_t, -residual, precond, tol=tol_inner,
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
        run.n_nle.append(state.n_nonlinear)
    run.final_state = state
    run.wall_time = time.perf_counter() - t0
    return run
