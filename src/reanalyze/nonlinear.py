"""Load-controlled Newton-Raphson analysis of bilinear-material trusses.

Each equal load step scales the base load vector; the incremental equations
K_t(d) delta_d = -(F(d) - lambda P0) are solved by one of three backends:
"regular" factorizes the assembled tangent, "reduction" solves the tangent
reduced system directly, "sri" runs the reduced preconditioned iteration with
the elastic-state preconditioner held fixed for the whole run.  The material
law is total-strain bilinear (monotonic loading, no unloading hysteresis), so
the state is a pure function of the current displacement field.

Bars share the linear path's factorization K = C^T K_L C, its element
geometry and its element kernels: assembly.mode_matrix gives the unit axial
mode rows C, built by the one mode-row kernel exactly as the linear
assembly builds them, and assembly.element_geometry the bar lengths, whence
the strains sqrt(2) C d / L and the internal force C^T (sqrt(2) A sigma).
A tangent state only changes the 1x1 parameter blocks 2 E_t A / L, which
come from the linear assembly's bar kernel elements.truss_decomposition and
which the assembled tangent and the tangent partition build through the
same assembly helpers as the linear stiffness.  The "reduction" backend is
solvers.solve_fdp on the tangent partition.  The helpers below take the Bars
a run builds once from its model, not the model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# reduced_rhs, reduced_gram and recover_displacements are unused here but stay
# bound: benchmark/tracing.py patches them on this module by name
from .assembly import (
    SystemPartition,
    element_geometry,
    make_partition,
    mode_matrix,
    reduced_gram,
    reduced_rhs,
    sparse_lu,
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
    build_sri_preconditioner,
    recover_displacements,
    solve_fdp,
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
    assembly.mode_matrix(model), the rows assemble_parameters(model) returns.
    """

    c: sp.csr_matrix
    length: np.ndarray
    area: np.ndarray
    e0: np.ndarray
    et: np.ndarray
    sigma_y: np.ndarray

    @staticmethod
    def of(model: StructuralModel) -> "Bars":
        for elem in model.elements:
            if elem.kind is not ElementKind.TRUSS_BAR:
                raise UnsupportedModelError("nonlinear driver handles truss models only")
            m = elem.material
            if m.e0 is None or m.et is None or m.sigma_y is None:
                raise UnsupportedModelError(
                    f"element {elem.id} lacks bilinear material data")
        return Bars(
            c=mode_matrix(model), length=element_geometry(model)[1],
            area=np.array([e.section.area for e in model.elements]),
            e0=np.array([e.material.e0 for e in model.elements]),
            et=np.array([e.material.et for e in model.elements]),
            sigma_y=np.array([e.material.sigma_y for e in model.elements]))


def evaluate_state(bars: Bars, d: np.ndarray) -> MaterialState:
    """Bilinear stress/tangent state of every bar at displacement d."""
    strain = SQRT2 * (bars.c @ d) / bars.length
    stress, tangent = bilinear_stress(strain, bars.e0, bars.et, bars.sigma_y)
    return MaterialState(strain, stress, tangent, np.abs(strain) > bars.sigma_y / bars.e0)


def internal_force(bars: Bars, state: MaterialState) -> np.ndarray:
    """Assembled internal nodal force vector F(d) = C^T (sqrt(2) A sigma) on
    the free DOFs, sigma being the stresses of the state at d."""
    return bars.c.T @ (SQRT2 * bars.area * state.stress)


def _tangent_parameters(bars: Bars, state: MaterialState) -> np.ndarray:
    """Bar parameters 2 E_t A / L of a state; raises InvalidStateError on a
    non-positive tangent modulus."""
    if np.any(state.tangent <= 0.0):
        raise InvalidStateError("non-positive tangent modulus")
    return truss_decomposition(state.tangent, bars.area, bars.length)


def assemble_tangent(bars: Bars, state: MaterialState) -> sp.csr_matrix:
    """Assembled tangent stiffness C^T diag(2 E_t A / L) C."""
    return stiffness(bars.c, sp.diags(_tangent_parameters(bars, state)))


def tangent_partition(bars: Bars, state: MaterialState,
                      partition: SystemPartition) -> SystemPartition:
    """Partition with parameter blocks rebuilt from the tangent moduli.

    The topology (basis factorization, influence matrix) is element-layout
    bound and is reused untouched; only the 1x1 bar blocks change.
    """
    return partition.with_blocks(_tangent_parameters(bars, state)[:, None, None])


@dataclass
class NonlinearRun:
    """History of one load-controlled run."""

    backend: str
    lambdas: list[float] = field(default_factory=list)
    displacements: list[np.ndarray] = field(default_factory=list)
    outer_iterations: list[int] = field(default_factory=list)
    inner_iterations: list[int] = field(default_factory=list)  # SRI iterations per step
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
                       tol_inner: float = 1e-15, max_outer: int = OUTER_CAP) -> NonlinearRun:
    """Equal-increment load-controlled Newton-Raphson run.

    backend "regular" solves the assembled tangent directly, "reduction" the
    tangent reduced system directly, "sri" the reduced system iteratively with
    the elastic preconditioner kept for the whole run (residuals normalized by
    the step load norm); both reduced backends partition the model with its
    default_additional_set.  A step that fails to converge within max_outer
    iterations, or whose inner SRI solve ends unconverged, terminates the run
    with the history accumulated so far.  A non-finite load p0 or fewer than
    one load step raises InvalidParameterError before anything is built.
    """
    if backend not in ("regular", "reduction", "sri"):
        raise UnsupportedModelError(f"unknown backend {backend!r}")
    if n_steps < 1:
        raise InvalidParameterError(f"need at least one load step, got n_steps={n_steps}")
    if not np.all(np.isfinite(p0)):
        raise InvalidParameterError("load vector p0 has non-finite entries")
    bars = Bars.of(model)
    t0 = time.perf_counter()

    partition = precond = None
    if backend in ("reduction", "sri"):
        partition = make_partition(model, default_additional_set(model))
        if backend == "sri":
            precond = build_sri_preconditioner(partition)

    run = NonlinearRun(backend=backend)
    d = np.zeros(model.n)
    state = evaluate_state(bars, d)
    for step in range(1, n_steps + 1):
        lam = step / n_steps
        target = lam * p0
        target_norm = float(np.linalg.norm(target))
        iters = inner = 0
        while True:
            state = evaluate_state(bars, d)
            residual = internal_force(bars, state) - target
            res_norm = float(np.linalg.norm(residual))
            if res_norm < tol_outer * target_norm or res_norm == 0.0:
                break
            if iters >= max_outer:
                return _fail(run, step, state, t0)
            if backend == "regular":
                k_t = assemble_tangent(bars, state)
                lu = sparse_lu(k_t, UnstableStructureError, "tangent stiffness",
                               symmetric=True)[0]
                delta = lu.solve(-residual)
                del lu  # a factor kept to the next iteration doubles the peak memory
            elif backend == "reduction":
                delta = solve_fdp(tangent_partition(bars, state, partition), -residual).d
            else:
                rep = solve_sri(tangent_partition(bars, state, partition), -residual,
                                precond, tol=tol_inner, norm_ref=target_norm)
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
        run.n_nle.append(state.n_nonlinear)
    run.final_state = state
    run.wall_time = time.perf_counter() - t0
    return run
