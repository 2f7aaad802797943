"""Load-controlled Newton-Raphson analysis of bilinear-material trusses.

Each equal load step scales the base load vector; the incremental equations
K_t(d) delta_d = -(F(d) - lambda P0) are solved by one of three backends:
"regular" factorizes the assembled tangent, "reduction" solves the tangent
reduced system directly, "sri" runs the reduced preconditioned iteration with
the elastic-state preconditioner held fixed for the whole run.  The material
law is total-strain bilinear (monotonic loading, no unloading hysteresis), so
the state is a pure function of the current displacement field.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    SystemPartition,
    make_partition,
    reduced_gram,
    reduced_rhs,
    symmetrize,
)
from .errors import InvalidStateError, UnsupportedModelError
from .model import ElementKind, PartitionSpec, StructuralModel, default_additional_set
from .solvers import (
    build_sri_preconditioner,
    recover_displacements,
    solve_reduced_dense,
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


class _TrussArrays:
    """Vectorized element data of a bilinear truss model."""

    def __init__(self, model: StructuralModel):
        for elem in model.elements:
            if elem.kind is not ElementKind.TRUSS_BAR:
                raise UnsupportedModelError("nonlinear driver handles truss models only")
            m = elem.material
            if m.e0 is None or m.et is None or m.sigma_y is None:
                raise UnsupportedModelError(
                    f"element {elem.id} lacks bilinear material data")
        ne = len(model.elements)
        self.node_i = np.array([e.node_i for e in model.elements])
        self.node_j = np.array([e.node_j for e in model.elements])
        xy = np.array([[nd.x, nd.y] for nd in model.nodes])
        delta = xy[self.node_j] - xy[self.node_i]
        self.length = np.hypot(delta[:, 0], delta[:, 1])
        self.axis = delta / self.length[:, None]
        self.area = np.array([e.section.area for e in model.elements])
        self.e0 = np.array([e.material.e0 for e in model.elements])
        self.et = np.array([e.material.et for e in model.elements])
        self.sigma_y = np.array([e.material.sigma_y for e in model.elements])
        self.eps_y = self.sigma_y / self.e0
        # global DOF indices of (xi, yi, xj, yj); -1 marks constrained slots
        self.dofs = np.hstack([model.dof_map[self.node_i], model.dof_map[self.node_j]])
        self.n = model.n
        self.n_nodes = len(model.nodes)
        self.dof_map = model.dof_map
        free = self.dofs.reshape(ne, 4)
        self.free_mask = free >= 0

    def pad(self, d: np.ndarray) -> np.ndarray:
        full = np.zeros((self.n_nodes, 2))
        mask = self.dof_map >= 0
        full[mask] = d[self.dof_map[mask]]
        return full


def evaluate_state(model: StructuralModel, d: np.ndarray,
                   arrays: _TrussArrays | None = None) -> MaterialState:
    """Bilinear stress/tangent state of every bar at displacement d."""
    ta = arrays if arrays is not None else _TrussArrays(model)
    full = ta.pad(d)
    rel = full[ta.node_j] - full[ta.node_i]
    strain = np.einsum("ij,ij->i", rel, ta.axis) / ta.length
    yielded = np.abs(strain) > ta.eps_y
    stress = np.where(
        yielded,
        np.sign(strain) * (ta.sigma_y + ta.et * (np.abs(strain) - ta.eps_y)),
        ta.e0 * strain)
    tangent = np.where(yielded, ta.et, ta.e0)
    return MaterialState(strain, stress, tangent, yielded)


def internal_force(model: StructuralModel, d: np.ndarray,
                   state: MaterialState | None = None,
                   arrays: _TrussArrays | None = None) -> np.ndarray:
    """Assembled internal nodal force vector F(d) on the free DOFs."""
    ta = arrays if arrays is not None else _TrussArrays(model)
    st = state if state is not None else evaluate_state(model, d, ta)
    axial = st.stress * ta.area
    contrib = np.hstack([-axial[:, None] * ta.axis, axial[:, None] * ta.axis])
    f = np.zeros(ta.n)
    dofs = ta.dofs.ravel()
    vals = contrib.ravel()
    keep = dofs >= 0
    np.add.at(f, dofs[keep], vals[keep])
    return f


def assemble_tangent(model: StructuralModel, state: MaterialState,
                     arrays: _TrussArrays | None = None) -> sp.csr_matrix:
    """Assembled tangent stiffness with per-element bilinear tangent moduli."""
    ta = arrays if arrays is not None else _TrussArrays(model)
    if np.any(state.tangent <= 0.0):
        raise InvalidStateError("non-positive tangent modulus")
    coeff = state.tangent * ta.area / ta.length
    v = np.hstack([-ta.axis, ta.axis])  # (ne, 4)
    k_e = coeff[:, None, None] * v[:, :, None] * v[:, None, :]
    dofs = ta.dofs  # (ne, 4)
    rows = np.repeat(dofs, 4, axis=1).ravel()
    cols = np.tile(dofs, (1, 4)).ravel()
    data = k_e.reshape(-1, 16).ravel()
    keep = (rows >= 0) & (cols >= 0)
    k = sp.csr_matrix((data[keep], (rows[keep], cols[keep])), shape=(ta.n, ta.n))
    k.sum_duplicates()
    return symmetrize(k)


def tangent_partition(model: StructuralModel, state: MaterialState,
                      partition: SystemPartition,
                      arrays: _TrussArrays | None = None) -> SystemPartition:
    """Partition with parameter blocks rebuilt from the tangent moduli.

    The topology (basis factorization, influence matrix) is element-layout
    bound and is reused untouched; only the 1x1 bar blocks change.
    """
    if np.any(state.tangent <= 0.0):
        raise InvalidStateError("non-positive tangent modulus")
    ta = arrays if arrays is not None else _TrussArrays(model)
    k_all = 2.0 * state.tangent * ta.area / ta.length
    kb = k_all[partition.basis_ids]
    ka = k_all[partition.additional_ids]
    q = partition.q
    return dataclasses.replace(
        partition,
        k_lb=sp.diags(kb).tocsr(),
        k_lb_inv=sp.diags(1.0 / kb).tocsr(),
        k_la=sp.diags(ka).tocsr() if q else sp.csr_matrix((0, 0)),
        k_la_inv=sp.diags(1.0 / ka).tocsr() if q else sp.csr_matrix((0, 0)))


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


def _solve_reduction(partition_t: SystemPartition, rhs: np.ndarray) -> np.ndarray:
    """Direct solve of the tangent reduced system, then recovery."""
    b, b_s = reduced_rhs(partition_t, rhs)
    f_a = solve_reduced_dense(partition_t, reduced_gram(partition_t), b)
    return recover_displacements(partition_t, f_a, rhs, b_s=b_s)


def _fail(run: NonlinearRun, step: int, state: MaterialState, t0: float) -> NonlinearRun:
    """End a run unconverged at the given load step."""
    run.converged = False
    run.failed_step = step
    run.final_state = state
    run.wall_time = time.perf_counter() - t0
    return run


def run_newton_raphson(model: StructuralModel, p0: np.ndarray, n_steps: int = 20,
                       backend: str = "regular", tol_outer: float = 1e-8,
                       tol_inner: float = 1e-15, max_outer: int = OUTER_CAP,
                       partition_spec: PartitionSpec | None = None) -> NonlinearRun:
    """Equal-increment load-controlled Newton-Raphson run.

    backend "regular" solves the assembled tangent directly, "reduction" the
    tangent reduced system directly, "sri" the reduced system iteratively with
    the elastic preconditioner kept for the whole run (residuals normalized by
    the step load norm).  A step that fails to converge within max_outer
    iterations, or whose inner SRI solve ends unconverged, terminates the run
    with the history accumulated so far.
    """
    if backend not in ("regular", "reduction", "sri"):
        raise UnsupportedModelError(f"unknown backend {backend!r}")
    arrays = _TrussArrays(model)
    t0 = time.perf_counter()

    partition = precond = None
    if backend in ("reduction", "sri"):
        spec = partition_spec if partition_spec is not None else default_additional_set(model)
        partition = make_partition(model, spec)
        if backend == "sri":
            precond = build_sri_preconditioner(partition)

    run = NonlinearRun(backend=backend)
    d = np.zeros(model.n)
    state = evaluate_state(model, d, arrays)
    for step in range(1, n_steps + 1):
        lam = step / n_steps
        target = lam * p0
        target_norm = float(np.linalg.norm(target))
        iters = inner = 0
        while True:
            state = evaluate_state(model, d, arrays)
            residual = internal_force(model, d, state, arrays) - target
            res_norm = float(np.linalg.norm(residual))
            if res_norm < tol_outer * target_norm or res_norm == 0.0:
                break
            if iters >= max_outer:
                return _fail(run, step, state, t0)
            if backend == "regular":
                k_t = assemble_tangent(model, state, arrays)
                delta = spla.splu(k_t.tocsc()).solve(-residual)
            elif backend == "reduction":
                part_t = tangent_partition(model, state, partition, arrays)
                delta = _solve_reduction(part_t, -residual)
            else:
                part_t = tangent_partition(model, state, partition, arrays)
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
        run.n_nle.append(state.n_nonlinear)
    run.final_state = state
    run.wall_time = time.perf_counter() - t0
    return run
