"""The four linear solution paths: direct, full-system PCG, SRI and FDP.

SRI solves the reduced system (K_La^-1 + C_s K_Lb^-1 C_s^T) F_a = B by
conjugate gradients preconditioned with the same operator built from the
original (unmodified) structure; FDP solves it in closed form through a dense
q x q Cholesky factorization; PCG iterates on the full system preconditioned
with the factorized original stiffness.  All paths return a uniform
SolveReport and, per the operation-count model, evaluate strictly as
matrix-vector chains with the operator applied once per iteration.

SRI never forms the reduced operator, and its preconditioner inverts the
original reduced operator through the Woodbury identity with the factor of
the original stiffness.  Every stiffness factor (the complete analysis's,
PCG's and the preconditioner's) is assembly.factor_spd's: banded Cholesky in
reverse Cuthill-McKee order where that band is narrow, sparse LU otherwise
(assembly.BAND_SHARE).  An SRI iteration makes one solve with the
original stiffness's factor plus one operator apply (reduced_apply), whose
products with C_s take the route SystemPartition.c_s_stored holds.  The
first preconditioner apply of a solve adds one refinement step (one more
operator apply and one more stiffness solve).
FDP forms the dense q x q operator from the sparse influence matrix
(reduced_gram: BLAS over the few rows of C_s^T dense enough to pay, a sparse
product over the rest) and factors it in place (fdp_factor); the nonlinear
"reduction" backend holds fdp_factor's factor of each tangent partition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import costmodel
from .assembly import (
    SystemPartition,
    _block_diag,
    assemble_global,
    factor_spd,
    factorize_stiffness,
    reduced_apply,
    reduced_gram,
    reduced_rhs,
    stiffness,
)
from .errors import InternalError, InvalidParameterError, UnstableStructureError
from .model import StructuralModel

DEFAULT_TOL = 1e-12


@dataclass
class SolveReport:
    """Uniform result record of one linear solve."""

    method: str
    d: np.ndarray
    iterations: int = 0
    f_a: np.ndarray | None = None
    residual_history: list[float] = field(default_factory=list)
    rz_history: list[float] = field(default_factory=list)  # (r, M^-1 r) per iteration
    flops_estimate: int | None = None
    wall_time: float = 0.0
    converged: bool = True


def solve_conventional(model: StructuralModel) -> SolveReport:
    """Complete analysis: assemble the stiffness and solve K d = R directly.
    A non-finite load raises InvalidParameterError."""
    t0 = time.perf_counter()
    r = model.load_vector()
    _check_inputs(r, model.n)
    d = factorize_stiffness(model).solve(r)
    return SolveReport(method="conventional", d=d, wall_time=time.perf_counter() - t0)


def _check_inputs(r: np.ndarray, n: int, **positive: float) -> None:
    """Raise InvalidParameterError unless the load r is a finite (n,) vector
    and every keyword value (a tolerance, norm_ref) is positive and finite."""
    for name, value in positive.items():
        if not 0.0 < value < np.inf:
            raise InvalidParameterError(f"{name} must be positive and finite, got {value}")
    if np.shape(r) != (n,):
        raise InvalidParameterError(f"load vector has shape {np.shape(r)}, expected ({n},)")
    if not np.all(np.isfinite(r)):
        raise InvalidParameterError("load vector holds a non-finite value")


def _cg(apply_a, apply_m, b: np.ndarray, ref: float, tol: float, max_iter: int,
        apply_m_first=None):
    """Preconditioned conjugate gradients from x = 0.

    apply_m_first, when given, preconditions the initial residual in place of
    apply_m.  Stops converged once ||r|| / ref < tol; stops unconverged at
    max_iter, on a non-positive curvature p.Ap (the operator is not positive
    definite) or on a non-finite residual.  Returns x, iterations, the
    residual history and the (r, M^-1 r) history.
    """
    x = np.zeros(b.shape[0])
    r = b.copy()
    history: list[float] = []
    rz_history: list[float] = []
    iterations = 0
    if ref == 0.0:
        history.append(0.0)
        return x, iterations, history, rz_history, True
    res = float(np.linalg.norm(r)) / ref
    history.append(res)
    if res < tol:
        return x, iterations, history, rz_history, True
    z = (apply_m_first or apply_m)(r)
    p = z.copy()
    rz = float(r @ z)
    rz_history.append(rz)
    while iterations < max_iter:
        ap = apply_a(p)
        curvature = float(p @ ap)
        if not curvature > 0.0:
            break
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * ap
        iterations += 1
        res = float(np.linalg.norm(r)) / ref
        history.append(res)
        if res < tol:
            return x, iterations, history, rz_history, True
        if not np.isfinite(res):
            break
        z = apply_m(r)
        rz_new = float(r @ z)
        rz_history.append(rz_new)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, iterations, history, rz_history, False


def solve_pcg_full(model_modified: StructuralModel, k0_factorization, tol: float = DEFAULT_TOL,
                   max_iter: int | None = None, k_matrix=None) -> SolveReport:
    """Preconditioned CG on the full modified system.

    k0_factorization is the factorized stiffness of the original structure
    (obtained in advance via factorize_stiffness) and acts as the
    preconditioner; k_matrix may pass a pre-assembled modified stiffness so
    assembly stays outside the timed solve.  The convergence test divides the
    residual norm by ||R||.  A non-finite load or a tol that is not positive
    and finite raises InvalidParameterError before any work.
    """
    r_vec = model_modified.load_vector()
    _check_inputs(r_vec, model_modified.n, tol=tol)
    k = k_matrix if k_matrix is not None else assemble_global(model_modified)
    n = model_modified.n
    if max_iter is None:
        max_iter = 10 * n

    t0 = time.perf_counter()
    x, iterations, history, rz_history, converged = _cg(
        lambda p: k @ p, k0_factorization.solve, r_vec, float(np.linalg.norm(r_vec)),
        tol, max_iter)
    wall = time.perf_counter() - t0
    return SolveReport(method="pcg", d=x, iterations=iterations,
                       residual_history=history, rz_history=rz_history,
                       flops_estimate=costmodel.flops_pcg(n, iterations),
                       wall_time=wall, converged=converged)


class SriPreconditioner:
    """Inverse action of the original structure's reduced operator
    M0 = K_La0^-1 + C_s K_Lb0^-1 C_s^T, without forming M0.

    By the Woodbury identity, with K0 = C_b^T K_Lb0 C_b + C_a^T K_La0 C_a the
    original stiffness,
        M0^-1 = W = K_La0 - K_La0 C_a K0^-1 C_a^T K_La0,
    so W(v) costs one solve with K0's factor_spd factor.  apply() adds
    one refinement step, z + W(v - M0 z), at one operator apply (two basis
    solves) and a second K0 solve; apply(v, refine=False) is W(v) alone.
    """

    def __init__(self, original: SystemPartition, k0_factor):
        self.q = original.q
        self._original = original
        self._k_la0 = _block_diag(original.blocks[original.additional_ids])
        self._k0_factor = k0_factor

    def _woodbury(self, v: np.ndarray) -> np.ndarray:
        part = self._original
        u = self._k_la0 @ v
        return u - self._k_la0 @ (part.c_a @ self._k0_factor.solve(part.c_a.T @ u))

    def apply(self, v: np.ndarray, refine: bool = True) -> np.ndarray:
        # W subtracts two nearly equal terms when the additional components
        # are stiff against the rest (~3.5e4-fold cancellation on the graded
        # frame, ~1e-9 relative error); the refinement step restores full
        # accuracy.  solve_sri refines only the first apply: that one alone
        # decides whether self-reanalysis ends after exactly one iteration,
        # and CG tolerates the error in the later ones
        z = self._woodbury(v)
        if refine:
            z += self._woodbury(v - reduced_apply(self._original, z))
        return z


def build_sri_preconditioner(partition_original: SystemPartition) -> SriPreconditioner:
    """Factorize the original stiffness K0 = C^T K_L0 C formed from the
    partition, with C = [C_b; C_a] and K_L0 = diag(K_Lb0, K_La0), by
    factor_spd; built once per reanalysis campaign.  Raises
    UnstableStructureError when factor_spd rejects the factor."""
    part = partition_original
    k0 = stiffness(sp.vstack([part.c_b, part.c_a]),
                   part.blocks[np.concatenate([part.basis_ids, part.additional_ids])])
    return SriPreconditioner(part, factor_spd(k0, UnstableStructureError, "original stiffness"))


def recover_displacements(partition: SystemPartition, f_a: np.ndarray,
                          b_s: np.ndarray) -> np.ndarray:
    """Displacements from additional-component forces:
    d = C_b^-1 (B_s - K_Lb^-1 C_s^T F_a), with B_s = K_Lb^-1 C_b^-T R the
    basis solution reduced_rhs returns."""
    return partition.c_b_lu.solve(b_s - partition.k_lb_inv @ partition.apply_c_s_t(f_a))


def solve_sri(partition_modified: SystemPartition, r: np.ndarray,
              preconditioner: SriPreconditioner, tol: float = DEFAULT_TOL,
              max_iter: int | None = None, norm_ref: float | None = None) -> SolveReport:
    """Reduced preconditioned iteration for the modified structure.

    Runs CG on the additional-component force vector with the original
    structure's reduced operator as preconditioner, then recovers the full
    displacement field through the basis factorization.  The convergence test
    divides the residual norm by ||B|| unless norm_ref overrides the
    denominator (the nonlinear driver normalizes by the step load instead).
    A load that is not a finite n-vector, or a tol or norm_ref that is not
    positive and finite, raises InvalidParameterError before any work.
    """
    if preconditioner.q != partition_modified.q:
        raise InternalError(
            f"preconditioner size {preconditioner.q} != reduced size {partition_modified.q}")
    _check_inputs(r, partition_modified.n, tol=tol,
                  **({} if norm_ref is None else {"norm_ref": norm_ref}))
    n, q = partition_modified.n, partition_modified.q
    if max_iter is None:
        max_iter = max(10 * q, 1)

    t0 = time.perf_counter()
    b, b_s = reduced_rhs(partition_modified, r)
    ref = norm_ref if norm_ref is not None else float(np.linalg.norm(b))
    x, iterations, history, rz_history, converged = _cg(
        lambda p: reduced_apply(partition_modified, p),
        lambda v: preconditioner.apply(v, refine=False), b, ref, tol, max_iter,
        apply_m_first=preconditioner.apply)
    d = recover_displacements(partition_modified, x, b_s)
    wall = time.perf_counter() - t0
    return SolveReport(method="sri", d=d, f_a=x, iterations=iterations,
                       residual_history=history, rz_history=rz_history,
                       flops_estimate=costmodel.flops_sri(n, q, iterations),
                       wall_time=wall, converged=converged)


def fdp_factor(partition: SystemPartition):
    """Cholesky factor, in scipy.linalg.cho_factor form, of the dense reduced
    operator K_La^-1 + C_s K_Lb^-1 C_s^T: the Gram from reduced_gram with
    K_La^-1 added on its diagonal entries, then factored in place.  Raises
    UnstableStructureError when the operator is not positive definite."""
    gram = reduced_gram(partition)
    k = partition.k_la_inv.tocoo()
    gram[k.row, k.col] += k.data
    try:
        return sla.cho_factor(gram, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise UnstableStructureError(
            f"reduced operator is not positive definite: {exc}") from exc


def solve_fdp(partition_modified: SystemPartition, r: np.ndarray) -> SolveReport:
    """Direct reduced-system path via the low-rank update identity.

    Factors the dense reduced operator by fdp_factor, solves it for the
    additional-component forces and recovers the displacements as
    matrix-vector chains.  A load that is not a finite n-vector raises
    InvalidParameterError; a reduced operator that is not positive definite
    raises UnstableStructureError.
    """
    _check_inputs(r, partition_modified.n)
    n, q = partition_modified.n, partition_modified.q
    t0 = time.perf_counter()
    b, b_s = reduced_rhs(partition_modified, r)
    f_a = sla.cho_solve(fdp_factor(partition_modified), b)
    d = recover_displacements(partition_modified, f_a, b_s)
    wall = time.perf_counter() - t0
    return SolveReport(method="fdp", d=d, f_a=f_a,
                       flops_estimate=costmodel.flops_fdp(n, q),
                       wall_time=wall, converged=True)
