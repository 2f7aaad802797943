"""The four linear solution paths: direct, full-system PCG, SRI and FDP.

SRI solves the reduced system (K_La^-1 + C_s K_Lb^-1 C_s^T) F_a = B by
conjugate gradients preconditioned with the same operator built from the
original (unmodified) structure; FDP solves it in closed form through a
Cholesky factorization of the formed operator; PCG iterates on the full
system preconditioned with the factorized original stiffness.  All paths
return a uniform SolveReport and, per the operation-count model, evaluate
strictly as matrix-vector chains with the operator applied once per
iteration.

SRI never forms the reduced operator, and its preconditioner inverts the
original reduced operator through the Woodbury identity with the factor of
the original stiffness.  Every stiffness factor (the complete analysis's,
PCG's and the preconditioner's) is assembly.factor_spd's.  An SRI iteration
makes one solve with the original stiffness's factor plus one operator
apply (reduced_apply), whose products with C_s take the route
SystemPartition.c_s_stored holds.  The first preconditioner apply of a
solve adds one refinement step (one more operator apply and one more
stiffness solve).
FDP forms the q x q operator from the sparse influence matrix (reduced_gram:
BLAS over the few rows of C_s^T dense enough to pay, a sparse product over
the rest) and factors it (fdp_factor) in the form reduced_gram gives it.
Where rows are heavy (the ladders) the operator is dense and is factored in
place by dense Cholesky; where none is (the frames, about 5% dense with a
reverse Cuthill-McKee band of 4-7% of q) it stays sparse and goes to
factor_spd like a stiffness.

The nonlinear driver's reduced backends solve each tangent through
LowRankTangent: a held base (fdp_factor's factor, or the SRI preconditioner)
corrected by the Woodbury identity over the bars whose stiffness differs
from the base's, the base rebuilt by a ski-rental rule on factor_work's
counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import costmodel
from .assembly import (
    PIVOT_TOL,
    BandedCholesky,
    DenseCholesky,
    SystemPartition,
    _block_diag,
    _check_pivots,
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


class _Refined:
    """The preconditioner interface solve_sri takes, over the solve(v) of an
    approximate inverse W of the reduced operator M of self.partition:
    apply(v) adds one refinement step, z + W(v - M z), at one operator
    apply and a second solve; apply(v, refine=False) is W(v) alone.
    solve_sri refines only the first apply: that one alone decides whether
    self-reanalysis ends after exactly one iteration, and CG tolerates the
    error in the later ones."""

    def apply(self, v: np.ndarray, refine: bool = True) -> np.ndarray:
        z = self.solve(v)
        if refine:
            z += self.solve(v - reduced_apply(self.partition, z))
        return z


class SriPreconditioner(_Refined):
    """Inverse action of the original structure's reduced operator
    M0 = K_La0^-1 + C_s K_Lb0^-1 C_s^T, without forming M0.

    By the Woodbury identity, with K0 = C_b^T K_Lb0 C_b + C_a^T K_La0 C_a the
    original stiffness,
        M0^-1 = W = K_La0 - K_La0 C_a K0^-1 C_a^T K_La0,
    so solve(v), W(v) for a q-vector or a q x k block, costs one solve with
    K0's factor_spd factor.  W subtracts two nearly equal terms when the
    additional components are stiff against the rest (~3.5e4-fold
    cancellation on the graded frame, ~1e-9 relative error); the refinement
    step of apply() restores full accuracy.
    """

    def __init__(self, original: SystemPartition, k0_factor):
        self.q = original.q
        self.partition = original
        self._k_la0 = _block_diag(original.blocks[original.additional_ids])
        self._k0_factor = k0_factor

    def solve(self, v: np.ndarray) -> np.ndarray:
        part = self.partition
        u = self._k_la0 @ v
        return u - self._k_la0 @ (part.c_a @ self._k0_factor.solve(part.c_a.T @ u))


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
              preconditioner: SriPreconditioner | LowRankTangent, tol: float = DEFAULT_TOL,
              max_iter: int | None = None, norm_ref: float | None = None) -> SolveReport:
    """Reduced preconditioned iteration for the modified structure.

    Runs CG on the additional-component force vector with the original
    structure's reduced operator as preconditioner (the nonlinear driver
    passes a LowRankTangent, the current tangent's), then recovers the full
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
    """Factor of the reduced operator K_La^-1 + G, G = C_s K_Lb^-1 C_s^T,
    whose solve(b) solves with it, in the form reduced_gram gives G.  A
    sparse G (no heavy rows) adds K_La^-1 sparsely and factor_spd factors
    the sum.  A dense G takes K_La^-1 on its entries and is factored in
    place by dense Cholesky (DenseCholesky).  Either route raises
    UnstableStructureError when the operator is not positive definite: a
    Cholesky breakdown, or a pivot_ratio below PIVOT_TOL."""
    gram = reduced_gram(partition)
    what = "K_La^-1 + G"
    try:
        if sp.issparse(gram):
            gram = gram + partition.k_la_inv  # rebound, so the Gram is freed
            return factor_spd(gram, np.linalg.LinAlgError, what)
        k = partition.k_la_inv.tocoo()
        gram[k.row, k.col] += k.data
        factor = DenseCholesky(sla.cho_factor(gram, overwrite_a=True, check_finite=False)[0])
        _check_pivots(factor, np.linalg.LinAlgError, what)
        return factor
    except np.linalg.LinAlgError as exc:
        raise UnstableStructureError(f"reduced operator is not positive definite: {exc}") from exc


def solve_fdp(partition_modified: SystemPartition, r: np.ndarray) -> SolveReport:
    """Direct reduced-system path via the low-rank update identity.

    Factors the reduced operator by fdp_factor, solves it for the
    additional-component forces and recovers the displacements as
    matrix-vector chains.  A load that is not a finite n-vector raises
    InvalidParameterError; a reduced operator that is not positive definite
    raises UnstableStructureError.
    """
    _check_inputs(r, partition_modified.n)
    n, q = partition_modified.n, partition_modified.q
    t0 = time.perf_counter()
    b, b_s = reduced_rhs(partition_modified, r)
    f_a = fdp_factor(partition_modified).solve(b)
    d = recover_displacements(partition_modified, f_a, b_s)
    wall = time.perf_counter() - t0
    return SolveReport(method="fdp", d=d, f_a=f_a,
                       flops_estimate=costmodel.flops_fdp(n, q),
                       wall_time=wall, converged=True)


def factor_work(factor) -> tuple[float, float]:
    """Flops of building a factor and of one solve with it, counted from the
    factor's own shape: a dense q x q Cholesky q^3 / 3 and 2 q^2, a banded
    one of order n and bandwidth u n u^2 and 4 n (u + 1), a SuperLU factor
    sum_j l_j (2 u_j + 1) and 2 nnz(L + U), for the l_j entries of L's
    column j and the u_j of U's row j off the diagonal.  An
    SriPreconditioner counts its stiffness factor."""
    if isinstance(factor, SriPreconditioner):
        factor = factor._k0_factor
    if isinstance(factor, DenseCholesky):
        q = factor.c.shape[0]
        return q ** 3 / 3.0, 2.0 * q * q
    if isinstance(factor, BandedCholesky):
        u, n = factor.band.shape[0] - 1, factor.band.shape[1]
        return float(n * u * u), 4.0 * n * (u + 1)
    lower, upper = factor.L, factor.U
    below = np.diff(lower.indptr) - 1.0
    right = np.bincount(upper.indices, minlength=upper.shape[0]) - 1.0
    return float(below @ (2.0 * right + 1.0)), 2.0 * (lower.nnz + upper.nnz)


class LowRankTangent(_Refined):
    """Inverse action of the reduced operator M = K_La^-1 + C_s K_Lb^-1 C_s^T
    of a bar structure's tangent partition, held as a base and a low-rank
    update over the bars whose stiffness differs from the base's (the
    Woodbury identity; Hager, SIAM Rev. 31, 1989).

    build(partition) makes the base: fdp_factor, whose solve is M_base^-1,
    or an SriPreconditioner on the partition's stiffness factor, whose solve
    is W, M_base^-1 to rounding.
    A tangent partition's operator is M = M_base + U D U^T, where U holds
    e_i for a changed additional bar i and column j of C_s for a changed
    basis bar j, and D = 1/k - 1/k_base per bar.  So
        M^-1 = M_base^-1 - Z C^-1 Z^T,  Z = M_base^-1 U,  C = D^-1 + U^T Z.
    Z is solved once per bar, when the bar enters the set, and dropped when
    the bar leaves it.  C (k x k for k bars) is formed at every update, as
    S C S = sign(D) + S U^T Z S with S = |D|^(1/2), and factored by LU: a
    bar back at its elastic modulus against a yielded base has D < 0, and C
    is then indefinite.  Its pivots are measured against 1, the size of
    sign(D), so a capacitance that cancels reads singular at rank 1 too.  A
    ratio below PIVOT_TOL, a tangent nearly singular against its base,
    raises UnstableStructureError.

    update(partition) holds a new tangent.  It rebuilds the base at that
    tangent, in place of solving the entering bars' columns, when the solves
    of the columns gathered since the last base would cost more than one
    base build (a ski-rental bound).  Both are counted by factor_work from
    the base's shape, so a run is bit-reproducible.  solve(b) applies M^-1
    (for the SRI base, W corrected); apply(v, refine) is the preconditioner
    interface solve_sri takes, its refinement step applying the held
    tangent's operator.
    """

    def __init__(self, build):
        self._build = build
        self.q = 0
        self.partition = None  # the held tangent partition
        self.rank = 0  # bars in the update
        self._base = None

    def update(self, partition: SystemPartition) -> bool:
        """Hold the tangent of partition, whose parameter blocks are 1 x 1;
        returns whether the base was rebuilt."""
        self.partition = partition
        inverse = 1.0 / partition.blocks[:, 0, 0]
        if self._base is not None:
            d = inverse - self._inverse
            changed = np.flatnonzero(d)
            entering = np.setdiff1d(changed, self._bars, assume_unique=True)
            if (self._gathered + entering.size) * self._solve_work <= self._build_work:
                self._gather(partition, changed, entering, d)
                return False
        self._bars = self._u = self._z = self._y = self._lu = self._base = None  # release
        self._base = self._build(partition)
        self._build_work, self._solve_work = factor_work(self._base)
        self._inverse = inverse
        self.q, self.rank, self._gathered = partition.q, 0, 0
        self._bars = np.empty(0, dtype=np.intp)
        self._u = self._z = np.empty((partition.q, 0))
        # each bar's row of K_Lb^-1 or K_La^-1, whence its column of U
        self._slot = np.empty(len(inverse), dtype=np.intp)
        self._slot[partition.basis_ids] = np.arange(partition.n)
        self._slot[partition.additional_ids] = np.arange(partition.q)
        self._additional = np.zeros(len(inverse), dtype=bool)
        self._additional[partition.additional_ids] = True
        return True

    def _gather(self, partition: SystemPartition, changed: np.ndarray,
                entering: np.ndarray, d: np.ndarray) -> None:
        """Keep the columns of the bars still changed, solve those of the
        entering ones, and factor the capacitance of the changed bars."""
        kept = np.isin(self._bars, changed, assume_unique=True)
        self._bars, self._u, self._z = self._bars[kept], self._u[:, kept], self._z[:, kept]
        if entering.size:
            u = self._columns(partition, entering)
            self._bars = np.concatenate([self._bars, entering])
            self._u = np.hstack([self._u, u])
            self._z = np.hstack([self._z, self._base.solve(u)])
            self._gathered += entering.size
        self.rank = self._bars.size
        self._y = self._lu = None
        if not self.rank:
            return
        s = np.sqrt(np.abs(d[self._bars]))
        self._y = self._z * s
        capacitance = (self._u * s).T @ self._y + np.diag(np.sign(d[self._bars]))
        lu, piv, _ = sla.lapack.dgetrf(capacitance, overwrite_a=True)
        pivots = np.abs(np.diagonal(lu))
        ratio = pivots.min() / max(pivots.max(), 1.0)
        if not ratio >= PIVOT_TOL:
            raise UnstableStructureError(
                f"tangent nearly singular against its base (capacitance pivot ratio "
                f"{ratio:.2e})")
        self._lu = (lu, piv)

    def _columns(self, partition: SystemPartition, bars: np.ndarray) -> np.ndarray:
        """The q x len(bars) columns of U: e_i for additional bar i, column
        j of C_s for basis bar j."""
        u = np.zeros((partition.q, bars.size))
        additional = self._additional[bars]
        u[self._slot[bars[additional]], np.flatnonzero(additional)] = 1.0
        basis = np.flatnonzero(~additional)
        if basis.size:
            unit = np.zeros((partition.n, basis.size))
            unit[self._slot[bars[basis]], np.arange(basis.size)] = 1.0
            u[:, basis] = partition.apply_c_s(unit)
        return u

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = self._base.solve(b)
        if self.rank:
            x -= self._y @ sla.lu_solve(self._lu, self._y.T @ b, check_finite=False)
        return x
