"""Global stiffness assembly, basis/additional partitioning and reduced operators.

The assembled stiffness of the whole structure factorizes as K = C^T K_L C with
K_L block diagonal over elements.  Splitting the element set into a statically
determinate basis (square, invertible mode matrix C_b) and the remaining
additional components (q stiffness parameters) turns K d = R into a q x q
system on the additional-component deformation forces.  Everything topological
(C_b factorization, C_a, the dense influence matrix C_s = C_a C_b^-1) is
invariant under material modification and is shared between the original and
any modified partition; only the block-diagonal parameter matrices are rebuilt.

The reduced right-hand side, operator and displacement recovery never read the
dense influence matrix: they apply C_s v as C_a (C_b^-1 v) and C_s^T x as
C_b^-T (C_a^T x) through the sparse basis factorization.  The dense matrix
serves only the methods that need a dense q x q matrix by definition, the
direct low-rank path and the tangent reduction backend (reduced_gram).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .elements import (
    ElementDecomposition,
    beam_decomposition,
    fg_beam_decomposition,
    fg_section_constants,
    truss_decomposition,
)
from .errors import (
    BasisUnstableError,
    InvalidParameterError,
    NotDeterminateError,
    UnstableStructureError,
)
from .model import ElementKind, ElementRecord, PartitionSpec, StructuralModel

# Relative pivot threshold below which the basis mode matrix counts as singular.
PIVOT_TOL = 1e-10

# Column-block size for dense solves against the basis factorization.
_CHUNK = 1024


def element_decomposition(model: StructuralModel, element: ElementRecord,
                          modulus: float | None = None) -> ElementDecomposition:
    """Mode-row decomposition of one element, optionally with an overridden
    homogeneous modulus (used for tangent stiffness)."""
    length, angle = model.geometry(element)
    sec, mat = element.section, element.material
    if element.kind is ElementKind.TRUSS_BAR:
        young = modulus if modulus is not None else mat.elastic_modulus
        return truss_decomposition(length, angle, young, sec.area)
    if element.kind is ElementKind.HOMOGENEOUS_BEAM:
        young = modulus if modulus is not None else mat.elastic_modulus
        if sec.area is None or sec.inertia is None:
            raise InvalidParameterError(
                f"element {element.id}: beam section needs area and inertia")
        return beam_decomposition(length, angle, young, sec.area, sec.inertia)
    if mat.e_us is None or mat.e_ls is None or mat.p is None:
        raise InvalidParameterError(
            f"element {element.id}: graded material needs e_us, e_ls and p")
    if sec.width is None or sec.height is None:
        raise InvalidParameterError(
            f"element {element.id}: graded section needs width and height")
    constants = fg_section_constants(sec.height, mat.p, mat.e_us, mat.e_ls,
                                     coupling=mat.fg_coupling or "exact")
    return fg_beam_decomposition(length, angle, sec.width, constants)


@dataclass(frozen=True)
class GlobalDecomposition:
    """Per-element stiffness parameters and the stacked global mode rows.

    blocks[i] is the m_i x m_i parameter matrix of element i, c the
    (sum m_i) x n sparse matrix of extended mode rows, offsets the row offset
    of each element's block (offsets[-1] = total parameter count).
    """

    blocks: tuple[np.ndarray, ...]
    c: sp.csr_matrix
    offsets: np.ndarray

    @property
    def total_params(self) -> int:
        return int(self.offsets[-1])

    def k_l(self) -> sp.csr_matrix:
        """Block-diagonal parameter matrix of the whole structure."""
        return _block_diag(self.blocks, self.offsets)


def _block_diag(blocks, offsets) -> sp.csr_matrix:
    size = int(offsets[-1])
    rows, cols, data = [], [], []
    for blk, off in zip(blocks, offsets[:-1]):
        m = blk.shape[0]
        idx = np.arange(m) + off
        rows.append(np.repeat(idx, m))
        cols.append(np.tile(idx, m))
        data.append(blk.ravel())
    if not blocks:
        return sp.csr_matrix((size, size))
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size))


def _invert_blocks(blocks) -> list[np.ndarray]:
    out = []
    for blk in blocks:
        if blk.shape[0] == 1:
            out.append(np.array([[1.0 / blk[0, 0]]]))
        else:
            out.append(np.linalg.inv(blk))
    return out


def assemble_parameters(model: StructuralModel,
                        modulus_by_element: np.ndarray | None = None) -> GlobalDecomposition:
    """Element blocks and extended mode rows restricted to free DOFs."""
    blocks: list[np.ndarray] = []
    offsets = np.zeros(len(model.elements) + 1, dtype=np.int64)
    rows, cols, data = [], [], []
    for elem in model.elements:
        override = None if modulus_by_element is None else float(modulus_by_element[elem.id])
        dec = element_decomposition(model, elem, override)
        blocks.append(dec.k_params)
        off = offsets[elem.id]
        offsets[elem.id + 1] = off + dec.m
        dofs = model.element_dofs(elem)
        free = dofs >= 0
        c_rows = dec.c_global[:, free]
        free_dofs = dofs[free]
        m = dec.m
        rows.append(np.repeat(np.arange(m) + off, free_dofs.size))
        cols.append(np.tile(free_dofs, m))
        data.append(c_rows.ravel())
    c = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(int(offsets[-1]), model.n))
    return GlobalDecomposition(tuple(blocks), c, offsets)


def assemble_global(model: StructuralModel,
                    modulus_by_element: np.ndarray | None = None) -> sp.csr_matrix:
    """Assembled free-DOF stiffness matrix K = C^T K_L C."""
    rows, cols, data = [], [], []
    for elem in model.elements:
        override = None if modulus_by_element is None else float(modulus_by_element[elem.id])
        dec = element_decomposition(model, elem, override)
        k_e = dec.stiffness()
        dofs = model.element_dofs(elem)
        free = np.flatnonzero(dofs >= 0)
        sub = k_e[np.ix_(free, free)]
        gdofs = dofs[free]
        rows.append(np.repeat(gdofs, gdofs.size))
        cols.append(np.tile(gdofs, gdofs.size))
        data.append(sub.ravel())
    k = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(model.n, model.n))
    k.sum_duplicates()
    return symmetrize(k)


def symmetrize(k: sp.spmatrix) -> sp.csr_matrix:
    """Average a summed sparse stiffness with its transpose.

    Duplicate-summation order is not symmetric under (i, j) <-> (j, i), so
    the average is what makes K bitwise symmetric.
    """
    return ((k + k.T) * 0.5).tocsr()


def sparse_lu(matrix: sp.spmatrix, error: type[Exception], what: str):
    """Sparse LU of a square matrix; raises error when it is singular or its
    pivot ratio falls below PIVOT_TOL."""
    try:
        lu = spla.splu(sp.csc_matrix(matrix))
    except RuntimeError as exc:
        raise error(f"{what} is singular: {exc}") from exc
    pivots = np.abs(lu.U.diagonal())
    if pivots.size and pivots.min() < PIVOT_TOL * pivots.max():
        raise error(f"{what} nearly singular (pivot ratio {pivots.min() / pivots.max():.2e})")
    return lu


@dataclass(frozen=True)
class SystemPartition:
    """Basis/additional split with factorized basis mode matrix.

    Topological members (c_b and its factorization, c_a, the dense cs_t with
    c_s = cs_t.T) are shared across material updates; k_lb/k_la and their
    blockwise inverses belong to one material state.  Instances are immutable;
    solves through the factorization do not mutate visible state.

    cs_t is read only by reduced_gram and the direct low-rank path; every
    other C_s product goes through apply_c_s / apply_c_s_t.  A copy whose
    cs_t is None (kept by the SRI preconditioner) serves those products alone.
    """

    basis_ids: np.ndarray
    additional_ids: np.ndarray
    n: int
    q: int
    c_b: sp.csc_matrix
    c_b_lu: object
    c_a: sp.csr_matrix
    cs_t: np.ndarray | None  # (n, q), column j = row j of C_s
    k_lb: sp.csr_matrix
    k_lb_inv: sp.csr_matrix
    k_la: sp.csr_matrix
    k_la_inv: sp.csr_matrix
    add_blocks_inv: tuple[np.ndarray, ...]
    add_offsets: np.ndarray

    @property
    def c_s(self) -> np.ndarray:
        return self.cs_t.T

    def solve_c_b(self, v: np.ndarray) -> np.ndarray:
        """Apply C_b^-1."""
        return self.c_b_lu.solve(v)

    def solve_c_b_t(self, v: np.ndarray) -> np.ndarray:
        """Apply C_b^-T."""
        return self.c_b_lu.solve(v, trans="T")

    def apply_c_s(self, v: np.ndarray) -> np.ndarray:
        """Apply C_s = C_a C_b^-1 to an n-vector."""
        return self.c_a @ self.solve_c_b(v)

    def apply_c_s_t(self, x: np.ndarray) -> np.ndarray:
        """Apply C_s^T = C_b^-T C_a^T to a q-vector."""
        return self.solve_c_b_t(self.c_a.T @ x)


def _split_rows(decomp: GlobalDecomposition, ids: np.ndarray):
    """Stacked mode rows, blocks and offsets for the given element ids."""
    blocks = [decomp.blocks[i] for i in ids]
    sizes = np.array([b.shape[0] for b in blocks], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    if len(ids) == 0:
        return sp.csr_matrix((0, decomp.c.shape[1])), blocks, offsets
    row_idx = np.concatenate(
        [np.arange(decomp.offsets[i], decomp.offsets[i + 1]) for i in ids])
    return decomp.c[row_idx], blocks, offsets


def make_partition(model: StructuralModel, spec: PartitionSpec) -> SystemPartition:
    """Build and factorize the basis/additional partition of a model.

    The basis parameter count must equal the number of free DOFs; the dense
    influence matrix (for reduced_gram and the direct low-rank path) is
    materialized column-block-wise through transposed solves with the basis
    factorization.
    """
    all_ids = np.arange(len(model.elements))
    add_mask = np.zeros(len(model.elements), dtype=bool)
    for i in spec.additional_ids:
        if i < 0 or i >= len(model.elements):
            raise NotDeterminateError(f"additional id {i} outside element range")
        add_mask[i] = True
    basis_ids = all_ids[~add_mask]
    additional_ids = all_ids[add_mask]

    decomp = assemble_parameters(model)
    c_b, basis_blocks, _ = _split_rows(decomp, basis_ids)
    c_a, add_blocks, add_offsets = _split_rows(decomp, additional_ids)
    if c_b.shape[0] != model.n:
        raise NotDeterminateError(
            f"basis parameter count {c_b.shape[0]} != free DOFs {model.n}")
    q = int(add_offsets[-1])

    c_b = c_b.tocsc()
    lu = sparse_lu(c_b, BasisUnstableError, "basis mode matrix")
    cs_t = np.empty((model.n, q))
    if q:
        c_a_t = c_a.T.tocsc()
        for lo in range(0, q, _CHUNK):
            hi = min(lo + _CHUNK, q)
            cs_t[:, lo:hi] = lu.solve(c_a_t[:, lo:hi].toarray(), trans="T")

    basis_inv = _invert_blocks(basis_blocks)
    add_inv = _invert_blocks(add_blocks)
    basis_offsets = np.concatenate(
        [[0], np.cumsum([b.shape[0] for b in basis_blocks])]).astype(np.int64)
    return SystemPartition(
        basis_ids=basis_ids, additional_ids=additional_ids, n=model.n, q=q,
        c_b=c_b, c_b_lu=lu, c_a=c_a, cs_t=cs_t,
        k_lb=_block_diag(basis_blocks, basis_offsets),
        k_lb_inv=_block_diag(basis_inv, basis_offsets),
        k_la=_block_diag(add_blocks, add_offsets),
        k_la_inv=_block_diag(add_inv, add_offsets),
        add_blocks_inv=tuple(add_inv), add_offsets=add_offsets)


def update_partition(partition: SystemPartition, model: StructuralModel,
                     modulus_by_element: np.ndarray | None = None) -> SystemPartition:
    """Partition for a materially modified model, reusing all topology.

    The model must share the original's geometry and element layout; only the
    parameter blocks (and their blockwise inverses) are rebuilt.
    """
    def blocks_for(ids):
        out = []
        for i in ids:
            override = None if modulus_by_element is None else float(modulus_by_element[i])
            out.append(element_decomposition(model, model.elements[i], override).k_params)
        return out

    basis_blocks = blocks_for(partition.basis_ids)
    add_blocks = blocks_for(partition.additional_ids)
    basis_offsets = np.concatenate(
        [[0], np.cumsum([b.shape[0] for b in basis_blocks])]).astype(np.int64)
    add_inv = _invert_blocks(add_blocks)
    return SystemPartition(
        basis_ids=partition.basis_ids, additional_ids=partition.additional_ids,
        n=partition.n, q=partition.q, c_b=partition.c_b, c_b_lu=partition.c_b_lu,
        c_a=partition.c_a, cs_t=partition.cs_t,
        k_lb=_block_diag(basis_blocks, basis_offsets),
        k_lb_inv=_block_diag(_invert_blocks(basis_blocks), basis_offsets),
        k_la=_block_diag(add_blocks, partition.add_offsets),
        k_la_inv=_block_diag(add_inv, partition.add_offsets),
        add_blocks_inv=tuple(add_inv), add_offsets=partition.add_offsets)


def reduced_rhs(partition: SystemPartition, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side of the reduced system and the cached basis solution.

    Evaluated strictly right-to-left: t = C_b^-T r, b_s = K_Lb^-1 t,
    b = C_s b_s.  b_s is returned for reuse by displacement recovery.
    """
    t = partition.solve_c_b_t(r)
    b_s = partition.k_lb_inv @ t
    return partition.apply_c_s(b_s), b_s


def reduced_apply(partition: SystemPartition, x: np.ndarray) -> np.ndarray:
    """Apply the reduced operator K_La^-1 + C_s K_Lb^-1 C_s^T as mat-vec chains,
    two sparse solves with the basis factorization per call."""
    h = partition.k_lb_inv @ partition.apply_c_s_t(x)
    return partition.k_la_inv @ x + partition.apply_c_s(h)


def reduced_gram(partition: SystemPartition, chunk: int = 512) -> np.ndarray:
    """Dense q x q matrix C_s K_Lb^-1 C_s^T, built in column blocks."""
    q = partition.q
    out = np.empty((q, q))
    for lo in range(0, q, chunk):
        hi = min(lo + chunk, q)
        w = partition.k_lb_inv @ partition.cs_t[:, lo:hi]
        out[:, lo:hi] = partition.cs_t.T @ w
    return out


def factorize_stiffness(model: StructuralModel):
    """Sparse LU of the assembled stiffness; raises on singular structures."""
    return sparse_lu(assemble_global(model), UnstableStructureError, "stiffness matrix")
