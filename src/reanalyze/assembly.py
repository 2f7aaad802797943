"""Global stiffness assembly, basis/additional partitioning and reduced operators.

The assembled stiffness of the whole structure factorizes as K = C^T K_L C with
K_L block diagonal over elements.  Splitting the element set into a statically
determinate basis (square, invertible mode matrix C_b) and the remaining
additional components (q stiffness parameters) turns K d = R into a q x q
system on the additional-component deformation forces.  Everything topological
(C_b factorization, C_a, the sparse influence matrix C_s = C_a C_b^-1) is
invariant under material modification and is shared between the original and
any modified partition; only the block-diagonal parameter matrices are rebuilt.

The reduced right-hand side, operator and displacement recovery apply C_s v as
C_a (C_b^-1 v) and C_s^T x as C_b^-T (C_a^T x) through the sparse basis
factorization.  The stored sparse C_s serves only reduced_gram, the dense
q x q matrix that the direct low-rank path and the tangent reduction backend
need by definition; no dense n x q array is formed anywhere.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dsyrk

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

# reduced_gram forms G as a sparse product when that takes fewer than this
# share of the dense product's n q^2 multiply-adds.  Measured crossover ~1e-2:
# the sparse product wins at 3.5e-4 and 4.4e-3 (frames), BLAS syrk at 4.1e-2
# and above (ladders).
SPARSE_GRAM_SHARE = 1e-2

# Bytes of one dense row slab of L^T C_s^T in the syrk Gram builder.
_SLAB_BYTES = 1 << 24


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
    """Sparse LU of a square matrix and its pivot ratio min|U_ii| / max|U_ii|
    (1.0 for an empty matrix); raises error when the matrix is singular or
    the ratio falls below PIVOT_TOL."""
    try:
        lu = spla.splu(sp.csc_matrix(matrix))
    except RuntimeError as exc:
        raise error(f"{what} is singular: {exc}") from exc
    pivots = np.abs(lu.U.diagonal())
    ratio = float(pivots.min() / pivots.max()) if pivots.size else 1.0
    if not ratio >= PIVOT_TOL:
        raise error(f"{what} nearly singular (pivot ratio {ratio:.2e})")
    return lu, ratio


@dataclass(frozen=True)
class SystemPartition:
    """Basis/additional split with factorized basis mode matrix.

    Topological members (c_b, its factorization and pivot ratio, c_a, the
    sparse influence matrix c_s = C_a C_b^-1 and the model fingerprint
    element_nodes/node_xy) are shared across material updates;
    k_lb/k_la and their blockwise inverses belong to one material state.
    Instances are immutable; solves through the factorization do not mutate
    visible state.

    c_s is read only by reduced_gram; every other C_s product goes through
    apply_c_s / apply_c_s_t and the basis factorization.
    """

    basis_ids: np.ndarray
    additional_ids: np.ndarray
    n: int
    q: int
    c_b: sp.csc_matrix
    c_b_lu: object
    basis_pivot_ratio: float  # min|U_ii| / max|U_ii| of the C_b factorization
    c_a: sp.csr_matrix
    c_s: sp.csr_matrix  # (q, n), exact zeros dropped
    k_lb: sp.csr_matrix
    k_lb_inv: sp.csr_matrix
    basis_offsets: np.ndarray
    k_la: sp.csr_matrix
    k_la_inv: sp.csr_matrix
    add_offsets: np.ndarray
    element_nodes: np.ndarray  # (elements, 2) end nodes of the partitioned model
    node_xy: np.ndarray  # (nodes, 2) its node coordinates

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


def _sparse_rows(a: np.ndarray) -> sp.csr_matrix:
    """CSR matrix of the nonzero entries of a dense 2-D array."""
    nonzero = np.flatnonzero(a)
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(a, axis=1))])
    return sp.csr_matrix((a.ravel()[nonzero], nonzero % a.shape[1], indptr), shape=a.shape)


def _influence_matrix(lu, c_a: sp.csr_matrix) -> sp.csr_matrix:
    """Sparse C_s = C_a C_b^-1 from transposed solves with the basis
    factorization, in row blocks that drop their exact zeros as they are
    made."""
    q, n = c_a.shape
    if q == 0:
        return sp.csr_matrix((0, n))
    c_a_t = c_a.T.tocsc()
    # the solve returns C_s^T columns in Fortran order, so .T is row-major
    blocks = [_sparse_rows(lu.solve(c_a_t[:, lo:lo + _CHUNK].toarray(), trans="T").T)
              for lo in range(0, q, _CHUNK)]
    return sp.vstack(blocks, format="csr")


def make_partition(model: StructuralModel, spec: PartitionSpec) -> SystemPartition:
    """Build and factorize the basis/additional partition of a model.

    The basis parameter count must equal the number of free DOFs; the sparse
    influence matrix (for reduced_gram) is built column-block-wise through
    transposed solves with the basis factorization.
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
    c_b, basis_blocks, basis_offsets = _split_rows(decomp, basis_ids)
    c_a, add_blocks, add_offsets = _split_rows(decomp, additional_ids)
    if c_b.shape[0] != model.n:
        raise NotDeterminateError(
            f"basis parameter count {c_b.shape[0]} != free DOFs {model.n}")
    q = int(add_offsets[-1])

    c_b = c_b.tocsc()
    lu, pivot_ratio = sparse_lu(c_b, BasisUnstableError, "basis mode matrix")
    return SystemPartition(
        basis_ids=basis_ids, additional_ids=additional_ids, n=model.n, q=q,
        c_b=c_b, c_b_lu=lu, basis_pivot_ratio=pivot_ratio,
        c_a=c_a, c_s=_influence_matrix(lu, c_a),
        k_lb=_block_diag(basis_blocks, basis_offsets),
        k_lb_inv=_block_diag(_invert_blocks(basis_blocks), basis_offsets),
        basis_offsets=basis_offsets,
        k_la=_block_diag(add_blocks, add_offsets),
        k_la_inv=_block_diag(_invert_blocks(add_blocks), add_offsets),
        add_offsets=add_offsets,
        element_nodes=model.element_nodes, node_xy=model.xy)


def _check_topology(partition: SystemPartition, model: StructuralModel) -> None:
    """Raise InvalidParameterError unless model has the free-DOF count, the
    elements, their end nodes and the node coordinates of the partitioned one."""
    if model.n != partition.n:
        raise InvalidParameterError(
            f"model has {model.n} free DOFs, the partition {partition.n}")
    if len(model.elements) != len(partition.element_nodes):
        raise InvalidParameterError(
            f"model has {len(model.elements)} elements, "
            f"the partition {len(partition.element_nodes)}")
    if not np.array_equal(model.element_nodes, partition.element_nodes):
        raise InvalidParameterError("element end nodes differ from the partitioned model's")
    if not np.array_equal(model.xy, partition.node_xy):
        raise InvalidParameterError("node coordinates differ from the partitioned model's")


def update_partition(partition: SystemPartition, model: StructuralModel,
                     modulus_by_element: np.ndarray | None = None) -> SystemPartition:
    """Partition for a materially modified model, reusing all topology.

    The model must share the original's free DOFs, elements, end nodes and
    node coordinates (InvalidParameterError otherwise); only the parameter
    blocks (and their blockwise inverses) are rebuilt.
    """
    _check_topology(partition, model)

    def blocks_for(ids):
        out = []
        for i in ids:
            override = None if modulus_by_element is None else float(modulus_by_element[i])
            out.append(element_decomposition(model, model.elements[i], override).k_params)
        return out

    basis_blocks = blocks_for(partition.basis_ids)
    add_blocks = blocks_for(partition.additional_ids)
    return dataclasses.replace(
        partition,
        k_lb=_block_diag(basis_blocks, partition.basis_offsets),
        k_lb_inv=_block_diag(_invert_blocks(basis_blocks), partition.basis_offsets),
        k_la=_block_diag(add_blocks, partition.add_offsets),
        k_la_inv=_block_diag(_invert_blocks(add_blocks), partition.add_offsets))


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


def gram_multiply_adds(partition: SystemPartition) -> int:
    """Multiply-adds of the sparse product C_s (K_Lb^-1 C_s^T): the sum over
    the n columns of C_s of their nonzero count squared, in int64 (on a
    31 x 128 ladder it passes 2^31)."""
    counts = np.bincount(partition.c_s.indices, minlength=partition.n).astype(np.int64)
    return int(counts @ counts)


def _block_cholesky(matrix: sp.csr_matrix, offsets: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal lower L with L L^T = matrix, a block-diagonal matrix
    whose blocks start at offsets; raises UnstableStructureError when a block
    is not positive definite."""
    sizes = np.diff(offsets)
    rows, cols, data = [], [], []
    for m in np.unique(sizes):
        idx = offsets[:-1][sizes == m, None] + np.arange(m)  # (blocks, m)
        r = np.repeat(idx, m, axis=1).ravel()
        c = np.tile(idx, (1, m)).ravel()
        blocks = np.asarray(matrix[r, c]).reshape(-1, m, m)
        try:
            data.append(np.linalg.cholesky(blocks).ravel())
        except np.linalg.LinAlgError as exc:
            raise UnstableStructureError(
                f"basis parameter block not positive definite: {exc}") from exc
        rows.append(r)
        cols.append(c)
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=matrix.shape)


def reduced_gram(partition: SystemPartition) -> np.ndarray:
    """Dense q x q matrix G = C_s K_Lb^-1 C_s^T, in Fortran order.

    G is the sparse product C_s (K_Lb^-1 C_s^T) when that takes fewer than
    SPARSE_GRAM_SHARE of the dense product's n q^2 multiply-adds; otherwise
    it is Y^T Y, accumulated by BLAS syrk over row slabs of Y = L^T C_s^T
    with K_Lb^-1 = L L^T blockwise.  Neither way forms a dense n x q array.
    """
    n, q = partition.n, partition.q
    c_s = partition.c_s
    if gram_multiply_adds(partition) <= SPARSE_GRAM_SHARE * n * q * q:
        return (c_s @ (partition.k_lb_inv @ c_s.T)).toarray(order="F")
    y = (_block_cholesky(partition.k_lb_inv, partition.basis_offsets).T @ c_s.T).tocsr()
    gram = np.zeros((q, q), order="F")
    rows = max(_SLAB_BYTES // (8 * q), 1)
    for lo in range(0, n, rows):
        # a C-ordered slab's transpose is the Fortran q x rows operand syrk takes
        gram = dsyrk(1.0, y[lo:lo + rows].toarray().T, beta=1.0, c=gram, overwrite_c=True)
    gram += np.triu(gram, 1).T  # syrk fills the upper triangle
    return gram


def factorize_stiffness(model: StructuralModel):
    """Sparse LU of the assembled stiffness; raises on singular structures."""
    return sparse_lu(assemble_global(model), UnstableStructureError, "stiffness matrix")[0]
