"""Global stiffness assembly, basis/additional partitioning and reduced operators.

The assembled stiffness of the whole structure factorizes as K = C^T K_L C with
K_L block diagonal over elements, and stiffness() is the one place the package
forms a stiffness matrix: the assembled stiffness, the original stiffness the
SRI preconditioner factors and the nonlinear tangent all go through it.  Every
element of a model has the same block size m (1 for bars, 3 for beams), so the
parameter blocks are one (elements, m, m) array and element i owns the stacked
rows m i ... m i + m - 1.  Splitting the element set into a statically
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
need by definition.  make_partition builds C_s once per topology, by
level-scheduled triangular solves with the L and U factors of the basis LU:
each factor is reordered once so that its dependency levels are contiguous,
and each level is one sparse-times-dense product on a block of C_a^T
columns.  The build forms no dense array larger than a _SLAB_BYTES block,
and no dense n x q array is kept anywhere.
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

# reduced_gram forms G as a sparse product when that takes fewer than this
# share of the dense product's n q^2 multiply-adds.  Measured crossover ~1e-2:
# the sparse product wins at 3.5e-4 and 4.4e-3 (frames), BLAS syrk at 4.1e-2
# and above (ladders).
SPARSE_GRAM_SHARE = 1e-2

# Bytes of one dense slab: a row slab of L^T C_s^T in the syrk Gram builder,
# a column block of C_a^T in the influence-matrix build.
_SLAB_BYTES = 1 << 24


def element_decomposition(model: StructuralModel, element: ElementRecord) -> ElementDecomposition:
    """Mode-row decomposition of one element."""
    length, angle = model.geometry(element)
    sec, mat = element.section, element.material
    if element.kind is ElementKind.TRUSS_BAR:
        return truss_decomposition(length, angle, mat.elastic_modulus, sec.area)
    if element.kind is ElementKind.HOMOGENEOUS_BEAM:
        if sec.area is None or sec.inertia is None:
            raise InvalidParameterError(
                f"element {element.id}: beam section needs area and inertia")
        return beam_decomposition(length, angle, mat.elastic_modulus, sec.area, sec.inertia)
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
    """Parameter blocks and stacked global mode rows of a whole structure.

    Every element of a model has the same block size m (1 for bars, 3 for
    beams): blocks is the (elements, m, m) array of parameter matrices and c
    the (elements m) x n sparse matrix of extended mode rows, element i's rows
    being m i ... m i + m - 1.
    """

    blocks: np.ndarray
    c: sp.csr_matrix

    @property
    def total_params(self) -> int:
        return self.c.shape[0]

    def k_l(self) -> sp.csr_matrix:
        """Block-diagonal parameter matrix of the whole structure."""
        return _block_diag(self.blocks)


def _block_diag(blocks: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal matrix of a (k, m, m) block array, built directly in
    CSR form: each row is m consecutive entries of blocks.ravel()."""
    k, m, _ = blocks.shape
    cols = np.tile(np.arange(k * m).reshape(k, 1, m), (1, m, 1))
    return sp.csr_matrix((blocks.ravel(), cols.ravel(), np.arange(0, k * m * m + 1, m)),
                         shape=(k * m, k * m))


def _rows(ids: np.ndarray, m: int) -> np.ndarray:
    """Stacked-row indices of the given elements' m-row blocks."""
    return (m * ids[:, None] + np.arange(m)).ravel()


def assemble_parameters(model: StructuralModel) -> GlobalDecomposition:
    """Element blocks and extended mode rows restricted to free DOFs."""
    m = 2 * model.dofs_per_node - 3
    blocks, rows, cols, data = [], [], [], []
    for i, elem in enumerate(model.elements):
        dec = element_decomposition(model, elem)
        blocks.append(dec.k_params)
        dofs = model.element_dofs(elem)
        free = dofs >= 0
        rows.append(np.repeat(np.arange(m) + m * i, np.count_nonzero(free)))
        cols.append(np.tile(dofs[free], m))
        data.append(dec.c_global[:, free].ravel())
    c = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m * len(blocks), model.n))
    return GlobalDecomposition(np.array(blocks).reshape(-1, m, m), c)


def stiffness(c: sp.spmatrix, k_l: sp.spmatrix) -> sp.csr_matrix:
    """Stiffness C^T K_L C of stacked mode rows c and parameters k_l: the one
    way the package forms a stiffness matrix."""
    k = c.T @ k_l @ c
    # the summation order of C^T K_L C is not symmetric under (i, j) <-> (j, i),
    # so averaging with the transpose is what makes K bitwise symmetric
    return ((k + k.T) * 0.5).tocsr()


def assemble_global(model: StructuralModel) -> sp.csr_matrix:
    """Assembled free-DOF stiffness matrix K = C^T K_L C."""
    dec = assemble_parameters(model)
    return stiffness(dec.c, dec.k_l())


def sparse_lu(matrix: sp.spmatrix, error: type[Exception], what: str, *, symmetric: bool):
    """Sparse LU of a square matrix and its pivot ratio min|U_ii| / max|U_ii|
    (1.0 for an empty matrix); raises error when the matrix is singular or
    the ratio falls below PIVOT_TOL.

    symmetric=True is for the stiffnesses (assembled, original and tangent),
    which are symmetric and positive definite whenever they are nonsingular:
    a minimum-degree ordering of A^T + A applied to rows and columns alike,
    with diagonal pivots, keeps the factor symmetric in structure and a third
    to a half smaller than COLAMD's.  The basis mode matrix C_b is not
    symmetric and its diagonal need not be a good pivot, so it takes
    symmetric=False: a COLAMD column ordering with partial pivoting.
    """
    kwargs = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
              "options": {"SymmetricMode": True}} if symmetric else {}
    try:
        lu = spla.splu(sp.csc_matrix(matrix), **kwargs)
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
    element_nodes/node_xy/dof_map) are shared across material updates;
    k_lb/k_la and their blockwise inverses belong to one material state, and
    with_blocks gives the same topology under another state.
    All blocks have the model's one block size m: basis element i owns rows
    m i ... m i + m - 1 of c_b and k_lb, additional element i those of c_a
    and k_la.
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
    k_la: sp.csr_matrix
    k_la_inv: sp.csr_matrix
    element_nodes: np.ndarray  # (elements, 2) end nodes of the partitioned model
    node_xy: np.ndarray  # (nodes, 2) its node coordinates
    dof_map: np.ndarray  # (nodes, dofs per node) its free-DOF numbering, -1 where supported

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

    def with_blocks(self, blocks: np.ndarray) -> "SystemPartition":
        """The same topology under the (elements, m, m) parameter blocks."""
        return dataclasses.replace(
            self, **_parameter_matrices(blocks, self.basis_ids, self.additional_ids))


def _parameter_matrices(blocks: np.ndarray, basis_ids: np.ndarray,
                        additional_ids: np.ndarray) -> dict[str, sp.csr_matrix]:
    """K_Lb, K_La and their blockwise inverses, keyed by their SystemPartition
    field names, from an (elements, m, m) block array."""
    out = {}
    for name, ids in (("k_lb", basis_ids), ("k_la", additional_ids)):
        part = blocks[ids]
        out[name] = _block_diag(part)
        out[name + "_inv"] = _block_diag(np.linalg.inv(part))
    return out


def _sparse_rows(a: np.ndarray) -> sp.csr_matrix:
    """CSR matrix of the nonzero entries of a C-ordered 2-D array."""
    mask = a != 0
    nonzero = np.flatnonzero(mask)
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(mask, axis=1))])
    return sp.csr_matrix((a.ravel()[nonzero], nonzero % a.shape[1], indptr), shape=a.shape)


@dataclass(frozen=True)
class _LevelSchedule:
    """Solves with a sparse unit triangular matrix T (its stored diagonal is
    not read), its rows and columns reordered so that each dependency level
    is a contiguous range.

    A row's level is 0 when it has no off-diagonal entry, else one more than
    the highest level among the rows its entries reference.  Each level then
    depends only on the levels before it and is solved as one sparse-times-
    dense product (Anderson and Saad, Int. J. High Speed Computing 1, 1989).
    Lower and upper triangular matrices alike: only the dependencies matter.
    """

    order: np.ndarray  # the row of T at each position of the reordering
    # (start, stop, rows) of every level past the first, rows holding its
    # off-diagonal entries, reordered, as a (stop - start) x n CSR matrix
    levels: list

    @classmethod
    def of(cls, t: sp.spmatrix) -> "_LevelSchedule":
        t = t.tocoo()
        n = t.shape[0]
        keep = t.row != t.col
        off = sp.csr_matrix((t.data[keep], (t.row[keep], t.col[keep])), shape=(n, n))
        off.eliminate_zeros()
        # Kahn's topological sort a level at a time: a row joins the next
        # level once every row it references is placed
        dependents = off.tocsc()  # column j lists the rows that reference row j
        unplaced = np.diff(off.indptr)
        level = np.zeros(n, dtype=np.intp)
        ready, depth = np.flatnonzero(unplaced == 0), 0
        while ready.size:
            level[ready] = depth
            hit = dependents[:, ready].indices
            np.subtract.at(unplaced, hit, 1)
            ready, depth = np.unique(hit[unplaced[hit] == 0]), depth + 1
        order = np.argsort(level, kind="stable")
        position = np.empty(n, dtype=np.intp)
        position[order] = np.arange(n)
        off = off.tocoo()
        off = sp.csr_matrix((off.data, (position[off.row], position[off.col])), shape=(n, n))
        bounds = np.cumsum(np.bincount(level)).tolist()
        return cls(order, [(a, b, off[a:b]) for a, b in zip(bounds[:-1], bounds[1:])])

    def solve(self, y: np.ndarray) -> None:
        """Overwrite the reordered C-ordered n x k block y with T^-1 y."""
        for a, b, rows in self.levels:
            y[a:b] -= rows @ y  # rows reference only positions below a


def _influence_matrix(lu, c_a: sp.csr_matrix) -> sp.csr_matrix:
    """Sparse C_s = C_a C_b^-1 from level-scheduled triangular solves with
    the factors of the basis LU, C_a^T a dense column block at a time.

    SuperLU factors Pr C_b Pc = L U, so C_s^T = C_b^-T C_a^T
    = Pr^T L^-T U^-T Pc^T C_a^T.  With D the diagonal of U, U^-T = (D^-1 U^T)^-1
    D^-1 and D^-1 U^T is unit lower triangular, so the rows of C_a^T enter at
    positions perm_c, scaled by D^-1 once for all blocks; D^-1 U^T and L^T
    (unit upper triangular) are solved in their own level orders; and row i
    of the result is row perm_r[i] of the L^T solve.  A block is _SLAB_BYTES
    of C_a^T columns and drops its exact zeros as it leaves; the blocks
    become C_s's rows.
    """
    q, n = c_a.shape
    if q == 0:
        return sp.csr_matrix((0, n))
    u = lu.U
    inv_d = 1.0 / u.diagonal()
    u_t = _LevelSchedule.of((u @ sp.diags(inv_d)).T)  # D^-1 U^T
    l_t = _LevelSchedule.of(lu.L.T)
    # each gather maps a position of its target order to one of its source
    into_u = np.argsort(lu.perm_c)[u_t.order]
    u_to_l = np.argsort(u_t.order)[l_t.order]
    out_of_l = np.argsort(l_t.order)[lu.perm_r]
    c_a_t = (sp.diags(inv_d[u_t.order]) @ c_a.T.tocsr()[into_u]).tocsc()
    width = max(_SLAB_BYTES // (8 * n), 1)
    blocks = []
    for lo in range(0, q, width):
        y = c_a_t[:, lo:lo + width].toarray(order="C")
        u_t.solve(y)
        y = y[u_to_l]
        l_t.solve(y)
        blocks.append(_sparse_rows(y)[out_of_l].T.tocsr())
    return sp.vstack(blocks, format="csr")


def make_partition(model: StructuralModel, spec: PartitionSpec) -> SystemPartition:
    """Build and factorize the basis/additional partition of a model.

    The basis parameter count must equal the number of free DOFs.  The sparse
    influence matrix C_s (for reduced_gram) is built here, eagerly, by
    level-scheduled triangular solves with the factors of the basis LU.
    """
    n_elements = len(model.elements)
    ids = np.fromiter(spec.additional_ids, dtype=np.int64, count=len(spec.additional_ids))
    outside = (ids < 0) | (ids >= n_elements)
    if outside.any():
        raise NotDeterminateError(f"additional id {ids[outside][0]} outside element range")
    add_mask = np.zeros(n_elements, dtype=bool)
    add_mask[ids] = True
    all_ids = np.arange(n_elements)
    basis_ids = all_ids[~add_mask]
    additional_ids = all_ids[add_mask]

    decomp = assemble_parameters(model)
    m = decomp.blocks.shape[1]
    c_b = decomp.c[_rows(basis_ids, m)].tocsc()
    c_a = decomp.c[_rows(additional_ids, m)]
    if c_b.shape[0] != model.n:
        raise NotDeterminateError(
            f"basis parameter count {c_b.shape[0]} != free DOFs {model.n}")
    q = c_a.shape[0]

    lu, pivot_ratio = sparse_lu(c_b, BasisUnstableError, "basis mode matrix",
                               symmetric=False)
    return SystemPartition(
        basis_ids=basis_ids, additional_ids=additional_ids, n=model.n, q=q,
        c_b=c_b, c_b_lu=lu, basis_pivot_ratio=pivot_ratio,
        c_a=c_a, c_s=_influence_matrix(lu, c_a),
        **_parameter_matrices(decomp.blocks, basis_ids, additional_ids),
        element_nodes=model.element_nodes, node_xy=model.xy, dof_map=model.dof_map)


def _check_topology(partition: SystemPartition, model: StructuralModel) -> None:
    """Raise InvalidParameterError unless model has the free-DOF count, the
    elements, their end nodes, the node coordinates and the supports (as its
    free-DOF numbering) of the partitioned one."""
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
    if not np.array_equal(model.dof_map, partition.dof_map):
        raise InvalidParameterError("supports differ from the partitioned model's")


def update_partition(partition: SystemPartition, model: StructuralModel) -> SystemPartition:
    """Partition for a materially modified model, reusing all topology.

    The model must share the original's free DOFs, elements, end nodes, node
    coordinates and supports (InvalidParameterError otherwise); only the
    parameter blocks (and their blockwise inverses) are rebuilt.
    """
    _check_topology(partition, model)
    return partition.with_blocks(
        np.stack([element_decomposition(model, elem).k_params for elem in model.elements]))


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


def _block_cholesky(matrix: sp.csr_matrix, m: int) -> sp.csr_matrix:
    """Block-diagonal lower L with L L^T = matrix, a block-diagonal matrix of
    m x m blocks; raises UnstableStructureError when a block is not positive
    definite."""
    idx = np.arange(matrix.shape[0]).reshape(-1, m)
    rows = np.repeat(idx, m, axis=1).ravel()
    cols = np.tile(idx, (1, m)).ravel()
    blocks = np.asarray(matrix[rows, cols]).reshape(-1, m, m)
    try:
        return _block_diag(np.linalg.cholesky(blocks))
    except np.linalg.LinAlgError as exc:
        raise UnstableStructureError(
            f"basis parameter block not positive definite: {exc}") from exc


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
    m = n // len(partition.basis_ids)
    y = (_block_cholesky(partition.k_lb_inv, m).T @ c_s.T).tocsr()
    gram = np.zeros((q, q), order="F")
    rows = max(_SLAB_BYTES // (8 * q), 1)
    for lo in range(0, n, rows):
        # a C-ordered slab's transpose is the Fortran q x rows operand syrk takes
        gram = dsyrk(1.0, y[lo:lo + rows].toarray().T, beta=1.0, c=gram, overwrite_c=True)
    gram += np.triu(gram, 1).T  # syrk fills the upper triangle
    return gram


def factorize_stiffness(model: StructuralModel):
    """Sparse LU of the assembled stiffness; raises on singular structures."""
    return sparse_lu(assemble_global(model), UnstableStructureError, "stiffness matrix",
                     symmetric=True)[0]
