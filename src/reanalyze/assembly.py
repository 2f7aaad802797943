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
any modified partition; only the parameter blocks and their blockwise
inverses are rebuilt.

element_geometry is the one reader of element geometry: the end-to-end
vectors, lengths and end DOFs of all elements, from the model's arrays.
element_blocks builds the parameter blocks of all elements array-wise, one
elementwise kernel call per element kind; make_partition, update_partition
and assemble_parameters all take their blocks from it, so a partition
updated to its own model equals a fresh one bitwise.  mode_matrix builds
the mode rows C of all elements with one call to elements.mode_rows (the one
mode-row formula, in axis form) and one CSR build; assemble_parameters and
the Newton driver's bars take C from it, and update_partition forms no rows.

make_partition builds the sparse influence matrix C_s once per topology, by
level-scheduled triangular solves with the L and U factors of the basis LU:
each factor is reordered once so that its dependency levels are contiguous,
and each level is one sparse-times-dense product on a block of C_a^T
columns.  The build forms no dense array larger than a _SLAB_BYTES block,
and no dense n x q array is kept anywhere.  Every product with C_s (the
reduced right-hand side, operator, displacement recovery and the dense
q x q Gram matrix that the direct low-rank path and the tangent reduction
backend need by definition) takes the route SystemPartition.c_s_stored
holds, which make_partition decides once per topology by SPARSE_SHARE.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dsyrk

# truss_, beam_ and fg_beam_decomposition are unused here but stay bound:
# benchmark/tracing.py patches them on this module by name
from .elements import (
    bar_parameters,
    beam_decomposition,
    beam_parameter_matrix,
    fg_beam_decomposition,
    fg_beam_parameter_matrix,
    fg_section_constants,
    mode_rows,
    truss_decomposition,
)
from .errors import (
    BasisUnstableError,
    DegenerateElementError,
    InvalidParameterError,
    NotDeterminateError,
    UnstableStructureError,
)
from .model import ElementKind, PartitionSpec, StructuralModel

# Relative pivot threshold below which the basis mode matrix counts as singular.
PIVOT_TOL = 1e-10

# Bytes of one dense slab: a row slab of L^T C_s^T in the syrk Gram builder,
# a column block of C_a^T in the influence-matrix build.
_SLAB_BYTES = 1 << 24


# make_partition sets SystemPartition.c_s_stored, the one C_s policy, when
# the sparse Gram product C_s (K_Lb^-1 C_s^T) costs at most SPARSE_SHARE of
# the dense product's n q^2 multiply-adds, the sparse product's count being
# sum_j nnz(C_s[:, j])^2.  Measured on one BLAS thread (one run each, medians
# of 3 Grams and of 30 C_s v plus C_s^T x pairs), sparse product against
# syrk: the 20x8 frame (share 1.5e-3) 2.0 against 5.4 ms, the graded 50x20
# frame (2.3e-4) 31 against 424 ms, the 50x20 frame at n_sb = 2 and 4
# (4.1e-4, 2.1e-4) 62 against 773 and 65 against 1421 ms, c08's 10x20 frame
# (2.8e-3) 26 against 75 ms; the 30x30 ladder (1.2e-2) 37 against 26 ms, the
# 15x30 ladder (0.13) 36 against 8.3 ms, the 31x64 ladder (4.0e-2) 901
# against 232 ms.  The stored products win 1.7-2.9x on those frames and lose
# 1.7x on the 31x64 ladder; on the 30x30 ladder they win 2x, but there the
# Gram decides fdp_s and the nonlinear reduction backend, so it stays on C_b.
SPARSE_SHARE = 6e-3


def _fields(flat: list, ids: list, groups) -> np.ndarray:
    """Columns of the record fields of the elements ids, read as flat, one
    row per element (a missing field reads NaN).  Raises
    InvalidParameterError naming the first element that lacks a field of a
    (message, columns) group."""
    fields = np.array(flat, dtype=float).reshape(len(ids), -1)
    for what, columns in groups:
        missing = np.isnan(fields[:, columns]).any(axis=1)
        if missing.any():
            raise InvalidParameterError(f"element {ids[np.argmax(missing)]}: {what}")
    return fields.T


def element_geometry(model: StructuralModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """End-to-end vectors (elements, 2), lengths (elements,) and end DOFs
    (elements, 2 dofs_per_node) of a model's elements, element i's at i: the
    free-DOF indices of node_i then node_j, -1 where constrained.  Raises
    DegenerateElementError naming the first element of non-positive length.
    """
    ends = model.xy[model.element_nodes]
    delta = ends[:, 1] - ends[:, 0]
    length = np.hypot(delta[:, 0], delta[:, 1])
    if not np.all(length > 0.0):
        bad = int(np.argmin(length > 0.0))
        raise DegenerateElementError(f"element {bad}: length must be positive, got {length[bad]}")
    return delta, length, model.dof_map[model.element_nodes].reshape(len(length), -1)


def element_blocks(model: StructuralModel) -> np.ndarray:
    """(elements, m, m) parameter blocks of a model, element i's block at i.

    Lengths come from element_geometry and the fields each kind needs from
    one pass over the records; each element kind then takes one elementwise
    kernel call.  A record lacking a field its kind needs raises
    InvalidParameterError naming the element.
    """
    length = element_geometry(model)[1]
    bar, beam, fg = ElementKind.TRUSS_BAR, ElementKind.HOMOGENEOUS_BEAM, ElementKind.FG_BEAM
    ids = {bar: [], beam: [], fg: []}
    flat = {bar: [], beam: [], fg: []}
    coupling = []
    for i, elem in enumerate(model.elements):
        sec, mat = elem.section, elem.material
        ids[elem.kind].append(i)
        if elem.kind is fg:
            flat[fg] += (mat.e_us, mat.e_ls, mat.p, sec.width, sec.height)
            coupling.append(mat.fg_coupling or "exact")
        elif elem.kind is bar:
            flat[bar] += (mat.e if mat.e is not None else mat.e0, sec.area)
        else:
            flat[beam] += (mat.e if mat.e is not None else mat.e0, sec.area, sec.inertia)

    no_young = "material defines neither e nor e0"
    m = 2 * model.dofs_per_node - 3
    blocks = np.zeros((len(length), m, m))
    if ids[bar]:
        young, area = _fields(flat[bar], ids[bar], ((no_young, [0]),
                                                    ("bar section needs area", [1])))
        blocks[ids[bar], 0, 0] = bar_parameters(young, area, length[ids[bar]])
    if ids[beam]:
        young, area, inertia = _fields(
            flat[beam], ids[beam],
            ((no_young, [0]), ("beam section needs area and inertia", [1, 2])))
        blocks[ids[beam]] = beam_parameter_matrix(young, area, inertia, length[ids[beam]])
    if ids[fg]:
        e_us, e_ls, p, width, height = _fields(
            flat[fg], ids[fg],
            (("graded material needs e_us, e_ls and p", [0, 1, 2]),
             ("graded section needs width and height", [3, 4])))
        constants = fg_section_constants(height, p, e_us, e_ls, coupling=np.array(coupling))
        blocks[ids[fg]] = fg_beam_parameter_matrix(width, constants, length[ids[fg]])
    return blocks


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


def mode_matrix(model: StructuralModel) -> sp.csr_matrix:
    """The (elements m) x n sparse matrix C of the mode rows restricted to
    free DOFs, element i's rows being m i ... m i + m - 1: one mode_rows call
    over element_geometry and one CSR build.  Every free entry is stored,
    exact zeros too, so the structure of C, and with it the ordering of the
    basis LU, depends on the topology alone."""
    delta, length, dofs = element_geometry(model)
    m = 2 * model.dofs_per_node - 3
    rows = mode_rows(delta, length, m)
    free = np.broadcast_to(dofs[:, None, :] >= 0, rows.shape)
    element, mode, end = np.nonzero(free)
    return sp.csr_matrix((rows[free], (m * element + mode, dofs[element, end])),
                         shape=(m * len(length), model.n))


def assemble_parameters(model: StructuralModel) -> tuple[np.ndarray, sp.csr_matrix]:
    """The (elements, m, m) parameter blocks (element_blocks) and the mode
    rows c (mode_matrix)."""
    return element_blocks(model), mode_matrix(model)


def stiffness(c: sp.spmatrix, k_l: sp.spmatrix) -> sp.csr_matrix:
    """Stiffness C^T K_L C of stacked mode rows c and parameters k_l: the one
    way the package forms a stiffness matrix."""
    k = c.T @ k_l @ c
    # the summation order of C^T K_L C is not symmetric under (i, j) <-> (j, i),
    # so averaging with the transpose is what makes K bitwise symmetric
    return ((k + k.T) * 0.5).tocsr()


def assemble_global(model: StructuralModel) -> sp.csr_matrix:
    """Assembled free-DOF stiffness matrix K = C^T K_L C."""
    blocks, c = assemble_parameters(model)
    return stiffness(c, _block_diag(blocks))


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
    element_nodes/node_xy/dof_map) are shared across material updates.  A
    material state is the (elements, m, m) parameter blocks, element i's at
    i, plus the blockwise inverses the reduced operators read: k_lb_inv of
    the basis blocks, k_la_inv of the additional ones.  with_blocks gives
    the same topology under another state.  Basis element i owns rows
    m i ... m i + m - 1 of c_b and k_lb_inv, additional element i those of
    c_a and k_la_inv.
    Instances are immutable; solves through the factorization do not mutate
    visible state.

    c_s_stored is the one C_s policy, fixed by make_partition from the
    topology alone (SPARSE_SHARE, whose comment gives the measurements), so
    a partition, its updates and its preconditioner take the same route.
    Where it holds, apply_c_s and apply_c_s_t multiply by the stored c_s and
    reduced_gram forms the sparse product C_s (K_Lb^-1 C_s^T); otherwise
    they solve with the basis factorization, and reduced_gram accumulates
    Y^T Y by BLAS syrk over row slabs of Y = L^T C_s^T, K_Lb^-1 = L L^T
    blockwise.
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
    c_s_stored: bool  # whether products with C_s multiply by c_s
    blocks: np.ndarray  # (elements, m, m) parameter blocks
    k_lb_inv: sp.csr_matrix
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
        if self.c_s_stored:
            return self.c_s @ v
        return self.c_a @ self.solve_c_b(v)

    def apply_c_s_t(self, x: np.ndarray) -> np.ndarray:
        """Apply C_s^T = C_b^-T C_a^T to a q-vector."""
        if self.c_s_stored:
            return self.c_s.T @ x
        return self.solve_c_b_t(self.c_a.T @ x)

    def with_blocks(self, blocks: np.ndarray) -> "SystemPartition":
        """The same topology under the (elements, m, m) parameter blocks."""
        return dataclasses.replace(
            self, **_material_state(blocks, self.basis_ids, self.additional_ids))


def _material_state(blocks: np.ndarray, basis_ids: np.ndarray,
                    additional_ids: np.ndarray) -> dict:
    """The SystemPartition fields of one material state: the (elements, m, m)
    parameter blocks and the blockwise inverses K_Lb^-1 and K_La^-1."""
    return {"blocks": blocks,
            "k_lb_inv": _block_diag(np.linalg.inv(blocks[basis_ids])),
            "k_la_inv": _block_diag(np.linalg.inv(blocks[additional_ids]))}


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
    influence matrix C_s is built here, eagerly, by level-scheduled
    triangular solves with the factors of the basis LU.
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

    blocks, c = assemble_parameters(model)
    m = blocks.shape[1]
    c_b = c[_rows(basis_ids, m)].tocsc()
    c_a = c[_rows(additional_ids, m)]
    if c_b.shape[0] != model.n:
        raise NotDeterminateError(
            f"basis parameter count {c_b.shape[0]} != free DOFs {model.n}")
    q = c_a.shape[0]

    lu, pivot_ratio = sparse_lu(c_b, BasisUnstableError, "basis mode matrix",
                               symmetric=False)
    c_s = _influence_matrix(lu, c_a)
    column_nnz = np.bincount(c_s.indices, minlength=model.n)
    return SystemPartition(
        basis_ids=basis_ids, additional_ids=additional_ids, n=model.n, q=q,
        c_b=c_b, c_b_lu=lu, basis_pivot_ratio=pivot_ratio, c_a=c_a, c_s=c_s,
        c_s_stored=bool(column_nnz @ column_nnz <= SPARSE_SHARE * model.n * q * q),
        **_material_state(blocks, basis_ids, additional_ids),
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
    parameter blocks and their blockwise inverses are rebuilt.
    """
    _check_topology(partition, model)
    return partition.with_blocks(element_blocks(model))


def reduced_rhs(partition: SystemPartition, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side of the reduced system and the cached basis solution.

    Evaluated strictly right-to-left: t = C_b^-T r, b_s = K_Lb^-1 t,
    b = C_s b_s.  b_s is returned for reuse by displacement recovery.
    """
    t = partition.solve_c_b_t(r)
    b_s = partition.k_lb_inv @ t
    return partition.apply_c_s(b_s), b_s


def reduced_apply(partition: SystemPartition, x: np.ndarray) -> np.ndarray:
    """Apply the reduced operator K_La^-1 + C_s K_Lb^-1 C_s^T as mat-vec chains.

    A call costs two block-diagonal products plus, where c_s_stored holds,
    one product with the stored C_s and one with its transpose, and
    otherwise two sparse solves with the basis factorization and two
    products with C_a."""
    h = partition.k_lb_inv @ partition.apply_c_s_t(x)
    return partition.k_la_inv @ x + partition.apply_c_s(h)


def reduced_gram(partition: SystemPartition) -> np.ndarray:
    """Dense q x q matrix G = C_s K_Lb^-1 C_s^T, in Fortran order, by the
    route SystemPartition.c_s_stored holds; neither route forms a dense
    n x q array.  The syrk route raises UnstableStructureError when a basis
    parameter block is not positive definite.
    """
    n, q = partition.n, partition.q
    c_s = partition.c_s
    if partition.c_s_stored:
        return (c_s @ (partition.k_lb_inv @ c_s.T)).toarray(order="F")
    try:
        lower = np.linalg.cholesky(np.linalg.inv(partition.blocks[partition.basis_ids]))
    except np.linalg.LinAlgError as exc:
        raise UnstableStructureError(
            f"basis parameter block not positive definite: {exc}") from exc
    y = (_block_diag(lower).T @ c_s.T).tocsr()
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
