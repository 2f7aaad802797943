"""Global stiffness assembly, basis/additional partitioning and reduced operators.

The assembled stiffness of the whole structure factorizes as K = C^T K_L C with
K_L block diagonal over elements.  Every element of a model has the same block
size m (1 for bars, 3 for beams), so the parameter blocks are one
(elements, m, m) array and element i owns the stacked rows m i ... m i + m - 1.
Splitting the element set into a statically determinate basis (square,
invertible mode matrix C_b) and the remaining additional components (q
stiffness parameters) turns K d = R into a q x q system on the
additional-component deformation forces.  Everything topological
(C_b factorization, C_a, the sparse influence matrix C_s = C_a C_b^-1) is
invariant under material modification and is shared between the original and
any modified partition; only the parameter blocks and their blockwise
inverses are rebuilt.

element_geometry is the one reader of element geometry: the end-to-end
vectors, lengths and end DOFs of all elements, from the model's arrays.
element_blocks builds the parameter blocks of all elements array-wise, one
call per element kind present to the elementwise kernels
truss_decomposition, beam_decomposition and fg_beam_decomposition, by the
names this module binds (benchmark/tracing.py counts the calls there).
assemble_global, make_partition and update_partition all take their
blocks from it, so a partition updated to its own model equals a fresh one
bitwise.  mode_matrix builds the mode rows C of all elements with one call
to elements.mode_rows (the one mode-row formula, in axis form) and one CSR
build; assemble_global, make_partition and the Newton driver's bars take C
from it, and update_partition forms no rows.  _fields is the one reader of
record fields: element_blocks and the Newton driver's bars read through it.

K is formed in one of two ways.  stiffness() is the sparse product of
mode_matrix's C and the blocks, for a model factored once: the assembled
stiffness, the original stiffness the SRI preconditioner factors and PCG's
K.  StiffnessPlan is the form for one topology factored many times, the
Newton driver's tangents: built once from element_geometry and
elements.mode_rows, it keeps each element's upper-triangle terms, their
slots in K's pattern and the pattern's band layout, so a tangent is one
gather-multiply, one bincount and a scatter into the band.  The linear path keeps stiffness(),
by two measurements on one BLAS thread of a 2-core Xeon.  A plan built per
call costs 8.9 ms on the graded 31x64 ladder, against 5.2 ms for
mode_matrix and stiffness() (medians of 31), so it would slow every
complete analysis.  A plan shared across the designs of one original brings
the complete analysis of c08's graded frame from 29.5 to 15.7 ms, below the
22.4 ms of its SRI solve (interleaved medians of 15), so the acceptance
check that SRI beats the complete analysis there would fail.

A statically determinate basis can be solved joint by joint, so C_b is a
permuted triangle, and make_partition factors it as one (Duff, ACM TOMS 7,
1981; Pothen and Fan, ACM TOMS 16, 1990).  It drops the exact zeros of C_b,
matches every column to a row it has an entry in (a maximum bipartite
matching; a column left unmatched makes C_b structurally singular), and
level-sorts the transpose of the matched C_b: the digraph in which a row
depends on the rows its entries reference.  Reversed, that level order
makes C_b lower triangular, and SuperLU factors the triangle in its given
order with diagonal pivots: L is the triangle with its columns scaled to a
unit diagonal, U is its diagonal, and there is no fill.  Where rows depend
on one another in a cycle (a complex truss; no generator builds one) the
levels are those of the strongly connected blocks and the triangle is
block triangular.  Each block of more than one row takes its rows in the
order of its own dense LU with partial pivoting, so the pivots stay on the
diagonal and inside the block.  A singular block raises
BasisUnstableError, and so does every check sparse_lu makes on the factor.

The same level schedule builds the sparse influence matrix, as C_s^T, once
per topology, a level at a time and in sparse form throughout (Gilbert and
Peierls, SIAM J. Sci. Stat. Comput. 9, 1988).  A level costs a fixed
overhead plus the flops of its products, each off-diagonal entry times the
nonzeros of the row it references, so the build's time follows nnz(C_s),
not n q.  Its temporaries stay within _SLAB_BYTES, and no dense n x q array
is formed anywhere.  A partition always stores C_s^T, and C_s only where
make_partition sends the products with C_s of the reduced right-hand side,
operator and displacement recovery to storage (SPARSE_SHARE, once per
topology).  The q x q Gram matrix C_s K_Lb^-1 C_s^T, which
the direct low-rank path and the tangent reduction backend factor, has one
route, reduced_gram, split by the rows of C_s^T: the few rows dense enough
that a dense product is cheaper (HEAVY_SHARE) go through BLAS into a dense
Gram, and the others through a sparse product.  Where no row is heavy (the
frames) the Gram stays sparse, and its reduced operator is factored by
factor_spd like a stiffness; a dense Gram is factored by dense Cholesky
(DenseCholesky).

One function, _band_layout, decides the route of every sparse symmetric
positive definite factor, factor_spd's (a stiffness, assembled or original,
or a sparse reduced operator) and StiffnessPlan.factor's: banded Cholesky in
reverse Cuthill-McKee order where that band is narrow (BAND_SHARE), else
sparse_lu, which also factors the basis triangle.  Every factor's health is
its pivot_ratio against PIVOT_TOL.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import (
    connected_components,
    maximum_bipartite_matching,
    reverse_cuthill_mckee,
)
from scipy.linalg import cho_solve, cho_solve_banded, cholesky_banded, lu_factor
from scipy.linalg.blas import dgemm

from .elements import (
    beam_decomposition,
    fg_beam_decomposition,
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

# pivot_ratio below which sparse_lu and factor_spd count a factor as singular.
PIVOT_TOL = 1e-10

# Bytes of the temporaries of one piece of a level in the influence-matrix
# build: a piece expands the products of whole rows, and costs a fixed
# overhead plus its products.
_SLAB_BYTES = 1 << 24


# make_partition stores C_s next to C_s^T, the one route of the products
# with C_s in reduced_apply, reduced_rhs and displacement recovery, when
# nnz(C_s), the work of one product with the stored C_s or its
# transpose, is at most SPARSE_SHARE times nnz(C_b's factor) + nnz(C_a), the
# work of one product by the C_b route (a solve with the factor and a product
# with C_a).  Measured on one BLAS thread of a 2-core Xeon (medians of 301
# reduced_apply calls), that ratio, then the apply stored against by C_b: the
# 20x8 frame 1.6, 0.026 against 0.068 ms; the graded 50x20 frame 3.6, 0.17
# against 0.18 ms; the 50x20 frame at n_sb = 2 2.7, 0.25 against 0.28 ms,
# and at n_sb = 4 1.9, 0.19 against 0.47 ms; c08's 10x20 frame 4.5, 0.25
# against 0.35 ms; the 15x30 ladder 6.9, 0.048 against 0.073 ms; the 30x30
# ladder 8.7, 0.104 against 0.103 ms; the 31x64 ladder 15.2, 0.42 against
# 0.19 ms; the 31x192 ladder 39.5, 3.3 against 0.49 ms.  So the frames and
# the 15x30 ladder store C_s, and the 30x30 ladder (on par) and the longer
# ladders take the C_b route.
SPARSE_SHARE = 8

# reduced_gram multiplies the rows of C_s^T of a basis element by BLAS when
# their nonzero count nnz squared, the multiply-adds of their sparse product,
# exceeds HEAVY_SHARE of the m q^2 of their dense one (m rows of q entries).
# Measured on one BLAS thread of a 2-core Xeon (medians of 9 Grams, of 3 on
# the 31x192 ladder), heavy rows, then the Gram in ms, at HEAVY_SHARE 0.2,
# 0.1, 0.05, 0.03 and 0.02, against the sparse product of all rows: the 15x30
# ladder 33, 41, 47, 49, 51 rows, 4.4, 3.9, 3.8, 3.6, 3.7 against 11.5 ms;
# the 30x30 ladder 33 to 51 rows, 13.8, 10.9, 10.2, 10.4, 10.1 against 47.5;
# the 31x64 ladder 71, 87, 99, 105, 109 rows, 75, 60, 55, 55, 54 against 342;
# the 31x192 ladder 213, 263, 299, 317, 329 rows, 1523, 1035, 907, 981,
# 883.  c08's 10x20 frame has no heavy row down to 0.04 (its heaviest
# element reads 0.037) and its Gram takes 26.7 ms; at 0.03 it has 432 heavy
# rows and takes 30.1 ms, at 0.02 1296 and 32.4 ms.  The 20x8 and 50x20
# frames (n_sb = 1, 2, 4) read at most 0.0093.  So the ladders' few
# near-dense rows go through BLAS and the frames take the sparse product
# alone.
#
# The same rule picks solvers.fdp_factor's route.  A Gram without heavy rows
# stays sparse, and factor_spd factors the reduced operator K_La^-1 + G with
# its reverse Cuthill-McKee band of (u + 1) / q; a dense one goes to dense
# Cholesky.  Measured as above (medians of 5), the density of K_La^-1 + G,
# its (u + 1) / q, then factor_spd against cho_factor in ms: the 20x8 frame
# 0.12, 0.13, 1.0 against 2.4; the graded 50x20 frame 0.050, 0.053, 26 against
# 247; at n_sb = 2 and 4 0.059, 0.040, 17 against 244 and 247; the 40x40
# frame 0.063, 0.067, 54 against 782; c08c's graded frame 0.28, 0.20, 2.9
# against 3.7.  The ladders (47 to 99 heavy rows) read at least 0.98 in
# both, and factor_spd loses: 4.9 against 1.4 ms on the 15x30 ladder, 24
# against 7.6 on the 30x30, 115 against 59 on the 31x64.  LAPACK alone does
# not cross over at q = 3000 (banded against dense Cholesky, 5.6 against 224
# ms at (u + 1) / q = 0.05, 135 against 238 at 0.7, 187 against 250 at 1):
# on the ladders what loses is the ordering and the scatter of all q^2
# entries, so their dense route stays.
HEAVY_SHARE = 0.05

# _band_layout sends a stiffness to banded Cholesky when its reverse
# Cuthill-McKee band, n (u + 1) entries for bandwidth u, holds at most
# BAND_SHARE times the matrix's stored entries, and to sparse LU otherwise.
# Measured on one BLAS thread of a 2-core Xeon (medians of 15 factors and of
# 31 solves), factor then solve by sparse LU against banded, in ms: the 31x64
# ladder (share 8.4) 21.0 against 8.2, 0.46 against 0.27; the 30x150 ladder
# (8.2) 41.0 against 17.9, 1.05 against 0.51; the 30x30 ladder (7.9) 8.5
# against 2.1, 0.11 against 0.09; the graded 50x20 frame (8.1) 15.0 against
# 5.9, 0.19 against 0.13; c08's graded 10x20 frame (10.4) 20.7 against 20.8,
# 0.86 against 0.77; the same frame ungraded (15.4: fewer entries, the
# coupling terms being zero) 10.9 against 13.5, 0.40 against 0.58; the
# 128x64 truss (16.4) 91 against 41, 1.6 against 1.6; the 40x40 frame (16.7)
# 27.6 against 17.1, 0.62 against 0.45; the 50x20 frame at n_sb = 4 (25.9)
# 21.7 against 42.3, 0.54 against 1.11; the 80x80 frame (32.3) 101 against
# 119, 3.0 against 4.0.  Each of these models randomly renumbered keeps its
# share within 0.3, and so its route, while sparse LU's factor slows by up
# to 2.4x.  So every benchmark model takes the banded route, and c08's
# ungraded frame (the original of its reanalysis, whose K0 solves serve PCG
# and SRI's preconditioner) and the subdivided or large frames stay on
# sparse LU.  A bound near 17 would also win on the 128x64 truss and the
# 40x40 frame, but lose on c08's ungraded frame.
BAND_SHARE = 12


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
            continue
        flat[elem.kind] += (mat.e if mat.e is not None else mat.e0, sec.area)
        if elem.kind is beam:
            flat[beam].append(sec.inertia)

    no_young = "material defines neither e nor e0"
    m = 2 * model.dofs_per_node - 3
    blocks = np.zeros((len(length), m, m))
    if ids[bar]:
        young, area = _fields(flat[bar], ids[bar], ((no_young, [0]),
                                                    ("bar section needs area", [1])))
        blocks[ids[bar], 0, 0] = truss_decomposition(young, area, length[ids[bar]])
    if ids[beam]:
        young, area, inertia = _fields(
            flat[beam], ids[beam],
            ((no_young, [0]), ("beam section needs area and inertia", [1, 2])))
        blocks[ids[beam]] = beam_decomposition(young, area, inertia, length[ids[beam]])
    if ids[fg]:
        e_us, e_ls, p, width, height = _fields(
            flat[fg], ids[fg],
            (("graded material needs e_us, e_ls and p", [0, 1, 2]),
             ("graded section needs width and height", [3, 4])))
        constants = fg_section_constants(height, p, e_us, e_ls, coupling=np.array(coupling))
        blocks[ids[fg]] = fg_beam_decomposition(width, constants, length[ids[fg]])
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
    exact zeros too, so the structure of C depends on the topology alone;
    no factor sees them (stiffness's product drops zero sums, and
    make_partition drops them from C_b)."""
    delta, length, dofs = element_geometry(model)
    m = 2 * model.dofs_per_node - 3
    rows = mode_rows(delta, length, m)
    free = np.broadcast_to(dofs[:, None, :] >= 0, rows.shape)
    element, mode, end = np.nonzero(free)
    return sp.csr_matrix((rows[free], (m * element + mode, dofs[element, end])),
                         shape=(m * len(length), model.n))


def stiffness(c: sp.spmatrix, blocks: np.ndarray) -> sp.csr_matrix:
    """Stiffness C^T K_L C of stacked mode rows c and (elements, m, m) blocks
    of K_L: the one way the package forms a stiffness matrix."""
    k = c.T @ _block_diag(blocks) @ c
    # the summation order of C^T K_L C is not symmetric under (i, j) <-> (j, i),
    # so averaging with the transpose is what makes K bitwise symmetric
    return ((k + k.T) * 0.5).tocsr()


def assemble_global(model: StructuralModel) -> sp.csr_matrix:
    """Assembled free-DOF stiffness matrix K = C^T K_L C."""
    return stiffness(mode_matrix(model), element_blocks(model))


def _index_array(values: np.ndarray, bound: int) -> np.ndarray:
    """values as int32 where indices below bound fit, else as int64."""
    return values.astype(np.int32 if bound <= np.iinfo(np.int32).max else np.int64)


def _symmetric(row: np.ndarray, col: np.ndarray, values: np.ndarray, n: int) -> sp.csr_matrix:
    """Canonical n x n CSR matrix holding values at the upper slots (row,
    col), row <= col, and at their mirrors (col, row)."""
    off = row != col
    return sp.csr_matrix((np.concatenate([values, values[off]]),
                          (np.concatenate([row, col[off]]), np.concatenate([col, row[off]]))),
                         shape=(n, n))


@dataclass(frozen=True)
class _BandLayout:
    """Where the entries of a symmetric sparse matrix go in the LAPACK upper
    band storage of its reverse Cuthill-McKee ordering."""

    perm: np.ndarray  # the row and column of the matrix at each position of the ordering
    width: int  # the ordering's bandwidth u
    share: float  # the band's n (u + 1) entries over the matrix's stored ones
    index: np.ndarray | None  # flat Fortran band index of each entry; None above BAND_SHARE


def _band_layout(pattern: sp.csr_matrix) -> tuple[_BandLayout, np.ndarray]:
    """The band layout of a canonical symmetric CSR matrix and which of its
    stored entries the band takes, those in the upper triangle of the
    ordering: the one place the route of a sparse symmetric factor is
    decided, for factor_spd and StiffnessPlan alike.  The reverse
    Cuthill-McKee ordering narrows the band (George and Liu, Computer
    Solution of Large Sparse Positive Definite Systems, 1981).  Where the
    band holds at most BAND_SHARE times the stored entries, index places
    the entries it takes, in storage order: position (i, j) at
    band[u + i - j, j], flat in Fortran order.
    """
    n = pattern.shape[0]
    perm = reverse_cuthill_mckee(pattern, symmetric_mode=True) if n else np.arange(0)
    position = np.empty_like(perm)
    position[perm] = np.arange(n, dtype=perm.dtype)
    row = np.repeat(position, np.diff(pattern.indptr))
    col = position[pattern.indices]
    upper = row <= col
    row, col = row[upper], col[upper]
    width = int((col - row).max(initial=0))
    share = n * (width + 1) / max(pattern.nnz, 1)
    if share > BAND_SHARE:
        return _BandLayout(perm, width, share, None), upper
    # (width + 1) col + width + row - col
    index = _index_array(col, n * (width + 1)) * width + (row + width)
    return _BandLayout(perm, width, share, index), upper


@dataclass(frozen=True)
class StiffnessPlan:
    """The stiffness K = C^T K_L C of one topology as a fixed scatter, built
    once and applied to any (elements, m, m) parameter blocks B.

    K's upper entry (r, c), r <= c, sums the terms R[i, a] B[i, j] R[j, b]
    over the elements with free DOFs r and c at their local DOFs a and b,
    R being the element's mode rows (elements.mode_rows, in axis form).  The
    plan keeps each such term whose coefficient R[i, a] R[j, b] is not an
    exact zero, element by element: the coefficient, the entry of
    B.ravel() it multiplies and the upper slot it adds to.  The slots, K's
    upper pattern, are sorted by row, then column, and depend on the
    topology alone, and so does the pattern's band layout, kept with them.

    assemble(blocks) gives K in CSR form, both triangles from the same slot
    sums, so K is bitwise symmetric.  factor(blocks, error, what) factors K
    by the route its layout gives: the slot sums written straight into the
    band, or sparse LU of assemble(blocks) where the band is too wide.
    """

    n: int
    coef: np.ndarray  # (terms,) mode-row coefficient of each term
    entry: np.ndarray  # (terms,) the entry of blocks.ravel() each term multiplies
    slot: np.ndarray  # (terms,) the upper slot each term adds to
    row: np.ndarray  # (slots,) K's row of each upper slot
    col: np.ndarray  # (slots,) its column, row <= col
    layout: _BandLayout  # the pattern's band, index giving each slot's place

    @classmethod
    def of(cls, model: StructuralModel) -> "StiffnessPlan":
        """The plan of a model's topology: element_geometry and one
        mode_rows call."""
        delta, length, dofs = element_geometry(model)
        m, n, elements = 2 * model.dofs_per_node - 3, model.n, len(length)
        rows = mode_rows(delta, length, m)  # (elements, m, nd)
        nd = rows.shape[2]
        # coef[e, a, b, i, j] = R[e, i, a] R[e, j, b], zeroed off the free
        # upper pairs (a, b); every array is freed as soon as it is used, so
        # the build stays near the plan's own size
        coef = np.einsum("eia,ejb->eabij", rows, rows)
        del delta, length, rows
        first, second = dofs[:, :, None], dofs[:, None, :]
        coef *= ((first >= 0) & (first <= second))[..., None, None]
        kept = np.flatnonzero(coef)
        coef = coef.ravel()[kept]
        element, term = np.divmod(kept, nd * nd * m * m)
        del kept
        pair, ends = term // (m * m), nd * element  # the pair (a, b) is nd a + b
        dofs = dofs.ravel()
        key = dofs[ends + pair // nd] * n + dofs[ends + pair % nd]
        del pair, ends
        entry = _index_array(m * m * element + term % (m * m), elements * m * m)
        del element, term
        upper, slot = np.unique(key, return_inverse=True)
        del key
        row, col = _index_array(upper // n, n), _index_array(upper % n, n)
        slot = _index_array(slot, len(upper))
        del upper
        # the pattern holds each slot's number, so the band places of its
        # entries map back to the slots
        pattern = _symmetric(row, col, np.arange(len(row), dtype=float), n)
        layout, upper = _band_layout(pattern)
        if layout.index is not None:
            index = np.empty_like(layout.index)
            index[pattern.data[upper].astype(np.intp)] = layout.index
            layout = dataclasses.replace(layout, index=index)
        return cls(n, coef, entry, slot, row, col, layout)

    def _values(self, blocks: np.ndarray) -> np.ndarray:
        """The upper slot sums of K under the blocks."""
        return np.bincount(self.slot, weights=self.coef * blocks.ravel()[self.entry],
                           minlength=len(self.row))

    def assemble(self, blocks: np.ndarray) -> sp.csr_matrix:
        """K = C^T K_L C under the (elements, m, m) blocks, canonical CSR."""
        return _symmetric(self.row, self.col, self._values(blocks), self.n)

    def factor(self, blocks: np.ndarray, error: type[Exception], what: str):
        """Factor of K under the blocks, as factor_spd's of assemble(blocks).
        Raises error when K is singular, not positive definite or its
        pivot_ratio is below PIVOT_TOL."""
        if self.layout.index is None:
            return _sparse_spd(self.assemble(blocks), error, what)
        return _banded_cholesky(self.layout, self._values(blocks), error, what)


@dataclass(frozen=True)
class BandedCholesky:
    """Cholesky factor K[perm][:, perm] = R^T R of a symmetric positive
    definite matrix K, R upper triangular in LAPACK's upper band storage:
    band[u + i - j, j] = R_ij for the bandwidth u, R's diagonal in band[u].
    solve solves with K itself."""

    perm: np.ndarray  # the row and column of K at each position of the ordering
    band: np.ndarray  # (u + 1, n)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """K^-1 rhs for an n-vector or an n x k block."""
        x = np.empty_like(rhs, dtype=float)
        x[self.perm] = cho_solve_banded((self.band, False), rhs[self.perm], check_finite=False)
        return x


@dataclass(frozen=True)
class DenseCholesky:
    """Cholesky factor of a dense symmetric positive definite matrix in
    scipy.linalg.cho_factor form: R in the upper triangle of c, K = R^T R.
    solve solves with K itself."""

    c: np.ndarray  # (n, n), R in its upper triangle

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """K^-1 rhs for an n-vector or an n x k block."""
        return cho_solve((self.c, False), rhs, check_finite=False)


def pivot_ratio(factor) -> float:
    """Smallest over largest LU pivot of a factor, 1.0 for an empty one: of a
    SuperLU factor |U_ii|, of a BandedCholesky or DenseCholesky R_ii^2
    (K = R^T R is the LU (R^T D^-1)(D R), D = diag(R_ii)), so every factor of
    one matrix reads alike."""
    if isinstance(factor, BandedCholesky):
        pivots = factor.band[-1] ** 2
    elif isinstance(factor, DenseCholesky):
        pivots = np.diagonal(factor.c) ** 2
    else:
        pivots = np.abs(factor.U.diagonal())
    return float(pivots.min() / pivots.max()) if pivots.size else 1.0


def _check_pivots(factor, error: type[Exception], what: str) -> None:
    """Raise error when the pivot_ratio of factor is below PIVOT_TOL."""
    ratio = pivot_ratio(factor)
    if not ratio >= PIVOT_TOL:
        raise error(f"{what} nearly singular (pivot ratio {ratio:.2e})")


def sparse_lu(matrix: sp.spmatrix, error: type[Exception], what: str, *,
              ordering: str = "MMD_AT_PLUS_A"):
    """SuperLU factor of a square matrix, checked: raises error when the
    matrix is singular, its pivot_ratio is below PIVOT_TOL or a pivot leaves
    the diagonal (perm_r != perm_c).

    Rows and columns take the one ordering (SuperLU's SymmetricMode) and the
    pivots are the diagonal wherever it is nonzero.  It serves two matrices:
    the basis triangle of make_partition, which comes ordered already and
    takes ordering="NATURAL", so it factors without fill, and, through
    factor_spd, a stiffness whose band is too wide for banded Cholesky.  That
    one takes the default ordering, minimum degree on A^T + A: its factor is
    symmetric in structure and a third to a half smaller than COLAMD's.
    """
    try:
        lu = spla.splu(sp.csc_matrix(matrix), permc_spec=ordering, diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise error(f"{what} is singular: {exc}") from exc
    _check_pivots(lu, error, what)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise error(f"{what}: a pivot left the diagonal")
    return lu


def factor_spd(matrix: sp.spmatrix, error: type[Exception], what: str):
    """Factor of a sparse symmetric positive definite matrix (a stiffness,
    assembled or original, or the reduced operator of a Gram without heavy
    rows) by the route _band_layout gives, whose solve(rhs) solves with the
    matrix.  Raises error when the matrix is singular, not positive definite
    or its pivot_ratio is below PIVOT_TOL.  A CSR matrix is brought to
    canonical form in place (sum_duplicates changes its storage, not its
    value), so the factor copies none of its entries.
    """
    k = matrix if isinstance(matrix, sp.csr_matrix) else sp.csr_matrix(matrix)
    k.sum_duplicates()  # the band takes each entry once
    layout, upper = _band_layout(k)
    if layout.index is None:
        return _sparse_spd(k, error, what)
    return _banded_cholesky(layout, k.data[upper], error, what)


def _banded_cholesky(layout: _BandLayout, values: np.ndarray, error: type[Exception],
                     what: str) -> BandedCholesky:
    """BandedCholesky of the matrix whose entries values are, placed at
    layout.index: the band is filled from them and factored in place.  A
    breakdown, a pivot that is not positive, or a pivot_ratio below
    PIVOT_TOL raises error."""
    n, rows = len(layout.perm), layout.width + 1
    band = np.zeros(rows * n)
    band[layout.index] = values
    try:
        factor = BandedCholesky(layout.perm, cholesky_banded(
            band.reshape((rows, n), order="F"), overwrite_ab=True, check_finite=False))
    except np.linalg.LinAlgError as exc:
        raise error(f"{what} is singular: {exc}") from exc
    _check_pivots(factor, error, what)
    return factor


def _sparse_spd(matrix: sp.spmatrix, error: type[Exception], what: str):
    """sparse_lu of a symmetric positive definite matrix.  Its pivots are
    those of the LDL^T factor in its symmetric ordering, so one that is not
    positive means the matrix is not positive definite and raises error."""
    lu = sparse_lu(matrix, error, what)
    if not np.all(lu.U.diagonal() > 0.0):
        raise error(f"{what} is not positive definite")
    return lu


@dataclass(frozen=True)
class BasisFactor:
    """The basis mode matrix C_b as its triangle T = C_b[rows][:, cols] and
    T's SuperLU factor lu, which pivots on T's diagonal: T = lu.L lu.U, with
    identity lu.perm_r and lu.perm_c.  solve solves with C_b itself.
    """

    lu: object  # SuperLU factor of T
    rows: np.ndarray  # the row of C_b at each row of T
    cols: np.ndarray  # the column of C_b at each column of T

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """C_b^-1 rhs, or C_b^-T rhs for trans="T"."""
        into, out = (self.rows, self.cols) if trans == "N" else (self.cols, self.rows)
        y = self.lu.solve(rhs[into], trans=trans)
        x = np.empty_like(y)
        x[out] = y
        return x


@dataclass(frozen=True)
class SystemPartition:
    """Basis/additional split with factorized basis mode matrix.

    Topological members (c_b, its triangular factorization c_b_lu, c_a, the
    sparse influence matrix C_s = C_a C_b^-1 as c_s_t and c_s, and the model
    fingerprint element_nodes/node_xy/dof_map) are shared
    across material updates; sparse_lu checked the factor.  Every solve with C_b or C_b^T is
    c_b_lu.solve(v) or c_b_lu.solve(v, trans="T").  A material state is the
    (elements, m, m) parameter blocks, element i's at i, plus the blockwise
    inverses the reduced operators read: k_lb_inv of the basis blocks,
    k_la_inv of the additional ones.  with_blocks gives the same topology
    under another state.  Basis element i owns rows m i ... m i + m - 1 of
    c_b and k_lb_inv, additional element i those of c_a and k_la_inv.
    Instances are immutable; solves through the factorization do not mutate
    visible state.

    c_s_t, C_s^T in canonical CSR form, is always stored: the Gram
    (reduced_gram) reads it.  c_s, C_s in CSR form, is stored only where
    make_partition sends the products with C_s to storage, a route fixed by
    the topology alone (SPARSE_SHARE, whose comment gives the
    measurements), so a partition, its updates and its preconditioner take
    the same route.  Where c_s is stored, apply_c_s and apply_c_s_t multiply
    by c_s and c_s_t; where it is None they solve with the basis
    factorization (two triangular solves and two gathers).
    """

    basis_ids: np.ndarray
    additional_ids: np.ndarray
    n: int
    q: int
    c_b: sp.csc_matrix
    c_b_lu: object
    c_a: sp.csr_matrix
    c_s_t: sp.csr_matrix  # (n, q) C_s^T, canonical, exact zeros dropped
    c_s: sp.csr_matrix | None  # (q, n) C_s on the stored route, else None
    blocks: np.ndarray  # (elements, m, m) parameter blocks
    k_lb_inv: sp.csr_matrix
    k_la_inv: sp.csr_matrix
    element_nodes: np.ndarray  # (elements, 2) end nodes of the partitioned model
    node_xy: np.ndarray  # (nodes, 2) its node coordinates
    dof_map: np.ndarray  # (nodes, dofs per node) its free-DOF numbering, -1 where supported

    def apply_c_s(self, v: np.ndarray) -> np.ndarray:
        """Apply C_s = C_a C_b^-1 to an n-vector."""
        if self.c_s is not None:
            return self.c_s @ v
        return self.c_a @ self.c_b_lu.solve(v)

    def apply_c_s_t(self, x: np.ndarray) -> np.ndarray:
        """Apply C_s^T = C_b^-T C_a^T to a q-vector."""
        if self.c_s is not None:
            return self.c_s_t @ x
        return self.c_b_lu.solve(self.c_a.T @ x, trans="T")

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


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The positions start[i] ... start[i] + count[i] - 1 of every i, in
    turn: the stored entries of the CSR rows whose pointers start and count
    are."""
    end = np.cumsum(count)
    return np.repeat(start - end + count, count) + np.arange(end[-1] if len(end) else 0)


@dataclass(frozen=True)
class _LevelSchedule:
    """A sparse block triangular matrix T, its rows and columns reordered
    so that each dependency level is a contiguous range.

    Row i depends on row j where T_ij is nonzero.  The blocks are the
    strongly connected components of that digraph: single rows where T is a
    permuted triangle, more where rows depend on one another in a cycle.  A
    block's level is 0 when its rows reference no other block, else one more
    than the highest level among the blocks they reference.  With B the
    block diagonal of T, B^-1 T is the identity on its diagonal blocks, so a
    solve with T takes its levels in turn, each row of a level referencing
    only rows of the levels before it (Anderson and Saad, Int. J. High Speed
    Computing 1, 1989).  Lower and upper triangular matrices alike: only the
    dependencies matter.  Raises numpy.linalg.LinAlgError when a block of
    more than one row is singular.
    """

    order: np.ndarray  # the row of T at each position of the reordering
    cycles: list  # (start, stop) of every block of more than one row
    inv_blocks: sp.csr_matrix  # B^-1, reordered
    off: sp.csr_matrix  # the entries of B^-1 T outside B, reordered
    bounds: list  # the first position of every level, then n

    @classmethod
    def of(cls, t: sp.spmatrix) -> "_LevelSchedule":
        t = t.tocoo()
        n = t.shape[0]
        nonzero = t.data != 0
        row, col, data = t.row[nonzero], t.col[nonzero], t.data[nonzero]
        n_blocks, block = connected_components(
            sp.csr_matrix((data, (row, col)), shape=(n, n)), connection="strong")
        inner = block[row] == block[col]
        # Kahn's topological sort of the blocks a level at a time: a block
        # joins the next level once every block its rows reference is placed
        refs = sp.csr_matrix((np.ones(np.count_nonzero(~inner)),
                              (block[row[~inner]], block[col[~inner]])),
                             shape=(n_blocks, n_blocks))
        dependents = refs.tocsc()  # column j lists the blocks that reference block j
        unplaced = np.diff(refs.indptr)
        level = np.zeros(n_blocks, dtype=np.intp)
        ready, depth = np.flatnonzero(unplaced == 0), 0
        while ready.size:
            level[ready] = depth
            start = dependents.indptr[ready]
            hit = dependents.indices[_ranges(start, dependents.indptr[ready + 1] - start)]
            np.subtract.at(unplaced, hit, 1)
            ready, depth = np.unique(hit[unplaced[hit] == 0]), depth + 1
        order = np.lexsort((block, level[block]))  # a block's rows are contiguous
        position = np.empty(n, dtype=np.intp)
        position[order] = np.arange(n)
        row, col = position[row], position[col]
        start = np.flatnonzero(np.diff(block[order], prepend=-1))
        stop = np.append(start[1:], n)
        big = stop - start > 1
        cycles = list(zip(start[big].tolist(), stop[big].tolist()))
        diag = sp.csr_matrix((data[inner], (row[inner], col[inner])), shape=(n, n))
        inv_blocks = _block_inverse(diag, start[~big], cycles)
        off = inv_blocks @ sp.csr_matrix((data[~inner], (row[~inner], col[~inner])),
                                         shape=(n, n))
        return cls(order, cycles, inv_blocks, off,
                   [0] + np.cumsum(np.bincount(level[block])).tolist())


def _block_inverse(diag: sp.csr_matrix, single: np.ndarray, cycles: list) -> sp.csr_matrix:
    """Inverse of a block diagonal matrix: the reciprocal of its entry at
    each position of single, a dense inverse of each (start, stop) block of
    cycles."""
    rows, cols, data = [single], [single], [1.0 / diag.diagonal()[single]]
    for a, b in cycles:
        span = np.arange(a, b)
        rows += [np.repeat(span, b - a)]
        cols += [np.tile(span, b - a)]
        data += [np.linalg.inv(diag[a:b, a:b].toarray()).ravel()]
    n = diag.shape[0]
    return sp.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


def _pivot_rows(block: np.ndarray) -> np.ndarray:
    """The row order of a dense square matrix that puts the pivots of its
    LU with partial pivoting on the diagonal."""
    rows = np.arange(len(block))
    for i, p in enumerate(lu_factor(block, check_finite=False)[1]):
        rows[[i, p]] = rows[[p, i]]
    return rows


def _influence_matrix(schedule: _LevelSchedule, matched: np.ndarray,
                      c_a: sp.csr_matrix) -> sp.csr_matrix:
    """Sparse C_s^T, canonical (n, q) CSR, by a sparse level-scheduled
    solve with A^T, A = C_b[matched] being C_b with its matching on the
    diagonal and schedule A^T's.

    C_s^T = C_b^-T C_a^T, and C_b^T x = y is A^T z = y with x[matched] = z.
    So the rows of C_a^T enter in the schedule's order, multiplied by the
    inverse diagonal blocks once for all blocks (Y0), and row
    matched[order[p]] of C_s^T is row p of the solve Y.  Y's rows grow level
    by level in CSR arrays (Gilbert and Peierls, SIAM J. Sci. Stat. Comput.
    9, 1988): row i of a level is Y0's less the sum over its off-diagonal
    entries (i, k, v) of v times the finished row k.  Each product is keyed
    by its (row, column), and a stable sort of the keys lets np.bincount sum
    the products of a key in the order of the row's entries, as a
    sparse-times-dense product sums them, with Y0's entry subtracted last;
    so C_s^T is bitwise what a dense solve gives.  Exact zeros are dropped.
    A level costs a fixed overhead of some thirty numpy calls plus its
    products and their sort, and expands its products in pieces of whole
    rows holding at most _SLAB_BYTES of temporaries.
    """
    q, n = c_a.shape
    if q == 0:
        return sp.csr_matrix((n, 0))
    y0 = schedule.inv_blocks @ c_a.T.tocsr()[schedule.order]
    y0.sort_indices()  # a product leaves its rows' indices unsorted
    off, bounds = schedule.off, schedule.bounds
    # an entry of row i and column j of Y has the key q i + j
    off_key = np.repeat(np.arange(n, dtype=np.int64) * q, np.diff(off.indptr))
    y0_key = np.repeat(np.arange(n, dtype=np.int64) * q, np.diff(y0.indptr)) + y0.indices
    # Y's CSR arrays, level 0's rows (which reference nothing) Y0's
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[:bounds[1] + 1] = y0.indptr[:bounds[1] + 1]
    end = int(indptr[bounds[1]])
    indices = np.empty(max(2 * y0.nnz, 1), dtype=y0.indices.dtype)
    data = np.empty(len(indices))
    indices[:end], data[:end] = y0.indices[:end], y0.data[:end]
    # a product holds its key, value, source position, sort permutation and
    # group, and their copies, at 8 bytes apiece
    budget = max(_SLAB_BYTES // 64, 1)
    for a, b in zip(bounds[1:-1], bounds[2:]):
        lo = off.indptr[a]
        refs = off.indices[lo:off.indptr[b]]
        start = indptr[refs]
        count = indptr[refs + 1] - start
        cuts = [a, b]
        if count.sum() + y0.indptr[b] - y0.indptr[a] > budget:
            # work[r]: the products and Y0 entries of the rows a ... a + r - 1
            work = (np.concatenate([[0], np.cumsum(count)])[off.indptr[a:b + 1] - lo]
                    + y0.indptr[a:b + 1] - y0.indptr[a])
            cuts = [0]
            while cuts[-1] < b - a:
                fit = int(np.searchsorted(work, work[cuts[-1]] + budget, side="right")) - 1
                cuts.append(max(fit, cuts[-1] + 1))
            cuts = [a + cut for cut in cuts]
        for first, last in zip(cuts[:-1], cuts[1:]):
            e0, e1 = off.indptr[first], off.indptr[last]
            span = count[e0 - lo:e1 - lo]
            source = _ranges(start[e0 - lo:e1 - lo], span)
            s0, s1 = y0.indptr[first], y0.indptr[last]
            key = np.concatenate([np.repeat(off_key[e0:e1], span) + indices[source],
                                  y0_key[s0:s1]])
            weight = np.concatenate([np.repeat(off.data[e0:e1], span) * data[source],
                                     -y0.data[s0:s1]])
            del source
            perm = np.argsort(key, kind="stable")
            key = key[perm]
            head = np.ones(len(key), dtype=bool)
            np.not_equal(key[1:], key[:-1], out=head[1:])
            # -(sum - y0) is y0 - sum exactly
            value = -np.bincount(np.cumsum(head) - 1, weights=weight[perm])
            del perm, weight
            keep = value != 0
            key, value = key[head][keep], value[keep]
            k = len(key)
            if end + k > len(data):
                # no view of the arrays is alive, so they grow in place
                size = max(2 * len(data), end + k)
                indices.resize(size, refcheck=False)
                data.resize(size, refcheck=False)
            indices[end:end + k], data[end:end + k] = key % q, value
            indptr[first + 1:last + 1] = end + np.searchsorted(
                key, np.arange(first + 1, last + 1, dtype=np.int64) * q)
            end += k
    indices.resize(end, refcheck=False)
    data.resize(end, refcheck=False)
    return sp.csr_matrix((data, indices, indptr), shape=(n, q))[np.argsort(matched[schedule.order])]


def make_partition(model: StructuralModel, spec: PartitionSpec) -> SystemPartition:
    """Build and factorize the basis/additional partition of a model.

    The basis parameter count must equal the number of free DOFs, of which
    there must be some (InvalidParameterError otherwise).  C_b, without its
    exact zeros, is matched, ordered into its triangle and factored, and the
    sparse influence matrix C_s^T is built here, eagerly, by a sparse
    level-scheduled solve with the matched C_b's transpose (the module
    docstring gives the steps), in a fixed overhead per dependency level
    plus the flops of its products.  C_s is stored only on the stored route.
    Raises BasisUnstableError when C_b is singular or nearly so.
    """
    if model.n == 0:
        raise InvalidParameterError("model has no free DOFs to partition")
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

    blocks, c = element_blocks(model), mode_matrix(model)
    m = blocks.shape[1]
    c_b = c[_rows(basis_ids, m)]
    c_a = c[_rows(additional_ids, m)]
    if c_b.shape[0] != model.n:
        raise NotDeterminateError(
            f"basis parameter count {c_b.shape[0]} != free DOFs {model.n}")
    q = c_a.shape[0]

    c_b.eliminate_zeros()
    matched = maximum_bipartite_matching(c_b, perm_type="row")  # row of each column
    if (matched < 0).any():
        raise BasisUnstableError(f"basis mode matrix is structurally singular: no row "
                                 f"matches column {np.argmax(matched < 0)}")
    try:
        schedule = _LevelSchedule.of(c_b[matched].T)
    except np.linalg.LinAlgError as exc:
        raise BasisUnstableError(f"basis mode matrix is singular: {exc}") from exc
    # A^T in level order is block lower triangular, so A reversed is too; a
    # block of more than one row takes its rows in partial-pivoting order
    order = schedule.order[::-1]
    rows = matched[order]
    for a, b in schedule.cycles:
        a, b = model.n - b, model.n - a
        rows[a:b] = rows[a:b][_pivot_rows(c_b[rows[a:b]][:, order[a:b]].toarray())]
    lu = sparse_lu(c_b[rows][:, order], BasisUnstableError, "basis mode matrix",
                   ordering="NATURAL")
    c_s_t = _influence_matrix(schedule, matched, c_a)
    stored = c_s_t.nnz <= SPARSE_SHARE * (lu.L.nnz + lu.U.nnz + c_a.nnz)
    return SystemPartition(
        basis_ids=basis_ids, additional_ids=additional_ids, n=model.n, q=q,
        # CSC, as the SRI preconditioner's stiffness sums [C_b; C_a] through
        # COO, and K0's bits follow that path
        c_b=c_b.tocsc(), c_b_lu=BasisFactor(lu, rows, order), c_a=c_a,
        c_s=c_s_t.T.tocsr() if stored else None, c_s_t=c_s_t,
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
    t = partition.c_b_lu.solve(r, trans="T")
    b_s = partition.k_lb_inv @ t
    return partition.apply_c_s(b_s), b_s


def reduced_apply(partition: SystemPartition, x: np.ndarray) -> np.ndarray:
    """Apply the reduced operator K_La^-1 + C_s K_Lb^-1 C_s^T as mat-vec chains.

    A call costs two block-diagonal products plus, where C_s is stored,
    one product with C_s and one with C_s^T, and otherwise two sparse
    solves with the basis factorization and two products with C_a."""
    h = partition.k_lb_inv @ partition.apply_c_s_t(x)
    return partition.k_la_inv @ x + partition.apply_c_s(h)


def heavy_rows(partition: SystemPartition) -> np.ndarray:
    """Mask of the rows of a partition's C_s^T that reduced_gram multiplies
    by BLAS: the m rows of every basis element whose nonzero count nnz has
    nnz^2 > HEAVY_SHARE m q^2."""
    m = partition.blocks.shape[1]
    nnz = np.diff(partition.c_s_t.indptr).reshape(-1, m).sum(axis=1).astype(float)
    return np.repeat(nnz * nnz > HEAVY_SHARE * m * partition.q ** 2, m)


def reduced_gram(partition: SystemPartition) -> np.ndarray | sp.csr_matrix:
    """The q x q matrix G = C_s K_Lb^-1 C_s^T, split by the rows of C_s^T
    (heavy_rows).  Without heavy rows G is the sparse product
    C_s (K_Lb^-1 C_s^T) alone, returned in CSR form.  With heavy rows G is
    dense, both triangles, in Fortran order: the light rows take the sparse
    product C_s[:, light] K_Lb^-1[light] C_s^T[light], and the heavy ones add
    Y^T Y by BLAS dgemm, Y = R^-1 C_s^T[heavy] for the Cholesky factors R R^T
    of the basis blocks.  No dense n x q array is formed: Y holds fewer than
    sqrt(m / HEAVY_SHARE) nnz(C_s) entries.  Raises UnstableStructureError
    when a basis parameter block is not positive definite.
    """
    try:
        lower = np.linalg.cholesky(partition.blocks[partition.basis_ids])
    except np.linalg.LinAlgError as exc:
        raise UnstableStructureError(
            f"basis parameter block not positive definite: {exc}") from exc
    c_s_t, heavy = partition.c_s_t, heavy_rows(partition)
    if not heavy.any():
        # from C_s, which C_s^T's transpose would sum in another order
        c_s = c_s_t.T.tocsr() if partition.c_s is None else partition.c_s
        return c_s @ (partition.k_lb_inv @ c_s_t)
    light = ~heavy
    gram = (c_s_t[light].T @ (partition.k_lb_inv[light] @ c_s_t)).toarray(order="F")
    y = (_block_diag(np.linalg.inv(lower[heavy[::lower.shape[1]]])) @ c_s_t[heavy]).toarray()
    # y's transpose is the Fortran q x rows operand; dgemm writes both triangles
    return dgemm(1.0, y.T, y.T, beta=1.0, c=gram, trans_b=True, overwrite_c=True)


def factorize_stiffness(model: StructuralModel):
    """factor_spd of the assembled stiffness.  Raises
    UnstableStructureError on singular structures."""
    return factor_spd(assemble_global(model), UnstableStructureError, "stiffness matrix")
