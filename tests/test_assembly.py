"""Assembly and partition tests: reconstruction, determinacy, reduced operators."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from reanalyze import assembly, elements
from reanalyze.assembly import (
    PIVOT_TOL,
    BandedCholesky,
    StiffnessPlan,
    assemble_global,
    factor_spd,
    factorize_stiffness,
    make_partition,
    pivot_ratio,
    reduced_apply,
    reduced_gram,
    reduced_rhs,
    sparse_lu,
    update_partition,
)
from reanalyze.errors import (
    BasisUnstableError,
    DegenerateElementError,
    InvalidParameterError,
    NotDeterminateError,
    UnstableStructureError,
)
from reanalyze.model import (
    MaterialSpec,
    Node,
    PartitionSpec,
    PointLoad,
    SectionSpec,
    StructuralModel,
    apply_floor_grading,
    build_frame_grid,
    build_truss_grid,
    default_additional_set,
)
from reanalyze.model import ElementKind, ElementRecord, MemberTag

from helpers import (
    assert_banded_cholesky_of,
    dense_stiffness,
    dense_truss_solution,
    length_and_angle,
    parameter_matrices,
    rel_err,
)


def small_models():
    fg = MaterialSpec(e_us=26000.0, e_ls=14000.0, p=2.0)
    return [
        build_truss_grid(1, 1),
        build_truss_grid(3, 2),
        build_truss_grid(2, 4, area=35.0, material=MaterialSpec(e=12000.0)),
        build_frame_grid(2, 2),
        build_frame_grid(1, 2, n_sb=2, n_sc=3),
        build_frame_grid(2, 1, n_sb=3, material=fg),
    ]


def with_sections(model, section):
    """The model with every element's section replaced."""
    elems = [dataclasses.replace(e, section=section) for e in model.elements]
    return StructuralModel(list(model.nodes), elems, model.supports, list(model.loads),
                           model.meta)


class TestAssembleGlobal:
    def test_single_bar_reduces_to_scalar(self):
        nodes = [Node(0, 0.0, 0.0), Node(1, 1.0, 0.0)]
        elem = ElementRecord(0, ElementKind.TRUSS_BAR, 0, 1, SectionSpec(area=1.0),
                             MaterialSpec(e=1.0), MemberTag("chord", 1, 1))
        model = StructuralModel(nodes, [elem], {0: (0, 1), 1: (1,)},
                                [PointLoad(1, 0, 1.0)])
        k = assemble_global(model).toarray()
        assert k.shape == (1, 1)
        assert k[0, 0] == pytest.approx(1.0)  # EA/L

    def test_symmetry(self):
        for model in small_models():
            k = assemble_global(model)
            assert abs(k - k.T).max() == 0.0

    def test_against_independent_truss_assembly(self):
        model = build_truss_grid(3, 1, area=20.0, material=MaterialSpec(e=20000.0))
        d_oracle = dense_truss_solution(model)
        d = factorize_stiffness(model).solve(model.load_vector())
        assert rel_err(d, d_oracle) < 1e-12

    def test_incomplete_material_is_reported(self):
        # documents can carry a graded element whose material lacks the
        # exponent; the error must be a package error, not a TypeError
        fg = MaterialSpec(e_us=2e4, e_ls=2e4, p=1.0)
        model = build_frame_grid(1, 1, material=fg)
        part = make_partition(model, default_additional_set(model))
        broken = model.replace_materials(
            {e.id: dataclasses.replace(e.material, p=None) for e in model.elements})
        with pytest.raises(InvalidParameterError,
                           match="element 0: graded material needs e_us, e_ls and p"):
            update_partition(part, broken)

    @pytest.mark.parametrize("material, section, message", [
        (MaterialSpec(e=2e4), SectionSpec(area=300.0), "beam section needs area and inertia"),
        (MaterialSpec(e_us=2e4, e_ls=2e4, p=1.0), SectionSpec(height=30.0),
         "graded section needs width and height"),
    ], ids=["beam-inertia", "graded-width"])
    def test_incomplete_section_is_reported(self, material, section, message):
        model = build_frame_grid(1, 1, material=material)
        part = make_partition(model, default_additional_set(model))
        with pytest.raises(InvalidParameterError, match=f"element 0: {message}"):
            update_partition(part, with_sections(model, section))

    def test_singular_detection(self):
        # two collinear bars in series loaded transversally: mechanism
        with pytest.raises(UnstableStructureError):
            factorize_stiffness(collinear_bars())


class TestAssembleParameters:
    def test_reconstruction_identity(self):
        # C^T K_L C against textbook bar and beam matrices assembled densely
        for model in (build_truss_grid(3, 2),
                      build_truss_grid(2, 4, area=35.0, material=MaterialSpec(e=12000.0)),
                      build_frame_grid(2, 2), build_frame_grid(1, 2, n_sb=2, n_sc=3)):
            assert rel_err(assemble_global(model).toarray(), dense_stiffness(model)) < 1e-12

    def test_parameter_counts(self):
        truss = build_truss_grid(4, 3)
        c = assembly.mode_matrix(truss)
        assert c.shape[0] == len(truss.elements)
        frame = build_frame_grid(3, 2, n_sb=2)
        c = assembly.mode_matrix(frame)
        assert c.shape[0] == 3 * len(frame.elements)

    def test_rows_restricted_to_free_dofs(self):
        model = build_truss_grid(2, 2)
        c = assembly.mode_matrix(model)
        assert c.shape == (len(model.elements), model.n)


def graded_frame():
    """The graded 50 x 20 frame of the frame-lowrank benchmark workload."""
    return apply_floor_grading(build_frame_grid(50, 20), 4000.0, 36000.0, "E")


def graded_fg_frame():
    """A depth-graded frame: its beams' 3x3 parameter blocks couple the
    axial and bending modes."""
    return build_frame_grid(3, 2, n_sb=2, n_sc=2,
                            material=MaterialSpec(e_us=26000.0, e_ls=14000.0, p=2.0))


def collinear_bars():
    """Two collinear bars in series, both ends pinned: the middle node is a
    mechanism across the line."""
    nodes = [Node(0, 0.0, 0.0), Node(1, 1.0, 0.0), Node(2, 2.0, 0.0)]
    mk = lambda i, a, b: ElementRecord(i, ElementKind.TRUSS_BAR, a, b,
                                       SectionSpec(area=1.0), MaterialSpec(e=1.0),
                                       MemberTag("chord", 1, i + 1))
    return StructuralModel(nodes, [mk(0, 0, 1), mk(1, 1, 2)], {0: (0, 1), 2: (0, 1)}, [])


def with_default_set(model):
    return model, default_additional_set(model)


def c08c_frame():
    """The depth-graded 10 x 20 frame (n_sb = n_sc = 8) of acceptance check c08."""
    return build_frame_grid(10, 20, n_sb=8, n_sc=8,
                            material=MaterialSpec(e_us=20000.0, e_ls=20000.0, p=1.0))


def span2_ladder():
    """A 4 x 6 ladder and an additional set whose span 2 keeps its diagonals
    in the basis instead of span 1; the basis stays determinate."""
    model = build_truss_grid(4, 6)
    return model, PartitionSpec.of(e.id for e in model.elements
                                   if e.tag.kind == "diagonal" and e.tag.span != 2)


def scalar_blocks(model):
    """Parameter blocks from scalar calls to the element kernels, element by
    element."""
    out = []
    for elem in model.elements:
        length, _ = length_and_angle(model, elem)
        sec, mat = elem.section, elem.material
        young = mat.e if mat.e is not None else mat.e0
        if elem.kind is ElementKind.TRUSS_BAR:
            block = np.atleast_2d(elements.truss_decomposition(young, sec.area, length))
        elif elem.kind is ElementKind.HOMOGENEOUS_BEAM:
            block = elements.beam_decomposition(young, sec.area, sec.inertia, length)
        else:
            constants = elements.fg_section_constants(
                sec.height, mat.p, mat.e_us, mat.e_ls, coupling=mat.fg_coupling or "exact")
            block = elements.fg_beam_decomposition(sec.width, constants, length)
        out.append(block)
    return np.stack(out)


def mixed_beams():
    """A graded frame whose first-floor columns are homogeneous beams."""
    fg = MaterialSpec(e_us=26000.0, e_ls=14000.0, p=2.0)
    model = build_frame_grid(3, 2, n_sb=2, material=fg)
    elems = [dataclasses.replace(e, kind=ElementKind.HOMOGENEOUS_BEAM,
                                 material=MaterialSpec(e=21000.0 + e.id))
             if e.tag.kind == "column" and e.tag.floor == 1 else e
             for e in model.elements]
    return StructuralModel(list(model.nodes), elems, model.supports, list(model.loads),
                           model.meta)


def fg_frame(coupling):
    return build_frame_grid(4, 3, n_sb=2, material=MaterialSpec(
        e_us=26000.0, e_ls=14000.0, p=0.0, fg_coupling=coupling))


class TestElementBlocks:
    @pytest.mark.parametrize("build", [
        lambda: build_truss_grid(7, 16),
        graded_frame,
        lambda: fg_frame("exact"),
        lambda: fg_frame("simplified"),
        mixed_beams,
    ], ids=["ladder-7x16", "graded-frame-50x20", "fg-exact-p0", "fg-simplified-p0",
            "mixed-beams"])
    def test_equal_to_scalar_decompositions(self, build):
        model = build()
        kinds = {e.kind for e in model.elements}
        assert len(kinds) == (2 if build is mixed_beams else 1)
        assert np.array_equal(assembly.element_blocks(model), scalar_blocks(model))

    @pytest.mark.parametrize("build, expected", [
        (lambda: build_truss_grid(7, 16), {"truss_decomposition": 1}),
        (mixed_beams, {"beam_decomposition": 1, "fg_beam_decomposition": 1}),
    ], ids=["ladder-7x16", "mixed-beams"])
    def test_kernels_called_by_their_bound_names(self, build, expected, monkeypatch):
        # benchmark/tracing.py counts the element layer by patching these
        # names on assembly: a block build calls each kernel present once
        model = build()
        part = make_partition(model, default_additional_set(model))
        calls = dict.fromkeys(
            ("truss_decomposition", "beam_decomposition", "fg_beam_decomposition"), 0)
        for name in calls:
            def counted(*args, _name=name, _real=getattr(assembly, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(assembly, name, counted)
        update_partition(part, model)
        assert calls == {**dict.fromkeys(calls, 0), **expected}

    @pytest.mark.parametrize("build", [
        lambda: apply_floor_grading(build_frame_grid(6, 4), 4000.0, 36000.0, "E"),
        mixed_beams,
    ], ids=["graded-frame", "mixed-beams"])
    def test_update_equals_fresh_partition_bitwise(self, build):
        # a campaign's self-reanalysis takes exactly one SRI iteration only
        # if updating a partition to its own model changes nothing
        orig = build()
        part0 = make_partition(orig, default_additional_set(orig))
        updated = update_partition(part0, orig)
        assert np.array_equal(updated.blocks, part0.blocks)
        for name in ("k_lb_inv", "k_la_inv"):
            a, b = getattr(updated, name), getattr(part0, name)
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(a, attr), getattr(b, attr)), (name, attr)

    @pytest.mark.parametrize("build, moved, onto", [
        (lambda: build_truss_grid(2, 2), 4, 1),
        (lambda: build_frame_grid(2, 1, n_sb=2), 6, 3),
    ], ids=["truss", "frame"])
    def test_coincident_nodes_are_degenerate(self, build, moved, onto):
        # two distinct nodes at one point: the element between them has no
        # length, and no division by it may warn before the error
        model = build()
        part = make_partition(model, default_additional_set(model))
        nodes = list(model.nodes)
        nodes[moved] = Node(moved, nodes[onto].x, nodes[onto].y)
        broken = StructuralModel(nodes, list(model.elements), model.supports,
                                 list(model.loads), model.meta)
        bad = next(e.id for e in broken.elements if {e.node_i, e.node_j} == {moved, onto})
        recorded = dataclasses.replace(part, node_xy=broken.xy)
        # every reader of element geometry raises the one error of element_geometry
        calls = [lambda: assembly.element_geometry(broken),
                 lambda: assembly.element_blocks(broken),
                 lambda: assembly.mode_matrix(broken),
                 lambda: make_partition(broken, default_additional_set(broken)),
                 lambda: update_partition(recorded, broken)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(DegenerateElementError,
                                   match=f"^element {bad}: length must be positive, got 0.0$"):
                    call()


class TestMakePartition:
    def test_reference_reduced_size(self):
        model = build_truss_grid(31, 64)
        part = make_partition(model, default_additional_set(model))
        assert (part.q, part.n) == (1920, 4096)
        assert part.q / part.n == pytest.approx(0.469, abs=5e-4)

    def test_empty_additional_set(self):
        model = build_truss_grid(1, 2)
        part = make_partition(model, PartitionSpec.of([]))
        assert part.q == 0
        assert part.c_s_t.shape == (part.n, 0)
        k = assemble_global(model).toarray()
        k_lb, _ = parameter_matrices(part)
        assert rel_err(part.c_b.T @ k_lb @ part.c_b, k) < 1e-12

    def test_count_mismatch_raises(self):
        model = build_truss_grid(3, 2)
        spec = default_additional_set(model)
        extra = next(e.id for e in model.elements if e.id not in spec.additional_ids)
        with pytest.raises(NotDeterminateError):
            make_partition(model, PartitionSpec.of(set(spec.additional_ids) | {extra}))

    @pytest.mark.parametrize("outside", ["negative", "past-last"])
    def test_additional_id_outside_element_range(self, outside):
        model = build_truss_grid(3, 2)
        bad = -1 if outside == "negative" else len(model.elements)
        spec = PartitionSpec.of(set(default_additional_set(model).additional_ids) | {bad})
        with pytest.raises(NotDeterminateError, match=f"additional id {bad} outside"):
            make_partition(model, spec)

    def test_no_free_dofs_raises_before_any_block(self, monkeypatch):
        # two pinned nodes and one bar, that bar additional
        bar = ElementRecord(0, ElementKind.TRUSS_BAR, 0, 1, SectionSpec(area=2.0),
                            MaterialSpec(e=2e5), MemberTag("chord", 1, 1))
        model = StructuralModel([Node(0, 0.0, 0.0), Node(1, 100.0, 0.0)], [bar],
                                {0: (0, 1), 1: (0, 1)}, [])

        def unreached(*args):
            raise AssertionError("a block was built")

        monkeypatch.setattr(assembly, "element_blocks", unreached)
        with pytest.raises(InvalidParameterError, match="no free DOFs"):
            make_partition(model, PartitionSpec.of([0]))

    def test_geometrically_unstable_basis(self):
        # removing a first-span chord instead of a diagonal keeps the count but
        # leaves the top-left node unsupported horizontally
        model = build_truss_grid(2, 1)
        chord1 = next(e.id for e in model.elements
                      if e.tag.kind == "chord" and e.tag.span == 1)
        with pytest.raises(BasisUnstableError):
            make_partition(model, PartitionSpec.of([chord1]))

    def test_basis_factorization_roundtrip(self):
        model = build_truss_grid(3, 3)
        part = make_partition(model, default_additional_set(model))
        rng = np.random.default_rng(3)
        v = rng.standard_normal(part.n)
        assert rel_err(part.c_b @ part.c_b_lu.solve(v), v) < 1e-10
        assert rel_err(part.c_b.T @ part.c_b_lu.solve(v, trans="T"), v) < 1e-10

    def test_additional_rows_in_ascending_id_order(self):
        model = build_truss_grid(4, 2)
        part = make_partition(model, default_additional_set(model))
        assert np.all(np.diff(part.additional_ids) > 0)
        d = np.arange(model.n, dtype=float)
        c = assembly.mode_matrix(model)
        m = c.shape[0] // len(model.elements)
        stacked = np.concatenate([c[m * i:m * i + m] @ d for i in part.additional_ids])
        assert np.allclose(part.c_a @ d, stacked)


class TestPartitionConsistency:
    def test_stiffness_split(self):
        for model in small_models():
            spec = default_additional_set(model)
            part = make_partition(model, spec)
            k = assemble_global(model).toarray()
            k_lb, k_la = parameter_matrices(part)
            k_split = part.c_b.T @ k_lb @ part.c_b + part.c_a.T @ k_la @ part.c_a
            assert rel_err(k_split, k) < 1e-12

    def test_influence_matrix_definition(self):
        model = build_truss_grid(3, 2)
        part = make_partition(model, default_additional_set(model))
        c_b = part.c_b.toarray()
        c_a = part.c_a.toarray()
        c_s_dense = c_a @ np.linalg.inv(c_b)
        assert sp.issparse(part.c_s_t)
        assert rel_err(part.c_s_t.toarray(), c_s_dense.T) < 1e-10

    def test_update_matches_fresh_partition(self):
        # graded beams carry full 3x3 blocks, so this checks the batched inverse
        fg = MaterialSpec(e_us=26000.0, e_ls=14000.0, p=2.0)
        model = build_frame_grid(2, 3, n_sb=2, material=fg)
        spec = default_additional_set(model)
        graded = apply_floor_grading(model, 4000.0, 36000.0, "E_US")
        updated = update_partition(make_partition(model, spec), graded)
        fresh = make_partition(graded, spec)
        assert rel_err(updated.blocks, fresh.blocks) < 1e-14
        for name in ("k_lb_inv", "k_la_inv"):
            assert rel_err(getattr(updated, name).toarray(),
                           getattr(fresh, name).toarray()) < 1e-14, name
        k_lb, k_la = parameter_matrices(updated)
        assert rel_err(updated.k_lb_inv @ k_lb, np.eye(updated.n)) < 1e-12
        assert rel_err(updated.k_la_inv @ k_la, np.eye(updated.q)) < 1e-12
        assert np.count_nonzero(k_lb[0, 1:3]) == 1  # coupled block

    def test_update_shares_topology(self):
        model = build_truss_grid(3, 2)
        part = make_partition(model, default_additional_set(model))
        graded = apply_floor_grading(model, 10000.0, 30000.0, "E")
        updated = update_partition(part, graded)
        assert updated.c_b_lu is part.c_b_lu
        assert updated.c_s_t is part.c_s_t
        k = assemble_global(graded).toarray()
        k_lb, k_la = parameter_matrices(updated)
        k_split = updated.c_b.T @ k_lb @ updated.c_b + updated.c_a.T @ k_la @ updated.c_a
        assert rel_err(k_split, k) < 1e-12

    def test_update_forms_no_mode_rows(self, monkeypatch):
        # a material update rebuilds parameters only
        model = build_frame_grid(3, 2)
        part = make_partition(model, default_additional_set(model))

        def no_rows(*args, **kwargs):
            raise AssertionError("mode rows formed")

        monkeypatch.setattr(assembly, "mode_rows", no_rows)
        updated = update_partition(part, apply_floor_grading(model, 4000.0, 36000.0, "E"))
        assert updated.c_b_lu is part.c_b_lu

    def test_no_dense_influence_matrix(self):
        model = build_frame_grid(20, 8)
        part = make_partition(model, default_additional_set(model))
        for f in dataclasses.fields(part):
            value = getattr(part, f.name)
            assert not (isinstance(value, np.ndarray) and value.size >= part.n * part.q), f.name
        assert part.c_s_t.nnz < 0.1 * part.n * part.q

    @pytest.mark.parametrize("model", [build_truss_grid(7, 16), build_frame_grid(20, 8)],
                             ids=["ladder", "frame"])
    def test_basis_pivot_ratio(self, model):
        part = make_partition(model, default_additional_set(model))
        assert PIVOT_TOL <= pivot_ratio(part.c_b_lu.lu) <= 1.0


class TestSparseLu:
    def test_off_diagonal_pivot_raises(self):
        # nonsingular with a unit pivot ratio, but a zero diagonal forces
        # SuperLU to pivot off it
        with pytest.raises(UnstableStructureError, match="^swap: a pivot left the diagonal$"):
            sparse_lu(sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]]), UnstableStructureError, "swap",
                      ordering="NATURAL")

    def test_small_pivot_ratio_raises(self):
        with pytest.raises(UnstableStructureError, match="nearly singular"):
            sparse_lu(sp.diags([1.0, 1e-12]), UnstableStructureError, "scaled")

    def test_ratio_of_empty_factor(self):
        lu = sparse_lu(sp.csr_matrix((0, 0)), UnstableStructureError, "empty")
        assert pivot_ratio(lu) == 1.0

    def test_ratio_is_min_over_max_pivot(self):
        lu = sparse_lu(sp.diags([4.0, -2.0, 8.0]), UnstableStructureError, "diagonal")
        assert pivot_ratio(lu) == 0.25


def renumbered(k, seed=0):
    """P K P^T for a random permutation P, and the permutation p: row i of
    the result is row p[i] of k."""
    p = np.random.default_rng(seed).permutation(k.shape[0])
    return k[p][:, p].tocsr(), p


class TestFactorSpd:
    # BAND_SHARE's comment gives the measured rule behind these routes
    @pytest.mark.parametrize("build, banded", [
        (lambda: build_truss_grid(31, 64), True),
        (graded_frame, True),
        (c08c_frame, False),
        (lambda: apply_floor_grading(c08c_frame(), 4000.0, 36000.0, "E_US"), True),
        (lambda: build_frame_grid(50, 20, n_sb=4), False),
    ], ids=["ladder-31x64", "frame-50x20", "c08c", "c08c-graded", "frame-n_sb4"])
    def test_route(self, build, banded):
        model = build()
        factor = factorize_stiffness(model)
        assert isinstance(factor, BandedCholesky) == banded
        if banded:
            assert_banded_cholesky_of(factor, assemble_global(model))

    def test_banded_and_sparse_lu_agree(self):
        model = graded_frame()
        k, r = assemble_global(model), model.load_vector()
        banded = factor_spd(k, UnstableStructureError, "k")
        assert isinstance(banded, BandedCholesky)
        d = sparse_lu(k, UnstableStructureError, "k").solve(r)
        assert rel_err(banded.solve(r), d) < 1e-10
        # a block of right-hand sides solves column by column
        block = np.column_stack([r, 2.0 * r])
        assert rel_err(banded.solve(block)[:, 1], 2.0 * d) < 1e-10

    @pytest.mark.parametrize("build, limit", [
        (lambda: build_truss_grid(31, 64), 1e-10),
        (graded_frame, 1e-10),
        # c08c's stiffness has a condition number near 3e10, and its sparse
        # LU under the two numberings differs by 1.6e-10
        (c08c_frame, 1e-9),
    ], ids=["ladder-31x64", "frame-50x20", "c08c"])
    def test_renumbered_stiffness_takes_the_same_route(self, build, limit):
        # the route reads the ordering reverse Cuthill-McKee finds, not the
        # numbering the model came with
        model = build()
        k, r = assemble_global(model), model.load_vector()
        k_p, p = renumbered(k)
        factor = factor_spd(k, UnstableStructureError, "k")
        factor_p = factor_spd(k_p, UnstableStructureError, "k")
        assert type(factor_p) is type(factor)
        assert rel_err(factor_p.solve(r[p]), factor.solve(r)[p]) < limit

    def test_small_pivot_ratio_raises(self):
        with pytest.raises(UnstableStructureError,
                           match="^scaled nearly singular \\(pivot ratio 1.00e-12\\)$"):
            factor_spd(sp.diags([1.0, 1e-12]), UnstableStructureError, "scaled")

    def test_indefinite_matrix_raises(self):
        with pytest.raises(UnstableStructureError, match="^indefinite is singular: "):
            factor_spd(sp.diags([1.0, -1.0]), UnstableStructureError, "indefinite")

    def test_mechanism_raises(self):
        # two collinear bars in series: no stiffness across the line
        model = collinear_bars()
        with pytest.raises(UnstableStructureError, match="^mechanism (is|nearly) singular"):
            factor_spd(assemble_global(model), UnstableStructureError, "mechanism")

    def test_ratio_is_that_of_the_lu(self):
        # R_ii^2 are the pivots of the LU (R^T D^-1)(D R), D = diag(R_ii)
        factor = factor_spd(sp.diags([4.0, 2.0, 8.0]), UnstableStructureError, "diagonal")
        assert isinstance(factor, BandedCholesky)
        assert pivot_ratio(factor) == 0.25

    def test_duplicates_summed_in_place(self):
        # K = [[4, 1], [1, 3]] with K_00 stored twice, as 1 and 3: the factor
        # takes the sum, and k keeps its value in canonical storage
        k = sp.csr_matrix((np.array([1.0, 3.0, 1.0, 1.0, 3.0]), np.array([0, 0, 1, 0, 1]),
                           np.array([0, 3, 5])), shape=(2, 2))
        factor = factor_spd(k, UnstableStructureError, "k")
        assert k.has_canonical_format and k.nnz == 4
        assert np.array_equal(k.toarray(), [[4.0, 1.0], [1.0, 3.0]])
        assert rel_err(factor.solve(np.array([5.0, 4.0])), np.ones(2)) < 1e-15

    def test_empty_matrix(self):
        factor = factor_spd(sp.csr_matrix((0, 0)), UnstableStructureError, "empty")
        assert pivot_ratio(factor) == 1.0
        assert factor.solve(np.zeros(0)).shape == (0,)


def bilinear_ladder(n_span, n_floor):
    """A bilinear ladder as the Newton driver's tests and benchmark build it."""
    return build_truss_grid(n_span, n_floor, area=200.0, load=500.0,
                            material=MaterialSpec(e0=2e5, et=0.3e5, sigma_y=5.0))


def tangent_blocks(model, tangent):
    """The model's parameter blocks: "elastic" as element_blocks gives them,
    "mixed" with a seeded half of them at the hardening ratio 0.15."""
    blocks = assembly.element_blocks(model)
    if tangent == "mixed":
        blocks[np.random.default_rng(3).random(len(blocks)) < 0.5] *= 0.15
    return blocks


def stiffness_of(model, blocks):
    """The stiffness the linear path forms from the blocks."""
    return assembly.stiffness(assembly.mode_matrix(model), blocks)


LADDERS = {"ladder-5x4": lambda: bilinear_ladder(5, 4),
           "ladder-30x30": lambda: bilinear_ladder(30, 30),
           "ladder-31x64-graded": lambda: apply_floor_grading(build_truss_grid(31, 64),
                                                              5000.0, 35000.0, "E")}
FRAMES = {"frame-50x20": graded_frame, "fg-frame": graded_fg_frame,
          "mixed-beams": mixed_beams}


class TestStiffnessPlan:
    @pytest.mark.parametrize("tangent", ["elastic", "mixed"])
    @pytest.mark.parametrize("build", LADDERS.values(), ids=LADDERS.keys())
    def test_assemble_matches_stiffness_on_ladders(self, build, tangent):
        # the slots are the stiffness's nonzeros, in its canonical order
        model = build()
        blocks = tangent_blocks(model, tangent)
        k, ref = StiffnessPlan.of(model).assemble(blocks), stiffness_of(model, blocks)
        assert k.has_canonical_format
        assert np.array_equal(k.indptr, ref.indptr) and np.array_equal(k.indices, ref.indices)
        assert rel_err(k.data, ref.data) <= 1e-15

    @pytest.mark.parametrize("build", FRAMES.values(), ids=FRAMES.keys())
    def test_assemble_matches_stiffness_on_frames(self, build):
        # the plan keeps the slots of zero blocks' entries (a homogeneous
        # beam's coupling) that the product drops, so only values compare
        model = build()
        blocks = tangent_blocks(model, "mixed")
        k, ref = StiffnessPlan.of(model).assemble(blocks), stiffness_of(model, blocks)
        assert abs(k - ref).max() <= 1e-14 * abs(ref).max()

    @pytest.mark.parametrize("build", [*LADDERS.values(), *FRAMES.values()],
                             ids=[*LADDERS.keys(), *FRAMES.keys()])
    def test_bitwise_symmetric(self, build):
        model = build()
        k = StiffnessPlan.of(model).assemble(tangent_blocks(model, "mixed"))
        assert (k != k.T).nnz == 0

    @pytest.mark.parametrize("build", [LADDERS["ladder-30x30"], graded_frame, mixed_beams],
                             ids=["ladder-30x30", "frame-50x20", "mixed-beams"])
    def test_factor_solves_as_factor_spd(self, build):
        model = build()
        blocks, r = tangent_blocks(model, "mixed"), model.load_vector()
        plan = StiffnessPlan.of(model)
        factor = plan.factor(blocks, UnstableStructureError, "k")
        assert isinstance(factor, BandedCholesky) and plan.layout.index is not None
        expected = factor_spd(stiffness_of(model, blocks), UnstableStructureError, "k").solve(r)
        assert rel_err(factor.solve(r), expected) <= 1e-12

    def test_factor_is_factor_spd_of_assemble(self):
        # the same pattern, so the same ordering and band, bit for bit
        model = bilinear_ladder(30, 30)
        blocks, plan = tangent_blocks(model, "mixed"), StiffnessPlan.of(model)
        factor = plan.factor(blocks, UnstableStructureError, "k")
        assembled = factor_spd(plan.assemble(blocks), UnstableStructureError, "k")
        assert np.array_equal(factor.perm, assembled.perm)
        assert np.array_equal(factor.band, assembled.band)

    # the benchmark originals.  The plan keeps the slots of entries that sum
    # to exactly zero (a homogeneous beam's coupling), which stiffness()
    # drops, so a frame's plan reads a lower band share (4.5 against 8.1 on
    # the 50x20 frame).  c08c's ungraded frame is the known exception: 7.4
    # against 15.4 sends its plan to banded Cholesky and its linear factor
    # to sparse LU
    @pytest.mark.parametrize("build", [
        lambda: build_truss_grid(31, 64), lambda: bilinear_ladder(30, 30),
        lambda: bilinear_ladder(30, 150), graded_frame,
    ], ids=["ladder-31x64", "ladder-30x30", "ladder-30x150", "frame-50x20"])
    def test_factor_takes_the_route_of_factorize_stiffness(self, build):
        model = build()
        linear = factorize_stiffness(model)
        plan = StiffnessPlan.of(model).factor(assembly.element_blocks(model),
                                              UnstableStructureError, "k")
        assert type(plan) is type(linear) is BandedCholesky
        assert plan.band.shape == linear.band.shape

    def test_sparse_lu_route(self, monkeypatch):
        model = bilinear_ladder(30, 30)
        blocks, r = tangent_blocks(model, "mixed"), model.load_vector()
        banded = StiffnessPlan.of(model).factor(blocks, UnstableStructureError, "k")
        monkeypatch.setattr(assembly, "BAND_SHARE", 0)
        plan = StiffnessPlan.of(model)
        assert plan.layout.index is None
        factor = plan.factor(blocks, UnstableStructureError, "k")
        assert not isinstance(factor, BandedCholesky)
        assert rel_err(factor.solve(r), banded.solve(r)) <= 1e-12

    @pytest.mark.parametrize("band_share", [assembly.BAND_SHARE, 0], ids=["banded", "sparse"])
    @pytest.mark.parametrize("value", [0.0, -1.0], ids=["zero", "negative"])
    def test_non_positive_block_raises(self, band_share, value, monkeypatch):
        # every bar of the determinate 1 x 2 ladder carries load, so one bar
        # of zero stiffness makes K singular and one of negative stiffness
        # makes it indefinite
        monkeypatch.setattr(assembly, "BAND_SHARE", band_share)
        model = build_truss_grid(1, 2)
        assert not default_additional_set(model).additional_ids
        plan = StiffnessPlan.of(model)
        assert (plan.layout.index is None) == (band_share == 0)
        blocks = assembly.element_blocks(model)
        blocks[3] *= value
        with pytest.raises(UnstableStructureError, match="^bar (is|nearly) singular|"
                                                         "^bar is not positive definite$"):
            plan.factor(blocks, UnstableStructureError, "bar")

    def test_empty_model(self):
        # every DOF supported: no slot, no term
        model = build_truss_grid(1, 1)
        fixed = StructuralModel(list(model.nodes), list(model.elements),
                                {node.id: (0, 1) for node in model.nodes}, [])
        plan = StiffnessPlan.of(fixed)
        assert plan.n == 0 and len(plan.coef) == 0 and len(plan.row) == 0
        assert plan.assemble(assembly.element_blocks(fixed)).shape == (0, 0)


class TestFactorOrdering:
    def test_stiffness_symmetric_permutation(self):
        # the reverse Cuthill-McKee ordering permutes rows and columns alike
        model = apply_floor_grading(build_frame_grid(50, 20, n_sb=1), 4000.0, 36000.0, "E")
        assert_banded_cholesky_of(factorize_stiffness(model), assemble_global(model))

    @pytest.mark.parametrize("build", [
        lambda: with_default_set(build_truss_grid(31, 64)),
        lambda: with_default_set(graded_frame()),
        lambda: with_default_set(build_frame_grid(50, 20, n_sb=4)),
        lambda: with_default_set(c08c_frame()),
        lambda: with_default_set(build_truss_grid(2, 60)),
        span2_ladder,
    ], ids=["ladder-31x64", "frame-n_sb1", "frame-n_sb4", "c08c", "ladder-2x60",
            "ladder-4x6-span2-basis"])
    def test_basis_factor_has_no_fill(self, build):
        # the matched, level-ordered basis is a triangle: L holds its
        # entries and a unit diagonal, U its diagonal
        part = make_partition(*build())
        lu = part.c_b_lu.lu
        assert lu.L.nnz + lu.U.nnz == np.count_nonzero(part.c_b.data) + part.n
        assert lu.U.nnz == np.count_nonzero(lu.U.diagonal()) == part.n
        assert PIVOT_TOL <= pivot_ratio(lu) <= 1.0

    @pytest.mark.parametrize("build", [
        lambda: with_default_set(build_truss_grid(7, 16)),
        lambda: with_default_set(graded_fg_frame()),
        lambda: cyclic_truss(),
    ], ids=["ladder-7x16", "graded-fg-frame", "cyclic-truss"])
    def test_basis_factor_is_the_triangles(self, build):
        # the factor is SuperLU's of C_b[rows][:, cols] as given: T = L U
        # with no permutation
        part = make_partition(*build())
        factor, n = part.c_b_lu, part.n
        lu = factor.lu
        assert np.array_equal(lu.perm_r, np.arange(n))
        assert np.array_equal(lu.perm_c, np.arange(n))
        triangle = part.c_b[factor.rows][:, factor.cols].toarray()
        assert rel_err((lu.L @ lu.U).toarray(), triangle) < 1e-15

    def test_one_level_schedule_per_partition(self, monkeypatch):
        # the schedule that orders the basis triangle also builds C_s
        real = assembly._LevelSchedule.of.__func__
        calls = []

        def counted(cls, t):
            calls.append(t.shape)
            return real(cls, t)

        monkeypatch.setattr(assembly._LevelSchedule, "of", classmethod(counted))
        model = build_truss_grid(7, 16)
        TestInfluenceMatrix.assert_matches_definition(
            make_partition(model, default_additional_set(model)))
        assert calls == [(model.n, model.n)]


def truss(xy, bars, supports, loads=()):
    """A bar truss of the given node coordinates, (node_i, node_j) bars,
    supports and (node, dof, value) loads."""
    nodes = [Node(i, float(x), float(y)) for i, (x, y) in enumerate(xy)]
    elems = [ElementRecord(k, ElementKind.TRUSS_BAR, i, j, SectionSpec(area=10.0),
                           MaterialSpec(e=2e4), MemberTag("chord", 1, k + 1))
             for k, (i, j) in enumerate(bars)]
    return StructuralModel(nodes, elems, supports, [PointLoad(*load) for load in loads])


def cyclic_truss():
    """A truss whose basis couples DOFs in cycles, with its partition spec.

    Two supports carry nodes 2 and 3 one unit up and node 4 at the apex.
    Each of nodes 2 and 4 hangs on two inclined basis bars, so its x and y
    rows reference each other; node 3's y is solved by bar 1-3 alone and its
    x then by the horizontal bar 2-3.  Bars 0-4, 1-4 and 0-3 are additional.
    """
    model = truss([(0, 0), (4, 0), (1, 1), (3, 1), (2, 2)],
                  [(0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (0, 4), (1, 4), (0, 3)],
                  {0: (0, 1), 1: (0, 1)}, [(4, 1, -10.0), (2, 0, 3.0)])
    return model, PartitionSpec.of([6, 7, 8])


class TestCyclicBasis:
    """A basis whose matched digraph has cycles is ordered by strongly
    connected blocks, each with its rows in partial-pivoting order."""

    def test_solves_to_definition(self):
        model, spec = cyclic_truss()
        part = make_partition(model, spec)
        assert sp.triu(part.c_b_lu.lu.U, 1).nnz == 2  # one elimination in each 2 x 2 block
        TestInfluenceMatrix.assert_matches_definition(part)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(part.n)
        assert rel_err(part.c_b @ part.c_b_lu.solve(v), v) < 1e-14
        assert rel_err(part.c_b.T @ part.c_b_lu.solve(v, trans="T"), v) < 1e-14
        d = factorize_stiffness(model).solve(model.load_vector())
        b, _ = reduced_rhs(part, model.load_vector())
        f_a = np.linalg.solve(reduced_gram(part) + part.k_la_inv.toarray(), b)
        assert rel_err(part.c_a @ d, part.k_la_inv @ f_a) < 1e-12

    def test_block_rows_in_pivoting_order(self):
        # with its rows in matching order, eliminating this basis's 4 x 4
        # block cancels a diagonal pivot exactly, though C_b's condition
        # number is 15; partial pivoting inside the block orders the rows
        model = truss([(3, 2), (2, 0), (1, 1), (1, 0), (2, 2)],
                      [(3, 4), (0, 4), (1, 3), (2, 4), (2, 3), (0, 2), (0, 3)],
                      {0: (0, 1), 1: (0, 1)})
        part = make_partition(model, PartitionSpec.of([6]))
        assert np.linalg.cond(part.c_b.toarray()) < 20
        TestInfluenceMatrix.assert_matches_definition(part)
        v = np.arange(float(part.n))
        assert rel_err(part.c_b @ part.c_b_lu.solve(v), v) < 1e-14

    @pytest.mark.parametrize("apex, message", [
        ((2.0, 2.0), "is singular"),
        ((2.0, 2.0 + 1e-12), "nearly singular"),
    ], ids=["collinear", "nearly-collinear"])
    def test_singular_block_raises(self, apex, message):
        # node 1 hangs on two bars along one line: a singular 2 x 2 block
        model = truss([(0, 0), (1, 1), apex], [(0, 1), (1, 2)], {0: (0, 1), 2: (0, 1)})
        with pytest.raises(BasisUnstableError, match=message):
            make_partition(model, PartitionSpec.of([]))


class TestUpdateTopologyCheck:
    def test_moved_node_raises(self):
        model = build_truss_grid(3, 2)
        part = make_partition(model, default_additional_set(model))
        nodes = list(model.nodes)
        nodes[5] = Node(5, nodes[5].x + 1.0, nodes[5].y)
        moved = StructuralModel(nodes, list(model.elements), model.supports,
                                list(model.loads), model.meta)
        with pytest.raises(InvalidParameterError, match="coordinates"):
            update_partition(part, moved)

    def test_different_span_count_raises(self):
        model = build_truss_grid(3, 2)
        part = make_partition(model, default_additional_set(model))
        with pytest.raises(InvalidParameterError, match="free DOFs"):
            update_partition(part, build_truss_grid(4, 2))

    def test_reconnected_element_raises(self):
        # same nodes, DOFs and element count; one diagonal turned the other way
        model = build_truss_grid(3, 2)
        part = make_partition(model, default_additional_set(model))
        elems = list(model.elements)
        diag = next(e for e in elems if e.tag.kind == "diagonal" and e.tag.span == 2)
        cols = model.meta["n_span"] + 1
        flipped = dataclasses.replace(diag, node_i=diag.node_i + 1, node_j=diag.node_j - 1)
        assert flipped.node_j - flipped.node_i == cols - 1
        elems[diag.id] = flipped
        other = StructuralModel(list(model.nodes), elems, model.supports,
                                list(model.loads), model.meta)
        with pytest.raises(InvalidParameterError, match="end nodes"):
            update_partition(part, other)


    def test_moved_support_raises(self):
        # node 0's x DOF freed, node B's x DOF fixed: the free-DOF count stays
        model = build_truss_grid(3, 2)
        part = make_partition(model, default_additional_set(model))
        supports = dict(model.supports)
        supports[0] = (1,)
        supports[model.meta["node_b"]] = (0,)
        moved = StructuralModel(list(model.nodes), list(model.elements), supports,
                                list(model.loads), model.meta)
        assert moved.n == model.n
        with pytest.raises(InvalidParameterError, match="supports"):
            update_partition(part, moved)


class TestReducedOperators:
    def test_rhs_zero_load(self):
        model = build_truss_grid(3, 2)
        part = make_partition(model, default_additional_set(model))
        b, b_s = reduced_rhs(part, np.zeros(model.n))
        assert np.all(b == 0.0) and np.all(b_s == 0.0)

    def test_rhs_empty_partition(self):
        model = build_truss_grid(1, 1)
        part = make_partition(model, PartitionSpec.of([]))
        b, _ = reduced_rhs(part, model.load_vector())
        assert b.shape == (0,)

    def test_rhs_matches_dense_oracle(self):
        model = build_truss_grid(3, 1)
        part = make_partition(model, default_additional_set(model))
        r = model.load_vector()
        c_b_inv = np.linalg.inv(part.c_b.toarray())
        c_s = part.c_a.toarray() @ c_b_inv
        k_lb_inv = np.linalg.inv(parameter_matrices(part)[0])
        b_oracle = c_s @ k_lb_inv @ c_b_inv.T @ r
        b, _ = reduced_rhs(part, r)
        assert rel_err(b, b_oracle) < 1e-12

    def test_apply_zero(self):
        model = build_truss_grid(3, 2)
        part = make_partition(model, default_additional_set(model))
        assert np.all(reduced_apply(part, np.zeros(part.q)) == 0.0)

    def test_apply_symmetric_positive_definite(self):
        rng = np.random.default_rng(11)
        for model in (build_truss_grid(3, 2), build_frame_grid(2, 2, n_sb=2)):
            part = make_partition(model, default_additional_set(model))
            for _ in range(10):
                x = rng.standard_normal(part.q)
                y = rng.standard_normal(part.q)
                ax = reduced_apply(part, x)
                ay = reduced_apply(part, y)
                scale = np.linalg.norm(ax) * np.linalg.norm(y) + 1e-30
                assert abs(ax @ y - x @ ay) / scale < 1e-12
                assert x @ ax > 0.0

    def test_gram_matches_apply(self):
        model = build_frame_grid(2, 1, n_sb=2)
        part = make_partition(model, default_additional_set(model))
        g = reduced_gram(part)
        k_la_inv = part.k_la_inv.toarray()
        rng = np.random.default_rng(5)
        x = rng.standard_normal(part.q)
        assert rel_err((g + k_la_inv) @ x, reduced_apply(part, x)) < 1e-12

    def test_deformation_force_identity_on_small_models(self):
        # additional-component forces from the dense reduced system equal
        # K_La u_a with u_a taken from the conventional solution
        for model in small_models():
            spec = default_additional_set(model)
            part = make_partition(model, spec)
            if part.q == 0 or model.n > 60:
                continue
            r = model.load_vector()
            d = factorize_stiffness(model).solve(r)
            u_a = part.c_a @ d
            f_a_expected = parameter_matrices(part)[1] @ u_a
            a_mat = reduced_gram(part) + part.k_la_inv.toarray()
            b, _ = reduced_rhs(part, r)
            f_a = np.linalg.solve(a_mat, b)
            assert rel_err(f_a, f_a_expected) < 1e-10


class TestInfluenceMatrix:
    """C_s^T from level-scheduled solves with the matched basis transposed,
    against the dense definition C_a C_b^-1."""

    @staticmethod
    def assert_matches_definition(part):
        expected = part.c_a.toarray() @ np.linalg.inv(part.c_b.toarray())
        assert part.c_s_t.format == "csr" and part.c_s_t.shape == (part.n, part.q)
        assert rel_err(part.c_s_t.toarray(), expected.T) < 1e-12

    @pytest.mark.parametrize("model", [
        build_truss_grid(7, 16),
        build_frame_grid(3, 2, n_sb=2, n_sc=2,
                         material=MaterialSpec(e_us=26000.0, e_ls=14000.0, p=2.0)),
    ], ids=["ladder", "graded-frame"])
    def test_default_basis(self, model):
        part = make_partition(model, default_additional_set(model))
        assert part.q > 0
        self.assert_matches_definition(part)

    def test_deep_basis(self):
        # up a tall two-span ladder each floor's basis unknowns wait on the
        # floor below, so the transposed L factor has over a hundred levels
        model = build_truss_grid(2, 60)
        part = make_partition(model, default_additional_set(model))
        assert len(assembly._LevelSchedule.of(part.c_b_lu.lu.L.T).bounds) - 1 > 100
        self.assert_matches_definition(part)

    def test_non_default_basis(self):
        model, spec = span2_ladder()
        assert spec != default_additional_set(model)
        self.assert_matches_definition(make_partition(model, spec))

    def test_blocks_with_partial_last(self, monkeypatch):
        # a level holding more than _SLAB_BYTES / 64 products and Y0 entries
        # is expanded in pieces of whole rows, the last partial, and at the
        # smallest bound in pieces of one row; every split gives C_s^T bitwise
        model = build_truss_grid(7, 16)
        spec = default_additional_set(model)
        real, pieces = assembly._ranges, []

        def counted(start, count):
            pieces.append(len(start))
            return real(start, count)

        monkeypatch.setattr(assembly, "_ranges", counted)
        whole = make_partition(model, spec).c_s_t
        calls = [len(pieces)]
        for products in (100, 1):
            pieces.clear()
            monkeypatch.setattr(assembly, "_SLAB_BYTES", 64 * products)
            part = make_partition(model, spec)
            calls.append(len(pieces))
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(part.c_s_t, name), getattr(whole, name)), name
        assert calls[0] < calls[1] < calls[2], calls
        self.assert_matches_definition(part)

    @pytest.mark.parametrize("build", [
        lambda: with_default_set(build_truss_grid(7, 16)),
        lambda: with_default_set(graded_fg_frame()),
        lambda: with_default_set(build_frame_grid(
            2, 4, n_sb=8, n_sc=8, material=MaterialSpec(e_us=20000.0, e_ls=20000.0, p=1.0))),
        span2_ladder,
        cyclic_truss,
    ], ids=["ladder-7x16", "graded-fg-frame", "c08-frame-2x4", "ladder-4x6-span2-basis",
            "cyclic-truss"])
    def test_bitwise_dense_solve(self, build, monkeypatch):
        # C_s^T holds exactly the nonzeros of the dense level-scheduled solve:
        # each level a sparse-times-dense product over all of Y.  On the
        # subdivided frame some entries sum three or more products, so only
        # their order of summation makes them equal
        real, args = assembly._influence_matrix, []

        def captured(*a):
            args.append(a)
            return real(*a)

        monkeypatch.setattr(assembly, "_influence_matrix", captured)
        part = make_partition(*build())
        ((schedule, matched, c_a),) = args
        y = (schedule.inv_blocks @ c_a.T.tocsr()[schedule.order]).toarray()
        for a, b in zip(schedule.bounds[1:-1], schedule.bounds[2:]):
            y[a:b] -= schedule.off[a:b] @ y
        expected = np.empty_like(y)
        expected[matched[schedule.order]] = y
        assert np.array_equal(part.c_s_t.toarray(), expected)

    @pytest.mark.parametrize("build", [
        lambda: with_default_set(build_truss_grid(31, 64)),
        lambda: with_default_set(graded_frame()),
        lambda: with_default_set(c08c_frame()),
        cyclic_truss,
    ], ids=["ladder-31x64", "graded-frame", "c08c", "cyclic-truss"])
    def test_canonical(self, build):
        assert_canonical(make_partition(*build()).c_s_t)

    def test_peak_memory(self):
        # tracemalloc's peak over make_partition, against the peak of the
        # dense-slab build this one replaced (a 16 MiB block of C_a^T
        # columns): 8.8 against 34.9 MiB on the 31x64 ladder, and 36.7
        # against 49.9 MiB on the bilinear 30x150 ladder, where Y grows in
        # place and is stored as C_s^T with no transpose
        for model, bound in ((build_truss_grid(31, 64), 55), (bilinear_ladder(30, 150), 50)):
            spec = default_additional_set(model)
            tracemalloc.start()
            try:
                make_partition(model, spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * 2**20, (model.n, peak)


class TestMaterialState:
    @pytest.mark.parametrize("build", [lambda: build_truss_grid(7, 16), graded_fg_frame],
                             ids=["ladder-7x16", "graded-fg-frame"])
    def test_partition_keeps_element_blocks(self, build):
        orig = build()
        part = make_partition(orig, default_additional_set(orig))
        assert np.array_equal(part.blocks, assembly.element_blocks(orig))
        target = "E" if orig.dofs_per_node == 2 else "E_US"
        graded = apply_floor_grading(orig, 4000.0, 36000.0, target)
        updated = update_partition(part, graded)
        assert np.array_equal(updated.blocks, assembly.element_blocks(graded))
        assert not np.array_equal(updated.blocks, part.blocks)


def c_b_ladder():
    """A ladder whose C_s holds more than SPARSE_SHARE times the nonzeros of
    C_b's factor and C_a, so it takes the C_b route."""
    return build_truss_grid(30, 30)


def dense(gram):
    """reduced_gram's Gram as a dense array, whichever form it came in."""
    return gram.toarray() if sp.issparse(gram) else gram


def assert_canonical(matrix):
    """Each CSR row's column indices strictly increase (sorted, no
    duplicate), and no exact zero is stored."""
    first = np.zeros(matrix.nnz, dtype=bool)
    first[matrix.indptr[:-1][np.diff(matrix.indptr) > 0]] = True
    assert np.all((np.diff(matrix.indices) > 0) | first[1:])
    assert np.all(matrix.data != 0)


class TestCsRoute:
    @pytest.mark.parametrize("build", [lambda: build_truss_grid(7, 16), graded_frame],
                             ids=["ladder-7x16", "graded-frame-50x20"])
    def test_routes_agree(self, build, monkeypatch):
        model = build()
        out = {}
        for share in (-float("inf"), float("inf")):
            # the policy is fixed when the partition is made
            monkeypatch.setattr(assembly, "SPARSE_SHARE", share)
            part = make_partition(model, default_additional_set(model))
            rng = np.random.default_rng(3)
            v, x = rng.standard_normal(part.n), rng.standard_normal(part.q)
            out[part.c_s is not None] = (part.apply_c_s(v), part.apply_c_s_t(x),
                                         reduced_gram(part))
        assert set(out) == {False, True}
        for via_c_b, stored in zip(out[False][:2], out[True][:2]):
            assert rel_err(stored, via_c_b) < 1e-12
        # the Gram reads C_s^T, which both routes store alike
        gram_c_b, gram_stored = out[False][2], out[True][2]
        assert type(gram_c_b) is type(gram_stored)
        assert np.array_equal(dense(gram_c_b), dense(gram_stored))

    @pytest.mark.parametrize("build, stored", [
        (graded_frame, True),
        (lambda: build_truss_grid(15, 30), True),
        (lambda: build_truss_grid(31, 64), False),
        (c_b_ladder, False),
    ], ids=["graded-frame-50x20", "ladder-15x30", "ladder-31x64", "ladder-30x30"])
    def test_route_by_topology(self, build, stored):
        model = build()
        part = make_partition(model, default_additional_set(model))
        assert (part.c_s is not None) is stored
        graded = update_partition(part, model.replace_materials(
            {0: dataclasses.replace(model.elements[0].material, e=1234.0)}))
        assert (graded.c_s is not None) is stored

    @pytest.mark.parametrize("build, share, stored", [
        (graded_frame, None, True),
        (lambda: build_truss_grid(7, 16), -float("inf"), False),
        (c_b_ladder, None, False),
    ], ids=["graded-frame-50x20", "ladder-7x16", "ladder-30x30"])
    def test_transpose_stored_on_stored_route_only(self, build, share, stored, monkeypatch):
        # every route stores C_s^T, canonical, and only the stored route its
        # transpose C_s.  ladder-7x16 stores C_s by topology; SPARSE_SHARE
        # -inf forces it onto the C_b route
        if share is not None:
            monkeypatch.setattr(assembly, "SPARSE_SHARE", share)
        model = build()
        part = make_partition(model, default_additional_set(model))
        assert part.c_s_t.format == "csr" and part.c_s_t.shape == (part.n, part.q)
        assert_canonical(part.c_s_t)
        assert (part.c_s is not None) is stored
        if stored:
            expected = part.c_s_t.T.tocsr()
            assert part.c_s.format == "csr"
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(part.c_s, name), getattr(expected, name)), name
        updated = update_partition(part, apply_floor_grading(model, 4000.0, 36000.0, "E"))
        assert updated.c_s_t is part.c_s_t and updated.c_s is part.c_s


class TestReducedGram:
    @staticmethod
    def heavy(part):
        return assembly.heavy_rows(part)

    @pytest.mark.parametrize("build, share, split", [
        (lambda: build_frame_grid(20, 8), None, "light"),
        (c_b_ladder, float("inf"), "light"),
        (lambda: build_truss_grid(7, 16), -1.0, "heavy"),
        (graded_fg_frame, -1.0, "heavy"),
        (lambda: build_truss_grid(15, 30), None, "mixed"),
        (c_b_ladder, None, "mixed"),
    ], ids=["frame-sparse", "ladder-sparse", "ladder-syrk", "frame-syrk",
            "ladder-15x30-mixed", "ladder-30x30-mixed"])
    def test_matches_definition(self, build, share, split, monkeypatch):
        # "sparse" cases send every row through the sparse product, whose
        # Gram stays in CSR form, "syrk" cases every row through the BLAS
        # product Y^T Y, and "mixed" cases split them.  HEAVY_SHARE inf makes
        # no row heavy and -1 every row, so that frame-syrk's coupled 3x3
        # blocks go through their Cholesky factors; the 30x30 ladder takes the
        # C_b route, the others store C_s
        if share is not None:
            monkeypatch.setattr(assembly, "HEAVY_SHARE", share)
        model = build()
        part = make_partition(model, default_additional_set(model))
        heavy = self.heavy(part)
        assert {"light": not heavy.any(), "heavy": heavy.all(),
                "mixed": 0 < heavy.sum() < part.n}[split], heavy.sum()
        if build is graded_fg_frame:
            assert np.count_nonzero(part.blocks[:, 0, 1:])  # coupled blocks
        c_s = part.c_a.toarray() @ np.linalg.inv(part.c_b.toarray())
        expected = c_s @ np.linalg.inv(parameter_matrices(part)[0]) @ c_s.T
        g = reduced_gram(part)
        if split == "light":
            assert g.format == "csr"
        else:
            assert g.flags.f_contiguous
        assert rel_err(dense(g), expected) < 1e-12

    @pytest.mark.parametrize("build, share", [
        (lambda: build_frame_grid(20, 8), None),
        (c_b_ladder, float("inf")),
    ], ids=["frame-stored", "ladder-30x30-c_b"])
    def test_all_light_is_the_sparse_product(self, build, share, monkeypatch):
        if share is not None:
            monkeypatch.setattr(assembly, "HEAVY_SHARE", share)
        model = build()
        part = make_partition(model, default_additional_set(model))
        assert not self.heavy(part).any()
        c_s_t = part.c_s_t
        g = reduced_gram(part)
        assert g.format == "csr"
        assert np.array_equal(g.toarray(), (c_s_t.T.tocsr() @ (part.k_lb_inv @ c_s_t)).toarray())

    @pytest.mark.parametrize("build, stored", [
        (lambda: build_frame_grid(20, 8), True),
        (c_b_ladder, False),
    ], ids=["frame-stored", "ladder-30x30-c_b"])
    def test_rejects_indefinite_basis_block(self, build, stored):
        model = build()
        part = make_partition(model, default_additional_set(model))
        assert (part.c_s is not None) is stored
        with pytest.raises(UnstableStructureError, match="basis parameter block"):
            reduced_gram(part.with_blocks(-part.blocks))

    def test_syrk_path_rejects_indefinite_basis_block(self, monkeypatch):
        # every row heavy, so that the coupled 3x3 blocks would go through BLAS
        monkeypatch.setattr(assembly, "HEAVY_SHARE", -1.0)
        model = graded_fg_frame()
        part = make_partition(model, default_additional_set(model))
        assert self.heavy(part).all()
        assert np.count_nonzero(part.blocks[:, 0, 1:])  # coupled blocks
        with pytest.raises(UnstableStructureError, match="basis parameter block"):
            reduced_gram(part.with_blocks(-part.blocks))

    def test_empty_partition(self):
        model = build_truss_grid(1, 1)
        part = make_partition(model, PartitionSpec.of([]))
        g = reduced_gram(part)
        assert part.q == 0 and g.shape == (0, 0) and g.format == "csr"
