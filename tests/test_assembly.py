"""Assembly and partition tests: reconstruction, determinacy, reduced operators."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from reanalyze import assembly, elements
from reanalyze.assembly import (
    PIVOT_TOL,
    assemble_global,
    assemble_parameters,
    factorize_stiffness,
    make_partition,
    reduced_apply,
    reduced_gram,
    reduced_rhs,
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
        build_truss_grid(2, 4, area=35.0, e0=12000.0),
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
        model = build_truss_grid(3, 1, area=20.0, e0=20000.0)
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
        nodes = [Node(0, 0.0, 0.0), Node(1, 1.0, 0.0), Node(2, 2.0, 0.0)]
        mk = lambda i, a, b: ElementRecord(i, ElementKind.TRUSS_BAR, a, b,
                                           SectionSpec(area=1.0), MaterialSpec(e=1.0),
                                           MemberTag("chord", 1, i + 1))
        model = StructuralModel(nodes, [mk(0, 0, 1), mk(1, 1, 2)],
                                {0: (0, 1), 2: (0, 1)}, [])
        with pytest.raises(UnstableStructureError):
            factorize_stiffness(model)


class TestAssembleParameters:
    def test_reconstruction_identity(self):
        # C^T K_L C against textbook bar and beam matrices assembled densely
        for model in (build_truss_grid(3, 2), build_truss_grid(2, 4, area=35.0, e0=12000.0),
                      build_frame_grid(2, 2), build_frame_grid(1, 2, n_sb=2, n_sc=3)):
            assert rel_err(assemble_global(model).toarray(), dense_stiffness(model)) < 1e-12

    def test_parameter_counts(self):
        truss = build_truss_grid(4, 3)
        _, c = assemble_parameters(truss)
        assert c.shape[0] == len(truss.elements)
        frame = build_frame_grid(3, 2, n_sb=2)
        _, c = assemble_parameters(frame)
        assert c.shape[0] == 3 * len(frame.elements)

    def test_rows_restricted_to_free_dofs(self):
        model = build_truss_grid(2, 2)
        _, c = assemble_parameters(model)
        assert c.shape == (len(model.elements), model.n)


def graded_frame():
    """The graded 50 x 20 frame of the frame-lowrank benchmark workload."""
    return apply_floor_grading(build_frame_grid(50, 20), 4000.0, 36000.0, "E")


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
                 lambda: assemble_parameters(broken),
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
        assert part.c_s.shape == (0, part.n)
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
        assert rel_err(part.c_b @ part.solve_c_b(v), v) < 1e-10
        assert rel_err(part.c_b.T @ part.solve_c_b_t(v), v) < 1e-10

    def test_additional_rows_in_ascending_id_order(self):
        model = build_truss_grid(4, 2)
        part = make_partition(model, default_additional_set(model))
        assert np.all(np.diff(part.additional_ids) > 0)
        d = np.arange(model.n, dtype=float)
        blocks, c = assemble_parameters(model)
        m = blocks.shape[1]
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
        assert sp.issparse(part.c_s)
        assert rel_err(part.c_s.toarray(), c_s_dense) < 1e-10

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
        assert updated.c_s is part.c_s
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
        assert part.c_s.nnz < 0.1 * part.n * part.q

    @pytest.mark.parametrize("model", [build_truss_grid(7, 16), build_frame_grid(20, 8)],
                             ids=["ladder", "frame"])
    def test_basis_pivot_ratio(self, model):
        part = make_partition(model, default_additional_set(model))
        assert PIVOT_TOL < part.basis_pivot_ratio <= 1.0
        pivots = np.abs(part.c_b_lu.U.diagonal())
        assert part.basis_pivot_ratio == pivots.min() / pivots.max()


class TestFactorOrdering:
    def test_stiffness_symmetric_permutation(self):
        # a symmetric ordering with diagonal pivots permutes rows and columns alike
        model = apply_floor_grading(build_frame_grid(50, 20, n_sb=1), 4000.0, 36000.0, "E")
        lu = factorize_stiffness(model)
        assert np.array_equal(lu.perm_r, lu.perm_c)

    def test_basis_keeps_colamd_with_partial_pivoting(self):
        model = apply_floor_grading(build_frame_grid(50, 20, n_sb=1), 4000.0, 36000.0, "E")
        part = make_partition(model, default_additional_set(model))
        reference = spla.splu(part.c_b)  # SuperLU's defaults: COLAMD, partial pivoting
        assert np.array_equal(part.c_b_lu.perm_c, reference.perm_c)
        assert np.array_equal(part.c_b_lu.perm_r, reference.perm_r)


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
    """C_s from level-scheduled solves with the basis LU factors, against the
    dense definition C_a C_b^-1."""

    @staticmethod
    def assert_matches_definition(part):
        expected = part.c_a.toarray() @ np.linalg.inv(part.c_b.toarray())
        assert part.c_s.format == "csr" and part.c_s.shape == (part.q, part.n)
        assert rel_err(part.c_s.toarray(), expected) < 1e-12

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
        # floor below, so the transposed U factor has over a hundred levels
        model = build_truss_grid(2, 60)
        part = make_partition(model, default_additional_set(model))
        assert len(assembly._LevelSchedule.of(part.c_b_lu.U.T).levels) > 100
        self.assert_matches_definition(part)

    def test_non_default_basis(self):
        # span 2 keeps its diagonals instead of span 1; the basis stays determinate
        model = build_truss_grid(4, 6)
        spec = PartitionSpec.of(e.id for e in model.elements
                                if e.tag.kind == "diagonal" and e.tag.span != 2)
        assert spec != default_additional_set(model)
        self.assert_matches_definition(make_partition(model, spec))

    def test_blocks_with_partial_last(self, monkeypatch):
        model = build_truss_grid(7, 16)
        width = 40
        monkeypatch.setattr(assembly, "_SLAB_BYTES", 8 * model.n * width)
        part = make_partition(model, default_additional_set(model))
        assert part.q > 2 * width and part.q % width  # three blocks, the last partial
        self.assert_matches_definition(part)

    def test_peak_memory(self):
        # a dense block is _SLAB_BYTES (16 MiB) and the sparse result is held
        # once in blocks and once stacked; SuperLU solves of 1024 columns
        # peaked at 65 MiB on this ladder
        model = build_truss_grid(31, 64)
        spec = default_additional_set(model)
        tracemalloc.start()
        try:
            make_partition(model, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 55 * 2**20


def graded_fg_frame():
    """A depth-graded frame: its beams' 3x3 parameter blocks couple the
    axial and bending modes."""
    return build_frame_grid(3, 2, n_sb=2, n_sc=2,
                            material=MaterialSpec(e_us=26000.0, e_ls=14000.0, p=2.0))


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
            out[part.c_s_stored] = part.apply_c_s(v), part.apply_c_s_t(x), reduced_gram(part)
        assert set(out) == {False, True}
        for via_c_b, stored in zip(out[False], out[True]):
            assert rel_err(stored, via_c_b) < 1e-12

    @pytest.mark.parametrize("build, stored", [
        (graded_frame, True),
        (lambda: build_truss_grid(31, 64), False),
        (lambda: build_truss_grid(30, 30), False),
    ], ids=["graded-frame-50x20", "ladder-31x64", "ladder-30x30"])
    def test_route_by_topology(self, build, stored):
        model = build()
        part = make_partition(model, default_additional_set(model))
        assert part.c_s_stored is stored
        graded = update_partition(part, model.replace_materials(
            {0: dataclasses.replace(model.elements[0].material, e=1234.0)}))
        assert graded.c_s_stored is stored


def c_b_ladder():
    """A ladder whose C_s fills in past SPARSE_SHARE, so it takes the C_b route."""
    return build_truss_grid(15, 30)


class TestReducedGram:
    @pytest.mark.parametrize("build, share, stored", [
        (lambda: build_frame_grid(20, 8), None, True),
        (lambda: build_truss_grid(7, 16), float("inf"), True),
        (c_b_ladder, None, False),
        (graded_fg_frame, -float("inf"), False),
    ], ids=["frame-sparse", "ladder-sparse", "ladder-syrk", "frame-syrk"])
    def test_matches_definition(self, build, share, stored, monkeypatch):
        # "sparse" is the stored route's sparse product, "syrk" the C_b
        # route's; ladder-sparse forces the stored route, so that 1x1 blocks
        # go through the sparse product, and frame-syrk the C_b route, so
        # that coupled 3x3 blocks go through the blockwise Cholesky
        if share is not None:
            monkeypatch.setattr(assembly, "SPARSE_SHARE", share)
        model = build()
        part = make_partition(model, default_additional_set(model))
        assert part.c_s_stored is stored
        if build is graded_fg_frame:
            assert np.count_nonzero(part.blocks[:, 0, 1:])  # coupled blocks
        c_s = part.c_a.toarray() @ np.linalg.inv(part.c_b.toarray())
        expected = c_s @ np.linalg.inv(parameter_matrices(part)[0]) @ c_s.T
        g = reduced_gram(part)
        assert g.flags.f_contiguous
        assert rel_err(g, expected) < 1e-12

    def test_syrk_path_rejects_indefinite_basis_block(self):
        model = c_b_ladder()
        part = make_partition(model, default_additional_set(model))
        assert not part.c_s_stored
        with pytest.raises(UnstableStructureError, match="basis parameter block"):
            reduced_gram(part.with_blocks(-part.blocks))
