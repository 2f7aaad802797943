"""Solver path tests: cross-method agreement, preconditioning, degenerate cases."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from reanalyze import assembly, costmodel, solvers
from reanalyze.assembly import (
    PIVOT_TOL,
    BandedCholesky,
    DenseCholesky,
    assemble_global,
    factorize_stiffness,
    make_partition,
    pivot_ratio,
    reduced_apply,
    reduced_gram,
    reduced_rhs,
    update_partition,
)
from reanalyze.errors import InvalidParameterError, UnstableStructureError
from reanalyze.model import (
    MaterialSpec,
    PartitionSpec,
    PointLoad,
    StructuralModel,
    apply_floor_grading,
    build_frame_grid,
    build_truss_grid,
    default_additional_set,
)
from reanalyze.solvers import (
    LowRankTangent,
    build_sri_preconditioner,
    factor_work,
    recover_displacements,
    solve_conventional,
    solve_fdp,
    solve_pcg_full,
    solve_sri,
)

from helpers import (
    assert_banded_cholesky_of,
    dense_truss_solution,
    malformed_loads,
    parameter_matrices,
    rel_err,
)


def reanalysis_setup(orig, modified, spec=None):
    spec = spec if spec is not None else default_additional_set(orig)
    part0 = make_partition(orig, spec)
    precond = build_sri_preconditioner(part0)
    part1 = part0 if modified is orig else update_partition(part0, modified)
    return part0, part1, precond


def graded_frame(n_sb):
    """The graded 50 x 20 frame of the published table."""
    return apply_floor_grading(build_frame_grid(50, 20, n_sb=n_sb), 4000.0, 36000.0, "E")


def dense_reduced_operator(part):
    """M = C_s K_Lb^-1 C_s^T + K_La^-1 from dense inverses (small models only)."""
    c_s = part.c_a.toarray() @ np.linalg.inv(part.c_b.toarray())
    k_lb, k_la = parameter_matrices(part)
    return c_s @ np.linalg.inv(k_lb) @ c_s.T + np.linalg.inv(k_la)


class TestConventional:
    def test_zero_load(self):
        model = build_truss_grid(2, 2, load=1.0)
        rep = solve_conventional(model)
        assert rep.d.shape == (model.n,)
        lu = factorize_stiffness(model)
        assert np.all(lu.solve(np.zeros(model.n)) == 0.0)

    def test_matches_dense_oracle(self):
        model = build_truss_grid(3, 1)
        rep = solve_conventional(model)
        assert rel_err(rep.d, dense_truss_solution(model)) < 1e-12
        assert rep.iterations == 0 and rep.converged

    def test_non_finite_load_raises(self):
        # every load is finite, but the two on one DOF sum to inf: a direct
        # solve would return NaN displacements flagged converged
        model = build_truss_grid(2, 2)
        bad = StructuralModel(list(model.nodes), list(model.elements), model.supports,
                              list(model.loads) + [PointLoad(model.meta["node_b"], 0, 1e308)] * 2,
                              model.meta)
        with np.errstate(over="ignore"), pytest.raises(InvalidParameterError, match="non-finite"):
            solve_conventional(bad)


class TestPcgFull:
    def test_exact_preconditioner_one_iteration(self):
        model = build_truss_grid(7, 16)
        k0 = factorize_stiffness(model)
        rep = solve_pcg_full(model, k0, tol=1e-12)
        assert rep.iterations == 1 and rep.converged
        assert rep.residual_history[-1] < 1e-12

    def test_agrees_with_conventional_on_graded_truss(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            ns = int(rng.integers(2, 8))
            nf = int(rng.integers(2, 12))
            orig = build_truss_grid(ns, nf)
            e_l = float(rng.uniform(4000, 18000))
            e_u = float(rng.uniform(22000, 36000))
            mod = apply_floor_grading(orig, e_l, e_u, "E")
            k0 = factorize_stiffness(orig)
            rep = solve_pcg_full(mod, k0, tol=1e-12)
            d_ref = solve_conventional(mod).d
            assert rep.converged
            assert rel_err(rep.d, d_ref) < 1e-8

    def test_no_convergence_flag(self):
        orig = build_truss_grid(5, 8)
        mod = apply_floor_grading(orig, 5000.0, 35000.0, "E")
        rep = solve_pcg_full(mod, factorize_stiffness(orig), tol=1e-12, max_iter=2)
        assert not rep.converged
        assert rep.iterations == 2

    def test_non_finite_load_raises(self):
        model = build_truss_grid(7, 16)
        k0 = factorize_stiffness(model)
        node = model.meta["node_b"]
        # every load is finite, but the two on one DOF sum to inf
        bad = StructuralModel(list(model.nodes), list(model.elements), model.supports,
                              list(model.loads) + [PointLoad(node, 1, 1e308)] * 2,
                              model.meta)
        with np.errstate(over="ignore"), pytest.raises(InvalidParameterError, match="non-finite"):
            solve_pcg_full(bad, k0, tol=1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_tolerance_raises_before_any_work(self, tol, monkeypatch):
        # tol=inf would return d = 0 as converged
        model = build_truss_grid(3, 4)
        k0 = factorize_stiffness(model)

        def unreached(*args, **kwargs):
            raise AssertionError("solve_pcg_full started work")

        monkeypatch.setattr(solvers, "assemble_global", unreached)
        monkeypatch.setattr(solvers, "_cg", unreached)
        with pytest.raises(InvalidParameterError, match="^tol must be positive and finite"):
            solve_pcg_full(model, k0, tol=tol)

    def test_indefinite_operator_stops_unconverged(self):
        model = build_truss_grid(7, 16)
        k0 = factorize_stiffness(model)
        rep = solve_pcg_full(model, k0, tol=1e-12, k_matrix=-assemble_global(model))
        assert not rep.converged
        assert rep.iterations == 0


class TestSriPreconditioner:
    def test_empty_partition(self):
        model = build_truss_grid(1, 2)
        part = make_partition(model, PartitionSpec.of([]))
        precond = build_sri_preconditioner(part)
        assert precond.q == 0

    def test_matches_dense_evaluation(self):
        ladder = build_truss_grid(3, 2)
        frame = apply_floor_grading(build_frame_grid(20, 8, n_sb=1), 4000.0, 36000.0, "E")
        for model in (ladder, frame):
            part = make_partition(model, default_additional_set(model))
            precond = build_sri_preconditioner(part)
            v = np.random.default_rng(3).standard_normal(part.q)
            expected = np.linalg.solve(dense_reduced_operator(part), v)
            assert rel_err(precond.apply(v), expected) < 1e-10

    def test_apply_is_inverse(self):
        model = build_frame_grid(2, 2, n_sb=2)
        part = make_partition(model, default_additional_set(model))
        precond = build_sri_preconditioner(part)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(part.q)
        assert rel_err(reduced_apply(part, precond.apply(v)), v) < 1e-10

    @pytest.mark.parametrize("model", [build_truss_grid(7, 16), graded_frame(n_sb=1)],
                             ids=["ladder", "frame"])
    def test_pivot_ratio(self, model):
        part = make_partition(model, default_additional_set(model))
        precond = build_sri_preconditioner(part)
        assert isinstance(precond._k0_factor, BandedCholesky)
        assert PIVOT_TOL <= pivot_ratio(precond._k0_factor) <= 1.0

    def test_original_stiffness_symmetric_permutation(self):
        # the reverse Cuthill-McKee ordering permutes rows and columns alike
        model = graded_frame(n_sb=1)
        precond = build_sri_preconditioner(make_partition(model, default_additional_set(model)))
        assert_banded_cholesky_of(precond._k0_factor, assemble_global(model))

    def test_rejects_singular_original(self):
        # basis bars 1e-14 as stiff as the rest: K0 is singular to working precision
        model = build_truss_grid(3, 2)
        part = make_partition(model, default_additional_set(model))
        weak = model.replace_materials(
            {int(i): MaterialSpec(e=20000.0 * 1e-14) for i in part.basis_ids})
        with pytest.raises(UnstableStructureError):
            build_sri_preconditioner(update_partition(part, weak))


class TestSolveSri:
    def test_zero_load(self):
        orig = build_truss_grid(3, 2)
        part0, part1, precond = reanalysis_setup(orig, orig)
        rep = solve_sri(part1, np.zeros(orig.n), precond)
        assert rep.iterations == 0
        assert np.all(rep.d == 0.0)

    @pytest.mark.parametrize("build", [
        lambda: build_truss_grid(7, 16),
        lambda: graded_frame(n_sb=1),
        lambda: graded_frame(n_sb=4),
        lambda: build_frame_grid(10, 20, n_sb=8, n_sc=8,
                                 material=MaterialSpec(e_us=20000.0, e_ls=20000.0, p=1.0)),
    ], ids=["ladder-7x16", "frame-50x20-nsb1", "frame-50x20-nsb4", "frame-c08c"])
    def test_self_reanalysis_one_iteration(self, build):
        # on the graded frames the preconditioner's Woodbury form cancels
        # ~3.5e4-fold, and without the refinement of its first apply the
        # first residual is ~1e-9
        orig = build()
        part0, part1, precond = reanalysis_setup(orig, orig)
        rep = solve_sri(part1, orig.load_vector(), precond, tol=1e-12)
        assert rep.iterations == 1 and rep.converged

    def test_one_refinement_per_solve(self, monkeypatch):
        # one operator apply per iteration, plus one for the refinement of the
        # first preconditioner apply; later applies are not refined
        orig = build_truss_grid(31, 64)
        mod = apply_floor_grading(orig, 5000.0, 35000.0, "E")
        part0, part1, precond = reanalysis_setup(orig, mod)
        calls = []
        wrapped = solvers.reduced_apply
        monkeypatch.setattr(solvers, "reduced_apply",
                            lambda *args: calls.append(1) or wrapped(*args))
        rep = solve_sri(part1, mod.load_vector(), precond, tol=1e-12)
        assert rep.converged and rep.iterations > 1
        assert len(calls) == rep.iterations + 1

    def test_non_finite_load_raises(self):
        orig = build_truss_grid(7, 16)
        part0, part1, precond = reanalysis_setup(orig, orig)
        r = orig.load_vector()
        r[3] = np.nan
        with pytest.raises(InvalidParameterError):
            solve_sri(part1, r, precond)
        # a load of the wrong shape must not be truncated, padded or broadcast
        for bad in malformed_loads(orig.load_vector()):
            with pytest.raises(InvalidParameterError, match="shape"):
                solve_sri(part1, bad, precond)

    def test_indefinite_operator_stops_unconverged(self):
        orig = build_truss_grid(7, 16)
        part0, part1, precond = reanalysis_setup(orig, orig)
        negated = dataclasses.replace(part1, k_lb_inv=-part1.k_lb_inv,
                                      k_la_inv=-part1.k_la_inv)
        rep = solve_sri(negated, orig.load_vector(), precond, tol=1e-12)
        assert not rep.converged
        assert rep.iterations == 0

    def test_empty_partition_solves_directly(self):
        # single-span ladder: the default additional set is empty
        # through the general path, under ||B|| = 0 and under the Newton
        # driver's step-load denominator
        model = build_truss_grid(1, 3)
        part0, part1, precond = reanalysis_setup(model, model)
        r = model.load_vector()
        d_ref = solve_conventional(model).d
        assert part1.q == 0
        for norm_ref in (None, float(np.linalg.norm(r))):
            rep = solve_sri(part1, r, precond, norm_ref=norm_ref)
            assert rep.converged and rep.iterations == 0 and rep.f_a.shape == (0,)
            assert rel_err(rep.d, d_ref) < 1e-10
        assert rel_err(solve_fdp(part1, r).d, d_ref) < 1e-10

    def test_forces_match_conventional_deformation_forces(self):
        orig = build_truss_grid(6, 10)
        mod = apply_floor_grading(orig, 8000.0, 32000.0, "E")
        part0, part1, precond = reanalysis_setup(orig, mod)
        rep = solve_sri(part1, mod.load_vector(), precond, tol=1e-12)
        d_ref = solve_conventional(mod).d
        f_a_ref = parameter_matrices(part1)[1] @ (part1.c_a @ d_ref)
        assert rel_err(rep.f_a, f_a_ref) < 1e-8

    def test_preconditioned_residual_products_decrease(self):
        orig = build_truss_grid(7, 8)
        mod = apply_floor_grading(orig, 5000.0, 35000.0, "E")
        part0, part1, precond = reanalysis_setup(orig, mod)
        rep = solve_sri(part1, mod.load_vector(), precond, tol=1e-12)
        rz = rep.rz_history
        assert len(rz) >= 2
        assert all(b < a for a, b in zip(rz, rz[1:]))

    def test_iteration_count_shrinks_with_modification(self):
        orig = build_truss_grid(5, 6)
        part0 = make_partition(orig, default_additional_set(orig))
        precond = build_sri_preconditioner(part0)
        iters = []
        for e_l, e_u in [(19000.0, 21000.0), (10000.0, 30000.0)]:
            mod = apply_floor_grading(orig, e_l, e_u, "E")
            part1 = update_partition(part0, mod)
            rep = solve_sri(part1, mod.load_vector(), precond, tol=1e-12)
            iters.append(rep.iterations)
        assert iters[0] < iters[1]

    def test_custom_norm_reference(self):
        orig = build_truss_grid(4, 4)
        mod = apply_floor_grading(orig, 10000.0, 30000.0, "E")
        part0, part1, precond = reanalysis_setup(orig, mod)
        r = mod.load_vector()
        ref = float(np.linalg.norm(r))
        rep = solve_sri(part1, r, precond, tol=1e-13, norm_ref=ref)
        b, _ = reduced_rhs(part1, r)
        # recorded history is ||r_j|| / norm_ref, not ||r_j|| / ||B||
        assert rep.residual_history[0] == pytest.approx(np.linalg.norm(b) / ref)
        assert rep.converged

    @pytest.mark.parametrize("norm_ref", [0.0, -1.0, np.nan])
    def test_invalid_norm_reference_raises_before_any_work(self, norm_ref, monkeypatch):
        # a zero or negative reference would pass the convergence test at
        # once and return the basis-only displacement as converged
        orig = build_truss_grid(3, 4)
        part0, part1, precond = reanalysis_setup(orig, orig)

        def unreached(*args):
            raise AssertionError("solve_sri started work")

        monkeypatch.setattr(solvers, "reduced_rhs", unreached)
        with pytest.raises(InvalidParameterError, match="norm_ref"):
            solve_sri(part1, orig.load_vector(), precond, norm_ref=norm_ref)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_tolerance_raises_before_any_work(self, tol, monkeypatch):
        # tol=inf would return the basis-only displacement as converged
        # after 0 iterations; 0 or a negative tol can never be met
        orig = build_truss_grid(3, 4)
        part0, part1, precond = reanalysis_setup(orig, orig)

        def unreached(*args):
            raise AssertionError("solve_sri started work")

        monkeypatch.setattr(solvers, "reduced_rhs", unreached)
        with pytest.raises(InvalidParameterError, match="^tol must be positive and finite"):
            solve_sri(part1, orig.load_vector(), precond, tol=tol)


class TestRecoverDisplacements:
    def test_zero_forces_give_basis_solution(self):
        model = build_truss_grid(1, 2)  # determinate: basis is the full model
        part = make_partition(model, PartitionSpec.of([]))
        _, b_s = reduced_rhs(part, model.load_vector())
        d = recover_displacements(part, np.zeros(0), b_s)
        assert rel_err(d, solve_conventional(model).d) < 1e-10

    def test_affine_in_forces(self):
        orig = build_truss_grid(4, 3)
        part = make_partition(orig, default_additional_set(orig))
        rng = np.random.default_rng(8)
        r = orig.load_vector()
        f1 = rng.standard_normal(part.q)
        f2 = rng.standard_normal(part.q)
        _, b_s = reduced_rhs(part, r)
        _, b_s0 = reduced_rhs(part, np.zeros(orig.n))
        lhs = recover_displacements(part, f1 + f2, b_s)
        rhs = (recover_displacements(part, f1, b_s)
               + recover_displacements(part, f2, b_s0))
        assert rel_err(lhs, rhs) < 1e-11

    def test_matches_conventional_on_small_model(self):
        orig = build_truss_grid(3, 2)
        mod = apply_floor_grading(orig, 12000.0, 28000.0, "E")
        part0, part1, precond = reanalysis_setup(orig, mod)
        r = mod.load_vector()
        d_ref = solve_conventional(mod).d
        f_a = parameter_matrices(part1)[1] @ (part1.c_a @ d_ref)
        _, b_s = reduced_rhs(part1, r)
        assert rel_err(recover_displacements(part1, f_a, b_s), d_ref) < 1e-10


class TestSolveFdp:
    def test_forces_match_reduced_iteration(self):
        orig = build_truss_grid(6, 8)
        mod = apply_floor_grading(orig, 6000.0, 34000.0, "E")
        part0, part1, precond = reanalysis_setup(orig, mod)
        r = mod.load_vector()
        rep_s = solve_sri(part1, r, precond, tol=1e-12)
        rep_f = solve_fdp(part1, r)
        assert rel_err(rep_f.f_a, rep_s.f_a) < 1e-8
        assert rel_err(rep_f.d, rep_s.d) < 1e-9

    def test_non_finite_load_raises(self):
        orig = build_truss_grid(7, 16)
        part0, part1, precond = reanalysis_setup(orig, orig)
        r = orig.load_vector()
        r[3] = np.inf
        with pytest.raises(InvalidParameterError):
            solve_fdp(part1, r)
        for bad in malformed_loads(orig.load_vector()):
            with pytest.raises(InvalidParameterError, match="shape"):
                solve_fdp(part1, bad)

    @pytest.mark.parametrize("builder", [lambda: build_truss_grid(7, 16),
                                         lambda: build_frame_grid(20, 8)],
                             ids=["ladder", "frame"])
    def test_non_positive_definite_operator_raises(self, builder):
        orig = builder()
        part0, part1, precond = reanalysis_setup(orig, orig)
        blocks = part1.blocks.copy()
        blocks[part1.additional_ids] *= -1.0
        negated = part1.with_blocks(blocks)
        with pytest.raises(UnstableStructureError,
                           match="^reduced operator is not positive definite: "):
            solve_fdp(negated, orig.load_vector())

    def test_empty_partition(self):
        model = build_truss_grid(1, 2)
        part = make_partition(model, PartitionSpec.of([]))
        rep = solve_fdp(part, model.load_vector())
        assert rel_err(rep.d, solve_conventional(model).d) < 1e-10

    def test_compatibility_identity_at_solution(self):
        # (C_s K_Lb^-1 C_s^T K_La + I) u_a = C_s K_Lb^-1 C_b^-T R
        orig = build_truss_grid(5, 4)
        mod = apply_floor_grading(orig, 9000.0, 31000.0, "E")
        part0, part1, _ = reanalysis_setup(orig, mod)
        r = mod.load_vector()
        rep = solve_fdp(part1, r)
        u_a = part1.k_la_inv @ rep.f_a
        gram = reduced_gram(part1)
        lhs = gram @ (parameter_matrices(part1)[1] @ u_a) + u_a
        rhs, _ = reduced_rhs(part1, r)
        assert rel_err(lhs, rhs) < 1e-10


def c08c_design():
    """c08's depth-graded 10 x 20 frame (n_sb = n_sc = 8), E_US floor-graded."""
    orig = build_frame_grid(10, 20, n_sb=8, n_sc=8,
                            material=MaterialSpec(e_us=20000.0, e_ls=20000.0, p=1.0))
    return apply_floor_grading(orig, 4000.0, 36000.0, "E_US")


class TestFdpRoute:
    """fdp_factor factors the reduced operator in the form reduced_gram gives
    the Gram: sparse by banded Cholesky without heavy rows (the frames), dense
    by dense Cholesky with them (the ladders)."""

    @pytest.mark.parametrize("build, route", [
        (lambda: build_frame_grid(20, 8), BandedCholesky),
        (lambda: graded_frame(1), BandedCholesky),
        (c08c_design, BandedCholesky),
        (lambda: build_truss_grid(7, 16), DenseCholesky),
        (lambda: build_truss_grid(31, 64), DenseCholesky),
    ], ids=["frame-20x8", "graded-frame-50x20", "c08c", "ladder-7x16", "ladder-31x64"])
    def test_route_follows_heavy_rows(self, build, route):
        model = build()
        part = make_partition(model, default_additional_set(model))
        heavy = assembly.heavy_rows(part.c_s.T.tocsr(), part.blocks.shape[1])
        assert bool(heavy.any()) == (route is DenseCholesky)
        factor = solvers.fdp_factor(part)
        assert isinstance(factor, route)
        assert PIVOT_TOL <= pivot_ratio(factor) <= 1.0

    @pytest.mark.parametrize("build", [lambda: build_frame_grid(20, 8), lambda: graded_frame(1)],
                             ids=["frame-20x8", "graded-frame-50x20"])
    def test_banded_agrees_with_dense(self, build, monkeypatch):
        # HEAVY_SHARE -1 makes every row heavy, so the Gram goes dense.  Both
        # routes solve the reduced system to a relative residual below 1e-12
        # (measured 3e-16 to 8e-16).  The solutions differ as far as the
        # ill-conditioned operators let two backward-stable solves differ:
        # f_a by 2.4e-11 and 3.9e-10, d by 6.0e-12 and 9.8e-11
        model = build()
        part = make_partition(model, default_additional_set(model))
        r = model.load_vector()
        b, _ = reduced_rhs(part, r)
        banded = solve_fdp(part, r)
        monkeypatch.setattr(assembly, "HEAVY_SHARE", -1.0)
        assert isinstance(solvers.fdp_factor(part), DenseCholesky)
        forced = solve_fdp(part, r)
        for rep in (banded, forced):
            assert rel_err(reduced_apply(part, rep.f_a), b) < 1e-12
        assert rel_err(banded.f_a, forced.f_a) < 1e-8
        assert rel_err(banded.d, forced.d) < 1e-9

    def test_frame_forms_no_dense_operator(self):
        model = graded_frame(1)
        part = make_partition(model, default_additional_set(model))
        r = model.load_vector()
        tracemalloc.start()
        try:
            solve_fdp(part, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * part.q ** 2 / 4  # a quarter of a dense q x q array

    @pytest.mark.parametrize("form, route", [(np.asfortranarray, DenseCholesky),
                                             (sp.csr_matrix, BandedCholesky)],
                             ids=["dense", "banded"])
    def test_nearly_singular_operator_raises(self, form, route, monkeypatch):
        # K_La^-1 = 0 and G = diag(1 ... 1e-12): positive definite, with a
        # pivot ratio of 1e-12, below PIVOT_TOL, in either form
        model = build_truss_grid(7, 16)
        part = make_partition(model, default_additional_set(model))
        part = dataclasses.replace(part, k_la_inv=sp.csr_matrix((part.q, part.q)))
        gram = np.diag(np.geomspace(1.0, 1e-12, part.q))
        monkeypatch.setattr(solvers, "reduced_gram", lambda _: form(gram))
        with monkeypatch.context() as m:
            m.setattr(assembly, "PIVOT_TOL", 0.0)
            assert isinstance(solvers.fdp_factor(part), route)
        with pytest.raises(UnstableStructureError,
                           match=r"^reduced operator is not positive definite: .* nearly singular"):
            solvers.fdp_factor(part)


def low_rank_case(seed=11):
    """The 7x16 ladder's partition under random bar stiffnesses (a random
    SPD reduced operator) as the base, and a tangent of it that changes
    three bars, fewer than the 3.8 columns one K0 build pays for: an
    additional bar at 0.15 in the base back at its elastic stiffness (it
    unloads, D < 0), a basis bar softened to 0.15 (D > 0) and one
    stiffened 3-fold (D < 0)."""
    model = build_truss_grid(7, 16)
    part = make_partition(model, default_additional_set(model))
    rng = np.random.default_rng(seed)
    k0 = part.blocks * rng.uniform(0.5, 2.0, (len(part.blocks), 1, 1))
    base = k0.copy()
    unloading = part.additional_ids[0]
    base[unloading] *= 0.15
    tangent = base.copy()
    tangent[unloading] = k0[unloading]
    tangent[part.basis_ids[3]] *= 0.15
    tangent[part.basis_ids[40]] *= 3.0
    return part.with_blocks(base), part.with_blocks(tangent)


class TestLowRankTangent:
    @pytest.mark.parametrize("build", [solvers.fdp_factor, build_sri_preconditioner],
                             ids=["fdp", "sri"])
    def test_matches_dense_inverse(self, build):
        base, tangent = low_rank_case()
        update = LowRankTangent(build)
        assert update.update(base) and update.rank == 0
        assert not update.update(tangent) and update.rank == 3
        v = np.random.default_rng(5).standard_normal(tangent.q)
        expected = np.linalg.solve(dense_reduced_operator(tangent), v)
        if build is solvers.fdp_factor:
            assert rel_err(update.solve(v), expected) < 1e-12
        # W, the SRI base, is M_base^-1 to ~1e-9 (SriPreconditioner.apply);
        # one refinement step against the tangent operator restores it
        assert rel_err(update.apply(v), expected) < 1e-12

    def test_bars_leave_and_enter(self):
        base, tangent = low_rank_case()
        update = LowRankTangent(solvers.fdp_factor)
        update.update(base)
        update.update(tangent)
        assert not update.update(base) and update.rank == 0
        v = np.random.default_rng(6).standard_normal(base.q)
        assert rel_err(update.solve(v), np.linalg.solve(dense_reduced_operator(base), v)) < 1e-12
        update.update(tangent)
        expected = np.linalg.solve(dense_reduced_operator(tangent), v)
        assert update.rank == 3 and rel_err(update.solve(v), expected) < 1e-12

    def test_rebuilds_past_the_break_even(self):
        # a dense base of order q costs q^3 / 3 to build and 2 q^2 per
        # column, so more than q / 6 entering bars rebuild it
        base, _ = low_rank_case()
        build_work, solve_work = factor_work(solvers.fdp_factor(base))
        columns = int(build_work // solve_work)
        assert columns == base.q // 6
        calls = []
        update = LowRankTangent(lambda part: calls.append(part) or solvers.fdp_factor(part))
        update.update(base)
        for k, rebuilt in ((columns, False), (columns + 1, True)):
            blocks = base.blocks.copy()
            blocks[base.additional_ids[:k]] *= 0.5
            tangent = base.with_blocks(blocks)
            assert update.update(tangent) is rebuilt
            assert update.rank == (0 if rebuilt else k) and calls[-1] is (tangent if rebuilt
                                                                         else base)
            v = np.ones(base.q)
            expected = np.linalg.solve(dense_reduced_operator(tangent), v)
            assert rel_err(update.solve(v), expected) < 1e-12
        assert len(calls) == 2

    @pytest.mark.parametrize("rank", [1, 2])
    def test_singular_capacitance_raises(self, rank):
        # 1/k of an additional bar lowered by 1 / (M^-1)_ii makes the reduced
        # operator M singular, and with it the capacitance over the base
        base, _ = low_rank_case()
        blocks = base.blocks.copy()
        if rank == 2:
            blocks[base.basis_ids[3]] *= 0.15
        i = 4
        z_ii = np.linalg.inv(dense_reduced_operator(base.with_blocks(blocks)))[i, i]
        bar = base.additional_ids[i]
        blocks[bar] = 1.0 / (1.0 / blocks[bar] - 1.0 / z_ii)
        update = LowRankTangent(solvers.fdp_factor)
        update.update(base)
        with pytest.raises(UnstableStructureError, match="capacitance pivot ratio"):
            update.update(base.with_blocks(blocks))


class TestFactorWork:
    def test_dense_and_banded(self):
        assert factor_work(DenseCholesky(np.eye(30))) == (9000.0, 1800.0)
        band = np.ones((4, 50))  # bandwidth 3
        assert factor_work(BandedCholesky(np.arange(50), band)) == (450.0, 800.0)

    def test_sparse_lu_counts_its_factor(self):
        # tridiagonal, natural order: one entry off the diagonal in every
        # column of L and row of U but the last
        n = 40
        k = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
        lu = assembly.sparse_lu(k, UnstableStructureError, "test", ordering="NATURAL")
        assert factor_work(lu) == (3.0 * (n - 1), 2.0 * 2 * (2 * n - 1))

    def test_sri_preconditioner_counts_its_stiffness_factor(self):
        model = build_truss_grid(7, 16)
        precond = build_sri_preconditioner(make_partition(model, default_additional_set(model)))
        assert factor_work(precond) == factor_work(precond._k0_factor)


class TestFourWayAgreement:
    @pytest.mark.parametrize("builder,grading", [
        (lambda: build_truss_grid(7, 6), ("E", 5000.0, 35000.0)),
        (lambda: build_frame_grid(4, 3, n_sb=2), ("E", 4000.0, 36000.0)),
    ])
    def test_all_methods_agree(self, builder, grading):
        orig = builder()
        target, e_l, e_u = grading
        mod = apply_floor_grading(orig, e_l, e_u, target)
        part0, part1, precond = reanalysis_setup(orig, mod)
        r = mod.load_vector()
        d = {
            "conventional": solve_conventional(mod).d,
            "pcg": solve_pcg_full(mod, factorize_stiffness(orig), tol=1e-12).d,
            "sri": solve_sri(part1, r, precond, tol=1e-12).d,
            "fdp": solve_fdp(part1, r).d,
        }
        ref = d["conventional"]
        for name, vec in d.items():
            assert rel_err(vec, ref) < 1e-8, f"{name} deviates"

    def test_flop_estimates_match_cost_model(self):
        orig = build_truss_grid(6, 6)
        mod = apply_floor_grading(orig, 5000.0, 35000.0, "E")
        part0, part1, precond = reanalysis_setup(orig, mod)
        r = mod.load_vector()
        n, q = part1.n, part1.q
        rep_s = solve_sri(part1, r, precond, tol=1e-12)
        assert rep_s.flops_estimate == costmodel.flops_sri(n, q, rep_s.iterations)
        rep_p = solve_pcg_full(mod, factorize_stiffness(orig), tol=1e-12)
        assert rep_p.flops_estimate == costmodel.flops_pcg(n, rep_p.iterations)
        rep_f = solve_fdp(part1, r)
        assert rep_f.flops_estimate == costmodel.flops_fdp(n, q)
