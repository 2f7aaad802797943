"""Solver path tests: cross-method agreement, preconditioning, degenerate cases."""

import dataclasses

import numpy as np
import pytest

from reanalyze import costmodel, solvers
from reanalyze.assembly import (
    PIVOT_TOL,
    assemble_global,
    factorize_stiffness,
    make_partition,
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
    build_sri_preconditioner,
    recover_displacements,
    solve_conventional,
    solve_fdp,
    solve_pcg_full,
    solve_sri,
)

from helpers import dense_truss_solution, rel_err


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
    return (c_s @ np.linalg.inv(part.k_lb.toarray()) @ c_s.T
            + np.linalg.inv(part.k_la.toarray()))


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
        bad = StructuralModel(list(model.nodes), list(model.elements), model.supports,
                              list(model.loads) + [PointLoad(node, 1, float("nan"))],
                              model.meta)
        with pytest.raises(InvalidParameterError):
            solve_pcg_full(bad, k0, tol=1e-12)

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
        assert PIVOT_TOL <= precond.pivot_ratio <= 1.0
        pivots = np.abs(precond._k0_lu.U.diagonal())
        assert precond.pivot_ratio == pivots.min() / pivots.max()

    def test_original_stiffness_symmetric_permutation(self):
        # the stiffness ordering permutes rows and columns alike
        model = graded_frame(n_sb=1)
        precond = build_sri_preconditioner(make_partition(model, default_additional_set(model)))
        assert np.array_equal(precond._k0_lu.perm_r, precond._k0_lu.perm_c)

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
        f_a_ref = part1.k_la @ (part1.c_a @ d_ref)
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
        f_a = part1.k_la @ (part1.c_a @ d_ref)
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

    @pytest.mark.parametrize("builder", [lambda: build_truss_grid(7, 16),
                                         lambda: build_frame_grid(20, 8)],
                             ids=["ladder", "frame"])
    def test_non_positive_definite_operator_raises(self, builder):
        orig = builder()
        part0, part1, precond = reanalysis_setup(orig, orig)
        negated = dataclasses.replace(part1, k_la=-part1.k_la, k_la_inv=-part1.k_la_inv)
        with pytest.raises(UnstableStructureError, match="not positive definite"):
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
        lhs = gram @ (part1.k_la @ u_a) + u_a
        rhs, _ = reduced_rhs(part1, r)
        assert rel_err(lhs, rhs) < 1e-10


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
