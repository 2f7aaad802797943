"""Newton-Raphson driver tests: state evaluation, backends, failure handling."""

import dataclasses

import numpy as np
import pytest

from reanalyze import assembly, elements, nonlinear
from reanalyze.assembly import assemble_global, make_partition, mode_matrix
from reanalyze.errors import (
    DegenerateElementError,
    InvalidParameterError,
    InvalidStateError,
    UnstableStructureError,
    UnsupportedModelError,
)
from reanalyze.model import (
    ElementKind,
    ElementRecord,
    MaterialSpec,
    MemberTag,
    Node,
    PointLoad,
    SectionSpec,
    StructuralModel,
    build_frame_grid,
    build_truss_grid,
    default_additional_set,
)
from reanalyze.nonlinear import (
    Bars,
    MaterialState,
    assemble_tangent,
    evaluate_state,
    internal_force,
    run_newton_raphson,
    tangent_partition,
)

from helpers import (
    malformed_loads,
    newton_factoring_every_iteration,
    parameter_matrices,
    rel_err,
)

BILINEAR = MaterialSpec(e0=2e5, et=0.3e5, sigma_y=25.0)


def bilinear_truss(n_span=3, n_floor=2, sigma_y=25.0, load=500.0):
    mat = MaterialSpec(e0=2e5, et=0.3e5, sigma_y=sigma_y)
    return build_truss_grid(n_span, n_floor, area=200.0, load=load, material=mat)


def single_bar(sigma_y=25.0):
    nodes = [Node(0, 0.0, 0.0), Node(1, 100.0, 0.0)]
    elem = ElementRecord(0, ElementKind.TRUSS_BAR, 0, 1, SectionSpec(area=2.0),
                         MaterialSpec(e0=2e5, et=0.3e5, sigma_y=sigma_y),
                         MemberTag("chord", 1, 1))
    return StructuralModel(nodes, [elem], {0: (0, 1), 1: (1,)}, [PointLoad(1, 0, 1.0)])


class TestInternalForce:
    def test_zero_displacement(self):
        model = bilinear_truss()
        bars = Bars.of(model)
        assert np.all(internal_force(bars, evaluate_state(bars, np.zeros(model.n))) == 0.0)

    def test_elastic_regime_matches_linear_stiffness(self):
        model = bilinear_truss()
        k = assemble_global(model).toarray()
        rng = np.random.default_rng(4)
        d = rng.uniform(-1e-4, 1e-4, model.n) * 100.0  # strains well below yield
        bars = Bars.of(model)
        state = evaluate_state(bars, d)
        assert not state.yielded.any()
        assert rel_err(internal_force(bars, state), k @ d) < 1e-12

    def test_single_yielded_bar_hand_value(self):
        model = single_bar()
        # axial displacement 0.05 cm over L=100 -> strain 5e-4, beyond yield 1.25e-4
        d = np.array([0.05])
        bars = Bars.of(model)
        state = evaluate_state(bars, d)
        assert state.yielded.tolist() == [True]
        sigma = 25.0 + 0.3e5 * (5e-4 - 1.25e-4)
        assert state.stress[0] == pytest.approx(sigma)
        f = internal_force(bars, state)
        assert f[0] == pytest.approx(sigma * 2.0)  # area = 2

    def test_yield_mask_at_the_yield_strain(self):
        # e0 a power of two, so sigma_y / e0 gives back the bar's strain exactly
        bars = dataclasses.replace(Bars.of(single_bar()), e0=np.array([2.0 ** 17]))
        d = np.array([0.0125])
        strain = evaluate_state(bars, d).strain
        at_yield = dataclasses.replace(bars, sigma_y=strain * 2.0 ** 17)
        assert np.array_equal(at_yield.sigma_y / at_yield.e0, strain)
        assert evaluate_state(at_yield, d).yielded.tolist() == [False]
        assert evaluate_state(at_yield, (1 + 1e-12) * d).yielded.tolist() == [True]

    def test_requires_bilinear_truss(self):
        with pytest.raises(UnsupportedModelError):
            Bars.of(build_truss_grid(2, 2))
        with pytest.raises(UnsupportedModelError):
            Bars.of(build_frame_grid(1, 1))


class TestBars:
    def test_mode_rows_match_assembled_rows(self):
        for model in (bilinear_truss(), bilinear_truss(4, 3), single_bar()):
            c = Bars.of(model).c.toarray()
            expected = mode_matrix(model).toarray()
            assert np.array_equal(c, expected)


class TestTangentPartition:
    def test_elastic_state_reproduces_elastic_partition(self):
        model = bilinear_truss()
        part = make_partition(model, default_additional_set(model))
        bars = Bars.of(model)
        part_t = tangent_partition(bars, evaluate_state(bars, np.zeros(model.n)), part)
        for k_t, k in zip(parameter_matrices(part_t), parameter_matrices(part)):
            assert rel_err(k_t, k) < 1e-14
        assert part_t.c_b_lu is part.c_b_lu

    def test_degenerate_hardening_equals_elastic(self):
        mat = MaterialSpec(e0=2e5, et=2e5, sigma_y=1e-6)  # Et = E0, yields instantly
        model = build_truss_grid(2, 2, area=200.0, load=500.0, material=mat)
        part = make_partition(model, default_additional_set(model))
        bars = Bars.of(model)
        state = evaluate_state(bars, np.full(model.n, 0.5))
        assert state.yielded.any()
        part_t = tangent_partition(bars, state, part)
        assert rel_err(parameter_matrices(part_t)[0], parameter_matrices(part)[0]) < 1e-14

    def test_tangent_split_matches_assembled_tangent(self):
        model = bilinear_truss(3, 2, sigma_y=5.0)
        part = make_partition(model, default_additional_set(model))
        rng = np.random.default_rng(9)
        d = rng.uniform(-0.02, 0.02, model.n)  # strains straddle the yield strain
        bars = Bars.of(model)
        state = evaluate_state(bars, d)
        assert state.yielded.any() and not state.yielded.all()
        part_t = tangent_partition(bars, state, part)
        assert part_t.blocks.shape == (len(model.elements), 1, 1)
        assert np.array_equal(part_t.blocks[:, 0, 0],
                              elements.truss_decomposition(state.tangent, bars.area, bars.length))
        k_t = assemble_tangent(bars, state).toarray()
        k_lb, k_la = parameter_matrices(part_t)
        k_split = part_t.c_b.T @ k_lb @ part_t.c_b + part_t.c_a.T @ k_la @ part_t.c_a
        assert rel_err(k_split, k_t) < 1e-12

    def test_elastic_tangent_is_the_linear_stiffness(self):
        # the tangent goes through the linear layer's blocks and assembly,
        # so at zero strain it is the assembled stiffness bitwise
        model = bilinear_truss(5, 4)
        bars = Bars.of(model)
        k_t = assemble_tangent(bars, evaluate_state(bars, np.zeros(model.n)))
        k = assemble_global(model)
        assert np.array_equal(k_t.indptr, k.indptr) and np.array_equal(k_t.indices, k.indices)
        assert np.array_equal(k_t.data, k.data)

    def test_rejects_nonpositive_tangent(self):
        model = bilinear_truss()
        part = make_partition(model, default_additional_set(model))
        bars = Bars.of(model)
        state = evaluate_state(bars, np.zeros(model.n))
        bad = MaterialState(state.strain, state.stress,
                            np.zeros_like(state.tangent), state.yielded)
        with pytest.raises(InvalidStateError):
            tangent_partition(bars, bad, part)
        with pytest.raises(InvalidStateError):
            assemble_tangent(bars, bad)


class TestRunNewtonRaphson:
    def test_elastic_run_is_linear(self):
        model = bilinear_truss(3, 3, sigma_y=1e9)
        p0 = model.load_vector()
        run = run_newton_raphson(model, p0, n_steps=20, backend="regular")
        assert run.converged
        assert run.n_nle == [0] * 20
        assert all(it == 1 for it in run.outer_iterations)
        # displacement proportional to the load factor
        d1 = run.displacements[0]
        for i, lam in enumerate(run.lambdas):
            assert rel_err(run.displacements[i], d1 * (lam / run.lambdas[0])) < 1e-10
        assert rel_err(run.displacements[-1], 20.0 * d1) < 1e-10

    def test_backends_match_on_yielding_model(self):
        sigma_y = 2.0  # low yield so plasticity spreads at this scale
        runs = {}
        for backend in ("regular", "reduction", "sri"):
            model = bilinear_truss(4, 4, sigma_y=sigma_y)
            runs[backend] = run_newton_raphson(model, model.load_vector(),
                                               n_steps=10, backend=backend)
            assert runs[backend].converged
        assert runs["regular"].n_nle[-1] > 0
        for backend in ("reduction", "sri"):
            for da, db in zip(runs["regular"].displacements,
                              runs[backend].displacements):
                assert rel_err(db, da) < 1e-6
            # bars sitting within solver tolerance of the yield strain may
            # classify differently between backends
            diffs = np.abs(np.array(runs[backend].n_nle) - np.array(runs["regular"].n_nle))
            assert diffs.max() <= 2

    def test_inner_iterations_per_step(self):
        runs = {}
        for backend in ("regular", "sri"):
            model = bilinear_truss(4, 4, sigma_y=2.0)
            runs[backend] = run_newton_raphson(model, model.load_vector(),
                                               n_steps=10, backend=backend)
            assert runs[backend].converged
            assert len(runs[backend].inner_iterations) == 10
        assert runs["regular"].inner_iterations == [0] * 10
        assert all(k > 0 for k in runs["sri"].inner_iterations)

    def test_yield_count_nondecreasing(self):
        model = bilinear_truss(4, 4, sigma_y=2.0)
        run = run_newton_raphson(model, model.load_vector(), n_steps=10)
        assert all(b >= a for a, b in zip(run.n_nle, run.n_nle[1:]))
        assert run.n_nle[-1] > 0

    def test_residual_contract_at_accepted_steps(self):
        model = bilinear_truss(4, 4, sigma_y=2.0)
        p0 = model.load_vector()
        run = run_newton_raphson(model, p0, n_steps=10, tol_outer=1e-8)
        bars = Bars.of(model)
        for lam, d in zip(run.lambdas, run.displacements):
            res = internal_force(bars, evaluate_state(bars, d)) - lam * p0
            assert np.linalg.norm(res) / np.linalg.norm(lam * p0) < 1e-8

    def test_step_failure_keeps_partial_history(self, monkeypatch):
        monkeypatch.setattr(nonlinear, "OUTER_CAP", 0)
        model = bilinear_truss(3, 2, sigma_y=2.0)
        run = run_newton_raphson(model, model.load_vector(), n_steps=5)
        assert not run.converged
        assert run.failed_step == 1
        assert run.lambdas == []

    def test_reduction_builds_influence_matrix_once(self, monkeypatch):
        # every tangent partition shares the one C_s of the elastic partition
        real = assembly._influence_matrix
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(assembly, "_influence_matrix", counted)
        model = bilinear_truss(30, 30, sigma_y=5.0)
        run = run_newton_raphson(model, model.load_vector(), backend="reduction")
        assert run.converged and run.n_nle[-1] > 0
        assert len(calls) == 1

    def test_unconverged_inner_solve_fails_step(self, monkeypatch):
        real = nonlinear.solve_sri

        def unconverged(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), converged=False)

        monkeypatch.setattr(nonlinear, "solve_sri", unconverged)
        model = bilinear_truss(3, 2, sigma_y=2.0)
        run = run_newton_raphson(model, model.load_vector(), n_steps=5, backend="sri")
        assert not run.converged
        assert run.failed_step == 1
        assert run.lambdas == [] and run.final_state is not None

    def test_singular_tangent_raises(self):
        # two collinear bars whose shared node is free transversally
        nodes = [Node(0, 0.0, 0.0), Node(1, 100.0, 0.0), Node(2, 200.0, 0.0)]
        bars = [ElementRecord(i, ElementKind.TRUSS_BAR, i, i + 1, SectionSpec(area=2.0),
                              BILINEAR, MemberTag("chord", 1, i + 1)) for i in (0, 1)]
        model = StructuralModel(nodes, bars, {0: (0, 1), 2: (0, 1)}, [PointLoad(1, 0, 1.0)])
        with pytest.raises(UnstableStructureError):
            run_newton_raphson(model, model.load_vector(), n_steps=2, backend="regular")

    @pytest.mark.parametrize("backend", ["regular", "reduction", "sri"])
    def test_coincident_bar_ends_raise(self, backend):
        # node 4 moved onto node 3 leaves the chord between them zero long
        model = bilinear_truss(2, 2)
        nodes = list(model.nodes)
        nodes[4] = Node(4, nodes[3].x, nodes[3].y)
        model = StructuralModel(nodes, list(model.elements), model.supports,
                                list(model.loads), model.meta)
        bad = next(e.id for e in model.elements if {e.node_i, e.node_j} == {3, 4})
        message = f"^element {bad}: length must be positive, got 0.0$"
        with pytest.raises(DegenerateElementError, match=message):
            Bars.of(model)
        with pytest.raises(DegenerateElementError, match=message):
            run_newton_raphson(model, model.load_vector(), n_steps=2, backend=backend)

    @pytest.mark.parametrize("backend", ["regular", "reduction", "sri"])
    def test_bad_load_or_step_count_raises_before_any_build(self, backend, monkeypatch):
        # every backend rejects the same bad input the same way, and a run
        # of no load steps must not report converged=True
        def built(*args, **kwargs):
            raise AssertionError("partitioned or factorized before the input checks")

        monkeypatch.setattr(nonlinear, "make_partition", built)
        monkeypatch.setattr(nonlinear, "factor_tangent", built)
        model = bilinear_truss(3, 3)
        p0 = model.load_vector()
        for value in (np.nan, np.inf, -np.inf):
            bad = p0.copy()
            bad[0] = value
            with pytest.raises(InvalidParameterError, match="non-finite"):
                run_newton_raphson(model, bad, backend=backend)
        for n_steps in (0, -2):
            with pytest.raises(InvalidParameterError, match=f"n_steps={n_steps}$"):
                run_newton_raphson(model, p0, n_steps=n_steps, backend=backend)
        # a scalar would load every free DOF
        for bad in malformed_loads(p0):
            with pytest.raises(InvalidParameterError, match="shape"):
                run_newton_raphson(model, bad, backend=backend)

    @pytest.mark.parametrize("backend", ["regular", "reduction", "sri"])
    @pytest.mark.parametrize("name", ["tol_outer", "tol_inner"])
    def test_invalid_tolerance_raises_before_any_build(self, backend, name, monkeypatch):
        # tol_outer=inf would return all-zero displacements as converged
        def built(*args, **kwargs):
            raise AssertionError("partitioned or factorized before the input checks")

        monkeypatch.setattr(nonlinear, "make_partition", built)
        monkeypatch.setattr(nonlinear, "factor_tangent", built)
        model = bilinear_truss(3, 4, sigma_y=5.0)
        for tol in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidParameterError, match=f"^{name} must be positive"):
                run_newton_raphson(model, model.load_vector(), n_steps=2, backend=backend,
                                   **{name: tol})

    @pytest.mark.parametrize("backend", ["regular", "reduction", "sri"])
    def test_bar_without_area_raises_before_any_build(self, backend, monkeypatch):
        # the bars read their fields as the linear assembly does, so every
        # backend names the element that lacks one
        def built(*args, **kwargs):
            raise AssertionError("partitioned or factorized before the input checks")

        monkeypatch.setattr(nonlinear, "make_partition", built)
        monkeypatch.setattr(nonlinear, "factor_tangent", built)
        model = bilinear_truss(3, 3)
        elems = list(model.elements)
        elems[4] = dataclasses.replace(elems[4], section=SectionSpec())
        model = StructuralModel(list(model.nodes), elems, model.supports,
                                list(model.loads), model.meta)
        with pytest.raises(InvalidParameterError, match="^element 4: bar section needs area$"):
            run_newton_raphson(model, model.load_vector(), backend=backend)

    def test_unknown_backend(self):
        model = bilinear_truss()
        with pytest.raises(UnsupportedModelError):
            run_newton_raphson(model, model.load_vector(), backend="magic")


# the function each backend builds its tangent factor with ("regular") or the
# base of its low-rank tangent update (the reduced backends; an "sri" base is
# an SriPreconditioner on one tangent factor), as the driver binds it
FACTOR_BUILDER = {"regular": "factor_tangent", "reduction": "fdp_factor",
                  "sri": "factor_tangent"}


def count_calls(monkeypatch, name):
    """Patch name on the driver to count its calls."""
    real = getattr(nonlinear, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(nonlinear, name, counted)
    return calls


def count_factors(monkeypatch, backend):
    """Patch the backend's factor builder on the driver to count its calls."""
    return count_calls(monkeypatch, FACTOR_BUILDER[backend])


def max_step_error(displacements, reference):
    """Largest relative difference of two runs' step displacements."""
    assert len(displacements) == len(reference)
    return max(rel_err(d, d_ref) for d, d_ref in zip(displacements, reference))


@pytest.fixture(scope="module", params=["regular", "reduction", "sri"])
def ladder_reference(request):
    """A backend, the 30x30 ladder at sigma_y 5 and its run by the reference
    loop that factors the tangent at every Newton iteration."""
    model = bilinear_truss(30, 30, sigma_y=5.0)
    return (request.param, model,
            *newton_factoring_every_iteration(model, model.load_vector(), request.param))


class TestFactorReuse:
    @pytest.mark.parametrize("backend", ["regular", "reduction", "sri"])
    def test_elastic_run_builds_one_factor(self, backend, monkeypatch):
        calls = count_factors(monkeypatch, backend)
        model = bilinear_truss(3, 3, sigma_y=1e9)
        run = run_newton_raphson(model, model.load_vector(), n_steps=20, backend=backend)
        assert run.converged and run.n_nle == [0] * 20
        assert len(calls) == 1
        assert run.factorizations == [1] + [0] * 19
        assert run.update_ranks == [0] * 20

    def test_one_factor_per_change_of_the_tangent_moduli(self, ladder_reference, monkeypatch):
        # "regular" factors each new tangent; the reduced backends take each
        # new tangent partition into their low-rank update, and build a new
        # base only where the rebuild rule says so: "reduction" never on this
        # run (68 columns against a q / 6 = 145 break-even), "sri" a few times
        backend, model, _, moduli = ladder_reference
        calls = count_factors(monkeypatch, backend)
        tangents = count_calls(monkeypatch, "tangent_partition")
        run = run_newton_raphson(model, model.load_vector(), backend=backend)
        assert run.converged and run.n_nle[-1] == 68
        changes = sum(not np.array_equal(a, b) for a, b in zip(moduli, moduli[1:]))
        assert sum(run.outer_iterations) == len(moduli) == 37
        assert len(run.factorizations) == 20
        assert len(calls) == sum(run.factorizations)
        if backend == "regular":
            assert len(calls) == 1 + changes == 18 and not tangents
            assert run.update_ranks == [0] * 20
        else:
            assert len(tangents) == 1 + changes == 18
            assert len(calls) == (1 if backend == "reduction" else 5)
            assert max(run.update_ranks) == (68 if backend == "reduction" else 11)

    @pytest.mark.parametrize("backend, plans", [("regular", 1), ("reduction", 0), ("sri", 1)])
    def test_one_stiffness_plan_per_run(self, backend, plans, monkeypatch):
        # every tangent factor or "sri" base of a run scatters into the one
        # plan; "reduction" factors no stiffness and builds none
        real = assembly.StiffnessPlan.of.__func__
        calls = []

        def counted(cls, model):
            calls.append(model)
            return real(cls, model)

        monkeypatch.setattr(assembly.StiffnessPlan, "of", classmethod(counted))
        model = bilinear_truss(4, 4, sigma_y=2.0)
        run = run_newton_raphson(model, model.load_vector(), backend=backend)
        assert run.converged and sum(run.factorizations) > 1
        assert len(calls) == plans

    def test_displacements_equal_factoring_every_iteration(self, ladder_reference):
        # a kept factor is the factor the same moduli rebuild, so reuse
        # changes no bit of the result; the low-rank update solves with the
        # same operator in another order, so it agrees to rounding
        backend, model, displacements, _ = ladder_reference
        run = run_newton_raphson(model, model.load_vector(), backend=backend)
        assert len(run.displacements) == len(displacements) == 20
        if backend == "regular":
            for d, d_ref in zip(run.displacements, displacements):
                assert np.array_equal(d, d_ref)
        else:
            assert max_step_error(run.displacements, displacements) <= 1e-10
            assert sum(run.outer_iterations) == 37 and run.n_nle[-1] == 68


class TestRebuildRule:
    @pytest.mark.parametrize("backend, size, sigma_y", [
        ("reduction", 4, 2.0), ("sri", 4, 2.0), ("sri", 30, 5.0)])
    def test_rebuilt_runs_match_regular(self, backend, size, sigma_y, monkeypatch):
        # the columns the yielding bars gather cross the rebuild rule's
        # break-even, so each run builds several bases
        model = bilinear_truss(size, size, sigma_y=sigma_y)
        regular = run_newton_raphson(model, model.load_vector(), backend="regular")
        calls = count_factors(monkeypatch, backend)
        run = run_newton_raphson(model, model.load_vector(), backend=backend)
        assert run.converged and run.n_nle == regular.n_nle
        assert len(calls) == sum(run.factorizations) > 1
        assert max_step_error(run.displacements, regular.displacements) <= 1e-10

    def test_rebuilt_runs_are_reproducible(self):
        model = bilinear_truss(4, 4, sigma_y=2.0)
        for backend in ("reduction", "sri"):
            first, second = (run_newton_raphson(model, model.load_vector(), backend=backend)
                             for _ in range(2))
            assert first.factorizations == second.factorizations
            for d, d_ref in zip(first.displacements, second.displacements):
                assert np.array_equal(d, d_ref)

    def test_sri_full_scale_ladder_yield_count(self):
        # the 30x150 ladder at sigma_y 45, the published c08b count
        model = bilinear_truss(30, 150, sigma_y=45.0)
        run = run_newton_raphson(model, model.load_vector(), backend="sri")
        assert run.converged and run.n_nle[-1] == 1691
        assert 1 < sum(run.factorizations) < sum(run.outer_iterations)
        assert sum(run.inner_iterations) < 2 * sum(run.outer_iterations)
