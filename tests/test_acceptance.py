"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints an explicit PASS line (visible with -s) on top of the usual
pytest verdict.  Reference displacement values are published benchmark
results for the graded ladder truss and frame grids; they are reproduced to
all seven printed significant digits.
"""

import gc
import itertools

import numpy as np
import pytest

from reanalyze import costmodel
from reanalyze.assembly import (
    factorize_stiffness,
    make_partition,
    update_partition,
)
from reanalyze.elements import fg_section_constants
from reanalyze.model import (
    MaterialSpec,
    apply_floor_grading,
    build_frame_grid,
    build_truss_grid,
    default_additional_set,
    replace_fg_coupling,
    replace_fg_exponent,
)
from reanalyze.nonlinear import run_newton_raphson
from reanalyze.solvers import (
    build_sri_preconditioner,
    solve_conventional,
    solve_fdp,
    solve_pcg_full,
    solve_sri,
)

from helpers import beam_rotation, eb_local_stiffness, graded_profile_moments, rel_err
from test_costmodel import pcg_ledger_total, sri_ledger_total

SEVEN_DIGITS = 5e-7  # relative half-ulp of a 7-significant-digit value

# graded ladder truss, 31 spans: (node A x, A y, node B x, B y) per free-node count
TRUSS_REFERENCE = {
    2048: (2.327843e1, 3.694581e0, 2.117298e1, -6.198756e0),
    4096: (2.485152e2, 3.272211e1, 2.462131e2, -4.393270e1),
    6144: (1.167079e3, 1.161943e2, 1.164704e3, -1.418954e2),
}

# graded homogeneous frame, 50 spans x 20 floors: node B (x, y, rotation)
FRAME_REFERENCE = (3.444080e0, -3.476257e-2, -1.044827e-4)

# graded-depth frame, 4 spans x 4 floors, 8 elements per member, node B triples
# per power-law exponent.  The tabulated vertical column carries a one-decade
# exponent shift; values below use the corrected exponent, mantissas match all
# seven printed digits (see the decisions ledger).
FG_FRAME_REFERENCE = {
    0.5: (2.111726e0, -5.859733e-3, -8.018189e-4),
    1.0: (1.757305e0, -7.509972e-3, -3.540270e-4),
    2.0: (1.717977e0, -6.925002e-3, -2.863039e-4),
}


def reanalysis_reports(orig, modified, tol=1e-12, sri_tols=(1e-12,)):
    """All four solution paths on a modified structure, original-seeded."""
    part0 = make_partition(orig, default_additional_set(orig))
    precond = build_sri_preconditioner(part0)
    part1 = update_partition(part0, modified)
    k0 = factorize_stiffness(orig)
    r = modified.load_vector()
    reports = {
        "conventional": solve_conventional(modified),
        "pcg": solve_pcg_full(modified, k0, tol=tol),
        "fdp": solve_fdp(part1, r),
        "sri": solve_sri(part1, r, precond, tol=sri_tols[0]),
    }
    extra_sri = [solve_sri(part1, r, precond, tol=t) for t in sri_tols[1:]]
    return reports, extra_sri


def node_values(model, report, node):
    return tuple(float(report.d[model.dof_map[node, dof]])
                 for dof in range(model.dofs_per_node))


def assert_seven_digits(actual, expected, context):
    for got, want in zip(actual, expected):
        assert got == pytest.approx(want, rel=SEVEN_DIGITS), \
            f"{context}: {got!r} != {want!r}"


def test_c01_graded_truss_regression_all_methods():
    """All four methods reproduce the published ladder displacements."""
    for n_node, expected in TRUSS_REFERENCE.items():
        n_floor = n_node // 32
        orig = build_truss_grid(31, n_floor)
        mod = apply_floor_grading(orig, 5000.0, 35000.0, "E")
        # the tolerance stated for the iterative solvers is 1e-12; an extra
        # tighter reduced solve feeds the cross-agreement check because the
        # residual-to-displacement amplification is ~2e2 at the largest scale
        reports, extra = reanalysis_reports(orig, mod, tol=1e-12,
                                            sri_tols=(1e-12, 1e-13))
        a, b = orig.meta["node_a"], orig.meta["node_b"]
        for method, rep in reports.items():
            assert rep.converged
            values = node_values(mod, rep, a) + node_values(mod, rep, b)
            assert_seven_digits(values, expected, f"{method} @ {n_node}")
        # four-way agreement, unconditional
        fields = {m: rep.d for m, rep in reports.items()}
        fields["sri"] = extra[0].d
        worst = max(rel_err(fields[x], fields[y])
                    for x, y in itertools.combinations(fields, 2))
        assert worst <= 1e-10, f"cross-method agreement {worst:.2e} @ {n_node}"
        del reports, extra, fields
        gc.collect()
    print("ACCEPTANCE PASS 1: graded truss regression, 24 values, 7 digits, 4 methods")


def test_c02_frame_subdivision_invariance():
    """Frame node-B triple is independent of beam subdivision and matches the
    published values for every subdivision count."""
    triples = {}
    for n_sb in (1, 2, 3, 4):
        orig = build_frame_grid(50, 20, n_sb=n_sb, n_sc=1)
        mod = apply_floor_grading(orig, 4000.0, 36000.0, "E")
        reports, _ = reanalysis_reports(orig, mod)
        b = orig.meta["node_b"]
        for method, rep in reports.items():
            assert rep.converged
            vals = node_values(mod, rep, b)
            assert_seven_digits(vals, FRAME_REFERENCE, f"{method} @ n_sb={n_sb}")
        triples[n_sb] = node_values(mod, reports["conventional"], b)
        del reports
        gc.collect()
    for x, y in itertools.combinations(triples.values(), 2):
        assert rel_err(np.array(x), np.array(y)) < 1e-9
    print("ACCEPTANCE PASS 2: frame node-B triple invariant over n_sb=1..4")


def test_c03_graded_depth_frame_regression():
    """Depth-graded frame reproduces published node-B triples for each
    exponent; the p=1 row is insensitive to both solver path and coupling
    convention."""
    base = build_frame_grid(4, 4, n_sb=8, n_sc=8,
                            material=MaterialSpec(e_us=20000.0, e_ls=20000.0, p=1.0))
    for p, expected in FG_FRAME_REFERENCE.items():
        # published solutions embed the simplified coupling constant
        orig = replace_fg_coupling(base, "simplified")
        mod = apply_floor_grading(replace_fg_exponent(orig, p), 4000.0, 36000.0, "E_US")
        reports, _ = reanalysis_reports(orig, mod)
        b = base.meta["node_b"]
        for method, rep in reports.items():
            assert_seven_digits(node_values(mod, rep, b), expected,
                                f"{method} @ p={p}")
        if p == 1.0:
            fields = [rep.d for rep in reports.values()]
            worst = max(rel_err(x, y) for x, y in itertools.combinations(fields, 2))
            assert worst <= 1e-10, f"p=1 solver sensitivity {worst:.2e}"
            # conventions coincide at p = 1
            orig_exact = replace_fg_coupling(base, "exact")
            mod_exact = apply_floor_grading(replace_fg_exponent(orig_exact, 1.0),
                                            4000.0, 36000.0, "E_US")
            d_exact = solve_conventional(mod_exact).d
            assert rel_err(d_exact, reports["conventional"].d) < 1e-12
    print("ACCEPTANCE PASS 3: graded-depth frame triples, p in {0.5, 1, 2}")


def test_c04_closed_form_force_identity_on_random_models():
    """On 100+ randomized small structures the converged reduced-iteration
    forces equal the direct low-rank-update closed form to 1e-8."""
    rng = np.random.default_rng(20240817)
    cases = 0
    while cases < 110:
        if rng.random() < 0.6:
            ns = int(rng.integers(2, 7))
            nf = int(rng.integers(1, max(2, 200 // (2 * (ns + 1)))))
            orig = build_truss_grid(ns, nf, area=float(rng.uniform(5, 50)))
            factor = rng.uniform(0.4, 1.8, len(orig.elements))
            mods = {e.id: MaterialSpec(e=20000.0 * factor[e.id]) for e in orig.elements}
        else:
            ns = int(rng.integers(1, 4))
            nf = int(rng.integers(1, 3))
            n_sb = int(rng.integers(1, 4))
            orig = build_frame_grid(ns, nf, n_sb=n_sb, n_sc=int(rng.integers(1, 3)))
            factor = rng.uniform(0.4, 1.8, len(orig.elements))
            mods = {e.id: MaterialSpec(e=20000.0 * factor[e.id]) for e in orig.elements}
        if orig.n > 200:
            continue
        modified = orig.replace_materials(mods)
        part0 = make_partition(orig, default_additional_set(orig))
        if part0.q == 0:
            continue
        precond = build_sri_preconditioner(part0)
        part1 = update_partition(part0, modified)
        r = modified.load_vector()
        rep_sri = solve_sri(part1, r, precond, tol=1e-12)
        rep_fdp = solve_fdp(part1, r)
        assert rep_sri.converged
        assert rel_err(rep_sri.f_a, rep_fdp.f_a) < 1e-8, f"case {cases}"
        cases += 1
    assert cases >= 100
    print(f"ACCEPTANCE PASS 4: reduced forces match closed form on {cases} random models")


def test_c05_reconstruction_property_suite():
    """C^T K_L C rebuilds the textbook element stiffness to 1e-12 relative on
    1000+ random parameter draws over all element kinds."""
    from reanalyze.elements import (
        beam_decomposition,
        beam_parameter_matrix,
        fg_beam_decomposition,
        fg_beam_parameter_matrix,
        truss_decomposition,
    )
    from helpers import fg_beam_local_stiffness, truss_global_stiffness

    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(400):
        length, angle = rng.uniform(1, 2000), rng.uniform(-np.pi, np.pi)
        young, area = rng.uniform(1e2, 1e6), rng.uniform(0.5, 500)
        dec = truss_decomposition(length, angle, young, area)
        ref = truss_global_stiffness(young, area, length, angle)
        assert np.max(np.abs(dec.stiffness() - ref)) <= 1e-12 * np.max(np.abs(ref))
        checked += 1
    for _ in range(300):
        length, angle = rng.uniform(1, 2000), rng.uniform(-np.pi, np.pi)
        young, area, inertia = rng.uniform(1e2, 1e6), rng.uniform(0.5, 500), rng.uniform(1, 1e5)
        dec = beam_decomposition(length, angle, young, area, inertia)
        t = beam_rotation(angle)
        ref = t.T @ eb_local_stiffness(young, area, inertia, length) @ t
        assert np.max(np.abs(dec.stiffness() - ref)) <= 1e-12 * np.max(np.abs(ref))
        checked += 1
    for _ in range(300):
        length, angle = rng.uniform(1, 2000), rng.uniform(-np.pi, np.pi)
        width, height = rng.uniform(0.5, 30), rng.uniform(0.5, 60)
        p, e_ls = rng.uniform(0, 10), rng.uniform(1e3, 1e5)
        c = fg_section_constants(height, p, rng.uniform(0.1, 10) * e_ls, e_ls)
        dec = fg_beam_decomposition(length, angle, width, c)
        t = beam_rotation(angle)
        ref = t.T @ fg_beam_local_stiffness(width, c, length) @ t
        assert np.max(np.abs(dec.stiffness() - ref)) <= 1e-12 * np.max(np.abs(ref))
        checked += 1
    for _ in range(100):
        width, height = rng.uniform(0.5, 30), rng.uniform(0.5, 60)
        young, length = rng.uniform(1e3, 1e5), rng.uniform(1, 2000)
        c = fg_section_constants(height, rng.uniform(0, 10), young, young)
        graded = fg_beam_parameter_matrix(width, c, length)
        homog = beam_parameter_matrix(young, width * height,
                                      width * height**3 / 12.0, length)
        assert np.max(np.abs(graded - homog)) <= 1e-12 * np.max(np.abs(homog))
        checked += 1
    assert checked >= 1000
    print(f"ACCEPTANCE PASS 5: reconstruction identity on {checked} random elements")


def test_c06_graded_section_quadrature_oracle():
    """Closed-form section moments match adaptive quadrature of the power-law
    profile to 1e-10 relative."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        height = rng.uniform(0.2, 60.0)
        p = rng.uniform(0.0, 10.0)
        e_lower = rng.uniform(1e3, 1e5)
        e_upper = rng.uniform(0.1, 10.0) * e_lower
        c = fg_section_constants(height, p, e_upper, e_lower)
        a_ref, b_ref, d_ref = graded_profile_moments(height, p, e_upper, e_lower)
        assert c.a_e == pytest.approx(a_ref, rel=1e-10)
        assert c.b_e == pytest.approx(b_ref, rel=1e-10, abs=1e-10 * a_ref * height)
        assert c.d_e == pytest.approx(d_ref, rel=1e-10)
    print("ACCEPTANCE PASS 6: section moments match quadrature on 300 random draws")


def test_c07_flop_model_against_ledgers_and_shape():
    """Closed-form counts equal the per-line ledger tallies; ratio curves have
    the documented shape."""
    for n, q, k in [(10, 2, 0), (100, 17, 9), (10000, 1000, 100), (10**6, 10**4, 500)]:
        assert costmodel.flops_sri(n, q, k) == sri_ledger_total(n, q, k)
    for n, k in [(1, 0), (10, 1), (10000, 1000)]:
        assert costmodel.flops_pcg(n, k) == pcg_ledger_total(n, k)
    assert costmodel.flops_fdp(10, 2) == 450
    pcg_sweep = costmodel.ratio_sweep("sri_vs_pcg")
    for label, series in pcg_sweep.series.items():
        assert all(b > a for a, b in zip(series, series[1:])), label
    fdp_sweep = costmodel.ratio_sweep("sri_vs_fdp")
    for label, series in fdp_sweep.series.items():
        assert all(b > a for a, b in zip(series, series[1:])), label
    assert pcg_sweep.series["k_s=0.1"][0] < 1.0
    assert fdp_sweep.series["q/n=0.1"][0] < 1.0
    print("ACCEPTANCE PASS 7: flop model matches ledgers; ratio curves shaped as documented")


def test_c08_nonlinear_backend_equivalence_reduced_scale():
    """At reduced scale the three incremental backends produce the same
    load-displacement curves; with an unreachable yield stress the response is
    exactly linear."""
    mat = MaterialSpec(e0=2e5, et=0.3e5, sigma_y=5.0)
    runs = {}
    for backend in ("regular", "reduction", "sri"):
        model = build_truss_grid(30, 30, area=200.0, load=500.0, material=mat)
        runs[backend] = run_newton_raphson(model, model.load_vector(),
                                           n_steps=20, backend=backend)
        assert runs[backend].converged
    assert runs["regular"].n_nle[-1] > 0  # plasticity engaged
    for backend in ("reduction", "sri"):
        for da, db in zip(runs["regular"].displacements, runs[backend].displacements):
            assert rel_err(db, da) <= 1e-6

    elastic_mat = MaterialSpec(e0=2e5, et=0.3e5, sigma_y=1e9)
    model = build_truss_grid(30, 30, area=200.0, load=500.0, material=elastic_mat)
    run = run_newton_raphson(model, model.load_vector(), n_steps=20, backend="regular")
    d1 = run.displacements[0]
    for lam, d in zip(run.lambdas, run.displacements):
        assert rel_err(d, d1 * lam / run.lambdas[0]) < 1e-10
    print("ACCEPTANCE PASS 8a: backend equivalence and elastic linearity at reduced scale")


@pytest.mark.slow
def test_c08_full_scale_yield_counts():
    """Full-scale nonlinear ladder reproduces the published final counts of
    yielded members for all three yield stresses."""
    expected = {45.0: 1691, 25.0: 2567, 5.0: 9116}
    for sigma_y, count in expected.items():
        mat = MaterialSpec(e0=2e5, et=0.3e5, sigma_y=sigma_y)
        model = build_truss_grid(30, 150, area=200.0, load=500.0, material=mat)
        run = run_newton_raphson(model, model.load_vector(), n_steps=20,
                                 backend="regular")
        assert run.converged
        assert run.n_nle[-1] == count, f"sigma_y={sigma_y}"
    print("ACCEPTANCE PASS 8b: full-scale yielded-member counts {1691, 2567, 9116}")


def test_c08_reduced_iteration_beats_complete_analysis():
    """Smoke check: one reduced-iteration solve is faster than one complete
    analysis on the 20-floor graded-depth frame."""
    orig = build_frame_grid(10, 20, n_sb=8, n_sc=8,
                            material=MaterialSpec(e_us=20000.0, e_ls=20000.0, p=1.0))
    mod = apply_floor_grading(orig, 4000.0, 36000.0, "E_US")
    part0 = make_partition(orig, default_additional_set(orig))
    precond = build_sri_preconditioner(part0)
    part1 = update_partition(part0, mod)
    r = mod.load_vector()
    sri_times, conv_times = [], []
    for _ in range(3):
        rep_sri = solve_sri(part1, r, precond, tol=1e-12)
        rep_conv = solve_conventional(mod)
        sri_times.append(rep_sri.wall_time)
        conv_times.append(rep_conv.wall_time)
    assert rel_err(rep_sri.d, rep_conv.d) < 1e-8
    t_sri, t_conv = sorted(sri_times)[1], sorted(conv_times)[1]
    assert t_sri < t_conv, f"sri {t_sri:.3f}s !< conventional {t_conv:.3f}s"
    print("ACCEPTANCE PASS 8c: reduced solve faster than complete analysis "
          f"({t_sri:.3f}s vs {t_conv:.3f}s median of 3)")


def test_c09_exact_preconditioner_single_iteration():
    """Solving the unmodified structure with its own operators converges in
    exactly one iteration for both iterative paths."""
    orig = build_truss_grid(7, 16)
    part = make_partition(orig, default_additional_set(orig))
    precond = build_sri_preconditioner(part)
    k0 = factorize_stiffness(orig)
    r = orig.load_vector()
    rep_sri = solve_sri(part, r, precond, tol=1e-12)
    rep_pcg = solve_pcg_full(orig, k0, tol=1e-12)
    assert rep_sri.iterations == 1 and rep_sri.converged
    assert rep_pcg.iterations == 1 and rep_pcg.converged
    print("ACCEPTANCE PASS 9: self-reanalysis converges in exactly one iteration")
