"""Element decomposition tests against textbook and quadrature oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reanalyze.elements import (
    FgSectionConstants,
    bar_rows,
    beam_decomposition,
    bilinear_stress,
    fg_beam_decomposition,
    fg_section_constants,
    mode_rows,
    truss_decomposition,
)
from reanalyze.errors import DegenerateElementError, InvalidMaterialError, InvalidParameterError

from helpers import (
    beam_rotation,
    eb_local_stiffness,
    element_rows,
    element_stiffness,
    fg_beam_local_stiffness,
    graded_profile_moments,
    truss_global_stiffness,
)

lengths = st.floats(0.1, 2000.0)
angles = st.floats(-np.pi, np.pi)
moduli = st.floats(100.0, 1e6)
areas = st.floats(0.5, 2000.0)
inertias = st.floats(0.5, 1e6)


class TestTrussDecomposition:
    def test_parameter_value(self):
        assert truss_decomposition(20000.0, 20.0, 500.0) == pytest.approx(
            2 * 20000 * 20 / 500)  # 1600

    def test_reconstruction_along_x(self):
        k = element_stiffness(truss_decomposition(20000.0, 20.0, 500.0), 500.0, 0.0)
        expected = truss_global_stiffness(20000.0, 20.0, 500.0, 0.0)
        assert np.allclose(k, expected, rtol=1e-13, atol=0)

    def test_vertical_bar_row(self):
        expected = np.array([0.0, -1.0, 0.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(element_rows(100.0, np.pi / 2, 1)[0], expected, atol=1e-15)

    def test_linear_in_modulus(self):
        k1 = truss_decomposition(1000.0, 5.0, 100.0)
        k2 = truss_decomposition(2000.0, 5.0, 100.0)
        assert k2 == pytest.approx(2 * k1)

    @given(lengths, angles, moduli, areas)
    @settings(max_examples=200, deadline=None)
    def test_reconstruction_property(self, length, angle, young, area):
        k = element_stiffness(truss_decomposition(young, area, length), length, angle)
        expected = truss_global_stiffness(young, area, length, angle)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(k - expected)) <= 1e-12 * scale
        rows = element_rows(length, angle, 1)
        assert rows.shape == (1, 4)
        assert np.linalg.norm(rows[0]) == pytest.approx(1.0, abs=1e-12)


class TestBarKernel:
    @given(st.lists(st.tuples(lengths, angles, moduli, areas), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_arrays_match_single_bars(self, bars):
        length, angle, young, area = (np.array(v) for v in zip(*bars))
        rows = bar_rows(np.column_stack([length * np.cos(angle), length * np.sin(angle)]),
                        length)
        params = truss_decomposition(young, area, length)
        for i, (l_i, a_i, e_i, area_i) in enumerate(bars):
            assert np.allclose(rows[i], element_rows(l_i, a_i, 1)[0], rtol=0.0, atol=1e-15)
            assert params[i] == truss_decomposition(e_i, area_i, l_i)


class TestBeamParameterMatrix:
    def test_values_match_mode_projection(self):
        # oracle: project the textbook stiffness onto the mode rows
        e_mod, area, inertia, length = 20000.0, 300.0, 22500.0, 500.0
        rows = element_rows(length, 0.0, 3)
        k_std = eb_local_stiffness(e_mod, area, inertia, length)
        projected = rows @ k_std @ rows.T
        built = beam_decomposition(e_mod, area, inertia, length)
        assert np.allclose(built, projected, rtol=1e-12)
        assert built[0, 0] == pytest.approx(24000.0)          # 2EA/L
        assert built[1, 1] == pytest.approx(1.8e6)            # 2EI/L
        assert built[2, 2] == pytest.approx(5.4000864e6)      # 6EI(L^2+4)/L^3

    def test_length_scaling(self):
        k1 = beam_decomposition(1000.0, 10.0, 100.0, 2.0)
        k2 = beam_decomposition(1000.0, 10.0, 100.0, 4.0)
        assert k2[0, 0] == pytest.approx(k1[0, 0] / 2)
        assert k2[1, 1] == pytest.approx(k1[1, 1] / 2)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(InvalidParameterError):
            beam_decomposition(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(DegenerateElementError):
            beam_decomposition(1.0, 1.0, 1.0, -2.0)


class TestBeamModeRows:
    def test_explicit_antisymmetric_row(self):
        rows = element_rows(2.0, 0.0, 3)
        assert np.allclose(rows[2], np.array([0, 2, 2, 0, -2, 2]) / 4.0)

    @given(lengths)
    @settings(max_examples=100, deadline=None)
    def test_unit_norms(self, length):
        rows = element_rows(length, 0.0, 3)
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)

    @given(lengths, angles)
    @settings(max_examples=200, deadline=None)
    def test_global_rows_are_rotated_local_rows(self, length, angle):
        expected = element_rows(length, 0.0, 3) @ beam_rotation(angle)
        assert np.max(np.abs(element_rows(length, angle, 3) - expected)) <= 1e-15

    def test_unit_reconstruction(self):
        k_l = beam_decomposition(1.0, 1.0, 1.0, 1.0)
        rows = element_rows(1.0, 0.0, 3)
        assert np.allclose(rows.T @ k_l @ rows, eb_local_stiffness(1.0, 1.0, 1.0, 1.0),
                           rtol=1e-13, atol=1e-13)

    @given(lengths, angles, moduli, areas, inertias)
    @settings(max_examples=200, deadline=None)
    def test_reconstruction_property(self, length, angle, young, area, inertia):
        k = element_stiffness(beam_decomposition(young, area, inertia, length), length, angle)
        t = beam_rotation(angle)
        expected = t.T @ eb_local_stiffness(young, area, inertia, length) @ t
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(k - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("m", [1, 3])
    def test_axis_members_have_exact_zeros(self, m):
        # the axis form divides the end-to-end vector by the length, so a
        # member along a global axis carries no cos(pi/2) residue
        delta = np.array([[0.0, 300.0], [-250.0, 0.0]])
        rows = mode_rows(delta, np.array([300.0, 250.0]), m)
        assert rows.shape == (2, m, m + 3)
        dofs = m + 3
        v_end, u_end = [1, dofs // 2 + 1], [0, dofs // 2]
        assert np.all(rows[0, 0, u_end] == 0.0) and np.all(rows[1, 0, v_end] == 0.0)
        assert np.array_equal(rows[0, 0, v_end], np.array([-1.0, 1.0]) / np.sqrt(2.0))

    def test_mode_count(self):
        assert element_rows(3.0, 0.0, 3).shape == (3, 6)
        assert element_rows(3.0, 0.0, 1).shape == (1, 4)


class TestGradedSectionConstants:
    def test_homogeneous_limit(self):
        c = fg_section_constants(3.0, 2.5, 500.0, 500.0)
        assert c.a_e == pytest.approx(3.0 * 500.0)
        assert c.b_e == 0.0
        assert c.d_e == pytest.approx(27.0 * 500.0 / 12.0)

    def test_linear_profile_values(self):
        # oracle first: quadrature of the profile for h=1, p=1, E = 2/1
        a_ref, b_ref, d_ref = graded_profile_moments(1.0, 1.0, 2.0, 1.0)
        assert (a_ref, b_ref) == (pytest.approx(1.5), pytest.approx(1.0 / 12.0))
        assert d_ref == pytest.approx(0.125)
        c = fg_section_constants(1.0, 1.0, 2.0, 1.0)
        assert c.a_e == pytest.approx(a_ref, rel=1e-12)
        assert c.b_e == pytest.approx(b_ref, rel=1e-12)
        assert c.d_e == pytest.approx(d_ref, rel=1e-12)

    def test_uniform_upper_material_at_zero_exponent(self):
        c = fg_section_constants(2.0, 0.0, 700.0, 100.0)
        a_ref, b_ref, d_ref = graded_profile_moments(2.0, 0.0, 700.0, 100.0)
        assert c.a_e == pytest.approx(2.0 * 700.0) and c.a_e == pytest.approx(a_ref)
        assert c.b_e == pytest.approx(0.0, abs=1e-12) and b_ref == pytest.approx(0.0, abs=1e-9)
        assert c.d_e == pytest.approx(8.0 * 700.0 / 12.0) and c.d_e == pytest.approx(d_ref)

    @given(st.floats(0.2, 60.0), st.floats(0.0, 10.0), st.floats(0.1, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_quadrature(self, height, exponent, ratio):
        e_lower = 1000.0
        e_upper = ratio * e_lower
        c = fg_section_constants(height, exponent, e_upper, e_lower)
        a_ref, b_ref, d_ref = graded_profile_moments(height, exponent, e_upper, e_lower)
        assert c.a_e == pytest.approx(a_ref, rel=1e-10)
        assert c.b_e == pytest.approx(b_ref, rel=1e-10, abs=1e-10 * abs(a_ref) * height)
        assert c.d_e == pytest.approx(d_ref, rel=1e-10)

    def test_simplified_coupling_drops_exponent_factor(self):
        exact = fg_section_constants(2.0, 4.0, 900.0, 300.0, coupling="exact")
        simplified = fg_section_constants(2.0, 4.0, 900.0, 300.0, coupling="simplified")
        assert exact.b_e == pytest.approx(4.0 * simplified.b_e)
        assert exact.a_e == simplified.a_e and exact.d_e == simplified.d_e
        # conventions coincide at p = 1
        e1 = fg_section_constants(2.0, 1.0, 900.0, 300.0, coupling="exact")
        s1 = fg_section_constants(2.0, 1.0, 900.0, 300.0, coupling="simplified")
        assert e1 == s1

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            fg_section_constants(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            fg_section_constants(1.0, -0.5, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            fg_section_constants(1.0, 1.0, 1.0, 1.0, coupling="bogus")


class TestGradedBeamMatrices:
    def test_homogeneous_reduction(self):
        b, h, e_mod, length = 10.0, 30.0, 20000.0, 500.0
        c = fg_section_constants(h, 1.7, e_mod, e_mod)
        graded = fg_beam_decomposition(b, c, length)
        homog = beam_decomposition(e_mod, b * h, b * h**3 / 12.0, length)
        assert np.allclose(graded, homog, rtol=1e-12)
        assert graded[0, 1] == 0.0

    def test_explicit_substitution(self):
        c = FgSectionConstants(1.5, 1.0 / 12.0, 5.0 / 24.0)
        k = fg_beam_decomposition(1.0, c, 1.0)
        expected = np.array([
            [3.0, -1.0 / 6.0, 0.0],
            [-1.0 / 6.0, 5.0 / 12.0, 0.0],
            [0.0, 0.0, 6.25],
        ])
        assert np.allclose(k, expected, rtol=1e-14)

    def test_rejects_indefinite_constants(self):
        with pytest.raises(InvalidMaterialError):
            fg_beam_decomposition(1.0, FgSectionConstants(1.0, 2.0, 1.0), 1.0)

    def test_local_stiffness_symmetric_rank3(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = rng.uniform(1.0, 40.0)
            p = rng.uniform(0.0, 8.0)
            c = fg_section_constants(h, p, rng.uniform(1e3, 1e5), rng.uniform(1e3, 1e5))
            k = fg_beam_local_stiffness(rng.uniform(1.0, 20.0), c, rng.uniform(10.0, 900.0))
            assert np.allclose(k, k.T, rtol=1e-13)
            sv = np.linalg.svd(k, compute_uv=False)
            assert np.sum(sv > 1e-9 * sv[0]) == 3

    def test_decoupled_blocks_without_coupling(self):
        k = fg_beam_local_stiffness(2.0, FgSectionConstants(5.0, 0.0, 3.0), 10.0)
        axial = [0, 3]
        bending = [1, 2, 4, 5]
        assert np.all(k[np.ix_(axial, bending)] == 0.0)

    @given(st.floats(0.5, 30.0), st.floats(0.2, 60.0), st.floats(0.0, 10.0),
           st.floats(0.1, 10.0), lengths, angles)
    @settings(max_examples=200, deadline=None)
    def test_reconstruction_property(self, width, height, exponent, ratio, length, angle):
        e_lower = 5000.0
        c = fg_section_constants(height, exponent, ratio * e_lower, e_lower)
        k = element_stiffness(fg_beam_decomposition(width, c, length), length, angle)
        t = beam_rotation(angle)
        expected = t.T @ fg_beam_local_stiffness(width, c, length) @ t
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(k - expected)) <= 1e-12 * scale


class TestBilinearStress:
    def test_origin(self):
        assert bilinear_stress(0.0, 2e5, 0.3e5, 25.0) == (0.0, 2e5, False)

    def test_yield_boundary_is_elastic(self):
        e0, sigma_y = 2e5, 25.0
        stress, tangent, yielded = bilinear_stress(sigma_y / e0, e0, 0.3e5, sigma_y)
        assert stress == pytest.approx(sigma_y)
        assert tangent == e0 and not yielded

    def test_hardening_branch_value(self):
        stress, tangent, yielded = bilinear_stress(2e-4, 2e5, 0.3e5, 25.0)
        assert stress == pytest.approx(27.25)
        assert tangent == 0.3e5 and yielded

    @given(st.floats(-5e-3, 5e-3))
    @settings(max_examples=200, deadline=None)
    def test_odd_and_continuous(self, strain):
        e0, et, sigma_y = 2e5, 0.3e5, 25.0
        s_pos, _, _ = bilinear_stress(strain, e0, et, sigma_y)
        s_neg, _, _ = bilinear_stress(-strain, e0, et, sigma_y)
        assert s_pos == pytest.approx(-s_neg, abs=1e-12)

    def test_tangent_is_derivative_away_from_kink(self):
        e0, et, sigma_y = 2e5, 0.3e5, 25.0
        h = 1e-8
        for strain in (0.5e-4, 3e-4, -2.5e-4):
            s1, tangent, _ = bilinear_stress(strain, e0, et, sigma_y)
            s_hi, _, _ = bilinear_stress(strain + h, e0, et, sigma_y)
            s_lo, _, _ = bilinear_stress(strain - h, e0, et, sigma_y)
            fd = (s_hi - s_lo) / (2 * h)
            assert fd == pytest.approx(tangent, rel=1e-6)

    def test_piecewise_linear_continuity_at_yield(self):
        e0, et, sigma_y = 2e5, 0.3e5, 25.0
        eps_y = sigma_y / e0
        below, _, _ = bilinear_stress(eps_y * (1 - 1e-12), e0, et, sigma_y)
        above, _, _ = bilinear_stress(eps_y * (1 + 1e-12), e0, et, sigma_y)
        assert below == pytest.approx(above, rel=1e-9)
