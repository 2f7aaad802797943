"""Generator and data-model tests: counts, grading, default partitions."""

import dataclasses
import json

import numpy as np
import pytest

from reanalyze.errors import InvalidParameterError, UnsupportedModelError
from reanalyze.model import (
    ElementKind,
    MaterialSpec,
    Node,
    PointLoad,
    SectionSpec,
    StructuralModel,
    apply_floor_grading,
    build_frame_grid,
    build_truss_grid,
    default_additional_set,
    replace_fg_exponent,
    spans_from_level,
)
from reanalyze.modelio import from_document, to_document


class TestSpansFromLevel:
    @pytest.mark.parametrize("level,expected", [(1, 1), (2, 3), (3, 7), (4, 15), (5, 31), (6, 63)])
    def test_values(self, level, expected):
        assert spans_from_level(level) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            spans_from_level(0)


class TestTrussGrid:
    def test_reference_scale(self):
        m = build_truss_grid(31, 64)
        assert m.n == 4096
        assert len(m.elements) == 64 * (3 * 31 + 1)

    def test_nonlinear_scale(self):
        m = build_truss_grid(30, 150)
        assert m.n == 9300
        assert len(m.elements) == 13650

    def test_single_panel(self):
        m = build_truss_grid(1, 1)
        assert m.n == 4
        assert len(m.elements) == 4
        kinds = sorted(e.tag.kind for e in m.elements)
        assert kinds == ["chord", "diagonal", "vertical", "vertical"]

    def test_member_counts_per_kind(self):
        ns, nf = 5, 3
        m = build_truss_grid(ns, nf)
        verticals = [e for e in m.elements if e.tag.kind == "vertical"]
        chords = [e for e in m.elements if e.tag.kind == "chord"]
        diagonals = [e for e in m.elements if e.tag.kind == "diagonal"]
        assert len(verticals) == nf * (ns + 1)
        assert len(chords) == nf * ns
        assert len(diagonals) == nf * ns

    def test_base_row_pinned_and_left_edge_loaded(self):
        m = build_truss_grid(3, 2, load=20.0)
        for c in range(4):
            assert m.supports[c] == (0, 1)
        r = m.load_vector()
        assert np.count_nonzero(r) == 2
        assert r.sum() == pytest.approx(40.0)

    def test_diagonals_run_lower_left_to_upper_right(self):
        m = build_truss_grid(4, 2)
        for e in m.elements:
            if e.tag.kind == "diagonal":
                ni, nj = m.nodes[e.node_i], m.nodes[e.node_j]
                assert nj.x > ni.x and nj.y > ni.y

    def test_dof_map_is_bijective_on_free_dofs(self):
        m = build_truss_grid(4, 3)
        free = m.dof_map[m.dof_map >= 0]
        assert sorted(free.tolist()) == list(range(m.n))

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            build_truss_grid(0, 5)
        with pytest.raises(InvalidParameterError):
            build_truss_grid(3, 3, area=-1.0)


class TestFrameGrid:
    def test_node_count_with_beam_subdivision(self):
        m = build_frame_grid(50, 20, n_sb=2, n_sc=1)
        free_nodes = len(m.nodes) - 51
        assert free_nodes == 2020
        assert m.n == 3 * 2020

    def test_dof_count_with_full_subdivision(self):
        m = build_frame_grid(10, 10, n_sb=8, n_sc=8)
        assert m.n == 4740

    def test_portal_frame(self):
        m = build_frame_grid(1, 1, n_sb=1, n_sc=1)
        assert len(m.nodes) - 2 == 2  # two free junction nodes
        assert m.n == 6
        assert len(m.elements) == 3

    def test_node_count_formula(self):
        for n_sb, n_sc in [(1, 1), (3, 2), (2, 4)]:
            n_span, n_floor = 4, 3
            m = build_frame_grid(n_span, n_floor, n_sb=n_sb, n_sc=n_sc)
            expected = n_floor * ((n_span + 1) + (n_sb - 1) * n_span
                                  + (n_sc - 1) * (n_span + 1))
            assert len(m.nodes) - (n_span + 1) == expected

    def test_base_fixed_loads_at_junctions_only(self):
        m = build_frame_grid(2, 2, n_sb=2, n_sc=3, load=20.0)
        for c in range(3):
            assert m.supports[c] == (0, 1, 2)
        loaded = {ld.node for ld in m.loads}
        junctions = {m.meta["node_a"], 1 * 3 + 0}
        assert loaded == {3, 6}  # left-edge junctions of levels 1 and 2
        assert m.meta["node_a"] in loaded

    def test_section_consistency_enforced(self):
        with pytest.raises(InvalidParameterError):
            SectionSpec(area=10.0, width=10.0, height=30.0)

    def test_graded_kind_selection(self):
        fg = MaterialSpec(e_us=2e4, e_ls=2e4, p=1.0)
        m = build_frame_grid(1, 1, material=fg)
        assert all(e.kind is ElementKind.FG_BEAM for e in m.elements)
        with pytest.raises(InvalidParameterError):
            build_frame_grid(1, 1, material=MaterialSpec(e_us=2e4))


class TestGeneratorGeometry:
    @pytest.mark.parametrize("build", [build_truss_grid, build_frame_grid],
                             ids=["truss", "frame"])
    @pytest.mark.parametrize("field", ["span", "height"])
    @pytest.mark.parametrize("value", [0.0, -500.0])
    def test_rejects_nonpositive_bay(self, build, field, value):
        # a negative span would mirror the grid, a zero one fail at assembly
        with pytest.raises(InvalidParameterError, match="span, height"):
            build(2, 2, **{field: value})


class TestFloorGrading:
    def test_five_floor_profile(self):
        m = build_truss_grid(2, 5)
        g = apply_floor_grading(m, 16000.0, 28000.0, "E")
        by_floor = {}
        for e in g.elements:
            by_floor.setdefault(e.tag.floor, set()).add(e.material.e)
        assert by_floor == {1: {28000.0}, 2: {25000.0}, 3: {22000.0},
                            4: {19000.0}, 5: {16000.0}}

    def test_degenerate_grading(self):
        m = build_truss_grid(2, 4)
        g = apply_floor_grading(m, 20000.0, 20000.0, "E")
        assert {e.material.e for e in g.elements} == {20000.0}

    def test_three_floor_profile(self):
        m = build_truss_grid(1, 3)
        g = apply_floor_grading(m, 10000.0, 30000.0, "E")
        values = sorted({(e.tag.floor, e.material.e) for e in g.elements})
        assert values == [(1, 30000.0), (2, 20000.0), (3, 10000.0)]

    def test_upper_surface_target_keeps_lower_surface(self):
        fg = MaterialSpec(e_us=20000.0, e_ls=20000.0, p=1.0)
        m = build_frame_grid(2, 2, material=fg)
        g = apply_floor_grading(m, 4000.0, 36000.0, "E_US")
        assert {e.material.e_ls for e in g.elements} == {20000.0}
        assert {e.material.e_us for e in g.elements if e.tag.floor == 1} == {36000.0}
        assert {e.material.e_us for e in g.elements if e.tag.floor == 2} == {4000.0}

    def test_target_kind_mismatch(self):
        truss = build_truss_grid(1, 1)
        with pytest.raises(InvalidParameterError):
            apply_floor_grading(truss, 1.0e4, 2.0e4, "E_US")
        fg = build_frame_grid(1, 1, material=MaterialSpec(e_us=2e4, e_ls=2e4, p=1.0))
        with pytest.raises(InvalidParameterError):
            apply_floor_grading(fg, 1.0e4, 2.0e4, "E")
        with pytest.raises(InvalidParameterError):
            apply_floor_grading(truss, 3.0e4, 2.0e4, "E")

    def test_exponent_replacement(self):
        fg = build_frame_grid(1, 1, material=MaterialSpec(e_us=2e4, e_ls=2e4, p=1.0))
        g = replace_fg_exponent(fg, 2.5)
        assert {e.material.p for e in g.elements} == {2.5}
        with pytest.raises(UnsupportedModelError):
            replace_fg_exponent(build_truss_grid(1, 1), 2.0)


class TestDefaultAdditionalSet:
    def test_truss_ratio_quarter(self):
        m = build_truss_grid(3, 512)
        spec = default_additional_set(m)
        q = len(spec.additional_ids)  # one parameter per bar
        assert q / m.n == pytest.approx(0.250)

    def test_truss_ratio_formula(self):
        for a, expected in [(1, 0.0), (2, 0.25), (3, 0.375), (4, 0.438), (5, 0.469), (6, 0.484)]:
            ns = spans_from_level(a)
            m = build_truss_grid(ns, 4)
            spec = default_additional_set(m)
            ratio = len(spec.additional_ids) / m.n
            assert ratio == pytest.approx((ns - 1) / (2 * (ns + 1)), abs=1e-12)
            assert ratio == pytest.approx(expected, abs=5.1e-4)  # tabulated to 3 decimals

    def test_single_span_truss_has_empty_set(self):
        spec = default_additional_set(build_truss_grid(1, 7))
        assert spec.additional_ids == frozenset()

    def test_frame_first_beam_elements(self):
        m = build_frame_grid(50, 20, n_sb=1)
        spec = default_additional_set(m)
        n_members = len(spec.additional_ids)
        free_nodes = len(m.nodes) - 51
        assert n_members == 50 * 20
        assert n_members / free_nodes == pytest.approx(0.980, abs=5e-4)
        for i in spec.additional_ids:
            tag = m.elements[i].tag
            assert tag.kind == "beam-segment" and tag.segment == 1

    def test_frame_parameter_ratio_constant_in_floors(self):
        ratios = set()
        for n_floor in (2, 3, 4):
            m = build_frame_grid(10, n_floor, n_sb=8, n_sc=8)
            spec = default_additional_set(m)
            q = 3 * len(spec.additional_ids)
            ratios.add(round(q / m.n, 6))
        assert len(ratios) == 1
        assert ratios.pop() == pytest.approx(0.063, abs=5e-4)

    def test_requires_generated_model(self):
        nodes = [Node(0, 0.0, 0.0), Node(1, 100.0, 0.0)]
        elems = build_truss_grid(1, 1).elements[:1]
        hand = StructuralModel(nodes, [elems[0].__class__(
            0, ElementKind.TRUSS_BAR, 0, 1, SectionSpec(area=1.0),
            MaterialSpec(e=1.0), elems[0].tag)], {0: (0, 1)}, [])
        with pytest.raises(UnsupportedModelError):
            default_additional_set(hand)


class TestBasisCountInvariant:
    def test_basis_parameter_count_equals_dofs(self):
        for ns, nf in [(1, 1), (2, 3), (3, 2), (7, 4)]:
            m = build_truss_grid(ns, nf)
            spec = default_additional_set(m)
            basis = len(m.elements) - len(spec.additional_ids)
            assert basis == m.n
        for args in [(3, 2, 1, 1), (2, 2, 3, 2), (4, 3, 2, 4)]:
            m = build_frame_grid(*args)
            spec = default_additional_set(m)
            basis_params = 3 * (len(m.elements) - len(spec.additional_ids))
            assert basis_params == m.n


def rebuilt(model, elements=None, supports=None, loads=None):
    """The model with some of its element, support or load lists replaced."""
    return StructuralModel(list(model.nodes),
                           list(model.elements if elements is None else elements),
                           model.supports if supports is None else supports,
                           list(model.loads if loads is None else loads), model.meta)


class TestReferences:
    @pytest.mark.parametrize("case", ["element end", "support node", "support dof",
                                      "load node", "load dof"])
    def test_unknown_node_or_dof_rejected(self, case):
        model = build_truss_grid(2, 2)
        elements, supports, loads = list(model.elements), dict(model.supports), list(model.loads)
        if case == "element end":
            elements[0] = dataclasses.replace(elements[0], node_j=99)
        elif case == "support node":
            supports[99] = (0, 1)
        elif case == "support dof":
            supports[0] = (0, 1, 2)
        elif case == "load node":
            loads.append(PointLoad(99, 0, 1.0))
        else:
            loads.append(PointLoad(model.meta["node_a"], 2, 1.0))
        with pytest.raises(InvalidParameterError):
            rebuilt(model, elements, supports, loads)

    def test_element_ids_must_follow_list_order(self):
        # element i's stiffness rows sit at position i, so a swapped id would
        # silently pair records with the wrong rows
        model = build_truss_grid(2, 2)
        elements = list(model.elements)
        elements[0] = dataclasses.replace(elements[0], id=1)
        elements[1] = dataclasses.replace(elements[1], id=0)
        with pytest.raises(InvalidParameterError):
            rebuilt(model, elements)


    @pytest.mark.parametrize("ids, bad", [((999, -1), 999), ((-1, 3), -1), ((0, 14), 14)],
                             ids=["past-last", "negative", "one-past-last"])
    def test_unknown_material_id_rejected(self, ids, bad):
        # an id that is no element's would otherwise be dropped, and the
        # design come back unchanged
        model = build_truss_grid(2, 2)
        assert len(model.elements) == 14
        steel = MaterialSpec(e=21000.0)
        with pytest.raises(InvalidParameterError, match=f"^material id {bad} outside"):
            model.replace_materials(dict.fromkeys(ids, steel))
        assert model.replace_materials({13: steel}).elements[13].material == steel


class TestSpecValues:
    FIELDS = [(SectionSpec, name) for name in ("area", "inertia", "width", "height")] + [
        (MaterialSpec, name) for name in ("e", "e_us", "e_ls", "p", "e0", "et", "sigma_y")]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("spec, name", FIELDS,
                             ids=[f"{spec.__name__}.{name}" for spec, name in FIELDS])
    def test_non_finite_value_is_rejected(self, spec, name, value):
        # NaN passes a check that reads v <= 0.0; it must fail here, naming
        # the field, rather than later as a missing field or a singular matrix
        with pytest.raises(InvalidParameterError, match=f"{name} must be .*finite"):
            spec(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_load_is_rejected(self, value):
        # NaN passes the generators' load <= 0 check and a solve would
        # return NaN displacements; the load itself must fail, naming its
        # node and DOF, however the model is built
        with pytest.raises(InvalidParameterError, match="load on node 3, DOF 1 must be finite"):
            PointLoad(3, 1, value)
        with pytest.raises(InvalidParameterError, match="load"):
            build_truss_grid(2, 2, load=value)
        doc = to_document(build_truss_grid(2, 2))
        doc["loads"][0]["value"] = value
        node = doc["loads"][0]["node"]
        with pytest.raises(InvalidParameterError, match=f"load on node {node}, DOF 0"):
            from_document(json.loads(json.dumps(doc)))

    def test_zero_tangent_modulus_and_exponent_stay_valid(self):
        assert MaterialSpec(e0=2e5, et=0.0, sigma_y=25.0).et == 0.0
        assert MaterialSpec(e_us=2e4, e_ls=1e4, p=0.0).p == 0.0
