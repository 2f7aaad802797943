"""Model JSON round-trip and schema enforcement."""

import json

import jsonschema
import numpy as np
import pytest

from reanalyze.assembly import assemble_global
from reanalyze.errors import InvalidParameterError
from reanalyze.model import MaterialSpec, build_frame_grid, build_truss_grid, default_additional_set
from reanalyze.modelio import from_document, load_model, save_model, schema, to_document
from reanalyze.solvers import solve_conventional


class TestRoundTrip:
    def test_truss_roundtrip_preserves_solution(self, tmp_path):
        model = build_truss_grid(3, 2, area=17.5, material=MaterialSpec(e=21234.5))
        spec = default_additional_set(model)
        path = tmp_path / "truss.json"
        save_model(model, path, spec)
        loaded, spec2 = load_model(path)
        assert spec2 == spec
        assert loaded.n == model.n
        assert loaded.meta["node_b"] == model.meta["node_b"]
        d0 = solve_conventional(model).d
        d1 = solve_conventional(loaded).d
        assert np.array_equal(d0, d1)  # full-precision number round-trip

    def test_graded_frame_roundtrip(self, tmp_path):
        fg = MaterialSpec(e_us=26000.0, e_ls=14000.0, p=0.75, fg_coupling="simplified")
        model = build_frame_grid(2, 2, n_sb=2, n_sc=2, material=fg)
        path = tmp_path / "frame.json"
        save_model(model, path)
        loaded, spec = load_model(path)
        assert spec is None
        elem = loaded.elements[0]
        assert elem.material.fg_coupling == "simplified"
        assert elem.material.p == 0.75
        assert np.array_equal(solve_conventional(model).d, solve_conventional(loaded).d)

    def test_document_validates_against_schema(self):
        doc = to_document(build_truss_grid(2, 2))
        jsonschema.validate(doc, schema("model"))


class TestSchemaEnforcement:
    def test_rejects_unknown_field(self):
        doc = to_document(build_truss_grid(1, 1))
        doc["extra"] = 1
        with pytest.raises(jsonschema.ValidationError):
            from_document(doc)

    def test_rejects_bad_kind(self):
        doc = to_document(build_truss_grid(1, 1))
        doc["elements"][0]["kind"] = "SpaceFrame"
        with pytest.raises(jsonschema.ValidationError):
            from_document(doc)

    def test_rejects_partition_outside_element_range(self):
        model = build_truss_grid(1, 1)
        doc = to_document(model)
        doc["partition"] = {"additional_ids": [99]}
        with pytest.raises(InvalidParameterError):
            from_document(doc)

    def test_bar_without_area_is_a_package_error(self, tmp_path):
        # the schema and the model accept a bar section without an area;
        # assembly must then name the element, not fail on 2 E None / L
        doc = to_document(build_truss_grid(2, 2))
        del doc["elements"][3]["section"]["area"]
        path = tmp_path / "no_area.json"
        path.write_text(json.dumps(doc))
        model, _ = load_model(path)
        with pytest.raises(InvalidParameterError, match="element 3: bar section needs area"):
            assemble_global(model)

    def test_load_reports_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            load_model(path)
