"""JSON export/import of structural models.

Documents follow schemas/model.schema.json; field names are fixed there and
numbers round-trip at full double precision (plain JSON decimal encoding).
"""

from __future__ import annotations

import dataclasses
import functools
import json
from importlib import resources
from pathlib import Path

import jsonschema

from .errors import InvalidParameterError
from .model import (
    ElementKind,
    ElementRecord,
    MaterialSpec,
    MemberTag,
    Node,
    PartitionSpec,
    PointLoad,
    SectionSpec,
    StructuralModel,
)

@functools.cache
def schema(name: str) -> dict:
    """The JSON Schema in schemas/<name>.schema.json ("model" or "scenario")."""
    path = resources.files("reanalyze.schemas").joinpath(f"{name}.schema.json")
    return json.loads(path.read_text())


def _clean(obj) -> dict:
    return {k: v for k, v in dataclasses.asdict(obj).items() if v is not None}


def to_document(model: StructuralModel, partition: PartitionSpec | None = None) -> dict:
    doc = {
        "format": "reanalyze-model",
        "version": 1,
        "meta": dict(model.meta),
        "nodes": [{"id": nd.id, "x": nd.x, "y": nd.y} for nd in model.nodes],
        "elements": [
            {
                "id": e.id,
                "kind": e.kind.value,
                "nodes": [e.node_i, e.node_j],
                "section": _clean(e.section),
                "material": _clean(e.material),
                "tag": dataclasses.asdict(e.tag),
            }
            for e in model.elements
        ],
        "supports": {str(nid): list(dofs) for nid, dofs in sorted(model.supports.items())},
        "loads": [{"node": ld.node, "dof": ld.dof, "value": ld.value} for ld in model.loads],
    }
    if partition is not None:
        doc["partition"] = {"additional_ids": sorted(partition.additional_ids)}
    return doc


def from_document(doc: dict) -> tuple[StructuralModel, PartitionSpec | None]:
    jsonschema.validate(doc, schema("model"))
    nodes = [Node(d["id"], d["x"], d["y"]) for d in doc["nodes"]]
    elements = [
        ElementRecord(
            id=d["id"],
            kind=ElementKind(d["kind"]),
            node_i=d["nodes"][0],
            node_j=d["nodes"][1],
            section=SectionSpec(**d["section"]),
            material=MaterialSpec(**d["material"]),
            tag=MemberTag(**d["tag"]),
        )
        for d in doc["elements"]
    ]
    supports = {int(k): tuple(v) for k, v in doc["supports"].items()}
    loads = [PointLoad(d["node"], d["dof"], d["value"]) for d in doc["loads"]]
    model = StructuralModel(nodes, elements, supports, loads, doc.get("meta"))
    partition = None
    if "partition" in doc:
        ids = doc["partition"]["additional_ids"]
        bad = [i for i in ids if i >= len(elements)]
        if bad:
            raise InvalidParameterError(f"partition references unknown elements {bad}")
        partition = PartitionSpec.of(ids)
    return model, partition


def save_model(model: StructuralModel, path: str | Path,
               partition: PartitionSpec | None = None) -> None:
    doc = to_document(model, partition)
    jsonschema.validate(doc, schema("model"))
    Path(path).write_text(json.dumps(doc, indent=1))


def load_model(path: str | Path) -> tuple[StructuralModel, PartitionSpec | None]:
    return from_document(json.loads(Path(path).read_text()))
