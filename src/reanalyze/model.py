"""Structural data model and the two parametric grid generators.

Both generators lay nodes on a regular 500 cm grid: the truss ladder carries
pin-jointed bars with pinned base nodes, the frame carries rigid-jointed beam
elements with fixed base nodes.  Floors are numbered 1-based from the bottom;
member tags record (member kind, floor, span, segment) so that floor-graded
material assignment and the default basis/additional split never have to
re-derive topology from coordinates.

StructuralModel owns element identity (element i is record i, with id i) and
checks that element ends, supports and loads name existing nodes and DOFs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError, UnsupportedModelError


class ElementKind(str, Enum):
    TRUSS_BAR = "TrussBar"
    HOMOGENEOUS_BEAM = "HomogeneousBeam"
    FG_BEAM = "FgBeam"

    @property
    def dofs_per_node(self) -> int:
        return 2 if self is ElementKind.TRUSS_BAR else 3


@dataclass(frozen=True)
class Node:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class SectionSpec:
    """Cross-section data; unused fields stay None.

    When both (area, inertia) and (width, height) are present they must be
    consistent: area = width*height and inertia = width*height^3/12.
    """

    area: float | None = None
    inertia: float | None = None
    width: float | None = None
    height: float | None = None

    def __post_init__(self):
        for name in ("area", "inertia", "width", "height"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v > 0.0):
                raise InvalidParameterError(
                    f"section {name} must be positive and finite, got {v}")
        if self.width is not None and self.height is not None:
            a = self.width * self.height
            i = self.width * self.height**3 / 12.0
            if self.area is not None and not math.isclose(self.area, a, rel_tol=1e-9):
                raise InvalidParameterError(
                    f"area {self.area} inconsistent with width*height = {a}")
            if self.inertia is not None and not math.isclose(self.inertia, i, rel_tol=1e-9):
                raise InvalidParameterError(
                    f"inertia {self.inertia} inconsistent with width*height^3/12 = {i}")


@dataclass(frozen=True)
class MaterialSpec:
    """Material data; populate the fields the element kind needs.

    e          homogeneous Young's modulus (kN/cm^2)
    e_us/e_ls  upper/lower surface moduli of a depth-graded section
    p          power-law exponent of the grading profile
    e0/et      initial and tangent moduli of the bilinear law
    sigma_y    yield stress of the bilinear law
    """

    e: float | None = None
    e_us: float | None = None
    e_ls: float | None = None
    p: float | None = None
    e0: float | None = None
    et: float | None = None
    sigma_y: float | None = None
    fg_coupling: str | None = None  # None/"exact" or "simplified"

    def __post_init__(self):
        for name in ("e", "e_us", "e_ls", "p", "e0", "et", "sigma_y"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise InvalidParameterError(f"material {name} must be finite, got {v}")
        for name in ("e", "e_us", "e_ls", "e0", "sigma_y"):
            v = getattr(self, name)
            if v is not None and v <= 0.0:
                raise InvalidParameterError(f"material {name} must be positive, got {v}")
        if self.p is not None and self.p < 0.0:
            raise InvalidParameterError(f"power-law exponent must be >= 0, got {self.p}")
        if self.et is not None and self.et < 0.0:
            raise InvalidParameterError(f"tangent modulus must be >= 0, got {self.et}")
        if self.fg_coupling not in (None, "exact", "simplified"):
            raise InvalidParameterError(
                f"unknown coupling convention {self.fg_coupling!r}")


@dataclass(frozen=True)
class MemberTag:
    """Where a member sits in the generated grid (all indices 1-based except
    column lines, which run 0..n_span)."""

    kind: str  # chord | vertical | diagonal | column | beam-segment
    floor: int
    span: int
    segment: int = 1


@dataclass(frozen=True)
class ElementRecord:
    id: int
    kind: ElementKind
    node_i: int
    node_j: int
    section: SectionSpec
    material: MaterialSpec
    tag: MemberTag

    def __post_init__(self):
        if self.node_i == self.node_j:
            raise InvalidParameterError(f"element {self.id} connects a node to itself")


@dataclass(frozen=True)
class PointLoad:
    node: int
    dof: int  # local dof index: 0=x, 1=y, 2=rotation
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise InvalidParameterError(
                f"load on node {self.node}, DOF {self.dof} must be finite, got {self.value}")


@dataclass(frozen=True)
class PartitionSpec:
    """Element ids forming the additional-component set; the complement is the
    basis system."""

    additional_ids: frozenset[int]

    @staticmethod
    def of(ids) -> "PartitionSpec":
        return PartitionSpec(frozenset(int(i) for i in ids))


class StructuralModel:
    """Immutable assembled-model container with a dense free-DOF numbering.

    Node and element ids are their list positions; element ends, supports
    and loads must name existing nodes and DOFs (InvalidParameterError).
    dof_map[node, local_dof] is the global free-DOF index or -1 when the DOF
    is constrained.  Free DOFs are numbered node-major in node-id order.
    xy[node] holds the node coordinates and element_nodes[element] the
    (node_i, node_j) pair of each element; assembly.element_geometry reads
    the element geometry from these arrays.
    """

    def __init__(self, nodes: list[Node], elements: list[ElementRecord],
                 supports: dict[int, tuple[int, ...]], loads: list[PointLoad],
                 meta: dict | None = None):
        self.nodes = tuple(nodes)
        self.elements = tuple(elements)
        self.supports = {k: tuple(sorted(set(v))) for k, v in supports.items()}
        self.loads = tuple(loads)
        self.meta = dict(meta or {})

        if [nd.id for nd in self.nodes] != list(range(len(self.nodes))):
            raise InvalidParameterError("node ids must be dense 0..N-1 in order")
        if [e.id for e in self.elements] != list(range(len(self.elements))):
            raise InvalidParameterError("element ids must be dense 0..E-1 in order")
        for nd in self.nodes:
            if not (math.isfinite(nd.x) and math.isfinite(nd.y)):
                raise InvalidParameterError(f"node {nd.id} has non-finite coordinates")

        kinds = {e.kind for e in self.elements}
        dpn = {k.dofs_per_node for k in kinds}
        if len(dpn) > 1:
            raise InvalidParameterError("mixed truss/beam models are not supported")
        self.dofs_per_node = dpn.pop() if dpn else 2

        n_nodes = len(self.nodes)
        for e in self.elements:
            if not (0 <= e.node_i < n_nodes and 0 <= e.node_j < n_nodes):
                raise InvalidParameterError(f"element {e.id} ends at nodes {e.node_i}, "
                                            f"{e.node_j}; the model has 0..{n_nodes - 1}")
        for what, node, dofs in ([("support", k, v) for k, v in self.supports.items()]
                                 + [("load", ld.node, (ld.dof,)) for ld in self.loads]):
            if not (0 <= node < n_nodes and all(0 <= d < self.dofs_per_node for d in dofs)):
                raise InvalidParameterError(
                    f"{what} on node {node}, DOFs {dofs}: the model has nodes "
                    f"0..{n_nodes - 1} with DOFs 0..{self.dofs_per_node - 1}")

        self.dof_map = np.full((len(self.nodes), self.dofs_per_node), -1, dtype=np.int64)
        idx = 0
        for nd in self.nodes:
            fixed = set(self.supports.get(nd.id, ()))
            for d in range(self.dofs_per_node):
                if d not in fixed:
                    self.dof_map[nd.id, d] = idx
                    idx += 1
        self.n = idx

        for ld in self.loads:
            if self.dof_map[ld.node, ld.dof] < 0:
                raise InvalidParameterError(
                    f"load targets constrained DOF (node {ld.node}, dof {ld.dof})")

        self.xy = np.array([[nd.x, nd.y] for nd in self.nodes]).reshape(-1, 2)
        ne = len(self.elements)
        self.element_nodes = np.column_stack([
            np.fromiter((e.node_i for e in self.elements), np.int64, ne),
            np.fromiter((e.node_j for e in self.elements), np.int64, ne)])

    def load_vector(self) -> np.ndarray:
        r = np.zeros(self.n)
        for ld in self.loads:
            r[self.dof_map[ld.node, ld.dof]] += ld.value
        return r

    def replace_materials(self, materials: dict[int, MaterialSpec]) -> "StructuralModel":
        """New model with the given element materials swapped in; raises
        InvalidParameterError naming the first id that is no element's."""
        outside = next((i for i in materials if not 0 <= i < len(self.elements)), None)
        if outside is not None:
            raise InvalidParameterError(
                f"material id {outside} outside element range 0..{len(self.elements) - 1}")
        elems = [dataclasses.replace(e, material=materials[e.id]) if e.id in materials else e
                 for e in self.elements]
        return StructuralModel(list(self.nodes), elems, self.supports, list(self.loads), self.meta)

    def n_floors(self) -> int:
        if "n_floor" in self.meta:
            return int(self.meta["n_floor"])
        if not self.elements:
            raise UnsupportedModelError("model carries no floor information")
        return max(e.tag.floor for e in self.elements)


# -- generators ---------------------------------------------------------------


def spans_from_level(a: int) -> int:
    """Span count of the truss ladder at refinement level a: 2^a - 1."""
    if a <= 0:
        raise InvalidParameterError(f"level must be >= 1, got {a}")
    return 2**a - 1


def build_truss_grid(n_span: int, n_floor: int, span: float = 500.0, height: float = 500.0,
                     area: float = 20.0, load: float = 20.0,
                     material: MaterialSpec | None = None) -> StructuralModel:
    """Pin-jointed ladder truss: n_span x n_floor panels of verticals, chords
    and one lower-left to upper-right diagonal per panel.

    Every bar gets material, by default MaterialSpec(e=20000.0); a Newton run
    needs its bilinear fields e0, et and sigma_y.  Base nodes are pinned; a
    horizontal point load acts at every free left-edge node.  Free DOF count
    is 2 * n_floor * (n_span + 1).
    """
    if n_span < 1 or n_floor < 1:
        raise InvalidParameterError("n_span and n_floor must be >= 1")
    if span <= 0 or height <= 0 or area <= 0 or load <= 0:
        raise InvalidParameterError("span, height, area and load must be positive")
    mat = material if material is not None else MaterialSpec(e=20000.0)
    sec = SectionSpec(area=area)

    cols = n_span + 1
    nid = lambda row, col: row * cols + col
    nodes = [Node(nid(r, c), c * span, r * height)
             for r in range(n_floor + 1) for c in range(cols)]

    elements: list[ElementRecord] = []

    def bar(i, j, tag):
        elements.append(ElementRecord(len(elements), ElementKind.TRUSS_BAR, i, j, sec, mat, tag))

    for f in range(1, n_floor + 1):
        for c in range(cols):
            bar(nid(f - 1, c), nid(f, c), MemberTag("vertical", f, c, 1))
        for j in range(1, n_span + 1):
            bar(nid(f, j - 1), nid(f, j), MemberTag("chord", f, j, 1))
        for j in range(1, n_span + 1):
            bar(nid(f - 1, j - 1), nid(f, j), MemberTag("diagonal", f, j, 1))

    supports = {nid(0, c): (0, 1) for c in range(cols)}
    loads = [PointLoad(nid(f, 0), 0, load) for f in range(1, n_floor + 1)]
    meta = {
        "generator": "truss_grid", "n_span": n_span, "n_floor": n_floor,
        "span": span, "height": height,
        "node_a": nid(n_floor, 0), "node_b": nid(n_floor, n_span),
    }
    return StructuralModel(nodes, elements, supports, loads, meta)


def build_frame_grid(n_span: int, n_floor: int, n_sb: int = 1, n_sc: int = 1,
                     width: float = 10.0, depth: float = 30.0,
                     material: MaterialSpec | None = None, load: float = 20.0,
                     span: float = 500.0, height: float = 500.0) -> StructuralModel:
    """Rigid-jointed frame grid: every beam split into n_sb elements, every
    column into n_sc elements.  Bays are span wide and stories height tall,
    as in build_truss_grid.

    Base junction nodes are fixed in all three DOFs; a horizontal point load
    acts at every free left-edge junction.  Element kind is depth-graded when
    the material carries surface moduli, homogeneous otherwise.
    """
    if min(n_span, n_floor, n_sb, n_sc) < 1:
        raise InvalidParameterError("all frame counts must be >= 1")
    if span <= 0 or height <= 0 or width <= 0 or depth <= 0 or load <= 0:
        raise InvalidParameterError("span, height, width, depth and load must be positive")
    mat = material if material is not None else MaterialSpec(e=20000.0)
    kind = ElementKind.FG_BEAM if mat.e_us is not None else ElementKind.HOMOGENEOUS_BEAM
    if kind is ElementKind.FG_BEAM and (mat.e_ls is None or mat.p is None):
        raise InvalidParameterError("graded material needs e_us, e_ls and p")
    sec = SectionSpec(area=width * depth, inertia=width * depth**3 / 12.0,
                      width=width, height=depth)

    cols = n_span + 1
    junction = lambda level, c: level * cols + c
    nodes = [Node(junction(lv, c), c * span, lv * height)
             for lv in range(n_floor + 1) for c in range(cols)]

    col_mid: dict[tuple[int, int, int], int] = {}
    for s in range(1, n_floor + 1):
        for c in range(cols):
            for k in range(1, n_sc):
                col_mid[(s, c, k)] = len(nodes)
                nodes.append(Node(len(nodes), c * span, (s - 1) * height + k * height / n_sc))

    beam_mid: dict[tuple[int, int, int], int] = {}
    for f in range(1, n_floor + 1):
        for j in range(1, n_span + 1):
            for k in range(1, n_sb):
                beam_mid[(f, j, k)] = len(nodes)
                nodes.append(Node(len(nodes), (j - 1) * span + k * span / n_sb, f * height))

    elements: list[ElementRecord] = []

    def member(i, j, tag):
        elements.append(ElementRecord(len(elements), kind, i, j, sec, mat, tag))

    for s in range(1, n_floor + 1):
        for c in range(cols):
            chain = [junction(s - 1, c)] + [col_mid[(s, c, k)] for k in range(1, n_sc)] \
                + [junction(s, c)]
            for k in range(1, n_sc + 1):
                member(chain[k - 1], chain[k], MemberTag("column", s, c, k))
    for f in range(1, n_floor + 1):
        for j in range(1, n_span + 1):
            chain = [junction(f, j - 1)] + [beam_mid[(f, j, k)] for k in range(1, n_sb)] \
                + [junction(f, j)]
            for k in range(1, n_sb + 1):
                member(chain[k - 1], chain[k], MemberTag("beam-segment", f, j, k))

    supports = {junction(0, c): (0, 1, 2) for c in range(cols)}
    loads = [PointLoad(junction(f, 0), 0, load) for f in range(1, n_floor + 1)]
    meta = {
        "generator": "frame_grid", "n_span": n_span, "n_floor": n_floor,
        "n_sb": n_sb, "n_sc": n_sc, "span": span, "height": height,
        "node_a": junction(n_floor, 0), "node_b": junction(n_floor, n_span),
    }
    return StructuralModel(nodes, elements, supports, loads, meta)


# -- modification --------------------------------------------------------------


def floor_value(floor: int, n_floor: int, e_lower: float, e_upper: float) -> float:
    """Linear bottom-to-top grading: floor 1 gets e_upper, floor n_floor e_lower."""
    if n_floor == 1:
        return e_upper
    return e_upper - (floor - 1) * (e_upper - e_lower) / (n_floor - 1)


def apply_floor_grading(model: StructuralModel, e_lower: float, e_upper: float,
                        target: str = "E") -> StructuralModel:
    """New model whose elements get a floor-graded modulus.

    target "E" rewrites the homogeneous modulus (truss bars, homogeneous
    beams); target "E_US" rewrites only the upper-surface modulus of graded
    beams, leaving the lower surface untouched.
    """
    if e_lower > e_upper:
        raise InvalidParameterError("e_lower must not exceed e_upper")
    if e_lower <= 0.0:
        raise InvalidParameterError("moduli must be positive")
    nf = model.n_floors()
    updates: dict[int, MaterialSpec] = {}
    for elem in model.elements:
        value = floor_value(elem.tag.floor, nf, e_lower, e_upper)
        if target == "E":
            if elem.kind is ElementKind.FG_BEAM:
                raise InvalidParameterError("target E does not apply to graded beams")
            updates[elem.id] = dataclasses.replace(elem.material, e=value)
        elif target == "E_US":
            if elem.kind is not ElementKind.FG_BEAM:
                raise InvalidParameterError("target E_US applies only to graded beams")
            updates[elem.id] = dataclasses.replace(elem.material, e_us=value)
        else:
            raise InvalidParameterError(f"unknown grading target {target!r}")
    return model.replace_materials(updates)


def _replace_fg(model: StructuralModel, **fields) -> StructuralModel:
    """New model with the given material fields replaced on every graded beam."""
    updates = {e.id: dataclasses.replace(e.material, **fields)
               for e in model.elements if e.kind is ElementKind.FG_BEAM}
    if not updates:
        raise UnsupportedModelError("model has no graded beams")
    return model.replace_materials(updates)


def replace_fg_exponent(model: StructuralModel, p: float) -> StructuralModel:
    """New model with the power-law exponent replaced on every graded beam."""
    return _replace_fg(model, p=p)


def replace_fg_coupling(model: StructuralModel, coupling: str) -> StructuralModel:
    """New model with the coupling-moment convention set on every graded beam."""
    return _replace_fg(model, fg_coupling=coupling)


def default_additional_set(model: StructuralModel) -> PartitionSpec:
    """Additional components of a generator-built model.

    Truss ladder: the diagonals of spans 2..n_span (span 1 keeps its diagonal
    so the basis stays a determinate ladder).  Frame grid: the first element
    of every beam, detaching each beam chain from its left junction.
    """
    gen = model.meta.get("generator")
    if gen == "truss_grid":
        ids = [e.id for e in model.elements
               if e.tag.kind == "diagonal" and e.tag.span >= 2]
    elif gen == "frame_grid":
        ids = [e.id for e in model.elements
               if e.tag.kind == "beam-segment" and e.tag.segment == 1]
    else:
        raise UnsupportedModelError("default partition requires a generator-built model")
    return PartitionSpec.of(ids)
