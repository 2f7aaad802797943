"""The reference solver reproduces published displacements on its own.

Run with: python3 -m pytest benchmark/test_oracle.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oracle  # noqa: E402
from reanalyze.model import (  # noqa: E402
    MaterialSpec,
    apply_floor_grading,
    build_frame_grid,
    build_truss_grid,
)
from references import FRAME_NODE_B, SEVEN_DIGITS, TRUSS_NODES_AB  # noqa: E402


@pytest.mark.parametrize("n_floor", sorted(TRUSS_NODES_AB))
def test_graded_ladder_nodes_a_b(n_floor):
    model = apply_floor_grading(build_truss_grid(31, n_floor), 5000.0, 35000.0, "E")
    d = oracle.solve(model)
    got = oracle.node_values(model, d, model.meta["node_a"]) \
        + oracle.node_values(model, d, model.meta["node_b"])
    assert got == pytest.approx(TRUSS_NODES_AB[n_floor], rel=SEVEN_DIGITS)


@pytest.mark.parametrize("n_sb", [1, 4])
def test_graded_frame_node_b(n_sb):
    model = apply_floor_grading(build_frame_grid(50, 20, n_sb=n_sb), 4000.0, 36000.0, "E")
    d = oracle.solve(model)
    got = oracle.node_values(model, d, model.meta["node_b"])
    assert got == pytest.approx(FRAME_NODE_B, rel=SEVEN_DIGITS)


def test_bilinear_force_is_linear_below_yield():
    model = build_truss_grid(3, 2, area=200.0, load=500.0,
                             material=MaterialSpec(e0=2e5, et=0.3e5, sigma_y=1e9))
    d = np.random.default_rng(0).uniform(-1e-2, 1e-2, model.n)
    force, yielded = oracle.bilinear_internal_force(model, d)
    assert yielded == 0
    assert oracle.rel_err(force, oracle.stiffness(model) @ d) < 1e-12


def test_bilinear_stress_past_yield():
    strain = np.array([2.0 * 25.0 / 2e5])
    stress, yielded = oracle.bilinear_stress(strain, 2e5, 0.3e5, 25.0)
    assert yielded.all()
    assert stress[0] == pytest.approx(25.0 + 0.3e5 * 25.0 / 2e5)
