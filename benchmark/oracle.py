"""Reference solver written apart from the reanalyze package.

It reads only the model's data (nodes, elements, supports through dof_map,
loads) and builds the free-DOF stiffness from textbook element matrices:
the bar stiffness (EA/L) v v^T and the Euler-Bernoulli beam stiffness rotated
into global axes.  Nothing here imports reanalyze.assembly or
reanalyze.elements, so a fault shared by those layers cannot hide in a check.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def _modulus(material) -> float:
    return material.e if material.e is not None else material.e0


def _geometry(model):
    xy = np.array([[nd.x, nd.y] for nd in model.nodes])
    node_i = np.array([e.node_i for e in model.elements])
    node_j = np.array([e.node_j for e in model.elements])
    delta = xy[node_j] - xy[node_i]
    length = np.hypot(delta[:, 0], delta[:, 1])
    return node_i, node_j, length, delta[:, 0] / length, delta[:, 1] / length


def _element_dofs(model, node_i, node_j):
    return np.hstack([model.dof_map[node_i], model.dof_map[node_j]])


def bar_matrices(young, area, length, c, s):
    """(ne, 4, 4) global bar stiffnesses (EA/L) v v^T, v = (-c, -s, c, s)."""
    v = np.stack([-c, -s, c, s], axis=1)
    return (young * area / length)[:, None, None] * v[:, :, None] * v[:, None, :]


def beam_matrices(young, area, inertia, length, c, s):
    """(ne, 6, 6) global Euler-Bernoulli beam stiffnesses T^T k_local T."""
    ne = len(length)
    ea = young * area / length
    w1 = 12.0 * young * inertia / length**3
    w2 = 6.0 * young * inertia / length**2
    w3 = 4.0 * young * inertia / length
    w4 = 2.0 * young * inertia / length
    k = np.zeros((ne, 6, 6))
    k[:, 0, 0] = k[:, 3, 3] = ea
    k[:, 0, 3] = k[:, 3, 0] = -ea
    k[:, 1, 1] = k[:, 4, 4] = w1
    k[:, 1, 4] = k[:, 4, 1] = -w1
    k[:, 1, 2] = k[:, 2, 1] = k[:, 1, 5] = k[:, 5, 1] = w2
    k[:, 2, 4] = k[:, 4, 2] = k[:, 4, 5] = k[:, 5, 4] = -w2
    k[:, 2, 2] = k[:, 5, 5] = w3
    k[:, 2, 5] = k[:, 5, 2] = w4
    t = np.zeros((ne, 6, 6))
    for off in (0, 3):
        t[:, off, off] = t[:, off + 1, off + 1] = c
        t[:, off, off + 1] = s
        t[:, off + 1, off] = -s
        t[:, off + 2, off + 2] = 1.0
    return np.einsum("eji,ejk,ekl->eil", t, k, t)


def stiffness(model, modulus=None) -> sp.csc_matrix:
    """Free-DOF stiffness of a bar or homogeneous-beam model.

    modulus overrides the Young's modulus of every element (one value each).
    """
    node_i, node_j, length, c, s = _geometry(model)
    young = np.array([_modulus(e.material) for e in model.elements]) \
        if modulus is None else np.asarray(modulus, dtype=float)
    area = np.array([e.section.area for e in model.elements])
    if model.dofs_per_node == 2:
        k_e = bar_matrices(young, area, length, c, s)
    else:
        if any(e.material.e_us is not None for e in model.elements):
            raise ValueError("the reference solver covers homogeneous beams only")
        inertia = np.array([e.section.inertia for e in model.elements])
        k_e = beam_matrices(young, area, inertia, length, c, s)
    dofs = _element_dofs(model, node_i, node_j)
    m = dofs.shape[1]
    rows = np.repeat(dofs, m, axis=1).ravel()
    cols = np.tile(dofs, (1, m)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    return sp.csc_matrix((k_e.ravel()[keep], (rows[keep], cols[keep])),
                         shape=(model.n, model.n))


def load_vector(model) -> np.ndarray:
    r = np.zeros(model.n)
    for ld in model.loads:
        r[model.dof_map[ld.node, ld.dof]] += ld.value
    return r


def solve(model, modulus=None, rhs=None) -> np.ndarray:
    """Displacements of K d = R by a sparse direct solve."""
    r = load_vector(model) if rhs is None else rhs
    return spla.spsolve(stiffness(model, modulus), r)


def node_values(model, d, node) -> tuple[float, ...]:
    """Displacement components of one node (constrained ones read 0)."""
    return tuple(float(d[i]) if i >= 0 else 0.0 for i in model.dof_map[node])


def bar_strains(model, d) -> np.ndarray:
    """Engineering strain of every bar of a truss model at displacement d."""
    node_i, node_j, length, c, s = _geometry(model)
    u = np.zeros(model.dof_map.shape)
    free = model.dof_map >= 0
    u[free] = d[model.dof_map[free]]
    rel = u[node_j] - u[node_i]
    return (rel[:, 0] * c + rel[:, 1] * s) / length


def bilinear_stress(strain, e0, et, sigma_y):
    """Total-strain bilinear law; the yield strain itself counts as elastic."""
    eps_y = sigma_y / e0
    over = np.abs(strain) > eps_y
    return np.where(over, np.sign(strain) * (sigma_y + et * (np.abs(strain) - eps_y)),
                    e0 * strain), over


def bilinear_internal_force(model, d) -> tuple[np.ndarray, int]:
    """Internal nodal forces of a bilinear truss at d, and its yielded-bar count."""
    node_i, node_j, length, c, s = _geometry(model)
    mats = [e.material for e in model.elements]
    e0 = np.array([m.e0 for m in mats])
    et = np.array([m.et for m in mats])
    sigma_y = np.array([m.sigma_y for m in mats])
    area = np.array([e.section.area for e in model.elements])
    stress, yielded = bilinear_stress(bar_strains(model, d), e0, et, sigma_y)
    axial = stress * area
    contrib = np.stack([-axial * c, -axial * s, axial * c, axial * s], axis=1)
    dofs = _element_dofs(model, node_i, node_j).ravel()
    vals = contrib.ravel()
    keep = dofs >= 0
    f = np.zeros(model.n)
    np.add.at(f, dofs[keep], vals[keep])
    return f, int(np.count_nonzero(yielded))


def rel_err(actual, expected) -> float:
    """Max-norm error relative to the max-norm of the reference."""
    expected = np.asarray(expected, dtype=float)
    return float(np.max(np.abs(np.asarray(actual) - expected)) / np.max(np.abs(expected)))
