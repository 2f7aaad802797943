"""Shared independent oracles for the test suite.

Everything here is written from first principles (textbook element matrices,
direct quadrature, dense linear algebra) so the production code is always
checked against an implementation that does not share its code paths.  The
exceptions are element_rows and element_stiffness, which form one element's
mode rows and C^T K_L C through the package: they are what the oracles check.
"""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from reanalyze.elements import mode_rows


def truss_global_stiffness(young, area, length, angle):
    """Textbook bar stiffness (EA/L) v v^T with v = (-c, -s, c, s)."""
    c, s = np.cos(angle), np.sin(angle)
    v = np.array([-c, -s, c, s])
    return young * area / length * np.outer(v, v)


def eb_local_stiffness(young, area, inertia, length):
    """Textbook Euler-Bernoulli beam stiffness in local axes."""
    ea = young * area / length
    w1 = 12.0 * young * inertia / length**3
    w2 = 6.0 * young * inertia / length**2
    w3 = 4.0 * young * inertia / length
    w4 = 2.0 * young * inertia / length
    return np.array([
        [ea, 0, 0, -ea, 0, 0],
        [0, w1, w2, 0, -w1, w2],
        [0, w2, w3, 0, -w2, w4],
        [-ea, 0, 0, ea, 0, 0],
        [0, -w1, -w2, 0, w1, -w2],
        [0, w2, w4, 0, -w2, w3],
    ])


def fg_beam_local_stiffness(width, constants, length):
    """Full 6x6 local stiffness of a depth-graded beam from its section
    constants (a_e, b_e, d_e): the graded beam's reconstruction oracle."""
    a, bc, d = constants.a_e, constants.b_e, constants.d_e
    b = width
    l = length
    l2 = l * l
    return np.array([
        [a * b * l2, 0.0, -bc * b * l2, -a * b * l2, 0.0, bc * b * l2],
        [0.0, 12.0 * d * b, 6.0 * d * b * l, 0.0, -12.0 * d * b, 6.0 * d * b * l],
        [-bc * b * l2, 6.0 * d * b * l, 4.0 * d * b * l2, bc * b * l2, -6.0 * d * b * l, 2.0 * d * b * l2],
        [-a * b * l2, 0.0, bc * b * l2, a * b * l2, 0.0, -bc * b * l2],
        [0.0, -12.0 * d * b, -6.0 * d * b * l, 0.0, 12.0 * d * b, -6.0 * d * b * l],
        [bc * b * l2, 6.0 * d * b * l, 2.0 * d * b * l2, -bc * b * l2, -6.0 * d * b * l, 4.0 * d * b * l2],
    ]) / l**3


def element_rows(length, angle, m):
    """The m x (m + 3) mode rows of one element along (cos angle, sin angle),
    from the package's one mode-row kernel."""
    delta = length * np.array([[np.cos(angle), np.sin(angle)]])
    return mode_rows(delta, np.array([length]), m)[0]


def element_stiffness(k_l, length, angle):
    """Symmetrized C^T K_L C of one element along (cos angle, sin angle), from
    its parameters k_l (m x m, or a bar's scalar) and element_rows."""
    k_l = np.atleast_2d(k_l)
    rows = element_rows(length, angle, k_l.shape[0])
    s = rows.T @ k_l @ rows
    return 0.5 * (s + s.T)


def beam_rotation(angle):
    """Global -> local transform of a two-node plane beam."""
    c, s = np.cos(angle), np.sin(angle)
    node = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    t = np.zeros((6, 6))
    t[:3, :3] = node
    t[3:, 3:] = node
    return t


def graded_profile_moments(height, exponent, e_upper, e_lower):
    """Quadrature of the power-law modulus profile: int E(y) {1, y, y^2} dy."""
    def profile(y):
        return (e_upper - e_lower) * (y / height + 0.5) ** exponent + e_lower

    out = []
    with warnings.catch_warnings():
        # adaptive refinement near machine precision flags benign roundoff
        warnings.simplefilter("ignore", IntegrationWarning)
        for power in (0, 1, 2):
            val, _ = quad(lambda y: profile(y) * y**power, -height / 2.0, height / 2.0,
                          epsabs=0.0, epsrel=1e-13, limit=400)
            out.append(val)
    return tuple(out)


def length_and_angle(model, elem):
    """Length and axis angle of an element, read from its node records."""
    ni, nj = model.nodes[elem.node_i], model.nodes[elem.node_j]
    return math.hypot(nj.x - ni.x, nj.y - ni.y), math.atan2(nj.y - ni.y, nj.x - ni.x)


def dense_stiffness(model):
    """Independent dense assembly of a bar or homogeneous-beam model from the
    textbook element matrices (small n only)."""
    n = model.n
    k = np.zeros((n, n))
    for elem in model.elements:
        length, angle = length_and_angle(model, elem)
        mat = elem.material
        young = mat.e if mat.e is not None else mat.e0
        if model.dofs_per_node == 2:
            k_e = truss_global_stiffness(young, elem.section.area, length, angle)
        else:
            t = beam_rotation(angle)
            k_e = t.T @ eb_local_stiffness(young, elem.section.area, elem.section.inertia,
                                           length) @ t
        dofs = np.concatenate([model.dof_map[elem.node_i], model.dof_map[elem.node_j]])
        for a in range(dofs.size):
            if dofs[a] < 0:
                continue
            for b in range(dofs.size):
                if dofs[b] >= 0:
                    k[dofs[a], dofs[b]] += k_e[a, b]
    return k


def dense_truss_solution(model):
    """Independent dense assembly and solve of a bar model (small n only)."""
    return np.linalg.solve(dense_stiffness(model), model.load_vector())


def parameter_matrices(part):
    """Dense K_Lb and K_La of a partition, placed block by block from its
    (elements, m, m) parameter blocks (small models only)."""
    m = part.blocks.shape[1]
    out = []
    for ids in (part.basis_ids, part.additional_ids):
        k = np.zeros((m * len(ids), m * len(ids)))
        for j, block in enumerate(part.blocks[ids]):
            k[m * j:m * j + m, m * j:m * j + m] = block
        out.append(k)
    return out


def rel_err(actual, expected):
    expected = np.asarray(expected, dtype=float)
    scale = np.max(np.abs(expected))
    if scale == 0.0:
        return float(np.max(np.abs(np.asarray(actual))))
    return float(np.max(np.abs(np.asarray(actual) - expected)) / scale)
