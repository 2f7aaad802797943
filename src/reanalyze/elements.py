"""Element-level stiffness decompositions for 2D truss bars and Euler-Bernoulli beams.

Every element stiffness is factorized as K = C^T K_L C where the rows of C are
unit-norm deformation modes (axial stretch, symmetric bending, antisymmetric
bending) and K_L holds the corresponding stiffness parameters.  A plane element
with nd DOFs carries m = nd - 3 modes (two rigid translations, one rigid
rotation drop out).  The mode-row convention is fixed package-wide so that the
parameter matrices of homogeneous and depth-graded beams take their closed
forms; do not renormalize the rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateElementError, InvalidMaterialError, InvalidParameterError

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ElementDecomposition:
    """Stiffness parameters and geometry of a single element.

    k_params is the m x m (symmetric positive definite) parameter matrix;
    the m x nd global mode rows c_global are formed from length and angle
    when read, so code that needs only the parameters forms no rows.
    """

    k_params: np.ndarray
    length: float
    angle: float

    @property
    def m(self) -> int:
        return self.k_params.shape[0]

    @property
    def c_global(self) -> np.ndarray:
        """Unit-norm mode rows in global axes: the bar's axial row, or
        beam_mode_rows for a beam."""
        if self.m == 1:
            c, s = np.cos(self.angle), np.sin(self.angle)
            return np.array([[-c, -s, c, s]]) / SQRT2
        return beam_mode_rows(self.length, self.angle)

    def stiffness(self) -> np.ndarray:
        """Reconstruct the global element stiffness C^T K_L C, symmetrized."""
        c_global = self.c_global
        s = c_global.T @ self.k_params @ c_global
        return 0.5 * (s + s.T)


@dataclass(frozen=True)
class FgSectionConstants:
    """Depth-integrated modulus moments of a power-law graded section.

    Per unit width: a_e = int E(y) dy, b_e = int E(y) y dy (membrane-bending
    coupling), d_e = int E(y) y^2 dy, with y in [-h/2, h/2] and E(y) the
    power-law profile between the lower- and upper-surface moduli.
    """

    a_e: float
    b_e: float
    d_e: float


def _rotation(angle: float) -> np.ndarray:
    """Global->local DOF transform of a two-node plane beam."""
    c, s = np.cos(angle), np.sin(angle)
    node = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    t = np.zeros((6, 6))
    t[:3, :3] = node
    t[3:, 3:] = node
    return t


def truss_decomposition(length: float, angle: float, young: float, area: float) -> ElementDecomposition:
    """Single-mode decomposition of a pin-jointed bar.

    The axial stretch row (-1, 0, 1, 0)/sqrt(2) pairs with the stiffness
    parameter 2EA/L so that C^T K_L C reproduces (EA/L) v v^T.
    """
    if length <= 0.0:
        raise DegenerateElementError(f"bar length must be positive, got {length}")
    k_params = np.array([[2.0 * young * area / length]])
    return ElementDecomposition(k_params, length, angle)


def beam_parameter_matrix(young: float, area: float, inertia: float, length: float) -> np.ndarray:
    """Stiffness parameters of a homogeneous Euler-Bernoulli beam element.

    Returns diag(2EAL^2, 2EIL^2, 6EI(L^2 + 4)) / L^3.  The L^2 + 4 term mixes
    units; it is exact for the unit-norm mode rows below with L expressed in cm
    (results are length-unit dependent by construction).
    """
    if length <= 0.0:
        raise DegenerateElementError(f"beam length must be positive, got {length}")
    if young <= 0.0 or area <= 0.0 or inertia <= 0.0:
        raise InvalidParameterError("young, area and inertia must be positive")
    l2 = length * length
    return np.diag([
        2.0 * young * area / length,
        2.0 * young * inertia / length,
        6.0 * young * inertia * (l2 + 4.0) / length**3,
    ])


def beam_mode_rows(length: float, angle: float = 0.0) -> np.ndarray:
    """Unit-norm deformation-mode rows of a two-node plane beam, in global axes.

    Local rows over (u1, v1, t1, u2, v2, t2):
        axial         (-1, 0, 0, 1, 0, 0) / sqrt(2)
        symmetric     ( 0, 0,-1, 0, 0, 1) / sqrt(2)
        antisymmetric ( 0, 2, L, 0,-2, L) / sqrt(2 (L^2 + 4))
    """
    if length <= 0.0:
        raise DegenerateElementError(f"beam length must be positive, got {length}")
    rows = np.array([
        [-1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0, 0.0, 1.0],
        [0.0, 2.0, length, 0.0, -2.0, length],
    ])
    rows[0] /= SQRT2
    rows[1] /= SQRT2
    rows[2] /= np.sqrt(2.0 * (length * length + 4.0))
    if angle != 0.0:
        rows = rows @ _rotation(angle)
    return rows


def beam_decomposition(length: float, angle: float, young: float, area: float,
                       inertia: float) -> ElementDecomposition:
    """Three-mode decomposition of a homogeneous Euler-Bernoulli beam."""
    return ElementDecomposition(beam_parameter_matrix(young, area, inertia, length),
                                length, angle)


def fg_section_constants(height: float, exponent: float, e_upper: float,
                         e_lower: float, coupling: str = "exact") -> FgSectionConstants:
    """Closed-form modulus moments of the power-law depth profile.

    E(y) = (E_upper - E_lower) (y/h + 1/2)^p + E_lower.  With coupling="exact"
    the coupling moment carries a factor p, so p = 0 (uniformly E_upper) gives
    b_e = 0 and all three constants agree with direct quadrature of the
    profile for every p >= 0.  coupling="simplified" drops that factor; this
    reproduces published benchmark solutions computed with the simplified
    constant (the two coincide at p = 1).
    """
    if height <= 0.0:
        raise InvalidParameterError(f"section height must be positive, got {height}")
    if exponent < 0.0:
        raise InvalidParameterError(f"power-law exponent must be >= 0, got {exponent}")
    if e_upper <= 0.0 or e_lower <= 0.0:
        raise InvalidParameterError("surface moduli must be positive")
    if coupling not in ("exact", "simplified"):
        raise InvalidParameterError(f"unknown coupling convention {coupling!r}")
    p = exponent
    a_e = height * (e_upper + p * e_lower) / (p + 1.0)
    factor = p if coupling == "exact" else 1.0
    b_e = height**2 * factor * (e_upper - e_lower) / (2.0 * (p + 1.0) * (p + 2.0))
    d_us = height**3 * (p * p + p + 2.0) / (4.0 * (p + 1.0) * (p + 2.0) * (p + 3.0))
    d_e = d_us * e_upper + (height**3 / 12.0 - d_us) * e_lower
    return FgSectionConstants(a_e, b_e, d_e)


def fg_beam_parameter_matrix(width: float, constants: FgSectionConstants,
                             length: float) -> np.ndarray:
    """Stiffness parameters of a depth-graded beam element.

    [[ 2 a b/L, -2 b_e b/L,        0],
     [-2 b_e b/L,  2 d b/L,        0],
     [        0,        0, 6 (L^2+4) d b / L^3]]
    The off-diagonal entry couples axial stretch and symmetric bending.
    """
    if width <= 0.0 or length <= 0.0:
        raise DegenerateElementError("width and length must be positive")
    a_e, b_e, d_e = constants.a_e, constants.b_e, constants.d_e
    if a_e <= 0.0 or d_e <= 0.0 or a_e * d_e <= b_e * b_e:
        raise InvalidMaterialError(
            f"section moments not positive definite: a={a_e}, b={b_e}, d={d_e}")
    l2 = length * length
    return np.array([
        [2.0 * a_e * width / length, -2.0 * b_e * width / length, 0.0],
        [-2.0 * b_e * width / length, 2.0 * d_e * width / length, 0.0],
        [0.0, 0.0, 6.0 * (l2 + 4.0) * d_e * width / length**3],
    ])


def fg_beam_local_stiffness(width: float, constants: FgSectionConstants,
                            length: float) -> np.ndarray:
    """Full 6x6 local stiffness of the graded beam (reconstruction oracle)."""
    if width <= 0.0 or length <= 0.0:
        raise DegenerateElementError("width and length must be positive")
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


def fg_beam_decomposition(length: float, angle: float, width: float,
                          constants: FgSectionConstants) -> ElementDecomposition:
    """Three-mode decomposition of a depth-graded beam."""
    return ElementDecomposition(fg_beam_parameter_matrix(width, constants, length),
                                length, angle)


def bilinear_stress(strain, e0, et, sigma_y):
    """Stress and tangent modulus of the bilinear law at a total strain.

    Elastic branch up to the yield strain sigma_y/e0 (boundary counted as
    elastic), hardening slope et beyond; odd in strain.  Takes scalars or
    arrays, elementwise.
    """
    if np.any(np.asarray(e0) <= 0.0) or np.any(np.asarray(sigma_y) <= 0.0):
        raise InvalidParameterError("e0 and sigma_y must be positive")
    eps_y = sigma_y / e0
    yielded = np.abs(strain) > eps_y
    stress = np.where(yielded, np.sign(strain) * (sigma_y + et * (np.abs(strain) - eps_y)),
                      e0 * strain)
    return stress, np.where(yielded, et, e0)
