"""Element-level stiffness decompositions for 2D truss bars and Euler-Bernoulli beams.

Every element stiffness is factorized as K = C^T K_L C where the rows of C are
unit-norm deformation modes (axial stretch, symmetric bending, antisymmetric
bending) and K_L holds the corresponding stiffness parameters.  A plane element
with nd DOFs carries m = nd - 3 modes (two rigid translations, one rigid
rotation drop out).  The mode-row convention is fixed package-wide so that the
parameter matrices of homogeneous and depth-graded beams take their closed
forms; do not renormalize the rows.

The bar and beam formulas live only here: the Newton driver takes its bar
lengths, axial rows and 2EA/L from bar_rows and bar_parameters.  The
parameter kernels (bar_parameters, beam_parameter_matrix,
fg_section_constants, fg_beam_parameter_matrix) take scalars or arrays
elementwise, so assembly.element_blocks makes one call per element kind;
the *_decomposition functions are their one-element forms.  Both give the
same blocks bitwise: the kernels use only +, -, * and /, never a power.
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
        """Unit-norm mode rows in global axes (mode_rows)."""
        return mode_rows(self.m, self.length, self.angle)

    def stiffness(self) -> np.ndarray:
        """Reconstruct the global element stiffness C^T K_L C, symmetrized."""
        c_global = self.c_global
        s = c_global.T @ self.k_params @ c_global
        return 0.5 * (s + s.T)


def mode_rows(m: int, length: float, angle: float) -> np.ndarray:
    """Unit-norm m x nd mode rows in global axes of an element with m modes:
    the bar's axial row (m = 1), or beam_mode_rows (m = 3)."""
    if m == 1:
        c, s = np.cos(angle), np.sin(angle)
        return np.array([[-c, -s, c, s]]) / SQRT2
    return beam_mode_rows(length, angle)


@dataclass(frozen=True)
class FgSectionConstants:
    """Depth-integrated modulus moments of a power-law graded section.

    Per unit width: a_e = int E(y) dy, b_e = int E(y) y dy (membrane-bending
    coupling), d_e = int E(y) y^2 dy, with y in [-h/2, h/2] and E(y) the
    power-law profile between the lower- and upper-surface moduli.  The
    fields are arrays when fg_section_constants was called elementwise.
    """

    a_e: float
    b_e: float
    d_e: float


def bar_parameters(young, area, length):
    """Bar stiffness parameter 2EA/L, for scalars or arrays elementwise."""
    return 2.0 * young * area / length


def bar_rows(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and axial mode rows (-a, a) / sqrt(2), a the unit axis, of bars
    with end-node coordinate differences delta (bars, 2); raises
    DegenerateElementError on a non-positive length."""
    length = np.hypot(delta[:, 0], delta[:, 1])
    if not np.all(length > 0.0):
        bad = int(np.argmin(length > 0.0))
        raise DegenerateElementError(f"bar {bad} length must be positive, got {length[bad]}")
    axis = delta / length[:, None]
    return length, np.hstack([-axis, axis]) / SQRT2


def truss_decomposition(length: float, angle: float, young: float, area: float) -> ElementDecomposition:
    """Single-mode decomposition of a pin-jointed bar.

    The axial stretch row (-1, 0, 1, 0)/sqrt(2) pairs with the stiffness
    parameter 2EA/L so that C^T K_L C reproduces (EA/L) v v^T.
    """
    if length <= 0.0:
        raise DegenerateElementError(f"bar length must be positive, got {length}")
    return ElementDecomposition(np.array([[bar_parameters(young, area, length)]]), length, angle)


def beam_parameter_matrix(young, area, inertia, length) -> np.ndarray:
    """Stiffness parameters of a homogeneous Euler-Bernoulli beam element,
    for scalars (a 3 x 3 matrix) or arrays elementwise (a (..., 3, 3) stack).

    Returns diag(2EAL^2, 2EIL^2, 6EI(L^2 + 4)) / L^3.  The L^2 + 4 term mixes
    units; it is exact for the unit-norm mode rows below with L expressed in cm
    (results are length-unit dependent by construction).
    """
    if np.any(length <= 0.0):
        raise DegenerateElementError(f"beam length must be positive, got {np.min(length)}")
    if np.any((young <= 0.0) | (area <= 0.0) | (inertia <= 0.0)):
        raise InvalidParameterError("young, area and inertia must be positive")
    l2 = length * length
    return _diagonal_blocks(2.0 * young * area / length,
                            2.0 * young * inertia / length,
                            6.0 * young * inertia * (l2 + 4.0) / (l2 * length))


def _diagonal_blocks(*diagonal) -> np.ndarray:
    """(..., k, k) stack of diagonal matrices from k broadcastable diagonals."""
    diagonal = np.broadcast_arrays(*diagonal)
    out = np.zeros(diagonal[0].shape + (len(diagonal),) * 2)
    for i, entry in enumerate(diagonal):
        out[..., i, i] = entry
    return out


def beam_mode_rows(length: float, angle: float = 0.0) -> np.ndarray:
    """Unit-norm deformation-mode rows of a two-node plane beam, in global axes.

    Global rows over (u1, v1, t1, u2, v2, t2), with c, s = cos, sin(angle):
        axial         (  -c,  -s, 0,   c,   s, 0) / sqrt(2)
        symmetric     (   0,   0,-1,   0,   0, 1) / sqrt(2)
        antisymmetric (-2 s, 2 c, L, 2 s,-2 c, L) / sqrt(2 (L^2 + 4))
    At angle 0 these are the local rows.
    """
    if length <= 0.0:
        raise DegenerateElementError(f"beam length must be positive, got {length}")
    c, s = np.cos(angle), np.sin(angle)
    a = 1.0 / SQRT2
    norm = np.sqrt(2.0 * (length * length + 4.0))
    b, l = 2.0 / norm, length / norm
    return np.array([
        [-a * c, -a * s, 0.0, a * c, a * s, 0.0],
        [0.0, 0.0, -a, 0.0, 0.0, a],
        [-b * s, b * c, l, b * s, -b * c, l],
    ])


def beam_decomposition(length: float, angle: float, young: float, area: float,
                       inertia: float) -> ElementDecomposition:
    """Three-mode decomposition of a homogeneous Euler-Bernoulli beam."""
    return ElementDecomposition(beam_parameter_matrix(young, area, inertia, length),
                                length, angle)


def fg_section_constants(height, exponent, e_upper, e_lower,
                         coupling="exact") -> FgSectionConstants:
    """Closed-form modulus moments of the power-law depth profile, for
    scalars or arrays elementwise (coupling too may be an array).

    E(y) = (E_upper - E_lower) (y/h + 1/2)^p + E_lower.  With coupling="exact"
    the coupling moment carries a factor p, so p = 0 (uniformly E_upper) gives
    b_e = 0 and all three constants agree with direct quadrature of the
    profile for every p >= 0.  coupling="simplified" drops that factor; this
    reproduces published benchmark solutions computed with the simplified
    constant (the two coincide at p = 1).
    """
    if np.any(height <= 0.0):
        raise InvalidParameterError(f"section height must be positive, got {np.min(height)}")
    if np.any(exponent < 0.0):
        raise InvalidParameterError(f"power-law exponent must be >= 0, got {np.min(exponent)}")
    if np.any((e_upper <= 0.0) | (e_lower <= 0.0)):
        raise InvalidParameterError("surface moduli must be positive")
    exact = coupling == "exact"
    if not np.all(exact | (coupling == "simplified")):
        raise InvalidParameterError(f"unknown coupling convention {coupling!r}")
    p = exponent
    h2 = height * height
    h3 = h2 * height
    a_e = height * (e_upper + p * e_lower) / (p + 1.0)
    factor = np.where(exact, p, 1.0)
    b_e = h2 * factor * (e_upper - e_lower) / (2.0 * (p + 1.0) * (p + 2.0))
    d_us = h3 * (p * p + p + 2.0) / (4.0 * (p + 1.0) * (p + 2.0) * (p + 3.0))
    d_e = d_us * e_upper + (h3 / 12.0 - d_us) * e_lower
    return FgSectionConstants(a_e, b_e, d_e)


def fg_beam_parameter_matrix(width, constants: FgSectionConstants, length) -> np.ndarray:
    """Stiffness parameters of a depth-graded beam element, for scalars (a
    3 x 3 matrix) or arrays elementwise (a (..., 3, 3) stack).

    [[ 2 a b/L, -2 b_e b/L,        0],
     [-2 b_e b/L,  2 d b/L,        0],
     [        0,        0, 6 (L^2+4) d b / L^3]]
    The off-diagonal entry couples axial stretch and symmetric bending.
    """
    if np.any((width <= 0.0) | (length <= 0.0)):
        raise DegenerateElementError("width and length must be positive")
    a_e, b_e, d_e = constants.a_e, constants.b_e, constants.d_e
    if np.any((a_e <= 0.0) | (d_e <= 0.0) | (a_e * d_e <= b_e * b_e)):
        raise InvalidMaterialError(
            f"section moments not positive definite: a={a_e}, b={b_e}, d={d_e}")
    l2 = length * length
    out = _diagonal_blocks(2.0 * a_e * width / length, 2.0 * d_e * width / length,
                           6.0 * (l2 + 4.0) * d_e * width / (l2 * length))
    out[..., 0, 1] = out[..., 1, 0] = -2.0 * b_e * width / length
    return out


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
