"""Element-level stiffness decompositions for 2D truss bars and Euler-Bernoulli beams.

Every element stiffness is factorized as K = C^T K_L C where the rows of C are
unit-norm deformation modes (axial stretch, symmetric bending, antisymmetric
bending) and K_L holds the corresponding stiffness parameters.  A plane element
with nd DOFs carries m = nd - 3 modes (two rigid translations, one rigid
rotation drop out).  The mode-row convention is fixed package-wide so that the
parameter matrices of homogeneous and depth-graded beams take their closed
forms; do not renormalize the rows.

The bar and beam formulas live only here.  mode_rows is the one mode-row
formula: it takes every element's end-to-end vector and length, as
assembly.element_geometry gives them, and returns the rows in axis form,
the unit axis delta / L rather than the cosine and sine of an angle, so a
member along a global axis stores exact zeros.  assembly.mode_matrix makes
one call to it for the whole model, and the Newton driver's bars take their
axial rows from that same matrix.  The parameter kernels
(truss_decomposition, beam_decomposition, fg_section_constants,
fg_beam_decomposition) give K_L and take scalars or arrays elementwise, so
assembly.element_blocks makes one call per element kind.  A call with
scalars gives the same block bitwise as its element's entry of an array
call: the kernels use only +, -, * and /, never a power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateElementError, InvalidMaterialError, InvalidParameterError

SQRT2 = np.sqrt(2.0)


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


def truss_decomposition(young, area, length):
    """Bar stiffness parameter 2EA/L, for scalars or arrays elementwise.

    It pairs with the axial row (-1, 0, 1, 0) / sqrt(2) of bar_rows so that
    C^T K_L C reproduces (EA/L) v v^T.
    """
    return 2.0 * young * area / length


def bar_rows(delta: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Axial mode rows (-a, a) / sqrt(2), a = delta / length the unit axis,
    of bars with end-to-end vectors delta (bars, 2) and positive lengths
    length (bars,), as assembly.element_geometry gives them."""
    axis = delta / length[:, None]
    return np.hstack([-axis, axis]) / SQRT2


def mode_rows(delta: np.ndarray, length: np.ndarray, m: int) -> np.ndarray:
    """Unit-norm mode rows in global axes, (elements, m, m + 3), of elements
    with m modes, end-to-end vectors delta (elements, 2) and positive
    lengths length (elements,), as assembly.element_geometry gives them.

    Bars (m = 1) take bar_rows.  A beam's rows over (u1, v1, t1, u2, v2, t2),
    with (c, s) = delta / L its unit axis, are
        axial         (  -c,  -s, 0,   c,   s, 0) / sqrt(2)
        symmetric     (   0,   0,-1,   0,   0, 1) / sqrt(2)
        antisymmetric (-2 s, 2 c, L, 2 s,-2 c, L) / sqrt(2 (L^2 + 4))
    In this axis form a member along a global axis has exact zeros.
    """
    axial = bar_rows(delta, length)
    if m == 1:
        return axial[:, None, :]
    rows = np.zeros((len(length), 3, 6))
    rows[:, 0, [0, 1, 3, 4]] = axial
    rows[:, 1, [2, 5]] = (-1.0 / SQRT2, 1.0 / SQRT2)
    c, s = (delta / length[:, None]).T
    norm = np.sqrt(2.0 * (length * length + 4.0))
    b, l = 2.0 / norm, length / norm
    rows[:, 2] = np.column_stack([-b * s, b * c, l, b * s, -b * c, l])
    return rows


def beam_decomposition(young, area, inertia, length) -> np.ndarray:
    """Stiffness parameters of a homogeneous Euler-Bernoulli beam element,
    for scalars (a 3 x 3 matrix) or arrays elementwise (a (..., 3, 3) stack).

    Returns diag(2EAL^2, 2EIL^2, 6EI(L^2 + 4)) / L^3.  The L^2 + 4 term mixes
    units; it is exact for the unit-norm mode rows of mode_rows with L in cm
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


def fg_beam_decomposition(width, constants: FgSectionConstants, length) -> np.ndarray:
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


def bilinear_stress(strain, e0, et, sigma_y):
    """Stress, tangent modulus and yield mask of the bilinear law at a total
    strain: the one yield test of the package.

    Elastic branch up to the yield strain sigma_y/e0 (boundary counted as
    elastic, so yielded is False there), hardening slope et beyond; odd in
    strain.  Takes scalars or arrays, elementwise.
    """
    if np.any(np.asarray(e0) <= 0.0) or np.any(np.asarray(sigma_y) <= 0.0):
        raise InvalidParameterError("e0 and sigma_y must be positive")
    eps_y = sigma_y / e0
    yielded = np.abs(strain) > eps_y
    stress = np.where(yielded, np.sign(strain) * (sigma_y + et * (np.abs(strain) - eps_y)),
                      e0 * strain)
    return stress, np.where(yielded, et, e0), yielded
