"""Reduced-system structural reanalysis for 2D trusses and frames.

Statically indeterminate structures are split into a determinate basis and
additional components; material modifications are then solved through a small
preconditioned iteration on the additional-component forces, alongside
full-system PCG, a direct low-rank-update path and conventional analysis.
"""

from .allocator import pin_malloc_thresholds

# before the submodules import numpy and scipy, so every array they allocate
# follows the fixed thresholds (see allocator.py)
pin_malloc_thresholds()

from .costmodel import flops_fdp, flops_pcg, flops_sri, ratio_sweep, relative_time
from .model import (
    ElementKind,
    MaterialSpec,
    PartitionSpec,
    SectionSpec,
    StructuralModel,
    apply_floor_grading,
    build_frame_grid,
    build_truss_grid,
    default_additional_set,
    spans_from_level,
)
from .assembly import (
    assemble_global,
    factorize_stiffness,
    make_partition,
    reduced_apply,
    reduced_rhs,
    update_partition,
)
from .solvers import (
    SolveReport,
    build_sri_preconditioner,
    recover_displacements,
    solve_conventional,
    solve_fdp,
    solve_pcg_full,
    solve_sri,
)
from .nonlinear import run_newton_raphson

__version__ = "0.1.0"
