"""Closed-form flop counts of the three reanalysis paths and ratio sweeps.

The counts charge every matrix-vector chain of the reduced preconditioned
iteration (SRI), the full-system preconditioned CG (PCG) and the direct
reduced-system path (FDP) at the stated operation ordering, with all
precomputable quantities (influence matrix, preconditioner factorizations,
basis factorization) excluded.  Evaluation is exact integer arithmetic, so
counts stay exact at any problem size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidMeasurementError, InvalidParameterError

# Per-formula flop ledger of the reduced preconditioned iteration; stage A runs
# once, stage B once per iteration, stage C once at recovery.  The closed forms
# below are the exact sums of these lines.
SRI_FLOP_LEDGER = {
    "A-1": lambda n, q: 2 * n * n + 2 * n * q + n,
    "A-2": lambda n, q: 2 * q * q + 4 * n * q + 2 * q + n,
    "A-3": lambda n, q: 2 * n * q,
    "B-1": lambda n, q: 2 * q * q + 4 * n * q + 5 * q + n + 1,
    "B-2": lambda n, q: 2 * q,
    "B-3": lambda n, q: 2 * q * q + 4 * n * q + 3 * q + n,
    "B-4": lambda n, q: 2 * q * q,
    "B-5": lambda n, q: 4 * q + 1,
    "B-6": lambda n, q: 2 * q,
    "C-1": lambda n, q: 2 * q * q + 2 * n * q + 2 * n,
}

PCG_FLOP_LEDGER = {
    "A-1": lambda n: 2 * n * n + n,
    "A-2": lambda n: 2 * n * n,
    "B-1": lambda n: 2 * n * n + 4 * n + 1,
    "B-2": lambda n: 2 * n,
    "B-3": lambda n: 2 * n * n + 2 * n,
    "B-4": lambda n: 2 * n * n,
    "B-5": lambda n: 4 * n + 1,
    "B-6": lambda n: 2 * n,
}


def _check(n: int, q: int = 0, k: int = 0) -> None:
    if n < 1 or q < 0 or k < 0:
        raise InvalidParameterError(f"need n >= 1, q >= 0, k >= 0; got n={n}, q={q}, k={k}")


def sri_iteration_cost(n: int, q: int) -> int:
    """Flops added by one more iteration of the reduced scheme."""
    _check(n, q)
    return 6 * q * q + 8 * n * q + 2 * n + 16 * q + 2


def flops_sri(n: int, q: int, k: int) -> int:
    """Total flops of the reduced preconditioned iteration after k iterations."""
    _check(n, q, k)
    n, q, k = int(n), int(q), int(k)
    return k * sri_iteration_cost(n, q) + 2 * n * n + 4 * q * q + 10 * n * q + 4 * n + 2 * q


def flops_pcg(n: int, k: int) -> int:
    """Total flops of full-system preconditioned CG after k iterations."""
    _check(n, 0, k)
    n, k = int(n), int(k)
    return k * (6 * n * n + 14 * n + 2) + 4 * n * n + n


def flops_fdp(n: int, q: int) -> int:
    """Total flops of the direct reduced-system path (q x q inverse charged q^3)."""
    _check(n, q)
    n, q = int(n), int(q)
    return (2 * n * q * q + q**3 + 2 * n * n + 2 * q * q
            + 6 * n * q + 3 * n + 2 * q)


def relative_time(t_reanalysis: float, t_conventional: float) -> float:
    """Reanalysis wall time over conventional-solve wall time."""
    if t_conventional <= 0.0:
        raise InvalidMeasurementError(
            f"conventional time must be positive, got {t_conventional}")
    return t_reanalysis / t_conventional


@dataclass(frozen=True)
class RatioSweep:
    """One family of flop-ratio curves over a shared axis."""

    mode: str
    axis_label: str
    axis: tuple[float, ...]
    series: dict[str, tuple[float, ...]]

    def rows(self):
        """(x, series_label, ratio) rows in deterministic order."""
        for label in self.series:
            for x, ratio in zip(self.axis, self.series[label]):
                yield x, label, ratio


def ratio_sweep(mode: str, n: int = 10000, axis=None, parameters=None) -> RatioSweep:
    """Flop-ratio curves of the reduced iteration against either baseline.

    mode "sri_vs_pcg": ratio over q/n for fixed k/q (reduced) = k/n (full)
    settings; mode "sri_vs_fdp": ratio over k/q for fixed q/n settings.
    """
    _check(n)
    if mode == "sri_vs_pcg":
        axis = tuple(axis) if axis is not None else tuple(
            round(0.05 * i, 2) for i in range(1, 19))
        parameters = tuple(parameters) if parameters is not None else (0.1, 0.3, 0.5, 0.7)
        series = {}
        for ks in parameters:
            vals = []
            for qn in axis:
                q = round(qn * n)
                vals.append(flops_sri(n, q, round(ks * q)) / flops_pcg(n, round(ks * n)))
            series[f"k_s={ks:g}"] = tuple(vals)
        return RatioSweep(mode, "q/n", axis, series)
    if mode == "sri_vs_fdp":
        axis = tuple(axis) if axis is not None else tuple(
            round(0.01 * i, 2) for i in range(1, 81))
        parameters = tuple(parameters) if parameters is not None else (0.1, 0.3, 0.5, 0.7)
        series = {}
        for qn in parameters:
            q = round(qn * n)
            vals = [flops_sri(n, q, round(kq * q)) / flops_fdp(n, q) for kq in axis]
            series[f"q/n={qn:g}"] = tuple(vals)
        return RatioSweep(mode, "k/q", axis, series)
    raise InvalidParameterError(f"unknown sweep mode {mode!r}")
