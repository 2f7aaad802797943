"""Traced mode: spans around the public functions of each reanalyze layer.

Every function is wrapped under the name its caller binds it to, so calls
made inside the package (factorize_stiffness -> assemble_global,
run_newton_raphson -> solve_sri, ...) are seen as well as the benchmark's own.
Spans stay in memory; the run writes them out when it ends.  The element
decompositions run thousands of times per design, so they are tallied per
enclosing span instead of getting a span each.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, span name); a class attribute is given as "Class.method"
SPANNED = [
    ("assembly", "assemble_global", "assembly.assemble_global"),
    ("solvers", "assemble_global", "assembly.assemble_global"),
    ("assembly", "factorize_stiffness", "assembly.factorize_stiffness"),
    ("solvers", "factorize_stiffness", "assembly.factorize_stiffness"),
    ("assembly", "make_partition", "assembly.make_partition"),
    ("nonlinear", "make_partition", "assembly.make_partition"),
    ("assembly", "update_partition", "assembly.update_partition"),
    ("assembly", "reduced_rhs", "assembly.reduced_rhs"),
    ("solvers", "reduced_rhs", "assembly.reduced_rhs"),
    ("nonlinear", "reduced_rhs", "assembly.reduced_rhs"),
    ("assembly", "reduced_apply", "assembly.reduced_apply"),
    ("solvers", "reduced_apply", "assembly.reduced_apply"),
    ("assembly", "reduced_gram", "assembly.reduced_gram"),
    ("solvers", "reduced_gram", "assembly.reduced_gram"),
    ("nonlinear", "reduced_gram", "assembly.reduced_gram"),
    ("solvers", "build_sri_preconditioner", "solvers.build_sri_preconditioner"),
    ("nonlinear", "build_sri_preconditioner", "solvers.build_sri_preconditioner"),
    ("solvers", "SriPreconditioner.apply", "solvers.precond_apply"),
    ("solvers", "recover_displacements", "solvers.recover_displacements"),
    ("nonlinear", "recover_displacements", "solvers.recover_displacements"),
    ("solvers", "solve_conventional", "solvers.solve_conventional"),
    ("solvers", "solve_pcg_full", "solvers.solve_pcg_full"),
    ("solvers", "solve_sri", "solvers.solve_sri"),
    ("nonlinear", "solve_sri", "solvers.solve_sri"),
    ("solvers", "solve_fdp", "solvers.solve_fdp"),
    ("nonlinear", "run_newton_raphson", "nonlinear.run_newton_raphson"),
    ("nonlinear", "evaluate_state", "nonlinear.evaluate_state"),
    ("nonlinear", "internal_force", "nonlinear.internal_force"),
    ("nonlinear", "assemble_tangent", "nonlinear.assemble_tangent"),
    ("nonlinear", "tangent_partition", "nonlinear.tangent_partition"),
    ("model", "build_truss_grid", "model.build_truss_grid"),
    ("model", "build_frame_grid", "model.build_frame_grid"),
    ("model", "apply_floor_grading", "model.apply_floor_grading"),
    ("model", "StructuralModel.replace_materials", "model.replace_materials"),
]

# the element layer as the assembly layer binds it
TALLIED = [
    ("assembly", "truss_decomposition", "elements"),
    ("assembly", "beam_decomposition", "elements"),
    ("assembly", "fg_beam_decomposition", "elements"),
]


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, root, start, end]
        self.tally = defaultdict(lambda: [0, 0.0])  # (name, enclosing span) -> [calls, seconds]
        self.iterations: dict[int, int] = {}  # span index -> iterations its report gave
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else idx
        self.spans.append([name, parent, root, time.perf_counter(), None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, fn, name):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hasattr(out, "iterations"):
                self.iterations[idx] = out.iterations
            return out
        return wrapper

    def _tallied(self, fn, name):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = self.tally[(name, self._stack[-1] if self._stack else -1)]
                entry[0] += 1
                entry[1] += time.perf_counter() - t0
        return wrapper

    def install(self, modules: dict) -> None:
        for table, make in ((SPANNED, self._spanned), (TALLIED, self._tallied)):
            for module, attr, name in table:
                owner = modules[module]
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                fn = getattr(owner, attr)
                setattr(owner, attr, make(fn, name))
                self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- summaries -------------------------------------------------------------

    def durations(self, name: str, roots: set[str] | None = None) -> list[float]:
        """Durations of spans called name, optionally only under roots so named."""
        return [s[4] - s[3] for s in self.spans
                if s[0] == name and (roots is None or self.spans[s[2]][0] in roots)]

    def tallied(self, name: str, roots: set[str]) -> tuple[int, float]:
        calls = seconds = 0
        for (tname, parent), (n, t) in self.tally.items():
            if tname == name and parent >= 0 and self.spans[self.spans[parent][2]][0] in roots:
                calls += n
                seconds += t
        return calls, seconds

    def outermost(self, prefix: str, root: str) -> tuple[float, float]:
        """Seconds in spans named prefix* that no such span encloses: those
        under the root span so named, and the rest."""
        inside = outside = 0.0
        for s in self.spans:
            if s[0].startswith(prefix) and not (
                    s[1] >= 0 and self.spans[s[1]][0].startswith(prefix)):
                if self.spans[s[2]][0] == root:
                    inside += s[4] - s[3]
                else:
                    outside += s[4] - s[3]
        return inside, outside

    def kept_iterations(self, name: str, roots: set[str]) -> list[int]:
        return [v for idx, v in self.iterations.items()
                if self.spans[idx][0] == name and self.spans[self.spans[idx][2]][0] in roots]

    def by_name(self) -> dict[str, dict]:
        """Calls, total and self seconds of every span name."""
        child = defaultdict(float)
        for s in self.spans:
            if s[1] >= 0:
                child[s[1]] += s[4] - s[3]
        for (_, parent), (_, t) in self.tally.items():
            child[parent] += t
        out: dict[str, dict] = {}
        for idx, s in enumerate(self.spans):
            entry = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += s[4] - s[3]
            entry["self_s"] += s[4] - s[3] - child[idx]
        for (name, _), (n, t) in self.tally.items():
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += n
            entry["total_s"] += t
            entry["self_s"] += t
        return out
