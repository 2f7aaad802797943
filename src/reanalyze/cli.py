"""Batch front end: model generation, solve/reanalysis campaigns, flop sweeps
and nonlinear runs driven by JSON scenario configs.

The front end is thin.  Configs are checked against
schemas/scenario.schema.json, and each command forwards only the keys a
scenario gives to the library, whose own defaults cover the rest.  A command
takes only the flags in COMMAND_FLAGS.  `run` is the in-process entry point
(the scripts/ drivers call it); `main` parses the command line, reads the
config file and calls `run`.

Timing follows the reanalysis convention: everything precomputable for a
campaign (influence matrix, preconditioner factorizations, assembled modified
stiffness) is built outside the timed region; the conventional method is timed
as a complete analysis.  Reported times are medians over `repeat` runs; with
repeat = 0 timing is disabled.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import costmodel
from .assembly import assemble_global, factorize_stiffness, make_partition, update_partition
from .errors import ReanalysisError
from .model import (
    MaterialSpec,
    PartitionSpec,
    StructuralModel,
    apply_floor_grading,
    build_frame_grid,
    build_truss_grid,
    default_additional_set,
    replace_fg_coupling,
    replace_fg_exponent,
    spans_from_level,
)
from .modelio import load_model, save_model, schema
from .nonlinear import run_newton_raphson
from .solvers import (
    build_sri_preconditioner,
    solve_conventional,
    solve_fdp,
    solve_pcg_full,
    solve_sri,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3

RESULT_COLUMNS = ["scenario", "method", "node", "dof", "value",
                  "iterations", "flops", "wall_time", "rct", "converged"]

FLAG_ARGS = {
    "repeat": {"type": int, "help": "timing repetitions (0 disables timing)"},
    "tol": {"type": float, "help": "override the solver tolerance (nonlinear: the inner one)"},
    "precision": {"choices": ("table", "full"),
                  "help": "float formatting: 7 significant digits (table, the default) or full"},
}
COMMAND_FLAGS = {
    "generate": (),
    "solve": ("repeat", "tol", "precision"),
    "reanalyze": ("repeat", "tol", "precision"),
    "bench": ("repeat", "tol", "precision"),
    "flops": ("precision",),
    "nonlinear": ("tol", "precision"),
}
# result-table commands: (operators from the original structure, default repeat)
TABLE_COMMANDS = {"solve": (False, 1), "reanalyze": (True, 1), "bench": (True, 5)}
GENERATORS = {"truss": build_truss_grid, "frame": build_frame_grid}


class ConfigError(Exception):
    pass


def _given(block: dict, *keys: str) -> dict:
    """The entries of block under keys; absent keys keep the library default."""
    return {k: block[k] for k in keys if k in block}


def build_model(block: dict) -> StructuralModel:
    """The model of a scenario's model block: a model file, or the block's
    generator called with exactly the keys the block gives."""
    if "path" in block:
        return load_model(block["path"])[0]
    kwargs = dict(block)
    gen = kwargs.pop("generator", None)
    if gen is None:
        raise ConfigError("model block needs a generator or a path")
    if "material" in kwargs:
        kwargs["material"] = MaterialSpec(**kwargs["material"])
    if "level" in kwargs:
        kwargs["n_span"] = spans_from_level(kwargs.pop("level"))
    return GENERATORS[gen](**kwargs)


def apply_modification(model: StructuralModel, block: dict) -> StructuralModel:
    out = model
    if "p" in block:
        out = replace_fg_exponent(out, block["p"])
    if "e_lower" in block:
        out = apply_floor_grading(out, block["e_lower"], block["e_upper"],
                                  **_given(block, "target"))
    return out


def partition_spec_for(model: StructuralModel, scn: dict) -> PartitionSpec:
    block = scn.get("partition", "default")
    if block == "default":
        return default_additional_set(model)
    return PartitionSpec.of(block["additional_ids"])


def resolve_nodes(model: StructuralModel, scn: dict) -> list[int]:
    entries = scn.get("report", {}).get("nodes", ["A", "B"])
    out = []
    for entry in entries:
        if entry in ("A", "B"):
            key = "node_" + entry.lower()
            if key not in model.meta:
                raise ConfigError(f"report node {entry} is not named: "
                                  f"the model's meta has no {key}")
            out.append(int(model.meta[key]))
        elif entry < len(model.nodes):
            out.append(int(entry))
        else:
            raise ConfigError(f"report node {entry} does not exist: "
                              f"the model has {len(model.nodes)} nodes")
    return out


def _fmt(value, precision: str) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if precision == "table":
        return f"{value:.6e}"
    return repr(float(value))


def write_csv(path: Path, header: list[str], rows: list[list], precision: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v, precision) for v in row])


def run_linear_scenario(scn: dict, *, from_original: bool, repeat: int,
                        tol: float | None) -> list[list]:
    """Rows of the result table for one scenario.

    from_original=True is reanalysis (partition topology, preconditioners and
    the full-system factorization come from the unmodified structure);
    from_original=False solves the final structure with its own operators.
    tol, if given, overrides the scenario's solver tolerance.
    """
    model_orig = build_model(scn.get("model", {}))
    mod_block = scn.get("modification")
    if mod_block and "fg_coupling" in mod_block:
        model_orig = replace_fg_coupling(model_orig, mod_block["fg_coupling"])
    model_final = apply_modification(model_orig, mod_block) if mod_block else model_orig
    base = model_orig if from_original else model_final
    nodes = resolve_nodes(model_final, scn)

    solver_block = scn.get("solvers", {})
    methods = solver_block.get("methods", ["conventional", "pcg", "sri", "fdp"])
    solve_kw = _given(solver_block, "tol", "max_iter")
    if tol is not None:
        solve_kw["tol"] = tol

    # preprocessing, excluded from reanalysis timing
    part_final = precond = k0 = k_mod = None
    if "sri" in methods or "fdp" in methods:
        part_base = make_partition(base, partition_spec_for(base, scn))
        part_final = part_base if model_final is base else update_partition(part_base, model_final)
        if "sri" in methods:
            precond = build_sri_preconditioner(part_base)
    if "pcg" in methods:
        k0 = factorize_stiffness(base)
        k_mod = assemble_global(model_final)
    r = model_final.load_vector()

    runs = max(repeat, 1)
    reports = {}
    walls = {}
    for method in methods:
        times = []
        rep = None
        for _ in range(runs):
            if method == "conventional":
                rep = solve_conventional(model_final)
            elif method == "pcg":
                rep = solve_pcg_full(model_final, k0, k_matrix=k_mod, **solve_kw)
            elif method == "sri":
                rep = solve_sri(part_final, r, precond, **solve_kw)
            else:
                rep = solve_fdp(part_final, r)
            times.append(rep.wall_time)
        reports[method] = rep
        walls[method] = statistics.median(times)

    timing_on = repeat >= 1
    t_c = walls.get("conventional") if timing_on else None
    rows = []
    for method in methods:
        rep = reports[method]
        wall = walls[method] if timing_on else None
        rct = None
        if t_c and method != "conventional":
            rct = costmodel.relative_time(wall, t_c)
        for node in nodes:
            for dof in range(model_final.dofs_per_node):
                g = model_final.dof_map[node, dof]
                value = float(rep.d[g]) if g >= 0 else 0.0
                rows.append([scn["id"], method, node, dof, value,
                             rep.iterations, rep.flops_estimate, wall, rct,
                             rep.converged])
    rows.sort(key=lambda row: (row[0], row[1], row[2], row[3]))
    return rows


def cmd_generate(config: dict, out_dir: Path) -> int:
    for scn in config["scenarios"]:
        model = build_model(scn.get("model", {}))
        partition = None
        if "partition" in scn:
            partition = partition_spec_for(model, scn)
        path = out_dir / f"{scn['id']}.model.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        save_model(model, path, partition)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_table(command: str, config: dict, out_dir: Path, repeat: int | None = None,
              tol: float | None = None, precision: str = "table") -> int:
    """One result table per scenario for solve, reanalyze or bench."""
    from_original, default_repeat = TABLE_COMMANDS[command]
    for scn in config["scenarios"]:
        reps = repeat if repeat is not None else scn.get("repeat", default_repeat)
        rows = run_linear_scenario(scn, from_original=from_original, repeat=reps, tol=tol)
        path = out_dir / f"{scn['id']}.{command}.csv"
        write_csv(path, RESULT_COLUMNS, rows, precision)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_flops(config: dict, out_dir: Path, precision: str = "table") -> int:
    for scn in config["scenarios"]:
        block = scn.get("flops", {})
        mode = block.get("mode", "both")
        modes = ["sri_vs_pcg", "sri_vs_fdp"] if mode == "both" else [mode]
        for m in modes:
            sweep = costmodel.ratio_sweep(m, **_given(block, "n", "axis", "parameters"))
            rows = [[x, label, ratio] for x, label, ratio in sweep.rows()]
            path = out_dir / f"{scn['id']}.flops.{m}.csv"
            write_csv(path, ["x", "series_label", "ratio"], rows, precision)
            print(f"wrote {path}")
    return EXIT_OK


def cmd_nonlinear(config: dict, out_dir: Path, tol: float | None = None,
                  precision: str = "table") -> int:
    for scn in config["scenarios"]:
        block = scn.get("nonlinear")
        if block is None:
            raise ConfigError(f"scenario {scn['id']} lacks a nonlinear block")
        backends = block.get("backends", ["regular"])
        newton_kw = _given(block, "n_steps", "tol_outer", "tol_inner")
        if tol is not None:
            newton_kw["tol_inner"] = tol
        summary = []
        for sigma_y in block["sigma_y"]:
            material = {"e0": block.get("e0", 2e5), "et": block.get("et", 0.3e5),
                        "sigma_y": sigma_y}
            model = build_model({**scn.get("model", {}), "material": material})
            p0 = model.load_vector()
            nodes = resolve_nodes(model, scn)
            for backend in backends:
                run = run_newton_raphson(model, p0, backend=backend, **newton_kw)
                rows = []
                for i, lam in enumerate(run.lambdas):
                    for node in nodes:
                        for dof in range(model.dofs_per_node):
                            g = model.dof_map[node, dof]
                            value = float(run.displacements[i][g]) if g >= 0 else 0.0
                            rows.append([i + 1, lam, node, dof, value,
                                         run.outer_iterations[i], run.n_nle[i]])
                path = out_dir / f"{scn['id']}.nonlinear.sy{sigma_y:g}.{backend}.csv"
                write_csv(path, ["step", "lambda", "node_id", "dof", "value",
                                 "outer_iters", "n_nle"], rows, precision)
                print(f"wrote {path}" + ("" if run.converged else
                                         f"  [failed at step {run.failed_step}]"))
                summary.append([scn["id"], sigma_y, backend, len(run.lambdas),
                                run.n_nle[-1] if run.n_nle else 0,
                                sum(run.outer_iterations), run.wall_time, run.converged])
        path = out_dir / f"{scn['id']}.nonlinear.summary.csv"
        write_csv(path, ["scenario", "sigma_y", "backend", "steps", "n_nle_final",
                         "outer_iters_total", "wall_time", "converged"],
                  summary, precision)
        print(f"wrote {path}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reanalyze",
        description="Structural reanalysis benchmark driver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in COMMAND_FLAGS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario config JSON")
        p.add_argument("--out", default=".", help="output directory")
        for flag in flags:
            # an absent flag is not passed, so the command's own default holds
            p.add_argument(f"--{flag}", default=argparse.SUPPRESS, **FLAG_ARGS[flag])
    return parser


def run(command: str, config: dict, out_dir: str | Path, **flags) -> int:
    """Validate config against the scenario schema, run command on it and
    return the exit code: 0 done, 2 config error, 3 model error.

    flags are the command's flags from COMMAND_FLAGS, as keywords (repeat,
    tol, precision); any other keyword raises TypeError.
    """
    out_dir = Path(out_dir)
    try:
        try:
            jsonschema.validate(config, schema("scenario"))
        except jsonschema.ValidationError as exc:
            raise ConfigError(f"config violates schema at {exc.json_path}: "
                              f"{exc.message}") from exc
        if command in TABLE_COMMANDS:
            return cmd_table(command, config, out_dir, **flags)
        handlers = {"generate": cmd_generate, "flops": cmd_flops, "nonlinear": cmd_nonlinear}
        return handlers[command](config, out_dir, **flags)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ReanalysisError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL


def main(argv=None) -> int:
    flags = vars(make_parser().parse_args(argv))
    command, path, out_dir = flags.pop("command"), flags.pop("config"), flags.pop("out")
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: cannot read config {path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(command, config, out_dir, **flags)


if __name__ == "__main__":
    sys.exit(main())
