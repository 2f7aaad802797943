"""Batch front end: model generation, solve/reanalysis campaigns, flop sweeps
and nonlinear runs driven by JSON scenario configs.

The front end is thin.  COMMANDS names each command's handler and the
scenario blocks it reads; configs are checked against
schemas/scenario.schema.json restricted to those blocks, so a block the
command does not read is a config error.  Each command forwards only the
keys a scenario gives to the library, whose own defaults cover the rest; a
model file's saved partition is its default partition.  Output files are
named by scenario id, which the schema keeps free of path separators.
Every setting lives in the config; the one flag, --precision, only formats
the output of the commands that write tables.  `run` is the in-process
entry point (the scripts/ drivers call it); `main` parses the command line,
reads the config file and calls `run`.

Timing follows the reanalysis convention: everything precomputable for a
campaign (influence matrix, preconditioner factorizations, assembled modified
stiffness) is built outside the timed region; the conventional method is timed
as a complete analysis.  Reported times are medians over `repeat` runs; with
repeat = 0 timing is disabled.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import functools
import json
import statistics
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import costmodel
from .assembly import assemble_global, factorize_stiffness, make_partition, update_partition
from .errors import InvalidParameterError, ReanalysisError
from .model import (
    MaterialSpec,
    PartitionSpec,
    StructuralModel,
    apply_floor_grading,
    build_frame_grid,
    build_truss_grid,
    default_additional_set,
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

GENERATORS = {"truss": build_truss_grid, "frame": build_frame_grid}


class ConfigError(Exception):
    pass


def _given(block: dict, *keys: str) -> dict:
    """The entries of block under keys; absent keys keep the library default."""
    return {k: block[k] for k in keys if k in block}


def build_model(block: dict) -> tuple[StructuralModel, PartitionSpec | None]:
    """The model of a scenario's model block and the partition saved with it:
    a model file and its partition, if it holds one, or the block's generator
    called with exactly the keys the block gives and None.  A model file that
    cannot be read or parsed is a ConfigError, one that violates the model
    schema an InvalidParameterError; both messages name the file."""
    if "path" in block:
        path = block["path"]
        try:
            return load_model(path)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read model file {path}: {exc}") from exc
        except jsonschema.ValidationError as exc:
            raise InvalidParameterError(f"model file {path} violates the model schema "
                                        f"at {exc.json_path}: {exc.message}") from exc
    kwargs = dict(block)
    gen = kwargs.pop("generator")
    if "material" in kwargs:
        kwargs["material"] = MaterialSpec(**kwargs["material"])
    if "level" in kwargs:
        kwargs["n_span"] = spans_from_level(kwargs.pop("level"))
    return GENERATORS[gen](**kwargs), None


def apply_modification(model: StructuralModel, block: dict) -> StructuralModel:
    out = model
    if "p" in block:
        out = replace_fg_exponent(out, block["p"])
    if "e_lower" in block:
        out = apply_floor_grading(out, block["e_lower"], block["e_upper"],
                                  **_given(block, "target"))
    return out


def partition_spec_for(model: StructuralModel, saved: PartitionSpec | None,
                       scn: dict) -> PartitionSpec:
    """The scenario's additional ids; the default is the partition saved with
    the model file, else the generator's."""
    block = scn.get("partition", "default")
    if block != "default":
        return PartitionSpec.of(block["additional_ids"])
    return saved if saved is not None else default_additional_set(model)


def resolve_nodes(model: StructuralModel, scn: dict) -> list[int]:
    """The report nodes of a scenario: node ids, or A/B as named by the
    model's meta; anything that is not an int node id of the model is a
    ConfigError."""
    out = []
    for entry in scn.get("report", {}).get("nodes", ["A", "B"]):
        if entry in ("A", "B"):
            key = "node_" + entry.lower()
            if key not in model.meta:
                raise ConfigError(f"report node {entry} is not named: "
                                  f"the model's meta has no {key}")
            node, source = model.meta[key], f"the model's meta {key}"
        else:
            node, source = entry, "report node"
        if type(node) is not int or not 0 <= node < len(model.nodes):
            raise ConfigError(f"{source} {node!r} is not a node id: "
                              f"the model has {len(model.nodes)} nodes")
        out.append(node)
    return out


def node_values(model: StructuralModel, d: np.ndarray, nodes: list[int]):
    """(node, dof, value) of every DOF of the report nodes under the free-DOF
    displacements d, a constrained DOF reading 0.0."""
    for node in nodes:
        for dof, g in enumerate(model.dof_map[node]):
            yield node, dof, float(d[g]) if g >= 0 else 0.0


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


def run_linear_scenario(scn: dict, *, from_original: bool) -> list[list]:
    """Rows of the result table for one scenario.

    from_original=True is reanalysis (partition topology, preconditioners and
    the full-system factorization come from the unmodified structure);
    from_original=False solves the final structure with its own operators.
    """
    model_orig, saved = build_model(scn["model"])
    mod_block = scn.get("modification")
    model_final = apply_modification(model_orig, mod_block) if mod_block else model_orig
    base = model_orig if from_original else model_final
    nodes = resolve_nodes(model_final, scn)

    solver_block = scn.get("solvers", {})
    methods = solver_block.get("methods", ["conventional", "pcg", "sri", "fdp"])
    solve_kw = _given(solver_block, "tol", "max_iter")

    # preprocessing, excluded from reanalysis timing
    part_final = precond = k0 = k_mod = None
    if "sri" in methods or "fdp" in methods:
        part_base = make_partition(base, partition_spec_for(base, saved, scn))
        part_final = part_base if model_final is base else update_partition(part_base, model_final)
        if "sri" in methods:
            precond = build_sri_preconditioner(part_base)
    if "pcg" in methods:
        k0 = factorize_stiffness(base)
        k_mod = assemble_global(model_final)
    r = model_final.load_vector()

    repeat = scn.get("repeat", 1)
    runs = max(repeat, 1)
    reports = {}
    walls = {}
    for method in methods:
        times = []
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
        rct = costmodel.relative_time(wall, t_c) if t_c and method != "conventional" else None
        rows += [[scn["id"], method, node, dof, value, rep.iterations, rep.flops_estimate,
                  wall, rct, rep.converged]
                 for node, dof, value in node_values(model_final, rep.d, nodes)]
    rows.sort(key=lambda row: (row[0], row[1], row[2], row[3]))
    return rows


def cmd_generate(config: dict, out_dir: Path) -> int:
    for scn in config["scenarios"]:
        model, partition = build_model(scn["model"])
        if "partition" in scn:
            partition = partition_spec_for(model, partition, scn)
        path = out_dir / f"{scn['id']}.model.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        save_model(model, path, partition)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_table(command: str, config: dict, out_dir: Path, precision: str = "table") -> int:
    """One result table per scenario for solve or reanalyze."""
    for scn in config["scenarios"]:
        rows = run_linear_scenario(scn, from_original=command == "reanalyze")
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


def _sy_label(sigma_y: float) -> str:
    """The yield stress's part of a nonlinear output file name."""
    return f"sy{sigma_y:g}"


def cmd_nonlinear(config: dict, out_dir: Path, precision: str = "table") -> int:
    """Newton runs of each scenario's model, whose material gives the bilinear
    moduli, with sigma_y set on every element in turn to each swept value."""
    for scn in config["scenarios"]:
        block = scn["nonlinear"]
        backends = block.get("backends", ["regular"])
        newton_kw = _given(block, "n_steps", "tol_outer", "tol_inner")
        base, _ = build_model(scn["model"])
        p0 = base.load_vector()
        nodes = resolve_nodes(base, scn)
        summary = []
        for sigma_y in block["sigma_y"]:
            model = base.replace_materials(
                {e.id: dataclasses.replace(e.material, sigma_y=sigma_y) for e in base.elements})
            for backend in backends:
                run = run_newton_raphson(model, p0, backend=backend, **newton_kw)
                rows = [[i + 1, lam, node, dof, value, run.outer_iterations[i],
                         run.inner_iterations[i], run.n_nle[i], run.step_times[i]]
                        for i, lam in enumerate(run.lambdas)
                        for node, dof, value in node_values(model, run.displacements[i], nodes)]
                path = out_dir / f"{scn['id']}.nonlinear.{_sy_label(sigma_y)}.{backend}.csv"
                write_csv(path, ["step", "lambda", "node_id", "dof", "value",
                                 "outer_iters", "inner_iters", "n_nle", "step_s"], rows, precision)
                print(f"wrote {path}" + ("" if run.converged else
                                         f"  [failed at step {run.failed_step}]"))
                summary.append([scn["id"], sigma_y, backend, len(run.lambdas),
                                run.n_nle[-1] if run.n_nle else 0,
                                sum(run.outer_iterations), sum(run.inner_iterations),
                                sum(run.factorizations), run.wall_time, run.converged])
        path = out_dir / f"{scn['id']}.nonlinear.summary.csv"
        write_csv(path, ["scenario", "sigma_y", "backend", "steps", "n_nle_final",
                         "outer_iters_total", "inner_iters_total", "factorizations_total",
                         "wall_time", "converged"],
                  summary, precision)
        print(f"wrote {path}")
    return EXIT_OK


# command: (handler, the scenario blocks it requires, the further blocks it reads)
COMMANDS = {
    "generate": (cmd_generate, ("model",), ("partition",)),
    "solve": (functools.partial(cmd_table, "solve"), ("model",),
              ("modification", "partition", "solvers", "report", "repeat")),
    "reanalyze": (functools.partial(cmd_table, "reanalyze"), ("model",),
                  ("modification", "partition", "solvers", "report", "repeat")),
    "flops": (cmd_flops, (), ("flops",)),
    "nonlinear": (cmd_nonlinear, ("model", "nonlinear"), ("report",)),
}


def _clash(values, label):
    """The first two of values whose labels coincide, or None."""
    seen = {}
    for value in values:
        if label(value) in seen:
            return seen[label(value)], value
        seen[label(value)] = value
    return None


def check_config(command: str, config: dict) -> None:
    """Raise ConfigError unless config meets the scenario schema restricted to
    the id and the blocks command reads, and names no two output files alike:
    scenario ids, and the sigma_y file labels of a scenario, are distinct."""
    _, required, optional = COMMANDS[command]
    restricted = copy.deepcopy(schema("scenario"))
    items = restricted["properties"]["scenarios"]["items"]
    items["required"] = ["id", *required]
    items["properties"] = {k: items["properties"][k] for k in ("id", *required, *optional)}
    try:
        jsonschema.validate(config, restricted)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config violates schema at {exc.json_path}: "
                          f"{exc.message}") from exc
    clash = _clash([scn["id"] for scn in config["scenarios"]], str)
    if clash:
        raise ConfigError(f"scenario id {clash[0]!r} is given twice; "
                          f"output files are named by scenario id")
    for scn in config["scenarios"]:
        clash = _clash(scn.get("nonlinear", {}).get("sigma_y", []), _sy_label)
        if clash:
            raise ConfigError(f"scenario {scn['id']}: sigma_y {clash[0]!r} and "
                              f"{clash[1]!r} share the file label {_sy_label(clash[0])}")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reanalyze",
        description="Structural reanalysis benchmark driver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario config JSON")
        p.add_argument("--out", default=".", help="output directory")
        if name != "generate":
            p.add_argument("--precision", choices=("table", "full"), default="table",
                           help="float formatting: 7 significant digits (table, "
                                "the default) or full")
    return parser


def run(command: str, config: dict, out_dir: str | Path, **flags) -> int:
    """Check config (check_config), then run command on it, and return the
    exit code: 0 done, 2 config error, 3 model error.

    flags are the command's flags as keywords: precision="table" or "full"
    for every command but generate, which takes none; any other keyword
    raises TypeError.
    """
    handler = COMMANDS[command][0]
    try:
        check_config(command, config)
        return handler(config, Path(out_dir), **flags)
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
