"""Batch front end: model generation, solve/reanalysis campaigns, flop sweeps
and nonlinear runs driven by JSON scenario configs.

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

from . import costmodel, modelio
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

_SCENARIO_SCHEMA = None


class ConfigError(Exception):
    pass


def scenario_schema() -> dict:
    global _SCENARIO_SCHEMA
    if _SCENARIO_SCHEMA is None:
        from importlib import resources
        text = resources.files("reanalyze.schemas").joinpath(
            "scenario.schema.json").read_text()
        _SCENARIO_SCHEMA = json.loads(text)
    return _SCENARIO_SCHEMA


def load_config(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        jsonschema.validate(doc, scenario_schema())
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config {path} violates schema: {exc.message}") from exc
    return doc


def build_model(block: dict) -> StructuralModel:
    if "path" in block:
        model, _ = modelio.load_model(block["path"])
        return model
    gen = block.get("generator")
    if gen is None:
        raise ConfigError("model block needs a generator or a path")
    material = MaterialSpec(**block["material"]) if "material" in block else None
    if gen == "truss":
        n_span = block.get("n_span")
        if n_span is None and "level" in block:
            n_span = spans_from_level(block["level"])
        return build_truss_grid(
            n_span=n_span, n_floor=block["n_floor"],
            span=block.get("span", 500.0), height=block.get("height", 500.0),
            area=block.get("area", 20.0), e0=block.get("e0", 20000.0),
            load=block.get("load", 20.0), material=material)
    return build_frame_grid(
        n_span=block["n_span"], n_floor=block["n_floor"],
        n_sb=block.get("n_sb", 1), n_sc=block.get("n_sc", 1),
        width=block.get("width", 10.0), depth=block.get("depth", 30.0),
        material=material, load=block.get("load", 20.0),
        span=block.get("span", 500.0), story=block.get("height", 500.0))


def apply_modification(model: StructuralModel, block: dict) -> StructuralModel:
    out = model
    if "p" in block:
        out = replace_fg_exponent(out, block["p"])
    if "e_lower" in block or "e_upper" in block:
        out = apply_floor_grading(out, block["e_lower"], block["e_upper"],
                                  block.get("target", "E"))
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
        if entry == "A":
            out.append(int(model.meta["node_a"]))
        elif entry == "B":
            out.append(int(model.meta["node_b"]))
        else:
            out.append(int(entry))
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
                        tol: float | None, max_iter: int | None) -> list[list]:
    """Rows of the result table for one scenario.

    from_original=True is reanalysis (partition topology, preconditioners and
    the full-system factorization come from the unmodified structure);
    from_original=False solves the final structure with its own operators.
    """
    model_orig = build_model(scn.get("model", {}))
    mod_block = scn.get("modification")
    if mod_block and "fg_coupling" in mod_block:
        model_orig = replace_fg_coupling(model_orig, mod_block["fg_coupling"])
    model_final = apply_modification(model_orig, mod_block) if mod_block else model_orig
    base = model_orig if from_original else model_final

    solver_block = scn.get("solvers", {})
    methods = solver_block.get("methods", ["conventional", "pcg", "sri", "fdp"])
    tol = tol if tol is not None else solver_block.get("tol", 1e-12)
    max_iter = max_iter if max_iter is not None else solver_block.get("max_iter")

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
                rep = solve_pcg_full(model_final, k0, tol=tol, max_iter=max_iter,
                                     k_matrix=k_mod)
            elif method == "sri":
                rep = solve_sri(part_final, r, precond, tol=tol, max_iter=max_iter)
            else:
                rep = solve_fdp(part_final, r)
            times.append(rep.wall_time)
        reports[method] = rep
        walls[method] = statistics.median(times)

    timing_on = repeat >= 1
    t_c = walls.get("conventional") if timing_on else None
    nodes = resolve_nodes(model_final, scn)
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


def _out_name(scn: dict, default: str) -> str:
    return scn.get("output", {}).get("filename", default)


def cmd_generate(config: dict, out_dir: Path, precision: str) -> int:
    for scn in config["scenarios"]:
        model = build_model(scn.get("model", {}))
        partition = None
        if "partition" in scn:
            partition = partition_spec_for(model, scn)
        path = out_dir / _out_name(scn, f"{scn['id']}.model.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        modelio.save_model(model, path, partition)
        print(f"wrote {path}")
    return EXIT_OK


def _run_table_command(config: dict, out_dir: Path, precision: str, repeat: int | None,
                       tol: float | None, from_original: bool, default_repeat: int,
                       suffix: str) -> int:
    for scn in config["scenarios"]:
        reps = repeat if repeat is not None else scn.get("repeat", default_repeat)
        rows = run_linear_scenario(scn, from_original=from_original,
                                   repeat=reps, tol=tol, max_iter=None)
        path = out_dir / _out_name(scn, f"{scn['id']}.{suffix}.csv")
        write_csv(path, RESULT_COLUMNS, rows, precision)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_flops(config: dict, out_dir: Path, precision: str) -> int:
    for scn in config["scenarios"]:
        block = scn.get("flops", {})
        mode = block.get("mode", "both")
        modes = ["sri_vs_pcg", "sri_vs_fdp"] if mode == "both" else [mode]
        for m in modes:
            sweep = costmodel.ratio_sweep(
                m, n=block.get("n", 10000),
                axis=block.get("axis"), parameters=block.get("parameters"))
            rows = [[x, label, ratio] for x, label, ratio in sweep.rows()]
            path = out_dir / _out_name(scn, f"{scn['id']}.flops.{m}.csv")
            write_csv(path, ["x", "series_label", "ratio"], rows, precision)
            print(f"wrote {path}")
    return EXIT_OK


def cmd_nonlinear(config: dict, out_dir: Path, precision: str, tol: float | None) -> int:
    for scn in config["scenarios"]:
        block = scn.get("nonlinear")
        if block is None:
            raise ConfigError(f"scenario {scn['id']} lacks a nonlinear block")
        backends = block.get("backends", ["regular"])
        summary = []
        for sigma_y in block["sigma_y"]:
            material = MaterialSpec(e0=block.get("e0", 2e5), et=block.get("et", 0.3e5),
                                    sigma_y=sigma_y)
            model_block = dict(scn.get("model", {}))
            model_block["material"] = {"e0": material.e0, "et": material.et,
                                       "sigma_y": material.sigma_y}
            model = build_model(model_block)
            p0 = model.load_vector()
            nodes = resolve_nodes(model, scn)
            for backend in backends:
                run = run_newton_raphson(
                    model, p0, n_steps=block.get("n_steps", 20), backend=backend,
                    tol_outer=block.get("tol_outer", 1e-8),
                    tol_inner=tol if tol is not None else block.get("tol_inner", 1e-15))
                rows = []
                for i, lam in enumerate(run.lambdas):
                    for node in nodes:
                        for dof in range(model.dofs_per_node):
                            g = model.dof_map[node, dof]
                            value = float(run.displacements[i][g]) if g >= 0 else 0.0
                            rows.append([i + 1, lam, node, dof, value,
                                         run.outer_iterations[i], run.n_nle[i]])
                name = f"{scn['id']}.nonlinear.sy{sigma_y:g}.{backend}.csv"
                path = out_dir / _out_name(scn, name)
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
    for name in ("generate", "solve", "reanalyze", "flops", "nonlinear", "bench"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario config JSON")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--repeat", type=int, default=None,
                       help="timing repetitions (0 disables timing)")
        p.add_argument("--tol", type=float, default=None,
                       help="override solver tolerance")
        p.add_argument("--precision", choices=("table", "full"), default="table",
                       help="float formatting: 7 significant digits or full")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out)
    try:
        if args.command == "generate":
            return cmd_generate(config, out_dir, args.precision)
        if args.command == "solve":
            return _run_table_command(config, out_dir, args.precision, args.repeat,
                                      args.tol, from_original=False,
                                      default_repeat=1, suffix="solve")
        if args.command == "reanalyze":
            return _run_table_command(config, out_dir, args.precision, args.repeat,
                                      args.tol, from_original=True,
                                      default_repeat=1, suffix="reanalyze")
        if args.command == "bench":
            return _run_table_command(config, out_dir, args.precision, args.repeat,
                                      args.tol, from_original=True,
                                      default_repeat=5, suffix="bench")
        if args.command == "flops":
            return cmd_flops(config, out_dir, args.precision)
        if args.command == "nonlinear":
            return cmd_nonlinear(config, out_dir, args.precision, args.tol)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ReanalysisError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
