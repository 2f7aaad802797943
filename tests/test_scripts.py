"""Checks on the output of the scripts under scripts/."""

import csv
import importlib.util
import json
import sys
from pathlib import Path

from reanalyze.assembly import BAND_SHARE
from reanalyze.cli import EXIT_OK, check_config, run

from test_acceptance import FG_FRAME_REFERENCE

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_trajectory(tmp_path):
    # every method within 1e-8 of the direct solve (the committed files reach
    # 7.3e-10), the C_s route the ladder and the two frames take
    # (SystemPartition.c_s_stored), a basis factor without fill in every
    # scenario, and the stiffness routes
    assert load_script("bench_trajectory").main(
        ["--label", "test", "--out", str(tmp_path), "--repeats", "1"]) == 0
    (path,) = tmp_path.glob("BENCH_*_test.json")
    scenarios = json.loads(path.read_text())["scenarios"]
    errors = {(name, method): err for name, s in scenarios.items()
              for method, err in s["rel_err"].items()}
    assert max(errors.values()) <= 1e-8, errors
    routes = {name: s["c_s_route"] for name, s in scenarios.items()}
    assert routes == {"ladder-31x64": "c_b", "frame-50x20-damaged5": "stored",
                      "c08c": "stored"}, routes
    fill = {name: s["c_b_fill"] for name, s in scenarios.items()}
    assert len(fill) == 3 and not any(fill.values()), fill
    # next to make_partition's time, the nonzeros of C_s (fewer than n q)
    # and the dependency levels of its build (at least one, at most n)
    for name, s in scenarios.items():
        assert 0 < s["c_s_nnz"] < s["n"] * s["q"], (name, s["c_s_nnz"])
        assert 1 <= s["levels"] <= s["n"], (name, s["levels"])
        assert s["calls"]["make_partition"]["median_s"] > 0, name
    # the stiffness routes: banded Cholesky for the ladder and the frame,
    # sparse LU for c08c's original (PCG's and the preconditioner's K0) and
    # banded for its graded design, each as its band share and BAND_SHARE
    # give it
    stiffness = {(name, which): route for name, s in scenarios.items()
                 for which, route in s["stiffness"].items()}
    assert {key: route["route"] for key, route in stiffness.items()} == {
        ("ladder-31x64", "original"): "banded", ("ladder-31x64", "design"): "banded",
        ("frame-50x20-damaged5", "original"): "banded",
        ("frame-50x20-damaged5", "design"): "banded",
        ("c08c", "original"): "sparse", ("c08c", "design"): "banded"}, stiffness
    for route in stiffness.values():
        assert (route["band_share"] <= BAND_SHARE) == (route["route"] == "banded"), stiffness
        assert route["rcm_bandwidth"] > 0
    # the Gram sends some of the ladder's rows of C_s^T through BLAS and
    # none of the frames', and executes fewer multiply-adds than n q^2
    heavy = {name: s["gram"]["heavy_rows"] for name, s in scenarios.items()}
    assert heavy["ladder-31x64"] > 0 and heavy["frame-50x20-damaged5"] == 0, heavy
    for name, s in scenarios.items():
        assert 0 < s["gram"]["multiply_adds"] < s["gram"]["dense_multiply_adds"], (name, s["gram"])
        for stage in ("reduced_gram", "fdp_cholesky"):
            assert s["calls"][stage]["median_s"] > 0, (name, stage)
    # FDP factors the ladder's dense operator by dense Cholesky and the
    # frames' sparse ones by banded Cholesky, each band narrower than q
    fdp = {name: s["fdp"] for name, s in scenarios.items()}
    assert {name: f["route"] for name, f in fdp.items()} == {
        "ladder-31x64": "dense", "frame-50x20-damaged5": "banded", "c08c": "banded"}, fdp
    for name in ("frame-50x20-damaged5", "c08c"):
        q = scenarios[name]["q"]
        assert 0 < fdp[name]["rcm_bandwidth"] < q and 0 < fdp[name]["nnz"] < q * q, fdp
    # every Newton run keeps its tangent factor (or the base of its low-rank
    # update) while no bar changes state, only the reduced backends hold a
    # low-rank update, and the 30x150 ladder ends with its published yield
    # count
    newton = json.loads(path.read_text())["newton"]
    runs = {(name, backend): run for name, s in newton.items()
            for backend, run in s["backends"].items()}
    assert set(runs) == {("ladder-30x30-sy5", "regular"), ("ladder-30x30-sy5", "reduction"),
                         ("ladder-30x30-sy5", "sri"), ("ladder-30x150-sy45", "regular"),
                         ("ladder-30x150-sy45", "sri")}, runs
    for (name, backend), run in runs.items():
        assert run["converged"] and run["run"]["median_s"] > 0, (name, backend, run)
        # the time inside the factor or base builder is part of the run's
        assert 0 < run["factor_s"] < run["run"]["median_s"], (name, backend, run)
        assert 0 < run["factorizations"] < run["outer_iterations"], (name, backend, run)
        assert (run["max_update_rank"] > 0) == (backend != "regular"), (name, backend, run)
    assert runs["ladder-30x30-sy5", "reduction"]["factorizations"] == 1
    for backend in ("regular", "sri"):
        assert runs["ladder-30x150-sy45", backend]["n_nle_final"] == 1691


def captured_run(monkeypatch, name, argv):
    """The command and config a CLI-driven script hands to reanalyze.cli.run
    under argv, captured before anything is solved."""
    module = load_script(name)
    calls = []
    monkeypatch.setattr(module, "run", lambda command, config, out: calls.append(
        (command, config)))
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    module.main()
    (call,) = calls
    return call


def test_script_configs_match_the_scenario_schema(monkeypatch):
    # the scripts otherwise meet their command's scenario contract only when
    # run end to end; check_config is the check run makes
    runs = [
        ("truss_reanalysis_table", []),
        ("frame_reanalysis_table", ["--coupling", "simplified"]),
        ("frame_reanalysis_table", ["--coupling", "exact"]),
        ("nonlinear_ladder", []),
        ("nonlinear_ladder", ["--reduced", "--backends", "regular", "reduction", "sri"]),
        ("flop_ratio_curves", []),
    ]
    for name, argv in runs:
        check_config(*captured_run(monkeypatch, name, argv))


def graded_frame_triples(tmp_path, coupling):
    """{(p, method): printed node-B triple} of the graded frames of the frame
    table's config under coupling, run through the CLI."""
    config = load_script("frame_reanalysis_table").build_config(coupling)
    config["scenarios"] = [scn for scn in config["scenarios"]
                           if scn["id"].startswith("fg-frame-")]
    assert run("reanalyze", config, tmp_path) == EXIT_OK
    triples = {}
    for p in FG_FRAME_REFERENCE:
        with open(tmp_path / f"fg-frame-p{p:g}.reanalyze.csv") as fh:
            for row in csv.DictReader(fh):
                triples.setdefault((p, row["method"]), []).append(row["value"])
    return {key: tuple(values) for key, values in triples.items()}


def test_frame_table_reproduces_the_graded_frame_triples(tmp_path):
    # the coupling convention reaches the CLI only through the graded
    # frames' model.material; acceptance check c03 publishes these triples
    # under the simplified convention, which the exact one changes at p != 1
    printed = {p: tuple(f"{v:.6e}" for v in triple) for p, triple in FG_FRAME_REFERENCE.items()}
    simplified = graded_frame_triples(tmp_path / "simplified", "simplified")
    assert len(simplified) == 4 * len(FG_FRAME_REFERENCE)
    assert simplified == {(p, method): printed[p] for p, method in simplified}
    exact = graded_frame_triples(tmp_path / "exact", "exact")
    methods = ("fdp", "pcg", "sri", "conventional")
    assert all(exact[(0.5, method)] != printed[0.5] for method in methods)
