"""CLI behavior: subcommands, exit codes, CSV determinism."""

import csv
import json

import pytest

from reanalyze.cli import EXIT_CONFIG, EXIT_MODEL, EXIT_OK, main, run
from reanalyze.model import build_truss_grid
from reanalyze.modelio import load_model, to_document


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def assert_config_error(capsys, code):
    """Exit 2 with a one-line config error message and no traceback."""
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    return err


TRUSS_SCENARIO = {
    "id": "t1",
    "model": {"generator": "truss", "n_span": 3, "n_floor": 2},
    "modification": {"e_lower": 5000, "e_upper": 35000, "target": "E"},
    "partition": "default",
    "solvers": {"methods": ["conventional", "pcg", "sri", "fdp"], "tol": 1e-12},
    "report": {"nodes": ["A", "B"]},
    "repeat": 1,
}


class TestGenerate:
    def test_writes_model_json(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [{
            "id": "gen", "model": {"generator": "truss", "level": 2, "n_floor": 4},
            "partition": "default",
        }]})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        model, spec = load_model(tmp_path / "gen.model.json")
        assert model.n == 2 * 4 * 4
        assert spec is not None and len(spec.additional_ids) == 2 * 4

    def test_frame_generation(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [{
            "id": "fr", "model": {"generator": "frame", "n_span": 50, "n_floor": 20,
                                  "n_sb": 2},
        }]})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        model, _ = load_model(tmp_path / "fr.model.json")
        assert len(model.nodes) - 51 == 2020

    def test_malformed_config_exits_2_without_output(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [{"model": {}}]})  # id missing
        out = tmp_path / "out"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_unreadable_config_exits_2(self, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{")
        assert main(["generate", "--config", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("block", [
        {"generator": "truss", "n_floor": 2},
        {"generator": "truss", "n_span": 2},
        {"generator": "frame", "n_floor": 2},
        {"generator": "truss", "n_span": 2, "n_floor": 2, "n_sb": 3},
        {"generator": "frame", "n_span": 2, "n_floor": 2, "e0": 5.0},
        {"generator": "truss", "n_span": 3, "level": 2, "n_floor": 2},
        {"path": "m.model.json", "n_span": 2},
    ], ids=["truss-no-span", "truss-no-floor", "frame-no-span", "truss-frame-key",
            "frame-truss-key", "truss-span-and-level", "path-and-generator-key"])
    def test_malformed_generator_block_exits_2(self, tmp_path, capsys, block):
        cfg = write_config(tmp_path, {"scenarios": [{"id": "g", "model": block}]})
        out = tmp_path / "out"
        assert_config_error(capsys, main(["generate", "--config", cfg, "--out", str(out)]))
        assert not out.exists()

    def test_flag_not_read_by_command_is_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [{"id": "f", "flops": {"n": 100}}]})
        for argv in (["generate", "--repeat", "3"], ["flops", "--tol", "1e-3"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--config", cfg, "--out", str(tmp_path)])
            assert exc.value.code == 2
        assert not list(tmp_path.glob("*.csv"))

    def test_output_filename_is_not_a_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenarios": [{
            "id": "f", "flops": {"n": 100}, "output": {"filename": "x.csv"}}]})
        assert_config_error(capsys, main(["flops", "--config", cfg, "--out", str(tmp_path)]))
        assert not (tmp_path / "x.csv").exists()


class TestSolveAndReanalyze:
    def test_reanalyze_writes_result_table(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [TRUSS_SCENARIO]})
        assert main(["reanalyze", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        rows = read_rows(tmp_path / "t1.reanalyze.csv")
        assert len(rows) == 4 * 2 * 2  # methods x nodes x dofs
        methods = {r["method"] for r in rows}
        assert methods == {"conventional", "pcg", "sri", "fdp"}
        values = {(r["method"], r["node"], r["dof"]): r["value"] for r in rows}
        # all methods agree on the printed 7 digits
        for node in {r["node"] for r in rows}:
            for dof in ("0", "1"):
                assert len({values[(m, node, dof)] for m in methods}) == 1
        for r in rows:
            assert r["converged"] == "True"
            if r["method"] != "conventional":
                assert float(r["rct"]) > 0.0

    def test_solve_baseline_conventional_only(self, tmp_path):
        scn = dict(TRUSS_SCENARIO)
        scn["solvers"] = {"methods": ["conventional"]}
        cfg = write_config(tmp_path, {"scenarios": [scn]})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        rows = read_rows(tmp_path / "t1.solve.csv")
        assert {r["method"] for r in rows} == {"conventional"}
        assert all(r["rct"] == "" for r in rows)
        assert all(float(r["wall_time"]) > 0 for r in rows)

    def test_deterministic_output_modulo_timing(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [TRUSS_SCENARIO]})
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["reanalyze", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["reanalyze", "--config", cfg, "--out", str(out2)]) == EXIT_OK

        def strip_timing(path):
            rows = read_rows(path)
            for r in rows:
                r.pop("wall_time"), r.pop("rct")
            return rows

        assert strip_timing(out1 / "t1.reanalyze.csv") == strip_timing(out2 / "t1.reanalyze.csv")

    def test_no_convergence_flags_row_and_continues(self, tmp_path):
        scn = dict(TRUSS_SCENARIO)
        scn["solvers"] = {"methods": ["pcg", "conventional"], "max_iter": 1, "tol": 1e-12}
        cfg = write_config(tmp_path, {"scenarios": [scn]})
        assert main(["reanalyze", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        rows = read_rows(tmp_path / "t1.reanalyze.csv")
        flags = {r["method"]: r["converged"] for r in rows}
        assert flags["pcg"] == "False" and flags["conventional"] == "True"

    def test_path_loaded_model_round_trip(self, tmp_path):
        gen_cfg = write_config(tmp_path, {"scenarios": [{
            "id": "src", "model": {"generator": "truss", "n_span": 3, "n_floor": 2},
        }]}, name="gen.json")
        assert main(["generate", "--config", gen_cfg, "--out", str(tmp_path)]) == EXIT_OK
        scn = dict(TRUSS_SCENARIO, id="fromfile",
                   model={"path": str(tmp_path / "src.model.json")})
        cfg = write_config(tmp_path, {"scenarios": [scn]}, name="solve.json")
        assert main(["reanalyze", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        rows = read_rows(tmp_path / "fromfile.reanalyze.csv")
        direct = dict(TRUSS_SCENARIO, id="direct")
        cfg2 = write_config(tmp_path, {"scenarios": [direct]}, name="direct.json")
        assert main(["reanalyze", "--config", cfg2, "--out", str(tmp_path)]) == EXIT_OK
        rows2 = read_rows(tmp_path / "direct.reanalyze.csv")
        assert [r["value"] for r in rows] == [r["value"] for r in rows2]

    @pytest.mark.parametrize("bound", ["e_lower", "e_upper"])
    def test_partial_grading_bounds_exit_2(self, tmp_path, capsys, bound):
        scn = dict(TRUSS_SCENARIO, modification={bound: 5000, "target": "E"})
        cfg = write_config(tmp_path, {"scenarios": [scn]})
        assert_config_error(capsys, main(["reanalyze", "--config", cfg,
                                          "--out", str(tmp_path)]))

    def test_out_of_range_report_node_exits_2(self, tmp_path, capsys):
        scn = dict(TRUSS_SCENARIO, model={"generator": "truss", "n_span": 2, "n_floor": 2},
                   report={"nodes": ["A", 999]})
        cfg = write_config(tmp_path, {"scenarios": [scn]})
        err = assert_config_error(capsys, main(["reanalyze", "--config", cfg,
                                                "--out", str(tmp_path)]))
        assert "999" in err and "9 nodes" in err

    def test_unnamed_report_node_exits_2(self, tmp_path, capsys):
        doc = to_document(build_truss_grid(3, 2))
        del doc["meta"]  # a model file that names neither node A nor node B
        (tmp_path / "bare.model.json").write_text(json.dumps(doc))
        scn = {"id": "bare", "model": {"path": str(tmp_path / "bare.model.json")},
               "solvers": {"methods": ["conventional"]}}
        cfg = write_config(tmp_path, {"scenarios": [scn]})
        err = assert_config_error(capsys, main(["reanalyze", "--config", cfg,
                                                "--out", str(tmp_path)]))
        assert "node_a" in err

    def test_model_error_exits_3(self, tmp_path):
        scn = {"id": "bad", "model": {"generator": "truss", "n_span": 2, "n_floor": 2},
               "modification": {"e_lower": 5000, "e_upper": 35000, "target": "E_US"}}
        cfg = write_config(tmp_path, {"scenarios": [scn]})
        assert main(["reanalyze", "--config", cfg, "--out", str(tmp_path)]) == EXIT_MODEL

    def test_explicit_partition_and_full_precision(self, tmp_path):
        scn = dict(TRUSS_SCENARIO)
        scn["partition"] = {"additional_ids": [8, 9, 18, 19]}  # non-first-span diagonals
        cfg = write_config(tmp_path, {"scenarios": [scn]})
        assert main(["reanalyze", "--config", cfg, "--out", str(tmp_path),
                     "--precision", "full"]) == EXIT_OK
        rows = read_rows(tmp_path / "t1.reanalyze.csv")
        sample = next(r["value"] for r in rows if r["method"] == "conventional")
        assert len(sample.split(".")[-1]) > 8  # repr precision, not 7 digits


class TestBenchAndThreads:
    def test_bench_reports_rct_with_repeats(self, tmp_path):
        scn = dict(TRUSS_SCENARIO)
        cfg = write_config(tmp_path, {"scenarios": [scn]})
        assert main(["bench", "--config", cfg, "--out", str(tmp_path),
                     "--repeat", "2"]) == EXIT_OK
        rows = read_rows(tmp_path / "t1.bench.csv")
        for r in rows:
            if r["method"] != "conventional":
                assert float(r["rct"]) > 0.0

    def test_untimed_runs_leave_wall_time_blank(self, tmp_path):
        scn2 = dict(TRUSS_SCENARIO, id="t2")
        cfg = write_config(tmp_path, {"scenarios": [TRUSS_SCENARIO, scn2]})
        assert main(["reanalyze", "--config", cfg, "--out", str(tmp_path),
                     "--repeat", "0"]) == EXIT_OK
        for name in ("t1", "t2"):
            rows = read_rows(tmp_path / f"{name}.reanalyze.csv")
            assert rows and all(r["wall_time"] == "" for r in rows)

    def test_solve_uses_final_structure_operators(self, tmp_path):
        # solving with self-seeded operators converges in one iteration,
        # reanalysis from the unmodified structure needs several
        scn = dict(TRUSS_SCENARIO)
        scn["solvers"] = {"methods": ["sri"], "tol": 1e-12}
        cfg = write_config(tmp_path, {"scenarios": [scn]})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert main(["reanalyze", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        solve_iters = {r["iterations"] for r in read_rows(tmp_path / "t1.solve.csv")}
        re_iters = {r["iterations"] for r in read_rows(tmp_path / "t1.reanalyze.csv")}
        assert solve_iters == {"1"}
        assert all(int(i) > 1 for i in re_iters)


class TestFlops:
    def test_both_panels_written(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [{"id": "f", "flops": {"n": 10000}}]})
        assert main(["flops", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        pcg_rows = read_rows(tmp_path / "f.flops.sri_vs_pcg.csv")
        fdp_rows = read_rows(tmp_path / "f.flops.sri_vs_fdp.csv")
        assert len(pcg_rows) == 18 * 4
        assert len(fdp_rows) == 80 * 4
        assert set(pcg_rows[0]) == {"x", "series_label", "ratio"}

    def test_run_in_process(self, tmp_path):
        config = {"scenarios": [{"id": "f", "flops": {"n": 10000}}]}
        assert run("flops", config, tmp_path) == EXIT_OK
        assert (tmp_path / "f.flops.sri_vs_pcg.csv").exists()
        assert (tmp_path / "f.flops.sri_vs_fdp.csv").exists()

    def test_single_point_query(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [{
            "id": "pt", "flops": {"mode": "sri_vs_fdp", "axis": [0.1],
                                  "parameters": [0.3]}}]})
        assert main(["flops", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        rows = read_rows(tmp_path / "pt.flops.sri_vs_fdp.csv")
        assert len(rows) == 1


class TestNonlinear:
    def test_history_and_summary(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [{
            "id": "nl",
            "model": {"generator": "truss", "n_span": 3, "n_floor": 3,
                      "area": 200, "load": 500},
            "report": {"nodes": ["B"]},
            "nonlinear": {"sigma_y": [2.0, 1e6], "backends": ["regular", "sri"],
                          "n_steps": 5, "e0": 2e5, "et": 0.3e5},
        }]})
        assert main(["nonlinear", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        hist = read_rows(tmp_path / "nl.nonlinear.sy2.regular.csv")
        assert len(hist) == 5 * 1 * 2  # steps x nodes x dofs
        assert set(hist[0]) == {"step", "lambda", "node_id", "dof", "value",
                                "outer_iters", "n_nle"}
        summary = read_rows(tmp_path / "nl.nonlinear.summary.csv")
        assert len(summary) == 4  # two yield stresses x two backends
        elastic = [r for r in summary if r["sigma_y"] == "1.000000e+06"]
        assert all(r["n_nle_final"] == "0" for r in elastic)

    def test_missing_block_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [{
            "id": "x", "model": {"generator": "truss", "n_span": 1, "n_floor": 1}}]})
        assert main(["nonlinear", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
