"""CLI behavior: subcommands, exit codes, CSV determinism."""

import csv
import json

import pytest

from reanalyze.cli import EXIT_CONFIG, EXIT_MODEL, EXIT_OK, main, run
from reanalyze.model import MaterialSpec, build_truss_grid, default_additional_set
from reanalyze.modelio import load_model, save_model, to_document
from reanalyze.nonlinear import run_newton_raphson


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


# a valid instance of each scenario block, and the blocks each command reads
BLOCKS = {
    "model": {"generator": "truss", "n_span": 3, "n_floor": 2, "area": 200, "load": 500,
              "material": {"e0": 2e5, "et": 0.3e5}},
    "modification": {"e_lower": 5000, "e_upper": 35000, "target": "E"},
    "partition": "default",
    "solvers": {"methods": ["conventional", "sri"]},
    "report": {"nodes": ["B"]},
    "repeat": 0,
    "nonlinear": {"sigma_y": [5.0], "n_steps": 2},
    "flops": {"mode": "sri_vs_fdp", "axis": [0.1], "parameters": [0.3]},
}
LINEAR_READS = ["model", "modification", "partition", "solvers", "report", "repeat"]
READS = {"generate": ["model", "partition"], "solve": LINEAR_READS,
         "reanalyze": LINEAR_READS, "flops": ["flops"],
         "nonlinear": ["model", "nonlinear", "report"]}
REQUIRED = [("generate", "model"), ("solve", "model"), ("reanalyze", "model"),
            ("nonlinear", "model"), ("nonlinear", "nonlinear")]
UNREAD = [(command, block) for command, reads in READS.items()
          for block in BLOCKS if block not in reads]


def scenario_reading(command, scn_id="c"):
    """A scenario that gives every block command reads."""
    return {"id": scn_id, **{block: BLOCKS[block] for block in READS[command]}}


class TestCommandContract:
    # the commands read 18 of the 40 (command, block) pairs; the other 22
    # exit 2
    @pytest.mark.parametrize("command", READS)
    def test_every_block_the_command_reads_is_accepted(self, tmp_path, command):
        assert run(command, {"scenarios": [scenario_reading(command)]}, tmp_path) == EXIT_OK

    @pytest.mark.parametrize("command, block", UNREAD,
                             ids=[f"{c}-{b}" for c, b in UNREAD])
    def test_block_the_command_does_not_read_exits_2(self, tmp_path, capsys,
                                                     command, block):
        scn = dict(scenario_reading(command), **{block: BLOCKS[block]})
        cfg = write_config(tmp_path, {"scenarios": [scn]})
        out = tmp_path / "out"
        err = assert_config_error(capsys, main([command, "--config", cfg, "--out", str(out)]))
        assert repr(block) in err
        assert not out.exists()

    @pytest.mark.parametrize("command, block", REQUIRED,
                             ids=[f"{c}-{b}" for c, b in REQUIRED])
    def test_required_block_missing_exits_2(self, tmp_path, capsys, command, block):
        scn = scenario_reading(command)
        del scn[block]
        out = tmp_path / "out"
        err = assert_config_error(capsys, run(command, {"scenarios": [scn]}, out))
        assert repr(block) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", READS)
    def test_duplicate_scenario_id_exits_2_without_output(self, tmp_path, capsys, command):
        # every command names its files by scenario id
        scenarios = [scenario_reading(command, "a"), scenario_reading(command, "b"),
                     scenario_reading(command, "a")]
        out = tmp_path / "out"
        err = assert_config_error(capsys, run(command, {"scenarios": scenarios}, out))
        assert "'a'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", READS)
    @pytest.mark.parametrize("scn_id", ["x/../../esc", "x/../a", "a\\b"],
                             ids=["escapes-out", "aliases-a", "backslash"])
    def test_id_with_a_path_separator_exits_2_without_output(self, tmp_path, capsys,
                                                             command, scn_id):
        # files are named by id: "x/../../esc" wrote outside --out, and
        # "x/../a" named the file of id "a"
        scenarios = [scenario_reading(command, "a"), scenario_reading(command, scn_id)]
        out = tmp_path / "o" / "deep"
        err = assert_config_error(capsys, run(command, {"scenarios": scenarios}, out))
        assert repr(scn_id) in err and "does not match" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, scn", [
        ("nonlinear", {"nonlinear": {"sigma_y": [5.0], "backends": ["sri", "regular", "sri"]}}),
        ("reanalyze", {"solvers": {"methods": ["fdp", "fdp"]}}),
    ], ids=["backends", "methods"])
    def test_repeated_backend_or_method_exits_2(self, tmp_path, capsys, command, scn):
        # a repeated backend wrote its history file twice, a repeated method
        # its rows twice
        scn = dict(scenario_reading(command), **scn)
        out = tmp_path / "out"
        err = assert_config_error(capsys, run(command, {"scenarios": [scn]}, out))
        assert "non-unique" in err
        assert not out.exists()


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
        {"generator": "frame", "n_span": 2, "n_floor": 2, "area": 5.0},
        {"generator": "truss", "n_span": 3, "level": 2, "n_floor": 2},
        {"path": "m.model.json", "n_span": 2},
        {"generator": "truss", "n_span": 2, "n_floor": 2, "e0": 5.0},
        {},
        {"n_span": 2, "n_floor": 2},
    ], ids=["truss-no-span", "truss-no-floor", "frame-no-span", "truss-frame-key",
            "frame-truss-key", "truss-span-and-level", "path-and-generator-key",
            "truss-e0", "empty", "no-generator-or-path"])
    def test_malformed_generator_block_exits_2(self, tmp_path, capsys, block):
        cfg = write_config(tmp_path, {"scenarios": [{"id": "g", "model": block}]})
        out = tmp_path / "out"
        assert_config_error(capsys, main(["generate", "--config", cfg, "--out", str(out)]))
        assert not out.exists()

    def test_model_file_keeps_its_partition(self, tmp_path):
        model = build_truss_grid(3, 2)
        save_model(model, tmp_path / "src.model.json", default_additional_set(model))
        cfg = write_config(tmp_path, {"scenarios": [{
            "id": "copy", "model": {"path": str(tmp_path / "src.model.json")}}]})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        _, spec = load_model(tmp_path / "copy.model.json")
        assert spec == default_additional_set(model)

    def test_flag_not_read_by_command_is_rejected(self, tmp_path):
        # the scenario's repeat, solvers.tol and nonlinear.tol_inner have no
        # flag; --precision formats tables, which generate does not write
        cfg = write_config(tmp_path, {"scenarios": [{"id": "f", "flops": {"n": 100}}]})
        commands = ("generate", "solve", "reanalyze", "flops", "nonlinear")
        argvs = ([[c, "--repeat", "3"] for c in commands]
                 + [[c, "--tol", "1e-3"] for c in commands]
                 + [["generate", "--precision", "full"]])
        for argv in argvs:
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--config", cfg, "--out", str(tmp_path)])
            assert exc.value.code == 2
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command, scn, key", [
        ("reanalyze", {"modification": {"p": 0.5, "fg_coupling": "simplified"}},
         "fg_coupling"),
        ("nonlinear", {"nonlinear": {"sigma_y": [5.0], "e0": 2e5}}, "e0"),
        ("nonlinear", {"nonlinear": {"sigma_y": [5.0], "et": 3e4}}, "et"),
    ], ids=["modification-fg-coupling", "nonlinear-e0", "nonlinear-et"])
    def test_material_key_outside_the_model_block_exits_2(self, tmp_path, capsys,
                                                           command, scn, key):
        # e0, et and fg_coupling are set in model.material only; each block
        # goes to the command that reads it, so only the key is at fault
        model = {"generator": "truss", "n_span": 2, "n_floor": 2}
        cfg = write_config(tmp_path, {"scenarios": [{"id": "m", "model": model, **scn}]})
        err = assert_config_error(capsys, main([command, "--config", cfg,
                                                "--out", str(tmp_path / "out")]))
        assert repr(key) in err

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

    @pytest.mark.parametrize("modification", [
        {"e_lower": 5000, "target": "E"},
        {"e_upper": 5000, "target": "E"},
        {"target": "E_US"},
    ], ids=["e_lower", "e_upper", "target"])
    def test_partial_grading_bounds_exit_2(self, tmp_path, capsys, modification):
        # a target without bounds used to be dropped, leaving the model unmodified
        scn = dict(TRUSS_SCENARIO, modification=modification)
        cfg = write_config(tmp_path, {"scenarios": [scn]})
        out = tmp_path / "out"
        err = assert_config_error(capsys, main(["reanalyze", "--config", cfg,
                                                "--out", str(out)]))
        assert "is a dependency of" in err
        assert not out.exists()

    @pytest.mark.parametrize("partition", ["default", None])
    def test_model_file_partition_is_the_default(self, tmp_path, partition):
        # a file without generator metadata has no generator default; its
        # saved partition is used
        model = build_truss_grid(3, 2)
        doc = to_document(model, default_additional_set(model))
        del doc["meta"]["generator"]
        (tmp_path / "m.model.json").write_text(json.dumps(doc))
        scn = dict(TRUSS_SCENARIO, model={"path": str(tmp_path / "m.model.json")}, repeat=0)
        if partition is None:
            del scn["partition"]
        direct = dict(TRUSS_SCENARIO, id="direct", repeat=0)
        config = {"scenarios": [scn, direct]}
        assert run("reanalyze", config, tmp_path, precision="full") == EXIT_OK
        rows = read_rows(tmp_path / "t1.reanalyze.csv")
        rows2 = read_rows(tmp_path / "direct.reanalyze.csv")
        assert len(rows) == 16
        assert [dict(r, scenario="") for r in rows] == [dict(r, scenario="") for r in rows2]

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

    @pytest.mark.parametrize("node_b", [-1, 10**6, "x"])
    def test_meta_node_that_is_no_node_id_exits_2(self, tmp_path, capsys, node_b):
        doc = to_document(build_truss_grid(3, 4))
        doc["meta"]["node_b"] = node_b
        (tmp_path / "m.model.json").write_text(json.dumps(doc))
        scn = {"id": "m", "model": {"path": str(tmp_path / "m.model.json")},
               "solvers": {"methods": ["conventional"]}}
        cfg = write_config(tmp_path, {"scenarios": [scn]})
        out = tmp_path / "out"
        err = assert_config_error(capsys, main(["solve", "--config", cfg, "--out", str(out)]))
        assert "node_b" in err and repr(node_b) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "solve", "reanalyze", "nonlinear"])
    @pytest.mark.parametrize("content", [None, "{", b"\xff\xfe"],
                             ids=["missing", "bad-json", "not-utf8"])
    def test_unreadable_model_file_exits_2(self, tmp_path, capsys, command, content):
        # these ended in a traceback and exit 1
        path = tmp_path / "m.model.json"
        if isinstance(content, str):
            path.write_text(content)
        elif content is not None:
            path.write_bytes(content)
        scn = dict(scenario_reading(command), model={"path": str(path)})
        out = tmp_path / "out"
        err = assert_config_error(capsys, run(command, {"scenarios": [scn]}, out))
        assert err.startswith(f"config error: cannot read model file {path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "solve", "reanalyze", "nonlinear"])
    def test_model_file_violating_the_schema_exits_3(self, tmp_path, capsys, command):
        path = tmp_path / "m.model.json"
        path.write_text(json.dumps({"format": "reanalyze-model"}))
        scn = dict(scenario_reading(command), model={"path": str(path)})
        out = tmp_path / "out"
        assert run(command, {"scenarios": [scn]}, out) == EXIT_MODEL
        err = capsys.readouterr().err
        assert err == (f"model error: model file {path} violates the model schema at $: "
                       "'version' is a required property\n")
        assert not out.exists()

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
    def test_reanalyze_reports_rct_with_repeats(self, tmp_path):
        scn = dict(TRUSS_SCENARIO, repeat=5)
        cfg = write_config(tmp_path, {"scenarios": [scn]})
        assert main(["reanalyze", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        rows = read_rows(tmp_path / "t1.reanalyze.csv")
        for r in rows:
            if r["method"] != "conventional":
                assert float(r["rct"]) > 0.0

    def test_untimed_runs_leave_wall_time_blank(self, tmp_path):
        scn1 = dict(TRUSS_SCENARIO, repeat=0)
        scn2 = dict(TRUSS_SCENARIO, id="t2", repeat=0)
        cfg = write_config(tmp_path, {"scenarios": [scn1, scn2]})
        assert main(["reanalyze", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
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
                      "area": 200, "load": 500, "material": {"e0": 2e5, "et": 0.3e5}},
            "report": {"nodes": ["B"]},
            "nonlinear": {"sigma_y": [2.0, 1e6], "backends": ["regular", "sri"],
                          "n_steps": 5},
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
        # an elastic run keeps its one tangent factor; a yielding one rebuilds
        # it as bars yield, at most once per Newton iteration
        assert all(r["factorizations_total"] == "1" for r in elastic)
        plastic = [r for r in summary if r["sigma_y"] == "2.000000e+00"]
        assert all(1 < int(r["factorizations_total"]) <= int(r["outer_iters_total"])
                   for r in plastic)

    def test_moduli_come_from_the_model_material(self, tmp_path):
        material = {"e0": 1e5, "et": 1e4}
        model_block = {"generator": "truss", "n_span": 3, "n_floor": 4,
                       "area": 200, "load": 500, "material": material}
        config = {"scenarios": [{"id": "nl", "model": model_block,
                                 "report": {"nodes": ["B"]},
                                 "nonlinear": {"sigma_y": [5.0], "n_steps": 4}}]}
        assert run("nonlinear", config, tmp_path, precision="full") == EXIT_OK
        model = build_truss_grid(3, 4, area=200.0, load=500.0,
                                 material=MaterialSpec(sigma_y=5.0, **material))
        direct = run_newton_raphson(model, model.load_vector(), n_steps=4)
        node_b = model.meta["node_b"]
        expected = [float(d[g]) for d in direct.displacements for g in model.dof_map[node_b]]
        rows = read_rows(tmp_path / "nl.nonlinear.sy5.regular.csv")
        assert {r["node_id"] for r in rows} == {str(node_b)}
        assert [float(r["value"]) for r in rows] == expected

    def test_sweep_sets_sigma_y_of_a_path_model(self, tmp_path):
        model = build_truss_grid(3, 4, area=200.0, load=500.0,
                                 material=MaterialSpec(e0=2e5, et=0.3e5, sigma_y=5.0))
        save_model(model, tmp_path / "ladder.model.json")
        config = {"scenarios": [{"id": "nl",
                                 "model": {"path": str(tmp_path / "ladder.model.json")},
                                 "nonlinear": {"sigma_y": [2.0, 1e6], "n_steps": 4}}]}
        assert run("nonlinear", config, tmp_path) == EXIT_OK
        summary = {r["sigma_y"]: r for r in read_rows(tmp_path / "nl.nonlinear.summary.csv")}
        assert summary["1.000000e+06"]["n_nle_final"] == "0"
        assert int(summary["2.000000e+00"]["n_nle_final"]) > 0

    @pytest.mark.parametrize("sigma_y", [[5.0, 5.0000001], [5, 5], [2.0, 5.0000001, 5.0]])
    def test_sigma_y_values_sharing_a_file_label_exit_2(self, tmp_path, capsys, sigma_y):
        # both runs used to write, and overwrite, nl.nonlinear.sy5.regular.csv
        cfg = write_config(tmp_path, {"scenarios": [{
            "id": "nl",
            "model": {"generator": "truss", "n_span": 3, "n_floor": 4, "area": 200,
                      "load": 500, "material": {"e0": 2e5, "et": 0.3e5}},
            "nonlinear": {"sigma_y": sigma_y, "n_steps": 4}}]})
        out = tmp_path / "out"
        err = assert_config_error(capsys, main(["nonlinear", "--config", cfg,
                                                "--out", str(out)]))
        assert f"sigma_y {sigma_y[-2]!r} and {sigma_y[-1]!r}" in err
        assert not out.exists()

    def test_model_without_bilinear_data_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [{
            "id": "el", "model": {"generator": "truss", "n_span": 2, "n_floor": 2},
            "nonlinear": {"sigma_y": [5.0]}}]})
        assert main(["nonlinear", "--config", cfg, "--out", str(tmp_path)]) == EXIT_MODEL

    def test_missing_block_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"scenarios": [{
            "id": "x", "model": {"generator": "truss", "n_span": 1, "n_floor": 1}}]})
        assert main(["nonlinear", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
