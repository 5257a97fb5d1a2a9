import csv
import importlib.util
import inspect
import io
import json
import sys
from pathlib import Path

import pytest

from qosd import ConfigError, ExperimentConfig, derive_seed, parse_config, run_experiment, rows_to_csv
from qosd.cli import main
from qosd.experiment import CSV_COLUMNS


CONFIG_TEXT = """qosd-config v1
# tiny ER batch
source = er
er_n = 12
er_rho = 0.3
model = linear
T = 3,4
k = 3
algorithms = ig,at,cc
repetitions = 2
master_seed = 7
"""


class TestConfigParsing:
    def test_round_trip_fields(self):
        config = parse_config(CONFIG_TEXT)
        assert config.er_n == 12
        assert config.thresholds == [3, 4]
        assert config.algorithms == ["ig", "at", "cc"]
        assert config.repetitions == 2

    def test_header_required(self):
        with pytest.raises(ConfigError):
            parse_config("source = er\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("qosd-config v1\nwhatever = 3\n")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("qosd-config v1\nalgorithms = ig,zz\n")

    def test_derive_seed_documented_formula(self):
        import hashlib

        expected = int.from_bytes(
            hashlib.sha256(b"7:3:0:1").digest()[:8], "big"
        ) % (2**31)
        assert derive_seed(7, 3, 0, 1) == expected


def _strip_wall_time(csv_text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(csv_text)))
    idx = rows[0].index("wall_time_s")
    return [[cell for i, cell in enumerate(row) if i != idx] for row in rows]


class TestRunExperiment:
    def test_rows_verified_and_schema(self):
        config = parse_config(CONFIG_TEXT)
        rows = run_experiment(config)
        assert len(rows) == 2 * 2 * 3  # thresholds x reps x algorithms
        for row in rows:
            assert list(row.keys()) == CSV_COLUMNS
            assert row["feasible"] == "true"
            assert json.loads(row["extras"])["verified"] is True

    def test_deterministic_modulo_wall_time(self):
        config = parse_config(CONFIG_TEXT)
        a = rows_to_csv(run_experiment(config))
        b = rows_to_csv(run_experiment(config))
        assert _strip_wall_time(a) == _strip_wall_time(b)

    def test_oracle_attaches_opt(self):
        config = ExperimentConfig(
            er_n=8, er_rho=0.3, thresholds=[3], k=2,
            algorithms=["oracle", "ig"], repetitions=2, master_seed=3,
        )
        rows = run_experiment(config)
        for row in rows:
            extras = json.loads(row["extras"])
            assert "opt" in extras
            if row["algorithm"] == "ig":
                assert int(row["norm"]) >= extras["opt"]

    def test_incompatible_model_reported_per_row(self):
        config = ExperimentConfig(
            er_n=10, er_rho=0.3, model="convex", thresholds=[5], k=2,
            algorithms=["lr", "ig"], repetitions=1, master_seed=1,
        )
        rows = run_experiment(config)
        by_alg = {row["algorithm"]: row for row in rows}
        assert by_alg["lr"]["feasible"] == "false"
        assert "nonlinear-weights" in by_alg["lr"]["extras"]
        assert by_alg["ig"]["feasible"] == "true"

    def test_solver_error_reported_per_row(self):
        # flat concave increments at T=10: IG finds no improving unit, AT does
        config = ExperimentConfig(
            er_n=60, model="concave", thresholds=[10], algorithms=["at", "ig"],
            repetitions=1,
        )
        by_alg = {row["algorithm"]: row for row in run_experiment(config)}
        assert json.loads(by_alg["ig"]["extras"])["error"].startswith("InfeasibleBoxError: ")
        assert by_alg["ig"]["feasible"] == "false"
        assert json.loads(by_alg["at"]["extras"])["verified"] is True
        assert by_alg["at"]["feasible"] == "true"

    def test_failed_oracle_gets_own_row(self, monkeypatch):
        import qosd.experiment
        from qosd import BlownBudgetError

        def blown(instance):
            raise BlownBudgetError("node limit reached")

        monkeypatch.setattr(qosd.experiment, "oracle_opt", blown)
        config = ExperimentConfig(
            er_n=8, er_rho=0.3, thresholds=[3], k=2,
            algorithms=["oracle", "ig"], repetitions=1, master_seed=3,
        )
        by_alg = {row["algorithm"]: row for row in run_experiment(config)}
        assert json.loads(by_alg["oracle"]["extras"]) == {
            "error": "BlownBudgetError: node limit reached"
        }
        ig_extras = json.loads(by_alg["ig"]["extras"])
        assert ig_extras["verified"] is True
        assert "opt" not in ig_extras


class TestCli:
    def test_gen_solve_validate_round_trip(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.txt"
        vec_file = tmp_path / "x.txt"
        assert main([
            "gen", "--n", "15", "--rho", "0.3", "--threshold", "3",
            "--pairs", "3", "--seed", "4", "--output", str(inst_file),
        ]) == 0
        assert main([
            "solve", "--instance", str(inst_file), "--algorithm", "at",
            "--output", str(vec_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "feasible=true" in out
        assert main([
            "validate", "--instance", str(inst_file), "--vector", str(vec_file),
        ]) == 0
        assert "feasible=true" in capsys.readouterr().out

    def test_validate_rejects_zero_vector(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.txt"
        vec_file = tmp_path / "zero.txt"
        main(["gen", "--n", "15", "--rho", "0.3", "--threshold", "3",
              "--pairs", "3", "--seed", "4", "--output", str(inst_file)])
        from qosd import BudgetVector, load_instance
        from qosd.cli import write_vector

        with open(inst_file) as handle:
            inst = load_instance(handle)
        write_vector(BudgetVector.zeros(inst.graph.m), str(vec_file))
        assert main([
            "validate", "--instance", str(inst_file), "--vector", str(vec_file),
        ]) == 2

    def test_lr_on_convex_weights_exits_2(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.txt"
        main(["gen", "--n", "15", "--rho", "0.3", "--threshold", "5",
              "--pairs", "3", "--seed", "4", "--weight-model", "convex",
              "--output", str(inst_file)])
        code = main(["solve", "--instance", str(inst_file), "--algorithm", "lr"])
        assert code == 2
        assert "non-affine" in capsys.readouterr().err

    def test_infeasible_box_instance_exits_2(self, tmp_path, capsys):
        # one edge that reaches only 2 of T=5 even at its cap
        inst_file = tmp_path / "inst.txt"
        inst_file.write_text(
            "qosd-instance v1\nn 2\nm 1\nT 5\nk 1\nedge 0 1 custom 1 2\npair 0 1\n"
        )
        assert main(["solve", "--instance", str(inst_file), "--algorithm", "ig"]) == 2
        assert "infeasible-box" in capsys.readouterr().err

    def test_self_loop_instance_exits_1(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.txt"
        inst_file.write_text(
            "qosd-instance v1\nn 2\nm 2\nT 3\nk 1\n"
            "edge 0 0 custom 1 3\nedge 0 1 custom 1 3\npair 0 1\n"
        )
        assert main(["solve", "--instance", str(inst_file), "--algorithm", "ig"]) == 1
        assert "self-loop" in capsys.readouterr().err

    def test_usage_error_exits_1(self):
        assert main(["solve", "--algorithm", "nonsense"]) == 1
        assert main(["bogus-command"]) == 1
        assert main(["solve", "--algorithm", "ig"]) == 1  # no instance source

    def test_oracle_subcommand(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.txt"
        main(["gen", "--n", "8", "--rho", "0.3", "--threshold", "3",
              "--pairs", "2", "--seed", "11", "--output", str(inst_file)])
        assert main(["oracle", "--instance", str(inst_file)]) == 0
        assert "opt=" in capsys.readouterr().out

    def test_experiment_subcommand(self, tmp_path, capsys):
        config_file = tmp_path / "batch.cfg"
        out_file = tmp_path / "rows.csv"
        config_file.write_text(CONFIG_TEXT)
        assert main(["experiment", str(config_file), "--output", str(out_file)]) == 0
        header = out_file.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_solve_from_edge_list(self, tmp_path, capsys):
        edges_file = tmp_path / "edges.txt"
        edges_file.write_text("# diamond\n0 1\n1 3\n0 2\n2 3\n")
        code = main([
            "solve", "--edges", str(edges_file), "--algorithm", "ig",
            "--threshold", "3", "--pairs-file", "/dev/null", "--random-pairs", "1",
            "--pair-seed", "3",
        ])
        # /dev/null pairs file -> no pairs -> invalid instance -> usage error
        assert code == 1

    def test_non_integer_pair_token_exits_1(self, tmp_path, capsys):
        edges_file = tmp_path / "edges.txt"
        edges_file.write_text("0 1\n1 3\n0 2\n2 3\n")
        pairs_file = tmp_path / "pairs.txt"
        pairs_file.write_text("# pairs\n0 3\n0 x\n")
        code = main([
            "solve", "--edges", str(edges_file), "--algorithm", "ig",
            "--threshold", "4", "--pairs-file", str(pairs_file),
        ])
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    def test_threads_option_removed(self, tmp_path):
        edges_file = tmp_path / "edges.txt"
        edges_file.write_text("0 1\n1 3\n0 2\n2 3\n")
        solve = ["solve", "--edges", str(edges_file), "--algorithm", "ig",
                 "--threshold", "3", "--random-pairs", "2", "--pair-seed", "1"]
        assert main(solve) == 0
        assert main(solve + ["--threads", "2"]) == 1
        with pytest.raises(ConfigError, match="unknown key 'threads'"):
            parse_config("qosd-config v1\nthreads = 2\n")

    def test_solve_edge_list_random_pairs(self, tmp_path, capsys):
        edges_file = tmp_path / "edges.txt"
        edges_file.write_text("0 1\n1 3\n0 2\n2 3\n")
        code = main([
            "solve", "--edges", str(edges_file), "--algorithm", "ig",
            "--threshold", "3", "--random-pairs", "2", "--pair-seed", "1",
        ])
        assert code == 0
        assert "feasible=true" in capsys.readouterr().out


def test_bench_span_names_are_public_qosd_functions(monkeypatch):
    # perfbench/run.py derives per-layer metrics from spans named
    # "<module>.<function>"; a renamed or privatised function would read 0
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    names = set(run.SPAN_METRICS) | set(run.OBSERVERS) | set(run.SWEEPS)
    assert names
    for name in sorted(names):
        module, function = name.split(".")
        assert module in run.MEASURED_MODULES, name
        mod = importlib.import_module(f"qosd.{module}")
        obj = getattr(mod, function, None)
        assert inspect.isfunction(obj) and obj.__module__ == mod.__name__, name
        assert not function.startswith("_"), name
