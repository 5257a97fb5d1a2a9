import csv
import importlib.util
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qosd import (
    ConfigError, Deadline, ExperimentConfig, SaConfig, SolverTimeout, derive_seed, load_instance, make_er_instance,
    oracle_opt, parse_config, rows_to_csv, run_experiment, run_iterative, save_instance,
)
from qosd.cli import main
from qosd.experiment import CSV_COLUMNS, run_algorithm


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

    @pytest.mark.parametrize("key", ["T", "algorithms"])
    @pytest.mark.parametrize("value", ["", " , "])
    def test_empty_list_rejected(self, key, value):
        # an empty list would silently make an empty batch
        with pytest.raises(ConfigError, match="at least one"):
            parse_config(f"qosd-config v1\n{key} = {value}\n")

    @pytest.mark.parametrize("value", ["nan", "-NaN"])
    def test_nan_time_limit_rejected(self, value):
        # monotonic() > nan never holds: the batch would run every cell unbounded
        with pytest.raises(ConfigError, match="time limit must be a number"):
            parse_config(f"qosd-config v1\ntime_limit = {value}\n")
        with pytest.raises(ConfigError):
            ExperimentConfig(time_limit=float(value))

    def test_zero_time_limit_times_out_every_cell(self):
        config = parse_config("qosd-config v1\ner_n = 8\nk = 2\nrepetitions = 1\ntime_limit = 0\n")
        rows = run_experiment(config)
        assert [json.loads(row["extras"]) for row in rows] == [{"error": "timeout"}] * 2

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
        # flat concave increments at T=10 give concave ratio 0, where SA's
        # theoretical sample count diverges; AT and IG still solve
        config = ExperimentConfig(
            er_n=60, model="concave", thresholds=[10], algorithms=["at", "ig", "sa"],
            repetitions=1, sa=SaConfig(sample_mode="theoretical"),
        )
        by_alg = {row["algorithm"]: row for row in run_experiment(config)}
        assert json.loads(by_alg["sa"]["extras"])["error"].startswith("GammaZeroError: ")
        assert by_alg["sa"]["feasible"] == "false"
        for alg in ("at", "ig"):
            assert json.loads(by_alg[alg]["extras"])["verified"] is True, alg
            assert by_alg[alg]["feasible"] == "true", alg

    def test_bad_knob_reported_per_row(self):
        config = parse_config(
            "qosd-config v1\ner_n = 10\nT = 3\nk = 2\nrepetitions = 1\n"
            "algorithms = sa,lr,ig\nsample_mode = bogus\ndelta = 1.5\n"
        )
        by_alg = {row["algorithm"]: row for row in run_experiment(config)}
        assert json.loads(by_alg["sa"]["extras"]) == {"error": "ConfigError: unknown sample mode 'bogus'"}
        assert json.loads(by_alg["lr"]["extras"]) == {"error": "ConfigError: delta must lie in (0, 1)"}
        assert by_alg["ig"]["feasible"] == "true"

    def test_negative_samples_reported_per_row(self):
        # samples = 0 means the default; a negative count reaches SA, which rejects it
        assert parse_config("qosd-config v1\nsamples = 0\n").sa.samples_per_round is None
        config = parse_config(
            "qosd-config v1\ner_n = 10\nT = 3\nk = 2\nrepetitions = 1\n"
            "algorithms = sa,ig\nsamples = -3\n"
        )
        by_alg = {row["algorithm"]: row for row in run_experiment(config)}
        assert json.loads(by_alg["sa"]["extras"]) == {
            "error": "ConfigError: samples_per_round must be None or at least 1"
        }
        assert by_alg["sa"]["feasible"] == "false"
        assert by_alg["ig"]["feasible"] == "true"

    def test_file_rows_report_the_instance_threshold(self, tmp_path):
        # the file's T=5 instance is solved once per listed T; LR's row is a
        # solver error (convex tables), IG's a solution
        inst = make_er_instance(12, 0.3, 5, 3, "convex", seed=2)
        path = tmp_path / "inst.txt"
        with open(path, "w") as handle:
            save_instance(inst, handle)
        config = ExperimentConfig(source="file", instance_file=str(path), thresholds=[3, 9],
                                  algorithms=["ig", "lr"], repetitions=1)
        rows = run_experiment(config)
        assert [(row["algorithm"], row["T"], row["k"], row["model"]) for row in rows] == [
            ("ig", 5, inst.k, "file"), ("lr", 5, inst.k, "file")] * 2
        assert rows[0]["norm"] == rows[2]["norm"] == run_iterative(inst, "ig").norm
        assert json.loads(rows[1]["extras"]) == {"error": "nonlinear-weights"}

    def test_file_instance_is_read_once(self, tmp_path, monkeypatch):
        import qosd.experiment

        path = tmp_path / "inst.txt"
        with open(path, "w") as handle:
            save_instance(make_er_instance(12, 0.3, 5, 3, "linear", seed=2), handle)
        calls, load = [], qosd.experiment.load_instance

        def counted(handle):
            calls.append(handle.name)
            return load(handle)

        monkeypatch.setattr(qosd.experiment, "load_instance", counted)
        config = ExperimentConfig(source="file", instance_file=str(path), thresholds=[3, 9],
                                  algorithms=["ig", "sa"], repetitions=2)
        rows = run_experiment(config)
        assert calls == [str(path)]
        assert [(row["algorithm"], row["T"], row["feasible"]) for row in rows] == [
            ("ig", 5, "true"), ("sa", 5, "true")] * 4

    def test_file_instance_oracle_is_solved_once(self, tmp_path, monkeypatch):
        import qosd.experiment

        inst = make_er_instance(12, 0.3, 5, 3, "linear", seed=2)
        path = tmp_path / "inst.txt"
        with open(path, "w") as handle:
            save_instance(inst, handle)
        calls, solve = [], qosd.experiment.oracle_opt

        def counted(instance, **kwargs):
            calls.append(instance.threshold)
            return solve(instance, **kwargs)

        monkeypatch.setattr(qosd.experiment, "oracle_opt", counted)
        config = ExperimentConfig(source="file", instance_file=str(path), thresholds=[3, 9],
                                  algorithms=["oracle", "ig"], repetitions=2)
        rows = run_experiment(config)
        # one solve serves the four cells: every row carries its optimum
        assert calls == [5]
        opt = oracle_opt(inst).norm
        assert [row["norm"] for row in rows[::2]] == [opt] * 4
        assert all(json.loads(row["extras"])["opt"] == opt for row in rows)

    def test_error_row_carries_the_instance_it_failed_on(self, tmp_path):
        # LR fails on convex tables; its row has the cell's n, m, T and k as IG's has
        config = ExperimentConfig(er_n=10, er_rho=0.3, thresholds=[5], k=2, algorithms=["lr", "ig"],
                                  model="convex", repetitions=1)
        lr, ig = run_experiment(config)
        assert json.loads(lr["extras"]) == {"error": "nonlinear-weights"}
        assert ig["feasible"] == "true"
        shape = ("n", "m", "model", "T", "k")
        assert [lr[c] for c in shape] == [ig[c] for c in shape] == [10, ig["m"], "convex", 5, 2]
        assert ig["m"] > 0
        # the same from a file, where the config names no n
        inst = make_er_instance(10, 0.3, 5, 2, "convex", seed=1)
        path = tmp_path / "inst.txt"
        with open(path, "w") as handle:
            save_instance(inst, handle)
        config = ExperimentConfig(source="file", instance_file=str(path), thresholds=[3],
                                  algorithms=["lr"], repetitions=1)
        (row,) = run_experiment(config)
        assert json.loads(row["extras"]) == {"error": "nonlinear-weights"}
        assert [row[c] for c in shape] == [10, inst.graph.m, "file", 5, 2]

    def test_error_row_of_an_unbuilt_instance_keeps_the_config_fields(self):
        # 3 nodes have 6 ordered pairs, so k = 7 cannot be sampled: no instance, no m
        config = ExperimentConfig(er_n=3, er_rho=0.5, thresholds=[4], k=7, algorithms=["ig", "sa"],
                                  repetitions=1)
        rows = run_experiment(config)
        assert [list(row.values())[:7] for row in rows] == [
            ["ig", 3, "", "linear", 4, 7, 0], ["sa", 3, "", "linear", 4, 7, 0]]
        assert all(json.loads(row["extras"])["error"].startswith("instance: k=7 exceeds") for row in rows)
        assert all(row[c] == "" for row in rows for c in ("norm", "outer_iters", "inner_iters", "wall_time_s"))

    def test_file_instance_error_row_says_file(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("not an instance\n")
        config = ExperimentConfig(source="file", instance_file=str(path), model="concave",
                                  thresholds=[4], algorithms=["ig", "cc"], repetitions=1)
        rows = run_experiment(config)
        assert [(row["algorithm"], row["model"], row["feasible"]) for row in rows] == [
            ("ig", "file", "false"), ("cc", "file", "false")]
        assert all(json.loads(row["extras"])["error"].startswith("instance: ") for row in rows)

    def test_missing_instance_file_gives_error_rows(self):
        config = ExperimentConfig(source="file", instance_file="/nonexistent/x.txt",
                                  thresholds=[4], algorithms=["ig", "sa"], repetitions=1)
        rows = run_experiment(config)
        assert [(row["algorithm"], row["feasible"]) for row in rows] == [("ig", "false"), ("sa", "false")]
        errors = [json.loads(row["extras"])["error"] for row in rows]
        assert all(e.startswith("instance: ") and "/nonexistent/x.txt" in e for e in errors)

    def test_failed_oracle_gets_own_row(self, monkeypatch):
        import qosd.experiment
        from qosd import StallError

        def blown(instance, **kwargs):
            assert kwargs["deadline"].seconds == 30.0
            raise StallError("re-proposed only known paths")

        monkeypatch.setattr(qosd.experiment, "oracle_opt", blown)
        config = ExperimentConfig(
            er_n=8, er_rho=0.3, thresholds=[3], k=2,
            algorithms=["oracle", "ig"], repetitions=1, master_seed=3, time_limit=30.0,
        )
        by_alg = {row["algorithm"]: row for row in run_experiment(config)}
        assert json.loads(by_alg["oracle"]["extras"]) == {
            "error": "StallError: re-proposed only known paths"
        }
        ig_extras = json.loads(by_alg["ig"]["extras"])
        assert ig_extras["verified"] is True
        assert "opt" not in ig_extras


# an instance on which HiGHS's MIP code prints to fd 1 whatever its output options
MIP_PRINTING_INSTANCE = """qosd-instance v1
directed 1
n 8
m 18
T 7
k 2
edge 0 3 custom 5 6 13 13 20
edge 0 5 custom 3 4 4 5 7
edge 1 2 custom 3 4 4
edge 1 3 custom 4
edge 1 5 custom 2 3 4 5 6
edge 1 6 custom 5 6 7
edge 1 7 custom 3 6
edge 2 1 custom 2 3 10
edge 2 5 custom 1 1 8
edge 2 7 custom 1
edge 3 7 custom 3 3
edge 4 0 custom 2 2 2 5 5 6
edge 4 1 custom 4 11 13 14 14 15
edge 4 6 custom 5
edge 5 2 custom 2 3 4 6
edge 6 7 custom 5 6 13 13 15 22
edge 7 3 custom 2 3
edge 7 4 custom 4 6 7 9 9 10
pair 5 1
pair 4 5
"""


class TestOutputStreams:
    """The CLI's stdout holds its own output only, also when a solver's native
    code prints: checked in a child process, whose fd 1 is a pipe."""

    @staticmethod
    def _run(tmp_path, *args):
        import qosd

        (tmp_path / "inst.txt").write_text(MIP_PRINTING_INSTANCE)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qosd.__file__)))
        done = subprocess.run([sys.executable, "-m", "qosd.cli", *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_solve_prints_its_summary_only(self, tmp_path):
        out = self._run(tmp_path, "solve", "--instance", "inst.txt", "--algorithm", "oracle")
        summary = r"algorithm=oracle norm=6 feasible=true outer=2 inner=2 wall_time=\d+\.\d{3}s seed=None"
        assert re.fullmatch(summary + r"\n  constraint_paths=3\n", out), out

    def test_experiment_prints_its_csv_only(self, tmp_path):
        (tmp_path / "batch.txt").write_text(
            "qosd-config v1\nsource = file\ninstance_file = inst.txt\nT = 7\nalgorithms = oracle\n")
        out = self._run(tmp_path, "experiment", "batch.txt")
        header, *rows = out.splitlines()
        assert header == ",".join(CSV_COLUMNS)
        table = list(csv.DictReader(io.StringIO(out)))
        assert len(table) == len(rows) == 5 and {row["norm"] for row in table} == {"6"}


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

    def test_edgeless_instance_solves_with_every_algorithm(self, tmp_path, capsys):
        # no edge, so no path and nothing to block; LR's beta_max has no entry
        inst_file = tmp_path / "inst.txt"
        inst_file.write_text("qosd-instance v1\nn 3\nm 0\nT 3\nk 1\npair 0 2\n")
        with open(inst_file) as handle:
            inst = load_instance(handle)
        for algorithm in ("ig", "at", "sa", "lr", "cc", "oracle"):
            report = run_algorithm(inst, algorithm)
            assert report.budget.norm == 0 and report.feasible, algorithm
        assert main(["solve", "--instance", str(inst_file), "--algorithm", "lr"]) == 0
        assert "feasible=true" in capsys.readouterr().out

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

    def test_theoretical_sa_at_concave_ratio_zero_exits_1(self, tmp_path, capsys):
        # flat concave increments at T=10 give concave ratio 0, where theoretical
        # sample sizing diverges: the user's choice of mode, so invalid input
        inst_file = tmp_path / "inst.txt"
        assert main(["gen", "--n", "30", "--rho", "0.2", "--threshold", "10", "--pairs", "3",
                     "--weight-model", "concave", "--output", str(inst_file)]) == 0
        capsys.readouterr()
        assert main(["solve", "--instance", str(inst_file), "--algorithm", "sa",
                     "--sample-mode", "theoretical"]) == 1
        assert capsys.readouterr().err == (
            "invalid input: theoretical sample sizing diverges at concave ratio 0; use practical mode\n"
        )

    def test_oracle_subcommand(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.txt"
        main(["gen", "--n", "8", "--rho", "0.3", "--threshold", "3",
              "--pairs", "2", "--seed", "11", "--output", str(inst_file)])
        assert main(["solve", "--instance", str(inst_file), "--algorithm", "oracle"]) == 0
        assert "algorithm=oracle norm=" in capsys.readouterr().out

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

    def test_linear_table_not_affine_exits_1(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.txt"
        inst_file.write_text(
            "qosd-instance v1\nn 2\nm 1\nT 3\nk 1\nedge 0 1 linear 1 2 4\npair 0 1\n"
        )
        assert main(["solve", "--instance", str(inst_file), "--algorithm", "ig"]) == 1
        assert "invalid input: line 6: linear table is not affine" in capsys.readouterr().err

    def test_negative_vector_entry_exits_1(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.txt"
        vec_file = tmp_path / "x.txt"
        inst_file.write_text(
            "qosd-instance v1\nn 2\nm 1\nT 3\nk 1\nedge 0 1 linear 1 2 3\npair 0 1\n"
        )
        vec_file.write_text("qosd-vector v1\n1\n-1\n")
        assert main(["validate", "--instance", str(inst_file), "--vector", str(vec_file)]) == 1
        assert "invalid input: budget components must be nonnegative" in capsys.readouterr().err

    def test_vector_entry_beyond_64_bits_exits_1(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.txt"
        vec_file = tmp_path / "x.txt"
        inst_file.write_text(
            "qosd-instance v1\nn 2\nm 1\nT 3\nk 1\nedge 0 1 linear 1 2 3\npair 0 1\n"
        )
        vec_file.write_text(f"qosd-vector v1\n1\n{2 ** 63}\n")
        assert main(["validate", "--instance", str(inst_file), "--vector", str(vec_file)]) == 1
        assert "invalid input: malformed vector file" in capsys.readouterr().err

    @pytest.mark.parametrize("knobs", [
        ["--algorithm", "sa", "--q", "0"],
        ["--algorithm", "sa", "--alpha", "1.0"],
        ["--algorithm", "sa", "--sample-mode", "theoretical", "--epsilon", "1.5"],
        ["--algorithm", "lr", "--delta", "1.5"],
        # checked whatever the mode, and also when --eta overrides LR's factor
        ["--algorithm", "sa", "--epsilon", "5"],
        ["--algorithm", "sa", "--delta", "7"],
        ["--algorithm", "sa", "--samples", "-3"],
        ["--algorithm", "lr", "--delta", "1.5", "--eta", "2"],
        ["--algorithm", "lr", "--eta", "-1"],
    ])
    def test_bad_knob_exits_1(self, tmp_path, capsys, knobs):
        inst_file = tmp_path / "inst.txt"
        main(["gen", "--n", "8", "--rho", "0.3", "--threshold", "3",
              "--pairs", "2", "--seed", "11", "--output", str(inst_file)])
        capsys.readouterr()
        assert main(["solve", "--instance", str(inst_file)] + knobs) == 1
        assert "invalid input: " in capsys.readouterr().err

    def test_sa_knob_ignored_by_ig(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.txt"
        main(["gen", "--n", "8", "--rho", "0.3", "--threshold", "3",
              "--pairs", "2", "--seed", "11", "--output", str(inst_file)])
        assert main(["solve", "--instance", str(inst_file), "--algorithm", "ig", "--q", "0"]) == 0
        assert "feasible=true" in capsys.readouterr().out

    def test_time_limit_expired_exits_3(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.txt"
        main(["gen", "--n", "8", "--rho", "0.3", "--threshold", "3",
              "--pairs", "2", "--seed", "11", "--output", str(inst_file)])
        capsys.readouterr()
        assert main(["solve", "--instance", str(inst_file), "--algorithm", "ig", "--time-limit", "-1"]) == 3
        assert capsys.readouterr().err.startswith("timeout: ")

    @pytest.mark.parametrize("limit, code, prefix", [("nan", 1, "invalid input: "), ("0", 3, "timeout: ")])
    def test_time_limit_nan_is_invalid_zero_expires(self, tmp_path, capsys, limit, code, prefix):
        inst_file = tmp_path / "inst.txt"
        main(["gen", "--n", "30", "--rho", "0.2", "--threshold", "5", "--output", str(inst_file)])
        capsys.readouterr()
        assert main(["solve", "--instance", str(inst_file), "--algorithm", "ig", "--time-limit", limit]) == code
        assert capsys.readouterr().err.startswith(prefix)

    def test_time_limit_nan_fails_before_the_instance_loads(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        assert main(["solve", "--instance", str(missing), "--algorithm", "ig", "--time-limit", "nan"]) == 1
        assert capsys.readouterr().err == "invalid input: time limit must be a number, not nan\n"

    def test_deadline_rejects_nan(self):
        with pytest.raises(ConfigError, match="not nan"):
            Deadline(math.nan)
        Deadline(None).check()
        with pytest.raises(SolverTimeout):
            Deadline(-1.0).check()

    def test_validate_vector_above_cap_exits_2(self, tmp_path, capsys):
        # table (1, 2, 3) caps the edge at 2; a vector of 3 exceeds the box
        inst_file = tmp_path / "inst.txt"
        vec_file = tmp_path / "x.txt"
        inst_file.write_text(
            "qosd-instance v1\nn 2\nm 1\nT 3\nk 1\nedge 0 1 linear 1 2 3\npair 0 1\n"
        )
        vec_file.write_text("qosd-vector v1\n1\n3\n")
        assert main(["validate", "--instance", str(inst_file), "--vector", str(vec_file)]) == 2
        assert "feasible=false (vector exceeds the box)" in capsys.readouterr().out

    def test_instance_directory_exits_1(self, tmp_path, capsys):
        vec_file = tmp_path / "x.txt"
        vec_file.write_text("qosd-vector v1\n1\n0\n")
        assert main(["validate", "--instance", str(tmp_path), "--vector", str(vec_file)]) == 1
        assert capsys.readouterr().err.startswith("invalid input: ")

    def test_gen_output_directory_exits_1(self, tmp_path, capsys):
        assert main(["gen", "--n", "8", "--rho", "0.3", "--threshold", "3",
                     "--pairs", "2", "--output", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("invalid input: ")

    def test_binary_instance_exits_1(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.bin"
        inst_file.write_bytes(b"\xff\xfe\x00\x81qosd")
        assert main(["solve", "--instance", str(inst_file), "--algorithm", "ig"]) == 1
        assert capsys.readouterr().err.startswith("invalid input: ")

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
