"""Every failure's declared outcome, and the failure paths of the loaders,
constructors and front doors, each through the library and, where one
exists, through the CLI's exit code."""

import io
import re

import pytest

import qosd.cli
import qosd.experiment
from qosd import (
    ConfigError, GammaZeroError, Graph, InfeasibleBoxError, InvalidInstanceError, IterationLimitError,
    NonlinearWeightsError, ParseError, QosdError, QosdInstance, SolverTimeout, StallError, WeightFunction,
    build_weights, load_edge_list, load_instance, parse_config, run_algorithm, sample_count, sample_pairs,
)
from qosd.cli import main, read_vector
from qosd.experiment import CSV_COLUMNS, _attempt

from conftest import diamond_graph, diamond_instance

# class, CLI exit code, CLI stderr prefix, experiment CSV label (None: "<Class>: <message>")
OUTCOMES = [
    (ParseError, 1, "invalid input", None),
    (InvalidInstanceError, 1, "invalid input", None),
    (ConfigError, 1, "invalid input", None),
    (GammaZeroError, 1, "invalid input", None),
    (InfeasibleBoxError, 2, "infeasible", None),
    (NonlinearWeightsError, 2, "infeasible", "nonlinear-weights"),
    (SolverTimeout, 3, "timeout", "timeout"),
    (QosdError, 4, "internal error", None),
    (StallError, 4, "internal error", None),
    (IterationLimitError, 4, "internal error", None),
]

INSTANCE = "qosd-instance v1\nn 2\nm 1\nT 3\nk 1\nedge 0 1 linear 1 2 3\npair 0 1\n"


def test_outcomes_cover_every_error_class():
    assert {cls for cls, *_ in OUTCOMES} == {QosdError, *QosdError.__subclasses__()}


@pytest.mark.parametrize("cls, code, prefix, label", OUTCOMES, ids=[row[0].__name__ for row in OUTCOMES])
def test_declared_outcome_through_both_front_doors(tmp_path, capsys, monkeypatch, cls, code, prefix, label):
    def raising(*args, **kwargs):
        raise cls("boom")

    inst_file = tmp_path / "inst.txt"
    inst_file.write_text(INSTANCE)
    monkeypatch.setattr(qosd.cli, "run_algorithm", raising)
    assert main(["solve", "--instance", str(inst_file), "--algorithm", "ig"]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"
    monkeypatch.setattr(qosd.experiment, "run_algorithm", raising)
    assert _attempt(diamond_instance(), "ig") == (label or f"{cls.__name__}: boom")


# (header, records, error, message fragment): each file is rejected by
# load_instance and by `qosd solve --instance` with the class's exit code
BAD_INSTANCE_FILES = [
    ("n 0\nm 0\nT 3\nk 1", "pair 0 1", InvalidInstanceError, "at least one node"),
    ("n 2\nm 1\nT 3\nk 1", "edge 0 5 custom 1 3\npair 0 1", InvalidInstanceError, "endpoint out of range"),
    ("n 3\nm 2\nT 3\nk 1", "edge 0 1 custom 1 3\nedge 0 1 custom 1 3\npair 0 2",
     InvalidInstanceError, "duplicate edge (0, 1)"),
    ("n 2\nm 1\nT 3\nk 1", "edge 0 1 custom\npair 0 1", InvalidInstanceError, "line 6: weight table is empty"),
    ("n 2\nm 1\nT 3\nk 1", "edge 0 1 custom 0 3\npair 0 1", InvalidInstanceError,
     "line 6: initial weight must be positive"),
    ("n 2\nm 1\nT 3\nk 1", "edge 0 1 custom 3 1\npair 0 1", InvalidInstanceError,
     "line 6: weight table must be nondecreasing"),
    ("n 2\nm 1\nT 1\nk 1", "edge 0 1 custom 1 3\npair 0 1", InvalidInstanceError, "threshold must be at least 2"),
    ("n 2\nm 1\nT 3\nk 1", "edge 0 1 custom 1 3\npair 0 5", InvalidInstanceError, "pair (0, 5) out of node range"),
    ("n 2\nm 1\nT 3\nk 1", "edge 0 1 custom 1 3\nbogus 1\npair 0 1", ParseError, "line 7: unknown record 'bogus'"),
    ("n 2\nm 1\nT 3\nk 1", "edge 0\npair 0 1", ParseError, "line 6: malformed record 'edge 0'"),
    ("n 2\nm 1\nT 3", "edge 0 1 custom 1 3\npair 0 1", ParseError, "missing header field 'k'"),
    ("n 2\nm 2\nT 3\nk 1", "edge 0 1 custom 1 3\npair 0 1", ParseError, "expected 2 edges, found 1"),
    ("n 2\nm 1\nT 3\nk 2", "edge 0 1 custom 1 3\npair 0 1", ParseError, "expected 2 pairs, found 1"),
]


@pytest.mark.parametrize("header, records, error, fragment", BAD_INSTANCE_FILES,
                         ids=[case[-1] for case in BAD_INSTANCE_FILES])
def test_bad_instance_file(tmp_path, capsys, header, records, error, fragment):
    text = f"qosd-instance v1\n{header}\n{records}\n"
    with pytest.raises(error, match=re.escape(fragment)):
        load_instance(io.StringIO(text))
    inst_file = tmp_path / "inst.txt"
    inst_file.write_text(text)
    assert main(["solve", "--instance", str(inst_file), "--algorithm", "ig"]) == error.exit_code == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and fragment in err


# failure paths with no CLI route: the CLI's choices or loaders never build these inputs
@pytest.mark.parametrize("call, error, fragment", [
    (lambda: QosdInstance(diamond_graph(), build_weights(diamond_graph(), "linear", 3)[:3], [(0, 3)], 3),
     InvalidInstanceError, "one weight function per edge"),
    (lambda: build_weights(diamond_graph(), "cubic", 3), InvalidInstanceError, "unknown weight model 'cubic'"),
    (lambda: sample_pairs(Graph(1, []), 1, 0), InvalidInstanceError, "at least two nodes"),
    (lambda: run_algorithm(diamond_instance(), "xx"), ConfigError, "unknown algorithm 'xx'"),
    (lambda: sample_count(diamond_instance(), 1, 1.0, 0.5), ConfigError, "must lie in (0, 1)"),
    (lambda: sample_count(diamond_instance(), 1, 0.0, 0.5), ConfigError, "must lie in (0, 1)"),
], ids=["weight-count", "weight-model", "one-node-pairs", "algorithm-name", "epsilon-one", "epsilon-zero"])
def test_library_failure(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


@pytest.mark.parametrize("algorithm, fragment", [
    ("ig", "greedy blocking: no step improves D"),
    ("at", "adaptive trading: no step improves D"),
    ("sa", "no unit or chunk improves the current shortest paths"),
    ("lr", "no optimum within the box"),
    ("cc", "all edges on remaining short paths are saturated"),
    ("oracle", "no optimum within the box"),
])
def test_box_infeasible_instance(algorithm, fragment):
    # at full budget the one path is 2 + 2 = 4 long, short of T = 5
    graph = Graph(3, [(0, 1), (1, 2)])
    inst = QosdInstance(graph, [WeightFunction((1, 2))] * 2, [(0, 2)], 5, validate_box=False)
    with pytest.raises(InfeasibleBoxError, match=re.escape(fragment)):
        run_algorithm(inst, algorithm)


DIAMOND_EDGES = "0 1\n1 3\n0 2\n2 3\n"


# (edge list, extra solve arguments, the library call on the edge list, error, fragment)
@pytest.mark.parametrize("edges, args, call, error, fragment", [
    ("0 0\n1 1\n", ["--threshold", "3"], load_edge_list,
     InvalidInstanceError, "edge list reduced to an empty graph"),
    (DIAMOND_EDGES, ["--threshold", "3", "--random-pairs", "0"],
     lambda lines: sample_pairs(load_edge_list(lines), 0, 0), InvalidInstanceError, "need k >= 1"),
    (DIAMOND_EDGES, [], None, ConfigError, "--threshold is required with --edges"),
], ids=["self-loops-only", "zero-random-pairs", "edges-without-threshold"])
def test_bad_edge_list_input(tmp_path, capsys, edges, args, call, error, fragment):
    if call is not None:
        with pytest.raises(error, match=re.escape(fragment)):
            call(io.StringIO(edges))
    edges_file = tmp_path / "edges.txt"
    edges_file.write_text(edges)
    assert main(["solve", "--edges", str(edges_file), "--algorithm", "ig"] + args) == error.exit_code == 1
    assert capsys.readouterr().err == f"invalid input: {fragment}\n"


@pytest.mark.parametrize("line, fragment", [
    ("repetitions = 0", "repetitions must be at least 1"),
    ("source = db", "unknown source 'db'"),
    ("source = file", "source=file needs instance_file"),
    ("er_n 12", "line 2: expected key = value, got 'er_n 12'"),
    ("er_n = twelve", "line 2: bad value for 'er_n': 'twelve'"),
])
def test_bad_config(tmp_path, capsys, line, fragment):
    text = f"qosd-config v1\n{line}\n"
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        parse_config(text)
    config_file = tmp_path / "batch.cfg"
    config_file.write_text(text)
    assert main(["experiment", str(config_file)]) == ConfigError.exit_code == 1
    assert capsys.readouterr().err == f"invalid input: {fragment}\n"


# (vector file, error, fragment): read_vector's and validate's rejections of a
# vector for the one-edge INSTANCE; the length check is validate's alone
@pytest.mark.parametrize("vector, error, fragment", [
    ("1\n0\n", ParseError, "line 1: missing header 'qosd-vector v1'"),
    ("qosd-vector v1\n2\n0\n", ParseError, "expected 2 components, found 1"),
    ("qosd-vector v1\n2\n0 0\n", ConfigError, "vector has 2 components, instance has 1 edges"),
], ids=["no-header", "short", "longer-than-m"])
def test_bad_vector(tmp_path, capsys, vector, error, fragment):
    vec_file = tmp_path / "x.txt"
    vec_file.write_text(vector)
    if error is ParseError:
        with pytest.raises(error, match=re.escape(fragment)):
            read_vector(str(vec_file))
    inst_file = tmp_path / "inst.txt"
    inst_file.write_text(INSTANCE)
    assert main(["validate", "--instance", str(inst_file), "--vector", str(vec_file)]) == error.exit_code == 1
    assert capsys.readouterr().err == f"invalid input: {fragment}\n"


def test_experiment_without_output_writes_csv_to_stdout(tmp_path, capsys):
    config_file = tmp_path / "batch.cfg"
    config_file.write_text("qosd-config v1\ner_n = 8\ner_rho = 0.3\nT = 3\nk = 2\nrepetitions = 1\n"
                           "algorithms = ig\n")
    assert main(["experiment", str(config_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS) and len(lines) == 2
    assert lines[1].startswith("ig,8,")
