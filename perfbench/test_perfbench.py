"""Tests of the benchmark's own checker and tracer: python3 -m pytest perfbench"""

import dataclasses

import pytest

from checker import Reference
from tracer import Tracer
from workloads import build

import qosd
from qosd import BudgetVector


@pytest.fixture(scope="module")
def lr_case():
    """The first er60-lr instance and LR's output on it."""
    call = next(c for c in build("er60-lr", 0, 0) if c.label.startswith("seed=1000,"))
    return call.instance, Reference(call.instance), call.solve(call.instance)


def _with_budget(report, values):
    return dataclasses.replace(report, budget=BudgetVector(values), norm=sum(values))


def _over_cap(instance, report):
    values = list(report.budget.values)
    values[0] = instance.box[0] + 1
    return _with_budget(report, values)


def test_solver_output_passes(lr_case):
    _, ref, report = lr_case
    assert ref.lower_bound >= 1
    assert ref.check(report) == []


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda inst, r: _with_budget(r, [0] * inst.graph.m), "stay below T"),
        (_over_cap, "above the cap"),
        (lambda inst, r: dataclasses.replace(r, norm=r.norm + 1), "report.norm"),
        (lambda inst, r: dataclasses.replace(r, feasible=False), "report.feasible"),
        (lambda inst, r: dataclasses.replace(
            r, extras={**r.extras, "lp_objective": r.norm + 1.0}), "lp_objective"),
    ],
    ids=["zero-vector", "over-cap", "norm", "feasible-flag", "lp-objective"],
)
def test_checker_rejects(lr_case, mutate, message):
    instance, ref, report = lr_case
    problems = ref.check(mutate(instance, report))
    assert any(message in p for p in problems), problems


def test_distances_agree_with_pathcore(lr_case):
    instance, ref, _ = lr_case
    zero = BudgetVector.zeros(instance.graph.m)
    dist = ref.pair_distances(zero.values)
    below = [i for i, d in enumerate(dist) if d < instance.threshold]
    assert below == qosd.unseparated_pairs(instance, zero)


def test_tracer_wraps_every_binding_and_restores(lr_case):
    instance, _, _ = lr_case
    original = qosd.pathcore.pair_shortest_paths
    tracer = Tracer()
    with tracer.installed("qosd", ("pathcore",), {}):
        assert qosd.framework.pair_shortest_paths is qosd.pathcore.pair_shortest_paths
        assert qosd.pathcore.pair_shortest_paths is not original
        with tracer.span("bench.solve"):
            qosd.framework.potential_paths(instance, BudgetVector.zeros(instance.graph.m))
    assert qosd.pathcore.pair_shortest_paths is original
    assert qosd.framework.pair_shortest_paths is original
    names = tracer.names
    assert names[0] == "bench.solve"
    assert names.count("pathcore.pair_shortest_paths") == 1
    assert names.count("pathcore.shortest_path") == instance.k
    assert all(p == 0 for name, p in zip(names, tracer.parent) if name == "pathcore.pair_shortest_paths")
    total, own = tracer.durations()
    assert sum(own) == pytest.approx(total[0], abs=1e-9)
