"""Centrality-cutting heuristic, exhaustive path enumeration and the exact
minimum-budget oracle used to validate the approximation algorithms."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .errors import BlownBudgetError, InfeasibleBoxError
from .framework import potential_paths
from .instance import QosdInstance
from .pathcore import BudgetVector, Path
from .report import Deadline, RunReport


def run_cc(
    instance: QosdInstance,
    *,
    threads: int = 1,
    deadline: Deadline | float | None = None,
    seed: int | None = None,
) -> RunReport:
    """Centrality cutting: repeatedly max out the edge appearing most often
    among the unseparated pairs' current shortest paths. ``threads`` is
    accepted and ignored."""
    deadline = Deadline.ensure(deadline)
    start = time.perf_counter()
    m = instance.graph.m
    box = instance.box
    x = [0] * m
    rounds = 0
    while True:
        deadline.check("centrality cutting")
        paths = potential_paths(instance, BudgetVector(x))
        if not paths:
            break
        counts: dict[int, int] = {}
        for p in paths:
            for e in p.edge_seq:
                if x[e] < box[e]:
                    counts[e] = counts.get(e, 0) + 1
        if not counts:
            # every edge of every remaining short path is already at cap,
            # which contradicts box feasibility checked at construction
            raise InfeasibleBoxError("all edges on remaining short paths are saturated")
        best = min(counts, key=lambda e: (-counts[e], e))
        x[best] = box[best]
        rounds += 1
    vec = BudgetVector(x)
    return RunReport(
        algorithm="cc",
        budget=vec,
        norm=vec.norm,
        outer_iterations=rounds,
        inner_iterations=rounds,
        wall_time=time.perf_counter() - start,
        feasible=True,
        seed=seed,
    )


def enumerate_feasible_paths(instance: QosdInstance, limit: int = 1_000_000) -> list[Path]:
    """All simple paths per pair with initial-weight length below T.

    Depth-first with pruning at accumulated length >= T and at the hop
    bound; intended for desk-scale instances, aborts past ``limit`` paths.
    """
    graph = instance.graph
    weights = instance.weights
    threshold = instance.threshold
    hop_bound = instance.hop_bound
    out: list[Path] = []

    for pair_index, (s, t) in enumerate(instance.pairs):
        stack_nodes = [s]
        stack_edges: list[int] = []
        visited = {s}

        def dfs(u: int, acc: int) -> None:
            if u == t:
                out.append(
                    Path(tuple(stack_nodes), tuple(stack_edges), acc, pair_index)
                )
                if len(out) > limit:
                    raise BlownBudgetError(f"more than {limit} feasible paths")
                return
            if len(stack_edges) >= hop_bound:
                return
            for v, ei in graph.out_adj[u]:
                if v in visited:
                    continue
                nxt = acc + weights[ei].table[0]
                if nxt >= threshold:
                    continue
                visited.add(v)
                stack_nodes.append(v)
                stack_edges.append(ei)
                dfs(v, nxt)
                stack_edges.pop()
                stack_nodes.pop()
                visited.remove(v)

        dfs(s, 0)
    return out


@dataclass
class OracleResult:
    """Exact minimum blocking budget with a witness vector."""

    opt_norm: int
    witness: BudgetVector
    feasible_paths: int
    explored: int


def min_budget_to_block(
    instance: QosdInstance,
    paths: Sequence[Path],
    *,
    node_limit: int = 50_000_000,
) -> OracleResult:
    """Smallest-norm vector within the box blocking every given path.

    Searches budget vectors in order of increasing norm (iterative
    deepening over the support of the paths), so the first hit is exact.
    """
    threshold = instance.threshold
    weights = instance.weights
    box = instance.box
    m = instance.graph.m

    support = sorted({e for p in paths for e in p.edge_seq})
    base_lengths = [p.initial_length for p in paths]
    if all(ln >= threshold for ln in base_lengths):
        return OracleResult(0, BudgetVector.zeros(m), len(paths), 1)

    edge_paths: dict[int, list[int]] = {e: [] for e in support}
    for pi, p in enumerate(paths):
        for e in p.edge_seq:
            edge_paths[e].append(pi)

    explored = 0
    lengths = list(base_lengths)
    assignment = {e: 0 for e in support}
    max_norm = sum(box[e] for e in support)

    def blocked_count() -> int:
        return sum(1 for ln in lengths if ln >= threshold)

    def dfs(idx: int, remaining: int) -> bool:
        nonlocal explored
        explored += 1
        if explored > node_limit:
            raise BlownBudgetError(f"oracle search exceeded {node_limit} nodes")
        if remaining == 0:
            return all(ln >= threshold for ln in lengths)
        if idx == len(support):
            return False
        if blocked_count() == len(lengths):
            # a strictly smaller norm would already have been found
            return False
        e = support[idx]
        table = weights[e].table
        base = table[0]
        for value in range(0, min(box[e], remaining) + 1):
            delta = table[value] - base
            if value:
                for pi in edge_paths[e]:
                    lengths[pi] += delta
                assignment[e] = value
            if dfs(idx + 1, remaining - value):
                return True
            if value:
                for pi in edge_paths[e]:
                    lengths[pi] -= delta
                assignment[e] = 0
        return False

    for target in range(1, max_norm + 1):
        if dfs(0, target):
            values = [0] * m
            for e, v in assignment.items():
                values[e] = v
            return OracleResult(target, BudgetVector(values), len(paths), explored)
    raise InfeasibleBoxError("no vector within the box blocks every path")


def oracle_opt(
    instance: QosdInstance,
    *,
    path_limit: int = 1_000_000,
    node_limit: int = 50_000_000,
) -> OracleResult:
    """Exact optimum for the full instance: enumerate all feasible paths,
    then run the norm-ordered lattice search."""
    feasible = enumerate_feasible_paths(instance, limit=path_limit)
    if not feasible:
        return OracleResult(0, BudgetVector.zeros(instance.graph.m), 0, 0)
    return min_budget_to_block(instance, feasible, node_limit=node_limit)
