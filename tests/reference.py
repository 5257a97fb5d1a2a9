"""Reference helpers that only the tests use: capped path lengths r and
their sum D over a path set, unit vectors and vector addition, the out-
and in-adjacency in edge-index order, every pair's path from a sweep over
the whole graph, the lazy IG/AT loop with each round's support built from
scratch, SA's estimator of B, its chunk's inputs from independent walks,
per-walk random streams and tree parents found for all nodes at once, the
per-edge instance generators that the library's batched ones must match,
and C08's layered flat-step instances."""

from __future__ import annotations

import random
from array import array
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from qosd import (BudgetVector, Deadline, Graph, InvalidInstanceError, QosdError, QosdInstance, WeightFunction,
                  potential_paths)
from qosd.framework import _generate
from qosd.instance import _concave_table, _convex_table, _linear_table
from qosd.pathcore import distances, out_view
from qosd.sa import SampledPath


@lru_cache(maxsize=64)
def out_adj(graph: Graph) -> list[list[tuple[int, int]]]:
    """Each node's (head, edge) out-edges in edge-index order."""
    adj = [[] for _ in range(graph.n)]
    for idx, (u, v) in enumerate(graph.edges):
        adj[u].append((v, idx))
    return adj


@lru_cache(maxsize=64)
def in_adj(graph: Graph) -> list[list[tuple[int, int]]]:
    """Each node's (tail, edge) in-edges in edge-index order."""
    adj = [[] for _ in range(graph.n)]
    for idx, (u, v) in enumerate(graph.edges):
        adj[v].append((u, idx))
    return adj


def full_graph_paths(
    instance: QosdInstance, lengths: Sequence[float], bound: float
) -> list[tuple[int, ...] | None]:
    """Every pair's shortest path strictly below ``bound`` under ``lengths``,
    as its edge tuple (None when there is none), from one sweep over the
    whole graph, each rebuilt from t along the lowest-index tight in-edge of
    all the graph's."""
    rows = distances(instance, lengths, instance.sources, bound=bound)
    into = in_adj(instance.graph)
    paths = []
    for (s, t), r in zip(instance.pairs, instance.source_row.tolist()):
        dist = rows[r]
        if not dist[t] < bound:
            paths.append(None)
            continue
        v, edges = t, []
        while v != s:
            dv = dist[v]
            v, e = next((u, e) for u, e in into[v] if dist[u] + lengths[e] == dv)
            edges.append(e)
        paths.append(tuple(reversed(edges)))
    return paths


def fresh_support_run(instance: QosdInstance, blocker) -> tuple[BudgetVector, int, int, int]:
    """``run_iterative``'s loop with ``blocker`` (``block_greedy`` or
    ``block_adaptive``) given no ``support``, so each round builds its own
    from scratch: the last budget, the rounds, the blocker's trace steps and
    the candidate paths."""
    steps = []
    x, paths, rounds = _generate(
        instance, BudgetVector.zeros(instance.graph.m), lambda x: potential_paths(instance, x),
        lambda paths: blocker(instance, paths, trace=steps), deadline=Deadline.ensure(None), cap=None,
        what="fresh-support reference",
    )
    return x, rounds, len(steps), len(paths)


def path_nodes(graph: Graph, edges: Sequence[int]) -> tuple[int, ...]:
    """The nodes that the edge tuple ``edges`` (at least one edge) visits in
    order; ``AssertionError`` unless each edge starts where the last one
    ended and no node is visited twice."""
    ends = graph.edges
    nodes = (ends[edges[0]][0],) + tuple(ends[e][1] for e in edges)
    assert all(ends[e][0] == u for e, u in zip(edges, nodes)), f"{edges} is not a walk"
    assert len(set(nodes)) == len(nodes), f"{edges} revisits a node"
    return nodes


def chunk_inputs(samples: Sequence[SampledPath]) -> tuple[list[tuple[int, ...]], list[float]]:
    """``greedy_chunk``'s paths and weights for independent draws: each
    feasible sample's edges, weighted 1 * (1 / len(samples)) / rho."""
    live = [sp for sp in samples if sp.feasible]
    return [sp.edges for sp in live], [1 * (1.0 / len(samples)) / sp.rho for sp in live]


def r_value(instance: QosdInstance, path: Sequence[int], x: BudgetVector) -> int:
    """Length under x of the path with edges ``path``, capped at the threshold."""
    threshold = instance.threshold
    weights = instance.weights
    total = 0
    for e in path:
        total += weights[e].table[x.values[e]]
        if total >= threshold:
            return threshold
    return total


def d_value(instance: QosdInstance, paths: Iterable[Sequence[int]], x: BudgetVector) -> int:
    """Sum of capped lengths; equals |P| * T exactly when x blocks all of P."""
    return sum(r_value(instance, p, x) for p in paths)


def blocks_all(instance: QosdInstance, paths: Sequence[Sequence[int]], x: BudgetVector) -> bool:
    return d_value(instance, paths, x) == len(paths) * instance.threshold


def unit(m: int, edge: int, amount: int = 1) -> BudgetVector:
    """The length-m vector with ``amount`` on ``edge`` and 0 elsewhere."""
    values = array("q", bytes(8 * m))
    values[edge] = amount
    return BudgetVector(values)


def plus(x: BudgetVector, y: BudgetVector) -> BudgetVector:
    """x + y, never clamped to a box."""
    if len(x.values) != len(y.values):
        raise QosdError(f"dimension mismatch: {len(x.values)} vs {len(y.values)}")
    return BudgetVector([a + b for a, b in zip(x.values, y.values)])


def estimate_B(instance: QosdInstance, samples: list[SampledPath], x: BudgetVector) -> float:
    """Importance-weighted mean of capped path lengths over the samples."""
    if not samples:
        raise ValueError("cannot estimate from an empty sample set")
    total = 0.0
    for sp in samples:
        if sp.feasible:
            total += r_value(instance, sp.edges, x) / sp.rho
    return total / len(samples)


def tree_parents(graph: Graph, lengths: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Each node's next hop toward the sink of the reverse distances ``dist``,
    vectorised over all nodes: the lowest-id out-neighbour v on a tight
    out-edge e, lengths[e] + d(v) == d(u); n when the sink is out of reach.
    ``lengths`` ends with an inf for the -1 padding."""
    out_nodes, out_edges = out_view(graph)
    tight = (dist < np.inf)[:, None] & (lengths[out_edges] + dist[out_nodes] == dist[:, None])
    return np.where(tight, out_nodes, graph.n).min(axis=1)


def _derived_rng(master: int, round_idx: int, attempt: int, index: int) -> random.Random:
    # string seeding hashes with sha512, stable across runs and platforms
    return random.Random(f"{master}:{round_idx}:{attempt}:{index}")


def generate_er_per_edge(n: int, rho: float, seed: int) -> Graph:
    """``generate_er`` drawing one edge at a time."""
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < rho:
                edges.append((u, v))
    return Graph(n, edges)


def heterogeneous_per_edge(graph: Graph, threshold: int, seed: int) -> list[WeightFunction]:
    """``build_weights(graph, "heterogeneous", ...)`` building each edge's table anew."""
    rng = random.Random(seed)
    build = {"linear": _linear_table, "convex": _convex_table, "concave": _concave_table}
    return [build[rng.choice(("linear", "convex", "concave"))](threshold) for _ in range(graph.m)]


def make_layered_flat_instance(seed: int) -> QosdInstance:
    """Two-layer instance for the concave-ratio sensitivity experiment.

    Eight sources connect to ten middle nodes with linear edges; middle-to-
    sink edges (eight sinks) carry a flat-then-jump table (1, 1, T) whose
    zero increment followed by a positive one forces concave ratio 0. Each
    possible edge is present with probability 0.45; T = 6 and five pairs.
    Every source-sink path is linear-then-staircase, so unit-greedy blocking
    can never exploit the cheap final jump while amount-aware blocking can.
    """
    side, middle, rho, threshold, k = 8, 10, 0.45, 6, 5
    rng = random.Random(seed)
    linear = WeightFunction(tuple(range(1, threshold + 1)), "linear")
    stair = WeightFunction((1, 1, threshold))
    edges: list[tuple[int, int]] = []
    tables: list[WeightFunction] = []
    for s in range(side):
        for mid in range(middle):
            if rng.random() < rho:
                edges.append((s, side + mid))
                tables.append(linear)
    for mid in range(middle):
        for t in range(side):
            if rng.random() < rho:
                edges.append((side + mid, side + middle + t))
                tables.append(stair)
    graph = Graph(side + middle + side, edges)
    pairs: list[tuple[int, int]] = []
    tries = 0
    while len(pairs) < k:
        tries += 1
        if tries > 100_000:
            raise InvalidInstanceError("could not sample enough source-sink pairs")
        s = rng.randrange(side)
        t = side + middle + rng.randrange(side)
        if (s, t) not in pairs:
            pairs.append((s, t))
    return QosdInstance(graph, tables, pairs, threshold)
