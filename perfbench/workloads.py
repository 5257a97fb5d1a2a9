"""Seeded workload instances and the solver call made on each.

Every workload is a fixed list of instances plus one solver per workload.
``instance_seed`` picks the instances; ``instance_seed=0`` gives the
reference instances listed in the README. ``order_seed`` only changes the
order in which inputs are presented (see ``build``), never their content,
so the solver outputs and the work done are the same for every order seed.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# Functions are called through the package namespace so that a tracer which
# rebinds them there sees these calls too.
import qosd  # noqa: E402
from qosd import Graph, QosdInstance, RunReport, SaConfig  # noqa: E402

# C10's peer-to-peer-scale graph. The full 100-pair sample takes about a
# minute per IG solve; a 10-pair prefix takes about 3 s, so a run repeats it.
P2P_N, P2P_M, P2P_T, P2P_K = 10_876, 39_994, 10, 10
ER240_PER_SEED = 3
ER60_PER_SEED = 60


@dataclass
class Call:
    """One solver call of a pass: its label, input and solver."""

    label: str
    instance: QosdInstance
    solve: Callable[[QosdInstance], RunReport]


def p2p_graph(seed: int) -> Graph:
    """Uniform random digraph with C10's node and edge counts."""
    rng = random.Random(seed)
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    while len(edges) < P2P_M:
        u = rng.randrange(P2P_N)
        v = rng.randrange(P2P_N)
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            edges.append((u, v))
    return Graph(P2P_N, edges)


def _p2p_ig(instance_seed: int, order_seed: int) -> list[Call]:
    graph_seed, pair_seed = 42 + instance_seed, 7 + instance_seed
    graph = p2p_graph(graph_seed)
    pairs = qosd.sample_pairs(graph, 100, pair_seed)[:P2P_K]
    # IG's output does not depend on pair order: gains are sums over paths
    # and ties break by edge index.
    random.Random(order_seed).shuffle(pairs)
    inst = QosdInstance(graph, qosd.build_weights(graph, "linear", P2P_T), pairs, P2P_T)
    label = f"graph={graph_seed},pairs={pair_seed}[:{P2P_K}]"
    return [Call(label, inst, lambda i: qosd.run_iterative(i, "ig", threads=1))]


def _er240(solver: str, instance_seed: int) -> list[Call]:
    calls = []
    for s in range(ER240_PER_SEED * instance_seed, ER240_PER_SEED * (instance_seed + 1)):
        inst = qosd.make_er_instance(240, 0.05, 5, 5, "heterogeneous", seed=s)
        if solver == "at":
            solve = lambda i, s=s: qosd.run_iterative(i, "at", threads=1, seed=s)
        else:
            solve = lambda i, s=s: qosd.run_sa(i, SaConfig(seed=s), threads=1)
        calls.append(Call(f"seed={s}", inst, solve))
    return calls


def _er60_lr(instance_seed: int) -> list[Call]:
    calls = []
    for i in range(ER60_PER_SEED * instance_seed, ER60_PER_SEED * (instance_seed + 1)):
        inst = qosd.make_er_instance(60, 0.1, 5, 10, "linear", seed=1000 + i)
        solve = lambda x, i=i: qosd.run_lr(x, delta=0.2, seed=i, threads=1)
        calls.append(Call(f"seed={1000 + i},lr_seed={i}", inst, solve))
    return calls


def build(name: str, instance_seed: int, order_seed: int) -> list[Call]:
    """Instances of one workload, in the order a pass solves them.

    ``order_seed`` permutes p2p-ig's pairs (its single call has no order)
    and the call order of the other workloads.
    """
    if name == "p2p-ig":
        return _p2p_ig(instance_seed, order_seed)
    if name == "er60-lr":
        calls = _er60_lr(instance_seed)
    else:
        calls = _er240(name.removeprefix("er240-"), instance_seed)
    random.Random(order_seed).shuffle(calls)
    return calls
