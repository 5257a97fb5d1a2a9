"""Sampling-based solver: greedy budget chunks guided by an unbiased
estimator of the blocking metric, with a biased self-avoiding walk sampler.

Walks are steered toward each sink's shortest-path tree with bias alpha;
the exact probability of every produced walk is tracked so feasible
samples can be importance-weighted.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .errors import GammaZeroError, InfeasibleBoxError
from .framework import potential_paths
from .instance import QosdInstance, concave_ratio
from .pathcore import BudgetVector, Path, PathSupport, dijkstra, edge_lengths, r_value
from .report import Deadline, RunReport


@dataclass(frozen=True)
class SampledPath:
    """One walk outcome with its exact sampling probability.

    ``feasible`` is True only for walks that reached their sink with
    initial-weight length below T (truncated and dead-end walks count
    zero in the estimator but still carry their probability).
    """

    path: Path
    rho: float
    pair_index: int
    feasible: bool


@dataclass
class SaConfig:
    """Knobs for the sampling solver.

    ``samples_per_round=None`` uses the practical default max(100, 10k);
    theoretical mode sizes rounds with :func:`sample_count` instead and is
    usually astronomically larger.
    """

    q: int = 1
    alpha: float = 0.8
    epsilon: float = 0.3
    delta: float = 0.2
    sample_mode: str = "practical"
    samples_per_round: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be a positive integer")
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("alpha must lie in [0, 1)")
        if self.sample_mode not in ("practical", "theoretical"):
            raise ValueError(f"unknown sample mode {self.sample_mode!r}")


def build_sp_tree(
    instance: QosdInstance,
    x: BudgetVector,
    sink: int,
    *,
    lengths: list[int] | None = None,
) -> list[int | None]:
    """Next hop toward ``sink`` on a shortest path under f_e(x_e), per node.

    One :func:`pathcore.dijkstra` over the reverse graph. Ties compare the
    out-edges' ``(node, next hop)`` tuples, so among equal-distance routes
    the lowest next-hop id wins. Nodes that cannot reach the sink, and the
    sink itself, map to None. ``lengths`` is ``edge_lengths(instance, x)``
    when the caller already has it.
    """
    if lengths is None:
        lengths = edge_lengths(instance, x)
    graph = instance.graph
    edges = graph.edges
    _, first_edge = dijkstra(graph.in_adj, lengths, sink, tie_key=edges)
    return [edges[e][1] if e >= 0 else None for e in first_edge]


def sample_path(
    instance: QosdInstance,
    x: BudgetVector,
    trees: dict[int, list[int | None]],
    alpha: float,
    rng: random.Random,
    *,
    pair_index: int | None = None,
    lengths: list[int] | None = None,
) -> SampledPath:
    """One biased self-avoiding walk for a uniformly chosen pair.

    Steps toward the shortest-path tree parent with probability alpha and
    uniformly over the other unvisited out-neighbors otherwise; ends on
    reaching the sink, on current-weight length >= T, or at a dead end.
    Forced steps (a single unvisited neighbor) consume no randomness.
    """
    if lengths is None:
        lengths = edge_lengths(instance, x)
    weights = instance.weights
    graph = instance.graph
    threshold = instance.threshold
    if pair_index is None:
        pair_index = rng.randrange(instance.k)
    s, t = instance.pairs[pair_index]
    tree = trees[t]

    rho = 1.0 / instance.k
    nodes = [s]
    edges: list[int] = []
    visited = {s}
    current = 0
    initial = 0
    u = s
    while u != t and current < threshold:
        avail = [(v, ei) for v, ei in graph.out_adj[u] if v not in visited]
        if not avail:
            break
        if len(avail) == 1:
            v, ei = avail[0]
        else:
            parent = tree[u]
            slots = len(avail)
            probs: list[float]
            if parent is not None and any(v == parent for v, _ in avail):
                other = (1.0 - alpha) / (slots - 1)
                probs = [alpha if v == parent else other for v, _ in avail]
            else:
                probs = [1.0 / slots] * slots
            draw = rng.random()
            acc = 0.0
            choice = slots - 1
            for i, p in enumerate(probs):
                acc += p
                if draw < acc:
                    choice = i
                    break
            v, ei = avail[choice]
            rho *= probs[choice]
        visited.add(v)
        nodes.append(v)
        edges.append(ei)
        current += lengths[ei]
        initial += weights[ei].table[0]
        u = v
    feasible = u == t and initial < threshold
    path = Path(tuple(nodes), tuple(edges), initial, pair_index)
    return SampledPath(path, rho, pair_index, feasible)


def estimate_B(instance: QosdInstance, samples: list[SampledPath], x: BudgetVector) -> float:
    """Importance-weighted mean of capped path lengths over the samples."""
    if not samples:
        raise ValueError("cannot estimate from an empty sample set")
    total = 0.0
    for sp in samples:
        if sp.feasible:
            total += r_value(instance, sp.path, x) / sp.rho
    return total / len(samples)


def sample_count(
    instance: QosdInstance,
    q: int,
    epsilon: float,
    delta_round: float,
    gamma=None,
) -> int:
    """Per-round sample size with guaranteed estimator accuracy.

    Uses the fixed split eps1 = eps/2, delta1 = delta_round/2 and the
    lower bound of 1 on the best chunk's true marginal gain; the binomial
    coefficient is evaluated in the log domain. Undefined at gamma = 0.
    """
    if not (0 < epsilon < 1 and 0 < delta_round < 1):
        raise ValueError("epsilon and delta_round must lie in (0, 1)")
    if gamma is None:
        gamma = concave_ratio(instance.weights)
    gamma = float(gamma)
    if gamma <= 0.0:
        raise GammaZeroError(
            "theoretical sample sizing diverges at concave ratio 0; use practical mode"
        )
    eps1 = epsilon / 2.0
    delta1 = delta_round / 2.0
    t = instance.threshold
    k = instance.k
    d = max(instance.graph.max_out_degree, 1)
    h = instance.hop_bound
    n = instance.graph.n
    scale = (t * k) ** 2 * float(d) ** (2 * h)
    first = math.log(1.0 / delta1) / eps1**2
    log_binom = (
        math.lgamma(n + q + 1) - math.lgamma(q + 1) - math.lgamma(n + 1)
    )
    shrink = 1.0 - math.exp(-gamma)
    second = (log_binom - math.log(delta1)) / (2.0 * shrink**2 * eps1**2)
    return math.ceil(scale * max(first, second))


def greedy_chunk(
    instance: QosdInstance,
    samples: list[SampledPath],
    x: BudgetVector,
    q: int,
) -> BudgetVector:
    """Up to q unit-greedy steps on the estimator's marginal gain,
    restricted to edges of feasible samples with box room left."""
    live = [sp for sp in samples if sp.feasible]
    if not live or q <= 0:
        return BudgetVector.zeros(instance.graph.m)
    inv = 1.0 / len(samples)
    support = PathSupport(
        instance, [sp.path for sp in live], x, [inv / sp.rho for sp in live]
    )
    for _ in range(q):
        edge, _ = support.best_unit()
        if edge < 0:
            break
        support.apply(edge, 1)
    return BudgetVector([a - b for a, b in zip(support.x, x.values)])


def _derived_rng(master: int, round_idx: int, attempt: int, index: int) -> random.Random:
    # string seeding hashes with sha512, stable across runs and platforms
    return random.Random(f"{master}:{round_idx}:{attempt}:{index}")


def _draw_samples(
    instance: QosdInstance,
    x: BudgetVector,
    trees: dict[int, list[int | None]],
    alpha: float,
    master: int,
    round_idx: int,
    attempt: int,
    count: int,
    lengths: list[int],
) -> list[SampledPath]:
    return [
        sample_path(
            instance, x, trees, alpha, _derived_rng(master, round_idx, attempt, i),
            lengths=lengths,
        )
        for i in range(count)
    ]


def run_sa(
    instance: QosdInstance,
    config: SaConfig | None = None,
    *,
    threads: int = 1,
    deadline: Deadline | float | None = None,
) -> RunReport:
    """Sampling rounds until separation.

    Each round rebuilds the shortest-path trees under the current budget,
    draws fresh samples and adds the greedy chunk. A zero chunk escalates
    by doubling the sample count up to three times, then falls back to one
    exact unit step on the round's shortest paths below T, so progress is
    unconditional. The loop ends only when a sweep under the final budget
    finds no such path, so the report is feasible. ``threads`` is accepted
    and ignored: walks are drawn in the caller's thread, each from its own
    derived seed.
    """
    config = config or SaConfig()
    deadline = Deadline.ensure(deadline)
    start = time.perf_counter()

    if config.sample_mode == "theoretical":
        total_box = sum(instance.box)
        base_count = sample_count(
            instance, config.q, config.epsilon, config.delta / max(total_box, 1)
        )
    else:
        base_count = (
            config.samples_per_round
            if config.samples_per_round
            else max(100, 10 * instance.k)
        )

    m = instance.graph.m
    x = BudgetVector.zeros(m)
    rounds = 0
    samples_drawn = 0
    escalations = 0
    fallbacks = 0
    sinks = sorted({t for _, t in instance.pairs})
    while True:
        deadline.check("sampling round")
        paths = potential_paths(instance, x)
        if not paths:
            break
        lengths = edge_lengths(instance, x)
        trees = {t: build_sp_tree(instance, x, t, lengths=lengths) for t in sinks}
        for attempt in range(4):  # base try plus three doublings
            if attempt > 0:
                escalations += 1
            count = base_count * (2**attempt)
            samples = _draw_samples(
                instance, x, trees, config.alpha, config.seed, rounds, attempt, count,
                lengths,
            )
            samples_drawn += count
            chunk = greedy_chunk(instance, samples, x, config.q)
            if chunk.norm > 0:
                x = x.plus(chunk)
                break
        else:
            edge, _ = PathSupport(instance, paths, x).best_unit()
            if edge < 0:
                raise InfeasibleBoxError(
                    "no unit increment improves the current shortest paths"
                )
            x = x.plus(BudgetVector.unit(m, edge))
            fallbacks += 1
        rounds += 1

    return RunReport(
        algorithm="sa",
        budget=x,
        norm=x.norm,
        outer_iterations=rounds,
        inner_iterations=x.norm,
        wall_time=time.perf_counter() - start,
        feasible=True,
        seed=config.seed,
        extras={
            "samples_drawn": samples_drawn,
            "escalations": escalations,
            "fallbacks": fallbacks,
            "samples_per_round": base_count,
        },
    )
