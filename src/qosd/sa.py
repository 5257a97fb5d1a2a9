"""Sampling-based solver: greedy budget chunks guided by an unbiased
estimator of the blocking metric, with a biased self-avoiding walk sampler.

Walks are steered toward each sink's shortest-path tree with bias alpha;
the exact probability of every produced walk is tracked so feasible
samples can be importance-weighted. :func:`run_sa` walks on the T-corridor
sub-instance (:func:`pathcore.reduce`), where every edge lies on a walk
below T, and draws a round's walks together in numpy (``_RoundWalker``)
from one generator, only over the pairs still below T. The estimator gets
each distinct feasible walk as its edge tuple, weighted by how often it
was drawn over its probability. The walker keeps the sinks' rows and tree
parents, updated in place where a chunk moves nodes; :func:`sample_path`
draws one walk at a time, the walker's reference.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, GammaZeroError, InfeasibleBoxError
from .framework import potential_paths
from .instance import QosdInstance, concave_ratio
from .pathcore import BudgetVector, PathSupport, adjacency, budget_array, distances, edge_lengths, out_view, reduce
from .report import Deadline, RunReport


@dataclass(frozen=True)
class SampledPath:
    """One walk outcome: its edge tuple from the pair's source, its exact
    sampling probability and ``feasible``, true only when it reached its sink
    with initial-weight length below T (a truncated or dead-end walk counts
    zero in the estimator but still carries its probability)."""

    edges: tuple[int, ...]
    rho: float
    feasible: bool


SAMPLE_MODES = ("practical", "theoretical")


@dataclass(frozen=True)
class SaConfig:
    """The sampling solver's knobs and the defaults of every front door (LR
    reads ``delta``); :func:`run_sa` checks them all, whatever the mode.

    ``samples_per_round=None`` draws q * max(100, 10k) walks a round, the
    sample its up to q greedy steps share; theoretical mode sizes rounds with
    :func:`sample_count` instead and is usually astronomically larger.
    """

    q: int = 8
    alpha: float = 0.8
    epsilon: float = 0.3
    delta: float = 0.2
    sample_mode: str = SAMPLE_MODES[0]
    samples_per_round: int | None = None
    seed: int = 0


def _next_hop(out: list[tuple[int, int]], lengths: list[float], dist: list[float], du: float, n: int) -> int:
    """The tree parent of a node at distance ``du`` from the sink of the reverse distances
    ``dist``, with (head, edge) out-list ``out``: the lowest-id head v on a tight
    out-edge e, lengths[e] + dist[v] == du; n when the sink is out of reach."""
    p = n
    for v, e in out:
        if lengths[e] + dist[v] == du < math.inf and v < p:
            p = v
    return p


def build_sp_tree(instance: QosdInstance, x: BudgetVector, sink: int) -> list[int | None]:
    """Next hop toward ``sink`` on a shortest path under f_e(x_e), per node, None at the
    sink and where it is out of reach: :class:`_RoundWalker`'s tree parent."""
    lengths, n, (out_adj, _) = edge_lengths(instance, x), instance.graph.n, adjacency(instance.graph)
    dist = distances(instance, lengths, [sink], reverse=True)[0].tolist()
    parents = [_next_hop(out_adj[u], lengths, dist, dist[u], n) for u in range(n)]
    return [None if v == n else v for v in parents]


def sample_path(instance: QosdInstance, x: BudgetVector, trees: dict[int, list[int | None]], alpha: float,
                rng: random.Random) -> SampledPath:
    """One biased self-avoiding walk for a uniformly chosen pair: the scalar
    form of :class:`_RoundWalker`'s walks, and their reference.

    Steps toward the shortest-path tree parent with probability alpha and
    uniformly over the other unvisited out-neighbors otherwise; ends on
    reaching the sink, on current-weight length >= T, or at a dead end.
    Forced steps (a single unvisited neighbor) consume no randomness.
    """
    lengths, threshold, (out_adj, _) = edge_lengths(instance, x), instance.threshold, adjacency(instance.graph)
    s, t = instance.pairs[rng.randrange(instance.k)]
    parent = trees[t]
    rho, edges, visited, u = 1.0 / instance.k, [], {s}, s
    current = initial = 0
    while u != t and current < threshold:
        avail = [(v, ei) for v, ei in out_adj[u] if v not in visited]
        if not avail:
            break
        if len(avail) == 1:
            v, ei = avail[0]
        else:
            slots = len(avail)
            if any(v == parent[u] for v, _ in avail):
                other = (1.0 - alpha) / (slots - 1)
                probs = [alpha if v == parent[u] else other for v, _ in avail]
            else:
                probs = [1.0 / slots] * slots
            draw = rng.random()
            # the first slot whose running sum passes the draw, else (a rounding gap) the last
            choice = next((i for i, acc in enumerate(accumulate(probs)) if draw < acc), slots - 1)
            v, ei = avail[choice]
            rho *= probs[choice]
        visited.add(v)
        edges.append(ei)
        current += lengths[ei]
        initial += instance.weights[ei].table[0]
        u = v
    return SampledPath(tuple(edges), rho, u == t and initial < threshold)


# walks advanced together: a block's visited mask has this many rows of n
_WALK_BLOCK = 512


class _RoundWalker:
    """:func:`sample_path`'s walks for a whole round, advanced together in
    numpy a block at a time, and the run's state: edge ``lengths`` f_e(x_e)
    (an inf last), the reverse distance ``rows`` to the instance's sinks and
    their tree ``parents`` (:func:`_next_hop`, n for none), built at zero
    budget and kept in place by :meth:`raise_edges` with their list mirrors.

    Fed ``sample_path``'s streams (the pair, then ``random()`` on each
    non-forced step), every walk of :meth:`block` is bit-identical to it:
    the cumulative probabilities are a row ``np.cumsum`` over the
    out-neighbour slots, which adds in sequence with +0.0 for a visited or
    padding slot, so every comparison and every ``rho`` product is the
    scalar loop's float operation. ``deadline`` is checked before each
    block, so a huge round still stops in time.
    """

    def __init__(self, instance: QosdInstance, alpha: float, deadline: Deadline | None = None):
        self.instance, self.alpha, self.deadline = instance, alpha, Deadline.ensure(deadline)
        self.out_nodes, self.out_edges = out_view(instance.graph)
        self.initial = np.array([wf.table[0] for wf in instance.weights], dtype=np.float64)
        self.sources = instance.sources[instance.source_row]  # each pair's source
        self.lengths = np.append(self.initial, np.inf)
        self.rows = distances(instance, self.lengths, instance.sinks, reverse=True)
        self._lengths, self._rows = self.lengths.tolist(), self.rows.tolist()  # list mirrors for raise_edges
        out_adj, n = adjacency(instance.graph)[0], instance.graph.n
        self._parents = [[_next_hop(out_adj[u], self._lengths, d, d[u], n) for u in range(n)] for d in self._rows]
        self.parents = np.array(self._parents, np.int32)

    def raise_edges(self, edges: list[int], values: Sequence[int]) -> None:
        """Sets the ``edges``' lengths to f_e(values[e]), none shorter, and updates
        ``rows`` and ``parents`` in place where a raised edge was tight (Ramalingam
        and Reps' increase-only update). Nearest first from those edges' tails, a
        node moves when no tight out-edge leads to a node that keeps its distance,
        and then its in-neighbours whose parent it was are tried. One Dijkstra among
        the moved nodes, seeded from the others, re-settles them; only tried nodes
        get new parents. Integer lengths keep every float64 sum exact."""
        graph, lengths, n, inf = self.instance.graph, self._lengths, self.instance.graph.n, math.inf
        out_adj, in_adj = adjacency(graph)
        raised = []
        for e in edges:
            old, new = lengths[e], self.instance.weights[e].table[values[e]]
            if new != old:
                lengths[e] = self.lengths[e] = new
                raised.append((*graph.edges[e], old))
        for r, (dist, parent) in enumerate(zip(self._rows, self._parents)):
            seen = {u for u, v, old in raised if dist[u] == old + dist[v] < inf}
            if not seen:
                continue
            heap, moved, changed = sorted((dist[u], u) for u in seen), {}, {}
            while heap:  # a moved node reads inf until it is re-settled
                du, u = heappop(heap)
                p = _next_hop(out_adj[u], lengths, dist, du, n)
                if p == n:
                    moved[u] = dist[u] = inf
                    for w, _ in in_adj[u]:
                        if parent[w] == u and w not in seen:
                            seen.add(w)
                            heappush(heap, (dist[w], w))
                elif p != parent[u]:
                    parent[u] = changed[u] = p
            for u in moved:
                for v, e in out_adj[u]:
                    if dist[v] + lengths[e] < moved[u]:
                        moved[u] = dist[v] + lengths[e]
            heap = sorted((du, u) for u, du in moved.items())
            while heap:
                du, u = heappop(heap)
                if du == moved[u]:  # else a stale entry
                    dist[u], p = du, _next_hop(out_adj[u], lengths, dist, du, n)
                    if p != parent[u]:
                        parent[u] = changed[u] = p
                    for w, e in in_adj[u]:
                        if w in moved and du + lengths[e] < moved[w]:
                            moved[w] = du + lengths[e]
                            heappush(heap, (moved[w], w))
            self.rows[r, list(moved)] = list(moved.values())
            self.parents[r, list(changed)] = list(changed.values())

    def walks(self, live: np.ndarray, count: int,
              rng: np.random.Generator) -> tuple[list[tuple[int, ...]], list[float]]:
        """``count`` walks under the kept lengths and parents from pairs drawn
        uniformly among ``live``: per block, ``rng`` draws the pairs, then each
        step's draws in walk order. Returns the distinct feasible walks' edge
        tuples in first-seen order and their estimator weights,
        (times drawn) * (1 / count) / rho."""
        paths, counts, rhos, seen = [], [], [], {}
        for start in range(0, count, _WALK_BLOCK):
            self.deadline.check("sampling round")
            pair = live[rng.integers(len(live), size=min(_WALK_BLOCK, count - start))]
            edges, rho, feasible = self.block(pair, 1.0 / len(live), lambda idx: rng.random(idx.size))
            for i in np.flatnonzero(feasible).tolist():
                row = edges[i]
                j = seen.setdefault(row.tobytes(), len(paths))
                if j == len(paths):
                    paths.append(tuple(row[row >= 0].tolist()))
                    rhos.append(float(rho[i]))
                    counts.append(0)
                counts[j] += 1
        return paths, [c * (1.0 / count) / r for c, r in zip(counts, rhos)]

    def block(self, pair: np.ndarray, rho0: float,
              uniform: Callable[[np.ndarray], Sequence[float]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One walk per entry of ``pair``, starting with probability ``rho0``;
        ``uniform(idx)`` returns the next draw of each walk in ``idx``. Returns
        each walk's edges (padded with -1), rho and feasibility: it reached its
        sink with initial-weight length below T."""
        alpha, threshold, n = self.alpha, self.instance.threshold, self.instance.graph.n
        count = len(pair)
        sink_row = self.instance.sink_row[pair]
        sink = self.instance.sinks[sink_row]
        u = self.sources[pair]
        rho, current, initial = np.full(count, rho0), np.zeros(count), np.zeros(count)
        # every step adds at least 1 to the current length, and a walk ends at T
        width = min(threshold, n - 1)
        edges = np.full((count, width), -1, dtype=np.int64)
        walk = np.arange(count)  # the walks still going, in walk order
        visited = np.zeros((count, n), dtype=bool)
        visited[walk, u] = True
        for step in range(width):
            if not walk.size:
                break
            at = u[walk]
            cand, cand_edge = self.out_nodes[at], self.out_edges[at]
            free = (cand >= 0) & ~visited[walk[:, None], cand]
            slots = free.sum(axis=1)
            is_parent = free & (cand == self.parents[sink_row[walk], at][:, None])
            other = np.where(is_parent.any(axis=1), (1.0 - alpha) / np.maximum(slots - 1, 1),
                             1.0 / np.maximum(slots, 1))
            # x * 1.0 and x * 0.0 are exact: a visited or padding slot gets +0.0
            probs = np.where(is_parent, alpha, other[:, None]) * free
            drawn = slots > 1
            draw = np.zeros(walk.size)
            draw[drawn] = uniform(walk[drawn])
            # the first slot whose running sum passes the draw, else (a rounding gap)
            # the last free slot, as in sample_path; a forced step's one free slot is both
            last = free.shape[1] - 1 - free[:, ::-1].argmax(axis=1)
            choice = np.minimum((draw[:, None] >= np.cumsum(probs, axis=1)).sum(axis=1), last)
            taken = np.arange(walk.size), choice
            rho[walk[drawn]] *= probs[taken][drawn]
            moving = slots > 0  # a walk with no free slot stops
            walk, v, e = walk[moving], cand[taken][moving], cand_edge[taken][moving]
            visited[walk, v] = True
            edges[walk, step] = e
            current[walk] += self.lengths[e]
            initial[walk] += self.initial[e]
            u[walk] = v
            walk = walk[(v != sink[walk]) & (current[walk] < threshold)]
        return edges, rho, (u == sink) & (initial < threshold)


def sample_count(instance: QosdInstance, q: int, epsilon: float, delta_round: float, gamma=None) -> int:
    """Per-round sample size with guaranteed estimator accuracy.

    Uses the fixed split eps1 = eps/2, delta1 = delta_round/2 and the
    lower bound of 1 on the best chunk's true marginal gain; the binomial
    coefficient is evaluated in the log domain. Undefined at gamma = 0.
    """
    if not (0 < epsilon < 1 and 0 < delta_round < 1):
        raise ConfigError("epsilon and delta_round must lie in (0, 1)")
    gamma = float(concave_ratio(instance.weights) if gamma is None else gamma)
    if gamma <= 0.0:
        raise GammaZeroError("theoretical sample sizing diverges at concave ratio 0; use practical mode")
    eps1, delta1 = epsilon / 2.0, delta_round / 2.0
    t, k, h, n = instance.threshold, instance.k, instance.hop_bound, instance.graph.n
    d = max(instance.graph.max_out_degree, 1)
    scale = (t * k) ** 2 * float(d) ** (2 * h)
    first = math.log(1.0 / delta1) / eps1**2
    log_binom = math.lgamma(n + q + 1) - math.lgamma(q + 1) - math.lgamma(n + 1)
    shrink = 1.0 - math.exp(-gamma)
    second = (log_binom - math.log(delta1)) / (2.0 * shrink**2 * eps1**2)
    return math.ceil(scale * max(first, second))


def greedy_chunk(instance: QosdInstance, paths: list[tuple[int, ...]], weights: Sequence[float] | None,
                 x: BudgetVector, q: int) -> list[tuple[int, int]]:
    """Up to q greedy steps on the estimator's marginal gain over the edges
    of ``paths`` (edge tuples, weighted by ``weights``, 1 when None) with box
    room left, as their ``(edge, amount)`` list in order, empty when no step
    gains: IG's step rule (:meth:`PathSupport.best`'s default), so a flat
    increment is crossed by the best-ratio chunk. SA's exact fallback is this
    on the round's shortest paths, unweighted, with q = 1."""
    support = PathSupport(instance, paths, x, weights)
    steps = []
    for _ in range(q):
        edge, amount, _ = support.best()
        if edge < 0:
            break
        support.apply(edge, amount)
        steps.append((edge, amount))
    return steps


def run_sa(
    instance: QosdInstance,
    config: SaConfig | None = None,
    *,
    threads: int = 1,
    deadline: Deadline | float | None = None,
) -> RunReport:
    """Sampling rounds until separation, on :func:`pathcore.reduce`'s
    sub-instance, whose vector the report lifts back to the instance's m
    edges; theoretical round sizes (:func:`sample_count`) read the instance
    as given. The walker's kept reverse rows from the sinks give the live
    pairs, whose source is below T from the sink, and its kept tree parents
    steer the walks; no live pair ends the run. Else one generator per
    (seed, round, attempt) draws the round's walks (:class:`_RoundWalker`)
    over the live pairs only, which keeps the gain estimate unbiased (a
    separated pair gains nothing on any edge), and the greedy chunk's steps
    are added. An empty chunk escalates by doubling the sample count up to
    three times, then falls back to one exact step, :func:`greedy_chunk` on
    the round's shortest paths below T, unweighted, with q = 1, so progress
    is unconditional and the report feasible. ``threads`` is accepted and
    ignored. ``deadline`` is checked before each round and each block of
    walks. ``config`` is checked first, the sample mode before the other
    knobs.
    """
    config = config or SaConfig()
    if config.sample_mode not in SAMPLE_MODES:
        raise ConfigError(f"unknown sample mode {config.sample_mode!r}")
    if config.q < 1:
        raise ConfigError("q must be a positive integer")
    if not (0.0 <= config.alpha < 1.0):
        raise ConfigError("alpha must lie in [0, 1)")
    if not (0.0 < config.epsilon < 1.0 and 0.0 < config.delta < 1.0):
        raise ConfigError("epsilon and delta must lie in (0, 1)")
    if config.samples_per_round is not None and config.samples_per_round < 1:
        raise ConfigError("samples_per_round must be None or at least 1")
    if config.seed < 0:
        raise ConfigError("seed must be nonnegative")
    deadline = Deadline.ensure(deadline)
    start = time.perf_counter()
    if config.sample_mode == "theoretical":
        base_count = sample_count(instance, config.q, config.epsilon, config.delta / max(sum(instance.box), 1))
    else:
        base_count = config.samples_per_round or config.q * max(100, 10 * instance.k)

    sub, kept = reduce(instance)
    values = budget_array(sub)  # x's entries on the sub-instance, raised in place each round
    x = BudgetVector(values)
    walker = _RoundWalker(sub, config.alpha, deadline)
    rounds = samples_drawn = escalations = fallbacks = 0
    while True:
        deadline.check("sampling round")
        live = np.flatnonzero(walker.rows[sub.sink_row, walker.sources] < sub.threshold)
        if not live.size:
            break
        for attempt in range(4):  # base try plus three doublings
            count = base_count * (2**attempt)
            rng = np.random.default_rng([config.seed, rounds, attempt])
            paths, weights = walker.walks(live, count, rng)
            samples_drawn += count
            steps = greedy_chunk(sub, paths, weights, x, config.q)
            if steps:
                break
        else:
            steps = greedy_chunk(sub, potential_paths(sub, x), None, x, 1)
            if not steps:
                raise InfeasibleBoxError("no unit or chunk improves the current shortest paths")
            fallbacks += 1
        escalations += attempt
        for edge, amount in steps:
            values[edge] += amount
        walker.raise_edges(sorted({edge for edge, _ in steps}), values)
        x = BudgetVector(values)
        rounds += 1

    lifted = budget_array(instance)
    np.frombuffer(lifted, lifted.typecode)[kept] = values
    return RunReport.finish(
        "sa", BudgetVector(lifted), start, rounds, x.norm, seed=config.seed, samples_drawn=samples_drawn,
        escalations=escalations, fallbacks=fallbacks, samples_per_round=base_count,
    )
