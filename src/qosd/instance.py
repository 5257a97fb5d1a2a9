"""Problem instances: graphs, per-edge weight tables, generators and loaders.

An instance bundles a directed graph, one integer weight table per edge
(``table[i]`` is the edge weight after spending ``i`` budget units, so
``table[0]`` is the initial weight and ``len(table) - 1`` is the per-edge
budget cap), a set of target node pairs and a distance threshold ``T``.
A budget vector separates a pair when every path between the pair has
weighted length at least ``T``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import InfeasibleBoxError, InvalidInstanceError, NonlinearWeightsError, ParseError

WEIGHT_MODELS = ("linear", "convex", "concave", "cutting", "heterogeneous")

INSTANCE_HEADER = "qosd-instance v1"


class Graph:
    """Directed graph with stable edge indices.

    Node ids live in ``[0, n)``; ``edges[i]`` is the (src, dst) pair of
    edge ``i`` and that position never changes. Self-loops and duplicate
    edges are rejected (loaders drop them before construction). Adjacency
    arrays and lists are built on first use and cached in ``_csr``.
    """

    __slots__ = ("n", "edges", "max_out_degree", "_csr")

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]):
        if n <= 0:
            raise InvalidInstanceError("graph must have at least one node")
        seen: set[int] = set()  # u * n + v: ints, which the collector does not track
        out_degree = [0] * n
        for idx, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInstanceError(f"edge {idx} endpoint out of range: ({u}, {v})")
            if u == v:
                raise InvalidInstanceError(f"edge {idx} is a self-loop at node {u}")
            key = u * n + v
            if key in seen:
                raise InvalidInstanceError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            out_degree[u] += 1
        self.n = n
        self.edges = list(map(tuple, edges))  # keeps the given tuples
        self.max_out_degree = max(out_degree)
        self._csr: dict = {}  # pathcore's csr_view, out_view and adjacency caches, by key

    @property
    def m(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, d={self.max_out_degree})"


@dataclass(frozen=True)
class WeightFunction:
    """Monotone integer weight table for one edge.

    ``table[i]`` is the edge weight at budget ``i``; the cap (maximum
    spendable budget) is ``len(table) - 1``. A ``"linear"`` table must be
    affine in the budget.
    """

    table: tuple[int, ...]
    model_tag: str = "custom"

    def __post_init__(self):
        if not self.table:
            raise InvalidInstanceError("weight table is empty")
        if self.table[0] < 1:
            raise InvalidInstanceError("initial weight must be positive")
        if any(b < a for a, b in zip(self.table, self.table[1:])):
            raise InvalidInstanceError("weight table must be nondecreasing")
        if self.model_tag == "linear" and self.affine_coeffs() is None:
            raise InvalidInstanceError("linear table is not affine")

    @property
    def cap(self) -> int:
        return len(self.table) - 1

    def affine_coeffs(self) -> tuple[int, int] | None:
        """(beta, alpha) when the table is exactly affine in the budget, else None.

        Cutting tables ([w, T], cap 1) are affine even though their tag is
        not "linear"; LP-based solving accepts them through this check.
        """
        if self.cap == 0:
            return (1, self.table[0])
        alpha, beta = self.table[0], self.table[1] - self.table[0]
        return (beta, alpha) if all(v == beta * i + alpha for i, v in enumerate(self.table)) else None


class QosdInstance:
    """A full problem instance: graph, weights, target pairs and threshold.

    On construction the instance is validated structurally and, unless
    ``validate_box=False``, checked to be separable with every edge at its
    cap (otherwise no solver can succeed and ``InfeasibleBoxError`` is
    raised).
    """

    __slots__ = (
        "graph", "weights", "pairs", "threshold", "min_initial_weight", "hop_bound", "box",
        "sources", "source_row", "sinks", "sink_row", "budget_code", "_affine", "_corridor", "_reduced",
    )

    def __init__(
        self,
        graph: Graph,
        weights: Sequence[WeightFunction],
        pairs: Sequence[tuple[int, int]],
        threshold: int,
        *,
        validate_box: bool = True,
    ):
        if threshold < 2:
            raise InvalidInstanceError("threshold must be at least 2")
        if len(weights) != graph.m:
            raise InvalidInstanceError("need exactly one weight function per edge")
        if not pairs:
            raise InvalidInstanceError("need at least one target pair")
        for s, t in pairs:
            if not (0 <= s < graph.n and 0 <= t < graph.n):
                raise InvalidInstanceError(f"pair ({s}, {t}) out of node range")
            if s == t:
                raise InvalidInstanceError(f"pair ({s}, {t}) has identical endpoints")
        self.graph = graph
        self.weights = list(weights)
        self.pairs = [(s, t) for s, t in pairs]
        # the sorted distinct pair sources and sinks, and each pair's position among them
        self.sources, self.source_row = np.unique([s for s, _ in self.pairs], return_inverse=True)
        self.sinks, self.sink_row = np.unique([t for _, t in self.pairs], return_inverse=True)
        self.threshold = threshold
        self.box = []
        lowest = lowest_top = math.inf
        widest = 0
        for w in self.weights:
            table = w.table
            cap = len(table) - 1
            self.box.append(cap)
            if cap > widest:
                widest = cap
            if table[0] < lowest:
                lowest = table[0]
            if table[-1] < lowest_top:
                lowest_top = table[-1]
        self.min_initial_weight = lowest if self.weights else 1
        # pathcore.budget_array's typecode: one byte per edge unless some cap is 256 or more
        self.budget_code = "B" if widest < 256 else "q"
        self.hop_bound = math.ceil(threshold / self.min_initial_weight)
        self._affine = self._corridor = self._reduced = None  # kept by affine_coeffs, pathcore's corridor and reduce
        # a pair has s != t, so each of its paths has an edge that alone reaches T
        if validate_box and lowest_top < threshold:
            self._check_box_feasible()

    @property
    def k(self) -> int:
        return len(self.pairs)

    def affine_coeffs(self) -> tuple[list[int], list[int]]:
        """Per-edge ``(betas, alphas)`` of the affine weight tables, computed on
        first use and kept (the tables do not change after construction);
        ``NonlinearWeightsError`` names the first edge whose table is not affine."""
        if self._affine is None:
            coeffs = [wf.affine_coeffs() for wf in self.weights]
            if None in coeffs:
                raise NonlinearWeightsError(f"edge {coeffs.index(None)} has a non-affine weight table; LP "
                                            "solving needs linear (or cutting) weights")
            self._affine = ([c[0] for c in coeffs], [c[1] for c in coeffs])
        return self._affine

    def _check_box_feasible(self) -> None:
        from .pathcore import BudgetVector, budget_array, unseparated_pairs

        remaining = unseparated_pairs(self, BudgetVector(budget_array(self, self.box)))
        if remaining:
            raise InfeasibleBoxError(f"infeasible-box: pairs {remaining} stay connected below T "
                                     "even with every edge at its cap")

    def __repr__(self) -> str:
        g = self.graph
        return f"QosdInstance(n={g.n}, m={g.m}, k={self.k}, T={self.threshold}, h={self.hop_bound})"


def read_int_pairs(lines: Iterable[str]) -> list[tuple[int, int]]:
    """Two integers per line; blank lines and '#' comments are skipped."""
    pairs = []
    for line_no, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise ParseError(f"expected two node ids, got {line.strip()!r}", line_no)
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"non-integer node id in {line.strip()!r}", line_no) from None
    return pairs


def load_edge_list(lines: Iterable[str], directed: bool = True) -> Graph:
    """Parse a SNAP-style edge list: '#' comments, one "src dst" per line.

    Raw node ids are compacted to [0, n) by ascending id. Self-loops and
    duplicate edges are dropped; undirected input inserts both directions.
    """
    raw_edges = read_int_pairs(lines)
    if not raw_edges:
        raise InvalidInstanceError("edge list contains no edges")
    rank = {node: i for i, node in enumerate(sorted({u for edge in raw_edges for u in edge}))}
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for u_raw, v_raw in raw_edges:
        u, v = rank[u_raw], rank[v_raw]
        candidates = ((u, v),) if directed else ((u, v), (v, u))
        for a, b in candidates:
            if a != b and (a, b) not in seen:
                seen.add((a, b))
                edges.append((a, b))
    if not edges:
        raise InvalidInstanceError("edge list reduced to an empty graph")
    return Graph(len(rank), edges)


def generate_er(n: int, rho: float, seed: int) -> Graph:
    """Erdos-Renyi digraph: each ordered pair (u, v), u != v, kept w.p. rho.

    Deterministic for a given seed; edges are emitted in (u, v) scan order.
    """
    if n < 2:
        raise InvalidInstanceError("ER generator needs n >= 2")
    if not (0.0 < rho <= 1.0):
        raise InvalidInstanceError("edge probability must be in (0, 1]")
    draw = random.Random(seed).random
    return Graph(n, [(u, v) for u in range(n) for v in range(n) if u != v and draw() < rho])


def _linear_table(threshold: int) -> WeightFunction:
    # beta=1 reaches T exactly at budget T-1
    table = tuple(x + 1 for x in range(threshold))
    return WeightFunction(table, "linear")

def _convex_table(threshold: int) -> WeightFunction:
    root = math.isqrt(threshold - 1)
    cap = root if root * root == threshold - 1 else root + 1
    table = tuple(min(x * x + 1, threshold) for x in range(cap + 1))
    return WeightFunction(table, "convex")

def _concave_table(threshold: int) -> WeightFunction:
    cap = threshold - 1
    # smallest integer c with floor(c*ln(cap+1)) + 1 >= T
    c = 1
    while math.floor(c * math.log(cap + 1)) + 1 < threshold:
        c += 1
    table = tuple(min(math.floor(c * math.log(x + 1)) + 1, threshold) for x in range(cap + 1))
    return WeightFunction(table, "concave")

def _cutting_table(threshold: int) -> WeightFunction:
    return WeightFunction((1, threshold), "cutting")


def build_weights(
    graph: Graph,
    model: str,
    threshold: int,
    seed: int = 0,
) -> list[WeightFunction]:
    """One weight table per edge for the named model.

    Every generated table starts at 1 and tops out at exactly ``threshold``.
    ``heterogeneous`` assigns linear/convex/concave per edge via ``seed``.
    """
    if threshold < 2:
        raise InvalidInstanceError("threshold must be at least 2")
    if model not in WEIGHT_MODELS:
        raise InvalidInstanceError(f"unknown weight model {model!r}")

    build = {"linear": _linear_table, "convex": _convex_table, "concave": _concave_table,
             "cutting": _cutting_table}
    if model == "heterogeneous":
        choices = ("linear", "convex", "concave")
        tables = {tag: build[tag](threshold) for tag in choices}
        pick = random.Random(seed).choice
        return [tables[pick(choices)] for _ in range(graph.m)]
    return [build[model](threshold)] * graph.m


def sample_pairs(graph: Graph, k: int, seed: int) -> list[tuple[int, int]]:
    """k distinct ordered pairs (s, t), s != t, uniform without replacement."""
    n = graph.n
    if k < 1:
        raise InvalidInstanceError("need k >= 1")
    if n < 2:
        raise InvalidInstanceError("graph needs at least two nodes to form pairs")
    total = n * (n - 1)
    if k > total:
        raise InvalidInstanceError(f"k={k} exceeds the {total} available ordered pairs")
    rng = random.Random(seed)
    if k * 3 >= total:
        universe = [(s, t) for s in range(n) for t in range(n) if s != t]
        rng.shuffle(universe)
        return universe[:k]
    chosen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    while len(out) < k:
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t and (s, t) not in chosen:
            chosen.add((s, t))
            out.append((s, t))
    return out


def concave_ratio(weights: Sequence[WeightFunction]) -> Fraction:
    """Largest gamma in [0, 1] with inc(x) >= gamma * inc(y) for all x <= y.

    Scans each table's increment sequence once (prefix minima); exact
    rational arithmetic. A zero increment followed by a positive one
    forces gamma = 0.
    """
    gamma = Fraction(1)
    for wf in weights:
        prefix_min = math.inf
        for inc in (b - a for a, b in zip(wf.table, wf.table[1:])):
            prefix_min = min(prefix_min, inc)
            if inc > 0:
                if prefix_min == 0:
                    return Fraction(0)
                gamma = min(gamma, Fraction(prefix_min, inc))
    return gamma


def make_er_instance(
    n: int,
    rho: float,
    threshold: int,
    k: int,
    model: str = "linear",
    seed: int = 0,
) -> QosdInstance:
    """Convenience builder: seeded ER graph + model weights + sampled pairs.

    Sub-seeds are fixed offsets of ``seed`` (graph: seed, weights: seed+1,
    pairs: seed+2) so an instance is a pure function of its arguments.
    """
    graph = generate_er(n, rho, seed)
    weights = build_weights(graph, model, threshold, seed=seed + 1)
    pairs = sample_pairs(graph, k, seed + 2)
    return QosdInstance(graph, weights, pairs, threshold)


def save_instance(instance: QosdInstance, stream: IO[str]) -> None:
    """Write the versioned round-trip text format (see README)."""
    g = instance.graph
    stream.write(f"{INSTANCE_HEADER}\ndirected 1\nn {g.n}\nm {g.m}\nT {instance.threshold}\nk {instance.k}\n")
    for (u, v), wf in zip(g.edges, instance.weights):
        table = " ".join(str(x) for x in wf.table)
        stream.write(f"edge {u} {v} {wf.model_tag} {table}\n")
    for s, t in instance.pairs:
        stream.write(f"pair {s} {t}\n")


def load_instance(stream: IO[str]) -> QosdInstance:
    """Read the format written by :func:`save_instance`."""
    lines = [ln.rstrip("\n") for ln in stream]
    if not lines or lines[0].strip() != INSTANCE_HEADER:
        raise ParseError(f"missing header {INSTANCE_HEADER!r}", 1)
    header: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    weights: list[WeightFunction] = []
    pairs: list[tuple[int, int]] = []
    for line_no, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        key = parts[0]
        try:
            if key in ("directed", "n", "m", "T", "k"):
                header[key] = int(parts[1])
                if key == "directed" and header[key] != 1:
                    raise ParseError("only 'directed 1' graphs are supported", line_no)
            elif key == "edge":
                u, v = int(parts[1]), int(parts[2])
                tag = parts[3]
                table = tuple(int(x) for x in parts[4:])
                if tag == "linear" and len(table) < 2:
                    raise ParseError("linear table needs at least two entries", line_no)
                edges.append((u, v))
                weights.append(WeightFunction(table, tag))
            elif key == "pair":
                pairs.append((int(parts[1]), int(parts[2])))
            else:
                raise ParseError(f"unknown record {key!r}", line_no)
        except (IndexError, ValueError):
            raise ParseError(f"malformed record {stripped!r}", line_no) from None
        except InvalidInstanceError as err:  # a bad weight table
            raise InvalidInstanceError(f"line {line_no}: {err}") from None
    for field_name in ("n", "m", "T", "k"):
        if field_name not in header:
            raise ParseError(f"missing header field {field_name!r}")
    if len(edges) != header["m"]:
        raise ParseError(f"expected {header['m']} edges, found {len(edges)}")
    if len(pairs) != header["k"]:
        raise ParseError(f"expected {header['k']} pairs, found {len(pairs)}")
    graph = Graph(header["n"], edges)
    return QosdInstance(graph, weights, pairs, header["T"])
