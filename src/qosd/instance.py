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

from .errors import InfeasibleBoxError, InvalidInstanceError, ParseError

WEIGHT_MODELS = ("linear", "convex", "concave", "cutting", "heterogeneous")

INSTANCE_HEADER = "qosd-instance v1"


class Graph:
    """Directed graph with stable edge indices.

    Node ids live in ``[0, n)``; ``edges[i]`` is the (src, dst) pair of
    edge ``i`` and that position never changes. Self-loops and duplicate
    edges are rejected (loaders drop them before construction).
    """

    __slots__ = ("n", "edges", "out_adj", "in_adj", "max_out_degree", "_edge_index")

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]):
        if n <= 0:
            raise InvalidInstanceError("graph must have at least one node")
        seen: set[tuple[int, int]] = set()
        out_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        in_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for idx, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInstanceError(f"edge {idx} endpoint out of range: ({u}, {v})")
            if u == v:
                raise InvalidInstanceError(f"edge {idx} is a self-loop at node {u}")
            if (u, v) in seen:
                raise InvalidInstanceError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            out_adj[u].append((v, idx))
            in_adj[v].append((u, idx))
        self.n = n
        self.edges = [(u, v) for u, v in edges]
        self.out_adj = out_adj
        self.in_adj = in_adj
        self.max_out_degree = max((len(a) for a in out_adj), default=0)
        self._edge_index = seen

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edge_index

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, d={self.max_out_degree})"


@dataclass(frozen=True)
class WeightFunction:
    """Monotone integer weight table for one edge.

    ``table[i]`` is the edge weight at budget ``i``; the cap (maximum
    spendable budget) is ``len(table) - 1``. ``linear_coeffs`` is
    ``(beta, alpha)`` with ``table[i] == beta * i + alpha``, present
    exactly when ``model_tag == "linear"``.
    """

    table: tuple[int, ...]
    model_tag: str = "custom"
    linear_coeffs: tuple[int, int] | None = None

    def __post_init__(self):
        if not self.table:
            raise InvalidInstanceError("weight table is empty")
        if self.table[0] < 1:
            raise InvalidInstanceError("initial weight must be positive")
        if any(b < a for a, b in zip(self.table, self.table[1:])):
            raise InvalidInstanceError("weight table must be nondecreasing")
        if (self.model_tag == "linear") != (self.linear_coeffs is not None):
            raise InvalidInstanceError("linear_coeffs present iff model_tag is linear")
        if self.linear_coeffs is not None:
            beta, alpha = self.linear_coeffs
            if any(self.table[i] != beta * i + alpha for i in range(len(self.table))):
                raise InvalidInstanceError("linear table does not match its coefficients")

    @property
    def cap(self) -> int:
        return len(self.table) - 1

    @property
    def initial(self) -> int:
        return self.table[0]

    @property
    def maximum(self) -> int:
        return self.table[-1]

    def affine_coeffs(self) -> tuple[int, int] | None:
        """(beta, alpha) when the table is exactly affine in the budget, else None.

        Cutting tables ([w, T], cap 1) are affine even though their tag is
        not "linear"; LP-based solving accepts them through this check.
        """
        if self.linear_coeffs is not None:
            return self.linear_coeffs
        if self.cap == 0:
            return (1, self.table[0])
        beta = self.table[1] - self.table[0]
        alpha = self.table[0]
        for i, value in enumerate(self.table):
            if value != beta * i + alpha:
                return None
        return (beta, alpha)


class QosdInstance:
    """A full problem instance: graph, weights, target pairs and threshold.

    On construction the instance is validated structurally and, unless
    ``validate_box=False``, checked to be separable with every edge at its
    cap (otherwise no solver can succeed and ``InfeasibleBoxError`` is
    raised).
    """

    __slots__ = ("graph", "weights", "pairs", "threshold", "min_initial_weight", "hop_bound", "box")

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
        self.threshold = threshold
        self.min_initial_weight = min(w.initial for w in self.weights) if self.weights else 1
        self.hop_bound = math.ceil(threshold / self.min_initial_weight)
        self.box = [w.cap for w in self.weights]
        if validate_box:
            self._check_box_feasible()

    @property
    def k(self) -> int:
        return len(self.pairs)

    def _check_box_feasible(self) -> None:
        from .pathcore import BudgetVector, unseparated_pairs

        at_cap = BudgetVector(self.box)
        remaining = unseparated_pairs(self, at_cap)
        if remaining:
            raise InfeasibleBoxError(
                f"infeasible-box: pairs {remaining} stay connected below T "
                "even with every edge at its cap"
            )

    def __repr__(self) -> str:
        return (
            f"QosdInstance(n={self.graph.n}, m={self.graph.m}, "
            f"k={self.k}, T={self.threshold}, h={self.hop_bound})"
        )


def load_edge_list(lines: Iterable[str], directed: bool = True) -> Graph:
    """Parse a SNAP-style edge list: '#' comments, one "src dst" per line.

    Raw node ids are compacted to [0, n) by ascending id. Self-loops and
    duplicate edges are dropped; undirected input inserts both directions.
    """
    raw_edges: list[tuple[int, int]] = []
    ids: set[int] = set()
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'src dst', got {stripped!r}", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer node id in {stripped!r}", line_no) from None
        raw_edges.append((u, v))
        ids.add(u)
        ids.add(v)
    if not raw_edges:
        raise InvalidInstanceError("edge list contains no edges")
    rank = {node: i for i, node in enumerate(sorted(ids))}
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
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < rho:
                edges.append((u, v))
    return Graph(n, edges)


def _linear_table(threshold: int) -> WeightFunction:
    # beta=1 reaches T exactly at budget T-1
    table = tuple(x + 1 for x in range(threshold))
    return WeightFunction(table, "linear", (1, 1))

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
    cap_policy: int | None = None,
    seed: int = 0,
) -> list[WeightFunction]:
    """One weight table per edge for the named model.

    Every generated table starts at 1 and tops out at exactly ``threshold``.
    ``cap_policy`` optionally requests a per-edge cap; it is raised when too
    small for the model to reach the threshold (never an error).
    ``heterogeneous`` assigns linear/convex/concave per edge via ``seed``.
    """
    if threshold < 2:
        raise InvalidInstanceError("threshold must be at least 2")
    if model not in WEIGHT_MODELS:
        raise InvalidInstanceError(f"unknown weight model {model!r}")

    def one(tag: str) -> WeightFunction:
        if tag == "linear":
            wf = _linear_table(threshold)
        elif tag == "convex":
            wf = _convex_table(threshold)
        elif tag == "concave":
            wf = _concave_table(threshold)
        else:
            wf = _cutting_table(threshold)
        if cap_policy is not None and cap_policy > wf.cap:
            # padding flattens the tail at T, which breaks the exact linear form
            padded = wf.table + (wf.table[-1],) * (cap_policy - wf.cap)
            wf = WeightFunction(padded, "custom")
        return wf

    if model == "heterogeneous":
        rng = random.Random(seed)
        choices = ("linear", "convex", "concave")
        return [one(rng.choice(choices)) for _ in range(graph.m)]
    prototype = one(model)
    return [prototype] * graph.m


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
        s = rng.randrange(n)
        t = rng.randrange(n)
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
        t = wf.table
        prefix_min: int | None = None
        for i in range(len(t) - 1):
            inc = t[i + 1] - t[i]
            prefix_min = inc if prefix_min is None else min(prefix_min, inc)
            if inc > 0:
                if prefix_min == 0:
                    return Fraction(0)
                ratio = Fraction(prefix_min, inc)
                if ratio < gamma:
                    gamma = ratio
    return gamma


def make_er_instance(
    n: int,
    rho: float,
    threshold: int,
    k: int,
    model: str = "linear",
    seed: int = 0,
    *,
    exclude_direct_pairs: bool = False,
    validate_box: bool = True,
) -> QosdInstance:
    """Convenience builder: seeded ER graph + model weights + sampled pairs.

    Sub-seeds are fixed offsets of ``seed`` (graph: seed, weights: seed+1,
    pairs: seed+2) so an instance is a pure function of its arguments.
    ``exclude_direct_pairs`` rejects pairs joined by a single edge.
    """
    graph = generate_er(n, rho, seed)
    weights = build_weights(graph, model, threshold, seed=seed + 1)
    if exclude_direct_pairs:
        rng = random.Random(seed + 2)
        chosen: set[tuple[int, int]] = set()
        pairs: list[tuple[int, int]] = []
        limit = n * (n - 1) * 50
        draws = 0
        while len(pairs) < k:
            draws += 1
            if draws > limit:
                raise InvalidInstanceError("could not sample enough non-adjacent pairs")
            s, t = rng.randrange(n), rng.randrange(n)
            if s != t and (s, t) not in chosen and not graph.has_edge(s, t):
                chosen.add((s, t))
                pairs.append((s, t))
    else:
        pairs = sample_pairs(graph, k, seed + 2)
    return QosdInstance(graph, weights, pairs, threshold, validate_box=validate_box)


def make_layered_flat_instance(
    seed: int,
    side: int = 8,
    middle: int = 10,
    rho: float = 0.45,
    threshold: int = 6,
    k: int = 5,
) -> QosdInstance:
    """Two-layer instance for the concave-ratio sensitivity experiment.

    Sources connect to a middle layer with linear edges; middle-to-sink
    edges carry a flat-then-jump table (1, 1, T) whose zero increment
    followed by a positive one forces concave ratio 0. Every source-sink
    path is linear-then-staircase, so unit-greedy blocking can never
    exploit the cheap final jump while amount-aware blocking can.
    """
    rng = random.Random(seed)
    linear = WeightFunction(tuple(range(1, threshold + 1)), "linear", (1, 1))
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


def save_instance(instance: QosdInstance, stream: IO[str]) -> None:
    """Write the versioned round-trip text format (see README)."""
    g = instance.graph
    stream.write(f"{INSTANCE_HEADER}\n")
    stream.write("directed 1\n")
    stream.write(f"n {g.n}\n")
    stream.write(f"m {g.m}\n")
    stream.write(f"T {instance.threshold}\n")
    stream.write(f"k {instance.k}\n")
    for (u, v), wf in zip(g.edges, instance.weights):
        table = " ".join(str(x) for x in wf.table)
        stream.write(f"edge {u} {v} {wf.model_tag} {table}\n")
    for s, t in instance.pairs:
        stream.write(f"pair {s} {t}\n")


def load_instance(stream: IO[str], *, validate_box: bool = True) -> QosdInstance:
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
                coeffs = None
                if tag == "linear":
                    if len(table) < 2:
                        raise ParseError("linear table needs at least two entries", line_no)
                    coeffs = (table[1] - table[0], table[0])
                edges.append((u, v))
                weights.append(WeightFunction(table, tag, coeffs))
            elif key == "pair":
                pairs.append((int(parts[1]), int(parts[2])))
            else:
                raise ParseError(f"unknown record {key!r}", line_no)
        except (IndexError, ValueError):
            raise ParseError(f"malformed record {stripped!r}", line_no) from None
    for field_name in ("n", "m", "T", "k"):
        if field_name not in header:
            raise ParseError(f"missing header field {field_name!r}")
    if len(edges) != header["m"]:
        raise ParseError(f"expected {header['m']} edges, found {len(edges)}")
    if len(pairs) != header["k"]:
        raise ParseError(f"expected {header['k']} pairs, found {len(pairs)}")
    graph = Graph(header["n"], edges)
    return QosdInstance(graph, weights, pairs, header["T"], validate_box=validate_box)
