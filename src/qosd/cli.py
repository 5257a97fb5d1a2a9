"""Command-line entry point.

Subcommands: solve (one instance, one algorithm), experiment (config
file), oracle, validate (budget vector against an instance), gen (emit an
ER instance file). Exit codes: 0 ok, 1 usage, 2 infeasible, 3 timeout,
4 internal error.
"""

from __future__ import annotations

import argparse
import sys

from .baselines import oracle_opt
from .errors import (
    ConfigError,
    InfeasibleBoxError,
    InvalidInstanceError,
    NonlinearWeightsError,
    ParseError,
    QosdError,
    SolverTimeout,
)
from .experiment import parse_config, run_algorithm, run_experiment, rows_to_csv
from .instance import (
    QosdInstance,
    build_weights,
    generate_er,
    load_edge_list,
    load_instance,
    sample_pairs,
    save_instance,
)
from .pathcore import BudgetVector, unseparated_pairs
from .report import Deadline

VECTOR_HEADER = "qosd-vector v1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_TIMEOUT = 3
EXIT_INTERNAL = 4


def write_vector(vector: BudgetVector, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(f"{VECTOR_HEADER}\n{len(vector)}\n")
        handle.write(" ".join(str(v) for v in vector) + "\n")


def read_vector(path: str) -> BudgetVector:
    with open(path) as handle:
        lines = handle.read().split("\n")
    if not lines or lines[0].strip() != VECTOR_HEADER:
        raise ParseError(f"missing header {VECTOR_HEADER!r}", 1)
    try:
        m = int(lines[1])
        values = [int(tok) for tok in " ".join(lines[2:]).split()]
    except (IndexError, ValueError):
        raise ParseError("malformed vector file") from None
    if len(values) != m:
        raise ParseError(f"expected {m} components, found {len(values)}")
    return BudgetVector(values)


def _load_cli_instance(args) -> QosdInstance:
    if args.instance:
        with open(args.instance) as handle:
            return load_instance(handle)
    if args.edges:
        if args.threshold is None:
            raise ConfigError("--threshold is required with --edges")
        with open(args.edges) as handle:
            graph = load_edge_list(handle, directed=not args.undirected)
        weights = build_weights(graph, args.weight_model, args.threshold, seed=args.seed)
        if args.pairs_file:
            pairs = _read_pairs(args.pairs_file)
        else:
            pairs = sample_pairs(graph, args.random_pairs, args.pair_seed)
        return QosdInstance(graph, weights, pairs, args.threshold)
    raise ConfigError("provide --instance FILE or --edges FILE")


def _read_pairs(path: str) -> list[tuple[int, int]]:
    pairs = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ParseError(f"expected 's t', got {stripped!r}", line_no)
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ParseError(f"non-integer node id in {stripped!r}", line_no) from None
    return pairs


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--instance", help="qosd-instance v1 file")
    parser.add_argument("--edges", help="SNAP-style edge list file")
    parser.add_argument("--undirected", action="store_true",
                        help="treat the edge list as undirected")
    parser.add_argument("--threshold", type=int, help="distance threshold T")
    parser.add_argument("--weight-model", default="linear",
                        choices=["linear", "convex", "concave", "cutting", "heterogeneous"])
    parser.add_argument("--pairs-file", help="file of 's t' lines")
    parser.add_argument("--random-pairs", type=int, default=10, metavar="K")
    parser.add_argument("--pair-seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qosd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one algorithm on one instance")
    _add_instance_args(solve)
    solve.add_argument("--algorithm", required=True,
                       choices=["ig", "at", "sa", "lr", "cc", "oracle"])
    solve.add_argument("--alpha", type=float, default=0.8)
    solve.add_argument("--q", type=int, default=1)
    solve.add_argument("--epsilon", type=float, default=0.3)
    solve.add_argument("--delta", type=float, default=0.2)
    solve.add_argument("--samples", type=int, default=0,
                       help="samples per round (0 = practical default)")
    solve.add_argument("--sample-mode", default="practical",
                       choices=["practical", "theoretical"])
    solve.add_argument("--eta", type=float, default=None,
                       help="expert override of the rounding inflation factor")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--time-limit", type=float, default=86400.0)
    solve.add_argument("--output", help="write the budget vector here")

    experiment = sub.add_parser("experiment", help="run a qosd-config v1 batch")
    experiment.add_argument("config", help="config file path")
    experiment.add_argument("--output", help="override the config's output path")

    oracle = sub.add_parser("oracle", help="exact minimum budget (desk scale)")
    _add_instance_args(oracle)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--output", help="write the witness vector here")

    validate = sub.add_parser("validate", help="check a vector against an instance")
    _add_instance_args(validate)
    validate.add_argument("--vector", required=True)
    validate.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser("gen", help="emit a seeded ER instance file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--rho", type=float, required=True)
    gen.add_argument("--threshold", type=int, required=True)
    gen.add_argument("--pairs", type=int, default=10)
    gen.add_argument("--weight-model", default="linear",
                     choices=["linear", "convex", "concave", "cutting", "heterogeneous"])
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True)
    return parser


def _cmd_solve(args) -> int:
    instance = _load_cli_instance(args)
    report = run_algorithm(
        instance,
        args.algorithm,
        seed=args.seed,
        deadline=Deadline(args.time_limit),
        q=args.q,
        alpha=args.alpha,
        epsilon=args.epsilon,
        delta=args.delta,
        sample_mode=args.sample_mode,
        samples=args.samples or None,
        eta_override=args.eta,
    )
    print(
        f"algorithm={report.algorithm} norm={report.norm} "
        f"feasible={str(report.feasible).lower()} "
        f"outer={report.outer_iterations} inner={report.inner_iterations} "
        f"wall_time={report.wall_time:.3f}s seed={report.seed}"
    )
    for key, value in sorted(report.extras.items()):
        print(f"  {key}={value}")
    if args.output:
        write_vector(report.budget, args.output)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _cmd_experiment(args) -> int:
    with open(args.config) as handle:
        config = parse_config(handle.read())
    rows = run_experiment(config)
    csv_text = rows_to_csv(rows)
    target = args.output or config.output
    if target:
        with open(target, "w") as handle:
            handle.write(csv_text)
        print(f"wrote {len(rows)} rows to {target}")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    instance = _load_cli_instance(args)
    result = oracle_opt(instance)
    print(
        f"opt={result.opt_norm} feasible_paths={result.feasible_paths} "
        f"explored={result.explored}"
    )
    if args.output:
        write_vector(result.witness, args.output)
    return EXIT_OK


def _cmd_validate(args) -> int:
    instance = _load_cli_instance(args)
    vector = read_vector(args.vector)
    if len(vector) != instance.graph.m:
        raise ConfigError(
            f"vector has {len(vector)} components, instance has {instance.graph.m} edges"
        )
    if not vector.within_box(instance.box):
        print("feasible=false (vector exceeds the box)")
        return EXIT_INFEASIBLE
    remaining = unseparated_pairs(instance, vector)
    if remaining:
        print(f"feasible=false unseparated_pairs={remaining}")
        return EXIT_INFEASIBLE
    print("feasible=true")
    return EXIT_OK


def _cmd_gen(args) -> int:
    graph = generate_er(args.n, args.rho, args.seed)
    weights = build_weights(graph, args.weight_model, args.threshold, seed=args.seed + 1)
    pairs = sample_pairs(graph, args.pairs, args.seed + 2)
    instance = QosdInstance(graph, weights, pairs, args.threshold)
    with open(args.output, "w") as handle:
        save_instance(instance, handle)
    print(
        f"wrote instance n={graph.n} m={graph.m} T={args.threshold} "
        f"k={len(pairs)} to {args.output}"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    handlers = {
        "solve": _cmd_solve,
        "experiment": _cmd_experiment,
        "oracle": _cmd_oracle,
        "validate": _cmd_validate,
        "gen": _cmd_gen,
    }
    try:
        return handlers[args.command](args)
    except SolverTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except (InfeasibleBoxError, NonlinearWeightsError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InvalidInstanceError, ParseError, ConfigError, FileNotFoundError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QosdError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
