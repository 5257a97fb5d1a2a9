"""Command-line entry point.

Subcommands: solve (one instance, one algorithm, the exact oracle
included), experiment (config file), validate (budget vector against an
instance), gen (emit an ER instance file). Exit codes: 0 ok, 1 usage,
2 infeasible, 3 timeout, 4 internal error.
"""

from __future__ import annotations

import argparse
import sys
from array import array

from .errors import ConfigError, ParseError, QosdError
from .experiment import ALGORITHMS, parse_config, run_algorithm, run_experiment, rows_to_csv
from .instance import (WEIGHT_MODELS, QosdInstance, build_weights, load_edge_list, load_instance,
                       make_er_instance, read_int_pairs, sample_pairs, save_instance)
from .pathcore import BudgetVector, unseparated_pairs
from .report import Deadline
from .sa import SAMPLE_MODES, SaConfig

VECTOR_HEADER = "qosd-vector v1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


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
        values = array("q", map(int, " ".join(lines[2:]).split()))
    except (IndexError, ValueError, OverflowError):  # OverflowError: an entry of 2**63 or more
        raise ParseError("malformed vector file") from None
    if len(values) != m:
        raise ParseError(f"expected {m} components, found {len(values)}")
    if min(values, default=0) < 0:
        raise ParseError("budget components must be nonnegative")
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
            with open(args.pairs_file) as handle:
                pairs = read_int_pairs(handle)
        else:
            pairs = sample_pairs(graph, args.random_pairs, args.pair_seed)
        return QosdInstance(graph, weights, pairs, args.threshold)
    raise ConfigError("provide --instance FILE or --edges FILE")


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--instance", help="qosd-instance v1 file")
    parser.add_argument("--edges", help="SNAP-style edge list file")
    parser.add_argument("--undirected", action="store_true", help="treat the edge list as undirected")
    parser.add_argument("--threshold", type=int, help="distance threshold T")
    parser.add_argument("--weight-model", default="linear", choices=WEIGHT_MODELS)
    parser.add_argument("--pairs-file", help="file of 's t' lines")
    parser.add_argument("--random-pairs", type=int, default=10, metavar="K")
    parser.add_argument("--pair-seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qosd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one algorithm on one instance")
    _add_instance_args(solve)
    solve.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    defaults = SaConfig()
    solve.add_argument("--alpha", type=float, default=defaults.alpha)
    solve.add_argument("--q", type=int, default=defaults.q)
    solve.add_argument("--epsilon", type=float, default=defaults.epsilon)
    solve.add_argument("--delta", type=float, default=defaults.delta)
    solve.add_argument("--samples", type=int, default=defaults.samples_per_round,
                       help="samples per round (unset or 0: q × max(100, 10k))")
    solve.add_argument("--sample-mode", default=defaults.sample_mode, choices=SAMPLE_MODES)
    solve.add_argument("--eta", type=float, default=None,
                       help="expert override of the rounding inflation factor")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--time-limit", type=float, default=86400.0)
    solve.add_argument("--output", help="write the budget vector here")

    experiment = sub.add_parser("experiment", help="run a qosd-config v1 batch")
    experiment.add_argument("config", help="config file path")
    experiment.add_argument("--output", help="override the config's output path")

    validate = sub.add_parser("validate", help="check a vector against an instance")
    _add_instance_args(validate)
    validate.add_argument("--vector", required=True)
    validate.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser("gen", help="emit a seeded ER instance file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--rho", type=float, required=True)
    gen.add_argument("--threshold", type=int, required=True)
    gen.add_argument("--pairs", type=int, default=10)
    gen.add_argument("--weight-model", default="linear", choices=WEIGHT_MODELS)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True)
    return parser


def _cmd_solve(args) -> int:
    Deadline(args.time_limit)  # a NaN limit fails before the load; the limit bounds the solve alone
    instance = _load_cli_instance(args)
    knobs = SaConfig(q=args.q, alpha=args.alpha, epsilon=args.epsilon, delta=args.delta,
                     sample_mode=args.sample_mode, samples_per_round=args.samples or None)
    report = run_algorithm(instance, args.algorithm, seed=args.seed, deadline=Deadline(args.time_limit),
                           sa=knobs, eta_override=args.eta)
    print(f"algorithm={report.algorithm} norm={report.norm} feasible={str(report.feasible).lower()} "
          f"outer={report.outer_iterations} inner={report.inner_iterations} "
          f"wall_time={report.wall_time:.3f}s seed={report.seed}")
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


def _cmd_validate(args) -> int:
    instance = _load_cli_instance(args)
    vector = read_vector(args.vector)
    if len(vector) != instance.graph.m:
        raise ConfigError(f"vector has {len(vector)} components, instance has {instance.graph.m} edges")
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
    instance = make_er_instance(args.n, args.rho, args.threshold, args.pairs, args.weight_model, args.seed)
    with open(args.output, "w") as handle:
        save_instance(instance, handle)
    print(f"wrote instance n={instance.graph.n} m={instance.graph.m} T={args.threshold} "
          f"k={instance.k} to {args.output}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    handlers = {"solve": _cmd_solve, "experiment": _cmd_experiment, "validate": _cmd_validate, "gen": _cmd_gen}
    try:
        return handlers[args.command](args)
    except QosdError as exc:  # each error class declares its exit code and prefix
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
