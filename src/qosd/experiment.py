"""Experiment configuration, seeded batch runs and CSV emission."""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field, replace

from .baselines import oracle_opt, run_cc
from .errors import ConfigError, QosdError
from .framework import run_iterative
from .instance import QosdInstance, load_instance, make_er_instance
from .lr import run_lr
from .pathcore import unseparated_pairs
from .report import Deadline, RunReport
from .sa import SaConfig, run_sa

CONFIG_HEADER = "qosd-config v1"

CSV_COLUMNS = [
    "algorithm", "n", "m", "model", "T", "k", "seed",
    "norm", "outer_iters", "inner_iters", "wall_time_s", "feasible", "extras",
]

ALGORITHMS = ("ig", "at", "sa", "lr", "cc", "oracle")
DETERMINISTIC = ("ig", "at", "cc", "oracle")  # their outputs do not depend on the seed


@dataclass
class ExperimentConfig:
    """One batch: an instance source, a threshold sweep and an algorithm list."""

    source: str = "er"                # "er" or "file"
    er_n: int = 60
    er_rho: float = 0.1
    instance_file: str | None = None
    model: str = "linear"
    thresholds: list[int] = field(default_factory=lambda: [3])
    k: int = 10
    algorithms: list[str] = field(default_factory=lambda: ["ig", "at"])
    repetitions: int = 5
    master_seed: int = 0
    time_limit: float = 86_400.0      # one day per run
    sa: SaConfig = SaConfig()         # SA's knobs (LR reads delta); checked by the solvers
    output: str | None = None

    def __post_init__(self):
        Deadline(self.time_limit)  # a NaN limit fails here, before any instance is built
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if self.source not in ("er", "file"):
            raise ConfigError(f"unknown source {self.source!r}")
        if self.source == "file" and not self.instance_file:
            raise ConfigError("source=file needs instance_file")
        if not self.thresholds or not self.algorithms:
            raise ConfigError("T and algorithms must each list at least one value")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {alg!r}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse the 'qosd-config v1' key = value format (see README)."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != CONFIG_HEADER:
        raise ConfigError(f"missing header {CONFIG_HEADER!r}")
    kwargs: dict = {}
    knobs: dict = {}
    int_keys = {"er_n", "k", "repetitions", "master_seed"}
    float_keys = {"er_rho", "time_limit"}
    knob_types = {"q": int, "alpha": float, "epsilon": float, "delta": float, "sample_mode": str}
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if key in int_keys:
                kwargs[key] = int(value)
            elif key in float_keys:
                kwargs[key] = float(value)
            elif key == "T":
                kwargs["thresholds"] = [int(v) for v in value.split(",") if v.strip()]
            elif key == "algorithms":
                kwargs["algorithms"] = [v.strip() for v in value.split(",") if v.strip()]
            elif key in knob_types:
                knobs[key] = knob_types[key](value)
            elif key == "samples":
                # 0 means the practical default; a negative count is left for SA to reject
                knobs["samples_per_round"] = int(value) or None
            elif key in ("source", "model", "instance_file", "output"):
                kwargs[key] = value
            else:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")
        except ValueError:
            raise ConfigError(f"line {line_no}: bad value for {key!r}: {value!r}") from None
    return ExperimentConfig(**kwargs, sa=SaConfig(**knobs))


def derive_seed(master_seed: int, threshold: int, repetition: int, algorithm_index: int) -> int:
    """Documented formula: first 8 bytes of sha256("master:T:rep:alg_index")."""
    text = f"{master_seed}:{threshold}:{repetition}:{algorithm_index}"
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**31)


def run_algorithm(instance: QosdInstance, algorithm: str, *, seed: int = 0, deadline: Deadline | float | None = None,
                  sa: SaConfig = SaConfig(), eta_override: float | None = None) -> RunReport:
    """Dispatch one named solver; SA runs ``sa`` under ``seed``, LR reads its ``delta``."""
    if algorithm in ("ig", "at"):
        return run_iterative(instance, algorithm, deadline=deadline, seed=seed)
    if algorithm == "sa":
        return run_sa(instance, replace(sa, seed=seed), deadline=deadline)
    if algorithm == "lr":
        return run_lr(instance, delta=sa.delta, seed=seed, eta_override=eta_override, deadline=deadline)
    if algorithm == "cc":
        return run_cc(instance, deadline=deadline, seed=seed)
    if algorithm == "oracle":
        return oracle_opt(instance, deadline=deadline)
    raise ConfigError(f"unknown algorithm {algorithm!r}")


def _build_instance(config: ExperimentConfig, threshold: int, repetition: int) -> QosdInstance | str:
    """The cell's instance, or the error label of why it could not be read or built."""
    try:
        if config.source == "file":
            with open(config.instance_file) as handle:
                return load_instance(handle)
        seed = derive_seed(config.master_seed, threshold, repetition, 0xFFFF)
        return make_er_instance(config.er_n, config.er_rho, threshold, config.k, config.model, seed)
    except (QosdError, OSError, UnicodeDecodeError) as exc:
        return f"instance: {exc}"


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Every (threshold, repetition, algorithm) cell as one CSV-ready row.

    Each budget vector is re-verified by an independent separation check.
    Every ``QosdError`` a solver raises becomes a per-row error (the label
    its class declares, else ``"<Class>: <msg>"``), and an instance that
    cannot be read or built an ``instance: <msg>`` row per algorithm, never a
    batch failure; a failed oracle gets its own error row and the other
    algorithms run without ``opt``. A row's n, m, T and k are those of the
    instance it solved or failed on: for ``source = file``, the file's,
    whatever T lists; the file is read, and each deterministic solver (IG,
    AT, CC, the oracle) run on it, once, each row keeping its derived seed.
    """
    rows: list[dict] = []
    model = config.model if config.source == "er" else "file"
    loaded = _build_instance(config, 0, 0) if config.source == "file" else None
    solved: dict[str, RunReport | str] = {}  # the cell's deterministic runs (the file's, in file mode)
    for threshold in config.thresholds:
        for repetition in range(config.repetitions):
            instance = _build_instance(config, threshold, repetition) if loaded is None else loaded
            if isinstance(instance, str):
                cell = (config.er_n if config.source == "er" else "", "", threshold, config.k)
                rows += [_row(alg, model, cell, 0, None, {"error": instance}) for alg in config.algorithms]
                continue
            cell = (instance.graph.n, instance.graph.m, instance.threshold, instance.k)
            if loaded is None:
                solved = {}
            if "oracle" in config.algorithms and "oracle" not in solved:
                solved["oracle"] = _attempt(instance, "oracle", deadline=Deadline(config.time_limit))
            oracle = solved.get("oracle")
            for alg_index, alg in enumerate(config.algorithms):
                seed = derive_seed(config.master_seed, threshold, repetition, alg_index)
                report = solved.get(alg)
                if report is None:
                    report = _attempt(instance, alg, seed=seed, deadline=Deadline(config.time_limit),
                                      sa=config.sa)
                    if alg in DETERMINISTIC:
                        solved[alg] = report
                if isinstance(report, str):
                    rows.append(_row(alg, model, cell, seed, None, {"error": report}))
                    continue
                extras = dict(report.extras, verified=not unseparated_pairs(instance, report.budget))
                if isinstance(oracle, RunReport):
                    extras["opt"] = oracle.norm
                rows.append(_row(alg, model, cell, seed, report, extras))
    return rows


def _attempt(instance: QosdInstance, algorithm: str, **knobs) -> RunReport | str:
    """The solver's report, or the per-row error label of the QosdError it raised."""
    try:
        return run_algorithm(instance, algorithm, **knobs)
    except QosdError as exc:
        return exc.label or f"{type(exc).__name__}: {exc}"


def _row(algorithm: str, model: str, cell: tuple, seed: int, report: RunReport | None, extras: dict) -> dict:
    """One CSV row, in ``CSV_COLUMNS`` order: ``cell`` is the row's (n, m, T,
    k), and a failed run has no ``report`` and its error in ``extras``."""
    n, m, threshold, k = cell
    run = ("",) * 4 if report is None else (
        report.norm, report.outer_iterations, report.inner_iterations, f"{report.wall_time:.6f}")
    feasible = str(bool(report and report.feasible and extras["verified"])).lower()
    return dict(zip(CSV_COLUMNS, (algorithm, n, m, model, threshold, k, seed, *run, feasible,
                                  json.dumps(extras, sort_keys=True))))


def rows_to_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()
