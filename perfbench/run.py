"""Solver benchmark for qosd: one workload per QoSD algorithm.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--instance-seed K]

Each workload is a closed loop with one caller: passes over the workload's
instances, one solver call at a time with ``threads=1``, repeated until
``--seconds`` have gone by (whole passes only). Every returned budget
vector is checked by ``checker.py``. With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics derived from the spans. The last
line of standard output is one JSON object; raw outputs go to
``perfbench/out/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from checker import Reference, fingerprint
from speed import REFERENCE_S, loop_seconds
from tracer import Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SRC_MARKER = HERE.parent / "src" / "qosd" / "__init__.py"
NAMES = ("p2p-ig", "er240-at", "er240-sa", "er60-lr")

# One set-up takes a fraction of a second, where a scheduling hiccup is a
# large share, so a run builds the instances several times and reports the
# median.
SETUP_REPEATS = 5
# Host speed drifts within a pass, so the speed loop also runs between calls
# (for the workloads that have several), at most this many times a pass.
LOOPS_PER_PASS = 4

MEASURED_MODULES = ("instance", "pathcore", "framework", "ig", "at", "sa", "lr")
LAYERS = ("framework", "pathcore", "ig", "at", "sa", "lr")
SWEEPS = ("pathcore.pair_shortest_paths", "pathcore.unseparated_pairs")
# span name -> (count metric, total-time metric)
SPAN_METRICS = {
    "pathcore.shortest_path": ("pathcore.sp_queries", "pathcore.sp_query_s"),
    "pathcore.edge_lengths": ("pathcore.edge_lengths_calls", "pathcore.edge_lengths_s"),
    "ig.block_greedy": ("ig.block_calls", "ig.block_s"),
    "at.block_adaptive": ("at.block_calls", "at.block_s"),
    "sa.build_sp_tree": ("sa.sp_tree_calls", "sa.sp_tree_s"),
    "sa.sample_path": ("sa.samples", "sa.sample_s"),
    "sa.greedy_chunk": (None, "sa.chunk_s"),
    "lr.solve_lp": ("lr.lp_solves", "lr.lp_s"),
    "lr.round_solution": ("lr.round_attempts", "lr.round_s"),
}


def _trace_steps(kwargs) -> list:
    return kwargs.get("trace") or []


OBSERVERS = {
    "ig.block_greedy": lambda args, kwargs, result: len(_trace_steps(kwargs)),
    "at.block_adaptive": lambda args, kwargs, result: [
        len(_trace_steps(kwargs)), sum(step[1] for step in _trace_steps(kwargs))
    ],
    "sa.sample_path": lambda args, kwargs, result: int(result.feasible),
}

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "budget_norm": "units", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "instance.build_s": "s",
    "instance.box_check_s": "s",
    "framework.outer_rounds": "count",
    "framework.candidate_paths": "count",
    "pathcore.sweep_calls": "count",
    "pathcore.sweep_s": "s",
    "pathcore.sp_queries": "count",
    "pathcore.sp_query_s": "s",
    "pathcore.edge_lengths_calls": "count",
    "pathcore.edge_lengths_s": "s",
    "ig.block_calls": "count",
    "ig.block_s": "s",
    "ig.unit_steps": "count",
    "at.block_calls": "count",
    "at.block_s": "s",
    "at.chunks": "count",
    "at.chunk_units": "count",
    "sa.rounds": "count",
    "sa.sp_tree_calls": "count",
    "sa.sp_tree_s": "s",
    "sa.samples": "count",
    "sa.feasible_samples": "count",
    "sa.useful_sample_ratio": "ratio",
    "sa.sample_s": "s",
    "sa.chunk_s": "s",
    "sa.escalations": "count",
    "sa.fallbacks": "count",
    "lr.cg_rounds": "count",
    "lr.lp_solves": "count",
    "lr.lp_s": "s",
    "lr.separation_s": "s",
    "lr.constraint_paths": "count",
    "lr.round_attempts": "count",
    "lr.round_s": "s",
    **{f"share.{layer}": "ratio" for layer in LAYERS},
    "trace.unattributed_share": "ratio",
    "trace.solve_s": "s",
    "trace.untraced_solve_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


@dataclass
class Pass:
    """One pass over a workload's calls."""

    traced: bool
    solve_s: float = 0.0
    # mean speed-loop time, sampled before, during and after the pass
    loop_s: float = REFERENCE_S
    span_range: tuple[int, int] = (0, 0)
    # per call: (label, report or None, list of problems)
    outcomes: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for _, _, problems in self.outcomes if problems)

    @property
    def adjusted_s(self) -> float:
        return self.solve_s * REFERENCE_S / self.loop_s

    def fingerprints(self) -> list[str | None]:
        return [fingerprint(r.budget.values) if r else None for _, r, _ in self.outcomes]


def run_pass(calls, refs, tracer) -> Pass:
    result = Pass(traced=tracer is not None)
    first_span = len(tracer) if tracer is not None else 0
    stride = math.ceil(len(calls) / LOOPS_PER_PASS)
    loops = []
    for index, (call, ref) in enumerate(zip(calls, refs)):
        if index % stride == 0:
            loops.append(loop_seconds())
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.solve") if tracer is not None else nullcontext():
                report = call.solve(call.instance)
        except Exception:  # a raising call is a failed operation; keep measuring
            report, problems = None, [traceback.format_exc()]
        result.solve_s += time.perf_counter() - t0
        if report is not None:
            problems = ref.check(report)
        result.outcomes.append((call.label, report, problems))
    loops.append(loop_seconds())
    result.loop_s = statistics.mean(loops)
    if tracer is not None:
        result.span_range = (first_span, len(tracer))
    return result


def layer_metrics(tracer, times, own, p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and reports."""
    lo, hi = p.span_range
    out = {name: 0 for name in PER_LAYER_UNITS}
    names, parent, extra = tracer.names, tracer.parent, tracer.extra
    in_sweep = {}
    solve_total = 0.0
    for i in range(lo, hi):
        name = names[i]
        par = parent[i]
        in_sweep[i] = par >= 0 and (in_sweep[par] or names[par] in SWEEPS)
        if name == "bench.solve":
            solve_total += times[i]
            out["trace.unattributed_share"] += own[i]
            continue
        module = name.split(".", 1)[0]
        if module in LAYERS:
            out[f"share.{module}"] += own[i]
        if name in SWEEPS and not in_sweep[i]:
            out["pathcore.sweep_calls"] += 1
            out["pathcore.sweep_s"] += times[i]
        if name in SPAN_METRICS:
            count, total = SPAN_METRICS[name]
            if count:
                out[count] += 1
            out[total] += times[i]
        if name == "ig.block_greedy":
            out["ig.unit_steps"] += extra[i]
        elif name == "at.block_adaptive":
            out["at.chunks"] += extra[i][0]
            out["at.chunk_units"] += extra[i][1]
        elif name == "sa.sample_path":
            out["sa.feasible_samples"] += extra[i]
        elif name == "lr.constraint_generation":
            out["lr.separation_s"] += own[i]
    for key in [f"share.{layer}" for layer in LAYERS] + ["trace.unattributed_share"]:
        out[key] /= solve_total
    if out["sa.samples"]:
        out["sa.useful_sample_ratio"] = out["sa.feasible_samples"] / out["sa.samples"]
    for _, report, _ in p.outcomes:
        if report is None:
            continue
        if report.algorithm in ("ig", "at"):
            out["framework.outer_rounds"] += report.outer_iterations
            out["framework.candidate_paths"] += report.extras["candidate_paths"]
        elif report.algorithm == "sa":
            out["sa.rounds"] += report.outer_iterations
            out["sa.escalations"] += report.extras["escalations"]
            out["sa.fallbacks"] += report.extras["fallbacks"]
        elif report.algorithm == "lr":
            out["lr.cg_rounds"] += report.outer_iterations
            out["lr.constraint_paths"] += report.extras["constraint_paths"]
    out["trace.solve_s"] = solve_total
    out["trace.spans"] = hi - lo
    for key, unit in PER_LAYER_UNITS.items():
        if unit == "s":
            out[key] *= REFERENCE_S / p.loop_s
    return out


def build_metrics(tracer, times, builds, scales) -> dict[str, float]:
    """Median over the traced set-ups of build time and box-check time."""
    build_s, box_s = [], []
    for (lo, hi), scale in zip(builds, scales):
        build_s.append(times[lo] * scale)
        box_s.append(scale * sum(times[i] for i in range(lo, hi)
                                 if tracer.names[i] == "pathcore.unseparated_pairs"))
    return {"instance.build_s": statistics.median(build_s),
            "instance.box_check_s": statistics.median(box_s)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, instance_seed: int) -> dict:
    from workloads import build  # imports qosd from the checkout's src/

    tracer = Tracer() if trace else None
    loop_seconds()  # the first run pays for fresh memory; discard it
    setup_times, setup_loops, builds = [], [loop_seconds()], []
    for _ in range(SETUP_REPEATS):
        calls = None  # let the previous build be freed before the next
        t0 = time.perf_counter()
        if tracer is not None:
            lo = len(tracer)
            with tracer.installed("qosd", MEASURED_MODULES, OBSERVERS), tracer.span("bench.build"):
                calls = build(name, instance_seed, seed)
            builds.append((lo, len(tracer)))
        else:
            calls = build(name, instance_seed, seed)
        setup_times.append(time.perf_counter() - t0)
        setup_loops.append(loop_seconds())
    # each build scaled by the mean of the loops just before and after it
    setup_scales = [REFERENCE_S * 2 / (a + b) for a, b in zip(setup_loops, setup_loops[1:])]
    refs = [Reference(call.instance) for call in calls]

    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < (2 if trace else 1) or time.perf_counter() - start < seconds:
        if trace and len(passes) % 2 == 1:
            with tracer.installed("qosd", MEASURED_MODULES, OBSERVERS):
                passes.append(run_pass(calls, refs, tracer))
        else:
            passes.append(run_pass(calls, refs, None))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = passes[0]
    reference_prints = first.fingerprints()
    repeatable = all(p.fingerprints() == reference_prints for p in passes)
    # one fingerprint for the whole workload, independent of the call order
    outputs_sha = fingerprint(fp for _, fp in sorted(
        zip((label for label, _, _ in first.outcomes), reference_prints)))
    wrong = [(label, problems) for p in passes for label, report, problems in p.outcomes
             if report is not None and problems]
    untraced = [p.adjusted_s for p in passes if not p.traced]
    if trace:
        times, own = tracer.durations()
        per_pass = [layer_metrics(tracer, times, own, p) for p in passes if p.traced]
        metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        metrics.update(build_metrics(tracer, times, builds, setup_scales))
        metrics["trace.untraced_solve_s"] = statistics.median(untraced)
        metrics["trace.overhead_pct"] = 100.0 * (
            metrics["trace.solve_s"] / metrics["trace.untraced_solve_s"] - 1.0)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(t * f for t, f in zip(setup_times, setup_scales)),
            "solve_s": statistics.median(untraced),
            "budget_norm": sum(r.norm for _, r, _ in first.outcomes if r is not None),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")
    result = {
        "correct": not wrong and repeatable,
        "attempted": sum(len(p.outcomes) for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    raw = {
        "workload": name, "seed": seed, "instance_seed": instance_seed, "seconds": seconds,
        "trace": trace, "python": sys.version.split()[0], "result": result,
        "setup_wall_s": setup_times, "setup_loop_s": setup_loops,
        "passes": [{"traced": p.traced, "wall_s": p.solve_s, "loop_s": p.loop_s,
                    "adjusted_s": p.adjusted_s} for p in passes],
        "calls": [{"label": label, "norm": r.norm if r else None, "fingerprint": fp,
                   "problems": problems}
                  for (label, r, problems), fp in zip(first.outcomes, reference_prints)],
        "outputs_sha256": outputs_sha, "wrong": wrong, "repeatable": repeatable,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(raw, indent=1))

    print(f"workload {name}: seed {seed}, instance seed {instance_seed}, {len(passes)} passes")
    for (label, r, problems), fp in zip(first.outcomes, reference_prints):
        status = f"norm {r.norm} sha256 {fp[:16]}" if r else "no output"
        print(f"  call {label}: {status}{' FAILED ' + problems[0].splitlines()[-1] if problems else ''}")
    print(f"  outputs sha256 {outputs_sha[:16]}")
    for key, entry in result["metrics"].items():
        print(f"  {key} = {entry['value']:.6g} {entry['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    return result


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--instance-seed", str(args.instance_seed)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the inputs; outputs and work do not depend on it")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure whole passes until this much time has gone by")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, default=0,
                        help="picks the instances; 0 gives the README's reference instances")
    args = parser.parse_args(argv)
    if not SRC_MARKER.is_file():
        print(f"error: qosd sources not found at {SRC_MARKER.parent}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.instance_seed)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
