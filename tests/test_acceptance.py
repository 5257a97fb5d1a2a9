"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The statistical criteria
use frozen seeds; every tolerance is pinned here, not tuned at runtime.
"""

import math
import random
import time
from fractions import Fraction
from statistics import mean

from qosd import (
    BudgetVector,
    Graph,
    QosdInstance,
    SaConfig,
    WeightFunction,
    block_adaptive,
    block_greedy,
    build_sp_tree,
    build_weights,
    concave_ratio,
    constraint_generation,
    make_er_instance,
    oracle_opt,
    potential_paths,
    run_cc,
    run_iterative,
    run_lr,
    run_sa,
    sample_pairs,
    sample_path,
    unseparated_pairs,
)
from qosd.pathcore import separating_paths

from reference import _derived_rng, d_value, estimate_B, make_layered_flat_instance, plus, unit


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} — {detail}")


def _run_named(inst, alg, seed):
    if alg in ("ig", "at"):
        return run_iterative(inst, alg, seed=seed)
    if alg == "sa":
        return run_sa(inst, SaConfig(seed=seed))
    if alg == "lr":
        return run_lr(inst, delta=0.2, seed=seed)
    if alg == "cc":
        return run_cc(inst, seed=seed)
    raise ValueError(alg)


def test_c01_feasibility_universally():
    """Every run in a >=500-run matrix returns a feasible, in-box vector."""
    t0 = time.perf_counter()
    models = ("linear", "convex", "concave", "cutting", "heterogeneous")
    blocks = [
        (8, 0.35, 4, 2, 12),
        (60, 0.10, 5, 5, 8),
        (240, 0.05, 5, 5, 3),
    ]
    runs = 0
    violations = []
    for n, rho, threshold, k, seeds in blocks:
        for model in models:
            for seed in range(seeds):
                inst = make_er_instance(n, rho, threshold, k, model, seed=seed)
                algs = ["ig", "at", "sa", "cc"]
                if model in ("linear", "cutting"):
                    algs.append("lr")
                for alg in algs:
                    report = _run_named(inst, alg, seed)
                    runs += 1
                    if (
                        not report.feasible
                        or unseparated_pairs(inst, report.budget)
                        or not report.budget.within_box(inst.box)
                    ):
                        violations.append((n, model, alg, seed))
    ok = runs >= 500 and not violations
    _report(
        "C1",
        ok,
        f"{runs} runs across {len(models)} models and n in {{8,60,240}}, "
        f"{len(violations)} violations, {time.perf_counter() - t0:.0f}s",
    )
    assert runs >= 500
    assert violations == []


def test_c02_oracle_optimality_gap():
    """50 seeded n=8 instances: everyone >= OPT; trading obeys its proof bound."""
    t0 = time.perf_counter()
    ratios = {alg: [] for alg in ("ig", "at", "sa", "lr", "cc")}
    bound_violations = []
    below_opt = []
    for seed in range(50):
        inst = make_er_instance(8, 0.3, 3, 2, "linear", seed=seed)
        opt = oracle_opt(inst).norm
        for alg in ratios:
            report = _run_named(inst, alg, seed)
            if report.norm < opt:
                below_opt.append((alg, seed))
            if opt:
                ratios[alg].append(report.norm / opt)
        # replay the trading run to recover its final candidate set and chunks
        x = BudgetVector.zeros(inst.graph.m)
        candidates = {}
        trace = []
        while True:
            fresh = separating_paths(inst, x)
            if not fresh:
                break
            candidates.update(dict.fromkeys(fresh))
            trace = []
            x = block_adaptive(inst, candidates, trace=trace)
        max_chunk = max((z for _, z, _ in trace), default=0)
        if candidates:
            bound = math.ceil(opt * math.log(len(candidates) * inst.threshold)) + max_chunk
            if x.norm > bound:
                bound_violations.append((seed, x.norm, bound))
    elapsed = time.perf_counter() - t0
    summary = {alg: round(mean(v), 3) for alg, v in ratios.items() if v}
    ok = not below_opt and not bound_violations and elapsed < 300
    _report("C2", ok, f"mean norm/OPT {summary}, {elapsed:.1f}s")
    assert below_opt == []
    assert bound_violations == []
    assert elapsed < 300


def test_c03_greedy_equals_trading_at_gamma_one():
    """Concave ratio 1 (linear or concave tables): outputs are bit-identical."""
    mismatches = []
    for idx in range(30):
        model, threshold = ("linear", 4) if idx < 15 else ("concave", 5)
        inst = make_er_instance(30, 0.2, threshold, 4, model, seed=idx)
        assert concave_ratio(inst.weights) == 1
        greedy = run_iterative(inst, "ig")
        trading = run_iterative(inst, "at")
        if greedy.budget != trading.budget:
            mismatches.append(idx)
        paths = potential_paths(inst, BudgetVector.zeros(inst.graph.m))
        if paths and block_greedy(inst, paths) != block_adaptive(inst, paths):
            mismatches.append((idx, "blocker-level"))
    ok = not mismatches
    _report("C3", ok, f"30 gamma=1 instances, {len(mismatches)} mismatches")
    assert mismatches == []


def _random_tables(rng, m):
    weights = []
    for _ in range(m):
        cap = rng.randint(1, 4)
        table = [rng.randint(1, 3)]
        for _ in range(cap):
            table.append(table[-1] + rng.randint(0, 3))
        weights.append(WeightFunction(tuple(table)))
    return weights


def test_c04_concavity_lemma_property_suite():
    """10^4 random tuples satisfy both concave-ratio inequalities exactly."""
    rng = random.Random(412)
    checked = 0
    failures = 0
    while checked < 10_000:
        m = rng.randint(2, 6)
        weights = _random_tables(rng, m)
        graph = Graph(m + 1, [(i, i + 1) for i in range(m)])
        threshold = rng.randint(2, 8)
        inst = QosdInstance(
            graph, weights, [(0, m)], threshold, validate_box=False
        )
        gamma = concave_ratio(weights)
        caps = inst.box
        paths = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, m)
            paths.append(tuple(sorted(rng.sample(range(m), size))))
        for _ in range(25):
            if checked >= 10_000:
                break
            x = [rng.randint(0, c) for c in caps]
            y = [rng.randint(v, c) for v, c in zip(x, caps)]
            free = [e for e in range(m) if y[e] < caps[e]]
            if not free:
                continue
            bx, by = BudgetVector(x), BudgetVector(y)
            s = unit(m, rng.choice(free))
            lhs_unit = d_value(inst, paths, plus(bx, s)) - d_value(inst, paths, bx)
            rhs_unit = d_value(inst, paths, plus(by, s)) - d_value(inst, paths, by)
            z = BudgetVector([rng.randint(0, c - v) for v, c in zip(y, caps)])
            lhs_bulk = d_value(inst, paths, plus(bx, z)) - d_value(inst, paths, bx)
            rhs_bulk = d_value(inst, paths, plus(by, z)) - d_value(inst, paths, by)
            if Fraction(lhs_unit) < gamma * Fraction(rhs_unit):
                failures += 1
            if Fraction(lhs_bulk) < gamma * Fraction(rhs_bulk):
                failures += 1
            checked += 1
    ok = failures == 0
    _report("C4", ok, f"{checked} tuples, {failures} violations (exact rationals)")
    assert failures == 0


def test_c05_estimator_unbiasedness():
    """Diamond at zero budget: mean estimate within 3 SE of the exact B = 4."""
    t0 = time.perf_counter()
    graph = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    inst = QosdInstance(graph, build_weights(graph, "linear", 3), [(0, 3)], 3)
    x = BudgetVector.zeros(4)
    trees = {3: build_sp_tree(inst, x, 3)}
    draws = 50_000
    samples = [
        sample_path(inst, x, trees, 0.8, _derived_rng(20240817, 0, 0, i))
        for i in range(draws)
    ]
    estimate = estimate_B(inst, samples, x)
    per_sample = [
        (min(inst.threshold, sum(inst.weights[e].table[0] for e in sp.edges)) / sp.rho) if sp.feasible else 0.0
        for sp in samples
    ]
    se = math.sqrt(
        sum((v - estimate) ** 2 for v in per_sample) / (draws - 1) / draws
    )
    bias_ok = abs(estimate - 4.0) <= 3 * se
    freq = sum(1 for sp in samples if sp.edges == (0, 1)) / draws
    sigma = math.sqrt(0.8 * 0.2 / draws)
    freq_ok = abs(freq - 0.8) <= 3 * sigma
    elapsed = time.perf_counter() - t0
    ok = bias_ok and freq_ok and elapsed < 60
    _report(
        "C5",
        ok,
        f"estimate {estimate:.4f} (3SE {3 * se:.4f}), tree-branch freq "
        f"{freq:.4f} vs 0.8, {elapsed:.1f}s",
    )
    assert bias_ok and freq_ok
    assert elapsed < 60


def test_c06_lp_rounding_statistics():
    """200 seeded linear runs: rare first-attempt failures, expectation bound,
    and the LP optimum never exceeds the exact optimum."""
    t0 = time.perf_counter()
    first_fail = 0
    norms = []
    bounds = []
    for seed in range(200):
        inst = make_er_instance(60, 0.1, 5, 10, "linear", seed=1000 + seed)
        report = run_lr(inst, delta=0.2, seed=seed)
        assert report.feasible
        first_fail += report.extras["retries"] > 0
        norms.append(report.norm)
        bounds.append(report.extras["eta"] * report.extras["lp_objective"])
    rate = first_fail / 200
    lp_vs_opt_ok = True
    for seed in range(20):
        inst = make_er_instance(8, 0.3, 3, 2, "linear", seed=seed)
        lp = constraint_generation(inst)
        if lp.objective > oracle_opt(inst).norm + 1e-6:
            lp_vs_opt_ok = False
    elapsed = time.perf_counter() - t0
    ok = rate <= 0.27 and mean(norms) <= mean(bounds) and lp_vs_opt_ok and elapsed < 600
    _report(
        "C6",
        ok,
        f"first-attempt infeasibility {rate:.3f} (<=0.27), mean norm "
        f"{mean(norms):.1f} <= mean eta*lp {mean(bounds):.1f}, LP<=OPT "
        f"{lp_vs_opt_ok}, {elapsed:.0f}s",
    )
    assert rate <= 0.27
    assert mean(norms) <= mean(bounds)
    assert lp_vs_opt_ok
    assert elapsed < 600


def test_c07_solution_quality_trend():
    """Linear ER sweep: LP rounding leads, centrality cutting trails badly."""
    t0 = time.perf_counter()
    norms = {alg: [] for alg in ("ig", "at", "sa", "lr", "cc")}
    for rho_index, rho in enumerate((0.1, 0.3, 0.5)):
        for rep in range(5):
            seed = 7000 + 100 * rho_index + rep
            inst = make_er_instance(60, rho, 3, 10, "linear", seed=seed)
            for alg in norms:
                norms[alg].append(_run_named(inst, alg, seed).norm)
    means = {alg: mean(v) for alg, v in norms.items()}
    elapsed = time.perf_counter() - t0
    lr_le_at = means["lr"] <= means["at"]
    lr_le_ig = means["lr"] <= means["ig"]
    lr_le_sa = means["lr"] <= 1.05 * means["sa"]
    cc_ratio = means["cc"] / means["lr"]
    sa_ratio = means["sa"] / means["lr"]
    ok = lr_le_at and lr_le_ig and lr_le_sa and cc_ratio >= 1.5 and elapsed < 600
    _report(
        "C7",
        ok,
        f"means {({a: round(m, 1) for a, m in means.items()})}, cc/lr "
        f"{cc_ratio:.2f} (>=1.5), sa/lr {sa_ratio:.2f} (trend <=1.3), {elapsed:.0f}s",
    )
    assert lr_le_at and lr_le_ig and lr_le_sa
    assert cc_ratio >= 1.5
    assert elapsed < 600


def test_c08_gamma_sensitivity():
    """Flat-increment (gamma=0) weights: unit greedy trails amount-aware
    trading on every seed, mean ratio above 1.5."""
    t0 = time.perf_counter()
    ratios = []
    per_seed_ok = True
    for seed in range(20):
        inst = make_layered_flat_instance(seed)
        assert concave_ratio(inst.weights) == 0
        greedy = run_iterative(inst, "ig")
        trading = run_iterative(inst, "at")
        assert greedy.feasible and trading.feasible
        per_seed_ok &= greedy.norm >= trading.norm
        ratios.append(greedy.norm / trading.norm)
    ratio = mean(ratios)
    elapsed = time.perf_counter() - t0
    ok = per_seed_ok and ratio > 1.5 and elapsed < 600
    _report(
        "C8",
        ok,
        f"greedy/trading per-seed >=1: {per_seed_ok}, mean ratio {ratio:.2f} "
        f"(measured, paper-scale gap is far larger), {elapsed:.0f}s",
    )
    assert per_seed_ok
    assert ratio > 1.5
    assert elapsed < 600


def test_c09_determinism_under_threads():
    """Same seed, different thread counts: identical vectors everywhere."""
    mismatches = []
    inst_linear = make_er_instance(60, 0.15, 4, 8, "linear", seed=77)
    inst_hetero = make_er_instance(60, 0.15, 5, 8, "heterogeneous", seed=78)
    cases = [
        (inst_linear, "ig"), (inst_linear, "at"), (inst_linear, "sa"),
        (inst_linear, "lr"), (inst_linear, "cc"),
        (inst_hetero, "ig"), (inst_hetero, "at"), (inst_hetero, "sa"),
        (inst_hetero, "cc"),
    ]
    for inst, alg in cases:
        results = []
        for threads in (1, 4):
            if alg in ("ig", "at"):
                report = run_iterative(inst, alg, threads=threads)
            elif alg == "sa":
                report = run_sa(inst, SaConfig(seed=5), threads=threads)
            elif alg == "lr":
                report = run_lr(inst, delta=0.2, seed=5, threads=threads)
            else:
                report = run_cc(inst, threads=threads)
            results.append(report)
        if results[0].budget != results[1].budget or results[0].norm != results[1].norm:
            mismatches.append(alg)
    ok = not mismatches
    _report("C9", ok, f"{len(cases)} algorithm/thread cases, {len(mismatches)} mismatches")
    assert mismatches == []


def test_c10_performance_smoke():
    """Peer-to-peer-scale graph (10.9K nodes, 40.0K edges), T=10, k=100:
    unit greedy end to end; soft target 30 min, hard fail above 2 h."""
    t0 = time.perf_counter()
    n, m = 10_876, 39_994
    rng = random.Random(42)
    seen = set()
    edges = []
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            edges.append((u, v))
    graph = Graph(n, edges)
    inst = QosdInstance(
        graph, build_weights(graph, "linear", 10), sample_pairs(graph, 100, 7), 10
    )
    report = run_iterative(inst, "ig")
    elapsed = time.perf_counter() - t0
    feasible = report.feasible and unseparated_pairs(inst, report.budget) == []
    ok = feasible and elapsed < 7200
    _report(
        "C10",
        ok,
        f"n={n}, m={m}: norm {report.norm}, outer {report.outer_iterations}, "
        f"{elapsed:.0f}s end to end (soft target 1800s{', met' if elapsed < 1800 else ', MISSED'})",
    )
    assert feasible
    assert elapsed < 7200
