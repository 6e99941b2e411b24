"""Acceptance suite: one test per release criterion, with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``. The final test is gated on
a real 2018 extract (set WTN_2018_CSV to its path) and skipped otherwise.
Set WTN_UPDATE_GOLDENS=1 to regenerate the committed CLI golden outputs.
"""

import filecmp
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import (
    central_difference,
    effective_dense,
    money_set,
    money_sets_equal,
    node_pairs,
    records,
)

import wtnrank
from wtnrank import (
    DIRECT,
    GLOBAL_PRODUCT,
    INVERTED,
    LABOR_COST,
    Perturbation,
    RANK_BASED,
    VOLUME_BASED,
    balance_report,
    balance_sensitivity,
    build_google,
    gravity_money_set,
    ingest_csv,
    load_group_config,
    merge_country_group,
    pagerank,
    personalization_vector,
    rank_table,
    reduce,
    volume_probabilities,
)
from wtnrank.cli import main as cli_main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
DATA_ENV = "WTN_2018_CSV"


def _verdict(name, ok, elapsed, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.2f}s){detail}")
    assert ok, f"{name}{detail}"


def _sized_network(seed, max_countries, max_products, max_nodes=None, min_products=1):
    rng = np.random.default_rng(seed)
    n_p = int(rng.integers(min_products, max_products + 1))
    hi = max_countries if max_nodes is None else min(max_countries, max_nodes // n_p)
    n_c = int(rng.integers(3, hi + 1))
    density = float(rng.uniform(0.3, 0.9))
    return gravity_money_set(seed, n_c, n_p, density=density)


def test_stochasticity_suite():
    """100 seeded networks: G and G* columns and v sum to 1 within 1e-12."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        mm = _sized_network(seed, max_countries=30, max_products=4)
        v = personalization_vector(mm)
        worst = max(worst, abs(v.sum() - 1.0))
        for direction in (DIRECT, INVERTED):
            g = build_google(mm, direction)
            cols = effective_dense(g).sum(axis=0)
            worst = max(worst, float(np.abs(cols - 1.0).max()))
    elapsed = time.perf_counter() - start
    _verdict("stochasticity suite", worst <= 1e-12 and elapsed < 5.0, elapsed,
             f" worst deviation {worst:.2e}")


def test_rank_oracle():
    """50 seeded networks, N <= 50: power iteration vs dense linear solve <= 1e-8."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        mm = _sized_network(seed + 200, max_countries=25, max_products=4, max_nodes=50)
        for direction in (DIRECT, INVERTED):
            g = build_google(mm, direction)
            dense = g.stochastic.toarray()
            n = g.n_nodes
            rhs = (1.0 - g.damping) * g.personalization
            oracle = np.linalg.solve(np.eye(n) - g.damping * dense, rhs)
            probs = pagerank(g).node_probs
            worst = max(worst, float(np.abs(probs - oracle).sum()))
    elapsed = time.perf_counter() - start
    _verdict("rank oracle", worst <= 1e-8 and elapsed < 10.0, elapsed,
             f" worst L1 distance {worst:.2e}")


def test_regomax_suite():
    """20 seeded networks (N <= 30, N_r <= 8): exactness, closure, PageRank match."""
    start = time.perf_counter()
    worst_exact = worst_closure = worst_pr = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed + 300)
        mm = _sized_network(seed + 300, max_countries=15, max_products=3, max_nodes=30)
        g = build_google(mm, DIRECT if seed % 2 == 0 else INVERTED)
        n = g.n_nodes
        n_r = int(rng.integers(1, min(8, n - 1) + 1))
        every_node = node_pairs(g)
        nodes = [every_node[i] for i in rng.choice(n, size=n_r, replace=False)]
        r = reduce(g, nodes)

        full = effective_dense(g)
        idx = np.array([g.node_of(c, p) for c, p in nodes])
        sc = np.setdiff1d(np.arange(n), idx)
        inverse = np.linalg.inv(np.eye(sc.size) - full[np.ix_(sc, sc)])
        oracle = full[np.ix_(idx, idx)] \
            + full[np.ix_(idx, sc)] @ inverse @ full[np.ix_(sc, idx)]
        worst_exact = max(worst_exact, float(np.abs(r.g_r - oracle).max()))
        worst_closure = max(
            worst_closure, float(np.abs(r.g_rr + r.g_pr + r.g_qr - r.g_r).max()))

        global_probs = pagerank(g, tol=1e-14).node_probs
        restricted = global_probs[idx] / global_probs[idx].sum()
        x = np.full(idx.size, 1.0 / idx.size)
        for _ in range(200_000):
            y = r.g_r @ x
            y /= y.sum()
            done = np.abs(y - x).sum() <= 1e-15
            x = y
            if done:
                break
        worst_pr = max(worst_pr, float(np.abs(x - restricted).sum()))
    elapsed = time.perf_counter() - start
    ok = worst_exact <= 1e-10 and worst_closure <= 1e-8 and worst_pr <= 1e-6 \
        and elapsed < 30.0
    _verdict("regomax suite", ok, elapsed,
             f" exact {worst_exact:.2e}, closure {worst_closure:.2e}, "
             f"pagerank {worst_pr:.2e}")


def test_merge_conservation():
    """50 seeded sets: volume conservation and disjoint-merge order independence."""
    start = time.perf_counter()
    ok = True
    for seed in range(50):
        rng = np.random.default_rng(seed + 400)
        mm = _sized_network(seed + 400, max_countries=20, max_products=4)
        ids = list(mm.countries.ids)
        size = int(rng.integers(2, len(ids)))
        members = set(rng.choice(ids, size=size, replace=False).tolist())
        intra = sum(v for e, i, _, v in records(mm) if e in members and i in members)
        merged = merge_country_group(mm, members, "GG1")
        expected = mm.total_volume() - intra
        if expected > 0:
            ok &= abs(merged.total_volume() - expected) <= 1e-9 * expected
        else:
            ok &= merged.total_volume() == 0.0

        if len(ids) >= 5:
            a, b = set(ids[:2]), set(ids[2:4])
            ab = merge_country_group(merge_country_group(mm, a, "GG1"), b, "GG2")
            ba = merge_country_group(merge_country_group(mm, b, "GG2"), a, "GG1")
            ok &= money_sets_equal(ab, ba)
    elapsed = time.perf_counter() - start
    _verdict("merge conservation", ok, elapsed)


def test_sensitivity_consistency():
    """Central differences converge to the exact derivative at O(h^2) (error at most
    h^2, shrinking 4-fold per halving of h), analytic two-country cancellation,
    antisymmetry."""
    start = time.perf_counter()
    ratios, ratio_ok = [], True
    for seed in range(10):
        # at least two products, so a one-product shock shifts relative weights
        mm = _sized_network(seed + 500, max_countries=10, max_products=3,
                            min_products=2)
        description = RANK_BASED if seed % 2 == 0 else VOLUME_BASED
        pert = Perturbation(GLOBAL_PRODUCT, product=mm.products.codes[0])
        exact = balance_sensitivity(mm, pert, description).derivatives
        error = {step: np.abs(central_difference(mm, pert, description, step) - exact)
                 for step in (0.01, 0.005)}
        ratio_ok &= all(float(e.max()) <= step ** 2 for step, e in error.items())
        ratios.append(error[0.01].sum() / error[0.005].sum())
    ratio_ok &= all(3.9 <= r <= 4.1 for r in ratios)

    two = money_set([("AAA", "BBB", "0", 13.0), ("BBB", "AAA", "0", 5.0)])
    cancel = balance_sensitivity(
        two, Perturbation(GLOBAL_PRODUCT, product="0"), VOLUME_BASED)
    cancel_ok = float(np.abs(cancel.derivatives).max()) <= 1e-10

    anti_ok = True
    for description in (RANK_BASED, VOLUME_BASED):
        report = balance_report(two, description)
        b = dict(zip(report.countries, report.balances))
        anti_ok &= b["AAA"] == -b["BBB"]

    elapsed = time.perf_counter() - start
    _verdict("sensitivity consistency", ratio_ok and cancel_ok and anti_ok, elapsed,
             f" ratios [{min(ratios):.2f}, {max(ratios):.2f}]")


GOLDEN_STEPS = (
    ("synth", ["synth", "--seed", "42"]),
    ("ingest", ["ingest", "--input", "{trade}", "--year", "2018"]),
    ("merge", ["merge", "--input", "{trade}", "--year", "2018",
               "--merge-config", "{group}"]),
    ("rank", ["rank", "--input", "{trade}", "--year", "2018", "--top", "10"]),
    ("rank_json", ["rank", "--input", "{trade}", "--year", "2018", "--top", "10",
                   "--format", "json"]),
    ("rank_merged", ["rank", "--input", "{trade}", "--year", "2018", "--top", "10",
                     "--merge-config", "{group}"]),
    ("balance", ["balance", "--input", "{trade}", "--year", "2018"]),
    ("sensitivity_global", ["sensitivity", "--input", "{trade}", "--year", "2018",
                            "--perturb", "global", "--product", "0"]),
    ("sensitivity_labor", ["sensitivity", "--input", "{trade}", "--year", "2018",
                           "--perturb", "labor", "--target", "SAA"]),
    ("regomax", ["regomax", "--input", "{trade}", "--year", "2018",
                 "--actors", "SAA,SAB", "--k", "4"]),
)


def test_cli_golden_suite(tmp_path):
    """synth --seed 42 piped through every subcommand matches committed bytes."""
    start = time.perf_counter()
    group = os.path.join(GOLDEN_DIR, "group.json")
    produced = {}
    trade = None
    for step, argv in GOLDEN_STEPS:
        out_dir = tmp_path / step
        argv = [a.format(trade=trade, group=group) for a in argv]
        assert cli_main(argv + ["--out-dir", str(out_dir)]) == 0, step
        produced[step] = out_dir
        if step == "synth":
            trade = str(out_dir / "trade.csv")

    update = os.environ.get("WTN_UPDATE_GOLDENS") == "1"
    mismatches = []
    for step, out_dir in produced.items():
        golden_step = os.path.join(GOLDEN_DIR, step)
        if update:
            shutil.rmtree(golden_step, ignore_errors=True)
            shutil.copytree(out_dir, golden_step)
            continue
        if not os.path.isdir(golden_step):
            mismatches.append(f"{step}: missing golden directory")
            continue
        expected = sorted(os.listdir(golden_step))
        actual = sorted(os.listdir(out_dir))
        if expected != actual:
            mismatches.append(f"{step}: files {actual} != {expected}")
            continue
        match, diff, errors = filecmp.cmpfiles(golden_step, out_dir, expected,
                                               shallow=False)
        if diff or errors:
            mismatches.append(f"{step}: differing {diff + errors}")
    elapsed = time.perf_counter() - start
    detail = " regenerated" if update else (f" {mismatches}" if mismatches else "")
    _verdict("cli golden suite", not mismatches, elapsed, detail)


# every golden step but ``regomax``, whose reduction still goes through LAPACK
KERNEL_FREE_STEPS = ("ingest", "merge", "rank", "rank_json", "rank_merged", "balance",
                     "sensitivity_global", "sensitivity_labor")


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_goldens_independent_of_blas_kernel(tmp_path, coretype):
    """Every golden step but ``regomax`` gives the committed bytes under another
    OpenBLAS kernel, chosen by OPENBLAS_CORETYPE before numpy loads."""
    trade = str(tmp_path / "synth" / "trade.csv")
    group = os.path.join(GOLDEN_DIR, "group.json")
    commands = [[a.format(trade=trade, group=group) for a in argv]
                + ["--out-dir", str(tmp_path / step)]
                for step, argv in GOLDEN_STEPS if step in ("synth", *KERNEL_FREE_STEPS)]
    script = f"from wtnrank.cli import main\nfor argv in {commands!r}:\n    assert main(argv) == 0"
    package_root = os.path.dirname(os.path.dirname(wtnrank.__file__))
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "PYTHONPATH": package_root}
    subprocess.run([sys.executable, "-c", script], env=env, check=True)
    for step in KERNEL_FREE_STEPS:
        names = sorted(os.listdir(os.path.join(GOLDEN_DIR, step)))
        assert sorted(os.listdir(tmp_path / step)) == names
        match, diff, errors = filecmp.cmpfiles(os.path.join(GOLDEN_DIR, step),
                                               tmp_path / step, names, shallow=False)
        assert not diff and not errors, (step, diff + errors)


@pytest.mark.skipif(DATA_ENV not in os.environ,
                    reason=f"set {DATA_ENV} to a 2018 SITC-1 extract to run")
def test_real_2018_headline_numbers():
    """Data-gated: 2018 top-3 orderings, balance bounds, and key sensitivities."""
    start = time.perf_counter()
    result = ingest_csv(os.environ[DATA_ENV], 2018)
    label, members, short = load_group_config(wtnrank.KEU9_CONFIG)
    mm = merge_country_group(result.money, members, label, short=short)

    direct = pagerank(build_google(mm, DIRECT))
    inverted = pagerank(build_google(mm, INVERTED))
    rows = rank_table(direct, inverted, volume_probabilities(mm), top=3)
    orderings_ok = (
        [r["pagerank_country"] for r in rows] == ["KEU9", "USA", "CHN"]
        and [r["cheirank_country"] for r in rows] == ["KEU9", "CHN", "USA"]
        and [r["importrank_country"] for r in rows] == ["USA", "KEU9", "CHN"]
        and [r["exportrank_country"] for r in rows] == ["CHN", "KEU9", "USA"]
    )

    rank_balance = balance_report(mm, RANK_BASED)
    bounds_ok = (abs(float(rank_balance.balances.min()) - (-0.25)) <= 0.03
                 and abs(float(rank_balance.balances.max()) - 0.31) <= 0.03)

    sens = balance_sensitivity(mm, Perturbation(GLOBAL_PRODUCT, product="7"),
                               RANK_BASED)
    derivative = dict(zip(sens.countries, sens.derivatives))
    sens_ok = (abs(derivative["KEU9"] - 0.015) <= 0.005
               and abs(derivative["USA"] - (-0.019)) <= 0.005
               and abs(derivative["RUS"] - (-0.145)) <= 0.005)

    diag_expected = {"KEU9": 0.30, "USA": 0.31, "CHN": 0.30, "RUS": 0.29}
    diag_ok = True
    for target, expected in diag_expected.items():
        report = balance_sensitivity(
            mm, Perturbation(LABOR_COST, target_country=target), RANK_BASED)
        derivative = dict(zip(report.countries, report.derivatives))
        diag_ok &= abs(derivative[target] - expected) <= 0.02

    elapsed = time.perf_counter() - start
    ok = orderings_ok and bounds_ok and sens_ok and diag_ok and elapsed < 120.0
    _verdict("real 2018 headline numbers", ok, elapsed,
             f" orderings={orderings_ok} bounds={bounds_ok} "
             f"sens={sens_ok} labor_diag={diag_ok}")
