"""Benchmark of the wtnrank pipeline: ingest, merge, Google matrices, ranks,
balances, sensitivities and the reduced Google matrix.

Run from the repository root, for example

    python3 bench/run.py --workload paper-cli --seed 1 --seconds 15 --trace 0

It generates its inputs from the seed, sets up, runs closed-loop passes of the
workload's operations until ``--seconds`` have passed, checks every output
against the numpy oracle in ``oracle.py`` (outside the timed region) and
prints the environment, the input properties and each metric by name with
its unit. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. ``--trace 1`` makes a separate traced
run that reports the per-layer metrics instead. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

import inputs
import oracle
from hostclock import NOMINAL_S, HostClock
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

GROUP_LABEL, GROUP_SHORT, GROUP_SIZE = "KEU9", "K9", 9
GLOBAL_PRODUCT = 7
LINKS_K = 4
# Admits the program's central difference (roundoff ~1e-13) and an exact
# derivative d: the O(h^2) bias of the h = 0.01 difference stayed below
# 2e-4 (|d| + 1e-8) on these inputs.
SENSITIVITY_RTOL, SENSITIVITY_ATOL = 1e-3, 1e-8
PAGERANK_L1_TOL = 1e-8  # the acceptance suite's rank-oracle bound
REDUCED_TOL = 1e-10
# labor-cost columns checked against the oracle per run, chosen by the seed; the
# dense oracle costs ~60 ms a column, so all 194 would add ~12 s to every run
LABOR_COLUMNS = 48
FIXED_POINT_TOL = 1e-10


@dataclass
class Op:
    """One attempted operation: its timing, its output and any failure.

    ``start`` and ``end`` are HostClock readings; ``seconds`` is filled in with
    the speed-corrected duration once the clock has stopped.
    """

    name: str
    start: float = 0.0
    end: float = 0.0
    seconds: float = 0.0
    out: object = None
    problems: list = field(default_factory=list)


def attempt(name: str, fn, clock: HostClock) -> Op:
    op = Op(name)
    op.start = clock.now()
    try:
        op.out = fn()
    except Exception as exc:  # a failing operation is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        op.problems.append(f"raised {type(exc).__name__}: {exc}")
    except SystemExit as exc:  # argparse rejecting a command line
        op.problems.append(f"exited with {exc.code}")
    op.end = clock.now()
    return op


def close(a, b, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
                       <= tol))


def sensitivity_tol(want: np.ndarray) -> np.ndarray:
    return SENSITIVITY_ATOL + SENSITIVITY_RTOL * np.abs(want)


def pick(seed: int, ids, count: int) -> list[str]:
    """Countries chosen by the seed, on a stream apart from the generator's."""
    rng = np.random.default_rng([seed, 1])
    return [ids[i] for i in rng.choice(len(ids), size=count, replace=False)]


class Truth:
    """Oracle values for one generated network, computed on first use."""

    def __init__(self, net: inputs.Network):
        self.net = net
        self.cube = net.money_cube()

    @cached_property
    def google(self) -> dict:
        return {d: oracle.google(self.cube, d) for d in oracle.DIRECTIONS}

    @cached_property
    def node_probs(self) -> dict:
        return {d: oracle.stationary(*self.google[d]) for d in oracle.DIRECTIONS}

    @cached_property
    def country_probs(self) -> dict:
        n_c = self.net.n_countries
        return {d: p.reshape(-1, n_c).sum(axis=0) for d, p in self.node_probs.items()}

    @cached_property
    def rank_balance_tol(self) -> np.ndarray:
        # a balance moves by at most 2 |dP| / (P + P*) when P and P* move by |dP|
        return 2 * PAGERANK_L1_TOL / sum(self.country_probs.values())

    def labor_columns(self, targets) -> np.ndarray:
        """Dense central-difference labor-cost matrix columns for target indexes."""
        return np.column_stack([
            oracle.central_difference(self.cube, oracle.labor_shock(c), oracle.rank_balance)
            for c in targets])

    def check_ingest(self, countries, products, rows_used, self_flows, duplicates,
                     volume) -> list[str]:
        net = self.net
        want = {"countries": net.n_countries, "products": len(inputs.PRODUCTS),
                "rows_used": net.n_flows + net.duplicate_rows,
                "self_flows_dropped": net.self_flow_rows,
                "duplicates_merged": net.duplicate_rows, "volume": float(net.value.sum())}
        got = {"countries": countries, "products": products, "rows_used": rows_used,
               "self_flows_dropped": self_flows, "duplicates_merged": duplicates,
               "volume": volume}
        return [f"{k} is {got[k]}, expected {want[k]}" for k in want if got[k] != want[k]]

    def check_ingest_result(self, r) -> list[str]:
        m = r.money
        return self.check_ingest(m.n_countries, m.n_products, r.rows_used,
                                 r.self_flows_dropped, r.duplicates_merged, m.total_volume())


def read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_flows_csv(path: Path, cube: np.ndarray, ids) -> list[str]:
    """A written trade CSV holds exactly the nonzero entries of ``cube``."""
    rows = read_csv(path)[1:]
    index = {c: i for i, c in enumerate(ids)}
    got = np.zeros_like(cube)
    for _, exporter, importer, product, value in rows:
        got[int(product), index[importer], index[exporter]] += float(value)
    if len(rows) != np.count_nonzero(cube) or not np.array_equal(got, cube):
        return [f"{path.name} differs from the expected {np.count_nonzero(cube)} flows"]
    return []


def check_order(name: str, ranks, values, tol: float) -> list[str]:
    """Rank indexes form 1..n and follow descending oracle values within tol."""
    ranks = np.asarray(ranks, dtype=np.int64)
    if sorted(ranks.tolist()) != list(range(1, ranks.size + 1)):
        return [f"{name} is not a permutation of 1..{ranks.size}"]
    ordered = np.asarray(values)[np.argsort(ranks)]
    if np.any(np.diff(ordered) > tol):
        return [f"{name} disagrees with the oracle ordering"]
    return []


# --------------------------------------------------------------------------
# Workloads


class PaperCli:
    """The analyst's interactive path through ``wtnrank.cli.main`` at 194 x 10."""

    name = "paper-cli"
    n_countries = 194
    setup_repeats = 15  # one set-up takes ~0.2 s; the median of many is steadier
    threaded_pass = False  # the CLI path never reaches a threaded BLAS call

    def setup(self, seed: int, work: Path, clock: HostClock) -> dict:
        net = inputs.generate(seed, self.n_countries)
        (work / "trade.csv").write_bytes(net.csv_bytes)
        chosen = pick(seed, net.ids, GROUP_SIZE + 4)
        members, actors, target = sorted(chosen[:GROUP_SIZE]), chosen[GROUP_SIZE:-1], chosen[-1]
        group = {"label": GROUP_LABEL, "short": GROUP_SHORT, "members": members}
        (work / "group.json").write_text(json.dumps(group), encoding="utf-8")
        return {"net": net, "work": work, "members": members, "actors": actors,
                "target": target, "clock": clock, "ops": []}

    def commands(self, state) -> list[tuple[str, list[str]]]:
        group = ["--merge-config", str(state["work"] / "group.json")]
        return [
            ("ingest", ["ingest"]),
            ("merge", ["merge", *group]),
            ("rank", ["rank"]),
            ("balance", ["balance"]),
            ("sensitivity_global", ["sensitivity", "--perturb", "global",
                                    "--product", str(GLOBAL_PRODUCT)]),
            ("sensitivity_labor", ["sensitivity", "--perturb", "labor",
                                   "--target", state["target"]]),
            ("regomax", ["regomax", *group, "--actors",
                         ",".join([GROUP_LABEL, *state["actors"]]), "--k", str(LINKS_K)]),
        ]

    def run_pass(self, state, pass_dir: Path, tracer: Tracer | None) -> list[Op]:
        from wtnrank.cli import main

        ops = []
        for name, command in self.commands(state):
            out_dir = pass_dir / name
            argv = [command[0], "--input", str(state["work"] / "trade.csv"),
                    "--year", str(inputs.YEAR), "--out-dir", str(out_dir), *command[1:]]
            if tracer is None:
                op = attempt(name, lambda: main(argv), state["clock"])
            else:
                with tracer.span(f"cli.{name}"):
                    op = attempt(name, lambda: main(argv), state["clock"])
            if op.out not in (0, None):
                op.problems.append(f"exit code {op.out}")
            op.out = out_dir
            ops.append(op)
        return ops

    def check(self, state, op: Op) -> list[str]:
        truth = state["truth"]
        return getattr(self, f"_check_{op.name}")(state, truth, op.out)

    def _check_ingest(self, state, truth: Truth, out: Path) -> list[str]:
        s = read_json(out / "ingest_summary.json")
        problems = truth.check_ingest(s["countries"], s["products"], s["rows_used"],
                                      s["self_flows_dropped"], s["duplicates_merged"],
                                      s["total_volume_usd"])
        return problems + check_flows_csv(out / "money.csv", truth.cube, truth.net.ids)

    def _merged(self, state, truth: Truth):
        if "merged" not in state:
            state["merged"] = oracle.merge(truth.cube, truth.net.ids, state["members"],
                                           GROUP_LABEL)
        return state["merged"]

    def _check_merge(self, state, truth: Truth, out: Path) -> list[str]:
        cube, ids = self._merged(state, truth)
        s = read_json(out / "merge_summary.json")
        want = {"countries_before": truth.net.n_countries, "countries_after": len(ids),
                "total_volume_before": float(truth.cube.sum()),
                "total_volume_after": float(cube.sum())}
        problems = [f"{k} is {s.get(k)}, expected {v}" for k, v in want.items()
                    if s.get(k) != v]
        return problems + check_flows_csv(out / "merged.csv", cube, ids)

    def _check_rank(self, state, truth: Truth, out: Path) -> list[str]:
        plane = read_csv(out / "rank_plane.csv")
        ids = truth.net.ids
        if [r[0] for r in plane[1:]] != list(ids):
            return ["rank_plane.csv lists other countries"]
        ranks = np.array([[int(x) for x in r[1:]] for r in plane[1:]])
        cube = truth.cube
        problems = []
        for k, (name, values, tol) in enumerate((
                ("pagerank_index", truth.country_probs["direct"], 1e-10),
                ("cheirank_index", truth.country_probs["inverted"], 1e-10),
                ("importrank_index", cube.sum(axis=(0, 2)), 0.0),
                ("exportrank_index", cube.sum(axis=(0, 1)), 0.0))):
            problems += check_order(name, ranks[:, k], values, tol)
        table = read_csv(out / "rank_table.csv")[1:]
        for r, row in enumerate(table, start=1):
            for k, country in enumerate(row[1:]):
                if ranks[ids.index(country), k] != r:
                    problems.append(f"rank_table.csv row {r} column {k + 1} is {country}")
        if len(table) != 20:
            problems.append(f"rank_table.csv has {len(table)} rows, expected 20")
        return problems

    def _check_balance(self, state, truth: Truth, out: Path) -> list[str]:
        problems = []
        for stem, want, tol in (
                ("balance_rank", oracle.rank_balance(truth.cube), truth.rank_balance_tol),
                ("balance_volume", oracle.volume_balance(truth.cube), 1e-12)):
            rows = read_csv(out / f"{stem}.csv")[1:]
            got = np.array([float(r[1]) for r in rows])
            twin = read_json(out / f"{stem}.json")["balances"]
            if [r[0] for r in rows] != list(truth.net.ids) or not close(got, want, tol):
                problems.append(f"{stem}.csv differs from the closed form")
            if [b["balance"] for b in twin] != got.tolist():
                problems.append(f"{stem}.json differs from {stem}.csv")
        return problems

    def _check_sensitivity(self, truth: Truth, out: Path, shock, target) -> list[str]:
        problems = []
        for stem, balance_fn in (("sensitivity_rank", oracle.rank_balance),
                                 ("sensitivity_volume", oracle.volume_balance)):
            rows = read_csv(out / f"{stem}.csv")[1:]
            want = oracle.central_difference(truth.cube, shock, balance_fn)
            got = np.array([float(r[1]) for r in rows])
            if [r[0] for r in rows] != list(truth.net.ids) \
                    or not close(got, want, sensitivity_tol(want)):
                problems.append(f"{stem}.csv differs from the dense central difference")
            if [r[0] for r in rows if r[2] == "true"] != ([target] if target else []):
                problems.append(f"{stem}.csv marks the wrong diagonal")
        return problems

    def _check_sensitivity_global(self, state, truth: Truth, out: Path) -> list[str]:
        return self._check_sensitivity(truth, out, oracle.product_shock(GLOBAL_PRODUCT),
                                       None)

    def _check_sensitivity_labor(self, state, truth: Truth, out: Path) -> list[str]:
        target = state["target"]
        return self._check_sensitivity(
            truth, out, oracle.labor_shock(truth.net.ids.index(target)), target)

    def _check_regomax(self, state, truth: Truth, out: Path) -> list[str]:
        cube, ids = self._merged(state, truth)
        n_c = len(ids)
        actors = [GROUP_LABEL, *state["actors"]]
        idx = np.array([p * n_c + ids.index(a) for a in actors
                        for p in range(len(inputs.PRODUCTS))])
        problems = []
        for direction in oracle.DIRECTIONS:
            key = f"schur_{direction}"
            if key not in state:
                blocks, v = oracle.google(cube, direction)
                g = oracle.effective_columns(blocks, v, range(cube.shape[0] * n_c))
                state[key] = (oracle.schur(g, idx), g[np.ix_(idx, idx)])
            g_r, g_rr = state[key]
            parts = {}
            for part in ("gr", "grr", "gpr", "gqr"):
                rows = read_csv(out / f"regomax_{direction}_{part}.csv")
                parts[part] = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
            if not close(parts["gr"], g_r, REDUCED_TOL):
                problems.append(f"{direction} G_R differs from the explicit Schur complement")
            if not close(parts["grr"], g_rr, 1e-12):
                problems.append(f"{direction} G_rr differs from the oracle")
            if not close(parts["grr"] + parts["gpr"] + parts["gqr"], parts["gr"],
                         REDUCED_TOL):
                problems.append(f"{direction} G_rr + G_pr + G_qr does not close to G_R")
            dot = (out / f"regomax_{direction}.dot").read_text(encoding="utf-8")
            edges = dot.count('" -> "')
            if edges != idx.size * LINKS_K:
                problems.append(f"{direction} DOT has {edges} edges")
        return problems


class LaborSweep:
    """The paper's country x country labor-cost map over all 194 targets."""

    name = "labor-sweep"
    n_countries = 194
    setup_repeats = 3
    threaded_pass = False  # sparse products and small vector operations

    def setup(self, seed: int, work: Path, clock: HostClock) -> dict:
        return ingest_setup(seed, work, self.n_countries, clock)

    def run_pass(self, state, pass_dir: Path, tracer: Tracer | None) -> list[Op]:
        from wtnrank import RANK_BASED, labor_cost_matrix

        return [attempt("labor_cost_matrix",
                        lambda: labor_cost_matrix(state["money"], RANK_BASED), state["clock"])]

    def check(self, state, op: Op) -> list[str]:
        truth = state["truth"]
        if op.name == "ingest":
            return truth.check_ingest_result(op.out)
        m = op.out
        ids = tuple(truth.net.ids)
        if tuple(m.countries) != ids or tuple(m.targets) != ids:
            return ["labor-cost matrix lists other countries"]
        if m.derivatives.shape != (len(ids), len(ids)):
            return [f"labor-cost matrix has shape {m.derivatives.shape}"]
        if "labor_columns" not in state:
            targets = sorted(ids.index(c) for c in pick(state["seed"], ids, LABOR_COLUMNS))
            state["labor_columns"] = (targets, truth.labor_columns(targets))
        targets, want = state["labor_columns"]
        got = m.derivatives[:, targets]
        if not close(got, want, sensitivity_tol(want)):
            worst = float(np.abs(got - want).max())
            return [f"labor-cost matrix is {worst:.2e} from the dense central difference"]
        return []


class StressRegomax:
    """Reduced Google matrix of 4 actors x 10 products at 600 x 10 (N = 6000)."""

    name = "stress-regomax"
    n_countries = 600
    setup_repeats = 1  # one set-up takes ~15 s; more would not fit the run budget
    # reduce keeps both cores busy with BLAS threads, which would slow the
    # reference kernel by themselves; pass times are left as measured
    threaded_pass = True

    def setup(self, seed: int, work: Path, clock: HostClock) -> dict:
        state = ingest_setup(seed, work, self.n_countries, clock)
        actors = pick(seed, state["net"].ids, 4)
        state["selection"] = [(a, p) for a in actors for p in inputs.PRODUCTS]
        return state

    def run_pass(self, state, pass_dir: Path, tracer: Tracer | None) -> list[Op]:
        from wtnrank import build_google, pagerank, reduce, strongest_links

        ops, clock = [], state["clock"]
        for direction in oracle.DIRECTIONS:
            build = attempt(f"build_google.{direction}",
                            lambda: build_google(state["money"], direction), clock)
            g = build.out
            rank = attempt(f"pagerank.{direction}", lambda: pagerank(g), clock)
            red = attempt(f"reduce.{direction}", lambda: reduce(g, state["selection"]), clock)
            links = attempt(f"strongest_links.{direction}",
                            lambda: strongest_links(red.out.g_r, LINKS_K), clock)
            if g is not None:  # keep what the checks need, not the N x N matrix
                build.out = (np.asarray(g.stochastic.sum(axis=0)).ravel(),
                             g.personalization.copy())
            if not links.problems:
                links.out = (links.out, red.out.g_r)
            ops += [build, rank, red, links]
        return ops

    def check(self, state, op: Op) -> list[str]:
        truth = state["truth"]
        if op.name == "ingest":
            return truth.check_ingest_result(op.out)
        kind, direction = op.name.split(".")
        blocks, v = truth.google[direction]
        if kind == "build_google":
            colsum, personalization = op.out
            ok = close(colsum, 1.0, 1e-12) and close(personalization, v, 1e-12 * v.max())
            return [] if ok else [f"{direction} Google matrix is not the oracle's"]
        if kind == "pagerank":
            p = op.out.node_probs
            problems = []
            if float(np.abs(p - truth.node_probs[direction]).sum()) > PAGERANK_L1_TOL:
                problems.append(f"{direction} PageRank is off the dense solve")
            if float(np.abs(oracle.apply(blocks, v, p) - p).sum()) > FIXED_POINT_TOL:
                problems.append(f"{direction} PageRank fixed-point residual too large")
            return problems
        if kind == "reduce":
            return self._check_reduced(state, truth, direction, op.out)
        return self._check_links(*op.out, direction)

    def _node_index(self, state, truth: Truth) -> np.ndarray:
        n_c = truth.net.n_countries
        return np.array([inputs.PRODUCTS.index(p) * n_c + truth.net.ids.index(c)
                         for c, p in state["selection"]])

    def _check_reduced(self, state, truth: Truth, direction: str, r) -> list[str]:
        idx = self._node_index(state, truth)
        blocks, v = truth.google[direction]
        problems = []
        if not close(r.g_r.sum(axis=0), 1.0, REDUCED_TOL):
            problems.append(f"{direction} G_R is not column-stochastic")
        if not close(r.g_rr + r.g_pr + r.g_qr, r.g_r, REDUCED_TOL):
            problems.append(f"{direction} G_rr + G_pr + G_qr does not close to G_R")
        if r.g_r.min() < 0.0:
            problems.append(f"{direction} G_R has a negative entry {r.g_r.min():.2e}")
        if not close(r.g_rr, oracle.effective_columns(blocks, v, idx)[idx], 1e-12):
            problems.append(f"{direction} G_rr differs from the oracle")
        # the global PageRank restricted to r is a fixed point of G_R
        restricted = truth.node_probs[direction][idx]
        if not close(r.g_r @ restricted, restricted, FIXED_POINT_TOL):
            problems.append(f"{direction} G_R does not preserve the restricted PageRank")
        return problems

    def _check_links(self, edges, g_r: np.ndarray, direction: str) -> list[str]:
        n = g_r.shape[0]
        if len(edges) != n * LINKS_K:
            return [f"{direction} has {len(edges)} strongest links, expected {n * LINKS_K}"]
        for src in range(n):
            column = np.delete(g_r[:, src], src)
            kept = sorted(w for s, _, w in edges if s == src)
            if not close(kept, np.sort(column)[-LINKS_K:], 0.0):
                return [f"{direction} strongest links of node {src} are not the largest"]
        return []


def ingest_setup(seed: int, work: Path, n_countries: int, clock: HostClock) -> dict:
    """Generate, write and ingest the money set; the ingest is a checked operation."""
    from wtnrank import ingest_csv

    net = inputs.generate(seed, n_countries)
    path = work / "trade.csv"
    path.write_bytes(net.csv_bytes)
    op = attempt("ingest", lambda: ingest_csv(str(path), inputs.YEAR), clock)
    return {"net": net, "money": getattr(op.out, "money", None), "clock": clock,
            "seed": seed, "ops": [op]}


WORKLOADS = {w.name: w for w in (PaperCli(), LaborSweep(), StressRegomax())}

# --------------------------------------------------------------------------
# Metrics

END_TO_END = (("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
CLI_OPS = ("ingest", "merge", "rank", "balance", "sensitivity_global",
           "sensitivity_labor", "regomax")


# (metric, layer, span field): exact counts per pass
COUNTS = (
    ("trade_data.ingest_csv.calls", "trade_data.ingest_csv", "calls"),
    ("google_matrix.build_google.calls", "google_matrix.build_google", "calls"),
    ("ranks.pagerank.calls", "ranks.pagerank", "calls"),
    ("ranks.pagerank.iterations", "ranks.pagerank", "work"),
    ("regomax.reduce.calls", "regomax.reduce", "calls"),
    ("regomax.reduce.series_terms", "regomax.reduce", "work"),
)


def per_layer_names() -> list[tuple[str, str]]:
    names = [(f"{layer}.self_s", "s") for layer, *_ in LAYERS]
    names += [(metric, "count") for metric, *_ in COUNTS]
    names += [("trade_data.ingest_csv.rows_per_s", "1/s"),
              ("sensitivity.solves_per_target", "solves/target")]
    names += [(f"cli.{op}.s", "s") for op in CLI_OPS]
    names += [("cli.self_s", "s"), ("trace.pass_s", "s"), ("trace.untraced_pass_s", "s"),
              ("trace.overhead_ratio", "ratio"), ("host.scale_ratio", "ratio")]
    return names


def layer_metrics(tracer: Tracer, pass_ids, traced_pass_s, untraced_pass_s, wall_pass_s):
    """Per-layer values (median over traced passes) and the base of each ratio or count."""
    tables = tracer.per_pass(pass_ids)

    def med(fn) -> float:
        return float(statistics.median(fn(t) for t in tables))

    def field_of(name, key) -> float:
        return med(lambda t: t.get(name, {}).get(key, 0))

    values = {f"{layer}.self_s": field_of(layer, "self_s") for layer, *_ in LAYERS}
    notes = {}
    for metric, layer, key in COUNTS:
        values[metric] = field_of(layer, key)
        notes[metric] = "per pass" if key == "calls" else (
            f"summed result counts of {field_of(layer, 'calls'):g} calls per pass")

    ingests = [s for s in tracer.spans if s.name == "trade_data.ingest_csv"]
    rows = sum(s.work or 0 for s in ingests)
    seconds = sum(s.end - s.start for s in ingests)
    values["trade_data.ingest_csv.rows_per_s"] = rows / seconds if seconds else 0.0
    notes["trade_data.ingest_csv.rows_per_s"] = (
        f"{rows} IngestResult.rows_used over {len(ingests)} calls, set-up included")

    targets = field_of("sensitivity.balance_sensitivity", "calls")
    solves = float(statistics.median(
        tracer.calls_under("ranks.pagerank", "sensitivity.balance_sensitivity", pid)
        for pid in pass_ids))
    values["sensitivity.solves_per_target"] = solves / targets if targets else 0.0
    notes["sensitivity.solves_per_target"] = (
        f"{solves:g} pagerank calls inside {targets:g} balance_sensitivity calls per pass")

    for op in CLI_OPS:
        values[f"cli.{op}.s"] = field_of(f"cli.{op}", "total_s")
    values["cli.self_s"] = med(lambda t: sum(row["self_s"] for name, row in t.items()
                                             if name.startswith("cli.")))
    values["trace.pass_s"] = traced_pass_s
    values["trace.untraced_pass_s"] = untraced_pass_s
    values["trace.overhead_ratio"] = traced_pass_s / untraced_pass_s
    notes["trace.overhead_ratio"] = "median traced pass over median untraced pass"
    values["host.scale_ratio"] = untraced_pass_s / wall_pass_s
    notes["host.scale_ratio"] = "median host-corrected pass over median wall-clock pass"

    # a layer that the workload's passes never call reads 0; say so beside it
    called = {name for t in tables for name, row in t.items() if row["calls"]}
    idle = {layer for layer, *_ in LAYERS} | {f"cli.{op}" for op in CLI_OPS}
    idle -= called
    for metric in values:
        if metric.rsplit(".", 1)[0] in idle and not metric.endswith(".rows_per_s"):
            notes[metric] = "not exercised on this workload"
    if all(f"cli.{op}" in idle for op in CLI_OPS):
        notes["cli.self_s"] = "not exercised on this workload"
    if not targets:
        notes["sensitivity.solves_per_target"] = "not exercised on this workload"
    return values, notes


# --------------------------------------------------------------------------
# Environment


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded; read, never set."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def l3_bytes() -> int | None:
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype, libc.sysconf.argtypes = ctypes.c_long, [ctypes.c_int]
        size = libc.sysconf(194)  # _SC_LEVEL3_CACHE_SIZE in glibc
    except (OSError, AttributeError):
        return None
    return int(size) if size > 0 else None


def environment(props: dict) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "l3_bytes": l3_bytes(),
        "input_sha256": props["csv_sha256"],
    }


# --------------------------------------------------------------------------
# Running a workload


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    clock = HostClock()
    tracer = Tracer(clock.now) if trace else None
    clock.start()
    setups, state = [], None
    for _ in range(workload.setup_repeats):
        state = None  # release the previous set-up before building the next
        start = clock.now()
        if tracer is None:
            state = workload.setup(seed, work, clock)
        else:
            with tracer.installed():
                state = workload.setup(seed, work, clock)
        setups.append((start, clock.now()))
    ops = list(state["ops"])
    if workload.threaded_pass:
        clock.pause()

    def passes(label: str, count: int | None) -> list[list[Op]]:
        """Closed-loop passes: ``count`` of them, or until ``seconds`` have passed."""
        done, start = [], clock.now()

        def more() -> bool:
            if count is not None:
                return len(done) < count
            return not done or clock.now() - start < seconds

        while more():
            pass_id = f"{label}{len(done)}"
            if tracer is not None and label == "traced":
                tracer.pass_id = pass_id
                with tracer.installed():
                    pass_ops = workload.run_pass(state, work / pass_id, tracer)
            else:
                pass_ops = workload.run_pass(state, work / pass_id, None)
            done.append(pass_ops)
            ops.extend(pass_ops)
        return done

    untraced = passes("pass", None)
    traced = passes("traced", len(untraced)) if trace else []
    clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op in ops:
        op.seconds = clock.duration(op.start, op.end)
    if tracer is not None:
        for span in tracer.spans:
            span.start, span.end = clock.scaled(span.start), clock.scaled(span.end)

    def pass_seconds(pass_ops) -> float:
        return sum(op.seconds for op in pass_ops)

    def pass_wall(pass_ops) -> float:
        return sum(op.end - op.start for op in pass_ops)

    checks_start = time.perf_counter()
    state["truth"] = Truth(state["net"])
    for op in ops:
        if op.problems:
            continue
        try:
            op.problems += workload.check(state, op)
        except Exception as exc:  # an unreadable output fails its operation
            traceback.print_exc(file=sys.stderr)
            op.problems.append(f"check raised {type(exc).__name__}: {exc}")

    checks_s = time.perf_counter() - checks_start
    return {"setup": [clock.duration(a, b) for a, b in setups], "checks_s": checks_s,
            "setup_wall": [b - a for a, b in setups],
            "setup_ingest": [op.seconds for op in state["ops"]],
            "passes": [pass_seconds(p) for p in untraced],
            "pass_wall": [pass_wall(p) for p in untraced],
            "traced": [pass_seconds(p) for p in traced],
            "reference_s": clock.reference_s(), "references": len(clock.marks),
            "peak_rss_mb": peak_rss_mb, "ops": ops, "net": state["net"], "tracer": tracer}


def report(workload, args, outcome) -> dict:
    props = outcome["net"].properties()
    print("environment " + json.dumps(environment(props), sort_keys=True))
    print("input " + json.dumps(props, sort_keys=True))
    ops = outcome["ops"]
    failed = [op for op in ops if op.problems]
    for op in failed:
        print(f"FAILED {op.name}: {'; '.join(op.problems)}")
    print(f"failed_share = {len(failed)}/{len(ops)} operations, "
          f"checked in {outcome['checks_s']:.1f} s")
    by_name: dict[str, list[float]] = {}
    for op in ops:
        by_name.setdefault(op.name, []).append(op.seconds)
    for name, times in by_name.items():
        print(f"op {name}: median {statistics.median(times):.4f} s over {len(times)} calls")

    passes = outcome["passes"]
    print(f"host correction: reference kernel median {1e3 * outcome['reference_s']:.2f} ms"
          f" over {outcome['references']} runs, timings scaled to {1e3 * NOMINAL_S:.0f} ms"
          + (", pass times left as wall-clock" if workload.threaded_pass else ""))
    if outcome["setup_ingest"]:
        print(f"setup ingest_csv = {statistics.median(outcome['setup_ingest']):.6g} s")
    end_to_end = {
        "pass_s": (statistics.median(passes),
                   f"median of {len(passes)} passes; unscaled wall "
                   f"{statistics.median(outcome['pass_wall']):.4g} s"),
        "setup_s": (statistics.median(outcome["setup"]),
                    f"median of {len(outcome['setup'])} set-ups; unscaled wall "
                    f"{statistics.median(outcome['setup_wall']):.4g} s"),
        "peak_rss_mb": (outcome["peak_rss_mb"], "ru_maxrss after the passes"),
    }
    metrics = {}
    for name, unit in END_TO_END:
        value, note = end_to_end[name]
        print(f"{name} = {value:.6g} {unit} ({note})")
        if not args.trace:
            metrics[name] = {"value": value, "unit": unit}
    if args.trace:
        tracer = outcome["tracer"]
        pass_ids = [f"traced{k}" for k in range(len(outcome["traced"]))]
        values, notes = layer_metrics(tracer, pass_ids, statistics.median(outcome["traced"]),
                                      statistics.median(passes),
                                      statistics.median(outcome["pass_wall"]))
        for name, unit in per_layer_names():
            note = f" ({notes[name]})" if name in notes else ""
            print(f"{name} = {values[name]:.6g} {unit}{note}")
            metrics[name] = {"value": values[name], "unit": unit}
        if tracer.absent:
            print("absent from the library: " + ", ".join(tracer.absent))
        RUN_DIR.mkdir(exist_ok=True)
        spans = RUN_DIR / f"spans-{workload.name}-seed{args.seed}.json"
        spans.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        print(f"spans written to {spans.relative_to(ROOT)}")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wtnrank" / "__init__.py").is_file():
        print(f"bench: no wtnrank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wtnrank

    if Path(wtnrank.__file__).resolve().parent != SRC / "wtnrank":
        print(f"bench: imported wtnrank from {wtnrank.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = RUN_DIR / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome = run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report(workload, args, outcome)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
