"""Command-line front end: ingest -> merge -> rank -> balance/sensitivity -> regomax.

Exit codes: 0 success, 2 usage or validation failure, 3 numerical failure.
With --json-errors a machine-readable error object is printed to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import regomax as regomax_mod
from . import sensitivity as sens_mod
from ._io import write_csv, write_json
from .errors import ConvergenceError, EmptyDataError, ParseError, ValidationError
from .google_matrix import DEFAULT_DAMPING, DIRECT, INVERTED, build_google
from .ranks import DEFAULT_MAX_ITER, DEFAULT_TOL, pagerank, rank_table
from .synth import (
    DEFAULT_COUNTRIES,
    DEFAULT_DENSITY,
    DEFAULT_PRODUCTS,
    DEFAULT_YEAR,
    gravity_money_set,
)
from .trade_data import (
    canonical_country_id,
    canonical_product_code,
    ingest_csv,
    load_group_config,
    merge_country_group,
    volume_probabilities,
    write_trade_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_PERTURB_KINDS = {
    "global": sens_mod.GLOBAL_PRODUCT,
    "country": sens_mod.COUNTRY_PRODUCT,
    "labor": sens_mod.LABOR_COST,
}


class UsageError(Exception):
    """A command line that ``parser`` rejects."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it as argparse would, or as JSON
        raise UsageError(self, message)


def build_parser() -> argparse.ArgumentParser:
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--input", required=True, help="trade-flow CSV path")
    inputs.add_argument("--year", type=int, required=True, help="year to analyze")
    inputs.add_argument("--merge-config", default=None,
                        help="optional JSON group config applied after ingest")
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--out-dir", default=".", help="output directory")
    outputs.add_argument("--json-errors", action="store_true",
                         help="emit errors as JSON on stderr")
    damping = argparse.ArgumentParser(add_help=False)
    damping.add_argument("--alpha", type=float, default=DEFAULT_DAMPING,
                         help="damping factor (default %(default)s)")
    solver = argparse.ArgumentParser(add_help=False, parents=[damping])
    solver.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="L1 tolerance of each iterative solve (default %(default)s)")
    solver.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                        help="step cap of each iterative solve (default %(default)s)")

    parser = _Parser(
        prog="wtnrank",
        description="Google matrix analysis of multiproduct trade networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[inputs, outputs],
                       help="validate a trade CSV and write its canonical form")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("merge", parents=[inputs, outputs],
                       help="merge a country group and write the result")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("rank", parents=[inputs, outputs, solver],
                       help="rank table and rank-plane coordinates")
    p.add_argument("--top", type=int, default=20, help="rows in the rank table")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="rank table format (default %(default)s)")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("balance", parents=[inputs, outputs, solver],
                       help="trade balances in both descriptions")
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("sensitivity", parents=[inputs, outputs, solver],
                       help="balance derivatives under a shock")
    p.add_argument("--perturb", choices=_PERTURB_KINDS, required=True, help="shock kind")
    p.add_argument("--product", default=None, help="product code for product shocks")
    p.add_argument("--target", default=None, help="country applying the shock")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("regomax", parents=[inputs, outputs, damping],
                       help="reduced Google matrices for selected actors")
    p.add_argument("--actors", required=True,
                   help="comma-separated country ids to keep")
    p.add_argument("--k", type=int, default=4,
                   help="strongest outgoing links per node (default %(default)s)")
    p.set_defaults(func=cmd_regomax)

    p = sub.add_parser("synth", parents=[outputs],
                       help="generate a seeded gravity-model fixture")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--countries", type=int, default=DEFAULT_COUNTRIES)
    p.add_argument("--products", type=int, default=DEFAULT_PRODUCTS)
    p.add_argument("--year", type=int, default=DEFAULT_YEAR)
    p.add_argument("--density", type=float, default=DEFAULT_DENSITY)
    p.set_defaults(func=cmd_synth)

    return parser


def _out_path(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _load_money(args):
    """(money, ingest result, group config or None): --input merged by --merge-config."""
    result = ingest_csv(args.input, args.year)
    if not args.merge_config:
        return result.money, result, None
    group = load_group_config(args.merge_config)
    label, members, short = group
    return merge_country_group(result.money, members, label, short=short), result, group


def cmd_ingest(args) -> int:
    money, result, _ = _load_money(args)
    write_trade_csv(money, _out_path(args, "money.csv"))
    summary = {
        "year": money.year,
        "countries": money.n_countries,
        "products": money.n_products,
        "rows_used": result.rows_used,
        "self_flows_dropped": result.self_flows_dropped,
        "duplicates_merged": result.duplicates_merged,
        "total_volume_usd": money.total_volume(),
    }
    write_json(summary, _out_path(args, "ingest_summary.json"))
    return EXIT_OK


def cmd_merge(args) -> int:
    if not args.merge_config:
        raise ValidationError("merge requires --merge-config")
    merged, result, (label, members, _) = _load_money(args)
    write_trade_csv(merged, _out_path(args, "merged.csv"))
    summary = {
        "label": label,
        "members": sorted(set(members)),
        "countries_before": result.money.n_countries,
        "countries_after": merged.n_countries,
        "total_volume_before": result.money.total_volume(),
        "total_volume_after": merged.total_volume(),
    }
    write_json(summary, _out_path(args, "merge_summary.json"))
    return EXIT_OK


def cmd_rank(args) -> int:
    money = _load_money(args)[0]
    direct = pagerank(build_google(money, DIRECT, args.alpha), args.tol, args.max_iter)
    inverted = pagerank(build_google(money, INVERTED, args.alpha), args.tol, args.max_iter)
    volumes = volume_probabilities(money)
    rows = rank_table(direct, inverted, volumes, args.top)
    if args.format == "json":
        write_json(rows, _out_path(args, "rank_table.json"))
    else:
        write_csv(rows[0].keys(), (row.values() for row in rows),
                  _out_path(args, "rank_table.csv"))

    header = ["country", "pagerank_index", "cheirank_index",
              "importrank_index", "exportrank_index"]
    rows = zip(money.countries.ids, direct.country_rank, inverted.country_rank,
               volumes.import_rank, volumes.export_rank)
    write_csv(header, rows, _out_path(args, "rank_plane.csv"))
    return EXIT_OK


def cmd_balance(args) -> int:
    money = _load_money(args)[0]
    for description, stem in ((sens_mod.RANK_BASED, "balance_rank"),
                              (sens_mod.VOLUME_BASED, "balance_volume")):
        report = sens_mod.balance_report(money, description, damping=args.alpha,
                                         tol=args.tol, max_iter=args.max_iter)
        sens_mod.write_balance_csv(report, _out_path(args, stem + ".csv"))
        sens_mod.write_balance_json(report, _out_path(args, stem + ".json"))
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    target = None if args.target is None else canonical_country_id(args.target)
    product = None if args.product is None else canonical_product_code(args.product)
    money = _load_money(args)[0]
    perturbation = sens_mod.Perturbation(
        _PERTURB_KINDS[args.perturb], product=product, target_country=target)
    for description, stem in ((sens_mod.RANK_BASED, "sensitivity_rank"),
                              (sens_mod.VOLUME_BASED, "sensitivity_volume")):
        report = sens_mod.balance_sensitivity(
            money, perturbation, description,
            damping=args.alpha, tol=args.tol, max_iter=args.max_iter)
        sens_mod.write_sensitivity_csv(report, _out_path(args, stem + ".csv"))
        sens_mod.write_sensitivity_json(report, _out_path(args, stem + ".json"))
    return EXIT_OK


def cmd_regomax(args) -> int:
    actors = [canonical_country_id(a) for a in args.actors.split(",") if a.strip()]
    if not actors:
        raise ValidationError("empty actor list")
    money = _load_money(args)[0]
    selection = [(actor, code) for actor in actors for code in money.products.codes]
    # both directions are reduced and linked before any file is written
    reductions = [regomax_mod.reduce(build_google(money, direction, args.alpha), selection)
                  for direction in (DIRECT, INVERTED)]
    links = [regomax_mod.strongest_links(reduced.g_r, args.k) for reduced in reductions]
    for reduced, edges in zip(reductions, links):
        direction, stem = reduced.direction, f"regomax_{reduced.direction}"
        for name, matrix in (("gr", reduced.g_r), ("grr", reduced.g_rr),
                             ("gpr", reduced.g_pr), ("gqr", reduced.g_qr)):
            regomax_mod.write_matrix_csv(
                matrix, reduced.labels, _out_path(args, f"{stem}_{name}.csv"))
        regomax_mod.write_dot(edges, reduced.labels, direction,
                              _out_path(args, stem + ".dot"))
        meta = {
            "direction": direction,
            "n_nodes": reduced.n_nodes,
            "nodes": [list(n) for n in reduced.nodes],
            "labels": list(reduced.labels),
            "lambda_c": reduced.lambda_c,
            "residuals": reduced.residuals,
            "k": args.k,
        }
        write_json(meta, _out_path(args, stem + ".json"))
    return EXIT_OK


def cmd_synth(args) -> int:
    money = gravity_money_set(args.seed, args.countries, args.products,
                              args.year, args.density)
    write_trade_csv(money, _out_path(args, "trade.csv"))
    return EXIT_OK


def _report_error(exc: Exception, json_errors: bool) -> None:
    if json_errors:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    else:
        print(f"wtnrank: error: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        # argparse takes any prefix of --json-errors: no other option starts with --j
        if not any(len(a) > 2 and "--json-errors".startswith(a) for a in argv):
            argparse.ArgumentParser.error(exc.parser, str(exc))  # usage text, exit 2
        _report_error(exc, True)
        raise SystemExit(EXIT_USAGE) from None
    try:
        return args.func(args)
    except (ParseError, ValidationError, EmptyDataError, OSError) as exc:
        _report_error(exc, args.json_errors)
        return EXIT_USAGE
    except ConvergenceError as exc:
        _report_error(exc, args.json_errors)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
