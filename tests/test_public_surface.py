"""The public surface, pinned: each subcommand's option strings and the names
that the package root exports.

A new option, or a name added to or dropped from ``wtnrank``, fails here until
this file lists it, so every change to the surface shows in the diff.
"""

import argparse
import types

import wtnrank
from wtnrank.cli import build_parser

COMMON = {"-h", "--help", "--json-errors", "--out-dir"}
INPUT = COMMON | {"--input", "--year", "--merge-config"}
SOLVER = {"--alpha", "--tol", "--max-iter"}

OPTIONS = {
    "ingest": INPUT,
    "merge": INPUT,
    "rank": INPUT | SOLVER | {"--top", "--format"},
    "balance": INPUT | SOLVER,
    "sensitivity": INPUT | SOLVER | {"--perturb", "--product", "--target", "--step"},
    "regomax": INPUT | {"--alpha", "--actors", "--k"},
    "synth": COMMON | {"--seed", "--countries", "--products", "--year", "--density"},
}

ROOT_NAMES = {
    "BalanceReport", "COUNTRY_PRODUCT", "ConvergenceError", "CountryRegistry",
    "DEFAULT_DAMPING", "DIRECT", "EmptyDataError", "GLOBAL_PRODUCT", "GoogleMatrix",
    "INVERTED", "IngestResult", "KEU9_CONFIG", "LABOR_COST", "LaborCostMatrix",
    "MoneyMatrixSet", "ParseError", "Perturbation", "ProductRegistry", "RANK_BASED",
    "RankVector", "ReducedGoogleMatrix", "SensitivityReport", "TradeFlowRecord",
    "VOLUME_BASED", "ValidationError", "VolumeProbabilities", "WtnError", "assign_ranks",
    "balance", "balance_report", "balance_sensitivity", "build_google",
    "gravity_money_set", "ingest_csv", "labor_cost_matrix", "load_group_config",
    "merge_country_group", "money_from_records", "pagerank",
    "personalization_vector", "perturb_money", "rank_table", "reduce",
    "strongest_links", "volume_probabilities", "write_trade_csv",
}


def test_cli_options():
    parser = build_parser()
    assert {s for action in parser._actions for s in action.option_strings} == {"-h", "--help"}
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {name: {s for action in sub._actions for s in action.option_strings}
           for name, sub in commands.choices.items()}
    assert got == OPTIONS
    assert all(action.option_strings for sub in commands.choices.values()
               for action in sub._actions)  # no positional arguments


def test_package_root_names():
    names = {name for name, value in vars(wtnrank).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == ROOT_NAMES
