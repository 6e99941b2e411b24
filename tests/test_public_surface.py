"""The public surface, pinned: each subcommand's options, in order with their
defaults, types, choices, required flags and help texts; the names that the
package root exports; the fields of its dataclasses; and the parameters of its
functions, with their defaults.

A new or changed option, a name added to or dropped from ``wtnrank``, or a field
or parameter added, dropped or reordered fails here until this file lists it, so
every change to the surface shows in the diff.
"""

import argparse
import dataclasses
import inspect
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
    "sensitivity": INPUT | SOLVER | {"--perturb", "--product", "--target"},
    "regomax": INPUT | {"--alpha", "--actors", "--k"},
    "synth": COMMON | {"--seed", "--countries", "--products", "--year", "--density"},
}

# (option strings, default, type, choices, required, help) of each option, in order
HELP = (("-h", "--help"), argparse.SUPPRESS, None, None, False, "show this help message and exit")
INPUT_DETAILS = [
    (("--input",), None, None, None, True, "trade-flow CSV path"),
    (("--year",), None, int, None, True, "year to analyze"),
    (("--merge-config",), None, None, None, False,
     "optional JSON group config applied after ingest"),
]
OUTPUT_DETAILS = [
    (("--out-dir",), ".", None, None, False, "output directory"),
    (("--json-errors",), False, None, None, False, "emit errors as JSON on stderr"),
]
ALPHA_DETAILS = [(("--alpha",), 0.5, float, None, False, "damping factor (default %(default)s)")]
SOLVER_DETAILS = ALPHA_DETAILS + [
    (("--tol",), 1e-12, float, None, False,
     "L1 tolerance of each iterative solve (default %(default)s)"),
    (("--max-iter",), 10000, int, None, False,
     "step cap of each iterative solve (default %(default)s)"),
]

OPTION_DETAILS = {
    "ingest": [HELP, *INPUT_DETAILS, *OUTPUT_DETAILS],
    "merge": [HELP, *INPUT_DETAILS, *OUTPUT_DETAILS],
    "rank": [HELP, *INPUT_DETAILS, *OUTPUT_DETAILS, *SOLVER_DETAILS,
             (("--top",), 20, int, None, False, "rows in the rank table"),
             (("--format",), "csv", None, ["csv", "json"], False,
              "rank table format (default %(default)s)")],
    "balance": [HELP, *INPUT_DETAILS, *OUTPUT_DETAILS, *SOLVER_DETAILS],
    "sensitivity": [HELP, *INPUT_DETAILS, *OUTPUT_DETAILS, *SOLVER_DETAILS,
                    (("--perturb",), None, None, ["global", "country", "labor"], True,
                     "shock kind"),
                    (("--product",), None, None, None, False, "product code for product shocks"),
                    (("--target",), None, None, None, False, "country applying the shock")],
    "regomax": [HELP, *INPUT_DETAILS, *OUTPUT_DETAILS, *ALPHA_DETAILS,
                (("--actors",), None, None, None, True, "comma-separated country ids to keep"),
                (("--k",), 4, int, None, False,
                 "strongest outgoing links per node (default %(default)s)")],
    "synth": [HELP, *OUTPUT_DETAILS,
              (("--seed",), None, int, None, True, None),
              (("--countries",), 12, int, None, False, None),
              (("--products",), 4, int, None, False, None),
              (("--year",), 2018, int, None, False, None),
              (("--density",), 0.75, float, None, False, None)],
}

ROOT_NAMES = {
    "BalanceReport", "COUNTRY_PRODUCT", "ConvergenceError", "CountryRegistry",
    "DEFAULT_DAMPING", "DIRECT", "EmptyDataError", "GLOBAL_PRODUCT", "GoogleMatrix",
    "INVERTED", "IngestResult", "KEU9_CONFIG", "LABOR_COST", "LaborCostMatrix",
    "MoneyMatrixSet", "ParseError", "Perturbation", "ProductRegistry", "RANK_BASED",
    "RankVector", "ReducedGoogleMatrix", "SensitivityReport",
    "VOLUME_BASED", "ValidationError", "VolumeProbabilities", "WtnError", "assign_ranks",
    "balance", "balance_report", "balance_sensitivity", "build_google",
    "gravity_money_set", "ingest_csv", "labor_cost_matrix", "load_group_config",
    "merge_country_group", "pagerank",
    "personalization_vector", "rank_table", "reduce",
    "strongest_links", "volume_probabilities", "write_trade_csv",
}

FIELDS = {
    "BalanceReport": ("description", "year", "countries", "balances"),
    "CountryRegistry": ("ids", "short_codes"),
    "GoogleMatrix": ("links", "damping", "personalization", "dangling", "direction",
                     "countries", "products"),
    "IngestResult": ("money", "rows_used", "self_flows_dropped", "duplicates_merged"),
    "LaborCostMatrix": ("description", "year", "countries", "targets", "derivatives"),
    "MoneyMatrixSet": ("matrices", "year", "countries", "products"),
    "Perturbation": ("kind", "product", "target_country"),
    "ProductRegistry": ("codes",),
    "RankVector": ("direction", "node_probs", "country_probs", "country_rank", "residual",
                   "iterations", "countries"),
    "ReducedGoogleMatrix": ("direction", "nodes", "labels", "g_r", "g_rr", "g_pr", "g_qr",
                            "lambda_c", "series_terms", "residuals"),
    "SensitivityReport": ("description", "perturbation", "year", "countries", "derivatives",
                          "diagonal"),
    "VolumeProbabilities": ("import_c", "export_c", "countries"),
}

# each function's parameters in order: a bare name, or (name, default)
SOLVER_PARAMS = (("damping", 0.5), ("tol", 1e-12), ("max_iter", 10000))
PARAMETERS = {
    "assign_ranks": ("probs",),
    "balance": ("export_probs", "import_probs", "countries", "description", "year"),
    "balance_report": ("mm", "description", *SOLVER_PARAMS),
    "balance_sensitivity": ("mm", "perturbation", "description", *SOLVER_PARAMS),
    "build_google": ("mm", ("direction", "direct"), ("damping", 0.5)),
    "gravity_money_set": ("seed", ("n_countries", 12), ("n_products", 4), ("year", 2018),
                          ("density", 0.75)),
    "ingest_csv": ("source", "year"),
    "labor_cost_matrix": ("mm", "description", ("damping", 0.5)),
    "load_group_config": ("source",),
    "merge_country_group": ("mm", "members", "label", ("short", None)),
    "pagerank": ("g", ("tol", 1e-12), ("max_iter", 10000)),
    "personalization_vector": ("mm",),
    "rank_table": ("direct", "inverted", "volumes", "top"),
    "reduce": ("g", "selection"),
    "strongest_links": ("m", "k"),
    "volume_probabilities": ("mm",),
    "write_trade_csv": ("mm", "dest"),
}


def _subcommands():
    parser = build_parser()
    assert {s for action in parser._actions for s in action.option_strings} == {"-h", "--help"}
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def test_cli_options():
    commands = _subcommands()
    got = {name: {s for action in sub._actions for s in action.option_strings}
           for name, sub in commands.items()}
    assert got == OPTIONS
    assert all(action.option_strings for sub in commands.values()
               for action in sub._actions)  # no positional arguments


def test_cli_option_details():
    got = {name: [(tuple(a.option_strings), a.default, a.type,
                   None if a.choices is None else list(a.choices), a.required, a.help)
                  for a in sub._actions]
           for name, sub in _subcommands().items()}
    assert got == OPTION_DETAILS


def test_package_root_names():
    names = {name for name, value in vars(wtnrank).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == ROOT_NAMES


def test_dataclass_fields():
    got = {name: tuple(f.name for f in dataclasses.fields(value))
           for name, value in vars(wtnrank).items()
           if name in ROOT_NAMES and isinstance(value, type) and dataclasses.is_dataclass(value)}
    assert got == FIELDS


def test_function_parameters():
    def pinned(param):
        return param.name if param.default is param.empty else (param.name, param.default)

    got = {name: tuple(pinned(p) for p in inspect.signature(value).parameters.values())
           for name, value in vars(wtnrank).items()
           if name in ROOT_NAMES and inspect.isfunction(value)}
    assert got == PARAMETERS
