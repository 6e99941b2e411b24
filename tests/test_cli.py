import contextlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from conftest import money_set

import wtnrank
from wtnrank import ranks, write_trade_csv
from wtnrank.cli import main

HEADER = "year,exporter,importer,product,value_usd"


@pytest.fixture()
def trade_csv(tmp_path):
    assert main(["synth", "--seed", "5", "--countries", "8", "--products", "2",
                 "--out-dir", str(tmp_path)]) == 0
    return str(tmp_path / "trade.csv")


def test_synth_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert main(["synth", "--seed", "42", "--out-dir", str(tmp_path / sub)]) == 0
    a = (tmp_path / "a" / "trade.csv").read_bytes()
    b = (tmp_path / "b" / "trade.csv").read_bytes()
    assert a == b


def test_ingest_writes_canonical_csv_and_summary(trade_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["ingest", "--input", trade_csv, "--year", "2018",
                 "--out-dir", str(out)]) == 0
    assert (out / "money.csv").exists()
    summary = json.loads((out / "ingest_summary.json").read_text())
    assert summary["countries"] == 8
    assert summary["products"] == 2
    assert summary["self_flows_dropped"] == 0
    assert summary["total_volume_usd"] > 0


def test_empty_input_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text(HEADER + "\n")
    code = main(["rank", "--input", str(path), "--year", "2018",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_json_errors_flag(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text(HEADER + "\n")
    code = main(["rank", "--input", str(path), "--year", "2018",
                 "--out-dir", str(tmp_path / "out"), "--json-errors"])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "EmptyDataError"
    assert payload["message"]


@pytest.mark.parametrize("flag", ["--json-errors", "--json"])  # argparse takes a prefix
def test_json_errors_flag_covers_usage_errors(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--input", "x.csv", "--year", "abc", flag])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": "UsageError",
                               "message": "argument --year: invalid int value: 'abc'"}


def test_usage_error_without_json_errors_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--input", "x.csv", "--year", "abc"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: wtnrank rank [-h] --input INPUT --year YEAR")
    assert err.endswith("\nwtnrank rank: error: argument --year: invalid int value: 'abc'\n")


@pytest.mark.parametrize("argv", [
    ["rank"],  # required options missing
    ["rank", "--input", "x.csv", "--year", "2018", "--format", "xml"],  # bad choice
    ["rank", "--input", "x.csv", "--year", "2018", "--bogus"],  # unknown option
    ["frobnicate"],  # unknown command
], ids=["missing", "choice", "unknown-option", "unknown-command"])
def test_json_usage_error_carries_argparse_message(capsys, argv):
    with pytest.raises(SystemExit) as plain:
        main(argv)
    err = capsys.readouterr().err
    assert plain.value.code == 2 and err.startswith("usage: wtnrank")
    message = err.splitlines()[-1].split(": error: ", 1)[1]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--json-errors"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "UsageError", "message": message}


@pytest.mark.parametrize("top", ["0", "-3"])
def test_nonpositive_top_exits_2(trade_csv, tmp_path, top):
    out = tmp_path / "out"
    code = main(["rank", "--input", trade_csv, "--year", "2018", "--top", top,
                 "--out-dir", str(out)])
    assert code == 2
    assert not (out / "rank_table.csv").exists()


def test_nan_tol_exits_2(trade_csv, tmp_path):
    code = main(["rank", "--input", trade_csv, "--year", "2018", "--tol", "nan",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2


def test_invalid_actor_exits_2(trade_csv, tmp_path, capsys):
    code = main(["regomax", "--input", trade_csv, "--year", "2018",
                 "--actors", "SAA,NOPE", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "NOPE" in capsys.readouterr().err


REGOMAX_ACTORS = ["regomax", "--actors"]
LABOR_TARGET = ["sensitivity", "--perturb", "labor", "--target"]
GLOBAL_PRODUCT = ["sensitivity", "--perturb", "global", "--product"]


@pytest.mark.parametrize("flags, canonical, raw", [
    (REGOMAX_ACTORS, "SAA,SAB", "saa,sab"),
    (REGOMAX_ACTORS, "SAA,SAB", " SAA , sab "),
    (LABOR_TARGET, "SAB", "sab"),
    (LABOR_TARGET, "SAB", " SAB "),
    (GLOBAL_PRODUCT, "0", " 0"),
], ids=["actors-lower", "actors-padded", "target-lower", "target-padded", "product-padded"])
def test_id_flags_are_canonicalized(trade_csv, tmp_path, flags, canonical, raw):
    outputs = []
    for name, value in (("canonical", canonical), ("raw", raw)):
        out = tmp_path / name
        assert main([*flags, value, "--input", trade_csv, "--year", "2018",
                     "--out-dir", str(out)]) == 0
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, message", [
    ([*REGOMAX_ACTORS, "SAA,a b"], "invalid country id 'a b'"),
    ([*LABOR_TARGET, "a b"], "invalid country id 'a b'"),
    ([*GLOBAL_PRODUCT, "5x"], "unknown product code '5x'"),
], ids=["actors", "target", "product"])
def test_invalid_id_flag_exits_2(trade_csv, tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv, "--input", trade_csv, "--year", "2018", "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--tol", "1e-9"), ("--max-iter", "10")])
def test_regomax_takes_no_power_iteration_flags(trade_csv, tmp_path, flag, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["regomax", "--input", trade_csv, "--year", "2018", "--actors", "SAA",
              flag, value, "--out-dir", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_regomax_bad_k_writes_nothing(trade_csv, tmp_path):
    out = tmp_path / "out"
    code = main(["regomax", "--input", trade_csv, "--year", "2018",
                 "--actors", "SAA,SAB", "--k", "0", "--out-dir", str(out)])
    assert code == 2
    assert not list(out.glob("regomax_*"))


def test_regomax_singular_scattering_exits_3(tmp_path, capsys):
    # at damping 1 the AAA <-> BBB cycle is closed once CCC is reduced out
    path = tmp_path / "cycle.csv"
    path.write_text(f"{HEADER}\n2018,AAA,BBB,0,5\n2018,BBB,AAA,0,5\n2018,CCC,AAA,0,3\n")
    out = tmp_path / "out"
    code = main(["regomax", "--input", str(path), "--year", "2018", "--alpha", "1.0",
                 "--actors", "CCC", "--out-dir", str(out)])
    assert code == 3
    assert "singular" in capsys.readouterr().err
    assert not list(out.glob("regomax_*"))


def test_regomax_nilpotent_scattering_exits_3(tmp_path, capsys):
    # at damping 1 the cycle AAA -> BBB -> CCC -> AAA without AAA is the chain BBB -> CCC
    path = tmp_path / "chain.csv"
    path.write_text(f"{HEADER}\n2018,AAA,BBB,0,5\n2018,BBB,CCC,0,4\n2018,CCC,AAA,0,3\n")
    out = tmp_path / "out"
    code = main(["regomax", "--input", str(path), "--year", "2018", "--alpha", "1.0",
                 "--actors", "AAA", "--out-dir", str(out)])
    assert code == 3
    assert "degenerate scattering eigenvectors" in capsys.readouterr().err
    assert not out.exists()


def test_sensitivity_closed_class_at_damping_one_exits_3(tmp_path, capsys):
    # at damping 1 AAA <-> BBB is a closed class: the response series never settles
    path = tmp_path / "cycle.csv"
    path.write_text(f"{HEADER}\n2018,AAA,BBB,0,5\n2018,BBB,AAA,0,3\n")
    out = tmp_path / "out"
    code = main(["sensitivity", "--input", str(path), "--year", "2018", "--alpha", "1",
                 "--perturb", "labor", "--target", "AAA", "--out-dir", str(out)])
    assert code == 3
    assert "response series did not reach" in capsys.readouterr().err
    assert not list(out.glob("sensitivity_*"))


def test_sensitivity_nan_tol_exits_2(trade_csv, tmp_path, capsys):
    code = main(["sensitivity", "--input", trade_csv, "--year", "2018", "--tol", "nan",
                 "--perturb", "global", "--product", "0", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "wtnrank: error: tol must be positive and finite, got nan\n"


def test_solver_failure_exits_3(trade_csv, tmp_path, capsys):
    code = main(["rank", "--input", trade_csv, "--year", "2018",
                 "--tol", "1e-15", "--max-iter", "2",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert "residual" in capsys.readouterr().err


def test_merge_requires_config(trade_csv, tmp_path):
    assert main(["merge", "--input", trade_csv, "--year", "2018",
                 "--out-dir", str(tmp_path / "out")]) == 2


def test_missing_input_file_exits_2(tmp_path, capsys):
    code = main(["rank", "--input", str(tmp_path / "nope.csv"), "--year", "2018",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_bad_product_code_after_good_rows_exits_2(tmp_path, capsys):
    good = [f"2018,AAA,BBB,{k % 3},{k + 1}.5" for k in range(800)]
    path = tmp_path / "trade.csv"
    path.write_text("\n".join([HEADER, *good, "2018,BBB,AAA, 7x,1.0", *good[:5]]) + "\n")
    code = main(["rank", "--input", str(path), "--year", "2018",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "line 802: unknown product code ' 7x'" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ("20_18,BBB,AAA,7,1.0", "line 202: bad year '20_18'"),
    ("2018,BBB,AAA,7,1_0", "line 202: bad value '1_0'"),
    ("2018,BBB,AAA,7,５", "line 202: bad value '５'")])
def test_digit_separators_and_non_ascii_digits_exit_2(tmp_path, capsys, row, message):
    good = [f"2018,AAA,BBB,{k % 3},{k + 1}.5" for k in range(200)]
    path = tmp_path / "trade.csv"
    path.write_text("\n".join([HEADER, *good, row]) + "\n", encoding="utf-8")
    code = main(["rank", "--input", str(path), "--year", "2018",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_field_over_csv_limit_exits_2(tmp_path, capsys):
    good = [f"2018,AAA,BBB,{k % 3},{k + 1}.5" for k in range(200)]
    path = tmp_path / "trade.csv"
    path.write_text("\n".join([HEADER, *good, "2018,AAA," + "B" * 131_073 + ",1,2"]) + "\n")
    code = main(["ingest", "--input", str(path), "--year", "2018",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "line 202: field larger than field limit" in capsys.readouterr().err


def test_flows_summing_past_the_largest_float_exit_2(tmp_path, capsys):
    path = tmp_path / "trade.csv"
    path.write_text(HEADER + "\n" + "2018,AAA,BBB,0,1e308\n" * 2)
    code = main(["ingest", "--input", str(path), "--year", "2018",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == ("wtnrank: error: product '0': the flows AAA->BBB "
                                       "sum past the largest finite float\n")


def test_non_utf8_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "trade.csv"
    path.write_bytes(f"{HEADER}\n2018,AAA,BBB,1,2.5\n2018,C\xd4TE,BBB,1,2.5\n".encode("latin-1"))
    code = main(["ingest", "--input", str(path), "--year", "2018",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "error: the trade CSV is not UTF-8" in capsys.readouterr().err


def test_non_utf8_merge_config_exits_2(trade_csv, tmp_path, capsys):
    cfg = tmp_path / "group.json"
    cfg.write_bytes('{"label": "C\xd4TE", "members": ["SAA", "SAB"]}'.encode("latin-1"))
    code = main(["merge", "--input", trade_csv, "--year", "2018", "--merge-config", str(cfg),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "bad group config: the file is not UTF-8" in capsys.readouterr().err


def test_malformed_merge_config_exits_2(trade_csv, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["rank", "--input", trade_csv, "--year", "2018",
                 "--merge-config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2
    for bad in ('{"label": "G"}',  # missing members
                '{"label": "G", "members": [1, 2]}',
                '{"label": "G", "members": ["SAA", "SAB"], "short": 5}',
                '{"label": "G", "members": "SAA"}',  # a string, not an array
                '{"label": "G", "members": {"SAA": 1, "SAB": 2}}',
                '[{"label": "G", "members": ["SAA", "SAB"]}]'):  # not an object
        cfg.write_text(bad)
        capsys.readouterr()
        assert main(["rank", "--input", trade_csv, "--year", "2018",
                     "--merge-config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 2, bad
        assert "error: bad group config: need a JSON object" in capsys.readouterr().err


def test_negative_synth_seed_exits_2(tmp_path, capsys):
    assert main(["synth", "--seed", "-1", "--out-dir", str(tmp_path)]) == 2
    assert "error: seed must be at least 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "trade.csv").exists()


SCALED_COMMANDS = (["rank"], ["balance"], ["sensitivity", "--perturb", "global", "--product", "3"],
                   ["sensitivity", "--perturb", "labor", "--target", "SAB"],
                   ["regomax", "--actors", "SAA,SAB"])


def test_power_of_two_scaling_gives_identical_outputs(tmp_path):
    """Synth seed 42 and two copies with every value times a power of two, which is
    exact and cancels in every share. Its whole-dollar values and their x 2**-7
    reprs (at most 15 digits) are read by ingest's exact decimal path, the x 2**-50
    reprs (with an exponent) by its ``float`` fallback; every output is identical."""
    assert main(["synth", "--seed", "42", "--out-dir", str(tmp_path)]) == 0
    header, *rows = (tmp_path / "trade.csv").read_text().splitlines()
    heads, values = zip(*(row.rsplit(",", 1) for row in rows))
    scaled = {power: [repr(float(v) * 2.0 ** -power) for v in values] for power in (7, 50)}
    assert all(len(v) <= 16 and "e" not in v for v in scaled[7])
    assert all("e" in v for v in scaled[50])
    for power, column in scaled.items():
        (tmp_path / f"scaled{power}.csv").write_text(
            "\n".join([header, *map(",".join, zip(heads, column))]) + "\n")
    outputs = {}
    for name in ("trade", "scaled7", "scaled50"):
        out = tmp_path / f"out-{name}"
        for k, (command, *flags) in enumerate(SCALED_COMMANDS):
            assert main([command, "--input", str(tmp_path / f"{name}.csv"), "--year", "2018",
                         *flags, "--out-dir", str(out / str(k))]) == 0
        outputs[name] = {path.relative_to(out): path.read_bytes()
                         for path in sorted(out.rglob("*")) if path.is_file()}
    assert len(outputs["trade"]) > 20
    assert outputs["scaled7"] == outputs["trade"] == outputs["scaled50"]


def test_rank_outputs(trade_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["rank", "--input", trade_csv, "--year", "2018", "--top", "5",
                 "--out-dir", str(out)]) == 0
    table = (out / "rank_table.csv").read_text().splitlines()
    assert table[0] == "rank,pagerank_country,cheirank_country,importrank_country,exportrank_country"
    assert len(table) == 6
    plane = (out / "rank_plane.csv").read_text().splitlines()
    assert plane[0] == "country,pagerank_index,cheirank_index,importrank_index,exportrank_index"
    assert len(plane) == 9  # 8 countries


def test_rank_ranks_each_volume_column_once(trade_csv, tmp_path):
    real = ranks.assign_ranks
    assign = mock.Mock(wraps=real)
    with contextlib.ExitStack() as stack:  # wherever a module binds the name
        for module in [m for name, m in sys.modules.items() if name.startswith("wtnrank")]:
            if getattr(module, "assign_ranks", None) is real:
                stack.enter_context(mock.patch.object(module, "assign_ranks", assign))
        assert main(["rank", "--input", trade_csv, "--year", "2018", "--top", "3",
                     "--out-dir", str(tmp_path)]) == 0
    # the country rank of each pagerank, then ImportRank and ExportRank
    assert assign.call_count == 4
    plane = (tmp_path / "rank_plane.csv").read_text().splitlines()[1:]
    table = (tmp_path / "rank_table.csv").read_text().splitlines()[1:]
    for column in (3, 4):  # each table column lists the ids of ranks 1, 2, 3 in the plane
        by_rank = {int(row.split(",")[column]): row.split(",")[0] for row in plane}
        assert [row.split(",")[column] for row in table] == [by_rank[r] for r in (1, 2, 3)]


def test_rank_json_format(trade_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["rank", "--input", trade_csv, "--year", "2018", "--format", "json",
                 "--out-dir", str(out)]) == 0
    rows = json.loads((out / "rank_table.json").read_text())
    assert rows[0]["rank"] == 1
    assert not (out / "rank_table.csv").exists()


def test_balance_outputs_both_descriptions(trade_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["balance", "--input", trade_csv, "--year", "2018",
                 "--out-dir", str(out)]) == 0
    for stem in ("balance_rank", "balance_volume"):
        lines = (out / f"{stem}.csv").read_text().splitlines()
        assert lines[0] == "country,balance"
        payload = json.loads((out / f"{stem}.json").read_text())
        assert len(payload["balances"]) == len(lines) - 1


def test_sensitivity_outputs(trade_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["sensitivity", "--input", trade_csv, "--year", "2018",
                 "--perturb", "labor", "--target", "SAB",
                 "--out-dir", str(out)]) == 0
    lines = (out / "sensitivity_rank.csv").read_text().splitlines()
    assert lines[0] == "country,derivative,is_diagonal"
    assert sum(1 for ln in lines[1:] if ln.endswith(",true")) == 1
    payload = json.loads((out / "sensitivity_rank.json").read_text())
    assert set(payload) == {"description", "year", "perturbation", "derivatives"}
    assert payload["perturbation"] == {
        "kind": "labor-cost", "product": None, "target_country": "SAB"}


def test_regomax_outputs(trade_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["regomax", "--input", trade_csv, "--year", "2018",
                 "--actors", "SAA,SAB", "--k", "2", "--out-dir", str(out)]) == 0
    for stem in ("regomax_direct", "regomax_inverted"):
        for name in ("gr", "grr", "gpr", "gqr"):
            assert (out / f"{stem}_{name}.csv").exists()
        dot = (out / f"{stem}.dot").read_text()
        assert dot.startswith("//") and "digraph" in dot
        meta = json.loads((out / f"{stem}.json").read_text())
        assert meta["n_nodes"] == 4  # 2 actors x 2 products
        assert 0.0 < meta["lambda_c"] < 1.0


def test_regomax_short_code_equal_to_an_id_keeps_labels_distinct(tmp_path):
    # GRP's short code is the id USA, and USA shortens to US, as USB does
    flows = [("USA", "USB", 5), ("USB", "USA", 4), ("FRA", "USA", 3),
             ("USA", "FRA", 2), ("DEU", "FRA", 7), ("FRA", "DEU", 1)]
    path = tmp_path / "trade.csv"
    path.write_text(HEADER + "\n" + "".join(f"2018,{e},{i},0,{v}\n" for e, i, v in flows))
    cfg = tmp_path / "group.json"
    cfg.write_text(json.dumps({"label": "GRP", "members": ["FRA", "DEU"], "short": "USA"}))
    out = tmp_path / "out"
    assert main(["regomax", "--input", str(path), "--year", "2018", "--merge-config", str(cfg),
                 "--actors", "GRP,USA", "--out-dir", str(out)]) == 0
    for stem in ("regomax_direct", "regomax_inverted"):
        dot = (out / f"{stem}.dot").read_text()
        assert re.findall(r'^  "([^"]+)";$', dot, flags=re.M) == ["GRP0", "USA0"]
        assert (out / f"{stem}_gr.csv").read_text().splitlines()[0] == "node,GRP0,USA0"


@pytest.mark.parametrize("short", ['E"U', ""], ids=["quote", "empty"])
def test_bad_group_short_code_exits_2(trade_csv, tmp_path, capsys, short):
    # the short code names graph nodes: a quote breaks the DOT, an empty one leaves bare digits
    cfg = tmp_path / "group.json"
    cfg.write_text(json.dumps({"label": "GRP", "short": short, "members": ["SAA", "SAB"]}))
    out = tmp_path / "out"
    assert main(["regomax", "--input", trade_csv, "--year", "2018", "--merge-config", str(cfg),
                 "--actors", "GRP,SAC", "--out-dir", str(out)]) == 2
    assert "short code" in capsys.readouterr().err
    assert not out.exists()


def _console_script():
    """The installed ``wtnrank`` script, else pyproject's entry point run from ``src``."""
    script = shutil.which("wtnrank")
    if script is not None:
        return [script], None
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["wtnrank"]
    module, function = entry.split(":")
    code = f"import sys; from {module} import {function}; sys.exit({function}())"
    return [sys.executable, "-c", code], {**os.environ, "PYTHONPATH": str(root / "src")}


def test_console_script_entry_point(tmp_path):
    command, env = _console_script()
    run = subprocess.run(
        command + ["synth", "--seed", "3", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "trade.csv").exists()
    run = subprocess.run(command + ["rank", "--input", "missing.csv",
                                    "--year", "2018", "--json-errors"],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    assert run.returncode == 2
    assert json.loads(run.stderr)["error"]


def test_merge_summary_names_canonical_ids(trade_csv, tmp_path):
    cfg = tmp_path / "group.json"
    cfg.write_text(json.dumps({"label": " grp ", "members": ["saa", "SAB ", "SAA"]}))
    out = tmp_path / "out"
    assert main(["merge", "--input", trade_csv, "--year", "2018", "--merge-config", str(cfg),
                 "--out-dir", str(out)]) == 0
    summary = json.loads((out / "merge_summary.json").read_text())
    assert (summary["label"], summary["members"]) == ("GRP", ["SAA", "SAB"])
    assert summary["countries_after"] == summary["countries_before"] - 1
    assert ",GRP," in (out / "merged.csv").read_text()


def test_merge_with_bundled_group_config(tmp_path):
    _, members, _ = wtnrank.load_group_config(wtnrank.KEU9_CONFIG)
    flows = [(exp, "USA", "7", 1e9 + i) for i, exp in enumerate(members)]
    flows += [("USA", exp, "7", 5e8) for exp in members]
    flows += [("FRA", "DEU", "7", 7e9)]  # intra-group
    mm = money_set(flows)
    path = tmp_path / "eu.csv"
    write_trade_csv(mm, str(path))

    out = tmp_path / "out"
    assert main(["merge", "--input", str(path), "--year", "2018",
                 "--merge-config", wtnrank.KEU9_CONFIG, "--out-dir", str(out)]) == 0
    summary = json.loads((out / "merge_summary.json").read_text())
    assert summary["label"] == "KEU9"
    assert summary["countries_after"] == 2  # KEU9 + USA
    assert summary["total_volume_before"] - summary["total_volume_after"] == 7e9
    merged = (out / "merged.csv").read_text()
    assert "KEU9" in merged and "FRA" not in merged
