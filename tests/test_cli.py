import json
import shutil
import subprocess

import pytest

import wtnrank
from wtnrank import TradeFlowRecord, money_from_records, write_trade_csv
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


@pytest.mark.parametrize("step", ["0", "nan", "inf"])
def test_zero_step_exits_2(trade_csv, tmp_path, step):
    code = main(["sensitivity", "--input", trade_csv, "--year", "2018",
                 "--perturb", "global", "--product", "0", "--step", step,
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2


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


@pytest.mark.parametrize("flags, canonical, raw", [
    (REGOMAX_ACTORS, "SAA,SAB", "saa,sab"),
    (REGOMAX_ACTORS, "SAA,SAB", " SAA , sab "),
    (LABOR_TARGET, "SAB", "sab"),
    (LABOR_TARGET, "SAB", " SAB "),
], ids=["actors-lower", "actors-padded", "target-lower", "target-padded"])
def test_id_flags_are_canonicalized(trade_csv, tmp_path, flags, canonical, raw):
    outputs = []
    for name, value in (("canonical", canonical), ("raw", raw)):
        out = tmp_path / name
        assert main([*flags, value, "--input", trade_csv, "--year", "2018",
                     "--out-dir", str(out)]) == 0
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [[*REGOMAX_ACTORS, "SAA,a b"], [*LABOR_TARGET, "a b"]],
                         ids=["actors", "target"])
def test_invalid_id_flag_exits_2(trade_csv, tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--input", trade_csv, "--year", "2018", "--out-dir", str(out)]) == 2
    assert "invalid country id 'a b'" in capsys.readouterr().err
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


def test_malformed_merge_config_exits_2(trade_csv, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["rank", "--input", trade_csv, "--year", "2018",
                 "--merge-config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2
    for bad in ('{"label": "G"}',  # missing members
                '{"label": "G", "members": [1, 2]}',
                '{"label": "G", "members": ["SAA", "SAB"], "short": 5}'):
        cfg.write_text(bad)
        assert main(["rank", "--input", trade_csv, "--year", "2018",
                     "--merge-config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 2


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


@pytest.mark.skipif(shutil.which("wtnrank") is None,
                    reason="console script not on PATH")
def test_console_script_entry_point(tmp_path):
    run = subprocess.run(
        ["wtnrank", "synth", "--seed", "3", "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "trade.csv").exists()
    run = subprocess.run(["wtnrank", "rank", "--input", "missing.csv",
                          "--year", "2018", "--json-errors"],
                         capture_output=True, text=True, cwd=tmp_path)
    assert run.returncode == 2
    assert json.loads(run.stderr)["error"]


def test_merge_with_bundled_group_config(tmp_path):
    _, members, _ = wtnrank.load_group_config(wtnrank.KEU9_CONFIG)
    records = [TradeFlowRecord(2018, exp, "USA", "7", 1e9 + i)
               for i, exp in enumerate(members)]
    records += [TradeFlowRecord(2018, "USA", exp, "7", 5e8) for exp in members]
    records += [TradeFlowRecord(2018, "FRA", "DEU", "7", 7e9)]  # intra-group
    mm = money_from_records(records, 2018)
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
