import contextlib
import csv
import gc
import importlib.util
import io
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import (
    money_set,
    money_sets_equal,
    non_canonical,
    non_canonical_matrices,
    perturb_money,
    random_money_set,
    records,
    small_money_set,
)
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from scipy import sparse

from wtnrank import (
    DIRECT,
    INVERTED,
    LABOR_COST,
    VOLUME_BASED,
    CountryRegistry,
    EmptyDataError,
    MoneyMatrixSet,
    ParseError,
    Perturbation,
    ProductRegistry,
    ValidationError,
    balance_report,
    build_google,
    gravity_money_set,
    ingest_csv,
    load_group_config,
    merge_country_group,
    volume_probabilities,
    write_trade_csv,
)
from wtnrank import trade_data
from wtnrank._io import write_csv
from wtnrank.sensitivity import write_balance_json
from wtnrank.synth import synth_country_ids
from wtnrank.trade_data import CSV_HEADER

HEADER = "year,exporter,importer,product,value_usd"


def csv_stream(*rows):
    return io.StringIO("\n".join([HEADER, *rows]) + "\n")


def good_rows(count, year=2018):
    """``count`` valid rows over four ids and three codes, none a self-flow."""
    ids = ("FRA", "USA", "DEU", "CHN")
    return [f"{year},{ids[i % 4]},{ids[(i + 1) % 4]},{i % 3},{i + 1}.5" for i in range(count)]


class TestIngest:
    def test_transcribes_rows(self):
        result = ingest_csv(csv_stream(
            "2018,FRA,USA,7,5e9",
            "2018,USA,FRA,7,3e9",
        ), 2018)
        mm = result.money
        assert mm.countries.ids == ("FRA", "USA")
        assert mm.products.codes == ("7",)
        m = mm.matrices[mm.products.index_of("7")].toarray()
        # row = importer, column = exporter
        assert m[1, 0] == 5e9  # FRA -> USA
        assert m[0, 1] == 3e9  # USA -> FRA
        assert np.count_nonzero(m) == 2

    def test_self_flow_dropped_with_counted_warning(self):
        result = ingest_csv(csv_stream(
            "2018,FRA,FRA,0,1e6",
            "2018,FRA,USA,0,2e6",
        ), 2018)
        assert result.self_flows_dropped == 1
        mm = result.money
        assert mm.matrices[mm.products.index_of("0")].diagonal().sum() == 0.0
        assert mm.total_volume() == 2e6

    def test_only_self_flows_is_empty_data(self):
        with pytest.raises(EmptyDataError):
            ingest_csv(csv_stream("2018,FRA,FRA,0,1e6"), 2018)

    @pytest.mark.parametrize("year", ["2018", 2018.0, True, None])
    def test_year_must_be_an_int(self, year):
        # checked before the source is read: an empty one would be "no header row"
        with pytest.raises(ValidationError, match=rf"^year {re.escape(repr(year))} is not an int$"):
            ingest_csv(io.StringIO(""), year)
        assert ingest_csv(csv_stream("2018,FRA,USA,0,1"), np.int64(2018)).rows_used == 1

    def test_duplicate_keys_summed(self):
        rows = ["2018,FRA,USA,3,2.0", "2018,FRA,USA,3,3.0", "2018,USA,FRA,3,7.0"]
        # oracle: grouped sum over the raw rows
        expected = {}
        for r in rows:
            y, e, i, p, v = r.split(",")
            expected[(e, i, p)] = expected.get((e, i, p), 0.0) + float(v)
        result = ingest_csv(csv_stream(*rows), 2018)
        m = result.money.matrices[result.money.products.index_of("3")]
        ids = result.money.countries.ids
        for (e, i, p), v in expected.items():
            assert m[ids.index(i), ids.index(e)] == v
        assert result.duplicates_merged == 1

    def test_malformed_row_reports_line(self):
        with pytest.raises(ParseError) as err:
            ingest_csv(csv_stream("2018,FRA,USA,7,5e9", "not-a-year,FRA,USA,7,1"), 2018)
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    def test_invalid_id_reports_line(self):
        with pytest.raises(ValidationError, match=r"^line 4: invalid country id 'A B'$"):
            ingest_csv(csv_stream("2018,FRA,USA,7,5e9", "2018,USA,FRA,7,3e9",
                                  "2018,A B,USA,7,1"), 2018)

    # Each distinct raw field is canonicalized once per call; a bad one is never
    # cached, so it fails at the first line it is on, however many rows came first.
    @pytest.mark.parametrize("bad_row, cid", [("2018,A B,USA,0,1", "A B"),
                                              ("2018,USA,usa!,0,1", "usa!")])
    def test_bad_id_after_many_good_rows_reports_its_line(self, bad_row, cid):
        with pytest.raises(ValidationError, match=rf"^line 1202: invalid country id '{cid}'$"):
            ingest_csv(csv_stream(*good_rows(1200), bad_row, *good_rows(5)), 2018)

    def test_repeated_bad_id_reports_its_first_line(self):
        rows = [*good_rows(1000), "2018,FRA,A B,1,2", *good_rows(50), "2018,A B,FRA,1,2"]
        with pytest.raises(ValidationError, match=r"^line 1002: invalid country id 'A B'$"):
            ingest_csv(csv_stream(*rows), 2018)

    def test_raw_spellings_of_one_id_are_one_node(self):
        result = ingest_csv(csv_stream("2018,usa,FRA,7,1.0", "2018, USA,FRA,7,2.0",
                                       "2018,FRA,USA,7,4.0", "2018,usa,USA,7,8.0"), 2018)
        mm = result.money
        assert mm.countries.ids == ("FRA", "USA")
        m = mm.matrices[mm.products.index_of("7")]
        assert m.toarray().tolist() == [[0.0, 3.0], [4.0, 0.0]]
        assert (result.rows_used, result.self_flows_dropped, result.duplicates_merged) == (3, 1, 1)

    def test_bad_id_on_another_years_row_reports_its_line(self):
        rows = [*good_rows(1000), "2016,FRA,A B,1,2"]
        with pytest.raises(ValidationError, match=r"^line 1002: invalid country id 'A B'$"):
            ingest_csv(csv_stream(*rows), 2018)

    @pytest.mark.parametrize("raw_year", ["2O18", "", "2018.0", "20_18", "２０１８"])
    def test_bad_year_after_many_good_rows_reports_its_line(self, raw_year):
        rows = [*good_rows(1000), f"{raw_year},FRA,USA,1,2", *good_rows(5)]
        with pytest.raises(ParseError, match=rf"^line 1002: bad year '{raw_year}'$") as err:
            ingest_csv(csv_stream(*rows), 2018)
        assert err.value.line == 1002

    # int() and float() accept "_" digit separators and non-ASCII digits; ingest does not
    @pytest.mark.parametrize("raw_value", ["1_0", "1_000.5", "５", "1.５", "1e1_0"])
    def test_bad_value_after_many_good_rows_reports_its_line(self, raw_value):
        rows = [*good_rows(1000), f"2018,FRA,USA,1,{raw_value}", *good_rows(5)]
        with pytest.raises(ParseError, match=rf"^line 1002: bad value '{raw_value}'$") as err:
            ingest_csv(csv_stream(*rows), 2018)
        assert err.value.line == 1002

    def test_separator_year_fails_before_its_value(self):
        with pytest.raises(ParseError, match=r"^line 3: bad year '20_18'$"):
            ingest_csv(csv_stream("2018,USA,FRA,7,1", "20_18,FRA,USA,7,1_0"), 2018)

    @pytest.mark.parametrize("blank", ["", "   "], ids=["empty", "spaces"])
    def test_blank_row_skipped(self, blank):
        rows = ("2018,FRA,USA,7,5e9", "2018,USA,FRA,7,3e9")
        want = ingest_csv(csv_stream(*rows), 2018)
        got = ingest_csv(csv_stream(rows[0], blank, rows[1]), 2018)
        assert money_sets_equal(got.money, want.money)
        assert (got.rows_used, got.self_flows_dropped, got.duplicates_merged) == \
            (want.rows_used, want.self_flows_dropped, want.duplicates_merged)

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(ParseError) as err:
            ingest_csv(csv_stream("2018,FRA,USA,7"), 2018)
        assert err.value.line == 2

    def test_bad_header_rejected(self):
        stream = io.StringIO("a,b,c,d,e\n2018,FRA,USA,7,1\n")
        with pytest.raises(ParseError):
            ingest_csv(stream, 2018)

    def test_negative_value_rejected(self):
        with pytest.raises(ValidationError):
            ingest_csv(csv_stream("2018,FRA,USA,7,-1.0"), 2018)

    def test_unknown_product_rejected(self):
        with pytest.raises(ValidationError):
            ingest_csv(csv_stream("2018,FRA,USA,X,1.0"), 2018)

    def test_zero_usable_rows(self):
        with pytest.raises(EmptyDataError):
            ingest_csv(io.StringIO(HEADER + "\n"), 2018)

    def test_other_years_ignored(self):
        result = ingest_csv(csv_stream(
            "2016,FRA,USA,7,1e9",
            "2018,FRA,USA,7,5e9",
        ), 2018)
        assert result.money.total_volume() == 5e9
        with pytest.raises(EmptyDataError):
            ingest_csv(csv_stream("2016,FRA,USA,7,1e9"), 2018)

    def test_byte_stream_accepted(self):
        data = (HEADER + "\n2018,FRA,USA,7,5e9\n").encode("utf-8")
        result = ingest_csv(io.BytesIO(data), 2018)
        assert result.money.total_volume() == 5e9

    def test_closes_only_the_files_it_opened(self, tmp_path):
        good = tmp_path / "good.csv"
        good.write_text(HEADER + "\n2018,FRA,USA,7,5e9\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(HEADER + "\n2018,FRA,USA,7,oops\n")
        text = csv_stream("2018,FRA,USA,7,5e9")
        raw = io.BytesIO((HEADER + "\n2018,FRA,USA,7,5e9\n").encode("utf-8"))
        out = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            ingest_csv(str(good), 2018)
            with pytest.raises(ParseError):
                ingest_csv(bad, 2018)
            ingest_csv(text, 2018)
            write_trade_csv(ingest_csv(raw, 2018).money, out)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert not text.closed and not raw.closed and not out.closed
        assert out.getvalue().startswith(HEADER + "\n")

    def test_bom_and_crlf_tolerated(self):
        data = ("﻿" + HEADER + "\r\n2018,FRA,USA,7,5e9\r\n").encode("utf-8")
        result = ingest_csv(io.BytesIO(data), 2018)
        assert result.money.total_volume() == 5e9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_roundtrip_identical(self, seed):
        mm = random_money_set(seed, max_countries=12)
        buf = io.StringIO()
        write_trade_csv(mm, buf)
        again = ingest_csv(io.StringIO(buf.getvalue()), mm.year).money
        assert money_sets_equal(mm, again)


def reference_trade_csv(mm, dest):
    """``write_trade_csv`` as one ``csv.writer`` row per flow: its reference."""
    write_csv(CSV_HEADER, ([mm.year, e, i, p, repr(v)] for e, i, p, v in records(mm)), dest)


class TestWriteTradeCsv:
    EDGE_VALUES = (5e-324, 2.2250738585072014e-308, 1e308, 0.1 + 0.2, 1.0,
                   1.2345678901234568e17)

    def test_matches_csv_writer_reference(self, tmp_path):
        ids = ("A_B", "C-D", "E_F-G", "USA")
        flows = [(ids[k % 4], ids[(k + 1) % 4], "07"[k // 4], value)
                 for k, value in enumerate(self.EDGE_VALUES)]
        products = ProductRegistry(("0", "3", "7"))  # no flow of product 3
        mm = money_set(flows, 2018, CountryRegistry(ids), products)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_trade_csv(mm, got)
        reference_trade_csv(mm, want)
        assert got.read_bytes() == want.read_bytes()
        buf = io.StringIO()
        write_trade_csv(mm, buf)
        assert buf.getvalue().encode("utf-8") == want.read_bytes()
        values = [float(line.rsplit(",", 1)[1]) for line in buf.getvalue().splitlines()[1:]]
        assert sorted(values) == sorted(self.EDGE_VALUES)
        assert money_sets_equal(ingest_csv(got, 2018).money, MoneyMatrixSet(
            mm.matrices[::2], 2018, mm.countries, ProductRegistry(("0", "7"))))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_sets_match_reference(self, seed):
        mm = random_money_set(seed, max_countries=12)
        got, want = io.StringIO(), io.StringIO()
        write_trade_csv(mm, got)
        reference_trade_csv(mm, want)
        assert got.getvalue() == want.getvalue()


ID_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
IDS = st.tuples(st.sampled_from(ID_CHARS), st.text(ID_CHARS + "_-", max_size=11)).map("".join)
# whole values on both sides of 2**53 and of 1e16, where numpy stops writing the
# digits and repr turns to an exponent, and 2.2250738585072014e-308, whose 23
# characters are the longest repr of a value
WRITER_VALUES = st.one_of(
    st.sampled_from([2.0 ** 53 - 2, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 1e16 - 2, 1e16,
                     1e16 + 2, 1.0, 10.0, 999999999999999.0, 5e-324, 2.2250738585072014e-308,
                     1e308, 0.1, 0.5, 0.0]),
    st.integers(1, 2 ** 64).map(float),
    st.floats(0.0, 1e308, allow_subnormal=True))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(IDS, min_size=2, max_size=6, unique=True).map(sorted),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from("0379"),
                          WRITER_VALUES), max_size=30),
       st.sampled_from(["0379", "037", "9"]), st.integers(1, 9999))
def test_writer_matches_reference(ids, flows, codes, year):
    """``write_trade_csv`` byte for byte as ``reference_trade_csv``, to a path and to a
    caller's stream: ids of 1 to 12 characters, whole values on both sides of 2**53
    and 1e16, fractional, subnormal and huge ones, stored zeros and products with no
    flow."""
    n = len(ids)
    kept = [(ids[e % n], ids[i % n], p, v) for e, i, p, v in flows
            if p in codes and e % n != i % n]
    try:
        mm = money_set(kept, year, CountryRegistry(ids), ProductRegistry(tuple(codes)))
    except ValidationError as exc:  # duplicates such as 1e308 + 2 * 3.99e307 overflow
        if not str(exc).endswith("sum past the largest finite float"):
            raise
        reject()
    want = io.StringIO()
    reference_trade_csv(mm, want)
    got = io.StringIO()
    write_trade_csv(mm, got)
    assert got.getvalue() == want.getvalue()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trade.csv"
        write_trade_csv(mm, path)
        assert path.read_bytes() == want.getvalue().encode("utf-8")


def row_loop_only():
    """Patch ``_plain_block`` to refuse every block, so ``_row_loop`` reads the body."""
    return mock.patch.object(trade_data, "_plain_block", lambda *args: None)


def ingest_outcome(data, year=2018):
    """``ingest_csv``'s result as exact data, or its exception's type, text and line."""
    try:
        result = ingest_csv(io.BytesIO(data) if isinstance(data, bytes) else io.StringIO(data),
                            year)
    except (ParseError, ValidationError, EmptyDataError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    mm = result.money
    return (mm.year, mm.countries.ids, mm.products.codes,
            [(m.indptr.tolist(), m.indices.tolist(), m.data.view(np.int64).tolist())
             for m in mm.matrices],
            result.rows_used, result.self_flows_dropped, result.duplicates_merged)


BLOCK_ROWS = ("2018,FRA,USA,7,5e9", "2018,usa,A_B,7,3e9", "2016,FRA,USA,7,1e9",
              "2018,A_B,A_B,0,2", "2018,A_B,FRA,0,0.1", "2018,FRA,USA,7,2.5")


class TestIngestBlocks:
    """Ingest at a block of a few lines against the ``csv.reader`` row loop alone."""

    @pytest.mark.parametrize("block", [1, 24, 40])
    @pytest.mark.parametrize("data", [
        ("﻿" + HEADER + "\n" + "\n".join(BLOCK_ROWS) + "\n").encode("utf-8"),
        "\r\n".join([HEADER, *BLOCK_ROWS]) + "\r\n",
        "\n".join([HEADER, *BLOCK_ROWS]),
        "\n".join([HEADER, *BLOCK_ROWS]) + "\n\n",
        "\n".join([HEADER, *BLOCK_ROWS]) + "\n   \n",
        "\n".join([HEADER, *BLOCK_ROWS[:3], '2018,A_B,A_B,"0\n",2', *BLOCK_ROWS[4:]]) + "\n",
    ], ids=["bom", "crlf", "no-final-newline", "blank-last-line", "spaces-last-line",
            "quoted-newline"])
    def test_matches_plain_input_and_row_loop(self, block, data):
        want = ingest_outcome("\n".join([HEADER, *BLOCK_ROWS]) + "\n")
        assert want[4:] == (4, 1, 1)
        with mock.patch.object(trade_data, "_BLOCK", block):
            got = ingest_outcome(data)
            with row_loop_only():
                assert ingest_outcome(data) == got == want

    @pytest.mark.parametrize("block", [1, 7, 24, 40])
    @pytest.mark.parametrize("cut", ["crlf", "lone-cr", "quoted", "bom"])
    @pytest.mark.parametrize("kind", [str, bytes])
    def test_block_cut_reads_as_the_row_loop(self, block, cut, kind):
        # the first block's _BLOCK characters end at the cut: between "\r" and "\n",
        # just before a lone "\r", inside a quoted field that spans lines, or inside a
        # first line after a BOM-led header; a bad row closes the file
        def row(width):  # a valid row of that many characters, or a blank one
            return "2018,FRA,USA,7," + "1".rjust(width - 15, "0") if width > 15 else " " * width

        head, tail = HEADER + "\n", "\r\n".join(BLOCK_ROWS[:3]) + "\r\n2018,FRA,USA,7,-1\n"
        first = {"crlf": row(block - 1) + "\r\n",
                 "lone-cr": row(block) + "\r",
                 "quoted": '"' + "2018".rjust(block + 3, "0") + '\n",FRA,USA,7,1\n',
                 "bom": row(block + 5) + "\n"}[cut]
        text = ("\ufeff" if cut == "bom" else "") + head + first + tail
        with mock.patch.object(trade_data, "_BLOCK", block):
            got = ingest_outcome(text if kind is str else text.encode("utf-8"))
            with row_loop_only():
                assert ingest_outcome(text if kind is str else text.encode("utf-8")) == got
        line = 1 + len(io.StringIO(first + tail, newline="").readlines())
        assert got == (ValidationError, f"line {line}: negative or non-finite value -1.0", None)

    def test_plain_blocks_skip_the_row_loop(self):
        calls = []

        def row_loop(reader, first, *args):
            calls.append((list(reader), first))
            return real(iter(()), first, *args)

        real = trade_data._row_loop
        with mock.patch.object(trade_data, "_BLOCK", 40), \
                mock.patch.object(trade_data, "_row_loop", row_loop):
            result = ingest_csv(csv_stream(*BLOCK_ROWS), 2018)
        assert calls == [([], 8)]
        assert result.money.countries.ids == ("A_B", "FRA", "USA")

    @pytest.mark.parametrize("block", [1, 40])
    def test_error_line_after_plain_blocks(self, block):
        rows = [*good_rows(300), "2018,FRA,A B,1,2", *good_rows(5)]
        with mock.patch.object(trade_data, "_BLOCK", block):
            with pytest.raises(ValidationError, match=r"^line 302: invalid country id 'A B'$"):
                ingest_csv(csv_stream(*rows), 2018)

    @pytest.mark.parametrize("block", [1, 40, trade_data._BLOCK])
    @pytest.mark.parametrize("row", [
        "20_18,FRA,USA,7,1", "2018\r,FRA,USA,7,1", "2018,A B,USA,7,1", "2018,FRA,USA,X,1",
        "2018,FRA,USA,7,-1", "2016,FRA,USA,7,nan", "2018,FRA,FRA,7,inf", "2018,FRA,USA,7,1_0",
        "2018,FRA,USA,7,５"])
    def test_each_bad_field_fails_as_in_the_row_loop(self, block, row):
        text = "\n".join([HEADER, *good_rows(20), row, *good_rows(3)]) + "\n"
        with mock.patch.object(trade_data, "_BLOCK", block):
            got = ingest_outcome(text)
            with row_loop_only():
                assert ingest_outcome(text) == got
        assert got[0] in (ParseError, ValidationError) and got[1].startswith("line 22: ")

    @pytest.mark.parametrize("rows, message", [
        (["2018,FRA,USA,7,1,2018", "FRA,USA,7,1"], "expected 5 fields, got 6"),
        (["2018,FRA,USA,7", "1,2018,FRA,USA,7,1"], "expected 5 fields, got 4"),
    ], ids=["long-short", "short-long"])
    def test_rows_that_realign_are_not_split_by_column(self, rows, message):
        # five and three commas on two lines make two rows of valid fields once joined
        for block in (40, trade_data._BLOCK):
            with mock.patch.object(trade_data, "_BLOCK", block):
                with pytest.raises(ParseError, match=rf"^line 3: {message}$"):
                    ingest_csv(csv_stream("2018,FRA,USA,7,1", *rows), 2018)

    def test_field_over_csv_limit_reports_line(self):
        rows = [*good_rows(300), "2018,FRA," + "U" * 131_073 + ",1,2"]
        for block in (40, trade_data._BLOCK):
            with mock.patch.object(trade_data, "_BLOCK", block):
                with pytest.raises(ParseError, match=r"^line 302: field larger than field limit"):
                    ingest_csv(csv_stream(*rows), 2018)

    @pytest.mark.parametrize("lead", [0, 300])
    @pytest.mark.parametrize("block", [40, trade_data._BLOCK])
    @pytest.mark.parametrize("bad_row, error, message", [
        ('2018,FRA,USA,"7\n",-1', ValidationError, "negative or non-finite value -1.0"),
        ('2018,FRA,USA,"7\n",5x', ParseError, "bad value '5x'"),
        ('2018,"FRA\n",' + "U" * 131_073 + ",1,2", ParseError, "field larger than field limit"),
    ], ids=["negative", "bad-value", "csv-error"])
    def test_line_is_where_the_record_starts(self, lead, block, bad_row, error, message):
        # a record on two lines, then the bad one, itself over two lines, on line lead + 4
        rows = [*good_rows(lead), '2018,FRA,USA,"1\n",2', bad_row, *good_rows(3)]
        with mock.patch.object(trade_data, "_BLOCK", block):
            with pytest.raises(error, match=rf"^line {lead + 4}: {message}"):
                ingest_csv(csv_stream(*rows), 2018)

    def test_header_over_two_lines_counts_both(self):
        text = '"year\n",exporter,importer,product,value_usd\n2018,FRA,USA,7,-1\n'
        with pytest.raises(ValidationError, match=r"^line 3: negative or non-finite value"):
            ingest_csv(io.StringIO(text), 2018)

    def test_header_field_over_csv_limit_reports_line_1(self):
        with pytest.raises(ParseError, match=r"^line 1: field larger than field limit"):
            ingest_csv(io.StringIO("y" * 131_073 + "\n2018,FRA,USA,1,2\n"), 2018)

    @pytest.mark.parametrize("source", [b"\xd4", io.BytesIO(b"\xd4")], ids=["bytes", "stream"])
    def test_non_utf8_is_parse_error(self, source):
        if isinstance(source, bytes):
            source = (HEADER + "\n2018,FRA,USA,1,2\n2018,C").encode() + source + b"TE,USA,1,2\n"
        else:
            source = io.BytesIO((HEADER + "\n2018,FRA,USA,1,2\n2018,C").encode()
                                + source.getvalue() + b"TE,USA,1,2\n")
        with pytest.raises(ParseError, match=r"^the trade CSV is not UTF-8 \(") as err:
            ingest_csv(source, 2018)
        assert err.value.line is None

    def test_lone_surrogate_is_an_id_error(self):
        with pytest.raises(ValidationError, match=r"^line 3: invalid country id"):
            ingest_csv(csv_stream("2018,FRA,USA,1,2", "2018,\ud800,USA,1,2"), 2018)

    @pytest.mark.parametrize("lines", [
        ["00002018,ABCDEFGH,abcdefgh,7,1\n", "2018,ABCDEFG,ABCDEFGH,       0,2\n",
         "2018, abcdefg,ABCDE,7,3\n", "2017,ABCDEFGH,ABCD,0,4\n"],
        ["2018,FRA,USA,7,1\r\n", "2018,USA,FRA,7, 2.5 \r\n", "2018,FRA,FRA,7,3\r\n",
         "2017,USA,FRA,7,4\r\n"],
        ["2018,FRA,USA,7,212467.0\n", "2018,USA,FRA,7,0.30000000000000004\n",
         "2018,FRA,USA,0,123456789012345\n", "2018,USA,FRA,0,1234567890123456\n",
         "2018,FRA,USA,1,.5\n", "2018,USA,FRA,1,5.\n", "2018,FRA,USA,2,+5\n",
         "2018,USA,FRA,2,0007\n", "2018,FRA,USA,3,99999999999999.9\n",
         "2018,USA,FRA,3,0.000000000000001\n", "2018,FRA,USA,4,1e3\n",
         # 16 and 17 digits, where a double of the digits would round twice
         "2018,USA,FRA,4,95142426273599.37\n", "2018,FRA,USA,5,43591.010316006538\n"],
    ], ids=["8-byte-keys", "crlf", "decimals"])
    def test_plain_block_reads_as_the_row_loop(self, lines):
        got = read_block(lines)
        assert got is not None and got == read_block(lines, row_loop=True)

    @pytest.mark.parametrize("line", [
        "2018,ABCDEFGHIJ,KEU9_LONGER,7,1\n", "2018,KEU9_LONGER,abcdefghij,7,2\n",
        "2018,FRA,ABCDEFGHIJ,0,3\n", "2018,ABCDEFGHIJKLMNOPQ,FRA,0,4\n",
        "000002018,FRA,USA,7,5\n", "2018,FRA,USA,        7,6\n"])
    def test_key_field_over_8_bytes_is_not_plain(self, line):
        # a year, id or code over 8 bytes: the row loop reads the block
        assert read_block(["2018,FRA,USA,7,1\n", line]) is None
        assert read_block(["2018,FRA,USA,7,1\n", line], row_loop=True)[0] == 0

    def test_long_id_in_a_later_block_reads_as_the_row_loop(self):
        rows = [*good_rows(20), "2018,ABCDEFGHI,USA,7,1", *good_rows(20)]
        block = len("\n".join(rows[:12]))  # the first block ends before the long id
        with mock.patch.object(trade_data, "_BLOCK", block), \
                mock.patch.object(trade_data, "_row_loop", wraps=trade_data._row_loop) as loop:
            got = ingest_outcome(csv_stream(*rows).getvalue())
            with row_loop_only():
                assert ingest_outcome(csv_stream(*rows).getvalue()) == got
            assert loop.call_args_list[0].args[1] > 2  # a plain block came first
            assert "ABCDEFGHI" in got[1] and got[4:] == (41, 0, 28)
            with pytest.raises(ValidationError, match=r"^line 32: invalid country id 'ABCDEFG I'$"):
                ingest_csv(csv_stream(*rows[:30], "2018,USA,ABCDEFG I,7,1", *rows[30:]), 2018)

    @pytest.mark.parametrize("row", ["\x1c2018\x1f,FRA,USA,7,\x1d5\x1e", "2018,FRA,USA,7,\x1c5"])
    def test_separator_blanks_around_numbers_are_stripped(self, row):
        # as str.strip does; int() and float() alone reject "\x1c" to "\x1f"
        text = "\n".join([HEADER, row]) + "\n"
        got = ingest_outcome(text)
        with row_loop_only():
            assert ingest_outcome(text) == got
        assert got[2:4] == (("7",), [([0, 1, 1], [1], [np.float64(5.0).view(np.int64)])])

    def test_short_decimals_take_the_exact_path(self):
        lines = ["2018,FRA,USA,7,212467.0\r\n", "2018,USA,FRA,7,.5\n", "2018,FRA,USA,7,5.\n",
                 "2018,USA,FRA,7,1234567890123456\n", "2018,FRA,USA,7,12345678901234.5\n"]
        with mock.patch.object(trade_data, "_float_fields", side_effect=AssertionError):
            got = read_block(lines)
        assert got == read_block(lines, row_loop=True)
        assert got[4] == np.array([212467.0, 0.5, 5.0, 1234567890123456.0,
                                   12345678901234.5]).view(np.int64).tolist()

    def test_written_values_take_the_word_path(self):
        # "N.0" of every length up to 16 bytes, as write_trade_csv writes whole values
        values = [float(int("98765432109876"[:k])) for k in range(1, 15)]
        mm = money_set([("AAA", f"B{k:02d}", "0", v) for k, v in enumerate(values)])
        buf = io.StringIO()
        write_trade_csv(mm, buf)
        assert "98765432109876.0\n" in buf.getvalue()
        with mock.patch.object(trade_data, "_float_fields", side_effect=AssertionError):
            same_bits(ingest_csv(io.StringIO(buf.getvalue()), 2018).money, mm)

    @pytest.mark.parametrize("line", [
        "2018,A\0B,USA,7,1\n", "2018,AB\0,USA,7,1\n", "2018\0,FRA,USA,7,1\n",
        "2018,FRA,USA,7,1\0\n", "2018,FRA,USA,7,1\r\r\n", "2018,FRA\r,USA,7,1\n"])
    def test_nul_or_lone_carriage_return_is_not_plain(self, line):
        assert read_block(["2018,FRA,USA,7,1\n", line]) is None
        assert read_block(["2018,FRA,USA,7,1\n", line.replace("\0", "").replace("\r", "")])


def read_block(lines, row_loop=False):
    """``_plain_block`` of ``lines``, joined, at year 2018 (or, with ``row_loop``,
    ``_row_loop``), each position as its key and each value as its bits; None when not
    plain. The block's line count must be that of ``lines``."""
    return read_blocks([lines], row_loop)


def read_blocks(blocks, row_loop=False):
    """``read_block`` of blocks read in turn with one set of ``_Keys``, each a list of
    lines, their columns joined; None when one is not plain."""
    years = trade_data._Keys(trade_data._year, 2018)
    ids = trade_data._Keys(trade_data.canonical_country_id)
    codes = trade_data._Keys(trade_data.canonical_product_code)
    parts = []
    for lines in blocks:
        if row_loop:
            block = trade_data._row_loop(csv.reader(lines), 2, years, ids, codes)
        else:
            block = trade_data._plain_block("".join(lines), years, ids, codes)
            if block is None:
                return None
            assert block[0] == len(lines)
            block = block[1:]
        parts.append(block)
    self_flows = sum(part[0] for part in parts)
    exporter, importer, product, value = (np.concatenate(column)
                                          for column in zip(*[part[1:] for part in parts]))
    id_keys, code_keys = list(ids.positions), list(codes.positions)
    return (self_flows, [id_keys[i] for i in exporter], [id_keys[i] for i in importer],
            [code_keys[i] for i in product], value.view(np.int64).tolist())


DIGITS = st.text("0123456789", max_size=17)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.tuples(DIGITS, st.sampled_from(["", "."]), DIGITS).map("".join),
                min_size=1, max_size=20))
def test_block_values_match_float(values):
    """Digit strings, with or without a point, up to 35 characters: each reads bit for
    bit as ``float`` reads it, or the block is not plain where ``float`` fails."""
    try:
        want = np.array([float(v) for v in values]).view(np.int64).tolist()
    except ValueError:
        want = None
    got = read_block([f"2018,FRA,USA,7,{v}\n" for v in values])
    assert (got and got[4]) == want


DIGIT_RUN = "98765432109876543"
WORD_VALUES = [
    *[DIGIT_RUN[:k] for k in range(1, 18)],  # up to 2 words and one byte past them
    *[DIGIT_RUN[:k] + "." + DIGIT_RUN[k:14] for k in range(15)],  # a point in 15 bytes
    *[DIGIT_RUN[:k] + "." + DIGIT_RUN[k:15] for k in range(16)],  # and in 16
    DIGIT_RUN[:8] + "." + DIGIT_RUN[8:16],  # 17 bytes with a point
    "0", "0007", "0000000000000000", "000000000000000.5", "0000000.00000000", "00.50",
    ".5", "5.", "0.", ".0",
    str(2 ** 53 - 1), str(2 ** 53 + 1), str(10 ** 16 - 1), str(10 ** 16),
    ".", "..5", "5..", "1.2.3", "", "1/2", "1:2", "1-2", "9" * 15 + "/",
]


@pytest.mark.parametrize("value", WORD_VALUES)
def test_values_read_a_word_at_a_time(value):
    """Each value reads bit for bit as ``float`` reads it, or the block is not plain
    where ``float`` fails; a field of at most 16 bytes, digits and at most one
    point, never reaches ``_float_fields``."""
    try:
        want = [np.float64(float(value)).view(np.int64).item()]
    except ValueError:
        want = None
    on_words = len(value) <= 16 and value.count(".") <= 1 and value.replace(".", "").isdigit()
    with (mock.patch.object(trade_data, "_float_fields", side_effect=AssertionError)
          if on_words else contextlib.nullcontext()):
        got = read_block([f"2018,FRA,USA,7,{value}\n"])
    assert (got and got[4]) == want


GOOD_FIELDS = {"year": ["2018", "2018", "2017", " 2018"],
               "id": ["FRA", "USA", "A_B", "C-D", "deu", " FRA", "ı", "ABCDEFGHIJ",
                      "KEU9_LONGER", "ABCD", "ABCDE", "ABCDEFGH", "ABCDEFGHI",
                      "ABCDEFGHIJKLMNOP", "ABCDEFGHIJKLMNOPQ"],
               "code": ["0", "7", "9", " 7"],
               "value": ["1", "2.5", "3e9", "0", "-0", "1e-300", " 4 ", "0007", "212467.0",
                         "123456789012345", "1234567890123456", "0.30000000000000004",
                         ".5", "5.", "+5"]}
BAD_FIELDS = {"year": ["20_18", "x", "２０１８", "", "2018\r", "2018\0"],
              "id": ["A B", "", "\ud800", "FRA\r", "A\0B"],
              "code": ["X", "77"],
              "value": ["-1", "nan", "inf", "1_0", "abc", "５", "1\r", "1\0", "", "1.2.3"]}
KINDS = ("year", "id", "id", "code", "value")
# an id over 8 bytes makes its block not plain, so plain rows draw the others
# and long ids come in as odd rows of their own
LONG_IDS = [i for i in GOOD_FIELDS["id"] if len(i.encode()) > 8]
PLAIN_ROW = st.tuples(*[st.sampled_from([f for f in GOOD_FIELDS[k] if f not in LONG_IDS])
                        for k in KINDS])
LONG_ID_ROW = st.tuples(PLAIN_ROW, st.integers(1, 2), st.sampled_from(LONG_IDS)).map(
    lambda t: tuple(t[2] if i == t[1] else f for i, f in enumerate(t[0])))
BAD_FIELD = st.sampled_from([0, 1, 2, 3, 4, 4]).flatmap(
    lambda k: st.tuples(st.just(k), st.sampled_from(BAD_FIELDS[KINDS[k]])))
BAD_ROW = st.tuples(PLAIN_ROW, BAD_FIELD).map(
    lambda t: tuple(t[1][1] if i == t[1][0] else f for i, f in enumerate(t[0])))
QUOTED_ROW = st.tuples(PLAIN_ROW, st.integers(0, 4), st.sampled_from(["", "\n", ","])).map(
    lambda t: tuple(f'"{f}{t[2]}"' if i == t[1] else f for i, f in enumerate(t[0])))
ODD_ROW = st.sampled_from(["", "   ", "2018,FRA,USA,7", "2018,FRA,USA,7,1,2", "2018,,USA,7,1"])

@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(st.lists(PLAIN_ROW.map(",".join), max_size=40),
       st.lists(st.tuples(st.integers(0, 40), st.one_of(BAD_ROW.map(",".join),
                                                         QUOTED_ROW.map(",".join), ODD_ROW,
                                                         LONG_ID_ROW.map(",".join))),
                max_size=3),
       st.sampled_from(["\n", "\n", "\r\n", "mixed"]), st.booleans(),
       st.sampled_from([1, 24, 48, 96]))
def test_block_parser_matches_row_loop(rows, odd_rows, ends, final_newline, block):
    """Bit-identical matrices and counters, or the same error and line, with and
    without the block parser: plain rows with up to three others (a bad field,
    a quoted one, a blank, short or long row, an id over 8 bytes) put in, and CRLF
    ends on all rows or on one."""
    for position, row in odd_rows:
        rows.insert(position, row)
    crlf = len(rows) // 2 if ends == "mixed" else None
    text = HEADER + "\n" + "".join(
        row + ("\r\n" if ends == "\r\n" or k == crlf else "\n") for k, row in enumerate(rows))
    if not final_newline:
        text = text.rstrip("\r\n")
    with mock.patch.object(trade_data, "_BLOCK", block):
        got = ingest_outcome(text)
        with row_loop_only():
            assert ingest_outcome(text) == got

def all_in_one_slot():
    """Patch ``_Keys`` so that every packed word hashes to slot 0: a table holds one
    word, and every other field is a miss, looked up on the exact path."""
    return mock.patch.object(trade_data._Keys, "slot",
                             lambda self, words: np.zeros(words.shape, np.int64))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.lists(PLAIN_ROW.map(lambda row: ",".join(row) + "\n"), min_size=1,
                         max_size=12), min_size=1, max_size=4))
def test_colliding_slots_read_as_the_table_and_row_loop(blocks):
    """Plain blocks read in turn with one set of ``_Keys``: bit-identical columns with
    the hash table, with every word in one slot, and with the row loop."""
    got = read_blocks(blocks)
    assert got is not None
    with all_in_one_slot():
        assert read_blocks(blocks) == got
    assert read_blocks(blocks, row_loop=True) == got


def trade_csv_text(mm):
    buf = io.StringIO()
    write_trade_csv(mm, buf)
    return buf.getvalue()


def lookup_calls(text):
    """(``_Keys``, packed fields, arrays it passed to ``np.unique``) of each ``_lookup``
    call that ``ingest_csv`` of ``text`` makes, in order."""
    calls, real_lookup, real_unique = [], trade_data._lookup, np.unique

    def lookup(words, start, length, keys):
        calls.append((keys, (words[start] & trade_data._LOW_BYTES[length]).tolist(), []))
        return real_lookup(words, start, length, keys)

    def unique(values, *args, **kwargs):
        if sys._getframe(1).f_code is real_lookup.__code__:
            calls[-1][2].append(np.array(values).tolist())
        return real_unique(values, *args, **kwargs)

    with mock.patch.object(trade_data, "_lookup", lookup), mock.patch.object(np, "unique", unique):
        ingest_csv(io.StringIO(text), 2018)
    return calls


class TestKeyTable:
    """``_Keys``' hash table: ``_lookup`` sorts only the fields a block has not met."""

    def test_colliding_slots_on_a_multi_block_file(self):
        text = trade_csv_text(gravity_money_set(5, 40, 4, density=0.5))
        with mock.patch.object(trade_data, "_BLOCK", 4096):
            assert len(text) > 8 * trade_data._BLOCK
            got = ingest_outcome(text)
            with all_in_one_slot():
                assert ingest_outcome(text) == got
            with row_loop_only():
                assert ingest_outcome(text) == got
        assert got[4] > 2000

    @pytest.mark.parametrize("row, bad", [
        (",FRA,USA,1,2", True), ("2018,,USA,1,2", True), ("2018,FRA,,1,2", True),
        ("2018,FRA,USA,,2", True), ("000002018,FRA,USA,1,2", False),
        ("2018,ABCDEFGHI,USA,1,2", False), ("2018,FRA,USA,        1,2", False),
        ("2018,NEW,USA,7,2", False)],
        ids=["empty-year", "empty-exporter", "empty-importer", "empty-product", "long-year",
             "long-id", "long-product", "new-id"])
    @pytest.mark.parametrize("slots", [contextlib.nullcontext, all_in_one_slot])
    def test_later_block_reads_as_the_row_loop(self, row, bad, slots):
        # the table is full once the first block is read; the row is on line 42
        rows = [*good_rows(40), row, *good_rows(5)]
        plain = []

        def plain_block(*args):
            plain.append(block := real(*args))
            return block

        real = trade_data._plain_block
        with mock.patch.object(trade_data, "_BLOCK", len("\n".join(rows[:20]))), slots():
            with mock.patch.object(trade_data, "_plain_block", plain_block):
                got = ingest_outcome(csv_stream(*rows).getvalue())
            with row_loop_only():
                assert ingest_outcome(csv_stream(*rows).getvalue()) == got
        assert plain[0] is not None and plain[0][0] < 40  # a plain block filled the table
        if bad:
            assert got[0] in (ParseError, ValidationError)
            assert got[2] == 42 or got[1].startswith("line 42: ")
        else:
            assert got[4] == 46 and row.split(",")[1] in got[1]

    @pytest.mark.parametrize("slots", [contextlib.nullcontext, all_in_one_slot])
    def test_empty_field_matches_no_slot(self, slots):
        # an empty field packs to 0, which an empty slot 0 holds too
        raw = np.frombuffer(b"FRA,USA,," + bytes(16), np.uint8)
        words = np.ndarray(raw.size - 7, "<u8", raw, strides=(1,))
        with slots():
            ids = trade_data._Keys(trade_data.canonical_country_id)
            assert trade_data._lookup(words, np.array([0, 4, 0]), np.array([3, 3, 3]),
                                      ids).tolist() == [0, 1, 0]
            # slot 0: empty, so only its position -1 tells it from the field, or FRA's
            assert ids.slot_positions[0] == (-1 if slots is contextlib.nullcontext else 0)
            with pytest.raises(ValidationError, match=r"^invalid country id ''$"):
                trade_data._lookup(words, np.array([0, 8]), np.array([3, 0]), ids)

    def test_table_gives_each_word_its_own_slot(self):
        ids = trade_data._Keys(trade_data.canonical_country_id)
        words = np.array([int.from_bytes(cid.encode(), "little")
                          for cid in synth_country_ids(600)], np.uint64)
        for part in np.array_split(words, 7):
            ids.store(part, np.arange(part.size))
        held = ids.slot_positions >= 0
        assert np.count_nonzero(held) == words.size
        assert ids.slot_positions.size >= trade_data._SLOTS_PER_WORD * words.size
        assert set(ids.slot_words[held].tolist()) == set(words.tolist())
        assert np.all(ids.slot(ids.slot_words[held]) == np.flatnonzero(held))

    @pytest.mark.parametrize("kind", ["taken", "shared"])
    def test_a_slot_clash_rebuilds_the_table(self, kind):
        # 5 words take 128 slots, room for 8: a new word in a taken slot, or two new
        # words in one slot, still get slots of their own
        ids = trade_data._Keys(trade_data.canonical_country_id)
        words = np.arange(1, 6, dtype=np.uint64)
        ids.store(words, np.arange(5))
        assert ids.slot_positions.size == 128
        candidates = np.arange(6, 1 << 16, dtype=np.uint64)
        slots = ids.slot(candidates)
        taken = np.isin(slots, ids.slot(words))
        new = (candidates[taken][:1] if kind == "taken"
               else candidates[slots == slots[~taken][0]][:2])
        ids.store(new, np.arange(5, 5 + new.size))
        words = np.concatenate((words, new))
        assert np.count_nonzero(ids.slot_positions >= 0) == words.size
        assert ids.slot_words[ids.slot(words)].tolist() == words.tolist()
        assert ids.slot_positions[ids.slot(words)].tolist() == list(range(words.size))

    def test_only_misses_reach_unique(self):
        # 194x10 at density 0.2: about 75k rows in 8 blocks, sorted by product, then
        # exporter, so later blocks meet new exporters and codes
        mm = gravity_money_set(3, 194, 10, density=0.2)
        header, *rows = trade_csv_text(mm).splitlines(keepends=True)
        ids, codes = mm.countries.ids, mm.products.codes
        every_key = [f"{mm.year},{ids[i]},{ids[i - 1]},{codes[i % len(codes)]},1.0\n"
                     for i in range(len(ids))]
        for lead, new_keys in (([], True), (every_key, False)):
            calls = lookup_calls(header + "".join(lead + rows))
            assert len(calls) >= 4 * 3  # three a block
            met = {}
            for k, (keys, packed, uniques) in enumerate(calls):
                seen = met.setdefault(id(keys), set())
                if k >= 3:  # after the first block: the fields it has not met, or nothing
                    assert uniques == ([[w for w in packed if w not in seen]]
                                       if not seen.issuperset(packed) else [])
                seen.update(packed)
            assert any(uniques for _, _, uniques in calls[3:]) == new_keys


MERGE_IDS = ("AAA", "BBB", "CAA", "DDD")


class TestMerge:
    def test_basic_reattribution(self):
        mm = money_set([("AAA", "BBB", "0", 1.0), ("AAA", "CCC", "0", 2.0),
                        ("BBB", "CCC", "0", 3.0)])
        merged = merge_country_group(mm, {"AAA", "BBB"}, "GRP")
        assert merged.countries.ids == ("CCC", "GRP")
        m = merged.matrices[merged.products.index_of("0")].toarray()
        ids = merged.countries.ids
        assert m[ids.index("CCC"), ids.index("GRP")] == 5.0  # GRP -> CCC
        assert np.count_nonzero(m) == 1

    def test_singleton_merge_is_relabel(self):
        mm = money_set([("AAA", "BBB", "0", 1.5), ("BBB", "AAA", "1", 2.5)])
        merged = merge_country_group(mm, {"AAA"}, "ZZZ")
        renamed = [tuple("ZZZ" if cid == "AAA" else cid for cid in (e, i)) + (p, v)
                   for e, i, p, v in records(mm)]
        assert sorted(records(merged)) == sorted(renamed)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(MERGE_IDS), st.sampled_from(MERGE_IDS),
                              st.sampled_from("037"), st.floats(1e-3, 1e9)),
                    min_size=1, max_size=30),
           st.sampled_from(MERGE_IDS), st.sampled_from(("0AA", "BZZ", "CC1", "ZZZ")))
    def test_one_member_merge_is_a_rename(self, flows, member, label):
        # bit for bit: the merge only moves the member's rows and columns to the label's
        # sorted place, so every stored value, and every row and column sum taken in
        # the registry's order, is that of the relabelled set
        flows = [flow for flow in flows if flow[0] != flow[1]]
        if member not in {cid for flow in flows for cid in flow[:2]}:
            return
        mm = money_set(flows)
        ids = [label if cid == member else cid for cid in mm.countries.ids]
        registry = CountryRegistry.from_ids(ids)
        position = np.array([registry.index_of(cid) for cid in ids])
        relabelled = []
        for m in mm.matrices:
            coo = m.tocoo()
            relabelled.append(sparse.csc_matrix(
                (coo.data, (position[coo.row], position[coo.col])), shape=m.shape))
        want = MoneyMatrixSet(tuple(relabelled), mm.year, registry, mm.products)
        got = merge_country_group(mm, {member}, label)
        assert got.countries.ids == want.countries.ids
        assert got.products.codes == want.products.codes
        same_bits(got, want)
        for name in ("imports", "exports"):
            assert np.array_equal(getattr(got, name).view(np.int64),
                                  getattr(want, name).view(np.int64))

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_conservation_random(self, seed):
        mm = random_money_set(seed, min_countries=6, max_countries=6, max_products=2)
        members = set(mm.countries.ids[:3])
        # oracle: classify raw records by membership
        intra = sum(v for e, i, _, v in records(mm) if e in members and i in members)
        merged = merge_country_group(mm, members, "GRP")
        assert merged.total_volume() == pytest.approx(
            mm.total_volume() - intra, rel=1e-9)
        assert merged.n_countries == mm.n_countries - len(members) + 1

    def test_disjoint_merges_commute(self):
        mm = random_money_set(11, min_countries=8, max_countries=8)
        ids = mm.countries.ids
        a = merge_country_group(merge_country_group(mm, ids[:2], "GG1"), ids[2:4], "GG2")
        b = merge_country_group(merge_country_group(mm, ids[2:4], "GG2"), ids[:2], "GG1")
        assert money_sets_equal(a, b)

    def test_unknown_member(self):
        mm = money_set([("AAA", "BBB", "0", 1.0)])
        with pytest.raises(ValidationError):
            merge_country_group(mm, {"AAA", "XXX"}, "GRP")

    def test_unknown_member_named_in_the_order_given(self):
        # the error must not depend on the string hash seed, so each seed runs in its own process
        probe = ("import wtnrank\n"
                 "mm = wtnrank.ingest_csv(b'year,exporter,importer,product,value_usd\\n'\n"
                 "                        b'2018,AAA,BBB,0,1.0\\n', 2018).money\n"
                 "try:\n"
                 "    wtnrank.merge_country_group(mm, ['XXA', 'XXB', 'XXC'], 'GRP')\n"
                 "except wtnrank.ValidationError as exc:\n"
                 "    print(exc)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        messages = []
        for seed in range(1, 7):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
            run = subprocess.run([sys.executable, "-c", probe], env=env,
                                 capture_output=True, text=True, check=True)
            messages.append(run.stdout.strip())
        assert messages == ["unknown member id 'XXA'"] * 6

    def test_label_collision(self):
        mm = money_set([("AAA", "BBB", "0", 1.0)])
        with pytest.raises(ValidationError):
            merge_country_group(mm, {"AAA"}, "BBB")

    def test_short_code_override(self):
        mm = money_set([("AAA", "BBB", "0", 1.0), ("BBB", "CCC", "0", 1.0)])
        merged = merge_country_group(mm, {"AAA", "BBB"}, "GRP", short="EU")
        codes = merged.countries.display_codes
        assert dict(codes) == {"CCC": "CC", "GRP": "EU"}
        with pytest.raises(TypeError):
            codes["CCC"] = "ZZ"  # read-only
        # a merged member's override goes with it, as the registry takes none of an unknown id
        again = merge_country_group(merged, {"GRP"}, "HHH")
        assert dict(again.countries.short_codes) == {}
        assert dict(again.countries.display_codes) == {"CCC": "CC", "HHH": "HH"}

    @pytest.mark.parametrize("text", [
        '{"label": "G", "members": "USA"}', '{"label": "G", "members": {"USA": 1}}',
        '[{"label": "G", "members": ["USA"]}]', '"G"', '{"label": "G", "members": []}'])
    def test_group_config_must_be_object_with_member_array(self, text):
        with pytest.raises(ValidationError, match="bad group config: need a JSON object"):
            load_group_config(io.StringIO(text))


class TestVolumeProbabilities:
    def test_single_flow(self):
        mm = money_set([("AAA", "BBB", "0", 10.0)])
        vp = volume_probabilities(mm)
        ids = mm.countries.ids
        assert vp.export_c[ids.index("AAA")] == 1.0
        assert vp.import_c[ids.index("BBB")] == 1.0

    @pytest.mark.parametrize("seed", [6, 7])
    def test_marginals_match_dense_sums(self, seed):
        mm = random_money_set(seed, min_countries=5, max_countries=5, max_products=2)
        vp = volume_probabilities(mm)
        dense = np.stack([m.toarray() for m in mm.matrices])  # (p, imp, exp)
        total = dense.sum()
        np.testing.assert_allclose(vp.import_c, dense.sum(axis=(0, 2)) / total, atol=1e-15)
        np.testing.assert_allclose(vp.export_c, dense.sum(axis=(0, 1)) / total, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_shares_sum_to_one(self, seed):
        vp = volume_probabilities(random_money_set(seed))
        assert abs(vp.import_c.sum() - 1.0) <= 1e-12
        assert abs(vp.export_c.sum() - 1.0) <= 1e-12

    def test_zero_volume_rejected(self):
        mm = money_set([], countries=CountryRegistry.from_ids(["AAA", "BBB"]),
                       products=ProductRegistry.from_codes(["0"]))
        with pytest.raises(EmptyDataError):
            volume_probabilities(mm)


def bits(x):
    return np.float64(x).view(np.int64)


def same_bits(got, want):
    """Matrices equal in structure and in every stored bit."""
    for m, ref in zip(got.matrices, want.matrices, strict=True):
        assert np.array_equal(m.indptr, ref.indptr)
        assert np.array_equal(m.indices, ref.indices)
        assert np.array_equal(m.data.view(np.int64), ref.data.view(np.int64))


def off_grid_set(seed):
    """Seeded gravity set with every value moved off the whole-dollar grid.

    Whole-dollar values add up exactly in any order; shocked values, as in
    a sensitivity run, do not, so only these can show a summation order.
    """
    rng = np.random.default_rng(seed)
    mm = small_money_set(seed, 40, 3)
    out = []
    for m in mm.matrices:
        m = m.copy()
        m.data *= rng.uniform(0.9, 1.1, m.nnz)
        out.append(m)
    return MoneyMatrixSet(tuple(out), mm.year, mm.countries, mm.products)


def shuffled_within_columns(m, rng):
    """Same matrix, with each column's stored entries in a random order."""
    indices, data = m.indices.copy(), m.data.copy()
    for j in range(m.shape[1]):
        lo, hi = m.indptr[j], m.indptr[j + 1]
        order = lo + rng.permutation(hi - lo)
        indices[lo:hi], data[lo:hi] = m.indices[order], m.data[order]
    return sparse.csc_matrix((data, indices, m.indptr.copy()), shape=m.shape)


class TestMatrixVolume:
    """``imports``, ``exports`` and ``total_volume``, each in its one documented order."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_row_then_column_order_oracle(self, seed):
        mm = off_grid_set(seed)
        n = mm.n_countries
        total = 0.0
        for p, m in enumerate(mm.matrices):
            row_sums, col_sums = [0.0] * n, []
            for j in range(n):
                acc = 0.0
                for k in range(m.indptr[j], m.indptr[j + 1]):  # stored order
                    acc += float(m.data[k])
                    row_sums[m.indices[k]] += float(m.data[k])  # ascending column order
                col_sums.append(acc)
            assert np.array_equal(mm.imports[p].view(np.int64),
                                  np.array(row_sums).view(np.int64))
            assert np.array_equal(mm.exports[p].view(np.int64),
                                  np.array(col_sums).view(np.int64))
            total += np.sum(np.array(row_sums))
        assert bits(mm.total_volume()) == bits(total)

    def test_stored_entry_order_is_irrelevant(self):
        rng = np.random.default_rng(0)
        storage_order_moved = False
        for seed in range(4):
            canonical = off_grid_set(seed)
            matrices = [shuffled_within_columns(m, rng) for m in canonical.matrices]
            storage_order_moved |= any(bits(m.data.sum()) != bits(ref.data.sum())
                                       for m, ref in zip(matrices, canonical.matrices))
            shuffled = MoneyMatrixSet(tuple(matrices), canonical.year, canonical.countries,
                                      canonical.products)
            assert money_sets_equal(shuffled, canonical)
            for attr in ("imports", "exports"):
                assert np.array_equal(getattr(shuffled, attr).view(np.int64),
                                      getattr(canonical, attr).view(np.int64))
            assert bits(shuffled.total_volume()) == bits(canonical.total_volume())
        # a sum over the stored entries would have moved, so the check has teeth
        assert storage_order_moved

    def test_sums_are_read_only(self):
        mm = off_grid_set(0)
        for sums in (mm.imports, mm.exports):
            assert sums.shape == (mm.n_products, mm.n_countries) and sums.dtype == np.float64
            with pytest.raises(ValueError):
                sums[0, 0] = 1.0
        assert mm.imports is mm.imports and mm.exports is mm.exports

    @pytest.mark.parametrize("step", [0.01, -0.01])
    def test_perturbed_total_matches_sorted_rebuild(self, step):
        mm = small_money_set(3, 40, 3)
        shock = Perturbation(LABOR_COST, target_country=mm.countries.ids[5])
        out = perturb_money(mm, shock, step)
        for m in out.matrices:
            assert m.format == "csc" and m.has_canonical_format
        scale = np.ones(mm.n_countries)
        scale[5] = 1.0 + step
        # the sparse product may leave each column's entries in any order
        product = [(m @ sparse.diags(scale)).tocsc() for m in mm.matrices]
        rebuilt = []
        for m in product:
            m = m.copy()
            m.sort_indices()
            rebuilt.append(m)

        def as_set(matrices):
            return MoneyMatrixSet(tuple(matrices), mm.year, mm.countries, mm.products)

        assert money_sets_equal(out, as_set(rebuilt))
        total = bits(out.total_volume())
        assert total == bits(as_set(rebuilt).total_volume())
        assert total == bits(as_set(product).total_volume())


TINY_ID = st.builds(str.__add__, st.sampled_from("A1B"), st.text("AB1-", max_size=2))


def chain_display_codes(registry):
    """The per-id short code -> display code chain that ``display_codes`` replaced,
    kept as its reference."""
    def short_code(cid):
        if cid in registry.short_codes:
            return registry.short_codes[cid]
        letters = [ch for ch in cid if ch.isalpha()]
        return "".join(letters[:2]).upper() or cid[:2]

    counts = Counter(short_code(cid) for cid in registry.ids)

    def display_code(cid):
        code = short_code(cid)
        return cid if counts[code] > 1 or code in registry.ids else code

    return {cid: display_code(cid) for cid in registry.ids}


class TestRegistries:
    def test_product_registry_rejects_bad_codes(self):
        with pytest.raises(ValidationError):
            ProductRegistry.from_codes(["x"])

    def test_lookups_are_built_once(self):
        reg = CountryRegistry.from_ids(["CCC", "AAA", "BBB"])
        products = ProductRegistry.from_codes(["7", "0"])
        assert reg.ids is reg.ids and products.codes is products.codes
        assert [reg.index_of(cid) for cid in reg.ids] == [0, 1, 2]
        assert [products.index_of(code) for code in products.codes] == [0, 1]
        with pytest.raises(ValidationError):
            products.index_of("5")

    def test_registries_hold_key_tuples(self):
        # a list would compare unequal to the same keys in a tuple
        assert CountryRegistry(["AAA", "CCC"]).ids == ("AAA", "CCC")
        assert ProductRegistry(["0", "7"]).codes == ("0", "7")

    @pytest.mark.parametrize("make, keys", [
        (CountryRegistry, ("BBB", "AAA")), (CountryRegistry, ("AAA", "AAA")),
        (CountryRegistry, ()),
        (ProductRegistry, ("7", "0")), (ProductRegistry, ("0", "0")),
        (ProductRegistry, ()), (ProductRegistry, ("0", " 7")),
    ])
    def test_registries_reject_keys_not_canonical_and_ascending(self, make, keys):
        with pytest.raises(ValidationError):
            make(keys)

    def test_short_codes_stay_as_checked(self):
        codes = {"AAA": "EU"}
        registry = CountryRegistry(("AAA", "BBB"), short_codes=codes)
        codes["AAA"] = 'E"U'  # the caller's dict changes after the check
        with pytest.raises(TypeError):
            registry.short_codes["AAA"] = "x y"
        assert dict(registry.short_codes) == {"AAA": "EU"}
        assert registry.display_codes["AAA"] == "EU"

    def test_country_registry_unknown_lookup(self):
        reg = CountryRegistry.from_ids(["AAA"])
        with pytest.raises(ValidationError):
            reg.index_of("ZZZ")

    @pytest.mark.parametrize("cid", ["aaa", " AAA", "A B", "-AA"])
    def test_country_registry_rejects_non_canonical_ids(self, cid):
        with pytest.raises(ValidationError):
            CountryRegistry.from_ids([cid, "BBB"])

    @pytest.mark.parametrize("code", ['E"U', "", "eu", "E U", "EU\n", 5,
                                      pytest.param({"ZZZ": "EU"}, id="unknown-id")])
    def test_country_registry_rejects_bad_short_codes(self, code):
        # a code that is no valid id, or a good code for an id the registry lacks
        ids = ("AAA", "BBB")
        assert CountryRegistry(ids, short_codes={"AAA": "EU"}).display_codes["AAA"] == "EU"
        with pytest.raises(ValidationError, match="^short code .* of '(AAA|ZZZ)'"):
            CountryRegistry(ids, short_codes=code if isinstance(code, dict) else {"AAA": code})

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.data())
    def test_display_codes_match_per_id_chain(self, data):
        # ids and codes from a three-character alphabet, so codes collide and are ids
        ids = sorted(data.draw(st.lists(TINY_ID, min_size=1, max_size=8, unique=True)))
        overridden = data.draw(st.lists(st.sampled_from(ids), unique=True))
        codes = data.draw(st.lists(TINY_ID, min_size=len(overridden), max_size=len(overridden)))
        registry = CountryRegistry(ids, short_codes=dict(zip(overridden, codes)))
        assert dict(registry.display_codes) == chain_display_codes(registry)
        assert len(set(registry.display_codes.values())) == len(ids)

    def test_in_memory_ids_canonicalized_at_ingest(self):
        mm = money_set([("aaa", " bbb ", " 0", 1.0), ("AAA", "ccc", "0", 2.0)])
        assert (mm.countries.ids, mm.products.codes) == (("AAA", "BBB", "CCC"), ("0",))
        with pytest.raises(ValidationError, match="invalid country id"):
            money_set([("a b", "BBB", "0", 1.0)])
        assert money_set([("aaa", "AAA", "0", 1.0), ("AAA", "BBB", "0", 2.0)]
                         ).matrices[0].nnz == 1  # a self-flow after canonicalizing


def gravity_by_flows(seed, n_countries, n_products, density=0.75, year=2018):
    """The per-flow loop that ``gravity_money_set`` vectorizes, as its reference."""
    rng = np.random.default_rng(seed)
    ids = synth_country_ids(n_countries)
    codes = sorted("0123456789")[:n_products]
    mass = rng.lognormal(mean=0.0, sigma=1.2, size=n_countries)
    product_weight = rng.lognormal(mean=0.0, sigma=0.8, size=n_products)
    distance = rng.uniform(0.5, 2.5, size=(n_countries, n_countries))
    distance = (distance + distance.T) / 2.0
    flows = []
    for p, code in enumerate(codes):
        noise = rng.lognormal(mean=0.0, sigma=0.5, size=(n_countries, n_countries))
        linked = rng.random((n_countries, n_countries)) < density
        for i in range(n_countries):  # exporter
            for j in range(n_countries):  # importer
                if i == j or not linked[i, j]:
                    continue
                value = product_weight[p] * mass[i] * mass[j] / distance[i, j]
                value = float(round(value * noise[i, j] * 1e7))
                if value > 0.0:
                    flows.append((ids[i], ids[j], code, value))
    return money_set(flows, year, CountryRegistry.from_ids(ids), ProductRegistry.from_codes(codes))


@pytest.mark.parametrize("args, density", [
    ((42, 12, 4), 0.75), ((0, 5, 1), 0.75), ((1, 40, 10), 0.75), ((7, 60, 3), 0.3),
])
def test_gravity_matches_per_flow_reference(args, density):
    got = gravity_money_set(*args, density=density)
    want = gravity_by_flows(*args, density=density)
    assert money_sets_equal(got, want)
    same_bits(got, want)


def money_by_dict(flows, year, countries, products):
    """Money matrices from already summed ``{(exporter, importer, product): value}``."""
    n = len(countries)
    matrices = []
    for code in products.codes:
        keys = [k for k in flows if k[2] == code]
        rows = [countries.index_of(imp) for _, imp, _ in keys]
        cols = [countries.index_of(exp) for exp, _, _ in keys]
        data = [flows[k] for k in keys]
        # unique keys, so the conversion only sorts and sums nothing
        matrices.append(sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsc())
    return MoneyMatrixSet(tuple(matrices), year, countries, products)


def ingest_by_dict(rows, year):
    """The dict aggregation that ingest used to run, kept as its reference."""
    flows = {}
    for row_year, exp, imp, prod, value in rows:
        if row_year != year or exp == imp:
            continue
        key = (exp, imp, prod)
        if key in flows:
            flows[key] += value
        else:
            flows[key] = value
    countries = CountryRegistry.from_ids({k[0] for k in flows} | {k[1] for k in flows})
    products = ProductRegistry.from_codes({k[2] for k in flows})
    return money_by_dict(flows, year, countries, products), flows


def off_grid_rows(seed, n_rows=600):
    """Flow rows with off-grid values, self-flows, another year, and one key
    repeated 12 times, where the order of the additions shows."""
    rng = np.random.default_rng(seed)
    ids = synth_country_ids(9)
    rows = [(2018 if rng.random() < 0.95 else 2017, ids[rng.integers(9)],
             ids[rng.integers(9)], str(rng.integers(4)), float(rng.uniform(0.0, 1e6)))
            for _ in range(n_rows)]
    # each small value is under half an ulp of the first, so in input order none counts
    heavy = [float(rng.uniform(1e16, 2e16))] + [float(v) for v in rng.uniform(0.1, 0.9, 11)]
    for value in heavy:
        rows.insert(int(rng.integers(len(rows))), (2018, ids[0], ids[1], "2", value))
    forward = backward = 0.0
    for value in heavy:
        forward += value
    for value in reversed(heavy):
        backward += value
    assert bits(forward) != bits(backward)  # so the order has to be right
    return rows


def bench_inputs():
    """The benchmark's seeded CSV generator, ``bench/inputs.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while built
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


ORACLE_IDS = ("AAA", "B-2", "C_D", "FR1", "USA")


def spelled(keys):
    """(key, a raw field that canonicalizes to it): letters in any case, blanks around."""
    blanks = st.sampled_from(["", " ", "\t", " \t "])
    return st.builds(lambda key, lower, left, right: (key, left + "".join(
        c.lower() if lower >> k & 1 else c for k, c in enumerate(key)) + right),
        st.sampled_from(keys), st.integers(0, 15), blanks, blanks)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(ORACLE_IDS), st.sampled_from(ORACLE_IDS),
                          st.sampled_from("0479"), st.floats(0.0, 1e6)), min_size=1, max_size=30),
       st.data())
def test_built_registries_ascend(flows, data):
    """Ingest, a merge whose label sorts between its members, and synth all build
    registries of strictly ascending ids."""
    flows = [flow for flow in flows if flow[0] != flow[1]]
    assume(flows)
    text = "".join(f"2018,{e},{i},{p},{v!r}\n" for e, i, p, v in flows)
    built = [ingest_csv(io.StringIO(HEADER + "\n" + text), 2018).money]
    members = data.draw(st.sets(st.sampled_from(built[0].countries.ids), min_size=2))
    label = min(members) + "Z"  # above the least member, below the rest
    merged = merge_country_group(built[0], members, label)
    built += [merged, gravity_money_set(data.draw(st.integers(0, 2 ** 32)),
                                        data.draw(st.integers(2, 60)))]
    assert sorted(members)[0] < label < sorted(members)[1]
    for mm in built:
        ids = mm.countries.ids
        assert all(a < b for a, b in zip(ids, ids[1:])), ids


class TestInputOrderSums:
    def test_split_flow_leaves_money_unchanged(self):
        inputs = bench_inputs()
        lines = inputs.generate(1, 40).csv_bytes.decode("ascii").splitlines()
        rng = np.random.default_rng(1)
        out, split = [lines[0]], 0
        for line, pick in zip(lines[1:], rng.random(len(lines) - 1) < 0.5):
            year, exporter, importer, product, value = line.split(",")
            if pick and int(year) == inputs.YEAR and exporter != importer:
                half = f"{year},{exporter},{importer},{product},{float(value) / 2.0!r}"
                out += [half, half]  # consecutive, so each key adds its parts in order
                split += 1
            else:
                out.append(line)
        before = ingest_csv(io.StringIO("\n".join(lines) + "\n"), inputs.YEAR)
        after = ingest_csv(io.StringIO("\n".join(out) + "\n"), inputs.YEAR)
        assert split > 1000
        same_bits(after.money, before.money)
        for name in ("imports", "exports"):
            got, want = getattr(after.money, name), getattr(before.money, name)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert after.rows_used == before.rows_used + split
        assert after.duplicates_merged == before.duplicates_merged + split
        assert after.self_flows_dropped == before.self_flows_dropped

    @pytest.mark.parametrize("seed", range(4))
    def test_ingest_matches_dict_reference(self, seed):
        rows = off_grid_rows(seed)
        text = "".join(f"{y},{e},{i},{p},{v!r}\n" for y, e, i, p, v in rows)
        result = ingest_csv(io.StringIO(HEADER + "\n" + text), 2018)
        want, flows = ingest_by_dict(rows, 2018)
        assert result.money.countries.ids == want.countries.ids
        assert result.money.products.codes == want.products.codes
        same_bits(result.money, want)
        used = sum(1 for y, e, i, _, _ in rows if y == 2018 and e != i)
        assert (result.rows_used, result.duplicates_merged) == (used, used - len(flows))

    @pytest.mark.parametrize("seed", range(4))
    def test_gate_matches_dict_reference(self, seed):
        # the year's flows without self-flows, each product's one COO matrix in input order
        rows = [row for row in off_grid_rows(seed) if row[0] == 2018 and row[1] != row[2]]
        want, _ = ingest_by_dict(rows, 2018)
        got = money_set([row[1:] for row in rows], 2018, want.countries, want.products)
        same_bits(got, want)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.lists(st.tuples(spelled(("2017", "2018")), spelled(ORACLE_IDS), spelled(ORACLE_IDS),
                              spelled("0479"), st.floats(0.0, 1e12)), min_size=1, max_size=40))
    def test_raw_spellings_match_dict_reference(self, raw):
        rows = [(int(y), e, i, p, v) for (y, _), (e, _), (i, _), (p, _), v in raw]
        text = "".join(f"{y},{e},{i},{p},{v!r}\n" for (_, y), (_, e), (_, i), (_, p), v in raw)
        analysed = [(e, i) for y, e, i, _, _ in rows if y == 2018]
        used = sum(1 for e, i in analysed if e != i)
        if not used:
            with pytest.raises(EmptyDataError):
                ingest_csv(io.StringIO(HEADER + "\n" + text), 2018)
            return
        want, flows = ingest_by_dict(rows, 2018)
        result = ingest_csv(io.StringIO(HEADER + "\n" + text), 2018)
        assert result.money.countries.ids == want.countries.ids
        assert result.money.products.codes == want.products.codes
        same_bits(result.money, want)
        assert (result.rows_used, result.self_flows_dropped, result.duplicates_merged) == \
            (used, len(analysed) - used, used - len(flows))

    def test_merge_adds_in_input_order(self):
        mm = gravity_money_set(1, 40, 2)
        cents = MoneyMatrixSet(tuple(m / 100.0 for m in mm.matrices), mm.year,
                               mm.countries, mm.products)
        members = set(cents.countries.ids[:9])
        merged = merge_country_group(cents, members, "GRP")

        def new_id(cid):
            return "GRP" if cid in members else cid

        flows = {}
        for code, m in zip(cents.products.codes, cents.matrices):
            coo = m.tocoo()  # each column's entries in storage order
            for imp, exp, value in zip(coo.row, coo.col, coo.data):
                key = (new_id(cents.countries.ids[exp]), new_id(cents.countries.ids[imp]), code)
                if key[0] != key[1]:
                    flows[key] = flows.get(key, 0.0) + float(value)
        same_bits(merged, money_by_dict(flows, mm.year, merged.countries, merged.products))

    # 0 sums every set over the unique keys, 10**9 every set over all possible keys
    @pytest.mark.parametrize("dense_keys", [0, trade_data._DENSE_KEYS, 10 ** 9])
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(ORACLE_IDS), st.sampled_from(ORACLE_IDS),
                              st.sampled_from("0479"), st.floats(0.0, 1e6)),
                    min_size=1, max_size=60),
           st.sets(st.sampled_from(ORACLE_IDS), min_size=1, max_size=3))
    def test_key_sums_match_dict_reference(self, dense_keys, flows, members):
        """Flows through the gate and the merge of their set, bit for bit as an
        input-order dict sum, whether the keys are summed by ``bincount`` over all of
        them or over the unique ones; the default bound takes each way on some of
        these sets."""
        flows = [flow for flow in flows if flow[0] != flow[1]]  # the gate takes no self-flow
        countries, products = CountryRegistry(ORACLE_IDS), ProductRegistry.from_codes("0479")
        with mock.patch.object(trade_data, "_DENSE_KEYS", dense_keys):
            got = money_set(flows, 2018, countries, products)
            merged = merge_country_group(got, members, "GRP")
        want = {}
        for e, i, p, v in flows:
            want[(e, i, p)] = want.get((e, i, p), 0.0) + v
        same_bits(got, money_by_dict(want, 2018, countries, products))
        merged_want = {}
        for code, m in zip(products.codes, got.matrices):
            coo = m.tocoo()  # each column's entries in storage order
            for imp, exp, value in zip(coo.row, coo.col, coo.data):
                key = tuple("GRP" if countries.ids[k] in members else countries.ids[k]
                            for k in (exp, imp)) + (code,)
                if key[0] != key[1]:
                    merged_want[key] = merged_want.get(key, 0.0) + float(value)
        same_bits(merged, money_by_dict(merged_want, 2018, merged.countries, products))

    def test_many_ids_keep_memory_linear_in_flows(self):
        """500 flows naming 1,000 ids have 10**7 possible keys: a sum over all of them
        would hold about 90 MB, so these are summed over the unique keys."""
        rows = "".join(f"2018,X{2 * i},X{2 * i + 1},{i % 10},1.0\n" for i in range(500))
        tracemalloc.start()
        try:
            result = ingest_csv(io.StringIO(HEADER + "\n" + rows), 2018)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.rows_used, result.money.n_countries) == (500, 1000)
        assert peak < 10 * 2 ** 20


def storage_order_twin(matrices, mm):
    """The canonical set whose entries sum each key's stored parts one by one,
    in storage order, from 0.0."""
    flows = {}
    for code, m in zip(mm.products.codes, matrices):
        coo = m.tocoo()
        for imp, exp, value in zip(coo.row, coo.col, coo.data):
            key = (mm.countries.ids[exp], mm.countries.ids[imp], code)
            flows[key] = flows.get(key, 0.0) + float(value)
    return money_by_dict(flows, mm.year, mm.countries, mm.products)


def labor_shock(mm):
    return Perturbation(LABOR_COST, target_country=mm.countries.ids[3])


GATE_CONSTRUCTORS = {
    "ingest_csv": lambda: ingest_csv(io.StringIO(HEADER + "\n" + "".join(
        f"{y},{e},{i},{p},{v!r}\n" for y, e, i, p, v in off_grid_rows(0))), 2018).money,
    "merge_country_group": lambda: merge_country_group(
        non_canonical(gravity_money_set(2, 30, 3), 2), synth_country_ids(5), "GRP"),
    "perturb_money": lambda: perturb_money(
        non_canonical(gravity_money_set(3, 30, 3), 3), labor_shock(gravity_money_set(3)), 0.01),
    "gravity_money_set": lambda: gravity_money_set(4, 30, 3),
    "MoneyMatrixSet": lambda: non_canonical(gravity_money_set(42), 0),
    "MoneyMatrixSet-int64": lambda: MoneyMatrixSet(
        (sparse.csc_matrix(np.array([[0, 7], [3, 0]])),), 2018,
        CountryRegistry.from_ids(["AAA", "BBB"]), ProductRegistry.from_codes(["0"])),
}


OVERFLOW = "product '0': the flows AAA->BBB sum past the largest finite float"


class TestGate:
    """MoneyMatrixSet construction checks every flow and holds canonical CSC."""

    @pytest.mark.parametrize("name", list(GATE_CONSTRUCTORS))
    def test_every_constructor_gives_canonical_csc(self, name):
        mm = GATE_CONSTRUCTORS[name]()
        n = mm.n_countries
        for m in mm.matrices:
            assert type(m) is sparse.csc_matrix and m.dtype == np.float64
            assert m.indptr.size == n + 1 and m.indptr[0] == 0 and m.indptr[-1] == m.data.size
            keys = np.repeat(np.arange(n), np.diff(m.indptr)) * n + m.indices
            assert np.all(np.diff(keys) > 0)  # rows sorted within each column, none twice

    def test_non_canonical_sums_follow_storage_order(self):
        mm = gravity_money_set(42)
        raw = non_canonical_matrices(mm, 0)
        same_bits(MoneyMatrixSet(raw, mm.year, mm.countries, mm.products),
                  storage_order_twin(raw, mm))

    @pytest.mark.parametrize("seed", range(3))
    def test_non_canonical_set_behaves_as_its_canonical_twin(self, seed):
        mm = gravity_money_set(42, 40, 10)
        raw = non_canonical_matrices(mm, seed)
        got = MoneyMatrixSet(raw, mm.year, mm.countries, mm.products)
        twin = storage_order_twin(raw, mm)
        same_bits(perturb_money(got, labor_shock(mm), 0.0), twin)
        for direction in (DIRECT, INVERTED):
            g, want = build_google(got, direction), build_google(twin, direction)
            assert np.array_equal(g.dangling, want.dangling)
            for attr in ("indptr", "indices"):
                assert np.array_equal(getattr(g.links, attr), getattr(want.links, attr))
            assert np.array_equal(g.links.data.view(np.int64), want.links.data.view(np.int64))
        members = mm.countries.ids[:3]
        same_bits(merge_country_group(got, members, "GRP"),
                  merge_country_group(twin, members, "GRP"))

    @pytest.mark.parametrize("value", [-3.0, np.nan, np.inf])
    @pytest.mark.parametrize("layout", ["canonical", "duplicate"])
    def test_bad_flow_rejected(self, value, layout):
        countries = CountryRegistry.from_ids(["AAA", "BBB", "CCC"])
        products = ProductRegistry.from_codes(["0", "4"])
        ok = sparse.csc_matrix(np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 5.0, 0.0]]))
        if layout == "canonical":
            bad = sparse.csc_matrix(([value], ([1], [0])), shape=(3, 3))
        else:  # a positive part stored beside the bad one must not hide it
            bad = sparse.coo_matrix(([9.0, value], ([1, 1], [0, 0])), shape=(3, 3))
        match = f"product '4': negative or non-finite flow {value}"
        with pytest.raises(ValidationError, match=match):
            MoneyMatrixSet((ok, bad), 2018, countries, products)

    @pytest.mark.parametrize("layout", ["canonical", "duplicate"])
    def test_diagonal_entry_rejected(self, layout):
        countries = CountryRegistry.from_ids(["AAA", "BBB"])
        products = ProductRegistry.from_codes(["0"])
        if layout == "canonical":
            m = sparse.csc_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        else:
            m = sparse.coo_matrix(([0.0, 1.0, 2.0], ([1, 0, 1], [1, 1, 1])), shape=(2, 2))
        with pytest.raises(ValidationError, match="product '0': nonzero self-flow"):
            MoneyMatrixSet((m,), 2018, countries, products)

    @pytest.mark.parametrize("year", ["2018", True, 2018.5, None, np.int64(2018)])
    def test_one_year_rule(self, year):
        args = ((sparse.csc_matrix(np.array([[0.0, 1.0], [2.0, 0.0]])),), year,
                CountryRegistry.from_ids(["AAA", "BBB"]), ProductRegistry.from_codes(["0"]))
        if not isinstance(year, np.integer):
            message = rf"^year {re.escape(repr(year))} is not an int$"  # as ingest words it
            with pytest.raises(ValidationError, match=message):
                MoneyMatrixSet(*args)
            return
        for mm in (MoneyMatrixSet(*args), ingest_csv(csv_stream("2018,AAA,BBB,0,1"), year).money):
            assert type(mm.year) is int and mm.year == 2018
            out = io.StringIO()
            write_balance_json(balance_report(mm, VOLUME_BASED), out)
            assert '"year": 2018' in out.getvalue()

    def test_stored_zero_on_the_diagonal_is_accepted(self):
        countries = CountryRegistry.from_ids(["AAA", "BBB"])
        m = sparse.coo_matrix(([0.0, 1.0], ([0, 0], [0, 1])), shape=(2, 2))
        mm = MoneyMatrixSet((m,), 2018, countries, ProductRegistry.from_codes(["0"]))
        assert mm.matrices[0].toarray().tolist() == [[0.0, 1.0], [0.0, 0.0]]

    @pytest.mark.parametrize("matrix", [np.zeros((2, 2)), sparse.csc_matrix((2, 3))])
    def test_dense_or_misshapen_matrix_rejected(self, matrix):
        with pytest.raises(ValidationError, match="not a sparse 2x2 matrix"):
            MoneyMatrixSet((matrix,), 2018, CountryRegistry.from_ids(["AAA", "BBB"]),
                           ProductRegistry.from_codes(["0"]))

    def test_ingest_names_the_key_whose_flows_overflow(self):
        text = "\n".join([HEADER, "2018,AAA,CCC,0,1", *["2018,AAA,BBB,0,1e308"] * 2]) + "\n"
        for patch in (contextlib.nullcontext(), row_loop_only()):
            with patch, pytest.raises(ValidationError, match=rf"^{OVERFLOW}$"):
                ingest_csv(io.StringIO(text), 2018)

    def test_in_memory_flows_name_the_key_whose_flows_overflow(self):
        flows = [("AAA", "CCC", "0", 1.0), *[("AAA", "BBB", "0", 1e308)] * 2]
        for countries in (None, CountryRegistry.from_ids(["AAA", "BBB", "CCC"])):
            with pytest.raises(ValidationError, match=rf"^{OVERFLOW}$"):
                money_set(flows, countries=countries)  # through ingest, then the gate

    def test_rebuild_and_merge_name_the_key_whose_flows_overflow(self):
        countries = CountryRegistry.from_ids(["AAA", "BBB", "CCC"])
        products = ProductRegistry.from_codes(["0"])
        duplicate = sparse.coo_matrix(([1e308, 1e308], ([1, 1], [0, 0])), shape=(3, 3))
        with pytest.raises(ValidationError, match=rf"^{OVERFLOW}$"):
            MoneyMatrixSet((duplicate,), 2018, countries, products)
        mm = money_set([("AAA", "CCC", "0", 1e308), ("BBB", "CCC", "0", 1e308)])
        with pytest.raises(ValidationError, match=r"^product '0': the flows GRP->CCC sum past"):
            merge_country_group(mm, ["AAA", "BBB"], "GRP")
