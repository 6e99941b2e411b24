import gc
import io
import warnings

import numpy as np
import pytest
from conftest import random_money_set, small_money_set
from scipy import sparse

from wtnrank import (
    LABOR_COST,
    CountryRegistry,
    EmptyDataError,
    MoneyMatrixSet,
    ParseError,
    Perturbation,
    ProductRegistry,
    TradeFlowRecord,
    ValidationError,
    gravity_money_set,
    ingest_csv,
    merge_country_group,
    money_from_records,
    money_sets_equal,
    perturb_money,
    volume_probabilities,
    write_trade_csv,
)
from wtnrank.synth import synth_country_ids
from wtnrank.trade_data import matrix_volume

HEADER = "year,exporter,importer,product,value_usd"


def csv_stream(*rows):
    return io.StringIO("\n".join([HEADER, *rows]) + "\n")


def rec(exp, imp, prod, value, year=2018):
    return TradeFlowRecord(year, exp, imp, prod, value)


class TestIngest:
    def test_transcribes_rows(self):
        result = ingest_csv(csv_stream(
            "2018,FRA,USA,7,5e9",
            "2018,USA,FRA,7,3e9",
        ), 2018)
        mm = result.money
        assert mm.countries.ids == ("FRA", "USA")
        assert mm.products.codes == ("7",)
        m = mm.matrix_for("7").toarray()
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
        assert result.money.matrix_for("0").diagonal().sum() == 0.0
        assert result.money.total_volume() == 2e6

    def test_only_self_flows_is_empty_data(self):
        with pytest.raises(EmptyDataError):
            ingest_csv(csv_stream("2018,FRA,FRA,0,1e6"), 2018)

    def test_duplicate_keys_summed(self):
        rows = ["2018,FRA,USA,3,2.0", "2018,FRA,USA,3,3.0", "2018,USA,FRA,3,7.0"]
        # oracle: grouped sum over the raw rows
        expected = {}
        for r in rows:
            y, e, i, p, v = r.split(",")
            expected[(e, i, p)] = expected.get((e, i, p), 0.0) + float(v)
        result = ingest_csv(csv_stream(*rows), 2018)
        m = result.money.matrix_for("3")
        ids = result.money.countries.ids
        for (e, i, p), v in expected.items():
            assert m[ids.index(i), ids.index(e)] == v
        assert result.duplicates_merged == 1

    def test_malformed_row_reports_line(self):
        with pytest.raises(ParseError) as err:
            ingest_csv(csv_stream("2018,FRA,USA,7,5e9", "not-a-year,FRA,USA,7,1"), 2018)
        assert err.value.line == 3
        assert "line 3" in str(err.value)

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


class TestMerge:
    def test_basic_reattribution(self):
        mm = money_from_records(
            [rec("AAA", "BBB", "0", 1.0), rec("AAA", "CCC", "0", 2.0),
             rec("BBB", "CCC", "0", 3.0)], 2018)
        merged = merge_country_group(mm, {"AAA", "BBB"}, "GRP")
        assert merged.countries.ids == ("CCC", "GRP")
        m = merged.matrix_for("0").toarray()
        ids = merged.countries.ids
        assert m[ids.index("CCC"), ids.index("GRP")] == 5.0  # GRP -> CCC
        assert np.count_nonzero(m) == 1
        assert merged.countries.group_labels["GRP"] == ("AAA", "BBB")

    def test_singleton_merge_is_relabel(self):
        mm = money_from_records(
            [rec("AAA", "BBB", "0", 1.5), rec("BBB", "AAA", "1", 2.5)], 2018)
        merged = merge_country_group(mm, {"AAA"}, "ZZZ")
        renamed = [
            TradeFlowRecord(r.year, "ZZZ" if r.exporter == "AAA" else r.exporter,
                            "ZZZ" if r.importer == "AAA" else r.importer,
                            r.product, r.value_usd)
            for r in mm.records()
        ]
        assert sorted((r.exporter, r.importer, r.product, r.value_usd)
                      for r in merged.records()) == \
            sorted((r.exporter, r.importer, r.product, r.value_usd) for r in renamed)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_conservation_random(self, seed):
        mm = random_money_set(seed, min_countries=6, max_countries=6, max_products=2)
        members = set(mm.countries.ids[:3])
        # oracle: classify raw records by membership
        intra = sum(r.value_usd for r in mm.records()
                    if r.exporter in members and r.importer in members)
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
        mm = money_from_records([rec("AAA", "BBB", "0", 1.0)], 2018)
        with pytest.raises(ValidationError):
            merge_country_group(mm, {"AAA", "XXX"}, "GRP")

    def test_label_collision(self):
        mm = money_from_records([rec("AAA", "BBB", "0", 1.0)], 2018)
        with pytest.raises(ValidationError):
            merge_country_group(mm, {"AAA"}, "BBB")

    def test_short_code_override(self):
        mm = money_from_records(
            [rec("AAA", "BBB", "0", 1.0), rec("BBB", "CCC", "0", 1.0)], 2018)
        merged = merge_country_group(mm, {"AAA", "BBB"}, "GRP", short="EU")
        assert merged.countries.short_code("GRP") == "EU"
        assert merged.countries.short_code("CCC") == "CC"


class TestVolumeProbabilities:
    def test_single_flow(self):
        mm = money_from_records([rec("AAA", "BBB", "0", 10.0)], 2018)
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
        np.testing.assert_allclose(vp.import_pc, dense.sum(axis=2) / total, atol=1e-15)
        np.testing.assert_allclose(vp.export_pc, dense.sum(axis=1) / total, atol=1e-15)
        np.testing.assert_allclose(vp.import_c, dense.sum(axis=(0, 2)) / total, atol=1e-15)
        np.testing.assert_allclose(vp.export_p, dense.sum(axis=1).sum(axis=1) / total,
                                   atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_joints_sum_to_one(self, seed):
        vp = volume_probabilities(random_money_set(seed))
        assert abs(vp.import_pc.sum() - 1.0) <= 1e-12
        assert abs(vp.export_pc.sum() - 1.0) <= 1e-12
        assert abs(vp.import_c.sum() - 1.0) <= 1e-12
        assert abs(vp.export_p.sum() - 1.0) <= 1e-12

    def test_zero_volume_rejected(self):
        mm = money_from_records(
            [], 2018,
            countries=CountryRegistry.from_ids(["AAA", "BBB"]),
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


def off_grid_matrices(seed):
    """Seeded gravity matrices with every value moved off the whole-dollar grid.

    Whole-dollar values add up exactly in any order; shocked values, as in
    a sensitivity run, do not, so only these can show a summation order.
    """
    rng = np.random.default_rng(seed)
    out = []
    for m in small_money_set(seed, 40, 3).matrices:
        m = m.copy()
        m.data *= rng.uniform(0.9, 1.1, m.nnz)
        out.append(m)
    return out


def shuffled_within_columns(m, rng):
    """Same matrix, with each column's stored entries in a random order."""
    indices, data = m.indices.copy(), m.data.copy()
    for j in range(m.shape[1]):
        lo, hi = m.indptr[j], m.indptr[j + 1]
        order = lo + rng.permutation(hi - lo)
        indices[lo:hi], data[lo:hi] = m.indices[order], m.data[order]
    return sparse.csc_matrix((data, indices, m.indptr.copy()), shape=m.shape)


class TestMatrixVolume:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_row_then_column_order_oracle(self, seed):
        for m in off_grid_matrices(seed):
            dense = m.toarray()
            row_sums = []
            for row in dense:
                acc = 0.0
                for value in row:  # ascending column order
                    acc += value
                row_sums.append(acc)
            expected = np.sum(np.array(row_sums))
            assert bits(matrix_volume(m)) == bits(expected)

    def test_stored_entry_order_is_irrelevant(self):
        rng = np.random.default_rng(0)
        storage_order_moved = False
        for m in (m for seed in range(4) for m in off_grid_matrices(seed)):
            shuffled = shuffled_within_columns(m, rng)
            # measured first: scipy's whole-matrix sum, for one, sorts entries in place
            storage_order_moved |= bits(shuffled.data.sum()) != bits(m.data.sum())
            assert bits(matrix_volume(shuffled)) == bits(matrix_volume(m))
            assert (shuffled != m).nnz == 0
        # a sum over the stored entries would have moved, so the check has teeth
        assert storage_order_moved

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



class TestRegistries:
    def test_product_registry_rejects_bad_codes(self):
        with pytest.raises(ValidationError):
            ProductRegistry.from_codes(["x"])

    def test_product_registry_sitc1_has_ten(self):
        assert len(ProductRegistry.sitc1()) == 10
        assert ProductRegistry.sitc1().codes == tuple("0123456789")

    def test_lookups_are_built_once(self):
        reg = CountryRegistry.from_ids(["CCC", "AAA", "BBB"])
        products = ProductRegistry.from_codes(["7", "0"])
        assert reg.ids is reg.ids and products.codes is products.codes
        assert [reg.index_of(cid) for cid in reg.ids] == [0, 1, 2]
        assert [products.index_of(code) for code in products.codes] == [0, 1]
        with pytest.raises(ValidationError):
            products.index_of("5")

    def test_country_registry_unknown_lookup(self):
        reg = CountryRegistry.from_ids(["AAA"])
        with pytest.raises(ValidationError):
            reg.index_of("ZZZ")

    def test_records_outside_given_registries_rejected(self):
        countries = CountryRegistry.from_ids(["AAA", "BBB"])
        products = ProductRegistry.from_codes(["0"])
        for bad in (rec("AAA", "CCC", "0", 1.0), rec("CCC", "AAA", "0", 1.0),
                    rec("AAA", "BBB", "1", 1.0)):
            with pytest.raises(ValidationError):
                money_from_records([bad], 2018, countries, products)


def gravity_by_records(seed, n_countries, n_products, density=0.75, year=2018):
    """The per-flow loop that ``gravity_money_set`` vectorizes, as its reference."""
    rng = np.random.default_rng(seed)
    ids = synth_country_ids(n_countries)
    codes = sorted("0123456789")[:n_products]
    mass = rng.lognormal(mean=0.0, sigma=1.2, size=n_countries)
    product_weight = rng.lognormal(mean=0.0, sigma=0.8, size=n_products)
    distance = rng.uniform(0.5, 2.5, size=(n_countries, n_countries))
    distance = (distance + distance.T) / 2.0
    records = []
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
                    records.append(TradeFlowRecord(year, ids[i], ids[j], code, value))
    return money_from_records(records, year, CountryRegistry.from_ids(ids),
                              ProductRegistry.from_codes(codes))


@pytest.mark.parametrize("args, density", [
    ((42, 12, 4), 0.75), ((0, 5, 1), 0.75), ((1, 40, 10), 0.75), ((7, 60, 3), 0.3),
])
def test_gravity_matches_per_flow_reference(args, density):
    got = gravity_money_set(*args, density=density)
    want = gravity_by_records(*args, density=density)
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


class TestInputOrderSums:
    @pytest.mark.parametrize("seed", range(4))
    def test_ingest_matches_dict_reference(self, seed):
        rows = off_grid_rows(seed)
        text = "".join(f"{y},{e},{i},{p},{v!r}\n" for y, e, i, p, v in rows)
        result = ingest_csv(io.StringIO(HEADER + "\n" + text), 2018)
        want, flows = ingest_by_dict(rows, 2018)
        assert result.money.countries.entries == want.countries.entries
        assert result.money.products.entries == want.products.entries
        same_bits(result.money, want)
        used = sum(1 for y, e, i, _, _ in rows if y == 2018 and e != i)
        assert (result.rows_used, result.duplicates_merged) == (used, used - len(flows))

    @pytest.mark.parametrize("seed", range(4))
    def test_records_match_dict_reference(self, seed):
        rows = off_grid_rows(seed)
        records = [TradeFlowRecord(*row) for row in rows]
        got = money_from_records(records, 2018)
        flows = {}
        for r in records:
            if r.year == 2018 and r.exporter != r.importer:
                key = (r.exporter, r.importer, r.product)
                flows[key] = flows.get(key, 0.0) + r.value_usd
        same_bits(got, money_by_dict(flows, 2018, got.countries, got.products))
        assert got.countries.ids == tuple(sorted({k[0] for k in flows} | {k[1] for k in flows}))

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

    def test_rows_follow_ids_not_registry_positions(self):
        countries = CountryRegistry((("CCC", "C"), ("AAA", "A"), ("DDD", "D"), ("BBB", "B")))
        products = ProductRegistry.from_codes(["1", "4"])
        rng = np.random.default_rng(0)
        matrices = []
        for _ in products.codes:
            dense = np.round(rng.uniform(0.0, 10.0, (4, 4)), 2) * (rng.random((4, 4)) < 0.7)
            np.fill_diagonal(dense, 0.0)
            matrices.append(sparse.csc_matrix(dense))
        mm = MoneyMatrixSet(tuple(matrices), 2018, countries, products)
        ids = countries.ids
        want = []
        for code, m in zip(products.codes, matrices):
            coo = m.tocoo()
            want += [TradeFlowRecord(2018, ids[exp], ids[imp], code, float(v))
                     for imp, exp, v in zip(coo.row, coo.col, coo.data) if v != 0.0]
        want.sort(key=lambda r: (r.product, r.exporter, r.importer))
        assert mm.records() == want
        assert [r.exporter for r in want[:2]] == ["AAA", "AAA"]
        out = io.StringIO()
        write_trade_csv(mm, out)
        assert out.getvalue().splitlines() == [HEADER] + [
            f"2018,{r.exporter},{r.importer},{r.product},{r.value_usd!r}" for r in want]
