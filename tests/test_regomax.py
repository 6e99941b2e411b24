import io
import tracemalloc

import numpy as np
import pytest
from conftest import small_money_set
from scipy import sparse

from wtnrank import (
    DIRECT,
    INVERTED,
    ConvergenceError,
    GoogleMatrix,
    MoneyMatrixSet,
    ProductRegistry,
    TradeFlowRecord,
    ValidationError,
    build_google,
    merge_country_group,
    money_from_records,
    pagerank,
    reduce,
    strongest_links,
)
from wtnrank.regomax import write_dot, write_matrix_csv


def reduced_case(seed, n_c, n_p, n_actors, direction=DIRECT, density=0.7, damping=0.5):
    mm = small_money_set(seed, n_c, n_p, density=density)
    g = build_google(mm, direction, damping)
    selection = [(c, p) for c in mm.countries.ids[:n_actors] for p in mm.products.codes]
    return g, selection


def dangling_money_set(seed, n_c, n_p):
    """Gravity set where the first and last countries export nothing in product 0
    and import nothing in the last product, plus a product "9" with no volume.

    A selection of the first countries then has dangling columns in both the
    reduced and the scattering set, in both flow directions.
    """
    mm = small_money_set(seed, n_c, n_p, density=0.7)
    keep = np.ones(n_c)
    keep[[0, -1]] = 0.0
    cut = sparse.diags(keep)
    matrices = [m @ cut if p == 0 else cut @ m if p == n_p - 1 else m
                for p, m in enumerate(mm.matrices)]
    matrices = [sparse.csc_matrix(m) for m in matrices] + [sparse.csc_matrix((n_c, n_c))]
    products = ProductRegistry.from_codes([*mm.products.codes, "9"])
    return MoneyMatrixSet(tuple(matrices), mm.year, mm.countries, products)


# seeded cases 0-3 and the dangling set; the ids at damping 0.5 carry no damping
ORACLE_CASES = [
    pytest.param(case, damping, id=f"{case}" if damping == 0.5 else f"{case}-{damping}")
    for damping in (0.5, 0.85, 1.0) for case in (0, 1, 2, 3, "dangling")]


def oracle_case(case, direction, damping):
    if case == "dangling":
        mm = dangling_money_set(7, 8, 3)
        g = build_google(mm, direction, damping)
        return g, [(c, p) for c in mm.countries.ids[:2] for p in mm.products.codes]
    return reduced_case(case, 8, 3, 2, direction, damping=damping)  # N=24, N_r=6


def dense_blocks(g, selection):
    """G_rr, G_rs, G_sr, G_ss cut from the dense effective matrix."""
    full = g.effective_dense()
    idx = np.array([g.node_of(c, p) for c, p in selection])
    sc = np.setdiff1d(np.arange(full.shape[0]), idx)
    return (full[np.ix_(idx, idx)], full[np.ix_(idx, sc)], full[np.ix_(sc, idx)],
            full[np.ix_(sc, sc)])


def dense_oracle(g, selection):
    """G_rr + G_rs (I - G_ss)^-1 G_sr via explicit inversion."""
    g_rr, g_rs, g_sr, g_ss = dense_blocks(g, selection)
    return g_rr + g_rs @ np.linalg.inv(np.eye(g_ss.shape[0]) - g_ss) @ g_sr


class TestReduce:
    def test_full_selection_is_identity_partition(self):
        g, _ = reduced_case(40, 4, 2, 2)
        selection = [g.node_pair(i) for i in range(g.n_nodes)]
        r = reduce(g, selection)
        np.testing.assert_array_equal(r.g_r, g.effective_dense())
        np.testing.assert_array_equal(r.g_pr, 0.0)
        np.testing.assert_array_equal(r.g_qr, 0.0)
        assert r.lambda_c is None
        assert r.series_terms == 0

    @pytest.mark.parametrize("case, damping", ORACLE_CASES)
    @pytest.mark.parametrize("direction", [DIRECT, INVERTED])
    def test_matches_dense_inverse(self, case, direction, damping):
        g, selection = oracle_case(case, direction, damping)
        r = reduce(g, selection)
        np.testing.assert_allclose(r.g_r, dense_oracle(g, selection), atol=1e-10)

    @pytest.mark.parametrize("case, damping", ORACLE_CASES)
    @pytest.mark.parametrize("direction", [DIRECT, INVERTED])
    def test_parts_match_dense_eigendecomposition(self, case, direction, damping):
        g, selection = oracle_case(case, direction, damping)
        _, g_rs, g_sr, g_ss = dense_blocks(g, selection)
        values, right = np.linalg.eig(g_ss)
        left_values, left = np.linalg.eig(g_ss.T)
        lam = values.real.max()
        psi_r = right[:, np.argmax(values.real)].real
        psi_l = left[:, np.argmax(left_values.real)].real
        projector = np.outer(psi_r, psi_l) / (psi_l @ psi_r)
        complement = np.eye(g_ss.shape[0]) - projector
        r = reduce(g, selection)
        assert abs(r.lambda_c - lam) <= 1e-10
        np.testing.assert_allclose(r.g_pr, g_rs @ projector @ g_sr / (1.0 - lam),
                                   rtol=0, atol=1e-10)
        pathways = g_rs @ complement @ np.linalg.inv(np.eye(g_ss.shape[0]) - g_ss) @ g_sr
        np.testing.assert_allclose(r.g_qr, pathways, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("case, damping", ORACLE_CASES)
    @pytest.mark.parametrize("direction", [DIRECT, INVERTED])
    def test_pathways_match_deflated_series(self, case, direction, damping):
        # the multi-step pathway series sum_k (Q G_ss)^k Q G_sr, summed until a term's
        # L1 norm is at most 1e-12, with Q the dense complement of the leading eigenmode
        g, selection = oracle_case(case, direction, damping)
        _, g_rs, g_sr, g_ss = dense_blocks(g, selection)
        values, right = np.linalg.eig(g_ss)
        left_values, left = np.linalg.eig(g_ss.T)
        psi_r = right[:, np.argmax(values.real)].real
        psi_l = left[:, np.argmax(left_values.real)].real
        complement = np.eye(g_ss.shape[0]) - np.outer(psi_r, psi_l) / (psi_l @ psi_r)
        term = complement @ g_sr
        total = term.copy()
        for _ in range(10_000):
            if np.abs(term).sum() <= 1e-12:
                break
            term = complement @ (g_ss @ term)
            total += term
        assert np.abs(term).sum() <= 1e-12
        np.testing.assert_allclose(reduce(g, selection).g_qr, g_rs @ total, rtol=0, atol=1e-10)

    def test_oracle_fixture_reaches_the_edge_cases(self):
        g, selection = oracle_case("dangling", DIRECT, 0.5)
        idx = {g.node_of(c, p) for c, p in selection}
        dangling = set(np.flatnonzero(g.dangling).tolist())
        assert dangling & idx and dangling - idx
        assert not g.personalization[g.node_of("SAA", "9")]  # a zero-volume product

    @pytest.mark.parametrize("direction", [DIRECT, INVERTED])
    def test_singular_rank_one_update_raises(self, direction):
        # product 1 has no volume, so its columns teleport into product 0, whose
        # two nodes then form a closed class inside the scattering set
        mm = money_from_records([TradeFlowRecord(2018, "AAA", "BBB", "0", 5.0)], 2018,
                                products=ProductRegistry.from_codes(["0", "1"]))
        with pytest.raises(ConvergenceError, match="singular"):
            reduce(build_google(mm, direction, 0.5), [("AAA", "1")])

    def test_no_dense_matrix_is_built(self, monkeypatch):
        mm = dangling_money_set(11, 100, 9)  # N = 1000, one N x N float64 is 8 MB
        g = build_google(mm)
        selection = [(c, p) for c in mm.countries.ids[:4] for p in mm.products.codes]

        def refuse(self):
            raise AssertionError("the library left the stored links-plus-mask form")

        monkeypatch.setattr(GoogleMatrix, "effective_dense", refuse)
        monkeypatch.setattr(GoogleMatrix, "stochastic", property(refuse))
        tracemalloc.start()
        try:
            r = reduce(g, selection)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.n_nodes == 40
        assert peak < g.n_nodes ** 2 * 8
        assert pagerank(g).node_probs.size == g.n_nodes

    @pytest.mark.parametrize("seed", range(4))
    def test_decomposition_closure(self, seed):
        g, selection = reduced_case(seed + 50, 9, 3, 2)
        r = reduce(g, selection)
        assert np.abs(r.g_rr + r.g_pr + r.g_qr - r.g_r).max() <= 1e-10

    def test_four_actors_ten_products_is_forty_nodes(self):
        g, selection = reduced_case(45, 6, 10, 4, density=0.8)
        r = reduce(g, selection)
        assert r.n_nodes == 40
        np.testing.assert_allclose(r.g_r.sum(axis=0), 1.0, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_columns_sum_to_one(self, seed):
        g, selection = reduced_case(seed + 60, 10, 2, 5)  # 20 nodes, N_r=10
        r = reduce(g, selection)
        np.testing.assert_allclose(r.g_r.sum(axis=0), 1.0, atol=1e-10)
        assert r.g_r.min() >= -1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pagerank_consistency(self, seed):
        g, selection = reduced_case(seed + 70, 10, 2, 5)
        r = reduce(g, selection)
        global_probs = pagerank(g, tol=1e-14).node_probs
        idx = np.array([g.node_of(c, p) for c, p in selection])
        restricted = global_probs[idx] / global_probs[idx].sum()
        x = np.full(idx.size, 1.0 / idx.size)
        for _ in range(100_000):
            y = r.g_r @ x
            y /= y.sum()
            if np.abs(y - x).sum() <= 1e-15:
                x = y
                break
            x = y
        assert np.abs(x - restricted).sum() <= 1e-6

    def test_lambda_strictly_inside_unit_interval(self):
        for seed in range(5):
            g, selection = reduced_case(seed + 80, 7, 2, 2)
            r = reduce(g, selection)
            assert 0.0 < r.lambda_c < 1.0

    def test_residual_diagnostics_recorded(self):
        g, selection = reduced_case(90, 6, 2, 2)
        r = reduce(g, selection)
        assert set(r.residuals) == {"solve", "eigen", "closure"}
        assert min(r.residuals.values()) >= 0.0
        assert r.series_terms == 0

    def test_duplicate_selection_rejected(self):
        g, selection = reduced_case(91, 4, 1, 2)
        with pytest.raises(ValidationError):
            reduce(g, selection + selection[:1])

    def test_unknown_node_rejected(self):
        g, _ = reduced_case(92, 4, 1, 2)
        with pytest.raises(ValidationError):
            reduce(g, [("NOPE", "0")])
        with pytest.raises(ValidationError):
            reduce(g, [])

    def test_labels_use_short_codes(self):
        mm = small_money_set(93, 5, 2, density=1.0)
        merged = merge_country_group(mm, set(mm.countries.ids[:2]), "GRP", short="EU")
        g = build_google(merged)
        selection = [("GRP", p) for p in merged.products.codes]
        r = reduce(g, selection)
        assert r.labels == tuple(f"EU{p}" for p in merged.products.codes)

    def test_ambiguous_short_codes_fall_back_to_ids(self):
        # SAA and SAB both shorten to SA; labels must stay distinct
        mm = small_money_set(94, 3, 1, density=1.0)
        g = build_google(mm)
        r = reduce(g, [("SAA", "0"), ("SAB", "0")])
        assert r.labels == ("SAA0", "SAB0")


class TestStrongestLinks:
    def test_diagonal_only_matrix_gives_no_edges(self):
        assert strongest_links(np.diag([1.0, 2.0, 3.0]), 4) == []

    def test_k1_known_argmax(self):
        m = np.array([
            [0.0, 0.9, 0.2],
            [0.7, 0.0, 0.3],
            [0.1, 0.05, 0.0],
        ])
        assert strongest_links(m, 1) == [(0, 1, 0.7), (1, 0, 0.9), (2, 1, 0.3)]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_bruteforce_top4(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.random((40, 40)) * (rng.random((40, 40)) < 0.4)
        edges = strongest_links(m, 4)
        # oracle: stable argsort per column on the negated, diagonal-masked values
        expected = []
        for j in range(40):
            col = m[:, j].copy()
            col[j] = 0.0
            order = np.argsort(-col, kind="stable")
            top = [i for i in order if col[i] != 0.0][:4]
            expected.extend((j, int(i), float(m[i, j])) for i in top)
        assert edges == expected

    def test_fewer_than_k_emits_what_exists(self):
        m = np.zeros((3, 3))
        m[1, 0] = 0.4
        assert strongest_links(m, 4) == [(0, 1, 0.4)]

    def test_ties_break_toward_smaller_target(self):
        m = np.zeros((3, 3))
        m[1, 0] = 0.5
        m[2, 0] = 0.5
        assert strongest_links(m, 1) == [(0, 1, 0.5)]

    def test_k_must_be_positive(self):
        with pytest.raises(ValidationError):
            strongest_links(np.eye(2), 0)


class TestExports:
    def test_dot_output_structure(self):
        labels = ("AA0", "BB0")
        buf = io.StringIO()
        write_dot([(0, 1, 0.75)], labels, DIRECT, buf)
        text = buf.getvalue()
        assert text.startswith("//")
        assert "B imports from A" in text
        assert '"AA0" -> "BB0" [weight=0.75];' in text
        assert text.rstrip().endswith("}")

        buf = io.StringIO()
        write_dot([(0, 1, 0.75)], labels, INVERTED, buf)
        assert "B exports to A" in buf.getvalue()

    def test_matrix_csv_headers_and_values(self):
        buf = io.StringIO()
        write_matrix_csv(np.array([[0.0, 0.5], [1.0, 0.25]]), ("XX1", "YY1"), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "node,XX1,YY1"
        assert lines[1] == "XX1,0.0,0.5"
        assert lines[2] == "YY1,1.0,0.25"
