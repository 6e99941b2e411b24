import numpy as np
import pytest
from conftest import (
    effective_dense,
    golden_money_set,
    money_set,
    node_pairs,
    non_canonical,
    perturb_money,
    random_money_set,
    records,
    small_money_set,
    with_empty_product,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg.lapack import dgetrf, dgetrs

from wtnrank import (
    ConvergenceError,
    CountryRegistry,
    DIRECT,
    EmptyDataError,
    GLOBAL_PRODUCT,
    INVERTED,
    LABOR_COST,
    MoneyMatrixSet,
    Perturbation,
    ProductRegistry,
    RANK_BASED,
    ValidationError,
    VOLUME_BASED,
    balance_report,
    balance_sensitivity,
    build_google,
    gravity_money_set,
    pagerank,
    personalization_vector,
    reduce,
)
from wtnrank.google_matrix import _block_solver


def rescaled(mm, factor):
    """``mm`` with every stored flow multiplied by ``factor``."""
    matrices = []
    for m in mm.matrices:
        m = m.copy()
        m.data *= factor
        matrices.append(m)
    return MoneyMatrixSet(tuple(matrices), mm.year, mm.countries, mm.products)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestPersonalization:
    def test_single_product_uniform(self):
        mm = small_money_set(0, 5, 1)
        v = personalization_vector(mm)
        np.testing.assert_allclose(v, np.full(5, 1 / 5), atol=1e-15)

    def test_two_products_hand_computed(self):
        # product 0 carries volume 3, product 1 carries volume 1
        mm = money_set([("AAA", "BBB", "0", 3.0), ("AAA", "BBB", "1", 1.0)])
        v = personalization_vector(mm)
        np.testing.assert_allclose(v, [3 / 8, 3 / 8, 1 / 8, 1 / 8], atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_sums_to_one(self, seed):
        mm = random_money_set(seed)
        v = personalization_vector(mm)
        assert abs(v.sum() - 1.0) <= 1e-12
        # uniform within each product: the sensitivities take y = v * (I - damping S0)^-1 1
        blocks = v.reshape(mm.n_products, mm.n_countries)
        assert np.all(blocks == blocks[:, :1])

    def test_zero_volume_rejected(self):
        mm = money_set([], countries=CountryRegistry.from_ids(["AAA", "BBB"]),
                       products=ProductRegistry.from_codes(["0"]))
        with pytest.raises(EmptyDataError):
            personalization_vector(mm)


class TestBuild:
    def test_default_damping_is_half(self):
        from wtnrank import DEFAULT_DAMPING

        mm = small_money_set(0, 3, 1)
        assert DEFAULT_DAMPING == 0.5
        assert build_google(mm).damping == 0.5

    def test_node_count_is_countries_times_products(self):
        mm = small_money_set(1, 6, 3)
        assert build_google(mm).n_nodes == 18

    def test_dangling_column_takes_personalization(self):
        mm = money_set([("AAA", "BBB", "0", 4.0)])
        g = build_google(mm)
        # AAA exports: its column is a single 1 at BBB
        np.testing.assert_array_equal(g.links.toarray()[:, 0], [0.0, 1.0])
        # BBB exports nothing: its link column is empty and marked dangling,
        # and in S it is the teleportation vector
        assert g.links[:, 1].nnz == 0
        np.testing.assert_array_equal(g.dangling, [False, True])
        np.testing.assert_array_equal(g.stochastic.toarray()[:, 1], g.personalization)

    def test_subnormal_column_sum_stays_finite(self):
        # 1 / 5e-324 overflows to inf, so CCC's column is divided by its sum instead
        mm = money_set([("AAA", "BBB", "1", 13.0), ("BBB", "AAA", "1", 5.0),
                        ("CCC", "AAA", "1", 5e-324)])
        s = build_google(mm).links
        assert np.all(np.isfinite(s.data))
        np.testing.assert_array_equal(s[:, 2].toarray().ravel(), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("direction", [DIRECT, INVERTED])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_columns_sum_to_one(self, seed, direction):
        mm = small_money_set(seed, 4, 2, density=0.6)
        g = build_google(mm, direction)
        dense = effective_dense(g)
        np.testing.assert_allclose(dense.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            np.asarray(g.stochastic.sum(axis=0)).ravel(), 1.0, atol=1e-12)

    def test_product_blocks_have_no_cross_terms(self):
        # the links hold no teleport, so the blocks stay apart even with dangling columns
        mm = small_money_set(3, 5, 3, density=0.3)
        g = build_google(mm)
        assert g.dangling.any()
        s = g.links.toarray()
        n_c = mm.n_countries
        for p in range(mm.n_products):
            for q in range(mm.n_products):
                if p != q:
                    block = s[p * n_c:(p + 1) * n_c, q * n_c:(q + 1) * n_c]
                    assert np.all(block == 0.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_inverted_matches_independent_dense_construction(self, seed):
        mm = small_money_set(seed, 4, 2, density=0.7)  # 8 nodes
        g = build_google(mm, INVERTED)
        v = g.personalization
        blocks = []
        for m in mm.matrices:
            t = m.toarray().T
            cols = t.sum(axis=0)
            out = np.zeros_like(t)
            for j in range(t.shape[1]):
                if cols[j] > 0:
                    out[:, j] = t[:, j] / cols[j]
            blocks.append(out)
        n = mm.n_countries * mm.n_products
        expected = np.zeros((n, n))
        for p, b in enumerate(blocks):
            lo = p * mm.n_countries
            expected[lo:lo + mm.n_countries, lo:lo + mm.n_countries] = b
        np.testing.assert_allclose(g.links.toarray(), expected, atol=1e-14)
        for j in range(n):
            if expected[:, j].sum() == 0.0:
                assert g.dangling[j]
                expected[:, j] = v
        np.testing.assert_allclose(g.stochastic.toarray(), expected, atol=1e-14)

    def test_scaling_invariance(self):
        # x 1000 rounds, so this case holds to rtol=1e-14
        mm = random_money_set(9, max_countries=8)
        scaled = money_set([(e, i, p, v * 1000.0) for e, i, p, v in records(mm)],
                           mm.year, mm.countries, mm.products)
        g1, g2 = build_google(mm), build_google(scaled)
        np.testing.assert_allclose(g2.personalization, g1.personalization, rtol=1e-14)
        np.testing.assert_allclose(g2.links.toarray(), g1.links.toarray(),
                                   rtol=1e-14, atol=1e-18)
        assert np.array_equal(g2.dangling, g1.dangling)

        # x 2^-7 is exact in float64, and each normalization and volume share cancels it
        mm = rescaled(gravity_money_set(7, 30, 4, density=0.1), 1.37)  # off the dollar grid
        scaled = rescaled(mm, 2.0 ** -7)
        assert not np.array_equal(mm.imports, np.round(mm.imports))
        for attr in ("imports", "exports"):
            assert_same_bits(getattr(scaled, attr), getattr(mm, attr) * 2.0 ** -7)
        selection = [(c, p) for c in mm.countries.ids[:2] for p in mm.products.codes]
        for direction in (DIRECT, INVERTED):
            g1, g2 = build_google(mm, direction), build_google(scaled, direction)
            assert g1.dangling.any()
            for attr in ("indptr", "indices", "data"):
                assert_same_bits(getattr(g2.links, attr), getattr(g1.links, attr))
            assert_same_bits(g2.dangling, g1.dangling)
            assert_same_bits(g2.personalization, g1.personalization)
            assert_same_bits(pagerank(g2).node_probs, pagerank(g1).node_probs)
            r1, r2 = reduce(g1, selection), reduce(g2, selection)
            for part in ("g_r", "g_rr", "g_pr", "g_qr"):
                assert_same_bits(getattr(r2, part), getattr(r1, part))
        shocks = [Perturbation(LABOR_COST, target_country=mm.countries.ids[3]),
                  Perturbation(GLOBAL_PRODUCT, product=mm.products.codes[1])]
        for description in (RANK_BASED, VOLUME_BASED):
            b1, b2 = balance_report(mm, description), balance_report(scaled, description)
            assert b2.countries == b1.countries
            assert_same_bits(b2.balances, b1.balances)
            for shock in shocks:
                s1 = balance_sensitivity(mm, shock, description)
                s2 = balance_sensitivity(scaled, shock, description)
                assert s2.countries == s1.countries
                assert_same_bits(s2.derivatives, s1.derivatives)

    def test_determinism(self):
        mm = random_money_set(10)
        a, b = build_google(mm), build_google(mm)
        assert np.array_equal(a.links.toarray(), b.links.toarray())
        assert np.array_equal(a.dangling, b.dangling)
        assert np.array_equal(a.personalization, b.personalization)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_damping_out_of_range(self, alpha):
        mm = small_money_set(0, 3, 1)
        with pytest.raises(ValidationError):
            build_google(mm, DIRECT, alpha)

    def test_empty_set_rejected(self):
        mm = money_set([], countries=CountryRegistry.from_ids(["AAA", "BBB"]),
                       products=ProductRegistry.from_codes(["0"]))
        with pytest.raises(EmptyDataError):
            build_google(mm)

    def test_node_indexing_roundtrip(self):
        mm = small_money_set(4, 4, 3)
        g = build_google(mm)
        assert [g.node_of(c, p) for c, p in node_pairs(g)] == list(range(g.n_nodes))
        with pytest.raises(ValidationError):
            g.node_of("NOPE", "0")


def documented_column_sums(flow):
    """Each column's stored values added one by one from 0.0.

    ``flow`` is canonical CSC, so this is the documented order of both sums:
    ``MoneyMatrixSet.exports`` for the money matrix itself, and for its
    transpose ``imports``, each row of the money matrix in ascending column order.
    """
    sums = []
    for j in range(flow.shape[1]):
        acc = 0.0
        for value in flow.data[flow.indptr[j]:flow.indptr[j + 1]].tolist():
            acc += value
        sums.append(acc)
    return np.array(sums)


def reference_links(mm, direction):
    """S0 as built through scipy products, each column divided by its sum in the
    documented order, dangling columns left empty."""
    blocks = []
    for m in mm.matrices:
        flow = (m.T if direction == INVERTED else m).tocsc()
        assert flow.has_canonical_format
        colsum = documented_column_sums(flow)
        scale = np.divide(1.0, colsum, out=np.zeros_like(colsum), where=colsum > 0)
        blocks.append(flow @ sparse.diags(scale))
    s = sparse.block_diag(blocks, format="csc")
    s.sort_indices()
    return s


def reference_stochastic(mm, direction):
    """S0 with the personalization patched into every zero-sum column."""
    v = personalization_vector(mm)
    s = reference_links(mm, direction)
    dangling = np.flatnonzero(np.asarray(s.sum(axis=0)).ravel() == 0.0)
    if dangling.size:
        rows = np.tile(np.flatnonzero(v), dangling.size)
        cols = np.repeat(dangling, np.count_nonzero(v))
        data = np.tile(v[v != 0], dangling.size)
        patch = sparse.coo_matrix((data, (rows, cols)), shape=s.shape)
        s = (s + patch.tocsc()).tocsc()
    s.sort_indices()
    return s


def labor_shocked():
    mm = gravity_money_set(42)
    return perturb_money(mm, Perturbation(LABOR_COST, target_country=mm.countries.ids[5]), 0.01)


ASSEMBLY_FIXTURES = {
    "seed42": lambda: gravity_money_set(42),
    "density0.05": lambda: gravity_money_set(3, 40, 5, density=0.05),
    "empty-product": with_empty_product,
    "labor-shocked": labor_shocked,
    "non-canonical": lambda: non_canonical(gravity_money_set(42), 0),
}


class TestAssemblyReference:
    """build_google assembles one CSC; it must match the scipy-built reference bit for bit."""

    @pytest.mark.parametrize("direction", [DIRECT, INVERTED])
    @pytest.mark.parametrize("name", list(ASSEMBLY_FIXTURES))
    def test_bit_identical(self, name, direction):
        mm = ASSEMBLY_FIXTURES[name]()
        g = build_google(mm, direction)
        got, want = g.links, reference_links(mm, direction)
        assert got.shape == want.shape
        for attr in ("indptr", "indices"):
            assert getattr(got, attr).dtype == getattr(want, attr).dtype
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
        assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))
        assert got.has_sorted_indices and want.has_sorted_indices
        assert g.dangling.dtype == bool
        assert np.array_equal(g.dangling, np.asarray(want.sum(axis=0)).ravel() == 0.0)
        patched = reference_stochastic(mm, direction)
        assert np.array_equal(g.stochastic.toarray(), patched.toarray())

    def test_fixtures_reach_the_edge_cases(self):
        for direction in (DIRECT, INVERTED):
            g = build_google(ASSEMBLY_FIXTURES["density0.05"](), direction)
            assert g.dangling.any()
        mm = with_empty_product()
        assert np.count_nonzero(personalization_vector(mm)) == 6  # product 3 carries no volume
        m = mm.matrices[mm.products.index_of("0")]
        assert np.count_nonzero(m.data == 0.0) == 1  # a stored zero


def isolated_first_country(seed, n_c, n_p):
    """Gravity set in which the first country neither exports nor imports, so its
    node is a dangling column of every product block in both flow directions."""
    mm = gravity_money_set(seed, n_c, n_p, density=0.7)
    keep = sparse.diags(np.r_[0.0, np.ones(n_c - 1)])
    return MoneyMatrixSet(tuple(sparse.csc_matrix(keep @ m @ keep) for m in mm.matrices),
                          mm.year, mm.countries, mm.products)


class TestBlockSolver:
    """``_block_solver`` against ``np.linalg.solve`` on the dense (I - damping * S0)
    cut to the node set, and with every node against LAPACK on slices of damping * S0."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 7), st.integers(1, 3),
           st.sampled_from([DIRECT, INVERTED]), st.sampled_from([0.3, 0.5, 0.85, 0.99]),
           st.data())
    def test_matches_dense_solve(self, seed, n_c, n_p, direction, damping, data):
        mm = isolated_first_country(seed, n_c, n_p)
        assume(mm.total_volume() > 0.0)  # a set with no flow has no Google matrix
        g = build_google(mm, direction, damping)
        chosen = np.array(data.draw(st.lists(st.booleans(), min_size=g.n_nodes,
                                             max_size=g.n_nodes)))
        chosen[::n_c] = True  # every product's dangling node ...
        left_out = data.draw(st.integers(0, n_p))
        chosen[left_out * n_c:(left_out + 1) * n_c] = False  # ... but one product's, if any
        nodes = np.flatnonzero(chosen)
        if not nodes.size:
            return
        assert g.dangling[nodes].any()
        dense = np.eye(nodes.size) - damping * g.links.toarray()[np.ix_(nodes, nodes)]
        solve = _block_solver(g, nodes)
        rng = np.random.default_rng(seed)
        for b in (rng.random(nodes.size), rng.random((nodes.size, 3))):
            np.testing.assert_allclose(solve(b), np.linalg.solve(dense, b),
                                       rtol=1e-10, atol=1e-13)
            np.testing.assert_allclose(solve(b, transposed=True), np.linalg.solve(dense.T, b),
                                       rtol=1e-10, atol=1e-13)
        # columns that each live in one product, as reduce's A_sr: each product solves
        # only the columns nonzero on its nodes, as if each column came alone
        products = rng.integers(0, n_p, size=4)
        b = rng.random((nodes.size, 4)) * (nodes[:, None] // n_c == products)
        for transposed, oracle in ((False, dense), (True, dense.T)):
            x = solve(b, transposed)
            np.testing.assert_allclose(x, np.linalg.solve(oracle, b), rtol=1e-10, atol=1e-13)
            np.testing.assert_allclose(
                x, np.column_stack([solve(column, transposed) for column in b.T]),
                rtol=1e-13, atol=1e-16)

    def test_product_without_nodes_takes_no_factor(self):
        g = build_google(isolated_first_country(3, 5, 3), DIRECT, 0.85)
        nodes = np.arange(5, 10)  # product 1 only
        dense = np.eye(5) - 0.85 * g.links.toarray()[5:10, 5:10]
        solve = _block_solver(g, nodes)
        np.testing.assert_allclose(solve(np.ones(5)),
                                   np.linalg.solve(dense, np.ones(5)), rtol=1e-12)

    def test_singular_block_raises(self):
        # at damping 1 the direct flow's AAA <-> BBB cycle is a closed class of S0
        mm = money_set([("AAA", "BBB", "0", 5.0), ("BBB", "AAA", "0", 5.0),
                        ("CCC", "AAA", "0", 3.0)])
        g, nodes = build_google(mm, DIRECT, 1.0), np.array([0, 1])
        with pytest.raises(ConvergenceError, match="singular in product 0"):
            _block_solver(g, nodes)

    @pytest.mark.parametrize("direction", [DIRECT, INVERTED])
    def test_every_node_solves_as_the_sliced_blocks_bitwise(self, direction):
        # labor_cost_matrix solves with every node: its blocks, made from the links'
        # column ranges, must equal I - (damping * S0)[lo:hi, lo:hi] bit for bit
        g = build_google(golden_money_set(), direction)
        n_c, a_links = len(g.countries), g.damping * g.links
        factors = [dgetrf(np.eye(n_c) - a_links[lo:lo + n_c, lo:lo + n_c].toarray(),
                          overwrite_a=True)[:2] for lo in range(0, g.n_nodes, n_c)]

        def sliced(b, transposed):
            x = np.empty(b.shape)
            for lo, (lu, piv) in zip(range(0, g.n_nodes, n_c), factors):
                x[lo:lo + n_c] = dgetrs(lu, piv, b[lo:lo + n_c], trans=int(transposed))[0]
            return x

        solve = _block_solver(g, np.arange(g.n_nodes))
        rng = np.random.default_rng(7)
        for b in (rng.random(g.n_nodes), rng.random((g.n_nodes, 3))):
            for transposed in (False, True):
                assert_same_bits(solve(b, transposed), sliced(b, transposed))
