import dataclasses

import numpy as np
import pytest
from conftest import effective_dense, money_set, random_money_set, small_money_set
from scipy import sparse

from wtnrank import (
    ConvergenceError,
    CountryRegistry,
    DIRECT,
    INVERTED,
    MoneyMatrixSet,
    ProductRegistry,
    RankVector,
    ValidationError,
    VolumeProbabilities,
    assign_ranks,
    build_google,
    pagerank,
    rank_table,
    volume_probabilities,
)


def sorted_reference_ranks(probs, keys):
    """Ranks from Python's sort on (-probability, key): the tie rule by definition."""
    order = sorted(range(len(probs)), key=lambda i: (-probs[i], keys[i]))
    ranks = np.empty(len(probs), dtype=np.int64)
    ranks[order] = np.arange(1, len(probs) + 1)
    return ranks


def build(seed, n_c=None, n_p=None, direction=DIRECT, alpha=0.5):
    mm = random_money_set(seed) if n_c is None else small_money_set(seed, n_c, n_p)
    return build_google(mm, direction, alpha)


class TestPagerank:
    def test_two_node_symmetric(self):
        mm = money_set([("AAA", "BBB", "0", 5.0), ("BBB", "AAA", "0", 5.0)])
        rv = pagerank(build_google(mm))
        np.testing.assert_array_equal(rv.node_probs, [0.5, 0.5])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("direction", [DIRECT, INVERTED])
    def test_matches_dense_eigenvector(self, seed, direction):
        g = build(seed, 5, 2, direction)  # 10 nodes
        rv = pagerank(g)
        dense = effective_dense(g)
        eigvals, eigvecs = np.linalg.eig(dense)
        lead = np.argmin(np.abs(eigvals - 1.0))
        vec = np.real(eigvecs[:, lead])
        vec = vec / vec.sum()
        assert np.abs(rv.node_probs - vec).sum() <= 1e-8

    def test_fixed_point_residual(self):
        g = build(5)
        tol = 1e-12
        rv = pagerank(g, tol=tol)
        assert np.abs(g.apply(rv.node_probs) - rv.node_probs).sum() <= 10 * tol

    def test_marginal_consistency(self):
        rv = pagerank(build(6))
        assert abs(rv.country_probs.sum() - 1.0) <= 1e-10
        joint = rv.node_probs.reshape(-1, len(rv.countries))
        np.testing.assert_allclose(joint.sum(axis=0), rv.country_probs, atol=1e-12)

    def test_deterministic(self):
        g = build(7)
        a, b = pagerank(g), pagerank(g)
        assert np.array_equal(a.node_probs, b.node_probs)
        assert a.iterations == b.iterations and a.residual == b.residual

    def test_non_convergence_carries_residual(self):
        g = build(8)
        with pytest.raises(ConvergenceError) as err:
            pagerank(g, tol=1e-15, max_iter=2)
        assert err.value.residual > 0
        assert err.value.iterations == 2

    def test_non_finite_residual_stops_at_once(self):
        g = build(8)
        s = g.links.copy()
        s.data[0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError) as err:
            pagerank(dataclasses.replace(g, links=s))
        assert not np.isfinite(err.value.residual)
        assert err.value.iterations <= 2

    def test_bad_arguments(self):
        g = build(0, 3, 1)
        with pytest.raises(ValidationError):
            pagerank(g, tol=0.0)
        with pytest.raises(ValidationError):
            pagerank(g, max_iter=0)

    @pytest.mark.parametrize("option, value, message", [
        ("max_iter", 2.5, "max_iter must be an int of at least 1"),
        ("max_iter", 3.0, "max_iter must be an int of at least 1"),
        ("max_iter", True, "max_iter must be an int of at least 1"),
        ("tol", "1e-9", "tol must be positive and finite"),
        ("tol", True, "tol must be positive and finite"),
    ])
    def test_mistyped_solver_options(self, option, value, message):
        with pytest.raises(ValidationError, match=message):
            pagerank(build(0, 3, 1), **{option: value})

    def test_numpy_scalar_solver_options(self):
        g = build(0, 3, 1)
        rv = pagerank(g, tol=np.float64(1e-12), max_iter=np.int64(100))
        assert np.array_equal(rv.node_probs, pagerank(g, 1e-12, 100).node_probs)

    def test_rank_arrays_are_permutations(self):
        rv = pagerank(build(9))
        assert sorted(rv.country_rank) == list(range(1, len(rv.countries) + 1))
        by_rank = rv.country_probs[np.argsort(rv.country_rank)]
        assert np.all(np.diff(by_rank) <= 0)


class TestAssignRanks:
    def test_already_sorted(self):
        np.testing.assert_array_equal(assign_ranks([0.5, 0.3, 0.2]), [1, 2, 3])

    @pytest.mark.parametrize("seed", range(5))
    def test_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.random(40)
        ranks = assign_ranks(p)
        # rank permutation inverts to a descending sequence
        assert np.all(np.diff(p[np.argsort(ranks)]) <= 0)

    def test_rescaling_invariance(self):
        p = np.random.default_rng(3).random(25)
        np.testing.assert_array_equal(assign_ranks(p), assign_ranks(p * 17.5))

    def test_rejects_negative_or_nan(self):
        with pytest.raises(ValidationError):
            assign_ranks([0.1, -0.2])
        with pytest.raises(ValidationError):
            assign_ranks([0.1, np.nan])

    @pytest.mark.parametrize("probs", [0.5, [[0.5, 0.5]], [[0.5], [0.5]]])
    def test_rejects_non_vector(self, probs):
        with pytest.raises(ValidationError, match="one-dimensional"):
            assign_ranks(probs)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sorted_reference_with_ties(self, seed):
        p = np.random.default_rng(seed).choice([0.0, 0.125, 0.3], size=60)  # many ties
        got = assign_ranks(p)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, sorted_reference_ranks(p, range(p.size)))


def _hand_rank_vector(registry, country_probs, direction=DIRECT):
    """One product: the node vector is the country vector."""
    probs = np.asarray(country_probs, dtype=float) / np.sum(country_probs)
    return RankVector(direction=direction, node_probs=probs, country_probs=probs,
                      country_rank=assign_ranks(probs), residual=0.0, iterations=1,
                      countries=registry)


def tied_registry_set():
    """Four countries; every flow is 1.0 and DDD exports nothing, so ranks tie."""
    countries = CountryRegistry(("AAA", "BBB", "CCC", "DDD"))
    products = ProductRegistry.from_codes(["2", "5"])
    dense = np.ones((4, 4))
    np.fill_diagonal(dense, 0.0)
    dense[:, 3] = 0.0  # DDD exports nothing
    return MoneyMatrixSet((sparse.csc_matrix(dense),) * 2, 2018, countries, products)


class TestRegistryTies:
    """Ties break by country id: by registry position."""

    @pytest.mark.parametrize("direction", [DIRECT, INVERTED])
    def test_pagerank_ties(self, direction):
        g = build_google(tied_registry_set(), direction)
        rv = pagerank(g)
        assert len(set(rv.country_probs)) < len(g.countries)  # there are ties to break
        np.testing.assert_array_equal(
            rv.country_rank, sorted_reference_ranks(rv.country_probs, g.countries.ids))

    @pytest.mark.parametrize("direction", [DIRECT, INVERTED])
    def test_node_ranks_from_node_probs(self, direction):
        """README's recipe: node ranks, country-major, ties by id, then code."""
        g = build_google(tied_registry_set(), direction)
        rv = pagerank(g)
        by_country = rv.node_probs.reshape(len(g.products), -1).T.ravel()
        assert len(set(by_country)) < by_country.size  # there are ties to break
        keys = [(cid, code) for cid in g.countries.ids for code in g.products.codes]
        np.testing.assert_array_equal(assign_ranks(by_country),
                                      sorted_reference_ranks(by_country, keys))

    @pytest.mark.parametrize("seed", range(3))
    def test_drawn_ties(self, seed):
        g = build_google(tied_registry_set())
        probs = np.random.default_rng(seed).choice([0.05, 0.1, 0.2], size=g.n_nodes)
        country_probs = probs.reshape(len(g.products), -1).sum(axis=0)
        np.testing.assert_array_equal(assign_ranks(country_probs),
                                      sorted_reference_ranks(country_probs, g.countries.ids))

    def test_rank_table(self):
        mm = tied_registry_set()
        direct, inverted = pagerank(build_google(mm, DIRECT)), pagerank(build_google(mm, INVERTED))
        vp = volume_probabilities(mm)
        rows = rank_table(direct, inverted, vp, top=4)
        registry = mm.countries
        for column, probs in (("pagerank_country", direct.country_probs),
                              ("cheirank_country", inverted.country_probs),
                              ("importrank_country", vp.import_c),
                              ("exportrank_country", vp.export_c)):
            want = np.argsort(sorted_reference_ranks(probs, registry.ids))
            assert [r[column] for r in rows] == [registry.ids[i] for i in want]
        # DDD imports most; AAA, BBB and CCC tie and follow in id order
        assert [r["importrank_country"] for r in rows] == ["DDD", "AAA", "BBB", "CCC"]


class TestRankTable:
    def test_single_country(self):
        registry = CountryRegistry.from_ids(["AAA"])
        rv = _hand_rank_vector(registry, [1.0])
        vp = VolumeProbabilities(import_c=np.array([1.0]), export_c=np.array([1.0]),
                                 countries=registry)
        rows = rank_table(rv, rv, vp, top=1)
        assert rows == [{
            "rank": 1, "pagerank_country": "AAA", "cheirank_country": "AAA",
            "importrank_country": "AAA", "exportrank_country": "AAA"}]

    def test_matches_sorted_marginals(self):
        mm = small_money_set(12, 5, 2)
        direct = pagerank(build_google(mm, DIRECT))
        inverted = pagerank(build_google(mm, INVERTED))
        vp = volume_probabilities(mm)
        rows = rank_table(direct, inverted, vp, top=5)
        ids = np.asarray(mm.countries.ids)
        # oracle: argsort with the country id as secondary key
        def sorted_ids(probs):
            order = sorted(range(len(ids)), key=lambda i: (-probs[i], ids[i]))
            return [ids[i] for i in order]
        assert [r["pagerank_country"] for r in rows] == sorted_ids(direct.country_probs)
        assert [r["cheirank_country"] for r in rows] == sorted_ids(inverted.country_probs)
        assert [r["importrank_country"] for r in rows] == sorted_ids(vp.import_c)
        assert [r["exportrank_country"] for r in rows] == sorted_ids(vp.export_c)

    def test_top_clipped(self):
        mm = small_money_set(13, 4, 1)
        direct = pagerank(build_google(mm, DIRECT))
        inverted = pagerank(build_google(mm, INVERTED))
        rows = rank_table(direct, inverted, volume_probabilities(mm), top=99)
        assert len(rows) == 4

    def test_registry_mismatch_rejected(self):
        a = small_money_set(14, 4, 1)
        b = small_money_set(14, 5, 1)
        with pytest.raises(ValidationError):
            rank_table(pagerank(build_google(a)), pagerank(build_google(b)),
                       volume_probabilities(a), top=3)
