import contextlib
import os
from unittest import mock

import numpy as np
import pytest
from conftest import (
    central_difference,
    money_set,
    money_sets_equal,
    perturb_money,
    random_money_set,
    small_money_set,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgetrf

from wtnrank import (
    COUNTRY_PRODUCT,
    DIRECT,
    INVERTED,
    ConvergenceError,
    CountryRegistry,
    GLOBAL_PRODUCT,
    LABOR_COST,
    Perturbation,
    ProductRegistry,
    RANK_BASED,
    VOLUME_BASED,
    ValidationError,
    balance,
    balance_report,
    balance_sensitivity,
    build_google,
    gravity_money_set,
    ingest_csv,
    labor_cost_matrix,
    reduce,
)
from wtnrank import sensitivity


def two_country(x=7.0, y=3.0, product="0"):
    return money_set([("AAA", "BBB", product, x), ("BBB", "AAA", product, y)])


def closed_class_set(seed, n_class, n_outside):
    """One product in which the first ``n_class`` countries each export, and only to
    each other, and each of the other ``n_outside`` exports into the class and maybe
    elsewhere: at damping 1 the class is a closed class of the direct flow's S0."""
    rng = np.random.default_rng(seed)
    n = n_class + n_outside
    ids = [chr(ord("A") + i) * 3 for i in range(n)]
    flows = []
    for j in range(n):
        reach = n_class if j < n_class else n
        first = (j + 1) % n_class if j < n_class else int(rng.integers(n_class))
        linked = {first} | {i for i in range(reach) if i != j and rng.random() < 0.5}
        flows += [(ids[j], ids[i], "0", round(float(rng.uniform(0.5, 10.0)), 1))
                  for i in sorted(linked)]
    return money_set(flows)


class TestBalance:
    def test_zero_when_probabilities_equal(self):
        report = balance([0.2, 0.8], [0.2, 0.8], ["AAA", "BBB"], VOLUME_BASED, 2018)
        np.testing.assert_array_equal(report.balances, [0.0, 0.0])

    def test_pure_exporter_is_one(self):
        report = balance([0.6, 0.4], [0.0, 1.0], ["AAA", "BBB"], VOLUME_BASED, 2018)
        assert report.countries == ("AAA", "BBB") and report.balances[0] == 1.0

    def test_absent_country_omitted(self):
        report = balance([0.5, 0.0, 0.5], [0.4, 0.0, 0.6],
                         ["AAA", "BBB", "CCC"], VOLUME_BASED, 2018)
        assert report.countries == ("AAA", "CCC")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # nan > 0 is False: without the check country AAA would be dropped silently
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            balance([bad, 0.5], [0.5, 0.5], ["AAA", "BBB"], VOLUME_BASED, 2018)
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            balance([0.5, 0.5], [0.5, bad], ["AAA", "BBB"], VOLUME_BASED, 2018)

    def test_bounds(self):
        mm = random_money_set(21, max_countries=10)
        for desc in (RANK_BASED, VOLUME_BASED):
            report = balance_report(mm, desc)
            assert np.all(report.balances >= -1.0) and np.all(report.balances <= 1.0)

    @pytest.mark.parametrize("description", [RANK_BASED, VOLUME_BASED])
    def test_two_country_antisymmetry_exact(self, description):
        report = balance_report(two_country(9.25, 2.5), description)
        b = dict(zip(report.countries, report.balances))
        assert b["AAA"] == -b["BBB"]

    def test_unknown_description(self):
        with pytest.raises(ValidationError):
            balance_report(two_country(), "other")


class TestPerturb:
    def test_zero_magnitude_is_identity(self):
        mm = random_money_set(22, max_countries=8)
        out = perturb_money(mm, Perturbation(GLOBAL_PRODUCT, product=mm.products.codes[0]), 0.0)
        assert money_sets_equal(mm, out)

    def test_global_product_scales_single_entry(self):
        mm = money_set([("AAA", "BBB", "3", 100.0), ("AAA", "BBB", "7", 50.0)])
        out = perturb_money(mm, Perturbation(GLOBAL_PRODUCT, product="3"), 0.1)
        three, seven = (mm.products.index_of(code) for code in "37")
        assert out.matrices[three].toarray().max() == pytest.approx(110.0, rel=1e-15)
        assert np.array_equal(out.matrices[seven].toarray(), mm.matrices[seven].toarray())

    def test_labor_cost_scales_target_columns(self):
        mm = small_money_set(23, 4, 2, density=1.0)
        target = mm.countries.ids[0]
        out = perturb_money(mm, Perturbation(LABOR_COST, target_country=target), 0.05)
        j = mm.countries.index_of(target)
        for before, after in zip(mm.matrices, out.matrices):
            b, a = before.toarray(), after.toarray()
            np.testing.assert_allclose(a[:, j], b[:, j] * 1.05, rtol=1e-15)
            mask = np.ones(b.shape[1], dtype=bool)
            mask[j] = False
            assert np.array_equal(a[:, mask], b[:, mask])

    def test_country_product_shock_is_local(self):
        mm = small_money_set(24, 5, 3, density=1.0)
        target = mm.countries.ids[2]
        code = mm.products.codes[1]
        out = perturb_money(
            mm, Perturbation(COUNTRY_PRODUCT, product=code, target_country=target), 0.2)
        j = mm.countries.index_of(target)
        for p, (before, after) in enumerate(zip(mm.matrices, out.matrices)):
            b, a = before.toarray(), after.toarray()
            if mm.products.codes[p] != code:
                assert np.array_equal(a, b)
            else:
                np.testing.assert_allclose(a[:, j], b[:, j] * 1.2, rtol=1e-15)
                mask = np.ones(b.shape[1], dtype=bool)
                mask[j] = False
                assert np.array_equal(a[:, mask], b[:, mask])

    def test_unknown_product_or_country(self):
        mm = two_country()
        for description in (RANK_BASED, VOLUME_BASED):
            with pytest.raises(ValidationError, match="product '9' not in registry"):
                balance_sensitivity(mm, Perturbation(GLOBAL_PRODUCT, product="9"), description)
            with pytest.raises(ValidationError, match="'ZZZ' not in registry"):
                balance_sensitivity(mm, Perturbation(LABOR_COST, target_country="ZZZ"),
                                    description)

    def test_perturbation_kind_validation(self):
        with pytest.raises(ValidationError):
            Perturbation("weird")
        with pytest.raises(ValidationError):
            Perturbation(GLOBAL_PRODUCT)  # needs a product
        with pytest.raises(ValidationError):
            Perturbation(LABOR_COST, product="0", target_country="AAA")


# an error of the step-h central difference at most C h^2 (it was under 0.2 h^2 on these
# sets), falling 4-fold per halving of h wherever it stands clear of roundoff
CENTRAL_C, RATIO_FLOOR = 1.0, 1e-9

# (seed, countries, products, density): every flow present, and a sparse set with
# dangling columns in both directions
ORACLE_SETS = [(29, 3, 2, 1.0), (36, 8, 3, 0.3)]


def oracle_set(seed, n_countries, n_products, density):
    mm = small_money_set(seed, n_countries, n_products, density=density)
    if density < 1.0:
        assert all(build_google(mm, d).dangling.any() for d in (DIRECT, INVERTED))
    return mm


def assert_central_differences_converge(mm, shocks, description, exact):
    """Each column of ``exact`` against the step h and h/2 central differences of the
    shock at its position: error at most C h^2, shrinking 4-fold where clear."""
    error = {}
    for step in (0.01, 0.005):
        oracle = np.column_stack([central_difference(mm, shock, description, step)
                                  for shock in shocks])
        error[step] = np.abs(oracle - exact)
        assert np.all(error[step] <= CENTRAL_C * step ** 2)
    clear = error[0.01] > RATIO_FLOOR
    ratio = error[0.01][clear] / error[0.005][clear]
    assert np.all((3.9 <= ratio) & (ratio <= 4.1)), ratio
    return clear.sum()


def every_kind(mm):
    """One shock of each kind, on the last product and the second country."""
    code, target = mm.products.codes[-1], mm.countries.ids[1]
    return {GLOBAL_PRODUCT: Perturbation(GLOBAL_PRODUCT, product=code),
            COUNTRY_PRODUCT: Perturbation(COUNTRY_PRODUCT, product=code, target_country=target),
            LABOR_COST: Perturbation(LABOR_COST, target_country=target)}


class TestBalanceSensitivity:
    @pytest.mark.parametrize("description", [RANK_BASED, VOLUME_BASED])
    @pytest.mark.parametrize("kind", [GLOBAL_PRODUCT, COUNTRY_PRODUCT, LABOR_COST])
    @pytest.mark.parametrize("seed, n_countries, n_products, density", ORACLE_SETS)
    def test_central_differences_converge_to_it(self, seed, n_countries, n_products,
                                                density, kind, description):
        mm = oracle_set(seed, n_countries, n_products, density)
        shock = every_kind(mm)[kind]
        report = balance_sensitivity(mm, shock, description)
        assert report.countries == balance_report(mm, description).countries
        clear = assert_central_differences_converge(mm, [shock], description,
                                                    report.derivatives[:, None])
        assert clear >= 2

    @pytest.mark.parametrize("description", [RANK_BASED, VOLUME_BASED])
    @pytest.mark.parametrize("seed, n_countries, n_products, density", ORACLE_SETS)
    def test_labor_kind_matches_labor_cost_matrix(self, seed, n_countries, n_products,
                                                  density, description):
        mm = oracle_set(seed, n_countries, n_products, density)
        table = labor_cost_matrix(mm, description)
        for j, target in enumerate(table.targets):
            report = balance_sensitivity(
                mm, Perturbation(LABOR_COST, target_country=target), description)
            assert report.countries == table.countries
            np.testing.assert_allclose(report.derivatives, table.derivatives[:, j],
                                       rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("description, builds", [(RANK_BASED, 2), (VOLUME_BASED, 0)])
    def test_call_counts(self, description, builds):
        names = ("build_google", "_block_solver", "_series_solver", "pagerank")
        wraps = {name: getattr(sensitivity, name) for name in names}
        mm = small_money_set(30, 4, 2)
        # one solve of 1 per direction, and one more in the inverted flow for a shock
        # that names a country
        inverted = {GLOBAL_PRODUCT: 1, COUNTRY_PRODUCT: 2, LABOR_COST: 2}
        for kind, shock in every_kind(mm).items():
            solves, directions = {}, iter((DIRECT, INVERTED))  # the order they are made in

            def counted_solver(*args):
                solve, direction = wraps["_series_solver"](*args), next(directions)

                def counted(b):
                    solves[direction] = solves.get(direction, 0) + 1
                    return solve(b)
                return counted

            with contextlib.ExitStack() as stack:
                calls = {name: stack.enter_context(mock.patch.object(
                    sensitivity, name,
                    wraps=counted_solver if name == "_series_solver" else wrap))
                    for name, wrap in wraps.items()}
                balance_sensitivity(mm, shock, description)
            assert {name: spy.call_count for name, spy in calls.items()} == {
                "build_google": builds, "_block_solver": 0, "_series_solver": builds,
                "pagerank": 0}
            assert solves == ({DIRECT: 1, INVERTED: inverted[kind]} if builds else {})

    def test_global_product_matches_dense_oracle(self):
        # on the golden input: y = A^-1 v and dy = A^-1 dv per direction, A = I - damping S0
        # solved dense, with dv = dW_p / (n_c W) - v dW / W = v (1_p - W_p / W)
        mm = ingest_csv(os.path.join(os.path.dirname(__file__), "golden", "synth",
                                     "trade.csv"), 2018).money
        n_c = mm.n_countries
        for k, code in enumerate(mm.products.codes):
            probs, shifts = [], []
            for direction in (DIRECT, INVERTED):
                g = build_google(mm, direction)
                a = np.eye(g.n_nodes) - g.damping * g.links.toarray()
                v, in_p = g.personalization, np.arange(g.n_nodes) // n_c == k
                y, dy = np.linalg.solve(a, v), np.linalg.solve(a, v * (in_p - v[in_p].sum()))
                probs.append((y / y.sum()).reshape(-1, n_c).sum(axis=0))
                shifts.append(((dy - y * dy.sum() / y.sum()) / y.sum()).reshape(-1, n_c)
                              .sum(axis=0))
            (p, p_star), (dp, dp_star) = probs, shifts
            oracle = 2.0 * (p * dp_star - p_star * dp) / (p + p_star) ** 2
            report = balance_sensitivity(mm, Perturbation(GLOBAL_PRODUCT, product=code),
                                         RANK_BASED)
            assert report.countries == mm.countries.ids
            np.testing.assert_allclose(report.derivatives, oracle, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("option, value, message", [
        ("max_iter", 2.5, "max_iter must be an int of at least 1"),
        ("max_iter", 3.0, "max_iter must be an int of at least 1"),
        ("max_iter", True, "max_iter must be an int of at least 1"),
        ("tol", "1e-9", "tol must be positive and finite"),
        ("tol", True, "tol must be positive and finite"),
    ])
    def test_mistyped_solver_options(self, option, value, message):
        with pytest.raises(ValidationError, match=message):
            balance_sensitivity(two_country(), Perturbation(GLOBAL_PRODUCT, product="0"),
                                RANK_BASED, **{option: value})

    @pytest.mark.parametrize("options, message", [
        ({"damping": 5.0}, "damping must be in"),
        ({"damping": np.nan}, "damping must be in"),
        ({"damping": True}, "damping must be in"),
        ({"tol": "x"}, "tol must be positive and finite"),
        ({"tol": -1}, "tol must be positive and finite"),
        ({"max_iter": 0}, "max_iter must be an int of at least 1"),
        ({"max_iter": True}, "max_iter must be an int of at least 1"),
        ({"damping": 5.0, "tol": "x", "max_iter": 0}, "damping must be in"),
        ({"tol": -1, "max_iter": True}, "tol must be positive and finite"),
    ], ids=["damping-5", "damping-nan", "damping-bool", "tol-str", "tol-negative",
            "max_iter-0", "max_iter-bool", "damping-first", "tol-before-max_iter"])
    @pytest.mark.parametrize("description", [RANK_BASED, VOLUME_BASED])
    def test_every_description_checks_solver_options(self, description, options, message):
        # checked before the description branches, though the volume one solves nothing
        mm = gravity_money_set(1, 5, 2)
        calls = [lambda: balance_report(mm, description, **options),
                 lambda: balance_sensitivity(mm, Perturbation(GLOBAL_PRODUCT, product="0"),
                                             description, **options)]
        if set(options) == {"damping"}:
            calls.append(lambda: labor_cost_matrix(mm, description, **options))
        for call in calls:
            with pytest.raises(ValidationError, match=f"^{message}"):
                call()

    def test_closed_class_at_damping_one(self):
        # AAA <-> BBB alone is a closed class: the series for (I - S0)^-1 never settles
        with pytest.raises(ConvergenceError, match="response series did not reach"):
            balance_sensitivity(two_country(), Perturbation(GLOBAL_PRODUCT, product="0"),
                                RANK_BASED, damping=1.0)

    @pytest.mark.parametrize("tiny", [1e-310, 5e-324])
    def test_subnormal_only_flow_gives_finite_derivatives(self, tiny):
        # CCC's only flow is subnormal: E + I is too, and (E + I)^2 underflows to 0
        mm = money_set([("AAA", "BBB", "1", 1.3), ("BBB", "AAA", "1", 0.5),
                        ("CCC", "AAA", "1", tiny)])
        assert balance_report(mm, VOLUME_BASED).countries == ("AAA", "BBB", "CCC")
        for description in (RANK_BASED, VOLUME_BASED):
            table = labor_cost_matrix(mm, description)
            assert table.countries == ("AAA", "BBB", "CCC")
            assert np.all(np.isfinite(table.derivatives))
            for shock in every_kind(mm).values():
                report = balance_sensitivity(mm, shock, description)
                assert report.countries == table.countries
                assert np.all(np.isfinite(report.derivatives))
                if description == VOLUME_BASED:  # CCC only exports: its balance stays 1
                    assert report.derivatives[2] == 0.0
        np.testing.assert_array_equal(labor_cost_matrix(mm, VOLUME_BASED).derivatives[2], 0.0)

    def test_absent_product_gives_zero_derivatives(self):
        # product "1" is registered but carries no flows at all
        mm = money_set(
            [("AAA", "BBB", "0", 5.0), ("BBB", "AAA", "0", 2.0)],
            countries=CountryRegistry.from_ids(["AAA", "BBB"]),
            products=ProductRegistry.from_codes(["0", "1"]))
        for desc in (RANK_BASED, VOLUME_BASED):
            report = balance_sensitivity(
                mm, Perturbation(GLOBAL_PRODUCT, product="1"), desc)
            np.testing.assert_array_equal(report.derivatives, 0.0)

    def test_two_country_volume_global_shock_cancels(self):
        # uniform scaling of the only product divides out of the balance
        report = balance_sensitivity(
            two_country(7.0, 3.0), Perturbation(GLOBAL_PRODUCT, product="0"),
            VOLUME_BASED)
        assert np.abs(report.derivatives).max() <= 1e-10

    def test_rank_based_reproducible_bitwise(self):
        mm = small_money_set(26, 6, 2)
        pert = Perturbation(COUNTRY_PRODUCT, product=mm.products.codes[0],
                            target_country=mm.countries.ids[1])
        a = balance_sensitivity(mm, pert, RANK_BASED)
        b = balance_sensitivity(mm, pert, RANK_BASED)
        assert np.array_equal(a.derivatives, b.derivatives)
        assert np.all(np.isfinite(a.derivatives))

    def test_diagonal_flag_marks_target(self):
        mm = small_money_set(27, 5, 1)
        target = mm.countries.ids[3]
        report = balance_sensitivity(
            mm, Perturbation(LABOR_COST, target_country=target), RANK_BASED)
        assert report.diagonal.sum() == 1
        assert report.countries[np.flatnonzero(report.diagonal)[0]] == target

    def test_global_shock_has_no_diagonal(self):
        mm = small_money_set(28, 4, 1)
        report = balance_sensitivity(
            mm, Perturbation(GLOBAL_PRODUCT, product=mm.products.codes[0]), RANK_BASED)
        assert not report.diagonal.any()

    def test_subnormal_flow_keeps_rank_sensitivity_finite(self):
        # CCC's only flow is subnormal: its Google matrix column must not hold inf
        mm = money_set([("AAA", "BBB", "1", 13.0), ("BBB", "AAA", "1", 5.0),
                        ("CCC", "AAA", "1", 5e-324)])
        report = balance_sensitivity(mm, Perturbation(GLOBAL_PRODUCT, product="1"),
                                     RANK_BASED)
        assert report.countries == ("AAA", "BBB", "CCC")
        assert np.all(np.isfinite(report.derivatives))


class TestLaborCostMatrix:
    @pytest.mark.parametrize("description", [RANK_BASED, VOLUME_BASED])
    @pytest.mark.parametrize("seed, n_countries, n_products, density", ORACLE_SETS)
    def test_central_differences_converge_to_it(self, seed, n_countries, n_products,
                                                density, description):
        mm = oracle_set(seed, n_countries, n_products, density)
        table = labor_cost_matrix(mm, description)
        assert table.countries == balance_report(mm, description).countries
        shocks = [Perturbation(LABOR_COST, target_country=t) for t in table.targets]
        clear = assert_central_differences_converge(mm, shocks, description,
                                                    table.derivatives)
        assert clear >= table.derivatives.shape[0]

    @pytest.mark.parametrize("description, per_direction", [(RANK_BASED, 2), (VOLUME_BASED, 0)])
    def test_one_build_and_one_factorization_per_direction(self, description, per_direction):
        mm, solves = small_money_set(30, 4, 2), {}
        names = ("build_google", "_block_solver", "_series_solver", "pagerank")
        wraps = {name: getattr(sensitivity, name) for name in names}

        def counted_solver(g, *args):
            solve = wraps["_block_solver"](g, *args)

            def counted(*b):
                solves[g.direction] = solves.get(g.direction, 0) + 1
                return solve(*b)
            return counted

        with contextlib.ExitStack() as stack:
            calls = {name: stack.enter_context(mock.patch.object(
                sensitivity, name, wraps=counted_solver if name == "_block_solver" else wrap))
                for name, wrap in wraps.items()}
            labor_cost_matrix(mm, description)
        assert {name: spy.call_count for name, spy in calls.items()} == {
            "build_google": per_direction, "_block_solver": per_direction,
            "_series_solver": 0, "pagerank": 0}
        # each direction solves 1, for PageRank and every target's volume shift; the
        # inverted one also solves each target's row term
        assert solves == ({DIRECT: 1, INVERTED: 1 + mm.n_countries} if per_direction else {})

    def test_unknown_description_rejected_before_any_build(self):
        with mock.patch.object(sensitivity, "build_google") as build:
            with pytest.raises(ValidationError, match="unknown description"):
                labor_cost_matrix(two_country(), "other")
            with pytest.raises(ValidationError, match="unknown description"):
                balance_sensitivity(two_country(), Perturbation(GLOBAL_PRODUCT, product="0"),
                                    "other")
        build.assert_not_called()

    def test_singular_block_at_damping_one(self):
        # AAA <-> BBB alone is a closed class: I - S0 has no inverse
        with pytest.raises(ConvergenceError, match="singular in product 0"):
            labor_cost_matrix(two_country(), RANK_BASED, damping=1.0)

    def test_closed_class_with_a_rounded_pivot_raises(self):
        # at damping 1 rounding leaves this closed class a pivot of 1.1e-16, not 0, so
        # LAPACK reports no singularity and the solver's pivot rule must
        mm = money_set([("AAA", "BBB", "0", 3.0), ("BBB", "CCC", "0", 7.0),
                        ("CCC", "AAA", "0", 5.0), ("AAA", "CCC", "0", 1.1),
                        ("BBB", "AAA", "0", 2.3), ("CCC", "BBB", "0", 0.7),
                        ("DDD", "AAA", "0", 1.0)])
        g = build_google(mm, DIRECT, 1.0)
        assert dgetrf(np.eye(g.n_nodes) - g.links.toarray())[2] == 0
        with pytest.raises(ConvergenceError, match="singular in product 0"):
            labor_cost_matrix(mm, RANK_BASED, damping=1.0)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 8), st.integers(1, 3))
    def test_closed_class_raises_at_damping_one_only(self, seed, n_class, n_outside):
        # the LU (labor_cost_matrix, reduce) and the series (balance_sensitivity) both
        # raise at damping 1; just below it the LU finds no false singularity
        mm = closed_class_set(seed, n_class, n_outside)
        shock = Perturbation(LABOR_COST, target_country="AAA")
        outside = [(mm.countries.ids[-1], "0")]  # the class stays in the scattering set
        with pytest.raises(ConvergenceError, match="singular in product 0"):
            labor_cost_matrix(mm, RANK_BASED, damping=1.0)
        with pytest.raises(ConvergenceError, match="singular in product 0"):
            reduce(build_google(mm, DIRECT, 1.0), outside)
        with pytest.raises(ConvergenceError, match="response series did not reach"):
            balance_sensitivity(mm, shock, RANK_BASED, damping=1.0, max_iter=100)
        table = labor_cost_matrix(mm, RANK_BASED, damping=1.0 - 1e-9)
        assert np.isfinite(table.derivatives).all()
        assert np.isfinite(reduce(build_google(mm, DIRECT, 1.0 - 1e-9), outside).g_r).all()
        # the series shrinks its error by the damping per step, so it settles only
        # further from 1; there it agrees with the LU
        table = labor_cost_matrix(mm, RANK_BASED, damping=0.99)
        report = balance_sensitivity(mm, shock, RANK_BASED, damping=0.99)
        assert report.countries == table.countries
        np.testing.assert_allclose(report.derivatives, table.derivatives[:, 0],
                                   rtol=1e-6, atol=1e-9)

    def test_diagonal_reported_separately(self):
        mm = small_money_set(30, 4, 1)
        table = labor_cost_matrix(mm, RANK_BASED)
        diag = table.diagonal()
        assert set(diag) == set(table.targets)
        for target, value in diag.items():
            i = table.countries.index(target)
            j = table.targets.index(target)
            assert value == table.derivatives[i, j]

    def test_shock_on_isolated_country_is_noop(self):
        # DDD sits in the registry but trades nothing
        registry = CountryRegistry.from_ids(["AAA", "BBB", "CCC", "DDD"])
        mm = money_set(
            [("AAA", "BBB", "0", 4.0), ("BBB", "CCC", "0", 3.0),
             ("CCC", "AAA", "0", 2.0)],
            countries=registry, products=ProductRegistry.from_codes(["0"]))
        table = labor_cost_matrix(mm, VOLUME_BASED)
        j = table.targets.index("DDD")
        np.testing.assert_array_equal(table.derivatives[:, j], 0.0)
        assert "DDD" not in table.countries  # absent from the zero-trade report
