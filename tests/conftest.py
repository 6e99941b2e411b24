"""Shared fixtures and seeded-network helpers."""

from pathlib import Path

import numpy as np
from scipy import sparse

from wtnrank import (
    CountryRegistry,
    MoneyMatrixSet,
    ProductRegistry,
    balance_report,
    gravity_money_set,
    ingest_csv,
)
from wtnrank.trade_data import CSV_HEADER


def random_money_set(seed, min_countries=3, max_countries=30, max_products=4):
    """Seeded random trade network with sizes drawn from the seed."""
    rng = np.random.default_rng(seed)
    n_c = int(rng.integers(min_countries, max_countries + 1))
    n_p = int(rng.integers(1, max_products + 1))
    density = float(rng.uniform(0.3, 0.9))
    return gravity_money_set(seed, n_c, n_p, density=density)


def effective_dense(g):
    """Dense effective matrix damping * S0 + v w^T of a ``GoogleMatrix``, the oracle
    that the library itself never builds."""
    dense = g.damping * g.links.toarray()
    dense += np.outer(g.personalization, g.damping * g.dangling + (1.0 - g.damping))
    return dense


def perturb_money(mm, perturbation, magnitude):
    """``mm`` with the flows a ``Perturbation`` selects scaled by (1 + magnitude),
    through the ``MoneyMatrixSet`` gate; everything else untouched."""
    target = perturbation.target_country
    scale = np.full(mm.n_countries, 1.0 + magnitude if target is None else 1.0)
    if target is not None:
        scale[mm.countries.index_of(target)] = 1.0 + magnitude
    matrices = []
    for code, m in zip(mm.products.codes, mm.matrices):
        if perturbation.product in (None, code):  # labor-cost shocks every product
            m = m.copy()
            m.data *= np.repeat(scale, np.diff(m.indptr))
        matrices.append(m)
    return MoneyMatrixSet(tuple(matrices), mm.year, mm.countries, mm.products)


def central_difference(mm, perturbation, description, step, **solver):
    """(B(+step) - B(-step)) / (2 step) of the full pipeline on two perturbed copies,
    the oracle of ``balance_sensitivity``: its error is O(step^2)."""
    plus, minus = (balance_report(perturb_money(mm, perturbation, sign * step), description,
                                  **solver) for sign in (1.0, -1.0))
    assert plus.countries == minus.countries
    return (plus.balances - minus.balances) / (2.0 * step)


def golden_money_set():
    """The money set of the CLI golden suite's ``synth --seed 42`` trade file."""
    return ingest_csv(str(Path(__file__).resolve().parent / "golden" / "synth" / "trade.csv"),
                      2018).money


def small_money_set(seed, n_countries, n_products, density=0.8):
    return gravity_money_set(seed, n_countries, n_products, density=density)


def money_sets_equal(a, b):
    """Exact structural equality (registries, year, and every stored value)."""
    return (a.year == b.year and a.countries.ids == b.countries.ids
            and a.products.codes == b.products.codes
            and all((ma != mb).nnz == 0 for ma, mb in zip(a.matrices, b.matrices)))


def money_set(flows, year=2018, countries=None, products=None):
    """The money set of (exporter, importer, product, value) flows, through a public door.

    Without registries, ``ingest_csv`` reads the flows as CSV rows of ``year``, each
    value written as the repr of its float. Given a registry, the flows of each
    product are one COO matrix, in input order, handed to the ``MoneyMatrixSet`` gate
    with that registry, the other one built from the flows. Either door checks and
    sums the flows: ingest drops self-flows, and the gate rejects a nonzero one.
    """
    flows = list(flows)
    if countries is None and products is None:
        rows = "".join(f"{year},{e},{i},{p},{float(v)!r}\n" for e, i, p, v in flows)
        return ingest_csv((",".join(CSV_HEADER) + "\n" + rows).encode(), year).money
    if countries is None:
        countries = CountryRegistry.from_ids(x for flow in flows for x in flow[:2])
    if products is None:
        products = ProductRegistry.from_codes(flow[2] for flow in flows)
    entries = [[] for _ in products.codes]  # (value, importer, exporter) of each product
    for exporter, importer, product, value in flows:
        entries[products.index_of(product)].append(
            (value, countries.index_of(importer), countries.index_of(exporter)))
    n = len(countries)
    matrices = []
    for part in entries:
        value, row, col = np.array(part, float).reshape(-1, 3).T
        matrices.append(sparse.coo_matrix((value, (row.astype(int), col.astype(int))),
                                          shape=(n, n)))
    return MoneyMatrixSet(tuple(matrices), year, countries, products)


def records(mm):
    """Every nonzero flow of ``mm.matrices`` as an (exporter id, importer id, product,
    value) tuple, sorted by (product, exporter, importer): the rows, but the year, that
    ``write_trade_csv`` writes."""
    ids, flows = mm.countries.ids, []
    for code, m in zip(mm.products.codes, mm.matrices):
        coo = m.tocoo()
        flows += [(ids[exp], ids[imp], code, value)
                  for imp, exp, value in zip(coo.row.tolist(), coo.col.tolist(),
                                             coo.data.tolist()) if value != 0.0]
    return sorted(flows, key=lambda r: (r[2], r[0], r[1]))


def node_pairs(g):
    """The (country, product) pair of each node of ``g``, in node order (product-major)."""
    return [(c, p) for p in g.products.codes for c in g.countries.ids]


def non_canonical_matrices(mm, seed):
    """Each matrix with its column entries shuffled and one entry split in two
    and another in three (the parts stored apart, in shuffled order)."""
    rng = np.random.default_rng(seed)
    matrices = []
    for m in mm.matrices:
        coo = m.tocoo()
        row, col, data = coo.row, coo.col, coo.data.copy()
        (a, b), fracs = rng.choice(coo.nnz, 2, replace=False), rng.uniform(0.1, 0.4, 3)
        parts = [data[a] * fracs[0], data[b] * fracs[1], data[b] * fracs[2]]
        data[a] -= parts[0]
        data[b] -= parts[1] + parts[2]
        row = np.concatenate((row, row[[a, b, b]]))
        col = np.concatenate((col, col[[a, b, b]]))
        data = np.concatenate((data, parts))
        order = np.lexsort((rng.random(data.size), col))  # by column, shuffled within
        indptr = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=m.shape[1]))))
        matrices.append(sparse.csc_matrix((data[order], row[order], indptr), shape=m.shape))
        assert not matrices[-1].has_canonical_format
    return tuple(matrices)


def non_canonical(mm, seed):
    """``mm`` handed to ``MoneyMatrixSet`` as the matrices of ``non_canonical_matrices``."""
    return MoneyMatrixSet(non_canonical_matrices(mm, seed), mm.year, mm.countries, mm.products)
