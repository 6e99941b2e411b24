"""Seeded trade-flow inputs for the benchmark, with their known properties.

The generator draws a gravity-like network (mass * mass / distance times
lognormal noise, rounded to whole USD), forces a few percent of
(country, product) pairs to have no exports or no imports so that both flow
directions have dangling columns, and writes it in the ingest CSV format with
a known number of duplicate rows, self-flows and other-year rows mixed in.
The returned ``Network`` keeps the exact deduplicated flows, which the oracle
uses as ground truth.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

YEAR = 2018
PRODUCTS = tuple(str(p) for p in range(10))
DENSITY = 0.51
DANGLING_SHARE = 0.03  # of (country, product) pairs, per direction
DUPLICATE_SHARE = 0.01  # extra rows, as a share of the flows
SELF_FLOW_SHARE = 0.001
OTHER_YEAR_SHARE = 0.01
_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True, eq=False)
class Network:
    """Exact flows of one generated input and the counts injected into its CSV.

    ``exporter``/``importer`` index ``ids`` (sorted, as the ingest registry
    orders them); ``product`` indexes ``PRODUCTS``. Values are whole USD in
    float64, so every sum the pipeline takes of them is exact.
    """

    seed: int
    ids: tuple[str, ...]
    exporter: np.ndarray
    importer: np.ndarray
    product: np.ndarray
    value: np.ndarray
    duplicate_rows: int
    self_flow_rows: int
    other_year_rows: int
    csv_bytes: bytes

    @property
    def n_countries(self) -> int:
        return len(self.ids)

    @property
    def n_flows(self) -> int:
        return int(self.value.size)

    def money_cube(self) -> np.ndarray:
        """Dense (product, importer, exporter) money array."""
        n_c = self.n_countries
        cube = np.zeros((len(PRODUCTS), n_c, n_c))
        cube[self.product, self.importer, self.exporter] = self.value
        return cube

    def properties(self) -> dict:
        cube = self.money_cube()
        return {
            "seed": self.seed,
            "countries": self.n_countries,
            "products": len(PRODUCTS),
            "nodes": self.n_countries * len(PRODUCTS),
            "flows": self.n_flows,
            "csv_rows": self.n_flows + self.duplicate_rows + self.self_flow_rows
            + self.other_year_rows,
            "dangling_direct": int((cube.sum(axis=1) == 0).sum()),
            "dangling_inverted": int((cube.sum(axis=2) == 0).sum()),
            "duplicate_rows": self.duplicate_rows,
            "self_flow_rows": self.self_flow_rows,
            "other_year_rows": self.other_year_rows,
            "csv_sha256": hashlib.sha256(self.csv_bytes).hexdigest(),
        }


def country_ids(n: int) -> tuple[str, ...]:
    """Three-letter ids whose first two letters differ, so node labels are short."""
    return tuple(f"{_ALPHABET[i // 26]}{_ALPHABET[i % 26]}X" for i in range(n))


def generate(seed: int, n_countries: int) -> Network:
    rng = np.random.default_rng(seed)
    n_p = len(PRODUCTS)
    mass = rng.lognormal(0.0, 1.2, n_countries)
    weight = rng.lognormal(0.0, 0.8, n_p)
    distance = rng.uniform(0.5, 2.5, (n_countries, n_countries))
    distance = (distance + distance.T) / 2.0

    # cube[p, importer, exporter]
    linked = rng.random((n_p, n_countries, n_countries)) < DENSITY
    linked[:, np.arange(n_countries), np.arange(n_countries)] = False
    pairs = n_p * n_countries
    silent = rng.choice(pairs, size=2 * round(DANGLING_SHARE * pairs), replace=False)
    no_export, no_import = np.split(silent, 2)
    linked[no_export // n_countries, :, no_export % n_countries] = False
    linked[no_import // n_countries, no_import % n_countries, :] = False
    if not linked.any(axis=(1, 2)).all() or not (linked.any(axis=(0, 1))
                                                 | linked.any(axis=(0, 2))).all():
        raise RuntimeError(f"seed {seed} left a product or country without flows")

    prod, imp, exp = np.nonzero(linked)
    noise = rng.lognormal(0.0, 0.5, prod.size)
    value = weight[prod] * mass[exp] * mass[imp] / distance[exp, imp] * noise * 1e6
    value = np.maximum(np.round(value), 2.0)

    ids = country_ids(n_countries)
    n_dup = round(DUPLICATE_SHARE * value.size)
    n_self = round(SELF_FLOW_SHARE * value.size)
    n_other = round(OTHER_YEAR_SHARE * value.size)

    # a duplicated flow is written as two rows whose values sum to it exactly
    dup = rng.choice(value.size, size=n_dup, replace=False)
    head = np.maximum(np.floor(value[dup] * rng.uniform(0.1, 0.9, n_dup)), 1.0)
    row_value = value.copy()
    row_value[dup] -= head
    self_c = rng.integers(0, n_countries, n_self)
    other = rng.choice(value.size, size=n_other, replace=False)

    years = np.concatenate([np.full(value.size + n_dup + n_self, YEAR),
                            np.full(n_other, YEAR - 1)])
    rows_exp = np.concatenate([exp, exp[dup], self_c, exp[other]])
    rows_imp = np.concatenate([imp, imp[dup], self_c, imp[other]])
    rows_prod = np.concatenate([prod, prod[dup], rng.integers(0, n_p, n_self),
                                prod[other]])
    rows_val = np.concatenate([row_value, head, rng.integers(1, 10**6, n_self),
                               np.round(value[other] * rng.uniform(0.5, 2.0, n_other))])
    order = rng.permutation(years.size)
    lines = ["year,exporter,importer,product,value_usd"]
    lines.extend(
        f"{y},{ids[e]},{ids[i]},{p},{v}"
        for y, e, i, p, v in zip(years[order].tolist(), rows_exp[order].tolist(),
                                 rows_imp[order].tolist(), rows_prod[order].tolist(),
                                 rows_val[order].astype(np.int64).tolist())
    )
    csv_bytes = ("\n".join(lines) + "\n").encode("ascii")
    return Network(seed, ids, exp, imp, prod, value, n_dup, n_self, n_other, csv_bytes)
