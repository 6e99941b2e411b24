"""Seeded gravity-model trade fixtures.

Flow values follow a crude gravity law (mass * mass / distance) with
lognormal noise, so synthetic networks have the heavy-tailed, asymmetric
texture of real trade data while staying fully deterministic per seed.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import ValidationError
from .trade_data import CountryRegistry, MoneyMatrixSet, ProductRegistry, SITC1_CODES

DEFAULT_COUNTRIES = 12
DEFAULT_PRODUCTS = 4
DEFAULT_YEAR = 2018
DEFAULT_DENSITY = 0.75


def synth_country_ids(n: int) -> list[str]:
    """Deterministic alpha-3 style ids: SAA, SAB, ... (S for synthetic)."""
    if not 1 <= n <= 26 * 26:
        raise ValidationError(f"country count must be in [1, 676], got {n}")
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return [f"S{alphabet[i // 26]}{alphabet[i % 26]}" for i in range(n)]


def gravity_money_set(seed: int, n_countries: int = DEFAULT_COUNTRIES,
                      n_products: int = DEFAULT_PRODUCTS, year: int = DEFAULT_YEAR,
                      density: float = DEFAULT_DENSITY) -> MoneyMatrixSet:
    """Generate a synthetic multiproduct trade network.

    ``density`` is the probability that a directed country pair trades a
    given product; missing links leave genuinely dangling columns in the
    Google matrix, which the tests rely on.
    """
    if seed < 0:
        raise ValidationError(f"seed must be at least 0, got {seed}")
    if n_countries < 2:
        raise ValidationError("need at least two countries")
    if not 1 <= n_products <= len(SITC1_CODES):
        raise ValidationError(f"product count must be in [1, {len(SITC1_CODES)}]")
    if not 0.0 < density <= 1.0:
        raise ValidationError(f"density must be in (0, 1], got {density}")

    rng = np.random.default_rng(seed)
    ids = synth_country_ids(n_countries)
    codes = SITC1_CODES[:n_products]

    mass = rng.lognormal(mean=0.0, sigma=1.2, size=n_countries)
    product_weight = rng.lognormal(mean=0.0, sigma=0.8, size=n_products)
    distance = rng.uniform(0.5, 2.5, size=(n_countries, n_countries))
    distance = (distance + distance.T) / 2.0

    off_diagonal = ~np.eye(n_countries, dtype=bool)
    matrices = []
    for weight in product_weight:
        noise = rng.lognormal(mean=0.0, sigma=0.5, size=(n_countries, n_countries))
        linked = rng.random((n_countries, n_countries)) < density
        # value[exporter, importer] in whole USD (rounded half to even), as in
        # real reporting; integer values keep merge sums exact in float64
        value = np.round(weight * mass[:, None] * mass[None, :] / distance * noise * 1e7)
        value[~(linked & off_diagonal)] = 0.0
        matrices.append(sparse.csc_matrix(value.T))  # rows import, columns export
    if not any(m.nnz for m in matrices):
        raise ValidationError("synthetic parameters produced an empty network")

    countries = CountryRegistry.from_ids(ids)
    products = ProductRegistry.from_codes(codes)
    return MoneyMatrixSet(tuple(matrices), year, countries, products)
