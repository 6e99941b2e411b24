"""PageRank/CheiRank computation, rank indexing, and the rank table."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .google_matrix import GoogleMatrix, _iterate
from .trade_data import CountryRegistry, VolumeProbabilities

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000


def assign_ranks(probs) -> np.ndarray:
    """Rank indexes 1..n by descending probability; ties by ascending position.

    Returns an array where ``ranks[i]`` is the 1-based rank of entry ``i``.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1:
        raise ValidationError("probabilities must be one-dimensional")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ValidationError("probabilities must be finite and nonnegative")
    ranks = np.empty(p.size, dtype=np.int64)
    ranks[np.argsort(-p, kind="stable")] = np.arange(1, p.size + 1)
    return ranks


@dataclass(frozen=True, eq=False)
class RankVector:
    """Stationary probabilities of one flow direction, with country rank indexes.

    ``node_probs`` is the joint (country, product) vector, product-major: node
    ``p * n_countries + c``. ``country_probs`` is its sum over products, and
    ``country_rank`` maps registry position to a 1-based rank index, ties by id.
    ``iterations`` counts the steps of ``pagerank``'s loop, one ``links`` product each,
    and ``residual`` is the L1 change of the iterate, a distribution, at the last of them.
    """

    direction: str
    node_probs: np.ndarray
    country_probs: np.ndarray
    country_rank: np.ndarray
    residual: float
    iterations: int
    countries: CountryRegistry


def pagerank(g: GoogleMatrix, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER) -> RankVector:
    """Leading eigenvector of the Google matrix by power iteration, product by product.

    Products meet only in the teleportation vector v, which is constant on each
    product block, so p ∝ (I - damping * S0)⁻¹ v gives p_p ∝ v_p * pi_p / (w_p . pi_p)
    with pi_p the stationary vector of product p's own chain
    pi_p <- damping * S0_p pi_p + (w_p . pi_p) / n_countries, and w as in
    ``GoogleMatrix``. Every pi_p starts uniform (p starts at v) and all step at once,
    one ``links`` product per step. ``iterations`` counts the steps; ``residual`` is
    the last step's L1 change of the normalized p, and the loop stops at the first
    at most ``tol``.

    At damping 1, where w_p . pi_p can be 0 and the answer depends on the start,
    power iteration runs on the whole Google matrix from v instead, counted the same
    way. ``ConvergenceError`` as in ``google_matrix._iterate``.
    """
    step = g.apply if g.damping == 1.0 else _product_step(g)
    x, residual, iterations = _iterate(step, g.personalization, tol, max_iter,
                                       "power iteration")
    x = x / x.sum()
    country_probs = x.reshape(len(g.products), len(g.countries)).sum(axis=0)
    return RankVector(g.direction, x, country_probs, assign_ranks(country_probs),
                      residual, iterations, g.countries)


def _product_step(g: GoogleMatrix):
    """One step of every product's own chain on the combined p, for damping < 1.

    Product p's block of p is pi_p up to a positive factor, and the chain is linear,
    so the step needs no normalized pi_p: y = damping * S0 p + (w_p . p_p) / n_c on
    each block, then each block of y is weighted by v_p / (w_p . y_p) and the whole
    normalized. A block with no mass, as where v_p = 0, stays exactly 0.
    """
    n_c, n_p = len(g.countries), len(g.products)
    w = np.where(g.dangling, g.damping, 0.0) + (1.0 - g.damping)
    v = g.personalization[::n_c]  # v is constant on each product block

    def weigh(x: np.ndarray) -> np.ndarray:  # w_p . x_p for every product
        return (w * x).reshape(n_p, n_c).sum(axis=1)

    def step(p: np.ndarray) -> np.ndarray:
        y = g.damping * (g.links @ p)
        blocks = y.reshape(n_p, n_c)  # a view: the updates below write y
        blocks += weigh(p)[:, None] / n_c
        mass = weigh(y)
        blocks *= np.divide(v, mass, out=np.zeros(n_p), where=mass > 0)[:, None]
        return y / y.sum()

    return step


def rank_table(direct: RankVector, inverted: RankVector,
               volumes: VolumeProbabilities, top: int) -> list[dict]:
    """Top countries under the four orderings, one row per rank position.

    Each row's keys, in order, are the table's columns: ``rank``, then the
    country ids by PageRank (``direct.country_rank``), CheiRank
    (``inverted.country_rank``), ImportRank and ExportRank
    (``volumes.import_rank`` and ``export_rank``); nothing is ranked again.
    ``top`` is clipped to the country count.
    """
    if top < 1:
        raise ValidationError(f"top must be at least 1, got {top}")
    registry = direct.countries
    for other in (inverted.countries, volumes.countries):
        if other.ids != registry.ids:
            raise ValidationError("rank table inputs use different country registries")
    columns = {
        "pagerank_country": np.argsort(direct.country_rank),
        "cheirank_country": np.argsort(inverted.country_rank),
        "importrank_country": np.argsort(volumes.import_rank),
        "exportrank_country": np.argsort(volumes.export_rank),
    }
    rows = []
    for r in range(min(top, len(registry))):
        row = {"rank": r + 1}
        for name, order in columns.items():
            row[name] = registry.ids[order[r]]
        rows.append(row)
    return rows
