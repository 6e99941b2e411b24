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
    """Leading eigenvector of the Google matrix by power iteration.

    Starts from the personalization vector and stops at the first iterate
    with L1 change at most ``tol``. At damping < 1 the map is a contraction,
    so this converges for any start; the personalization start is canonical
    and fast. ``ConvergenceError`` as in ``google_matrix._iterate``.
    """
    x, residual, iterations = _iterate(g.apply, g.personalization, tol, max_iter,
                                       "power iteration")
    x = x / x.sum()
    country_probs = x.reshape(len(g.products), len(g.countries)).sum(axis=0)
    return RankVector(g.direction, x, country_probs, assign_ranks(country_probs),
                      residual, iterations, g.countries)


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
