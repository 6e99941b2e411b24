"""PageRank/CheiRank computation, rank indexing, and rank-table export."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv, write_json
from .errors import ConvergenceError, ValidationError
from .google_matrix import GoogleMatrix
from .trade_data import CountryRegistry, ProductRegistry, VolumeProbabilities

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000


def assign_ranks(probs, keys=None) -> np.ndarray:
    """Rank indexes 1..n by descending probability; ties by ascending key.

    ``keys[i]`` is the tie-break key of entry ``i`` (defaults to position).
    Returns an array where ``ranks[i]`` is the 1-based rank of entry ``i``.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1:
        raise ValidationError("probabilities must be one-dimensional")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ValidationError("probabilities must be finite and nonnegative")
    if keys is None:
        keys = list(range(p.size))
    order = sorted(range(p.size), key=lambda i: (-p[i], keys[i]))
    ranks = np.empty(p.size, dtype=np.int64)
    for r, i in enumerate(order, start=1):
        ranks[i] = r
    return ranks


@dataclass(frozen=True, eq=False)
class RankVector:
    """Stationary probabilities of one flow direction with rank indexes.

    Country and product probabilities are sums of the joint node vector;
    every ``*_rank`` array maps registry position to a 1-based rank index.
    """

    direction: str
    node_probs: np.ndarray
    country_probs: np.ndarray
    product_probs: np.ndarray
    node_rank: np.ndarray
    country_rank: np.ndarray
    product_rank: np.ndarray
    residual: float
    iterations: int
    countries: CountryRegistry
    products: ProductRegistry


def pagerank(g: GoogleMatrix, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER) -> RankVector:
    """Leading eigenvector of the Google matrix by power iteration.

    Starts from the personalization vector and stops at the first iterate
    with L1 change at most ``tol``. At damping < 1 the map is a contraction,
    so this converges for any start; the personalization start is canonical
    and fast.

    Raises
    ------
    ConvergenceError
        After ``max_iter`` iterations above tolerance (carries the last
        residual).
    """
    if not math.isfinite(tol) or tol <= 0.0:
        raise ValidationError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    x = g.personalization.copy()
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        x_next = g.apply(x)
        residual = float(np.abs(x_next - x).sum())
        x = x_next
        if residual <= tol:
            x = x / x.sum()
            return _rank_vector(g, x, residual, iteration)
    raise ConvergenceError(
        f"power iteration did not reach {tol} in {max_iter} iterations "
        f"(last residual {residual:.3e})",
        residual=residual,
        iterations=max_iter,
    )


def _rank_vector(g: GoogleMatrix, probs: np.ndarray, residual: float,
                 iterations: int) -> RankVector:
    n_c = len(g.countries)
    n_p = len(g.products)
    joint = probs.reshape(n_p, n_c)
    country_probs = joint.sum(axis=0)
    product_probs = joint.sum(axis=1)
    node_keys = [(cid, code) for code in g.products.codes for cid in g.countries.ids]
    return RankVector(
        direction=g.direction,
        node_probs=probs,
        country_probs=country_probs,
        product_probs=product_probs,
        node_rank=assign_ranks(probs, node_keys),
        country_rank=assign_ranks(country_probs, list(g.countries.ids)),
        product_rank=assign_ranks(product_probs, list(g.products.codes)),
        residual=residual,
        iterations=iterations,
        countries=g.countries,
        products=g.products,
    )


def rank_table(direct: RankVector, inverted: RankVector,
               volumes: VolumeProbabilities, top: int) -> list[dict]:
    """Top countries under the four orderings, one row per rank position.

    Columns: PageRank (direct), CheiRank (inverted), ImportRank and
    ExportRank (trade volume). ``top`` is clipped to the country count.
    """
    if top < 1:
        raise ValidationError(f"top must be at least 1, got {top}")
    registry = direct.countries
    for other in (inverted.countries, volumes.countries):
        if other.entries != registry.entries:
            raise ValidationError("rank table inputs use different country registries")
    ids = list(registry.ids)
    import_rank = assign_ranks(volumes.import_c, ids)
    export_rank = assign_ranks(volumes.export_c, ids)
    columns = {
        "pagerank_country": np.argsort(direct.country_rank),
        "cheirank_country": np.argsort(inverted.country_rank),
        "importrank_country": np.argsort(import_rank),
        "exportrank_country": np.argsort(export_rank),
    }
    rows = []
    for r in range(min(top, len(ids))):
        row = {"rank": r + 1}
        for name, order in columns.items():
            row[name] = registry.display_name(ids[order[r]])
        rows.append(row)
    return rows


RANK_TABLE_COLUMNS = (
    "rank",
    "pagerank_country",
    "cheirank_country",
    "importrank_country",
    "exportrank_country",
)


def write_rank_table_csv(rows: list[dict], dest) -> None:
    write_csv(RANK_TABLE_COLUMNS, ([row[c] for c in RANK_TABLE_COLUMNS] for row in rows),
              dest)


def write_rank_table_json(rows: list[dict], dest) -> None:
    write_json(rows, dest)
