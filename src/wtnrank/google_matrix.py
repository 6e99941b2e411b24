"""Construction of the direct and inverted Google matrices of a trade network.

Nodes are (country, product) pairs indexed product-major: node = p * n_c + c.
Transitions stay within a product (each product block is the column-normalized
money matrix); cross-product coupling enters only through the teleportation
vector, which weights products by their share of total traded volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import EmptyDataError, ValidationError
from .trade_data import CountryRegistry, MoneyMatrixSet, ProductRegistry, matrix_volume

DEFAULT_DAMPING = 0.5

DIRECT = "direct"
INVERTED = "inverted"


@dataclass(frozen=True, eq=False)
class GoogleMatrix:
    """Column-stochastic transition structure of one flow direction.

    ``stochastic`` already has dangling columns replaced by the
    teleportation vector, so the effective matrix is
    ``damping * stochastic + (1 - damping) * v @ ones.T``.
    """

    stochastic: sparse.csc_matrix
    damping: float
    personalization: np.ndarray
    direction: str
    countries: CountryRegistry
    products: ProductRegistry

    @property
    def n_nodes(self) -> int:
        return self.stochastic.shape[0]

    def node_of(self, country: str, product: str) -> int:
        p = self.products.index_of(product)
        c = self.countries.index_of(country)
        return p * len(self.countries) + c

    def node_pair(self, node: int) -> tuple[str, str]:
        n_c = len(self.countries)
        return self.countries.ids[node % n_c], self.products.codes[node // n_c]

    def node_label(self, node: int) -> str:
        """Compact label: two-letter actor code plus product digit (e.g. US7).

        Falls back to the full country id when two ids share a short code.
        """
        country, product = self.node_pair(node)
        return f"{self.countries.display_code(country)}{product}"

    def apply(self, x: np.ndarray) -> np.ndarray:
        """One multiplication by the effective matrix (x treated as a column)."""
        return self.damping * (self.stochastic @ x) \
            + (1.0 - self.damping) * self.personalization * x.sum()

    def effective_dense(self) -> np.ndarray:
        """Dense effective matrix, the tests' oracle; the library never builds it."""
        g = self.damping * self.stochastic.toarray()
        g += (1.0 - self.damping) * self.personalization[:, None]
        return g


def personalization_vector(mm: MoneyMatrixSet) -> np.ndarray:
    """Teleportation distribution weighting each product by traded volume.

    v[(c, p)] = W_p / (n_c * W) with W_p the total traded volume of product p
    and W the grand total, uniform over countries within a product.
    """
    weights = [matrix_volume(m) for m in mm.matrices]
    total = 0.0
    for w in weights:  # in product order, as MoneyMatrixSet.total_volume adds them
        total += w
    if total <= 0.0:
        raise EmptyDataError("zero total trade volume")
    n_c = mm.n_countries
    return np.repeat(np.array(weights) / (n_c * total), n_c)


def build_google(mm: MoneyMatrixSet, direction: str = DIRECT,
                 damping: float = DEFAULT_DAMPING) -> GoogleMatrix:
    """Build the Google matrix of the direct or inverted trade flow.

    Each product block is the money matrix (transposed for the inverted
    flow) with every column of outgoing links normalized to unity. Columns
    with no outgoing flow are replaced by the personalization vector.
    """
    if not 0.0 < damping <= 1.0:
        raise ValidationError(f"damping must be in (0, 1], got {damping}")
    if direction not in (DIRECT, INVERTED):
        raise ValidationError(f"direction must be {DIRECT!r} or {INVERTED!r}")

    v = personalization_vector(mm)
    n_c, support = mm.n_countries, np.flatnonzero(v)
    blocks = []
    for p, m in enumerate(mm.matrices):
        flow = (m.T if direction == INVERTED else m).tocsc()
        colsum = np.asarray(flow.sum(axis=0)).ravel()
        col = np.repeat(np.arange(n_c), np.diff(flow.indptr))
        with np.errstate(over="ignore", invalid="ignore"):  # 1 / a subnormal sum is inf
            scale = np.divide(1.0, colsum, out=np.zeros_like(colsum), where=colsum > 0)
            row, x = flow.indices, flow.data * scale[col]
        for j in np.flatnonzero(np.isinf(scale)):  # there a / colsum is still finite
            x[col == j] = flow.data[col == j] / colsum[j]
        keep = x != 0.0  # zeros are not stored, so a zero-sum column keeps no entry
        blocks.append((np.bincount(col[keep], minlength=n_c), row[keep] + p * n_c, x[keep]))
    counts, rows, values = (np.concatenate(part) for part in zip(*blocks))
    dangling = counts == 0
    counts[dangling] = support.size
    patch, k = np.repeat(dangling, counts), np.count_nonzero(dangling)
    indices, data = np.empty(patch.size, dtype=np.int64), np.empty(patch.size)
    indices[~patch], data[~patch] = rows, values
    indices[patch], data[patch] = np.tile(support, k), np.tile(v[support], k)
    s = sparse.csc_matrix((data, indices, np.concatenate(([0], np.cumsum(counts)))),
                          shape=(counts.size, counts.size))
    return GoogleMatrix(s, float(damping), v, direction, mm.countries, mm.products)

