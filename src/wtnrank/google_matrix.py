"""Construction of the direct and inverted Google matrices of a trade network.

Nodes are (country, product) pairs indexed product-major: node = p * n_c + c.
Transitions stay within a product (each product block is the column-normalized
money matrix); cross-product coupling enters only through the teleportation
vector, which weights products by their share of total traded volume.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import ConvergenceError, EmptyDataError, ValidationError
from .trade_data import CountryRegistry, MoneyMatrixSet, ProductRegistry

DEFAULT_DAMPING = 0.5

DIRECT = "direct"
INVERTED = "inverted"


@dataclass(frozen=True, eq=False)
class GoogleMatrix:
    """Google matrix of one flow direction, stored as sparse links plus a dangling mask.

    ``links`` is S0 (each product block column-normalized, dangling columns left empty),
    ``dangling`` is d and ``personalization`` is v. The effective matrix is
    ``damping * S0 + v @ w.T`` with w = damping * d + (1 - damping).
    """

    links: sparse.csc_matrix
    damping: float
    personalization: np.ndarray
    dangling: np.ndarray
    direction: str
    countries: CountryRegistry
    products: ProductRegistry

    @property
    def n_nodes(self) -> int:
        return self.links.shape[0]

    def node_of(self, country: str, product: str) -> int:
        p = self.products.index_of(product)
        c = self.countries.index_of(country)
        return p * len(self.countries) + c

    def apply(self, x: np.ndarray) -> np.ndarray:
        """One multiplication by the effective matrix (x treated as a column)."""
        teleport = self.damping * x[self.dangling].sum() + (1.0 - self.damping) * x.sum()
        return self.damping * (self.links @ x) + self.personalization * teleport

    @property
    def stochastic(self) -> sparse.csc_matrix:
        """S = S0 + v @ d.T, assembled for checks; the library never uses it."""
        v, d = sparse.csc_matrix(self.personalization[:, None]), self.dangling[None, :]
        return self.links + v @ sparse.csc_matrix(d, dtype=float)


def personalization_vector(mm: MoneyMatrixSet) -> np.ndarray:
    """Teleportation distribution weighting each product by traded volume.

    v[(c, p)] = W_p / (n_c * W) with W_p the ``numpy.sum`` of the ``imports`` row of
    product p and W = ``mm.total_volume()``, uniform over countries within a product.
    """
    total = mm.total_volume()
    if total <= 0.0:
        raise EmptyDataError("zero total trade volume")
    weights = np.array([np.sum(row) for row in mm.imports])  # as total_volume adds them
    return np.repeat(weights / (mm.n_countries * total), mm.n_countries)


def build_google(mm: MoneyMatrixSet, direction: str = DIRECT,
                 damping: float = DEFAULT_DAMPING) -> GoogleMatrix:
    """Build the Google matrix of the direct or inverted trade flow.

    Each product block is the money matrix (transposed for the inverted flow)
    with each column divided by its sum, ``mm.exports`` (direct) or ``mm.imports``
    (inverted). Empty columns are dangling: they teleport by the personalization.
    """
    _check_solver(damping=damping)
    if direction not in (DIRECT, INVERTED):
        raise ValidationError(f"direction must be {DIRECT!r} or {INVERTED!r}")

    v = personalization_vector(mm)
    n_c = mm.n_countries
    column_sums = mm.imports if direction == INVERTED else mm.exports
    blocks = []
    for p, m in enumerate(mm.matrices):
        flow = (m.T if direction == INVERTED else m).tocsc()
        colsum = column_sums[p]
        col = np.repeat(np.arange(n_c), np.diff(flow.indptr))
        with np.errstate(over="ignore", invalid="ignore"):  # 1 / a subnormal sum is inf
            scale = np.divide(1.0, colsum, out=np.zeros_like(colsum), where=colsum > 0)
            row, x = flow.indices, flow.data * scale[col]
        for j in np.flatnonzero(np.isinf(scale)):  # there a / colsum is still finite
            x[col == j] = flow.data[col == j] / colsum[j]
        keep = x != 0.0  # zeros are not stored, so a zero-sum column keeps no entry
        blocks.append((np.bincount(col[keep], minlength=n_c), row[keep] + p * n_c, x[keep]))
    counts, rows, values = (np.concatenate(part) for part in zip(*blocks))
    links = sparse.csc_matrix((values, rows, np.concatenate(([0], np.cumsum(counts)))),
                              shape=(counts.size, counts.size))
    return GoogleMatrix(links, float(damping), v, counts == 0, direction, mm.countries,
                        mm.products)


def _product_links(g: GoogleMatrix, p: int) -> sparse.csc_matrix:
    """S0's block of product p, n_countries square, cut from the links' column range."""
    n_c, links = len(g.countries), g.links
    indptr = links.indptr[p * n_c:(p + 1) * n_c + 1]
    lo, hi = indptr[0], indptr[-1]
    return sparse.csc_matrix((links.data[lo:hi], links.indices[lo:hi] - p * n_c, indptr - lo),
                             shape=(n_c, n_c))


def _block_solver(g: GoogleMatrix, nodes: np.ndarray):
    """Solver of (I - damping * S0) restricted to the sorted ``nodes``.

    ``solve(b)`` solves the system and ``solve(b, transposed=True)`` its transpose, for
    a vector b or a matrix of right-hand sides, indexed like ``nodes``. The restriction
    is block-diagonal by product. Each product's block is made dense from its
    ``_product_links``, with an identity row and column for each of its nodes outside
    ``nodes``, and takes one LAPACK LU, n_countries square; a product with no node in
    the set takes none. ``solve`` works out from b which columns are nonzero on each
    product's nodes, and each product solves only those, zero-padded onto its identity
    rows; a product whose rows of b are all zero makes no solve, and the rest of x is
    zero. A pivot within 64 * n_countries * eps of zero, possible only at damping 1 on a
    closed class of S0 inside ``nodes`` (rounding seldom leaves it exactly zero), raises
    ``ConvergenceError``.
    """
    n_c, diagonal = len(g.countries), np.arange(len(g.countries))
    product, country = np.divmod(nodes, n_c)
    factored = np.unique(product)
    blocks = []
    for p in factored:
        links = _product_links(g, p)
        links.data = -(g.damping * links.data)  # unstored zeros stay +0.0
        block = links.toarray(order="F")
        outside = np.setdiff1d(diagonal, country[product == p])
        block[outside] = 0.0
        block[:, outside] = 0.0
        block[diagonal, diagonal] += 1.0
        blocks.append(block)
    # one dgetrf after another: interleaved with other numpy work, each 600-square
    # factorization took 9-97 ms on a 2-core host, against 6-8 ms back to back
    factors = [dgetrf(block, overwrite_a=True)[:2] for block in blocks]
    for p, (lu, _) in zip(factored, factors):
        if not np.abs(lu.diagonal()).min() > 64 * n_c * np.finfo(float).eps:
            raise ConvergenceError(
                f"I - damping * S0 is singular in product {g.products.codes[p]}")
    at = np.searchsorted(factored, product) * n_c + country  # rows in the stacked blocks

    def solve(b: np.ndarray, transposed: bool = False) -> np.ndarray:
        x = np.zeros((len(factors) * n_c, *b.shape[1:]))  # b, zero on the identity rows
        x[at] = b
        nonzero = x.reshape(len(factors), n_c, -1).any(axis=1).tolist()
        for j, (lu, columns) in enumerate(zip(factors, nonzero)):
            if any(columns):  # solved in place; a column zero on a product stays zero
                rows = slice(j * n_c, (j + 1) * n_c)
                cols = ... if all(columns) else np.flatnonzero(columns)  # a view if all
                x[rows, cols] = dgetrs(*lu, x[rows, cols], trans=int(transposed))[0]
        return x.take(at, axis=0)

    return solve


def _check_solver(**options) -> None:
    """``ValidationError`` for the first solver option given that is out of range:
    ``damping`` a real number in (0, 1], ``tol`` a positive finite real number,
    ``max_iter`` an int of at least 1, none of them a bool."""
    for name, value in options.items():
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if name == "damping" and not (real and 0.0 < value <= 1.0):
            raise ValidationError(f"damping must be in (0, 1], got {value}")
        if name == "tol" and not (real and 0.0 < value < math.inf):
            raise ValidationError(f"tol must be positive and finite, got {value!r}")
        if name == "max_iter" and not (real and isinstance(value, numbers.Integral)
                                       and value >= 1):
            raise ValidationError(f"max_iter must be an int of at least 1, got {value!r}")


def _iterate(step, x: np.ndarray, tol: float, max_iter: int, name: str):
    """(x, residual, iterations) at the first x <- step(x) with L1 change at most ``tol``.

    ``ConvergenceError``, carrying the last residual and iteration count, at the first
    non-finite residual or after ``max_iter`` iterations above ``tol``.
    """
    _check_solver(tol=tol, max_iter=max_iter)
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        x_next = step(x)
        residual = float(np.abs(x_next - x).sum())
        x = x_next
        if not math.isfinite(residual):
            raise ConvergenceError(f"{name} residual is {residual} at iteration {iteration}",
                                   residual=residual, iterations=iteration)
        if residual <= tol:
            return x, residual, iteration
    raise ConvergenceError(
        f"{name} did not reach {tol} in {max_iter} iterations (last residual {residual:.3e})",
        residual=residual, iterations=max_iter)


def _series_solver(a_links, tol: float, max_iter: int):
    """Solver of (I - damping * S0) x = b: x <- a_links @ x + b from x = b, by ``_iterate``.

    ``a_links`` is the caller's sparse damping * S0. Sparse products and numpy sums
    only, so the bytes do not depend on the BLAS kernel. Each step shrinks the error
    by the damping; at damping 1 on a closed class of S0 the series never settles.
    """
    return lambda b: _iterate(lambda x: a_links @ x + b, b, tol, max_iter,
                              "response series")[0]
