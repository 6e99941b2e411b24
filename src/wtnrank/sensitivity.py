"""Trade balances and their exact linear response to price and labor-cost shocks.

A shock scales exporter columns of money matrices: labor-cost column t of every
product, country-product column t of one product, global-product all of one
product. ``balance_sensitivity`` and ``labor_cost_matrix`` give the derivative at
zero shock, with no perturbed copy. PageRank is p = y / sum(y) with
y = (I - damping * S0)^-1 v, and a shock moves y by the solution of the same system
with right-hand side damping * dS0 y + dv (Golub and Meyer, SIAM J. Alg. Disc.
Meth. 7(2), 1986). The system is block-diagonal by product, and v and dv are
constant on each block, so one solve of the all-ones vector per direction, x, gives
PageRank (y = v x) and every product-volume shift. Column normalization cancels dS0
in the direct flow, and for a whole product in the inverted one; else row t of each
touched block S0* moves, dS0* = e_t s_t^T - S0* diag(s_t) with s_t that row, and a
shock that names a country adds one solve in the inverted flow. A series with sparse
products only, whose bytes do not depend on the BLAS kernel, solves for
``balance_sensitivity``; one LU per product block for ``labor_cost_matrix``. The
volume balance is a closed form of the flow sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import write_csv, write_json
from .errors import ValidationError
from .google_matrix import (
    DEFAULT_DAMPING,
    DIRECT,
    INVERTED,
    _block_solver,
    _check_solver,
    _series_solver,
    build_google,
)
from .ranks import DEFAULT_MAX_ITER, DEFAULT_TOL, pagerank
from .trade_data import MoneyMatrixSet, volume_probabilities

RANK_BASED = "rank-based"
VOLUME_BASED = "volume-based"

GLOBAL_PRODUCT = "global-product"
COUNTRY_PRODUCT = "country-product"
LABOR_COST = "labor-cost"


@dataclass(frozen=True)
class Perturbation:
    """A named multiplicative shock on the money matrices.

    kind:
      global-product  -- every flow of one product, worldwide
      country-product -- one product's outgoing flows of one country
      labor-cost      -- all outgoing flows of one country, every product
    """

    kind: str
    product: str | None = None
    target_country: str | None = None

    def __post_init__(self):
        # whether each kind names (a product, a target country)
        names = {GLOBAL_PRODUCT: (True, False), COUNTRY_PRODUCT: (True, True),
                 LABOR_COST: (False, True)}
        if self.kind not in names:
            raise ValidationError(f"unknown perturbation kind {self.kind!r}")
        if names[self.kind] != (self.product is not None, self.target_country is not None):
            raise ValidationError(
                f"perturbation kind {self.kind!r} got product={self.product!r}, "
                f"target_country={self.target_country!r}"
            )


@dataclass(frozen=True, eq=False)
class BalanceReport:
    """Per-country trade balance in [-1, 1]; zero-trade countries are absent."""

    description: str
    year: int
    countries: tuple[str, ...]
    balances: np.ndarray


@dataclass(frozen=True, eq=False)
class SensitivityReport:
    """Per-country derivative of the balance under one perturbation."""

    description: str
    perturbation: Perturbation
    year: int
    countries: tuple[str, ...]
    derivatives: np.ndarray
    diagonal: np.ndarray  # True where the country is the perturbation target


@dataclass(frozen=True, eq=False)
class LaborCostMatrix:
    """dB_c/dsigma_c' for every (affected country c, shocked country c')."""

    description: str
    year: int
    countries: tuple[str, ...]
    targets: tuple[str, ...]
    derivatives: np.ndarray  # shape (len(countries), len(targets))

    def diagonal(self) -> dict[str, float]:
        """Self-sensitivities dB_c/dsigma_c, reported apart from the table."""
        return {target: float(self.derivatives[self.countries.index(target), j])
                for j, target in enumerate(self.targets) if target in self.countries}


def balance(export_probs, import_probs, countries, description: str,
            year: int) -> BalanceReport:
    """(export - import) / (export + import), per country.

    Countries whose combined probability is zero are omitted from the
    report rather than treated as errors.
    """
    e = np.asarray(export_probs, dtype=float)
    i = np.asarray(import_probs, dtype=float)
    ids = tuple(countries)
    if e.shape != i.shape or e.shape != (len(ids),):
        raise ValidationError("probability vectors do not match the country list")
    if not np.all(np.isfinite(e) & np.isfinite(i)) or np.any(e < 0) or np.any(i < 0):
        raise ValidationError("probabilities must be finite and nonnegative")
    present = (e + i) > 0.0
    values = (e[present] - i[present]) / (e[present] + i[present])
    kept = tuple(cid for cid, keep in zip(ids, present) if keep)
    return BalanceReport(description, year, kept, values)


def balance_report(mm: MoneyMatrixSet, description: str, *,
                   damping: float = DEFAULT_DAMPING, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> BalanceReport:
    """Balance from either description: rank probabilities or raw volumes."""
    _check_solver(damping=damping, tol=tol, max_iter=max_iter)
    if description == RANK_BASED:
        p = pagerank(build_google(mm, DIRECT, damping), tol, max_iter)
        p_star = pagerank(build_google(mm, INVERTED, damping), tol, max_iter)
        return balance(p_star.country_probs, p.country_probs,
                       mm.countries.ids, description, mm.year)
    if description == VOLUME_BASED:
        vp = volume_probabilities(mm)
        return balance(vp.export_c, vp.import_c, mm.countries.ids, description, mm.year)
    raise ValidationError(f"unknown description {description!r}")


def balance_sensitivity(mm: MoneyMatrixSet, perturbation: Perturbation,
                        description: str, *, damping: float = DEFAULT_DAMPING,
                        tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER) -> SensitivityReport:
    """Exact derivative of every country's balance at zero shock, per unit shock.

    Rank-based, each direction takes one ``build_google`` and one series solve of the
    all-ones vector, and a shock that names a country one more in the inverted flow,
    each to L1 change ``tol`` within ``max_iter`` steps (else ``ConvergenceError``, as
    at damping 1 on a closed class); volume-based is a closed form.
    """
    _check_solver(damping=damping, tol=tol, max_iter=max_iter)
    target, product = perturbation.target_country, perturbation.product
    t = None if target is None else mm.countries.index_of(target)
    touched = np.full(mm.n_products, product is None)
    if product is not None:
        touched[mm.products.index_of(product)] = True
    countries, derivatives = _response(
        mm, description, [(t, touched)], damping,
        lambda g, a_links: _series_solver(a_links, tol, max_iter))
    diagonal = np.array([c == target for c in countries])
    return SensitivityReport(description, perturbation, mm.year, countries,
                             derivatives[:, 0], diagonal)


def labor_cost_matrix(mm: MoneyMatrixSet, description: str, *,
                      damping: float = DEFAULT_DAMPING) -> LaborCostMatrix:
    """``balance_sensitivity`` of the labor-cost shock on every target, at once.

    Rank-based, each direction takes one ``build_google``, one factorization of
    I - damping * S0 and one solve of the all-ones vector, and the inverted flow one
    more solve per target; a block singular to within rounding, possible only at
    damping 1 on a closed class of S0, raises ``ConvergenceError``.
    """
    _check_solver(damping=damping)
    shocks = [(t, np.ones(mm.n_products, dtype=bool)) for t in range(mm.n_countries)]
    countries, derivatives = _response(
        mm, description, shocks, damping,
        lambda g, a_links: _block_solver(g, np.arange(g.n_nodes)))
    return LaborCostMatrix(description, mm.year, countries, mm.countries.ids, derivatives)


def _response(mm: MoneyMatrixSet, description: str, shocks, damping: float, solver):
    """The balance report's countries, and dB on them, one column per shock.

    A shock (t, touched) scales column t, or every column if t is None, of the
    touched products' money matrices. ``solver(g, damping * S0)`` solves I - damping * S0.
    """
    if description == RANK_BASED:
        present, derivatives = _rank_response(mm, shocks, damping, solver)
    elif description == VOLUME_BASED:
        present, derivatives = _volume_response(mm, shocks)
    else:
        raise ValidationError(f"unknown description {description!r}")
    return tuple(cid for cid, keep in zip(mm.countries.ids, present) if keep), derivatives


def _rank_response(mm: MoneyMatrixSet, shocks, damping: float, solver):
    """Countries with P + P* > 0, and dB per shock on them: 2 (P dP* - P* dP) / (P + P*)^2."""
    n_c, n_p = mm.n_countries, mm.n_products
    # v = W_p / (n_c W), and a shock adds dW_p to W_p and to W. The part through W is
    # a multiple of v, which moves y along itself and p not at all.
    dv = mm.exports / (n_c * mm.total_volume())
    probs, shifts = [], []
    for direction in (DIRECT, INVERTED):
        g = build_google(mm, direction, damping)
        a_links = damping * g.links
        solve = solver(g, a_links)
        # v and every dv are constant on each block of (I - damping * S0)^-1: y = v * x
        x = solve(np.ones(g.n_nodes)).reshape(n_p, n_c)
        v = g.personalization[::n_c]
        y = (x * v[:, None]).ravel()
        total = y.sum()
        p = y / total
        probs.append(p.reshape(n_p, n_c).sum(axis=0))
        # dv per product, one column per shock: a whole product adds dW_p = W_p, and its
        # scale cancels in S0 and S0*. einsum, unlike a BLAS matmul, sums in fixed order.
        weights = np.column_stack([np.where(touched, v if t is None else dv[:, t], 0.0)
                                   for t, touched in shocks])
        dp = (np.einsum("pc,pk->ck", x, weights)
              - np.outer(probs[-1], np.einsum("pc,pk->k", x, weights))) / total
        if direction == INVERTED:
            # a shock that names country t moves row t of each touched block S0*,
            # adding damping (e_t (S0* y)_t - S0* (s_t * y)) to the right-hand side
            order = np.arange(g.n_nodes).reshape(n_p, n_c).T.ravel()  # target-major rows
            rows, a_y = g.links.tocsr()[order], a_links @ y
            for k, (t, touched) in enumerate(shocks):
                if t is None:
                    continue
                lo, hi = rows.indptr[t * n_p], rows.indptr[(t + 1) * n_p]
                s_t = np.zeros(g.n_nodes)
                s_t[rows.indices[lo:hi]] = rows.data[lo:hi]
                s_t.reshape(n_p, n_c)[~touched] = 0.0  # row (p, t) reaches block p only
                nodes = order[t * n_p:(t + 1) * n_p][touched]
                rhs = -(a_links @ (s_t * y))
                rhs[nodes] += a_y[nodes]
                scale = np.abs(rhs).sum() or 1.0  # at v's L1 norm, as tol is absolute
                dy = solve(rhs / scale) * scale
                dp[:, k] += ((dy - p * dy.sum()) / total).reshape(n_p, n_c).sum(axis=0)
        shifts.append(dp)
    (p, p_star), (dp, dp_star) = probs, shifts
    present = (p + p_star) > 0.0
    p, p_star = p[present, None], p_star[present, None]
    return present, 2.0 * (p * dp_star[present] - p_star * dp[present]) / (p + p_star) ** 2


def _volume_response(mm: MoneyMatrixSet, shocks):
    """Countries with s = E + I > 0, and dB on them: (2 I / s) (dE / s) - (2 E / s) (dI / s).

    dE and dI are the shocked flows' sums; the total volume divides out of the
    balance. Each factor is at most 1 in size, so none underflows to 0 / 0.
    """
    vp = volume_probabilities(mm)
    e, i = vp.export_c, vp.import_c
    present = (e + i) > 0.0
    d_exports = np.zeros((mm.n_countries, len(shocks)))
    d_imports = np.zeros_like(d_exports)
    for k, (t, touched) in enumerate(shocks):
        for p in np.flatnonzero(touched):
            if t is None:
                d_exports[:, k] += mm.exports[p]
                d_imports[:, k] += mm.imports[p]
            else:
                m = mm.matrices[p]
                lo, hi = m.indptr[t], m.indptr[t + 1]
                d_exports[t, k] += mm.exports[p, t]
                d_imports[m.indices[lo:hi], k] += m.data[lo:hi]
    s, total = (e + i)[present, None], mm.total_volume()
    return present, (2.0 * i[present, None] / s) * (d_exports[present] / total / s) \
        - (2.0 * e[present, None] / s) * (d_imports[present] / total / s)


def write_balance_csv(report: BalanceReport, dest) -> None:
    rows = ([cid, repr(float(value))] for cid, value in zip(report.countries, report.balances))
    write_csv(["country", "balance"], rows, dest)


def write_balance_json(report: BalanceReport, dest) -> None:
    payload = {
        "description": report.description,
        "year": report.year,
        "balances": [
            {"country": cid, "balance": float(value)}
            for cid, value in zip(report.countries, report.balances)
        ],
    }
    write_json(payload, dest)


def write_sensitivity_csv(report: SensitivityReport, dest) -> None:
    rows = ([cid, repr(float(value)), "true" if diag else "false"]
            for cid, value, diag in zip(report.countries, report.derivatives, report.diagonal))
    write_csv(["country", "derivative", "is_diagonal"], rows, dest)


def write_sensitivity_json(report: SensitivityReport, dest) -> None:
    payload = {
        "description": report.description,
        "year": report.year,
        "perturbation": {
            "kind": report.perturbation.kind,
            "product": report.perturbation.product,
            "target_country": report.perturbation.target_country,
        },
        "derivatives": [
            {"country": cid, "derivative": float(value), "is_diagonal": bool(diag)}
            for cid, value, diag in zip(report.countries, report.derivatives,
                                        report.diagonal)
        ],
    }
    write_json(payload, dest)
