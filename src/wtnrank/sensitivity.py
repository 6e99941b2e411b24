"""Trade balances and their linear response to price and labor-cost shocks.

A shock multiplies selected money-matrix values by (1 + magnitude); the
Google-matrix rebuild renormalizes columns, so product shocks and labor-cost
shocks share one code path. ``balance_sensitivity`` takes the central finite
difference of the full pipeline (perturb, rebuild, re-rank, balance).

``labor_cost_matrix`` is the exact derivative at zero shock, for every target
at once. With y = (I - damping * S0)^-1 v, PageRank is p = y / sum(y), and a
shock moves y by dy = (I - damping * S0)^-1 (damping * dS0 y + dv) (Golub and
Meyer, SIAM J. Alg. Disc. Meth. 7(2), 1986). A labor-cost shock on t scales
column t of every money matrix. The direct flow's normalization cancels that
(dS0 = 0); the inverted flow's scales row t of each block S0*, so that
dS0* = e_t s_t^T - S0* diag(s_t), s_t being row t. Either way v moves through
the product volumes. The volume balance is a closed form of the flow sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv, write_json
from .errors import ValidationError
from .google_matrix import DEFAULT_DAMPING, DIRECT, INVERTED, _block_solver, build_google
from .ranks import DEFAULT_MAX_ITER, DEFAULT_TOL, pagerank
from .trade_data import MoneyMatrixSet, volume_probabilities

RANK_BASED = "rank-based"
VOLUME_BASED = "volume-based"

GLOBAL_PRODUCT = "global-product"
COUNTRY_PRODUCT = "country-product"
LABOR_COST = "labor-cost"

DEFAULT_STEP = 0.01


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
        if self.kind == GLOBAL_PRODUCT:
            ok = self.product is not None and self.target_country is None
        elif self.kind == COUNTRY_PRODUCT:
            ok = self.product is not None and self.target_country is not None
        elif self.kind == LABOR_COST:
            ok = self.product is None and self.target_country is not None
        else:
            raise ValidationError(f"unknown perturbation kind {self.kind!r}")
        if not ok:
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
    step: float
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
        out = {}
        for j, target in enumerate(self.targets):
            if target in self.countries:
                out[target] = float(self.derivatives[self.countries.index(target), j])
        return out


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
    if description == RANK_BASED:
        p = pagerank(build_google(mm, DIRECT, damping), tol, max_iter)
        p_star = pagerank(build_google(mm, INVERTED, damping), tol, max_iter)
        return balance(p_star.country_probs, p.country_probs,
                       mm.countries.ids, description, mm.year)
    if description == VOLUME_BASED:
        vp = volume_probabilities(mm)
        return balance(vp.export_c, vp.import_c, mm.countries.ids, description, mm.year)
    raise ValidationError(f"unknown description {description!r}")


def perturb_money(mm: MoneyMatrixSet, perturbation: Perturbation,
                  magnitude: float) -> MoneyMatrixSet:
    """Scale the selected flows by (1 + magnitude); everything else untouched.

    Shocked matrices keep the sparsity pattern of the input.
    """
    if not math.isfinite(magnitude) or magnitude <= -1.0:
        raise ValidationError(f"magnitude must be finite and exceed -1, got {magnitude}")
    factor = 1.0 + magnitude
    scale = np.ones(mm.n_countries)
    if perturbation.target_country is None:
        scale[:] = factor
    else:
        scale[mm.countries.index_of(perturbation.target_country)] = factor
    p_idx = None
    if perturbation.product is not None:
        p_idx = mm.products.index_of(perturbation.product)

    matrices = []
    for p, m in enumerate(mm.matrices):
        if p_idx is None or p == p_idx:  # labor-cost shocks every product
            m = m.copy()
            m.data *= np.repeat(scale, np.diff(m.indptr))
        matrices.append(m)
    return MoneyMatrixSet(tuple(matrices), mm.year, mm.countries, mm.products)


def balance_sensitivity(mm: MoneyMatrixSet, perturbation: Perturbation,
                        description: str, step: float = DEFAULT_STEP, *,
                        damping: float = DEFAULT_DAMPING, tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER) -> SensitivityReport:
    """Central-difference derivative of every country's balance.

    Each side of the difference runs the full pipeline on the perturbed
    money matrices, so the result captures the network response, not just
    the direct flow change.
    """
    if not 0.0 < step < 1.0:  # the minus side scales the flows by 1 - step
        raise ValidationError(f"step must be in (0, 1), got {step}")
    plus = balance_report(perturb_money(mm, perturbation, +step), description,
                          damping=damping, tol=tol, max_iter=max_iter)
    minus = balance_report(perturb_money(mm, perturbation, -step), description,
                           damping=damping, tol=tol, max_iter=max_iter)
    if plus.countries != minus.countries:
        raise ValidationError("the shocked flows changed the reported country set")
    derivatives = (plus.balances - minus.balances) / (2.0 * step)
    diagonal = np.array([c == perturbation.target_country for c in plus.countries])
    return SensitivityReport(description, perturbation, step, mm.year,
                             plus.countries, derivatives, diagonal)


def labor_cost_matrix(mm: MoneyMatrixSet, description: str, *,
                      damping: float = DEFAULT_DAMPING) -> LaborCostMatrix:
    """Exact labor-cost sensitivities dB_c/dsigma_t for every target t in the registry.

    The derivative at zero shock, as ``balance_sensitivity`` approximates it by
    differences. Rank-based, each direction takes one ``build_google``, one
    factorization of I - damping * S0 and one solve per target; volume-based is a
    closed form. Rows are the countries of the balance report (those with any
    probability); a block with no stationary solution, possible only at damping 1,
    raises ``ConvergenceError``.
    """
    if description == RANK_BASED:
        present, derivatives = _rank_labor_response(mm, damping)
    elif description == VOLUME_BASED:
        present, derivatives = _volume_labor_response(mm)
    else:
        raise ValidationError(f"unknown description {description!r}")
    countries = tuple(cid for cid, keep in zip(mm.countries.ids, present) if keep)
    return LaborCostMatrix(description, mm.year, countries, mm.countries.ids, derivatives)


def _rank_labor_response(mm: MoneyMatrixSet, damping: float):
    """Countries with P + P* > 0, and dB/dsigma on them: 2 (P dP* - P* dP) / (P + P*)^2."""
    n_c, n_p = mm.n_countries, mm.n_products
    googles = [build_google(mm, direction, damping) for direction in (DIRECT, INVERTED)]
    # v = W_p / (n_c W), and a shock on t adds E[p, t] to W_p and E_t to W. The part
    # through W is a multiple of v, which moves y along itself and p not at all.
    dv = mm.exports / (n_c * mm.total_volume())
    probs, shifts = [], []
    for g in googles:
        a_links = damping * g.links
        solve = _block_solver(g, np.arange(g.n_nodes), a_links)
        y = solve(g.personalization)
        total = y.sum()
        p = y / total
        if g.direction == INVERTED:  # row t of every block, target-major: one slice per t
            order = np.arange(g.n_nodes).reshape(n_p, n_c).T.ravel()
            rows, a_y = g.links.tocsr()[order], a_links @ y
        dp = np.empty((n_c, n_c))
        for t in range(n_c):
            rhs = np.repeat(dv[:, t], n_c)
            if g.direction == INVERTED:  # + damping (e_t (S0* y)_t - S0* (s_t * y))
                nodes = order[t * n_p:(t + 1) * n_p]
                lo, hi = rows.indptr[t * n_p], rows.indptr[(t + 1) * n_p]
                cols = rows.indices[lo:hi]
                s_y = np.zeros(g.n_nodes)
                s_y[cols] = rows.data[lo:hi] * y[cols]
                rhs -= a_links @ s_y
                rhs[nodes] += a_y[nodes]
            dy = solve(rhs)
            dp[:, t] = ((dy - p * dy.sum()) / total).reshape(n_p, n_c).sum(axis=0)
        probs.append(p.reshape(n_p, n_c).sum(axis=0))
        shifts.append(dp)
    (p, p_star), (dp, dp_star) = probs, shifts
    present = (p + p_star) > 0.0
    p, p_star = p[present, None], p_star[present, None]
    return present, 2.0 * (p * dp_star[present] - p_star * dp[present]) / (p + p_star) ** 2


def _volume_labor_response(mm: MoneyMatrixSet):
    """Countries with E + I > 0, and dB/dsigma on them: 2 (I dE - E dI) / (E + I)^2.

    Per unit of a shock on t, E_t gains E_t and each I_c gains m_p[c, t] summed over
    products; the total volume divides out of the balance.
    """
    vp = volume_probabilities(mm)
    e, i = vp.export_c, vp.import_c
    present = (e + i) > 0.0
    d_imports = sum(m.toarray() for m in mm.matrices)[present] / mm.total_volume()
    e, i = e[present], i[present]
    d_exports = np.zeros((e.size, mm.n_countries))
    d_exports[np.arange(e.size), np.flatnonzero(present)] = e
    return present, 2.0 * (i[:, None] * d_exports - e[:, None] * d_imports) \
        / ((e + i) ** 2)[:, None]


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
        "step": report.step,
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
