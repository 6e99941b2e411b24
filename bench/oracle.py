"""Independent dense numpy oracle for the benchmark's correctness checks.

Everything here is computed from the generator's exact flows with plain
numpy; no wtnrank code is used. Google matrices are kept per product block:
each block is the column-normalized money matrix with dangling columns left
at zero, and the teleportation vector weights products by volume. With the
dangling columns patched by v, the stationary vector of
G = a (S0 + v d^T) + (1 - a) v 1^T solves (I - a S0) p = k v, so a dense
solve per product block gives PageRank exactly.
"""

from __future__ import annotations

import numpy as np

ALPHA = 0.5
STEP = 0.01
DIRECTIONS = ("direct", "inverted")


def google(cube: np.ndarray, direction: str) -> tuple[np.ndarray, np.ndarray]:
    """Column-normalized product blocks (dangling columns zero) and teleportation v."""
    flow = cube if direction == "direct" else cube.transpose(0, 2, 1)
    colsum = flow.sum(axis=1, keepdims=True)
    blocks = np.divide(flow, colsum, out=np.zeros_like(flow), where=colsum > 0)
    n_p, n_c, _ = cube.shape
    weights = cube.sum(axis=(1, 2))
    return blocks, np.repeat(weights / (n_c * weights.sum()), n_c)


def stationary(blocks: np.ndarray, v: np.ndarray) -> np.ndarray:
    """PageRank node vector (product-major) by one dense solve per product block."""
    n_p, n_c, _ = blocks.shape
    p = np.linalg.solve(np.eye(n_c) - ALPHA * blocks, v.reshape(n_p, n_c, 1)).ravel()
    return p / p.sum()


def apply(blocks: np.ndarray, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One multiplication by the effective Google matrix."""
    n_p, n_c, _ = blocks.shape
    sx = (blocks @ x.reshape(n_p, n_c, 1)).ravel()
    dangling = blocks.sum(axis=1).ravel() == 0
    return ALPHA * (sx + v * x[dangling].sum()) + (1.0 - ALPHA) * v * x.sum()


def effective_columns(blocks: np.ndarray, v: np.ndarray, cols) -> np.ndarray:
    """Columns ``cols`` of the dense effective Google matrix."""
    n_p, n_c, _ = blocks.shape
    out = np.empty((n_p * n_c, len(cols)))
    for k, node in enumerate(cols):
        p, c = divmod(int(node), n_c)
        column = blocks[p, :, c]
        if column.any():
            out[:, k] = 0.0
            out[p * n_c:(p + 1) * n_c, k] = column
        else:
            out[:, k] = v
    return ALPHA * out + (1.0 - ALPHA) * v[:, None]


def schur(g: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Reduced matrix G_rr + G_rs (I - G_ss)^-1 G_sr through an explicit inverse."""
    sc = np.setdiff1d(np.arange(g.shape[0]), idx)
    inverse = np.linalg.inv(np.eye(sc.size) - g[np.ix_(sc, sc)])
    return g[np.ix_(idx, idx)] + g[np.ix_(idx, sc)] @ inverse @ g[np.ix_(sc, idx)]


def country_probs(cube: np.ndarray, direction: str) -> np.ndarray:
    p = stationary(*google(cube, direction))
    return p.reshape(cube.shape[0], cube.shape[1]).sum(axis=0)


def rank_balance(cube: np.ndarray) -> np.ndarray:
    """(P*_c - P_c) / (P*_c + P_c): CheiRank against PageRank country mass."""
    p, p_star = country_probs(cube, "direct"), country_probs(cube, "inverted")
    return (p_star - p) / (p_star + p)


def volume_balance(cube: np.ndarray) -> np.ndarray:
    """(E_c - I_c) / (E_c + I_c) from total exports and imports."""
    exports, imports = cube.sum(axis=(0, 1)), cube.sum(axis=(0, 2))
    return (exports - imports) / (exports + imports)


def labor_shock(country: int):
    def shock(cube, factor):
        out = cube.copy()
        out[:, :, country] *= factor
        return out
    return shock


def product_shock(product: int):
    def shock(cube, factor):
        out = cube.copy()
        out[product] *= factor
        return out
    return shock


def central_difference(cube, shock, balance_fn, step: float = STEP) -> np.ndarray:
    return (balance_fn(shock(cube, 1.0 + step)) - balance_fn(shock(cube, 1.0 - step))) \
        / (2.0 * step)


def merge(cube: np.ndarray, ids, members, label: str):
    """Money cube and sorted ids with ``members`` folded into one ``label`` node."""
    new_ids = sorted([c for c in ids if c not in members] + [label])
    new_index = {c: i for i, c in enumerate(new_ids)}
    to_new = np.array([new_index[label if c in members else c] for c in ids])
    p, imp, exp = np.nonzero(cube)
    rows, cols = to_new[imp], to_new[exp]
    keep = rows != cols
    out = np.zeros((cube.shape[0], len(new_ids), len(new_ids)))
    np.add.at(out, (p[keep], rows[keep], cols[keep]), cube[p[keep], imp[keep], exp[keep]])
    return out, new_ids
