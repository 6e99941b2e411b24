"""Reduced Google matrix over a node subset, with direct/indirect decomposition.

For a partition of the nodes into a reduced set r and a scattering set s,
the reduced matrix G_R = G_rr + G_rs (I - G_ss)^-1 G_sr captures every
direct and indirect transition between reduced nodes. The projector
Q = I - psi_r psi_l^T / (psi_l psi_r) onto the complement of the scattering
block's leading eigenmode commutes with G_ss, so one solve splits the indirect
part into a rank-one term along that mode and the multi-step pathways
G_rs Q (I - G_ss)^-1 G_sr. I - damping * S0_ss is block-diagonal by product, so
every solve runs one product block at a time, on blocks cut from the links; no
full-size scattering operator is built. The eigenmode runs PageRank's loop,
``google_matrix._iterate``: L1 change at most ``EIGEN_TOL``, at most
``EIGEN_MAX_ITER`` steps, and ``ConvergenceError`` at the first non-finite residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._io import open_output, write_csv
from .errors import ConvergenceError, ValidationError
from .google_matrix import DIRECT, GoogleMatrix, _block_solver, _iterate, _product_links

EIGEN_TOL = 1e-13
EIGEN_MAX_ITER = 100_000


@dataclass(frozen=True, eq=False)
class ReducedGoogleMatrix:
    """Dense reduced matrix and its decomposition g_r = g_rr + g_pr + g_qr.

    ``lambda_c`` is the leading eigenvalue of the scattering block (None
    when the scattering set is empty). ``residuals`` records the linear
    solve, eigenvector, and closure defects of the build. ``series_terms`` is
    always 0, since g_qr comes in closed form; it stays a field because the
    benchmark's layer tracer counts it.
    """

    direction: str
    nodes: tuple[tuple[str, str], ...]
    labels: tuple[str, ...]
    g_r: np.ndarray
    g_rr: np.ndarray
    g_pr: np.ndarray
    g_qr: np.ndarray
    lambda_c: float | None
    series_terms: int
    residuals: dict[str, float]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def reduce(g: GoogleMatrix, selection) -> ReducedGoogleMatrix:
    """Reduce the Google matrix onto the selected (country, product) nodes.

    No dense N x N copy and no full-size scattering operator. With A = damping * S0_ss,
    G_ss = A + v_s w_s^T, and ``_block_solver`` factors I - A with one dense LU per
    product block, built from the links. Sherman-Morrison on z = (I - A)^-1 v_s gives
    paths = (I - G_ss)^-1 G_sr = b + z c^T, where b = (I - A)^-1 A_sr is solved per
    product on that product's reduced columns only and c = (w_r + w_s^T b) /
    (1 - w_s z). The same LU drives the Perron pair: power iteration on
    (I - G_ss)^-1 x - x = G_ss (I - G_ss)^-1 x and on its transpose, by the loop of
    ``pagerank``, gives psi_r and psi_l with eigenvalue mu, and lambda_c = mu / (1 + mu).
    Then g_pr = G_rs psi_r psi_l^T G_sr / ((psi_l psi_r)(1 - lambda_c)) and
    g_qr = G_rs Q paths. A call takes one factorization per product with a scattering
    node, three solves (of v_s, of w_s transposed, and of A_sr) and one single-vector
    solve per eigen step; no step of the eigen loops makes a sparse product.
    """
    nodes = [(c, p) for c, p in selection]
    if not nodes:
        raise ValidationError("empty node selection")
    idx = np.array([g.node_of(c, p) for c, p in nodes], dtype=np.int64)
    if len(set(idx.tolist())) != len(nodes):
        raise ValidationError("node selection contains duplicates")
    codes = g.countries.display_codes
    labels = tuple(f"{codes[c]}{p}" for c, p in nodes)

    a, s, v = g.damping, g.links, g.personalization
    w = a * g.dangling + (1.0 - a)
    scatter = np.setdiff1d(np.arange(g.n_nodes), idx)
    a_r = a * s[:, idx].toarray()  # damping * S0[:, r]
    g_r_cols = a_r + v[:, None] * w[idx]  # G[:, r]
    g_rr, g_sr = g_r_cols[idx], g_r_cols[scatter]

    if scatter.size == 0:
        zero = np.zeros_like(g_rr)
        return ReducedGoogleMatrix(
            g.direction, tuple(nodes), labels, g_rr.copy(), g_rr, zero, zero.copy(), None, 0,
            {"solve": 0.0, "eigen": 0.0, "closure": 0.0})

    a_rs, v_r, v_s, w_s = a * s[idx][:, scatter], v[idx], v[scatter], w[scatter]

    def g_rs(x):  # G_rs x = damping * S0_rs x + v_r (w_s x)
        return a_rs @ x + np.multiply.outer(v_r, _dot(w_s, x))

    solve = _block_solver(g, scatter)  # I - A, with A = damping * S0_ss
    z, z_t = solve(v_s), solve(w_s, transposed=True)
    denominator = 1.0 - (w_s * z).sum()  # Sherman-Morrison; N_s * eps is its rounding
    if not denominator > scatter.size * np.finfo(float).eps:
        raise ConvergenceError("(I - G_ss) is singular")

    def resolvent(x, transposed=False):  # (I - G_ss)^-1 x, or (I - G_ss)^-T x
        y = solve(x, transposed)
        u, rank_one = (z_t, v_s) if transposed else (z, w_s)
        return y + u * (_dot(rank_one, y) / denominator)

    # paths = b + z c^T: each column of A_sr, and so of b = (I - A)^-1 A_sr, lies
    # inside its own product's block, which alone solves it
    b = solve(a_r[scatter])
    c = (w[idx] + _dot(w_s, b)) / denominator
    paths = b + np.outer(z, c)
    if not np.isfinite(paths).all():
        raise ConvergenceError("(I - G_ss) is singular")

    def g_ss(x, transposed=False):  # G_ss x, or G_ss^T x, through the zero-padded links
        padded = np.zeros(g.n_nodes)
        padded[scatter] = x
        u, rank_one = (w_s, v_s) if transposed else (v_s, w_s)
        return a * ((s.T if transposed else s) @ padded)[scatter] + u * _dot(rank_one, x)

    # G_ss paths = A b + v_s (w_s b) + (G_ss z) c^T, with A b taken product by product
    # on the columns of b that are nonzero there
    a_b = np.zeros((g.n_nodes, idx.size))
    a_b[scatter] = b
    for p, rows in enumerate(a_b.reshape(len(g.products), -1, idx.size)):
        cols = np.flatnonzero(rows.any(axis=0))
        rows[:, cols] = a * (_product_links(g, p) @ rows[:, cols])
    g_ss_paths = a_b[scatter] + np.outer(v_s, _dot(w_s, b)) + np.outer(g_ss(z), c)
    solve_residual = float(np.abs(paths - g_ss_paths - g_sr).max())
    g_r = g_rr + g_rs(paths)

    # (I - G_ss)^-1 - I = G_ss (I - G_ss)^-1 has G_ss's eigenvectors, with
    # lambda / (1 - lambda) strictly dominant also when G_ss is periodic
    mu, psi_r = _perron_vector(lambda x: resolvent(x) - x, scatter.size)
    _, psi_l = _perron_vector(lambda x: resolvent(x, transposed=True) - x, scatter.size)
    lam = mu / (1.0 + mu)
    eigen_residual = max(float(np.abs(g_ss(psi_r) - lam * psi_r).sum()),
                         float(np.abs(g_ss(psi_l, transposed=True) - lam * psi_l).sum()))
    weight = float(_dot(psi_l, psi_r))
    if weight <= 0.0:
        raise ConvergenceError("degenerate scattering eigenvectors")
    g_pr = np.outer(g_rs(psi_r), _dot(psi_l, g_sr)) / (weight * (1.0 - lam))
    g_qr = g_rs(paths - np.outer(psi_r, _dot(psi_l, paths)) / weight)
    # the closure tests psi_l: psi_l paths = psi_l G_sr / (1 - lambda_c) holds only
    # for a true left eigenvector
    closure = float(np.abs(g_rr + g_pr + g_qr - g_r).max())
    if g_r.min() < -1e-9:
        raise ConvergenceError(f"reduced matrix has negative entry {g_r.min():.3e}")
    return ReducedGoogleMatrix(
        g.direction, tuple(nodes), labels, g_r, g_rr, g_pr, g_qr,
        float(lam), 0, {"solve": solve_residual, "eigen": eigen_residual, "closure": closure})


def _dot(u: np.ndarray, x: np.ndarray):
    """u^T x by numpy's own loops: numpy's OpenBLAS is not scipy's, and a threaded numpy
    BLAS call right after scipy's LAPACK waits for the cores its threads still hold."""
    return np.einsum("i,i...->...", u, x)


def _perron_vector(apply, n: int) -> tuple[float, np.ndarray]:
    """L1 growth mu and L1-normalized fixed point of the nonnegative map ``apply``, from
    the uniform start; (0.0, the iterate) once an iterate maps to zero."""
    growth = [0.0]

    def step(x):
        y = apply(x)
        growth[0] = mu = float(y.sum())
        return x if mu <= 0.0 else y / mu  # a NaN mu gives a NaN residual

    x = _iterate(step, np.full(n, 1.0 / n), EIGEN_TOL, EIGEN_MAX_ITER, "scattering eigenvector")[0]
    return (0.0 if growth[0] <= 0.0 else growth[0]), x


def strongest_links(m, k: int) -> list[tuple[int, int, float]]:
    """Per node, its k strongest outgoing links (largest off-diagonal column
    values), as (source, target, weight) triples.

    Ties break toward the smaller target index; nodes with fewer than k
    nonzero off-diagonal values contribute what they have.
    """
    if k < 1:
        raise ValidationError(f"k must be at least 1, got {k}")
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("expected a square matrix")
    edges, targets = [], np.arange(a.shape[0])
    for j, column in enumerate(a.T):
        linked = np.flatnonzero((column != 0.0) & (targets != j))
        top = linked[np.lexsort((linked, -column[linked]))[:k]]
        edges.extend(zip(repeat(j), top.tolist(), column[top].tolist()))
    return edges


def write_matrix_csv(matrix: np.ndarray, labels, dest) -> None:
    """Dense labeled matrix dump; entry (row, col) is the col -> row weight."""
    rows = ([label, *[repr(float(x)) for x in row]]
            for label, row in zip(labels, np.asarray(matrix)))
    write_csv(["node", *labels], rows, dest)


def write_dot(edges, labels, direction: str, dest) -> None:
    """Graphviz export of a strongest-links edge list.

    The header comment states the arrow semantics, which depend on the
    flow direction the reduced matrix was built from.
    """
    semantics = "B imports from A" if direction == DIRECT else "B exports to A"
    with open_output(dest) as stream:
        stream.write(f"// strongest outgoing links of the reduced {direction} matrix\n")
        stream.write(f"// an arrow A -> B means: {semantics}\n")
        stream.write("digraph trade {\n")
        for node in labels:
            stream.write(f'  "{node}";\n')
        for src, dst, weight in edges:
            stream.write(f'  "{labels[src]}" -> "{labels[dst]}" [weight={weight!r}];\n')
        stream.write("}\n")
