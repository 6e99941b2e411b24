"""Reduced Google matrix over a node subset, with direct/indirect decomposition.

For a partition of the nodes into a reduced set r and a scattering set s,
the reduced matrix G_R = G_rr + G_rs (I - G_ss)^-1 G_sr captures every
direct and indirect transition between reduced nodes. The projector
Q = I - psi_r psi_l^T / (psi_l psi_r) onto the complement of the scattering
block's leading eigenmode commutes with G_ss, so one solve splits the indirect
part into a rank-one term along that mode and the multi-step pathways
G_rs Q (I - G_ss)^-1 G_sr. All of it works on the sparse links plus the
rank-one teleport term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, aslinearoperator, splu

from ._io import open_output, write_csv
from .errors import ConvergenceError, ValidationError
from .google_matrix import DIRECT, GoogleMatrix

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

    No dense N x N copy: G_ss = damping * S0_ss + v_s w_s^T, so a sparse LU of
    I - damping * S0_ss (block-diagonal by product) and a Sherman-Morrison step give
    paths = (I - G_ss)^-1 G_sr; the same operator drives the eigenpair. With
    psi_r, psi_l the scattering block's Perron eigenvectors and lambda_c its
    eigenvalue, g_pr = G_rs psi_r psi_l^T G_sr / ((psi_l psi_r)(1 - lambda_c))
    and g_qr = G_rs Q paths.
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
    g_r_cols = a * s[:, idx].toarray() + v[:, None] * w[idx]  # G[:, r]
    g_rr, g_sr = g_r_cols[idx], g_r_cols[scatter]

    if scatter.size == 0:
        zero = np.zeros_like(g_rr)
        return ReducedGoogleMatrix(
            g.direction, tuple(nodes), labels, g_rr.copy(), g_rr, zero, zero.copy(), None, 0,
            {"solve": 0.0, "eigen": 0.0, "closure": 0.0})

    g_rs = a * s[idx][:, scatter].toarray()
    g_rs += v[idx, None] * w[scatter]  # in place, keeping toarray's F order for the BLAS sums
    s_ss, v_s, w_s = a * s[scatter][:, scatter], v[scatter], w[scatter]
    g_ss = aslinearoperator(s_ss) + aslinearoperator(v_s[:, None]) @ aslinearoperator(w_s[None])
    try:  # singular only at damping 1, on a closed class of S0 inside the scattering set
        lu = splu(sparse.identity(scatter.size, format="csc") - s_ss)
    except RuntimeError:
        raise ConvergenceError("(I - G_ss) is singular") from None
    y, z = lu.solve(g_sr), lu.solve(v_s)
    denominator = 1.0 - (w_s * z).sum()  # Sherman-Morrison; N_s * eps is its rounding
    if not (denominator > scatter.size * np.finfo(float).eps and np.isfinite(y).all()):
        raise ConvergenceError("(I - G_ss) is singular")
    paths = y + np.outer(z, (w_s[:, None] * y).sum(axis=0) / denominator)
    solve_residual = float(np.abs(paths - g_ss @ paths - g_sr).max())
    g_r = g_rr + g_rs @ paths

    lam, psi_r, right = _power_iteration(g_ss)  # Perron eigenvalue and eigenvectors
    _, psi_l, left = _power_iteration(g_ss.T)
    weight = float(psi_l @ psi_r)
    if weight <= 0.0:
        raise ConvergenceError("degenerate scattering eigenvectors")
    g_pr = np.outer(g_rs @ psi_r, psi_l @ g_sr) / (weight * (1.0 - lam))
    g_qr = g_rs @ (paths - np.outer(psi_r, psi_l @ paths) / weight)
    # the closure tests psi_l: psi_l paths = psi_l G_sr / (1 - lambda_c) holds only
    # for a true left eigenvector
    closure = float(np.abs(g_rr + g_pr + g_qr - g_r).max())
    if g_r.min() < -1e-9:
        raise ConvergenceError(f"reduced matrix has negative entry {g_r.min():.3e}")
    return ReducedGoogleMatrix(
        g.direction, tuple(nodes), labels, g_r, g_rr, g_pr, g_qr,
        float(lam), 0, {"solve": solve_residual, "eigen": max(right, left), "closure": closure})


def _power_iteration(m: LinearOperator):
    n = m.shape[0]
    x = np.full(n, 1.0 / n)
    lam = 0.0
    for iteration in range(1, EIGEN_MAX_ITER + 1):
        y = m @ x
        lam = float(y.sum())  # L1 growth of a nonnegative iterate
        if lam <= 0.0:
            return 0.0, x, 0.0
        y /= lam
        delta = float(np.abs(y - x).sum())
        x = y
        if delta <= EIGEN_TOL:
            residual = float(np.abs(m @ x - lam * x).sum())
            return lam, x, residual
    raise ConvergenceError(
        f"scattering eigenvector not converged in {EIGEN_MAX_ITER} iterations",
        residual=delta, iterations=EIGEN_MAX_ITER)


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
    edges = []
    for j in range(a.shape[1]):
        column = [(i, float(a[i, j])) for i in range(a.shape[0])
                  if i != j and a[i, j] != 0.0]
        column.sort(key=lambda t: (-t[1], t[0]))
        edges.extend((j, i, w) for i, w in column[:k])
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
