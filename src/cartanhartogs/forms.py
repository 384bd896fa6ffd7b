"""Numerical realization of Kaehler forms: complex Hessians and their determinant.

A potential f on C^m yields the Hermitian matrix G_jk = d^2 f / dz_j dzbar_k.
The two Hartogs potentials have it in closed form from the Jordan data of the
base (`hartogs_hessian`), and the dual one has its determinant in closed form
too (`det_dual_hessian`, the paper's product formula, and its log
`log_det_dual_hessian`).  Both are written in the fiber ratios t = u / G,
|w|^2 / G and 1/G of `hartogs.fiber_ratios`, or in log space, so no power
N^mu is formed and large mu neither overflows nor cancels.  The Hessian
takes log N and the derivatives of log N from one elimination per point
(`jtsys._derivative_rows`: no LAPACK call and no `jtsys.jordan_frame`, so it
stays independent of the Jacobian it is compared with) and assembles its
blocks coordinate-major, on (., ., N) rows over the batch (`_hessian_rows`);
`hartogs_hessian` is their batch-first view, and the determinant takes log N
from `jtsys.log_norm`.  psh reads the dual Hessian's rows directly:
`dual_hessian_min_pivot` is the smallest pivot of the LDL* of its diagonally
scaled form, by the one LDL* of the library (`jtsys._ldl`), so positivity is
decided by signs that are exact to the scaled form's condition, with no
LAPACK call.  The associated real two-form (i/2) sum G_jk dz_j ^
dzbar_k, in interleaved real coordinates (x1, y1, ..., xm, ym), has -Im G
in its (x, x) and (y, y) blocks, Re G in (x, y) and -(Re G)^T in (y, x);
the flat form omega_0 = sum_j dx_j ^ dy_j is the one of G = I.  The darboux
checks read those blocks off G itself (`verify.darboux_residuals`) and
compare them with the pullbacks through the closed-form Jacobian
`hartogs.darboux_jacobian`.  The antisymmetric 2m x 2m matrix of the form
(`hermitian_to_twoform_matrix`) and the finite-difference stencils live in
`tests/reference.py`, where the tests hold the closed forms against them.
Comparisons use the entrywise max norm of the difference.
"""

from __future__ import annotations

import numpy as np

from .hartogs import HartogsSpec, fiber_ratios, split_vec
from .jtsys import _derivative_rows, _kronecker_rows, _ldl, log_norm


def _log_add_exp(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log(e^x + e^y) = max(x, y) + log1p(exp(-|x - y|)), elementwise, with
    -|x - y| taken as min(x, y) - max(x, y) (the same float); y = -inf
    gives x, without a warning."""
    hi = np.maximum(x, y)
    return hi + np.log1p(np.exp(np.minimum(x, y) - hi))


def log_det_dual_hessian(H: HartogsSpec, pts: np.ndarray) -> np.ndarray:
    """Log of the closed-form determinant of the dual potential's complex
    Hessian at packed points (..., n+1),

    mu^n N*^(mu(n+1) - gamma) / (N*^mu + |w|^2)^(n+2),  N* = N(z, -zbar),

    assembled in log space, log G = `_log_add_exp`(mu log N*, 2 log |w|), so
    neither a power of N* nor |w|^2 is formed, no |w| overflows and a
    determinant below the float range keeps its log.  Every step is
    elementwise, and log N* comes from the row-exact `jtsys.log_norm`, so a
    row's value does not depend on the rows around it.
    """
    d = H.domain
    z, w = split_vec(H, pts)
    log_nd = log_norm(d, z, -1)
    with np.errstate(divide="ignore"):  # log 0 = -inf at w = 0, where log G = mu log N*
        log_g = _log_add_exp(H.mu * log_nd, 2.0 * np.log(np.abs(w)))
    return d.n * np.log(H.mu) + (H.mu * (d.n + 1) - d.genus) * log_nd - (d.n + 2) * log_g


def det_dual_hessian(H: HartogsSpec, pts: np.ndarray) -> np.ndarray:
    """The exp of `log_det_dual_hessian`."""
    return np.exp(log_det_dual_hessian(H, pts))


def hartogs_hessian(H: HartogsSpec, pts: np.ndarray, dual: bool = False) -> np.ndarray:
    """The complex Hessian of `_hessian_rows` at packed points (..., n+1),
    shape (..., n+1, n+1): a batch-first view of its rows."""
    batch = np.shape(pts)[:-1]
    rows = _hessian_rows(H, pts, dual)
    return np.moveaxis(rows, -1, 0).reshape(batch + rows.shape[:2])


def _hessian_rows(H: HartogsSpec, pts: np.ndarray, dual: bool = False) -> np.ndarray:
    """Closed-form complex Hessian of the domain potential -log(N^mu - |w|^2),
    or with dual=True of the dual potential log(N(z, -zbar)^mu + |w|^2), at
    packed points (..., n+1), coordinate-major: shape (n+1, n+1, N) over the
    batch flattened to N rows.

    With eps = -1 on the domain and +1 on the dual, u = N(z, -eps zbar)^mu,
    G = u + eps |w|^2 and l = log N(z, -eps zbar), the chain rule gives, in
    t = u / G, |w|^2 / G and 1/G (`hartogs.fiber_ratios`, which never form u),

        zz:  eps mu t l_jk + mu^2 t (|w|^2 / G) l_j conj(l_k),
        zw:  -mu t w l_j / G,
        ww:  t / G,

    with l and its derivatives from `jtsys._derivative_rows`.  No term
    cancels another.  Past the float range (mu^2 t |w|^2 / G at mu > ~1e154
    on the dual side, 1/G where N^mu underflows on the domain side) an entry
    is inf, and 0 * inf or inf - inf NaN, with no warning: every check that
    reads such a row fails it.  Every step is elementwise, so a row's values
    do not depend on the rows around it.
    """
    eps = 1 if dual else -1
    d = H.domain
    z, w = split_vec(H, pts)
    log_n, grad, (x, y) = _derivative_rows(d, z, -eps)
    w = w.reshape(-1)
    t, w2_g, inv_g = fiber_ratios(H, log_n, w, eps)
    mu_t = H.mu * t
    out = np.empty((d.n + 1, d.n + 1, len(w)), dtype=complex)
    # a row past the float range comes out inf or NaN (see above)
    with np.errstate(over="ignore", invalid="ignore"):
        # complex products as real ones (see `jtsys._kronecker_rows`), into the
        # real and imaginary planes of the output; a real factor such as eps mu t
        # scales a complex array exactly on any layout
        zz = _kronecker_rows((eps * mu_t) * x, y, out[:-1, :-1])
        g_re, g_im = grad.real, grad.imag
        # + c l_j conj(l_k), c = mu^2 t |w|^2 / G
        c = H.mu * mu_t * w2_g
        cg_re, cg_im = c * g_re, c * g_im
        for j in range(d.n):  # row by row, so its temporaries are n rows, not n^2
            zz.real[j] += cg_re[j] * g_re + cg_im[j] * g_im
            zz.imag[j] += cg_im[j] * g_re - cg_re[j] * g_im
        # -(mu t w / G) l_j
        m_re, m_im = mu_t * w.real * inv_g, mu_t * w.imag * inv_g
        out.real[:-1, -1] = -(m_re * g_re - m_im * g_im)
        out.imag[:-1, -1] = -(m_re * g_im + m_im * g_re)
        out[-1, :-1] = np.conj(out[:-1, -1])
        out[-1, -1] = t * inv_g
    return out


def dual_hessian_min_pivot(H: HartogsSpec, pts: np.ndarray) -> np.ndarray:
    """Smallest pivot of the unpivoted LDL* factorisation of the diagonally
    scaled dual Hessian S = |D|^(-1/2) G |D|^(-1/2), D = diag(G), at each
    packed point (..., n+1); shape (...).

    G is read as the rows of `_hessian_rows` (dual=True), and each entry
    below the diagonal is divided by sqrt|D_i|, then by sqrt|D_j|, so no
    product of two small scales underflows; S_ii = sign(D_i).  S is
    congruent to G, so it has G's inertia (Sylvester's law), and by
    Sylvester's criterion S > 0, i.e. G > 0, exactly when every pivot is
    positive.  On S the elimination is accurate to kappa(S), not kappa(G)
    (Demmel-Veselic, SIAM J. Matrix Anal. Appl. 13, 1992), so the sign is
    decided where G's own scale (its w-w entry ~ N*^-mu) lies far below
    the rounding error of an eigensolver.  A row with a D_i <= 0 reads a
    smallest pivot <= 0 (exactly 0 for an underflowed D_ww on an otherwise
    positive row), and a row with an inf or NaN entry reads NaN.  The
    elimination is `jtsys._ldl`, real multiply-adds across the batch with no
    LAPACK call, so the kernel is row-exact.
    """
    g = _hessian_rows(H, pts, dual=True)
    m = len(g)
    diag = g.real[np.arange(m), np.arange(m)]
    # a zero D_i scales its row and column to 0, so its pivot stays 0
    root = np.sqrt(np.abs(diag))
    root[diag == 0] = np.inf
    finite = np.all(np.isfinite(g), axis=(0, 1))
    # a row with an inf or NaN entry meets inf / inf and inf - inf here and reads NaN below
    with np.errstate(invalid="ignore"):
        col_re = [g.real[k + 1:, k] / root[k + 1:] / root[k] for k in range(m - 1)]
        col_im = [g.imag[k + 1:, k] / root[k + 1:] / root[k] for k in range(m - 1)]
        pivots = _ldl(col_re, col_im, np.sign(diag))[0]
    return np.where(finite, pivots.min(axis=0), np.nan).reshape(np.shape(pts)[:-1])
