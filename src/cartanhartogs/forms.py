"""Numerical realization of Kaehler forms: complex Hessians and their determinant.

A potential f on C^m yields the Hermitian matrix G_jk = d^2 f / dz_j dzbar_k.
The two Hartogs potentials have it in closed form from the Jordan data of the
base (`hartogs_hessian`), and the dual one has its determinant in closed form
too (`det_dual_hessian`, the paper's product formula).  Both are written in
the fiber ratios t = u / G, |w|^2 / G and 1/G of `hartogs.fiber_ratios`, or
in log space, so no power N^mu is formed and large mu neither overflows nor
cancels.  The Hessian takes log N and the derivatives of log N from one
elimination per point (`jtsys._derivative_rows`: no LAPACK call and no
`jtsys.jordan_frame`, so it stays independent of the Jacobian it is compared
with) and assembles its blocks coordinate-major, on (., ., N) rows over the
batch, turning batch-first once at the end; the determinant takes log N from
`jtsys.log_norm`.  The associated real two-form (i/2) sum G_jk dz_j ^
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
from .jtsys import _derivative_rows, _kronecker_rows, log_norm


def _log_add_exp(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log(e^x + e^y) = max(x, y) + log1p(exp(-|x - y|)), elementwise, with
    -|x - y| taken as min(x, y) - max(x, y) (the same float); y = -inf
    gives x, without a warning."""
    hi = np.maximum(x, y)
    return hi + np.log1p(np.exp(np.minimum(x, y) - hi))


def det_dual_hessian(H: HartogsSpec, pts: np.ndarray) -> np.ndarray:
    """Closed-form determinant of the dual potential's complex Hessian at packed
    points (..., n+1),

    mu^n N*^(mu(n+1) - gamma) / (N*^mu + |w|^2)^(n+2),  N* = N(z, -zbar),

    assembled in log space, log G = `_log_add_exp`(mu log N*, 2 log |w|), so
    neither a power of N* nor |w|^2 is formed and no |w| overflows.  Every
    step is elementwise, and log N* comes from the row-exact
    `jtsys.log_norm`, so a row's value does not depend on the rows around it.
    """
    d = H.domain
    z, w = split_vec(H, pts)
    log_nd = log_norm(d, z, -1)
    with np.errstate(divide="ignore"):  # log 0 = -inf at w = 0, where log G = mu log N*
        log_g = _log_add_exp(H.mu * log_nd, 2.0 * np.log(np.abs(w)))
    return np.exp(d.n * np.log(H.mu) + (H.mu * (d.n + 1) - d.genus) * log_nd
                  - (d.n + 2) * log_g)


def hartogs_hessian(H: HartogsSpec, pts: np.ndarray, dual: bool = False) -> np.ndarray:
    """Closed-form complex Hessian of the domain potential -log(N^mu - |w|^2),
    or with dual=True of the dual potential log(N(z, -zbar)^mu + |w|^2), at
    packed points (..., n+1); shape (..., n+1, n+1).

    With eps = -1 on the domain and +1 on the dual, u = N(z, -eps zbar)^mu,
    G = u + eps |w|^2 and l = log N(z, -eps zbar), the chain rule gives, in
    t = u / G, |w|^2 / G and 1/G (`hartogs.fiber_ratios`, which never form u),

        zz:  eps mu t l_jk + mu^2 t (|w|^2 / G) l_j conj(l_k),
        zw:  -mu t w l_j / G,
        ww:  t / G,

    with l and its derivatives from `jtsys._derivative_rows`.  No term
    cancels another, and large mu neither overflows nor loses digits.  The
    blocks are assembled on (n+1, n+1, N) rows of the flattened batch and
    returned as a batch-first view; every step is elementwise, so a row's
    values do not depend on the rows around it.
    """
    eps = 1 if dual else -1
    d = H.domain
    z, w = split_vec(H, pts)
    batch = w.shape
    log_n, grad, (x, y) = _derivative_rows(d, z, -eps)
    w = w.reshape(-1)
    t, w2_g, inv_g = fiber_ratios(H, log_n, w, eps)
    mu_t = H.mu * t
    # complex products as real ones (see `jtsys._kronecker_rows`), into the
    # real and imaginary planes of the output; a real factor such as eps mu t
    # scales a complex array exactly on any layout
    out = np.empty((d.n + 1, d.n + 1, len(w)), dtype=complex)
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
    return np.moveaxis(out, -1, 0).reshape(batch + (d.n + 1, d.n + 1))


def dual_hessian_min_eigs(H: HartogsSpec, pts: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the closed-form Hessian of phi* at each point,
    batched (`hartogs_hessian` with dual=True)."""
    return np.linalg.eigvalsh(hartogs_hessian(H, pts, dual=True))[..., 0]
