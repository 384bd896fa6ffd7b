"""Numerical realization of Kaehler forms: complex Hessians and two-forms.

A potential f on C^m yields the Hermitian matrix G_jk = d^2 f / dz_j dzbar_k.
The two Hartogs potentials have it in closed form from the Jordan data of the
base (`hartogs_hessian`), and the dual one has its determinant in closed form
too (`det_dual_hessian`, the paper's product formula).  Both are written in
t = u / G and 1/G, or in log space, so no power N^mu is formed and large mu
neither overflows nor cancels.  The associated real two-form
(i/2) sum G_jk dz_j ^ dzbar_k is represented by an antisymmetric 2m x 2m
matrix in interleaved real coordinates (x1, y1, ..., xm, ym); the flat form
omega_0 = sum_j dx_j ^ dy_j is the one of G = I.  The pullbacks the darboux
checks compare with these forms come from the closed-form Jacobian
`hartogs.darboux_jacobian`; the finite-difference stencils live in
`tests/reference.py`, where the tests hold both closed forms against them.
Comparisons use the entrywise max norm of the difference.
"""

from __future__ import annotations

import numpy as np

from .hartogs import HartogsSpec, fiber_ratios, split_vec
from .jtsys import log_norm_derivatives, norm_self


def hermitian_to_twoform_matrix(g: np.ndarray) -> np.ndarray:
    """Coefficient matrix of (i/2) sum g_jk dz_j ^ dzbar_k, batched over leading axes."""
    g = np.asarray(g, dtype=complex)
    m = g.shape[-1]
    sym = g.real
    asym = g.imag
    w = np.zeros(g.shape[:-2] + (2 * m, 2 * m))
    w[..., 0::2, 0::2] = -asym
    w[..., 1::2, 1::2] = -asym
    w[..., 0::2, 1::2] = sym
    w[..., 1::2, 0::2] = -np.swapaxes(sym, -1, -2)
    return w


def det_dual_hessian(H: HartogsSpec, pts: np.ndarray) -> np.ndarray:
    """Closed-form determinant of the dual potential's complex Hessian at packed
    points (..., n+1),

    mu^n N*^(mu(n+1) - gamma) / (N*^mu + |w|^2)^(n+2),  N* = N(z, -zbar),

    assembled in log space, log G = logaddexp(mu log N*, log |w|^2), so no
    power of N* is formed.
    """
    d = H.domain
    z, w = split_vec(H, pts)
    log_nd = np.log(norm_self(d, z, sign=-1))
    with np.errstate(divide="ignore"):  # log 0 = -inf at w = 0 is what logaddexp needs
        log_g = np.logaddexp(H.mu * log_nd, np.log(np.abs(w) ** 2))
    return np.exp(d.n * np.log(H.mu) + (H.mu * (d.n + 1) - d.genus) * log_nd
                  - (d.n + 2) * log_g)


def hartogs_hessian(H: HartogsSpec, pts: np.ndarray, dual: bool = False) -> np.ndarray:
    """Closed-form complex Hessian of the domain potential -log(N^mu - |w|^2),
    or with dual=True of the dual potential log(N(z, -zbar)^mu + |w|^2), at
    packed points (..., n+1); shape (..., n+1, n+1).

    With eps = -1 on the domain and +1 on the dual, u = N(z, -eps zbar)^mu,
    G = u + eps |w|^2 and l = log N(z, -eps zbar), the chain rule gives, in
    t = u / G and 1/G (`hartogs.fiber_ratios`, which never form u),

        zz:  eps mu t l_jk + mu^2 t (|w|^2 / G) l_j conj(l_k),
        zw:  -mu t w l_j / G,
        ww:  t / G,

    with the derivatives of l from `jtsys.log_norm_derivatives`.  No term
    cancels another, and large mu neither overflows nor loses digits.
    """
    eps = 1 if dual else -1
    d = H.domain
    z, w = split_vec(H, pts)
    grad, hess = log_norm_derivatives(d, z, sign=-eps)
    t, inv_g = fiber_ratios(H, np.log(norm_self(d, z, sign=-eps)), w, eps)
    mu_t = H.mu * t
    out = np.empty(grad.shape[:-1] + (d.n + 1, d.n + 1), dtype=complex)
    out[..., :-1, :-1] = ((eps * mu_t)[..., None, None] * hess
                          + (H.mu * mu_t * np.abs(w) ** 2 * inv_g)[..., None, None]
                          * grad[..., :, None] * np.conj(grad[..., None, :]))
    out[..., :-1, -1] = -(mu_t * w * inv_g)[..., None] * grad
    out[..., -1, :-1] = np.conj(out[..., :-1, -1])
    out[..., -1, -1] = t * inv_g
    return out


def dual_hessian_min_eigs(H: HartogsSpec, pts: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the closed-form Hessian of phi* at each point,
    batched (`hartogs_hessian` with dual=True)."""
    return np.linalg.eigvalsh(hartogs_hessian(H, pts, dual=True))[..., 0]
