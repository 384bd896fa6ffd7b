"""Numerical realization of Kaehler forms: complex Hessians, two-forms, pullbacks.

A potential f on C^m yields the Hermitian matrix G_jk = d^2 f / dz_j dzbar_k.
The two Hartogs potentials have it in closed form from the Jordan data of the
base (`hartogs_hessian`), and the dual one has its determinant in closed form
too (`det_dual_hessian`, the paper's product formula).  Jacobians of maps,
hence pullbacks, are central differences in interleaved real coordinates
(x1, y1, ..., xm, ym) with step h = step * (1 + ||point||).  The associated
real two-form (i/2) sum G_jk dz_j ^ dzbar_k is represented by an
antisymmetric 2m x 2m matrix in the same coordinate order; the flat form
omega_0 = sum_j dx_j ^ dy_j is the one of G = I.  Comparisons use the
entrywise max norm of the difference.
"""

from __future__ import annotations

import numpy as np

from .hartogs import HartogsSpec, split_vec
from .jtsys import log_norm_derivatives, norm_self

DEFAULT_STEP = 1e-5


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


def jacobian_batch(map_r, x: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Real Jacobians of a batched map R^k -> R^k', shape (B, k', k)."""
    x = np.asarray(x, dtype=float)
    batch, k = x.shape
    h = step * (1.0 + np.linalg.norm(x, axis=-1))
    eye = np.eye(k)
    plus = x[:, None, :] + h[:, None, None] * eye[None]
    minus = x[:, None, :] - h[:, None, None] * eye[None]
    vp = np.asarray(map_r(plus.reshape(-1, k)))
    vm = np.asarray(map_r(minus.reshape(-1, k)))
    kout = vp.shape[-1]
    vp = vp.reshape(batch, k, kout)
    vm = vm.reshape(batch, k, kout)
    return np.swapaxes(vp - vm, -1, -2) / (2.0 * h[:, None, None])


def pullback_batch(map_r, x: np.ndarray, target: np.ndarray,
                   step: float = DEFAULT_STEP) -> np.ndarray:
    jac = jacobian_batch(map_r, x, step)
    return np.einsum("bji,jk,bkl->bil", jac, target, jac)


def det_dual_hessian(H: HartogsSpec, pts: np.ndarray) -> np.ndarray:
    """Closed-form determinant of the dual potential's complex Hessian at packed
    points (..., n+1),

    mu^n N*^(mu(n+1) - gamma) / (N*^mu + |w|^2)^(n+2),  N* = N(z, -zbar).
    """
    d = H.domain
    z, w = split_vec(H, pts)
    nd = norm_self(d, z, sign=-1)
    return (H.mu ** d.n * nd ** (H.mu * (d.n + 1) - d.genus)
            / (nd ** H.mu + np.abs(w) ** 2) ** (d.n + 2))


def hartogs_hessian(H: HartogsSpec, pts: np.ndarray, dual: bool = False) -> np.ndarray:
    """Closed-form complex Hessian of the domain potential -log(N^mu - |w|^2),
    or with dual=True of the dual potential log(N(z, -zbar)^mu + |w|^2), at
    packed points (..., n+1); shape (..., n+1, n+1).

    With eps = -1 on the domain and +1 on the dual, u = N(z, -eps zbar)^mu,
    G = u + eps |w|^2 and l = log N(z, -eps zbar), the chain rule gives

        eps * (M / G - v v^H / G^2),
        M_zz = mu u (l_jk + mu l_j conj(l_k)),  M_ww = eps,  M_zw = 0,
        v = (mu u l_j, eps conj(w)),

    with the derivatives of l from `jtsys.log_norm_derivatives`.
    """
    eps = 1 if dual else -1
    d = H.domain
    z, w = split_vec(H, pts)
    grad, hess = log_norm_derivatives(d, z, sign=-eps)
    u = norm_self(d, z, sign=-eps) ** H.mu
    g = (u + eps * np.abs(w) ** 2)[..., None, None]
    mu_u = (H.mu * u)[..., None]
    v = np.concatenate([mu_u * grad, eps * np.conj(w)[..., None]], axis=-1)
    m = np.zeros(v.shape + (d.n + 1,), dtype=complex)
    m[..., :-1, :-1] = mu_u[..., None] * (hess + H.mu * grad[..., :, None]
                                           * np.conj(grad[..., None, :]))
    m[..., -1, -1] = eps
    return eps * (m / g - v[..., :, None] * np.conj(v[..., None, :]) / g**2)


def dual_hessian_min_eigs(H: HartogsSpec, pts: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the closed-form Hessian of phi* at each point,
    batched (`hartogs_hessian` with dual=True)."""
    return np.linalg.eigvalsh(hartogs_hessian(H, pts, dual=True))[..., 0]
