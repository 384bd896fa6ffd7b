"""Finite-difference reference routes that only the tests use.

The library computes every Hessian and determinant it checks in closed form
(`forms.hartogs_hessian`, `forms.det_dual_hessian`,
`jtsys.log_norm_derivatives`).  The tests compare those closed forms with the
central-difference routes below: the complex Hessian of an arbitrary field,
taken from the real Hessian in interleaved coordinates (x1, y1, ..., xm, ym)
with step h = step * (1 + ||point||).
"""

from __future__ import annotations

import numpy as np

from cartanhartogs.forms import DEFAULT_STEP
from cartanhartogs.hartogs import HartogsSpec, dual_potential_field
from cartanhartogs.jtsys import norm_self
from cartanhartogs.realcoords import to_complex, to_real


def complex_hessian_batch(f, pts: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Complex Hessians d^2 f / dz dzbar at a batch of points, shape (B, m, m)."""
    pts = np.asarray(pts, dtype=complex)
    squeeze = pts.ndim == 1
    if squeeze:
        pts = pts[None]
    x = to_real(pts)
    batch, k = x.shape
    h = step * (1.0 + np.linalg.norm(x, axis=-1))

    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    pattern = np.zeros((1 + 2 * k + 4 * len(pairs), k))
    for a in range(k):
        pattern[1 + 2 * a, a] = 1.0
        pattern[2 + 2 * a, a] = -1.0
    base = 1 + 2 * k
    for i, (a, b) in enumerate(pairs):
        for j, (sa, sb) in enumerate(((1, 1), (1, -1), (-1, 1), (-1, -1))):
            pattern[base + 4 * i + j, a] = sa
            pattern[base + 4 * i + j, b] = sb

    stencil = x[:, None, :] + h[:, None, None] * pattern[None]
    vals = f(to_complex(stencil.reshape(-1, k))).reshape(batch, -1)

    hess = np.empty((batch, k, k))
    h2 = h * h
    f0 = vals[:, 0]
    for a in range(k):
        hess[:, a, a] = (vals[:, 1 + 2 * a] + vals[:, 2 + 2 * a] - 2.0 * f0) / h2
    for i, (a, b) in enumerate(pairs):
        off = base + 4 * i
        mixed = (vals[:, off] - vals[:, off + 1] - vals[:, off + 2] + vals[:, off + 3]) / (4.0 * h2)
        hess[:, a, b] = mixed
        hess[:, b, a] = mixed

    g = 0.25 * ((hess[:, 0::2, 0::2] + hess[:, 1::2, 1::2])
                + 1j * (hess[:, 0::2, 1::2] - hess[:, 1::2, 0::2]))
    return g[0] if squeeze else g


def det_dual_hessian_fd(H: HartogsSpec, pts: np.ndarray,
                        step: float = DEFAULT_STEP) -> np.ndarray:
    """Finite-difference route for the same determinant, at one packed point
    (n+1,) or a batch (B, n+1)."""
    g = complex_hessian_batch(dual_potential_field(H), pts, step)
    return np.linalg.det(g).real


def base_restriction_matches(H: HartogsSpec, z: np.ndarray, step: float = DEFAULT_STEP) -> float:
    """Max deviation between the dual form restricted to w = 0 and mu times the
    dual base form; returns the entrywise residual."""
    z = np.asarray(z, dtype=complex)
    pt = np.append(z, 0.0 + 0.0j)
    big = complex_hessian_batch(dual_potential_field(H), pt, step)

    def base_field(zz: np.ndarray) -> np.ndarray:
        return H.mu * np.log(norm_self(H.domain, zz, sign=-1))

    small = complex_hessian_batch(base_field, z, step)
    n = H.domain.n
    return float(np.max(np.abs(big[:n, :n] - small)))


def isotropy_draws(D, rng: np.random.Generator, count: int) -> list[tuple]:
    """count isotropy elements drawn one at a time, as (perm, phases) for the
    polydisc or (U, V) for type-I: per element a permutation and then the
    phases, or the real and imaginary Gaussians of U, a QR, then those of V
    and a QR, with the phases of R's diagonal moved into Q."""
    def haar(k: int) -> np.ndarray:
        g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        qm, rm = np.linalg.qr(g)
        return qm * (np.diag(rm) / np.abs(np.diag(rm)))

    out = []
    for _ in range(count):
        if D.kind == "polydisc":
            perm = rng.permutation(D.n)
            out.append((perm, np.exp(1j * rng.uniform(0, 2 * np.pi, D.n))))
        else:
            p, q = D.shape
            out.append((haar(p), haar(q)))
    return out
