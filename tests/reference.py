"""Reference routes that only the tests use.

The library computes every Hessian, determinant and Jacobian it checks in
closed form (`forms.hartogs_hessian`, `forms.det_dual_hessian`,
`jtsys.log_norm_derivatives`, `hartogs.darboux_jacobian`).  The tests compare
those closed forms with the central-difference routes below, taken in
interleaved real coordinates (x1, y1, ..., xm, ym) with step
h = step * (1 + ||point||): the real Jacobian of a map and the pullback of a
two-form through it, and the complex Hessian of an arbitrary field, taken from
the real Hessian.

The file also holds single-point routes that the library does not need: the
spectral decomposition over orthogonal tripotents (behind the tests' own
spectral inverses of Psi and Phi), the operator form of B(z, +/-zbar)^(-1/4),
and the symmetrized Selberg quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cartanhartogs.errors import DomainError, ShapeError
from cartanhartogs.hartogs import HartogsSpec, potential_field
from cartanhartogs.jtsys import (KIND_POLYDISC, DomainSpec, as_matrix, as_vector,
                                 norm_self)
from cartanhartogs.realcoords import to_complex, to_real

DEFAULT_STEP = 1e-5
# eigenvalues below this are treated as zero when building spectral frames
_EIG_TOL = 1e-13


def realify_map(f):
    """Turn a batched map on C^m into the corresponding map on R^(2m)."""

    def wrapped(x: np.ndarray) -> np.ndarray:
        return to_real(f(to_complex(x)))

    return wrapped


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
    """Pullback jac^T target jac of a constant two-form matrix, shape (B, k, k)."""
    jac = jacobian_batch(map_r, x, step)
    return np.einsum("bji,jk,bkl->bil", jac, target, jac)


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
    g = complex_hessian_batch(potential_field(H, dual=True), pts, step)
    return np.linalg.det(g).real


def base_restriction_matches(H: HartogsSpec, z: np.ndarray, step: float = DEFAULT_STEP) -> float:
    """Max deviation between the dual form restricted to w = 0 and mu times the
    dual base form; returns the entrywise residual."""
    z = np.asarray(z, dtype=complex)
    pt = np.append(z, 0.0 + 0.0j)
    big = complex_hessian_batch(potential_field(H, dual=True), pt, step)

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


def _single_point(D: DomainSpec, z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if z.shape != (D.n,):
        raise ShapeError(f"expected one point of {D.n} coordinates, got {z.shape}")
    return z


@dataclass(frozen=True)
class SpectralDecomposition:
    """z = sum_j eigenvalues[j] * tripotents[j] over an orthogonal frame.

    Eigenvalues are strictly positive and sorted descending; zero eigenvalues
    are dropped, so the frame length is the rank of z.  Tripotents are stored
    as rows in flat coordinates and are orthonormal for the Hermitian trace
    form.
    """

    eigenvalues: np.ndarray
    tripotents: np.ndarray

    def reconstruct(self) -> np.ndarray:
        if len(self.eigenvalues) == 0:
            return np.zeros(self.tripotents.shape[-1], dtype=complex)
        return self.eigenvalues @ self.tripotents


def spectral_decompose(D: DomainSpec, z) -> SpectralDecomposition:
    """Spectral decomposition of a single point over orthogonal tripotents."""
    z = _single_point(D, z)
    cutoff = _EIG_TOL * max(1.0, float(np.linalg.norm(z)))
    if D.kind == KIND_POLYDISC:
        mags = np.abs(z)
        order = np.argsort(-mags)
        lams, frame = [], []
        for idx in order:
            if mags[idx] <= cutoff:
                break
            c = np.zeros(D.n, dtype=complex)
            c[idx] = z[idx] / mags[idx]
            lams.append(mags[idx])
            frame.append(c)
        return SpectralDecomposition(np.array(lams), np.array(frame).reshape(len(lams), D.n))
    p, q = D.shape
    u, s, vh = np.linalg.svd(z.reshape(p, q))
    keep = s > cutoff
    frame = [np.outer(u[:, j], vh[j, :]).reshape(D.n) for j in range(p) if keep[j]]
    k = int(np.sum(keep))
    return SpectralDecomposition(s[keep], np.array(frame).reshape(k, D.n))


def _herm_inv_quarter(m: np.ndarray) -> np.ndarray:
    """M^(-1/4) of a Hermitian positive definite matrix via eigendecomposition."""
    vals, vecs = np.linalg.eigh(m)
    if np.any(vals <= 0):
        raise DomainError("operator is not positive definite")
    return (vecs * vals**-0.25) @ np.conj(vecs.T)


def b_quarter_power_operator(D: DomainSpec, z, sign: int = 1) -> np.ndarray:
    """Independent route for `jtsys.b_quarter_power_on_z` on a single point.

    Applies the honest operator fractional power: with J = j(z), A = I - sign J J*
    and C = I - sign J* J, the result is j^(-1)(A^(-1/4) J C^(-1/4)).
    """
    jz = as_matrix(D, _single_point(D, z))
    a = np.eye(jz.shape[0]) - sign * jz @ np.conj(jz.T)
    c = np.eye(jz.shape[1]) - sign * np.conj(jz.T) @ jz
    return as_vector(D, _herm_inv_quarter(a) @ jz @ _herm_inv_quarter(c))


def selberg_quadrature_symmetrized(r: int, a: float, b: float, s: float,
                                   resolution: int = 64) -> float:
    """Independent scheme: integrate over the full cube and divide by r!.

    Valid for even a, where the squared-difference product is symmetric.
    """
    if a % 2 != 0:
        raise DomainError("symmetrized scheme needs even a")
    nodes, weights = np.polynomial.legendre.leggauss(resolution)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights  # Gauss-Legendre on (0, 1)
    grids = np.meshgrid(*([nodes] * r), indexing="ij", sparse=True)
    wgrids = np.meshgrid(*([weights] * r), indexing="ij", sparse=True)
    integrand = 1.0
    for j in range(r):
        integrand = integrand * (1.0 - grids[j] ** 2) ** s * grids[j] ** (2 * b + 1)
        integrand = integrand * wgrids[j]
    for j in range(r):
        for k in range(j + 1, r):
            integrand = integrand * (grids[j] ** 2 - grids[k] ** 2) ** a
    return float(np.sum(integrand)) / math.factorial(r)
