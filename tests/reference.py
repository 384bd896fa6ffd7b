"""Reference routes that only the tests use.

The library computes every Hessian, determinant and Jacobian it checks in
closed form (`forms.hartogs_hessian`, `forms.det_dual_hessian`,
`jtsys.log_norm_derivatives`, `hartogs.darboux_jacobian`).  The tests compare
those closed forms with the central-difference routes below, taken in
interleaved real coordinates (x1, y1, ..., xm, ym) with step
h = step * (1 + ||point||): the real Jacobian of a map and the pullback of a
two-form through it, and the complex Hessian of an arbitrary field, taken from
the real Hessian.

The file also holds routes that the library does not need: the interleaved
real coordinates themselves, the antisymmetric matrix of the two-form of a
Hermitian G in them (`hermitian_to_twoform_matrix`, the target that
`verify.darboux_residuals`, which reads the blocks off Re G and Im G, is
held to bit for bit), the isotropy draws one element at a time
(`isotropy_draws`, which `jtsys.random_isotropy`'s stacks must equal), the
dense unitary pair of a polydisc `jtsys.Monomial` and its matrix action
(`monomial_matrices`, `monomial_apply_dense`, the reference for the
gather of `jtsys.isotropy_apply`), the
Jordan triple product and the Bergman operator, the rank inequality behind
the flat capacity ball, the spectral decomposition over orthogonal
tripotents (behind the tests' own spectral inverses of Psi and Phi) and the
symmetrized Selberg quadrature.  The
operator form of B(z, +/-zbar)^(-1/4) is the independent route for
`jtsys.jordan_frame`: it takes A^(-1/4) J C^(-1/4) from two separate
eigendecompositions where the frame uses one, and with the generic norm
`norm_det` (det A by LAPACK, not the LDL* pivots of `jtsys.log_norm` nor the
frame's eigenvalues) it rebuilds Psi and Phi from the defining formula, with
u = N^mu formed.  The Kaehler potentials themselves (`potential_field`,
eps log G with N^mu formed from the LDL* pivots) are the fields the
finite-difference Hessians difference.  The spectral values from LAPACK's
SVD of j(z) (`singular_values_svd`) are the reference for
`jtsys.spectral_norm`, which takes closed forms at rank <= 2, and for the
spectral values the tests read off the maps' images; membership of Omega
through that SVD (`membership_svd`, the largest singular value of j(z)
below 1) is the reference for `jtsys.membership`, which reads it from the
signs of the LDL* pivots.  The
per-direction Daleckii-Krein assembly (`darboux_jacobian_per_direction`,
one (p, p) tensor per real direction) is the reference for the factored
`hartogs.darboux_jacobian`, which reads every direction off two products
per point at rank >= 2 and off elementwise terms where the frame is
diagonal.  The derivatives of log N from two batched LAPACK inverses, A^-1
and C^-1 (`log_norm_derivatives_two_inverses`), and the Hartogs Hessians
assembled batch-first on them (`hartogs_hessian_two_inverses`) are the
references for `jtsys.log_norm_derivatives` and `forms.hartogs_hessian`,
which take one LDL* per point, C^-1 by push-through and coordinate-major
rows.  Three routes keep passes that the library folds into one, and the
library must equal each to the bit: `check_equivariance_separate_calls`,
the equivariance family with the lift's and round trip's points drawn
after the isotropy pairs and mapped in calls of their own;
`sample_members_filtered`, the member samplers' rejection loop with
`jtsys.membership` and then `jtsys.log_norm` on the kept rows; and
`fit_genus_two_passes`, the genus fit with log N* from a second
`jtsys.log_norm` pass beside `jtsys.log_norm_derivatives`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cartanhartogs import hartogs, jtsys, measures, verify
from cartanhartogs.errors import DomainError, ShapeError
from cartanhartogs.hartogs import HartogsSpec, fiber_ratios, split_vec
from cartanhartogs.jtsys import KIND_POLYDISC, DomainSpec, as_matrix, as_vector

DEFAULT_STEP = 1e-5
# eigenvalues below this are treated as zero when building spectral frames
_EIG_TOL = 1e-13


def norm_det(D: DomainSpec, z, sign: int) -> np.ndarray:
    """Generic norm N(z, sign * zbar) = det(I - sign j(z) j(z)*), batched,
    through LAPACK's determinant."""
    jz = as_matrix(D, z)
    return np.linalg.det(np.eye(jz.shape[-2]) - sign * jz @ np.conj(np.swapaxes(jz, -1, -2))).real


def potential_field(H: HartogsSpec, dual: bool = False):
    """phi = -log(N^mu - |w|^2) as a batched field on the open domain, or with
    dual=True phi* = log(N(z, -zbar)^mu + |w|^2), smooth on all of C^(n+1):
    eps log G with eps = -1 on the domain and +1 on the dual.  The
    finite-difference routes difference it, so it forms N^mu from the
    `jtsys.gram_pivots`: exp(mu log N) would add |mu log N| ulps to it, which
    second differences magnify."""
    eps = 1 if dual else -1

    def field(pts: np.ndarray) -> np.ndarray:
        z, w = split_vec(H, pts)
        u = np.prod(jtsys.gram_pivots(H.domain, z, -eps), axis=-1) ** H.mu
        return eps * np.log(u + eps * np.abs(w) ** 2)

    return field


def log_add_exp(x, y) -> np.ndarray:
    """log(e^x + e^y) by numpy's own logaddexp, the oracle for the library's
    log G = log(N*^mu + |w|^2)."""
    return np.logaddexp(x, y)


def to_real(z: np.ndarray) -> np.ndarray:
    """(..., m) complex -> (..., 2m) real, interleaving re/im per coordinate."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def to_complex(x: np.ndarray) -> np.ndarray:
    """(..., 2m) real -> (..., m) complex."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2:
        raise ValueError("real vector length must be even")
    return x[..., 0::2] + 1j * x[..., 1::2]


def realify_map(f):
    """Turn a batched map on C^m into the corresponding map on R^(2m)."""

    def wrapped(x: np.ndarray) -> np.ndarray:
        return to_real(f(to_complex(x)))

    return wrapped


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
        return H.mu * np.log(norm_det(H.domain, zz, -1))

    small = complex_hessian_batch(base_field, z, step)
    n = H.domain.n
    return float(np.max(np.abs(big[:n, :n] - small)))


def isotropy_draws(D, rng: np.random.Generator, count: int) -> list[tuple]:
    """count isotropy elements drawn one at a time: per element 2n uniforms,
    n sort keys whose argsort is the permutation and then n phase fractions,
    as (perm, exp(2 pi i fraction) gathered by perm) for the polydisc; the
    real and imaginary Gaussians of U, a QR, then those of V and a QR, with
    the phases of R's diagonal moved into Q, as unitary pairs (U, V) for
    type-I."""
    def haar(k: int) -> np.ndarray:
        g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        qm, rm = np.linalg.qr(g)
        return qm * (np.diag(rm) / np.abs(np.diag(rm)))

    out = []
    for _ in range(count):
        if D.kind == "polydisc":
            keys = rng.random(2 * D.n)
            perm = np.argsort(keys[:D.n])
            out.append((perm, np.exp(2j * np.pi * keys[D.n:])[perm]))
        else:
            p, q = D.shape
            out.append((haar(p), haar(q)))
    return out


def monomial_matrices(perm, phases) -> tuple[np.ndarray, np.ndarray]:
    """The dense unitary pair (U, V) = (diag(phases) P, P), P_jl = [l = perm[j]],
    of a polydisc `jtsys.Monomial` (perm, phases) of shape (..., n), so that
    U j(z) V* is the matrix action the gather is held to."""
    perm = np.asarray(perm)
    pmat = np.eye(perm.shape[-1])[perm]
    return np.asarray(phases)[..., :, None] * pmat, pmat


def monomial_apply_dense(D: DomainSpec, perm, phases, z) -> np.ndarray:
    """U j(z) V* of the dense pair of `monomial_matrices`, batched as
    `jtsys.isotropy_apply` is: the matrix products over diag(z)."""
    u, v = monomial_matrices(perm, phases)
    return as_vector(D, u @ as_matrix(D, z) @ np.conj(np.swapaxes(v, -1, -2)))


def triple_product(D: DomainSpec, x, y, z) -> np.ndarray:
    """Jordan triple product {x, y, z} = j(x) j(y)* j(z) + j(z) j(y)* j(x)
    (C-linear in x and z, conjugate-linear in y); on the diagonal j(z) of the
    polydisc this is 2 x ybar z componentwise."""
    xm, ym, zm = (as_matrix(D, v) for v in (x, y, z))
    ystar = np.conj(np.swapaxes(ym, -1, -2))
    return as_vector(D, xm @ ystar @ zm + zm @ ystar @ xm)


def bergman_apply(D: DomainSpec, x, y, w) -> np.ndarray:
    """The Bergman operator B(x, y) applied to w,
    (I - j(x) j(y)*) j(w) (I - j(y)* j(x)); (1 - x ybar)^2 w on the polydisc."""
    xm, ym, wm = (as_matrix(D, v) for v in (x, y, w))
    ystar = np.conj(np.swapaxes(ym, -1, -2))
    left = np.eye(xm.shape[-2]) - xm @ ystar
    right = np.eye(xm.shape[-1]) - ystar @ xm
    return as_vector(D, left @ wm @ right)


def singular_values_svd(D: DomainSpec, z) -> np.ndarray:
    """All r spectral values of z (descending), batched: LAPACK's SVD of
    j(z), on the polydisc its diagonal matrix."""
    return np.linalg.svd(as_matrix(D, z), compute_uv=False)


def membership_svd(D: DomainSpec, z) -> np.ndarray:
    """z in Omega through the SVD, batched: the largest spectral eigenvalue
    is < 1."""
    return singular_values_svd(D, z)[..., 0] < 1.0


def unit_ball_inequality(lams: np.ndarray) -> np.ndarray:
    """sum_j l_j^2 + prod_j (1 - l_j^2), which is >= 1 on [0, 1)^r; equality
    needs rank one or at most one nonzero eigenvalue.  It is why the flat
    capacity ball B(1) sits inside M for mu <= 1."""
    lams = np.asarray(lams, dtype=float)
    return np.sum(lams**2, axis=-1) + np.prod(1.0 - lams**2, axis=-1)


def flat_volume_exact(H: HartogsSpec) -> float | None:
    """Analytic Lebesgue volume of the Hartogs domain where one exists.

    Polydisc base: pi^(n+1)/(mu+1)^n.  Rank-one base (the complex hyperbolic
    ball): pi^(n+1) Gamma(mu+1)/Gamma(mu+n+1) = pi^(n+1) prod_{i<n} 1/(mu+1+i).
    Other bases would need the boundary constant and return None.
    """
    d, mu = H.domain, H.mu
    if d.kind == KIND_POLYDISC:
        return math.pi ** (d.n + 1) / (mu + 1.0) ** d.n
    if d.r == 1:
        return math.pi ** (d.n + 1) * math.prod(1.0 / (mu + 1 + i) for i in range(d.n))
    return None


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
    """Independent route for the B(z, sign * zbar)^(-1/4) z of
    `jtsys.jordan_frame`, on a single point.

    Applies the honest operator fractional power: with J = j(z), A = I - sign J J*
    and C = I - sign J* J, the result is j^(-1)(A^(-1/4) J C^(-1/4)).
    """
    jz = as_matrix(D, _single_point(D, z))
    a = np.eye(jz.shape[0]) - sign * jz @ np.conj(jz.T)
    c = np.eye(jz.shape[1]) - sign * np.conj(jz.T) @ jz
    return as_vector(D, _herm_inv_quarter(a) @ jz @ _herm_inv_quarter(c))


def darboux_map_operator(H: HartogsSpec, pt, eps: int) -> np.ndarray:
    """Independent route for Psi (eps = -1) and Phi (eps = +1) at one packed
    point: u = N(z, -eps zbar)^mu from the determinant `norm_det`,
    G = u + eps |w|^2 and the operator power above,
    G^(-1/2) (sqrt(mu u) B(z, -eps zbar)^(-1/4) z, w)."""
    pt = np.asarray(pt, dtype=complex)
    z, w = pt[:-1], pt[-1]
    u = norm_det(H.domain, z, -eps) ** H.mu
    g = u + eps * abs(w) ** 2
    zeta = np.sqrt(H.mu * u / g) * b_quarter_power_operator(H.domain, z, -eps)
    return np.append(zeta, w / np.sqrt(g))


def darboux_jacobian_per_direction(H: HartogsSpec, pts: np.ndarray,
                                    dual: bool = False) -> np.ndarray:
    """The Daleckii-Krein assembly of `hartogs.darboux_jacobian` one real
    direction at a time, the reference the factored library form is held to.

    Per direction (a, b, c) it forms U* dA U = eps (c v y^T + its adjoint)
    with v = conj(U[a, :]) and y = conj((U* J)[:, b]) as a (..., 2n, p, p)
    tensor, multiplies it entrywise by the divided differences Delta of
    x^(-1/2), adds the fiber term on the diagonal and the column
    c A^(-1/2) e_a in column b, and takes U (.) U* J by two batched matmuls.
    """
    eps = 1 if dual else -1
    d = H.domain
    z, w = split_vec(H, pts)
    lam, u, k, b_z = jtsys.jordan_frame(d, z, -eps)     # b_z = A^(-1/2) J
    if jtsys.frame_is_diagonal(d):                      # the frame gives U = I, U* J = J
        k = as_matrix(d, k)
        u = np.broadcast_to(np.eye(d.r), k.shape[:-2] + (d.r, d.r))
    p, q = k.shape[-2:]
    root = np.sqrt(lam)
    inv_root = 1.0 / root
    # (x^(-1/2) - y^(-1/2)) / (x - y) without cancellation, f'(x) on the diagonal
    delta = -1.0 / (root[..., :, None] * root[..., None, :]
                    * (root[..., :, None] + root[..., None, :]))
    t, w2_g, inv_g = fiber_ratios(H, np.sum(np.log(lam), axis=-1), w, eps)
    scale = np.sqrt(H.mu * t)

    rows, cols = jtsys.coordinate_entries(d)
    c = np.array([1.0, 1j])
    lead = z.shape[:-1]
    v = np.conj(u[..., rows, :])                             # U* e_a, (..., n, p)
    y = np.conj(np.swapaxes(k, -1, -2)[..., cols, :])        # conj((U* J)[:, b])
    cvy = (c[:, None, None] * v[..., :, None, :, None] * y[..., :, None, None, :])
    cvy = cvy.reshape(lead + (2 * d.n, p, p))                # U* dJ J* U per direction
    da = eps * (cvy + np.conj(np.swapaxes(cvy, -1, -2)))     # U* dA U
    dlog_u = H.mu * np.sum(np.diagonal(da, axis1=-2, axis2=-1).real / lam[..., None, :],
                           axis=-1)
    inner = delta[..., None, :, :] * da
    idx = np.arange(p)
    inner[..., idx, idx] += (0.5 * eps * w2_g[..., None] * dlog_u)[..., None] \
        * inv_root[..., None, :]
    inner = inner @ k[..., None, :, :]
    # A^(-1/2) dJ: column b of c U (lam^(-1/2) conj(U[a, :]))
    column = c[:, None, None] * (inv_root[..., None, :] * v)[..., :, None, :, None] \
        * np.eye(q)[cols][:, None, None, :]
    inner += column.reshape(lead + (2 * d.n, p, q))

    out = np.empty(lead + (2 * (d.n + 1), d.n + 1), dtype=complex)
    out[..., :-2, :-1] = scale[..., None, None] * jtsys.as_vector(d, u[..., None, :, :] @ inner)
    out[..., :-2, -1] = -0.5 * (t * np.sqrt(inv_g) * w)[..., None] * dlog_u
    dlog_g = -2.0 * eps * inv_g[..., None] * np.stack([w.real, w.imag], axis=-1)
    out[..., -2:, :-1] = 0.5 * (scale[..., None] * dlog_g)[..., None] * b_z[..., None, :]
    out[..., -2:, -1] = np.sqrt(inv_g)[..., None] * (c + 0.5 * w[..., None] * dlog_g)
    return out


def log_norm_derivatives_two_inverses(D: DomainSpec, z, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form derivatives of log N(z, sign * zbar), batched.

    With J = j(z), A = I - sign J J* and C = I - sign J* J (Loos 1977;
    Faraut-Koranyi, J. Funct. Anal. 88 (1990)),

        d_j log N          = -sign * conj(A^-1 J)_ab,
        d_j dbar_k log N   = -sign * (A^-1)_ca (C^-1)_bd,

    where coordinate j sits at entry (a, b) of j(z) and k at (c, d); the
    polydisc is the same formula on diagonal matrices.  Returns the gradient
    (..., n) and the complex Hessian (..., n, n); for sign=+1 the point must
    lie in the domain.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    jz = as_matrix(D, z)
    jstar = np.conj(np.swapaxes(jz, -1, -2))
    ainv = np.linalg.inv(np.eye(jz.shape[-2]) - sign * jz @ jstar)
    cinv = np.linalg.inv(np.eye(jz.shape[-1]) - sign * jstar @ jz)
    rows, cols = jtsys.coordinate_entries(D)
    grad = np.conj((ainv @ jz)[..., rows, cols])
    hess = ainv[..., rows[None, :], rows[:, None]] * cinv[..., cols[:, None], cols[None, :]]
    return -sign * grad, -sign * hess


def hartogs_hessian_two_inverses(H: HartogsSpec, pts: np.ndarray,
                                 dual: bool = False) -> np.ndarray:
    """The chain-rule assembly of `forms.hartogs_hessian`, batch-first, on
    the derivatives of `log_norm_derivatives_two_inverses` and log N from
    `jtsys.log_norm`."""
    eps = 1 if dual else -1
    d = H.domain
    z, w = split_vec(H, pts)
    grad, hess = log_norm_derivatives_two_inverses(d, z, sign=-eps)
    t, w2_g, inv_g = fiber_ratios(H, jtsys.log_norm(d, z, -eps), w, eps)
    mu_t = H.mu * t
    out = np.empty(grad.shape[:-1] + (d.n + 1, d.n + 1), dtype=complex)
    out[..., :-1, :-1] = ((eps * mu_t)[..., None, None] * hess
                          + (H.mu * mu_t * w2_g)[..., None, None]
                          * grad[..., :, None] * np.conj(grad[..., None, :]))
    out[..., :-1, -1] = -(mu_t * w * inv_g)[..., None] * grad
    out[..., -1, :-1] = np.conj(out[..., :-1, -1])
    out[..., -1, -1] = t * inv_g
    return out


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


def check_equivariance_separate_calls(cfg) -> list[dict]:
    """`verify.check_equivariance` with the isotropy pairs streamed through
    `verify._stream`, each block drawing its taus, and the lift's 16 points
    and the round trip's 6 drawn after the pairs, each mapped in calls of its
    own: Psi on the lifted points, and Psi and Phi on the round trip's."""
    d = cfg.domain_spec
    out = []

    def entry(params, worst, tol):
        return {"name": "equivariance", **verify._entry(params, worst, tol)}

    for mu in cfg.mu:
        H = hartogs.make_hartogs(d, mu)
        rng = np.random.default_rng(cfg.seed + 7)

        def pairs(pts):
            k = len(pts)
            taus = jtsys.random_isotropy(d, rng, k)
            both = np.concatenate([hartogs.hartogs_isotropy_apply(H, taus, pts), pts])
            images = np.stack([hartogs.psi_map_vec(H, both), hartogs.phi_map_vec(H, both)])
            moved = hartogs.hartogs_isotropy_apply(H, taus, images[:, k:])
            return np.max(np.abs(images[:, :k] - moved), axis=(0, 2))

        count = max(8, cfg.points // 4)
        worst = verify._stream(
            count, lambda k: hartogs.sample_member_points(H, k, rng, lam_max=0.8), pairs)[0]
        out.append(entry({"mu": mu, "pairs": count, "operation": "hartogs_isotropy_apply"},
                         worst, 1e-10))

        m = d.r if d.kind == jtsys.KIND_TYPE_I else max(1, d.n - 1)
        Hs = hartogs.make_hartogs(jtsys.make_domain(jtsys.KIND_POLYDISC, n=m), mu)
        small = hartogs.sample_member_points(Hs, 16, rng, lam_max=0.7)
        big = hartogs.psi_map_vec(H, hartogs.lift_embedding(d, small))
        expect = hartogs.lift_embedding(d, hartogs.psi_map_vec(Hs, small))
        out.append(entry({"mu": mu, "operation": "lift_embedding"},
                         float(np.max(np.abs(big - expect))), 1e-10))

        some = hartogs.sample_member_points(H, 6, rng, lam_max=0.75)
        worst = np.max([np.abs(inverse(H, mapping(H, some)) - some)
                        for mapping, inverse in ((hartogs.psi_map_vec, hartogs.psi_inverse),
                                                 (hartogs.phi_map_vec, hartogs.phi_inverse))])
        out.append(entry({"mu": mu, "operation": "psi_inverse"}, worst, 1e-8))

    if d.r == 1:
        Hb = hartogs.make_hartogs(d, 1.0)
        rng = np.random.default_rng(cfg.seed + 8)
        pts = hartogs.sample_ball_points(d.n + 1, 64, rng, 0.9)
        gap = np.max(np.abs(hartogs.psi_map_vec(Hb, pts) - hartogs.unit_ball_darboux(pts)))
        out.append(entry({"operation": "psi_map", "case": "rank-one ball specialization"},
                         float(gap), 1e-12))
    return out


def sample_members_filtered(H: HartogsSpec, count: int, rng: np.random.Generator,
                            lam_max: float, w_frac: float) -> np.ndarray:
    """The member samplers' rejection loop with two Gram-pivot passes per
    draw: `jtsys.membership` filters the base points, then `jtsys.log_norm`
    of the kept rows places |w|^2 below w_frac * N^mu."""
    out = np.empty((count, H.domain.n + 1), dtype=complex)
    filled = 0
    while filled < count:
        z = hartogs.sample_base_points(H.domain, count - filled, rng, lam_max)
        z = z[jtsys.membership(H.domain, z)]
        with np.errstate(divide="ignore"):
            log_w2 = (np.log(w_frac * rng.uniform(size=len(z)))
                      + H.mu * jtsys.log_norm(H.domain, z, 1))
        w = np.exp(0.5 * log_w2) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(z)))
        out[filled:filled + len(z), :-1] = z
        out[filled:filled + len(z), -1] = w
        filled += len(z)
    return out


def fit_genus_two_passes(D: DomainSpec) -> float:
    """`measures.fit_genus` with the Hessian from `jtsys.log_norm_derivatives`
    and log N* from a second pass, `jtsys.log_norm`."""
    rng = np.random.default_rng(measures._GENUS_FIT_SEED)
    points = measures._GENUS_FIT_POINTS
    g = rng.normal(size=(points, D.n)) + 1j * rng.normal(size=(points, D.n))
    z = g * (rng.uniform(0.8, 2.0, size=points) / jtsys.spectral_norm(D, g))[:, None]
    chol = np.linalg.cholesky(jtsys.log_norm_derivatives(D, z, sign=-1)[1])
    log_dets = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real), axis=-1)
    return float(np.mean(-log_dets / jtsys.log_norm(D, z, -1)))
