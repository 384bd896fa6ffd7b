"""Hermitian positive Jordan triple systems for the supported bounded symmetric domains.

Two circled realizations are supported:

* ``polydisc``: the unit polydisc in C^n with the componentwise triple product,
  rank n and invariants (a, b) = (0, 0);
* ``type-I``: p-by-q complex matrices of spectral norm < 1 (1 <= p <= q) with
  the matrix triple product, rank p and invariants (a, b) = (2, q - p).

`make_domain` is the one place that resolves a kind name, ``chn`` (complex
hyperbolic space CH^n = type-I(1, n)) included, and derives the dimension and
genus from (r, a, b).  `frame_point` places values on the canonical frame of
orthogonal tripotents (E_jj for type-I, unit vectors for the polydisc), which
carries Delta^m into Omega for every m <= r.

Every algebraic operator used downstream (Bergman operator, generic norm,
spectral values, fractional powers of B(z, +/-zbar)) is expressed through
the matrix realization j(z): a diagonal matrix for the polydisc, the matrix
itself for type-I.  Points are flat complex vectors of length n; type-I points
are reshaped to (p, q) row-major when matrix algebra is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

KIND_POLYDISC = "polydisc"
KIND_TYPE_I = "type-I"
KIND_CHN = "chn"

@dataclass(frozen=True)
class DomainSpec:
    """Numerical invariants of a circled bounded symmetric domain.

    Fields
    ------
    kind : "polydisc" or "type-I"
    shape : (n,) for the polydisc, (p, q) for type-I
    r, a, b : rank and root multiplicities
    n : complex dimension, n = r(b + 1) + a r(r - 1)/2
    genus : gamma = 2 + a(r - 1) + b

    The Furstenberg-Satake boundary constant is not stored: every volume
    computed from a DomainSpec either has an analytic value or is a dual/flat
    ratio in which the constant cancels.
    """

    kind: str
    shape: tuple[int, ...]
    r: int
    a: int
    b: int
    n: int
    genus: int


def make_domain(kind: str, *, n: int | None = None, p: int | None = None,
                q: int | None = None) -> DomainSpec:
    """Build a DomainSpec for the polydisc (n), a type-I domain (p, q) or
    chn (n), the type-I(1, n) domain CH^n; ValueError on anything else."""
    if kind == KIND_CHN:
        if n is None or n < 1:
            raise ValueError("chn needs n >= 1")
        kind, p, q = KIND_TYPE_I, 1, n
    if kind == KIND_POLYDISC:
        if n is None or n < 1:
            raise ValueError("polydisc needs n >= 1")
        shape, r, a, b = (n,), n, 0, 0
    elif kind == KIND_TYPE_I:
        if p is None or q is None or not 1 <= p <= q:
            raise ValueError("type-I needs 1 <= p <= q")
        shape, r, a, b = (p, q), p, 2, q - p
    else:
        raise ValueError(f"unknown domain kind {kind!r} "
                         f"({KIND_POLYDISC} | {KIND_TYPE_I} | {KIND_CHN})")
    return DomainSpec(kind, shape, r, a, b, n=r * (b + 1) + a * r * (r - 1) // 2,
                      genus=2 + a * (r - 1) + b)


def hyperbolic_space(n: int) -> DomainSpec:
    """Complex hyperbolic space CH^n, i.e. the rank-one domain type-I(1, n)."""
    return make_domain(KIND_CHN, n=n)


def _check_point(D: DomainSpec, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != D.n:
        raise ShapeError(f"expected last axis {D.n}, got {z.shape}")
    return z


def as_matrix(D: DomainSpec, z: np.ndarray) -> np.ndarray:
    """View points as stacks of j(z) matrices: diag(z) or the (p, q) reshape."""
    z = _check_point(D, z)
    if D.kind == KIND_POLYDISC:
        m = np.zeros(z.shape + (D.n,), dtype=complex)
        idx = np.arange(D.n)
        m[..., idx, idx] = z
        return m
    p, q = D.shape
    return z.reshape(z.shape[:-1] + (p, q))


def as_vector(D: DomainSpec, m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`as_matrix`."""
    m = np.asarray(m, dtype=complex)
    if D.kind == KIND_POLYDISC:
        idx = np.arange(D.n)
        return m[..., idx, idx]
    return m.reshape(m.shape[:-2] + (D.n,))


def frame_point(D: DomainSpec, lam) -> np.ndarray:
    """sum_j lam_j e_j on the first m <= r tripotents e_j of the canonical
    frame (E_jj for type-I, unit vectors for the polydisc), batched over the
    leading axes of lam (..., m); ShapeError when m > r."""
    lam = np.asarray(lam)
    m = lam.shape[-1]
    if m > D.r:
        raise ShapeError(f"the frame has {D.r} tripotents, got {m} values")
    jz = np.zeros(lam.shape[:-1] + (D.r, D.shape[-1]), dtype=complex)
    idx = np.arange(m)
    jz[..., idx, idx] = lam
    return as_vector(D, jz)


def triple_product(D: DomainSpec, x, y, z) -> np.ndarray:
    """Jordan triple product {x, y, z} (C-linear in x and z, conjugate-linear in y)."""
    x, y, z = (_check_point(D, v) for v in (x, y, z))
    if D.kind == KIND_POLYDISC:
        return 2.0 * x * np.conj(y) * z
    xm, ym, zm = (as_matrix(D, v) for v in (x, y, z))
    ystar = np.conj(np.swapaxes(ym, -1, -2))
    return as_vector(D, xm @ ystar @ zm + zm @ ystar @ xm)


def bergman_apply(D: DomainSpec, x, y, w) -> np.ndarray:
    """Apply the Bergman operator B(x, y) to w.

    In the matrix realization, B(x, y) w = (I - j(x) j(y)*) j(w) (I - j(y)* j(x)).
    """
    x, y, w = (_check_point(D, v) for v in (x, y, w))
    if D.kind == KIND_POLYDISC:
        return (1.0 - x * np.conj(y)) ** 2 * w
    p, q = D.shape
    xm, ym, wm = (as_matrix(D, v) for v in (x, y, w))
    ystar = np.conj(np.swapaxes(ym, -1, -2))
    left = np.eye(p) - xm @ ystar
    right = np.eye(q) - ystar @ xm
    return as_vector(D, left @ wm @ right)


def generic_norm(D: DomainSpec, z, y=None, sign: int = 1):
    """Generic norm N(z, sign * ybar); y defaults to z.

    For the polydisc this is prod_j (1 - sign * z_j * conj(y_j)); for type-I it
    is det(I_p - sign * j(z) j(y)*).  N(z, zbar) is real and positive on the
    domain, and N(z, -zbar) >= 1 everywhere.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    z = _check_point(D, z)
    y = z if y is None else _check_point(D, y)
    if D.kind == KIND_POLYDISC:
        return np.prod(1.0 - sign * z * np.conj(y), axis=-1)
    zm = as_matrix(D, z)
    ystar = np.conj(np.swapaxes(as_matrix(D, y), -1, -2))
    p = D.shape[0]
    return np.linalg.det(np.eye(p) - sign * zm @ ystar)


def norm_self(D: DomainSpec, z, sign: int = 1) -> np.ndarray:
    """Real-valued N(z, sign * zbar), batched."""
    return np.real(generic_norm(D, z, None, sign))


def coordinate_entries(D: DomainSpec) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of the entry of j(z) that carries each coordinate of z."""
    if D.kind == KIND_POLYDISC:
        idx = np.arange(D.n)
        return idx, idx
    return np.divmod(np.arange(D.n), D.shape[1])


def log_norm_derivatives(D: DomainSpec, z, sign: int = 1) -> tuple[np.ndarray, np.ndarray]:
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
    rows, cols = coordinate_entries(D)
    grad = np.conj((ainv @ jz)[..., rows, cols])
    hess = ainv[..., rows[None, :], rows[:, None]] * cinv[..., cols[:, None], cols[None, :]]
    return -sign * grad, -sign * hess


def singular_values(D: DomainSpec, z) -> np.ndarray:
    """All r spectral eigenvalues (descending, zeros kept), batched."""
    z = _check_point(D, z)
    if D.kind == KIND_POLYDISC:
        return np.sort(np.abs(z), axis=-1)[..., ::-1]
    p, q = D.shape
    return np.linalg.svd(z.reshape(z.shape[:-1] + (p, q)), compute_uv=False)


def membership(D: DomainSpec, z) -> np.ndarray:
    """True when the largest spectral eigenvalue is < 1, batched."""
    return singular_values(D, z)[..., 0] < 1.0


def b_quarter_power_on_z(D: DomainSpec, z, sign: int = 1) -> np.ndarray:
    """B(z, sign * zbar)^(-1/4) applied to z, batched.

    Spectrally this is sum_j lambda_j (1 - sign * lambda_j^2)^(-1/2) c_j; for
    sign=+1 it requires all lambda_j < 1.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    z = _check_point(D, z)
    if D.kind == KIND_POLYDISC:
        fac = 1.0 - sign * np.abs(z) ** 2
        if np.any(fac <= 0):
            raise DomainError("eigenvalue >= 1 with sign=+1")
        return z / np.sqrt(fac)
    p, q = D.shape
    u, s, vh = np.linalg.svd(z.reshape(z.shape[:-1] + (p, q)), full_matrices=False)
    fac = 1.0 - sign * s**2
    if np.any(fac <= 0):
        raise DomainError("eigenvalue >= 1 with sign=+1")
    scaled = u * (s / np.sqrt(fac))[..., None, :]
    return as_vector(D, scaled @ vh)


@dataclass(frozen=True)
class PolydiscIsotropy:
    """Coordinate permutation composed with unimodular phases: z -> (phases*z)[perm].

    perm and phases have shape (n,) for one element, or (k, n) for a stack of
    k elements whose row i acts on point i.
    """

    perm: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        perm = np.asarray(self.perm)
        n = perm.shape[-1]
        if (not np.issubdtype(perm.dtype, np.integer)
                or np.any(np.sort(perm, axis=-1) != np.arange(n))):
            raise ValueError("perm is not a permutation")
        phases = np.asarray(self.phases, dtype=complex)
        if np.max(np.abs(np.abs(phases) - 1.0)) > 1e-10:
            raise ValueError("phases must be unimodular")


@dataclass(frozen=True)
class TypeIIsotropy:
    """Unitary pair acting by z -> U z V*.

    u and v have shapes (p, p) and (q, q) for one element, or (k, p, p) and
    (k, q, q) for a stack of k elements whose slice i acts on point i.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        _check_unitary(self.u)
        _check_unitary(self.v)


def _check_unitary(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Reject m unless every matrix in the stack is unitary."""
    m = np.asarray(m, dtype=complex)
    gram = np.conj(np.swapaxes(m, -1, -2)) @ m
    dev = np.max(np.abs(gram - np.eye(m.shape[-1])))
    if dev > tol:
        raise ValueError(f"matrix is not unitary (deviation {dev:.2e})")
    return m


def isotropy_apply(D: DomainSpec, tau, z) -> np.ndarray:
    """Apply an origin-fixing triple automorphism, batched over points; a
    stacked tau moves point i by its element i (the arrays broadcast)."""
    z = _check_point(D, z)
    if D.kind == KIND_POLYDISC:
        if not isinstance(tau, PolydiscIsotropy):
            raise TypeError("polydisc expects PolydiscIsotropy")
        perm = np.asarray(tau.perm)
        if perm.shape[-1] != D.n:
            raise ShapeError("perm length does not match the domain dimension")
        moved = np.asarray(tau.phases, dtype=complex) * z
        return np.take_along_axis(moved, np.broadcast_to(perm, moved.shape), axis=-1)
    if not isinstance(tau, TypeIIsotropy):
        raise TypeError("type-I expects TypeIIsotropy")
    u = np.asarray(tau.u, dtype=complex)
    v = np.asarray(tau.v, dtype=complex)
    return as_vector(D, u @ as_matrix(D, z) @ np.conj(np.swapaxes(v, -1, -2)))


def random_isotropy(D: DomainSpec, rng: np.random.Generator, count: int | None = None):
    """Draw Haar random isotropy elements (QR-based unitaries for type-I).

    With count=None one element; otherwise one stacked element of count rows,
    drawn from the generator in the order of count single calls (per element
    the Gaussians of U, then those of V), followed by one batched QR.
    """
    k = 1 if count is None else count
    pick = (lambda a: a[0]) if count is None else (lambda a: a)
    if D.kind == KIND_POLYDISC:
        perms, phases = [], []
        for _ in range(k):
            perms.append(rng.permutation(D.n))
            phases.append(np.exp(1j * rng.uniform(0, 2 * np.pi, D.n)))
        return PolydiscIsotropy(pick(np.array(perms, dtype=np.intp).reshape(k, D.n)),
                                pick(np.array(phases).reshape(k, D.n)))

    p, q = D.shape
    # per element: real and imaginary parts of U, then of V
    g = rng.normal(size=(k, 2 * (p * p + q * q)))

    def haar(re: np.ndarray, im: np.ndarray, size: int) -> np.ndarray:
        qm, rm = np.linalg.qr((re + 1j * im).reshape(k, size, size))
        diag = np.diagonal(rm, axis1=-2, axis2=-1)
        return qm * (diag / np.abs(diag))[..., None, :]

    u_re, u_im, v_re, v_im = np.split(g, [p * p, 2 * p * p, 2 * p * p + q * q], axis=1)
    return TypeIIsotropy(pick(haar(u_re, u_im, p)), pick(haar(v_re, v_im, q)))
