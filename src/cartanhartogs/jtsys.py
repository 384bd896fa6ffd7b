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

Every algebraic operator used downstream (generic norm, spectral values, the
spectral frame of B(z, +/-zbar) and its fractional power, the isotropy action
j(z) -> U j(z) V* of a unitary pair) is expressed through the matrix
realization j(z): a diagonal matrix for the polydisc, the matrix itself for
type-I.  For isotropy a kind differs only in how `random_isotropy` draws its
pairs.  `gram_pivots` is the one kernel behind the generic norm and
membership of Omega: the pivots of an unpivoted LDL* factorisation of
I -/+ j(z) j(z)*, computed elementwise over the batch, so neither `log_norm`
nor `membership` takes a per-point LAPACK call (SVD or det).
`jordan_frame` is the one factorisation behind the Darboux maps, their
inverses and their Jacobian, and the one place that rejects a base point
outside Omega.  Points are flat complex vectors of length n; type-I points
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


def gram_pivots(D: DomainSpec, z, sign: int) -> np.ndarray:
    """Pivots (..., r) of the unpivoted LDL* factorisation of the Hermitian
    A = I - sign * j(z) j(z)*, batched.

    Cholesky without square roots (Golub-Van Loan, Matrix Computations,
    Sec. 4.1-4.2), written elementwise over the batch: a loop over the r rows
    of j(z), numpy across the batch axis, no per-matrix LAPACK call.  Column k
    of the Schur complement is divided by pivot k only where that pivot is
    nonzero, so prod(pivots) = det A wherever the leading minors are nonzero,
    off Omega too.  By Sylvester's criterion A > 0 exactly when every pivot is
    positive; there the factorisation is Cholesky, hence backward stable, which
    covers all of Omega at sign = +1 and every point at sign = -1.  The
    polydisc's A is the diagonal 1 - sign |z_j|^2 itself.  Any memory layout
    of z gives the same bits; the transposed view of a coordinate-major
    (n, N) array is already in the row layout below and is used without a
    copy, where other layouts are copied into it.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    z = _check_point(D, z)
    if D.kind == KIND_POLYDISC:
        return 1.0 - sign * (z * np.conj(z)).real
    p, q = D.shape
    # rows of j(z) with the batch last: (p, q, ...)
    rows = np.ascontiguousarray(np.moveaxis(z.reshape(z.shape[:-1] + (p, q)), (-2, -1), (0, 1)))
    conj = np.conj(rows)
    # lower triangle of the Schur complement, s[i][k] = A_ik to start with
    s = [[float(i == k) - sign * np.einsum("l...,l...->...", rows[i], conj[k])
          for k in range(i + 1)] for i in range(p)]
    pivots = np.empty((p,) + rows.shape[2:])
    for k in range(p):
        pivot = s[k][k].real
        pivots[k] = pivot
        inv = np.divide(1.0, pivot, out=np.zeros_like(pivot), where=pivot != 0)
        for i in range(k + 1, p):
            ratio = s[i][k] * inv
            for j in range(k + 1, i + 1):
                s[i][j] = s[i][j] - ratio * np.conj(s[j][k])
    return np.moveaxis(pivots, 0, -1)


def log_norm(D: DomainSpec, z, sign: int) -> np.ndarray:
    """log N(z, sign * zbar), batched: the log of the product of the
    `gram_pivots` of I - sign * j(z) j(z)*, one log per row, and -inf where
    some pivot is <= 0 (at sign = +1: z not in Omega, even where N > 0).

    N is prod_j (1 - sign |z_j|^2) on the polydisc and det(I_p - sign * j(z)
    j(z)*) on type-I; N(z, -zbar) >= 1 everywhere.
    """
    pivots = gram_pivots(D, z, sign)
    inside = np.all(pivots > 0, axis=-1)
    return np.log(np.prod(pivots, axis=-1), out=np.full(inside.shape, -np.inf), where=inside)


def coordinate_entries(D: DomainSpec) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of the entry of j(z) that carries each coordinate of z."""
    if D.kind == KIND_POLYDISC:
        idx = np.arange(D.n)
        return idx, idx
    return np.divmod(np.arange(D.n), D.shape[1])


def log_norm_derivatives(D: DomainSpec, z, sign: int) -> tuple[np.ndarray, np.ndarray]:
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
    """True when z lies in Omega, batched: every `gram_pivots` of
    I - j(z) j(z)* is positive (Sylvester's criterion), i.e. the largest
    spectral eigenvalue is < 1."""
    return np.all(gram_pivots(D, z, 1) > 0, axis=-1)


def jordan_frame(D: DomainSpec, z, sign: int):
    """Spectral frame of B(z, sign * zbar) from one Hermitian eigendecomposition
    A = I - sign J J* = U diag(lam) U* per point, J = j(z), batched.

    Returns (lam, U, U* J, B(z, sign * zbar)^(-1/4) z), the last as a point.
    Since J C = A J for C = I - sign J* J, the fractional power
    A^(-1/4) J C^(-1/4) equals A^(-1/2) J = U lam^(-1/2) U* J (spectral
    calculus of B(z, +/-zbar): Loos 1977; Faraut-Koranyi 1990), and
    N(z, sign * zbar) = prod(lam).  The polydisc takes the same route on its
    diagonal J.  With sign=+1 every lam must be positive, i.e. z in Omega:
    DomainError otherwise.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    jz = as_matrix(D, z)
    lam, u = np.linalg.eigh(np.eye(jz.shape[-2]) - sign * jz @ np.conj(np.swapaxes(jz, -1, -2)))
    if sign == 1 and np.any(lam <= 0):
        raise DomainError("spectral value >= 1 with sign=+1")
    k = np.conj(np.swapaxes(u, -1, -2)) @ jz
    return lam, u, k, as_vector(D, u @ ((1.0 / np.sqrt(lam))[..., :, None] * k))


@dataclass(frozen=True)
class Isotropy:
    """Unitary pair acting on the matrix realization by j(z) -> U j(z) V*
    (Loos 1977): Haar pairs for type-I, monomial pairs U = P diag(phases),
    V = P with P a permutation matrix for the polydisc.

    With j(z) of size p x q (n x n on the polydisc), u and v have shapes
    (p, p) and (q, q) for one element, or (k, p, p) and (k, q, q) for a stack
    of k elements whose slice i acts on point i.
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


def isotropy_apply(D: DomainSpec, tau: Isotropy, z) -> np.ndarray:
    """Apply an origin-fixing triple automorphism, j(z) -> U j(z) V*, batched
    over points; a stacked tau moves point i by its element i (the arrays
    broadcast).  ShapeError when U or V does not fit j(z).

    On the polydisc the pair maps the diagonal realization into itself exactly
    when |U| and |V| are the same permutation matrix P, which is decided from
    U and V alone (ValueError otherwise).  Coordinate k then moves to
    U_kl z_l conj(V_kl), l = P(k): the terms off the support are masked, not
    multiplied by 0 as in a matrix product, so a NaN or inf stays in its own
    coordinate."""
    jz = as_matrix(D, z)
    u = np.asarray(tau.u, dtype=complex)
    v = np.asarray(tau.v, dtype=complex)
    if u.shape[-1] != jz.shape[-2] or v.shape[-1] != jz.shape[-1]:
        raise ShapeError(f"U and V must act on {jz.shape[-2]} x {jz.shape[-1]} matrices")
    if D.kind != KIND_POLYDISC:
        return as_vector(D, u @ jz @ np.conj(np.swapaxes(v, -1, -2)))
    support = u != 0
    # no row of a unitary U is zero, so n nonzeros per n * n block means one
    # per row: a permutation pattern
    if not (np.count_nonzero(support) * D.n == support.size
            and np.array_equal(support, v != 0)):
        raise ValueError("the pair does not map the realization into itself")
    terms = u * _check_point(D, z)[..., None, :] * np.conj(v)
    return np.where(support, terms, 0).sum(axis=-1)


def random_isotropy(D: DomainSpec, rng: np.random.Generator, count: int) -> Isotropy:
    """Draw a stack of count Haar random isotropy elements.

    Polydisc: per element a permutation, then the phases, built into
    U = P diag(phases), V = P.  Type-I: per element the Gaussians of U, then
    those of V, followed by one batched QR.
    """
    if D.kind == KIND_POLYDISC:
        perms, phases = [], []
        for _ in range(count):
            perms.append(rng.permutation(D.n))
            phases.append(np.exp(1j * rng.uniform(0, 2 * np.pi, D.n)))
        pmat = np.eye(D.n)[np.array(perms, dtype=np.intp).reshape(count, D.n)]
        return Isotropy(pmat * np.array(phases).reshape(count, 1, D.n), pmat)

    p, q = D.shape
    # per element: real and imaginary parts of U, then of V
    g = rng.normal(size=(count, 2 * (p * p + q * q)))

    def haar(re: np.ndarray, im: np.ndarray, size: int) -> np.ndarray:
        qm, rm = np.linalg.qr((re + 1j * im).reshape(count, size, size))
        diag = np.diagonal(rm, axis1=-2, axis2=-1)
        return qm * (diag / np.abs(diag))[..., None, :]

    u_re, u_im, v_re, v_im = np.split(g, [p * p, 2 * p * p, 2 * p * p + q * q], axis=1)
    return Isotropy(haar(u_re, u_im, p), haar(v_re, v_im, q))
