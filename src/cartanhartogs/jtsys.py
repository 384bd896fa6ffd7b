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
pairs: on the polydisc the whole stack is one array of uniforms, per element
n sort keys (the permutation is their argsort) and then n phase fractions,
and `isotropy_apply` moves each coordinate by real multiply-adds, so a
point moves to the same bits alone or in a batch.  `gram_pivots` is the one
kernel behind the generic norm and membership of Omega: the pivots of an
unpivoted LDL* factorisation of I -/+ j(z) j(z)*, computed elementwise over
the batch by real multiply-adds on contiguous real and imaginary planes of
the rows of j(z), so neither `log_norm` nor `membership` takes a per-point
LAPACK call (SVD or det).  The kernel is row-exact: a row's pivots have
the same bits whatever the batch size, the block boundaries, the memory
layout or the alignment.  `log_norm` and `membership` read its pivots
(r, N) with the batch last, as the kernel leaves them.  The same LDL*
carries the derivatives of log N (`log_norm_derivatives`, behind the
Hessians of `forms`): forward substitution with L, then A^-1, A^-1 J and, by
push-through, C^-1 = (I -/+ j(z)* j(z))^-1 as sums of rank-one products of
(N,) rows, laid out coordinate-major; no LAPACK call and no `jordan_frame`.
`jordan_frame` is the one factorisation behind the Darboux maps, their
inverses and their Jacobian, so the darboux checks compare two independent
routes.  Its route follows the rank: A = I -/+ j(z) j(z)* is diagonal on the
polydisc and on type-I of rank one (`frame_is_diagonal`, the one test of
that route, which the Jacobian of the maps reads too), type-I of rank two
takes one complex Jacobi rotation on (N,) rows of real multiply-adds, and
rank >= 3 one batched LAPACK eigh.  The frame rejects a base point outside
Omega with DomainError at sign +1; a point with an inf or NaN entry stays
out of the closed-form arithmetic and comes out NaN at sign -1, with no
warning.  `spectral_norm`, the largest spectral value, likewise takes a
closed form at rank <= 2 and LAPACK's SVD at rank >= 3.  Points are flat
complex vectors of length n; type-I points are reshaped to (p, q) row-major
when matrix algebra is needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

KIND_POLYDISC = "polydisc"
KIND_TYPE_I = "type-I"
KIND_CHN = "chn"

# Largest complex dimension n that `make_domain` accepts.  The largest
# per-point array of a sampled family is an (n+1) x (n+1) complex matrix (the
# dual Hessian of psh and det-formula; the polydisc isotropy forms n x n
# planes), and one chunk of 8192 points of it is 8192 * 33^2 * 16 B = 143 MB
# at n = 32.  A larger n would ask numpy for gigabytes, or, past the int64
# range, for an array it cannot size.
_MAX_DIMENSION = 32


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
    chn (n), the type-I(1, n) domain CH^n; ValueError on anything else,
    a complex dimension above `_MAX_DIMENSION` included."""
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
    dim = r * (b + 1) + a * r * (r - 1) // 2
    if dim > _MAX_DIMENSION:
        raise ValueError(f"the complex dimension must be at most {_MAX_DIMENSION}")
    return DomainSpec(kind, shape, r, a, b, n=dim, genus=2 + a * (r - 1) + b)


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


def _row_planes(D: DomainSpec, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views (p, q, N) of the real and imaginary parts of j(z) on type-I, the
    batch flattened to N rows and placed last."""
    p, q = D.shape
    jz = z.reshape(-1, p, q)
    return jz.real.transpose(1, 2, 0), jz.imag.transpose(1, 2, 0)


def _row_sums(prod: np.ndarray) -> np.ndarray:
    """sum_l prod[:, l] of an (m, q, N) array, added in order of l."""
    acc = prod[:, 0].copy()
    for l in range(1, prod.shape[1]):
        acc += prod[:, l]
    return acc


def _gram_diagonal(re: np.ndarray, im: np.ndarray, sign: int) -> np.ndarray:
    """The diagonal (p, N) of A = I - sign * j(z) j(z)*, A_ii = 1 - sign *
    sum_l (re_il^2 + im_il^2), from the (p, q, N) planes or views of them."""
    sq = re * re
    sq += im * im
    diag = _row_sums(sq)
    diag *= -sign
    diag += 1.0
    return diag


def _ldl(re: np.ndarray, im: np.ndarray, diag: np.ndarray,
         sign: int) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """(pivots, lower) of the unpivoted LDL* of A from the contiguous (p, q, N)
    planes and the diagonal, which is overwritten: column by column, the
    real and imaginary parts of the Gram entries A_ik below the diagonal,
    then the Schur updates, all real multiply-adds across the batch.  The
    pivots are (p, N); lower[k] holds the real and imaginary planes
    (p - k - 1, N) of column k of the unit lower L below the diagonal.
    No pivot exceeds its A_ii, in floating point too: while the earlier
    pivots are positive, each Schur update subtracts |A_ik|^2 / pivot_k >= 0
    and rounding is monotone, so `_derivative_rows` may reject on A_ii <= 0."""
    p = len(re)
    # column k below the diagonal, rows i = k+1..p-1:
    # A_ik = -sign * sum_l j_il conj(j_kl), as real and imaginary parts
    col_re, col_im = [], []
    for k in range(p - 1):
        below_re, below_im = re[k + 1:], im[k + 1:]
        prod = below_re * re[k]
        prod += below_im * im[k]
        col_re.append(-sign * _row_sums(prod))
        np.multiply(below_im, re[k], out=prod)
        prod -= below_re * im[k]
        col_im.append(-sign * _row_sums(prod))
    pivots, lower = diag, []
    for k in range(p - 1):
        pivot = pivots[k]
        inv = np.divide(1.0, pivot, out=np.zeros_like(pivot), where=pivot != 0)
        a_re, a_im = col_re[k], col_im[k]
        r_re, r_im = a_re * inv, a_im * inv
        lower.append((r_re, r_im))
        # A_ij -= (A_ik / pivot_k) conj(A_jk) for i > j > k
        for j in range(k + 1, p - 1):
            b_re, b_im = a_re[j - k - 1], a_im[j - k - 1]
            col_re[j] -= r_re[j - k:] * b_re + r_im[j - k:] * b_im
            col_im[j] -= r_im[j - k:] * b_re - r_re[j - k:] * b_im
        # A_ii -= |A_ik|^2 / pivot_k for i > k, two products >= 0 where pivot_k > 0
        np.subtract(pivots[k + 1:], r_re * a_re + r_im * a_im, out=pivots[k + 1:])
    return pivots, lower


def gram_pivots(D: DomainSpec, z, sign: int) -> np.ndarray:
    """Pivots (..., r) of the unpivoted LDL* factorisation of the Hermitian
    A = I - sign * j(z) j(z)*, batched.

    Cholesky without square roots (Golub-Van Loan, Matrix Computations,
    Sec. 4.1-4.2), written elementwise over the batch: the real and imaginary
    parts of the rows of j(z) are copied once into contiguous (p, q, N)
    planes, and the Gram entries and the Schur updates are real
    multiply-adds across the batch, no complex multiply and no per-matrix
    LAPACK call.  Column k of the Schur complement is divided by pivot k only
    where that pivot is nonzero, so prod(pivots) = det A wherever the leading
    minors are nonzero, off Omega too.  By Sylvester's criterion A > 0
    exactly when every pivot is positive; there the factorisation is
    Cholesky, hence backward stable, which covers all of Omega at sign = +1
    and every point at sign = -1.  The polydisc's A is the diagonal
    1 - sign |z_j|^2 itself.

    The kernel is row-exact: each row's pivots are a fixed sequence of
    IEEE additions, multiplications and divisions of that row's entries, so
    they have the same bits whatever the batch size, the row's place in the
    batch, the block boundaries, the memory layout or the alignment of z.
    """
    z = _check_point(D, z)
    pivots = _pivot_rows(D, z, sign)
    return np.moveaxis(pivots.reshape((D.r,) + z.shape[:-1]), 0, -1)


def _pivot_rows(D: DomainSpec, z: np.ndarray, sign: int) -> np.ndarray:
    """The `gram_pivots` (r, N) of the checked points z, the batch flattened
    to N rows and placed last: the layout `log_norm` and `membership` read."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if D.kind == KIND_POLYDISC:
        return 1.0 - sign * (z.real**2 + z.imag**2).reshape(-1, D.n).T
    re, im = (np.ascontiguousarray(a) for a in _row_planes(D, z))
    pivots = _gram_diagonal(re, im, sign)
    finite = np.all(np.isfinite(pivots), axis=0)
    if finite.all():
        return _ldl(re, im, pivots, sign)[0]
    # a point with an inf or NaN entry keeps its Gram diagonal as its
    # pivots, so the Schur updates meet no 0 * inf
    pivots[:, finite] = _ldl(re[..., finite], im[..., finite], pivots[:, finite], sign)[0]
    return pivots


def log_norm(D: DomainSpec, z, sign: int) -> np.ndarray:
    """log N(z, sign * zbar), batched: the log of the product of the
    `gram_pivots` of I - sign * j(z) j(z)*, one log per row, and -inf where
    some pivot is <= 0 (at sign = +1: z not in Omega, even where N > 0).

    N is prod_j (1 - sign |z_j|^2) on the polydisc and det(I_p - sign * j(z)
    j(z)*) on type-I; N(z, -zbar) >= 1 everywhere.
    """
    z = _check_point(D, z)
    return _log_product(_pivot_rows(D, z, sign)).reshape(z.shape[:-1])


def _log_product(pivots: np.ndarray) -> np.ndarray:
    """log of the product of the pivots (r, N) of each row, multiplied in
    order, and -inf where some pivot is <= 0."""
    prod = pivots[0]
    for pivot in pivots[1:]:
        prod = prod * pivot
    return np.log(prod, out=np.full(prod.shape, -np.inf), where=np.all(pivots > 0, axis=0))


def coordinate_entries(D: DomainSpec) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of the entry of j(z) that carries each coordinate of z."""
    if D.kind == KIND_POLYDISC:
        idx = np.arange(D.n)
        return idx, idx
    return np.divmod(np.arange(D.n), D.shape[1])


def _reject_outside(values: np.ndarray, sign: int) -> None:
    """DomainError at sign = +1 when some pivot, spectral value or Gram
    diagonal entry (an upper bound on a later pivot) is <= 0 or NaN: a point
    not in Omega."""
    if sign == 1 and not values.min(initial=np.inf) > 0:
        raise DomainError("spectral value >= 1 with sign=+1")


def _derivative_rows(D: DomainSpec, z, sign: int
                     ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """(log N, gradient, (x, y)) of log N(z, sign * zbar) over the batch
    flattened to N rows, coordinate-major: log N (N,), the gradient (n, N)
    and the complex Hessian as Kronecker factors, l_jk = x_ac y_bd at
    j = (a, b) and k = (c, d) row-major (`_kronecker_rows`), with x (p, p, N)
    and y (q, q, N) on type-I and (p, q) = (n, 1) on the polydisc.

    With J = j(z) and A = I - sign J J* = L D L*, the unpivoted LDL* of
    `gram_pivots` (`_ldl` on the row planes, the same bits), forward
    substitution gives R = L^-1 [I | J], and P = R* D^-1 R = [I | J]* A^-1
    [I | J] holds A^-1 and G = A^-1 J in its first p rows and J* A^-1 J in
    its last q rows and columns.  The gradient is -sign conj(G), and the
    Hessian -sign (A^-1)_ca (C^-1)_bd (Loos 1977; Faraut-Koranyi 1990) has
    x = -sign (A^-1)^T and y = C^-1 = I + sign J* A^-1 J, the inverse of
    C = I - sign J* J by push-through, so no q x q inverse is taken.  Every
    step is a real multiply-add over (N,) rows of real and imaginary
    planes, with no LAPACK call, so a row has the same bits in any batch.
    On the polydisc A = C is the diagonal of `gram_pivots`, nothing is
    eliminated, and x = -sign A^-2 (diagonal), y = 1.  log N is the pivots'
    product, `log_norm`'s bits.  With sign=+1 every pivot must be positive,
    i.e. z in Omega: DomainError otherwise (the LDL* divides only by
    nonzero pivots, so no warning comes first).  At sign=-1 a point whose
    Gram diagonal is not finite (an inf or NaN entry) stays out of the
    elimination, as in `gram_pivots`, and its row of every output is NaN.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    z = _check_point(D, z)
    if D.kind == KIND_POLYDISC:
        planes, kernel = (z.reshape(-1, D.n).T,), _polydisc_derivatives
        diag = _pivot_rows(D, z, sign)
    else:
        planes, kernel = tuple(np.ascontiguousarray(a) for a in _row_planes(D, z)), _ldl_derivatives
        diag = _gram_diagonal(*planes, sign)
    _reject_outside(diag, sign)
    finite = np.all(np.isfinite(diag), axis=0)
    if finite.all():
        return kernel(*planes, diag, sign)
    # a point with an inf or NaN entry (or a Gram entry past the float range)
    # stays out of the elimination, so it meets no 0 * inf, and comes out NaN
    log_n, grad, (x, y) = kernel(*(a[..., finite] for a in planes), diag[:, finite], sign)
    return (_scatter_rows(log_n, finite, -1), _scatter_rows(grad, finite, -1),
            (_scatter_rows(x, finite, -1), _scatter_rows(y, finite, -1)))


def _polydisc_derivatives(zt: np.ndarray, pivots: np.ndarray, sign: int):
    """`_derivative_rows` on the polydisc, from the coordinates (n, N) and
    the diagonal pivots of A."""
    n = len(zt)
    ainv = 1.0 / pivots
    x = np.zeros((n, n, zt.shape[1]), dtype=complex)
    x[np.arange(n), np.arange(n)] = -sign * ainv * ainv
    return (_log_product(pivots), -sign * np.conj(zt) * ainv,
            (x, np.ones((1, 1, zt.shape[1]), dtype=complex)))


def _ldl_derivatives(re: np.ndarray, im: np.ndarray, diag: np.ndarray, sign: int):
    """`_derivative_rows` on type-I, from the contiguous (p, q, N) planes of
    j(z) and the Gram diagonal, which `_ldl` overwrites."""
    p, q, count = re.shape
    n = p * q
    pivots, lower = _ldl(re, im, diag, sign)
    _reject_outside(pivots, sign)
    # R = L^-1 [I | J], column by column of L: R_i -= L_ik R_k for i > k
    r_re = np.zeros((p, p + q, count))
    r_re[np.arange(p), np.arange(p)] = 1.0
    r_re[:, p:] = re
    r_im = np.zeros_like(r_re)
    r_im[:, p:] = im
    for k, (l_re, l_im) in enumerate(lower):
        l_re, l_im = l_re[:, None], l_im[:, None]
        r_re[k + 1:] -= l_re * r_re[k] - l_im * r_im[k]
        r_im[k + 1:] -= l_re * r_im[k] + l_im * r_re[k]
    # P = sum_k conj(R_k)^T R_k / d_k; the first columns of R_k vanish past
    # k (L^-1 is lower triangular), so its first p rows take k+1 of them
    top_re, top_im = np.zeros((2, p, p + q, count))
    jaj_re, jaj_im = np.zeros((2, q, q, count))
    for k in range(p):
        a_re, a_im = r_re[k][:, None], r_im[k][:, None]
        b_re, b_im = r_re[k] / pivots[k], r_im[k] / pivots[k]
        top_re[:k + 1] += a_re[:k + 1] * b_re + a_im[:k + 1] * b_im
        top_im[:k + 1] += a_re[:k + 1] * b_im - a_im[:k + 1] * b_re
        jaj_re += a_re[p:] * b_re[p:] + a_im[p:] * b_im[p:]
        jaj_im += a_re[p:] * b_im[p:] - a_im[p:] * b_re[p:]
    grad = np.empty((n, count), dtype=complex)
    grad.real = -sign * top_re[:, p:].reshape(n, count)
    grad.imag = sign * top_im[:, p:].reshape(n, count)
    x = np.empty((p, p, count), dtype=complex)
    x.real = -sign * top_re[:, :p].transpose(1, 0, 2)
    x.imag = -sign * top_im[:, :p].transpose(1, 0, 2)
    y = np.empty((q, q, count), dtype=complex)
    y.real = sign * jaj_re
    y.real[np.arange(q), np.arange(q)] += 1.0
    y.imag = sign * jaj_im
    return _log_product(pivots), grad, (x, y)


def _kronecker_rows(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[(a, b), (c, d)] = x[a, c] y[b, d] over the (N,) rows, into the
    complex (p q, p q, N) array or view out, for x (p, p, N) and y (q, q, N).
    The complex products are taken as real ones, since numpy's complex
    multiply fuses them (FMA) on some memory layouts and not on others; so
    a row rounds the same in any batch."""
    p, q = len(x), len(y)
    blocks = out.reshape(p, q, p, q, -1)
    y_re, y_im = y.real[:, None], y.imag[:, None]
    for a in range(p):  # one row of x at a time, so a temporary is 1/p of out
        block = blocks[a]
        x_re, x_im = x.real[a][None, :, None], x.imag[a][None, :, None]
        np.multiply(x_re, y_re, out=block.real)
        block.real -= x_im * y_im
        np.multiply(x_re, y_im, out=block.imag)
        block.imag += x_im * y_re
    return out


def log_norm_derivatives(D: DomainSpec, z, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form derivatives of log N(z, sign * zbar), batched.

    With J = j(z), A = I - sign J J* and C = I - sign J* J (Loos 1977;
    Faraut-Koranyi, J. Funct. Anal. 88 (1990)),

        d_j log N          = -sign * conj(A^-1 J)_ab,
        d_j dbar_k log N   = -sign * (A^-1)_ca (C^-1)_bd,

    where coordinate j sits at entry (a, b) of j(z) and k at (c, d); the
    polydisc is the same formula on diagonal matrices.  Returns the gradient
    (..., n) and the complex Hessian (..., n, n), from the elimination of
    `_derivative_rows`; with sign=+1 the point must lie in the domain
    (DomainError otherwise).
    """
    batch = np.shape(z)[:-1]
    _, grad, (x, y) = _derivative_rows(D, z, sign)
    hess = _kronecker_rows(x, y, np.empty((D.n, D.n, grad.shape[-1]), dtype=complex))
    return (grad.T.reshape(batch + (D.n,)),
            np.moveaxis(hess, -1, 0).reshape(batch + (D.n, D.n)))


def _entry_planes(D: DomainSpec, rows: np.ndarray) -> np.ndarray:
    """Real planes (2, r, c, N) of the entries of j(z) that carry the
    coordinates of the rows (N, n): real parts, then imaginary parts, of the
    (n, 1) diagonal on the polydisc or the (p, q) matrix on type-I, with the
    point last."""
    shape = (D.n, 1) if D.kind == KIND_POLYDISC else D.shape
    return np.array((rows.real.T, rows.imag.T)).reshape((2,) + shape + (len(rows),))


def _column_sums(prod: np.ndarray) -> np.ndarray:
    """sum_l prod[..., l, :], added in order of l.  With `_squared_norms` it
    is the closed-form frame's own copy of `_row_sums` and `_gram_diagonal`,
    which belong to the LDL* route the darboux checks hold the frame
    against, so a fault in one route does not carry into the other."""
    acc = prod[..., 0, :]
    for l in range(1, prod.shape[-2]):
        acc = acc + prod[..., l, :]
    return acc


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """sum_l |J_il|^2 (r, N), the diagonal of J J*, from the planes (2, r, c, N)."""
    sq = x * x
    return _column_sums(sq[0] + sq[1])


def _gram_cross(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of (J J*)_01 = sum_l J_0l conj(J_1l) from the
    planes (2, 2, q, N) of two rows."""
    s = _column_sums(x[:, None, 0] * x[None, :, 1])   # re, im of row 0 times re, im of row 1
    return s[0, 0] + s[1, 1], s[1, 0] - s[0, 1]


def _gram_det(x: np.ndarray) -> np.ndarray:
    """det J J* = sum_(l<m) |j_0l j_1m - j_0m j_1l|^2 (N,) (Binet-Cauchy) from
    the planes (2, 2, q, N) of two rows, the 2 x 2 minors as real products."""
    l, m = np.array(list(itertools.combinations(range(x.shape[2]), 2))).T
    ul, um, vl, vm = x[:, 0, l], x[:, 0, m], x[:, 1, l], x[:, 1, m]
    minor_re = ul[0] * vm[0] - ul[1] * vm[1] - um[0] * vl[0] + um[1] * vl[1]
    minor_im = ul[0] * vm[1] + ul[1] * vm[0] - um[0] * vl[1] - um[1] * vl[0]
    return _column_sums(minor_re * minor_re + minor_im * minor_im)


def spectral_norm(D: DomainSpec, z) -> np.ndarray:
    """The largest spectral eigenvalue sigma_1 (...,), batched.

    The polydisc takes max |z_j|.  On type-I of rank <= 2 it is a closed
    form in the entries of j(z), real multiply-adds over the batch: rank one
    takes the row norm; rank two takes, with g = j(z) j(z)*,

        sigma_1^2 = (g_00 + g_11)/2 + hypot((g_00 - g_11)/2, |g_01|).

    The entries are squared, so their moduli must lie within about 1e+/-150.
    Rank >= 3 takes LAPACK's SVD.
    """
    z = _check_point(D, z)
    if D.kind == KIND_POLYDISC:
        return np.max(np.abs(z), axis=-1)
    p, q = D.shape
    if p > 2:
        return np.linalg.svd(z.reshape(z.shape[:-1] + (p, q)), compute_uv=False)[..., 0]
    x = _entry_planes(D, z.reshape(-1, D.n))
    g = _squared_norms(x)
    if p == 1:
        return np.sqrt(g[0]).reshape(z.shape[:-1])
    half_sum, half_gap = 0.5 * (g[0] + g[1]), 0.5 * (g[0] - g[1])
    return np.sqrt(half_sum + np.hypot(half_gap, np.hypot(*_gram_cross(x)))).reshape(z.shape[:-1])


def membership(D: DomainSpec, z) -> np.ndarray:
    """True when z lies in Omega, batched: every `gram_pivots` of
    I - j(z) j(z)* is positive (Sylvester's criterion), i.e. the largest
    spectral eigenvalue is < 1; the pivots `log_norm` reads at sign = +1."""
    z = _check_point(D, z)
    return np.all(_pivot_rows(D, z, 1) > 0, axis=0).reshape(z.shape[:-1])[()]


def _rotate(c: np.ndarray, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """[[c, -sigma], [conj(sigma), c]] times the two rows of the planes
    x (2, 2, q, N), as real multiply-adds, with c real per point and sigma
    given as s = [[-Re sigma, Re sigma], [Im sigma, -Im sigma]] (2, 2, N):
    the factors of the other row's real and imaginary planes."""
    swap = x[:, ::-1]
    out = c * x
    out += s[0][:, None] * swap
    out += s[1][:, None, None] * swap[::-1]
    return out


def _rotation_frame(x: np.ndarray, a: np.ndarray, sign: int):
    """(lam (2, N), and the planes of U, U* J and A^(-1/2) J) for two rows,
    from the planes x (2, 2, q, N) of J and the diagonal a (2, N) of A =
    I - sign J J*: one complex Jacobi rotation, the 2-by-2 symmetric Schur
    decomposition (Golub-Van Loan, Matrix Computations, Sec. 8.5).

    With beta = A_01, m = |beta| and h = a_11 - a_00, t = tan(theta) =
    sgn(h) 2m / (|h| + hypot(h, 2m)) is the smaller root of t^2 + (h/m) t = 1,
    c = 1 / sqrt(1 + t^2) and sigma = t c beta / m; then U = [[c, sigma],
    [-conj(sigma), c]] and lam = (a_00 - t m, a_11 + t m).  t / m =
    sgn(h) 2 / (|h| + hypot(h, 2m)) is formed directly, so beta = 0 gives
    sigma = 0 with no 0/0, and h = m = 0 gives U = I.

    At sign -1 the smaller eigenvalue is taken as det A / lam_large, with
    det A = 1 + g_00 + g_11 + det J J* = a_00 + a_11 - 1 + det J J*, a sum of
    positive terms (`_gram_det`, Binet-Cauchy).  a_00 - t m cancels, with a
    relative error that grows like lam_large / lam_small: at spectral values
    (1e7, 0.3) it put Phi's smaller spectral value 7e-3 off, and at (1e8,
    0.3) it came out 0 or negative."""
    g_re, g_im = _gram_cross(x)            # beta = -sign (g_re + i g_im)
    m = np.hypot(g_re, g_im)
    h = a[1] - a[0]
    den = np.abs(h) + np.hypot(h, 2.0 * m)
    ratio = np.divide(np.copysign(2.0, h), den, out=np.zeros(den.shape), where=den > 0)
    t = ratio * m
    tm = t * m
    lam = a.copy()
    lam[0] -= tm
    lam[1] += tm
    if sign < 0:
        first = lam[0] <= lam[1]                 # where the smaller eigenvalue sits
        large = np.where(first, lam[1], lam[0])
        small = (a[0] + a[1] - 1.0 + _gram_det(x)) / large
        lam = np.array((np.where(first, small, large), np.where(first, large, small)))
    _reject_outside(lam, sign)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = (-sign * (c * ratio)) * np.array(((-g_re, g_re), (g_im, -g_im)))
    k = _rotate(c, s, x)                                                  # U* J
    b_z = _rotate(c, s[:, ::-1], (1.0 / np.sqrt(lam))[:, None] * k)      # U lam^(-1/2) U* J
    u = np.zeros((2, 2, 2, len(c)))
    u[0, 0, 0] = u[0, 1, 1] = c
    u[0, 0, 1], u[0, 1, 0] = s[0, 1], s[0, 0]
    u[1, 0, 1] = u[1, 1, 0] = s[1, 0]
    return lam, u, k, b_z


def _complex_rows(planes: np.ndarray) -> np.ndarray:
    """The complex array (N, ...) of the real planes (2, ..., N)."""
    axes = (planes.ndim - 1,) + tuple(range(1, planes.ndim - 1)) + (0,)
    return np.ascontiguousarray(planes.transpose(axes)).view(complex)[..., 0]


def _scatter_rows(values: np.ndarray, keep: np.ndarray, axis: int) -> np.ndarray:
    """values of the kept rows (along axis) put back in their places among
    len(keep) rows; the other rows are NaN."""
    shape = list(values.shape)
    shape[axis] = len(keep)
    out = np.full(shape, np.nan, dtype=values.dtype)
    np.moveaxis(out, axis, 0)[keep] = np.moveaxis(values, axis, 0)
    return out


def frame_is_diagonal(D: DomainSpec) -> bool:
    """True when A = I -/+ j(z) j(z)* is diagonal at every z, so the Jordan
    frame is U = I: the polydisc (n discs) and type-I of rank one.  The one
    test of the route that `jordan_frame` and `hartogs.darboux_jacobian` take."""
    return D.kind == KIND_POLYDISC or D.r == 1


def jordan_frame(D: DomainSpec, z, sign: int):
    """Spectral frame A = I - sign J J* = U diag(lam) U* of B(z, sign * zbar),
    J = j(z), batched.

    Returns (lam, U, U* J, B(z, sign * zbar)^(-1/4) z), the last as a point.
    Since J C = A J for C = I - sign J* J, the fractional power
    A^(-1/4) J C^(-1/4) equals A^(-1/2) J = U lam^(-1/2) U* J (spectral
    calculus of B(z, +/-zbar): Loos 1977; Faraut-Koranyi 1990), and
    N(z, sign * zbar) = prod(lam).  The route follows the rank:

    * polydisc and type-I of rank one: A is diagonal, lam_i = 1 - sign
      sum_l |J_il|^2, U = I, U* J = J and A^(-1/2) J = lam^(-1/2) J;
    * type-I of rank two: one complex Jacobi rotation (`_rotation_frame`);
    * type-I of rank >= 3: one batched Hermitian eigendecomposition (LAPACK).

    The first two are real multiply-adds over the batch, so a row's frame has
    the same bits in any batch, and they take nothing from the LDL* of
    `gram_pivots`, which the darboux checks compare them with.  The order of
    lam is not fixed.  With sign=+1 every lam must be positive, i.e. z in
    Omega: DomainError otherwise, a point with an inf or NaN entry included.
    At sign=-1 such a point comes out NaN in every output, and on the first
    two routes its row stays out of the arithmetic, so it raises no warning.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    z = _check_point(D, z)
    if not frame_is_diagonal(D) and D.r > 2:      # type-I of rank >= 3
        jz = as_matrix(D, z)
        lam, u = np.linalg.eigh(np.eye(D.r) - sign * jz @ np.conj(np.swapaxes(jz, -1, -2)))
        _reject_outside(lam, sign)
        k = np.conj(np.swapaxes(u, -1, -2)) @ jz
        return lam, u, k, as_vector(D, u @ ((1.0 / np.sqrt(lam))[..., :, None] * k))
    rows = z.reshape(-1, D.n)
    x = _entry_planes(D, rows)
    a = 1.0 - sign * _squared_norms(x)       # the diagonal of A
    _reject_outside(a, sign)
    finite = np.isfinite(a).all(axis=0)
    whole = finite.all()
    if not whole:
        rows, x, a = rows[finite], x[..., finite], a[:, finite]
    if not frame_is_diagonal(D):
        lam, u, k, b_z = _rotation_frame(x, a, sign)
        frame = (lam.T.copy(), _complex_rows(u), _complex_rows(k), _complex_rows(b_z))
    else:
        u = np.zeros((len(rows), D.r, D.r), dtype=complex)
        u.reshape(len(rows), D.r * D.r)[:, ::D.r + 1] = 1.0
        frame = (a.T.copy(), u, as_matrix(D, rows.copy()),
                 _complex_rows((1.0 / np.sqrt(a))[:, None] * x))
    if not whole:
        frame = tuple(_scatter_rows(part, finite, 0) for part in frame)
    batch = z.shape[:-1]
    lam, u, k, b_z = (part.reshape(batch + part.shape[1:]) for part in frame)
    return lam, u, k, b_z.reshape(batch + (D.n,))


@dataclass(frozen=True)
class Isotropy:
    """Unitary pair acting on the matrix realization by j(z) -> U j(z) V*
    (Loos 1977): Haar pairs for type-I, monomial pairs U = P diag(phases),
    V = P with P a permutation matrix for the polydisc.

    With j(z) of size p x q (n x n on the polydisc), u and v have shapes
    (p, p) and (q, q) for one element, or (k, p, p) and (k, q, q) for a stack
    of k elements whose slice i acts on point i.  `Isotropy(u, v)` checks
    both factors unitary (ValueError otherwise); `random_isotropy` builds its
    pairs unitary by construction and skips the check.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        _check_unitary(self.u)
        _check_unitary(self.v)

    @classmethod
    def _by_construction(cls, u: np.ndarray, v: np.ndarray) -> "Isotropy":
        """An element whose u and v are unitary by construction, built without
        the checks of `__post_init__`."""
        tau = object.__new__(cls)
        object.__setattr__(tau, "u", u)
        object.__setattr__(tau, "v", v)
        return tau


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
    coordinate.  The complex products are taken as real ones (see
    `_kronecker_rows`), so a point moves to the same bits alone, as a row
    of one or inside a batch."""
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
    zk = _check_point(D, z)[..., None, :]
    uz_re = u.real * zk.real - u.imag * zk.imag
    uz_im = u.real * zk.imag + u.imag * zk.real
    # times conj(V), the one term of each row on the support kept
    re = np.where(support, uz_re * v.real + uz_im * v.imag, 0.0).sum(axis=-1)
    moved = np.empty(re.shape, dtype=complex)
    moved.real = re
    moved.imag = np.where(support, uz_im * v.real - uz_re * v.imag, 0.0).sum(axis=-1)
    return moved


def random_isotropy(D: DomainSpec, rng: np.random.Generator, count: int) -> Isotropy:
    """Draw a stack of count Haar random isotropy elements.

    Polydisc: the whole stack is one (count, 2n) array of uniforms, row i
    holding element i's n sort keys and then its n phase fractions; the
    permutation P is the argsort of the keys (uniform over the n!
    orderings) and the phases are exp(2 pi i fraction), built into
    U = P diag(phases), V = P.  Type-I: per element the Gaussians of U, then
    those of V, followed by batched QR, one call per factor (one for both
    when p = q), whose Q factors times the unit phases of R's diagonal are
    Haar.  Either way the draws are per element and
    in order, so a stack equals its elements drawn one at a time.  Permutations
    and QR factors times unit phases are unitary by construction, so the stack
    skips `Isotropy`'s unitarity check; the tests hold the draws unitary to
    1e-12.
    """
    if D.kind == KIND_POLYDISC:
        draws = rng.random((count, 2 * D.n))
        pmat = np.eye(D.n)[np.argsort(draws[:, :D.n], axis=-1)]
        return Isotropy._by_construction(pmat * np.exp(2j * np.pi * draws[:, None, D.n:]), pmat)

    p, q = D.shape
    # per element: real and imaginary parts of U, then of V
    g = rng.normal(size=(count, 2 * (p * p + q * q)))

    def haar(re: np.ndarray, im: np.ndarray, size: int) -> np.ndarray:
        qm, rm = np.linalg.qr((re + 1j * im).reshape(re.shape[:-1] + (size, size)))
        diag = np.diagonal(rm, axis1=-2, axis2=-1)
        return qm * (diag / np.abs(diag))[..., None, :]

    if p == q:
        # U and V of every element in one QR call; LAPACK factors each
        # matrix on its own, so each keeps the bits of a call of its own
        pairs = g.reshape(count, 2, 2, p * p)        # (element, U or V, re or im, entry)
        uv = haar(pairs[:, :, 0], pairs[:, :, 1], p)
        return Isotropy._by_construction(uv[:, 0], uv[:, 1])
    u, v = g[:, :2 * p * p], g[:, 2 * p * p:]
    return Isotropy._by_construction(haar(u[:, :p * p], u[:, p * p:], p),
                                     haar(v[:, :q * q], v[:, q * q:], q))
