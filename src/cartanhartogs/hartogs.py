"""Cartan-Hartogs domains, their symplectic duals, and the two global Darboux maps.

The domain M is {(z, w) in Omega x C : |w|^2 < N(z, zbar)^mu} with Kaehler
potential phi = -log(N^mu - |w|^2).  Its dual carries the everywhere-defined
potential phi* = log(N(z, -zbar)^mu + |w|^2) on C^(n+1); flipping the sign in
B(z, +/-zbar) turns one into the other.  With eps = -1 on the domain and +1 on
the dual, u = N(z, -eps zbar)^mu, G = u + eps |w|^2 and t = u / G, the map

    (z, w) -> (sqrt(mu t) B(z, -eps zbar)^(-1/4) z, w / sqrt(G))

pulls the flat form back to the domain form (Psi, eps = -1) and to the dual
form (Phi, eps = +1); the potential of either side is eps log G.  A point
is a packed complex vector of length n+1 with w last; every map and
membership test takes a packed array of shape (..., n+1) and works on all
leading axes at once.  The maps, their closed-form inverses (the same Jordan
kernel with the sign flipped once more) and their Jacobian each take one
`jtsys.jordan_frame` per point, the spectral frame of I +/- J J* (spectral
calculus of B(x, +/-xbar): Loos 1977; Faraut-Koranyi 1990): closed forms on
the polydisc and on type-I of rank <= 2 (a diagonal A, or one complex Jacobi
rotation), one Hermitian eigendecomposition at rank >= 3.  The Jacobian
follows the frame's route: at rank >= 2 it reads all 2n real directions of
z off two small matrix products per point (the Daleckii-Krein formula,
factored through Delta o (v y^T) = diag(v) Delta diag(y)); where the frame
is diagonal (the polydisc as n discs, type-I of rank one) the products
collapse to elementwise terms at the coordinate entries, with no matrix
product.  Every relation between |w|^2 and
N^mu is taken in s = 2 log|w| - mu log N, so u = N^mu is never formed and
large mu neither under- nor overflows: `fiber_ratios` is the one home of t,
|w|^2/G and 1/G, `ch_member_vec`, the one membership test of M, is s < 0,
and the member samplers draw s <= log(w_frac).  `lift_embedding` carries
points of the Hartogs domain over Delta^m into M along the canonical frame
of `jtsys.frame_point`, the hereditary embedding the maps must commute with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jtsys
from .errors import ConvergenceError, DomainError, ShapeError
from .jtsys import DomainSpec, log_norm, membership, spectral_norm


@dataclass(frozen=True)
class HartogsSpec:
    """A base domain together with the fiber exponent mu > 0."""

    domain: DomainSpec
    mu: float


def make_hartogs(domain: DomainSpec, mu: float) -> HartogsSpec:
    if not mu > 0:
        raise DomainError("mu must be positive")
    return HartogsSpec(domain, float(mu))


def split_vec(H: HartogsSpec, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(pts, dtype=complex)
    if pts.shape[-1] != H.domain.n + 1:
        raise ShapeError(f"expected last axis {H.domain.n + 1}, got {pts.shape}")
    return pts[..., :-1], pts[..., -1]


def _split_finite(H: HartogsSpec, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`split_vec` with an inf or NaN w replaced by NaN, so that its row comes
    out NaN through `fiber_ratios` and every product with w, where an
    infinite w would meet inf * 0 and warn."""
    z, w = split_vec(H, pts)
    return z, np.where(np.isfinite(w), w, np.nan)


def _join(zeta: np.ndarray, omega: np.ndarray) -> np.ndarray:
    return np.concatenate([zeta, omega[..., None]], axis=-1)


def ch_member_vec(H: HartogsSpec, pts: np.ndarray) -> np.ndarray:
    """True where (z, w) lies in M: 2 log|w| < mu log N(z, zbar), with
    `jtsys.log_norm` = -inf for z outside Omega, so that no w passes there."""
    z, w = split_vec(H, pts)
    with np.errstate(divide="ignore"):  # log 0 = -inf at w = 0 is a member
        return 2.0 * np.log(np.abs(w)) < H.mu * log_norm(H.domain, z, 1)


def fiber_ratios(H: HartogsSpec, log_n: np.ndarray, w: np.ndarray, eps: int):
    """(t, |w|^2 / G, 1 / G) for u = N^mu = e^(mu log_n) and G = u + eps |w|^2,
    in s = 2 log|w| - mu log_n: t = 1 / (1 + eps e^s), |w|^2 / G = e^s t and
    1 / G = t e^(-mu log_n).  t and |w|^2/G stay finite where u under- or
    overflows; only 1/G can leave the float range, and there it is inf."""
    with np.errstate(divide="ignore"):  # log 0 = -inf at w = 0
        s = 2.0 * np.log(np.abs(w)) - H.mu * log_n
    e_s = np.exp(s)
    t = 1.0 / (1.0 + eps * e_s)
    with np.errstate(over="ignore"):
        inv_g = t * np.exp(-H.mu * log_n)
    return t, e_s * t, inv_g


def _phase(w: np.ndarray) -> np.ndarray:
    """w / |w|, and 0 at w = 0."""
    modulus = np.abs(w)
    return np.divide(w, modulus, out=np.zeros_like(w), where=modulus > 0)


def _darboux_map(H: HartogsSpec, pts: np.ndarray, eps: int) -> np.ndarray:
    """(sqrt(mu t) B(z, -eps zbar)^(-1/4) z, w / sqrt(G)) with t = u / G,
    u = N(z, -eps zbar)^mu and G = u + eps |w|^2: Psi at eps = -1, Phi at
    eps = +1.  One `jtsys.jordan_frame` gives B^(-1/4) z and log N = sum log lam,
    `fiber_ratios` t and |w|^2/G, and w / sqrt(G) = (w / |w|) sqrt(|w|^2 / G).
    A point with an inf or NaN w comes out NaN, with no warning."""
    z, w = _split_finite(H, pts)
    lam, _, _, bz = jtsys.jordan_frame(H.domain, z, -eps)
    t, w2_g, _ = fiber_ratios(H, np.sum(np.log(lam), axis=-1), w, eps)
    return _join(np.sqrt(H.mu * t)[..., None] * bz, _phase(w) * np.sqrt(w2_g))


def darboux_jacobian(H: HartogsSpec, pts: np.ndarray, dual: bool = False) -> np.ndarray:
    """Closed-form derivatives of Psi (or Phi with dual=True) at packed points
    (..., n+1): shape (..., 2(n+1), n+1), row a the complex image of real
    direction a in the interleaved order (x1, y1, ..., x_{n+1}, y_{n+1}).

    With J = j(z) and A = I + eps J J*, the map of `_darboux_map` is
    (sqrt(mu t) A^(-1/2) J, w / sqrt(G)) with t = u / G and u = (det A)^mu.
    From its `jtsys.jordan_frame` (A = U diag(lam) U*, K = U* J, A^(-1/2) J),
    d A^(-1/2) = U (Delta o U* dA U) U*, dA = eps (dJ J* + J dJ*), with Delta
    the divided differences of x^(-1/2) at the eigenvalues (Daleckii-Krein:
    Bhatia, Matrix Analysis (1997), Thm V.3.3; Higham, Functions of Matrices
    (2008), Sec. 3.2).  Coordinate j of z sits at one entry (a, b) of J, so
    dJ = c E_ab with c = 1 or i, and Delta o (v y^T) = diag(v) Delta diag(y)
    gives d(A^(-1/2) J) at entry (i, j) as c T1[i,a,b,j] + conj(c) T2[i,b,a,j],
    from two products per point that every direction shares:

        T1[(i,a),(b,j)] = sum_kl U_ik conj(U_ak) (eps Delta_kl conj(K_lb) K_lj
                                                  + lam_k^(-1/2) [b = j]),
        T2[(i,b),(a,j)] = eps sum_kl U_ik K_kb Delta_kl U_al K_lj.

    d log u = mu tr(A^-1 dA) = mu eps (c conj(g_ab) + conj(c) g_ab), g = A^-1 J,
    splits the same way, and with it the term d sqrt(mu t) A^(-1/2) J.  Along z,
    d log t = (1 - t) d log u and d log(1/G) = -t d log u; along w, d log t =
    d log(1/G) = -2 eps Re(conj(w) c) / G.

    The products follow the frame's route (`jtsys.frame_is_diagonal`).  On
    the polydisc and on type-I of rank one A is diagonal and U = I, so only
    the entries on one row i of J meet: T1[i,i,b,j] = eps Delta_ii
    conj(J_ib) J_ij + lam_i^(-1/2) [b = j], T2[i,b,i,j] = eps Delta_ii J_ib
    J_ij and g = J / lam, elementwise at the coordinate entries
    (`_diagonal_products`); the polydisc is n discs, and its T1 and T2 are
    diagonal.  At rank >= 2 they are the two products per point above
    (`_frame_products`).  A point with an inf or NaN w comes out NaN, with no
    warning, as one with an inf or NaN z does on the dual side.
    """
    eps = 1 if dual else -1
    d = H.domain
    z, w = _split_finite(H, pts)
    lam, u, k, b_z = jtsys.jordan_frame(d, z, -eps)     # b_z = A^(-1/2) J
    lead = z.shape[:-1]
    t, w2_g, inv_g = fiber_ratios(H, np.sum(np.log(lam), axis=-1), w, eps)
    scale = np.sqrt(H.mu * t)
    # s1[a, o] and s2[a, o], T1 and T2 at direction coordinate a and image
    # coordinate o, are written straight into the rows of c = 1 and c = i
    out = np.empty(lead + (2 * (d.n + 1), d.n + 1), dtype=complex)
    s1, s2 = out[..., 0:-2:2, :-1], out[..., 1:-2:2, :-1]
    if jtsys.frame_is_diagonal(d):
        g = _diagonal_products(d, lam, k, scale, eps, s1, s2)
    else:
        g = _frame_products(d, lam, u, k, scale, eps, s1, s2)
    dlog_u = (2.0 * eps * H.mu * np.stack([g.real, g.imag], axis=-1)).reshape(lead + (2 * d.n,))
    fiber = (0.5 * H.mu * w2_g * scale)[..., None] * g     # (1 - t) = eps |w|^2 / G
    # the two rank-one terms, then s1 - s2, through one scratch array
    scratch = np.multiply(np.conj(fiber)[..., :, None], b_z[..., None, :])
    s1 += scratch
    s2 += np.multiply(fiber[..., :, None], b_z[..., None, :], out=scratch)
    np.subtract(s1, s2, out=scratch)
    s1 += s2                                  # c = 1
    np.multiply(scratch, 1j, out=s2)          # c = i
    out[..., :-2, -1] = -0.5 * (t * np.sqrt(inv_g) * w)[..., None] * dlog_u
    dlog_g = -2.0 * eps * inv_g[..., None] * np.stack([w.real, w.imag], axis=-1)
    out[..., -2:, :-1] = 0.5 * (scale[..., None] * dlog_g)[..., None] * b_z[..., None, :]
    out[..., -2:, -1] = np.sqrt(inv_g)[..., None] * ([1.0, 1j] + 0.5 * w[..., None] * dlog_g)
    return out


def _diagonal_products(d: DomainSpec, lam, k, scale, eps, s1, s2):
    """s1 and s2 of `darboux_jacobian`, into the given arrays, and g, where A
    is diagonal and U = I, K = J:
    where direction a and image o sit on one row i of J, s1 = eps sqrt(mu t)
    Delta_ii conj(J_a) J_o (plus sqrt(mu t) lam_i^(-1/2) at a = o) and s2 =
    eps sqrt(mu t) Delta_ii J_a J_o, and 0 elsewhere, with Delta_ii = f'(lam_i)
    written as `_frame_products` writes Delta; g = J / lam.  Elementwise over
    the n coordinates, no matrix product."""
    x = jtsys.as_vector(d, k)          # the coordinates, off U* J = J (NaN rows kept)
    rows = jtsys.coordinate_entries(d)[0]
    root = np.sqrt(lam)[..., rows]
    dx = ((-eps * scale)[..., None] / (root * root * (root + root))) * x
    same = rows[:, None] == rows       # direction and image on one row of J
    s1[...] = np.where(same, np.conj(x)[..., :, None] * dx[..., None, :], 0.0)
    diag = np.arange(d.n)
    s1[..., diag, diag] += scale[..., None] / root
    s2[...] = np.where(same, x[..., :, None] * dx[..., None, :], 0.0)
    return x * (1.0 / lam)[..., rows]    # no complex division, which warns on NaN


def _frame_products(d: DomainSpec, lam, u, k, scale, eps, s1, s2):
    """s1 and s2 of `darboux_jacobian`, into the given arrays, and g, from
    the full frame: T1 and T2 as two products per point.  Their entries are
    s1 and s2 permuted (every entry of J is a coordinate), so each product is
    scattered into place and dropped before the next one is formed."""
    p, q = k.shape[-2:]
    lead = k.shape[:-2]
    root = np.sqrt(lam)
    # eps sqrt(mu t) Delta, without cancellation and f'(x) on the diagonal
    delta = (-eps * scale)[..., None, None] / (root[..., :, None] * root[..., None, :]
                                               * (root[..., :, None] + root[..., None, :]))
    entry = np.empty((p, q), dtype=int)  # the coordinate at each entry of J
    entry[jtsys.coordinate_entries(d)] = np.arange(d.n)
    # T1[i, a, b, j] is s1 at direction (a, b) and image (i, j)
    image = entry[:, None, None, :]
    y1 = delta @ (np.conj(k)[..., :, :, None] * k[..., :, None, :]).reshape(lead + (p, q * q))
    diag = np.arange(q)
    y1.reshape(lead + (p, q, q))[..., diag, diag] += (scale[..., None] / root)[..., None]
    s1[..., entry[None, :, :, None], image] = (
        (u[..., :, None, :] * np.conj(u)[..., None, :, :]).reshape(lead + (p * p, p)) @ y1
    ).reshape(lead + (p, p, q, q))
    del y1
    # T2[i, b, a, j] is s2 at direction (a, b) and image (i, j)
    x2 = (u[..., :, None, :] * np.swapaxes(k, -1, -2)[..., None, :, :]).reshape(lead + (p * q, p))
    y2 = (np.swapaxes(u, -1, -2)[..., :, :, None] * k[..., :, None, :]).reshape(lead + (p, p * q))
    z2 = delta @ y2
    del y2
    s2[..., entry.T[None, :, :, None], image] = (x2 @ z2).reshape(lead + (p, q, p, q))
    return jtsys.as_vector(d, (x2 @ (1.0 / lam)[..., :, None]).reshape(lead + (p, q)))


def _darboux_inverse(H: HartogsSpec, targets, eps: int) -> np.ndarray:
    """Closed-form inverse of `_darboux_map` at the same eps: with
    fac = 1 - eps |omega|^2 and x = zeta / sqrt(mu fac), z = B(x, eps xbar)^(-1/4) x
    and w = omega sqrt(N(z, -eps zbar)^mu / fac).  Both come from the one
    `jtsys.jordan_frame` of x: I + eps Z Z* = (I - eps X X*)^-1, so
    N(z, -eps zbar) = 1 / prod(lam).  For eps = +1, fac <= 0 or a spectral
    value x_j >= 1 (in the frame) is outside Phi's image: DomainError.  The
    modulus of w is exp(log|omega| + mu log N / 2 - log fac / 2), so N^mu is
    never formed and w = 0 at omega = 0."""
    zeta, omega = split_vec(H, targets)
    fac = 1.0 - eps * np.abs(omega) ** 2
    if np.any(fac <= 0):
        raise DomainError("target fiber coordinate must have modulus < 1")
    lam, _, _, z = jtsys.jordan_frame(H.domain, zeta / np.sqrt(H.mu * fac)[..., None], eps)
    with np.errstate(divide="ignore"):  # log 0 = -inf at omega = 0
        log_w = np.log(np.abs(omega)) - 0.5 * (H.mu * np.sum(np.log(lam), axis=-1)
                                                + np.log(fac))
    return _join(z, _phase(omega) * np.exp(log_w))


def psi_map_vec(H: HartogsSpec, pts: np.ndarray) -> np.ndarray:
    """Darboux map for the domain form, batched over member points."""
    return _darboux_map(H, pts, -1)


def phi_map_vec(H: HartogsSpec, pts: np.ndarray) -> np.ndarray:
    """Darboux map for the dual form, batched; defined on all of C^(n+1)."""
    return _darboux_map(H, pts, 1)


def psi_inverse(H: HartogsSpec, targets) -> np.ndarray:
    """Preimages under Psi of packed points (..., n+1) of C^(n+1) (Psi is onto)."""
    return _darboux_inverse(H, targets, -1)


def phi_inverse(H: HartogsSpec, targets) -> np.ndarray:
    """Preimages under Phi of packed points (..., n+1) of its image
    {|omega| < 1 and xi_j^2 < mu (1 - |omega|^2)}; DomainError outside it."""
    return _darboux_inverse(H, targets, 1)


def lift_embedding(D: DomainSpec, pts: np.ndarray) -> np.ndarray:
    """Lift the frame embedding of the polydisc Delta^m into Omega (m <= r) to
    the Hartogs level, (lam, w) -> (frame_point(D, lam), w), batched; it
    preserves the generic norm, hence M."""
    pts = np.asarray(pts, dtype=complex)
    return _join(jtsys.frame_point(D, pts[..., :-1]), pts[..., -1])


def hartogs_isotropy_apply(H: HartogsSpec, tau, pts: np.ndarray) -> np.ndarray:
    """Lifted isotropy action (z, w) -> (tau z, w), batched, w taking the
    leading shape of tau z; fixes the generic norm."""
    z, w = split_vec(H, pts)
    moved = jtsys.isotropy_apply(H.domain, tau, z)
    return _join(moved, np.broadcast_to(w, moved.shape[:-1]))


def unit_ball_darboux(pts: np.ndarray) -> np.ndarray:
    """The classical ball map zeta -> zeta / sqrt(1 - |zeta|^2), batched."""
    pts = np.asarray(pts, dtype=complex)
    return pts / np.sqrt(1.0 - np.sum(np.abs(pts) ** 2, axis=-1))[..., None]


# ---------------------------------------------------------------------------
# verification samplers


def sample_base_points(D: DomainSpec, count: int, rng: np.random.Generator,
                       lam_max: float = 0.55) -> np.ndarray:
    """Interior points of Omega with all spectral eigenvalues < lam_max."""
    if D.kind == jtsys.KIND_POLYDISC:
        radius = lam_max * np.sqrt(rng.uniform(size=(count, D.n)))
        return radius * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(count, D.n)))
    g = rng.normal(size=(count, D.n)) + 1j * rng.normal(size=(count, D.n))
    top = spectral_norm(D, g)
    scale = lam_max * rng.uniform(size=count) ** (1.0 / (2 * D.n)) / top
    return g * scale[:, None]


# Rounds of the member samplers' rejection loop before ConvergenceError.
_MAX_SAMPLER_ROUNDS = 1000
# Norm cap of the heavy-tailed points.
_HEAVY_NORM_CAP = 10.0


def _sample_members(H: HartogsSpec, count: int, rng: np.random.Generator,
                    lam_max: float, w_frac: float) -> np.ndarray:
    """Rejection loop of both member samplers: base points of Omega below
    lam_max, and |w|^2 uniform up to w_frac * N^mu, drawn in log space as
    2 log|w| = log(w_frac * uniform) + mu log N.

    Only draws up to lam_max = 1 can reach the boundary of Omega.  Below it
    every base point lies in Omega by construction, and the one Gram-pivot
    pass of `log_norm` both decides membership (-inf off Omega, the
    predicate of `membership` on the same pivots) and gives log N, so the
    loop draws once.  At lam_max = 1 the draws go through `membership` first,
    whose rows the benchmark's traced run counts as the sampler's tested
    rows."""
    out = np.empty((count, H.domain.n + 1), dtype=complex)
    filled = 0
    for _ in range(_MAX_SAMPLER_ROUNDS):
        if filled == count:
            break
        z = sample_base_points(H.domain, count - filled, rng, lam_max)
        if lam_max >= 1.0:
            z = z[membership(H.domain, z)]
        log_n = log_norm(H.domain, z, 1)
        inside = log_n > -np.inf
        if not inside.all():
            z, log_n = z[inside], log_n[inside]
        with np.errstate(divide="ignore"):  # a uniform 0 draws w = 0
            log_w2 = np.log(w_frac * rng.uniform(size=len(z))) + H.mu * log_n
        w = np.exp(0.5 * log_w2) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(z)))
        out[filled:filled + len(z), :-1] = z
        out[filled:filled + len(z), -1] = w
        filled += len(z)
    if filled < count:
        raise ConvergenceError(f"member sampler kept {filled} of {count} points "
                               f"in {_MAX_SAMPLER_ROUNDS} rounds")
    return out


def sample_member_points(H: HartogsSpec, count: int, rng: np.random.Generator,
                         lam_max: float = 0.55, w_frac: float = 0.40) -> np.ndarray:
    """Member points packed as (count, n+1), kept interior for stable closed forms.

    Spectral eigenvalues stay below lam_max and |w|^2 at most w_frac * N^mu,
    so G = N^mu - |w|^2 >= (1 - w_frac) N^mu: a bound relative to N^mu that
    holds at every mu, where N^mu itself may underflow.  Below lam_max = 1 no
    draw can reach the boundary, so the membership filter, read off the one
    `log_norm` pass, keeps every draw.
    """
    return _sample_members(H, count, rng, lam_max, w_frac)


def sample_member_points_full(H: HartogsSpec, count: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Member points covering the whole domain, spectral eigenvalues up to 1.

    Base points come from `sample_base_points` with lam_max = 1, where draws
    can reach the boundary; the `membership` filter drops the rare draw whose
    top eigenvalue rounds onto it.
    """
    return _sample_members(H, count, rng, 1.0, 1.0)


def sample_heavy_points(m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Heavy-tailed points of C^m: per-coordinate Cauchy-like radii, the norm
    capped at `_HEAVY_NORM_CAP`."""
    radius = np.abs(np.tan(0.5 * np.pi * rng.uniform(size=(count, m))))
    pts = radius * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(count, m)))
    norms = np.linalg.norm(pts, axis=-1)
    big = norms > _HEAVY_NORM_CAP
    if np.any(big):
        shrink = _HEAVY_NORM_CAP * rng.uniform(size=int(np.sum(big))) ** (1.0 / (2 * m))
        pts[big] *= (shrink / norms[big])[:, None]
    return pts


def sample_ball_points(m: int, count: int, rng: np.random.Generator,
                       radius: float) -> np.ndarray:
    """Uniform points of the real 2m-ball of the given radius, as C^m vectors."""
    g = rng.normal(size=(count, 2 * m))
    g /= np.linalg.norm(g, axis=-1)[:, None]
    g *= radius * rng.uniform(size=count)[:, None] ** (1.0 / (2 * m))
    return g[:, 0::2] + 1j * g[:, 1::2]
