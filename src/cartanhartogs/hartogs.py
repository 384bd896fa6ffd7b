"""Cartan-Hartogs domains, their symplectic duals, and the two global Darboux maps.

The domain M is {(z, w) in Omega x C : |w|^2 < N(z, zbar)^mu} with Kaehler
potential phi = -log(N^mu - |w|^2).  Its dual carries the everywhere-defined
potential phi* = log(N(z, -zbar)^mu + |w|^2) on C^(n+1); flipping the sign in
B(z, +/-zbar) turns one into the other.  With eps = -1 on the domain and +1 on
the dual, u = N(z, -eps zbar)^mu and G = u + eps |w|^2, the map

    (z, w) -> G^(-1/2) (sqrt(mu u) B(z, -eps zbar)^(-1/4) z, w)

pulls the flat form back to the domain form (Psi, eps = -1) and to the dual
form (Phi, eps = +1); `potential_field(H, dual)` is eps log G.  A point is a
packed complex vector of length n+1 with w last; every map, potential and
membership test takes a packed array of shape (..., n+1) and works on all
leading axes at once.  Both maps invert in closed form through the same Jordan
kernel with the sign flipped once more (spectral calculus of B(x, +/-xbar):
Loos 1977; Faraut-Koranyi 1990), see `_darboux_inverse`.

`ch_member_vec` is the one membership test of M; the capacity ball check and
the Monte Carlo flat volume both count its hits.  `lift_embedding` carries
points of the Hartogs domain over Delta^m into M along the canonical frame of
`jtsys.frame_point`, the hereditary embedding the maps must commute with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jtsys
from .errors import ConvergenceError, DomainError, ShapeError
from .jtsys import DomainSpec, b_quarter_power_on_z, membership, norm_self, singular_values
from .realcoords import to_complex


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


def _join(zeta: np.ndarray, omega: np.ndarray) -> np.ndarray:
    return np.concatenate([zeta, omega[..., None]], axis=-1)


def fiber_gap_vec(H: HartogsSpec, pts: np.ndarray) -> np.ndarray:
    """g = N(z, zbar)^mu - |w|^2, positive exactly on the open domain.

    Where N <= 0 the fractional power is undefined and the gap is -inf.
    """
    z, w = split_vec(H, pts)
    nbase = norm_self(H.domain, z)
    good = nbase > 0
    nmu = np.where(good, np.where(good, nbase, 1.0) ** H.mu, -np.inf)
    return nmu - np.abs(w) ** 2


def ch_member_vec(H: HartogsSpec, pts: np.ndarray) -> np.ndarray:
    """True where (z, w) lies in M: z in Omega and |w|^2 < N(z, zbar)^mu.
    The fiber gap is taken on the base members only."""
    z, _ = split_vec(H, pts)
    inside = np.asarray(membership(H.domain, z))
    inside[inside] = fiber_gap_vec(H, np.asarray(pts)[inside]) > 0
    return inside


def potential_field(H: HartogsSpec, dual: bool = False):
    """phi = -log(N^mu - |w|^2) as a batched field on the open domain, or with
    dual=True phi* = log(N(z, -zbar)^mu + |w|^2), smooth on all of C^(n+1):
    eps log G with eps = -1 on the domain and +1 on the dual."""
    eps = 1 if dual else -1

    def field(pts: np.ndarray) -> np.ndarray:
        z, w = split_vec(H, pts)
        return eps * np.log(norm_self(H.domain, z, sign=-eps) ** H.mu + eps * np.abs(w) ** 2)

    return field


def _darboux_map(H: HartogsSpec, pts: np.ndarray, eps: int) -> np.ndarray:
    """G^(-1/2) (sqrt(mu u) B(z, -eps zbar)^(-1/4) z, w) with u = N(z, -eps zbar)^mu
    and G = u + eps |w|^2: Psi at eps = -1, Phi at eps = +1."""
    z, w = split_vec(H, pts)
    u = norm_self(H.domain, z, sign=-eps) ** H.mu
    g = u + eps * np.abs(w) ** 2
    zeta = np.sqrt(H.mu * u / g)[..., None] * b_quarter_power_on_z(H.domain, z, -eps)
    return _join(zeta, w / np.sqrt(g))


def fiber_ratios(H: HartogsSpec, log_n: np.ndarray, w: np.ndarray, eps: int):
    """t = u / G and 1/G for u = N^mu = exp(mu log_n) and G = u + eps |w|^2,
    taken from log N so that u itself is never formed (it overflows on the
    dual side at large mu): t = 1 / (1 + eps |w|^2 e^(-log u)), 1/G = t e^(-log u)."""
    inv_u = np.exp(-H.mu * log_n)
    t = 1.0 / (1.0 + eps * np.abs(w) ** 2 * inv_u)
    return t, t * inv_u


def darboux_jacobian(H: HartogsSpec, pts: np.ndarray, dual: bool = False) -> np.ndarray:
    """Closed-form derivatives of Psi (or Phi with dual=True) at packed points
    (..., n+1): shape (..., 2(n+1), n+1), row a the complex image of real
    direction a in the interleaved order (x1, y1, ..., x_{n+1}, y_{n+1}).

    With J = j(z) and A = I + eps J J*, the map of `_darboux_map` is
    (sqrt(mu t) A^(-1/2) J, w / sqrt(G)) with t = u / G and u = (det A)^mu.
    One Hermitian eigendecomposition A = U diag(lam) U* gives

        d log u     = mu tr(A^-1 dA),   dA = eps (dJ J* + J dJ*),
        d A^(-1/2)  = U (Delta o U* dA U) U*,

    where Delta holds the divided differences of x^(-1/2) at the eigenvalues
    (Daleckii-Krein: Bhatia, Matrix Analysis (1997), Thm V.3.3; Higham,
    Functions of Matrices (2008), Sec. 3.2).  Coordinate j of z sits at one
    entry (a, b) of J, so dJ = c E_ab with c = 1 or i, and U* dJ J* U is the
    outer product of conj(U[a, :]) and conj((U* J)[:, b]).  Along z,
    d log t = (1 - t) d log u and d log(1/G) = -t d log u; along w,
    d log t = d log(1/G) = -2 eps Re(conj(w) c) / G.  The polydisc takes the
    same route on its diagonal J.
    """
    eps = 1 if dual else -1
    d = H.domain
    z, w = split_vec(H, pts)
    jz = jtsys.as_matrix(d, z)
    p, q = jz.shape[-2:]
    lam, u = np.linalg.eigh(np.eye(p) + eps * jz @ np.conj(np.swapaxes(jz, -1, -2)))
    k = np.conj(np.swapaxes(u, -1, -2)) @ jz
    root = np.sqrt(lam)
    inv_root = 1.0 / root
    # (x^(-1/2) - y^(-1/2)) / (x - y) without cancellation, f'(x) on the diagonal
    delta = -1.0 / (root[..., :, None] * root[..., None, :]
                    * (root[..., :, None] + root[..., None, :]))
    t, inv_g = fiber_ratios(H, np.sum(np.log(lam), axis=-1), w, eps)
    one_minus_t = eps * np.abs(w) ** 2 * inv_g
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
    inner[..., idx, idx] += (0.5 * one_minus_t[..., None] * dlog_u)[..., None] \
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
    b_z = jtsys.as_vector(d, u @ (inv_root[..., :, None] * k))   # A^(-1/2) J
    out[..., -2:, :-1] = 0.5 * (scale[..., None] * dlog_g)[..., None] * b_z[..., None, :]
    out[..., -2:, -1] = np.sqrt(inv_g)[..., None] * (c + 0.5 * w[..., None] * dlog_g)
    return out


def _darboux_inverse(H: HartogsSpec, targets, eps: int) -> np.ndarray:
    """Closed-form inverse of `_darboux_map` at the same eps: with
    fac = 1 - eps |omega|^2 and x = zeta / sqrt(mu fac), z = B(x, eps xbar)^(-1/4) x
    and w = omega sqrt(N(z, -eps zbar)^mu / fac).  For eps = +1, fac <= 0 or a
    spectral value x_j >= 1 (in the Jordan kernel) is outside Phi's image: DomainError."""
    zeta, omega = split_vec(H, targets)
    fac = 1.0 - eps * np.abs(omega) ** 2
    if np.any(fac <= 0):
        raise DomainError("target fiber coordinate must have modulus < 1")
    z = b_quarter_power_on_z(H.domain, zeta / np.sqrt(H.mu * fac)[..., None], eps)
    return _join(z, omega * np.sqrt(norm_self(H.domain, z, sign=-eps) ** H.mu / fac))


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
    """Lifted isotropy action (z, w) -> (tau z, w), batched; fixes the generic norm."""
    z, w = split_vec(H, pts)
    return _join(jtsys.isotropy_apply(H.domain, tau, z), w)


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
    top = singular_values(D, g)[:, 0]
    scale = lam_max * rng.uniform(size=count) ** (1.0 / (2 * D.n)) / top
    return g * scale[:, None]


# Rounds of the member samplers' rejection loop before ConvergenceError.
_MAX_SAMPLER_ROUNDS = 1000
# Least fiber gap G = N^mu - |w|^2 of an interior member point: the domain
# Hessian's entries grow like 1/G^2 (its ww entry is N^mu / G^2), and the floor
# bounds them, hence the rounding error of the darboux residual, far below the
# check's absolute tolerance.
_G_FLOOR = 1e-3
# Norm cap of the heavy-tailed points.
_HEAVY_NORM_CAP = 10.0


def _sample_members(H: HartogsSpec, count: int, rng: np.random.Generator,
                    lam_max: float, w_frac: float, g_floor: float) -> np.ndarray:
    """Rejection loop of both member samplers: base points of Omega below lam_max,
    |w|^2 uniform up to w_frac * N^mu, kept where N^mu - |w|^2 >= g_floor."""
    out = np.empty((count, H.domain.n + 1), dtype=complex)
    filled = 0
    for _ in range(_MAX_SAMPLER_ROUNDS):
        if filled == count:
            break
        z = sample_base_points(H.domain, count - filled, rng, lam_max)
        z = z[membership(H.domain, z)]
        nmu = norm_self(H.domain, z) ** H.mu
        w = np.sqrt(w_frac * rng.uniform(size=len(z)) * nmu) \
            * np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(z)))
        keep = nmu - np.abs(w) ** 2 >= g_floor
        got = int(np.sum(keep))
        out[filled:filled + got, :-1] = z[keep]
        out[filled:filled + got, -1] = w[keep]
        filled += got
    if filled < count:
        raise ConvergenceError(f"member sampler kept {filled} of {count} points "
                               f"in {_MAX_SAMPLER_ROUNDS} rounds")
    return out


def sample_member_points(H: HartogsSpec, count: int, rng: np.random.Generator,
                         lam_max: float = 0.55, w_frac: float = 0.40) -> np.ndarray:
    """Member points packed as (count, n+1), kept interior for stable stencils.

    |w|^2 is at most w_frac * N^mu and points with N^mu - |w|^2 < `_G_FLOOR`
    are rejected.  ConvergenceError when almost no draw meets the floor.
    """
    return _sample_members(H, count, rng, lam_max, w_frac, _G_FLOOR)


def sample_member_points_full(H: HartogsSpec, count: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Member points covering the whole domain, spectral eigenvalues up to 1.

    Base points come from `sample_base_points` with lam_max = 1; the membership
    filter only drops the rare draw whose top eigenvalue rounds onto the
    boundary.
    """
    return _sample_members(H, count, rng, 1.0, 1.0, -np.inf)


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
    return to_complex(g)
