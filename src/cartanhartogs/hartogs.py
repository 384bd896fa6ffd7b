"""Cartan-Hartogs domains, their symplectic duals, and the two global Darboux maps.

The domain M is {(z, w) in Omega x C : |w|^2 < N(z, zbar)^mu} with Kaehler
potential phi = -log(N^mu - |w|^2).  Its dual carries the everywhere-defined
potential phi* = log(N(z, -zbar)^mu + |w|^2) on C^(n+1).  The map

    Psi(z, w) = (N^mu - |w|^2)^(-1/2) (sqrt(mu N^mu) B(z, zbar)^(-1/4) z, w)

pulls the flat form back to the domain form, and

    Phi(z, w) = (N*^mu + |w|^2)^(-1/2) (sqrt(mu N*^mu) B(z, -zbar)^(-1/4) z, w)

with N* = N(z, -zbar) does the same for the dual form.  A point is a packed
complex vector of length n+1 with w last; every map, potential and membership
test takes a packed array of shape (..., n+1) and works on all leading axes
at once.  Both maps invert in closed form through the same Jordan kernel with
the sign flipped (spectral calculus of B(x, +/-xbar): Loos 1977;
Faraut-Koranyi 1990), see `psi_inverse` and `phi_inverse`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jtsys
from .errors import DomainError, ShapeError
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
    z, _ = split_vec(H, pts)
    return membership(H.domain, z) & (fiber_gap_vec(H, pts) > 0)


def potential_field(H: HartogsSpec):
    """phi = -log(N^mu - |w|^2) as a batched field on the open domain."""

    def phi(pts: np.ndarray) -> np.ndarray:
        return -np.log(fiber_gap_vec(H, pts))

    return phi


def dual_potential_field(H: HartogsSpec):
    """phi* = log(N(z, -zbar)^mu + |w|^2), smooth on all of C^(n+1)."""

    def phistar(pts: np.ndarray) -> np.ndarray:
        z, w = split_vec(H, pts)
        return np.log(norm_self(H.domain, z, sign=-1) ** H.mu + np.abs(w) ** 2)

    return phistar


def psi_map_vec(H: HartogsSpec, pts: np.ndarray) -> np.ndarray:
    """Darboux map for the domain form, batched over member points."""
    z, w = split_vec(H, pts)
    nmu = norm_self(H.domain, z) ** H.mu
    g = nmu - np.abs(w) ** 2
    zeta = np.sqrt(H.mu * nmu / g)[..., None] * b_quarter_power_on_z(H.domain, z, 1)
    return _join(zeta, w / np.sqrt(g))


def phi_map_vec(H: HartogsSpec, pts: np.ndarray) -> np.ndarray:
    """Darboux map for the dual form, batched; defined on all of C^(n+1)."""
    z, w = split_vec(H, pts)
    nmu = norm_self(H.domain, z, sign=-1) ** H.mu
    denom = nmu + np.abs(w) ** 2
    zeta = np.sqrt(H.mu * nmu / denom)[..., None] * b_quarter_power_on_z(H.domain, z, -1)
    return _join(zeta, w / np.sqrt(denom))


def psi_inverse(H: HartogsSpec, targets) -> np.ndarray:
    """Preimages under Psi of packed points (..., n+1) of C^(n+1) (Psi is onto).

    With x = zeta / sqrt(mu (1 + |omega|^2)), the base part is
    z = B(x, -xbar)^(-1/4) x, i.e. spectral values lambda_j = x_j / sqrt(1 + x_j^2),
    and w = omega sqrt(N(z, zbar)^mu / (1 + |omega|^2)).
    """
    zeta, omega = split_vec(H, targets)
    fac = 1.0 + np.abs(omega) ** 2
    z = b_quarter_power_on_z(H.domain, zeta / np.sqrt(H.mu * fac)[..., None], -1)
    return _join(z, omega * np.sqrt(norm_self(H.domain, z) ** H.mu / fac))


def phi_inverse(H: HartogsSpec, targets) -> np.ndarray:
    """Preimages under Phi of packed points (..., n+1) of its image
    {|omega| < 1 and xi_j^2 < mu (1 - |omega|^2)}.

    With x = zeta / sqrt(mu (1 - |omega|^2)), the base part is
    z = B(x, xbar)^(-1/4) x, i.e. spectral values lambda_j = x_j / sqrt(1 - x_j^2),
    and w = omega sqrt(N(z, -zbar)^mu / (1 - |omega|^2)).  A target outside the
    image raises DomainError: |omega| >= 1 here, a spectral value x_j >= 1 in
    the Jordan kernel.
    """
    zeta, omega = split_vec(H, targets)
    if np.any(np.abs(omega) >= 1.0):
        raise DomainError("target fiber coordinate must have modulus < 1")
    fac = 1.0 - np.abs(omega) ** 2
    z = b_quarter_power_on_z(H.domain, zeta / np.sqrt(H.mu * fac)[..., None], 1)
    return _join(z, omega * np.sqrt(norm_self(H.domain, z, sign=-1) ** H.mu / fac))


@dataclass(frozen=True)
class BaseEmbedding:
    """A generic-norm-preserving triple embedding between supported domains."""

    source: DomainSpec
    target: DomainSpec
    kind: str  # "rect-diagonal" | "zero-pad"


def polydisc_to_type1(p: int, q: int) -> BaseEmbedding:
    """Polydisc Delta^p into type-I(p, q) along the rectangular diagonal."""
    return BaseEmbedding(jtsys.make_domain(jtsys.KIND_POLYDISC, n=p),
                         jtsys.make_domain(jtsys.KIND_TYPE_I, p=p, q=q),
                         "rect-diagonal")


def polydisc_inclusion(m: int, n: int) -> BaseEmbedding:
    """Polydisc Delta^m into Delta^n by zero padding."""
    if m > n:
        raise ValueError("inclusion needs m <= n")
    return BaseEmbedding(jtsys.make_domain(jtsys.KIND_POLYDISC, n=m),
                         jtsys.make_domain(jtsys.KIND_POLYDISC, n=n),
                         "zero-pad")


def embed_base(E: BaseEmbedding, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != E.source.n:
        raise ShapeError(f"expected last axis {E.source.n}, got {z.shape}")
    if E.kind == "rect-diagonal":
        p, q = E.target.shape
        out = np.zeros(z.shape[:-1] + (p, q), dtype=complex)
        idx = np.arange(p)
        out[..., idx, idx] = z
        return out.reshape(z.shape[:-1] + (E.target.n,))
    out = np.zeros(z.shape[:-1] + (E.target.n,), dtype=complex)
    out[..., : E.source.n] = z
    return out


def lift_embedding(E: BaseEmbedding, pts: np.ndarray) -> np.ndarray:
    """Lift a base embedding to the Hartogs level, (z, w) -> (f(z), w), batched."""
    pts = np.asarray(pts, dtype=complex)
    return _join(embed_base(E, pts[..., :-1]), pts[..., -1])


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


def sample_member_points(H: HartogsSpec, count: int, rng: np.random.Generator,
                         lam_max: float = 0.55, w_frac: float = 0.40,
                         g_floor: float = 1e-3) -> np.ndarray:
    """Member points packed as (count, n+1), kept interior for stable stencils.

    |w|^2 is at most w_frac * N^mu and points with N^mu - |w|^2 < g_floor are
    rejected; the defaults keep finite differences at step 1e-5 well inside
    their accuracy budget.
    """
    out = np.empty((count, H.domain.n + 1), dtype=complex)
    filled = 0
    while filled < count:
        todo = count - filled
        z = sample_base_points(H.domain, todo, rng, lam_max)
        nmu = norm_self(H.domain, z) ** H.mu
        w = np.sqrt(w_frac * rng.uniform(size=todo) * nmu) \
            * np.exp(1j * rng.uniform(0, 2 * np.pi, size=todo))
        keep = nmu - np.abs(w) ** 2 >= g_floor
        got = int(np.sum(keep))
        out[filled:filled + got, :-1] = z[keep]
        out[filled:filled + got, -1] = w[keep]
        filled += got
    return out


def sample_member_points_full(H: HartogsSpec, count: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Member points covering the whole domain, spectral eigenvalues up to 1.

    Base points come from `sample_base_points` with lam_max = 1; the membership
    filter only drops the rare draw whose top eigenvalue rounds onto the
    boundary.
    """
    out = np.empty((count, H.domain.n + 1), dtype=complex)
    filled = 0
    while filled < count:
        todo = count - filled
        z = sample_base_points(H.domain, todo, rng, 1.0)
        z = z[membership(H.domain, z)]
        nmu = norm_self(H.domain, z) ** H.mu
        w = np.sqrt(rng.uniform(size=z.shape[0]) * nmu) \
            * np.exp(1j * rng.uniform(0, 2 * np.pi, size=z.shape[0]))
        got = z.shape[0]
        out[filled:filled + got, :-1] = z
        out[filled:filled + got, -1] = w
        filled += got
    return out


def sample_heavy_points(m: int, count: int, rng: np.random.Generator,
                        norm_cap: float = 10.0) -> np.ndarray:
    """Heavy-tailed points of C^m: per-coordinate Cauchy-like radii, norm-capped."""
    radius = np.abs(np.tan(0.5 * np.pi * rng.uniform(size=(count, m))))
    pts = radius * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(count, m)))
    norms = np.linalg.norm(pts, axis=-1)
    big = norms > norm_cap
    if np.any(big):
        shrink = norm_cap * rng.uniform(size=int(np.sum(big))) ** (1.0 / (2 * m))
        pts[big] *= (shrink / norms[big])[:, None]
    return pts


def sample_ball_points(m: int, count: int, rng: np.random.Generator,
                       radius: float) -> np.ndarray:
    """Uniform points of the real 2m-ball of the given radius, as C^m vectors."""
    g = rng.normal(size=(count, 2 * m))
    g /= np.linalg.norm(g, axis=-1)[:, None]
    g *= radius * rng.uniform(size=count)[:, None] ** (1.0 / (2 * m))
    return to_complex(g)
