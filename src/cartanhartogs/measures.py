"""Volumes, the Gamma-product constant F(s), the Selberg-type integral, and the
duality equation F(mu)/F(0) = mu^n/(n+1).

F(s) is the ordered-simplex integral

    F(s) = int_{1 > l_1 > ... > l_r > 0} prod_j (1 - l_j^2)^s l_j^(2b+1)
           prod_{j<k} (l_j^2 - l_k^2)^a  dl,

evaluated in closed form through log-Gamma (`math.lgamma`),

    F(s) = 1/(2^r r!) prod_{j=1}^r  G(b+1+(j-1)a/2) G(s+1+(j-1)a/2) G(ja/2+1)
                                    / (G(s+b+2+(r+j-2)a/2) G(a/2+1)).

F(mu)/F(0) and the rank-one flat volume are ratios Gamma(x + k)/Gamma(x) for
integer shifts k only, formed as products of rational factors, so neither
cancels at large mu.

Flat and dual volumes are Monte Carlo estimates of Lebesgue measure (the mean
of box * 1{hit}) and of the integral of the closed-form dual Hessian
determinant, two integrands of the one estimator `_mc_mean`.  The draws are
fixed per (seed, chunk): each chunk of `_CHUNK` rows is drawn whole, and the
integrand then runs on blocks of `_BLOCK` = 2^13 rows, so its temporaries stay
in cache; the results repeat bit for bit on one numpy build.  Both integrands
take the log of the generic norm from `jtsys.log_norm` (the hit test
`ch_member_vec` and `forms.det_dual_hessian`), so a block makes no per-point
LAPACK call and forms no power of N.  Each integrand assembles its block
coordinate-major, one contiguous row (N,) per coordinate, and hands the
kernels the transposed view (N, n+1): `jtsys.gram_pivots` reads the entries
of j(z) as rows across the batch, and the products over coordinates (the
dual weight, `log_norm`'s product of pivots) run across whole rows instead
of along a short contiguous axis.  The draws stay row-major, the generator's
order.  Every kernel on this path is row-exact (real IEEE arithmetic and
elementwise float64 transcendentals, no complex multiply), so a row's value
is the same bits on row-major points, in any block and at any alignment.
Both integrands are invariant under the maximal torus of the isotropy group
and depend on w only through |w|, so cos and sin are taken only of the
phases that survive the torus: none on the flat side, (p-1)(q-1) on the dual
side of type-I, none on the polydisc or in rank one (`_torus_reduced_points`),
where no phase is drawn either.
Absolute volume formulas carry the boundary constant int_F Theta, which is
never computed; every tested quantity is either a polydisc/rank-one case
with an analytic value or a dual/flat ratio in which the constant cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from math import lgamma
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .forms import det_dual_hessian
from .hartogs import HartogsSpec, ch_member_vec
from .jtsys import (KIND_POLYDISC, DomainSpec, coordinate_entries, log_norm,
                     log_norm_derivatives, singular_values)

_CHUNK = 1 << 16
# rows per integrand call: a block's temporaries fit in a core's L2 cache
_BLOCK = 1 << 13
# the tensor quadrature of F(s) is built for ranks 1..SELBERG_MAX_RANK
SELBERG_MAX_RANK = 3
# first resolution and resolution budget of `selberg_quadrature_auto`
_QUAD_START = 40
_QUAD_MAX_RESOLUTION = 1500
# bisection width of `duality_root`
_ROOT_TOL = 1e-11
# random points and seed of `fit_genus`
_GENUS_FIT_POINTS = 12
_GENUS_FIT_SEED = 20


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo value with its standard error and sample count."""

    value: float
    standard_error: float
    samples: int


def log_capital_f(r: int, a: float, b: float, s: float) -> float:
    if s < 0:
        raise DomainError("s must be nonnegative")
    total = -r * math.log(2.0) - lgamma(r + 1)
    for j in range(1, r + 1):
        total += lgamma(b + 1 + (j - 1) * a / 2)
        total += lgamma(s + 1 + (j - 1) * a / 2)
        total += lgamma(j * a / 2 + 1)
        total -= lgamma(s + b + 2 + (r + j - 2) * a / 2)
        total -= lgamma(a / 2 + 1)
    return total


def capital_f(D: DomainSpec, s: float) -> float:
    """The domain constant F(s) via log-Gamma (no raw Gamma overflow)."""
    return math.exp(log_capital_f(D.r, D.a, D.b, s))


def capital_f_ratio(D: DomainSpec, mu: float) -> float:
    """F(mu)/F(0).  The Gamma arguments of F(s) that hold s differ by the
    integer k = b + 1 + (r-1)a/2 = n/r, so the ratio is

        prod_j Gamma(c_j + k) Gamma(mu + c_j) / (Gamma(c_j) Gamma(mu + c_j + k))
          = prod_j prod_{i<k} (c_j + i) / (mu + c_j + i),

    c_j = 1 + (j-1)a/2: a product of r k rational factors, each rounded once,
    none above 1, so no partial product overflows."""
    k = D.n // D.r
    return math.prod((c + i) / (mu + c + i)
                     for c in (1 + (j - 1) * D.a / 2 for j in range(1, D.r + 1))
                     for i in range(k))


@lru_cache(maxsize=16)
def _gauss01(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (0, 1), cached per resolution
    (`selberg_quadrature_auto` visits six) and shared by every caller, hence
    read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(resolution)
    out = 0.5 * (nodes + 1.0), 0.5 * weights
    for a in out:
        a.flags.writeable = False
    return out


def selberg_quadrature(r: int, a: float, b: float, s: float, resolution: int) -> float:
    """Tensor Gauss-Legendre value of the ordered-simplex integral F(s).

    The ordering map l_j = u_1 ... u_j (u in (0,1)^r) carries the simplex to the
    cube with Jacobian prod_i u_i^(r-i).
    """
    if r < 1 or r > SELBERG_MAX_RANK:
        raise DomainError(f"supported ranks are 1..{SELBERG_MAX_RANK}")
    nodes, weights = _gauss01(resolution)
    grids = np.meshgrid(*([nodes] * r), indexing="ij", sparse=True)
    wgrids = np.meshgrid(*([weights] * r), indexing="ij", sparse=True)
    lam = []
    running = 1.0
    for j in range(r):
        running = running * grids[j]
        lam.append(running)
    integrand = 1.0
    for j in range(r):
        integrand = integrand * (1.0 - lam[j] ** 2) ** s * lam[j] ** (2 * b + 1)
        integrand = integrand * grids[j] ** (r - 1 - j)  # ordering-map Jacobian
        integrand = integrand * wgrids[j]
    for j in range(r):
        for k in range(j + 1, r):
            integrand = integrand * (lam[j] ** 2 - lam[k] ** 2) ** a
    return float(np.sum(integrand))


def selberg_quadrature_auto(r: int, a: float, b: float, s: float, rtol: float) -> float:
    """Double the resolution from `_QUAD_START` until two successive estimates
    agree to rtol; ConvergenceError past `_QUAD_MAX_RESOLUTION`."""
    res = _QUAD_START
    prev = selberg_quadrature(r, a, b, s, res)
    while 2 * res <= _QUAD_MAX_RESOLUTION:
        res *= 2
        cur = selberg_quadrature(r, a, b, s, res)
        if abs(cur - prev) <= rtol * abs(cur):
            return cur
        prev = cur
    raise ConvergenceError("quadrature resolution budget exhausted before agreement")


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


def dual_flat_ratio_formula(H: HartogsSpec) -> float:
    """mu^n F(0) / ((n+1) F(mu)): the dual/flat volume ratio, boundary constant
    cancelled."""
    d = H.domain
    return H.mu ** d.n / ((d.n + 1) * capital_f_ratio(d, H.mu))


def _mc_mean(samples: int, seed: int, draw, integrand) -> MCEstimate:
    """Mean and standard error (sample SD / sqrt(samples)) of the integrand.

    Chunk k of at most `_CHUNK` rows is drawn whole, draw(rng, size) with a
    generator keyed by (seed, k), so the draws do not depend on the blocking;
    draw may return views of buffers it reuses for every chunk.
    integrand(*block) maps `_BLOCK` rows of those arrays, as drawn (row-major
    views), to their values, which fill one buffer reused by every chunk; it
    may lay the block out coordinate-major for its kernels.  The chunk sums
    are taken over the whole chunk and added compensated.  DomainError when
    samples < 1."""
    samples = int(samples)
    if samples < 1:
        raise DomainError("Monte Carlo needs samples >= 1")
    vals = np.empty(_CHUNK)
    sums, sqsums = [], []
    for index, start in enumerate(range(0, samples, _CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), index]))
        size = min(_CHUNK, samples - start)
        drawn = draw(rng, size)
        for lo in range(0, size, _BLOCK):
            hi = min(lo + _BLOCK, size)
            vals[lo:hi] = integrand(*(a[lo:hi] for a in drawn))
        chunk = vals[:size]
        sums.append(float(np.sum(chunk)))
        sqsums.append(float(np.sum(chunk**2)))
    mean = math.fsum(sums) / samples
    var = max(math.fsum(sqsums) / samples - mean * mean, 0.0)
    return MCEstimate(mean, math.sqrt(var / samples), samples)


def mc_volume_flat(H: HartogsSpec, samples: int, seed: int) -> MCEstimate:
    """Lebesgue volume of M as the mean of box * 1{hit} over uniform draws
    from the box [-1,1]^(2n) x {|w| <= 1} (hits counted by `ch_member_vec`);
    its standard error is box sqrt(p (1 - p) / samples) for the hit ratio p.

    M is a Hartogs domain, invariant under the torus circle w -> e^(i alpha) w,
    so a hit depends on w only through |w|: w is placed at its radius sqrt(u)
    on the real axis, which has the law of |w| for w uniform in the unit
    disc, and no phase is drawn or taken.  `volume` is blind to a slip that
    broke this torus invariance; `equivariance` is the family that would
    catch one."""
    d = H.domain
    box = 4.0 ** d.n * math.pi
    bufs = (np.empty((_CHUNK, d.n)), np.empty((_CHUNK, d.n)), np.empty(_CHUNK))

    def draw(rng: np.random.Generator, size: int) -> tuple:
        # uniform(-1, 1), uniform(-1, 1), uniform(), bit for bit
        re, im, u = (b[:size] for b in bufs)
        for part in (re, im):
            rng.random(out=part)
            part *= 2.0
            part -= 1.0
        rng.random(out=u)
        return re, im, u

    def integrand(re, im, u) -> np.ndarray:
        pts = np.empty((d.n + 1, len(u)), dtype=complex)  # coordinate-major
        pts.real[:-1] = re.T
        pts.imag[:-1] = im.T
        pts.real[-1] = np.sqrt(u)
        pts.imag[-1] = 0.0
        return box * ch_member_vec(H, pts.T)

    return _mc_mean(samples, seed, draw, integrand)


def _torus_phase_table(D: DomainSpec) -> np.ndarray:
    """Rows (k, k_i0, k_0j, k_00), shape (c, 4): coordinate k sits at entry
    (i, j) of j(z) with i, j >= 1, and entries (i, 0), (0, j) and (0, 0) carry
    the coordinates k_i0, k_0j and k_00.  Type-I has (p-1)(q-1) rows; the
    polydisc and rank one have none."""
    at = {(int(i), int(j)): k for k, (i, j) in enumerate(zip(*coordinate_entries(D)))}
    rows = [(k, at[i, 0], at[0, j], at[0, 0]) for (i, j), k in at.items()
            if i and j and (i, 0) in at and (0, j) in at and (0, 0) in at]
    return np.array(rows, dtype=np.intp).reshape(-1, 4)


def _torus_reduced_points(table: np.ndarray, rho: np.ndarray,
                          theta: np.ndarray | None) -> np.ndarray:
    """The coordinate-major points (n+1, N) with moduli rho (n+1, N) and the
    phases theta (N, n+1) as drawn, moved by the torus element
    j(z) -> U j(z) V*, U = diag(e^(-i(theta_i0 - theta_00))),
    V = diag(e^(i theta_0j)), with w turned by e^(-i theta_w): every
    coordinate is the real rho except those of `_torus_phase_table`, which take
    rho e^(i phi), phi = theta_ij - theta_i0 - theta_0j + theta_00.  Only those
    rows pay for cos and sin, and theta is read only through the table (None
    where it is empty), one whole row of its transpose at a time."""
    pts = np.empty(rho.shape, dtype=complex)
    pts.real = rho
    pts.imag = 0.0
    if len(table):
        rows = theta.T
        for k, i0, j0, c in table.tolist():
            phi = rows[k] - rows[i0] - rows[j0] + rows[c]
            pts.real[k] = rho[k] * np.cos(phi)
            pts.imag[k] = rho[k] * np.sin(phi)
    return pts


def _dual_integrand(H: HartogsSpec, table: np.ndarray, t: np.ndarray,
                    theta: np.ndarray | None = None) -> np.ndarray:
    """det(Hess phi*) at the `_torus_reduced_points` of rho = t/(1-t), times
    the importance weight (2 pi)^(n+1) prod rho/(1-t)^2, for rows of the draws
    t and theta (N, n+1); theta is None where no phase survives.  t is
    transposed once, so 1/(1-t), rho and the weight are formed on contiguous
    coordinate rows and the product runs across them."""
    t = np.ascontiguousarray(t.T)
    inv = 1.0 / (1.0 - t)
    rho = t * inv
    weight = (2.0 * np.pi) ** len(t) * np.prod(rho * inv * inv, axis=0)
    del inv  # not held while the determinant runs
    return det_dual_hessian(H, _torus_reduced_points(table, rho, theta).T) * weight


def mc_volume_dual(H: HartogsSpec, samples: int, seed: int) -> MCEstimate:
    """Dual volume int_{C^(n+1)} det(Hess phi*) dLeb by importance sampling.

    Each complex coordinate is drawn through rho = t/(1-t), t uniform on [0,1),
    and a phase theta uniform on [0, 2 pi), which bounds the weighted integrand
    for all supported mu.  The integrand is invariant under the maximal torus
    of the isotropy group, j(z) -> diag(e^(i alpha)) j(z) diag(e^(-i beta))
    (Loos 1977; Faraut-Koranyi 1990), and depends on w only through |w|, so it
    is evaluated at the drawn point moved by one such element
    (`_torus_reduced_points`): cos and sin are taken of the (p-1)(q-1) phases
    that survive on type-I and of none on the polydisc, in rank one or for w.
    Where none survives, theta is not drawn at all: t is the chunk's first
    draw, so its bits do not depend on it.
    `volume` evaluates the integrand at reduced points only, so it cannot see
    a slip that breaks this invariance; `equivariance` is the family that
    would catch one.
    """
    m = H.domain.n + 1
    table = _torus_phase_table(H.domain)
    t_buf = np.empty((_CHUNK, m))
    theta_buf = np.empty((_CHUNK, m)) if len(table) else None

    def draw(rng: np.random.Generator, size: int) -> tuple:
        # uniform() and uniform(0, 2 pi), bit for bit; theta only where a
        # phase survives
        t = t_buf[:size]
        rng.random(out=t)
        if theta_buf is None:
            return (t,)
        theta = theta_buf[:size]
        rng.random(out=theta)
        theta *= 2 * np.pi
        return t, theta

    return _mc_mean(samples, seed, draw, partial(_dual_integrand, H, table))


def duality_gap(D: DomainSpec, mu: float) -> float:
    """g(mu) = F(mu)/F(0) - mu^n/(n+1); strictly decreasing in mu."""
    if not mu > 0:
        raise DomainError("mu must be positive")
    return capital_f_ratio(D, mu) - mu ** D.n / (D.n + 1)


def duality_root(D: DomainSpec) -> float:
    """The unique positive solution of F(mu)/F(0) = mu^n/(n+1), by bisection
    on [1e-12, (n+1)^(1/n) + 1].

    The bracket always changes sign: F(mu)/F(0) <= 1 < hi^n/(n+1) at the top,
    and the gap at 1e-12 is F(1e-12)/F(0) - 1e-12^n/(n+1) > 0.
    """
    lo = 1e-12
    hi = (D.n + 1.0) ** (1.0 / D.n) + 1.0
    while hi - lo > _ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if duality_gap(D, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class GennaioResult(NamedTuple):
    value: float
    bound: float
    passed: bool
    equality: bool


def gennaio_check(D: DomainSpec) -> GennaioResult:
    """F(1)/F(0) = prod_j (1+(j-1)a/2)/(b+2+(r+j-2)a/2) <= 1/(n+1), equality
    exactly in rank one."""
    value = 1.0
    for j in range(1, D.r + 1):
        value *= (1 + (j - 1) * D.a / 2) / (D.b + 2 + (D.r + j - 2) * D.a / 2)
    bound = 1.0 / (D.n + 1)
    consistent = abs(value - capital_f_ratio(D, 1.0)) <= 1e-12 * value
    passed = consistent and value <= bound * (1.0 + 1e-12)
    equality = abs(value - bound) <= 1e-12 * bound
    return GennaioResult(value, bound, passed, equality)


def fit_genus(D: DomainSpec) -> float:
    """Fit gamma from det(Hess_z log N(z, -zbar)) = N(z, -zbar)^(-gamma).

    Averages the log-ratio over moderate random points (log N* kept away from
    zero).  The Hessian is the Jordan-data closed form of
    `jtsys.log_norm_derivatives`, which holds no genus, so the fit
    adjudicates the genus value to rounding.
    """
    rng = np.random.default_rng(_GENUS_FIT_SEED)
    g = (rng.normal(size=(_GENUS_FIT_POINTS, D.n))
         + 1j * rng.normal(size=(_GENUS_FIT_POINTS, D.n)))
    top = singular_values(D, g)[:, 0]
    z = g * (rng.uniform(0.8, 2.0, size=_GENUS_FIT_POINTS) / top)[:, None]
    dets = np.linalg.det(log_norm_derivatives(D, z, sign=-1)[1]).real
    lognd = log_norm(D, z, -1)
    return float(np.mean(-np.log(dets) / lognd))
