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

Both volumes are exact spectral quadratures.  In polar coordinates
z = k(sum_j l_j e_j), k Haar in the isotropy group K (Faraut-Koranyi,
Analysis on Symmetric Cones, 1990), Lebesgue measure on Omega is
c prod_j l_j^(2b+1) prod_{j<k} (l_j^2 - l_k^2)^a dl dk, the weight of F(s).
The polar constant c is never computed: both volumes are taken over pi c,
and every tested quantity is F(mu), F(0) mu^n/(n+1) or their ratio.  In
x_j = l_j^2 the Vandermonde power prod (x_j - x_k)^a is a polynomial (a is 0
or 2), so each volume is a Jacobi weight times a polynomial, and a tensor
Gauss rule with a fixed node count per axis integrates it exactly, to
rounding (nodes by Golub-Welsch, Math. Comp. 23, 1969):

    flat  vol(M) / (pi c)         = F(mu)             Gauss-Jacobi in x,
                                                       weight (1-x)^mu x^b;
    dual  vol*(C^(n+1)) / (pi c)  = F(0) mu^n / (n+1)  Gauss-Legendre in
                                                       y = x/(1+x), v = |w|^2/G.

The integrands are symmetric in x, so the tensor rule is summed over sorted
node tuples with their multiplicities (`_polar_rule`).  The library is
evaluated at assembled points: each node is `jtsys.frame_point(D, sqrt x)`
moved by a Haar isotropy pair of its own, with a random phase for w, so a
slip that breaks K-invariance moves the value too.  The dual side takes
`forms.det_dual_hessian` at the node's full (z, w).  The flat side takes
N^mu / prod (1 - x_j)^mu from `jtsys.log_norm`.  What the flat side does not
test: the fiber length pi N^mu is integrated in closed form, so the fiber
half of `hartogs.ch_member_vec` is only probed at its boundary, with |w|^2
just inside and just outside N^mu at each node.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from math import lgamma
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .forms import det_dual_hessian
from .hartogs import HartogsSpec, ch_member_vec
from .jtsys import (DomainSpec, frame_point, isotropy_apply, log_norm,
                    log_norm_derivatives, random_isotropy, spectral_norm)

# relative offset delta of the flat side's fiber probes, |w|^2 = (1 -/+ delta) N^mu
_FIBER_PROBE = 1e-9
# random points and seed of `fit_genus`
_GENUS_FIT_POINTS = 12
_GENUS_FIT_SEED = 20


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
    """Gauss-Legendre nodes and weights on (0, 1), cached per resolution and
    shared by every caller, hence read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(resolution)
    out = 0.5 * (nodes + 1.0), 0.5 * weights
    for a in out:
        a.flags.writeable = False
    return out


def _gauss_jacobi01(m: int, alpha: float, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-node Gauss rule on (0, 1) for the weight (1-x)^alpha x^b, b a
    nonnegative integer, by Golub-Welsch: the nodes are the eigenvalues of
    the symmetric tridiagonal Jacobi matrix of the weight's orthogonal
    polynomials, the weights the squared first eigenvector components times
    the mass B(alpha+1, b+1).  Every entry is built from ratios no larger
    than 1, with no difference taken, and the mass is
    b! / prod_{i<=b} (alpha+1+i), a product of rational factors, so nothing
    cancels or overflows at large alpha."""
    k = np.arange(m, dtype=float)
    s = 2 * k + alpha + b
    diag = (k + b + 1) / (s + 1) * ((k + alpha + b + 1) / (s + 2))
    k, s = k[1:], s[1:]
    diag[1:] += k / s * ((k + alpha) / (s + 1))
    off = (np.sqrt(k / s * ((k + alpha) / s))
           * np.sqrt((k + b) / (s + 1) * ((k + alpha + b) / (s - 1))))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    mass = math.prod(i / (alpha + 1 + i) for i in range(1, b + 1)) / (alpha + 1)
    return nodes, mass * vectors[0] ** 2


def _polar_rule(nodes: np.ndarray, weights: np.ndarray, r: int,
                a: int) -> tuple[np.ndarray, np.ndarray]:
    """The r-fold tensor rule of the rule (nodes, weights), each node tuple
    weighted by prod_{j<k} (x_j - x_k)^a / (2^r r!), summed over sorted
    tuples: (x (T, r), w (T,)) with sum_t w_t f(x_t) equal to the full tensor
    sum for every symmetric f.  A tuple stands for its r! / prod(c!)
    orderings, c the multiplicities of its nodes; where a > 0 the tuples
    with a repeated node are left out, since the Vandermonde power vanishes
    on them."""
    tuples, share = [], []
    for idx in itertools.combinations_with_replacement(range(len(nodes)), r):
        counts = Counter(idx).values()
        if a and max(counts) > 1:
            continue
        tuples.append(idx)
        share.append(1.0 / math.prod(map(math.factorial, counts)))  # orderings / r!
    tuples = np.array(tuples, dtype=np.intp)
    x = nodes[tuples]
    w = np.array(share) * np.prod(weights[tuples], axis=1) / 2.0 ** r
    for j, k in itertools.combinations(range(r), 2):
        w *= (x[:, j] - x[:, k]) ** a
    return x, w


def _jacobi_polar_rule(r: int, a: int, b: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    """The tensor rule of F(s): Gauss-Jacobi with weight (1-x)^s x^b and
    floor(a(r-1)/2) + 1 nodes per axis.  The rest of the integrand,
    prod_{j<k} (x_j - x_k)^a, has degree a(r-1) in each x_j, so the rule
    integrates it exactly."""
    return _polar_rule(*_gauss_jacobi01(a * (r - 1) // 2 + 1, s, b), r, a)


def selberg_quadrature(r: int, a: int, b: int, s: float) -> float:
    """F(s) by the exact tensor Gauss-Jacobi rule in x_j = l_j^2
    (`_jacobi_polar_rule`), whose only closed-form input is the Jacobi mass
    B(s+1, b+1), a product of rational factors.  In rank one the rule is one
    node carrying that mass, so there it is the Beta closed form itself;
    rank one is pinned by the Gauss-Legendre route of
    `dual_volume_quadrature` and, in the tests, by the analytic rank-one
    volume."""
    if s < 0:
        raise DomainError("s must be nonnegative")
    return float(np.sum(_jacobi_polar_rule(r, a, b, s)[1]))


def _rotated_frame_points(D: DomainSpec, x: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """Points (T, n) with spectral values sqrt(x) (T, r): `frame_point`, each
    row moved by a fresh Haar isotropy pair drawn from rng."""
    return isotropy_apply(D, random_isotropy(D, rng, len(x)), frame_point(D, np.sqrt(x)))


def _packed(z: np.ndarray, log_w2: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Packed points (z, w) with |w|^2 = e^(log_w2) and w of phase theta."""
    pts = np.empty((len(z), z.shape[-1] + 1), dtype=complex)
    pts[:, :-1] = z
    with np.errstate(over="ignore"):  # |w| = inf where mu log N* leaves the float range
        modulus = np.exp(0.5 * log_w2)
    pts.real[:, -1] = modulus * np.cos(theta)
    pts.imag[:, -1] = modulus * np.sin(theta)
    return pts


def flat_volume_quadrature(H: HartogsSpec, rng: np.random.Generator) -> float:
    """vol(M) / (pi c) = F(mu) by the rule of `selberg_quadrature` at s = mu,
    through the library.  Each node weight is multiplied by
    N^mu / prod_j (1 - x_j)^mu = exp(mu (log_norm(z, +1) - log N)) at its
    rotated point z, log N = sum_j log(1 - x_j), and by the fiber probes
    1{(z, w) in M} 1{(z, w') not in M} of `ch_member_vec` at
    2 log|w| = mu log N + log(1 - delta), 2 log|w'| = mu log N + log(1 + delta),
    delta = `_FIBER_PROBE`, w and w' sharing a random phase; both probe sets
    go through one `ch_member_vec` call, which is row-exact, so the stack
    gives each probe the bits of its own call.  Each factor is 1 to rounding;
    a slip in either half of the membership test zeroes a node.  The Haar
    pairs, then the phases, come from rng."""
    d, mu = H.domain, H.mu
    x, weight = _jacobi_polar_rule(d.r, d.a, d.b, mu)
    z = _rotated_frame_points(d, x, rng)
    theta = rng.uniform(0.0, 2 * np.pi, size=len(x))
    log_n = np.sum(np.log1p(-x), axis=-1)
    factor = np.exp(mu * (log_norm(d, z, 1) - log_n))
    probes = np.concatenate([mu * log_n + math.log1p(delta)
                             for delta in (-_FIBER_PROBE, _FIBER_PROBE)])
    inside, outside = np.split(ch_member_vec(H, _packed(np.concatenate([z, z]), probes,
                                                        np.concatenate([theta, theta]))), 2)
    return float(np.sum(weight * factor * (inside & ~outside)))


def dual_volume_quadrature(H: HartogsSpec, rng: np.random.Generator) -> float:
    """vol*(C^(n+1)) / (pi c) = F(0) mu^n / (n+1), the integral of
    `det_dual_hessian` over C^(n+1), by Gauss-Legendre rules in
    y_j = x_j / (1 + x_j), floor((b + a(r-1))/2) + 2 nodes per axis, and in
    v = |w|^2 / G, floor(n/2) + 2 nodes.

    With N* = N(z, -zbar) = prod_j 1 / (1 - y_j) and |w|^2 = v N*^mu / (1 - v),
    the measure over pi c is prod_j y_j^b prod_{j<k} (y_j - y_k)^a N*^gamma dy
    times N*^mu dv / (1 - v)^2 (the phase of w and the rotation averaged),
    and the determinant times N*^(mu + gamma) / (1 - v)^2 is mu^n (1 - v)^n: a
    polynomial of degree b + a(r-1) in each y_j and n in v, so the rule is
    exact.  Each (y, v) node is a rotated frame point with a fresh Haar pair
    and w at log|w| = (log v - log(1 - v) + mu log N*) / 2 with a random phase,
    log N* = -sum_j log(1 - y_j); its weight is formed in log space,
    exp(log det + (mu + gamma) log N* - 2 log(1 - v)), so no N*^mu is formed.
    A node whose determinant underflows adds 0.  The Haar pairs, then the
    phases, come from rng."""
    d, mu = H.domain, H.mu
    y1, wy1 = _gauss01((d.b + d.a * (d.r - 1)) // 2 + 2)
    y, weight = _polar_rule(y1, wy1 * y1 ** d.b, d.r, d.a)
    v1, wv1 = _gauss01(d.n // 2 + 2)
    # every (y tuple, v) pair, y-major
    y, v = np.repeat(y, len(v1), axis=0), np.tile(v1, len(weight))
    weight = np.outer(weight, wv1).ravel()
    log_nd = -np.sum(np.log1p(-y), axis=-1)
    log_1v = np.log1p(-v)
    z = _rotated_frame_points(d, y / (1.0 - y), rng)
    theta = rng.uniform(0.0, 2 * np.pi, size=len(y))
    pts = _packed(z, np.log(v) - log_1v + mu * log_nd, theta)
    with np.errstate(divide="ignore"):  # log 0 = -inf where the determinant underflows
        log_det = np.log(det_dual_hessian(H, pts))
    return float(np.sum(weight * np.exp(log_det + (mu + d.genus) * log_nd - 2.0 * log_1v)))


def dual_flat_ratio_formula(H: HartogsSpec) -> float:
    """mu^n F(0) / ((n+1) F(mu)): the dual/flat volume ratio, boundary constant
    cancelled."""
    d = H.domain
    return H.mu ** d.n / ((d.n + 1) * capital_f_ratio(d, H.mu))


def duality_gap(D: DomainSpec, mu: float) -> float:
    """g(mu) = F(mu)/F(0) - mu^n/(n+1); strictly decreasing in mu."""
    if not mu > 0:
        raise DomainError("mu must be positive")
    return capital_f_ratio(D, mu) - mu ** D.n / (D.n + 1)


def duality_root(D: DomainSpec) -> float:
    """The unique positive solution of F(mu)/F(0) = mu^n/(n+1), by bisection
    on [1e-12, (n+1)^(1/n) + 1] until no float lies strictly inside the
    bracket, so that the two volumes agree at the root to rounding.

    The bracket always changes sign: F(mu)/F(0) <= 1 < hi^n/(n+1) at the top,
    and the gap at 1e-12 is F(1e-12)/F(0) - 1e-12^n/(n+1) > 0.
    """
    lo = 1e-12
    hi = (D.n + 1.0) ** (1.0 / D.n) + 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if duality_gap(D, mid) > 0:
            lo = mid
        else:
            hi = mid


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
    top = spectral_norm(D, g)
    z = g * (rng.uniform(0.8, 2.0, size=_GENUS_FIT_POINTS) / top)[:, None]
    # log det of the positive definite Hessian, twice the log of its Cholesky diagonal
    chol = np.linalg.cholesky(log_norm_derivatives(D, z, sign=-1)[1])
    log_dets = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real), axis=-1)
    return float(np.mean(-log_dets / log_norm(D, z, -1)))
