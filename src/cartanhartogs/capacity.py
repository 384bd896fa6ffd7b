"""Capacity certificates through explicit symplectic embedding inclusions.

A capacity c is monotone, conformal, and normalized to pi on both the unit
ball B^(2n+2)(1) and the unit cylinder Z^(2n+2)(1) (cylinder over the first
base coordinate).  The certificates below sandwich c(M, omega_0) and
c(C^(n+1), omega*) between an inner ball radius (checked by explicit point
construction) and an outer cylinder radius (checked by coordinate bounds):

* flat side, mu <= 1: B(1) sits inside M because 1 <= sum_j l_j^2 +
  prod_j (1 - l_j^2), and M sits inside Z(1) because |z_11| <= ||z||_op < 1
  on Omega (the first coordinate is bounded by the spectral norm, Loos 1977);
  certified interval [pi (1-eps)^2, pi].
* dual side: the image of Phi contains every sphere of radius c with
  c^2 < min(1, mu) (solved coordinatewise through the target system) and is
  contained in the cylinder of radius min(1, sqrt(mu)) by the spectral bound
  xi_j^2 < mu together with |omega| < 1; certified interval
  [pi (min(1, sqrt(mu)) - eps)^2, pi min(1, mu)].

For mu < 1 the two dual bounds pin mu pi; certificates carry a note that this
is reported as a certified interval only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .hartogs import (HartogsSpec, ch_member_vec, phi_map_vec,
                      sample_ball_points, sample_heavy_points,
                      sample_member_points_full, split_vec)
from .jtsys import KIND_POLYDISC, norm_self, singular_values


@dataclass(frozen=True)
class CheckOutcome:
    """Result of a sampled inclusion check with witnesses for failures."""

    passed: bool
    checked: int
    failures: list


@dataclass(frozen=True)
class CapacityCertificate:
    """A certified capacity interval [lower, upper] = [pi r_in^2, pi r_out^2]."""

    side: str
    r_in: float
    r_out: float
    lower: float
    upper: float
    sampled_points: int
    failures: list
    notes: tuple[str, ...] = field(default=())


def unit_ball_inequality(lams: np.ndarray) -> np.ndarray:
    """sum_j l_j^2 + prod_j (1 - l_j^2), which is >= 1 on [0, 1)^r; equality
    needs rank one or at most one nonzero eigenvalue."""
    lams = np.asarray(lams, dtype=float)
    return np.sum(lams**2, axis=-1) + np.prod(1.0 - lams**2, axis=-1)


def ball_in_hartogs(H: HartogsSpec, radius: float, samples: int, seed: int) -> CheckOutcome:
    """Sample the ball of the given radius and test membership in M."""
    rng = np.random.default_rng(seed)
    pts = sample_ball_points(H.domain.n + 1, samples, rng, radius)
    ok = ch_member_vec(H, pts)
    bad = pts[~ok]
    return CheckOutcome(bool(np.all(ok)), samples, [row.tolist() for row in bad[:16]])


def hartogs_in_cylinder(H: HartogsSpec, radius: float, samples: int, seed: int) -> CheckOutcome:
    """Sample member points of M and test |z_1| < radius (first base coordinate).

    The points fill Omega up to its boundary, so at radius 1 the test checks
    |z_11| <= ||z||_op < 1 rather than a bound built into the sampler.
    """
    rng = np.random.default_rng(seed)
    pts = sample_member_points_full(H, samples, rng)
    ok = np.abs(pts[:, 0]) < radius
    bad = pts[~ok]
    return CheckOutcome(bool(np.all(ok)), samples, [row.tolist() for row in bad[:16]])


def dual_image_bounds(H: HartogsSpec, samples: int, seed: int) -> CheckOutcome:
    """Push heavy-tailed points through Phi and check the image bounds
    xi_j^2 < mu and |omega| < 1."""
    rng = np.random.default_rng(seed)
    pts = sample_heavy_points(H.domain.n + 1, samples, rng)
    img = phi_map_vec(H, pts)
    zeta, omega = split_vec(H, img)
    xi = singular_values(H.domain, zeta)
    ok = np.all(xi**2 < H.mu, axis=-1) & (np.abs(omega) < 1.0)
    bad = pts[~ok]
    return CheckOutcome(bool(np.all(ok)), samples, [row.tolist() for row in bad[:16]])


def _canonical_frame(H: HartogsSpec, k: int) -> np.ndarray:
    d = H.domain
    frame = np.zeros((k, d.n), dtype=complex)
    if d.kind == KIND_POLYDISC:
        for j in range(k):
            frame[j, j] = 1.0
    else:
        p, q = d.shape
        for j in range(k):
            mat = np.zeros((p, q), dtype=complex)
            mat[j, j] = 1.0
            frame[j] = mat.reshape(d.n)
    return frame


def solve_target_system(H: HartogsSpec, c: float, delta: float, x: np.ndarray) -> np.ndarray:
    """Construct the packed point (z, w) with Phi(z, w) hitting spectral
    targets (x, delta).

    Requires c^2 < min(1, mu), 0 <= delta <= c, sum x_j^2 = c^2 - delta^2 and at
    most r spectral slots.  The solution is l_j^2 = x_j^2/(mu(1-delta^2) - x_j^2)
    on the canonical frame, |w|^2 = prod_j (1+l_j^2)^mu delta^2/(1-delta^2).
    """
    d = H.domain
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1 or len(x) > d.r:
        raise DomainError(f"at most r = {d.r} spectral targets")
    if not c**2 < min(1.0, H.mu):
        raise DomainError("need c^2 < min(1, mu)")
    if not 0.0 <= delta <= c:
        raise DomainError("need 0 <= delta <= c")
    if abs(float(np.sum(x**2)) + delta**2 - c**2) > 1e-9 * max(1.0, c**2):
        raise DomainError("need sum x_j^2 + delta^2 = c^2")
    feas = H.mu * (1.0 - delta**2) - x**2
    if np.any(feas <= 0):
        raise DomainError("infeasible target: some x_j^2 >= mu (1 - delta^2)")
    lam = np.sqrt(x**2 / feas)
    z = lam @ _canonical_frame(H, len(x))
    ndmu = float(norm_self(d, z, sign=-1)) ** H.mu
    w = delta * np.sqrt(ndmu / (1.0 - delta**2))
    return np.append(z, w)


def spectral_coords(H: HartogsSpec, vec: np.ndarray) -> tuple[np.ndarray, float]:
    """Spectral eigenvalues of the z-part (descending) and |w| of a packed point."""
    zeta, omega = split_vec(H, np.asarray(vec, dtype=complex))
    return singular_values(H.domain, zeta), float(np.abs(omega))


def _dual_sweeps(H: HartogsSpec, c: float, sweeps: int, seed: int,
                 tol: float = 1e-8) -> CheckOutcome:
    """Hit random spectral targets on the radius-c sphere and verify the
    round trip through Phi."""
    rng = np.random.default_rng(seed)
    failures = []
    for _ in range(sweeps):
        delta = c * rng.uniform() ** 2  # bias toward small delta, edge included below
        if rng.uniform() < 0.1:
            delta = c * (1.0 - 1e-6)
        k = int(rng.integers(1, H.domain.r + 1))
        direction = rng.uniform(size=k)
        direction /= np.sum(direction)
        x = np.sqrt((c**2 - delta**2) * direction)
        sol = solve_target_system(H, c, delta, x)
        img = phi_map_vec(H, sol[None])[0]
        xi, dv = spectral_coords(H, img)
        want = np.zeros(H.domain.r)
        want[:k] = np.sort(x)[::-1]
        err = max(float(np.max(np.abs(xi - want))), abs(dv - delta))
        if err > tol:
            failures.append({"c": c, "delta": delta, "x": x.tolist(), "err": err})
    return CheckOutcome(not failures, sweeps, failures[:16])


_DUAL_HEADLINE_NOTE = (
    "for mu < 1 the certified interval [pi (sqrt(mu)-eps)^2, pi mu] pins mu*pi; "
    "the stated mu^2*pi headline does not match the certified bounds and is "
    "reported, not asserted"
)


def capacity_certificate(H: HartogsSpec, side: str, samples: int = 20000,
                         seed: int = 11, eps: float = 1e-3) -> CapacityCertificate:
    """Certified capacity interval for the chosen side.

    flat-hartogs (mu <= 1): inner ball radius 1-eps, outer cylinder radius 1.
    dual: inner radius min(1, sqrt(mu)) - eps via target-system sweeps, outer
    radius min(1, sqrt(mu)) via the spectral image bounds.
    """
    if side == "flat-hartogs":
        if H.mu > 1.0:
            raise DomainError("flat-side certificate requires mu <= 1")
        r_in = 1.0 - eps
        ball = ball_in_hartogs(H, r_in, samples, seed)
        cyl = hartogs_in_cylinder(H, 1.0, samples, seed + 1)
        failures = ball.failures + cyl.failures
        if not ball.passed:
            r_in = 0.0
        return CapacityCertificate("flat-hartogs", r_in, 1.0,
                                   np.pi * r_in**2, np.pi,
                                   2 * samples, failures)
    if side == "dual":
        r_bound = float(min(1.0, np.sqrt(H.mu)))
        r_in = r_bound - eps
        sweeps = _dual_sweeps(H, r_in, min(samples, 400), seed)
        bounds = dual_image_bounds(H, samples, seed + 1)
        failures = sweeps.failures + bounds.failures
        if not sweeps.passed:
            r_in = 0.0
        r_out = r_bound if bounds.passed else np.inf
        notes = (_DUAL_HEADLINE_NOTE,) if H.mu < 1.0 else ()
        return CapacityCertificate("dual", r_in, r_out,
                                   np.pi * r_in**2, np.pi * r_out**2,
                                   sweeps.checked + bounds.checked, failures, notes)
    raise DomainError(f"unknown side: {side!r}")
