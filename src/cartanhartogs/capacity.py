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
  c^2 < min(1, mu) (sampled targets are pulled back by the closed-form
  inverse of Phi, pushed forward and compared with the target) and lies in
  the cylinder of radius min(1, sqrt(mu)): xi_j^2 < mu, i.e. zeta / sqrt(mu)
  in Omega (`jtsys.membership`, no SVD), and |omega| < 1; certified interval
  [pi (min(1, sqrt(mu)) - eps)^2, pi min(1, mu)], with the inner radius
  clamped at 0 when sqrt(mu) <= eps.

For mu < 1 the two dual bounds pin mu pi; certificates carry a note that this
is reported as a certified interval only.  The sampled checks return their
failure witnesses (at most 16): an empty list is a pass.  The sweep targets
sit on the canonical frame of `jtsys.frame_point`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .hartogs import (HartogsSpec, ch_member_vec, phi_inverse, phi_map_vec,
                      sample_ball_points, sample_heavy_points,
                      sample_member_points_full, split_vec)
from .jtsys import frame_point, membership

# Margin eps of the inner radii below the exact inclusions.
EPS = 1e-3
# Largest round-trip error of a dual sweep target.
_SWEEP_TOL = 1e-8


@dataclass(frozen=True)
class CapacityCertificate:
    """A certified capacity interval [lower, upper] = [pi r_in^2, pi r_out^2]."""

    lower: float
    upper: float
    failures: list
    notes: tuple[str, ...] = field(default=())


def pack_point(vec: np.ndarray) -> list:
    """A complex point as JSON-ready [[re, im], ...] pairs."""
    return [[float(c.real), float(c.imag)] for c in np.asarray(vec, dtype=complex)]


def _witnesses(pts: np.ndarray, ok: np.ndarray) -> list:
    return [pack_point(row) for row in pts[~ok][:16]]


def ball_in_hartogs(H: HartogsSpec, radius: float, samples: int, seed: int) -> list:
    """Sample the ball of the given radius and test membership in M."""
    rng = np.random.default_rng(seed)
    pts = sample_ball_points(H.domain.n + 1, samples, rng, radius)
    return _witnesses(pts, ch_member_vec(H, pts))


def hartogs_in_cylinder(H: HartogsSpec, radius: float, samples: int, seed: int) -> list:
    """Sample member points of M and test |z_1| < radius (first base coordinate).

    The points fill Omega up to its boundary, so at radius 1 the test checks
    |z_11| <= ||z||_op < 1 rather than a bound built into the sampler.
    """
    rng = np.random.default_rng(seed)
    pts = sample_member_points_full(H, samples, rng)
    return _witnesses(pts, np.abs(pts[:, 0]) < radius)


def dual_image_bounds(H: HartogsSpec, samples: int, seed: int) -> list:
    """Push heavy-tailed points through Phi and check the image bounds
    xi_j^2 < mu, i.e. zeta / sqrt(mu) in Omega, and |omega| < 1."""
    rng = np.random.default_rng(seed)
    pts = sample_heavy_points(H.domain.n + 1, samples, rng)
    zeta, omega = split_vec(H, phi_map_vec(H, pts))
    inside = membership(H.domain, zeta / np.sqrt(H.mu))
    return _witnesses(pts, inside & (np.abs(omega) < 1.0))


def _dual_sweeps(H: HartogsSpec, c: float, sweeps: int, seed: int) -> list:
    """Hit random spectral targets on the radius-c sphere and verify the
    round trip through Phi.

    Each sweep draws the fiber target delta and k <= r spectral targets x with
    sum x_j^2 + delta^2 = c^2; the target (x on the canonical frame, delta) is
    pulled back by `phi_inverse`, pushed forward by Phi and compared with itself.
    """
    rng = np.random.default_rng(seed)
    r = H.domain.r
    deltas = c * rng.uniform(size=sweeps) ** 2  # bias toward small delta
    deltas[rng.uniform(size=sweeps) < 0.1] = c * (1.0 - 1e-6)  # the edge, in 10 % of sweeps
    ks = rng.integers(1, r + 1, size=sweeps)
    direction = rng.uniform(size=(sweeps, r)) * (np.arange(r) < ks[:, None])
    direction /= np.sum(direction, axis=-1, keepdims=True)
    xs = np.sqrt((c**2 - deltas**2)[:, None] * direction)
    targets = np.concatenate([frame_point(H.domain, xs), deltas[:, None]], axis=-1)
    err = np.max(np.abs(phi_map_vec(H, phi_inverse(H, targets)) - targets), axis=-1)
    failures = [{"c": c, "delta": float(deltas[i]), "x": xs[i, :ks[i]].tolist(),
                 "err": float(err[i])} for i in np.flatnonzero(err > _SWEEP_TOL)]
    return failures[:16]


_DUAL_HEADLINE_NOTE = (
    "for mu < 1 the certified interval [pi (sqrt(mu)-eps)^2, pi mu] pins mu*pi; "
    "the stated mu^2*pi headline does not match the certified bounds and is "
    "reported, not asserted"
)
_DUAL_CLAMPED_NOTE = (
    "for sqrt(mu) <= eps the inner radius is clamped at 0 and the certified "
    "interval is [0, pi mu]; the stated mu^2*pi headline is reported, not asserted"
)


def capacity_certificate(H: HartogsSpec, side: str, samples: int,
                         seed: int) -> CapacityCertificate:
    """Certified capacity interval for the chosen side.

    flat-hartogs (mu <= 1): inner ball radius 1-EPS, outer cylinder radius 1.
    dual: inner radius max(min(1, sqrt(mu)) - EPS, 0) via sphere-target sweeps, outer
    radius min(1, sqrt(mu)) via the spectral image bounds.
    """
    if side == "flat-hartogs":
        if H.mu > 1.0:
            raise DomainError("flat-side certificate requires mu <= 1")
        r_in = 1.0 - EPS
        ball_failures = ball_in_hartogs(H, r_in, samples, seed)
        failures = ball_failures + hartogs_in_cylinder(H, 1.0, samples, seed + 1)
        lower = 0.0 if ball_failures else np.pi * r_in**2
        return CapacityCertificate(lower, np.pi, failures)
    if side == "dual":
        r_bound = float(min(1.0, np.sqrt(H.mu)))
        r_in = max(r_bound - EPS, 0.0)  # sqrt(mu) <= EPS: certify only [0, pi mu]
        sweep_failures = _dual_sweeps(H, r_in, min(samples, 400), seed)
        bound_failures = dual_image_bounds(H, samples, seed + 1)
        lower = 0.0 if sweep_failures else np.pi * r_in**2
        upper = np.inf if bound_failures else np.pi * r_bound**2
        notes = ()
        if H.mu < 1.0:
            notes = (_DUAL_HEADLINE_NOTE if r_bound > EPS else _DUAL_CLAMPED_NOTE,)
        return CapacityCertificate(lower, upper, sweep_failures + bound_failures, notes)
    raise DomainError(f"unknown side: {side!r}")
