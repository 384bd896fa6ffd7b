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

The ball check and the image bound draw a fixed number of points, placed
where each inclusion is tight, whatever the sample size:

* ball: `_BALL_POINTS` points on the sphere of the given radius, each with
  one nonzero spectral value x on a grid of [0, radius] with both ends and
  |w| = sqrt(radius^2 - x^2); plus `_GENERIC_POINTS` uniform points of the
  ball.  Such a point lies in M iff radius^2 - x^2 < (1 - x^2)^mu, the worst
  direction of the ball; for mu <= 1 it fails first at x = 0, where |w| =
  radius, as the radius passes 1, and x = radius > 1 leaves Omega.
* image bound: xi^2 / mu = t x^2 / (1 + x^2) with t = u / G < 1, so the sup
  1 is approached as a spectral value x of z grows with w = 0, and
  |omega|^2 = |w|^2 / G -> 1 as |w| grows.  `_IMAGE_POINTS` frame points
  carry a leading spectral value on the grid 10^0 ... 10^6, every other one
  0 or on the same grid below the leading one, and |w| = 0 on every other
  point, else on a log grid up to 1e6; plus `_GENERIC_POINTS` heavy-tailed
  points (`sample_heavy_points`).  Both grids stop at 1e6.  There
  1 - xi^2 / mu = 1e-12, so a slip of 1e-4 in Phi's zeta leaves the
  cylinder; at 1e8 it is 1e-16 and xi^2 / mu rounds to 1, so the strict
  bound would fail on a correct map.  So would |omega| at |w| = 1e8, where
  1 - |omega|^2 = N(z, -zbar)^mu / G ~ 1e-16 N^mu is lost to rounding
  unless N^mu is large: at x <= 1 for mu <= 2, or at any x for mu = 1e-7.

Both draws are frame points moved by `_ROTATIONS` shared Haar pairs
(`jtsys.random_isotropy`), each pair broadcast over its own block of points.
The flat cylinder check samples M (`hartogs_in_cylinder`) in blocks of
`_CYLINDER_BLOCK` rows, so its memory does not grow with the sample size; on
member points |z_11| < 1 holds by the bound above, so it cannot fail.

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
from .jtsys import frame_point, isotropy_apply, membership, random_isotropy

# Margin eps of the inner radii below the exact inclusions.
EPS = 1e-3
# Largest round-trip error of a dual sweep target.
_SWEEP_TOL = 1e-8
# Haar pairs of the targeted draws, each moving its own block of points.
_ROTATIONS = 8
# Sphere points of the ball check and frame points of the image bound.
_BALL_POINTS = 256
_IMAGE_POINTS = 512
# Uniform (ball) or heavy-tailed (image bound) points added to either draw.
_GENERIC_POINTS = 64
# Spectral values of the image bound's frame points, by half decades.
_SPECTRAL_GRID = 10.0 ** np.arange(0.0, 6.25, 0.5)
# Nonzero fiber moduli |w| of the image bound's frame points.
_FIBER_GRID = 10.0 ** np.arange(-3.0, 6.25, 1.0)
# Rows of one draw of the cylinder check.
_CYLINDER_BLOCK = 1 << 13
# Witnesses a sampled check returns at most.
_MAX_WITNESSES = 16


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
    return [pack_point(row) for row in pts[~ok][:_MAX_WITNESSES]]


def _packed_frame_points(H: HartogsSpec, values: np.ndarray, w: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """Packed points (frame_point(values), w), the base point of each block of
    len(values) / _ROTATIONS rows moved by its own one of _ROTATIONS Haar pairs."""
    d = H.domain
    blocks = frame_point(d, values).reshape(_ROTATIONS, -1, d.n).swapaxes(0, 1)
    moved = isotropy_apply(d, random_isotropy(d, rng, _ROTATIONS), blocks)  # pair b moves block b
    return np.concatenate([moved.swapaxes(0, 1).reshape(-1, d.n), w[:, None]], axis=-1)


def ball_in_hartogs(H: HartogsSpec, radius: float, seed: int) -> list:
    """Test membership in M of the ball of the given radius: `_BALL_POINTS`
    points on its sphere, with one nonzero spectral value x on a grid of
    [0, radius] (both ends included) and |w| = sqrt(radius^2 - x^2), and
    `_GENERIC_POINTS` uniform points of the ball."""
    rng = np.random.default_rng(seed)
    x = np.tile(np.linspace(0.0, radius, _BALL_POINTS // _ROTATIONS), _ROTATIONS)
    w = np.sqrt(radius**2 - x**2) * np.exp(2j * np.pi * rng.random(len(x)))
    pts = np.concatenate([_packed_frame_points(H, x[:, None], w, rng),
                          sample_ball_points(H.domain.n + 1, _GENERIC_POINTS, rng, radius)])
    return _witnesses(pts, ch_member_vec(H, pts))


def hartogs_in_cylinder(H: HartogsSpec, radius: float, samples: int, seed: int) -> list:
    """Sample member points of M and test |z_1| < radius (first base coordinate),
    in blocks of `_CYLINDER_BLOCK` rows, until 16 witnesses are found.

    The points fill Omega up to its boundary, so at radius 1 the test checks
    |z_11| <= ||z||_op < 1 rather than a bound built into the sampler.
    """
    rng = np.random.default_rng(seed)
    failures = []
    for start in range(0, samples, _CYLINDER_BLOCK):
        pts = sample_member_points_full(H, min(_CYLINDER_BLOCK, samples - start), rng)
        failures += _witnesses(pts, np.abs(pts[:, 0]) < radius)
        if len(failures) >= _MAX_WITNESSES:
            break
    return failures[:_MAX_WITNESSES]


def dual_image_bounds(H: HartogsSpec, seed: int) -> list:
    """Push points through Phi and check the image bounds xi_j^2 < mu, i.e.
    zeta / sqrt(mu) in Omega, and |omega| < 1: `_IMAGE_POINTS` frame points
    with a leading spectral value on `_SPECTRAL_GRID` (cycled), each other one
    0 or on the grid below it, and |w| = 0 on every other point, else on
    `_FIBER_GRID`; and `_GENERIC_POINTS` heavy-tailed points."""
    d = H.domain
    rng = np.random.default_rng(seed)
    row = np.arange(_IMAGE_POINTS)
    lead = row % len(_SPECTRAL_GRID)
    others = rng.integers(0, lead[:, None] + 1, size=(_IMAGE_POINTS, d.r - 1))
    values = _SPECTRAL_GRID[np.column_stack([lead, others])]
    values[:, 1:][rng.random((_IMAGE_POINTS, d.r - 1)) < 0.5] = 0.0
    modulus = np.where(row % 2 == 0, 0.0,
                       _FIBER_GRID[rng.integers(0, len(_FIBER_GRID), size=_IMAGE_POINTS)])
    w = modulus * np.exp(2j * np.pi * rng.random(_IMAGE_POINTS))
    pts = np.concatenate([_packed_frame_points(H, values, w, rng),
                          sample_heavy_points(d.n + 1, _GENERIC_POINTS, rng)])
    zeta, omega = split_vec(H, phi_map_vec(H, pts))
    inside = membership(d, zeta / np.sqrt(H.mu))
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
    return failures[:_MAX_WITNESSES]


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
        ball_failures = ball_in_hartogs(H, r_in, seed)
        failures = ball_failures + hartogs_in_cylinder(H, 1.0, samples, seed + 1)
        lower = 0.0 if ball_failures else np.pi * r_in**2
        return CapacityCertificate(lower, np.pi, failures)
    if side == "dual":
        r_bound = float(min(1.0, np.sqrt(H.mu)))
        r_in = max(r_bound - EPS, 0.0)  # sqrt(mu) <= EPS: certify only [0, pi mu]
        sweep_failures = _dual_sweeps(H, r_in, min(samples, 400), seed)
        bound_failures = dual_image_bounds(H, seed + 1)
        lower = 0.0 if sweep_failures else np.pi * r_in**2
        upper = np.inf if bound_failures else np.pi * r_bound**2
        notes = ()
        if H.mu < 1.0:
            notes = (_DUAL_HEADLINE_NOTE if r_bound > EPS else _DUAL_CLAMPED_NOTE,)
        return CapacityCertificate(lower, upper, sweep_failures + bound_failures, notes)
    raise DomainError(f"unknown side: {side!r}")
