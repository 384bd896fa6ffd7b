"""Verification battery behind the CLI.

Each check measures a worst residual against a tolerance and returns entries
ready for the JSON report.  The sampled families (darboux, dual-darboux, psh,
det-formula and the isotropy pairs of equivariance) stream their points
through `_stream` in fixed chunks, so memory does not grow with --points.
darboux and dual-darboux pull the flat form back through the closed-form
Jacobian of Psi or Phi (`hartogs.darboux_jacobian`) and compare it with the
closed-form Hessian of the potential (`forms.hartogs_hessian`), entrywise and
relative to the form's largest entry at each point, so the same tolerance
holds at every mu, where the domain form's fiber entries grow like N^(-mu);
both sides are exact to rounding, so the configured tolerance is the only
slack.  No check takes a finite difference, so --fd-step reaches none of
them.  volume, selberg and the duality family's volume identity evaluate
exact quadratures (`measures`) and gate them at `QUADRATURE_TOL`.
Structural checks carry their own tolerances (documented per function).
"""

from __future__ import annotations

import time

import numpy as np

from . import capacity, forms, hartogs, jtsys, measures

# the genus fit runs on the closed-form Hessian, so it lands on the genus to rounding
FIT_GENUS_TOL = 1e-9
# the volume and Selberg quadratures are exact, so they land on their closed forms
# to rounding
QUADRATURE_TOL = 1e-12


def _result(name: str, params: dict, worst: float, tol: float,
            witnesses: list | None, started: float, strict: bool = False) -> dict:
    """A report entry; it passes when worst <= tol, or worst < tol if strict."""
    passed = worst < tol if strict else worst <= tol
    return {
        "name": name,
        "parameters": params,
        "status": "pass" if passed else "fail",
        "worst_residual": float(worst),
        "tolerance": float(tol),
        "witnesses": witnesses or [],
        "wall_time_s": round(time.perf_counter() - started, 3),
    }


# Points per block in darboux_residuals.  A block's largest arrays are the
# Jacobian, 2(n+1) x (n+1) complex entries per point, its two real planes
# together, and X Y^T and the gap, 2(n+1) x 2(n+1) real entries each: 3.2 kB
# per point on type-I(3,3).  The steps hold at most two of them at once, and
# the Hessian, (n+1) x (n+1) complex entries per point, is formed beside the
# gap alone.  Inside darboux_jacobian at rank >= 2 each of the products T1
# and T2 (p^2 q^2 complex entries, 1.3 kB per point on type-I(3,3)) is
# scattered into the Jacobian and dropped before the other is formed, and
# forms.hartogs_hessian writes its n x n terms a row at a time.  So a block's
# memory is bounded (3.3 MB traced for 500 points on type-I(3,3)); 500 points
# fit in one block.  Smaller blocks do not cut the page faults of a pass:
# glibc's trim threshold follows the largest array.
_DARBOUX_BLOCK = 1 << 9


def darboux_residuals(H: hartogs.HartogsSpec, pts: np.ndarray,
                      dual: bool = False) -> np.ndarray:
    """Gap between the pulled-back flat form and the domain (or dual) form at
    each packed point (B, n+1), relative to the form's scale there:
    max|pulled - target| / max|target| over the entries.

    The pullback of omega_0 along real directions a, b is Im <D_a, D_b>, with
    D = X + iY the closed-form Jacobian of Psi (or Phi), so it is
    X Y^T - Y X^T, one real product and its transpose; the form it is
    compared with is the closed-form Hessian G of the potential, whose
    matrix in interleaved coordinates has -Im G in the (x, x) and (y, y)
    blocks, Re G in (x, y) and -(Re G)^T in (y, x), so each block is
    compared with Re G or Im G directly and max|target| is
    max(|Re G|, |Im G|).  The two sides come from independent routes: the
    map's derivative and the potential's.
    """
    out = np.empty(len(pts))
    for start in range(0, len(pts), _DARBOUX_BLOCK):
        block = pts[start:start + _DARBOUX_BLOCK]
        jac = hartogs.darboux_jacobian(H, block, dual)
        # contiguous planes, which numpy's matmul hands to BLAS; each input
        # is dropped once the next step holds what it needs of it
        re = np.ascontiguousarray(jac.real)
        im_t = np.ascontiguousarray(np.swapaxes(jac.imag, -1, -2))
        del jac
        xy = re @ im_t
        del re, im_t
        gap = xy - np.swapaxes(xy, -1, -2)
        del xy
        g = forms.hartogs_hessian(H, block, dual)
        # minus the form's blocks, in place
        gap[..., 0::2, 0::2] += g.imag
        gap[..., 1::2, 1::2] += g.imag
        gap[..., 0::2, 1::2] -= g.real
        gap[..., 1::2, 0::2] += np.swapaxes(g.real, -1, -2)
        # max(|Re G|, |Im G|) and |gap| in place, on planes no later step reads
        g_re = np.abs(g.real, out=g.real)
        np.maximum(g_re, np.abs(g.imag, out=g.imag), out=g_re)
        out[start:start + len(block)] = (np.max(np.abs(gap, out=gap), axis=(-2, -1))
                                         / np.max(g_re, axis=(-2, -1)))
    return out


# Points per chunk of a sampled family, drawn, measured and reduced before the
# next, so memory does not grow with --points; up to _CHUNK points are one draw
# of the family's generator.  darboux_residuals splits a chunk into its blocks:
# drawing 512 points at a time faults in more pages than drawing 8192.
_CHUNK = 1 << 13


def _stream(count: int, chunk) -> tuple:
    """chunk(k) -> (points, residuals) over count points, `_CHUNK` at a time:
    the worst residual, np.max over all, so a NaN propagates, and the four
    points with the largest residuals, a NaN ranked first, with those residuals."""
    worst, top_pts, top_res = -np.inf, None, None
    for start in range(0, count, _CHUNK):
        pts, res = chunk(min(_CHUNK, count - start))
        worst = np.maximum(worst, np.max(res))
        if top_res is not None:
            pts, res = np.concatenate([top_pts, pts]), np.concatenate([top_res, res])
        keep = np.argsort(-np.where(np.isnan(res), np.inf, res))[:4]
        top_pts, top_res = pts[keep], res[keep]
    return float(worst), top_pts, top_res


def _sampled(cfg, name: str, operation: str, offset: int, count: int,
             draw, measure, tol: float, strict: bool = False) -> list[dict]:
    """One entry per mu: count points from draw(H, k, rng), with one generator
    seeded cfg.seed + offset, measured by measure(H, pts) and gated at tol.
    The witnesses are the failing points among the four largest residuals."""
    out = []
    for mu in cfg.mu:
        started = time.perf_counter()
        H = hartogs.make_hartogs(cfg.domain_spec, mu)
        rng = np.random.default_rng(cfg.seed + offset)

        def chunk(k):
            pts = draw(H, k, rng)
            return pts, measure(H, pts)

        worst, pts, res = _stream(count, chunk)
        failed = ~(res < tol) if strict else ~(res <= tol)
        out.append(_result(name, {"mu": mu, "points": count, "operation": operation},
                           worst, tol, [{"point": capacity.pack_point(p), "residual": float(r)}
                                        for p, r in zip(pts[failed], res[failed])],
                           started, strict))
    return out


def check_darboux(cfg) -> list[dict]:
    return _sampled(cfg, "darboux", "pullback", 0, cfg.points,
                    hartogs.sample_member_points, darboux_residuals, cfg.tol)


def check_dual_darboux(cfg) -> list[dict]:
    return _sampled(cfg, "dual-darboux", "pullback", 1, cfg.points,
                    lambda H, k, rng: hartogs.sample_heavy_points(H.domain.n + 1, k, rng),
                    lambda H, pts: darboux_residuals(H, pts, True), cfg.tol)


def check_psh(cfg) -> list[dict]:
    """Strict plurisubharmonicity: the smallest dual Hessian eigenvalue must be
    positive at every point.  The residual is its negative, and the gate is
    strict (residual < 0), so a zero eigenvalue fails."""
    return _sampled(cfg, "psh", "is_positive_definite", 2, cfg.points,
                    lambda H, k, rng: hartogs.sample_ball_points(H.domain.n + 1, k, rng, 10.0),
                    lambda H, pts: -forms.dual_hessian_min_eigs(H, pts), 0.0, strict=True)


def _det_gap(H: hartogs.HartogsSpec, pts: np.ndarray) -> np.ndarray:
    closed = forms.det_dual_hessian(H, pts)
    ref = np.linalg.det(forms.hartogs_hessian(H, pts, dual=True)).real
    return np.abs(ref - closed) / np.abs(closed)


def check_det_formula(cfg) -> list[dict]:
    """The paper's product formula for the dual Hessian determinant (genus and
    exponent n+2) against the determinant of the closed-form dual Hessian,
    whose Jordan-data blocks (A^-1)^T (x) C^-1 hold no genus, relative and
    batched; plus the genus fit against the domain invariant.

    It does not test the gradient of log N*: the Schur complement of the
    w-w entry in the dual Hessian is mu t l_jk, since the terms in l_j
    conj(l_k) cancel, so the determinant is blind to the gradient (a 10%
    error in it still passes).  The darboux checks hold the gradient."""
    out = _sampled(cfg, "det-formula", "det_dual_hessian", 3, max(10, cfg.points // 4),
                   lambda H, k, rng: 0.7 * (rng.normal(size=(k, H.domain.n + 1))
                                            + 1j * rng.normal(size=(k, H.domain.n + 1))),
                   _det_gap, cfg.tol)
    started = time.perf_counter()
    fitted = measures.fit_genus(cfg.domain_spec)
    out.append(_result("det-formula", {"operation": "fit_genus", "fitted": fitted},
                       abs(fitted - cfg.domain_spec.genus), FIT_GENUS_TOL, None, started))
    return out


def check_volume(cfg) -> list[dict]:
    """The exact quadratures of both volumes (`measures`), in units of the
    polar constant pi c: the flat volume against F(mu) = F(0) F(mu)/F(0) and
    the dual/flat ratio against the Gamma-product formula, both relative at
    `QUADRATURE_TOL`.  The Haar pairs and phases of the nodes come from the
    seed."""
    d = cfg.domain_spec
    out = []
    for mu in cfg.mu:
        H = hartogs.make_hartogs(d, mu)
        rng = np.random.default_rng(cfg.seed)
        started = time.perf_counter()
        flat = measures.flat_volume_quadrature(H, rng)
        # F(mu)/F(0) is a product of rational factors, exact at every mu
        exact = measures.capital_f(d, 0.0) * measures.capital_f_ratio(d, mu)
        out.append(_result("volume", {"mu": mu, "estimate": flat, "exact": exact,
                                      "operation": "flat_volume_quadrature"},
                           abs(flat - exact) / exact, QUADRATURE_TOL, None, started))
        started = time.perf_counter()
        dual = measures.dual_volume_quadrature(H, rng)
        ratio = dual / flat if flat > 0 else float("inf")
        want = measures.dual_flat_ratio_formula(H)
        out.append(_result("volume", {"mu": mu, "ratio": ratio, "formula": want,
                                      "operation": "dual_volume_quadrature"},
                           abs(ratio - want) / want, QUADRATURE_TOL, None, started))
    return out


def check_selberg(cfg) -> list[dict]:
    """The exact Gauss-Jacobi quadrature of F(s) against the Gamma product,
    relative at `QUADRATURE_TOL`, for s in (0, 0.5, 1, 2.5).  In rank one the
    rule is the Beta closed form itself (see `measures.selberg_quadrature`)."""
    d = cfg.domain_spec
    out = []
    for s in (0.0, 0.5, 1.0, 2.5):
        started = time.perf_counter()
        quad = measures.selberg_quadrature(d.r, d.a, d.b, s)
        closed = measures.capital_f(d, s)
        out.append(_result("selberg", {"s": s, "r": d.r, "a": d.a, "b": d.b,
                                       "operation": "selberg_quadrature"},
                           abs(quad - closed) / closed, QUADRATURE_TOL, None, started))
    return out


def check_duality(cfg) -> list[dict]:
    """Root of the duality equation: exactly 1 in rank one, inside (0,1)
    otherwise; the rank-one equality case of the product bound; and the
    identity itself: the flat and dual quadrature volumes equal at the root,
    relative at `QUADRATURE_TOL`."""
    d = cfg.domain_spec
    started = time.perf_counter()
    root = measures.duality_root(d)
    if d.r == 1:
        res = _result("duality", {"operation": "duality_root", "root": root},
                      abs(root - 1.0), 1e-9, None, started)
    else:
        ok = 0.0 < root < 1.0
        res = _result("duality", {"operation": "duality_root", "root": root},
                      0.0 if ok else 1.0, 0.5, None, started)
    started = time.perf_counter()
    gen = measures.gennaio_check(d)
    want_equality = d.r == 1
    ok = gen.passed and gen.equality == want_equality
    out = [res, _result("duality", {"operation": "gennaio_check",
                                    "value": gen.value, "bound": gen.bound,
                                    "equality": gen.equality},
                        0.0 if ok else 1.0, 0.5, None, started)]
    started = time.perf_counter()
    H = hartogs.make_hartogs(d, root)
    rng = np.random.default_rng(cfg.seed)
    flat = measures.flat_volume_quadrature(H, rng)
    dual = measures.dual_volume_quadrature(H, rng)
    out.append(_result("duality", {"operation": "volume_identity", "root": root,
                                   "flat": flat, "dual": dual},
                       abs(dual - flat) / flat if flat > 0 else float("inf"),
                       QUADRATURE_TOL, None, started))
    return out


def check_capacity(cfg) -> list[dict]:
    out = []
    for mu in cfg.mu:
        H = hartogs.make_hartogs(cfg.domain_spec, mu)
        if mu <= 1.0:
            started = time.perf_counter()
            cert = capacity.capacity_certificate(H, "flat-hartogs", cfg.seed + 5)
            out.append(_result("capacity", {"mu": mu, "side": "flat-hartogs",
                                            "interval": [cert.lower, cert.upper],
                                            "operation": "capacity_certificate"},
                               float(len(cert.failures)), 0.0,
                               cert.failures[:4], started))
        started = time.perf_counter()
        cert = capacity.capacity_certificate(H, "dual", cfg.seed + 6)
        out.append(_result("capacity", {"mu": mu, "side": "dual",
                                        "interval": [cert.lower, cert.upper],
                                        "notes": list(cert.notes),
                                        "operation": "capacity_certificate"},
                           float(len(cert.failures)), 0.0,
                           cert.failures[:4], started))
    return out


def check_equivariance(cfg) -> list[dict]:
    """Isotropy equivariance of both maps, hereditary behavior under the lift
    of the frame embedding of a polydisc, inverse round trips, and the
    rank-one ball specialization.

    The pairs compare Psi(tau p) with tau Psi(p), and likewise for Phi, at
    member points p, each moved by its own Haar element tau.  A chunk takes
    one call of each map on the rows of tau p and p stacked, and one isotropy
    apply on both maps' images of p, the stack of taus broadcast over the map
    axis.  The lift's 16 points (on the polydisc Hs) and the round trip's 6
    are drawn right after the last chunk's points and taus, from the same
    generator, and their rows ride along in that chunk's map calls: Psi on
    [tau p; p; lifted; round trip] and Phi on [tau p; p; round trip].  The
    lift keeps its own Psi call on Hs and the round trip its two inverses.
    Every one of these kernels is row-exact, so each residual has the bits of
    one call per map and point set.  The pairs entry's wall time includes the
    map work of the lift and round-trip rows."""
    d = cfg.domain_spec
    m = d.r if d.kind == jtsys.KIND_TYPE_I else max(1, d.n - 1)
    count = max(8, cfg.points // 4)
    out = []
    for mu in cfg.mu:
        H = hartogs.make_hartogs(d, mu)
        Hs = hartogs.make_hartogs(jtsys.make_domain(jtsys.KIND_POLYDISC, n=m), mu)
        rng = np.random.default_rng(cfg.seed + 7)
        tail = {"left": count}  # the lift and round trip ride on the last chunk
        started = time.perf_counter()

        def pairs(k):
            pts = hartogs.sample_member_points(H, k, rng, lam_max=0.8)
            taus = jtsys.random_isotropy(d, rng, k)  # row i moves point i
            tail["left"] -= k
            last = not tail["left"]
            lifted = some = pts[:0]
            if last:
                tail["small"] = hartogs.sample_member_points(Hs, 16, rng, lam_max=0.7)
                some = hartogs.sample_member_points(H, 6, rng, lam_max=0.75)
                lifted = hartogs.lift_embedding(d, tail["small"])
            both = np.concatenate([hartogs.hartogs_isotropy_apply(H, taus, pts), pts])
            psi = hartogs.psi_map_vec(H, np.concatenate([both, lifted, some]))
            phi = hartogs.phi_map_vec(H, np.concatenate([both, some]))
            if last:
                tail.update(some=some, big=psi[2 * k:2 * k + len(lifted)],
                            images=(psi[2 * k + len(lifted):], phi[2 * k:]))
            # (map, point, coordinate): the images of tau p, then those of p
            images = np.stack([psi[:2 * k], phi[:2 * k]])
            moved = hartogs.hartogs_isotropy_apply(H, taus, images[:, k:])
            # np.max over arrays, so a NaN residual reaches the gate and fails it
            return pts, np.max(np.abs(images[:, :k] - moved), axis=(0, 2))

        out.append(_result("equivariance", {"mu": mu, "pairs": count,
                                            "operation": "hartogs_isotropy_apply"},
                           _stream(count, pairs)[0], 1e-10, None, started))

        started = time.perf_counter()
        expect = hartogs.lift_embedding(d, hartogs.psi_map_vec(Hs, tail["small"]))
        out.append(_result("equivariance", {"mu": mu, "operation": "lift_embedding"},
                           float(np.max(np.abs(tail["big"] - expect))), 1e-10, None, started))

        started = time.perf_counter()
        some = tail["some"]
        worst = np.max([np.abs(inverse(H, image) - some)
                        for image, inverse in zip(tail["images"], (hartogs.psi_inverse,
                                                                   hartogs.phi_inverse))])
        out.append(_result("equivariance", {"mu": mu, "operation": "psi_inverse"},
                           worst, 1e-8, None, started))

    if d.r == 1:
        started = time.perf_counter()
        Hb = hartogs.make_hartogs(d, 1.0)
        rng = np.random.default_rng(cfg.seed + 8)
        pts = hartogs.sample_ball_points(d.n + 1, 64, rng, 0.9)
        gap = np.max(np.abs(hartogs.psi_map_vec(Hb, pts) - hartogs.unit_ball_darboux(pts)))
        out.append(_result("equivariance", {"operation": "psi_map",
                                            "case": "rank-one ball specialization"},
                           float(gap), 1e-12, None, started))
    return out


CHECKS = {
    "darboux": check_darboux,
    "dual-darboux": check_dual_darboux,
    "psh": check_psh,
    "det-formula": check_det_formula,
    "volume": check_volume,
    "selberg": check_selberg,
    "duality": check_duality,
    "capacity": check_capacity,
    "equivariance": check_equivariance,
}
