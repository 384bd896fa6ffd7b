"""Verification battery behind the CLI.

Each check samples points, measures a worst residual against a tolerance, and
returns dictionaries ready for the JSON report.  darboux and dual-darboux pull
the flat form back through the closed-form Jacobian of Psi or Phi
(`hartogs.darboux_jacobian`) and compare it with the closed-form Hessian of
the potential (`forms.hartogs_hessian`), entrywise and relative to the form's
largest entry at each point, so the same tolerance holds at every mu, where
the domain form's fiber entries grow like N^(-mu); both sides are exact to
rounding, so the configured tolerance is the only slack.  No check takes a
finite difference, so --fd-step reaches none of them.  volume, selberg and
the duality family's volume identity evaluate exact quadratures
(`measures`) and gate them at `QUADRATURE_TOL`.  Structural checks carry
their own tolerances (documented per function).
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


# Points per block in darboux_residuals: a block holds the Jacobian's
# 2(n+1) x (n+1) complex entries per point and, inside darboux_jacobian at
# rank >= 2, the two products T1 and T2 that all directions share, p^2 q^2
# complex entries each (2 x 81 values, 2.6 kB per point on type-I(3,3));
# where the frame is diagonal (polydisc, rank one) its temporaries are
# n x n.  On the Hessian side, forms.hartogs_hessian writes the
# (n+1) x (n+1) complex rows of the form (100 values, 1.6 kB per point on
# type-I(3,3)) from the elimination's p x (p+q) and q x q rows, with a few
# n x n real temporaries (81 values, 0.65 kB each) alive at a time; the gap
# is read off the form's real and imaginary planes, so no 2(n+1) x 2(n+1)
# target is built.  So memory stays bounded whatever --points is; 500
# points fit in one block.
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
        # contiguous planes, which numpy's matmul hands to BLAS
        xy = np.ascontiguousarray(jac.real) @ np.ascontiguousarray(np.swapaxes(jac.imag, -1, -2))
        gap = xy - np.swapaxes(xy, -1, -2)
        g = forms.hartogs_hessian(H, block, dual)
        # minus the form's blocks, in place
        gap[..., 0::2, 0::2] += g.imag
        gap[..., 1::2, 1::2] += g.imag
        gap[..., 0::2, 1::2] -= g.real
        gap[..., 1::2, 0::2] += np.swapaxes(g.real, -1, -2)
        scale = np.max(np.maximum(np.abs(g.real), np.abs(g.imag)), axis=(-2, -1))
        out[start:start + len(block)] = np.max(np.abs(gap), axis=(-2, -1)) / scale
    return out


def _witness(pts: np.ndarray, residuals: np.ndarray, failed: np.ndarray) -> list:
    """The failing points among the four with the largest residuals, a NaN
    residual ranked above every number.  Callers pass failed as the negated
    pass test, ~(residual <= tol), so a NaN residual counts as failed."""
    bad = np.argsort(-np.where(np.isnan(residuals), np.inf, residuals))[:4]
    return [{"point": capacity.pack_point(pts[i]), "residual": float(residuals[i])}
            for i in bad if failed[i]]


def _check_pullback(cfg, dual: bool) -> list[dict]:
    name = "dual-darboux" if dual else "darboux"
    out = []
    for mu in cfg.mu:
        started = time.perf_counter()
        H = hartogs.make_hartogs(cfg.domain_spec, mu)
        rng = np.random.default_rng(cfg.seed + int(dual))
        pts = (hartogs.sample_heavy_points(H.domain.n + 1, cfg.points, rng) if dual
               else hartogs.sample_member_points(H, cfg.points, rng))
        res = darboux_residuals(H, pts, dual)
        out.append(_result(name, {"mu": mu, "points": cfg.points, "operation": "pullback"},
                           float(np.max(res)), cfg.tol,
                           _witness(pts, res, ~(res <= cfg.tol)), started))
    return out


def check_darboux(cfg) -> list[dict]:
    return _check_pullback(cfg, dual=False)


def check_dual_darboux(cfg) -> list[dict]:
    return _check_pullback(cfg, dual=True)


def check_psh(cfg) -> list[dict]:
    """Strict plurisubharmonicity: the smallest dual Hessian eigenvalue must be
    positive at every point.  The residual is its negative, and the gate is
    strict (residual < 0), so a zero eigenvalue fails."""
    out = []
    for mu in cfg.mu:
        started = time.perf_counter()
        H = hartogs.make_hartogs(cfg.domain_spec, mu)
        rng = np.random.default_rng(cfg.seed + 2)
        pts = hartogs.sample_ball_points(H.domain.n + 1, cfg.points, rng, 10.0)
        eigs = forms.dual_hessian_min_eigs(H, pts)
        worst = float(np.max(-eigs))
        out.append(_result("psh", {"mu": mu, "points": cfg.points,
                                   "operation": "is_positive_definite"},
                           worst, 0.0, _witness(pts, -eigs, ~(-eigs < 0)), started,
                           strict=True))
    return out


def check_det_formula(cfg) -> list[dict]:
    """The paper's product formula for the dual Hessian determinant (genus and
    exponent n+2) against the determinant of the closed-form dual Hessian,
    whose Jordan-data blocks (A^-1)^T (x) C^-1 hold no genus, relative and
    batched; plus the genus fit against the domain invariant.

    It does not test the gradient of log N*: the Schur complement of the
    w-w entry in the dual Hessian is mu t l_jk, since the terms in l_j
    conj(l_k) cancel, so the determinant is blind to the gradient (a 10%
    error in it still passes).  The darboux checks hold the gradient."""
    out = []
    for mu in cfg.mu:
        started = time.perf_counter()
        H = hartogs.make_hartogs(cfg.domain_spec, mu)
        rng = np.random.default_rng(cfg.seed + 3)
        npts = max(10, cfg.points // 4)
        pts = 0.7 * (rng.normal(size=(npts, H.domain.n + 1))
                     + 1j * rng.normal(size=(npts, H.domain.n + 1)))
        closed = forms.det_dual_hessian(H, pts)
        ref = np.linalg.det(forms.hartogs_hessian(H, pts, dual=True)).real
        rel = np.abs(ref - closed) / np.abs(closed)
        out.append(_result("det-formula", {"mu": mu, "points": npts,
                                           "operation": "det_dual_hessian"},
                           float(np.max(rel)), cfg.tol,
                           _witness(pts, rel, ~(rel <= cfg.tol)), started))
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
    rank-one ball specialization."""
    d = cfg.domain_spec
    out = []
    for mu in cfg.mu:
        H = hartogs.make_hartogs(d, mu)
        rng = np.random.default_rng(cfg.seed + 7)
        started = time.perf_counter()
        pts = hartogs.sample_member_points(H, max(8, cfg.points // 4), rng, lam_max=0.8)
        taus = jtsys.random_isotropy(d, rng, len(pts))  # row i moves point i
        moved = hartogs.hartogs_isotropy_apply(H, taus, pts)
        # np.max over arrays, so a NaN residual reaches the gate and fails it
        worst = np.max([np.abs(mapping(H, moved)
                               - hartogs.hartogs_isotropy_apply(H, taus, mapping(H, pts)))
                        for mapping in (hartogs.psi_map_vec, hartogs.phi_map_vec)])
        out.append(_result("equivariance", {"mu": mu, "pairs": len(pts),
                                            "operation": "hartogs_isotropy_apply"},
                           worst, 1e-10, None, started))

        started = time.perf_counter()
        m = d.r if d.kind == jtsys.KIND_TYPE_I else max(1, d.n - 1)
        Hs = hartogs.make_hartogs(jtsys.make_domain(jtsys.KIND_POLYDISC, n=m), mu)
        small = hartogs.sample_member_points(Hs, 16, rng, lam_max=0.7)
        big = hartogs.psi_map_vec(H, hartogs.lift_embedding(d, small))
        expect = hartogs.lift_embedding(d, hartogs.psi_map_vec(Hs, small))
        out.append(_result("equivariance", {"mu": mu, "operation": "lift_embedding"},
                           float(np.max(np.abs(big - expect))), 1e-10, None, started))

        started = time.perf_counter()
        some = hartogs.sample_member_points(H, 6, rng, lam_max=0.75)
        worst = np.max([np.abs(inverse(H, mapping(H, some)) - some)
                        for mapping, inverse in ((hartogs.psi_map_vec, hartogs.psi_inverse),
                                                 (hartogs.phi_map_vec, hartogs.phi_inverse))])
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
