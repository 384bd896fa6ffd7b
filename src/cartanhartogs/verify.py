"""Verification battery behind the CLI.

Each check samples points, measures a worst residual against a tolerance, and
returns dictionaries ready for the JSON report.  darboux and dual-darboux pull
the flat form back through the closed-form Jacobian of Psi or Phi
(`hartogs.darboux_jacobian`) and compare it with the closed-form Hessian of
the potential (`forms.hartogs_hessian`); both sides are exact to rounding, so
the configured tolerance is the only slack.  No check takes a finite
difference, so --fd-step reaches none of them.  Structural checks carry their
own tolerances (documented per function).
"""

from __future__ import annotations

import time

import numpy as np

from . import capacity, forms, hartogs, jtsys, measures

# the genus fit runs on the closed-form Hessian, so it lands on the genus to rounding
FIT_GENUS_TOL = 1e-9


def _result(name: str, params: dict, worst: float, tol: float,
            witnesses: list | None = None, started: float | None = None) -> dict:
    return {
        "name": name,
        "parameters": params,
        "status": "pass" if worst <= tol else "fail",
        "worst_residual": float(worst),
        "tolerance": float(tol),
        "witnesses": witnesses or [],
        "wall_time_s": 0.0 if started is None else round(time.perf_counter() - started, 3),
    }


# Points per block in darboux_residuals: a block holds the Jacobian's
# 2(n+1) x (n+1) complex entries per point and, inside darboux_jacobian, a few
# r x q complex matrices per real direction of z (2.6 kB each per point on
# type-I(3,3)), so memory stays bounded whatever --points is; 500 points fit
# in one block.
_DARBOUX_BLOCK = 1 << 9


def darboux_residuals(H: hartogs.HartogsSpec, pts: np.ndarray,
                      dual: bool = False) -> np.ndarray:
    """Entrywise gap between the pulled-back flat form and the domain (or dual)
    form at each packed point (B, n+1).

    The pullback of omega_0 along real directions a, b is Im <D_a, D_b>, with
    D the closed-form Jacobian of Psi (or Phi); the form it is compared with is
    the closed-form Hessian of the potential.  The two sides come from
    independent routes: the map's derivative and the potential's.
    """
    out = np.empty(len(pts))
    for start in range(0, len(pts), _DARBOUX_BLOCK):
        block = pts[start:start + _DARBOUX_BLOCK]
        jac = hartogs.darboux_jacobian(H, block, dual)
        pulled = (np.conj(jac) @ np.swapaxes(jac, -1, -2)).imag
        target = forms.hermitian_to_twoform_matrix(forms.hartogs_hessian(H, block, dual))
        out[start:start + len(block)] = np.max(np.abs(pulled - target), axis=(-2, -1))
    return out


def _witness(pts: np.ndarray, residuals: np.ndarray, tol: float) -> list:
    bad = np.argsort(-residuals)[:4]
    return [{"point": _pack(pts[i]), "residual": float(residuals[i])}
            for i in bad if residuals[i] > tol]


def _pack(vec: np.ndarray) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(vec, dtype=complex)]


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
                           _witness(pts, res, cfg.tol), started))
    return out


def check_darboux(cfg) -> list[dict]:
    return _check_pullback(cfg, dual=False)


def check_dual_darboux(cfg) -> list[dict]:
    return _check_pullback(cfg, dual=True)


def check_psh(cfg) -> list[dict]:
    """Strict plurisubharmonicity: smallest dual Hessian eigenvalue must stay
    positive (tolerance 0 on its negative part)."""
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
                           worst, 0.0, _witness(pts, -eigs, 0.0), started))
    return out


def check_det_formula(cfg) -> list[dict]:
    """The paper's product formula for the dual Hessian determinant (genus and
    exponent n+2) against the determinant of the closed-form dual Hessian,
    whose Jordan-data blocks (A^-1)^T (x) C^-1 hold no genus, relative and
    batched; plus the genus fit against the domain invariant."""
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
                           _witness(pts, rel, cfg.tol), started))
    started = time.perf_counter()
    fitted = measures.fit_genus(cfg.domain_spec)
    out.append(_result("det-formula", {"operation": "fit_genus", "fitted": fitted},
                       abs(fitted - cfg.domain_spec.genus), FIT_GENUS_TOL, None, started))
    return out


def check_volume(cfg) -> list[dict]:
    """Flat volume against the analytic value (when one exists) and the
    dual/flat ratio against the Gamma-product formula, both as z-scores."""
    out = []
    for mu in cfg.mu:
        H = hartogs.make_hartogs(cfg.domain_spec, mu)
        started = time.perf_counter()
        flat = measures.mc_volume_flat(H, cfg.samples, cfg.seed)
        exact = measures.flat_volume_exact(H)
        if exact is not None:
            # zero hits, or all hits, give a zero binomial error: no z-score
            z = (abs(flat.value - exact) / flat.standard_error
                 if flat.standard_error > 0 else float("inf"))
            out.append(_result("volume", {"mu": mu, "samples": cfg.samples,
                                          "estimate": flat.value, "exact": exact,
                                          "operation": "mc_volume_flat"},
                               z, 3.0, None, started))
        started = time.perf_counter()
        dual = measures.mc_volume_dual(H, cfg.samples, cfg.seed + 1)
        want = measures.dual_flat_ratio_formula(H)
        if flat.value > 0:
            ratio = dual.value / flat.value
            se = ratio * np.hypot(dual.standard_error / dual.value,
                                  flat.standard_error / flat.value)
        else:  # no flat hit: the ratio is unbounded
            ratio, se = float("inf"), 0.0
        z = abs(ratio - want) / se if se > 0 else float("inf")
        out.append(_result("volume", {"mu": mu, "samples": cfg.samples,
                                      "ratio": ratio, "formula": want,
                                      "operation": "mc_volume_dual"},
                           z, 3.0, None, started))
    return out


def check_selberg(cfg) -> list[dict]:
    """Quadrature vs the Gamma product, relative error; tolerance 1e-6 in rank
    one and 1e-3 otherwise."""
    d = cfg.domain_spec
    tol = 1e-6 if d.r == 1 else 1e-3
    out = []
    for s in (0.0, 1.0, 2.5):
        started = time.perf_counter()
        quad = measures.selberg_quadrature_auto(d.r, d.a, d.b, s, rtol=tol / 10)
        closed = measures.capital_f(d, s)
        rel = abs(quad - closed) / closed
        out.append(_result("selberg", {"s": s, "r": d.r, "a": d.a, "b": d.b,
                                       "operation": "selberg_quadrature"},
                           rel, tol, None, started))
    return out


def check_duality(cfg) -> list[dict]:
    """Root of the duality equation: exactly 1 in rank one, inside (0,1)
    otherwise; plus the rank-one equality case of the product bound."""
    d = cfg.domain_spec
    started = time.perf_counter()
    root = measures.duality_root(d)
    if root is None:
        res = _result("duality", {"operation": "duality_root", "root": None},
                      np.inf, 1e-9, None, started)
    elif d.r == 1:
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
    return [res, _result("duality", {"operation": "gennaio_check",
                                     "value": gen.value, "bound": gen.bound,
                                     "equality": gen.equality},
                         0.0 if ok else 1.0, 0.5, None, started)]


def check_capacity(cfg) -> list[dict]:
    out = []
    for mu in cfg.mu:
        H = hartogs.make_hartogs(cfg.domain_spec, mu)
        if mu <= 1.0:
            started = time.perf_counter()
            cert = capacity.capacity_certificate(H, "flat-hartogs", cfg.samples // 4,
                                                 cfg.seed + 5)
            out.append(_result("capacity", {"mu": mu, "side": "flat-hartogs",
                                            "interval": [cert.lower, cert.upper],
                                            "operation": "capacity_certificate"},
                               float(len(cert.failures)), 0.0,
                               cert.failures[:4], started))
        started = time.perf_counter()
        cert = capacity.capacity_certificate(H, "dual", cfg.samples // 4, cfg.seed + 6)
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
        worst = 0.0
        for mapping in (hartogs.psi_map_vec, hartogs.phi_map_vec):
            rhs = hartogs.hartogs_isotropy_apply(H, taus, mapping(H, pts))
            worst = max(worst, float(np.max(np.abs(mapping(H, moved) - rhs))))
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
        worst = max(float(np.max(np.abs(inverse(H, mapping(H, some)) - some)))
                    for mapping, inverse in ((hartogs.psi_map_vec, hartogs.psi_inverse),
                                             (hartogs.phi_map_vec, hartogs.phi_inverse)))
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
