"""Verification battery behind the CLI.

A check family is one generator under `@_family(name, help)`, which
registers it in `CHECKS` and its help line in `HELP`.  It yields one
`_entry` per identity checked, a worst residual against a tolerance, and the
wrapper names and times each entry for the JSON report.  The sampled
families (darboux, dual-darboux, psh and det-formula) stream their points
through `_stream`, drawn `_CHUNK` at a time and measured `_BLOCK` at a time,
and the isotropy pairs of equivariance follow the same rule, so memory does
not grow with --points and a report does not depend on either constant.
Every entry passes or fails by one rule, `_passes`.
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

import functools
import time

import numpy as np

from . import capacity, forms, hartogs, jtsys, measures

# the genus fit runs on the closed-form Hessian, so it lands on the genus to rounding
FIT_GENUS_TOL = 1e-9
# the volume and Selberg quadratures are exact, so they land on their closed forms
# to rounding
QUADRATURE_TOL = 1e-12


def _passes(values, tol: float, strict: bool):
    """The one pass rule: a value passes when <= tol, or < tol if strict; NaN fails."""
    return values < tol if strict else values <= tol


def _entry(params: dict, worst: float, tol: float, witnesses: list | None = None,
           strict: bool = False) -> dict:
    """A report entry without its name and wall time, its status given by `_passes`."""
    return {
        "parameters": params,
        "status": "pass" if _passes(worst, tol, strict) else "fail",
        "worst_residual": float(worst),
        "tolerance": float(tol),
        "witnesses": witnesses or [],
    }


CHECKS = {}  # family name -> check(cfg) -> list of report entries
HELP = {}  # family name -> the help line of its chverify command


def _family(name: str, help_text: str):
    """Register a generator of `_entry` dicts as the family `name`: the
    returned check(cfg) lists the entries, each with the family's name and
    its wall time, which runs from the end of the entry before (or from the
    call, for the first).  functools.wraps keeps the generator's name and
    module, so `CHECKS[name]` is the module's check_* function."""
    def register(entries):
        @functools.wraps(entries)
        def check(cfg) -> list[dict]:
            out, mark = [], time.perf_counter()
            for entry in entries(cfg):
                now = time.perf_counter()
                out.append({"name": name, **entry, "wall_time_s": round(now - mark, 3)})
                mark = now
            return out
        CHECKS[name] = check
        HELP[name] = help_text
        return check
    return register


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
    jac = hartogs.darboux_jacobian(H, pts, dual)
    # contiguous planes, which numpy's matmul hands to BLAS; each input
    # is dropped once the next step holds what it needs of it
    re = np.ascontiguousarray(jac.real)
    im_t = np.ascontiguousarray(np.swapaxes(jac.imag, -1, -2))
    del jac
    xy = re @ im_t
    del re, im_t
    gap = xy - np.swapaxes(xy, -1, -2)
    del xy
    g = forms.hartogs_hessian(H, pts, dual)
    # minus the form's blocks, in place
    gap[..., 0::2, 0::2] += g.imag
    gap[..., 1::2, 1::2] += g.imag
    gap[..., 0::2, 1::2] -= g.real
    gap[..., 1::2, 0::2] += np.swapaxes(g.real, -1, -2)
    # max(|Re G|, |Im G|) and |gap| in place, on planes no later step reads
    g_re = np.abs(g.real, out=g.real)
    np.maximum(g_re, np.abs(g.imag, out=g.imag), out=g_re)
    return np.max(np.abs(gap, out=gap), axis=(-2, -1)) / np.max(g_re, axis=(-2, -1))


# Points per draw and per measured block of a sampled family.  Each draw of up
# to _CHUNK points is measured _BLOCK points at a time and reduced before the
# next draw, so memory does not grow with --points.  A block bounds a kernel's
# peak (a 512-point darboux block on type-I(3,3) peaks at 3.3 MB traced); a
# draw of 8192 points faults in fewer pages than draws of 512.  Every measured
# kernel is row-exact, so a report does not depend on either constant.
_CHUNK = 1 << 13
_BLOCK = 1 << 9


def _stream(count: int, draw, measure) -> tuple:
    """count points from draw(k), `_CHUNK` at a time, each draw measured by
    measure(pts) `_BLOCK` points at a time: the worst residual, np.max over
    all, so a NaN propagates, and the four points with the largest residuals,
    a NaN ranked first, with those residuals."""
    worst, top_pts, top_res = -np.inf, None, None
    for start in range(0, count, _CHUNK):
        pts = draw(min(_CHUNK, count - start))
        res = np.concatenate([measure(pts[i:i + _BLOCK]) for i in range(0, len(pts), _BLOCK)])
        worst = np.maximum(worst, np.max(res))
        if top_res is not None:
            pts, res = np.concatenate([top_pts, pts]), np.concatenate([top_res, res])
        keep = np.argsort(-np.where(np.isnan(res), np.inf, res))[:4]
        top_pts, top_res = pts[keep], res[keep]
    return float(worst), top_pts, top_res


def _sampled(cfg, operation: str, offset: int, count: int, draw, measure, tol: float,
             strict: bool = False):
    """One entry per mu: count points from draw(H, k, rng), with one generator
    seeded cfg.seed + offset, measured by measure(H, pts) and gated at tol.
    The witnesses are the failing points among the four largest residuals."""
    for mu in cfg.mu:
        H = hartogs.make_hartogs(cfg.domain_spec, mu)
        rng = np.random.default_rng(cfg.seed + offset)
        worst, pts, res = _stream(count, lambda k: draw(H, k, rng), lambda pts: measure(H, pts))
        failed = ~_passes(res, tol, strict)
        yield _entry({"mu": mu, "points": count, "operation": operation}, worst, tol,
                     [{"point": capacity.pack_point(p), "residual": float(r)}
                      for p, r in zip(pts[failed], res[failed])], strict)


@_family("darboux", "Pull the flat form back through Psi and compare with the domain form.")
def check_darboux(cfg):
    yield from _sampled(cfg, "pullback", 0, cfg.points,
                        hartogs.sample_member_points, darboux_residuals, cfg.tol)


@_family("dual-darboux", "Pull the flat form back through Phi and compare with the dual form.")
def check_dual_darboux(cfg):
    yield from _sampled(cfg, "pullback", 1, cfg.points,
                        lambda H, k, rng: hartogs.sample_heavy_points(H.domain.n + 1, k, rng),
                        lambda H, pts: darboux_residuals(H, pts, True), cfg.tol)


@_family("psh", "Certify strict plurisubharmonicity of the dual potential.")
def check_psh(cfg):
    """Strict plurisubharmonicity: the dual Hessian G must be positive
    definite at every point.  It is decided on its diagonally scaled form S =
    |D|^(-1/2) G |D|^(-1/2), D = diag(G), which has G's inertia (Sylvester's
    law) and is positive definite exactly when every pivot of its LDL* is
    positive (`forms.dual_hessian_min_pivot`).  The residual is minus the
    smallest pivot, O(1e-3 to 1) on every domain measured, and the gate is
    strict (residual < 0), so a zero pivot fails, as does a row with a
    diagonal entry <= 0 or an inf or NaN entry (a NaN residual)."""
    yield from _sampled(cfg, "is_positive_definite", 2, cfg.points,
                        lambda H, k, rng: hartogs.sample_ball_points(H.domain.n + 1, k, rng, 10.0),
                        lambda H, pts: -forms.dual_hessian_min_pivot(H, pts), 0.0, strict=True)


def _det_gap(H: hartogs.HartogsSpec, pts: np.ndarray) -> np.ndarray:
    closed = forms.det_dual_hessian(H, pts)
    # both determinants underflow to 0 far out at large mu, and past mu ~ 1e154
    # the Hessian has inf and NaN entries: 0/0 or a NaN determinant is a NaN
    # residual, which fails
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = np.linalg.det(forms.hartogs_hessian(H, pts, dual=True)).real
        return np.abs(ref - closed) / np.abs(closed)


@_family("det-formula", "Product-formula dual Hessian determinant vs the closed-form Hessian.")
def check_det_formula(cfg):
    """The paper's product formula for the dual Hessian determinant (genus and
    exponent n+2) against the determinant of the closed-form dual Hessian,
    whose Jordan-data blocks (A^-1)^T (x) C^-1 hold no genus, relative and
    batched; plus the genus fit against the domain invariant.

    It does not test the gradient of log N*: the Schur complement of the
    w-w entry in the dual Hessian is mu t l_jk, since the terms in l_j
    conj(l_k) cancel, so the determinant is blind to the gradient (a 10%
    error in it still passes).  The darboux checks hold the gradient."""
    yield from _sampled(cfg, "det_dual_hessian", 3, max(10, cfg.points // 4),
                        lambda H, k, rng: 0.7 * (rng.normal(size=(k, H.domain.n + 1))
                                                 + 1j * rng.normal(size=(k, H.domain.n + 1))),
                        _det_gap, cfg.tol)
    fitted = measures.fit_genus(cfg.domain_spec)
    yield _entry({"operation": "fit_genus", "fitted": fitted},
                 abs(fitted - cfg.domain_spec.genus), FIT_GENUS_TOL)


@_family("volume", "Exact quadrature volumes against F(mu) and the dual/flat ratio formula.")
def check_volume(cfg):
    """The exact quadratures of both volumes (`measures`), in units of the
    polar constant pi c: the flat volume against F(mu) = F(0) F(mu)/F(0) and
    the dual/flat ratio against the Gamma-product formula, both relative at
    `QUADRATURE_TOL`.  The Haar pairs and phases of the nodes come from the
    seed."""
    d = cfg.domain_spec
    for mu in cfg.mu:
        H = hartogs.make_hartogs(d, mu)
        rng = np.random.default_rng(cfg.seed)
        flat = measures.flat_volume_quadrature(H, rng)
        # F(mu)/F(0) is a product of rational factors, exact at every mu
        exact = measures.capital_f(d, 0.0) * measures.capital_f_ratio(d, mu)
        yield _entry({"mu": mu, "estimate": flat, "exact": exact,
                      "operation": "flat_volume_quadrature"},
                     abs(flat - exact) / exact, QUADRATURE_TOL)
        dual = measures.dual_volume_quadrature(H, rng)
        ratio = dual / flat if flat > 0 else float("inf")
        want = measures.dual_flat_ratio_formula(H)
        yield _entry({"mu": mu, "ratio": ratio, "formula": want,
                      "operation": "dual_volume_quadrature"},
                     abs(ratio - want) / want, QUADRATURE_TOL)


@_family("selberg", "Exact Gauss-Jacobi quadrature of F(s) against the Gamma product.")
def check_selberg(cfg):
    """The exact Gauss-Jacobi quadrature of F(s) against the Gamma product,
    relative at `QUADRATURE_TOL`, for s in (0, 0.5, 1, 2.5).  In rank one the
    rule is the Beta closed form itself (see `measures.selberg_quadrature`)."""
    d = cfg.domain_spec
    for s in (0.0, 0.5, 1.0, 2.5):
        quad = measures.selberg_quadrature(d.r, d.a, d.b, s)
        closed = measures.capital_f(d, s)
        yield _entry({"s": s, "r": d.r, "a": d.a, "b": d.b, "operation": "selberg_quadrature"},
                     abs(quad - closed) / closed, QUADRATURE_TOL)


@_family("duality",
         "Root of the duality equation, equal volumes there, the rank-one equality case.")
def check_duality(cfg):
    """Root of the duality equation: exactly 1 in rank one, inside (0,1)
    otherwise; the rank-one equality case of the product bound; and the
    identity itself: the flat and dual quadrature volumes equal at the root,
    relative at `QUADRATURE_TOL`."""
    d = cfg.domain_spec
    root = measures.duality_root(d)
    if d.r == 1:
        yield _entry({"operation": "duality_root", "root": root}, abs(root - 1.0), 1e-9)
    else:
        yield _entry({"operation": "duality_root", "root": root},
                     0.0 if 0.0 < root < 1.0 else 1.0, 0.5)
    gen = measures.gennaio_check(d)
    ok = gen.passed and gen.equality == (d.r == 1)
    yield _entry({"operation": "gennaio_check", "value": gen.value, "bound": gen.bound,
                  "equality": gen.equality}, 0.0 if ok else 1.0, 0.5)
    H = hartogs.make_hartogs(d, root)
    rng = np.random.default_rng(cfg.seed)
    flat = measures.flat_volume_quadrature(H, rng)
    dual = measures.dual_volume_quadrature(H, rng)
    yield _entry({"operation": "volume_identity", "root": root, "flat": flat, "dual": dual},
                 abs(dual - flat) / flat if flat > 0 else float("inf"), QUADRATURE_TOL)


@_family("capacity", "Embedding-certified symplectic capacity intervals.")
def check_capacity(cfg):
    for mu in cfg.mu:
        H = hartogs.make_hartogs(cfg.domain_spec, mu)
        if mu <= 1.0:
            cert = capacity.capacity_certificate(H, "flat-hartogs", cfg.seed + 5)
            yield _entry({"mu": mu, "side": "flat-hartogs", "interval": [cert.lower, cert.upper],
                          "operation": "capacity_certificate"},
                         float(len(cert.failures)), 0.0, cert.failures[:4])
        cert = capacity.capacity_certificate(H, "dual", cfg.seed + 6)
        yield _entry({"mu": mu, "side": "dual", "interval": [cert.lower, cert.upper],
                      "notes": list(cert.notes), "operation": "capacity_certificate"},
                     float(len(cert.failures)), 0.0, cert.failures[:4])


@_family("equivariance", "Isotropy equivariance, hereditary maps, inverses, ball case.")
def check_equivariance(cfg):
    """Isotropy equivariance of both maps, hereditary behavior under the lift
    of the frame embedding of a polydisc, inverse round trips, and the
    rank-one ball specialization.

    The pairs compare Psi(tau p) with tau Psi(p), and likewise for Phi, at
    member points p, each moved by its own Haar element tau.  The points are
    drawn like a sampled family's, `_CHUNK` at a time, and each block of
    `_BLOCK` of them draws its taus just before it; `jtsys.random_isotropy`
    draws per element and in order, so the blocks' taus are the draw's.  A
    block takes one call of each map on the rows of tau p and p stacked, and
    one isotropy apply on both maps' images of p, the stack of taus broadcast
    over the map axis.  The lift's 16 points (on the polydisc Hs) and the
    round trip's 6 are drawn right after the last block's taus, from the
    same generator, and their rows ride along in that block's map calls: Psi
    on [tau p; p; lifted; round trip] and Phi on [tau p; p; round trip].  The
    lift keeps its own Psi call on Hs and the round trip its two inverses.
    Every one of these kernels is row-exact, so each residual has the bits of
    one call per map and point set.  The pairs entry's wall time includes the
    map work of the lift and round-trip rows."""
    d = cfg.domain_spec
    m = d.r if d.kind == jtsys.KIND_TYPE_I else max(1, d.n - 1)
    count = max(8, cfg.points // 4)
    for mu in cfg.mu:
        H = hartogs.make_hartogs(d, mu)
        Hs = hartogs.make_hartogs(jtsys.make_domain(jtsys.KIND_POLYDISC, n=m), mu)
        rng = np.random.default_rng(cfg.seed + 7)
        worst = -np.inf
        for start in range(0, count, _CHUNK):
            drawn = hartogs.sample_member_points(H, min(_CHUNK, count - start), rng, lam_max=0.8)
            for at in range(0, len(drawn), _BLOCK):
                pts = drawn[at:at + _BLOCK]
                k = len(pts)
                taus = jtsys.random_isotropy(d, rng, k)  # row i moves point i
                lifted = some = pts[:0]
                if start + at + k == count:  # the last block
                    small = hartogs.sample_member_points(Hs, 16, rng, lam_max=0.7)
                    some = hartogs.sample_member_points(H, 6, rng, lam_max=0.75)
                    lifted = hartogs.lift_embedding(d, small)
                both = np.concatenate([hartogs.hartogs_isotropy_apply(H, taus, pts), pts])
                psi = hartogs.psi_map_vec(H, np.concatenate([both, lifted, some]))
                phi = hartogs.phi_map_vec(H, np.concatenate([both, some]))
                # (map, point, coordinate): the images of tau p, then those of p
                images = np.stack([psi[:2 * k], phi[:2 * k]])
                moved = hartogs.hartogs_isotropy_apply(H, taus, images[:, k:])
                # np.maximum and np.max propagate NaN, so a NaN residual reaches the gate
                worst = np.maximum(worst, np.max(np.abs(images[:, :k] - moved)))
        yield _entry({"mu": mu, "pairs": count, "operation": "hartogs_isotropy_apply"},
                     float(worst), 1e-10)

        expect = hartogs.lift_embedding(d, hartogs.psi_map_vec(Hs, small))
        big = psi[2 * k:2 * k + len(lifted)]
        yield _entry({"mu": mu, "operation": "lift_embedding"},
                     float(np.max(np.abs(big - expect))), 1e-10)

        worst = np.max([np.abs(inverse(H, image) - some)
                        for image, inverse in ((psi[2 * k + len(lifted):], hartogs.psi_inverse),
                                               (phi[2 * k:], hartogs.phi_inverse))])
        yield _entry({"mu": mu, "operation": "psi_inverse"}, worst, 1e-8)

    if d.r == 1:
        Hb = hartogs.make_hartogs(d, 1.0)
        rng = np.random.default_rng(cfg.seed + 8)
        pts = hartogs.sample_ball_points(d.n + 1, 64, rng, 0.9)
        gap = np.max(np.abs(hartogs.psi_map_vec(Hb, pts) - hartogs.unit_ball_darboux(pts)))
        yield _entry({"operation": "psi_map", "case": "rank-one ball specialization"},
                     float(gap), 1e-12)
