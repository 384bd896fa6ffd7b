"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
The configuration grid is six base domains crossed with mu in {0.5, 1, 2}.
"""

import math
import time

import numpy as np

from cartanhartogs import capacity, forms, hartogs, jtsys, measures, verify
from reference import det_dual_hessian_fd

GRID_DOMAINS = (
    jtsys.make_domain(jtsys.KIND_POLYDISC, n=1),
    jtsys.make_domain(jtsys.KIND_POLYDISC, n=2),
    jtsys.make_domain(jtsys.KIND_POLYDISC, n=3),
    jtsys.make_domain(jtsys.KIND_TYPE_I, p=1, q=2),
    jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2),
    jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=3),
)
MUS = (0.5, 1.0, 2.0)


def _label(d):
    return f"{d.kind}{d.shape}"


def _report(num, name, passed, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_1_darboux_pullback():
    started = time.perf_counter()
    worst = 0.0
    for i, d in enumerate(GRID_DOMAINS):
        for j, mu in enumerate(MUS):
            H = hartogs.make_hartogs(d, mu)
            rng = np.random.default_rng(100 + 10 * i + j)
            pts = hartogs.sample_member_points(H, 100, rng)
            res = verify.darboux_residuals(H, pts)
            worst = max(worst, float(res.max()))
    elapsed = time.perf_counter() - started
    _report(1, "darboux pullback", worst <= 1e-5 and elapsed <= 60.0,
            f"max residual {worst:.3e} (tol 1e-05), runtime {elapsed:.1f}s (budget 60s)")


def test_criterion_2_dual_darboux_pullback():
    worst = 0.0
    for i, d in enumerate(GRID_DOMAINS):
        for j, mu in enumerate(MUS):
            H = hartogs.make_hartogs(d, mu)
            rng = np.random.default_rng(200 + 10 * i + j)
            pts = hartogs.sample_heavy_points(d.n + 1, 100, rng)
            res = verify.darboux_residuals(H, pts, dual=True)
            worst = max(worst, float(res.max()))
    _report(2, "dual darboux pullback", worst <= 1e-5,
            f"max residual {worst:.3e} (tol 1e-05, heavy tails to norm 10)")


def test_criterion_3_strict_psh():
    smallest = np.inf
    for i, d in enumerate(GRID_DOMAINS):
        for j, mu in enumerate(MUS):
            H = hartogs.make_hartogs(d, mu)
            rng = np.random.default_rng(300 + 10 * i + j)
            pts = hartogs.sample_ball_points(d.n + 1, 1000, rng, 10.0)
            pivots = forms.dual_hessian_min_pivot(H, pts)
            smallest = min(smallest, float(pivots.min()))
    _report(3, "strict plurisubharmonicity", smallest > 0.0,
            f"min pivot of the scaled Hessian {smallest:.3e} over 10^3 points/config")


def test_criterion_4_determinant_formula():
    worst = 0.0
    for i, d in enumerate(GRID_DOMAINS):
        for j, mu in enumerate(MUS):
            H = hartogs.make_hartogs(d, mu)
            rng = np.random.default_rng(400 + 10 * i + j)
            pts = 0.7 * (rng.normal(size=(50, d.n + 1))
                         + 1j * rng.normal(size=(50, d.n + 1)))
            closed = forms.det_dual_hessian(H, pts)
            for row, want in zip(pts, closed):
                fd = det_dual_hessian_fd(H, row, step=1e-4)
                worst = max(worst, abs(fd - want) / abs(want))
    fitted = measures.fit_genus(jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2))
    ok = worst <= 1e-5 and abs(fitted - 4.0) <= 1e-9
    _report(4, "determinant formula", ok,
            f"max relative error {worst:.3e} (tol 1e-05) at 50 points/config; "
            f"fit_genus(type-I(2,2)) = {fitted:.12f} (want 4 +- 1e-9)")


def test_criterion_5_volume_quantitative():
    # the flat quadrature is vol(M) / (pi c); on the polydisc the polar
    # constant is c = n! (2 pi)^n, so pi c times it is the Lebesgue volume
    started = time.perf_counter()
    worst = 0.0
    vols = []
    for n, mu, exact in ((1, 1.0, np.pi**2 / 2), (2, 2.0, np.pi**3 / 9)):
        H = hartogs.make_hartogs(jtsys.make_domain(jtsys.KIND_POLYDISC, n=n), mu)
        flat = measures.flat_volume_quadrature(H, np.random.default_rng(7))
        vol = np.pi * math.factorial(n) * (2 * np.pi) ** n * flat
        worst = max(worst, abs(vol - exact) / exact)
        vols.append(vol)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed <= 30.0
    _report(5, "volume quantitative", ok,
            f"pi^2/2: {vols[0]:.12f}, pi^3/9: {vols[1]:.12f}, max rel err {worst:.2e} "
            f"(tol 1e-12), runtime {elapsed:.2f}s (budget 30s)")


def test_criterion_6_dual_flat_ratio():
    worst = 0.0
    rank_three = (jtsys.make_domain(jtsys.KIND_TYPE_I, p=3, q=3),
                  jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=4))
    for i, d in enumerate(GRID_DOMAINS + rank_three):
        for j, mu in enumerate(MUS):
            H = hartogs.make_hartogs(d, mu)
            rng = np.random.default_rng(600 + 10 * i + j)
            ratio = (measures.dual_volume_quadrature(H, rng)
                     / measures.flat_volume_quadrature(H, rng))
            want = measures.dual_flat_ratio_formula(H)
            worst = max(worst, abs(ratio - want) / want)
    _report(6, "dual/flat volume ratio", worst <= 1e-12,
            f"max rel err {worst:.2e} over the grid and type-I (3,3), (2,4), "
            f"mu in {MUS} (tol 1e-12)")


def test_criterion_7_selberg_identity():
    worst = 0.0
    cases = ((1, 0, 0), (1, 2, 1), (2, 2, 0), (2, 2, 1), (3, 2, 0))
    for r, a, b in cases:
        for s in (0.0, 0.5, 1.0, 2.5):
            quad = measures.selberg_quadrature(r, a, b, s)
            closed = np.exp(measures.log_capital_f(r, a, b, s))
            worst = max(worst, abs(quad - closed) / closed)
    _report(7, "Selberg identity", worst <= 1e-12,
            f"max rel err {worst:.2e} (tol 1e-12) at ranks 1-3, s in (0, 0.5, 1, 2.5)")


def test_criterion_8_duality_characterization():
    details = []
    ok = True
    for n in (1, 2, 3):
        root = measures.duality_root(jtsys.make_domain(jtsys.KIND_CHN, n=n))
        ok &= abs(root - 1.0) <= 1e-9
        details.append(f"CH^{n}: {root:.10f}")
    for d in (jtsys.make_domain(jtsys.KIND_POLYDISC, n=2),
              jtsys.make_domain(jtsys.KIND_POLYDISC, n=3),
              jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2)):
        root = measures.duality_root(d)
        ok &= 0.0 < root < 1.0
        details.append(f"{_label(d)}: {root:.6f}")
    for d in GRID_DOMAINS:
        res = measures.gennaio_check(d)
        ok &= res.passed and (res.equality == (d.r == 1))
    _report(8, "duality characterization", ok,
            "; ".join(details) + "; product bound equality exactly at rank 1")


def test_criterion_9_capacity_certificates():
    d = jtsys.make_domain(jtsys.KIND_POLYDISC, n=1)
    ok = True
    details = []
    for mu in (0.5, 1.0):
        cert = capacity.capacity_certificate(hartogs.make_hartogs(d, mu),
                                             "flat-hartogs", seed=11)
        ok &= (not cert.failures and cert.lower == np.pi * (1 - 1e-3) ** 2
               and cert.upper == np.pi)
        details.append(f"flat mu={mu}: [{cert.lower:.4f}, {cert.upper:.4f}]")
    cert = capacity.capacity_certificate(hartogs.make_hartogs(d, 4.0), "dual", seed=11)
    ok &= not cert.failures and cert.lower >= np.pi * (1.0 - 1e-3) ** 2
    details.append(f"dual mu=4: lower={cert.lower:.4f}")
    cert = capacity.capacity_certificate(hartogs.make_hartogs(d, 0.25), "dual", seed=11)
    ok &= not cert.failures and cert.lower >= np.pi * (0.5 - 1e-3) ** 2
    ok &= bool(cert.notes)  # headline discrepancy reported, not asserted
    details.append(f"dual mu=0.25: lower={cert.lower:.4f}, xi-bound 0.25 on the targeted"
                   " draws, headline noted")
    _report(9, "capacity certificates", ok, "; ".join(details))


def test_criterion_10_structure_maps():
    rng = np.random.default_rng(1000)
    equi = 0.0
    pairs = 0
    for d in GRID_DOMAINS:
        for mu in (0.5, 2.0):
            H = hartogs.make_hartogs(d, mu)
            pts = hartogs.sample_member_points(H, 9, rng, lam_max=0.8)
            for row in pts[:, None]:
                tau = jtsys.random_isotropy(d, rng, 1)
                moved = hartogs.hartogs_isotropy_apply(H, tau, row)
                for mapping in (hartogs.psi_map_vec, hartogs.phi_map_vec):
                    lhs = mapping(H, moved)
                    rhs = hartogs.hartogs_isotropy_apply(H, tau, mapping(H, row))
                    equi = max(equi, float(np.max(np.abs(lhs - rhs))))
                pairs += 1

    hered = 0.0
    # Delta^m on the canonical frame of type-I(2,2), type-I(2,3) and Delta^3
    for m, target in ((2, GRID_DOMAINS[4]), (2, GRID_DOMAINS[5]), (1, GRID_DOMAINS[2])):
        for mu in (0.5, 2.0):
            Hs = hartogs.make_hartogs(jtsys.make_domain(jtsys.KIND_POLYDISC, n=m), mu)
            Ht = hartogs.make_hartogs(target, mu)
            pts = hartogs.sample_member_points(Hs, 10, rng, lam_max=0.7)
            big = hartogs.psi_map_vec(Ht, hartogs.lift_embedding(target, pts))
            small = hartogs.lift_embedding(target, hartogs.psi_map_vec(Hs, pts))
            hered = max(hered, float(np.max(np.abs(big - small))))

    ball = 0.0
    for n in (1, 2, 3):
        H = hartogs.make_hartogs(jtsys.make_domain(jtsys.KIND_CHN, n=n), 1.0)
        pts = hartogs.sample_ball_points(n + 1, 200, rng, 0.97)
        gap = np.abs(hartogs.psi_map_vec(H, pts) - hartogs.unit_ball_darboux(pts))
        ball = max(ball, float(gap.max()))

    round_trip = 0.0
    for d in GRID_DOMAINS:
        H = hartogs.make_hartogs(d, 1.5)
        pts = hartogs.sample_member_points(H, 5, rng, lam_max=0.75)
        for mapping, inverse in ((hartogs.psi_map_vec, hartogs.psi_inverse),
                                 (hartogs.phi_map_vec, hartogs.phi_inverse)):
            back = inverse(H, mapping(H, pts))
            round_trip = max(round_trip, float(np.max(np.abs(back - pts))))

    ok = (equi <= 1e-10 and hered <= 1e-10 and ball <= 1e-12
          and round_trip <= 1e-8)
    _report(10, "structure maps", ok,
            f"equivariance {equi:.2e} (tol 1e-10, {pairs} pairs); hereditary "
            f"{hered:.2e} (tol 1e-10); ball specialization {ball:.2e} "
            f"(tol 1e-12); round trips {round_trip:.2e} (tol 1e-08)")
