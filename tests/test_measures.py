import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from cartanhartogs import cli, forms, hartogs, jtsys, measures, verify
from cartanhartogs.errors import DomainError
from cartanhartogs.forms import det_dual_hessian
from conftest import GRID_AND_T33
from reference import (fit_genus_two_passes, flat_volume_exact, selberg_quadrature_symmetrized,
                       singular_values_svd)

POLY1 = jtsys.make_domain(jtsys.KIND_POLYDISC, n=1)
POLY2 = jtsys.make_domain(jtsys.KIND_POLYDISC, n=2)
T22 = jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2)
CH2 = jtsys.make_domain(jtsys.KIND_CHN, n=2)
T33 = jtsys.make_domain(jtsys.KIND_TYPE_I, p=3, q=3)


def test_capital_f_rank_one_beta():
    # r=1, a=0, b=0: F(s) = 1 / (2 (s+1)), the Beta integral
    assert measures.capital_f(POLY1, 0.0) == pytest.approx(0.5)
    assert measures.capital_f(POLY1, 1.0) == pytest.approx(0.25)
    assert measures.capital_f(POLY1, 2.5) == pytest.approx(1.0 / 7.0)
    # r=1, b = n-1 (complex hyperbolic): F(s) = Gamma(n)Gamma(s+1)/(2 Gamma(s+n+1))
    ch3 = jtsys.make_domain(jtsys.KIND_CHN, n=3)
    assert measures.capital_f(ch3, 0.0) == pytest.approx(2.0 / (2 * 6))
    assert measures.capital_f(ch3, 1.0) == pytest.approx(2.0 / (2 * 24))


def test_capital_f_rank_two_oracle():
    # r=2, a=2, b=0, s=0: the double integral evaluates to 1/48
    assert measures.capital_f(T22, 0.0) == pytest.approx(1.0 / 48.0)


def test_capital_f_rejects_negative_s():
    with pytest.raises(DomainError):
        measures.capital_f(POLY1, -0.5)


def test_capital_f_ratio_product_form():
    # F(1)/F(0) = prod_j (1 + (j-1) a/2) / (b + 2 + (r+j-2) a/2)
    for d in (POLY1, POLY2, T22, CH2,
              jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=3)):
        j = np.arange(1, d.r + 1)
        want = np.prod((1 + (j - 1) * d.a / 2)
                       / (d.b + 2 + (d.r + j - 2) * d.a / 2))
        npt.assert_allclose(measures.capital_f_ratio(d, 1.0), want, rtol=1e-12)


def test_log_route_matches_direct():
    for s in (0.0, 0.7, 3.2):
        npt.assert_allclose(
            np.exp(measures.log_capital_f(2, 2, 1, s)),
            measures.capital_f(jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=3), s),
            rtol=1e-12)


def _rising_ratio(D, mu) -> Fraction:
    """F(mu)/F(0) = prod_j prod_{i<k} (c_j + i)/(mu + c_j + i) in exact rationals,
    k = n/r, c_j = 1 + (j-1)a/2."""
    out = Fraction(1)
    for j in range(1, D.r + 1):
        c = 1 + Fraction((j - 1) * D.a, 2)
        for i in range(D.n // D.r):
            out *= (c + i) / (Fraction(mu) + c + i)
    return out


def test_gamma_ratios_hold_at_huge_mu():
    # F(mu)/F(0) and the rank-one flat volume are ratios of rising factorials,
    # formed as products of rational factors: held to exact rationals up to
    # mu = 1e100 (below the smallest normal double, only an absolute margin
    # of 1e-14 of it is representable)
    ch3 = jtsys.make_domain(jtsys.KIND_CHN, n=3)
    tiny = 1e-14 * sys.float_info.min
    for d in (ch3, POLY2, *(jtsys.make_domain(jtsys.KIND_TYPE_I, p=p, q=q)
                            for p, q in ((2, 3), (3, 3), (2, 4)))):
        for k in range(101):
            mu = 10.0**k
            npt.assert_allclose(measures.capital_f_ratio(d, mu), float(_rising_ratio(d, mu)),
                                rtol=1e-14, atol=tiny)
    for k in range(101):
        mu = Fraction(10.0**k)
        exact = Fraction(math.pi) ** 4 / ((mu + 1) * (mu + 2) * (mu + 3))
        npt.assert_allclose(flat_volume_exact(hartogs.make_hartogs(ch3, 10.0**k)),
                            float(exact), rtol=1e-14)


def test_selberg_quadrature_rank_one():
    for d, s in ((POLY1, 0.0), (POLY1, 2.5), (CH2, 1.0)):
        quad = measures.selberg_quadrature(d.r, d.a, d.b, s)
        npt.assert_allclose(quad, measures.capital_f(d, s), rtol=1e-13)


def test_selberg_quadrature_rank_two():
    quad = measures.selberg_quadrature(2, 2, 0, 0.0)
    npt.assert_allclose(quad, 1.0 / 48.0, rtol=1e-13)


def test_selberg_symmetrized_agrees():
    # the exact rule against the Gauss-Legendre reference on the full square
    exact = measures.selberg_quadrature(2, 2, 1, 1.0)
    symmetrized = selberg_quadrature_symmetrized(2, 2, 1, 1.0, resolution=90)
    npt.assert_allclose(symmetrized, exact, rtol=1e-3)


def test_selberg_auto_converges():
    # the rule has converged at its node count: one node more per axis
    # changes F(s) by rounding only, at integer and fractional s, up to rank 4
    for r, a, b in ((2, 2, 0), (2, 2, 1), (3, 2, 0), (4, 2, 0), (3, 0, 0)):
        m = a * (r - 1) // 2 + 1
        for s in (0.0, 1e-8, 0.5, 2.5):
            more = np.sum(measures._polar_rule(*measures._gauss_jacobi01(m + 1, s, b), r, a)[1])
            rule = measures.selberg_quadrature(r, a, b, s)
            npt.assert_allclose(more, rule, rtol=1e-13)
            npt.assert_allclose(rule, math.exp(measures.log_capital_f(r, a, b, s)), rtol=1e-13)


@pytest.mark.parametrize("alpha", [0.0, 1e-8, 0.5, 2.5, 1e2])
@pytest.mark.parametrize("b", [0, 1, 3])
def test_gauss_jacobi_rule_is_exact(alpha, b):
    # m nodes integrate x^k (1-x)^alpha x^b exactly for k <= 2m - 1: the
    # moments are B(alpha+1, b+k+1), a product of rational factors
    for m in (1, 2, 4):
        nodes, weights = measures._gauss_jacobi01(m, alpha, b)
        assert np.all((0 < nodes) & (nodes < 1)) and np.all(weights > 0)
        for k in range(2 * m):
            want = math.prod(i / (alpha + 1 + i) for i in range(1, b + k + 1)) / (alpha + 1)
            npt.assert_allclose(np.sum(weights * nodes**k), want, rtol=1e-13)


def test_quadratures_stay_finite_at_huge_mu():
    # the Jacobi rule takes no difference and no power of mu, so at mu = 1e300
    # its nodes stay in (0, 1) and its mass is b!/((mu+1) ... (mu+b+1))
    nodes, weights = measures._gauss_jacobi01(3, 1e300, 2)
    assert np.all((0 < nodes) & (nodes < 1e-290))
    npt.assert_allclose(np.sum(weights), 2.0 / (1e300 + 1) / (1e300 + 2) / (1e300 + 3),
                        rtol=1e-13)
    npt.assert_allclose(measures.selberg_quadrature(1, 2, 0, 1e300), 0.5 / (1e300 + 1),
                        rtol=1e-13)


def test_flat_volume_exact_oracles():
    H = hartogs.make_hartogs(POLY1, 1.0)
    assert flat_volume_exact(H) == pytest.approx(np.pi**2 / 2)
    H = hartogs.make_hartogs(POLY2, 2.0)
    assert flat_volume_exact(H) == pytest.approx(np.pi**3 / 9)
    # complex hyperbolic: pi^(n+1) Gamma(mu+1) / Gamma(mu+n+1)
    H = hartogs.make_hartogs(CH2, 0.5)
    want = np.pi**3 * math.gamma(1.5) / math.gamma(3.5)
    assert flat_volume_exact(H) == pytest.approx(want)
    # no closed form for higher-rank type-I
    assert flat_volume_exact(hartogs.make_hartogs(T22, 1.0)) is None


# the grid, type-I(3,3) and the larger rank-3 and rank-4 bases
QUADRATURE_DOMAINS = {**GRID_AND_T33, "type-I(2,4)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=4),
                      "type-I(4,4)": dict(kind=jtsys.KIND_TYPE_I, p=4, q=4)}


def _polar_constant(d):
    """c = vol(Omega) / F(0), with vol(Omega) = pi^n on the polydisc and
    pi^n / n! on the ball, so that vol(M) = pi c F(mu)."""
    vol = math.pi ** d.n if d.kind == jtsys.KIND_POLYDISC else math.pi ** d.n / math.factorial(d.n)
    return vol / measures.capital_f(d, 0.0)


@pytest.mark.parametrize("mu", [1e-8, 0.5, 1.0, 2.0, 1e2])
def test_flat_volume_quadrature_matches_exact(mu):
    # on the polydisc and in rank one, pi c times the quadrature is the
    # analytic volume, formed from rational factors without log-Gamma
    for d in (POLY1, POLY2, jtsys.make_domain(jtsys.KIND_POLYDISC, n=3),
              jtsys.make_domain(jtsys.KIND_CHN, n=1), CH2, jtsys.make_domain(jtsys.KIND_CHN, n=3)):
        H = hartogs.make_hartogs(d, mu)
        flat = measures.flat_volume_quadrature(H, np.random.default_rng(7))
        npt.assert_allclose(math.pi * _polar_constant(d) * flat,
                            flat_volume_exact(H), rtol=1e-12)


@pytest.mark.parametrize("mu", [1e-8, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("name", list(QUADRATURE_DOMAINS))
def test_volume_quadratures_match_the_closed_forms(name, mu):
    # flat: F(mu); dual: F(0) mu^n / (n+1), both over pi c
    d = jtsys.make_domain(**QUADRATURE_DOMAINS[name])
    H = hartogs.make_hartogs(d, mu)
    rng = np.random.default_rng(11)
    f0 = measures.capital_f(d, 0.0)
    npt.assert_allclose(measures.flat_volume_quadrature(H, rng),
                        f0 * measures.capital_f_ratio(d, mu), rtol=1e-12)
    npt.assert_allclose(measures.dual_volume_quadrature(H, rng),
                        f0 * mu ** d.n / (d.n + 1), rtol=1e-12)


def test_mc_volume_flat_matches_exact():
    # the volume family's flat entry on the unit disc at mu = 1: pi c times
    # its estimate is the analytic volume pi^2 / 2
    cfg = cli.RunConfig(kind=jtsys.KIND_POLYDISC, n=1, mu=(1.0,), checks=("volume",), seed=7)
    flat = verify.check_volume(cfg)[0]
    assert flat["status"] == "pass"
    assert flat["parameters"]["operation"] == "flat_volume_quadrature"
    npt.assert_allclose(math.pi * _polar_constant(POLY1) * flat["parameters"]["estimate"],
                        math.pi**2 / 2, rtol=1e-12)


def test_mc_volume_deterministic():
    # the volume family draws its rotations and phases from the seed: a
    # report repeats bit for bit, another seed moves it by rounding only
    def run(seed):
        cfg = cli.RunConfig(kind=jtsys.KIND_TYPE_I, p=2, q=2, mu=(0.5, 2.0),
                            checks=("volume",), seed=seed)
        return [c["parameters"] for c in verify.check_volume(cfg)]

    a, b, c = run(3), run(3), run(4)
    assert a == b
    for x, y in zip(a, c):
        key = "estimate" if "estimate" in x else "ratio"
        npt.assert_allclose(y[key], x[key], rtol=1e-13)


def test_mc_volume_dual_matches_formula():
    # the dual/flat quotient of the two quadratures is the Gamma-product
    # formula mu^n F(0) / ((n+1) F(mu)), at the self-dual point of the disc
    # and off it
    for d, mu in ((POLY1, 1.0), (CH2, 0.5), (T22, 2.0), (T33, 1.0)):
        H = hartogs.make_hartogs(d, mu)
        rng = np.random.default_rng(12)
        ratio = measures.dual_volume_quadrature(H, rng) / measures.flat_volume_quadrature(H, rng)
        npt.assert_allclose(ratio, measures.dual_flat_ratio_formula(H), rtol=1e-12)


@pytest.mark.parametrize("domain", [POLY2, T22, T33], ids=["polydisc-2", "type-I(2,2)", "type-I(3,3)"])
def test_volume_quadratures_repeat_at_a_seed(domain):
    # the Haar pairs and phases come from the generator: the same seed gives
    # the same bits, another seed other rotations of the same nodes
    H = hartogs.make_hartogs(domain, 0.5)

    def both(seed):
        rng = np.random.default_rng(seed)
        return measures.flat_volume_quadrature(H, rng), measures.dual_volume_quadrature(H, rng)

    assert both(3) == both(3)
    npt.assert_allclose(both(4), both(3), rtol=1e-13)


TORUS_DOMAINS = {
    "polydisc-3": dict(kind=jtsys.KIND_POLYDISC, n=3),
    "type-I(1,3)": dict(kind=jtsys.KIND_TYPE_I, p=1, q=3),
    "type-I(2,2)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=2),
    "type-I(2,3)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=3),
    "type-I(3,3)": dict(kind=jtsys.KIND_TYPE_I, p=3, q=3),
}


@pytest.mark.parametrize("name", list(TORUS_DOMAINS))
def test_torus_reduced_point_is_an_isotropy_image(name):
    # each quadrature node is its torus-reduced point, the real frame point
    # sum_j sqrt(x_j) e_j, moved by a Haar isotropy pair of its own: the
    # spectral values stay sqrt(x), and equal x give different points
    d = jtsys.make_domain(**TORUS_DOMAINS[name])
    x = np.random.default_rng(4).random((300, d.r))
    x[1] = x[0]
    z = measures._rotated_frame_points(d, x, np.random.default_rng(5))
    pairs = jtsys.random_isotropy(d, np.random.default_rng(5), len(x))
    npt.assert_array_equal(z, jtsys.isotropy_apply(d, pairs, jtsys.frame_point(d, np.sqrt(x))))
    npt.assert_allclose(np.sort(singular_values_svd(d, z), axis=1),
                        np.sort(np.sqrt(x), axis=1), rtol=1e-13)
    assert np.max(np.abs(z[0] - z[1])) > 0.1


class _NoPhase:
    """A generator stand-in whose phases are all 0: w real and positive."""

    def uniform(self, low, high, size):
        return np.zeros(size)


@pytest.mark.parametrize("domain", [POLY2, T22, T33, jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=4)],
                         ids=["polydisc-2", "type-I(2,2)", "type-I(3,3)", "type-I(2,4)"])
def test_torus_reduction_keeps_the_dual_estimate(monkeypatch, domain):
    # both quadratures give the same values, to rounding, at the rotated
    # nodes and at their torus-reduced points with w real: the integrands
    # are K-invariant and circular in w (moved by at most 3.1e-15 relative
    # over these domains at mu 0.5, 1, 2)
    hs = [hartogs.make_hartogs(domain, mu) for mu in (0.5, 1.0, 2.0)]

    def both(H, rng):
        return measures.flat_volume_quadrature(H, rng), measures.dual_volume_quadrature(H, rng)

    rotated = [both(H, np.random.default_rng(6)) for H in hs]
    monkeypatch.setattr(measures, "_rotated_frame_points",
                        lambda D, x, rng: jtsys.frame_point(D, np.sqrt(x)))
    reduced = [both(H, _NoPhase()) for H in hs]
    npt.assert_allclose(reduced, rotated, rtol=2e-14)


@pytest.mark.parametrize("domain", [POLY2, T22, T33], ids=["polydisc-2", "type-I(2,2)",
                                                           "type-I(3,3)"])
def test_blocking_changes_no_draw(domain):
    # each node draws its Haar pair in turn from the generator, so rotating
    # the nodes in blocks gives the same points, bit for bit, as all at once
    x = np.random.default_rng(1).random((50, domain.r))
    whole = measures._rotated_frame_points(domain, x, np.random.default_rng(2))
    rng = np.random.default_rng(2)
    blocks = [measures._rotated_frame_points(domain, x[lo:lo + 7], rng) for lo in range(0, 50, 7)]
    npt.assert_array_equal(np.concatenate(blocks), whole)


# the ids are the names of the Monte Carlo estimators these rules replaced
@pytest.mark.parametrize("estimator", [measures.flat_volume_quadrature,
                                       measures.dual_volume_quadrature],
                         ids=["mc_volume_flat", "mc_volume_dual"])
def test_monte_carlo_memory_is_bounded(estimator):
    # the tensor rules run over sorted node tuples: on type-I(4,4), the
    # largest base, the temporaries stay under 1 MiB (about 0.1 MiB)
    H = hartogs.make_hartogs(jtsys.make_domain(jtsys.KIND_TYPE_I, p=4, q=4), 1.0)
    tracemalloc.start()
    try:
        estimator(H, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_monte_carlo_takes_no_lapack_call(monkeypatch):
    # the hit test and both volume quadratures run with numpy.linalg's svd,
    # det and eigvalsh refusing, and give the values they gave before; eigh
    # runs once, on the flat side's 2x2 Golub-Welsch matrix, never per node
    H = hartogs.make_hartogs(jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=3), 1.0)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.6, 0.6, size=(2000, 7)) + 1j * rng.uniform(-0.6, 0.6, size=(2000, 7))

    def run():
        return (hartogs.ch_member_vec(H, pts),
                measures.flat_volume_quadrature(H, np.random.default_rng(3)),
                measures.dual_volume_quadrature(H, np.random.default_rng(3)))

    want = run()
    assert 0 < np.sum(want[0]) < len(pts)

    def refuse(*args, **kwargs):
        raise AssertionError("a per-point LAPACK call on the volume path")

    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    for name in ("svd", "det", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    got = run()
    npt.assert_array_equal(got[0], want[0])
    assert got[1:] == want[1:]
    assert shapes == [(2, 2)]


@pytest.mark.parametrize("domain", [POLY2, T22, T33], ids=["polydisc-2", "type-I(2,2)", "type-I(3,3)"])
def test_monte_carlo_takes_no_einsum_or_logaddexp(monkeypatch, domain):
    # the hit test and both volume quadratures run with np.einsum and
    # np.logaddexp refusing, and give the values they gave before
    H = hartogs.make_hartogs(domain, 1.0)
    rng = np.random.default_rng(8)
    shape = (2000, domain.n + 1)
    pts = rng.uniform(-0.6, 0.6, size=shape) + 1j * rng.uniform(-0.6, 0.6, size=shape)

    def run():
        return (hartogs.ch_member_vec(H, pts),
                measures.flat_volume_quadrature(H, np.random.default_rng(3)),
                measures.dual_volume_quadrature(H, np.random.default_rng(3)))

    want = run()
    assert 0 < np.sum(want[0]) < len(pts)

    def refuse(*args, **kwargs):
        raise AssertionError("a scalar-loop route on the volume path")

    for name in ("einsum", "logaddexp"):
        monkeypatch.setattr(np, name, refuse)
    got = run()
    npt.assert_array_equal(got[0], want[0])
    assert got[1:] == want[1:]


SLIPS = {
    # the dual Hessian determinant off by a factor 1 + 1e-8
    "det_dual_hessian": lambda mp: mp.setattr(
        measures, "det_dual_hessian",
        lambda H, pts, f=forms.det_dual_hessian: f(H, pts) * (1 + 1e-8)),
    # log N off by a factor 1 + 1e-8, at every binding of log_norm
    "log_norm": lambda mp: [mp.setattr(mod, "log_norm",
                                       lambda D, z, sign, f=jtsys.log_norm: f(D, z, sign) * (1 + 1e-8))
                            for mod in (jtsys, hartogs, forms, measures)],
    # the fiber boundary of M moved out by 1e-6 in 2 log|w| - mu log N
    "ch_member_vec": lambda mp: mp.setattr(
        measures, "ch_member_vec",
        lambda H, pts: (2.0 * np.log(np.abs(pts[..., -1]))
                        < H.mu * jtsys.log_norm(H.domain, pts[..., :-1], 1) + 1e-6)),
}


@pytest.mark.parametrize("slip", list(SLIPS))
@pytest.mark.parametrize("name", list(GRID_AND_T33))
def test_volume_fails_on_a_slip(monkeypatch, name, slip):
    # each slip fails a volume entry at every mu on the grid and type-I(3,3)
    cfg = cli.RunConfig(mu=(0.5, 1.0, 2.0), checks=("volume",), **GRID_AND_T33[name])
    assert all(c["status"] == "pass" for c in verify.check_volume(cfg))
    SLIPS[slip](monkeypatch)
    entries = verify.check_volume(cfg)
    for mu in cfg.mu:
        assert any(c["status"] == "fail" for c in entries if c["parameters"]["mu"] == mu)


def test_gauss_legendre_nodes_are_cached_read_only():
    first = measures._gauss01(37)
    again = measures._gauss01(37)
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
        assert not a.flags.writeable
    want_nodes, want_weights = np.polynomial.legendre.leggauss(37)
    npt.assert_array_equal(first[0], 0.5 * (want_nodes + 1.0))
    npt.assert_array_equal(first[1], 0.5 * want_weights)


LAYOUT_DOMAINS = {
    "polydisc-3": dict(kind=jtsys.KIND_POLYDISC, n=3),
    "type-I(1,3)": dict(kind=jtsys.KIND_TYPE_I, p=1, q=3),
    "type-I(2,2)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=2),
    "type-I(2,3)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=3),
    "type-I(3,3)": dict(kind=jtsys.KIND_TYPE_I, p=3, q=3),
    "type-I(2,4)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=4),
}


@pytest.mark.parametrize("name", list(LAYOUT_DOMAINS))
def test_kernels_ignore_memory_layout(name):
    # every kernel gives the same bits on the transpose of a coordinate-major
    # block as on C-ordered points
    d = jtsys.make_domain(**LAYOUT_DOMAINS[name])
    H = hartogs.make_hartogs(d, 1.0)
    rng = np.random.default_rng(9)
    shape = (3000, d.n + 1)
    pts = rng.uniform(-0.7, 0.7, size=shape) + 1j * rng.uniform(-0.7, 0.7, size=shape)
    major = np.ascontiguousarray(pts.T).T
    assert major.flags.f_contiguous and not major.flags.c_contiguous
    z, z_major = pts[:, :-1], major[:, :-1]
    for sign in (1, -1):
        npt.assert_array_equal(jtsys.gram_pivots(d, z_major, sign), jtsys.gram_pivots(d, z, sign))
        npt.assert_array_equal(jtsys.log_norm(d, z_major, sign), jtsys.log_norm(d, z, sign))
    npt.assert_array_equal(hartogs.ch_member_vec(H, major), hartogs.ch_member_vec(H, pts))
    npt.assert_array_equal(det_dual_hessian(H, major), det_dual_hessian(H, pts))


def _at_shifted_offset(a):
    """A copy of a that starts one element into a fresh buffer."""
    buf = np.empty(a.size + 1, dtype=a.dtype)
    out = buf[1:].reshape(a.shape)
    out[...] = a
    return out


@pytest.mark.parametrize("name", list(LAYOUT_DOMAINS))
def test_kernels_are_row_exact(name):
    # each row's value has the same bits in one 65536-row batch, in 8192-row
    # blocks and in a copy at a shifted memory offset
    d = jtsys.make_domain(**LAYOUT_DOMAINS[name])
    H = hartogs.make_hartogs(d, 1.0)
    rng = np.random.default_rng(6)
    rows, block = 1 << 16, 1 << 13
    shape = (rows, d.n + 1)
    scale = rng.uniform(0.0, 1.5, size=(rows, 1)) / np.sqrt(d.n / d.r)
    pts = scale * (rng.uniform(-1, 1, size=shape) + 1j * rng.uniform(-1, 1, size=shape))
    inside = jtsys.membership(d, pts[:, :-1])
    assert 0.1 * rows < np.sum(inside) < 0.9 * rows
    kernels = [lambda p: hartogs.ch_member_vec(H, p), lambda p: det_dual_hessian(H, p)]
    for sign in (1, -1):
        kernels += [lambda p, s=sign: jtsys.gram_pivots(d, p[:, :-1], s),
                    lambda p, s=sign: jtsys.log_norm(d, p[:, :-1], s)]
    shifted = _at_shifted_offset(pts)
    for kernel in kernels:
        whole = kernel(pts)
        blocks = [kernel(pts[lo:lo + block]) for lo in range(0, rows, block)]
        assert np.array_equal(np.concatenate(blocks), whole)
        assert np.array_equal(kernel(shifted), whole)


@pytest.mark.parametrize("name", list(LAYOUT_DOMAINS))
def test_maps_and_isotropy_are_row_exact_when_stacked(name):
    # check_equivariance maps tau p and p in one call per map, then moves both
    # maps' images of p in one isotropy apply, the taus broadcast over the map
    # axis; every row must have the bits of a call on its own part
    d = jtsys.make_domain(**LAYOUT_DOMAINS[name])
    H = hartogs.make_hartogs(d, 1.0)
    rng = np.random.default_rng(17)
    k = 1 << 11
    pts = hartogs.sample_member_points(H, k, rng, lam_max=0.8)
    taus = jtsys.random_isotropy(d, rng, k)
    moved = hartogs.hartogs_isotropy_apply(H, taus, pts)
    both = np.concatenate([moved, pts])
    images = np.stack([mapping(H, both) for mapping in (hartogs.psi_map_vec,
                                                          hartogs.phi_map_vec)])
    broadcast = hartogs.hartogs_isotropy_apply(H, taus, images[:, k:])
    for i, mapping in enumerate((hartogs.psi_map_vec, hartogs.phi_map_vec)):
        assert np.array_equal(images[i, :k], mapping(H, moved))
        alone = mapping(H, pts)
        assert np.array_equal(images[i, k:], alone)
        assert np.array_equal(broadcast[i], hartogs.hartogs_isotropy_apply(H, taus, alone))


def test_dual_flat_ratio_rank_one_mu_one_is_one():
    # CH^n at mu = 1 is self-dual: the ratio formula collapses to 1
    for n in (1, 2, 3):
        H = hartogs.make_hartogs(jtsys.make_domain(jtsys.KIND_CHN, n=n), 1.0)
        npt.assert_allclose(measures.dual_flat_ratio_formula(H), 1.0, rtol=1e-12)


def test_duality_gap_signs():
    # LHS F(mu)/F(0) decreases, RHS mu^n/(n+1) increases: the gap changes sign
    d = POLY2
    assert measures.duality_gap(d, 1e-6) > 0
    assert measures.duality_gap(d, 2.0) < 0
    with pytest.raises(DomainError):
        measures.duality_gap(d, 0.0)
    # the bisection bracket of duality_root changes sign on every grid domain
    grid = [jtsys.make_domain(jtsys.KIND_POLYDISC, n=n) for n in (1, 2, 3)]
    grid += [jtsys.make_domain(jtsys.KIND_TYPE_I, p=p, q=q)
             for p, q in ((1, 2), (2, 2), (2, 3), (3, 3))]
    for d in grid:
        assert measures.duality_gap(d, 1e-12) > 0
        assert measures.duality_gap(d, (d.n + 1.0) ** (1.0 / d.n) + 1.0) < 0


def test_duality_root_rank_one_is_one():
    for n in (1, 2, 3):
        root = measures.duality_root(jtsys.make_domain(jtsys.KIND_CHN, n=n))
        assert abs(root - 1.0) < 1e-9


def test_duality_root_higher_rank_interior():
    for d in (POLY2, T22, jtsys.make_domain(jtsys.KIND_POLYDISC, n=3)):
        root = measures.duality_root(d)
        assert 0.0 < root < 1.0
    # frozen value for the bidisc, solved independently to high precision
    npt.assert_allclose(measures.duality_root(POLY2), 0.9078532620914,
                        atol=1e-9)


def test_duality_root_is_float_exact():
    # the bisection ends on adjacent floats: the gap changes sign across them
    for d in (POLY2, T22, T33):
        root = measures.duality_root(d)
        assert measures.duality_gap(d, np.nextafter(root, 0.0)) > 0
        assert measures.duality_gap(d, np.nextafter(root, 2.0)) <= 0


@pytest.mark.parametrize("name", list(QUADRATURE_DOMAINS))
def test_quadrature_families_pass(name):
    # volume at mu 1e-8 ... 2, selberg and the duality identity pass at 1e-12
    # (pytest turns a RuntimeWarning into an error); every volume entry
    # carries a finite, nonzero estimate or ratio with its reference
    cfg = cli.RunConfig(mu=(1e-8, 0.5, 1.0, 2.0), **QUADRATURE_DOMAINS[name])
    volume = verify.check_volume(cfg)
    entries = volume + verify.check_selberg(cfg) + verify.check_duality(cfg)
    assert [c["status"] for c in entries] == ["pass"] * len(entries)
    assert len(volume) == 8 and len(entries) == 15
    gated = [c for c in entries if c["tolerance"] == verify.QUADRATURE_TOL]
    assert len(gated) == 13 and verify.QUADRATURE_TOL == 1e-12
    for c in volume:
        p = c["parameters"]
        est, ref = (p["estimate"], p["exact"]) if "estimate" in p else (p["ratio"], p["formula"])
        assert math.isfinite(est) and est != 0 and ref > 0


def test_volume_identity_fails_off_the_root(monkeypatch):
    # the duality family's identity entry has power: a root 1e-9 off fails it
    cfg = cli.RunConfig(kind=jtsys.KIND_TYPE_I, p=2, q=2)
    entry = verify.check_duality(cfg)[-1]
    assert entry["parameters"]["operation"] == "volume_identity"
    assert entry["status"] == "pass"
    root = measures.duality_root
    monkeypatch.setattr(measures, "duality_root", lambda D: root(D) + 1e-9)
    assert verify.check_duality(cfg)[-1]["status"] == "fail"


def test_gennaio_equality_iff_rank_one():
    for d, want in ((POLY1, True), (jtsys.make_domain(jtsys.KIND_CHN, n=3), True),
                    (POLY2, False), (T22, False)):
        res = measures.gennaio_check(d)
        assert res.passed
        assert res.equality == want


def test_fit_genus_adjudication():
    # the measured exponent must match gamma = 2 + a(r-1) + b; the closed-form
    # Hessian puts it there to rounding
    assert abs(measures.fit_genus(T22) - 4.0) < 1e-9
    assert abs(measures.fit_genus(POLY2) - 2.0) < 1e-9
    assert abs(measures.fit_genus(CH2) - 3.0) < 1e-9


@pytest.mark.parametrize("dims", list(GRID_AND_T33.values()) + [dict(kind=jtsys.KIND_TYPE_I,
                                                                       p=2, q=4)],
                         ids=list(GRID_AND_T33) + ["type-I(2,4)"])
def test_fit_genus_reads_log_norm_off_its_own_elimination(dims):
    # log N* from the elimination behind the Hessian has log_norm's bits, so
    # the fit equals the route with a second log_norm pass to the bit
    d = jtsys.make_domain(**dims)
    assert measures.fit_genus(d) == fit_genus_two_passes(d)


@pytest.mark.parametrize("shift", [1.0, -1.0, 1e-8])
def test_fit_genus_gate_rejects_a_wrong_genus(monkeypatch, shift):
    # det-formula's genus entry must fail when the fit lands off the genus,
    # by one or by far less
    cfg = cli.RunConfig(kind=jtsys.KIND_TYPE_I, n=None, p=2, q=2, mu=(1.0,),
                        checks=("det-formula",), points=40, samples=1000, seed=0,
                        fd_step=1e-5, tol=1e-5)
    entry = verify.check_det_formula(cfg)[-1]
    assert entry["parameters"]["operation"] == "fit_genus"
    assert entry["status"] == "pass" and entry["tolerance"] == 1e-9
    good = measures.fit_genus
    monkeypatch.setattr(measures, "fit_genus", lambda D: good(D) + shift)
    entry = verify.check_det_formula(cfg)[-1]
    assert entry["status"] == "fail"
    assert entry["parameters"]["fitted"] == pytest.approx(4.0 + shift, abs=1e-12)
