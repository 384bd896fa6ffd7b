import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from cartanhartogs import cli, hartogs, jtsys, measures, verify
from cartanhartogs.errors import ConvergenceError, DomainError
from cartanhartogs.forms import det_dual_hessian
from reference import (full_phase_points, mc_volume_dual_full_phase,
                       mc_volume_dual_whole_chunk, mc_volume_flat_whole_chunk,
                       selberg_quadrature_symmetrized)

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
        npt.assert_allclose(measures.flat_volume_exact(hartogs.make_hartogs(ch3, 10.0**k)),
                            float(exact), rtol=1e-14)


def test_selberg_quadrature_rank_one():
    for d, s in ((POLY1, 0.0), (POLY1, 2.5), (CH2, 1.0)):
        quad = measures.selberg_quadrature(d.r, d.a, d.b, s, resolution=80)
        npt.assert_allclose(quad, measures.capital_f(d, s), rtol=1e-9)


def test_selberg_quadrature_rank_two():
    quad = measures.selberg_quadrature(2, 2, 0, 0.0, resolution=120)
    npt.assert_allclose(quad, 1.0 / 48.0, rtol=1e-4)


def test_selberg_symmetrized_agrees():
    ordered = measures.selberg_quadrature(2, 2, 1, 1.0, resolution=90)
    symmetrized = selberg_quadrature_symmetrized(2, 2, 1, 1.0, resolution=90)
    npt.assert_allclose(symmetrized, ordered, rtol=1e-3)


def test_selberg_auto_converges(monkeypatch):
    val = measures.selberg_quadrature_auto(2, 2, 0, 0.0, rtol=1e-5)
    npt.assert_allclose(val, 1.0 / 48.0, rtol=1e-4)
    monkeypatch.setattr(measures, "_QUAD_START", 8)
    monkeypatch.setattr(measures, "_QUAD_MAX_RESOLUTION", 16)
    with pytest.raises(ConvergenceError):
        # fractional s keeps the integrand non-polynomial, so this tiny
        # resolution budget cannot reach 1e-13
        measures.selberg_quadrature_auto(2, 2, 0, 2.5, rtol=1e-13)


def test_flat_volume_exact_oracles():
    H = hartogs.make_hartogs(POLY1, 1.0)
    assert measures.flat_volume_exact(H) == pytest.approx(np.pi**2 / 2)
    H = hartogs.make_hartogs(POLY2, 2.0)
    assert measures.flat_volume_exact(H) == pytest.approx(np.pi**3 / 9)
    # complex hyperbolic: pi^(n+1) Gamma(mu+1) / Gamma(mu+n+1)
    H = hartogs.make_hartogs(CH2, 0.5)
    want = np.pi**3 * math.gamma(1.5) / math.gamma(3.5)
    assert measures.flat_volume_exact(H) == pytest.approx(want)
    # no closed form for higher-rank type-I
    assert measures.flat_volume_exact(hartogs.make_hartogs(T22, 1.0)) is None


def test_mc_volume_flat_matches_exact():
    H = hartogs.make_hartogs(POLY1, 1.0)
    est = measures.mc_volume_flat(H, 400_000, seed=7)
    assert abs(est.value - np.pi**2 / 2) < 3 * est.standard_error
    assert est.standard_error < 0.02


def test_mc_volume_deterministic():
    H = hartogs.make_hartogs(POLY2, 0.5)
    a = measures.mc_volume_flat(H, 150_000, seed=3)
    b = measures.mc_volume_flat(H, 150_000, seed=3)
    assert a.value == b.value and a.standard_error == b.standard_error
    c = measures.mc_volume_flat(H, 150_000, seed=4)
    assert c.value != a.value


def test_mc_volume_flat_error_is_the_binomial_error():
    # the sample SD of box * 1{hit} over N draws is box sqrt(p (1 - p) / N)
    H = hartogs.make_hartogs(POLY2, 0.5)
    est = measures.mc_volume_flat(H, 150_000, seed=3)
    box = 16.0 * math.pi
    p = est.value / box
    assert 0.1 < p < 0.9
    npt.assert_allclose(est.standard_error, box * math.sqrt(p * (1 - p) / est.samples),
                        rtol=1e-12)


@pytest.mark.parametrize("estimator", [measures.mc_volume_flat, measures.mc_volume_dual])
def test_monte_carlo_rejects_no_samples(estimator):
    H = hartogs.make_hartogs(POLY2, 1.0)
    for samples in (0, -5):
        with pytest.raises(DomainError):
            estimator(H, samples, 0)


@pytest.mark.parametrize("domain", [POLY2, T22, T33], ids=["polydisc-2", "type-I(2,2)",
                                                           "type-I(3,3)"])
def test_blocking_changes_no_draw(domain):
    # the blocked estimator draws each chunk as the whole-chunk reference
    # does; the flat hits are the same bits as the reference's, which still
    # takes the phase of w; the dual estimate too, although the reference
    # draws theta after t where the library draws none (polydisc-2), so
    # skipping that draw leaves t as it was
    H = hartogs.make_hartogs(domain, 1.0)
    for samples in (1, measures._BLOCK - 1, measures._BLOCK + 1, measures._CHUNK + 1):
        assert (measures.mc_volume_flat(H, samples, 5)
                == mc_volume_flat_whole_chunk(H, samples, 5))
        assert (measures.mc_volume_dual(H, samples, 6)
                == mc_volume_dual_whole_chunk(H, samples, 6))


@pytest.mark.parametrize("domain, calls", [(POLY2, 1), (CH2, 1), (T22, 2), (T33, 2)],
                         ids=["polydisc-2", "chn-2", "type-I(2,2)", "type-I(3,3)"])
def test_dual_draws_theta_only_where_a_phase_survives(monkeypatch, domain, calls):
    # one generator call per chunk (t) where no phase survives the torus,
    # two (t, then theta) on type-I of rank >= 2
    made = []

    class Counting:
        def __init__(self, rng):
            self.rng, self.calls = rng, 0
            made.append(self)

        def random(self, *args, **kwargs):
            self.calls += 1
            return self.rng.random(*args, **kwargs)

    rng_of = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *args: Counting(rng_of(*args)))
    measures.mc_volume_dual(hartogs.make_hartogs(domain, 1.0), measures._CHUNK + 1, 0)
    assert [c.calls for c in made] == [calls, calls]


def test_gauss_legendre_nodes_are_cached_read_only():
    first = measures._gauss01(37)
    again = measures._gauss01(37)
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
        assert not a.flags.writeable
    want_nodes, want_weights = np.polynomial.legendre.leggauss(37)
    npt.assert_array_equal(first[0], 0.5 * (want_nodes + 1.0))
    npt.assert_array_equal(first[1], 0.5 * want_weights)


TORUS_DOMAINS = {
    "polydisc-3": dict(kind=jtsys.KIND_POLYDISC, n=3),
    "type-I(1,3)": dict(kind=jtsys.KIND_TYPE_I, p=1, q=3),
    "type-I(2,2)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=2),
    "type-I(2,3)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=3),
    "type-I(3,3)": dict(kind=jtsys.KIND_TYPE_I, p=3, q=3),
}
LAYOUT_DOMAINS = {**TORUS_DOMAINS, "type-I(2,4)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=4)}


@pytest.mark.parametrize("name", list(LAYOUT_DOMAINS))
def test_kernels_ignore_memory_layout(name):
    # the Monte Carlo integrands hand the kernels the transpose of a
    # coordinate-major block; every kernel gives the same bits on it as on
    # C-ordered points
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
    # each row's value has the same bits in one 65536-row batch, in the
    # 8192-row blocks of the Monte Carlo estimators and in a copy at a
    # shifted memory offset
    d = jtsys.make_domain(**LAYOUT_DOMAINS[name])
    H = hartogs.make_hartogs(d, 1.0)
    rng = np.random.default_rng(6)
    rows, block = 1 << 16, measures._BLOCK
    shape = (rows, d.n + 1)
    scale = rng.uniform(0.0, 1.5, size=(rows, 1)) / np.sqrt(d.n / d.r)
    pts = scale * (rng.uniform(-1, 1, size=shape) + 1j * rng.uniform(-1, 1, size=shape))
    inside = jtsys.membership(d, pts[:, :-1])
    assert 0.1 * rows < np.sum(inside) < 0.9 * rows
    t = rng.random(shape)
    table = measures._torus_phase_table(d)
    theta = 2 * np.pi * rng.random(shape) if len(table) else None
    kernels = [lambda p, *_: hartogs.ch_member_vec(H, p),
               lambda p, *_: det_dual_hessian(H, p),
               lambda _, t, theta: measures._dual_integrand(H, table, t, theta)]
    for sign in (1, -1):
        kernels += [lambda p, *_, s=sign: jtsys.gram_pivots(d, p[:, :-1], s),
                    lambda p, *_, s=sign: jtsys.log_norm(d, p[:, :-1], s)]
    args = (pts, t, theta)
    shifted = tuple(None if a is None else _at_shifted_offset(a) for a in args)
    for kernel in kernels:
        whole = kernel(*args)
        blocks = [kernel(*(None if a is None else a[lo:lo + block] for a in args))
                  for lo in range(0, rows, block)]
        assert np.array_equal(np.concatenate(blocks), whole)
        assert np.array_equal(kernel(*shifted), whole)


def _torus_pair(d, theta):
    """The per-row diagonal pair that carries rho e^(i theta) to the reduced
    point: U = diag(e^(-i(theta_i0 - theta_00))), V = diag(e^(i theta_0j)) on
    type-I, U = diag(e^(-i theta_kk)), V = I on the polydisc."""
    if d.kind == jtsys.KIND_POLYDISC:
        u, v = np.exp(-1j * theta[:, :-1]), np.ones((len(theta), d.n))
    else:
        p, q = d.shape
        phases = theta[:, :-1].reshape(-1, p, q)
        u = np.exp(-1j * (phases[:, :, 0] - phases[:, :1, 0]))
        v = np.exp(1j * phases[:, 0, :])
    return jtsys.Isotropy(u[:, :, None] * np.eye(u.shape[1]), v[:, :, None] * np.eye(v.shape[1]))


@pytest.mark.parametrize("name", list(TORUS_DOMAINS))
def test_torus_reduced_point_is_an_isotropy_image(name):
    # the dual integrand's point is the full-phase point moved by a diagonal
    # isotropy pair, with w turned onto the real axis
    d = jtsys.make_domain(**TORUS_DOMAINS[name])
    rng = np.random.default_rng(4)
    rho = rng.random((300, d.n + 1)) / rng.random((300, d.n + 1))
    theta = 2 * np.pi * rng.random((300, d.n + 1))
    # coordinate-major moduli, phases as drawn
    reduced = measures._torus_reduced_points(measures._torus_phase_table(d), rho.T, theta).T
    full = full_phase_points(rho, theta)
    npt.assert_allclose(reduced[:, :-1],
                        jtsys.isotropy_apply(d, _torus_pair(d, theta), full[:, :-1]),
                        rtol=1e-14)
    npt.assert_allclose(reduced[:, -1], full[:, -1] * np.exp(-1j * theta[:, -1]), rtol=1e-14)
    # cos and sin are taken of (p-1)(q-1) phases on type-I, of none otherwise
    complex_cols = np.flatnonzero(np.any(reduced.imag != 0, axis=0))
    want = (d.shape[0] - 1) * (d.shape[1] - 1) if d.kind == jtsys.KIND_TYPE_I else 0
    assert len(complex_cols) == want


@pytest.mark.parametrize("domain", [POLY2, T22, T33, jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=4)],
                         ids=["polydisc-2", "type-I(2,2)", "type-I(3,3)", "type-I(2,4)"])
def test_torus_reduction_keeps_the_dual_estimate(domain):
    # against the full-phase route over more than one chunk: the rows agree
    # to rounding, amplified by the Gram pivots at large rho (up to ~7e-11 on
    # type-I(2,4)); the estimates moved by at most 5.8e-15 and their standard
    # errors by 5.2e-14 relative over polydisc-2/3, type-I(1,3), (2,2), (2,3),
    # (3,3), (2,4), mu 0.5, 1, 2 and seeds 0, 6
    H = hartogs.make_hartogs(domain, 1.0)
    got = measures.mc_volume_dual(H, measures._CHUNK + 1, 6)
    want = mc_volume_dual_full_phase(H, measures._CHUNK + 1, 6)
    npt.assert_allclose(got.value, want.value, rtol=2e-14)
    npt.assert_allclose(got.standard_error, want.standard_error, rtol=2e-13)


@pytest.mark.parametrize("estimator", [measures.mc_volume_flat, measures.mc_volume_dual])
def test_monte_carlo_memory_is_bounded(estimator):
    # the integrand's temporaries scale with a block, not with a chunk
    H = hartogs.make_hartogs(T33, 1.0)
    tracemalloc.start()
    try:
        estimator(H, 2 * measures._CHUNK, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20


def test_monte_carlo_takes_no_lapack_call(monkeypatch):
    # the hit test and both volume estimators, over more than one block, run
    # with numpy.linalg's svd, det, eigh and eigvalsh refusing, and give the
    # values they gave before
    H = hartogs.make_hartogs(jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=3), 1.0)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.6, 0.6, size=(2000, 7)) + 1j * rng.uniform(-0.6, 0.6, size=(2000, 7))
    samples = 2 * measures._BLOCK + 1

    def run():
        return (hartogs.ch_member_vec(H, pts), measures.mc_volume_flat(H, samples, 3),
                measures.mc_volume_dual(H, samples, 3))

    want = run()
    assert 0 < np.sum(want[0]) < len(pts)

    def refuse(*args, **kwargs):
        raise AssertionError("a per-point LAPACK call on the Monte Carlo path")

    for name in ("svd", "det", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    got = run()
    npt.assert_array_equal(got[0], want[0])
    assert got[1:] == want[1:]


@pytest.mark.parametrize("domain", [POLY2, T22, T33], ids=["polydisc-2", "type-I(2,2)", "type-I(3,3)"])
def test_monte_carlo_takes_no_einsum_or_logaddexp(monkeypatch, domain):
    # the hit test and both volume estimators, over more than one block, run
    # with np.einsum and np.logaddexp refusing, and give the values they gave
    # before
    H = hartogs.make_hartogs(domain, 1.0)
    rng = np.random.default_rng(8)
    shape = (2000, domain.n + 1)
    pts = rng.uniform(-0.6, 0.6, size=shape) + 1j * rng.uniform(-0.6, 0.6, size=shape)
    samples = 2 * measures._BLOCK + 1

    def run():
        return (hartogs.ch_member_vec(H, pts), measures.mc_volume_flat(H, samples, 3),
                measures.mc_volume_dual(H, samples, 3))

    want = run()
    assert 0 < np.sum(want[0]) < len(pts)

    def refuse(*args, **kwargs):
        raise AssertionError("a scalar-loop route on the Monte Carlo path")

    for name in ("einsum", "logaddexp"):
        monkeypatch.setattr(np, name, refuse)
    got = run()
    npt.assert_array_equal(got[0], want[0])
    assert got[1:] == want[1:]


def test_dual_flat_ratio_rank_one_mu_one_is_one():
    # CH^n at mu = 1 is self-dual: the ratio formula collapses to 1
    for n in (1, 2, 3):
        H = hartogs.make_hartogs(jtsys.make_domain(jtsys.KIND_CHN, n=n), 1.0)
        npt.assert_allclose(measures.dual_flat_ratio_formula(H), 1.0, rtol=1e-12)


def test_mc_volume_dual_matches_formula():
    H = hartogs.make_hartogs(POLY1, 1.0)
    flat = measures.mc_volume_flat(H, 300_000, seed=11)
    dual = measures.mc_volume_dual(H, 300_000, seed=12)
    ratio = dual.value / flat.value
    want = measures.dual_flat_ratio_formula(H)
    se = ratio * np.hypot(dual.standard_error / dual.value,
                          flat.standard_error / flat.value)
    assert abs(ratio - want) < 3 * se


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
