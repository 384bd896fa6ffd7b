import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from cartanhartogs import jtsys
from cartanhartogs.errors import DomainError, ShapeError
from conftest import GRID_AND_T33
from reference import (b_quarter_power_operator, bergman_apply, isotropy_draws,
                       membership_svd, norm_det, singular_values_svd, spectral_decompose,
                       triple_product)


def test_make_domain_invariants():
    d = jtsys.make_domain(jtsys.KIND_POLYDISC, n=3)
    assert (d.r, d.a, d.b, d.n, d.genus) == (3, 0, 0, 3, 2)

    d = jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=3)
    assert (d.r, d.a, d.b, d.n, d.genus) == (2, 2, 1, 6, 5)
    # dimension identity n = r(b + 1 + (a/2)(r-1))
    assert d.n == d.r * (d.b + 1 + (d.a / 2) * (d.r - 1))

    d = jtsys.make_domain(jtsys.KIND_CHN, n=4)
    assert (d.r, d.a, d.b, d.n, d.genus) == (1, 2, 3, 4, 5)


def test_make_domain_rejects_bad_shapes():
    with pytest.raises(ValueError):
        jtsys.make_domain(jtsys.KIND_POLYDISC, n=0)
    with pytest.raises(ValueError):
        jtsys.make_domain(jtsys.KIND_TYPE_I, p=3, q=2)
    with pytest.raises(ValueError):
        jtsys.make_domain("nosuch", n=1)
    with pytest.raises(ValueError):
        jtsys.make_domain("chn", n=0)
    with pytest.raises(ValueError):
        jtsys.make_domain("chn")
    # the complex dimension is capped at 32, inclusive
    assert jtsys.make_domain(jtsys.KIND_POLYDISC, n=32).n == 32
    assert jtsys.make_domain(jtsys.KIND_TYPE_I, p=4, q=8).n == 32
    for kind, dims in ((jtsys.KIND_POLYDISC, dict(n=33)), (jtsys.KIND_TYPE_I, dict(p=1, q=33)),
                       (jtsys.KIND_TYPE_I, dict(p=5, q=7)), (jtsys.KIND_CHN, dict(n=10**400))):
        with pytest.raises(ValueError, match="at most 32"):
            jtsys.make_domain(kind, **dims)


def test_chn_kind_is_hyperbolic_space():
    for k in (1, 2, 5):
        d = jtsys.make_domain("chn", n=k)
        assert d == jtsys.make_domain(jtsys.KIND_TYPE_I, p=1, q=k)
        assert (d.r, d.n, d.genus) == (1, k, k + 1)


def test_frame_point_fixed_arrays():
    t23 = jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=3)
    poly3 = jtsys.make_domain(jtsys.KIND_POLYDISC, n=3)
    # E_11 and E_22 of the 2x3 matrices, row-major
    npt.assert_array_equal(jtsys.frame_point(t23, [0.5, 0.25j]), [0.5, 0, 0, 0, 0.25j, 0])
    npt.assert_array_equal(jtsys.frame_point(t23, [[0.5], [-0.1]]),
                           [[0.5, 0, 0, 0, 0, 0], [-0.1, 0, 0, 0, 0, 0]])
    # unit vectors of the polydisc: zero padding
    npt.assert_array_equal(jtsys.frame_point(poly3, [0.5, 0.25]), [0.5, 0.25, 0])
    npt.assert_array_equal(jtsys.frame_point(poly3, [0.5, 0.25, -0.75j]), [0.5, 0.25, -0.75j])
    with pytest.raises(ShapeError):
        jtsys.frame_point(t23, [0.1, 0.2, 0.3])
    with pytest.raises(ShapeError):
        jtsys.frame_point(poly3, np.zeros((2, 4)))


def test_matrix_vector_round_trip(domain, rng):
    z = rng.normal(size=(5, domain.n)) + 1j * rng.normal(size=(5, domain.n))
    back = jtsys.as_vector(domain, jtsys.as_matrix(domain, z))
    npt.assert_allclose(back, z)


def test_as_matrix_shapes():
    d = jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=3)
    m = jtsys.as_matrix(d, np.arange(6, dtype=complex))
    assert m.shape == (2, 3)
    npt.assert_allclose(m, np.arange(6).reshape(2, 3))
    with pytest.raises(ShapeError):
        jtsys.as_matrix(d, np.zeros(5, dtype=complex))


def test_triple_product_polydisc_oracle():
    d = jtsys.make_domain(jtsys.KIND_POLYDISC, n=2)
    x = np.array([1.0 + 1j, 2.0])
    y = np.array([0.5, 1j])
    # componentwise 2 x ybar z
    npt.assert_allclose(triple_product(d, x, y, x),
                        2.0 * x * np.conj(y) * x)


def test_triple_product_type1_oracle():
    d = jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2)
    x = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)  # E11
    y = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)  # E22
    # {E11, E22, E11} = E11 E22* E11 + E11 E22* E11 = 0
    npt.assert_allclose(triple_product(d, x, y, x), np.zeros(4))
    # {E11, E11, E11} = 2 E11 (tripotent)
    npt.assert_allclose(triple_product(d, x, x, x), 2.0 * x)


def test_tripotent_law_from_spectral(domain, rng):
    z = 0.7 * (rng.normal(size=domain.n) + 1j * rng.normal(size=domain.n))
    dec = spectral_decompose(domain, z)
    for c in dec.tripotents:
        npt.assert_allclose(triple_product(domain, c, c, c), 2.0 * c,
                            atol=1e-12)


def test_bergman_apply_oracle():
    d = jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2)
    u = np.array([0.75, 0, 0, 0], dtype=complex)
    w = np.array([1.0, 0, 0, 0], dtype=complex)
    # (I - uu*) E11 (I - u*u) = (1 - 0.5625)^2 E11
    npt.assert_allclose(bergman_apply(d, u, u, w),
                        (1 - 0.5625) ** 2 * w)
    dp = jtsys.make_domain(jtsys.KIND_POLYDISC, n=1)
    npt.assert_allclose(bergman_apply(dp, np.array([0.5j]),
                                      np.array([0.5j]), np.array([2.0])),
                        np.array([(1 - 0.25) ** 2 * 2.0]))


def test_generic_norm_oracles():
    dp = jtsys.make_domain(jtsys.KIND_POLYDISC, n=2)
    z = np.array([0.3, 0.4j])
    assert jtsys.log_norm(dp, z, 1) == pytest.approx(np.log((1 - 0.09) * (1 - 0.16)))
    assert jtsys.log_norm(dp, z, -1) == pytest.approx(np.log((1 + 0.09) * (1 + 0.16)))

    dh = jtsys.make_domain(jtsys.KIND_CHN, n=2)
    z = np.array([0.3, 0.4j])
    assert jtsys.log_norm(dh, z, 1) == pytest.approx(np.log(1 - 0.25))

    dt = jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2)
    z = np.array([0.5, 0.1, 0.2, 0.3], dtype=complex)
    want = np.linalg.det(np.eye(2) - z.reshape(2, 2) @ z.reshape(2, 2).conj().T)
    assert jtsys.log_norm(dt, z, 1) == pytest.approx(np.log(want.real))


def test_generic_norm_spectral_product(domain, rng):
    z = 0.6 * (rng.normal(size=domain.n) + 1j * rng.normal(size=domain.n))
    lam = singular_values_svd(domain, z)
    npt.assert_allclose(np.exp(jtsys.log_norm(domain, z, 1)),
                        np.prod(1 - lam**2) if np.all(lam < 1) else 0.0)
    npt.assert_allclose(jtsys.log_norm(domain, z, -1), np.log(np.prod(1 + lam**2)))


def test_spectral_decompose_reconstructs(domain, rng):
    z = 0.8 * (rng.normal(size=domain.n) + 1j * rng.normal(size=domain.n))
    dec = spectral_decompose(domain, z)
    npt.assert_allclose(dec.reconstruct(), z, atol=1e-12)
    assert np.all(np.diff(dec.eigenvalues) <= 0)
    assert np.all(dec.eigenvalues > 0)


def test_singular_values_batched(domain, rng):
    # spectral_norm, the largest singular value, of a batch against its rows
    # one at a time
    z = rng.normal(size=(4, domain.n)) + 1j * rng.normal(size=(4, domain.n))
    top = jtsys.spectral_norm(domain, z)
    assert top.shape == (4,)
    one_by_one = np.stack([jtsys.spectral_norm(domain, row) for row in z])
    npt.assert_allclose(top, one_by_one)


@pytest.mark.parametrize("shape", [(1, 2), (2, 2), (2, 3), (2, 4)], ids=str)
def test_singular_values_closed_form_takes_no_svd(shape, monkeypatch):
    # spectral_norm takes its closed form at rank <= 2, not LAPACK: sigma_1
    # within 1e-15 sigma_1 of the SVD's on Gaussian rows scaled down to 1e-8,
    # on J = 0, on a rank-deficient J and on sigma_2 / sigma_1 = 1e-7; and a
    # row's sigma_1 has the same bits alone as in the batch
    d = jtsys.make_domain(jtsys.KIND_TYPE_I, p=shape[0], q=shape[1])
    rng = np.random.default_rng(11)
    z = (rng.normal(size=(300, d.n)) + 1j * rng.normal(size=(300, d.n))) \
        * np.logspace(-8, 0, 300)[:, None]
    z[0] = 0.0
    if d.r == 2:
        z[1, d.shape[1]:] = (0.6 - 0.3j) * z[1, :d.shape[1]]
        tau = jtsys.random_isotropy(d, rng, 1)
        z[2] = jtsys.isotropy_apply(d, tau, jtsys.frame_point(d, np.array([0.9, 9e-8])))[0]
    want = singular_values_svd(d, z)[..., 0]

    def refuse(*args, **kwargs):
        raise AssertionError("spectral_norm took an SVD at rank <= 2")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    got = jtsys.spectral_norm(d, z)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-15 * want)
    for i in (0, 1, 2, 299):
        npt.assert_array_equal(jtsys.spectral_norm(d, z[i]), got[i])


def test_membership_and_distance():
    d = jtsys.make_domain(jtsys.KIND_POLYDISC, n=2)
    assert jtsys.membership(d, np.array([0.9, 0.9j]))
    assert not jtsys.membership(d, np.array([1.0, 0.0]))


PIVOT_DOMAINS = {
    "polydisc-3": dict(kind=jtsys.KIND_POLYDISC, n=3),
    "chn-3": dict(kind=jtsys.KIND_CHN, n=3),
    "type-I(2,3)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=3),
    "type-I(3,3)": dict(kind=jtsys.KIND_TYPE_I, p=3, q=3),
}


def _with_spectral_values(d, lam, rng):
    """Points whose spectral values are the rows of lam (count, r), moved off
    the canonical frame by one Haar isotropy element per point."""
    tau = jtsys.random_isotropy(d, rng, len(lam))
    return jtsys.isotropy_apply(d, tau, jtsys.frame_point(d, lam))


@pytest.mark.parametrize("name", list(PIVOT_DOMAINS))
@pytest.mark.parametrize("sign", [1, -1])
def test_gram_pivots_product_is_the_determinant(name, sign):
    d = jtsys.make_domain(**PIVOT_DOMAINS[name])
    rng = np.random.default_rng(31)
    on_omega = _with_spectral_values(d, rng.uniform(0.0, 0.99, size=(200, d.r)), rng)
    # off Omega: every point has a spectral value in [1.25, 2], the others
    # anywhere in [0, 2] away from 1
    lam = np.where(rng.uniform(size=(200, d.r)) < 0.5, rng.uniform(0.0, 0.8, size=(200, d.r)),
                   rng.uniform(1.25, 2.0, size=(200, d.r)))
    lam[:, 0] = rng.uniform(1.25, 2.0, size=200)
    off_omega = _with_spectral_values(d, lam, rng)
    for z, rtol in ((on_omega, 1e-12), (off_omega, 1e-10)):
        pivots = jtsys.gram_pivots(d, z, sign)
        assert pivots.shape == (200, d.r)
        npt.assert_allclose(np.prod(pivots, axis=-1), norm_det(d, z, sign), rtol=rtol)
        # log_norm is the log of that product, -inf where a pivot is <= 0
        positive = np.all(pivots > 0, axis=-1)
        log_n = jtsys.log_norm(d, z, sign)
        npt.assert_array_equal(log_n[positive], np.log(np.prod(pivots[positive], axis=-1)))
        assert np.all(log_n[~positive] == -np.inf)
    # off Omega at sign +1 no point has a finite log norm; at sign -1 every point does
    assert np.all(np.isfinite(jtsys.log_norm(d, off_omega, -1)))
    if sign == 1:
        assert np.all(jtsys.log_norm(d, off_omega, 1) == -np.inf)
    # the pivots of a positive definite A are positive (Sylvester)
    assert np.all(jtsys.gram_pivots(d, on_omega if sign == 1 else off_omega, sign) > 0)


@pytest.mark.parametrize("name", list(PIVOT_DOMAINS))
def test_membership_matches_the_svd_oracle_at_the_boundary(name):
    d = jtsys.make_domain(**PIVOT_DOMAINS[name])
    rng = np.random.default_rng(32)
    lam = rng.uniform(0.0, 1.0, size=(400, d.r))
    lam[:, 0] = np.where(np.arange(400) % 2 == 0, 1.0 - 1e-9, 1.0 + 1e-9)
    z = _with_spectral_values(d, lam, rng)
    got = jtsys.membership(d, z)
    npt.assert_array_equal(got, membership_svd(d, z))
    npt.assert_array_equal(got, np.arange(400) % 2 == 0)
    # and on generic draws across the boundary
    g = rng.normal(size=(2000, d.n)) + 1j * rng.normal(size=(2000, d.n))
    g *= (rng.uniform(0.2, 2.0, size=2000) / np.linalg.norm(g, axis=-1))[:, None]
    npt.assert_array_equal(jtsys.membership(d, g), membership_svd(d, g))


def test_membership_at_a_zero_pivot():
    # first row (1, 0, 0): the leading pivot 1 - |row 1|^2 is exactly 0, which
    # is not divided by; no RuntimeWarning, and the point is not in Omega
    d = jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=3)
    z = np.array([[1.0, 0, 0, 0.2, 0.1, 0.3j], [0.5, 0, 0, 0.2, 0.1, 0.3j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pivots = jtsys.gram_pivots(d, z, 1)
        member = jtsys.membership(d, z)
    assert pivots[0, 0] == 0.0
    assert np.all(np.isfinite(pivots))
    npt.assert_array_equal(member, [False, True])
    npt.assert_array_equal(member, membership_svd(d, z))
    assert np.all(jtsys.gram_pivots(d, z, -1) > 0)


EARLY_OUT_DOMAINS = {
    "type-I(2,2)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=2),
    "type-I(2,3)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=3),
    "type-I(3,3)": dict(kind=jtsys.KIND_TYPE_I, p=3, q=3),
    "type-I(2,4)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=4),
}


def _box_draws(d, rng, count):
    """Uniform draws from the box [-1, 1]^(2n), as the flat volume draws z."""
    return rng.uniform(-1, 1, size=(count, d.n)) + 1j * rng.uniform(-1, 1, size=(count, d.n))


def _edge_rows(d, rng):
    """Points whose row i of j(z) is (0.6, 0.8, 0, ...) (squared norm exactly
    1), (1 - 2^-53, 0, ...) (squared norm 1 - 2^-52), or holds a NaN or an
    inf, for every i; the other rows are small box draws."""
    p, q = d.shape
    specials = np.zeros((4, q), dtype=complex)
    specials[0, :2] = 0.6, 0.8
    specials[1, 0] = np.nextafter(1.0, 0.0)
    specials[2, 0] = np.nan
    specials[3, 0] = np.inf
    pts = []
    for i in range(p):
        for row in specials:
            jz = 0.3 * _box_draws(d, rng, 1).reshape(p, q)
            jz[i] = row
            pts.append(jz.reshape(d.n))
    return np.array(pts)


@pytest.mark.parametrize("name", list(EARLY_OUT_DOMAINS))
def test_sylvester_early_out_is_exact(name):
    # membership and log_norm at sign +1 read the gram_pivots: their answers
    # are the pivots' signs and the log of their product, bit for bit, on box
    # draws (nearly all out of Omega), on smaller draws (many in it) and on
    # edge rows of j(z)
    d = jtsys.make_domain(**EARLY_OUT_DOMAINS[name])
    rng = np.random.default_rng(33)
    z = np.concatenate([_box_draws(d, rng, 8192), 0.4 * _box_draws(d, rng, 512),
                        _edge_rows(d, rng)])
    pivots = jtsys.gram_pivots(d, z, 1)
    positive = np.all(pivots > 0, axis=-1)
    want = np.full(len(z), -np.inf)
    want[positive] = np.log(np.prod(pivots[positive], axis=-1))
    assert 0 < np.sum(positive) < len(z)
    npt.assert_array_equal(jtsys.membership(d, z), positive)
    npt.assert_array_equal(jtsys.log_norm(d, z, 1).view(np.int64), want.view(np.int64))
    # the edge rows: a row of norm 1 or with a NaN or an inf is out of Omega
    edge = positive[-4 * d.r:].reshape(d.r, 4)
    assert not np.any(edge[:, [0, 2, 3]])


@pytest.mark.parametrize("name", list(EARLY_OUT_DOMAINS))
def test_an_inf_entry_gives_an_infinite_log_norm(name):
    # N(z, -zbar) = det(I + j(z) j(z)*) is +inf at a point with an infinite
    # entry, and the point is not in Omega: no 0 * inf in the Schur updates,
    # so no RuntimeWarning (pytest makes one an error), and the finite points
    # of the same batch keep their bits
    d = jtsys.make_domain(**EARLY_OUT_DOMAINS[name])
    rng = np.random.default_rng(35)
    finite = 0.5 * _box_draws(d, rng, 2 * d.n)
    bad = finite.copy()
    bad[np.arange(d.n), np.arange(d.n)] = np.inf
    bad[d.n + np.arange(d.n), np.arange(d.n)] = complex(0.0, -np.inf)
    z = np.concatenate([finite, bad])
    npt.assert_array_equal(jtsys.log_norm(d, z, -1)[len(finite):], np.inf)
    npt.assert_array_equal(jtsys.log_norm(d, z, 1)[len(finite):], -np.inf)
    assert not np.any(jtsys.membership(d, bad))
    for sign in (1, -1):
        npt.assert_array_equal(jtsys.log_norm(d, z, sign)[:len(finite)],
                               jtsys.log_norm(d, finite, sign))
        npt.assert_array_equal(jtsys.gram_pivots(d, z, sign)[:len(finite)],
                               jtsys.gram_pivots(d, finite, sign))


def test_b_quarter_power_two_routes(domain, rng):
    # the one-eigh frame against two separate operator quarter powers
    z = 0.8 * (rng.normal(size=domain.n) + 1j * rng.normal(size=domain.n))
    z /= max(1.0, jtsys.spectral_norm(domain, z) / 0.9)
    jz = jtsys.as_matrix(domain, z)
    for sign in (1, -1):
        lam, u, k, bz = jtsys.jordan_frame(domain, z, sign)
        npt.assert_allclose(bz, b_quarter_power_operator(domain, z, sign=sign), atol=1e-12)
        # the frame itself: A = U diag(lam) U*, k = U* J, prod(lam) = N(z, sign zbar)
        npt.assert_allclose((u * lam) @ u.conj().T,
                            np.eye(len(lam)) - sign * jz @ jz.conj().T, atol=1e-12)
        npt.assert_allclose(k, u.conj().T @ jz, atol=1e-12)
        npt.assert_allclose(np.prod(lam), np.exp(jtsys.log_norm(domain, z, sign)), rtol=1e-12)


EDGE_DOMAINS = {
    "polydisc-3": dict(kind=jtsys.KIND_POLYDISC, n=3),
    "type-I(1,2)": dict(kind=jtsys.KIND_TYPE_I, p=1, q=2),
    "type-I(2,2)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=2),
    "type-I(2,3)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=3),
}


def _edge_points(d, sign):
    """The corners of the closed-form frames that are defined at sign: J = 0,
    equal frame values (beta = 0 and h = 0), a rank-deficient J, a top
    spectral value 1 - 1e-12 (sign +1) and |z| = 1e3 (sign -1)."""
    rng = np.random.default_rng(5)
    g = rng.normal(size=d.n) + 1j * rng.normal(size=d.n)
    m = min(d.r, 2)
    points = [np.zeros(d.n, dtype=complex), jtsys.frame_point(d, np.full(m, 0.7))]
    if d.kind == jtsys.KIND_TYPE_I and d.r == 2:
        q = d.shape[1]
        deficient = np.concatenate([g[:q], (0.6 - 0.3j) * g[:q]])
        points.append(0.9 * deficient / singular_values_svd(d, deficient)[0])
    if sign == 1:
        points.append(jtsys.frame_point(d, np.array([1 - 1e-12] + [0.5] * (m - 1))))
    else:
        points.append(1e3 * g / np.linalg.norm(g))
    return np.array(points)


@pytest.mark.parametrize("name", list(EDGE_DOMAINS))
@pytest.mark.parametrize("sign", [1, -1])
def test_b_quarter_power_edge_cases(name, sign):
    # the checks of test_b_quarter_power_two_routes, at 1e-12 relative to the
    # size of each compared matrix, on the corners of the closed forms, one
    # by one and mixed in one batch: U unitary to 1e-14, no warning, and each
    # row's frame the bits of its row in the batch
    d = jtsys.make_domain(**EDGE_DOMAINS[name])
    z = _edge_points(d, sign)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = jtsys.jordan_frame(d, z, sign)
        for i, point in enumerate(z):
            lam, u, k, bz = jtsys.jordan_frame(d, point, sign)
            for part, row in zip((lam, u, k, bz), batch):
                assert np.array_equal(part, row[i])
            jz = jtsys.as_matrix(d, point)
            a = np.eye(len(lam)) - sign * jz @ jz.conj().T
            want = b_quarter_power_operator(d, point, sign=sign)
            npt.assert_allclose(bz, want, atol=1e-12 * max(1.0, np.max(np.abs(want))))
            npt.assert_allclose((u * lam) @ u.conj().T, a, atol=1e-12 * max(1.0, np.max(np.abs(a))))
            npt.assert_allclose(k, u.conj().T @ jz, atol=1e-12 * max(1.0, np.max(np.abs(jz))))
            npt.assert_allclose(u.conj().T @ u, np.eye(len(lam)), atol=1e-14)
            npt.assert_allclose(np.prod(lam), np.exp(jtsys.log_norm(d, point, sign)), rtol=1e-12)


NON_FINITE_DOMAINS = {
    "polydisc-2": dict(kind=jtsys.KIND_POLYDISC, n=2),
    "type-I(1,2)": dict(kind=jtsys.KIND_TYPE_I, p=1, q=2),
    "type-I(2,2)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=2),
    "type-I(2,3)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=3),
    "type-I(3,3)": dict(kind=jtsys.KIND_TYPE_I, p=3, q=3),
}


@pytest.mark.parametrize("name", list(NON_FINITE_DOMAINS))
def test_non_finite_points_stay_out_of_the_arithmetic(name):
    # a point with an inf or NaN entry: at sign -1 its row of the frame and
    # of the derivatives of log N is NaN, with no warning, and the other rows
    # keep their bits; at sign +1 it is not in Omega, so DomainError.  The
    # largest spectral value of such a row is NaN where an entry is NaN and
    # inf otherwise, as max |z_j| is on the polydisc.  An inf + inf j entry
    # next to finite ones gives inf - inf in the rank-two closed form unless
    # its row is masked out
    d = jtsys.make_domain(**NON_FINITE_DOMAINS[name])
    z = 0.2 * np.exp(1j * np.arange(1.0, 5 * d.n + 1)).reshape(5, d.n)
    z[1, 0] = np.inf
    z[3, -1] = np.nan
    z[4, 0] = complex(np.inf, np.inf)
    finite = np.array([True, False, True, False, False])
    routes = [lambda pts, sign: jtsys.log_norm_derivatives(d, pts, sign),
              lambda pts, sign: jtsys.jordan_frame(d, pts, sign)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in routes:
            for got, want in zip(route(z, -1), route(z[finite], -1)):
                assert np.all(np.isnan(got[~finite]))
                npt.assert_array_equal(got[finite], want)
            for row in z[~finite]:
                with pytest.raises(DomainError):
                    route(row, 1)
        top = jtsys.spectral_norm(d, z)
        npt.assert_array_equal(top[~finite], [np.inf, np.nan, np.inf])
        npt.assert_array_equal(top[finite], jtsys.spectral_norm(d, z[finite]))


def test_b_quarter_power_rejects_boundary():
    d = jtsys.make_domain(jtsys.KIND_POLYDISC, n=1)
    with pytest.raises(DomainError):
        jtsys.jordan_frame(d, np.array([1.0 + 0j]), 1)
    t22 = jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2)
    with pytest.raises(DomainError):  # one point of the batch outside Omega
        jtsys.jordan_frame(t22, np.array([[0.5, 0, 0, 0.5], [0.5, 0, 0, 1.01]]), 1)
    with pytest.raises(DomainError):  # every A_ii = 0.36 > 0, but lam = 0.36 - 0.64 < 0
        jtsys.jordan_frame(t22, np.array([0.8, 0, 0.8, 0]), 1)
    # sign -1 is defined everywhere
    assert np.all(jtsys.jordan_frame(t22, np.array([3.0, 0, 0, 1.01]), -1)[0] > 1)


@given(st.floats(min_value=1e-3, max_value=0.99))
def test_b_quarter_power_rank_one_formula(lam):
    d = jtsys.make_domain(jtsys.KIND_POLYDISC, n=1)
    frame_lam, _, _, out = jtsys.jordan_frame(d, np.array([lam + 0j]), 1)
    npt.assert_allclose(out, [lam / np.sqrt(1 - lam**2)], rtol=1e-12)
    npt.assert_allclose(frame_lam, [1 - lam**2], rtol=1e-12)


def test_isotropy_preserves_norm(domain, rng):
    z = 0.6 * (rng.normal(size=(8, domain.n)) + 1j * rng.normal(size=(8, domain.n)))
    tau = jtsys.random_isotropy(domain, rng, 1)
    moved = jtsys.isotropy_apply(domain, tau, z)
    for sign in (1, -1):
        npt.assert_allclose(jtsys.log_norm(domain, moved, sign),
                            jtsys.log_norm(domain, z, sign))


def test_isotropy_rejects_non_unitary():
    d = jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2)
    bad = np.eye(2) * 2.0
    with pytest.raises(ValueError):
        jtsys.Isotropy(bad, np.eye(2))


BATCH_DOMAINS = {
    "polydisc-3": dict(kind=jtsys.KIND_POLYDISC, n=3),
    "type-I(2,3)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=3),
    "type-I(3,3)": dict(kind=jtsys.KIND_TYPE_I, p=3, q=3),
}


@pytest.mark.parametrize("name", list(BATCH_DOMAINS))
@pytest.mark.parametrize("seed", [0, 7])
def test_random_isotropy_batch_equals_single_draws(name, seed):
    d = jtsys.make_domain(**BATCH_DOMAINS[name])
    rng = np.random.default_rng(seed)
    singles = [jtsys.random_isotropy(d, rng, 1) for _ in range(6)]
    after_singles = rng.normal()
    rng = np.random.default_rng(seed)
    stack = jtsys.random_isotropy(d, rng, 6)
    assert rng.normal() == after_singles  # the same draws, in the same order
    rng = np.random.default_rng(seed)
    one_by_one = isotropy_draws(d, rng, 6)
    assert rng.normal() == after_singles
    for i, field in enumerate(("u", "v")):
        want = np.stack([draw[i] for draw in one_by_one])
        for got in (getattr(stack, field), np.concatenate([getattr(t, field) for t in singles])):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


@pytest.mark.parametrize("name", list(GRID_AND_T33))
def test_random_isotropy_draws_are_unitary(name):
    # random_isotropy skips Isotropy's runtime check: its factors are
    # permutations or QR factors times unit phases, so unitary by construction
    d = jtsys.make_domain(**GRID_AND_T33[name])
    rng = np.random.default_rng(13)
    for count in (1, 8, 300):
        tau = jtsys.random_isotropy(d, rng, count)
        for m in (tau.u, tau.v):
            assert m.shape[0] == count
            gram = np.conj(np.swapaxes(m, -1, -2)) @ m
            assert np.max(np.abs(gram - np.eye(m.shape[-1]))) <= 1e-12


def test_isotropy_stack_rejects_one_bad_slice():
    unitaries = jtsys.random_isotropy(jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=3),
                                      np.random.default_rng(2), 4)
    u = unitaries.u.copy()
    u[2] = 2.0 * np.eye(2)
    with pytest.raises(ValueError):
        jtsys.Isotropy(u, unitaries.v)
    v = unitaries.v.copy()
    v[3, 0, 0] += 1e-6
    with pytest.raises(ValueError):
        jtsys.Isotropy(unitaries.u, v)
    # polydisc-3: a phase off the unit circle makes U = P diag(phases) non-unitary
    poly3 = jtsys.make_domain(jtsys.KIND_POLYDISC, n=3)
    monomial = jtsys.random_isotropy(poly3, np.random.default_rng(2), 3)
    u = monomial.u.copy()
    u[1] = u[1] @ np.diag([1.0, 1.0, 1.1])
    with pytest.raises(ValueError, match="not unitary"):
        jtsys.Isotropy(u, monomial.v)
    # a unitary pair that is not monomial moves diag(z) off the diagonal
    haar = jtsys.random_isotropy(jtsys.make_domain(jtsys.KIND_TYPE_I, p=3, q=3),
                                 np.random.default_rng(2), 3)
    z = np.full((3, 3), 0.1 + 0.2j)
    with pytest.raises(ValueError, match="realization"):
        jtsys.isotropy_apply(poly3, jtsys.Isotropy(haar.u, monomial.v), z)
    # a pair sized for another realization
    with pytest.raises(ShapeError):
        jtsys.isotropy_apply(poly3, unitaries, z)


def test_polydisc_isotropy_keeps_a_nan_in_its_coordinate():
    # a monomial pair is recognised from U and V, not from an image where
    # 0 * NaN would spread the NaN into every entry
    d = jtsys.make_domain(jtsys.KIND_POLYDISC, n=3)
    z = np.array([0.1, np.nan, 0.2])
    # perm (2, 0, 1) with phases (1j, -1, 1): U = P diag(1j, -1, 1), V = P
    perm = np.eye(3)[[2, 0, 1]]
    tau = jtsys.Isotropy(perm * np.array([1j, -1.0, 1.0]), perm)
    moved = jtsys.isotropy_apply(d, tau, z)
    npt.assert_array_equal(moved, [0.2, 0.1j, np.nan])
    # a unitary pair that is not monomial is refused, with or without a NaN
    rot = np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, np.sqrt(2.0)]]) / np.sqrt(2.0)
    for point in (z, np.array([0.1, 0.3, 0.2])):
        with pytest.raises(ValueError, match="realization"):
            jtsys.isotropy_apply(d, jtsys.Isotropy(rot, np.eye(3)), point)
    # the same support on both sides is needed, not only a monomial U
    with pytest.raises(ValueError, match="realization"):
        jtsys.isotropy_apply(d, jtsys.Isotropy(perm, np.eye(3)), z)


def test_polydisc_isotropy_checks_shapes_without_the_matrix_stack(monkeypatch):
    # U and V are checked against n x n, a bad z before them, and no dense
    # diag(z) stack (..., n, n) is built
    d = jtsys.make_domain(jtsys.KIND_POLYDISC, n=3)
    tau = jtsys.random_isotropy(d, np.random.default_rng(0), 1)
    small = jtsys.random_isotropy(jtsys.make_domain(jtsys.KIND_POLYDISC, n=2),
                                  np.random.default_rng(0), 1)
    z = np.full((4, 3), 0.1 + 0.2j)
    want = jtsys.isotropy_apply(d, tau, z)
    monkeypatch.setattr(jtsys, "as_matrix", None)
    npt.assert_array_equal(jtsys.isotropy_apply(d, tau, z), want)
    with pytest.raises(ShapeError, match="U and V must act on 3 x 3"):
        jtsys.isotropy_apply(d, small, z)
    with pytest.raises(ShapeError, match="expected last axis 3"):
        jtsys.isotropy_apply(d, small, z[:, :2])


def test_polydisc_isotropy_oracle():
    d = jtsys.make_domain(jtsys.KIND_POLYDISC, n=2)
    # perm (1, 0) with phases (1j, 1): U = P diag(1j, 1), V = P
    tau = jtsys.Isotropy(u=np.array([[0, 1], [1j, 0]]), v=np.array([[0, 1], [1, 0]]))
    npt.assert_allclose(jtsys.isotropy_apply(d, tau, np.array([0.5, 0.2j])),
                        np.array([0.2j, 0.5j]))
