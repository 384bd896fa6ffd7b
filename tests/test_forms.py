import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from cartanhartogs import cli, forms, hartogs, jtsys, measures, verify
from cartanhartogs.errors import DomainError
from conftest import GRID_AND_T33
from reference import (base_restriction_matches, complex_hessian_batch,
                       darboux_jacobian_per_direction, det_dual_hessian_fd,
                       hartogs_hessian_two_inverses, hermitian_to_twoform_matrix,
                       jacobian_batch, log_add_exp,
                       log_norm_derivatives_two_inverses, potential_field, pullback_batch,
                       realify_map, to_complex, to_real)


def _flat_potential(pts):
    return np.sum(np.abs(pts) ** 2, axis=-1)


def test_real_coords_round_trip():
    z = np.array([[1 + 2j, 3 - 4j]])
    x = to_real(z)
    npt.assert_allclose(x, [[1.0, 2.0, 3.0, -4.0]])
    npt.assert_allclose(to_complex(x), z)


def test_complex_hessian_flat_is_identity():
    g = complex_hessian_batch(_flat_potential, np.array([[0.3 + 0.1j, -0.2j]]))
    npt.assert_allclose(g[0], np.eye(2), atol=1e-7)


def test_complex_hessian_quartic_oracle():
    # f = |z|^4 on C: d2f/dz dzbar = 4 |z|^2
    f = lambda pts: np.abs(pts[..., 0]) ** 4
    z0 = 0.5 + 0.2j
    g = complex_hessian_batch(f, np.array([z0]))
    npt.assert_allclose(g, [[4 * abs(z0) ** 2]], rtol=1e-5)


def test_complex_hessian_richardson_rate():
    # exp(|z|^2) has Hessian e^(|z|^2)(1+|z|^2); the central stencil is
    # second order, so quartering the step cuts the error ~16x in truncation
    # regime; at these steps expect at least ~8x
    f = lambda pts: np.exp(np.abs(pts[..., 0]) ** 2)
    z0 = np.array([0.7 + 0.3j])
    exact = np.exp(abs(z0[0]) ** 2) * (1 + abs(z0[0]) ** 2)
    err = []
    for h in (4e-3, 1e-3):
        g = complex_hessian_batch(f, z0[None], step=h)[0, 0, 0]
        err.append(abs(g.real - exact))
    assert err[0] / err[1] > 8.0


def test_hermitian_to_twoform_oracle():
    # g = I on C^1 -> dx ^ dy
    w = hermitian_to_twoform_matrix(np.eye(1, dtype=complex))
    npt.assert_allclose(w, [[0.0, 1.0], [-1.0, 0.0]])
    # purely imaginary off-diagonal part lands in the dx^dx' / dy^dy' blocks
    g = np.array([[2.0, 0.5 + 0.25j], [0.5 - 0.25j, 1.0]])
    w = hermitian_to_twoform_matrix(g)
    npt.assert_array_equal(w, -w.T)  # antisymmetry must hold exactly
    assert w[0, 2] == pytest.approx(-0.25)
    assert w[0, 3] == pytest.approx(0.5)


def test_flat_kahler_form_is_standard_symplectic():
    g = complex_hessian_batch(_flat_potential, np.array([0.2 + 0.1j, 0.4]))
    got = hermitian_to_twoform_matrix(g)
    # omega_0 = dx1 ^ dy1 + dx2 ^ dy2 in interleaved coordinates (x1, y1, x2, y2)
    omega0 = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    npt.assert_allclose(got, omega0, atol=1e-7)


def test_jacobian_of_linear_map_is_exact():
    a = np.array([[1.0, 2.0], [0.5, -1.0]])
    jac = jacobian_batch(lambda x: x @ a.T, np.array([[0.3, 0.7]]))
    npt.assert_allclose(jac[0], a, atol=1e-10)


def test_pullback_through_scaling():
    # zeta -> 2 zeta multiplies the flat form by 4
    target = hermitian_to_twoform_matrix(np.eye(1))
    got = pullback_batch(lambda x: 2.0 * x, np.array([[0.1, 0.2]]), target)
    npt.assert_allclose(got[0], 4.0 * target, atol=1e-9)


def test_pullback_batch_matches_single(rng):
    def warp(x):
        return np.stack([x[..., 0] + 0.3 * x[..., 1] ** 2,
                         x[..., 1] - 0.1 * x[..., 0] ** 2], axis=-1)

    target = hermitian_to_twoform_matrix(np.eye(1))
    pts = rng.normal(size=(5, 2))
    batched = pullback_batch(warp, pts, target)
    for i in range(len(pts)):
        single = pullback_batch(warp, pts[i:i + 1], target)[0]
        npt.assert_allclose(batched[i], single, atol=1e-12)


def test_darboux_pullback_single_point():
    # the headline identity at one well-conditioned point
    H = hartogs.make_hartogs(jtsys.make_domain(jtsys.KIND_POLYDISC, n=1), 1.0)
    p = np.array([0.3 + 0.1j, 0.2 - 0.2j])
    pulled = pullback_batch(realify_map(lambda c: hartogs.psi_map_vec(H, c)),
                            to_real(p[None]), hermitian_to_twoform_matrix(np.eye(2)))[0]
    g = complex_hessian_batch(potential_field(H), p)
    want = hermitian_to_twoform_matrix(g)
    assert np.max(np.abs(pulled - want)) < 1e-6


def _scale_jacobian(monkeypatch, factor):
    good = hartogs.darboux_jacobian
    monkeypatch.setattr(hartogs, "darboux_jacobian",
                        lambda H, pts, dual=False: factor * good(H, pts, dual))


def test_darboux_residuals_detect_a_wrong_map(monkeypatch):
    # a Jacobian scaled by 1.001 pulls the flat form back to 1.001^2 times
    # the right form; the closed-form side must expose the gap
    H = hartogs.make_hartogs(jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2), 1.0)
    rng = np.random.default_rng(3)
    inside = hartogs.sample_member_points(H, 40, rng)
    anywhere = hartogs.sample_heavy_points(H.domain.n + 1, 40, rng)
    assert verify.darboux_residuals(H, inside).max() <= 1e-5
    assert verify.darboux_residuals(H, anywhere, dual=True).max() <= 1e-5
    _scale_jacobian(monkeypatch, 1.001)
    assert verify.darboux_residuals(H, inside).max() > 1e-5
    assert verify.darboux_residuals(H, anywhere, dual=True).max() > 1e-5


@pytest.mark.parametrize("dims", [dict(kind=jtsys.KIND_TYPE_I, p=2, q=2),
                                  dict(kind=jtsys.KIND_POLYDISC, n=2)],
                         ids=["type-I(2,2)", "polydisc-2"])
def test_darboux_checks_resolve_a_relative_1e8_slip(monkeypatch, dims):
    # both sides are closed forms, so a tolerance of 1e-10 holds on the true
    # Jacobian and a relative slip of 1e-8 in it fails every entry
    def statuses():
        cfg = cli.RunConfig(kind=dims["kind"], n=dims.get("n"), p=dims.get("p"),
                            q=dims.get("q"), mu=(0.5, 1.0, 2.0),
                            checks=("darboux", "dual-darboux"), points=100, seed=0,
                            tol=1e-10)
        return [c["status"] for c in verify.check_darboux(cfg) + verify.check_dual_darboux(cfg)]

    assert statuses() == ["pass"] * 6
    _scale_jacobian(monkeypatch, 1.0 + 1e-8)
    assert statuses() == ["fail"] * 6


def test_darboux_residuals_blocks_match_one_shot(monkeypatch):
    H = hartogs.make_hartogs(jtsys.make_domain(jtsys.KIND_TYPE_I, p=1, q=2), 0.5)
    rng = np.random.default_rng(4)
    inside = hartogs.sample_member_points(H, 20, rng)
    anywhere = hartogs.sample_heavy_points(H.domain.n + 1, 20, rng)
    whole = [verify.darboux_residuals(H, inside),
             verify.darboux_residuals(H, anywhere, dual=True)]
    monkeypatch.setattr(verify, "_DARBOUX_BLOCK", 7)  # blocks of 7, 7 and 6 points
    npt.assert_allclose(verify.darboux_residuals(H, inside), whole[0], rtol=1e-14)
    npt.assert_allclose(verify.darboux_residuals(H, anywhere, dual=True), whole[1],
                        rtol=1e-14)


def test_darboux_residuals_memory_is_bounded():
    # a 500-point block on type-I(3,3) holds at most two arrays the size of
    # its Jacobian (1.6 MB each) and a few small ones at a time: 3.3 MB
    # traced on either side; the bound is 1.25 times that
    H = hartogs.make_hartogs(jtsys.make_domain(jtsys.KIND_TYPE_I, p=3, q=3), 2.0)
    rng = np.random.default_rng(0)
    for dual, pts in ((False, hartogs.sample_member_points(H, 500, rng)),
                      (True, hartogs.sample_heavy_points(H.domain.n + 1, 500, rng))):
        tracemalloc.start()
        try:
            verify.darboux_residuals(H, pts, dual)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.1e6


def test_stream_chunks_match_one_shot(monkeypatch):
    # chunks of 7 carry the worst residual and the four largest of one pass
    # over the same residuals, also with a NaN in a later chunk, ranked first
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(30, 3)) + 1j * rng.normal(size=(30, 3))
    monkeypatch.setattr(verify, "_CHUNK", 7)
    for residuals in (rng.normal(size=30), np.where(np.arange(30) == 23, np.nan, pts[:, 0].real)):
        taken = []

        def chunk(k):
            start = sum(taken)
            taken.append(k)
            return pts[start:start + k], residuals[start:start + k]

        worst, top_pts, top_res = verify._stream(30, chunk)
        assert taken == [7, 7, 7, 7, 2]
        order = np.argsort(-np.where(np.isnan(residuals), np.inf, residuals))[:4]
        npt.assert_array_equal(top_res, residuals[order])
        npt.assert_array_equal(top_pts, pts[order])
        npt.assert_equal(worst, np.max(residuals))


@pytest.mark.parametrize("family", ["darboux", "dual-darboux", "psh", "det-formula",
                                    "equivariance"])
def test_sampled_families_memory_is_bounded(monkeypatch, family):
    # in chunks of 64 points, a family's traced peak at 2048 points stays
    # within 1.5 times its peak at 64; det-formula and equivariance take a
    # quarter of --points, and the genus fit is a fixed cost beside the stream
    monkeypatch.setattr(verify, "_CHUNK", 64)
    monkeypatch.setattr(measures, "fit_genus", lambda d: d.genus)
    points_per_item = 4 if family in ("det-formula", "equivariance") else 1

    def peak(count):
        cfg = cli.RunConfig(kind="type-I", p=3, q=3, mu=(1.0,), checks=(family,),
                            points=points_per_item * count)
        tracemalloc.start()
        try:
            verify.CHECKS[family](cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(64)  # the first call in a process fills one-time caches
    assert peak(2048) <= 1.5 * peak(64)


@pytest.mark.parametrize("name", ["polydisc-3", "type-I(1,2)", "type-I(2,3)", "type-I(3,3)"])
def test_darboux_residuals_read_the_form_blocks_exactly(name):
    # the gap read off Re G and Im G block by block has the bits of the gap
    # to the form's whole antisymmetric matrix, built in interleaved
    # coordinates, on both sides and at a mu where the scale is tiny
    d = jtsys.make_domain(**GRID_AND_T33[name])
    rng = np.random.default_rng(6)
    for mu in (1e-8, 2.0):
        H = hartogs.make_hartogs(d, mu)
        for dual, _, pts in _map_cases(H, rng):
            jac = hartogs.darboux_jacobian(H, pts, dual)
            xy = jac.real @ np.swapaxes(jac.imag, -1, -2)
            target = hermitian_to_twoform_matrix(forms.hartogs_hessian(H, pts, dual))
            gap = np.max(np.abs(xy - np.swapaxes(xy, -1, -2) - target), axis=(-2, -1))
            want = gap / np.max(np.abs(target), axis=(-2, -1))
            npt.assert_array_equal(verify.darboux_residuals(H, pts, dual), want)


def _jacobian_gap(H, pts, dual, mapping):
    """Worst entrywise gap between darboux_jacobian and the central-difference
    Jacobian of `mapping`, relative to 1 + |entry|."""
    fd = jacobian_batch(realify_map(lambda c: mapping(H, c)), to_real(pts))
    # row a of the closed form holds d(image)/d(direction a) as complex numbers
    closed = to_real(hartogs.darboux_jacobian(H, pts, dual))
    return float(np.max(np.abs(closed - np.swapaxes(fd, -1, -2)) / (1.0 + np.abs(fd))))


def _map_cases(H, rng):
    m = H.domain.n + 1
    return [(False, hartogs.psi_map_vec, hartogs.sample_member_points(H, 20, rng)),
            (True, hartogs.phi_map_vec, hartogs.sample_heavy_points(m, 20, rng))]


# the acceptance grid plus type-I(3,3), and shapes with p != q at rank one and two
JACOBIAN_DOMAINS = {**GRID_AND_T33,
                    "type-I(1,3)": dict(kind=jtsys.KIND_TYPE_I, p=1, q=3),
                    "type-I(2,4)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=4)}


@pytest.mark.parametrize("name", list(JACOBIAN_DOMAINS))
def test_darboux_jacobian_matches_stencil(name):
    # the acceptance grid plus type-I(3,3), (1,3) and (2,4): the closed-form
    # Jacobian is the derivative of the public maps Psi and Phi; with p != q,
    # reading T1 or T2 with the (a, b) and (i, j) axes swapped fails here
    d = jtsys.make_domain(**JACOBIAN_DOMAINS[name])
    rng = np.random.default_rng(11)
    for mu in (0.5, 1.0, 2.0):
        H = hartogs.make_hartogs(d, mu)
        for dual, mapping, pts in _map_cases(H, rng):
            closed = hartogs.darboux_jacobian(H, pts, dual)
            assert closed.shape == (20, 2 * (d.n + 1), d.n + 1)
            assert _jacobian_gap(H, pts, dual, mapping) <= 1e-7
            # a batch gives the same values as its rows one at a time
            for row, want in zip(pts[:3], closed[:3]):
                npt.assert_allclose(hartogs.darboux_jacobian(H, row, dual), want,
                                    rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("name", list(JACOBIAN_DOMAINS))
def test_darboux_jacobian_matches_per_direction_assembly(name):
    # the factored Jacobian (two products per point shared by all directions)
    # against the Daleckii-Krein assembly one direction at a time, to rounding
    # relative to each point's largest entry, on both sides and up to mu = 1e2
    d = jtsys.make_domain(**JACOBIAN_DOMAINS[name])
    rng = np.random.default_rng(15)
    for mu in (0.5, 1.0, 2.0, 1e2):
        H = hartogs.make_hartogs(d, mu)
        for dual, _, pts in _map_cases(H, rng):
            want = darboux_jacobian_per_direction(H, pts, dual)
            gap = np.max(np.abs(hartogs.darboux_jacobian(H, pts, dual) - want), axis=(-2, -1))
            assert np.all(gap <= 1e-13 * np.max(np.abs(want), axis=(-2, -1))), (mu, dual)


def test_darboux_jacobian_stencil_sees_a_scaled_map():
    # the agreement above ties the Jacobian to psi_map_vec/phi_map_vec: a map
    # scaled by 1.001 leaves it far outside the stencil tolerance
    H = hartogs.make_hartogs(jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=3), 1.0)
    for dual, mapping, pts in _map_cases(H, np.random.default_rng(12)):
        scaled = lambda H, c, mapping=mapping: 1.001 * mapping(H, c)
        assert _jacobian_gap(H, pts, dual, mapping) <= 1e-7
        assert _jacobian_gap(H, pts, dual, scaled) > 1e-4


HESSIAN_DOMAINS = {
    "polydisc-1": dict(kind=jtsys.KIND_POLYDISC, n=1),
    "polydisc-3": dict(kind=jtsys.KIND_POLYDISC, n=3),
    "type-I(1,2)": dict(kind=jtsys.KIND_TYPE_I, p=1, q=2),
    "type-I(2,3)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=3),
    "type-I(3,3)": dict(kind=jtsys.KIND_TYPE_I, p=3, q=3),
}


@pytest.fixture(params=list(HESSIAN_DOMAINS), ids=list(HESSIAN_DOMAINS))
def wide_domain(request):
    return jtsys.make_domain(**HESSIAN_DOMAINS[request.param])


@pytest.mark.parametrize("sign", [1, -1])
def test_log_norm_derivatives_match_stencils(wide_domain, sign):
    d = wide_domain
    rng = np.random.default_rng(5)
    g = rng.normal(size=(6, d.n)) + 1j * rng.normal(size=(6, d.n))
    z = 0.6 * g / jtsys.spectral_norm(d, g)[:, None]  # top eigenvalue 0.6

    def log_n(zz):
        return jtsys.log_norm(d, zz, sign)

    grad, hess = jtsys.log_norm_derivatives(d, z, sign)
    assert grad.shape == (6, d.n) and hess.shape == (6, d.n, d.n)
    # d/dz = (d/dx - i d/dy) / 2 on the interleaved real Jacobian
    jac = jacobian_batch(lambda x: log_n(to_complex(x))[:, None], to_real(z))[:, 0]
    npt.assert_allclose(grad, 0.5 * (jac[:, 0::2] - 1j * jac[:, 1::2]), atol=1e-8)
    npt.assert_allclose(hess, complex_hessian_batch(log_n, z), atol=1e-5)


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
def test_hartogs_hessian_matches_stencil(wide_domain, mu):
    H = hartogs.make_hartogs(wide_domain, mu)
    m = wide_domain.n + 1
    rng = np.random.default_rng(6)
    cases = [
        (False, potential_field(H), hartogs.sample_member_points(H, 12, rng)),
        (True, potential_field(H, dual=True), hartogs.sample_heavy_points(m, 12, rng)),
        # the psh check's region
        (True, potential_field(H, dual=True), hartogs.sample_ball_points(m, 12, rng, 10.0)),
    ]
    for dual, field, pts in cases:
        closed = forms.hartogs_hessian(H, pts, dual)
        assert closed.shape == (12, m, m)
        npt.assert_allclose(closed, complex_hessian_batch(field, pts, 1e-5), atol=1e-5)
        scale = np.max(np.abs(closed))
        npt.assert_allclose(closed, np.conj(np.swapaxes(closed, -1, -2)),
                            rtol=0, atol=1e-13 * scale)
        # every step is elementwise: a row alone has the bits it has in the batch
        for row, want in zip(pts[:5], closed[:5]):
            npt.assert_array_equal(forms.hartogs_hessian(H, row, dual), want)


# the grid plus type-I(3,3), shapes with p != q at rank one and two, and rank four
DERIVATIVE_DOMAINS = {**GRID_AND_T33,
                      "type-I(1,3)": dict(kind=jtsys.KIND_TYPE_I, p=1, q=3),
                      "type-I(2,4)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=4),
                      "type-I(4,4)": dict(kind=jtsys.KIND_TYPE_I, p=4, q=4)}


def _relative_gap(got, want, axes):
    """max|got - want| over the axes, relative to max|want| there."""
    return np.max(np.abs(got - want), axis=axes) / np.max(np.abs(want), axis=axes)


@pytest.mark.parametrize("name", list(DERIVATIVE_DOMAINS))
def test_log_norm_derivatives_match_two_inverse_route(name):
    # one LDL* per point, C^-1 by push-through and coordinate-major rows
    # against two batched LAPACK inverses, to 1e-13 relative to each point's
    # largest entry: member points at both signs, heavy-tailed points at
    # sign -1; a (2, 3) batch and single points have the batch's bits
    d = jtsys.make_domain(**DERIVATIVE_DOMAINS[name])
    rng = np.random.default_rng(17)
    inside = hartogs.sample_member_points(hartogs.make_hartogs(d, 1.0), 30, rng)[:, :-1]
    heavy = hartogs.sample_heavy_points(d.n + 1, 30, rng)[:, :-1]
    for sign, z in ((1, inside), (-1, inside), (-1, heavy)):
        grad, hess = jtsys.log_norm_derivatives(d, z, sign)
        assert grad.shape == (30, d.n) and hess.shape == (30, d.n, d.n)
        want_grad, want_hess = log_norm_derivatives_two_inverses(d, z, sign)
        assert np.all(_relative_gap(grad, want_grad, -1) <= 1e-13), sign
        assert np.all(_relative_gap(hess, want_hess, (-2, -1)) <= 1e-13), sign
        block_grad, block_hess = jtsys.log_norm_derivatives(d, z[:6].reshape(2, 3, d.n), sign)
        assert block_grad.shape == (2, 3, d.n) and block_hess.shape == (2, 3, d.n, d.n)
        npt.assert_array_equal(block_grad.reshape(6, d.n), grad[:6])
        npt.assert_array_equal(block_hess.reshape(6, d.n, d.n), hess[:6])
        for row in range(3):
            one_grad, one_hess = jtsys.log_norm_derivatives(d, z[row], sign)
            assert one_grad.shape == (d.n,) and one_hess.shape == (d.n, d.n)
            npt.assert_array_equal(one_grad, grad[row])
            npt.assert_array_equal(one_hess, hess[row])


@pytest.mark.parametrize("name", list(DERIVATIVE_DOMAINS))
def test_hartogs_hessian_matches_two_inverse_route(name):
    # the coordinate-major assembly against the batch-first one on the
    # two-inverse derivatives, on both sides and up to mu = 1e2
    d = jtsys.make_domain(**DERIVATIVE_DOMAINS[name])
    rng = np.random.default_rng(18)
    for mu in (0.5, 1.0, 2.0, 1e2):
        H = hartogs.make_hartogs(d, mu)
        for dual, pts in ((False, hartogs.sample_member_points(H, 20, rng)),
                          (True, hartogs.sample_heavy_points(d.n + 1, 20, rng))):
            gap = _relative_gap(forms.hartogs_hessian(H, pts, dual),
                                hartogs_hessian_two_inverses(H, pts, dual), (-2, -1))
            assert np.all(gap <= 1e-13), (mu, dual)


@pytest.mark.parametrize("name", ["polydisc-3", "type-I(2,3)", "type-I(3,3)", "type-I(2,4)"])
def test_hessian_side_is_row_exact(name):
    # each row of both Hessians and of the derivatives of log N has the same
    # bits in one 512-row batch, in blocks of 128 and of 7 rows (SIMD tails)
    # and in a copy at a shifted memory offset
    d = jtsys.make_domain(**DERIVATIVE_DOMAINS[name])
    H = hartogs.make_hartogs(d, 1.5)
    rng = np.random.default_rng(20)
    inside = hartogs.sample_member_points(H, 512, rng)
    heavy = hartogs.sample_heavy_points(d.n + 1, 512, rng)
    cases = [(lambda p: (forms.hartogs_hessian(H, p),), inside),
             (lambda p: (forms.hartogs_hessian(H, p, dual=True),), heavy),
             (lambda p: jtsys.log_norm_derivatives(d, p[:, :-1], 1), inside),
             (lambda p: jtsys.log_norm_derivatives(d, p[:, :-1], -1), heavy)]
    for kernel, pts in cases:
        whole = kernel(pts)
        shifted = np.empty(pts.size + 1, dtype=complex)[1:].reshape(pts.shape)
        shifted[...] = pts
        runs = [kernel(shifted)]
        for block in (128, 7):
            parts = [kernel(pts[lo:lo + block]) for lo in range(0, len(pts), block)]
            runs.append([np.concatenate(part) for part in zip(*parts)])
        for run in runs:
            for got, want in zip(run, whole):
                npt.assert_array_equal(got, want)


def _rotated(lam):
    """A type-I(2,2) point with spectral values lam whose Gram diagonal
    entries are below 1 (rows of the rotation by pi/4 times diag(lam))."""
    c = np.sqrt(0.5)
    return np.array([c * lam[0], -c * lam[1], c * lam[0], c * lam[1]], dtype=complex)


OFF_OMEGA = {
    "type-I(2,2)": (dict(kind=jtsys.KIND_TYPE_I, p=2, q=2),
                    [[1.0, 0, 0, 0.3], [1.2, 0, 0, 0.3], [np.inf, 0, 0, 0.3],
                     _rotated((1.2, 0.3))]),
    "polydisc-2": (dict(kind=jtsys.KIND_POLYDISC, n=2),
                   [[1.0, 0.2], [1.2, 0.2], [np.inf, 0.2], [0.2, -1.0j]]),
}


@pytest.mark.parametrize("name", list(OFF_OMEGA))
def test_log_norm_derivatives_reject_points_off_omega(name):
    # at sign +1 a point on the boundary of Omega (spectral value 1), outside
    # it (1.2, also where every Gram diagonal entry is below 1) or with an
    # inf entry raises DomainError, alone or in a batch, before any division
    # by a pivot <= 0 and with warnings as errors; the domain Hessian too
    dims, points = OFF_OMEGA[name]
    d = jtsys.make_domain(**dims)
    H = hartogs.make_hartogs(d, 1.0)
    inside = np.full(d.n, 0.1, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in np.array(points, dtype=complex):
            with pytest.raises(DomainError):
                jtsys.log_norm_derivatives(d, z, 1)
            with pytest.raises(DomainError):
                jtsys.log_norm_derivatives(d, np.stack([inside, z]), 1)
            with pytest.raises(DomainError):
                forms.hartogs_hessian(H, np.append(z, 0.0))
        boundary = np.array(points[0], dtype=complex)
        assert all(np.all(np.isfinite(part))
                   for part in jtsys.log_norm_derivatives(d, boundary, -1))


HESSIAN_SIDE_POWER_DOMAINS = {
    "type-I(2,2)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=2),
    "type-I(1,2)": dict(kind=jtsys.KIND_TYPE_I, p=1, q=2),
    "type-I(3,3)": dict(kind=jtsys.KIND_TYPE_I, p=3, q=3),
    "polydisc-2": dict(kind=jtsys.KIND_POLYDISC, n=2),
}

# (factors of the Hessian l_jk and of the gradient l_j of log N in
# jtsys._derivative_rows) and the status of every (darboux, dual-darboux,
# det-formula) entry at tol 1e-10: the dual Hessian's Schur complement on w
# is mu t l_jk, so the determinant does not see the gradient
HESSIAN_SIDE_SLIPS = {
    "none": ((1.0, 1.0), ("pass", "pass", "pass")),
    "l_jk 1+1e-8": ((1.0 + 1e-8, 1.0), ("fail", "fail", "fail")),
    "gradient 1+1e-8": ((1.0, 1.0 + 1e-8), ("fail", "fail", "pass")),
    "gradient 1+1e-1": ((1.0, 1.1), ("fail", "fail", "pass")),
}


@pytest.mark.parametrize("slip", list(HESSIAN_SIDE_SLIPS))
@pytest.mark.parametrize("name", list(HESSIAN_SIDE_POWER_DOMAINS))
def test_hessian_side_power_table(monkeypatch, name, slip):
    (hess_factor, grad_factor), want = HESSIAN_SIDE_SLIPS[slip]
    dims = HESSIAN_SIDE_POWER_DOMAINS[name]
    good = jtsys._derivative_rows

    def slipped(D, z, sign):
        log_n, grad, (x, y) = good(D, z, sign)  # l_jk = x_ac y_bd
        return log_n, grad_factor * grad, (hess_factor * x, y)

    monkeypatch.setattr(forms, "_derivative_rows", slipped)
    cfg = cli.RunConfig(kind=dims["kind"], n=dims.get("n"), p=dims.get("p"),
                        q=dims.get("q"), mu=(0.5, 1.0, 2.0),
                        checks=("darboux", "dual-darboux", "det-formula"), points=100,
                        seed=0, tol=1e-10)
    formula = [c for c in verify.check_det_formula(cfg)
               if c["parameters"]["operation"] == "det_dual_hessian"]
    for entries, status in zip((verify.check_darboux(cfg), verify.check_dual_darboux(cfg),
                                formula), want):
        assert [c["status"] for c in entries] == [status] * 3


@pytest.mark.parametrize("name", ["type-I(2,3)", "polydisc-2"])
def test_hessian_side_takes_no_lapack_solve_and_no_frame(monkeypatch, name):
    # the Hessians, the derivatives of log N and the genus fit run with every
    # inverse, solve, eigh and det refused, and without the Jordan frame: the
    # darboux checks compare them with the eigh-based Jacobian, so the two
    # routes stay independent
    d = jtsys.make_domain(**GRID_AND_T33[name])
    H = hartogs.make_hartogs(d, 1.5)
    rng = np.random.default_rng(19)
    inside = hartogs.sample_member_points(H, 8, rng)
    heavy = hartogs.sample_heavy_points(d.n + 1, 8, rng)

    def outputs():
        return [forms.hartogs_hessian(H, inside), forms.hartogs_hessian(H, heavy, True),
                *jtsys.log_norm_derivatives(d, inside[:, :-1], 1),
                *jtsys.log_norm_derivatives(d, heavy[:, :-1], -1), measures.fit_genus(d)]

    want = outputs()

    def refuse(*args, **kwargs):
        raise AssertionError("the Hessian side took an inverse, a solve, an eigh, "
                             "a det or the Jordan frame")

    for module, attr in ((np.linalg, "inv"), (np.linalg, "solve"), (np.linalg, "eigh"),
                         (np.linalg, "det"), (jtsys, "jordan_frame")):
        monkeypatch.setattr(module, attr, refuse)
    for got, expected in zip(outputs(), want):
        npt.assert_array_equal(got, expected)


def test_det_dual_hessian_two_routes(domain):
    H = hartogs.make_hartogs(domain, 1.5)
    rng = np.random.default_rng(7)
    shape = (5, domain.n + 1)
    pts = 0.6 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    closed = forms.det_dual_hessian(H, pts)
    fd = det_dual_hessian_fd(H, pts, step=1e-4)
    assert closed.shape == fd.shape == (5,)
    assert np.all(closed > 0)
    npt.assert_allclose(fd, closed, rtol=1e-5)
    # a batch gives the same values as its rows one at a time
    for row, c, f in zip(pts, closed, fd):
        npt.assert_allclose(forms.det_dual_hessian(H, row), c, rtol=1e-12)
        npt.assert_allclose(det_dual_hessian_fd(H, row, step=1e-4), f, rtol=1e-12)


def test_det_dual_hessian_far_out_stays_finite():
    # at |z| ~ 300 on type-I(3,3) with mu = 2, N*^(mu(n+1) - gamma) and
    # G^(n+2) overflow on their own; the log-space quotient does not
    d = jtsys.make_domain(jtsys.KIND_TYPE_I, p=3, q=3)
    H = hartogs.make_hartogs(d, 2.0)
    rng = np.random.default_rng(13)
    pts = 300.0 * (rng.normal(size=(8, d.n + 1)) + 1j * rng.normal(size=(8, d.n + 1)))
    det = forms.det_dual_hessian(H, pts)
    assert np.all(np.isfinite(det)) and np.all(det > 0)
    z, w = hartogs.split_vec(H, pts)
    log_nd = jtsys.log_norm(d, z, -1)
    log_g = H.mu * log_nd + np.log1p(np.abs(w) ** 2 * np.exp(-H.mu * log_nd))
    want = d.n * np.log(H.mu) + (H.mu * (d.n + 1) - d.genus) * log_nd - (d.n + 2) * log_g
    npt.assert_allclose(np.log(det), want, rtol=1e-12)


def test_det_dual_hessian_at_huge_w_stays_finite():
    # log G takes 2 log|w|, so |w|^2 is never formed: at |w| = 1e200 it would
    # overflow; the determinant underflows to 0 instead, without a warning
    d = jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2)
    H = hartogs.make_hartogs(d, 1.0)
    rng = np.random.default_rng(16)
    pts = 0.3 * (rng.normal(size=(8, d.n + 1)) + 1j * rng.normal(size=(8, d.n + 1)))
    pts[:, -1] = 1e200 * np.exp(2j * np.pi * rng.random(8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        det = forms.det_dual_hessian(H, pts)
    assert np.all(np.isfinite(det)) and np.all(det >= 0)


def test_log_g_agrees_with_logaddexp():
    # det_dual_hessian's log G = log(N*^mu + |w|^2) is np.logaddexp's within
    # a few ulps at w = 0, at x = y exactly, at |w| = 1e150 and at mu = 1e3,
    # and neither it nor the determinant raises a RuntimeWarning there (at
    # |w| = 1e150 the determinant underflows to 0 on both routes)
    d = jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=3)
    rng = np.random.default_rng(14)
    count = 64
    z = 0.5 * (rng.normal(size=(count, d.n)) + 1j * rng.normal(size=(count, d.n)))
    phase = np.exp(2j * np.pi * rng.random(count))
    cases = {"w = 0": (1.5, z, np.zeros(count)), "|w| = 1e150": (1.5, z, 1e150 * phase),
             "mu = 1e3": (1e3, 0.05 * z, 3.0 * phase)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, (mu, zs, w) in cases.items():
            x = mu * jtsys.log_norm(d, zs, -1)
            with np.errstate(divide="ignore"):  # log 0 at w = 0
                y = np.log(np.abs(w) ** 2)
            npt.assert_array_max_ulp(forms._log_add_exp(x, y), log_add_exp(x, y), maxulp=4)
            H = hartogs.make_hartogs(d, mu)
            pts = np.concatenate([zs, w[:, None]], axis=1)
            npt.assert_allclose(forms.det_dual_hessian(H, pts), _product_formula(H, pts),
                                rtol=1e-11, err_msg=name)
        x = 1.5 * jtsys.log_norm(d, z, -1)
        npt.assert_array_equal(forms._log_add_exp(x, np.full(count, -np.inf)), x)
        npt.assert_array_max_ulp(forms._log_add_exp(x, x), log_add_exp(x, x), maxulp=4)


def test_dual_hessian_min_eigs_positive(domain, rng):
    H = hartogs.make_hartogs(domain, 0.5)
    pts = hartogs.sample_ball_points(domain.n + 1, 50, rng, 10.0)
    eigs = forms.dual_hessian_min_eigs(H, pts)
    assert np.all(eigs > 0)


def test_psh_fails_a_zero_eigenvalue(monkeypatch):
    # strict plurisubharmonicity: a smallest eigenvalue of exactly 0 is not > 0
    cfg = cli.RunConfig(kind=jtsys.KIND_POLYDISC, n=2, mu=(0.5, 1.0, 2.0), checks=("psh",),
                        points=20, samples=1000, seed=0, fd_step=1e-5, tol=1e-5)
    assert [c["status"] for c in verify.check_psh(cfg)] == ["pass"] * 3
    monkeypatch.setattr(forms, "dual_hessian_min_eigs", lambda H, pts: np.zeros(len(pts)))
    entries = verify.check_psh(cfg)
    assert [c["status"] for c in entries] == ["fail"] * 3
    assert all(c["tolerance"] == 0.0 and len(c["witnesses"]) == 4 for c in entries)


def test_base_restriction(domain, rng):
    H = hartogs.make_hartogs(domain, 2.0)
    z = 0.4 * (rng.normal(size=domain.n) + 1j * rng.normal(size=domain.n))
    assert base_restriction_matches(H, z) < 1e-6


def _product_formula(H, pts, genus_shift=0, exponent_shift=0, scale=1.0):
    """det_dual_hessian's product formula in its log-space form, optionally
    with a wrong genus, exponent or overall factor."""
    d = H.domain
    z, w = hartogs.split_vec(H, pts)
    log_nd = jtsys.log_norm(d, z, -1)
    with np.errstate(divide="ignore"):
        log_g = log_add_exp(H.mu * log_nd, 2.0 * np.log(np.abs(w)))
    return scale * np.exp(d.n * np.log(H.mu)
                          + (H.mu * (d.n + 1) - (d.genus + genus_shift)) * log_nd
                          - (d.n + 2 + exponent_shift) * log_g)


WRONG_PRODUCT_FORMULAS = {
    "genus+1": (dict(genus_shift=1), 1e-5),
    "genus-1": (dict(genus_shift=-1), 1e-5),
    "exponent n+1": (dict(exponent_shift=-1), 1e-5),
    # a relative 1e-8 slip sits below the default tolerance; the closed-form
    # reference resolves it at 1e-10
    "scale 1+1e-8": (dict(scale=1.0 + 1e-8), 1e-10),
}


@pytest.mark.parametrize("dims", [dict(kind=jtsys.KIND_TYPE_I, p=2, q=2),
                                  dict(kind=jtsys.KIND_POLYDISC, n=2)],
                         ids=["type-I(2,2)", "polydisc-2"])
@pytest.mark.parametrize("wrong", list(WRONG_PRODUCT_FORMULAS))
def test_det_formula_detects_a_wrong_product_formula(monkeypatch, dims, wrong):
    kwargs, tol = WRONG_PRODUCT_FORMULAS[wrong]
    cfg = cli.RunConfig(kind=dims["kind"], n=dims.get("n"), p=dims.get("p"),
                        q=dims.get("q"), mu=(0.5, 1.0, 2.0), checks=("det-formula",),
                        points=80, samples=1000, seed=0, fd_step=1e-5, tol=tol)
    H = hartogs.make_hartogs(cfg.domain_spec, 2.0)
    pts = hartogs.sample_heavy_points(H.domain.n + 1, 8, np.random.default_rng(9))
    npt.assert_allclose(_product_formula(H, pts), forms.det_dual_hessian(H, pts), rtol=1e-15)

    def formula_entries():
        return [c for c in verify.check_det_formula(cfg)
                if c["parameters"]["operation"] == "det_dual_hessian"]

    assert [c["status"] for c in formula_entries()] == ["pass"] * 3
    monkeypatch.setattr(forms, "det_dual_hessian",
                        lambda H, pts: _product_formula(H, pts, **kwargs))
    assert [c["status"] for c in formula_entries()] == ["fail"] * 3
