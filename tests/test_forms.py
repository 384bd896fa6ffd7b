import numpy as np
import numpy.testing as npt
import pytest

from cartanhartogs import cli, forms, hartogs, jtsys, verify
from cartanhartogs.realcoords import to_complex, to_real
from reference import (base_restriction_matches, complex_hessian_batch, det_dual_hessian_fd,
                       jacobian_batch, pullback_batch, realify_map)


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
    w = forms.hermitian_to_twoform_matrix(np.eye(1, dtype=complex))
    npt.assert_allclose(w, [[0.0, 1.0], [-1.0, 0.0]])
    # purely imaginary off-diagonal part lands in the dx^dx' / dy^dy' blocks
    g = np.array([[2.0, 0.5 + 0.25j], [0.5 - 0.25j, 1.0]])
    w = forms.hermitian_to_twoform_matrix(g)
    npt.assert_array_equal(w, -w.T)  # antisymmetry must hold exactly
    assert w[0, 2] == pytest.approx(-0.25)
    assert w[0, 3] == pytest.approx(0.5)


def test_flat_kahler_form_is_standard_symplectic():
    g = complex_hessian_batch(_flat_potential, np.array([0.2 + 0.1j, 0.4]))
    got = forms.hermitian_to_twoform_matrix(g)
    # omega_0 = dx1 ^ dy1 + dx2 ^ dy2 in interleaved coordinates (x1, y1, x2, y2)
    omega0 = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    npt.assert_allclose(got, omega0, atol=1e-7)


def test_jacobian_of_linear_map_is_exact():
    a = np.array([[1.0, 2.0], [0.5, -1.0]])
    jac = jacobian_batch(lambda x: x @ a.T, np.array([[0.3, 0.7]]))
    npt.assert_allclose(jac[0], a, atol=1e-10)


def test_pullback_through_scaling():
    # zeta -> 2 zeta multiplies the flat form by 4
    target = forms.hermitian_to_twoform_matrix(np.eye(1))
    got = pullback_batch(lambda x: 2.0 * x, np.array([[0.1, 0.2]]), target)
    npt.assert_allclose(got[0], 4.0 * target, atol=1e-9)


def test_pullback_batch_matches_single(rng):
    def warp(x):
        return np.stack([x[..., 0] + 0.3 * x[..., 1] ** 2,
                         x[..., 1] - 0.1 * x[..., 0] ** 2], axis=-1)

    target = forms.hermitian_to_twoform_matrix(np.eye(1))
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
                            to_real(p[None]), forms.hermitian_to_twoform_matrix(np.eye(2)))[0]
    g = complex_hessian_batch(hartogs.potential_field(H), p)
    want = forms.hermitian_to_twoform_matrix(g)
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


JACOBIAN_DOMAINS = {
    "polydisc-1": dict(kind=jtsys.KIND_POLYDISC, n=1),
    "polydisc-2": dict(kind=jtsys.KIND_POLYDISC, n=2),
    "polydisc-3": dict(kind=jtsys.KIND_POLYDISC, n=3),
    "type-I(1,2)": dict(kind=jtsys.KIND_TYPE_I, p=1, q=2),
    "type-I(2,2)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=2),
    "type-I(2,3)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=3),
    "type-I(3,3)": dict(kind=jtsys.KIND_TYPE_I, p=3, q=3),
}


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


@pytest.mark.parametrize("name", list(JACOBIAN_DOMAINS))
def test_darboux_jacobian_matches_stencil(name):
    # the acceptance grid plus type-I(3,3): the closed-form Jacobian is the
    # derivative of the public maps Psi and Phi
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
    z = 0.6 * g / jtsys.singular_values(d, g)[:, :1]  # top eigenvalue 0.6

    def log_n(zz):
        return np.log(jtsys.norm_self(d, zz, sign))

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
        (False, hartogs.potential_field(H), hartogs.sample_member_points(H, 12, rng)),
        (True, hartogs.potential_field(H, dual=True), hartogs.sample_heavy_points(m, 12, rng)),
        # the psh check's region
        (True, hartogs.potential_field(H, dual=True), hartogs.sample_ball_points(m, 12, rng, 10.0)),
    ]
    for dual, field, pts in cases:
        closed = forms.hartogs_hessian(H, pts, dual)
        assert closed.shape == (12, m, m)
        npt.assert_allclose(closed, complex_hessian_batch(field, pts, 1e-5), atol=1e-5)
        scale = np.max(np.abs(closed))
        npt.assert_allclose(closed, np.conj(np.swapaxes(closed, -1, -2)),
                            rtol=0, atol=1e-13 * scale)
        # a batch gives the same values as its rows one at a time
        for row, want in zip(pts[:5], closed[:5]):
            npt.assert_allclose(forms.hartogs_hessian(H, row, dual), want, rtol=1e-12)


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
    log_nd = np.log(jtsys.norm_self(d, z, sign=-1))
    log_g = H.mu * log_nd + np.log1p(np.abs(w) ** 2 * np.exp(-H.mu * log_nd))
    want = d.n * np.log(H.mu) + (H.mu * (d.n + 1) - d.genus) * log_nd - (d.n + 2) * log_g
    npt.assert_allclose(np.log(det), want, rtol=1e-12)


def test_dual_hessian_min_eigs_positive(domain, rng):
    H = hartogs.make_hartogs(domain, 0.5)
    pts = hartogs.sample_ball_points(domain.n + 1, 50, rng, 10.0)
    eigs = forms.dual_hessian_min_eigs(H, pts)
    assert np.all(eigs > 0)


def test_base_restriction(domain, rng):
    H = hartogs.make_hartogs(domain, 2.0)
    z = 0.4 * (rng.normal(size=domain.n) + 1j * rng.normal(size=domain.n))
    assert base_restriction_matches(H, z) < 1e-6


def _product_formula(H, pts, genus_shift=0, exponent_shift=0, scale=1.0):
    """det_dual_hessian's product formula in its log-space form, optionally
    with a wrong genus, exponent or overall factor."""
    d = H.domain
    z, w = hartogs.split_vec(H, pts)
    log_nd = np.log(jtsys.norm_self(d, z, sign=-1))
    with np.errstate(divide="ignore"):
        log_g = np.logaddexp(H.mu * log_nd, np.log(np.abs(w) ** 2))
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
