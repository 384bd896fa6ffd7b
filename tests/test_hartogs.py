import json
import time
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from cartanhartogs import cli, hartogs, jtsys, verify
from cartanhartogs.errors import DomainError, ShapeError
from conftest import GRID_AND_T33
from reference import (check_equivariance_separate_calls, darboux_map_operator,
                       membership_svd, norm_det, potential_field, sample_members_filtered,
                       singular_values_svd, spectral_decompose)


def _hartogs(domain, mu):
    return hartogs.make_hartogs(domain, mu)


def _spectral_inverse_psi(H, target):
    """Closed-form inverse of Psi at one point, through the tripotent frame of
the z-part; independent of `hartogs.psi_inverse`, which calls the Jordan kernel.

    With xi the spectral values of the z-part and omega the fiber part,
    t_j = xi_j^2 / (mu (1 + |omega|^2)) gives lambda_j^2 = t_j / (1 + t_j) and
    w = omega N^(mu/2) / sqrt(1 + |omega|^2).
    """
    d = H.domain
    vec = np.asarray(target, dtype=complex)
    zeta, omega = vec[:-1], vec[-1]
    dec = spectral_decompose(d, zeta)
    t = dec.eigenvalues**2 / (H.mu * (1.0 + abs(omega) ** 2))
    lam = np.sqrt(t / (1.0 + t))
    z = np.tensordot(lam, dec.tripotents, axes=(0, 0))
    nmu = norm_det(d, z, 1) ** H.mu
    w = omega * np.sqrt(nmu) / np.sqrt(1.0 + abs(omega) ** 2)
    return np.concatenate([z, [w]])


def _spectral_inverse_phi(H, target):
    """Closed-form inverse of Phi: s_j = xi_j^2 / (mu (1 - |omega|^2)),
    lambda_j^2 = s_j / (1 - s_j), w = omega Nd^(mu/2) / sqrt(1 - |omega|^2)."""
    d = H.domain
    vec = np.asarray(target, dtype=complex)
    zeta, omega = vec[:-1], vec[-1]
    dec = spectral_decompose(d, zeta)
    s = dec.eigenvalues**2 / (H.mu * (1.0 - abs(omega) ** 2))
    lam = np.sqrt(s / (1.0 - s))
    z = np.tensordot(lam, dec.tripotents, axes=(0, 0))
    nd = norm_det(d, z, -1) ** H.mu
    w = omega * np.sqrt(nd) / np.sqrt(1.0 - abs(omega) ** 2)
    return np.concatenate([z, [w]])


def test_make_hartogs_validates_mu():
    d = jtsys.make_domain(jtsys.KIND_POLYDISC, n=1)
    with pytest.raises(DomainError):
        hartogs.make_hartogs(d, 0.0)
    with pytest.raises(DomainError):
        hartogs.make_hartogs(d, -1.0)


def test_potential_oracle():
    H = _hartogs(jtsys.make_domain(jtsys.KIND_POLYDISC, n=1), 1.0)
    pt = np.array([0.6, 0.3])
    assert potential_field(H)(pt[None])[0] == pytest.approx(-np.log(1 - 0.36 - 0.09))
    assert potential_field(H, dual=True)(pt[None])[0] == pytest.approx(np.log(1 + 0.36 + 0.09))

    H2 = _hartogs(jtsys.make_domain(jtsys.KIND_POLYDISC, n=1), 2.0)
    assert potential_field(H2)(pt[None])[0] == pytest.approx(-np.log(0.64**2 - 0.09))


def test_membership_boundary():
    H = _hartogs(jtsys.make_domain(jtsys.KIND_POLYDISC, n=2), 0.5)
    pts = np.array([[0.5, 0.5, 0.5],
                    # |w|^2 = N^mu exactly (here 1 = 1) is outside: the inequality is strict
                    [0.0, 0.0, 1.0],
                    [1.0, 0.0, 0.0]])
    assert hartogs.ch_member_vec(H, pts).tolist() == [True, False, False]


def test_membership_in_log_space_at_large_mu():
    # N = 0.36 * 0.99 at z = diag(0.8, 0.1), so N^mu ~ 1e-448 underflows to 0 at
    # mu = 1e3; the test 2 log|w| < mu log N keeps these points in M
    H = _hartogs(jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2), 1e3)
    edge = np.exp(0.5 * H.mu * np.log(0.36 * 0.99))   # |w| on the boundary, ~1e-224
    w = np.array([0.0, 1e-300, 0.999 * edge, 1.001 * edge])
    pts = np.zeros((4, 5), dtype=complex)
    pts[:, 0], pts[:, 3], pts[:, 4] = 0.8, 0.1, w
    assert hartogs.ch_member_vec(H, pts).tolist() == [True, True, True, False]


def test_log_norm_is_minus_inf_off_omega():
    # N(z, zbar) = (1 - 2.25)^2 > 0 at z = diag(1.5, 1.5), but z is not in Omega
    for d, z in ((jtsys.make_domain(jtsys.KIND_POLYDISC, n=2), [1.5, 1.5]),
                 (jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2), [1.5, 0, 0, 1.5])):
        H = _hartogs(d, 0.5)
        assert norm_det(d, np.array(z), 1) > 0
        assert jtsys.log_norm(d, np.array(z), 1) == -np.inf
        pts = np.array([z + [0.0], [0.0] * d.n + [0.5]], dtype=complex)
        assert hartogs.ch_member_vec(H, pts).tolist() == [False, True]


def test_maps_finite_where_n_mu_underflows():
    # N = 0.36 * 0.99 at z = diag(0.8, 0.1), so N^mu ~ 1e-446 at mu = 1e3 and
    # 1/G overflows; Psi and Phi take t and |w|^2/G in log space instead
    H = _hartogs(jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2), 1e3)
    pts = np.zeros((2, 5), dtype=complex)
    pts[:, 0], pts[:, 3], pts[:, 4] = 0.8, 0.1, [0.0, 1e-300]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = hartogs.psi_map_vec(H, pts)
        phi = hartogs.phi_map_vec(H, pts)
    assert np.all(np.isfinite(psi)) and np.all(np.isfinite(phi))
    # w / sqrt(G) = w N^(-mu/2) to first order: 0, and 1e-300 * e^(-mu log(N) / 2)
    omega = np.exp(np.log(1e-300) - 0.5 * H.mu * np.log(0.36 * 0.99))
    npt.assert_allclose(psi[:, -1], [0.0, omega], rtol=1e-10)
    assert np.all(np.abs(phi[:, -1]) <= 1e-300)
    # t = 1 to rounding, so the base parts are sqrt(mu) lam / sqrt(1 -/+ lam^2)
    lam = np.array([0.8, 0.1])
    for image, eps in ((psi, -1), (phi, 1)):
        npt.assert_allclose(image[:, [0, 3]], np.broadcast_to(
            np.sqrt(H.mu) * lam / np.sqrt(1 + eps * lam**2), (2, 2)), rtol=1e-12)


def test_psi_rank_one_oracle():
    # mu = 1, z = 0.6, w = 0: Psi = (0.6 / (1 - 0.36), 0) = (0.75, 0)
    H = _hartogs(jtsys.make_domain(jtsys.KIND_POLYDISC, n=1), 1.0)
    out = hartogs.psi_map_vec(H, np.array([0.6, 0.0]))
    npt.assert_allclose(out, [0.75, 0.0], atol=1e-14)


def test_psi_scalar_formula_oracle():
    # mu = 2, z = 0.6, w = 0.3: direct evaluation of the defining formula
    H = _hartogs(jtsys.make_domain(jtsys.KIND_POLYDISC, n=1), 2.0)
    nmu = 0.64**2
    g = nmu - 0.09
    zeta = np.sqrt(2 * nmu) * 0.6 / np.sqrt(1 - 0.36) / np.sqrt(g)
    omega = 0.3 / np.sqrt(g)
    out = hartogs.psi_map_vec(H, np.array([0.6, 0.3]))
    npt.assert_allclose(out, [zeta, omega], rtol=1e-14)


def test_phi_rank_one_oracle():
    # mu = 1, z = 1 (outside Omega is fine for Phi), w = 0:
    # Nd = 1 + 1 = 2, Phi_z = sqrt(2) * 1 / sqrt(2) / sqrt(2) = 1/sqrt(2)
    H = _hartogs(jtsys.make_domain(jtsys.KIND_POLYDISC, n=1), 1.0)
    out = hartogs.phi_map_vec(H, np.array([1.0, 0.0]))
    npt.assert_allclose(out, [1 / np.sqrt(2), 0.0], rtol=1e-14)


@pytest.mark.parametrize("name", list(GRID_AND_T33))
def test_maps_match_operator_route(name):
    # the one-eigh frame with fiber ratios in log space against the
    # determinant, two operator quarter powers and u = N^mu formed
    d = jtsys.make_domain(**GRID_AND_T33[name])
    rng = np.random.default_rng(3)
    for mu in (0.5, 1.0, 2.0):
        H = _hartogs(d, mu)
        pts = hartogs._sample_members(H, 30, rng, 0.9, 0.9)
        heavy = hartogs.sample_heavy_points(d.n + 1, 30, rng)
        for mapping, eps, rows in ((hartogs.psi_map_vec, -1, pts),
                                   (hartogs.phi_map_vec, 1, np.concatenate([pts, heavy]))):
            want = np.stack([darboux_map_operator(H, row, eps) for row in rows])
            npt.assert_allclose(mapping(H, rows), want, rtol=1e-13, atol=1e-13)


def test_phi_map_finite_at_large_mu():
    # N(z, -zbar)^mu overflows at mu = 1e3; the map never forms it
    H = _hartogs(jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2), 1e3)
    pts = hartogs.sample_heavy_points(5, 50, np.random.default_rng(0))
    assert np.all(np.isfinite(hartogs.phi_map_vec(H, pts)))


def test_psi_and_its_jacobian_reject_points_outside_omega():
    H = _hartogs(jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2), 1.0)
    pts = np.array([[0.3, 0, 0, 0.2, 0.1], [0.5, 0, 0, 1.2, 0.0]])
    with pytest.raises(DomainError):
        hartogs.psi_map_vec(H, pts)
    with pytest.raises(DomainError):
        hartogs.darboux_jacobian(H, pts)


@pytest.mark.parametrize("name", ["polydisc-2", "type-I(1,2)", "type-I(2,2)", "type-I(2,3)"])
def test_darboux_jacobian_keeps_the_frame_contract(name):
    # on the diagonal route (polydisc, rank one) and the rotation route (rank
    # two) the Jacobian keeps the contract of `jordan_frame`: on the dual side
    # a point with an inf or NaN entry of z comes out NaN, with no warning,
    # and the other rows keep their bits; so does a point with an inf or NaN
    # w, in Phi too (no inf * 0 in the fiber ratios); on the domain side a
    # point outside Omega, or one with an inf or NaN entry of z, raises
    # DomainError alone and inside a batch
    d = jtsys.make_domain(**GRID_AND_T33[name])
    H = _hartogs(d, 1.5)
    rng = np.random.default_rng(8)
    pts = hartogs.sample_heavy_points(d.n + 1, 9, rng)
    pts[1, 0] = np.inf
    pts[4, d.n - 1] = np.nan
    pts[6, -1] = np.inf
    pts[7, -1] = complex(-np.inf, np.inf)
    pts[8, -1] = complex(0.0, np.nan)
    finite = np.array([True, False, True, True, False, True, False, False, False])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (hartogs.phi_map_vec, lambda H, pts: hartogs.darboux_jacobian(H, pts, True)):
            got = f(H, pts)
            assert np.all(np.isnan(got[~finite]))
            npt.assert_array_equal(got[finite], f(H, pts[finite]))
            assert np.all(np.isnan(f(H, pts[6])))
    members = hartogs.sample_member_points(H, 4, rng)
    outside = members[0].copy()
    outside[:-1] = jtsys.frame_point(d, [1.2])
    for bad in (outside, pts[1], pts[4]):
        with pytest.raises(DomainError):
            hartogs.darboux_jacobian(H, bad)
        with pytest.raises(DomainError):
            hartogs.darboux_jacobian(H, np.concatenate([members, bad[None]]))
    assert np.all(np.isfinite(hartogs.darboux_jacobian(H, members)))


@pytest.mark.parametrize("name", ["type-I(2,2)", "type-I(2,3)"])
def test_rank_two_frame_keeps_the_small_spectral_value(name):
    # Phi at Haar-rotated points with spectral values (x, 0.3) and w = 0 has
    # spectral values sqrt(mu) (x, 0.3) / sqrt(1 + (x, 0.3)^2); the smaller
    # eigenvalue of I + J J* is det / lam_large, so it keeps its digits where
    # a_00 - t m would cancel (7e-3 relative at x = 1e7, NaN at 1e8)
    d = jtsys.make_domain(**GRID_AND_T33[name])
    H = _hartogs(d, 2.0)
    tau = jtsys.random_isotropy(d, np.random.default_rng(4), 20)
    for x in (1e4, 1e7, 1e8):
        z = jtsys.isotropy_apply(d, tau, jtsys.frame_point(d, np.tile([x, 0.3], (20, 1))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            img = hartogs.phi_map_vec(H, np.concatenate([z, np.zeros((20, 1))], axis=-1))
        want = np.sqrt(2.0) * np.array([x, 0.3]) / np.sqrt(1.0 + np.array([x, 0.3]) ** 2)
        npt.assert_allclose(singular_values_svd(d, img[:, :-1]), np.tile(want, (20, 1)),
                            rtol=1e-6)


def test_maps_take_only_the_jordan_frame(monkeypatch, rng):
    # on type-I(2,3) the maps, their inverses and their Jacobians take the
    # closed-form frame only: no eigh, SVD, determinant or inverse, and
    # nothing of the LDL* route (gram_pivots, its Gram diagonal, _ldl,
    # _derivative_rows) that the darboux checks compare them with; on
    # type-I(3,3) a Jacobian takes its frame from exactly one batched eigh
    H = _hartogs(jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=3), 1.5)
    H33 = _hartogs(jtsys.make_domain(jtsys.KIND_TYPE_I, p=3, q=3), 1.5)
    pts, pts33 = hartogs.sample_member_points(H, 8, rng), hartogs.sample_member_points(H33, 8, rng)
    images = (hartogs.psi_map_vec(H, pts), hartogs.phi_map_vec(H, pts))
    jacobians = [hartogs.darboux_jacobian(H, pts, dual) for dual in (False, True)]
    eigh = np.linalg.eigh

    def refuse(*args, **kwargs):
        raise AssertionError("the Jordan frame route took an eigh, a det, an SVD, an inverse "
                             "or the LDL* route")

    for module, name in ((jtsys, "log_norm"), (jtsys, "gram_pivots"),
                         (jtsys, "_gram_diagonal"), (jtsys, "_ldl"),
                         (jtsys, "_derivative_rows"),
                         (jtsys, "spectral_norm"), (hartogs, "log_norm"),
                         (hartogs, "spectral_norm"), (np.linalg, "eigh"),
                         (np.linalg, "det"), (np.linalg, "svd"), (np.linalg, "inv"),
                         (np.linalg, "solve"), (np.linalg, "eigvalsh")):
        monkeypatch.setattr(module, name, refuse)
    npt.assert_array_equal(hartogs.psi_map_vec(H, pts), images[0])
    npt.assert_array_equal(hartogs.phi_map_vec(H, pts), images[1])
    npt.assert_allclose(hartogs.psi_inverse(H, images[0]), pts, atol=1e-12)
    npt.assert_allclose(hartogs.phi_inverse(H, images[1]), pts, atol=1e-12)
    for dual, want in zip((False, True), jacobians):
        npt.assert_array_equal(hartogs.darboux_jacobian(H, pts, dual), want)
    frames = []
    monkeypatch.setattr(np.linalg, "eigh", lambda m: frames.append(m.shape) or eigh(m))
    for dual in (False, True):
        frames.clear()
        assert np.all(np.isfinite(hartogs.darboux_jacobian(H33, pts33, dual)))
        assert frames == [(8, 3, 3)]


def test_psi_matches_spectral_inverse(domain, rng):
    for mu in (0.5, 2.0):
        H = _hartogs(domain, mu)
        pts = hartogs._sample_members(H, 20, rng, 0.8, 0.8)
        images = hartogs.psi_map_vec(H, pts)
        for row, image in zip(pts, images):
            back = _spectral_inverse_psi(H, image)
            npt.assert_allclose(back, row, atol=1e-10)


def test_phi_matches_spectral_inverse(domain, rng):
    for mu in (0.5, 2.0):
        H = _hartogs(domain, mu)
        pts = hartogs._sample_members(H, 20, rng, 0.8, 0.8)
        images = hartogs.phi_map_vec(H, pts)
        for row, image in zip(pts, images):
            back = _spectral_inverse_phi(H, image)
            npt.assert_allclose(back, row, atol=1e-10)


def test_inverses_round_trip(domain, rng):
    H = _hartogs(domain, 1.5)
    pts = hartogs._sample_members(H, 8, rng, 0.75, 0.7)
    for mapping, inverse in ((hartogs.psi_map_vec, hartogs.psi_inverse),
                             (hartogs.phi_map_vec, hartogs.phi_inverse)):
        npt.assert_allclose(inverse(H, mapping(H, pts)), pts, atol=1e-9)


def test_inverses_batch_equals_spectral_rows(domain, rng):
    # the batched closed forms against the one-point tripotent route, on
    # images of member points and on far targets (Psi is onto C^(n+1))
    for mu in (0.5, 1.0, 2.0):
        H = _hartogs(domain, mu)
        pts = hartogs._sample_members(H, 10, rng, 0.8, 0.8)
        far = hartogs.sample_heavy_points(domain.n + 1, 10, rng)
        cases = ((np.concatenate([hartogs.psi_map_vec(H, pts), far]),
                  hartogs.psi_inverse, _spectral_inverse_psi),
                 (hartogs.phi_map_vec(H, np.concatenate([pts, far])),
                  hartogs.phi_inverse, _spectral_inverse_phi))
        for targets, inverse, reference in cases:
            rows = np.stack([reference(H, t) for t in targets])
            npt.assert_allclose(inverse(H, targets), rows, rtol=1e-12)


@pytest.mark.parametrize("dims", [dict(kind=jtsys.KIND_TYPE_I, p=2, q=2),
                                  dict(kind=jtsys.KIND_POLYDISC, n=2)],
                         ids=["type-I(2,2)", "polydisc-2"])
@pytest.mark.parametrize("name", ["psi_map_vec", "phi_map_vec"])
def test_round_trip_detects_a_wrong_map(monkeypatch, dims, name):
    # the inverses are closed forms, not solvers of whatever map is installed,
    # so a 1 + 1e-6 slip in either map shows in the round-trip entry
    cfg = cli.RunConfig(kind=dims["kind"], n=dims.get("n"), p=dims.get("p"),
                        q=dims.get("q"), mu=(0.5, 1.0, 2.0), checks=("equivariance",),
                        points=40, samples=1000, seed=0, fd_step=1e-5, tol=1e-5)

    def round_trip_entries():
        return [c["status"] for c in verify.check_equivariance(cfg)
                if c["parameters"]["operation"] == "psi_inverse"]

    assert round_trip_entries() == ["pass"] * 3
    good = getattr(hartogs, name)
    monkeypatch.setattr(hartogs, name, lambda H, pts: (1.0 + 1e-6) * good(H, pts))
    assert round_trip_entries() == ["fail"] * 3


@pytest.mark.parametrize("dims", [dict(kind=jtsys.KIND_TYPE_I, p=2, q=2),
                                  dict(kind=jtsys.KIND_POLYDISC, n=2)],
                         ids=["type-I(2,2)", "polydisc-2"])
@pytest.mark.parametrize("name", ["psi_map_vec", "phi_map_vec"])
def test_isotropy_pairs_detect_a_slipped_coordinate(monkeypatch, dims, name):
    # a 1 + 1e-6 slip in one coordinate of either map breaks its equivariance,
    # since the isotropy moves that coordinate into the others
    cfg = cli.RunConfig(kind=dims["kind"], n=dims.get("n"), p=dims.get("p"),
                        q=dims.get("q"), mu=(0.5, 1.0, 2.0), checks=("equivariance",),
                        points=40, samples=1000, seed=0, fd_step=1e-5, tol=1e-5)

    def pair_entries():
        return [c["status"] for c in verify.check_equivariance(cfg)
                if c["parameters"]["operation"] == "hartogs_isotropy_apply"]

    assert pair_entries() == ["pass"] * 3
    good = getattr(hartogs, name)

    def slipped(H, pts):
        out = good(H, pts)
        out[..., 0] *= 1.0 + 1e-6
        return out

    monkeypatch.setattr(hartogs, name, slipped)
    assert pair_entries() == ["fail"] * 3


def test_psi_is_onto_far_targets(rng):
    # targets far outside the domain still have preimages
    H = _hartogs(jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2), 1.0)
    targets = hartogs.sample_heavy_points(5, 6, rng)
    pre = hartogs.psi_inverse(H, targets)
    assert np.all(hartogs.ch_member_vec(H, pre))
    npt.assert_allclose(hartogs.psi_map_vec(H, pre), targets, atol=1e-8)


def test_phi_inverse_rejects_outside_image():
    H = _hartogs(jtsys.make_domain(jtsys.KIND_POLYDISC, n=1), 1.0)
    with pytest.raises(DomainError):
        hartogs.phi_inverse(H, np.array([1.1, 0.0]))  # xi^2 >= mu
    with pytest.raises(DomainError):
        hartogs.phi_inverse(H, np.array([0.5, 1.0]))  # |omega| >= 1
    with pytest.raises(DomainError):
        # inside the naive box but outside the image: xi^2 >= mu (1 - |omega|^2)
        hartogs.phi_inverse(H, np.array([0.97, 0.3]))
    with pytest.raises(ShapeError):
        # the inverses take packed (..., n+1) points, here n+1 = 2
        hartogs.psi_inverse(H, np.array([0.1, 0.2, 0.3]))


def test_phi_inverse_reaches_unbounded_preimages():
    # Phi is defined on all of C^(n+1); near-extreme targets pull back to
    # z far outside the bounded domain
    H = _hartogs(jtsys.make_domain(jtsys.KIND_POLYDISC, n=1), 1.0)
    target = np.array([0.9, 0.3])  # s = 0.81/0.91, lambda^2 = s/(1-s) = 8.1
    pre = hartogs.phi_inverse(H, target)
    npt.assert_allclose(np.abs(pre[0]) ** 2, 8.1, rtol=1e-8)
    npt.assert_allclose(hartogs.phi_map_vec(H, pre), target, atol=1e-9)


def test_phi_image_spectral_bound(domain, rng):
    H = _hartogs(domain, 0.5)
    pts = hartogs._sample_members(H, 40, rng, 0.9, 0.9)
    images = hartogs.phi_map_vec(H, pts)
    xi = singular_values_svd(domain, images[:, :-1])
    assert np.all(xi**2 < H.mu)
    assert np.all(np.abs(images[:, -1]) < 1.0)


def test_embeddings_preserve_norm(rng):
    # Delta^2 on the frame of type-I(2,3), and Delta^1 on the frame of Delta^3
    poly2 = jtsys.make_domain(jtsys.KIND_POLYDISC, n=2)
    t23 = jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=3)
    z = 0.7 * (rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
    fz = jtsys.frame_point(t23, z)
    for sign in (1, -1):
        npt.assert_allclose(norm_det(t23, fz, sign), norm_det(poly2, z, sign))

    poly1, poly3 = (jtsys.make_domain(jtsys.KIND_POLYDISC, n=k) for k in (1, 3))
    z = np.array([[0.5 + 0.1j]])
    npt.assert_allclose(jtsys.log_norm(poly3, jtsys.frame_point(poly3, z), 1),
                        jtsys.log_norm(poly1, z, 1))


def test_hereditary_lift(rng):
    t22 = jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2)
    Hs = _hartogs(jtsys.make_domain(jtsys.KIND_POLYDISC, n=2), 1.5)
    Ht = _hartogs(t22, 1.5)
    pts = hartogs.sample_member_points(Hs, 10, rng, lam_max=0.7)
    big = hartogs.psi_map_vec(Ht, hartogs.lift_embedding(t22, pts))
    small = hartogs.lift_embedding(t22, hartogs.psi_map_vec(Hs, pts))
    npt.assert_allclose(big, small, atol=1e-12)
    # the lift of a batch equals the lifts of its rows
    rows = np.stack([hartogs.lift_embedding(t22, row) for row in pts[:5]])
    npt.assert_allclose(hartogs.lift_embedding(t22, pts[:5]), rows, rtol=1e-15)


def test_rank_one_specializes_to_ball_map(rng):
    for n in (1, 2):
        H = _hartogs(jtsys.make_domain(jtsys.KIND_CHN, n=n), 1.0)
        pts = hartogs.sample_ball_points(n + 1, 50, rng, 0.95)
        npt.assert_allclose(hartogs.psi_map_vec(H, pts),
                            hartogs.unit_ball_darboux(pts), atol=1e-12)


def test_isotropy_equivariance(domain, rng):
    H = _hartogs(domain, 2.0)
    pts = hartogs.sample_member_points(H, 10, rng, lam_max=0.8)
    for row in pts[:, None]:
        tau = jtsys.random_isotropy(domain, rng, 1)
        moved = hartogs.hartogs_isotropy_apply(H, tau, row)
        for mapping in (hartogs.psi_map_vec, hartogs.phi_map_vec):
            npt.assert_allclose(mapping(H, moved),
                                hartogs.hartogs_isotropy_apply(H, tau, mapping(H, row)),
                                atol=1e-12)
    # one tau on a 5-point batch equals the same tau row by row
    rows = np.concatenate([hartogs.hartogs_isotropy_apply(H, tau, row)
                           for row in pts[:5, None]])
    npt.assert_allclose(hartogs.hartogs_isotropy_apply(H, tau, pts[:5]), rows, rtol=1e-15)


def test_isotropy_moves_a_single_packed_point(domain, rng):
    # a stack of one element moves a single (n+1,) point to a (1, n+1) row,
    # the row it gives for the same point passed as (1, n+1), keeping w and
    # the generic norm
    H = _hartogs(domain, 2.0)
    pt = hartogs.sample_member_points(H, 1, rng, lam_max=0.8)[0]
    tau = jtsys.random_isotropy(domain, rng, 1)
    moved = hartogs.hartogs_isotropy_apply(H, tau, pt)
    npt.assert_array_equal(moved, hartogs.hartogs_isotropy_apply(H, tau, pt[None]))
    assert moved.shape == (1, domain.n + 1) and moved[0, -1] == pt[-1]
    npt.assert_allclose(jtsys.log_norm(domain, moved[:, :-1], 1),
                        jtsys.log_norm(domain, pt[None, :-1], 1), rtol=1e-12)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_polydisc_isotropy_is_row_exact(n):
    # over 200 draws a point moves to the same bits alone (n+1,), as a row
    # (1, n+1), as that row of a batch moved by its element, and as that row
    # of a batch moved by a stack; numpy's complex multiply rounds
    # differently on different layouts, so the library multiplies real parts
    # (the gather itself moves no bits)
    H = _hartogs(jtsys.make_domain(jtsys.KIND_POLYDISC, n=n), 1.0)
    rng = np.random.default_rng(21)
    pts = hartogs.sample_member_points(H, 200, rng, lam_max=0.8)
    stack = jtsys.random_isotropy(H.domain, rng, len(pts))
    by_stack = hartogs.hartogs_isotropy_apply(H, stack, pts)
    for i, pt in enumerate(pts):
        tau = jtsys.Monomial(stack.perm[i:i + 1], stack.phases[i:i + 1])
        alone = hartogs.hartogs_isotropy_apply(H, tau, pt)
        assert _bits(alone) == _bits(hartogs.hartogs_isotropy_apply(H, tau, pt[None]))
        assert _bits(alone[0]) == _bits(hartogs.hartogs_isotropy_apply(H, tau, pts)[i])
        assert _bits(alone[0]) == _bits(by_stack[i])


@pytest.mark.parametrize("dims", [dict(kind=jtsys.KIND_POLYDISC, n=3),
                                  dict(kind=jtsys.KIND_TYPE_I, p=2, q=3),
                                  dict(kind=jtsys.KIND_TYPE_I, p=3, q=3)],
                         ids=["polydisc-3", "type-I(2,3)", "type-I(3,3)"])
def test_stacked_isotropy_moves_each_row_by_its_element(dims):
    H = _hartogs(jtsys.make_domain(**dims), 1.0)
    rng = np.random.default_rng(11)
    pts = hartogs.sample_member_points(H, 9, rng, lam_max=0.8)
    stack = jtsys.random_isotropy(H.domain, rng, len(pts))
    rng = np.random.default_rng(11)
    hartogs.sample_member_points(H, 9, rng, lam_max=0.8)
    singles = [jtsys.random_isotropy(H.domain, rng, 1) for _ in pts]
    rows = np.concatenate([hartogs.hartogs_isotropy_apply(H, tau, row)
                           for tau, row in zip(singles, pts[:, None])])
    npt.assert_allclose(hartogs.hartogs_isotropy_apply(H, stack, pts), rows, rtol=1e-15)


def test_sample_member_points_respects_floor(domain, rng):
    # G = N^mu - |w|^2 >= (1 - w_frac) N^mu, i.e. 2 log|w| <= log(w_frac) + mu log N,
    # with w_frac = hartogs._W_FRAC = 0.4
    H = _hartogs(domain, 0.5)
    pts = hartogs.sample_member_points(H, 200, rng)
    log_n = np.log(norm_det(domain, pts[:, :-1], 1))
    assert np.all(2.0 * np.log(np.abs(pts[:, -1])) <= np.log(0.4) + H.mu * log_n + 1e-12)
    lam = singular_values_svd(domain, pts[:, :-1])
    assert np.all(lam <= 0.55 + 1e-12)


@pytest.mark.parametrize("dims", [dict(kind=jtsys.KIND_POLYDISC, n=1),
                                  dict(kind=jtsys.KIND_TYPE_I, p=2, q=2)],
                         ids=["polydisc-1", "type-I(2,2)"])
def test_sample_member_points_full_covers(dims, rng):
    d = jtsys.make_domain(**dims)
    H = _hartogs(d, 1.0)
    pts = hartogs.sample_member_points_full(H, 4000, rng)
    assert pts.shape == (4000, d.n + 1)
    assert np.all(hartogs.ch_member_vec(H, pts))
    # near-boundary points do occur, in the base and in the fiber
    assert np.max(singular_values_svd(d, pts[:, :-1])[:, 0]) > 0.99
    assert np.min(norm_det(d, pts[:, :-1], 1) - np.abs(pts[:, -1]) ** 2) < 5e-3


@pytest.mark.parametrize("name", list(GRID_AND_T33))
@pytest.mark.parametrize("lam_max", [0.55, 0.8])
def test_interior_sampler_takes_one_pivot_pass(monkeypatch, name, lam_max):
    # below lam_max = 1 the filter is read off log_norm's -inf, with no
    # membership pass, and the rows keep the bits of the filtered loop
    d = jtsys.make_domain(**GRID_AND_T33[name])
    H = _hartogs(d, 2.0)
    monkeypatch.setattr(hartogs, "membership", None)
    for count in (1, 8, 300):
        got = hartogs.sample_member_points(H, count, np.random.default_rng(count), lam_max)
        want = sample_members_filtered(H, count, np.random.default_rng(count), lam_max, 0.40)
        assert np.array_equal(got, want)
        assert np.all(membership_svd(d, got[:, :-1]))


@pytest.mark.parametrize("name", ["polydisc-2", "type-I(2,3)"])
def test_full_sampler_tests_its_draws_with_membership(monkeypatch, name):
    # draws up to lam_max = 1 go through jtsys.membership, whose rows the
    # benchmark's traced run counts as the full sampler's tested rows
    d = jtsys.make_domain(**GRID_AND_T33[name])
    H = _hartogs(d, 1.0)
    tested = []

    def counted(D, z):
        tested.append(len(z))
        return jtsys.membership(D, z)

    monkeypatch.setattr(hartogs, "membership", counted)
    got = hartogs.sample_member_points_full(H, 500, np.random.default_rng(4))
    assert sum(tested) >= 500
    want = sample_members_filtered(H, 500, np.random.default_rng(4), 1.0, 1.0)
    assert np.array_equal(got, want)


# (patched _CHUNK, patched _BLOCK, points), None for a default: 1 pair chunk
# (10 pairs, and 8 pairs in one full chunk), 2 chunks (7 + 3) and 3 chunks
# (7 + 7 + 1, and 7 + 7 + 7); then blocks inside chunks: 10 pairs in blocks of
# 7 + 3, 15 in chunks of 7 + 7 + 1 cut into blocks of 3 + 3 + 1, and 21 in
# chunks of 20 + 1 cut into blocks of 7 + 7 + 6 and 1
EQUIVARIANCE_CHUNKS = [(None, None, 40), (8, None, 32), (7, None, 40), (7, None, 60),
                       (7, None, 84), (None, 7, 40), (7, 3, 60), (20, 7, 84)]


@pytest.mark.parametrize("name", list(GRID_AND_T33))
@pytest.mark.parametrize("chunk, block, points", EQUIVARIANCE_CHUNKS,
                         ids=[f"chunk{c}-" + (f"block{b}-" if b else "") + f"points{p}"
                              for c, b, p in EQUIVARIANCE_CHUNKS])
def test_equivariance_equals_separate_calls(monkeypatch, name, chunk, block, points):
    # the lift's and round trip's points are drawn after the last block's
    # taus and ride on its map calls; every entry keeps the bits of the route
    # that draws them after the pairs and maps them in calls of their own
    for constant, value in (("_CHUNK", chunk), ("_BLOCK", block)):
        if value is not None:
            monkeypatch.setattr(verify, constant, value)
    dims = GRID_AND_T33[name]
    cfg = cli.RunConfig(kind=dims["kind"], n=dims.get("n"), p=dims.get("p"), q=dims.get("q"),
                        mu=(0.5, 1.0, 2.0), checks=("equivariance",), points=points, seed=3)

    def entries(report):
        return [json.dumps({k: v for k, v in entry.items() if k != "wall_time_s"},
                           sort_keys=True) for entry in report]

    got = verify.check_equivariance(cfg)
    assert entries(got) == entries(check_equivariance_separate_calls(cfg))
    assert len(got) == 3 * 3 + (cfg.domain_spec.r == 1)  # 3 entries per mu, the ball at rank 1


def test_sample_member_points_fill_at_large_mu(rng):
    # at mu = 1e3 N^mu underflows for most draws; |w| is drawn in log space,
    # so every draw is kept and is a member
    H = _hartogs(jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2), 1e3)
    started = time.perf_counter()
    pts = hartogs.sample_member_points(H, 20, rng)
    assert time.perf_counter() - started < 1.0
    assert pts.shape == (20, 5)
    assert np.all(hartogs.ch_member_vec(H, pts))


def test_sample_heavy_points_cap(rng):
    pts = hartogs.sample_heavy_points(3, 500, rng)
    norms = np.linalg.norm(pts, axis=-1)
    assert np.all(norms <= 10.0 + 1e-12)
    assert np.max(norms) > 5.0


def test_sample_ball_points_radius(rng):
    pts = hartogs.sample_ball_points(2, 300, rng, 0.9)
    assert np.all(np.linalg.norm(pts, axis=-1) <= 0.9 + 1e-12)


@given(st.floats(min_value=0.05, max_value=0.9),
       st.floats(min_value=0.25, max_value=4.0))
def test_rank_one_spectral_round_trip(lam, mu):
    # scalar route: Psi followed by the closed-form inverse recovers lambda
    nmu = (1 - lam**2) ** mu
    g = nmu  # w = 0
    xi = np.sqrt(mu * nmu) * lam / (1 - lam**2) ** 0.5 / np.sqrt(g)
    t = xi**2 / mu
    lam_back = np.sqrt(t / (1 + t))
    npt.assert_allclose(lam_back, lam, rtol=1e-9)
