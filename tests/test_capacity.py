import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from cartanhartogs import capacity, cli, hartogs, jtsys, verify
from cartanhartogs.errors import DomainError
from conftest import GRID_AND_T33
from reference import singular_values_svd, unit_ball_inequality

POLY1 = jtsys.make_domain(jtsys.KIND_POLYDISC, n=1)
POLY2 = jtsys.make_domain(jtsys.KIND_POLYDISC, n=2)
T22 = jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=2)


def test_unit_ball_inequality_oracles():
    assert unit_ball_inequality(np.zeros(2)) == pytest.approx(1.0)
    assert unit_ball_inequality(np.array([1.0])) == pytest.approx(1.0)
    # interior values exceed 1 strictly
    assert unit_ball_inequality(np.array([0.5, 0.5])) > 1.0


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4))
def test_unit_ball_inequality_holds(lams):
    assert unit_ball_inequality(np.array(lams)) >= 1.0 - 1e-12


def test_ball_in_hartogs():
    H = hartogs.make_hartogs(POLY1, 1.0)
    assert not capacity.ball_in_hartogs(H, 0.999, seed=5)
    # radius beyond 1 must produce witnesses outside the domain
    assert capacity.ball_in_hartogs(H, 1.3, seed=5)


def test_ball_in_hartogs_rank_two():
    # for r > 1 the inclusion still holds at radius 1 - eps when mu <= 1
    H = hartogs.make_hartogs(T22, 0.5)
    assert not capacity.ball_in_hartogs(H, 0.999, seed=5)


@pytest.mark.parametrize("domain", [POLY1, T22], ids=["polydisc-1", "type-I(2,2)"])
def test_hartogs_in_cylinder(domain):
    # |z_11| <= ||z||_op < 1 on Omega, so radius 1 holds; the sampler does
    # not bound |z_11| by construction, so a smaller radius must fail
    H = hartogs.make_hartogs(domain, 1.0)
    assert not capacity.hartogs_in_cylinder(H, 1.0, seed=6)
    bad = capacity.hartogs_in_cylinder(H, 0.5, seed=6)
    assert bad
    assert all(np.hypot(*row[0]) >= 0.5 for row in bad)  # row: [re, im] pairs


def test_dual_image_bounds():
    for mu in (4.0, 0.25):
        H = hartogs.make_hartogs(POLY1, mu)
        failures = capacity.dual_image_bounds(H, seed=8)
        assert not failures, failures[:2]


@pytest.mark.parametrize("name", list(GRID_AND_T33))
def test_image_bound_resolves_slips_in_zeta(name, monkeypatch):
    # the frame points reach spectral value 1e6 with w = 0, where
    # 1 - xi^2 / mu = 1e-12, so zeta * (1 + 1e-4) leaves the cylinder, and
    # so does zeta * (1 + 1e-9), which a grid stopping at 1e3 would miss
    d = jtsys.make_domain(**GRID_AND_T33[name])
    good = capacity.phi_map_vec
    for mu in (0.5, 1.0, 2.0):
        H = hartogs.make_hartogs(d, mu)
        monkeypatch.setattr(capacity, "phi_map_vec", good)
        cert = capacity.capacity_certificate(H, "dual", seed=11)
        npt.assert_allclose(cert.upper, np.pi * min(1.0, mu), rtol=1e-12)
        assert not cert.failures
        for size in (1e-4, 1e-9):
            monkeypatch.setattr(capacity, "phi_map_vec", lambda H, pts: good(H, pts)
                                * np.append(np.full(d.n, 1.0 + size), 1.0))
            cert = capacity.capacity_certificate(H, "dual", seed=11)
            assert cert.upper == np.inf


@pytest.mark.parametrize("name", list(GRID_AND_T33))
def test_image_bound_resolves_a_slip_in_omega_at_every_mu(name, monkeypatch):
    # every fourth frame point sits at z = 0, where N(z, -zbar)^mu = 1 at any
    # mu, so |omega|^2 = |w|^2 / (1 + |w|^2) comes within 1e-12 of 1 and
    # omega * (1 + 1e-4) leaves the unit disc; away from z = 0, N^mu >= 2^mu
    # dwarfs |w| <= 1e6 at mu = 1e3 and the slip would pass
    d = jtsys.make_domain(**GRID_AND_T33[name])
    good = capacity.phi_map_vec
    for mu in (1e-7, 0.5, 1.0, 2.0, 1e3, 1e4):
        H = hartogs.make_hartogs(d, mu)
        monkeypatch.setattr(capacity, "phi_map_vec", good)
        assert capacity.dual_image_bounds(H, seed=3) == []
        if mu >= 1e3:
            monkeypatch.setattr(capacity, "phi_map_vec", lambda H, pts: good(H, pts)
                                * np.append(np.ones(d.n), 1.0 + 1e-4))
            assert len(capacity.dual_image_bounds(H, seed=3)) == 16


@pytest.mark.parametrize("name", list(GRID_AND_T33))
def test_ball_check_resolves_a_1e3_radius(name):
    # sphere points with one spectral value x on [0, radius]: at x = 0 the
    # fiber |w| = radius leaves M as soon as radius > 1
    d = jtsys.make_domain(**GRID_AND_T33[name])
    for mu in (0.5, 1.0):
        H = hartogs.make_hartogs(d, mu)
        assert len(capacity.ball_in_hartogs(H, 1.0 + 1e-3, seed=5)) == 16
        assert capacity.ball_in_hartogs(H, 1.0 - 1e-3, seed=5) == []


def test_targeted_draws_sit_where_the_bounds_are_tight(monkeypatch):
    # the image bound's frame points have a leading spectral value on
    # 10^0 ... 10^6, except every fourth one, which sits at z = 0, |w| = 0 on
    # every other one and |w| <= 1e6; the ball check's sphere points have one
    # spectral value on a grid of [0, radius] with both ends
    seen = []
    member, image = capacity.ch_member_vec, capacity.phi_map_vec
    monkeypatch.setattr(capacity, "ch_member_vec",
                        lambda H, pts: seen.append(pts) or member(H, pts))
    monkeypatch.setattr(capacity, "phi_map_vec",
                        lambda H, pts: seen.append(pts) or image(H, pts))
    H = hartogs.make_hartogs(jtsys.make_domain(jtsys.KIND_TYPE_I, p=2, q=3), 0.5)
    assert not capacity.dual_image_bounds(H, seed=3)
    assert not capacity.ball_in_hartogs(H, 0.999, seed=3)
    image_pts, ball_pts = seen
    frame, sphere = image_pts[:capacity._IMAGE_POINTS], ball_pts[:capacity._BALL_POINTS]
    assert len(image_pts) == capacity._IMAGE_POINTS + capacity._GENERIC_POINTS
    assert len(ball_pts) == capacity._BALL_POINTS + capacity._GENERIC_POINTS
    at_origin = np.arange(capacity._IMAGE_POINTS) % 4 == 3
    assert np.all(frame[at_origin, :-1] == 0)
    leading = singular_values_svd(H.domain, frame[~at_origin, :-1])[:, 0]
    npt.assert_allclose(np.unique(np.round(np.log10(leading), 6)), np.arange(0.0, 6.25, 0.5))
    assert np.all(frame[::2, -1] == 0) and np.all(np.abs(frame[1::2, -1]) > 0)
    assert np.max(np.abs(frame[at_origin, -1])) == pytest.approx(1e6, rel=1e-12)
    assert np.max(np.abs(frame[:, -1])) <= 1e6 * (1 + 1e-12)
    npt.assert_allclose(np.linalg.norm(sphere, axis=-1), 0.999, rtol=1e-14)
    spectra = singular_values_svd(H.domain, sphere[:, :-1])
    assert np.all(spectra[:, 1] < 1e-12)
    npt.assert_allclose(np.unique(np.round(spectra[:, 0], 12)),
                        np.round(np.linspace(0.0, 0.999, 32), 12), atol=1e-12)


def test_capacity_draws_do_not_grow_with_samples(monkeypatch):
    # every capacity check takes a fixed draw: the cylinder check's member
    # points and the sweeps' targets are the same at samples 4 and 1e9, and
    # so is the report
    sizes = []
    draw, inverse = capacity.sample_member_points_full, capacity.phi_inverse
    monkeypatch.setattr(capacity, "sample_member_points_full",
                        lambda H, count, rng: sizes.append(count) or draw(H, count, rng))
    monkeypatch.setattr(capacity, "phi_inverse",
                        lambda H, pts: sizes.append(len(pts)) or inverse(H, pts))
    runs = []
    for samples in (4, 10**9):
        sizes.clear()
        cfg = cli.RunConfig(kind=jtsys.KIND_TYPE_I, p=2, q=2, mu=(0.5, 1.0),
                            checks=("capacity",), samples=samples)
        report = [{k: v for k, v in c.items() if k != "wall_time_s"}
                  for c in verify.check_capacity(cfg)]
        runs.append((list(sizes), report))
    assert runs[0] == runs[1]
    assert runs[0][0] == [capacity._CYLINDER_POINTS, capacity._SWEEPS] * 2


def test_phi_inverse_target_oracle():
    # mu = 1, omega = 0, xi^2 = 1/4: lambda^2 = (1/4) / (1 - 1/4) = 1/3
    H = hartogs.make_hartogs(POLY1, 1.0)
    sol = hartogs.phi_inverse(H, np.array([0.5, 0.0]))
    npt.assert_allclose(np.abs(sol[0]) ** 2, 1.0 / 3.0, rtol=1e-12)
    assert sol[-1] == 0.0
    # forward map hits the requested spectral targets
    img = hartogs.phi_map_vec(H, sol)
    npt.assert_allclose(singular_values_svd(POLY1, img[:-1]), [0.5], atol=1e-12)
    npt.assert_allclose(np.abs(img[-1]), 0.0, atol=1e-12)


def test_phi_inverse_target_with_fiber():
    # spectral targets x on the diagonal frame E_11, E_22 of type-I(2,2)
    H = hartogs.make_hartogs(T22, 4.0)
    c, delta = 0.9, 0.4
    x = np.sqrt((c**2 - delta**2) * np.array([0.7, 0.3]))
    sol = hartogs.phi_inverse(H, np.array([x[0], 0.0, 0.0, x[1], delta]))
    img = hartogs.phi_map_vec(H, sol)
    npt.assert_allclose(singular_values_svd(T22, img[:-1]), np.sort(x)[::-1], atol=1e-10)
    npt.assert_allclose(np.abs(img[-1]), delta, atol=1e-10)


def test_phi_inverse_rejects_infeasible_target():
    # x^2 >= mu (1 - delta^2) in any spectral slot is outside the image of
    # Phi, though x^2 < mu and |omega| < 1: at mu = 4, delta = 0.3 the bound
    # is 3.64 and 1.95^2 = 3.8025
    H4 = hartogs.make_hartogs(POLY1, 4.0)
    with pytest.raises(DomainError):
        hartogs.phi_inverse(H4, np.array([1.95, 0.3]))
    with pytest.raises(DomainError):
        hartogs.phi_inverse(hartogs.make_hartogs(T22, 4.0),
                            np.array([1.0, 0.0, 0.0, 1.95, 0.3]))


def test_dual_sweeps_detect_a_wrong_map(monkeypatch):
    # the sweeps pull sphere targets back in closed form and push them
    # forward through Phi, so a 1 + 1e-6 slip in Phi fails every sweep
    H = hartogs.make_hartogs(T22, 2.0)
    targets = []
    inverse = capacity.phi_inverse
    monkeypatch.setattr(capacity, "phi_inverse",
                        lambda H, pts: targets.append(pts) or inverse(H, pts))
    assert not capacity._dual_sweeps(H, 0.999, seed=3)
    # every target lies on the radius-c sphere, 1 <= k <= r spectral values on
    # the frame (E_11, E_22 of the row-major 2x2 matrix), some at the fiber edge
    (pts,) = targets
    assert len(pts) == capacity._SWEEPS
    npt.assert_allclose(np.linalg.norm(pts, axis=-1), 0.999, rtol=1e-14)
    assert np.all(pts[:, [1, 2]] == 0) and np.all(pts[:, 0] > 0)
    assert 0 < np.sum(pts[:, 3] == 0) < capacity._SWEEPS
    assert 0 < np.sum(pts[:, -1] == 0.999 * (1 - 1e-6)) < capacity._SWEEPS
    good = capacity.phi_map_vec
    monkeypatch.setattr(capacity, "phi_map_vec", lambda H, pts: (1.0 + 1e-6) * good(H, pts))
    bad = capacity._dual_sweeps(H, 0.999, seed=3)
    assert len(bad) == 16
    assert set(bad[0]) == {"c", "delta", "x", "err"}
    # slips that keep the spectra and |omega|: the round trip is compared
    # point by point, so a turned fiber phase or a conjugated base fails too
    for slip in (lambda img: np.concatenate([img[:, :-1], np.exp(0.1j) * img[:, -1:]], axis=-1),
                 lambda img: np.concatenate([1j * np.conj(img[:, :-1]), img[:, -1:]], axis=-1)):
        monkeypatch.setattr(capacity, "phi_map_vec", lambda H, pts: slip(good(H, pts)))
        bad = capacity._dual_sweeps(H, 0.999, seed=3)
        assert len(bad) == 16
        assert set(bad[0]) == {"c", "delta", "x", "err"}


def test_dual_certificate_takes_no_svd(monkeypatch):
    # the image bounds test zeta / sqrt(mu) by the Gram pivots and the sweeps
    # compare points, so the dual certificate is the same with every SVD refused
    H = hartogs.make_hartogs(T22, 2.0)
    want = capacity.capacity_certificate(H, "dual", seed=11)

    def refuse(*args, **kwargs):
        raise AssertionError("the dual certificate took an SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(jtsys, "singular_values", refuse)
    assert capacity.capacity_certificate(H, "dual", seed=11) == want
    assert not want.failures


def test_capacity_certificate_flat():
    H = hartogs.make_hartogs(POLY1, 0.5)
    cert = capacity.capacity_certificate(H, "flat-hartogs", seed=11)
    npt.assert_allclose(cert.lower, np.pi * (1 - 1e-3) ** 2)
    npt.assert_allclose(cert.upper, np.pi)
    assert not cert.failures
    with pytest.raises(DomainError):
        capacity.capacity_certificate(hartogs.make_hartogs(POLY1, 2.0),
                                      "flat-hartogs", seed=11)


def test_capacity_certificate_dual_large_mu():
    H = hartogs.make_hartogs(POLY1, 4.0)
    cert = capacity.capacity_certificate(H, "dual", seed=11)
    assert cert.lower >= np.pi * (1.0 - 1e-3) ** 2
    npt.assert_allclose(cert.upper, np.pi)
    assert not cert.failures
    assert cert.notes == ()


def test_capacity_certificate_dual_small_mu():
    H = hartogs.make_hartogs(POLY1, 0.25)
    cert = capacity.capacity_certificate(H, "dual", seed=11)
    assert cert.lower >= np.pi * (0.5 - 1e-3) ** 2
    npt.assert_allclose(cert.upper, np.pi * 0.25)
    assert not cert.failures
    # the headline constant mismatch is reported, never asserted
    assert cert.notes and "reported" in cert.notes[0]


@pytest.mark.parametrize("domain", [POLY1, T22], ids=["polydisc-1", "type-I(2,2)"])
def test_capacity_certificate_dual_tiny_mu(domain):
    # sqrt(mu) < eps: the inner radius clamps at 0 instead of going negative
    mu = 1e-7
    cert = capacity.capacity_certificate(hartogs.make_hartogs(domain, mu), "dual", seed=11)
    assert cert.lower == 0.0
    npt.assert_allclose(cert.upper, np.pi * mu)
    assert not cert.failures
    # the note states the clamped interval, not [pi (sqrt(mu)-eps)^2, pi mu]
    assert len(cert.notes) == 1 and "[0, pi mu]" in cert.notes[0]


def test_capacity_certificate_unknown_side():
    with pytest.raises(DomainError):
        capacity.capacity_certificate(hartogs.make_hartogs(POLY1, 1.0), "nosuch", seed=11)


def test_dual_certificate_higher_rank():
    H = hartogs.make_hartogs(T22, 2.0)
    cert = capacity.capacity_certificate(H, "dual", seed=11)
    assert cert.lower >= np.pi * (1.0 - 1e-3) ** 2
    assert not cert.failures
