import json
import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from click.testing import CliRunner

from cartanhartogs import capacity, cli, forms, hartogs, measures, verify


def _run(args, env=None):
    return CliRunner().invoke(cli.main, args, env=env, catch_exceptions=False)


def _strip_times(text):
    return re.sub(r'"wall_time_s": [0-9.]+', '"wall_time_s": 0', text)


def test_duality_reports_unit_root():
    res = _run(["duality", "--domain", "chn", "--n", "2"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    root = report["checks"][0]["parameters"]["root"]
    assert abs(root - 1.0) < 1e-9
    assert report["summary"]["overall"] == "pass"


def test_report_schema():
    res = _run(["darboux", "--domain", "polydisc", "--n", "1",
                "--mu", "0.5", "--points", "20"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert set(report) == {"config", "checks", "summary"}
    check = report["checks"][0]
    assert set(check) == {"name", "parameters", "status", "worst_residual",
                          "tolerance", "witnesses", "wall_time_s"}
    assert check["status"] == "pass"
    assert check["worst_residual"] <= check["tolerance"]
    assert report["summary"]["artifact_version"]
    assert report["summary"]["seed"] == 0
    # config echo is complete enough to re-run
    cfg = report["config"]
    assert cfg["kind"] == "polydisc" and cfg["n"] == 1
    assert cfg["mu"] == [0.5] and cfg["checks"] == ["darboux"]


def test_volume_example():
    res = _run(["volume", "--domain", "polydisc", "--n", "1", "--mu", "1", "--seed", "7"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    flat = report["checks"][0]["parameters"]
    assert flat["operation"] == "flat_volume_quadrature"
    # the estimate is vol(M) / (pi c), c = 2 pi on the unit disc
    npt.assert_allclose(2 * np.pi**2 * flat["estimate"], np.pi**2 / 2, rtol=1e-12)
    assert [c["status"] for c in report["checks"]] == ["pass", "pass"]


def test_failing_check_exits_one(tmp_path):
    out = tmp_path / "report.json"
    # both sides of darboux are closed forms: only a tolerance below rounding fails
    res = _run(["darboux", "--domain", "polydisc", "--n", "1",
                "--points", "10", "--tol", "1e-17", "--output", str(out)])
    assert res.exit_code == 1
    report = json.loads(out.read_text())
    assert report["summary"]["overall"] == "fail"
    assert report["checks"][0]["witnesses"]


def test_usage_errors_exit_two(tmp_path):
    assert _run(["darboux", "--domain", "nosuch", "--n", "1"]).exit_code == 2
    assert _run(["darboux", "--domain", "polydisc"]).exit_code == 2
    assert _run(["darboux", "--domain", "polydisc", "--n", "1",
                 "--mu", "-2"]).exit_code == 2
    assert _run(["darboux", "--domain", "type-I", "--p", "2"]).exit_code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run(["darboux", "--config", str(bad)]).exit_code == 2
    # an integer past Python's 4300-digit limit fails inside json.load
    bad.write_text('{"domain": "polydisc", "n": 1, "points": 1' + "0" * 5000 + "}")
    res = _run(["darboux", "--config", str(bad)])
    assert res.exit_code == 2 and "cannot read config file" in res.output
    missing_dir = tmp_path / "nodir" / "report.json"
    assert _run(["duality", "--domain", "chn", "--n", "1",
                 "--output", str(missing_dir)]).exit_code == 2


@pytest.mark.parametrize("args", [
    ["darboux", "--domain", "polydisc", "--n", "0"],
    ["darboux", "--domain", "type-I", "--p", "0", "--q", "2"],
    ["darboux", "--domain", "chn", "--n", "0"],
    ["darboux", "--domain", "polydisc", "--n", "1", "--mu", "nan"],
    ["darboux", "--domain", "polydisc", "--n", "1", "--mu", "inf"],
    ["selberg", "--domain", "polydisc", "--n", "1", "--mu", "inf"],
    ["selberg", "--domain", "polydisc", "--n", "1", "--tol", "nan"],
    ["darboux", "--domain", "polydisc", "--n", "1", "--fd-step", "nan"],
    ["volume", "--domain", "polydisc", "--n", "1", "--samples", "inf"],
    ["selberg", "--domain", "type-I", "--p", "4", "--q", "4", "--mu", "0"],
    ["all", "--domain", "type-I", "--p", "4", "--q", "4", "--mu", "1e19"],
    ["darboux", "--domain", "polydisc", "--n", "1", "--points", "1" + "0" * 400],
    ["all", "--domain", "polydisc", "--n", "1", "--jobs", "1" + "0" * 400],
    ["darboux", "--domain", "polydisc", "--n", "1", "--points", "1000000001"],
    ["darboux", "--domain", "polydisc", "--n", "1", "--points", "1" + "0" * 20],
    ["darboux", "--domain", "polydisc", "--n", "1" + "0" * 400],
    ["darboux", "--domain", "polydisc", "--n", "100000000", "--points", "10"],
], ids=["polydisc-n0", "type-I-p0", "chn-n0", "mu-nan", "mu-inf", "selberg-mu-inf",
        "selberg-tol-nan", "fd-step-nan", "samples-inf", "selberg-rank4", "all-rank4",
        "points-past-float", "jobs-past-float", "points-above-cap", "points-1e20",
        "n-400-digits", "n-1e8"])
def test_out_of_range_inputs_exit_two(args):
    # out-of-range dimensions and non-finite numbers are usage errors, not
    # tracebacks, silent passes or (mu = inf: N^mu = 0) a sampler that never ends;
    # a rank-4 base runs, but not at mu = 0, nor (all takes volume) at
    # mu^16 = 1e304; a count past the float range is not finite, and more
    # than 10**9 points would stream for days; a dimension past 32 would ask
    # numpy for more memory than it can size or the machine holds
    res = _run(args)
    assert res.exit_code == 2
    assert "Error:" in res.output


@pytest.mark.parametrize("conf", [{"points": 10**400}, {"jobs": 10**400},
                                  {"points": 10**9 + 1}],
                         ids=["points-past-float", "jobs-past-float", "points-above-cap"])
def test_out_of_range_config_counts_exit_two(tmp_path, conf):
    # a config file count meets the bounds of the flags
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"domain": "polydisc", "n": 1, **conf}))
    res = _run(["all", "--config", str(path)])
    assert res.exit_code == 2
    assert "Error:" in res.output


@pytest.mark.parametrize("check, conf", [
    ("darboux", {"mu": 0.5}),
    ("darboux", {"mu": None}),
    ("darboux", {"n": "x"}),
    ("darboux", {"n": 1.5}),
    ("darboux", {"n": True}),
    ("all", {"checks": 5}),
    ("all", {"checks": [["darboux"]]}),
    ("darboux", {"output": 5}),
    ("darboux", {"points": 1.5}),
    ("darboux", {"seed": True}),
    ("darboux", {"tol": True}),
    ("darboux", {"mu": [True]}),
], ids=["mu-scalar", "mu-null", "n-string", "n-float", "n-bool", "checks-int",
        "checks-nested", "output-int", "points-float", "seed-bool", "tol-bool", "mu-bool"])
def test_wrong_typed_config_values_exit_two(tmp_path, check, conf):
    # a config file value of the wrong JSON type is a usage error, not a
    # traceback nor a value coerced in silence (1.5 points to 1, true to 1),
    # and an integer output is no file descriptor to write to
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"domain": "polydisc", "n": 1, **conf}))
    res = _run([check, "--config", str(path)])
    assert res.exit_code == 2
    assert "malformed config value" in res.output


@pytest.mark.parametrize("args", [["--n", "1", "--mu", "1e306"], ["--n", "2", "--mu", "1e200"]],
                         ids=["lgamma-overflow", "mu-power-overflow"])
def test_volume_rejects_mu_power_past_the_float_range(args):
    # math.lgamma raises OverflowError past ~2.55e305, and mu^n (a float
    # power) past ~1e308: such mu are usage errors for volume, not tracebacks
    res = _run(["volume", "--domain", "polydisc", *args, "--samples", "1000"])
    assert res.exit_code == 2
    assert "volume supports mu^n <= 1e300" in res.output
    # mu^n = 1e300 still runs and reports; it fails: log N at the flat nodes
    # (1 - 1e-300 rounds to 1) is 0 while mu log N is -1, so the fiber probe
    # just outside N^mu lands inside M
    res = _run(["volume", "--domain", "polydisc", "--n", "1", "--mu", "1e300",
                "--samples", "1000"])
    assert res.exit_code == 1
    assert len(json.loads(res.output)["checks"]) == 2


@pytest.mark.parametrize("args,code", [
    (["--domain", "type-I", "--p", "2", "--q", "2", "--mu", "1e-300"], 2),
    (["--domain", "type-I", "--p", "3", "--q", "3", "--mu", "1e-76"], 2),
    (["--domain", "type-I", "--p", "2", "--q", "2", "--mu", "1e-80"], 2),
    (["--domain", "type-I", "--p", "2", "--q", "2", "--mu", "1e-76"], 2),
    (["--domain", "polydisc", "--n", "2", "--mu", "1e-160"], 2),
    (["--domain", "polydisc", "--n", "2", "--mu", "1e-150"], 0),
], ids=["underflow-2x2", "underflow-3x3", "subnormal-2x2", "mu-power-1e-304",
        "subnormal-polydisc", "mu-power-1e-300-runs"])
def test_volume_rejects_mu_power_below_the_float_range(args, code):
    # mu^n underflows to 0 (a ZeroDivisionError in the ratio) or loses its
    # digits in the subnormal range (ratio error 0.76 on type-I(2,2) at
    # 1e-80): such mu are usage errors for volume, with every warning an
    # error too; mu^n = 1e-300 still runs and passes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _run(["volume", *args])
    assert res.exit_code == code
    if code == 2:
        assert "volume supports mu^n >= 1e-300" in res.output
    else:
        assert json.loads(res.output)["summary"]["overall"] == "pass"


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "polydisc", "n": 2, "mu": [2.0],
                               "points": 15, "seed": 5}))
    res = _run(["darboux", "--config", str(cfg)])
    report = json.loads(res.output)
    assert report["config"]["seed"] == 5
    assert report["config"]["mu"] == [2.0]
    assert report["config"]["points"] == 15

    # flags win over the file
    res = _run(["darboux", "--config", str(cfg), "--mu", "0.5", "--seed", "9"])
    report = json.loads(res.output)
    assert report["config"]["seed"] == 9
    assert report["config"]["mu"] == [0.5]


def test_env_seed_default_and_flag_override():
    env = {"CHVERIFY_SEED": "33"}
    res = _run(["duality", "--domain", "chn", "--n", "1"], env=env)
    assert json.loads(res.output)["config"]["seed"] == 33
    res = _run(["duality", "--domain", "chn", "--n", "1", "--seed", "2"], env=env)
    assert json.loads(res.output)["config"]["seed"] == 2


def test_file_seed_beats_env_seed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "chn", "n": 1, "seed": 21}))
    res = _run(["duality", "--config", str(cfg)], env={"CHVERIFY_SEED": "33"})
    assert json.loads(res.output)["config"]["seed"] == 21


# (flag, config file key, file value, flag value, echoed field, flag value
# echoed, default echoed): every field that both a config file and a flag
# can set; the file value is echoed as it is.  CHVERIFY_SEED=33 is set in
# each run, so the seed's lowest layer is the environment; `format` is read
# off the report itself, since a CSV report echoes no config
PRECEDENCE = [
    ("--domain", "domain", "chn", "polydisc", "kind", "polydisc", None),
    ("--n", "n", 2, "3", "n", 3, 1),
    ("--p", "p", 1, "2", "p", 2, None),
    ("--q", "q", 2, "3", "q", 3, None),
    ("--mu", "mu", [2.0], "0.5", "mu", [0.5], [1.0]),
    ("--points", "points", 15, "25", "points", 25, 100),
    ("--samples", "samples", 1000, "1e4", "samples", 10_000, 200_000),
    ("--seed", "seed", 21, "9", "seed", 9, 33),
    ("--fd-step", "fd-step", 1e-4, "1e-3", "fd_step", 1e-3, 1e-5),
    ("--tol", "tol", 1e-4, "1e-3", "tol", 1e-3, 1e-5),
    ("--jobs", "jobs", 2, "3", "jobs", 3, 1),
    ("--format", "format", "csv", "json", "fmt", "json", "json"),
    ("--output", "output", "file.json", "flag.json", "output", "flag.json", None),
]


@pytest.mark.parametrize("flag, key, file_val, flag_val, field, from_flag, default",
                         PRECEDENCE, ids=[row[1] for row in PRECEDENCE])
def test_layer_precedence_for_every_field(tmp_path, monkeypatch, flag, key, file_val, flag_val,
                                          field, from_flag, default):
    # the layers in order: RunConfig defaults, CHVERIFY_SEED, the config
    # file, the command-line flags; each must beat the ones before it
    monkeypatch.chdir(tmp_path)
    base = {"n": 1} if key == "domain" else {"domain": "polydisc", "n": 1}
    env = {"CHVERIFY_SEED": "33"}

    def echoed(conf, *flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(conf))
        res = _run(["selberg", "--config", str(path), *flags], env=env)
        assert res.exit_code == 0, res.output
        written = re.search(r"report written to (.+)", res.output)
        text = (tmp_path / written.group(1)).read_text() if written else res.output
        if text.startswith("name,status"):
            return {"fmt": "csv"}
        return json.loads(text)["config"]

    if key == "domain":
        res = _run(["selberg", "--n", "1"], env=env)
        assert res.exit_code == 2 and "a domain kind is required" in res.output
    else:
        assert echoed(base)[field] == default
    assert echoed({**base, key: file_val})[field] == file_val
    assert echoed({**base, key: file_val}, flag, flag_val)[field] == from_flag


def test_unknown_config_key_is_the_first_in_file_order(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"domain": "polydisc", "n": 1, "zeta-key": 1, "alpha": 2}')
    res = _run(["selberg", "--config", str(path)])
    assert res.exit_code == 2
    assert "unknown config key 'zeta_key'" in res.output


def test_report_determinism():
    args = ["psh", "--domain", "type-I", "--p", "1", "--q", "2",
            "--points", "50", "--seed", "4"]
    a = _strip_times(_run(args).output)
    b = _strip_times(_run(args).output)
    assert a == b


def test_csv_output():
    res = _run(["selberg", "--domain", "polydisc", "--n", "1",
                "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0].startswith("name,status,worst_residual")
    assert len(lines) == 5  # header + s in {0, 0.5, 1, 2.5}
    assert all(line.split(",")[1] == "pass" for line in lines[1:])


def test_all_with_jobs_matches_serial(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "domain": "polydisc", "n": 1, "mu": [1.0], "points": 12,
        "samples": 20000, "checks": ["duality", "selberg", "capacity"]}))
    serial = _strip_times(_run(["all", "--config", str(cfg)]).output)
    parallel = _strip_times(_run(["all", "--config", str(cfg),
                                  "--jobs", "3"]).output)
    # duality yields 3 results, selberg 4, capacity 2 (flat + dual at mu = 1)
    assert json.loads(serial)["summary"]["total"] == 9
    # jobs is echoed in the config, so compare checks and summary only
    sa, pa = json.loads(serial), json.loads(parallel)
    assert sa["checks"] == pa["checks"]
    assert sa["summary"] == pa["summary"]


def test_all_runs_every_family():
    res = _run(["all", "--domain", "polydisc", "--n", "1", "--points", "10",
                "--samples", "20000", "--seed", "1"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    names = {c["name"] for c in report["checks"]}
    assert names == set(cli.verify.CHECKS)


def test_capacity_rank_three_runs():
    # the flat sampler draws inside Omega, so a rank-3 base fills its batch
    res = _run(["capacity", "--domain", "type-I", "--p", "3", "--q", "3",
                "--mu", "0.5", "--samples", "400"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    eps, mu = 1e-3, 0.5
    want = {"flat-hartogs": [np.pi * (1 - eps) ** 2, np.pi],
            "dual": [np.pi * (min(1.0, np.sqrt(mu)) - eps) ** 2, np.pi * min(1.0, mu)]}
    sides = {c["parameters"]["side"]: c for c in report["checks"]}
    assert set(sides) == set(want)
    for side, check in sides.items():
        assert check["status"] == "pass"
        npt.assert_allclose(check["parameters"]["interval"], want[side], rtol=1e-12)


LARGE_MU_RUNS = {
    "dual-darboux": (["--points", "50"], (0, 1)),
    "psh": (["--points", "50"], (0, 1)),
    # Phi never forms N(z, -zbar)^mu, so its heavy-point images stay finite
    "capacity": (["--samples", "400"], (0,)),
}


@pytest.mark.parametrize("family", list(LARGE_MU_RUNS))
def test_large_mu_reports_finite_residuals(tmp_path, family):
    # N(z, -zbar)^mu overflows at mu = 1e3; the maps, the Hessian and the
    # Jacobian are taken in t = u / G and 1/G, which do not
    size, exit_codes = LARGE_MU_RUNS[family]
    out = tmp_path / "report.json"
    res = _run([family, "--domain", "type-I", "--p", "2", "--q", "2", "--mu", "1e3",
                *size, "--output", str(out)])
    assert res.exit_code in exit_codes
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) == 1
    assert all(np.isfinite(c["worst_residual"]) for c in checks)


@pytest.mark.parametrize("family", ["darboux", "equivariance"])
def test_member_sampler_runs_at_large_mu(tmp_path, family):
    # N^mu falls to ~1e-31 (darboux) and ~1e-89 (equivariance) on the sampled
    # base points at mu = 1e2; |w| is drawn in log space, so both write a
    # report instead of ending in the sampler's ConvergenceError.  darboux
    # takes its residual relative to the form, whose fiber entries grow like
    # N^(-mu), so it passes there
    out = tmp_path / "report.json"
    res = _run([family, "--domain", "type-I", "--p", "2", "--q", "2", "--mu", "1e2",
                "--points", "20", "--output", str(out)])
    assert res.exit_code in {"darboux": (0,), "equivariance": (0, 1)}[family]
    checks = json.loads(out.read_text())["checks"]
    assert checks and all(np.isfinite(c["worst_residual"]) for c in checks)


def test_equivariance_round_trip_finite_at_huge_mu(tmp_path):
    # at mu = 1e4 N(z, -zbar)^mu overflows; the inverse takes the fiber
    # factor in log space, so the round trip stays finite and warns nothing
    out = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = _run(["equivariance", "--domain", "type-I", "--p", "2", "--q", "3",
                    "--mu", "1e4", "--points", "40", "--output", str(out)])
    assert not caught
    assert res.exit_code == 0
    checks = json.loads(out.read_text())["checks"]
    assert checks and all(np.isfinite(c["worst_residual"]) for c in checks)


def test_nan_round_trip_fails(tmp_path, monkeypatch):
    # a NaN residual must reach the gate, not be dropped by a reduction
    monkeypatch.setattr(hartogs, "phi_inverse",
                        lambda H, targets: np.full_like(targets, np.nan))
    out = tmp_path / "report.json"
    res = _run(["equivariance", "--domain", "polydisc", "--n", "2", "--mu", "1",
                "--points", "20", "--output", str(out)])
    assert res.exit_code == 1
    checks = json.loads(out.read_text())["checks"]
    trip = [c for c in checks if c["parameters"]["operation"] == "psi_inverse"]
    assert trip and all(c["status"] == "fail" for c in trip)


def test_failing_capacity_witnesses_serialize(tmp_path, monkeypatch):
    # a ball of radius 1.5 leaves M: the flat side fails, and its complex
    # witness points are written as [re, im] pairs
    ball = capacity.ball_in_hartogs
    monkeypatch.setattr(capacity, "ball_in_hartogs",
                        lambda H, radius, seed: ball(H, 1.5, seed))
    out = tmp_path / "report.json"
    res = _run(["capacity", "--domain", "polydisc", "--n", "1", "--mu", "0.5",
                "--samples", "400", "--output", str(out)])
    assert res.exit_code == 1
    checks = json.loads(out.read_text())["checks"]
    flat = [c for c in checks if c["parameters"]["side"] == "flat-hartogs"]
    assert len(flat) == 1 and flat[0]["status"] == "fail"
    assert flat[0]["witnesses"]
    assert all(len(pair) == 2 and all(isinstance(x, float) for x in pair)
               for point in flat[0]["witnesses"] for pair in point)


def _named_nan(tmp_path, monkeypatch) -> list:
    """det-formula with a NaN residual at the fourth point drawn: the entry
    fails, and that point is the one witness, ranked above the finite
    residuals.  Returns the point batches the determinant was given."""
    seen = []
    closed = forms.det_dual_hessian

    def one_nan(H, pts):
        out = closed(H, pts)
        at = 3 - sum(len(p) for p in seen)
        if 0 <= at < len(pts):
            out[at] = np.nan
        seen.append(pts)
        return out

    monkeypatch.setattr(forms, "det_dual_hessian", one_nan)
    out = tmp_path / "report.json"
    res = _run(["det-formula", "--domain", "type-I", "--p", "2", "--q", "2", "--mu", "1",
                "--points", "40", "--output", str(out)])
    assert res.exit_code == 1
    entry = json.loads(out.read_text())["checks"][0]
    assert entry["status"] == "fail" and np.isnan(entry["worst_residual"])
    assert [w["point"] for w in entry["witnesses"]] == [
        capacity.pack_point(np.concatenate(seen)[3])]
    assert np.isnan(entry["witnesses"][0]["residual"])
    return seen


def test_a_nan_residual_fails_and_is_named(tmp_path, monkeypatch):
    assert len(_named_nan(tmp_path, monkeypatch)) == 1


def test_a_nan_residual_in_a_later_chunk_fails_and_is_named(tmp_path, monkeypatch):
    # the 10 points in chunks of 2: the NaN is drawn in the second, and the
    # worst residual and the witnesses carry it through the last three
    monkeypatch.setattr(verify, "_CHUNK", 2)
    assert len(_named_nan(tmp_path, monkeypatch)) == 5


def test_fd_step_is_accepted_but_unread():
    # --fd-step is validated and echoed, and no check reads it
    base = ["darboux", "--domain", "polydisc", "--n", "2", "--points", "20"]
    plain = json.loads(_run(base).output)
    stepped = json.loads(_run(base + ["--fd-step", "1e-3"]).output)
    assert stepped["config"]["fd_step"] == 1e-3
    assert all("fd_step" not in c["parameters"] for c in plain["checks"])
    strip = lambda rep: [{k: v for k, v in c.items() if k != "wall_time_s"}
                         for c in rep["checks"]]
    assert strip(plain) == strip(stepped)


def test_samples_is_accepted_but_unread():
    # --samples is validated and echoed, and no check reads it: capacity
    # takes fixed draws, so 1e9 samples give the report of 400
    base = ["capacity", "--domain", "type-I", "--p", "3", "--q", "3"]
    assert _run(base + ["--samples", "inf"]).exit_code == 2
    small, huge = (json.loads(_strip_times(_run(base + ["--samples", n]).output))
                   for n in ("400", "1e9"))
    assert (small["config"].pop("samples"), huge["config"].pop("samples")) == (400, 10**9)
    assert small == huge
    assert small["summary"]["overall"] == "pass"


def test_volume_with_no_member_node_reports_fail(monkeypatch):
    # a membership test that rejects every fiber probe zeroes the flat
    # quadrature; the ratio is then unbounded, and both entries fail in the
    # report instead of raising
    monkeypatch.setattr(measures, "ch_member_vec",
                        lambda H, pts: np.zeros(len(pts), dtype=bool))
    res = _run(["volume", "--domain", "type-I", "--p", "2", "--q", "2"])
    assert res.exit_code == 1
    checks = json.loads(res.output)["checks"]
    assert [c["parameters"]["operation"] for c in checks] == ["flat_volume_quadrature",
                                                              "dual_volume_quadrature"]
    assert [c["status"] for c in checks] == ["fail", "fail"]
    assert checks[0]["parameters"]["estimate"] == 0.0
    assert checks[1]["parameters"]["ratio"] == float("inf")


def test_selberg_runs_at_rank_four(tmp_path):
    # the exact rule covers every rank: rank 4 is no longer a usage error
    out = tmp_path / "report.json"
    res = _run(["selberg", "--domain", "type-I", "--p", "4", "--q", "4", "--output", str(out)])
    assert res.exit_code == 0
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) == 4 and all(c["status"] == "pass" for c in checks)


@pytest.mark.parametrize("shape", [("3", "3"), ("2", "4")], ids=["type-I(3,3)", "type-I(2,4)"])
def test_all_passes_on_rank_three_bases(shape):
    res = _run(["all", "--domain", "type-I", "--p", shape[0], "--q", shape[1],
                "--mu", "0.5", "--mu", "1", "--mu", "2", "--points", "20", "--samples", "2000"])
    assert res.exit_code == 0
    assert json.loads(res.output)["summary"]["failed"] == 0


def test_volume_at_mu_100_writes_a_report(tmp_path):
    # both quadratures run at mu = 1e2 without a warning or traceback, and
    # pass there (ratio error 7.6e-14); from mu ~ 1e3 the determinant
    # underflows at the dual nodes
    out = tmp_path / "report.json"
    res = _run(["volume", "--domain", "type-I", "--p", "2", "--q", "2", "--mu", "100",
                "--output", str(out)])
    assert res.exit_code == 0
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) == 2 and all(np.isfinite(c["worst_residual"]) for c in checks)
